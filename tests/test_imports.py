"""Importing the package loads scipy only where a function calls it."""

import os
import subprocess
import sys

import degparab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(degparab.__file__)))


def test_import_leaves_scipy_unloaded():
    code = ("import sys, degparab; "
            "print(sorted(m for m in ('scipy.special', 'scipy.sparse', "
            "'scipy.ndimage') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
