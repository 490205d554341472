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


def test_fd_solve_leaves_scipy_sparse_unloaded():
    code = ("import sys\n"
            "from degparab import (GridSpec, TimePartition, constant_profile,"
            " fd_solve, gaussian_bump, scalar_path)\n"
            "grid = GridSpec(dim=1, n=32, length=8.0)\n"
            "fd_solve(gaussian_bump(grid, width=1.0), None,"
            " scalar_path(constant_profile(1.0), 1),"
            " TimePartition.uniform(4, 0.1))\n"
            "print('scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
