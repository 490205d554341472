"""The README's python blocks run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def test_readme_python_blocks_run_in_order(capsys):
    # each block may use the names an earlier one defined
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(),
                            flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    assert "rep" in namespace
