"""README's fenced python blocks run, in order, in one namespace, so the
documented `from robustpanel import ...` lines and calls keep working."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_blocks_run():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
