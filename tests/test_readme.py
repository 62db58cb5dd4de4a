"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, flags=re.S))
    assert blocks, "README.md has no python block"
    for block in blocks:
        # pad so tracebacks name the README line
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
