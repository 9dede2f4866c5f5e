"""The Python examples in README.md run and print what they claim."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
# A line ``print(...)  # expected`` claims the line it prints.
CLAIM = re.compile(r"^\s*print\(.*\)\s+#\s?(.*)$")


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_prints_its_comments(block):
    expected = [m.group(1) for m in map(CLAIM.match, block.splitlines()) if m]
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected
