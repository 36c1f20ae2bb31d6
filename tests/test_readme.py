"""README's library quick start runs as written and prints what it says.

Each `print(...)  # text` line of the quick start must print `text`, or
the start of `text` up to a space and a parenthesized note.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 1, f"{len(blocks)} python blocks in README.md"
    return blocks[0]


def test_quick_start_prints_its_comments():
    code = quick_start()
    expected = [m.group(1) for m in re.finditer(r"^print\(.*\)  # (.*)$", code, flags=re.M)]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, comment in zip(printed, expected):
        assert comment == got or comment.startswith(got + " ("), (got, comment)
