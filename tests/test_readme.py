"""README's library quick start runs as written and prints what it says.

Each `print(...)  # text` line of the quick start must print `text`, or
the start of `text` up to a space and a parenthesized note.  Each command
of the "Command line" block must parse, every name the package exports
must exist, and the "Public API" table must list each of them once.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import entmin
from entmin.cli import build_parser

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


def command_lines() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, flags=re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("entmin ")]


def test_command_line_examples_parse():
    lines = command_lines()
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])  # exits 2 on drift


def test_every_exported_name_resolves():
    assert [name for name in entmin.__all__ if not hasattr(entmin, name)] == []


def test_public_api_table_lists_every_exported_name_once():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = [name for row in re.findall(r"^\| `entmin\.\w+` \| (.*) \|$", section, flags=re.M)
             for name in re.findall(r"`(\w+)`", row)]
    assert sorted(names) == sorted(entmin.__all__)
    assert f"holds {len(entmin.__all__)} names" in section
