"""The README's examples, run and compared with the output they show.

The "Python API in one minute" block is run with its prints captured: each
commented print must print the text its comment begins with (followed by
nothing or by a comma). Each `rigidset ...` line of an `sh` block runs
through cli.main, and its stdout must be the `# ` lines that follow it. A
block that shows no output must be marked unchecked on the line above its
fence, and a marked block may show none, so no example is skipped silently.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from rigidset.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
UNCHECKED = "<!-- unchecked:"


def blocks(language):
    """(the line above the fence, the block's lines) of each fenced block
    of `language`."""
    for match in re.finditer(rf"^([^\n]*)\n```{language}\n(.*?)^```$", README, re.M | re.S):
        yield match.group(1), match.group(2).splitlines()


def commands():
    """(command, shown stdout lines, marked unchecked) of each `rigidset`
    line of an sh block."""
    for above, lines in blocks("sh"):
        for i, line in enumerate(lines):
            if line.startswith("rigidset "):
                shown = []
                for after in lines[i + 1:]:
                    if not after.startswith("# "):
                        break
                    shown.append(after[2:])
                yield line, shown, above.startswith(UNCHECKED)


COMMANDS = list(commands())


def test_the_examples_are_found():
    assert len(list(blocks("python"))) == 1
    assert sum(1 for _, shown, _ in COMMANDS if shown) == 2
    assert sum(1 for _, _, unchecked in COMMANDS if unchecked) == 4


@pytest.mark.parametrize("command, shown, unchecked", COMMANDS, ids=[c for c, _, _ in COMMANDS])
def test_command_prints_what_the_readme_shows(capsys, command, shown, unchecked):
    assert unchecked != bool(shown), "a command shows its output exactly when it is not marked"
    if unchecked:
        return
    assert main(shlex.split(command)[1:]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("".join(line + "\n" for line in shown), "")


def test_python_api_block_prints_its_comments():
    (_, lines), = blocks("python")
    expected = [line.split("# ", 1)[1] for line in lines
                if line.startswith("print(") and "# " in line]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec("\n".join(lines), {})
    printed = stdout.getvalue().splitlines()
    assert len(printed) == len(expected) == 5
    for got, comment in zip(printed, expected):
        assert comment == got or comment.startswith(got + ","), (got, comment)
