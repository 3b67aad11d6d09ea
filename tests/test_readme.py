"""README's examples run as written: the library block, and each
``$ qsl2 ...`` command prints exactly the lines shown under it."""

import re
import shlex
from pathlib import Path

from qsl2.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def shell_examples():
    """(argv, expected stdout) for each ``$ qsl2`` line: the lines below it up to a blank line."""
    examples = []
    for _, body in BLOCKS:
        for command, output in re.findall(r"^\$ qsl2 (.*)\n((?:.+\n)*)", body, re.M):
            examples.append((shlex.split(command), output))
    return examples


def test_readme_python_block_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_shell_examples_print_what_they_show(capsys):
    examples = shell_examples()
    assert len(examples) == README.count("\n$ qsl2 ") == 2
    for argv, expected in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv
