"""The canonical argv reader of qsl2.cli against argparse, over a fixed list of argvs.

Run from the repository root with any supported Python:

    python tests/argv_differential.py

For each argv, ``cli._read_canonical`` must defer (return None), return the
Namespace argparse's ``parse_args`` returns, or raise the UsageError argparse
raises, message word for word.  The argvs are regen_golden.grid(), then, for
each command path, a request with a valid value for every flag, in the listed
order and reversed, with each flag in turn spelled whole, joined to its value
by "=", abbreviated, repeated, dropped, or replaced by an unknown flag, or
given each of ODD_VALUES as the next token and joined; then the request with
-h first and last, and with its command or kind unknown or left out.  The
enumeration is deterministic, and each argv is checked once.  Prints the
counts of argvs read, deferred, refused and differing, then each differing
argv; the exit status is 1 on any difference.  Uses only the standard library
and qsl2; pytest does not collect this file, and tests/test_cli.py imports its
tables and helpers.
"""

from __future__ import annotations

import contextlib
import io
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qsl2 import cli  # noqa: E402

# each command path and its whole flags; the switches take no value
FLAGS = {
    ("decompose",): ["--m", "--n", "--quantum", "--format"],
    ("hwv",): ["--m", "--n", "--p", "--quantum", "--format"],
    ("check", "findim"): ["--n", "--quantum", "--inject-fault", "--describe", "--format"],
    ("check", "verma"): ["--hw", "--depth", "--inject-fault", "--describe", "--format"],
    ("check", "rasskazova"):
        ["--beta", "--lambda", "--n", "--window", "--inject-fault", "--describe", "--format"],
    ("qtable",): ["--max-n", "--format"],
}
SWITCHES = {"--quantum", "--inject-fault", "--describe"}

# a valid value for each flag that takes one, by command path
VALID = {
    ("decompose",): {"--m": "2", "--n": "1"},
    ("hwv",): {"--m": "2", "--n": "1", "--p": "1"},
    ("check", "findim"): {"--n": "2"},
    ("check", "verma"): {"--hw": "1/2", "--depth": "2"},
    ("check", "rasskazova"): {"--beta": "1/2", "--lambda": "3", "--n": "1", "--window": "1"},
    ("qtable",): {"--max-n": "3"},
}

ODD_VALUES = ["-3/2", "٣", "+5", "1_0", " 4", "", "--m", "-1", "3.0", "xml", "0", "--", "1/0"]


def argparse_or_error(argv):
    """build_parser().parse_args(argv), or the exception it raised (SystemExit for help)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.build_parser().parse_args(argv)
    except (cli.UsageError, SystemExit) as exc:
        return exc


def reader_or_error(argv):
    """cli._read_canonical(build_parser(), argv): a Namespace, None, or the UsageError it raised."""
    try:
        return cli._read_canonical(cli.build_parser(), argv)
    except cli.UsageError as exc:
        return exc


def agrees(read, expected):
    """The reader deferred, or it gave argparse's Namespace, or argparse's UsageError word for word."""
    return (read is None or read == expected  # an exception never equals a Namespace
            or type(read) is type(expected) is cli.UsageError and str(read) == str(expected))


def spellings(flag: str, value: str | None) -> list[list[str]]:
    """The tokens of one flag: whole, joined by "=", each abbreviation, repeated, dropped, unknown,
    and given each odd value as the next token and joined."""
    given = [flag] if value is None else [flag, value]
    forms = [given, [f"{flag}={value or 'x'}"], *([flag[:i], *given[1:]] for i in range(3, len(flag))),
             given + given, [], ["--bogus", *given[1:]]]
    return forms + [form for odd in ODD_VALUES for form in ([flag, odd], [f"{flag}={odd}"])]


def argvs() -> list[list[str]]:
    """regen_golden.grid(), then each command path's requests as the module docstring lists them."""
    import regen_golden

    out = regen_golden.grid()
    for path, flags in FLAGS.items():
        for order in (flags, flags[::-1]):
            valued = [(flag, None if flag in SWITCHES else VALID[path].get(flag, "json")) for flag in order]
            given = [spellings(flag, value)[0] for flag, value in valued]  # each flag whole
            for i, (flag, value) in enumerate(valued):
                out += [[*path, *sum(given[:i], []), *form, *sum(given[i + 1:], [])] for form in spellings(flag, value)]
            whole = sum(given, [])
            out += [[*path, "-h", *whole], [*path, *whole, "-h"], [*path[:-1], "bogus", *whole], [*path[:-1], *whole]]
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]  # each once, in first-seen order


def main() -> int:
    counts, differ = dict.fromkeys(("read", "deferred", "refused"), 0), []
    for argv in argvs():
        read, expected = reader_or_error(argv), argparse_or_error(argv)
        counts["deferred" if read is None else "refused" if isinstance(read, cli.UsageError) else "read"] += 1
        if not agrees(read, expected):
            differ.append((argv, read, expected))
    total = sum(counts.values())
    print(f"Python {platform.python_version()}: {total} argvs, "
          + ", ".join(f"{n} {what}" for what, n in counts.items()) + f", {len(differ)} differ")
    for argv, read, expected in differ:
        print(f"differs: {argv}: reader {read!r}, argparse {expected!r}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
