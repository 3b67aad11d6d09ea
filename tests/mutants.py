"""Single-operator mutation testing of named functions against the test suite.

Run from anywhere, naming each target as file:function (a method as
Class.method), with paths relative to the repository root:

    python3 tests/mutants.py src/qsl2/modrep.py:WeightModule._validate src/qsl2/tensorcg.py:_kernel

Each mutant changes one operator token of one target function: a
comparison negated (== and !=, < and >=, > and <=, is and is not, in and
not in), + and - swapped, one ``and`` or ``or`` swapped for the other (as
text, so the usual precedence regroups the operands), or a ``not``
dropped.  Operators inside f-strings are left alone.  The repository is
copied into a temporary directory, where ``pytest -x tests`` runs once
unmutated, a control that must pass, and then once per mutant, one at a
time, with the mutated file in place.  A mutant is killed if the run
fails or outlasts five times the control, and survives otherwise.  One
line per mutant gives the outcome, file:line:column and the change; the exit
status is 1 if any mutant survived.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEMORY_LIMIT = 2 << 30  # bytes of address space for each run, so a mutant cannot exhaust memory

# operator class -> (pattern of its token, the replacement text)
COMPARE = {
    ast.Eq: (rb"==", b"!="), ast.NotEq: (rb"!=", b"=="),
    ast.Lt: (rb"<", b">="), ast.GtE: (rb">=", b"<"),
    ast.Gt: (rb">", b"<="), ast.LtE: (rb"<=", b">"),
    ast.Is: (rb"\bis\b", b"is not"), ast.IsNot: (rb"\bis\s+not\b", b"is"),
    ast.In: (rb"\bin\b", b"not in"), ast.NotIn: (rb"\bnot\s+in\b", b"in"),
}
ARITH = {ast.Add: (rb"\+", b"-"), ast.Sub: (rb"-", b"+")}
BOOL = {ast.And: (rb"\band\b", b"or"), ast.Or: (rb"\bor\b", b"and")}


def target_function(tree: ast.Module, qualname: str) -> ast.AST:
    node = tree
    for part in qualname.split("."):
        node = next((n for n in node.body if getattr(n, "name", None) == part), None)
        if node is None:
            raise SystemExit(f"no {qualname} found")
    return node


def operator_sites(function: ast.AST):
    """(gap start, gap end, pattern, replacement) per operator of function, each end a (line, col):
    the span between two operands, or from a not to its operand, that holds the operator token."""
    in_fstrings = {id(n) for f in ast.walk(function) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}

    def between(left, right):
        return (left.end_lineno, left.end_col_offset), (right.lineno, right.col_offset)

    for node in ast.walk(function):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                yield *between(left, right), *COMPARE[type(op)]
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITH:
            yield *between(node.left, node.right), *ARITH[type(node.op)]
        elif isinstance(node, ast.AugAssign) and type(node.op) in ARITH:
            yield *between(node.target, node.value), *ARITH[type(node.op)]
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                yield *between(left, right), *BOOL[type(node.op)]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield (node.lineno, node.col_offset), (node.operand.lineno, node.operand.col_offset), rb"\bnot\b", b""


def mutants(path: Path, qualname: str) -> list[tuple[str, str, bytes]]:
    """("line:col", change, mutated source) for each single-operator mutant of qualname in path,
    in source order; col counts bytes from 1."""
    source = path.read_bytes()
    tree = ast.parse(source)
    starts = [0]  # byte offset of each line: ast columns are UTF-8 byte offsets
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    out = []
    for (l0, c0), (l1, c1), pattern, replacement in operator_sites(target_function(tree, qualname)):
        gap = starts[l0 - 1] + c0
        match = re.search(pattern, source[gap:starts[l1 - 1] + c1])
        a, b = gap + match.start(), gap + match.end()
        mutated = source[:a] + replacement + source[b:]
        assert ast.dump(ast.parse(mutated)) != ast.dump(tree), (path, qualname, a)
        change = f"{match.group().decode()} -> {replacement.decode() or '(dropped)'}"
        line = source.count(b"\n", 0, a) + 1
        out.append((a, f"{line}:{a - starts[line - 1] + 1}", change, mutated))
    return [site[1:] for site in sorted(out, key=lambda site: site[0])]


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(copy: Path, timeout: float | None) -> tuple[bool, float, str]:
    """(passed, seconds, output tail) of pytest -x tests in copy; a run past timeout fails."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no example found for one mutant replays on the next
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True, preexec_fn=limit_memory)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest and any qsl2 subprocess it started
        proc.communicate()
        return False, time.perf_counter() - start, "timed out"
    return proc.returncode == 0, time.perf_counter() - start, out.decode(errors="replace")[-2000:]


def main(argv: list[str]) -> int:
    if not argv or any(":" not in t for t in argv):
        print("usage: python3 tests/mutants.py FILE:FUNCTION [FILE:FUNCTION ...]", file=sys.stderr)
        return 2
    targets = [(Path(t.split(":")[0]), t.split(":")[1]) for t in argv]
    planned = [(rel, where, change, mutated) for rel, qualname in targets
               for where, change, mutated in mutants(ROOT / rel, qualname)]
    with tempfile.TemporaryDirectory(prefix="qsl2-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        passed, control, out = run_tests(copy, None)
        if not passed:
            print(f"control run failed in {control:.1f} s:\n{out}", file=sys.stderr)
            return 2
        print(f"control passed in {control:.1f} s; {len(planned)} mutants", flush=True)
        survived = 0
        for rel, where, change, mutated in planned:
            original = (copy / rel).read_bytes()
            (copy / rel).write_bytes(mutated)
            try:
                passed, seconds, _ = run_tests(copy, 5 * control)
            finally:
                (copy / rel).write_bytes(original)
            survived += passed
            print(f"{'survived' if passed else 'killed':8}  {rel}:{where}  {change}  ({seconds:.1f} s)", flush=True)
    print(f"{len(planned)} mutants: {len(planned) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
