"""Byte identity over a whole invocation grid: every hwv and decompose
with m, n <= 8, both flavours, all three formats, and the check and
qtable requests the benchmark draws.  tests/golden/
grid_digest.txt holds one hash of (exit status, stdout) per argv,
written by tests/regen_golden.py; a mismatch names the first argv whose
output changed."""

from pathlib import Path

from regen_golden import grid, grid_hash

DIGEST = Path(__file__).parent / "golden" / "grid_digest.txt"


def test_grid_output_matches_the_digest():
    expected = [line.split("  ", 1) for line in DIGEST.read_text().splitlines()]
    argvs = grid()
    assert [argv.split() for _, argv in expected] == argvs
    assert len(argvs) == 2843
    for (digest, shown), argv in zip(expected, argvs):
        assert grid_hash(argv) == digest, f"output of qsl2 {shown} differs from the digest"
