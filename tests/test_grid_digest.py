"""Byte identity over a whole invocation grid: every hwv and decompose
with m, n <= 8, both flavours, all three formats, and the check and
qtable requests the benchmark draws.  tests/golden/
grid_digest.txt holds one hash of (exit status, stdout) per argv,
written by tests/regen_golden.py; a mismatch names the first argv whose
output changed.  tests/golden/product_digest.txt does the same for every
vector of all-weight highest_weight_vectors on the triple products
F_a (x) F_b (x) F_c (classical a, b, c <= 4, quantum <= 3), whose spaces
are not bidiagonal and take the rank mod p and the elimination."""

from pathlib import Path

from regen_golden import grid, grid_hash, product_hash, products

DIGEST = Path(__file__).parent / "golden" / "grid_digest.txt"
PRODUCTS = Path(__file__).parent / "golden" / "product_digest.txt"


def test_grid_output_matches_the_digest():
    expected = [line.split("  ", 1) for line in DIGEST.read_text().splitlines()]
    argvs = grid()
    assert [argv.split() for _, argv in expected] == argvs
    assert len(argvs) == 2851
    for (digest, shown), argv in zip(expected, argvs):
        assert grid_hash(argv) == digest, f"output of qsl2 {shown} differs from the digest"


def test_triple_product_vectors_match_the_digest():
    expected = [line.split("  ", 1) for line in PRODUCTS.read_text().splitlines()]
    cases = products()
    assert [shown for _, shown in expected] == [f"{fl.name} {a} {b} {c}" for fl, a, b, c in cases]
    assert len(cases) == 125 + 64
    for (digest, shown), case in zip(expected, cases):
        assert product_hash(*case) == digest, f"highest-weight vectors of {shown} differ from the digest"
