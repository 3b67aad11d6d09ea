"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s); the
assertions themselves are all exact equalities, never approximate.
"""

import math
import time
from fractions import Fraction

from qsl2.modrep import (
    CLASSICAL,
    QUANTUM,
    RasskazovaParams,
    apply,
    check_relations,
    finite_dim,
    rasskazova,
    verma_classical,
)
from qsl2.qarith import LaurentPoly, q_binom, q_fact, q_int, specialize_one, v
from qsl2.tensorcg import (
    cg_decompose,
    decompose_by_character,
    highest_weight_vectors,
    phi_vs_oracle,
    tensor,
)
from vectors import scaled


class _Criterion:
    def __init__(self, number, name, budget_seconds=None):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {verdict} [{elapsed:.2f}s]")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


def test_criterion_1_clebsch_gordan_reproduction():
    with _Criterion(1, "Clebsch-Gordan decomposition, both flavors", 10):
        for m in range(9):
            for n in range(9):
                closed = cg_decompose(m, n)
                expected = {w: 1 for w in range(m + n, abs(m - n) - 1, -2)}
                assert closed.summands == expected, (m, n)
                tc = tensor(finite_dim(m, CLASSICAL), finite_dim(n, CLASSICAL))
                tq = tensor(finite_dim(m, QUANTUM), finite_dim(n, QUANTUM))
                assert decompose_by_character(tc) == closed, (m, n, "classical")
                assert decompose_by_character(tq) == closed, (m, n, "quantum")


def test_criterion_2_relation_verification():
    """check_relations passes on F_n, Verma and Rasskazova modules at fixed sizes; that the relations
    hold for every size and parameter is proved symbolically in tests/test_relations_symbolic.py."""
    with _Criterion(2, "defining relations on every constructed module", 5):
        for n in range(9):
            assert check_relations(finite_dim(n, CLASSICAL)).ok, n
            assert check_relations(finite_dim(n, QUANTUM)).ok, n
        for hw in (0, 1, 2, Fraction(5, 2), -3):
            report = check_relations(verma_classical(hw, 12))
            assert report.ok, hw
            assert len(report.checked) == 12 and len(report.excluded) == 1
        for beta, lam in ((0, 0), (1, 2), (Fraction(-3), Fraction(5, 2))):
            for n in (1, 2, 3):
                report = check_relations(rasskazova(RasskazovaParams(beta, lam, n, 10)))
                assert report.ok, (beta, lam, n)
                assert {int(lab.rsplit("_", 1)[1]) for lab in report.checked} == set(range(-9, 10))  # j of w^i_j


def test_criterion_3_highest_weight_oracle_soundness():
    with _Criterion(3, "raising-operator nullspace oracle", 30):
        for m in range(7):
            for n in range(7):
                module = tensor(finite_dim(m, QUANTUM), finite_dim(n, QUANTUM))
                found = highest_weight_vectors(module)
                for p in range(min(m, n) + 1):
                    w = m + n - 2 * p
                    vectors = [vec for wt, vec in found if wt == w]
                    assert len(vectors) == 1, (m, n, p)
                    vec = vectors[0]
                    assert apply(module, "E", vec).is_zero(), (m, n, p)
                    assert apply(module, "K", vec) == scaled(vec, LaurentPoly({w: 1}))


def test_criterion_4_transfer_formula_adjudication():
    with _Criterion(4, "explicit formula vs oracle, complete reports", 10):
        for m in range(5):
            for n in range(5):
                module = tensor(finite_dim(m, QUANTUM), finite_dim(n, QUANTUM))
                oracle = dict(highest_weight_vectors(module))
                for p in range(min(m, n) + 1):
                    report = phi_vs_oracle(m, n, p)
                    assert report.interpretation == "weight-matched-v1"
                    # README's empirical status: proportional exactly when p = 0
                    assert report.proportional == (p == 0), (m, n, p)
                    if report.proportional:
                        assert report.scalar is not None and report.scalar
                        assert report.witness is None
                    else:
                        lab, formula_c, oracle_c = report.witness
                        assert lab in module._pos
                        assert formula_c or oracle_c  # a concrete disagreement
                    side = oracle[m + n - 2 * p]
                    assert apply(module, "E", side).is_zero(), (m, n, p)


def test_criterion_5_quantum_classical_consistency():
    with _Criterion(5, "specialization at v=1 recovers the classical side"):
        for n in range(6):
            mq, mc = finite_dim(n, QUANTUM), finite_dim(n, CLASSICAL)
            for lab in mq.basis:
                assert Fraction(mq.weights[lab]) == mc.weights[lab]
            for gq, gc in (("E", "e"), ("F", "f")):
                for col in mq.basis:
                    specialized = {
                        row: specialize_one(c) for row, c in mq.action[gq].get(col, {}).items()
                    }
                    assert specialized == mc.action[gc].get(col, {}), (n, gq, col)
        for m in range(6):
            for n in range(6):
                tq = tensor(finite_dim(m, QUANTUM), finite_dim(n, QUANTUM))
                tc = tensor(finite_dim(m, CLASSICAL), finite_dim(n, CLASSICAL))
                classical = dict(highest_weight_vectors(tc))
                for wt, qvec in highest_weight_vectors(tq):
                    spec = {
                        lab: specialize_one(c) for lab, c in qvec.entries.items()
                    }
                    lead = next(spec[lab] for lab in tc.basis if spec.get(lab))
                    renorm = {lab: c / lead for lab, c in spec.items() if c}
                    assert renorm == classical[wt].entries, (m, n, wt)


def test_criterion_6_q_arithmetic_identities():
    with _Criterion(6, "q-integer, q-factorial and q-Pascal identities"):
        for n in range(13):
            assert q_int(n) * (v - v**-1) == v**n - v**-n
            assert specialize_one(q_fact(n)) == math.factorial(n)
            assert q_int(n).bar() == q_int(n)
            assert q_fact(n).bar() == q_fact(n)
            for k in range(n + 1):
                assert q_binom(n, k).bar() == q_binom(n, k)
                if 1 <= k <= n - 1:
                    assert q_binom(n, k) == v**k * q_binom(n - 1, k) + v ** (
                        k - n
                    ) * q_binom(n - 1, k - 1), (n, k)


def test_criterion_7_cli_contract():
    import io
    import json
    import contextlib
    from pathlib import Path

    from qsl2.cli import main

    with _Criterion(7, "CLI golden files and exit-status contract"):
        golden = Path(__file__).parent / "golden"
        manifest = json.loads((golden / "manifest.json").read_text())
        seen_exits = set()
        for name, case in sorted(manifest.items()):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(case["argv"])
            assert code == case["exit"], name
            seen_exits.add(code)
            expected = (golden / f"{name}.json").read_text()
            assert buf.getvalue().encode() == expected.encode(), name
        assert seen_exits == {0, 1, 2}
        assert any("--inject-fault" in case["argv"] for case in manifest.values())
