import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsl2.modrep import (
    QUANTUM,
    Label,
    RasskazovaParams,
    Vector,
    WeightModule,
    apply,
    check_relations,
    finite_dim_classical,
    finite_dim_quantum,
    rasskazova,
    verma_classical,
)
from qsl2.qarith import LaurentPoly, q_int, specialize_one, v
from qsl2 import tensorcg
from qsl2.tensorcg import (
    ComparisonReport,
    Decomposition,
    DecompositionError,
    Interpretation,
    NullspaceError,
    _kernel_fraction_free,
    cg_decompose,
    decompose_by_character,
    highest_weight_vector,
    highest_weight_vectors,
    phi_vector,
    phi_vs_oracle,
    tensor,
    weight_spaces,
)

w = Label.findim


def pair(i, j):
    return Label.tensor(w(i), w(j))


# -- tensor construction ------------------------------------------------------


def test_tensor_classical_unit_factor():
    a, b = finite_dim_classical(0), finite_dim_classical(2)
    t = tensor(a, b)
    for g in ("e", "f", "h"):
        for k in b.basis:
            got = t.column(g, pair(0, k.index[0]))
            assert got == {pair(0, r.index[0]): c for r, c in b.column(g, k).items()}


def test_tensor_classical_coproduct():
    t = tensor(finite_dim_classical(1), finite_dim_classical(1))
    got = apply(t, "e", Vector.basis_vector(t, pair(1, 1)))
    assert got.entries == {pair(0, 1): 1, pair(1, 0): 1}


def test_tensor_dimensions():
    t = tensor(finite_dim_classical(2), finite_dim_classical(3))
    assert t.dim == 12


def test_tensor_flavor_mismatch():
    with pytest.raises(ValueError):
        tensor(finite_dim_classical(1), finite_dim_quantum(1))
    with pytest.raises(ValueError):
        tensor(finite_dim_quantum(1), finite_dim_classical(1))


def test_tensor_quantum_grouplike_K():
    t = tensor(finite_dim_quantum(2), finite_dim_quantum(3))
    got = apply(t, "K", Vector.basis_vector(t, pair(0, 0)))
    assert got.entries == {pair(0, 0): v**5}


def test_tensor_quantum_E_coproduct():
    t = tensor(finite_dim_quantum(1), finite_dim_quantum(1))
    got = apply(t, "E", Vector.basis_vector(t, pair(1, 1)))
    assert got.entries == {pair(0, 1): v**-1, pair(1, 0): LaurentPoly(1)}


def test_tensor_follows_the_flavor_coproduct():
    # D(E) = E (x) 1 + K (x) E, D(F) = F (x) Kinv + 1 (x) F is a coproduct too
    alt = dataclasses.replace(QUANTUM, coproduct={"E": (None, "K"), "F": ("Kinv", None)})

    def findim(n):
        f = finite_dim_quantum(n)
        return WeightModule(alt, f.name, f.basis, f.weights, f.action)

    for m in range(3):
        for n in range(3):
            assert check_relations(tensor(findim(m), findim(n))).ok, (m, n)
    t = tensor(findim(1), findim(1))
    got = apply(t, "E", Vector.basis_vector(t, pair(1, 1)))
    assert got.entries == {pair(0, 1): LaurentPoly(1), pair(1, 0): v**-1}


def test_tensor_quantum_relations():
    assert check_relations(
        tensor(finite_dim_quantum(1), finite_dim_quantum(1))
    ).ok
    for m in range(4):
        for n in range(4):
            t = tensor(finite_dim_quantum(m), finite_dim_quantum(n))
            assert check_relations(t).ok, (m, n)


def test_tensor_classical_relations():
    for m in range(4):
        for n in range(4):
            t = tensor(finite_dim_classical(m), finite_dim_classical(n))
            assert check_relations(t).ok, (m, n)


# -- weight spaces -------------------------------------------------------------


def test_weight_spaces_f1f1():
    t = tensor(finite_dim_classical(1), finite_dim_classical(1))
    spaces = weight_spaces(t)
    assert {k: len(v) for k, v in spaces.items()} == {2: 1, 0: 2, -2: 1}
    assert spaces[0] == [pair(0, 1), pair(1, 0)]


def test_weight_spaces_multiplicity_free():
    m = finite_dim_classical(5)
    assert all(len(labs) == 1 for labs in weight_spaces(m).values())


def test_weight_spaces_f2f2():
    t = tensor(finite_dim_classical(2), finite_dim_classical(2))
    assert len(weight_spaces(t)[0]) == 3


# -- kernel solver --------------------------------------------------------------


def frac_matrices(max_dim=4):
    entry = st.integers(-6, 6).map(Fraction)
    return st.integers(1, max_dim).flatmap(
        lambda nc: st.lists(
            st.lists(entry, min_size=nc, max_size=nc), min_size=1, max_size=4
        ).map(lambda rows: (rows, nc))
    )


@given(frac_matrices())
@settings(max_examples=60)
def test_kernel_annihilates(matrix_and_ncols):
    rows, ncols = matrix_and_ncols
    kernel = _kernel_fraction_free(rows, ncols, Fraction(1))
    for x in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, x)) == 0


def test_kernel_known_case():
    # [[1, 1]] has kernel spanned by (-1, 1)
    (x,) = _kernel_fraction_free([[Fraction(1), Fraction(1)]], 2, Fraction(1))
    assert x[0] * 1 + x[1] * 1 == 0 and any(x)


def test_kernel_laurent_entries():
    one = LaurentPoly(1)
    rows = [[v - v**-1, v**2 - v**-2, LaurentPoly()], [LaurentPoly(), v, v**3]]
    kernel = _kernel_fraction_free(rows, 3, one)
    assert kernel
    for x in kernel:
        for row in rows:
            acc = LaurentPoly()
            for a, b in zip(row, x):
                acc = acc + a * b
            assert not acc


# -- highest-weight vectors -------------------------------------------------------


def test_hwv_classical_f1f1():
    t = tensor(finite_dim_classical(1), finite_dim_classical(1))
    found = dict(highest_weight_vectors(t))
    assert set(found) == {2, 0}
    assert found[0].entries == {pair(0, 1): 1, pair(1, 0): -1}
    assert found[2].entries == {pair(0, 0): 1}


def test_hwv_top_is_pair_of_tops():
    for ctor in (finite_dim_classical, finite_dim_quantum):
        t = tensor(ctor(2), ctor(3))
        top = [vec for wt, vec in highest_weight_vectors(t) if wt == 5]
        assert len(top) == 1
        one = t.flavor.one
        assert top[0].entries == {pair(0, 0): one}


def test_hwv_quantum_f1f1_canonical_form():
    t = tensor(finite_dim_quantum(1), finite_dim_quantum(1))
    found = dict(highest_weight_vectors(t))
    # kernel of E on the weight-0 space, normalized to coprime integer
    # coefficients with positive leading coefficient first
    assert found[0].entries == {pair(0, 1): v, pair(1, 0): LaurentPoly(-1)}


def test_hwv_annihilated_and_eigen():
    for ctor, raising, diag in (
        (finite_dim_classical, "e", "h"),
        (finite_dim_quantum, "E", "K"),
    ):
        t = tensor(ctor(2), ctor(3))
        for wt, vec in highest_weight_vectors(t):
            assert apply(t, raising, vec).is_zero()
            if diag == "h":
                assert apply(t, diag, vec) == vec.scaled(Fraction(wt))
            else:
                assert apply(t, diag, vec) == vec.scaled(LaurentPoly({wt: 1}))


def test_hwv_descending_weight_order():
    t = tensor(finite_dim_classical(3), finite_dim_classical(3))
    weights = [wt for wt, _ in highest_weight_vectors(t)]
    assert weights == sorted(weights, reverse=True) == [6, 4, 2, 0]


def test_hwv_trivial_tensor():
    t = tensor(finite_dim_quantum(0), finite_dim_quantum(0))
    assert cg_decompose(0, 0).summands == {0: 1}
    [(wt, vec)] = highest_weight_vectors(t)
    assert wt == 0 and vec.entries == {pair(0, 0): LaurentPoly(1)}


def test_hwv_on_truncated_verma_finds_submodule_generator():
    # inside M_2 the vector w_3 = f^3 w_0 generates the maximal submodule
    m = verma_classical(2, 5)
    found = dict(highest_weight_vectors(m))
    assert set(found) == {2, -4}
    assert found[2].entries == {Label.verma(0): 1}
    assert found[-4].entries == {Label.verma(3): 1}


def test_hwv_of_one_weight_is_the_full_result_filtered():
    modules = [
        tensor(ctor(m), ctor(n))
        for ctor in (finite_dim_classical, finite_dim_quantum)
        for m in range(6)
        for n in range(6)
    ]
    modules += [
        verma_classical(2, 5),
        verma_classical(Fraction(-7, 3), 6),
        tensor(rasskazova(RasskazovaParams(0, 0, 1, 2)), rasskazova(RasskazovaParams(1, 2, 2, 2))),
    ]
    multi = 0
    for module in modules:
        full = highest_weight_vectors(module)
        for wt in weight_spaces(module):
            one_weight = highest_weight_vectors(module, wt)
            assert one_weight == [(w, vec) for w, vec in full if w == wt], (module.name, wt)
            multi += len(one_weight) > 1
    assert multi  # some kernel has more than one vector


def test_hwv_of_an_absent_weight_is_empty():
    t = tensor(finite_dim_quantum(2), finite_dim_quantum(3))
    for wt in (7, 4, Fraction(1, 2)):
        assert highest_weight_vectors(t, wt) == []
    assert highest_weight_vectors(verma_classical(2, 5), 3) == []


def test_highest_weight_vector_needs_a_one_dimensional_kernel():
    t = tensor(finite_dim_classical(2), finite_dim_classical(3))
    assert highest_weight_vector(t, 3) == highest_weight_vectors(t, 3)[0][1]
    with pytest.raises(NullspaceError, match="weight 4 is 0-dimensional"):
        highest_weight_vector(t, 4)
    multi = tensor(rasskazova(RasskazovaParams(0, 0, 1, 2)), rasskazova(RasskazovaParams(1, 2, 2, 2)))
    wt = next(w for w in weight_spaces(multi) if len(highest_weight_vectors(multi, w)) > 1)
    with pytest.raises(NullspaceError, match="expected 1"):
        highest_weight_vector(multi, wt)


def test_nullspace_certificate_failure_raises(monkeypatch):
    monkeypatch.setattr(tensorcg, "_kernel_fraction_free", lambda rows, ncols, one: [[one] * ncols])
    t = tensor(finite_dim_classical(1), finite_dim_classical(1))
    with pytest.raises(NullspaceError, match="certificate failed at weight 0"):
        highest_weight_vectors(t, 0)
    with pytest.raises(NullspaceError):
        phi_vs_oracle(1, 1, 1)


def test_hwv_specializes_to_classical():
    for m in range(4):
        for n in range(4):
            tq = tensor(finite_dim_quantum(m), finite_dim_quantum(n))
            tc = tensor(finite_dim_classical(m), finite_dim_classical(n))
            quantum = {wt: vec for wt, vec in highest_weight_vectors(tq)}
            classical = {wt: vec for wt, vec in highest_weight_vectors(tc)}
            assert set(quantum) == set(classical)
            for wt, qvec in quantum.items():
                spec = {
                    Label.tensor(*lab.index): specialize_one(c)
                    for lab, c in qvec.entries.items()
                }
                lead = next(
                    spec[lab] for lab in tc.basis if spec.get(lab)
                )
                renorm = {lab: c / lead for lab, c in spec.items() if c}
                assert renorm == classical[wt].entries, (m, n, wt)


# -- decompositions ----------------------------------------------------------------


def test_cg_decompose_examples():
    assert cg_decompose(1, 1).summands == {2: 1, 0: 1}
    assert cg_decompose(3, 0).summands == {3: 1}
    assert cg_decompose(2, 3).summands == {5: 1, 3: 1, 1: 1}


def test_cg_decompose_symmetry_and_dimension():
    for m in range(13):
        for n in range(13):
            d = cg_decompose(m, n)
            assert d.summands == cg_decompose(n, m).summands
            assert d.total_dim == (m + 1) * (n + 1)


def test_cg_decompose_negative():
    with pytest.raises(ValueError):
        cg_decompose(-1, 2)


def test_decompose_by_character_f1f1():
    t = tensor(finite_dim_classical(1), finite_dim_classical(1))
    assert decompose_by_character(t) == cg_decompose(1, 1)


def test_decompose_by_character_single():
    assert decompose_by_character(finite_dim_classical(4)).summands == {4: 1}


def test_decompose_by_character_rejects_verma():
    with pytest.raises(DecompositionError):
        decompose_by_character(verma_classical(0, 4))
    with pytest.raises(DecompositionError):
        decompose_by_character(verma_classical(Fraction(5, 2), 4))


def test_decompose_by_character_rejects_bad_multiset():
    # weights 2, 0, 0, -2 with a stray 0: peels F_2, then chokes
    m = rasskazova(RasskazovaParams(0, 0, 1, 1))  # weights -2, 0, 2
    assert decompose_by_character(m).summands == {2: 1}

    lopsided = rasskazova(RasskazovaParams(1, 0, 1, 1))  # weights -1, 1, 3
    with pytest.raises(DecompositionError):
        decompose_by_character(lopsided)


def test_agreement_of_all_three_routes():
    for m in range(5):
        for n in range(5):
            expected = cg_decompose(m, n)
            tc = tensor(finite_dim_classical(m), finite_dim_classical(n))
            tq = tensor(finite_dim_quantum(m), finite_dim_quantum(n))
            assert decompose_by_character(tc) == expected
            assert decompose_by_character(tq) == expected
            for t in (tc, tq):
                weights = sorted(
                    (int(wt) for wt, _ in highest_weight_vectors(t)), reverse=True
                )
                assert weights == sorted(expected.summands, reverse=True)


def test_decomposition_validates_multiplicity():
    with pytest.raises(ValueError):
        Decomposition({2: 0})


# -- the transfer formula ------------------------------------------------------------


def test_phi_depth_zero_single_term():
    vec = phi_vector(2, 3, 0)
    assert vec.entries == {pair(0, 0): -(v**3)}  # (-1)^(n-p) v^n with n = 3
    vec = phi_vector(2, 2, 0)
    assert vec.entries == {pair(0, 0): v**2}


def test_phi_1_1_1_terms():
    vec = phi_vector(1, 1, 1)
    assert vec.entries == {pair(0, 1): v**-1, pair(1, 0): v}
    assert "weight-matched-v1" in vec.note


def test_phi_denominator_clearing():
    # (3,1,1): raw coefficients involve 1/[3]; cleared by [3]!/[2]! = [3]
    vec = phi_vector(3, 1, 1)
    assert vec.entries == {pair(0, 1): q_int(3) * v**-3, pair(1, 0): v}
    assert "[3]!/[2]!" in vec.note


def test_phi_precondition():
    with pytest.raises(ValueError):
        phi_vector(3, 1, 2)
    with pytest.raises(ValueError):
        phi_vector(-1, 1, 0)


def test_phi_interpretation_range_error():
    broken = Interpretation("off-the-end", lambda m, n, p, k: (k, n + 1))
    with pytest.raises(ValueError, match="off-the-end"):
        phi_vector(2, 2, 1, interpretation=broken)


def test_phi_vs_oracle_depth_zero():
    report = phi_vs_oracle(2, 2, 0)
    assert report.proportional
    assert report.scalar == v**2
    report = phi_vs_oracle(2, 1, 0)
    assert report.proportional
    assert report.scalar == -v  # (-1)^(n-p) with n = 1, p = 0
    assert report.interpretation == "weight-matched-v1"


def test_phi_vs_oracle_1_1_1_witness():
    # phi = v^-1 w01 + v w10, oracle = v w01 - w10: ratio v^-2 from the
    # first entry fails on the second, so the as-written formula does
    # not land on the oracle line and the report documents it
    report = phi_vs_oracle(1, 1, 1)
    assert not report.proportional
    assert report.witness == (pair(1, 0), v, LaurentPoly(-1))


def test_phi_vs_oracle_runs_and_oracle_is_killed():
    t = None
    for m in range(4):
        for n in range(4):
            for p in range(min(m, n) + 1):
                report = phi_vs_oracle(m, n, p)
                assert isinstance(report, ComparisonReport)
                assert report.proportional or report.witness is not None
    # oracle side of (2,1,1) independently annihilated by E
    t = tensor(finite_dim_quantum(2), finite_dim_quantum(1))
    (oracle,) = [vec for wt, vec in highest_weight_vectors(t) if wt == 1]
    assert apply(t, "E", oracle).is_zero()


def test_phi_vs_oracle_carries_its_oracle():
    for m, n, p in ((1, 1, 1), (2, 2, 0), (3, 2, 2)):
        t = tensor(finite_dim_quantum(m), finite_dim_quantum(n))
        target = m + n - 2 * p
        assert highest_weight_vectors(t, target) == [(target, phi_vs_oracle(m, n, p).oracle)]
