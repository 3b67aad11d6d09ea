from fractions import Fraction
from math import gcd, lcm, prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from qsl2 import modrep
from qsl2.modrep import (
    CLASSICAL,
    QUANTUM,
    RasskazovaParams,
    RelationFailure,
    RelationReport,
    Vector,
    WeightModule,
    apply,
    check_relations,
    corrupt_one_entry,
    finite_dim,
    rasskazova,
    verma_classical,
)
from qsl2.qarith import LaurentPoly, q_int, specialize_one, v
from qsl2.serialize import module_descriptor, scalar_json
from qsl2 import _elimination, tensorcg
from qsl2.tensorcg import highest_weight_vector, highest_weight_vectors, phi_vector, phi_vs_oracle, tensor, weight_spaces
from kernels import expand, expanded, q_int_factors
from vectors import add, basis_vector, scaled, sub, zero


def upper_and_lower(lab):
    """(i, j) read from a Rasskazova vector's name w^i_j."""
    i, j = lab[2:].split("_")
    return int(i), int(j)


# D(E) = E (x) 1 + K (x) E, D(F) = F (x) Kinv + 1 (x) F (Kassel 1995,
# Jantzen 1996): QUANTUM's coproduct with the twists on the other factor
KASSEL = QUANTUM.replace(coproduct={"E": (None, "K"), "F": ("Kinv", None)})


# -- finite-dimensional classical ------------------------------------------


def test_findim_classical_trivial():
    m = finite_dim(0, CLASSICAL)
    assert m.dim == 1
    x = basis_vector(m, "w_0")
    for g in ("e", "f", "h"):
        assert apply(m, g, x).is_zero()


def test_findim_classical_one():
    m = finite_dim(1, CLASSICAL)
    assert apply(m, "e", basis_vector(m, "w_1")).entries == {"w_0": 1}
    assert apply(m, "f", basis_vector(m, "w_0")).entries == {"w_1": 1}
    assert apply(m, "h", basis_vector(m, "w_0")).entries == {"w_0": 1}
    assert apply(m, "h", basis_vector(m, "w_1")).entries == {"w_1": -1}


def test_findim_classical_two_commutator():
    m = finite_dim(2, CLASSICAL)
    assert [m.weights[lab] for lab in m.basis] == [2, 0, -2]
    for lab in m.basis:
        x = basis_vector(m, lab)
        ef = sub(apply(m, "e", apply(m, "f", x)), apply(m, "f", apply(m, "e", x)))
        assert ef == apply(m, "h", x)


def test_findim_negative_rejected():
    with pytest.raises(ValueError):
        finite_dim(-1, CLASSICAL)
    with pytest.raises(ValueError):
        finite_dim(-2, QUANTUM)


# -- finite-dimensional quantum ---------------------------------------------


def test_findim_quantum_trivial():
    m = finite_dim(0, QUANTUM)
    x = basis_vector(m, "w_0")
    assert apply(m, "K", x) == x
    assert apply(m, "E", x).is_zero()
    assert apply(m, "F", x).is_zero()


def test_findim_quantum_one():
    m = finite_dim(1, QUANTUM)
    assert apply(m, "E", basis_vector(m, "w_1")).entries == {"w_0": LaurentPoly(1)}
    assert apply(m, "K", basis_vector(m, "w_0")).entries == {"w_0": v}


def test_findim_quantum_commutator_values():
    # in F_3, (EF - FE) w_1 = ([2][2] - [1][3]) w_1 = [3-2] w_1 = w_1
    m = finite_dim(3, QUANTUM)
    x = basis_vector(m, "w_1")
    d = sub(apply(m, "E", apply(m, "F", x)), apply(m, "F", apply(m, "E", x)))
    assert q_int(2) * q_int(2) - q_int(1) * q_int(3) == LaurentPoly(1)
    assert d.entries == {"w_1": LaurentPoly(1)}
    # in F_2 the weight of w_1 is zero and the commutator vanishes
    m2 = finite_dim(2, QUANTUM)
    x2 = basis_vector(m2, "w_1")
    d2 = sub(apply(m2, "E", apply(m2, "F", x2)), apply(m2, "F", apply(m2, "E", x2)))
    assert d2.is_zero()


def test_findim_quantum_commutator_is_qint_of_weight():
    for n in range(0, 9):
        m = finite_dim(n, QUANTUM)
        for lab in m.basis:
            x = basis_vector(m, lab)
            d = sub(apply(m, "E", apply(m, "F", x)), apply(m, "F", apply(m, "E", x)))
            assert d == scaled(x, q_int(m.weights[lab]))


def test_quantum_specializes_to_classical():
    for n in range(0, 9):
        mq = finite_dim(n, QUANTUM)
        mc = finite_dim(n, CLASSICAL)
        assert [mq.weights[lab] for lab in mq.basis] == [
            mc.weights[lab] for lab in mc.basis
        ]
        for gq, gc in (("E", "e"), ("F", "f")):
            for col in mq.basis:
                qcol = {r: specialize_one(c) for r, c in mq.action[gq].get(col, {}).items()}
                assert qcol == mc.action[gc].get(col, {})


# -- truncated Verma ---------------------------------------------------------


def test_verma_highest_weight_killed():
    for hw in (0, 2, Fraction(5, 2), -3):
        m = verma_classical(hw, 4)
        assert apply(m, "e", basis_vector(m, "w_0")).is_zero()


def test_verma_e_coefficients():
    m = verma_classical(0, 3)
    # e.w_1 = 1*(0-1+1) w_0 = 0
    assert apply(m, "e", basis_vector(m, "w_1")).is_zero()
    m = verma_classical(2, 3)
    # e.w_3 = 3*(2-3+1) w_2 = 0: the finite submodule inside
    assert apply(m, "e", basis_vector(m, "w_3")).is_zero()
    assert apply(m, "e", basis_vector(m, "w_2")).entries == {"w_1": 2}


def test_weights_are_int_unless_rational():
    # a weight is stored as an int numerator over den; it reads back as an int where den is 1
    for m in (finite_dim(5, CLASSICAL), finite_dim(5, QUANTUM), verma_classical(2, 3)):
        assert m.den == 1 and m.weights is m.num_weights
        assert all(type(wt) is int for wt in m.weights.values())
    m = verma_classical(Fraction(-7, 3), 4)
    assert m.den == 3 and m.num_weights == {f"w_{k}": -7 - 6 * k for k in range(5)}
    assert [m.weights[f"w_{k}"] for k in range(5)] == [Fraction(-7 - 6 * k, 3) for k in range(5)]
    assert all(type(wt) is Fraction for wt in m.weights.values())
    assert check_relations(m).ok


@pytest.mark.parametrize("build", [
    lambda x: verma_classical(x, 2).weights,
    lambda x: RasskazovaParams(x, 0, 1, 1),
    lambda x: RasskazovaParams(0, x, 1, 1),
], ids=["verma-hw", "rasskazova-beta", "rasskazova-lambda"])
def test_a_float_parameter_is_refused(build):
    # Fraction(0.1) is the float's binary value, not 1/10, so a float never reaches a module
    for x in (0.1, 2.0):
        with pytest.raises(ValueError, match="is a float"):
            build(x)
    assert build(Fraction(1, 10)) == build("1/10") != build(Fraction(0.1))
    assert build(2) == build(Fraction(2)) == build("2")


@pytest.mark.parametrize("flavor", [True, "quantum", None])
def test_finite_dim_refuses_what_is_no_flavor(flavor):
    with pytest.raises(ValueError, match="unknown flavor"):
        finite_dim(2, flavor)


@pytest.mark.parametrize("build, name", [
    (lambda x: finite_dim(x, QUANTUM), "Fq(n={})"),
    (lambda x: verma_classical(Fraction(1, 2), x), "M(hw=1/2;depth={})"),
    (lambda x: RasskazovaParams(0, 0, x, 1), "V(beta=0;lambda=0;n={};J=1)"),
    (lambda x: RasskazovaParams(0, 0, 2, x), "V(beta=0;lambda=0;n=2;J={})"),
], ids=["finite-dim-n", "verma-depth", "rasskazova-n", "rasskazova-window"])
def test_a_size_is_read_as_an_int(build, name):
    # refused where it is given, not stored to fail later in range; a bool reads as the int it is
    for x in (1.5, Fraction(3), "2"):
        with pytest.raises(TypeError):
            build(x)
    built = build(True)
    assert (rasskazova(built) if isinstance(built, RasskazovaParams) else built).name == name.format(1)


def test_verma_boundary_marked():
    m = verma_classical(Fraction(5, 2), 8)
    assert m.boundary == {"w_8"}
    assert m.weights["w_3"] == Fraction(5, 2) - 6


def test_verma_bad_depth():
    with pytest.raises(ValueError):
        verma_classical(1, 0)


def test_verma_maximal_submodule_invariant():
    # for integer hw = n, the span of w_{n+1}.. is invariant and the
    # quotient has the dimension of F_n
    n, depth = 2, 6
    m = verma_classical(n, depth)
    tail = {f"w_{k}" for k in range(n + 1, depth + 1)}
    for g in ("e", "f", "h"):
        for col in tail:
            for row in apply(m, g, basis_vector(m, col)).entries:
                assert row in tail, (g, col, row)
    assert m.dim - len(tail) == finite_dim(n, CLASSICAL).dim


# -- Rasskazova family --------------------------------------------------------


def test_rasskazova_f_at_zero():
    m = rasskazova(RasskazovaParams(0, 0, 1, 2))
    assert apply(m, "f", basis_vector(m, "w^1_0")).entries == {"w^1_-1": -1}


def test_rasskazova_e_vanishes_with_convention():
    # e.w^1_{-1} = (lam - beta + 0) w^1_0 + w^0_0 and both terms are zero
    m = rasskazova(RasskazovaParams(0, 0, 1, 2))
    assert apply(m, "e", basis_vector(m, "w^1_-1")).is_zero()


def test_rasskazova_f_with_lower_layer():
    m = rasskazova(RasskazovaParams(1, 2, 2, 3))
    got = apply(m, "f", basis_vector(m, "w^2_1"))
    assert got.entries == {"w^2_0": -2, "w^1_0": -1}


def test_rasskazova_weights():
    m = rasskazova(RasskazovaParams(Fraction(-3), Fraction(5, 2), 2, 3))
    assert m.weights["w^1_2"] == 4 - 3
    assert m.weights["w^2_-1"] == -2 - 3


def test_rasskazova_param_validation():
    with pytest.raises(ValueError):
        RasskazovaParams(0, 0, 0, 5)
    with pytest.raises(ValueError):
        RasskazovaParams(0, 0, 1, 0)


def test_rasskazova_filtration_never_raises_i():
    for n in (1, 2, 3):
        m = rasskazova(RasskazovaParams(1, 2, n, 4))
        for g in ("e", "f", "h"):
            for col in m.basis:
                for row in apply(m, g, basis_vector(m, col)).entries:
                    assert upper_and_lower(row)[0] <= upper_and_lower(col)[0]


BUILT_IN = pytest.mark.parametrize(
    "module",
    [finite_dim(4, CLASSICAL), finite_dim(4, QUANTUM), verma_classical(Fraction(5, 2), 6),
     rasskazova(RasskazovaParams(Fraction(1, 2), Fraction(-3, 5), 3, 3)),
     tensor(finite_dim(2, CLASSICAL), finite_dim(3, CLASSICAL)),
     tensor(finite_dim(2, QUANTUM), finite_dim(3, QUANTUM)),
     tensor(verma_classical(Fraction(5, 2), 3), finite_dim(1, CLASSICAL))],
    ids=repr,
)


@BUILT_IN
def test_stored_entries_are_keyed_by_the_basis_labels(module):
    # no constructor builds a second, equal label for an entry
    for mat in module.action.values():
        for col, entries in mat.items():
            assert col is module.basis[module.position(col)]
            for row in entries:
                assert row is module.basis[module.position(row)]


@BUILT_IN
def test_every_label_is_the_printed_name(module):
    assert all(type(lab) is str for lab in module.basis)
    assert list(module.basis) == module_descriptor(module)["basis"]


# -- relation checking ---------------------------------------------------------


def test_relations_findim_classical():
    report = check_relations(finite_dim(4, CLASSICAL))
    assert report.ok
    assert report.excluded == ()
    assert len(report.checked) == 5


def test_relations_findim_quantum():
    report = check_relations(finite_dim(5, QUANTUM))
    assert report.ok
    assert report.flavor == "quantum"


def test_relations_verma_interior():
    report = check_relations(verma_classical(Fraction(5, 2), 8))
    assert report.ok
    assert report.excluded == ("w_8",)
    assert len(report.checked) == 8


def test_relations_rasskazova_interior():
    report = check_relations(rasskazova(RasskazovaParams(0, 0, 1, 5)))
    assert report.ok
    assert set(report.excluded) == {"w^1_-5", "w^1_5"}
    assert {upper_and_lower(lab)[1] for lab in report.checked} == set(range(-4, 5))


def test_relations_sweep():
    for n in range(0, 6):
        assert check_relations(finite_dim(n, CLASSICAL)).ok
        assert check_relations(finite_dim(n, QUANTUM)).ok
    for hw in (0, 1, 2, Fraction(5, 2), -3):
        assert check_relations(verma_classical(hw, 6)).ok
    for beta, lam in ((0, 0), (1, 2), (Fraction(-3), Fraction(5, 2))):
        for n in (1, 2, 3):
            assert check_relations(rasskazova(RasskazovaParams(beta, lam, n, 4))).ok


def test_relations_detect_corruption():
    bad = corrupt_one_entry(finite_dim(3, CLASSICAL))
    report = check_relations(bad)
    assert not report.ok
    # the perturbed entry sits at (w_0, w_1) of e; exactly the [e,f]
    # route through that column breaks
    assert {(fl.relation, fl.label) for fl in report.failures} == {
        ("[e,f]=h", "w_0"),
        ("[e,f]=h", "w_1"),
    }
    for fl in report.failures:
        assert fl.defect


def with_entry(m, gen, col, row, c):
    """Copy of m with entry (row, col) of gen set to c."""
    mat = m.action[gen]
    action = {**m.action, gen: {**mat, col: {**mat[col], row: c}}}
    return WeightModule(m.flavor, m.name + "+fault", m.basis, m.weights, action, boundary=m.boundary)


def single_entry_perturbations(m):
    """Each raising or lowering entry c changed to c+1 (c-1 where c+1 is 0) and to 2c."""
    for gen in (m.flavor.raising, m.flavor.lowering):
        for col, entries in m.action[gen].items():
            for row, c in entries.items():
                for new in (c + 1 or c - 1, c + c):
                    yield (gen, str(col), str(row), str(new)), with_entry(m, gen, col, row, new)


COPRODUCTS = {"classical": CLASSICAL, "quantum": QUANTUM, "kassel": KASSEL}
FLAVORS = pytest.mark.parametrize("flavor", COPRODUCTS.values(), ids=list(COPRODUCTS))


# Verma and Rasskazova modules are left out: next to a zero entry, changing
# one entry can rescale a submodule and leave a valid module (doubling f.w_2
# in the Verma module of highest weight 2, where e.w_3 = 0).
@FLAVORS
@pytest.mark.parametrize("n", range(1, 7))
def test_every_single_entry_perturbation_of_findim_is_caught(flavor, n):
    for where, bad in single_entry_perturbations(finite_dim(n, flavor)):
        assert not check_relations(bad).ok, where


@FLAVORS
@pytest.mark.parametrize("a, b", [(a, b) for a in range(4) for b in range(4) if a + b])
def test_every_single_entry_perturbation_of_a_tensor_is_caught(flavor, a, b):
    for where, bad in single_entry_perturbations(tensor(finite_dim(a, flavor), finite_dim(b, flavor))):
        assert not check_relations(bad).ok, where


def test_corrupt_needs_raising_entries():
    with pytest.raises(ValueError):
        corrupt_one_entry(finite_dim(0, CLASSICAL))


FAULT_SCALARS = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2, Fraction(1, 3))
FAULT_MODULES = [
    *(rasskazova(RasskazovaParams(beta, lam, n, window))
      for beta in FAULT_SCALARS for lam in FAULT_SCALARS for n in range(1, 4) for window in range(1, 4)),
    *(verma_classical(hw, depth)
      for hw in (0, 1, 2, 3, 4, -1, -3, Fraction(1, 2), Fraction(5, 2), Fraction(-7, 3)) for depth in range(1, 6)),
    *(finite_dim(n, flavor) for flavor in (CLASSICAL, QUANTUM) for n in range(8)),
]


def test_an_injected_fault_always_fails_the_check():
    refused = []
    for m in FAULT_MODULES:
        try:
            bad = corrupt_one_entry(m)
        except ValueError:
            refused.append(m.name)
            continue
        assert not check_relations(bad).ok, m.name
    # no entry at all, or (V(0, 0, 1, 1)) only e.w^1_0 = w^1_1, which no checked [e,f] reads
    assert refused == ["V(beta=0;lambda=0;n=1;J=1)", "M(hw=0;depth=1)", "F(n=0)", "Fq(n=0)"]


# -- apply ---------------------------------------------------------------------


def test_apply_diagonal():
    m = finite_dim(2, CLASSICAL)
    assert apply(m, "h", basis_vector(m, "w_0")).entries == {"w_0": 2}


def test_apply_zero_vector():
    m = finite_dim(2, CLASSICAL)
    assert apply(m, "e", zero(m)).is_zero()


def test_apply_linearity():
    m = finite_dim(1, QUANTUM)
    x = add(basis_vector(m, "w_0"), basis_vector(m, "w_1"))
    assert apply(m, "E", x).entries == {"w_0": LaurentPoly(1)}


def test_apply_flavor_mismatch():
    m = finite_dim(2, CLASSICAL)
    with pytest.raises(ValueError):
        apply(m, "E", basis_vector(m, "w_0"))
    other = finite_dim(2, CLASSICAL)
    with pytest.raises(ValueError):
        apply(m, "e", basis_vector(other, "w_0"))


def test_apply_over_a_common_denominator_reads_the_numerators():
    # den 6: highest_weight_vectors' certificate applies e, and e, f and h on Fraction and on int
    # coordinates are the products over the Fraction views, built without the action view
    m = tensor(verma_classical(Fraction(1, 2), 3), verma_classical(Fraction(5, 3), 3))
    assert m.den == 6
    vectors = [x for _, x in highest_weight_vectors(m)] + [Vector(m, {lab: k - 5 for k, lab in enumerate(m.basis)})]
    got = [(g, x, apply(m, g, x)) for g in ("e", "f", "h") for x in vectors]
    with pytest.raises(AttributeError):  # the slot is still unset
        WeightModule.action.__get__(m)
    for g, x, gx in got:
        expected = {}
        for lab, c in x.entries.items():
            for row, a in (m.action[g].get(lab, {}) if g != "h" else {lab: m.weights[lab]}).items():
                expected[row] = expected.get(row, 0) + a * c
        assert gx.entries == {row: y for row, y in expected.items() if y}
        assert all(type(y) is Fraction for y in gx.entries.values())
    assert any(apply(m, "f", x).entries for x in vectors)


@pytest.mark.parametrize("gen, source, message", [
    ("K", lambda m: m, "generator 'K' not defined on classical module F"),
    ("e", lambda m: finite_dim(1, CLASSICAL), r"vector lives in F\(n=1\), not F\(n=1\)"),
], ids=["diagonal-of-the-other-flavour", "vector-of-another-module"])
def test_apply_refuses(gen, source, message):
    m = finite_dim(1, CLASSICAL)
    with pytest.raises(ValueError, match=message):
        apply(m, gen, basis_vector(source(m), "w_0"))


# -- structural validation -------------------------------------------------------


@pytest.mark.parametrize("flavor", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
def test_weight_grading_enforced(flavor):
    basis = ["w_0", "w_1"]
    weights = {basis[0]: 1, basis[1]: -1}
    # the raising generator mapping w_0 -> w_1 lowers the weight: must be rejected
    bad = {flavor.raising: {basis[0]: {basis[1]: flavor.ring(1)}}, flavor.lowering: {}}
    with pytest.raises(ValueError, match="breaks the weight grading"):
        WeightModule(flavor, "bad", basis, weights, bad)
    # so does a lowering entry that keeps it
    bad = {flavor.raising: {}, flavor.lowering: {basis[0]: {basis[0]: flavor.ring(1)}}}
    with pytest.raises(ValueError, match="breaks the weight grading"):
        WeightModule(flavor, "bad", basis, weights, bad)


F1_ACTION = {"e": {"w_1": {"w_0": Fraction(1)}}, "f": {"w_0": {"w_1": Fraction(1)}}}
F1_QUANTUM = {"E": {"w_1": {"w_0": LaurentPoly(1)}}, "F": {"w_0": {"w_1": LaurentPoly(1)}}}


def hand_built_f1(flavor=CLASSICAL, basis=("w_0", "w_1"), action=F1_ACTION, weights=None, boundary=(), den=None):
    return WeightModule(flavor, "F1", basis, weights or {"w_0": 1, "w_1": -1}, action, boundary, den)


def test_hand_built_module_passes_validation():
    m = hand_built_f1()
    assert m.dim == 2 and check_relations(m).ok


@pytest.mark.parametrize("flavor, action", [(CLASSICAL, {"e": {"w_1": {"w_0": 1}}, "f": {"w_0": {"w_1": 1}}}),
                                            (QUANTUM, F1_QUANTUM)], ids=["classical", "quantum"])
def test_a_module_given_den_keeps_the_dicts_it_is_handed(flavor, action):
    weights = {"w_0": 1, "w_1": -1}
    m = hand_built_f1(flavor, action=action, weights=weights, den=1)
    assert m.num_action is action and m.num_weights is weights
    assert m.action is action and m.weights is weights  # den 1: the views are the stored dicts


def test_a_module_rescaled_over_q_leaves_the_callers_dicts_unchanged():
    # with no den the values are rescaled to numerators over their lcm, 6 here, in copies
    weights = {"w_0": Fraction(1, 2), "w_1": Fraction(-3, 2)}
    action = {"e": {"w_1": {"w_0": Fraction(1, 3)}}, "f": {"w_0": {"w_1": 1}}}
    m = hand_built_f1(action=action, weights=weights)
    assert m.den == 6 and m.num_weights == {"w_0": 3, "w_1": -9}
    assert m.num_action == {"e": {"w_1": {"w_0": 2}}, "f": {"w_0": {"w_1": 6}}}
    assert weights == {"w_0": Fraction(1, 2), "w_1": Fraction(-3, 2)}
    assert action == {"e": {"w_1": {"w_0": Fraction(1, 3)}}, "f": {"w_0": {"w_1": 1}}}


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(flavor="classical"), "unknown flavor 'classical'"),
        (dict(basis=["w_0", "w_1", "w_0"]), "basis labels must be pairwise distinct"),
        (dict(action={"e": {"w_2": {"w_0": Fraction(1)}}, "f": {}}), "F1: unknown column label w_2"),
        (dict(action={"e": {"w_1": {"w_2": Fraction(1)}}, "f": {}}), "F1: unknown row label w_2"),
        (dict(action={"e": {"w_1": {"w_0": Fraction(0)}}, "f": {}}), "F1: stored zero at (w_0, w_1) of e"),
        (
            dict(flavor=QUANTUM, action=F1_QUANTUM, weights={"w_0": Fraction(1, 2), "w_1": Fraction(-3, 2)}),
            "F1: weight 1/2 of w_0 is not an integer",
        ),
        (dict(flavor=KASSEL, action=F1_QUANTUM, weights={"w_0": 1.0, "w_1": -1}), "F1: weight 1.0 of w_0 is not an integer"),
        (dict(weights={"w_0": 0.5, "w_1": -1.5}), "F1: weight 0.5 of w_0 is not rational"),
        (dict(action={"e": {"w_1": {"w_0": 0.5}}, "f": {}}), "F1: e entry 0.5 at (w_0, w_1) is not rational"),
        (dict(action={"e": {"w_1": {"w_0": "1"}}, "f": {}}), "F1: e entry 1 at (w_0, w_1) is not rational"),
        (dict(action={"e": {"w_1": {"w_0": v}}, "f": {}}), "F1: e entry v at (w_0, w_1) is not rational"),
        (
            dict(flavor=QUANTUM, action={**F1_QUANTUM, "E": {"w_1": {"w_0": 0.5}}}),
            "F1: E entry 0.5 at (w_0, w_1) is not in Q[v, v^-1]",
        ),
        (
            dict(flavor=QUANTUM, action={**F1_QUANTUM, "E": {"w_1": {"w_0": "1"}}}),
            "F1: E entry 1 at (w_0, w_1) is not in Q[v, v^-1]",
        ),
        (dict(weights={"w_0": 1}), "F1: the weights must label exactly the basis"),
        (dict(weights={"w_0": 1, "w_1": -1, "w_2": -3}), "F1: the weights must label exactly the basis"),
        (dict(boundary=["w_1", "nope"]), "F1: boundary label nope is not in the basis"),
        # numerators passed with den must be ints, even where the Fraction is rational
        (dict(weights={"w_0": Fraction(1, 2), "w_1": -1}, den=2), "F1: weight 1/2 of w_0 is not an int numerator over den 2"),
        (
            dict(action={"e": {"w_1": {"w_0": Fraction(1, 2)}}, "f": {}}, weights={"w_0": 2, "w_1": -2}, den=2),
            "F1: e entry 1/2 at (w_0, w_1) is not an int numerator over den 2",
        ),
        # den is a positive int, and 1 over Q[v, v^-1]; each case fails one clause of the test
        (dict(den=0), "F1: den 0 is not a positive int (1 over Q[v, v^-1])"),
        (dict(den=-2), "F1: den -2 is not a positive int (1 over Q[v, v^-1])"),
        (dict(den="2"), "F1: den '2' is not a positive int (1 over Q[v, v^-1])"),
        (dict(den=2.0), "F1: den 2.0 is not a positive int (1 over Q[v, v^-1])"),
        (dict(flavor=QUANTUM, action=F1_QUANTUM, den=2), "F1: den 2 is not a positive int (1 over Q[v, v^-1])"),
    ],
    ids=[
        "unknown-flavor", "duplicate-labels", "unknown-column", "unknown-row", "stored-zero",
        "quantum-rational-weight", "quantum-float-weight", "classical-float-weight", "classical-float-entry",
        "classical-str-entry", "classical-laurent-entry", "quantum-float-entry", "quantum-str-entry",
        "missing-weight", "extra-weight", "unknown-boundary", "fraction-weight-over-den", "fraction-entry-over-den",
        "den-zero", "den-negative", "den-str", "den-float", "quantum-den-two",
    ],
)
def test_constructor_rejects(overrides, message):
    with pytest.raises(ValueError) as exc:
        hand_built_f1(**overrides)
    assert str(exc.value) == message


def reference_validate(flavor, name, weights, action, den):
    """The entry walk of WeightModule._validate, each check in turn on each
    stored entry: None, or the message of the first failure."""
    quantum = flavor.ring is LaurentPoly
    scalars, ring = ({int, Fraction, flavor.ring}, "in Q[v, v^-1]") if quantum else ({int}, "rational")
    for g, shift in ((flavor.raising, 2 * den), (flavor.lowering, -2 * den)):
        for col, entries in action[g].items():
            if (target := weights.get(col)) is None:
                return f"{name}: unknown column label {col}"
            target += shift
            for row, c in entries.items():
                if (wt := weights.get(row)) is None:
                    return f"{name}: unknown row label {row}"
                if type(c) not in scalars:
                    what = f"an int numerator over den {den}" if type(c) is Fraction else ring
                    return f"{name}: {g} entry {c} at ({row}, {col}) is not {what}"
                if not c:
                    return f"{name}: stored zero at ({row}, {col}) of {g}"
                if wt != target:
                    return f"{name}: {g} entry ({row}, {col}) breaks the weight grading"
    return None


# each fault changes one entry; "laurent" and "fraction" are faults only over Q
ENTRY_FAULTS = {
    "row": lambda row, col, c, flavor: (("x", 0), c),  # a label outside the basis
    "grading": lambda row, col, c, flavor: (col, c),  # the column's own weight, not +-2 from it
    "zero": lambda row, col, c, flavor: (row, flavor.ring()),
    "float": lambda row, col, c, flavor: (row, 0.5),
    "str": lambda row, col, c, flavor: (row, str(c)),
    "laurent": lambda row, col, c, flavor: (row, v),
    "fraction": lambda row, col, c, flavor: (row, Fraction(1, 2)),
}


@st.composite
def faulty_module_data(draw):
    """(flavor, basis, weights, action, den) of a hand-built module: the layers
    of graded_modules as int numerators over den (1 and Laurent
    entries over Q[v, v^-1]), 0-2 ENTRY_FAULTS on each entry and perhaps an
    unknown column placed anywhere in one generator's matrix."""
    flavor = draw(st.sampled_from([CLASSICAL, QUANTUM]))
    den = 1 if flavor is QUANTUM else draw(st.integers(1, 6))
    top = draw(st.integers(-8, 8))
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    basis = [(k, i) for k, size in enumerate(sizes) for i in range(size)]
    weights = {lab: top - 2 * lab[0] * den for lab in basis}
    nonzero = st.integers(-3, 3).filter(bool)
    if flavor is QUANTUM:
        nonzero = st.builds(lambda c, e: LaurentPoly({e: c}), nonzero, st.integers(-2, 2))
    action = {flavor.raising: {}, flavor.lowering: {}}
    for lo in basis:
        for hi in basis:
            if hi[0] + 1 == lo[0]:
                for g, col, row in ((flavor.raising, lo, hi), (flavor.lowering, hi, lo)):
                    c = draw(nonzero)
                    for fault in draw(st.lists(st.sampled_from(sorted(ENTRY_FAULTS)), max_size=2)):
                        row, c = ENTRY_FAULTS[fault](row, col, c, flavor)
                    action[g].setdefault(col, {})[row] = c
    if not draw(st.integers(0, 3)):  # one example in four, so the entry faults are reached
        g = draw(st.sampled_from(sorted(action)))
        items = list(action[g].items())
        items.insert(draw(st.integers(0, len(items))), (("x", 1), {basis[0]: flavor.ring(1)}))
        action[g] = dict(items)
    return flavor, basis, weights, action, den


@settings(max_examples=300, deadline=None)
@given(faulty_module_data())
def test_validation_names_the_first_failure_of_the_reference_walk(data):
    flavor, basis, weights, action, den = data
    message = reference_validate(flavor, "bad", weights, action, den)
    if message is None:
        m = WeightModule(flavor, "bad", basis, weights, action, den=den)
        assert m.num_action == action
    else:
        with pytest.raises(ValueError) as exc:
            WeightModule(flavor, "bad", basis, weights, action, den=den)
        assert str(exc.value) == message


@pytest.mark.parametrize("c", [1, Fraction(1, 2), v + 1], ids=["int", "fraction", "laurent"])
def test_quantum_entry_may_be_int_fraction_or_laurent(c):
    m = hand_built_f1(QUANTUM, action={**F1_QUANTUM, "E": {"w_1": {"w_0": c}}})
    assert check_relations(m).ok == (c == 1)  # [E,F] w_0 = c w_0, and [1]_v = 1
    assert module_descriptor(m)["action"]["E"] == [["w_0", "w_1", scalar_json(c)]]


# -- the scalar rule: Flavor.ring names the ring; a known integer is stored as an int


def test_flavor_ring_names_the_scalar_ring():
    assert CLASSICAL.ring is Fraction and QUANTUM.ring is LaurentPoly
    for flavor in (CLASSICAL, QUANTUM):
        assert not flavor.ring() and flavor.ring(1) == 1


# -- the frozen records: field-wise ==, hash and repr, no assignment, checked replace


def test_records_compare_hash_and_print_field_wise():
    def report(defect):
        failure = RelationFailure("[e,f]=h", "w_0", defect)
        return RelationReport("F(n=1)", "classical", ("[e,f]=h",), ("w_0",), (failure,), ())

    a, b = report((("w_0", Fraction(1, 2)),)), report((("w_0", Fraction(2, 4)),))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != report((("w_0", Fraction(1, 3)),)) and a != a.replace(excluded=("w_1",))
    assert a.__eq__("F(n=1)") is NotImplemented and a != "F(n=1)"
    assert repr(a) == (
        "RelationReport(module='F(n=1)', flavor='classical', relations=('[e,f]=h',), checked=('w_0',), "
        "failures=(RelationFailure(relation='[e,f]=h', label='w_0', defect=(('w_0', Fraction(1, 2)),)),), "
        "excluded=())"
    )


@pytest.mark.parametrize("make", [
    lambda: RasskazovaParams(Fraction(1, 2), 3, 2, 1),
    lambda: check_relations(finite_dim(2, CLASSICAL)),
    lambda: tensorcg.Decomposition({2: 1}),
    lambda: tensorcg.WEIGHT_MATCHED,
    lambda: QUANTUM,
])
def test_records_refuse_assignment(make):
    record = make()
    field = type(record)._fields[0]
    before = getattr(record, field)
    for change in (lambda: setattr(record, field, None), lambda: delattr(record, field),
                   lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(record, field) is before


def test_replace_checks_the_new_record():
    params = RasskazovaParams(1, Fraction(5, 2), 2, 3)
    assert params.replace(beta="1/2") == RasskazovaParams(Fraction(1, 2), Fraction(5, 2), 2, 3)
    assert type(params.replace(lam=2).lam) is Fraction and params.replace().n == 2
    for bad in ({"n": 0}, {"window": 0}):
        with pytest.raises(ValueError):
            params.replace(**bad)
    with pytest.raises(TypeError):
        params.replace(depth=1)
    with pytest.raises(ValueError):
        tensorcg.Decomposition({2: 1}).replace(summands={2: 0})
    # the generic constructor wants every field once, by position or name
    positions = tensorcg.WEIGHT_MATCHED.positions
    assert tensorcg.Interpretation(ident="x", positions=positions) == tensorcg.Interpretation("x", positions)
    for args, kwargs in [(("x",), {}), (("x", positions, 1), {}), (("x", positions), {"ident": "y"}),
                         ((), {"ident": "x", "positions": positions, "other": 1})]:
        with pytest.raises(TypeError):
            tensorcg.Interpretation(*args, **kwargs)


def test_flavor_equality_is_identity():
    twin = QUANTUM.replace()
    assert all(getattr(twin, f) is getattr(QUANTUM, f) for f in QUANTUM._fields)
    assert twin != QUANTUM and QUANTUM == QUANTUM and CLASSICAL != QUANTUM
    assert len({QUANTUM, twin, QUANTUM}) == 2 and hash(QUANTUM) == object.__hash__(QUANTUM)
    assert finite_dim(1, QUANTUM).flavor is QUANTUM


def stored(m, gen=None, action=None):
    """Every entry of m's action view, or of the given action, or of its generator gen."""
    action = m.action if action is None else action
    return [c for g in ([gen] if gen else action) for col in action[g].values() for c in col.values()]


def assert_stored_over_least_den(m):
    """Every weight and classical entry stored as an int numerator over m.den, the
    least common denominator; the views read Fractions exactly when den > 1, and
    are the stored dicts themselves when den is 1."""
    numerators = [*m.num_weights.values(), *stored(m, action=m.num_action)]
    assert all(type(x) is int for x in numerators)
    assert m.den == lcm(*(Fraction(x, m.den).denominator for x in numerators))
    assert {type(x) for x in (*m.weights.values(), *stored(m))} == {Fraction if m.den > 1 else int}
    assert m.den > 1 or (m.weights is m.num_weights and m.action is m.num_action)


def test_known_integers_are_stored_as_int():
    for n in range(9):
        assert_stored_over_least_den(finite_dim(n, CLASSICAL))
    verma = verma_classical(Fraction(1, 2), 6)
    assert_stored_over_least_den(verma)
    assert verma.den == 2 and stored(verma, "f", verma.num_action) == [2] * 6 and stored(verma, "f") == [1] * 6
    # e.w_k = k(1/2-k+1) w_{k-1}: its numerator over 2 is k(3-2k)
    assert stored(verma, "e", verma.num_action) == [k * (3 - 2 * k) for k in range(1, 7)]
    # beta = 1/2, lambda = 1/3: no formula entry is integral, so the integral ones are the literal +-1s
    ras = rasskazova(RasskazovaParams(Fraction(1, 2), Fraction(1, 3), 2, 3))
    assert_stored_over_least_den(ras)
    entries = stored(ras)
    assert ras.den == 6 and {c for c in entries if c.denominator == 1} == {1, -1}
    assert {c for c in stored(ras, action=ras.num_action) if c % 6 == 0} == {6, -6}
    # an integral highest weight stores ints over 1 and reads them back: e.w_1 = e.w_2 = 2, e.w_3 = 0
    ints = verma_classical(2, 3)
    assert_stored_over_least_den(ints)
    assert ints.den == 1 and stored(ints, "e") == [2, 2] and ints.weights["w_0"] == 2


def test_an_unknown_attribute_of_a_rational_module_is_an_attribute_error():
    m = verma_classical(Fraction(1, 2), 3)
    with pytest.raises(AttributeError, match=r"^'WeightModule' object has no attribute 'nope'$"):
        m.nope
    assert not hasattr(m, "nope")
    for view in (WeightModule.weights, WeightModule.action):  # the slots are still unset
        with pytest.raises(AttributeError):
            view.__get__(m)
    _, weights, action, _ = verma_formula(Fraction(1, 2), 3)
    assert m.weights == weights and m.action == action  # built on first read
    assert WeightModule.weights.__get__(m) is m.weights


def test_grading_is_compared_over_the_common_denominator():
    # a column at weight 1/2 reaches weight 5/2 under e, never 5/3
    basis = ["w_0", "w_1"]
    action = {"e": {"w_1": {"w_0": 1}}, "f": {}}
    with pytest.raises(ValueError, match="breaks the weight grading"):
        WeightModule(CLASSICAL, "bad", basis, {"w_0": Fraction(5, 3), "w_1": Fraction(1, 2)}, action)
    WeightModule(CLASSICAL, "ok", basis, {"w_0": Fraction(5, 2), "w_1": Fraction(1, 2)}, action)


def test_vector_rejects_foreign_label():
    with pytest.raises(ValueError, match="label w_2 does not belong to F1"):
        Vector(hand_built_f1(), {"w_2": Fraction(1)})


@pytest.mark.parametrize("flavor, diag", [(CLASSICAL, "h"), (QUANTUM, "K"), (QUANTUM, "Kinv")])
def test_diagonal_generators_are_not_stored(flavor, diag):
    lab = "w_0"
    action = {flavor.raising: {}, flavor.lowering: {}}
    WeightModule(flavor, "ok", [lab], {lab: 0}, action)
    with pytest.raises(ValueError):
        WeightModule(flavor, "bad", [lab], {lab: 0}, {**action, diag: {lab: {lab: flavor.ring(1)}}})


def test_vector_strips_zeros():
    m = finite_dim(1, CLASSICAL)
    x = Vector(m, {"w_0": Fraction(0), "w_1": Fraction(2)})
    assert x.entries == {"w_1": 2}
    assert sub(x, x).is_zero()


def test_zero_vector_prints_0_and_equals_no_number():
    z = Vector(finite_dim(1, CLASSICAL), {})
    assert str(z) == "0" and (z == 1) is False


# -- the reference relation evaluator ------------------------------------------
# Every defining relation evaluated on every basis vector through words of
# generators, relying on no weight grading.  check_relations must agree with
# it, failures and defects included, on every module.

REFERENCE_DEFECTS = {
    "[h,e]=2e": lambda x, w: sub(x("h", "e"), x("e", "h"), scaled(x("e"), Fraction(2))),
    "[h,f]=-2f": lambda x, w: add(sub(x("h", "f"), x("f", "h")), scaled(x("f"), Fraction(2))),
    "[e,f]=h": lambda x, w: sub(x("e", "f"), x("f", "e"), x("h")),
    "K Kinv=1": lambda x, w: sub(x("K", "Kinv"), x()),
    "K E Kinv=v^2 E": lambda x, w: sub(x("K", "E", "Kinv"), scaled(x("E"), LaurentPoly({2: 1}))),
    "K F Kinv=v^-2 F": lambda x, w: sub(x("K", "F", "Kinv"), scaled(x("F"), LaurentPoly({-2: 1}))),
    "[E,F]=[h]_v": lambda x, w: sub(x("E", "F"), x("F", "E"), scaled(x(), q_int(w))),
}


def reference_check_relations(m: WeightModule) -> RelationReport:
    checked = []
    failures = []
    images: dict = {}

    def image(*word):
        # each suffix of a word is applied once per basis vector
        if word not in images:
            images[word] = apply(m, word[0], image(*word[1:]))
        return images[word]

    for lab in m.basis:
        if lab in m.boundary:
            continue
        checked.append(lab)
        images = {(): basis_vector(m, lab)}
        for relname in m.flavor.relations:
            d = REFERENCE_DEFECTS[relname](image, m.weights[lab])
            if not d.is_zero():
                failures.append(RelationFailure(relname, lab, tuple(d.items_in_order())))

    return RelationReport(
        module=m.name,
        flavor=m.flavor.name,
        relations=m.flavor.relations,
        checked=tuple(checked),
        failures=tuple(failures),
        excluded=tuple(lab for lab in m.basis if lab in m.boundary),
    )


REFERENCE_MODULES = {
    **{f"findim-{fl.name}-{n}": (lambda fl=fl, n=n: finite_dim(n, fl))
       for fl in (CLASSICAL, QUANTUM) for n in range(7)},
    **{f"verma-{hw}": (lambda hw=hw: verma_classical(hw, 5)) for hw in (0, 2, Fraction(5, 2), Fraction(-7, 3))},
    **{
        f"rasskazova-{p.beta}-{p.lam}-{p.n}": (lambda p=p: rasskazova(p))
        for p in (
            RasskazovaParams(0, 0, 1, 3),
            RasskazovaParams(1, 2, 2, 3),
            RasskazovaParams(Fraction(-3), Fraction(5, 2), 3, 2),
        )
    },
    **{
        f"tensor-{name}-{a}-{b}": (lambda fl=fl, a=a, b=b: tensor(finite_dim(a, fl), finite_dim(b, fl)))
        for name, fl in COPRODUCTS.items()
        for a in range(4)
        for b in range(4)
    },
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MODULES))
def test_checker_matches_the_reference_evaluator(name):
    m = REFERENCE_MODULES[name]()
    assert check_relations(m) == reference_check_relations(m)
    for where, bad in single_entry_perturbations(m):
        assert check_relations(bad) == reference_check_relations(bad), where


NO_VECTOR_MODULES = {
    "findim-classical-4": lambda: finite_dim(4, CLASSICAL),
    "findim-quantum-4": lambda: finite_dim(4, QUANTUM),
    "verma--7/3": lambda: verma_classical(Fraction(-7, 3), 6),
    "rasskazova-1-2-2": lambda: rasskazova(RasskazovaParams(1, 2, 2, 3)),
    "tensor-quantum-2-2": lambda: tensor(finite_dim(2, QUANTUM), finite_dim(2, QUANTUM)),
}


@pytest.mark.parametrize("name", sorted(NO_VECTOR_MODULES))
def test_checker_builds_no_vector_and_calls_no_apply(name, monkeypatch):
    m = NO_VECTOR_MODULES[name]()
    modules = [m, corrupt_one_entry(m)]
    expected = [reference_check_relations(x) for x in modules]

    def forbidden(*args, **kwargs):
        raise AssertionError("check_relations built a Vector or called apply")

    monkeypatch.setattr(modrep, "Vector", forbidden)
    monkeypatch.setattr(modrep, "apply", forbidden)
    assert [check_relations(x) for x in modules] == expected


@st.composite
def graded_modules(draw, flavor=CLASSICAL):
    """Random graded module: layers k = 0, 1, .. of weight hw - 2k, raising
    entries from layer k+1 to k and lowering entries from k to k+1, and a
    random boundary.  Classical: rational hw and entries; quantum: integer
    hw and entries 0 or +-v^e with |e| <= 2.  A layer of two or three
    vectors makes paths that land off the vector checked."""
    if flavor is CLASSICAL:
        hw = draw(st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)))
        scalars = st.fractions(-3, 3, max_denominator=3)
    else:
        hw = draw(st.integers(-4, 4))
        monomial = st.builds(lambda c, e: LaurentPoly({e: c}), st.sampled_from([1, -1]), st.integers(-2, 2))
        scalars = st.one_of(st.just(LaurentPoly()), monomial)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    basis = [(k, i) for k, size in enumerate(sizes) for i in range(size)]
    weights = {lab: hw - 2 * lab[0] for lab in basis}
    e: dict = {}
    f: dict = {}
    for lo in basis:
        for hi in basis:
            if hi[0] + 1 == lo[0]:
                c, d = draw(scalars), draw(scalars)
                if c:
                    e.setdefault(lo, {})[hi] = c
                if d:
                    f.setdefault(hi, {})[lo] = d
    boundary = draw(st.sets(st.sampled_from(basis)))
    return WeightModule(flavor, "random", basis, weights, {flavor.raising: e, flavor.lowering: f}, boundary)


@settings(max_examples=100, deadline=None)
@given(graded_modules())
def test_checker_matches_the_reference_on_random_modules(m):
    assert check_relations(m) == reference_check_relations(m)


@settings(max_examples=50, deadline=None)
@given(graded_modules(QUANTUM))
def test_checker_matches_the_reference_on_random_quantum_modules(m):
    assert check_relations(m) == reference_check_relations(m)


def test_a_defect_that_leaves_out_the_vector_itself():
    # f.w^2_3 = -10 w^2_2 - w^1_2; doubling the second entry leaves [e,f] - h
    # on w^2_2 zero at w^2_2 itself and nonzero only at w^1_2
    m = rasskazova(RasskazovaParams(1, 2, 2, 3))
    assert m.action["f"]["w^2_3"]["w^1_2"] == -1
    bad = with_entry(m, "f", "w^2_3", "w^1_2", -2)
    report = check_relations(bad)
    assert report.failures == (RelationFailure("[e,f]=h", "w^2_2", (("w^1_2", Fraction(1)),)),)
    assert report == reference_check_relations(bad)


# -- tensor products against the coproduct, evaluated with apply ----------------


def reference_tensor_action(a, b):
    """D(g)(la (x) lb) = g.la (x) right.lb + left.la (x) g.lb for each raising
    or lowering g, with (right, left) = coproduct[g], each factor through apply."""

    def act(m, gen, lab):  # a twist of None is 1
        x = basis_vector(m, lab)
        return (x if gen is None else apply(m, gen, x)).entries

    action = {}
    for g, (right, left) in a.flavor.coproduct.items():
        mat = action[g] = {}
        for la in a.basis:
            for lb in b.basis:
                col = {}
                for xa, xb in ((act(a, g, la), act(b, right, lb)), (act(a, left, la), act(b, g, lb))):
                    for ra, ca in xa.items():
                        for rb, cb in xb.items():
                            row = f"{ra}*{rb}"
                            col[row] = col[row] + ca * cb if row in col else ca * cb
                if col := {row: c for row, c in col.items() if c}:
                    mat[f"{la}*{lb}"] = col
    return action


@FLAVORS
@pytest.mark.parametrize("m, n", [(m, n) for m in range(4) for n in range(4)])
def test_tensor_of_findim_equals_the_reference_coproduct(flavor, m, n):
    a, b = finite_dim(m, flavor), finite_dim(n, flavor)
    assert tensor(a, b).action == reference_tensor_action(a, b)


def test_tensor_of_a_verma_module_equals_the_reference_coproduct():
    for a, b in ((verma_classical(Fraction(5, 2), 3), finite_dim(2, CLASSICAL)),
                 (finite_dim(1, CLASSICAL), verma_classical(-3, 4))):
        assert tensor(a, b).action == reference_tensor_action(a, b)


def assert_is_the_restriction(t, full, spaces):
    """t is full cut to the vectors whose weights lie in spaces, in full's
    order, holding the raising operator alone: its lowering map is empty and
    every kept vector is on the boundary."""
    keep = {lab for lab in full.basis if full.weights[lab] in spaces}
    raising, lowering = full.flavor.raising, full.flavor.lowering
    assert t.basis == tuple(lab for lab in full.basis if lab in keep)
    assert t.weights == {lab: full.weights[lab] for lab in t.basis}
    assert t.action == {raising: {col: kept for col, entries in full.action[raising].items() if col in keep
                                  if (kept := {row: c for row, c in entries.items() if row in keep})},
                        lowering: {}}
    assert t.boundary == keep


@settings(max_examples=50, deadline=None)
@given(graded_modules(), graded_modules(), st.data())
def test_tensor_of_random_modules_equals_the_reference_coproduct(a, b, data):
    t = tensor(a, b)
    assert t.action == reference_tensor_action(a, b)
    assert t.boundary == {f"{la}*{lb}" for la in a.basis for lb in b.basis
                          if la in a.boundary or lb in b.boundary}
    spaces = data.draw(st.sets(st.sampled_from(sorted(set(t.weights.values())))))
    assert_is_the_restriction(tensor(a, b, spaces), t, spaces)


@FLAVORS
@pytest.mark.parametrize("m, n", [(m, n) for m in range(6) for n in range(6)])
def test_tensor_of_two_weight_spaces_is_the_full_tensor_restricted(flavor, m, n):
    a, b = finite_dim(m, flavor), finite_dim(n, flavor)
    full = tensor(a, b)
    for w in range(m + n, -m - n - 1, -2):
        t = tensor(a, b, {w, w + 2})
        assert_is_the_restriction(t, full, {w, w + 2})
        assert check_relations(t).ok
        assert highest_weight_vectors(t, w) == highest_weight_vectors(full, w)


def reference_tensor(a, b):
    """The whole tensor of a and b on the reference coproduct: every pair in a's order then b's,
    on the boundary where either factor's label is."""
    pairs = [(la, lb) for la in a.basis for lb in b.basis]
    weights = {f"{la}*{lb}": a.weights[la] + b.weights[lb] for la, lb in pairs}
    boundary = [f"{la}*{lb}" for la, lb in pairs if la in a.boundary or lb in b.boundary]
    return WeightModule(a.flavor, "reference", list(weights), weights, reference_tensor_action(a, b), boundary)


def tensor_factors(flavor):
    """F_0 .. F_4 of a flavour and, classically, truncated factors stored over den > 1."""
    truncated = [verma_classical(Fraction(5, 2), 3), verma_classical(-3, 2),
                 rasskazova(RasskazovaParams(Fraction(1, 2), Fraction(-1, 3), 2, 1)),
                 rasskazova(RasskazovaParams(0, Fraction(2, 3), 1, 2))]
    return [finite_dim(n, flavor) for n in range(5)] + (truncated if flavor is CLASSICAL else [])


@FLAVORS
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_tensor_of_chosen_spaces_is_the_reference_tensor_cut_to_them(flavor, data):
    # basis order, weights, boundary and columns, for any set of weights, among them weights the
    # product lacks (odd, out of range or non-integral)
    a, b = (data.draw(st.sampled_from(tensor_factors(flavor))) for _ in range(2))
    present = sorted({wa + wb for wa in a.weights.values() for wb in b.weights.values()})
    absent = [present[-1] + 2, present[0] - 2, present[0] + 1, Fraction(1, 3), Fraction(7, 2)]
    spaces = data.draw(st.sets(st.sampled_from(present + [w for w in absent if w not in present])))
    assert_is_the_restriction(tensor(a, b, spaces), reference_tensor(a, b), spaces)


@pytest.mark.parametrize("flavor", [QUANTUM, KASSEL], ids=["quantum", "kassel"])
def test_factored_normal_form_is_the_gcd_normal_form_on_every_hwv_space(flavor):
    # each bidiagonal space of F_m (x) F_n: the kernel vector normalised in factored form
    # equals the packed elimination's one vector there through _elimination._normalize_laurent,
    # computed with lp_gcd
    solved = 0
    for m in range(11):
        for n in range(11):
            t = tensor(finite_dim(m, flavor), finite_dim(n, flavor))
            spaces, up = weight_spaces(t), t.action[flavor.raising]
            for w, source in spaces.items():
                target = spaces.get(w + 2, [])
                if len(target) != len(source) - 1:
                    continue
                rows = [[up.get(src, {}).get(lab, LaurentPoly()) for src in source] for lab in target]
                (factored,) = expanded([tensorcg._factored_kernel(rows)])
                (x,) = _elimination._packed_kernel(rows, len(source))
                assert factored == _elimination._normalize_laurent(x), (m, n, w)
                solved += 1
    assert solved == sum(min(m, n) + 1 for m in range(11) for n in range(11))


@pytest.mark.parametrize("flavor", [QUANTUM, KASSEL], ids=["quantum", "kassel"])
def test_the_cached_expansion_is_the_uncached_product(flavor):
    # every factored scalar _factored_kernel gives on a bidiagonal space of F_m (x) F_n, m, n <= 8,
    # and (under QUANTUM, the one flavour it builds) every coefficient _phi_terms gives there:
    # _expand reads +-v^e times a cached product of Phi_d's, the reference multiplies each Phi_d
    # onto a validated +-v^e; the second _expand of each scalar reads the cache
    scalars = []
    for m in range(9):
        for n in range(9):
            t = tensor(finite_dim(m, flavor), finite_dim(n, flavor))
            spaces, up = weight_spaces(t), t.action[flavor.raising]
            for w, source in spaces.items():
                target = spaces.get(w + 2, [])
                if len(target) == len(source) - 1:
                    scalars += tensorcg._factored_kernel(
                        [[up.get(src, {}).get(lab, LaurentPoly()) for src in source] for lab in target])
            if flavor is QUANTUM:
                for p in range(min(m, n) + 1):
                    scalars += tensorcg._phi_terms(m, n, p, tensorcg.WEIGHT_MATCHED)[1].values()
    # p + 1 coordinates in each of the min(m, n) + 1 spaces, and as many formula coefficients
    assert len(scalars) == (2 if flavor is QUANTUM else 1) * 825
    for x in scalars:
        assert tensorcg._expand(x) == expand(x) == tensorcg._expand(x), x


@st.composite
def q_int_candidates(draw):
    """A nonzero scalar that _q_int_factors reads: +-v^e [a], or one with a gap, mixed signs, a +-2 or
    Fraction coefficient, a single term of any coefficient, or a plain int or Fraction."""
    sign, low, a = draw(st.sampled_from([1, -1])), draw(st.integers(-6, 6)), draw(st.integers(1, 7))
    coeffs = {low + 2 * i: sign for i in range(a)}
    exps = sorted(coeffs)
    kind = draw(st.sampled_from(["q-int", "gap", "mixed", "two", "fraction", "odd step", "single", "int"]))
    if kind == "gap":  # an interior term dropped, or one more term past a gap above the top
        if a >= 3:
            del coeffs[exps[1]]
        else:
            coeffs[exps[-1] + 4] = sign
    elif kind == "mixed":
        coeffs[draw(st.sampled_from(exps))] = -sign
    elif kind in ("two", "fraction"):
        coeffs[draw(st.sampled_from(exps))] = (draw(st.sampled_from([2, -2])) if kind == "two"
                                               else Fraction(draw(st.sampled_from([1, -1, 3])), 2))
    elif kind == "odd step":
        coeffs[exps[-1] + 1] = sign
    elif kind in ("single", "int"):
        c = draw(st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]))
        return LaurentPoly({low: c}) if kind == "single" else c
    return LaurentPoly(coeffs)


@given(q_int_candidates())
@example(LaurentPoly({0: 1, 4: 1}))  # a gap
@example(LaurentPoly({-1: 1, 1: -1}))  # mixed signs
@example(LaurentPoly({0: 1, 2: 2}))  # a 2
@example(LaurentPoly({0: Fraction(1, 2)}))  # a Fraction
@example(LaurentPoly({3: -1}))  # a single term
@example(1)
@example(-2)
@example(Fraction(1))
@settings(max_examples=300, deadline=None)
def test_q_int_factors_on_the_stored_coefficients_is_the_sorted_terms_one(c):
    assert tensorcg._q_int_factors(c) == q_int_factors(c)


def kassel_coefficient(m, n, p, k):
    """Term k of the transfer formula with sign (-1)^(n-p+k) and exponent (k-p)(1+m)+p^2-k^2+n,
    cleared as phi_vector clears it: [n-p+k]!/[n-p]! [m-k]!/[m-p]! times that signed power of v."""
    return prod(map(q_int, [*range(n - p + 1, n - p + k + 1), *range(m - p + 1, m - k + 1)]),
                start=LaurentPoly({(k - p) * (1 + m) + p * p - k * k + n: (-1) ** (n - p + k)}))


def proportional(x: dict, y: dict) -> bool:
    """Whether the coordinates x and y, y nonzero, are multiples of one another over the fractions of their ring."""
    ref, zero = next(lab for lab, c in y.items() if c), LaurentPoly()
    return bool(x.get(ref)) and all(x.get(lab, zero) * y[ref] == y.get(lab, zero) * x[ref] for lab in x.keys() | y)


def test_transfer_formula_holds_under_kassel_with_an_alternating_sign():
    # ROADMAP item 2, found with no change to phi_vector: read at (k, p-k) on F_m (x) F_n under
    # KASSEL, the formula with the sign and exponent of kassel_coefficient is the oracle's vector
    # up to a scalar at every p >= 1 with m, n <= 8; as written (phi_vs_oracle) it is at none of them
    sizes = [(m, n, p) for m in range(9) for n in range(9) for p in range(1, min(m, n) + 1)]
    assert len(sizes) == 204
    for m, n, p in sizes:
        a, b, w = finite_dim(m, KASSEL), finite_dim(n, KASSEL), m + n - 2 * p
        oracle = highest_weight_vector(tensor(a, b, {w, w + 2}), w).entries
        formula = {f"{a.basis[k]}*{b.basis[p - k]}": kassel_coefficient(m, n, p, k) for k in range(p + 1)}
        assert proportional(formula, oracle), (m, n, p)
        assert not phi_vs_oracle(m, n, p).proportional, (m, n, p)
    assert all(phi_vs_oracle(m, n, 0).proportional for m in range(9) for n in range(9))
    # free of conventions: at v = 1 the kernel's coordinates alternate in sign, the written ones do not
    pairs = 0
    for m, n, p in sizes:
        a, b, w = finite_dim(m, CLASSICAL), finite_dim(n, CLASSICAL), m + n - 2 * p
        oracle = highest_weight_vector(tensor(a, b, {w, w + 2}), w).entries
        written = phi_vector(m, n, p).entries
        for k in range(p):
            here, there = f"{a.basis[k]}*{b.basis[p - k]}", f"{a.basis[k + 1]}*{b.basis[p - k - 1]}"
            assert oracle[there] / oracle[here] == -Fraction(n - p + k + 1, m - k), (m, n, p, k)
            assert specialize_one(written[there]) / specialize_one(written[here]) == Fraction(n - p + k + 1, m - k)
            # the correction restores the alternating sign the written coefficients lack
            corrected = [specialize_one(kassel_coefficient(m, n, p, j)) for j in (k, k + 1)]
            assert corrected[1] / corrected[0] == -Fraction(n - p + k + 1, m - k), (m, n, p, k)
            pairs += 1
    assert pairs == 540


def test_the_kassel_formula_spans_the_kernel_for_every_size():
    """The corrected formula is the highest-weight vector for every m, n and 1 <= p <= min(m, n).

    Under KASSEL, D(E) = E (x) 1 + K (x) E, the cut of weight w = m+n-2p is
    bidiagonal: row k, the vector w_k (x) w_{p-k-1} of weight w+2, holds
    [m-k] from w_{k+1} (x) w_{p-k-1} and v^(m-2k) [n-p+k+1] from w_k (x) w_{p-k},
    and nothing else.  So c is in the kernel exactly when
    c_{k+1} [m-k] = -v^(m-2k) [n-p+k+1] c_k for 0 <= k < p.  kassel_coefficient's
    product gives c_{k+1} [m-k] = -v^(e(k+1)-e(k)) [n-p+k+1] c_k, with
    e(k) = (k-p)(1+m)+p^2-k^2+n, and e(k+1) - e(k) = m - 2k identically.
    Each [m-k] with k < p <= m is nonzero, so columns 1..p are triangular with a
    nonzero diagonal: the kernel is one-dimensional, and the formula, whose c_0 is
    nonzero, spans it.  Below: the matrix for m, n <= 6, the recurrence for
    m, n <= 8, and the exponent identity in sympy."""
    for m in range(7):
        for n in range(7):
            for p in range(1, min(m, n) + 1):
                a, b, w = finite_dim(m, KASSEL), finite_dim(n, KASSEL), m + n - 2 * p
                up: dict = {}  # the raising operator's columns, by label, as the argument above gives them
                for k in range(p):
                    row = f"{a.basis[k]}*{b.basis[p - k - 1]}"
                    up.setdefault(f"{a.basis[k + 1]}*{b.basis[p - k - 1]}", {})[row] = q_int(m - k)
                    up.setdefault(f"{a.basis[k]}*{b.basis[p - k]}", {})[row] = v ** (m - 2 * k) * q_int(n - p + k + 1)
                assert tensor(a, b, {w, w + 2}).action["E"] == up, (m, n, p)
    for m in range(9):
        for n in range(9):
            for p in range(1, min(m, n) + 1):
                e = [(k - p) * (1 + m) + p * p - k * k + n for k in range(p + 1)]
                c = [kassel_coefficient(m, n, p, k) for k in range(p + 1)]
                for k in range(p):
                    right = -(v ** (e[k + 1] - e[k])) * q_int(n - p + k + 1) * c[k]
                    assert c[k + 1] * q_int(m - k) == right, (m, n, p, k)
    m, n, p, k = sympy.symbols("m n p k")
    e = sympy.Lambda(k, (k - p) * (1 + m) + p**2 - k**2 + n)
    assert sympy.expand(e(k + 1) - e(k) - (m - 2 * k)) == 0


# -- the constructors on integer numerators -------------------------------------
# verma_classical and rasskazova build every scalar from numerators over one
# common denominator; these tests hold them to their docstring formulas,
# evaluated with Fraction arithmetic.

RATIONALS = st.one_of(st.integers(-12, 40), st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)))


def assert_scalar_types_and_nonzero(m, action):
    """Each scalar stored as an int numerator over m.den, the least common
    denominator: the weights and the formula's entries times den; no column
    empty and no entry zero; the views Fractions exactly when den > 1."""
    assert_stored_over_least_den(m)
    assert m.num_weights == {lab: wt * m.den for lab, wt in m.weights.items()}
    for g, mat in m.num_action.items():
        for col, entries in mat.items():
            assert entries and all(c and c == action[g][col][row] * m.den for row, c in entries.items())


def ordered(d, den=1):
    """Nested dicts as nested (key, value) lists, so that == compares key order too; each value times den."""
    return [(k, ordered(x, den) if isinstance(x, dict) else x * den) for k, x in d.items()]


def assert_is_the_formula(m, basis, weights, action, boundary):
    """m is the module of a formula's values, entry by entry: its basis and
    boundary, its views equal to the values, and its stored numerators the
    values times m.den, in the formula's key order, with no zero stored."""
    assert m.basis == tuple(basis) and m.boundary == frozenset(boundary)
    assert m.weights == weights and m.action == action
    assert_scalar_types_and_nonzero(m, action)
    assert ordered(m.num_weights) == ordered(weights, m.den)
    assert ordered(m.num_action) == ordered(action, m.den)


def verma_formula(hw, depth):
    """(basis, weights, action, boundary) of verma_classical(hw, depth), by its docstring over Fractions."""
    hw = Fraction(hw)
    basis = [f"w_{k}" for k in range(depth + 1)]
    weights = {f"w_{k}": hw - 2 * k for k in range(depth + 1)}
    e = {f"w_{k}": {f"w_{k - 1}": k * (hw - k + 1)} for k in range(1, depth + 1) if k * (hw - k + 1)}
    f = {f"w_{k}": {f"w_{k + 1}": 1} for k in range(depth)}
    return basis, weights, {"e": e, "f": f}, [basis[-1]]


@settings(max_examples=100, deadline=None)
@given(hw=RATIONALS, depth=st.integers(1, 40))
def test_verma_equals_its_docstring_formula(hw, depth):
    assert_is_the_formula(verma_classical(hw, depth), *verma_formula(hw, depth))


@pytest.mark.parametrize("hw", [0, 1, 2, 3, Fraction(1, 2), Fraction(-7, 3)])
def test_verma_stores_its_formula_in_order(hw):
    for depth in range(1, 5):  # an int hw = k-1 < depth drops the e entry at w_k
        assert_is_the_formula(verma_classical(hw, depth), *verma_formula(hw, depth))


@st.composite
def rasskazova_params(draw):
    """beta and lambda with denominators 1-12; lambda sometimes chosen to
    zero the e coefficient at some j < 0 or the f coefficient at some j > 0."""
    n, window = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    beta = Fraction(draw(RATIONALS))
    j = draw(st.integers(1, window))
    lam = draw(st.one_of(
        RATIONALS,
        st.just(j * beta + j * (-j + 1)),  # lam - j*beta + (-j)(-j+1) = 0
        st.just(-(j - 1) * beta - j * (j - 1)),
    ))
    return RasskazovaParams(beta, lam, n, window)


def rasskazova_formula(p):
    """(basis, weights, action, boundary) of rasskazova(p), by its docstring over
    Fractions: each column's w^i entry before its w^(i-1) one, in basis order."""
    beta, lam, J = p.beta, p.lam, p.window
    basis = [f"w^{i}_{j}" for i in range(1, p.n + 1) for j in range(-J, J + 1)]
    weights = {f"w^{i}_{j}": 2 * j + beta for i in range(1, p.n + 1) for j in range(-J, J + 1)}
    e: dict = {}
    f: dict = {}
    for i in range(1, p.n + 1):
        for j in range(-J, J + 1):
            up = {}
            if j + 1 <= J:
                if j >= 0:
                    up[f"w^{i}_{j + 1}"] = 1
                else:
                    up[f"w^{i}_{j + 1}"] = lam + j * beta + j * (j + 1)
                    up[f"w^{i - 1}_{j + 1}"] = 1
            down = {}
            if j - 1 >= -J:
                if j > 0:
                    down[f"w^{i}_{j - 1}"] = -(lam + (j - 1) * beta + j * (j - 1))
                    down[f"w^{i - 1}_{j - 1}"] = -1
                else:
                    down[f"w^{i}_{j - 1}"] = -1
            # w^0_j = 0, and a zero coefficient is not stored
            for mat, col in ((e, up), (f, down)):
                col = {lab: c for lab, c in col.items() if c and not lab.startswith("w^0_")}
                if col:
                    mat[f"w^{i}_{j}"] = col
    boundary = [f"w^{i}_{j}" for i in range(1, p.n + 1) for j in (-J, J)]
    return basis, weights, {"e": e, "f": f}, boundary


@settings(max_examples=100, deadline=None)
@given(rasskazova_params())
def test_rasskazova_equals_its_docstring_formula(p):
    m = rasskazova(p)
    assert len(m.weights) == p.n * (2 * p.window + 1)
    assert_is_the_formula(m, *rasskazova_formula(p))


@pytest.mark.parametrize("beta, lam", [
    (0, 0),  # e.w^i_-1 and f.w^i_1 have no w^i entry
    (1, 2),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1, 2), -1),  # e.w^i_-2 has no w^i entry
    (Fraction(1, 2), Fraction(-5, 2)),  # f.w^i_2 has no w^i entry
])
def test_rasskazova_stores_its_formula_in_order(beta, lam):
    for n in range(1, 4):
        for window in range(1, 5):
            p = RasskazovaParams(beta, lam, n, window)
            assert_is_the_formula(rasskazova(p), *rasskazova_formula(p))


@st.composite
def wide_denominator_data(draw):
    """(basis, weights, action, boundary) of a random graded classical module
    as in graded_modules, with weight and entry denominators up to
    13 (a common denominator up to lcm(1..13) = 360360) and plain int entries
    mixed in."""
    hw = draw(st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=13)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    basis = [(k, i) for k, size in enumerate(sizes) for i in range(size)]
    weights = {lab: hw - 2 * lab[0] for lab in basis}
    scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=13))
    e: dict = {}
    f: dict = {}
    for lo in basis:
        for hi in basis:
            if hi[0] + 1 == lo[0]:
                c, d = draw(scalars), draw(scalars)
                if c:
                    e.setdefault(lo, {})[hi] = c
                if d:
                    f.setdefault(hi, {})[lo] = d
    boundary = draw(st.sets(st.sampled_from(basis)))
    return basis, weights, {"e": e, "f": f}, boundary


def wide_denominator_modules():
    return wide_denominator_data().map(lambda data: WeightModule(CLASSICAL, "random", *data))


@settings(max_examples=100, deadline=None)
@given(wide_denominator_modules())
def test_integer_checker_matches_the_reference_on_wide_denominators(m):
    try:
        modules = [m, corrupt_one_entry(m)]
    except ValueError:
        # no checked relation reads an e entry, so changing any one leaves the report as it is
        modules, report = [m], check_relations(m)
        for col, entries in m.action["e"].items():
            for row, c in entries.items():
                bad = check_relations(with_entry(m, "e", col, row, c + 1 or c - 1))
                assert bad.replace(module=m.name) == report
    for x in modules:
        report = check_relations(x)
        assert report == reference_check_relations(x)
        for failure in report.failures:
            for _, c in failure.defect:
                assert type(c) is Fraction and gcd(c.numerator, c.denominator) == 1

# -- one module, from Fractions or from numerators --------------------------------


@st.composite
def module_twins(draw):
    """One classical module built twice: from its values, ints and Fractions,
    and from int numerators over their least common denominator, found here;
    with that denominator.  The values are a wide_denominator_data draw or
    the value views of a Verma or Rasskazova module."""
    kind = draw(st.sampled_from(["wide", "verma", "rasskazova"]))
    if kind == "wide":
        name, (basis, weights, action, boundary) = "random", draw(wide_denominator_data())
    else:
        m = verma_classical(draw(RATIONALS), draw(st.integers(1, 12))) if kind == "verma" else rasskazova(
            draw(rasskazova_params()))
        name, basis, weights, action, boundary = m.name, m.basis, m.weights, m.action, m.boundary
    values = [*weights.values(), *(c for mat in action.values() for col in mat.values() for c in col.values())]
    den = lcm(*(Fraction(x).denominator for x in values))
    numerators = ({lab: int(wt * den) for lab, wt in weights.items()},
                  {g: {col: {row: int(c * den) for row, c in entries.items()} for col, entries in mat.items()}
                   for g, mat in action.items()})
    return (WeightModule(CLASSICAL, name, basis, weights, action, boundary),
            WeightModule(CLASSICAL, name, basis, *numerators, boundary, den=den), den)


def reference_descriptor(m):
    """A classical module's descriptor rendered from its value views, one scalar_json per value."""
    def triplets(g):
        mat = m.action[g]
        return [[row, col, scalar_json(mat[col][row])]
                for col in m.basis if col in mat for row in sorted(mat[col], key=m.position)]
    return {
        "flavor": "classical",
        "name": m.name,
        "basis": list(m.basis),
        "weights": [[lab, scalar_json(m.weights[lab])] for lab in m.basis],
        "action": {"e": triplets("e"), "f": triplets("f"),
                   "h": [[lab, lab, scalar_json(m.weights[lab])] for lab in m.basis if m.weights[lab]]},
        "boundary": [lab for lab in m.basis if lab in m.boundary],
    }


# weights 1 and -1, e.(1,0) = -2 (0,0) and f.(0,0) = -(1,0): both relations fail, and the fault,
# -2 -> -1, repairs them
REPAIRED_BY_THE_FAULT = ([(0, 0), (1, 0)], {(0, 0): 1, (1, 0): -1},
                         {"e": {(1, 0): {(0, 0): -2}}, "f": {(0, 0): {(1, 0): -1}}})


@settings(max_examples=150, deadline=None)
@given(module_twins())
@example((WeightModule(CLASSICAL, "random", *REPAIRED_BY_THE_FAULT),
          WeightModule(CLASSICAL, "random", *REPAIRED_BY_THE_FAULT, den=1), 1))
def test_a_module_from_fractions_is_the_module_from_numerators(twins):
    values, numerators, den = twins
    for m in (values, numerators):
        assert m.den == den
        assert_stored_over_least_den(m)
    assert values.num_weights == numerators.num_weights and values.num_action == numerators.num_action
    assert values.weights == numerators.weights and values.action == numerators.action
    assert check_relations(values) == check_relations(numerators)
    assert module_descriptor(values) == module_descriptor(numerators) == reference_descriptor(values)
    try:
        faulty = corrupt_one_entry(values)
    except ValueError:
        with pytest.raises(ValueError, match="no raising entries to perturb"):
            corrupt_one_entry(numerators)
        return
    # the fault adds den to one stored numerator (-den where that cancels it): +-1 on its value
    assert corrupt_one_entry(numerators).num_action == faulty.num_action
    changed = [(c, values.action["e"][col][row]) for col, entries in faulty.action["e"].items()
               for row, c in entries.items() if c != values.action["e"][col][row]]
    assert len(changed) == 1 and changed[0][0] - changed[0][1] in (1, -1)
    report, faulty_report = check_relations(values), check_relations(faulty)
    assert check_relations(corrupt_one_entry(numerators)) == faulty_report
    assert faulty_report.failures != report.failures  # a checked relation reads the changed entry
    assert not (report.ok and faulty_report.ok)  # it fails where values passes; it may repair a failing module


def test_a_fault_can_repair_a_module_that_fails():
    m = WeightModule(CLASSICAL, "random", *REPAIRED_BY_THE_FAULT)
    assert len(check_relations(m).failures) == 2 and check_relations(corrupt_one_entry(m)).ok
