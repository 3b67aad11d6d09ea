import functools
import re
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from qsl2.modrep import (
    CLASSICAL,
    QUANTUM,
    RasskazovaParams,
    Vector,
    WeightModule,
    apply,
    check_relations,
    finite_dim,
    rasskazova,
    verma_classical,
)
from qsl2.qarith import ExactDivisionError, LaurentPoly, q_int, specialize_one, v
from qsl2 import tensorcg
from qsl2.tensorcg import (
    ComparisonReport,
    Decomposition,
    DecompositionError,
    Interpretation,
    NullspaceError,
    WEIGHT_MATCHED,
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
from calls import FRACTION_SLACK, count_calls, count_fractions
from kernels import expanded, factored_kernel, kernel_fraction_free
from regen_golden import products
from test_modrep import KASSEL
from vectors import basis_vector, scaled

# -- tensor construction ------------------------------------------------------


def test_tensor_classical_unit_factor():
    a, b = finite_dim(0, CLASSICAL), finite_dim(2, CLASSICAL)
    t = tensor(a, b)
    for g in ("e", "f", "h"):
        for k in b.basis:
            got = apply(t, g, basis_vector(t, f"w_0*{k}")).entries
            assert got == {f"w_0*{r}": c for r, c in apply(b, g, basis_vector(b, k)).entries.items()}


def test_tensor_classical_coproduct():
    t = tensor(finite_dim(1, CLASSICAL), finite_dim(1, CLASSICAL))
    got = apply(t, "e", basis_vector(t, "w_1*w_1"))
    assert got.entries == {"w_0*w_1": 1, "w_1*w_0": 1}


def test_tensor_dimensions():
    t = tensor(finite_dim(2, CLASSICAL), finite_dim(3, CLASSICAL))
    assert t.dim == 12


def test_tensor_flavor_mismatch():
    with pytest.raises(ValueError):
        tensor(finite_dim(1, CLASSICAL), finite_dim(1, QUANTUM))
    with pytest.raises(ValueError):
        tensor(finite_dim(1, QUANTUM), finite_dim(1, CLASSICAL))


def test_tensor_quantum_grouplike_K():
    t = tensor(finite_dim(2, QUANTUM), finite_dim(3, QUANTUM))
    got = apply(t, "K", basis_vector(t, "w_0*w_0"))
    assert got.entries == {"w_0*w_0": v**5}


def test_tensor_quantum_E_coproduct():
    t = tensor(finite_dim(1, QUANTUM), finite_dim(1, QUANTUM))
    got = apply(t, "E", basis_vector(t, "w_1*w_1"))
    assert got.entries == {"w_0*w_1": v**-1, "w_1*w_0": LaurentPoly(1)}


def test_tensor_follows_the_flavor_coproduct():
    # D(E) = E (x) 1 + K (x) E, D(F) = F (x) Kinv + 1 (x) F is a coproduct too
    kassel = QUANTUM.replace(coproduct={"E": (None, "K"), "F": ("Kinv", None)})
    for m in range(3):
        for n in range(3):
            assert check_relations(tensor(finite_dim(m, kassel), finite_dim(n, kassel))).ok, (m, n)
    t = tensor(finite_dim(1, kassel), finite_dim(1, kassel))
    got = apply(t, "E", basis_vector(t, "w_1*w_1"))
    assert got.entries == {"w_0*w_1": LaurentPoly(1), "w_1*w_0": v**-1}


def test_tensor_quantum_relations():
    assert check_relations(
        tensor(finite_dim(1, QUANTUM), finite_dim(1, QUANTUM))
    ).ok
    for m in range(4):
        for n in range(4):
            t = tensor(finite_dim(m, QUANTUM), finite_dim(n, QUANTUM))
            assert check_relations(t).ok, (m, n)


def test_tensor_classical_relations():
    for m in range(4):
        for n in range(4):
            t = tensor(finite_dim(m, CLASSICAL), finite_dim(n, CLASSICAL))
            assert check_relations(t).ok, (m, n)


@pytest.mark.parametrize(
    "a, b",
    [(finite_dim(2, CLASSICAL), finite_dim(3, CLASSICAL)), (finite_dim(2, QUANTUM), finite_dim(3, QUANTUM)),
     (verma_classical(Fraction(5, 2), 3), finite_dim(1, CLASSICAL))],
    ids=["classical", "quantum", "verma"],
)
def test_tensor_makes_one_label_per_basis_vector(a, b):
    t = tensor(a, b)
    assert t.basis == tuple(f"{la}*{lb}" for la in a.basis for lb in b.basis)


def test_tensor_refuses_product_names_that_coincide():
    # x (x) y*z and x*y (x) z would both be named x*y*z
    a = WeightModule(CLASSICAL, "a", ["x", "x*y"], {"x": 0, "x*y": 0}, {"e": {}, "f": {}})
    b = WeightModule(CLASSICAL, "b", ["y*z", "z"], {"y*z": 0, "z": 0}, {"e": {}, "f": {}})
    with pytest.raises(ValueError, match="pairwise distinct"):
        tensor(a, b)


@pytest.mark.parametrize("flavor", [QUANTUM, KASSEL], ids=["quantum", "kassel"])
def test_a_quantum_hwv_cut_stores_and_multiplies_for_the_raising_operator_alone(monkeypatch, flavor):
    # the 127 quantum hwv-sweep cuts, 1 <= m, n <= 6, on the weights m+n-2p and m+n-2p+2: each stores
    # and multiplies for E's columns alone, and no twist of 1 multiplies (E's twist K sits on the right
    # factor under QUANTUM, on the left under KASSEL); the positive control takes the same counts on the
    # whole tensor, which holds F's columns too, cut down to those weights by hand
    factors = [finite_dim(n, flavor) for n in range(7)]
    cuts = [(factors[m], factors[n], {m + n - 2 * p, m + n - 2 * p + 2})
            for m in range(1, 7) for n in range(1, 7) for p in range(min(m, n) + 1)]

    def stored(t, spaces):
        keep = {lab for lab in t.basis if t.weights[lab] in spaces}
        return sum(col in keep and row in keep for mat in t.num_action.values()
                   for col, entries in mat.items() for row in entries)

    calls = count_calls(monkeypatch, "__mul__", module=LaurentPoly)
    entries = sum(stored(tensor(a, b, spaces), spaces) for a, b, spaces in cuts)
    assert len(cuts) == 127 and (entries, calls["__mul__"]) == (392, 178)
    calls.clear()
    entries = sum(stored(tensor(a, b), spaces) for a, b, spaces in cuts)
    assert (entries, calls["__mul__"]) == (784, 4432)


@pytest.mark.parametrize("flavor", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
def test_a_cut_reads_its_spaces_once_and_as_a_set(flavor):
    # an iterator is used up after one pass and a list may repeat a weight: each builds the cut of the set
    a, b, spaces = finite_dim(2, flavor), finite_dim(3, flavor), {1, 3, 5}
    want = tensor(a, b, spaces)
    for given in (iter(sorted(spaces)), [5, 1, 5, 3, 1]):
        got = tensor(a, b, given)
        assert (got.basis, got.weights, got.num_action, got.boundary) == (
            want.basis, want.weights, want.num_action, want.boundary)
        assert highest_weight_vectors(got) == highest_weight_vectors(want)
    assert len(want.basis) == 6 and [w for w, _ in highest_weight_vectors(want)] == [5, 3, 1]  # F_5 + F_3 + F_1


# -- weight spaces -------------------------------------------------------------


def test_weight_spaces_f1f1():
    t = tensor(finite_dim(1, CLASSICAL), finite_dim(1, CLASSICAL))
    spaces = weight_spaces(t)
    assert {k: len(v) for k, v in spaces.items()} == {2: 1, 0: 2, -2: 1}
    assert spaces[0] == ["w_0*w_1", "w_1*w_0"]


def test_weight_spaces_multiplicity_free():
    m = finite_dim(5, CLASSICAL)
    assert all(len(labs) == 1 for labs in weight_spaces(m).values())


def test_weight_spaces_f2f2():
    t = tensor(finite_dim(2, CLASSICAL), finite_dim(2, CLASSICAL))
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
    kernel = _kernel_fraction_free([[int(a) for a in row] for row in rows], ncols)
    for x in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, x)) == 0


def rref_kernel(rows, ncols):
    """Reduced-row-echelon kernel basis over Fraction, written independently."""
    m = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -m[i][f]
        basis.append(x)
    return basis, len(pivots)


@given(
    st.integers(1, 6).flatmap(
        lambda ncols: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=5),
            st.just(ncols),
        )
    )
)
@settings(max_examples=200)
def test_kernel_is_the_normalized_rref_kernel_basis(matrix_and_ncols):
    # the contract of highest_weight_vectors, on any small integer matrix
    rows, ncols = matrix_and_ncols
    kernel = _kernel_fraction_free(rows, ncols)
    expected, rank = rref_kernel(rows, ncols)
    assert len(kernel) == len(expected) == ncols - rank
    normalize = tensorcg._normalize_rational
    assert [normalize(x) for x in kernel] == [normalize(x) for x in expected]


def raising_rows(m, weight):
    """The matrix of the raising operator from one weight space to the next."""
    spaces = weight_spaces(m)
    source, target = spaces[weight], spaces.get(weight + 2, [])
    rows = [[m.flavor.ring()] * len(source) for _ in target]
    for j, lab in enumerate(source):
        for row_lab, c in m.action[m.flavor.raising].get(lab, {}).items():
            rows[target.index(row_lab)][j] = c
    return rows, len(source)


def with_int_entries(m):
    """m with its integral entries (every classical F_n entry, the quantum
    [1]s) stored as plain ints."""

    def as_int(c):
        return c.numerator if isinstance(c, Fraction) else 1 if c == 1 else c

    action = {
        g: {col: {row: as_int(c) for row, c in entries.items()} for col, entries in mat.items()}
        for g, mat in m.action.items()
    }
    return WeightModule(m.flavor, m.name, m.basis, m.weights, action)


@pytest.mark.parametrize("flavor, n", [(CLASSICAL, 2), (QUANTUM, 1)], ids=["classical-2", "quantum-1"])
def test_hwv_of_a_module_with_int_entries_stays_in_the_ring(flavor, n):
    built = finite_dim(n, flavor)
    ints = with_int_entries(built)
    assert any(type(c) is int for mat in ints.action.values() for col in mat.values() for c in col.values())
    found = highest_weight_vectors(tensor(ints, ints))
    assert found == highest_weight_vectors(tensor(built, built))
    ring = built.flavor.ring  # 1.0 == Fraction(1), so equality alone would pass a float
    assert all(type(c) is ring for _, x in found for c in x.entries.values())


def test_classical_hwv_coordinates_are_fractions():
    # the output contract: int entries of classical F_n never reach a coordinate
    for a in range(5):
        for b in range(5):
            found = highest_weight_vectors(tensor(finite_dim(a, CLASSICAL), finite_dim(b, CLASSICAL)))
            assert found and all(type(c) is Fraction for _, x in found for c in x.entries.values())


@pytest.mark.parametrize("ring", [Fraction, LaurentPoly], ids=["fraction", "laurent"])
def test_kernel_of_int_rows_has_ring_entries(ring):
    # the elimination returns ints; _kernel lifts them into the ring as it normalises
    for rows in ([[2, 2]], [[1], [1]], [[2, 2, 0], [1, 1, 3]], [[1, 2, 3], [4, 5, 6]]):
        assert all(type(c) is int for x in _kernel_fraction_free(rows, len(rows[0])) for c in x)
        kernel = tensorcg._kernel(rows, len(rows[0]), ring)
        assert all(type(c) is ring for x in kernel for c in x)
        for x in kernel:
            for row in rows:
                assert not sum((a * b for a, b in zip(row, x)), ring())


def test_kernel_known_case():
    # [[1, 1]] has kernel spanned by (-1, 1)
    (x,) = _kernel_fraction_free([[1, 1]], 2)
    assert x[0] * 1 + x[1] * 1 == 0 and any(x)


def test_kernel_laurent_entries():
    rows = [[v - v**-1, v**2 - v**-2, LaurentPoly()], [LaurentPoly(), v, v**3]]
    kernel = tensorcg._packed_kernel(rows, 3)
    assert kernel
    for x in kernel:
        for row in rows:
            acc = LaurentPoly()
            for a, b in zip(row, x):
                acc = acc + a * b
            assert not acc


# -- highest-weight vectors -------------------------------------------------------


def test_hwv_classical_f1f1():
    t = tensor(finite_dim(1, CLASSICAL), finite_dim(1, CLASSICAL))
    found = dict(highest_weight_vectors(t))
    assert set(found) == {2, 0}
    assert found[0].entries == {"w_0*w_1": 1, "w_1*w_0": -1}
    assert found[2].entries == {"w_0*w_0": 1}


def test_hwv_top_is_pair_of_tops():
    for flavor in (CLASSICAL, QUANTUM):
        t = tensor(finite_dim(2, flavor), finite_dim(3, flavor))
        top = [vec for wt, vec in highest_weight_vectors(t) if wt == 5]
        assert len(top) == 1
        assert top[0].entries == {"w_0*w_0": t.flavor.ring(1)}


def test_hwv_quantum_f1f1_canonical_form():
    t = tensor(finite_dim(1, QUANTUM), finite_dim(1, QUANTUM))
    found = dict(highest_weight_vectors(t))
    # kernel of E on the weight-0 space, normalized to coprime integer
    # coefficients with positive leading coefficient first
    assert found[0].entries == {"w_0*w_1": v, "w_1*w_0": LaurentPoly(-1)}


def test_hwv_annihilated_and_eigen():
    for flavor, raising, diag in (
        (CLASSICAL, "e", "h"),
        (QUANTUM, "E", "K"),
    ):
        t = tensor(finite_dim(2, flavor), finite_dim(3, flavor))
        for wt, vec in highest_weight_vectors(t):
            assert apply(t, raising, vec).is_zero()
            if diag == "h":
                assert apply(t, diag, vec) == scaled(vec, Fraction(wt))
            else:
                assert apply(t, diag, vec) == scaled(vec, LaurentPoly({wt: 1}))


def test_quantum_hwv_coefficients_are_ints():
    t = tensor(finite_dim(4, QUANTUM), finite_dim(3, QUANTUM))
    coeffs = [c for _, vec in highest_weight_vectors(t) for c in vec.entries.values()]
    assert len(coeffs) == 1 + 2 + 3 + 4  # one vector per summand F_7, F_5, F_3, F_1
    assert all(type(x) is int for c in coeffs for _, x in c.terms())


def test_hwv_descending_weight_order():
    t = tensor(finite_dim(3, CLASSICAL), finite_dim(3, CLASSICAL))
    weights = [wt for wt, _ in highest_weight_vectors(t)]
    assert weights == sorted(weights, reverse=True) == [6, 4, 2, 0]


def test_hwv_trivial_tensor():
    t = tensor(finite_dim(0, QUANTUM), finite_dim(0, QUANTUM))
    assert cg_decompose(0, 0).summands == {0: 1}
    [(wt, vec)] = highest_weight_vectors(t)
    assert wt == 0 and vec.entries == {"w_0*w_0": LaurentPoly(1)}


def test_hwv_on_truncated_verma_finds_submodule_generator():
    # inside M_2 the vector w_3 = f^3 w_0 generates the maximal submodule
    m = verma_classical(2, 5)
    found = dict(highest_weight_vectors(m))
    assert set(found) == {2, -4}
    assert found[2].entries == {"w_0": 1}
    assert found[-4].entries == {"w_3": 1}


def test_hwv_of_one_weight_is_the_full_result_filtered():
    modules = [
        tensor(finite_dim(m, flavor), finite_dim(n, flavor))
        for flavor in (CLASSICAL, QUANTUM)
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
    t = tensor(finite_dim(2, QUANTUM), finite_dim(3, QUANTUM))
    for wt in (7, 4, Fraction(1, 2)):
        assert highest_weight_vectors(t, wt) == []
    assert highest_weight_vectors(verma_classical(2, 5), 3) == []


def test_highest_weight_vector_needs_a_one_dimensional_kernel():
    t = tensor(finite_dim(2, CLASSICAL), finite_dim(3, CLASSICAL))
    assert highest_weight_vector(t, 3) == highest_weight_vectors(t, 3)[0][1]
    with pytest.raises(NullspaceError, match="weight 4 is 0-dimensional"):
        highest_weight_vector(t, 4)
    multi = tensor(rasskazova(RasskazovaParams(0, 0, 1, 2)), rasskazova(RasskazovaParams(1, 2, 2, 2)))
    wt = next(w for w in weight_spaces(multi) if len(highest_weight_vectors(multi, w)) > 1)
    with pytest.raises(NullspaceError, match="expected 1"):
        highest_weight_vector(multi, wt)


def test_nullspace_certificate_failure_raises(monkeypatch):
    monkeypatch.setattr(tensorcg, "_kernel", lambda rows, ncols, ring: [[ring(1)] * ncols])
    t = tensor(finite_dim(1, CLASSICAL), finite_dim(1, CLASSICAL))
    with pytest.raises(NullspaceError, match="certificate failed at weight 0"):
        highest_weight_vectors(t, 0)
    with pytest.raises(NullspaceError):
        phi_vs_oracle(1, 1, 1)


def double_head(x):
    return [2 * x[0], *x[1:]]


def double_factored_head(x):
    """double_head on _factored_kernel's coordinates (sign, power of v, counts): the sign doubled."""
    return [(2 * x[0][0], *x[0][1:]), *x[1:]]


@pytest.mark.parametrize(
    "flavor, solver, doubled",
    [
        (CLASSICAL, "_kernel", lambda kernel: [double_head(x) for x in kernel]),
        (QUANTUM, "_factored_kernel", double_factored_head),
    ],
    ids=["classical", "quantum"],
)
def test_hwv_certifies_the_vector_it_returns(flavor, solver, doubled, monkeypatch):
    # a solver whose vector leaves the kernel: only a certificate of the returned vector sees it
    fn = getattr(tensorcg, solver)
    monkeypatch.setattr(tensorcg, solver, lambda *args: doubled(fn(*args)))
    with pytest.raises(NullspaceError, match="nullspace certificate failed at weight 0"):
        highest_weight_vectors(tensor(finite_dim(1, flavor), finite_dim(1, flavor)), 0)


@pytest.mark.parametrize("m, n, p", [(1, 1, 1), (3, 2, 2), (5, 4, 3), (14, 14, 7)])
def test_the_rational_certificate_sees_a_non_integral_nudge(monkeypatch, m, n, p):
    # over Q the returned vector x is certified as D x, D the lcm of its denominators; a coordinate
    # c nudged to c / 3 keeps every numerator, so only a certificate that reads the denominators fails it
    solve, w = tensorcg._kernel, m + n - 2 * p
    t = tensor(finite_dim(m, CLASSICAL), finite_dim(n, CLASSICAL), {w, w + 2})
    ((_, x),) = highest_weight_vectors(t, w)
    assert any(c.denominator > 1 for c in x.entries.values()) or p < 2
    for k in range(p + 1):
        monkeypatch.setattr(tensorcg, "_kernel", lambda *args: [[c / 3 if j == k else c for j, c in enumerate(y)]
                                                                for y in solve(*args)])
        with pytest.raises(NullspaceError, match=f"nullspace certificate failed at weight {w} of "):
            highest_weight_vectors(t, w)


# -- certified kernels: recurrence, rank mod p, completeness -------------------------


def rasskazova_tensor():
    """A tensor whose spaces of weight 9, 7, 5, 3, 1 have 2-dimensional kernels."""
    return tensor(rasskazova(RasskazovaParams(0, 0, 1, 2)), rasskazova(RasskazovaParams(1, 2, 2, 2)))


@pytest.mark.parametrize(
    "mutation, count",
    [(lambda kernel: kernel[:-1], 1), (lambda kernel: [kernel[0]] * len(kernel), 2)],
    ids=["drops-a-vector", "repeats-a-vector"],
)
def test_an_incomplete_kernel_raises(monkeypatch, mutation, count):
    multi = rasskazova_tensor()
    wide = [w for w in weight_spaces(multi) if len(highest_weight_vectors(multi, w)) > 1]
    assert sorted(wide) == [1, 3, 5, 7, 9]
    monkeypatch.setattr(tensorcg, "_kernel_fraction_free", lambda *args: mutation(_kernel_fraction_free(*args)))
    for w in wide:
        # the one-sided check, apply on every returned vector, accepts the mutation
        rows, ncols = raising_rows(multi, w)
        mutated = tensorcg._kernel_fraction_free([[int(c * multi.den) for c in row] for row in rows], ncols)
        vectors = [Vector(multi, dict(zip(weight_spaces(multi)[w], x))) for x in mutated]
        assert len(vectors) == count and all(apply(multi, multi.flavor.raising, x).is_zero() for x in vectors)
        # the nullity mod p, and the rank of the vectors mod p, do not
        with pytest.raises(NullspaceError, match=f"not proven complete: {count} vectors, nullity 2"):
            highest_weight_vectors(multi, w)


def normalized_elimination(rows, ncols, ring):
    """The reference elimination's kernel over ring (tests/kernels.py), in the ring's normal form."""
    normalize = tensorcg._normalize_laurent if ring is LaurentPoly else tensorcg._normalize_rational
    return [normalize(x) for x in kernel_fraction_free(rows, ncols, ring)]


@pytest.mark.parametrize("ring", [Fraction, LaurentPoly], ids=["fraction", "laurent"])
def test_a_zero_superdiagonal_entry_takes_the_elimination(ring, monkeypatch):
    calls = count_calls(monkeypatch, "_factored_kernel", "_kernel_fraction_free", "_rank_mod")
    zero_s = ([[4, 0]], [[1, 0, 0], [0, 2, 3]], [[1, 2, 0], [0, 3, 0]], [[0, 0, 0], [0, 1, 1]])
    for rows in zero_s:
        rows = [[ring(c) if ring is LaurentPoly else c for c in row] for row in rows]  # over Q, ints
        ncols = len(rows) + 1
        assert tensorcg._kernel(rows, ncols, ring) == normalized_elimination(rows, ncols, ring)
    # each proven complete at the first specialisation: the rank of rows, then of the kernel
    assert calls == Counter({"_kernel_fraction_free": len(zero_s), "_rank_mod": 2 * len(zero_s)})
    # a zero d_r keeps the shape: the rational recurrence solves it, and over LaurentPoly
    # (2 and 3 are no +-v^e [a]) the certified path, proven complete at the first specialisation
    calls.clear()
    rows = [[ring(0), ring(2), ring(0)], [ring(0), ring(0), ring(3)]]
    (x,) = tensorcg._kernel(rows, 3, ring)
    assert x == [ring(1), ring(0), ring(0)] and all(type(c) is ring for c in x)
    fallback = {"_factored_kernel": 1, "_kernel_fraction_free": 1, "_rank_mod": 2} if ring is LaurentPoly else {}
    assert calls == Counter(fallback)


@pytest.mark.parametrize("ring", [Fraction, LaurentPoly], ids=["fraction", "laurent"])
def test_an_empty_target_keeps_every_basis_vector(ring):
    for ncols in (1, 2, 3):
        kernel = expanded(tensorcg._kernel([], ncols, ring))
        assert kernel == [[ring(1) if i == j else ring() for i in range(ncols)] for j in range(ncols)]
        assert all(type(c) is ring for x in kernel for c in x)
    multi = rasskazova_tensor()  # weight 9 is its top: no target, two basis vectors
    assert [x.entries for _, x in highest_weight_vectors(multi, 9)] == [
        {lab: 1} for lab in weight_spaces(multi)[9]
    ]


def test_a_root_of_the_first_specialization_is_decided_by_the_second(monkeypatch):
    (v0, first), (_, second) = tensorcg._SPECIALIZATIONS
    root = v - v0  # zero at the first pair
    cases = [
        ([[root]], 1, LaurentPoly),  # nullity 0, but 1 at the first pair
        ([[root, 0, root], [0, 1, 0]], 3, LaurentPoly),  # nullity 1, but 2 at the first pair
        ([[Fraction(1, first), 0], [0, 1]], 2, Fraction),  # no image at the first pair
    ]
    primes = []
    rank_mod = tensorcg._rank_mod
    monkeypatch.setattr(tensorcg, "_rank_mod", lambda rows, v0, p: primes.append(p) or rank_mod(rows, v0, p))
    for rows, ncols, ring in cases:
        primes.clear()
        assert tensorcg._kernel(rows, ncols, ring) == normalized_elimination(rows, ncols, ring)
        assert primes[0] == first and primes[-1] == second
    hw = Fraction(1, first)  # every e entry of this Verma module has no image at the first pair
    assert [(w, x.entries) for w, x in highest_weight_vectors(verma_classical(hw, 4))] == [(hw, {"w_0": 1})]
    monkeypatch.setattr(tensorcg, "_SPECIALIZATIONS", ((v0, first), (v0, second)))
    for rows, ncols, ring in cases[:2]:
        with pytest.raises(NullspaceError, match="not proven complete"):
            tensorcg._kernel(rows, ncols, ring)


@st.composite
def raising_matrices(draw):
    """(rows, ncols, ring): a sparse raising matrix from one weight space
    to the next, over the integers or in Q[v, v^-1]; half of them are
    bidiagonal, with every superdiagonal entry nonzero or one of them zero."""
    ring = draw(st.sampled_from([Fraction, LaurentPoly]))
    ncols = draw(st.integers(1, 6))

    zero = LaurentPoly() if ring is LaurentPoly else 0  # over Q an int, as a module's numerators are

    def entry(nonzero=False):
        if not nonzero and not draw(st.integers(0, 2)):  # a third of the cells are zero
            return zero
        coeff = st.integers(-4, 4).filter(bool)
        if ring is Fraction:
            return draw(coeff)
        return LaurentPoly(draw(st.dictionaries(st.integers(-3, 3), coeff, min_size=1, max_size=2)))

    if draw(st.booleans()):
        rows = [[zero] * ncols for _ in range(ncols - 1)]
        zero_at = draw(st.sampled_from([None, *range(ncols - 1)]))
        for r, row in enumerate(rows):
            row[r], row[r + 1] = entry(), zero if r == zero_at else entry(nonzero=True)
    else:
        rows = [[entry() for _ in range(ncols)] for _ in range(draw(st.integers(0, 6)))]
    return rows, ncols, ring


@given(raising_matrices())
@settings(max_examples=200, deadline=None)
def test_certified_kernel_is_the_normalized_elimination_kernel(matrix):
    rows, ncols, ring = matrix
    kernel = expanded(tensorcg._kernel(rows, ncols, ring))
    assert kernel == normalized_elimination(rows, ncols, ring)
    # equality alone would accept an int coordinate, as 1 == Fraction(1)
    assert all(type(c) is ring for x in kernel for c in x)
    # both sides of the certificate: every vector annihilated, none missing
    for x in kernel:
        assert all(not sum((a * b for a, b in zip(row, x)), ring()) for row in rows)
    if ring is Fraction:
        assert len(kernel) == ncols - rref_kernel(rows, ncols)[1]
    # a specialisation can only raise the nullity: no pair admits a kernel one vector short
    assert all(len(kernel) <= ncols - tensorcg._rank_mod(rows, v0, p) for v0, p in tensorcg._SPECIALIZATIONS)


@st.composite
def q_int_bidiagonals(draw):
    """(rows, shaped): a p x (p+1) bidiagonal matrix over Q[v, v^-1] whose
    nonzero entries are +-v^e [a], a quarter of the d_r zero.  In about half
    of them one entry is a near miss instead: 2 [a], [a] with one more term
    past a gap, or [a] with one more term of the other sign; shaped is
    whether none is."""
    p = draw(st.integers(0, 6))
    rows = [[LaurentPoly()] * (p + 1) for _ in range(p)]
    for r in range(p):
        for c in (r, r + 1):
            if c == r + 1 or draw(st.integers(0, 3)):
                sign, e, a = draw(st.sampled_from([1, -1])), draw(st.integers(-4, 4)), draw(st.integers(1, 6))
                rows[r][c] = sign * v**e * q_int(a)
    cells = [(r, c) for r in range(p) for c in (r, r + 1) if rows[r][c]]
    if not cells or draw(st.booleans()):
        return rows, True
    r, c = draw(st.sampled_from(cells))
    x = rows[r][c]
    sign, top = x.leading_coeff, x.max_exp
    rows[r][c] = draw(st.sampled_from([2 * x, x + sign * v ** (top + 4), x - sign * v ** (top + 2)]))
    return rows, False


@given(q_int_bidiagonals())
@settings(max_examples=200, deadline=None)
def test_factored_kernel_is_the_normalized_recurrence_or_falls_back(matrix):
    rows, shaped = matrix
    ncols = len(rows) + 1
    factored = tensorcg._factored_kernel(rows)
    assert (factored is not None) == shaped
    # the shape proves rank p: the elimination kernel is one vector, normalised by gcds
    (reference,) = normalized_elimination(rows, ncols, LaurentPoly)
    if shaped:
        assert expanded([factored]) == [reference]
    # either way the certified kernel is that vector; a near miss takes the certified path: every
    # s_r is nonzero at v = 3 mod the first prime, so one rank of rows, Bareiss once, one rank of its vector
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, "_factored_kernel", "_kernel_fraction_free", "_rank_mod")
        assert expanded(tensorcg._kernel(rows, ncols, LaurentPoly)) == [reference]
    near_miss = {"_kernel_fraction_free": 1, "_rank_mod": 2}
    assert calls == Counter({"_factored_kernel": 1} if shaped else {"_factored_kernel": 1, **near_miss})


@given(q_int_bidiagonals())
@settings(max_examples=200, deadline=None)
def test_factored_kernel_is_the_reference_one(matrix):
    # the one walk against one Counter per coordinate (tests/kernels.py), near misses included
    rows, _ = matrix
    factored = tensorcg._factored_kernel(rows)
    assert (factored and expanded([factored])[0]) == factored_kernel(rows)


@st.composite
def int_matrices(draw):
    """(rows, ncols): a small integer matrix; in half of them the last rows
    are integer combinations of the ones before, so the rank falls short."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols), max_size=5))
    if rows and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            mix = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(a * row[j] for a, row in zip(mix, rows)) for j in range(ncols)])
    return rows, ncols


@given(int_matrices(), st.sampled_from([int, Fraction]))
@settings(max_examples=200, deadline=None)
def test_elimination_on_ints_is_the_elimination_on_fractions(matrix, kind):
    # integer entries, as ints or as Fractions, take the same minors as the reference
    rows, ncols = matrix
    expected = kernel_fraction_free([[kind(c) for c in row] for row in rows], ncols, Fraction)
    kernel = _kernel_fraction_free(rows, ncols)
    assert kernel == expected and all(type(c) is int for x in kernel for c in x)
    assert len(kernel) == ncols - rref_kernel(rows, ncols)[1]


@given(st.integers(1, 6).flatmap(lambda ncols: st.tuples(st.lists(st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=ncols, max_size=ncols), max_size=5),
    st.just(ncols))))
@settings(max_examples=200, deadline=None)
def test_elimination_on_rationals_is_the_reference_up_to_scale(matrix):
    rows, ncols = matrix
    normalize = tensorcg._normalize_rational
    expected = [normalize(x) for x in kernel_fraction_free(rows, ncols, Fraction)]
    # each row times its denominators' lcm: int numerators with the same kernel
    numerators = [[c.numerator * (d // c.denominator) for c in row] for row in rows
                  for d in [lcm(*[c.denominator for c in row])]]
    assert [normalize(x) for x in _kernel_fraction_free(numerators, ncols)] == expected


@given(raising_matrices())
@settings(max_examples=100, deadline=None)
def test_elimination_on_raising_matrices_is_the_reference(matrix):
    rows, ncols, ring = matrix
    if ring is Fraction:  # the same minors
        assert _kernel_fraction_free(rows, ncols) == kernel_fraction_free(rows, ncols, ring)
    else:  # packed rows are the rows times units: the same kernel, so the same normal form
        packed = [tensorcg._normalize_laurent(x) for x in tensorcg._packed_kernel(rows, ncols)]
        assert packed == normalized_elimination(rows, ncols, ring)


@st.composite
def laurent_matrices(draw):
    """(rows, ncols): a small matrix over Q[v, v^-1], its exponents from -20 to 20 and its
    coefficients small ints or Fractions, or its exponents from -2 to 2 and its coefficients
    also past 2^40, of either sign (the normal form's gcd over Q would swell on both at once);
    a third of the cells zero; in half of them a row that is a Laurent combination of the rows
    before, so the rank falls short, and in half of them a zero row."""
    ncols, wide = draw(st.integers(1, 3)), draw(st.booleans())
    small = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=9))
    big = st.one_of(st.integers(2**40, 2**64), st.integers(-2**64, -2**40))
    coeff = (small if wide else st.one_of(small, big)).filter(bool)
    exponent = st.integers(-20, 20) if wide else st.integers(-2, 2)

    def entry():
        if not draw(st.integers(0, 2)):
            return LaurentPoly()
        return LaurentPoly(draw(st.dictionaries(exponent, coeff, min_size=1, max_size=2)))

    rows = [[entry() for _ in range(ncols)] for _ in range(draw(st.integers(0, 2)))]
    if rows and draw(st.booleans()):
        mix = [entry() for _ in rows]
        rows.append([sum((a * row[j] for a, row in zip(mix, rows)), LaurentPoly()) for j in range(ncols)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [LaurentPoly()] * ncols)
    return rows, ncols


@given(laurent_matrices())
@settings(max_examples=150, deadline=None)
def test_packed_kernel_is_the_normalized_laurent_reference(matrix):
    # the rows packed into ints at v = 2^b against the elimination on Laurent polynomials
    # (tests/kernels.py), through _kernel and its certificate and straight from _packed_kernel
    rows, ncols = matrix
    expected = normalized_elimination(rows, ncols, LaurentPoly)
    assert expanded(tensorcg._kernel(rows, ncols, LaurentPoly)) == expected
    assert [tensorcg._normalize_laurent(x) for x in tensorcg._packed_kernel(rows, ncols)] == expected


def test_the_packing_base_has_room_for_every_coefficient_of_a_minor():
    # [1, -2] has L1 norm 3, so b = 3 and v = 8: the kernel coordinate 2 is the digit 2, which
    # at b = 2 would read back as v - 2, a vector that passes the rank mod p but is no kernel
    rows = [[LaurentPoly(1), LaurentPoly(-2)]]
    assert tensorcg._packed_kernel(rows, 2) == [[LaurentPoly(2), LaurentPoly(1)]]
    assert tensorcg._kernel(rows, 2, LaurentPoly) == [[LaurentPoly(2), LaurentPoly(1)]]
    assert tensorcg._unpack(2, 2) == v - 2


@given(st.lists(st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(
    lambda hw: hw.denominator > 1), st.integers(1, 4)), min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_hwv_of_a_tensor_over_a_common_denominator_is_the_reference_kernel(vermas):
    # den > 1: hwv solves on the numerators, the reference on the Fraction values
    module = tensor(*(verma_classical(hw, depth) for hw, depth in vermas))
    assert module.den > 1
    found = highest_weight_vectors(module)
    normalize = tensorcg._normalize_rational
    for w, source in weight_spaces(module).items():
        rows, ncols = raising_rows(module, w)
        expected = [normalize(x) for x in kernel_fraction_free(rows, ncols, Fraction)]
        assert [[x.entries.get(lab, 0) for lab in source] for u, x in found if u == w] == expected
        numerators = [[int(c * module.den) for c in row] for row in rows]
        assert [normalize(x) for x in _kernel_fraction_free(numerators, ncols)] == expected


def test_a_classical_triple_product_eliminates_on_ints(monkeypatch):
    # the elimination over Q runs on ints: Fractions are built only to lift, normalise and certify
    # a returned coordinate (512,723 when it ran on Fractions)
    f6 = finite_dim(6, CLASSICAL)
    module = tensor(tensor(f6, f6), f6)
    built = count_fractions(monkeypatch)
    found = highest_weight_vectors(module)
    assert len(found) == 37 and 0 < built["Fraction"] <= 3072 * FRACTION_SLACK


@pytest.mark.parametrize("flavor", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
def test_hwv_of_f_m_f_n_uses_the_recurrence_and_the_rank_mod_p_only(flavor, monkeypatch):
    solvers = ("_factored_kernel", "_kernel_fraction_free", "_normalize_rational", "_normalize_laurent")
    calls = count_calls(monkeypatch, "_rank_mod", *solvers)
    for m in range(7):
        for n in range(7):
            calls.clear()
            found = highest_weight_vectors(tensor(finite_dim(m, flavor), finite_dim(n, flavor)))
            assert len(found) == min(m, n) + 1
            # m + n + 1 weight spaces: min(m, n) + 1 bidiagonal, each other one of nullity 0;
            # a classical bidiagonal space is solved in _kernel itself, a quantum one in factored form
            solved = {"_factored_kernel": min(m, n) + 1} if flavor is QUANTUM else {}
            assert calls == Counter({**solved, "_rank_mod": max(m, n)}), (m, n)


@pytest.mark.parametrize("flavor", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
def test_hwv_reads_the_stored_map_and_certifies_with_apply(flavor, monkeypatch):
    t = tensor(finite_dim(2, flavor), finite_dim(3, flavor))
    applied = []
    monkeypatch.setattr(tensorcg, "apply", lambda m, g, x: applied.append(g) or apply(m, g, x))
    found = highest_weight_vectors(t)
    # one certificate per vector
    assert applied == [t.flavor.raising] * len(found) == [t.flavor.raising] * 3


def test_hwv_specializes_to_classical():
    for m in range(4):
        for n in range(4):
            tq = tensor(finite_dim(m, QUANTUM), finite_dim(n, QUANTUM))
            tc = tensor(finite_dim(m, CLASSICAL), finite_dim(n, CLASSICAL))
            quantum = {wt: vec for wt, vec in highest_weight_vectors(tq)}
            classical = {wt: vec for wt, vec in highest_weight_vectors(tc)}
            assert set(quantum) == set(classical)
            for wt, qvec in quantum.items():
                spec = {lab: specialize_one(c) for lab, c in qvec.entries.items()}
                lead = next(
                    spec[lab] for lab in tc.basis if spec.get(lab)
                )
                renorm = {lab: c / lead for lab, c in spec.items() if c}
                assert renorm == classical[wt].entries, (m, n, wt)


def test_hwv_spans_the_sympy_nullspace():
    # differential: an independent exact solver, compared as RREF bases of the span; sympy is in
    # the test extra, so without it this comparison fails rather than skips
    import sympy

    def matrix(rows, ncols):
        return sympy.Matrix(len(rows), ncols, [sympy.Rational(c.numerator, c.denominator) for r in rows for c in r])

    def rref_basis(vectors, ncols):
        return matrix(vectors, ncols).rref()[0] if vectors else None

    for a in range(5):
        for b in range(5):
            module = tensor(finite_dim(a, CLASSICAL), finite_dim(b, CLASSICAL))
            for weight, source in weight_spaces(module).items():
                rows, ncols = raising_rows(module, weight)
                theirs = []
                for x in matrix(rows, ncols).nullspace():
                    lead = next(c for c in x if c)
                    theirs.append([c / lead for c in x])
                ours = [[x.entries.get(lab, Fraction(0)) for lab in source] for _, x in highest_weight_vectors(module, weight)]
                assert len(ours) == len(theirs), (a, b, weight)
                assert rref_basis(ours, ncols) == rref_basis(theirs, ncols), (a, b, weight)


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
    t = tensor(finite_dim(1, CLASSICAL), finite_dim(1, CLASSICAL))
    assert decompose_by_character(t) == cg_decompose(1, 1)


def test_decompose_by_character_single():
    assert decompose_by_character(finite_dim(4, CLASSICAL)).summands == {4: 1}


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


def peeled(weights):
    """Summands by greedy peeling, the reference: remove the character of
    F_top, top the largest weight left, until none is left; None if one fails."""
    counts, summands = Counter(weights), {}
    while +counts:
        top = max(+counts)
        if top < 0 or any(counts[u] < 1 for u in range(top, -top - 1, -2)):
            return None
        counts.subtract(range(top, -top - 1, -2))
        summands[top] = summands.get(top, 0) + 1
    return summands


def bare_module(weights):
    """A classical module of the given weights with no e or f entries."""
    basis = [f"x_{i}" for i in range(len(weights))]
    return WeightModule(CLASSICAL, "X", basis, dict(zip(basis, weights)), {"e": {}, "f": {}})


def assert_decomposes_as_peeled(m):
    expected = peeled([int(m.weights[lab]) for lab in m.basis])  # integral: Fraction or int
    if expected is None:
        with pytest.raises(DecompositionError, match="are not those of a sum of F_n's"):
            decompose_by_character(m)
    else:
        assert decompose_by_character(m).summands == expected


@st.composite
def weight_lists(draw):
    """Integer weights in [-8, 8]: the character of a sum of F_n's, shuffled,
    and in half the cases with one to three edits: a weight added, one
    removed, or every copy of some w and -w removed, which keeps symmetry."""
    weights = [w for top in draw(st.lists(st.integers(0, 8), max_size=4)) for w in range(top, -top - 1, -2)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        edit = draw(st.sampled_from(["add", "remove", "gap"])) if weights else "add"
        if edit == "add":
            weights.append(draw(st.integers(-8, 8)))
        elif edit == "remove":
            weights.remove(draw(st.sampled_from(weights)))
        else:
            gap = abs(draw(st.sampled_from(weights)))
            weights = [w for w in weights if abs(w) != gap]
    return draw(st.permutations(weights))


@given(st.one_of(weight_lists(), st.lists(st.integers(-8, 8), max_size=10)))
@settings(max_examples=300)
def test_multiplicities_are_those_of_greedy_peeling(weights):
    assert_decomposes_as_peeled(bare_module(weights))


def test_multiplicities_need_every_weight_down_to_0_or_1():
    # symmetric, but F_2 needs weight 0: a rule that reads only the weights present accepts it
    gap = bare_module([2, 2, -2, -2])
    assert peeled([2, 2, -2, -2]) is None
    with pytest.raises(DecompositionError, match=r"X: weight counts \{-2: 2, 2: 2\} are not those"):
        decompose_by_character(gap)
    assert decompose_by_character(bare_module([])).summands == {}  # the zero-dimensional module
    for m in (gap, bare_module([]), rasskazova(RasskazovaParams(1, 0, 1, 1))):
        assert_decomposes_as_peeled(m)


def test_agreement_of_all_three_routes():
    for m in range(5):
        for n in range(5):
            expected = cg_decompose(m, n)
            tc = tensor(finite_dim(m, CLASSICAL), finite_dim(n, CLASSICAL))
            tq = tensor(finite_dim(m, QUANTUM), finite_dim(n, QUANTUM))
            assert decompose_by_character(tc) == expected
            assert decompose_by_character(tq) == expected
            for t in (tc, tq):
                weights = sorted(
                    (int(wt) for wt, _ in highest_weight_vectors(t)), reverse=True
                )
                assert weights == sorted(expected.summands, reverse=True)
    # the factors' characters give what the tensor module's weights give
    for flavor in (CLASSICAL, QUANTUM):
        for m in range(9):
            for n in range(9):
                a, b = finite_dim(m, flavor), finite_dim(n, flavor)
                assert decompose_by_character(a, b) == decompose_by_character(tensor(a, b))


@pytest.mark.parametrize("flavor", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
def test_agreement_of_all_three_routes_on_triple_products(flavor, monkeypatch):
    # every product of tests/golden/product_digest.txt: F_a (x) F_b (x) F_c has spaces that are not
    # bidiagonal, solved by the rank mod p and the int elimination, of packed rows over Q[v, v^-1]:
    # at each weight the kernel's dimension is the character's multiplicity and that of the closed
    # form folded over the summands of F_a (x) F_b
    calls = count_calls(monkeypatch, "_kernel_fraction_free", "_packed_kernel")
    for _, a, b, c in [case for case in products() if case[0] is flavor]:
        fa, fb, fc = (finite_dim(x, flavor) for x in (a, b, c))
        dims = Counter(w for w, _ in highest_weight_vectors(tensor(tensor(fa, fb), fc)))
        folded = Counter()
        for w in cg_decompose(a, b).summands:
            folded.update(cg_decompose(w, c).summands)
        assert dims == decompose_by_character(fa, fb, fc).summands == folded, (a, b, c)
    assert calls["_kernel_fraction_free"] > 0 and (calls["_packed_kernel"] > 0) == (flavor is QUANTUM)


def test_decompose_by_character_refuses_mixed_flavors_as_tensor_does():
    c, q = finite_dim(1, CLASSICAL), finite_dim(1, QUANTUM)
    for factors in ((c, q), (q, c), (c, c, q), (q, q, c)):
        with pytest.raises(ValueError) as by_factors:
            decompose_by_character(*factors)
        with pytest.raises(ValueError) as by_tensor:
            functools.reduce(tensor, factors)
        assert type(by_factors.value) is ValueError
        assert str(by_factors.value) == str(by_tensor.value) == (
            f"cannot tensor a {factors[0].flavor.name} and a {factors[-1].flavor.name} module")


def test_decompose_by_character_names_the_product_as_tensor_does():
    # a factor with a non-integral weight: the product's weights are too
    verma, f2 = verma_classical(Fraction(5, 2), 4), finite_dim(2, CLASSICAL)
    for factors in ((verma, f2), (f2, verma)):
        with pytest.raises(DecompositionError) as by_factors:
            decompose_by_character(*factors)
        with pytest.raises(DecompositionError) as by_tensor:
            decompose_by_character(tensor(*factors))
        assert "non-integral weight" in str(by_factors.value)
        assert str(by_factors.value) == str(by_tensor.value)
    # half-integral factors with integral sums peel, or fail, like their tensor
    half = verma_classical(Fraction(1, 2), 3)
    with pytest.raises(DecompositionError) as by_factors:
        decompose_by_character(verma, half)
    with pytest.raises(DecompositionError) as by_tensor:
        decompose_by_character(tensor(verma, half))
    assert str(by_factors.value) == str(by_tensor.value)
    three = [finite_dim(k, CLASSICAL) for k in (1, 2, 3)]
    assert decompose_by_character(*three) == decompose_by_character(tensor(tensor(*three[:2]), three[2]))


def test_decomposition_validates_multiplicity():
    with pytest.raises(ValueError):
        Decomposition({2: 0})


# -- the transfer formula ------------------------------------------------------------


def test_phi_depth_zero_single_term():
    vec = phi_vector(2, 3, 0)
    assert vec.entries == {"w_0*w_0": -(v**3)}  # (-1)^(n-p) v^n with n = 3
    vec = phi_vector(2, 2, 0)
    assert vec.entries == {"w_0*w_0": v**2}


def test_phi_1_1_1_terms():
    vec = phi_vector(1, 1, 1)
    assert vec.entries == {"w_0*w_1": v**-1, "w_1*w_0": v}


def test_phi_denominator_clearing():
    # (3,1,1): raw coefficients involve 1/[3]; cleared by [3]!/[2]! = [3]
    vec = phi_vector(3, 1, 1)
    assert vec.entries == {"w_0*w_1": q_int(3) * v**-3, "w_1*w_0": v}


def test_phi_coefficients_are_the_cleared_transfer_formula():
    for m in range(6):
        for n in range(6):
            for p in range(min(m, n) + 1):
                sign = (-1) ** (n - p)
                expected = {}
                for k in range(p + 1):  # [n-p+1]...[n-p+k] [m-p+1]...[m-k] v^e, one q-integer at a time
                    c = LaurentPoly({(k - p) * (2 + m) + p * p - k * k + n: sign})
                    for j in [*range(n - p + 1, n - p + k + 1), *range(m - p + 1, m - k + 1)]:
                        c = c * q_int(j)
                    lab = f"w_{k}*w_{p - k}"
                    expected[lab] = expected.get(lab, LaurentPoly()) + c
                assert phi_vector(m, n, p).entries == expected, (m, n, p)


def test_phi_precondition():
    with pytest.raises(ValueError, match="need 0 <= p <= min"):
        phi_vector(3, 1, 2)
    for m, n in ((-1, 1), (1, -1), (-1, -1)):
        with pytest.raises(ValueError, match="need m, n >= 0"):
            phi_vector(m, n, 0)


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
    assert report.witness == ("w_1*w_0", v, LaurentPoly(-1))


def test_phi_vs_oracle_inexact_first_ratio_is_a_mismatch():
    # under the (p-k, k) reading the first shared entries give v / (v^2 + 1),
    # which is not a Laurent polynomial, so no ratio exists
    report = phi_vs_oracle(2, 1, 1, Interpretation("p-k,k", lambda m, n, p, k: (p - k, k)))
    assert not report.proportional and report.scalar is None
    assert report.witness == ("w_0*w_1", v, v**2 + 1)
    assert report.interpretation == "p-k,k"


def test_phi_vs_oracle_reading_off_the_weight_space():
    # under the (k, k) reading term k sits at weight m+n-4k, so phi leaves
    # weight m+n-2p, and its first entry already meets a zero of the oracle
    reading = Interpretation("k,k", lambda m, n, p, k: (k, k))
    phi = phi_vector(2, 2, 1, reading)
    assert phi.items_in_order() == [("w_0*w_0", -(v**-2 + 1)), ("w_1*w_1", -(v + v**3))]
    report = phi_vs_oracle(2, 2, 1, reading)
    assert not report.proportional and report.scalar is None
    assert report.witness == ("w_0*w_0", -(v**-2 + 1), LaurentPoly())


def compared_expanded(m, n, p, interpretation) -> ComparisonReport:
    """The comparison phi_vs_oracle made on expanded Laurent polynomials, kept as the reference:
    label by label in basis order, the first ratio one exact division, each later label a product."""
    phi = phi_vector(m, n, p, interpretation)
    module = phi.module
    oracle = highest_weight_vector(module, m + n - 2 * p)
    zero, ratio = LaurentPoly(), None
    for lab in module.basis:
        a, b = phi.entries.get(lab, zero), oracle.entries.get(lab, zero)
        if not a and not b:
            continue
        if ratio is None and a and b:
            try:
                ratio = a / b
                continue
            except ExactDivisionError:
                pass
        if ratio is None or a != ratio * b:
            return ComparisonReport(False, None, (lab, a, b), interpretation.ident, oracle)
    return ComparisonReport(True, ratio, None, interpretation.ident, oracle)


# two terms on one basis vector: k = 0 and 1 at (0, p) from p = 1 on, or k = 1 and 2 at (1, p-1) from p = 2 on
SHARED = [Interpretation("k//2,p-k//2", lambda m, n, p, k: (k // 2, p - k // 2)),
          Interpretation("(k+1)//2,p-(k+1)//2", lambda m, n, p, k: ((k + 1) // 2, p - (k + 1) // 2))]
READINGS = [WEIGHT_MATCHED, Interpretation("p-k,k", lambda m, n, p, k: (p - k, k)),
            Interpretation("k,k", lambda m, n, p, k: (k, k))]


@pytest.mark.parametrize("reading", READINGS, ids=["weight-matched", "reversed", "diagonal"])
def test_factored_comparison_is_the_expanded_one(reading, monkeypatch):
    calls = count_calls(monkeypatch, "lp_gcd")
    for m in range(9):
        for n in range(9):
            for p in range(min(m, n) + 1):
                assert phi_vs_oracle(m, n, p, reading) == compared_expanded(m, n, p, reading), (m, n, p)
    assert not calls  # one factored term per label, against a bidiagonal oracle: no polynomial gcd


@pytest.mark.parametrize("reading, refused", zip(SHARED, (204, 140)), ids=["shared-first", "shared-next"])
def test_a_reading_that_stacks_two_terms_on_one_vector_is_refused(reading, refused):
    # exactly where two k share a pair of positions, phi_vector and phi_vs_oracle raise;
    # at every other size the reading is compared as any other is
    sizes = [(m, n, p) for m in range(9) for n in range(9) for p in range(min(m, n) + 1)]
    stacked = {(m, n, p) for m, n, p in sizes if len({reading.positions(m, n, p, k) for k in range(p + 1)}) <= p}
    assert (len(sizes), len(stacked)) == (285, refused)
    refusal = rf"share positions .* under interpretation {re.escape(reading.ident)}$"
    for m, n, p in sizes:
        if (m, n, p) in stacked:
            for evaluate in (phi_vector, phi_vs_oracle):
                with pytest.raises(ValueError, match=refusal):
                    evaluate(m, n, p, reading)
        else:
            assert phi_vs_oracle(m, n, p, reading) == compared_expanded(m, n, p, reading), (m, n, p)


def test_the_refusal_names_both_terms_and_builds_no_tensor(monkeypatch):
    calls = count_calls(monkeypatch, "tensor", "highest_weight_vector")
    with pytest.raises(ValueError) as refused:
        phi_vs_oracle(1, 1, 1, SHARED[0])
    assert str(refused.value) == (
        "terms k=0 and k=1 share positions (0, 1) of F_1 (x) F_1 under interpretation k//2,p-k//2")
    with pytest.raises(ValueError) as refused:
        phi_vector(3, 4, 3, SHARED[1])  # k = 0, 1, 2, 3 at (0, 3), (1, 2), (1, 2), (2, 1)
    assert str(refused.value).startswith("terms k=1 and k=2 share positions (1, 2) of F_3 (x) F_4 ")
    assert not calls


def test_a_proportional_quotient_subtracts_the_oracles_power_of_v(monkeypatch):
    # no reading of the written formula is proportional past p = 0, where the oracle is 1, so the terms
    # are given: [2] times the oracle v w_0*w_1 - w_1*w_0 of (1, 1, 1), factored ([2] = v^-1 Phi_4)
    module, _ = tensorcg._phi_terms(1, 1, 1, WEIGHT_MATCHED)
    terms = {"w_0*w_1": (1, 0, {4: 1}), "w_1*w_0": (-1, -1, {4: 1})}
    monkeypatch.setattr(tensorcg, "_phi_terms", lambda *args: (module, terms))
    report = phi_vs_oracle(1, 1, 1)
    assert report.oracle.entries == {"w_0*w_1": v, "w_1*w_0": LaurentPoly(-1)}
    assert report.proportional and report.scalar == q_int(2)


@given(st.sampled_from([1, -1, 0]), st.integers(-8, 8), st.dictionaries(st.integers(1, 16), st.integers(0, 3)))
@settings(max_examples=200, deadline=None)
def test_expand_is_the_product_of_cyclotomic_factors(sign, low, counts):
    product = LaurentPoly({low: sign})
    for d, k in counts.items():
        product = product * tensorcg._cyclotomic(d) ** k
    assert tensorcg._expand((sign, low, counts)) == product


def test_phi_vs_oracle_runs_and_oracle_is_killed():
    t = None
    for m in range(4):
        for n in range(4):
            for p in range(min(m, n) + 1):
                report = phi_vs_oracle(m, n, p)
                assert isinstance(report, ComparisonReport)
                assert report.proportional or report.witness is not None
    # oracle side of (2,1,1) independently annihilated by E
    t = tensor(finite_dim(2, QUANTUM), finite_dim(1, QUANTUM))
    (oracle,) = [vec for wt, vec in highest_weight_vectors(t) if wt == 1]
    assert apply(t, "E", oracle).is_zero()


def test_phi_vs_oracle_carries_its_oracle():
    for m, n, p in ((1, 1, 1), (2, 2, 0), (3, 2, 2)):
        t = tensor(finite_dim(m, QUANTUM), finite_dim(n, QUANTUM))
        target = m + n - 2 * p
        assert highest_weight_vectors(t, target) == [(target, phi_vs_oracle(m, n, p).oracle)]
