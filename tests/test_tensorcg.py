import dataclasses
from collections import Counter
from fractions import Fraction

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

# -- tensor construction ------------------------------------------------------


def test_tensor_classical_unit_factor():
    a, b = finite_dim_classical(0), finite_dim_classical(2)
    t = tensor(a, b)
    for g in ("e", "f", "h"):
        for k in b.basis:
            got = t.column(g, f"w_0*{k}")
            assert got == {f"w_0*{r}": c for r, c in b.column(g, k).items()}


def test_tensor_classical_coproduct():
    t = tensor(finite_dim_classical(1), finite_dim_classical(1))
    got = apply(t, "e", Vector.basis_vector(t, "w_1*w_1"))
    assert got.entries == {"w_0*w_1": 1, "w_1*w_0": 1}


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
    got = apply(t, "K", Vector.basis_vector(t, "w_0*w_0"))
    assert got.entries == {"w_0*w_0": v**5}


def test_tensor_quantum_E_coproduct():
    t = tensor(finite_dim_quantum(1), finite_dim_quantum(1))
    got = apply(t, "E", Vector.basis_vector(t, "w_1*w_1"))
    assert got.entries == {"w_0*w_1": v**-1, "w_1*w_0": LaurentPoly(1)}


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
    got = apply(t, "E", Vector.basis_vector(t, "w_1*w_1"))
    assert got.entries == {"w_0*w_1": LaurentPoly(1), "w_1*w_0": v**-1}


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


@pytest.mark.parametrize(
    "a, b",
    [(finite_dim_classical(2), finite_dim_classical(3)), (finite_dim_quantum(2), finite_dim_quantum(3)),
     (verma_classical(Fraction(5, 2), 3), finite_dim_classical(1))],
    ids=["classical", "quantum", "verma"],
)
def test_tensor_makes_one_label_per_basis_vector_and_reads_no_column(a, b, monkeypatch):
    def forbidden(*args):
        raise AssertionError("tensor called WeightModule.column")

    monkeypatch.setattr(WeightModule, "column", forbidden)
    t = tensor(a, b)
    assert t.basis == tuple(f"{la}*{lb}" for la in a.basis for lb in b.basis)


def test_tensor_refuses_product_names_that_coincide():
    # x (x) y*z and x*y (x) z would both be named x*y*z
    a = WeightModule(CLASSICAL, "a", ["x", "x*y"], {"x": 0, "x*y": 0}, {"e": {}, "f": {}})
    b = WeightModule(CLASSICAL, "b", ["y*z", "z"], {"y*z": 0, "z": 0}, {"e": {}, "f": {}})
    with pytest.raises(ValueError, match="pairwise distinct"):
        tensor(a, b)


# -- weight spaces -------------------------------------------------------------


def test_weight_spaces_f1f1():
    t = tensor(finite_dim_classical(1), finite_dim_classical(1))
    spaces = weight_spaces(t)
    assert {k: len(v) for k, v in spaces.items()} == {2: 1, 0: 2, -2: 1}
    assert spaces[0] == ["w_0*w_1", "w_1*w_0"]


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
    kernel = _kernel_fraction_free(rows, ncols, Fraction)
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
    kernel = _kernel_fraction_free([[Fraction(a) for a in row] for row in rows], ncols, Fraction)
    expected, rank = rref_kernel(rows, ncols)
    assert len(kernel) == len(expected) == ncols - rank
    assert [CLASSICAL.normalize(x) for x in kernel] == [CLASSICAL.normalize(x) for x in expected]


def raising_rows(m, weight):
    """The matrix of the raising operator from one weight space to the next."""
    spaces = weight_spaces(m)
    source, target = spaces[weight], spaces.get(weight + 2, [])
    rows = [[m.flavor.ring()] * len(source) for _ in target]
    for j, lab in enumerate(source):
        for row_lab, c in m.column(m.flavor.raising, lab).items():
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


@pytest.mark.parametrize("findim, n", [(finite_dim_classical, 2), (finite_dim_quantum, 1)])
def test_hwv_of_a_module_with_int_entries_stays_in_the_ring(findim, n):
    built = findim(n)
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
            found = highest_weight_vectors(tensor(finite_dim_classical(a), finite_dim_classical(b)))
            assert found and all(type(c) is Fraction for _, x in found for c in x.entries.values())


@pytest.mark.parametrize("ring", [Fraction, LaurentPoly], ids=["fraction", "laurent"])
def test_kernel_of_int_rows_has_ring_entries(ring):
    for rows in ([[2, 2]], [[1], [1]], [[2, 2, 0], [1, 1, 3]], [[1, 2, 3], [4, 5, 6]]):
        kernel = _kernel_fraction_free(rows, len(rows[0]), ring)
        assert all(type(c) is ring for x in kernel for c in x)
        for x in kernel:
            for row in rows:
                assert not sum((a * b for a, b in zip(row, x)), ring())


def test_kernel_known_case():
    # [[1, 1]] has kernel spanned by (-1, 1)
    (x,) = _kernel_fraction_free([[Fraction(1), Fraction(1)]], 2, Fraction)
    assert x[0] * 1 + x[1] * 1 == 0 and any(x)


def test_kernel_laurent_entries():
    rows = [[v - v**-1, v**2 - v**-2, LaurentPoly()], [LaurentPoly(), v, v**3]]
    kernel = _kernel_fraction_free(rows, 3, LaurentPoly)
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
    assert found[0].entries == {"w_0*w_1": 1, "w_1*w_0": -1}
    assert found[2].entries == {"w_0*w_0": 1}


def test_hwv_top_is_pair_of_tops():
    for ctor in (finite_dim_classical, finite_dim_quantum):
        t = tensor(ctor(2), ctor(3))
        top = [vec for wt, vec in highest_weight_vectors(t) if wt == 5]
        assert len(top) == 1
        assert top[0].entries == {"w_0*w_0": t.flavor.ring(1)}


def test_hwv_quantum_f1f1_canonical_form():
    t = tensor(finite_dim_quantum(1), finite_dim_quantum(1))
    found = dict(highest_weight_vectors(t))
    # kernel of E on the weight-0 space, normalized to coprime integer
    # coefficients with positive leading coefficient first
    assert found[0].entries == {"w_0*w_1": v, "w_1*w_0": LaurentPoly(-1)}


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


def test_quantum_hwv_coefficients_are_ints():
    t = tensor(finite_dim_quantum(4), finite_dim_quantum(3))
    coeffs = [c for _, vec in highest_weight_vectors(t) for c in vec.entries.values()]
    assert len(coeffs) == 1 + 2 + 3 + 4  # one vector per summand F_7, F_5, F_3, F_1
    assert all(type(x) is int for c in coeffs for _, x in c.terms())


def test_hwv_descending_weight_order():
    t = tensor(finite_dim_classical(3), finite_dim_classical(3))
    weights = [wt for wt, _ in highest_weight_vectors(t)]
    assert weights == sorted(weights, reverse=True) == [6, 4, 2, 0]


def test_hwv_trivial_tensor():
    t = tensor(finite_dim_quantum(0), finite_dim_quantum(0))
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
    monkeypatch.setattr(tensorcg, "_kernel", lambda rows, ncols, flavor: [[flavor.ring(1)] * ncols])
    t = tensor(finite_dim_classical(1), finite_dim_classical(1))
    with pytest.raises(NullspaceError, match="certificate failed at weight 0"):
        highest_weight_vectors(t, 0)
    with pytest.raises(NullspaceError):
        phi_vs_oracle(1, 1, 1)


@pytest.mark.parametrize("flavor", [CLASSICAL, QUANTUM], ids=["classical", "quantum"])
def test_hwv_certifies_the_vector_it_returns(flavor):
    # a normaliser that leaves the kernel: only a certificate of the returned vector sees it
    def doubled(coords):
        head, *tail = flavor.normalize(coords)
        return [2 * head, *tail]

    bad = dataclasses.replace(flavor, normalize=doubled)
    f = finite_dim_classical(1) if flavor is CLASSICAL else finite_dim_quantum(1)
    factor = WeightModule(bad, f.name, f.basis, f.weights, f.action)
    with pytest.raises(NullspaceError, match="nullspace certificate failed at weight 0"):
        highest_weight_vectors(tensor(factor, factor), 0)


# -- certified kernels: recurrence, rank mod p, completeness -------------------------


def count_calls(monkeypatch, *names):
    """A Counter of the calls to the named tensorcg functions, each still run."""
    calls = Counter()
    for name in names:
        fn = getattr(tensorcg, name)
        monkeypatch.setattr(tensorcg, name, lambda *args, n=name, f=fn: calls.update([n]) or f(*args))
    return calls


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
        mutated = tensorcg._kernel_fraction_free(rows, ncols, multi.flavor.ring)
        vectors = [Vector(multi, dict(zip(weight_spaces(multi)[w], x))) for x in mutated]
        assert len(vectors) == count and all(apply(multi, multi.flavor.raising, x).is_zero() for x in vectors)
        # the nullity mod p, and the rank of the vectors mod p, do not
        with pytest.raises(NullspaceError, match=f"not proven complete: {count} vectors, nullity 2"):
            highest_weight_vectors(multi, w)


def flavor_of(ring):
    return CLASSICAL if ring is Fraction else QUANTUM


def normalized_elimination(rows, ncols, ring):
    return [flavor_of(ring).normalize(x) for x in _kernel_fraction_free(rows, ncols, ring)]


@pytest.mark.parametrize("ring", [Fraction, LaurentPoly], ids=["fraction", "laurent"])
def test_a_zero_superdiagonal_entry_takes_the_elimination(ring, monkeypatch):
    calls = count_calls(monkeypatch, "_bidiagonal_kernel", "_kernel_fraction_free")
    zero_s = ([[4, 0]], [[1, 0, 0], [0, 2, 3]], [[1, 2, 0], [0, 3, 0]], [[0, 0, 0], [0, 1, 1]])
    for rows in zero_s:
        rows = [[ring(c) for c in row] for row in rows]
        ncols = len(rows) + 1
        assert tensorcg._kernel(rows, ncols, flavor_of(ring)) == normalized_elimination(rows, ncols, ring)
    assert calls == Counter({"_kernel_fraction_free": len(zero_s)})
    # a zero d_r keeps the shape: the recurrence still solves it (2 and 3 are no +-v^e [a])
    rows = [[ring(0), ring(2), ring(0)], [ring(0), ring(0), ring(3)]]
    (x,) = tensorcg._kernel(rows, 3, flavor_of(ring))
    assert calls["_bidiagonal_kernel"] == 1 and x == [ring(1), ring(0), ring(0)]


@pytest.mark.parametrize("ring", [Fraction, LaurentPoly], ids=["fraction", "laurent"])
def test_an_empty_target_keeps_every_basis_vector(ring):
    for ncols in (1, 2, 3):
        kernel = tensorcg._kernel([], ncols, flavor_of(ring))
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
        assert tensorcg._kernel(rows, ncols, flavor_of(ring)) == normalized_elimination(rows, ncols, ring)
        assert primes[0] == first and primes[-1] == second
    hw = Fraction(1, first)  # every e entry of this Verma module has no image at the first pair
    assert [(w, x.entries) for w, x in highest_weight_vectors(verma_classical(hw, 4))] == [(hw, {"w_0": 1})]
    monkeypatch.setattr(tensorcg, "_SPECIALIZATIONS", ((v0, first), (v0, second)))
    for rows, ncols, ring in cases[:2]:
        with pytest.raises(NullspaceError, match="not proven complete"):
            tensorcg._kernel(rows, ncols, flavor_of(ring))


@st.composite
def raising_matrices(draw):
    """(rows, ncols, ring): a sparse raising matrix from one weight space
    to the next, over the integers or in Q[v, v^-1]; half of them are
    bidiagonal, with every superdiagonal entry nonzero or one of them zero."""
    ring = draw(st.sampled_from([Fraction, LaurentPoly]))
    ncols = draw(st.integers(1, 6))

    def entry(nonzero=False):
        if not nonzero and not draw(st.integers(0, 2)):  # a third of the cells are zero
            return ring()
        coeff = st.integers(-4, 4).filter(bool)
        if ring is Fraction:
            return Fraction(draw(coeff))
        return LaurentPoly(draw(st.dictionaries(st.integers(-3, 3), coeff, min_size=1, max_size=2)))

    if draw(st.booleans()):
        rows = [[ring()] * ncols for _ in range(ncols - 1)]
        zero_at = draw(st.sampled_from([None, *range(ncols - 1)]))
        for r, row in enumerate(rows):
            row[r], row[r + 1] = entry(), ring() if r == zero_at else entry(nonzero=True)
    else:
        rows = [[entry() for _ in range(ncols)] for _ in range(draw(st.integers(0, 6)))]
    return rows, ncols, ring


@given(raising_matrices())
@settings(max_examples=200, deadline=None)
def test_certified_kernel_is_the_normalized_elimination_kernel(matrix):
    rows, ncols, ring = matrix
    kernel = tensorcg._kernel(rows, ncols, flavor_of(ring))
    assert kernel == normalized_elimination(rows, ncols, ring)
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
    factored = tensorcg._factored_kernel(rows)
    assert (factored is not None) == shaped
    if shaped:
        assert factored == QUANTUM.normalize(tensorcg._bidiagonal_kernel(rows, LaurentPoly))
    # either way the certified kernel is the normalised elimination kernel
    assert tensorcg._kernel(rows, len(rows) + 1, QUANTUM) == normalized_elimination(rows, len(rows) + 1, LaurentPoly)


@pytest.mark.parametrize("findim", [finite_dim_classical, finite_dim_quantum])
def test_hwv_of_f_m_f_n_uses_the_recurrence_and_the_rank_mod_p_only(findim, monkeypatch):
    calls = count_calls(monkeypatch, "_bidiagonal_kernel", "_factored_kernel", "_rank_mod", "_kernel_fraction_free")
    # a quantum recurrence is normalised in factored form: the ring recurrence never runs
    recurrence = "_bidiagonal_kernel" if findim is finite_dim_classical else "_factored_kernel"
    for m in range(7):
        for n in range(7):
            calls.clear()
            found = highest_weight_vectors(tensor(findim(m), findim(n)))
            assert len(found) == min(m, n) + 1
            # m + n + 1 weight spaces: min(m, n) + 1 bidiagonal, each other one of nullity 0
            assert calls == Counter({recurrence: min(m, n) + 1, "_rank_mod": max(m, n)}), (m, n)


@pytest.mark.parametrize("findim", [finite_dim_classical, finite_dim_quantum])
def test_hwv_reads_the_stored_map_and_certifies_with_apply(findim, monkeypatch):
    t = tensor(findim(2), findim(3))
    applied, columns = [], []
    column = WeightModule.column
    monkeypatch.setattr(tensorcg, "apply", lambda m, g, x: applied.append(g) or apply(m, g, x))
    monkeypatch.setattr(WeightModule, "column", lambda m, g, lab: columns.append(g) or column(m, g, lab))
    found = highest_weight_vectors(t)
    # one certificate per vector; apply reads a column per entry, the matrix none
    assert applied == [t.flavor.raising] * len(found) == [t.flavor.raising] * 3
    assert len(columns) == sum(len(x.entries) for _, x in found)


def test_hwv_specializes_to_classical():
    for m in range(4):
        for n in range(4):
            tq = tensor(finite_dim_quantum(m), finite_dim_quantum(n))
            tc = tensor(finite_dim_classical(m), finite_dim_classical(n))
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
    # differential: an independent exact solver, compared as RREF bases of the span
    sympy = pytest.importorskip("sympy")

    def matrix(rows, ncols):
        return sympy.Matrix(len(rows), ncols, [sympy.Rational(c.numerator, c.denominator) for r in rows for c in r])

    def rref_basis(vectors, ncols):
        return matrix(vectors, ncols).rref()[0] if vectors else None

    for a in range(5):
        for b in range(5):
            module = tensor(finite_dim_classical(a), finite_dim_classical(b))
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
    # the factors' characters give what the tensor module's weights give
    for findim in (finite_dim_classical, finite_dim_quantum):
        for m in range(9):
            for n in range(9):
                a, b = findim(m), findim(n)
                assert decompose_by_character(a, b) == decompose_by_character(tensor(a, b))


def test_decompose_by_character_names_the_product_as_tensor_does():
    # a factor with a non-integral weight: the product's weights are too
    verma, f2 = verma_classical(Fraction(5, 2), 4), finite_dim_classical(2)
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
    three = [finite_dim_classical(k) for k in (1, 2, 3)]
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
    assert "weight-matched-v1" in vec.note


def test_phi_denominator_clearing():
    # (3,1,1): raw coefficients involve 1/[3]; cleared by [3]!/[2]! = [3]
    vec = phi_vector(3, 1, 1)
    assert vec.entries == {"w_0*w_1": q_int(3) * v**-3, "w_1*w_0": v}
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
