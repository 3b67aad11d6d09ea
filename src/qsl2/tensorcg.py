"""Tensor products, Clebsch-Gordan decomposition, and highest-weight
vector extraction for classical and quantum sl(2).

The decomposition F_m (x) F_n = F_{m+n} (+) ... (+) F_{|m-n|} is produced
three independent ways: the closed form, character peeling on the actual
tensor module, and exact raising-operator nullspaces computed by
fraction-free (Bareiss/Gauss-Jordan) elimination over the scalar ring.
The explicit highest-weight transfer formula, evaluated verbatim with
exact q-factorial coefficients, is adjudicated against the nullspace
oracle and the outcome reported as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .modrep import Label, Vector, WeightModule, apply, finite_dim_quantum
from .qarith import ExactDivisionError, LaurentPoly, q_int


class DecompositionError(ValueError):
    """Weight multiset is not that of a finite-dimensional module."""


class NullspaceError(ArithmeticError):
    """A raising-operator kernel failed its certificate or its expected dimension."""


@dataclass(frozen=True)
class Decomposition:
    """Multiset of highest weights of the irreducible summands."""

    summands: dict  # highest weight (int) -> multiplicity (>= 1)

    def __post_init__(self):
        for w, mult in self.summands.items():
            if mult < 1:
                raise ValueError(f"multiplicity of weight {w} must be >= 1, got {mult}")

    @property
    def total_dim(self) -> int:
        return sum(mult * (w + 1) for w, mult in self.summands.items())

    def pairs(self) -> list[tuple[int, int]]:
        """(weight, multiplicity) pairs, descending by weight."""
        return sorted(self.summands.items(), key=lambda t: -t[0])


# -- tensor products -----------------------------------------------------------


def tensor(a: WeightModule, b: WeightModule) -> WeightModule:
    """Tensor product of two modules of one flavour under its coproduct.

    Each raising or lowering g acts by D(g) = g (x) right + left (x) g,
    where (right, left) = flavor.coproduct[g]; a twist acts on its
    factor by its eigenvalue on that factor's weight, None meaning 1.
    """
    if a.flavor is not b.flavor:
        raise ValueError(f"cannot tensor a {a.flavor.name} and a {b.flavor.name} module")
    fl = a.flavor
    basis = [Label.tensor(la, lb) for la in a.basis for lb in b.basis]
    weights = {lab: a.weights[lab.index[0]] + b.weights[lab.index[1]] for lab in basis}

    def twist(gen, w):
        # eigenvalue of a twist on a factor of weight w; None when it is 1
        t = fl.diagonal[gen](w) if gen else fl.one
        return None if t == fl.one else t

    action: dict = {g: {} for g in fl.coproduct}
    for lab in basis:
        la, lb = lab.index
        for g, (right, left) in fl.coproduct.items():
            rt, lt = twist(right, b.weights[lb]), twist(left, a.weights[la])
            col = {}
            for ra, c in a.column(g, la).items():
                col[Label.tensor(ra, lb)] = c if rt is None else c * rt
            # g shifts weights, so these rows never meet the ones above
            for rb, c in b.column(g, lb).items():
                col[Label.tensor(la, rb)] = c if lt is None else lt * c
            if col:
                action[g][lab] = col

    boundary = [
        lab for lab in basis if lab.index[0] in a.boundary or lab.index[1] in b.boundary
    ]
    return WeightModule(fl, f"T({a.name};{b.name})", basis, weights, action, boundary=boundary)


def weight_spaces(m: WeightModule) -> dict:
    """Partition of the basis by weight; each list in ambient order."""
    spaces: dict = {}
    for lab in m.basis:
        spaces.setdefault(m.weights[lab], []).append(lab)
    return spaces


# -- exact nullspace by fraction-free elimination ------------------------------


def _kernel_fraction_free(rows: list[list], ncols: int, one):
    """Right kernel of a matrix over an exact integral domain.

    One-step fraction-free Gauss-Jordan elimination: every division is
    by the previous pivot and is exact in the ring, so entries never
    leave it.  Pivoting scans columns left to right and rows top down;
    no reordering beyond the forced swaps, so results are deterministic.
    Returns kernel vectors (one per free column, in column order) with
    entries in the ring.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[tuple[int, int]] = []  # (row, col)
    prev = one
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[piv], m[r] = m[r], m[piv]
        p = m[r][c]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            # every non-pivot row gets the one-step update, even when f
            # is zero: the uniform rescaling keeps later divisions exact
            m[i] = [(p * m[i][j] - f * m[r][j]) / prev for j in range(ncols)]
        pivots.append((r, c))
        prev = p
        r += 1

    pivot_cols = {c for _, c in pivots}
    zero = one - one
    kernel = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        x = [zero] * ncols
        x[f] = prev
        for i, c in pivots:
            if m[i][f]:
                x[c] = -m[i][f]
        kernel.append(x)
    return kernel


def highest_weight_vectors(m: WeightModule, weight=None) -> list[tuple[object, Vector]]:
    """Exact basis of raising-operator kernels, one weight space at a time;
    only the space of ``weight`` when it is given (none if m lacks it).

    For each weight space, the nullspace of e (resp. E) restricted to it
    is computed by fraction-free elimination and certified by applying
    the raising operator to every returned vector (the product must be
    exactly zero).  Classical vectors are scaled so the first nonzero
    coordinate in ambient order is 1; quantum vectors are scaled to have
    no common Laurent factor, coprime integer coefficients, and positive
    leading coefficient in the first nonzero entry.  Output is ordered
    by descending weight.
    """
    raising = m.flavor.raising
    zero, one = m.flavor.zero, m.flavor.one
    spaces = weight_spaces(m)
    asked = sorted(spaces, reverse=True) if weight is None else [w for w in spaces if w == weight]
    out = []
    for w in asked:
        source = spaces[w]
        target = spaces.get(w + 2, [])
        tpos = {lab: i for i, lab in enumerate(target)}
        rows = [[zero] * len(source) for _ in target]
        for j, src in enumerate(source):
            for row_lab, c in m.column(raising, src).items():
                rows[tpos[row_lab]][j] = c
        for coords in _kernel_fraction_free(rows, len(source), one):
            vec = Vector(m, dict(zip(source, coords)))
            if not apply(m, raising, vec).is_zero():
                raise NullspaceError(f"nullspace certificate failed at weight {w} of {m.name}")
            out.append((w, Vector(m, dict(zip(source, m.flavor.normalize(coords))))))
    return out


def highest_weight_vector(m: WeightModule, weight) -> Vector:
    """The highest-weight vector of ``weight``; NullspaceError unless the
    raising-operator kernel there is one-dimensional."""
    found = highest_weight_vectors(m, weight)
    if len(found) != 1:
        raise NullspaceError(f"nullspace at weight {weight} is {len(found)}-dimensional, expected 1")
    return found[0][1]


# -- decompositions ------------------------------------------------------------


def cg_decompose(m: int, n: int) -> Decomposition:
    """Closed-form decomposition of F_m (x) F_n: one copy each of the
    highest weights m+n, m+n-2, ..., |m-n|."""
    if m < 0 or n < 0:
        raise ValueError(f"need m, n >= 0, got ({m}, {n})")
    return Decomposition({w: 1 for w in range(m + n, abs(m - n) - 1, -2)})


def decompose_by_character(mod: WeightModule) -> Decomposition:
    """Decomposition read off the weight multiplicities by greedy peeling.

    Repeatedly removes the character of the summand with the largest
    remaining weight.  Raises DecompositionError when the weights are
    not the character of a finite-dimensional module (non-integral
    weight, negative top weight, or a residue that cannot be peeled).
    """
    counts: dict[int, int] = {}
    for lab in mod.basis:
        w = mod.weights[lab]
        if isinstance(w, Fraction):
            if w.denominator != 1:
                raise DecompositionError(f"non-integral weight {w} in {mod.name}")
            w = int(w)
        counts[w] = counts.get(w, 0) + 1

    summands: dict[int, int] = {}
    while True:
        live = [w for w, c in counts.items() if c]
        if not live:
            break
        top = max(live)
        if top < 0:
            raise DecompositionError(
                f"{mod.name}: leftover weight {top} < 0 cannot head a summand"
            )
        for u in range(top, -top - 1, -2):
            if counts.get(u, 0) < 1:
                raise DecompositionError(
                    f"{mod.name}: peeling weight {top} needs weight {u} "
                    f"but its multiplicity is exhausted"
                )
            counts[u] -= 1
        summands[top] = summands.get(top, 0) + 1
    return Decomposition(summands)


# -- the explicit highest-weight transfer formula ------------------------------


@dataclass(frozen=True)
class Interpretation:
    """A reading of the transfer formula's basis subscripts.

    ``positions(m, n, p, k)`` gives the pair of basis positions (indexed
    from the highest-weight vector: position 0 is the top) used by term
    k of the sum.
    """

    ident: str
    positions: Callable[[int, int, int, int], tuple[int, int]]


def _weight_matched_positions(m: int, n: int, p: int, k: int) -> tuple[int, int]:
    # second factor at the written position n-p+k counted from the
    # lowest-weight end, i.e. p-k from the top; first factor pinned by
    # requiring total weight m+n-2p, i.e. position k from the top
    return (k, p - k)


WEIGHT_MATCHED = Interpretation("weight-matched-v1", _weight_matched_positions)


def phi_vector(
    m: int, n: int, p: int, interpretation: Interpretation = WEIGHT_MATCHED
) -> Vector:
    """Evaluate the explicit highest-weight transfer formula for
    F_m (x) F_n at depth p, in the quantum tensor module.

    The term-k coefficient is
        (-1)^(n-p) * [n-p+k]! [m-k]! / ([n-p]! [m]!) * v^((k-p)(2+m)+p^2-k^2+n)
    with the global sign taken as written (constant over k).  The raw
    coefficients are quotients that need not lie in the Laurent ring, so
    the returned vector is the formula multiplied through by the common
    denominator [m]!/[m-p]! = [m][m-1]...[m-p+1]; the cleared
    coefficients [n-p+k]!/[n-p]! * [m-k]!/[m-p]! are exact ring elements.
    The scaling and the subscript interpretation are recorded in the
    vector's note.
    """
    if m < 0 or n < 0:
        raise ValueError(f"need m, n >= 0, got ({m}, {n})")
    if not 0 <= p <= min(m, n):
        raise ValueError(f"need 0 <= p <= min(m, n) = {min(m, n)}, got p = {p}")

    module = tensor(finite_dim_quantum(m), finite_dim_quantum(n))
    sign = 1 if (n - p) % 2 == 0 else -1
    entries: dict = {}
    for k in range(p + 1):
        pos_a, pos_b = interpretation.positions(m, n, p, k)
        if not 0 <= pos_a <= m or not 0 <= pos_b <= n:
            raise ValueError(
                f"term k={k}: positions ({pos_a}, {pos_b}) fall outside "
                f"F_{m} (x) F_{n} under interpretation {interpretation.ident}"
            )
        coeff = LaurentPoly({(k - p) * (2 + m) + p * p - k * k + n: sign})
        for i in range(n - p + 1, n - p + k + 1):  # [n-p+k]!/[n-p]!
            coeff = coeff * q_int(i)
        for i in range(m - p + 1, m - k + 1):  # [m-k]!/[m-p]!
            coeff = coeff * q_int(i)
        lab = Label.tensor(Label.findim(pos_a), Label.findim(pos_b))
        entries[lab] = entries.get(lab, LaurentPoly()) + coeff

    note = f"interpretation={interpretation.ident};cleared-by=[{m}]!/[{m - p}]!"
    return Vector(module, entries, note=note)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing the transfer formula against the oracle.

    When proportional, ``scalar`` is the exact ratio (formula vector,
    after denominator clearing, divided by the normalized oracle
    vector).  Otherwise ``witness`` is (basis label, formula
    coefficient, oracle coefficient) at the first disagreeing position.
    ``oracle`` is the normalized oracle vector compared against.
    """

    proportional: bool
    scalar: LaurentPoly | None
    witness: tuple | None
    interpretation: str
    oracle: Vector

    def __post_init__(self):
        if self.proportional:
            assert self.scalar is not None and self.witness is None
        else:
            assert self.witness is not None


def phi_vs_oracle(
    m: int, n: int, p: int, interpretation: Interpretation = WEIGHT_MATCHED
) -> ComparisonReport:
    """Compare the transfer formula's vector with the nullspace oracle's
    highest-weight vector of weight m+n-2p.  Disagreement is a report
    outcome, not an error; an oracle that is not one vector raises
    NullspaceError."""
    phi = phi_vector(m, n, p, interpretation)
    module = phi.module
    oracle = highest_weight_vector(module, m + n - 2 * p)

    zero = module.flavor.zero
    ratio = None
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
