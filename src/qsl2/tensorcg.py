"""Tensor products, Clebsch-Gordan decomposition, and highest-weight
vector extraction for classical and quantum sl(2).

The decomposition F_m (x) F_n = F_{m+n} (+) ... (+) F_{|m-n|} is produced
three independent ways: the closed form, character peeling on the product
of the factors' characters, and exact raising-operator nullspaces: a
product recurrence on a bidiagonal weight space (each space of F_m (x) F_n
that holds a highest-weight vector), fraction-free (Bareiss) elimination
on any other.  Each kernel is certified annihilated and complete.  A
quantum recurrence of +-v^e [a] entries is normalised by its cyclotomic
factors, with no gcd; any other kernel takes the flavour's normaliser.
The explicit highest-weight transfer formula, evaluated verbatim with
exact q-factorial coefficients, is adjudicated against the nullspace
oracle and the outcome reported as data.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Callable

from .modrep import QUANTUM, Flavor, Vector, WeightModule, apply, finite_dim_classical, finite_dim_quantum
from .qarith import ExactDivisionError, LaurentPoly, q_int


class DecompositionError(ValueError):
    """Weight multiset is not that of a finite-dimensional module."""


class NullspaceError(ArithmeticError):
    """A raising-operator kernel failed a side of its certificate or its expected dimension."""


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


def tensor(a: WeightModule, b: WeightModule, spaces=None) -> WeightModule:
    """Tensor product of two modules of one flavour under its coproduct.

    Each raising or lowering g acts by D(g) = g (x) right + left (x) g,
    where (right, left) = flavor.coproduct[g]; a twist acts on its
    factor by its eigenvalue on that factor's weight.  The columns are
    read from the factors' stored maps a.action[g] and b.action[g], so
    the module holds one label per basis vector and every stored key is
    a basis label.  The vector la (x) lb is named f"{la}*{lb}", in basis
    order a's basis then b's; ValueError if two of these names coincide.
    Given a set of weights ``spaces``, only the vectors of those weights
    are built, in the same order; an entry whose row falls outside them
    is dropped and its column marked boundary, as a truncation is.
    """
    if a.flavor is not b.flavor:
        raise ValueError(f"cannot tensor a {a.flavor.name} and a {b.flavor.name} module")
    fl, one = a.flavor, a.flavor.ring(1)
    wa, wb = a.weights, b.weights
    at = {(la, lb): f"{la}*{lb}" for la in a.basis for lb in b.basis
          if spaces is None or wa[la] + wb[lb] in spaces}
    weights = {lab: wa[la] + wb[lb] for (la, lb), lab in at.items()}
    clipped = {lab for (la, lb), lab in at.items() if la in a.boundary or lb in b.boundary}

    def twists(m, gen):  # eigenvalue of a twist on each basis vector of m, kept where it is not 1
        return {lab: t for lab in m.basis if gen and (t := fl.diagonal[gen](m.weights[lab])) != one}

    action: dict = {}
    for g, (right, left) in fl.coproduct.items():
        ga, gb, rts, lts = a.action[g], b.action[g], twists(b, right), twists(a, left)
        mat = action[g] = {}
        for (la, lb), lab in at.items():
            rt, lt, ca, cb = rts.get(lb), lts.get(la), ga.get(la, {}), gb.get(lb, {})
            col = {row: c if rt is None else c * rt for ra, c in ca.items() if (row := at.get((ra, lb)))}
            # g shifts weights, so these rows never meet the ones above
            col.update({row: c if lt is None else lt * c for rb, c in cb.items() if (row := at.get((la, rb)))})
            if len(col) < len(ca) + len(cb):
                clipped.add(lab)
            if col:
                mat[lab] = col

    return WeightModule(fl, f"T({a.name};{b.name})", at.values(), weights, action, boundary=clipped)


def weight_spaces(m: WeightModule) -> dict:
    """Partition of the basis by weight; each list in ambient order."""
    spaces: dict = {}
    for lab in m.basis:
        spaces.setdefault(m.weights[lab], []).append(lab)
    return spaces


# -- exact nullspaces: elimination, recurrence, rank mod p ---------------------


def _kernel_fraction_free(rows: list[list], ncols: int, ring: type):
    """Right kernel of a matrix over the exact integral domain ``ring``
    (Fraction or LaurentPoly), whose entries may also be plain ints.

    One-step fraction-free Gauss-Jordan elimination: every division is
    by the previous pivot and is exact in the ring, so entries never
    leave it.  Pivoting scans columns left to right and rows top down;
    no reordering beyond the forced swaps, so results are deterministic.
    Returns kernel vectors (one per free column, in column order) whose
    entries are all of type ``ring``: ``ring(c)`` lifts a leftover int.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[tuple[int, int]] = []  # (row, col)
    prev = ring(1)
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
        # every non-pivot row gets the one-step update, even where its f is
        # zero: the uniform rescaling keeps later divisions exact
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) / prev for x, y in zip(m[i], m[r])]
        pivots.append((r, c))
        prev = p
        r += 1

    pivot_cols = {c for _, c in pivots}
    kernel = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        x = [ring()] * ncols
        x[f] = prev
        for i, c in pivots:
            x[c] = -m[i][f]
        kernel.append([c if type(c) is ring else ring(c) for c in x])
    return kernel


def _bidiagonal_kernel(rows: list[list], ring: type) -> list:
    """The kernel vector x_k = (-1)^k d_0..d_{k-1} s_k..s_{p-1} of a p x (p+1)
    matrix whose row r holds only d_r at column r and s_r at column r+1.

    >>> _bidiagonal_kernel([[2, 5]], int)  # [[d, s]]
    [5, -2]
    """
    p = len(rows)
    suffix = [ring(1)] * (p + 1)  # suffix[k] = s_k..s_{p-1}
    for k in range(p - 1, -1, -1):
        suffix[k] = rows[k][k + 1] * suffix[k + 1]
    x, prefix = [], ring(1)  # prefix = d_0..d_{k-1}
    for k in range(p + 1):
        x.append(prefix * suffix[k] if k % 2 == 0 else -(prefix * suffix[k]))
        if k < p:
            prefix = prefix * rows[k][k]
    return x


@functools.cache
def _cyclotomic(d: int) -> LaurentPoly:
    """The d-th cyclotomic polynomial Phi_d: v^d - 1 over every Phi_e with e | d, e < d."""
    return LaurentPoly({d: 1, 0: -1}) / prod(_cyclotomic(e) for e in range(1, d) if d % e == 0)


def _q_int_factors(c):
    """(sign, low, ds) with c = sign v^low prod(Phi_d for d in ds) if the nonzero c is
    +-v^e [a], its coefficients all 1 or all -1 on low, low+2, ..., low+2a-2, else None;
    ds are the d >= 3 dividing 2a, as [a] = v^(1-a) prod(Phi_d for d | 2a, d >= 3):

    >>> _q_int_factors(q_int(6))  # [6] = v^-5 Phi_3 Phi_4 Phi_6 Phi_12
    (1, -5, [3, 4, 6, 12])
    """
    terms = list(c.terms()) if isinstance(c, LaurentPoly) else [(0, c)]
    (low, sign), a2 = terms[0], 2 * len(terms)
    if sign not in (1, -1) or terms != [(low + 2 * i, sign) for i in range(len(terms))]:
        return None
    return sign, low, [d for d in range(3, a2 + 1) if a2 % d == 0]


def _factored_kernel(rows: list[list]) -> list | None:
    """QUANTUM.normalize of _bidiagonal_kernel(rows) if every nonzero entry is +-v^e [a],
    else None: a coordinate is a sign, a power of v and a count of each Phi_d until the
    gcd, the least power and counts, is divided out; each Phi_d is monic, irreducible, primitive."""
    d, s = ([row[r + j] and _q_int_factors(row[r + j]) for r, row in enumerate(rows)] for j in (0, 1))
    if None in d or None in s:
        return None
    live = next((r + 1 for r, f in enumerate(d) if not f), len(rows) + 1)  # x_k = 0 past a zero d_r
    xs = [[((-1) ** k, 0, ())] + d[:k] + s[k:] for k in range(live)]  # x_k = (-1)^k d_0..d_{k-1} s_k..s_{p-1}
    signs, lows = [prod(f[0] for f in x) for x in xs], [sum(f[1] for f in x) for x in xs]
    counts = [Counter(e for f in x for e in f[2]) for x in xs]
    common, e0, lead = functools.reduce(Counter.__and__, counts), min(lows), signs[0]
    return [prod(map(_cyclotomic, (c - common).elements()), start=LaurentPoly({low - e0: sign * lead}))
            for sign, low, c in zip(signs, lows, counts)] + [LaurentPoly()] * (len(rows) + 1 - live)


# (v0, prime): v -> v0 mod prime can only lower a rank; 65537 is no small root, as 3 may be
_SPECIALIZATIONS = ((3, 2**61 - 1), (65537, 2**89 - 1))


def _rank_mod(rows: list[list], v0: int, prime: int) -> int:
    """Rank of rows at v = v0 over GF(prime); ValueError if a denominator vanishes there."""

    def at(c):
        if isinstance(c, LaurentPoly):
            return sum(at(a) * pow(v0, e, prime) for e, a in c.terms())
        return c % prime if type(c) is int else c.numerator * pow(c.denominator, -1, prime)

    m, rank = [[at(c) % prime for c in row] for row in rows], 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is not None:
            m[rank], m[piv] = m[piv], m[rank]
            inv = pow(m[rank][c], -1, prime)
            for i in range(rank + 1, len(m)):
                if f := m[i][c] * inv % prime:
                    m[i] = [(a - f * b) % prime for a, b in zip(m[i], m[rank])]
            rank += 1
    return rank


def _kernel(rows: list[list], ncols: int, flavor: Flavor) -> list:
    """Right kernel of rows (ncols columns), proven complete, each vector
    scaled by flavor.normalize.  A p x (p+1) bidiagonal matrix with every
    s_r nonzero has rank p (columns 1..p are triangular), so its recurrence
    vector spans the kernel; _factored_kernel normalises it for QUANTUM.
    Otherwise a rank of ncols at v0 mod prime proves the kernel is 0; else
    Bareiss's vectors must be independent there and as many as the nullity
    there, at the first (v0, prime) or the second; NullspaceError if at neither."""
    if len(rows) == ncols - 1 and all(
            row[r + 1] and not any(row[:r] + row[r + 2:]) for r, row in enumerate(rows)):
        factored = _factored_kernel(rows) if flavor.normalize is QUANTUM.normalize else None
        return [factored or flavor.normalize(_bidiagonal_kernel(rows, flavor.ring))]
    kernel = nullity = None
    for v0, prime in _SPECIALIZATIONS:
        try:
            nullity = ncols - _rank_mod(rows, v0, prime)
        except ValueError:  # a denominator of rows vanishes mod prime
            continue
        if kernel is None:
            if not nullity:
                return []
            kernel = _kernel_fraction_free(rows, ncols, flavor.ring)  # minors of rows: no new denominator
        if len(kernel) == nullity == _rank_mod(kernel, v0, prime):
            return [flavor.normalize(x) for x in kernel]
    raise NullspaceError(f"kernel not proven complete: {len(kernel or ())} vectors, nullity {nullity} mod p")


def highest_weight_vectors(m: WeightModule, weight=None) -> list[tuple[object, Vector]]:
    """Exact basis of raising-operator kernels, one weight space at a time;
    only the space of ``weight`` when it is given (none if m lacks it).

    The contract, per weight space: its vectors are the reduced-row-echelon
    basis of the kernel of e (resp. E) restricted to that space (columns:
    the space's basis in ambient order), one vector per free column in
    column order, each with 1 at its own free column and 0 at the other
    free columns, then scaled by
    ``m.flavor.normalize`` (classical: first nonzero coordinate in
    ambient order is 1; quantum: no common Laurent factor, coprime
    integer coefficients, positive leading coefficient in the first
    nonzero entry).  Normalisation removes every scalar factor, so any
    exact method yielding these vectors up to ring scalars meets it;
    here it is ``_kernel``, proven complete, which normalises a quantum
    bidiagonal space of +-v^e [a] entries by cyclotomic factors, with no gcd,
    and any other by the flavour; the raising operator must take every
    returned vector to exactly zero.  Output is ordered by descending weight.
    """
    raising, ring = m.flavor.raising, m.flavor.ring
    up = m.action[raising]
    spaces = weight_spaces(m)
    asked = sorted(spaces, reverse=True) if weight is None else [w for w in spaces if w == weight]
    out = []
    for w in asked:
        source = spaces[w]
        target = spaces.get(w + 2, [])
        tpos = {lab: i for i, lab in enumerate(target)}
        rows = [[ring()] * len(source) for _ in target]
        for j, src in enumerate(source):
            for row_lab, c in up.get(src, {}).items():
                rows[tpos[row_lab]][j] = c
        for coords in _kernel(rows, len(source), m.flavor):
            vec = Vector(m, dict(zip(source, coords)))
            if not apply(m, raising, vec).is_zero():
                raise NullspaceError(f"nullspace certificate failed at weight {w} of {m.name}")
            out.append((w, vec))
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


def decompose_by_character(mod: WeightModule, *others: WeightModule) -> Decomposition:
    """Decomposition of mod (x) others... by greedy peeling of its character.

    A character is multiplicative: the product's {weight: multiplicity}
    counts are the convolution of the factors', so no tensor module is
    built.  Each step removes the character of the summand with the
    largest remaining weight.  Raises DecompositionError, naming the
    product as tensor() would, on a non-integral weight, a negative top
    weight or a residue that cannot be peeled.
    """
    product, name = {0: 1}, None  # the trivial module's character
    for factor in (mod, *others):
        weights = [factor.weights[lab] for lab in factor.basis]  # basis order: errors match tensor()'s
        acc: dict = {}
        for wa, ca in product.items():
            for wb in weights:
                acc[wa + wb] = acc.get(wa + wb, 0) + ca
        product, name = acc, factor.name if name is None else f"T({name};{factor.name})"
    counts: dict[int, int] = {}
    for w, c in product.items():
        if w.denominator != 1:  # weights are ints or Fractions
            raise DecompositionError(f"non-integral weight {w} in {name}")
        counts[int(w)] = c

    summands: dict[int, int] = {}
    while live := [w for w, c in counts.items() if c]:
        top = max(live)
        if top < 0:
            raise DecompositionError(f"{name}: leftover weight {top} < 0 cannot head a summand")
        for u in range(top, -top - 1, -2):
            if counts.get(u, 0) < 1:
                raise DecompositionError(
                    f"{name}: peeling weight {top} needs weight {u} but its multiplicity is exhausted")
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


@functools.lru_cache(maxsize=32)
def _finite_dim(n: int, quantum: bool) -> WeightModule:
    """F_n, shared by the hwv callers, which only read it; the public constructors build a new one."""
    return finite_dim_quantum(n) if quantum else finite_dim_classical(n)


def phi_vector(
    m: int, n: int, p: int, interpretation: Interpretation = WEIGHT_MATCHED
) -> Vector:
    """Evaluate the explicit highest-weight transfer formula for
    F_m (x) F_n at depth p, in the quantum tensor module built on the
    weights m+n-2p, m+n-2p+2 and those of the labels the reading names.

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

    fa, fb = _finite_dim(m, True), _finite_dim(n, True)
    spaces = {m + n - 2 * p, m + n - 2 * p + 2}  # the oracle's weight space and its image under E
    sign = 1 if (n - p) % 2 == 0 else -1
    entries: dict = {}
    for k in range(p + 1):
        pos_a, pos_b = interpretation.positions(m, n, p, k)
        if not 0 <= pos_a <= m or not 0 <= pos_b <= n:
            raise ValueError(
                f"term k={k}: positions ({pos_a}, {pos_b}) fall outside "
                f"F_{m} (x) F_{n} under interpretation {interpretation.ident}"
            )
        # [n-p+k]!/[n-p]! times [m-k]!/[m-p]!
        coeff = prod(map(q_int, [*range(n - p + 1, n - p + k + 1), *range(m - p + 1, m - k + 1)]),
                     start=LaurentPoly({(k - p) * (2 + m) + p * p - k * k + n: sign}))
        la, lb = fa.basis[pos_a], fb.basis[pos_b]
        spaces.add(fa.weights[la] + fb.weights[lb])  # a reading may leave weight m+n-2p
        lab = f"{la}*{lb}"  # tensor's name for w_{pos_a} (x) w_{pos_b}
        entries[lab] = entries.get(lab, LaurentPoly()) + coeff

    module = tensor(fa, fb, spaces)
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

    zero = module.flavor.ring()
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
