"""Tensor products, Clebsch-Gordan decomposition, and highest-weight
vector extraction for classical and quantum sl(2).

The decomposition F_m (x) F_n = F_{m+n} (+) ... (+) F_{|m-n|} is produced
three independent ways: the closed form, multiplicities c(w) - c(w+2) read
off the product of the factors' characters, and exact raising-operator
nullspaces, each certified annihilated and complete.  A rational bidiagonal
weight space (each space of F_m (x) F_n with a highest-weight vector) is
solved straight into its normal form, a quantum one of +-v^e [a] entries
by its cyclotomic factors, with no gcd; any other space by a rank mod p, then
one fraction-free (Bareiss) elimination on ints (over Q the numerators, over
Z[v, v^-1] the rows packed at v = 2^b) and its ring's normaliser.  The explicit
highest-weight transfer formula is adjudicated against the nullspace oracle, one
formula term per basis vector, both sides as factored scalars (sign, power of v, count
of each Phi_d; expanded as +-v^e times a cached product of Phi_d's), the outcome
reported as data.  Decomposition, Interpretation and ComparisonReport are frozen
records on modrep's ``Record`` base.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

from .modrep import QUANTUM, Flavor, Record, Vector, WeightModule, apply, finite_dim
from .qarith import LaurentPoly, _made, lp_gcd, primitive

__all__ = ["ComparisonReport", "Decomposition", "DecompositionError", "Interpretation", "NullspaceError",
           "WEIGHT_MATCHED", "cg_decompose", "decompose_by_character", "highest_weight_vector",
           "highest_weight_vectors", "phi_vector", "phi_vs_oracle", "tensor", "weight_spaces"]


class DecompositionError(ValueError):
    """Weight multiset is not that of a finite-dimensional module."""


class NullspaceError(ArithmeticError):
    """A raising-operator kernel failed a side of its certificate or its expected dimension."""


class Decomposition(Record):
    """Multiset of highest weights of the irreducible summands."""

    _fields = ("summands",)

    def __init__(self, summands: dict):  # highest weight (int) -> multiplicity (>= 1)
        for w, mult in summands.items():
            if mult < 1:
                raise ValueError(f"multiplicity of weight {w} must be >= 1, got {mult}")
        self.__dict__["summands"] = summands

    @property
    def total_dim(self) -> int:
        return sum(mult * (w + 1) for w, mult in self.summands.items())

    def pairs(self) -> list[tuple[int, int]]:
        """(weight, multiplicity) pairs, descending by weight."""
        return sorted(self.summands.items(), key=lambda t: -t[0])


# -- tensor products -----------------------------------------------------------


def _one_flavor(a: WeightModule, b: WeightModule) -> Flavor:
    """The flavour a and b share; ValueError if they differ, as no coproduct joins two flavours."""
    if a.flavor is not b.flavor:
        raise ValueError(f"cannot tensor a {a.flavor.name} and a {b.flavor.name} module")
    return a.flavor


def tensor(a: WeightModule, b: WeightModule, spaces=None) -> WeightModule:
    """Tensor product of two modules of one flavour under its coproduct.

    Each raising or lowering g acts by D(g) = g (x) right + left (x) g,
    where (right, left) = flavor.coproduct[g]; a twist acts on its
    factor by its eigenvalue on that factor's weight.  The columns are
    read from the factors' stored maps a.action[g] and b.action[g], so
    the module holds one label per basis vector and every stored key is
    a basis label.  The vector la (x) lb is named f"{la}*{lb}", in basis
    order a's basis then b's; ValueError if two of these names coincide.
    Given weights ``spaces``, any iterable read once, each label of a is paired with
    b's labels whose weights complete it into ``spaces``, from weight_spaces(b), in
    the same order; the cut holds the raising operator alone, all that a kernel and
    its certificate read, with an empty lowering map and every vector on the boundary.
    A twist is read where its entry lands and skipped where it is 1.
    """
    fl, wa, wb, one = _one_flavor(a, b), a.weights, b.weights, _made({0: 1})
    partners = dict.fromkeys(wa.values(), b.basis)  # a weight of a: b's labels to pair it with
    if spaces is not None:  # b's labels by weight, so a weight x of a looks up s - x for each s in spaces
        by_weight, spaces = weight_spaces(b), frozenset(spaces)
        for x in partners:
            got = []
            for s in spaces:
                got += by_weight.get(s - x, ())
            partners[x] = sorted(got, key=b.position) if len(got) > 1 else got  # in b's basis order
    at = {(la, lb): f"{la}*{lb}" for la in a.basis for lb in partners[wa[la]]}
    weights = {lab: wa[la] + wb[lb] for (la, lb), lab in at.items()}
    clipped = {lab for (la, lb), lab in at.items() if spaces is not None or la in a.boundary or lb in b.boundary}

    action: dict = {g: {} for g in fl.coproduct}
    for g in fl.coproduct if spaces is None else [fl.raising]:  # a cut builds the raising operator alone
        (right, left), ga, gb, empty, mat = fl.coproduct[g], a.action[g], b.action[g], {}, action[g]
        for (la, lb), lab in at.items():
            col, ca, cb = {}, ga.get(la, empty), gb.get(lb, empty)
            for ra, c in ca.items():
                if row := at.get((ra, lb)):
                    col[row] = c if right is None or (rt := fl.diagonal[right](wb[lb])) == one else c * rt
            for rb, c in cb.items():  # g shifts weights, so these rows never meet the ones above
                if row := at.get((la, rb)):
                    col[row] = c if left is None or (lt := fl.diagonal[left](wa[la])) == one else lt * c
            if col:
                mat[lab] = col

    den = 1 if a.den == b.den == 1 else None  # integral factors give integral entries: no rescaling
    return WeightModule(fl, f"T({a.name};{b.name})", at.values(), weights, action, clipped, den)


def weight_spaces(m: WeightModule) -> dict:
    """Partition of the basis by weight; each list in ambient order."""
    spaces: dict = {}
    for lab in m.basis:
        spaces.setdefault(m.weights[lab], []).append(lab)
    return spaces


# -- exact nullspaces: elimination, recurrence, rank mod p ---------------------


def _kernel_fraction_free(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Right kernel of an int matrix by one-step fraction-free Gauss-Jordan elimination, each
    division by the previous pivot an exact ``//``; pivots are taken column by column, top down,
    with no row swap but the forced ones.  One int vector per free column, in column order."""
    m, prev = [list(r) for r in rows], 1
    pivots: list[int] = []  # the pivot column of each row, top down
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        # every non-pivot row gets the one-step update, even where its f is
        # zero: the uniform rescaling keeps later divisions exact
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], m[r])]
        pivots.append(c)
        prev = p

    kernel = []
    for f in range(ncols):
        if f not in pivots:
            x = [0] * ncols
            x[f] = prev
            for i, c in enumerate(pivots):
                x[c] = -m[i][f]
            kernel.append(x)
    return kernel


def _packed_kernel(rows: list[list], ncols: int) -> list[list[LaurentPoly]]:
    """_kernel_fraction_free on Laurent rows by Kronecker substitution (von zur Gathen and Gerhard,
    Modern Computer Algebra, 8.4): each row times the unit d v^-low that makes it int polynomials,
    valued at v = 2^b, 2^(b-1) above the product of the nonzero rows' L1 norms, which bounds each
    coefficient of every minor: no nonzero minor vanishes, each division stays exact, _unpack decodes."""
    polys, norm = [], 1
    for row in rows:
        cs = [c._coeffs if type(c) is LaurentPoly else {0: c} for c in row]
        low = min([e for c in cs for e, a in c.items() if a], default=0)
        d = lcm(*[a.denominator for c in cs for a in c.values()])
        polys.append([{e - low: a.numerator * (d // a.denominator) for e, a in c.items() if a} for c in cs])
        norm *= sum([abs(a) for c in polys[-1] for a in c.values()]) or 1
    b = norm.bit_length() + 1
    ints = [[sum([a << b * e for e, a in c.items()]) for c in row] for row in polys]
    return [[_unpack(x, b) for x in vec] for vec in _kernel_fraction_free(ints, ncols)]


def _unpack(x: int, b: int) -> LaurentPoly:
    """The polynomial whose coefficient of v^i is the i-th balanced base-2^b digit of x, in [-2^(b-1), 2^(b-1)):

    >>> _unpack(8**2 - 3, 3)  # the digits -3, 0, 1
    LaurentPoly({0: -3, 2: 1})
    """
    coeffs, half = [], 1 << b - 1
    while x:
        coeffs.append(((x + half) & (2 * half - 1)) - half)
        x = (x - coeffs[-1]) >> b
    return _made(dict(enumerate(coeffs)))


@functools.cache
def _cyclotomic(d: int) -> LaurentPoly:
    """The d-th cyclotomic polynomial Phi_d: v^d - 1 over every Phi_e with e | d, e < d."""
    return LaurentPoly({d: 1, 0: -1}) / prod(_cyclotomic(e) for e in range(1, d) if d % e == 0)


def _q_int_factors(c):
    """The factored scalar (sign, power of v, {d: count of Phi_d}) of c if the nonzero c is +-v^e [a],
    its coefficients all 1 or all -1 on low, low+2, ..., low+2a-2, else None; each d >= 3 dividing 2a
    counts once, as [a] = v^(1-a) prod(Phi_d for d | 2a, d >= 3):

    >>> _q_int_factors(LaurentPoly({e: 1 for e in range(-5, 6, 2)}))  # [6] = v^-5 Phi_3 Phi_4 Phi_6 Phi_12
    (1, -5, {3: 1, 4: 1, 6: 1, 12: 1})
    """
    cs = c._coeffs if type(c) is LaurentPoly else {0: c}
    sign, a2 = cs[low := min(cs)], 2 * len(cs)
    if sign not in (1, -1) or any(cs.get(e) != sign for e in range(low + 2, low + a2, 2)):
        return None
    return sign, low, {d: 1 for d in range(3, a2 + 1) if a2 % d == 0}


@functools.lru_cache(maxsize=128)  # phi_vs_oracle over m, n <= 8 takes 100 counts
def _cyclotomic_product(counts: tuple) -> LaurentPoly:
    """prod Phi_d^k over the sorted (d, k) pairs counts, built once per counts (m, n <= 6 take 37)."""
    return prod([_cyclotomic(d) for d, k in counts for _ in range(k)], start=_made({0: 1}))


def _expand(x):
    """The Laurent polynomial of a factored scalar with no negative count (sign 0 is zero): +-v^e shifts
    the exponents of the shared product of its Phi_d's; any other x as is."""
    return x if type(x) is not tuple else _made({x[1]: x[0]}) * _cyclotomic_product(tuple(sorted(x[2].items())))


def _factored_kernel(rows: list[list]) -> list | None:
    """_normalize_laurent's kernel x_k = (-1)^k d_0..d_{k-1} s_k..s_{p-1} of bidiagonal rows as factored scalars
    (sign 0 past a zero d_k) if each nonzero entry is +-v^e [a], else None.  One walk holds x_k / x_0: 1, times
    -d_k / s_k per step; then the gcd, the least power of v and count of each monic irreducible Phi_d, goes."""
    d, s = ([row[r + j] and _q_int_factors(row[r + j]) for r, row in enumerate(rows)] for j in (0, 1))
    if None in d or None in s:
        return None
    xs, least = [(1, 0, {})], {}  # {e: the power of Phi_e}, 0 if absent; least[e]: its least power, where < 0
    for dk, sk in zip(d, s):
        if not dk:  # x_k = 0 past a zero d_k
            break
        sign, low, count = xs[-1]
        count = count.copy()
        for e in dk[2]:
            count[e] = count.get(e, 0) + 1
        for e in sk[2]:
            if (k := count.get(e, 0) - 1) < least.get(e, 0):
                least[e] = k
            count[e] = k
        xs.append((-sign * dk[0] * sk[0], low + dk[1] - sk[1], count))
    e0 = min(x[1] for x in xs)  # the least power of v; the last count holds every e met on the walk
    return [(sign, low - e0, {e: k for e in xs[-1][2] if (k := c.get(e, 0) - least.get(e, 0))})
            for sign, low, c in xs] + [(0, 0, {})] * (len(rows) + 1 - len(xs))


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


def _normalize_rational(coords: list[int]) -> list[Fraction]:
    """First nonzero coordinate scaled to 1."""
    lead = next(c for c in coords if c)
    return [Fraction(c, lead) for c in coords]


def _normalize_laurent(coords: list) -> list:
    """No common Laurent factor, coprime integer coefficients, positive
    leading coefficient in the first nonzero coordinate."""
    nonzero = [c for c in coords if c]
    g = nonzero[0]
    for c in nonzero[1:]:
        g = lp_gcd(g, c)
    return primitive([c.div_exact(g) if c else c for c in coords])


def _kernel(rows: list[list], ncols: int, ring: type) -> list:
    """Right kernel of rows (ncols columns) over ring, Fraction (rows of ints) or LaurentPoly,
    proven complete, each vector in that ring's normal form.  A p x (p+1) bidiagonal matrix with
    every s_r nonzero has rank p (columns 1..p are triangular): over Fraction x_0 = 1 and
    x_{k+1} = -x_k d_k / s_k, one Fraction of two int products each; over LaurentPoly
    _factored_kernel's factored vector if it applies.  Otherwise a rank of ncols at v0 mod prime
    proves the kernel is 0; else the int elimination's vectors (of _packed_kernel's ints over
    LaurentPoly) must be independent there and as many as the nullity there, at the first
    (v0, prime) or the second; NullspaceError if at neither."""
    if len(rows) == ncols - 1 and all(
            row[r + 1] and not any(row[:r] + row[r + 2:]) for r, row in enumerate(rows)):
        if ring is not LaurentPoly:  # x_k = num / den on int products, one Fraction each
            num, den, x = 1, 1, [ring(1)]
            for k, row in enumerate(rows):
                x.append(ring(num := -num * row[k], den := den * row[k + 1]))
            return [x]
        if x := _factored_kernel(rows):
            return [x]
    normalize = _normalize_laurent if ring is LaurentPoly else _normalize_rational
    kernel = nullity = None
    for v0, prime in _SPECIALIZATIONS:
        try:
            nullity = ncols - _rank_mod(rows, v0, prime)
        except ValueError:  # a denominator of rows vanishes mod prime
            continue
        if kernel is None:
            if not nullity:
                return []
            kernel = (_packed_kernel if ring is LaurentPoly else _kernel_fraction_free)(rows, ncols)  # int minors
        if len(kernel) == nullity == _rank_mod(kernel, v0, prime):
            return [normalize(x) for x in kernel]
    raise NullspaceError(f"kernel not proven complete: {len(kernel or ())} vectors, nullity {nullity} mod p")


def highest_weight_vectors(m: WeightModule, weight=None) -> list[tuple[object, Vector]]:
    """Exact basis of raising-operator kernels, one weight space at a time;
    only the space of ``weight`` when it is given (none if m lacks it).

    The contract, per weight space: its vectors are the reduced-row-echelon
    basis of the kernel of e (resp. E) restricted to that space (columns:
    the space's basis in ambient order), one vector per free column in
    column order, each with 1 at its own free column and 0 at the other
    free columns, then scaled to the normal form of the module's ring
    (Fraction: first nonzero coordinate in ambient order is 1;
    LaurentPoly: no common Laurent factor, coprime integer coefficients,
    positive leading coefficient in the first nonzero entry).
    Normalisation removes every scalar factor, so any exact method
    yielding these vectors up to ring scalars meets it; here it is
    ``_kernel``, proven complete, on the stored numerators (over Q den times the matrix, with
    the same kernel), which solves a rational bidiagonal space straight into its normal form, a
    quantum one of +-v^e [a] entries by cyclotomic factors, kept beside the expansion, with no gcd,
    any other by a rank mod p, one int elimination (Laurent rows packed at v = 2^b) and the ring's
    normaliser; the raising operator must take every returned vector to exactly zero, over Q checked
    as D x for the lcm D of x's denominators (E.(D x) = D (E.x), on ints).  Output by descending weight.
    """
    raising, ring = m.flavor.raising, m.flavor.ring
    up = m.num_action[raising]
    spaces = weight_spaces(m)
    asked = sorted(spaces, reverse=True) if weight is None else [w for w in spaces if w == weight]
    out = []
    for w in asked:
        source = spaces[w]
        target = spaces.get(w + 2, [])
        tpos = {lab: i for i, lab in enumerate(target)}
        rows = [[0] * len(source) for _ in target]
        for j, src in enumerate(source):
            for row_lab, c in up.get(src, {}).items():
                rows[tpos[row_lab]][j] = c
        for coords in _kernel(rows, len(source), ring):
            vec = _KernelVector(m, dict(zip(source, map(_expand, coords))))
            vec.factored = {lab: x for lab, x in zip(source, coords) if x[0]} if type(coords[0]) is tuple else None
            scaled = vec if ring is LaurentPoly else Vector(m, {  # over Q, D x: the certificate on ints
                lab: c.numerator * (d // c.denominator) for d in [lcm(*[c.denominator for c in coords])]
                for lab, c in vec.entries.items()})
            if not apply(m, raising, scaled).is_zero():
                raise NullspaceError(f"nullspace certificate failed at weight {w} of {m.name}")
            out.append((w, vec))
    return out


class _KernelVector(Vector):
    __slots__ = ("factored",)  # its nonzero coordinates by label as _factored_kernel gave them, else None


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
    """Decomposition of mod (x) others... read off its character.

    A character is multiplicative: the product's {weight: multiplicity}
    counts c are the convolution of the factors', so no tensor module is
    built.  They are those of a sum of F_n's exactly when c(-w) = c(w) and
    c(w) >= c(w+2) for every w >= 0; F_w then occurs c(w) - c(w+2) times
    (Humphreys, Introduction to Lie Algebras, section 7).  Raises tensor()'s
    ValueError on factors of two flavours, and DecompositionError, naming
    the product as tensor() would, on a non-integral weight or on counts
    that fail the condition.
    """
    product, name = {0: 1}, None  # the trivial module's character
    for factor in (mod, *others):
        _one_flavor(mod, factor)
        weights = [factor.weights[lab] for lab in factor.basis]  # basis order: errors match tensor()'s
        acc: dict = {}
        for wa, ca in product.items():
            for wb in weights:
                acc[wa + wb] = acc.get(wa + wb, 0) + ca
        product, name = acc, factor.name if name is None else f"T({name};{factor.name})"
    c: Counter = Counter()  # c[w] is 0 for an absent weight w, and stays absent
    for w, n in product.items():
        if w.denominator != 1:  # weights are ints or Fractions
            raise DecompositionError(f"non-integral weight {w} in {name}")
        c[int(w)] = n
    top = max(c, default=0)
    if any(c[w] != c[-w] for w in c) or any(c[w] < c[w + 2] for w in range(top)):
        raise DecompositionError(
            f"{name}: weight counts {dict(sorted(c.items()))} are not those of a sum of F_n's")
    return Decomposition({w: c[w] - c[w + 2] for w in range(top, -1, -1) if c[w] > c[w + 2]})


# -- the explicit highest-weight transfer formula ------------------------------


class Interpretation(Record):
    """A reading of the transfer formula's basis subscripts.

    ``positions(m, n, p, k)`` gives the pair of basis positions (indexed
    from the highest-weight vector: position 0 is the top) used by term
    k of the sum, one term per basis vector: phi_vector refuses two terms on
    one with ValueError, as it refuses a position outside F_m (x) F_n.
    """

    _fields = ("ident", "positions")


def _weight_matched_positions(m: int, n: int, p: int, k: int) -> tuple[int, int]:
    # second factor at the written position n-p+k counted from the
    # lowest-weight end, i.e. p-k from the top; first factor pinned by
    # requiring total weight m+n-2p, i.e. position k from the top
    return (k, p - k)


WEIGHT_MATCHED = Interpretation("weight-matched-v1", _weight_matched_positions)


@functools.lru_cache(maxsize=32)
def _finite_dim(n: int, flavor: Flavor) -> WeightModule:
    """F_n, shared by the callers that only read it; finite_dim builds a new one."""
    return finite_dim(n, flavor)


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
    coefficients [n-p+k]!/[n-p]! * [m-k]!/[m-p]! are exact ring elements,
    each built factored, then expanded, one term per basis vector: a reading
    that puts two on one raises ValueError.  phi_vs_oracle records the reading.
    """
    module, terms = _phi_terms(m, n, p, interpretation)
    return Vector(module, {lab: _expand(c) for lab, c in terms.items()})


def _phi_terms(m: int, n: int, p: int, interpretation: Interpretation) -> tuple:
    """phi_vector's module and factored term by label; ValueError, before any tensor is built, on a shared label."""
    if m < 0 or n < 0:
        raise ValueError(f"need m, n >= 0, got ({m}, {n})")
    if not 0 <= p <= min(m, n):
        raise ValueError(f"need 0 <= p <= min(m, n) = {min(m, n)}, got p = {p}")

    fa, fb = _finite_dim(m, QUANTUM), _finite_dim(n, QUANTUM)
    spaces = {m + n - 2 * p, m + n - 2 * p + 2}  # the oracle's weight space and its image under E
    sign = 1 if (n - p) % 2 == 0 else -1
    terms: dict = {}
    for k in range(p + 1):
        pos_a, pos_b = interpretation.positions(m, n, p, k)
        if not 0 <= pos_a <= m or not 0 <= pos_b <= n:
            raise ValueError(f"term k={k}: positions ({pos_a}, {pos_b}) fall outside "
                             f"F_{m} (x) F_{n} under interpretation {interpretation.ident}")
        la, lb = fa.basis[pos_a], fb.basis[pos_b]
        lab = f"{la}*{lb}"  # tensor's name for w_{pos_a} (x) w_{pos_b}
        if lab in terms:  # term j is the j-th key
            raise ValueError(f"terms k={list(terms).index(lab)} and k={k} share positions ({pos_a}, {pos_b}) of "
                             f"F_{m} (x) F_{n} under interpretation {interpretation.ident}")
        spaces.add(fa.weights[la] + fb.weights[lb])  # a reading may leave weight m+n-2p, and builds that space too
        # [n-p+k]!/[n-p]! times [m-k]!/[m-p]!: v^(1-a) for each [a], and Phi_d for each a that d/gcd(d, 2) divides
        bracket = [*range(n - p + 1, n - p + k + 1), *range(m - p + 1, m - k + 1)]
        terms[lab] = (sign, (k - p) * (2 + m) + p * p - k * k + n + sum(1 - a for a in bracket), {
            d: c for d in range(3, 2 * max(m, n) + 1)
            if (c := (n - p + k) // (e := d // gcd(d, 2)) - (n - p) // e + (m - k) // e - (m - p) // e)})

    return tensor(fa, fb, spaces), terms


class ComparisonReport(Record):
    """Outcome of comparing the transfer formula against the oracle.

    When proportional, ``scalar`` is the exact ratio (formula vector,
    after denominator clearing, divided by the normalized oracle
    vector).  Otherwise ``witness`` is (basis label, formula
    coefficient, oracle coefficient) at the first disagreeing position.
    ``oracle`` is the normalized oracle vector compared against.
    """

    _fields = ("proportional", "scalar", "witness", "interpretation", "oracle")

    def __init__(self, proportional: bool, scalar: LaurentPoly | None, witness: tuple | None,
                 interpretation: str, oracle: Vector):
        assert (scalar is not None and witness is None) if proportional else witness is not None
        self.__dict__.update(proportional=proportional, scalar=scalar, witness=witness,
                             interpretation=interpretation, oracle=oracle)


def phi_vs_oracle(
    m: int, n: int, p: int, interpretation: Interpretation = WEIGHT_MATCHED
) -> ComparisonReport:
    """Compare the transfer formula's vector with the nullspace oracle's
    highest-weight vector of weight m+n-2p.  Disagreement is a report
    outcome, not an error; an oracle that is not one vector raises
    NullspaceError.  Both sides stay factored, one formula term per label: in basis order,
    the quotient formula / oracle must lie in the ring (no count negative) at the first
    label of their support and be the same at each other; only what is reported is expanded."""
    module, terms = _phi_terms(m, n, p, interpretation)
    oracle = highest_weight_vector(module, m + n - 2 * p)
    ratio = None
    for lab in module.basis:
        a, b = terms.get(lab), oracle.factored.get(lab)
        if a or b:
            q = a and b and _over(a, b)
            if not q or ratio and q != ratio:
                witness = (lab, *(_expand(x) if x else _made({}) for x in (a, oracle.entries.get(lab))))
                return ComparisonReport(False, None, witness, interpretation.ident, oracle)
            ratio = ratio or q
    return ComparisonReport(True, _expand(ratio), None, interpretation.ident, oracle)


def _over(a: tuple, b: tuple):
    """a / b for a formula term a and an oracle coordinate b, both factored, if it lies in the ring, else None."""
    counts = {d: k for d in a[2].keys() | b[2].keys() if (k := a[2].get(d, 0) - b[2].get(d, 0))}
    return (a[0] * b[0], a[1] - b[1], counts) if min(counts.values(), default=0) >= 0 else None
