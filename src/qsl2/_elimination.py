"""The general route of tensorcg._kernel, loaded on first use as no CLI request takes it: a rank mod p, then
one fraction-free (Bareiss) elimination on ints (over Q the numerators, over Z[v, v^-1] the rows packed at
v = 2^b) and its ring's normaliser, for a space neither rational bidiagonal nor quantum of +-v^e [a] entries."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .qarith import LaurentPoly, _made, lp_gcd, primitive
from .tensorcg import NullspaceError


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


def certified_kernel(rows: list[list], ncols: int, ring: type) -> list:
    """The kernel in its ring's normal form: a rank of ncols at v0 mod prime proves it 0; else the int
    elimination's vectors (of _packed_kernel's ints over LaurentPoly) must be independent there and as many
    as the nullity there, at the first (v0, prime) or the second; NullspaceError if at neither."""
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
