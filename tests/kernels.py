"""Reference kernel solvers for the differential tests.

The engine runs one fraction-free elimination, on ints: over Q on the
int numerators, over Q[v, v^-1] on the rows packed into ints at v = 2^b
(Kronecker substitution), each division an exact ``//``; and it walks the
factored bidiagonal kernel once.  These are the direct forms it replaced,
kept unchanged so that the tests can compare the two: fraction-free
elimination on the ring's own values, each division ``/`` in the ring (the
one elimination over Laurent polynomials in the repository), and a factored
kernel that counts each coordinate's cyclotomic factors from scratch.
The engine's factored kernel keeps its coordinates factored; ``expanded``
multiplies them out for the comparison.  The engine reads each product of
Phi_d's from a cache and tests +-v^e [a] on the stored coefficients;
``expand`` and ``q_int_factors`` are the uncached product and the sorted
term list they replaced.
"""

import functools
from collections import Counter
from math import prod

from qsl2.qarith import LaurentPoly
from qsl2.tensorcg import _cyclotomic, _expand, _q_int_factors


def kernel_fraction_free(rows: list[list], ncols: int, ring: type):
    """Right kernel of rows by one-step fraction-free Gauss-Jordan elimination,
    every division ``/`` in ``ring`` (Fraction or LaurentPoly); one vector per
    free column, in column order, every entry of type ``ring``."""
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


def factored_kernel(rows: list[list]) -> list | None:
    """The normalised kernel x_k = (-1)^k d_0..d_{k-1} s_k..s_{p-1} of bidiagonal rows
    whose nonzero entries are each +-v^e [a], else None; one Counter of cyclotomic
    factors built per coordinate, the least counts and power of v divided out."""
    d, s = ([row[r + j] and _q_int_factors(row[r + j]) for r, row in enumerate(rows)] for j in (0, 1))
    if None in d or None in s:
        return None
    live = next((r + 1 for r, f in enumerate(d) if not f), len(rows) + 1)  # x_k = 0 past a zero d_r
    xs = [[((-1) ** k, 0, ())] + d[:k] + s[k:] for k in range(live)]
    signs, lows = [prod(f[0] for f in x) for x in xs], [sum(f[1] for f in x) for x in xs]
    counts = [Counter(e for f in x for e in f[2]) for x in xs]
    common, e0, lead = functools.reduce(Counter.__and__, counts), min(lows), signs[0]
    return [prod(map(_cyclotomic, (c - common).elements()), start=LaurentPoly({low - e0: sign * lead}))
            for sign, low, c in zip(signs, lows, counts)] + [LaurentPoly()] * (len(rows) + 1 - live)


def expanded(kernel: list) -> list:
    """Kernel vectors with every coordinate in factored form (sign, power of v, counts of Phi_d)
    multiplied out to a Laurent polynomial; any other coordinate as it is."""
    return [[_expand(c) for c in x] for x in kernel]


def expand(x):
    """A factored scalar (sign, power of v, {d: count of Phi_d}) multiplied out, one Phi_d at a time
    onto a validated +-v^e; any other x as is."""
    return x if type(x) is not tuple else prod(
        [_cyclotomic(d) for d, k in x[2].items() for _ in range(k)], start=LaurentPoly({x[1]: x[0]}))


def q_int_factors(c):
    """The factored scalar of a nonzero c that is +-v^e [a], else None, read off its sorted term list."""
    terms = list(c.terms()) if isinstance(c, LaurentPoly) else [(0, c)]
    (low, sign), a2 = terms[0], 2 * len(terms)
    if sign not in (1, -1) or terms != [(low + 2 * i, sign) for i in range(len(terms))]:
        return None
    return sign, low, {d: 1 for d in range(3, a2 + 1) if a2 % d == 0}
