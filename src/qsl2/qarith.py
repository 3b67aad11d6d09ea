"""Exact arithmetic in the Laurent polynomial ring Q[v, v^-1].

Scalars for the quantum side of the package: Laurent polynomials in the
quantum parameter v with exact rational coefficients, balanced q-integers
[n] = v^(n-1) + v^(n-3) + ... + v^(1-n), q-factorials and q-binomials.
There is no floating point and no rounding anywhere; every operation is
exact and every value is immutable.  [n] and [n]! for |n| <= 16 are
memoised: built once per process, and every call returns that value.

A coefficient is stored in canonical form: a Python ``int`` when it is
integral, a standard-library ``fractions.Fraction`` (arbitrary
precision, lowest terms, positive denominator) only when it is not.
Integer data, such as every q-integer, never builds a Fraction.  Ring results
are built canonical with no re-validation; a monomial factor shifts exponents.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import index

__all__ = ["ExactDivisionError", "LaurentPoly", "lp_gcd", "q_binom", "q_fact", "q_facts", "q_int", "specialize_one", "v"]


class ExactDivisionError(ArithmeticError):
    """No exact quotient exists in the Laurent ring."""


def _as_coeff(x) -> int | Fraction:
    """x in canonical form: int when integral, Fraction otherwise."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


class LaurentPoly:
    """Laurent polynomial in v over the rationals.

    Canonical form: zero coefficients are never stored, the zero
    polynomial is the empty coefficient map, and a coefficient is an
    ``int`` when it is integral and a ``Fraction`` only when it is not,
    so ``==`` is structural.  Instances are immutable and hashable.
    Plain ints and Fractions mix freely in arithmetic and compare equal
    to constant polynomials.

    >>> v = LaurentPoly.gen()
    >>> (v + v**-1) * (v - v**-1) == v**2 - v**-2
    True
    >>> LaurentPoly({0: Fraction(4, 2), 1: Fraction(1, 2)})
    LaurentPoly({0: 2, 1: Fraction(1, 2)})
    >>> (2 * v) ** -1
    LaurentPoly({-1: Fraction(1, 2)})
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int | Fraction] | int | Fraction = 0):
        if type(coeffs) is not dict and isinstance(coeffs, (int, Fraction)):
            coeffs = {0: coeffs}
        clean: dict[int, int | Fraction] = {}
        for exp, c in coeffs.items():
            c = _as_coeff(c)
            if c:
                clean[index(exp)] = c
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def gen(cls) -> "LaurentPoly":
        """The generator v."""
        return cls({1: 1})

    # -- structure ---------------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def terms(self) -> Iterator[tuple[int, int | Fraction]]:
        """(exponent, coefficient) pairs, ascending by exponent."""
        return iter(sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    @property
    def leading_coeff(self) -> int | Fraction:
        """Coefficient of the highest power of v."""
        return self._coeffs[self.max_exp]

    def bar(self) -> "LaurentPoly":
        """Image under the bar involution v -> v^-1."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        if type(other) is not LaurentPoly and (other := self._coerce(other)) is None:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return _made(out)

    __radd__ = __add__

    def __neg__(self):
        return _made({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not LaurentPoly and (other := self._coerce(other)) is None:
            return NotImplemented
        a, b = (other._coeffs, self._coeffs) if len(other._coeffs) == 1 else (self._coeffs, other._coeffs)
        if len(a) == 1:  # a monomial times b: b's exponents shifted, no term meets another
            ((e1, c1),) = a.items()
            return _made({e1 + e2: c1 * c2 for e2, c2 in b.items()})
        out: dict[int, int | Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return _made(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if len(self._coeffs) == 1:
            ((e, c),) = self._coeffs.items()
            # an int to a negative power would be a float
            return LaurentPoly({e * n: Fraction(c) ** n if n < 0 else c**n})
        if n < 0:
            raise ValueError("negative power of a non-unit Laurent polynomial")
        out = LaurentPoly({0: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not LaurentPoly and (other := self._coerce(other)) is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        # constants hash like their numeric value so x == n => hash(x) == hash(n)
        if not self._coeffs:
            return hash(0)
        if len(self._coeffs) == 1 and 0 in self._coeffs:
            return hash(self._coeffs[0])
        return hash(tuple(sorted(self._coeffs.items())))

    # -- exact division ----------------------------------------------------

    def div_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient q with self == other * q.

        Raises ZeroDivisionError when other is zero and ExactDivisionError
        when no quotient exists in the Laurent ring.
        """
        other = self._coerce(other)
        if other is None:
            raise TypeError("div_exact expects a Laurent polynomial")
        if not other:
            raise ZeroDivisionError("Laurent division by zero")
        if not self:
            return LaurentPoly()
        la, lb = self.min_exp, other.min_exp
        num = self._dense(la)
        den = other._dense(lb)
        quot, rem = _poly_divmod(num, den)
        if any(rem):
            raise ExactDivisionError(f"{other} does not divide {self}")
        return _made({la - lb + i: c for i, c in enumerate(quot)})

    def __truediv__(self, other):
        # exact; calls div_exact by name, not as an alias, so wrappers of it see "/"
        return self.div_exact(other)

    def __rtruediv__(self, other):  # an int or Fraction over a Laurent polynomial
        other = self._coerce(other)
        return NotImplemented if other is None else other.div_exact(self)

    def _dense(self, low: int) -> list[int | Fraction]:
        """Coefficients of v^low .. v^max as a dense list."""
        out = [0] * (self.max_exp - low + 1)
        for e, c in self._coeffs.items():
            out[e - low] = c
        return out

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items(), reverse=True):
            if e == 0:
                body = str(c)
            else:
                ve = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    body = ve
                elif c == -1:
                    body = f"-{ve}"
                else:
                    body = f"{c}{ve}"
            parts.append(body)
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    def __repr__(self):
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"


def _made(coeffs: dict) -> LaurentPoly:
    """LaurentPoly(coeffs) for int exponents and int or Fraction values, unchecked: zeros dropped, values canonical."""
    out = object.__new__(LaurentPoly)
    object.__setattr__(out, "_coeffs", {e: c if type(c) is int else _as_coeff(c) for e, c in coeffs.items() if c})
    return out


v = LaurentPoly.gen()


_KEPT = 16  # q_int and q_fact keep [n] and [n]! for |n| up to this, [n]! as [n] is; the bench requests reach 10
_q_ints: dict[int, LaurentPoly] = {}
_q_facts: dict[int, LaurentPoly] = dict.fromkeys((0, 1), LaurentPoly({0: 1}))  # [0]! = [1]! = 1


def q_int(n: int) -> LaurentPoly:
    """Balanced q-integer [n] = (v^n - v^-n) / (v - v^-1).

    [n] = v^(n-1) + v^(n-3) + ... + v^(1-n) for n >= 1, [0] = 0 and
    [-n] = -[n].  For |n| <= 16 the value is built once and shared.
    """
    if (out := _q_ints.get(index(n))) is None:  # index: a float equal to a kept key is refused, as range refuses it
        out = LaurentPoly({n - 1 - 2 * i: 1 for i in range(n)}) if n >= 0 else -q_int(-n)
        if abs(n) <= _KEPT:  # a thread that stored [n] first gives every caller its value
            out = _q_ints.setdefault(n, out)
    return out


def q_fact(n: int) -> LaurentPoly:
    """q-factorial [n]! = [n][n-1]...[1], with [0]! = 1; built once and shared for n <= 16, else q_facts(n)'s last."""
    if (out := _q_facts.get(index(n))) is None:  # index: as q_int reads n
        if n < 0:
            raise ValueError(f"q-factorial undefined for negative n = {n}")
        if n > _KEPT:
            return [*q_facts(n)][-1]
        out = _q_facts.setdefault(n, q_fact(n - 1) * q_int(n))  # as in q_int: the first [n]! stored is every caller's
    return out


def q_facts(n: int) -> Iterator[LaurentPoly]:
    """Yield [0]!, [1]!, ..., [n]!: the shared values up to [16]!, then one product each."""
    out = q_fact(min(n, _KEPT))
    yield from map(_q_facts.get, range(min(n, _KEPT) + 1))
    for k in range(_KEPT + 1, n + 1):
        out = out * q_int(k)
        yield out


def q_binom(n: int, k: int) -> LaurentPoly:
    """q-binomial [n]! / ([k]! [n-k]!), the three from one q_facts(n) walk; zero when k is out of range."""
    if n < 0:
        raise ValueError(f"q-binomial needs n >= 0, got {n}")
    if (k := index(k)) < 0 or k > n:  # index: k is a list position below
        return LaurentPoly()
    facts = [*q_facts(n)]
    return facts[n].div_exact(facts[k] * facts[n - k])


def specialize_one(p: LaurentPoly) -> Fraction:
    """Evaluate at v = 1, i.e. the sum of all coefficients."""
    if isinstance(p, (int, Fraction)):
        return Fraction(p)
    return sum((c for _, c in p.terms()), Fraction(0))


# -- gcd machinery for normalizing vectors of Laurent polynomials ----------


def _poly_divmod(num: list, den: list):
    """Long division of dense coefficient lists over Q (ascending order);
    the last entry of den is nonzero.  Quotient entries are ints where
    int entries divide exactly, Fractions otherwise."""
    num = list(num)
    dd = len(den) - 1
    lead = den[dd]
    qd = len(num) - 1 - dd
    if qd < 0:
        return [0], num
    quot = [0] * (qd + 1)
    for i in range(qd, -1, -1):
        a = num[i + dd]
        if type(a) is type(lead) is int:  # int / int would be a float
            c = Fraction(a, lead) if a % lead else a // lead
        else:
            c = a / lead
        quot[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    return quot, num


def lp_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Greatest common divisor in Q[v, v^-1], canonically normalized.

    The result has integer coefficients with content 1, positive leading
    coefficient, and carries the largest common monomial v^k (so it is
    the greatest common divisor including unit monomial factors, with a
    deterministic choice among associates).
    """
    if not (a and b):
        return primitive([a or b])[0]
    shift = min(a.min_exp, b.min_exp)
    pa, pb = (primitive([p])[0]._dense(p.min_exp) for p in (a, b))  # int coefficients
    while pb:  # a primitive pseudo-remainder sequence: each remainder over its content, no Fraction
        while len(pa) >= len(pb):  # pa times lc(pb), less lc(pa) v^k pb: its top term cancels
            c, k = pa.pop(), len(pa) + 1 - len(pb)
            pa = [pb[-1] * x - (c * pb[i - k] if i >= k else 0) for i, x in enumerate(pa)]
            while pa and not pa[-1]:
                pa.pop()
        g = gcd(*pa)  # 0 only for an empty pa, which divides nothing
        pa, pb = pb, [x // g for x in pa]
    return primitive([LaurentPoly({shift + i: c for i, c in enumerate(pa) if c})])[0]


def primitive(polys: list[LaurentPoly]) -> list[LaurentPoly]:
    """The polynomials scaled by the one rational that makes all their
    coefficients coprime integers and the leading coefficient of the
    first nonzero polynomial positive; all-zero input is returned as is.
    """
    coeffs = [c for p in polys for c in p._coeffs.values()]
    if not coeffs:
        return polys
    # splat lists: a generator's resized tuple goes to the tuple free list, which only a full gc empties
    scale = Fraction(lcm(*[c.denominator for c in coeffs]), gcd(*[c.numerator for c in coeffs]))
    if next(p for p in polys if p).leading_coeff < 0:
        scale = -scale
    if scale == 1:
        return polys
    return [p * scale if p else p for p in polys]
