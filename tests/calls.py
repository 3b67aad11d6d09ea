"""Call counting for the tests that pin which solver a request takes, how
many gcds a descriptor takes, how many Fractions it builds, how many
Laurent products it makes and how many Laurent polynomials it validates."""

import sys
from collections import Counter
from fractions import Fraction

from qsl2 import _elimination, tensorcg
from qsl2.qarith import LaurentPoly


def count_calls(monkeypatch, *names, module=None):
    """A Counter of the calls to the named functions of module, each still run; by default of
    tensorcg and of its general kernel route, _elimination, in each that defines the name."""
    calls = Counter()
    for name in names:
        defining = [m for m in (tensorcg, _elimination) if hasattr(m, name)] or [tensorcg]
        for mod in [module] if module else defining:
            fn = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *args, n=name, f=fn: calls.update([n]) or f(*args))
    return calls


# Python 3.12 and later convert an int operand of Fraction arithmetic to a Fraction first, so
# a count measured on 3.10 or 3.11 may read up to this many times higher there
FRACTION_SLACK = 1 if sys.version_info < (3, 12) else 2


def count_fractions(monkeypatch):
    """A Counter whose "Fraction" counts every Fraction built: by Fraction(...)
    and, on Python 3.12+, by the arithmetic's _from_coprime_ints."""
    calls = Counter()
    new = Fraction.__dict__["__new__"].__func__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda *args, **kw: calls.update(["Fraction"]) or new(*args, **kw)))
    if "_from_coprime_ints" in Fraction.__dict__:
        coprime = Fraction.__dict__["_from_coprime_ints"].__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(lambda *args: calls.update(["Fraction"]) or coprime(*args)))
    return calls


def count_muls(monkeypatch):
    """A Counter whose "mul" counts every LaurentPoly.__mul__ call, that is every
    product with a Laurent polynomial on the left; an int or Fraction on the left
    goes through __rmul__ and is not counted."""
    calls = Counter()
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.update(["mul"]) or mul(a, b))
    return calls


def count_inits(monkeypatch):
    """A Counter whose "init" counts every LaurentPoly.__init__ call: each Laurent
    polynomial built through the validating constructor, not the ring results
    that are built already canonical."""
    calls = Counter()
    init = LaurentPoly.__init__
    monkeypatch.setattr(LaurentPoly, "__init__", lambda self, *args: calls.update(["init"]) or init(self, *args))
    return calls
