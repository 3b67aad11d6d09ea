"""Call counting for the tests that pin which solver a request takes, how
many gcds a descriptor takes, and how many Fractions it builds."""

from collections import Counter
from fractions import Fraction

from qsl2 import tensorcg


def count_calls(monkeypatch, *names, module=tensorcg):
    """A Counter of the calls to the named functions of module, each still run."""
    calls = Counter()
    for name in names:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, n=name, f=fn: calls.update([n]) or f(*args))
    return calls


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
