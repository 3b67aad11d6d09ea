"""Call counting for the tests that pin which solver a request takes."""

from collections import Counter

from qsl2 import tensorcg


def count_calls(monkeypatch, *names):
    """A Counter of the calls to the named tensorcg functions, each still run."""
    calls = Counter()
    for name in names:
        fn = getattr(tensorcg, name)
        monkeypatch.setattr(tensorcg, name, lambda *args, n=name, f=fn: calls.update([n]) or f(*args))
    return calls
