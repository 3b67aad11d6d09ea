import pytest

from qsl2 import qarith


@pytest.fixture
def empty_q_tables(monkeypatch):
    """qarith's tables of [n] and [n]!, emptied down to the seeded [0]! and [1]!
    for one test and restored after it."""
    monkeypatch.setattr(qarith, "_q_ints", {})
    monkeypatch.setattr(qarith, "_q_facts", {n: qarith._q_facts[n] for n in (0, 1)})
