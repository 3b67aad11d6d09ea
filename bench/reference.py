"""Machine-speed reference for scaling measured times.

A shared host's speed drifts by up to 2x over seconds to minutes as
other tenants load it, which swamps a 25% regression bound on raw wall
time.  Runs therefore interleave short samples of a fixed pure-Python
exact-arithmetic loop with the requests and multiply each measured time
by ``NOMINAL_S / mean(sample seconds)`` over the same stretch of the run.
The loop squares a small polynomial held as a dict of Fractions: the
kind of work qsl2 does, in code qsl2 does not share, so a change to qsl2
cannot move it.  Scaled times are "reference seconds", seconds on a host
where one sample takes NOMINAL_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.002
INTERVAL_S = 0.02  # one sample per this much run time, taken between requests

_POLY = {e: Fraction(e + 1, 3) for e in range(6)}


def _square(a: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in a.items():
            s = out.get(e1 + e2, 0) + c1 * c2
            if s:
                out[e1 + e2] = s
            else:
                out.pop(e1 + e2, None)
    return out


def sample() -> float:
    """Seconds one reference sample takes now."""
    t0 = time.perf_counter()
    for _ in range(12):
        _square(_POLY)
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Multiplier from measured seconds to reference seconds."""
    return NOMINAL_S * len(samples) / sum(samples)
