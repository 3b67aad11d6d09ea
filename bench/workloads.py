"""Seeded request generators for the three workloads.

A workload run is a sequence of passes; pass k of seed s is the item
list ``generate(workload, s, k)``.  Each item is a ``qsl2`` argv plus the
exit code the generator expects and the parameters the output checks
need.  Sizes are drawn by stratified sampling and every pass has the
same number of items of each kind, so a pass costs nearly the same on
every seed while the concrete requests still differ.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count
from math import gcd

FORMATS = ("json", "csv", "pretty")


def _stratum(rng: random.Random, i: int, k: int, lo: int, hi: int) -> int:
    return lo + int((i + rng.random()) * (hi - lo + 1) / k)


def spread(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """k integers in [lo, hi], one from each of k equal strata, shuffled."""
    out = [_stratum(rng, i, k, lo, hi) for i in range(k)]
    rng.shuffle(out)
    return out


def grid(rng: random.Random, k: int, first: tuple, second: tuple) -> list[tuple[int, int]]:
    """k pairs, each coordinate stratified over its (lo, hi) range, shuffled.

    Stratum i of the first coordinate goes with stratum i*s mod k of the
    second, for a fixed s coprime to k, so the pairs cover the rectangle
    in the same pattern on every seed and the cost of a pass barely moves.
    """
    s = next(s for s in count(round(0.38 * k) or 1) if gcd(s, k) == 1)
    out = [
        (_stratum(rng, i, k, *first), _stratum(rng, i * s % k, k, *second)) for i in range(k)
    ]
    rng.shuffle(out)
    return out


def non_integral(rng: random.Random, sign: int = 0) -> Fraction:
    """A rational a/b with b >= 2 in lowest terms; sign -1 or +1 forces it."""
    while True:
        den = rng.randint(2, 9)
        num = rng.randint(1, 40) * (sign or rng.choice((-1, 1)))
        if gcd(num, den) == 1:
            return Fraction(num, den)


def rational_flag(flag: str, value: Fraction) -> list[str]:
    # argparse takes "-3/2" for an option, so negative rationals need "="
    return [f"{flag}={value}"] if value < 0 else [flag, str(value)]


def _hwv(m, n, p, quantum, fmt="json"):
    argv = ["hwv", "--m", str(m), "--n", str(n), "--p", str(p)]
    argv += ["--quantum"] * quantum + ([] if fmt == "json" else ["--format", fmt])
    return dict(cmd="hwv", argv=argv, expect=0, format=fmt, m=m, n=n, p=p, quantum=quantum)


def _decompose(m, n, quantum, fmt="json"):
    argv = ["decompose", "--m", str(m), "--n", str(n)]
    argv += ["--quantum"] * quantum + ([] if fmt == "json" else ["--format", fmt])
    return dict(cmd="decompose", argv=argv, expect=0, format=fmt, m=m, n=n, quantum=quantum)


def _findim(n, quantum, fmt="json"):
    argv = ["check", "findim", "--n", str(n)]
    argv += ["--quantum"] * quantum + ([] if fmt == "json" else ["--format", fmt])
    return dict(cmd="check", kind="findim", argv=argv, expect=0, format=fmt, n=n, quantum=quantum)


def _verma(hw, depth, hw_args=None):
    argv = ["check", "verma", *(hw_args or rational_flag("--hw", hw)), "--depth", str(depth)]
    return dict(cmd="check", kind="verma", argv=argv, expect=0, hw=hw, depth=depth)


def _rasskazova(beta, lam, n, window, lam_args=None):
    argv = ["check", "rasskazova", *rational_flag("--beta", beta)]
    argv += [*(lam_args or rational_flag("--lambda", lam)), "--n", str(n), "--window", str(window)]
    return dict(
        cmd="check", kind="rasskazova", argv=argv, expect=0,
        beta=beta, lam=lam, n=n, window=window,
    )


def _qtable(max_n, fmt="json"):
    argv = ["qtable", "--max-n", str(max_n)] + ([] if fmt == "json" else ["--format", fmt])
    return dict(cmd="qtable", argv=argv, expect=0, format=fmt, max_n=max_n)


def hwv_sweep(rng: random.Random) -> list[dict]:
    """48 hwv requests: every quantum (m, n) in [1, 6]^2 once, plus 12
    classical ones with m, n in [4, 14]; p uniform in [0, min(m, n)]."""
    items = [
        _hwv(m, n, rng.randint(0, min(m, n)), True) for m in range(1, 7) for n in range(1, 7)
    ]
    for m, n in grid(rng, 12, (4, 14), (4, 14)):
        items.append(_hwv(m, n, rng.randint(0, min(m, n)), False))
    rng.shuffle(items)
    return items


def check_rational(rng: random.Random) -> list[dict]:
    """60 requests over non-integral rational parameters: 19 check verma
    (depth 50-300), 19 check rasskazova (n 1-5, window 10-40), 19 classical
    decompose (m, n in 4-20), and 3 cheap checks that pass a negative
    rational as a separate token, which argparse rejects today.  Of the
    38 big checks, 12 add --describe and 3 add --inject-fault (exit 1)."""
    items = []
    for depth in spread(rng, 19, 50, 300):
        items.append(_verma(non_integral(rng), depth))
    for n, window in grid(rng, 19, (1, 5), (10, 40)):
        items.append(_rasskazova(non_integral(rng), non_integral(rng), n, window))
    flagged = rng.sample(range(len(items)), 15)
    for i in flagged[:12]:
        items[i]["describe"] = True
        items[i]["argv"].append("--describe")
    for i in flagged[12:]:
        items[i].update(fault=True, expect=1)
        items[i]["argv"].append("--inject-fault")
    for m, n in grid(rng, 19, (4, 20), (4, 20)):
        items.append(_decompose(m, n, False))
    for k in range(3):
        neg = non_integral(rng, sign=-1)
        if (k + rng.randint(0, 1)) % 2:
            item = _verma(neg, rng.randint(1, 8), hw_args=["--hw", str(neg)])
        else:
            beta = non_integral(rng)
            n, window = rng.randint(1, 5), rng.randint(1, 3)
            item = _rasskazova(beta, neg, n, window, lam_args=["--lambda", str(neg)])
        item["separate_token"] = True
        items.append(item)
    rng.shuffle(items)
    return items


def _usage_errors(rng: random.Random) -> list[list[str]]:
    m, n = rng.randint(0, 4), rng.randint(0, 4)
    return [
        ["hwv", "--m", str(m), "--n", str(n), "--p", str(min(m, n) + rng.randint(1, 3))],
        ["decompose", "--m", str(-rng.randint(1, 9)), "--n", str(n)],
        ["decompose", "--m", str(m)],
        ["check", "verma", "--hw", str(non_integral(rng, 1))],
        ["check", "verma", "--hw", "1/2", "--depth", "0"],
        ["check", "verma", "--hw", f"{rng.randint(1, 9)}/0", "--depth", "3"],
        ["check", "verma", "--hw", "1/3", "--depth", "4", "--quantum"],
        ["check", "rasskazova", "--beta", "1/2", "--lambda", "1/3", "--n", "0", "--window", "2"],
        ["check", "rasskazova", "--beta", "1/2", "--lambda", "1/3", "--n", str(n + 1)],
        ["check", "findim", "--quantum"],
        ["qtable"],
        ["qtable", "--max-n", str(m), "--format", rng.choice(("xml", "yaml", "tsv"))],
        [rng.choice(("frobnicate", "tensor", "solve"))],
    ]


def cli_mix(rng: random.Random) -> list[dict]:
    """100 small requests over all subcommands and formats: 22 decompose
    (m, n <= 6), 21 hwv (m, n <= 3), 21 check findim (n <= 8), 21 qtable
    (max-n <= 10), half of each quantum where that applies, and 15 usage
    errors (exit 2)."""
    fmts = [FORMATS[i % 3] for i in range(85)]
    rng.shuffle(fmts)
    fmt = iter(fmts)
    items = []
    for k, (m, n) in enumerate(grid(rng, 22, (0, 6), (0, 6))):
        items.append(_decompose(m, n, k % 2 == 1, next(fmt)))
    for k, (m, n) in enumerate(grid(rng, 21, (0, 3), (0, 3))):
        items.append(_hwv(m, n, rng.randint(0, min(m, n)), k % 2 == 1, next(fmt)))
    for k, n in enumerate(spread(rng, 21, 0, 8)):
        items.append(_findim(n, k % 2 == 1, next(fmt)))
    for max_n in spread(rng, 21, 0, 10):
        items.append(_qtable(max_n, next(fmt)))
    errors = _usage_errors(rng)
    errors += rng.sample(errors, 15 - len(errors))
    items += [dict(cmd="usage", argv=argv, expect=2) for argv in errors]
    rng.shuffle(items)
    return items


WORKLOADS = {
    "hwv-sweep": hwv_sweep,
    "check-rational": check_rational,
    "cli-mix": cli_mix,
}

# passes that make at least 100 items: a timed run makes at least this
# many and a traced run exactly this many
MIN_PASSES = {"hwv-sweep": 3, "check-rational": 2, "cli-mix": 2}


def generate(workload: str, seed: int, pass_index: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{pass_index}"))


def warmup_items() -> list[dict]:
    """One cheap request of each command, format and exit code."""
    return [
        _hwv(1, 1, 1, True),
        _hwv(2, 2, 1, False, "csv"),
        _decompose(2, 1, True, "pretty"),
        _findim(2, True, "csv"),
        _verma(Fraction(1, 2), 3),
        _rasskazova(Fraction(1, 2), Fraction(-1, 3), 2, 2),
        _qtable(3),
        dict(cmd="usage", argv=["qtable"], expect=2),
    ]
