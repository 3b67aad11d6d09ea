"""One workload in one interpreter: drive ``qsl2.cli.main`` as a closed-loop client.

    python3 bench/harness.py --workload NAME --seed N (--seconds S | --passes K) [--trace]

Runs one warm-up list, then passes 0, 1, ... of the workload, each pass
a fresh seeded item list, one request at a time with stdout captured.
With --seconds it starts passes until S seconds have gone and at least
enough passes for 100 items are done; with --passes it runs exactly K.
Each output is checked by ``checks`` outside the timed region.  Between
requests it takes samples of ``reference`` and scales each pass's times
to reference seconds with them.  Prints one JSON line with the results;
``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import reference
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]


def import_qsl2():
    """Import qsl2 from this checkout's src/ and return its cli module."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qsl2.cli

    if Path(qsl2.__file__).resolve().parent != src / "qsl2":
        raise ImportError(f"qsl2 imported from {qsl2.__file__}, not from {src}")
    return qsl2.cli


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, with the normal approximation
    to its beta weights (n >= 100 here): a weighted mean of the order
    statistics around rank p*n.  Request costs form clusters with gaps, and
    a single order statistic jumps across a gap from run to run."""
    xs = sorted(xs)
    n = len(xs)
    mu, sd = p * n, math.sqrt(n * p * (1 - p))
    cdf = [0.5 * (1 + math.erf((i - mu) / (sd * math.sqrt(2)))) for i in range(n + 1)]
    weights = [hi - lo for lo, hi in zip(cdf, cdf[1:])]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_item(cli, item: dict):
    """(seconds, exit code, stdout, exception text or None) of one request."""
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(item["argv"]))  # looked up here, so a traced main is used
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashed request counts as failed; the run goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return elapsed, code, buf.getvalue(), error


class Run:
    """Timings (in reference seconds) and check outcomes of the measured passes."""

    def __init__(self, cli, tracer: Tracer | None = None):
        self.cli = cli
        self.tracer = tracer
        self.item_s: list[float] = []
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.factors: list[float] = []
        self.failed = 0
        self.wrong = 0  # right exit code but wrong output
        self.misses: Counter = Counter()
        self.bytes_out = 0

    def run_pass(self, items: list[dict]):
        times, samples, due = [], [], time.perf_counter()
        for item in items:
            while time.perf_counter() >= due:  # one sample per INTERVAL_S of the pass
                samples.append(reference.sample())
                due += reference.INTERVAL_S
            if self.tracer is not None:
                self.tracer.req = len(self.item_s) + len(times)
            elapsed, code, out, error = run_item(self.cli, item)
            times.append(elapsed)
            self.bytes_out += len(out.encode())
            miss = f"raised {error}" if error else checks.check_item(item, code, out)
            if miss is not None:
                self.failed += 1
                self.wrong += code == item["expect"]
                self.misses[f"{item['cmd']}: {miss}"] += 1
        samples.append(reference.sample())
        scale = reference.factor(samples)
        self.factors.append(scale)
        self.item_s += [t * scale for t in times]
        self.pass_s.append(sum(times) * scale)
        self.raw_pass_s.append(sum(times))

    def result(self) -> dict:
        return {
            "passes": len(self.pass_s),
            "items": len(self.item_s),
            "failed": self.failed,
            "wrong": self.wrong,
            "misses": dict(self.misses.most_common(8)),
            "pass_s": self.pass_s,
            "raw_pass_s": self.raw_pass_s,
            "factor": statistics.fmean(self.factors),
            "total_s": sum(self.pass_s),
            "item_p50_ms": 1000 * quantile(self.item_s, 0.5),
            "item_p90_ms": 1000 * quantile(self.item_s, 0.9),
            "bytes_out": self.bytes_out,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def measure(workload: str, seed: int, cli, seconds=None, passes=None, tracer=None) -> dict:
    """Measured passes of one workload, after warm-up."""
    run = Run(cli, tracer)
    least = passes or workloads.MIN_PASSES[workload]
    start = time.perf_counter()
    k = 0
    while k < least or (passes is None and time.perf_counter() - start < seconds):
        run.run_pass(workloads.generate(workload, seed, k))
        k += 1
    return run.result()


def warm_up(cli):
    Run(cli).run_pass(workloads.warmup_items())


def traced(workload: str, seed: int, cli, passes: int) -> tuple[dict, Tracer]:
    tracer = Tracer()
    with tracer.installed():
        out = measure(workload, seed, cli, passes=passes, tracer=tracer)
    tracer.counts["serialize.bytes_out"] = out["bytes_out"]
    return out, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--passes", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans here as JSON lines")
    args = ap.parse_args(argv)

    cli = import_qsl2()
    warm_up(cli)
    if args.trace:
        passes = args.passes or workloads.MIN_PASSES[args.workload]
        out, tracer = traced(args.workload, args.seed, cli, passes)
        out["groups"] = tracer.groups()
        out["counts"] = dict(tracer.counts)
        if args.spans:
            tracer.write(args.spans)
    else:
        out = measure(args.workload, args.seed, cli, seconds=args.seconds, passes=args.passes)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
