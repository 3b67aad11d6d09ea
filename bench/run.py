"""Layered benchmark for qsl2.

    python3 bench/run.py --workload {hwv-sweep,check-rational,cli-mix,all}
                         --seed N [--seconds S] [--trace 0|1]

Each workload runs in a fresh child interpreter (``harness.py``), one
child at a time, which drives ``qsl2.cli.main(argv)`` in process as a
closed-loop client and checks every output with its own arithmetic
(``checks.py``).  Only the standard library is used.

--trace 0 prints the end-to-end metrics:
  setup_s       median time to import qsl2 and qsl2.cli, each sample
                taken inside a fresh interpreter
  wall_s        median time of one pass over a seeded item list
  item_p50_ms, item_p90_ms   per-request latency over all measured items
                (Harrell-Davis estimates)
  peak_rss_mib  the child's peak resident memory
Times are in reference seconds (``reference.py``): each is scaled by
the host's speed measured with a fixed loop sampled beside it, because
the shared host's speed drifts by up to 2x.  The unscaled medians are
printed beside them.  The start-up of a bare ``python -c pass`` is
printed as environment information, and ``fail_ratio`` (the result's
failed / attempted) on its own line; neither is a gated metric.

--trace 1 runs the same passes twice, untraced and then traced with
wrappers from ``tracer.py``, and prints per-layer counts and times, the
layer shares of self time and trace.overhead_ratio (traced / untraced
wall time).  The spans go to .bench_out/trace-<workload>-seed<N>.jsonl.

The last line of output is one JSON object: correct, attempted, failed
and metrics.  ``correct`` is false when any request returned its
expected exit code with a wrong output; ``failed`` counts every request
whose exit code or output missed, which includes the separate-token
negative rationals in check-rational that argparse rejects today.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import MIN_PASSES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170  # per workload, under the 180 s a run may take
SETUP_SAMPLES = 15
STARTUP_SAMPLES = 5

# prints the import time in reference seconds, then in seconds
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import qsl2, qsl2.cli; t = time.perf_counter() - t; import reference; "
    "print(t * reference.factor([reference.sample() for _ in range(20)]), t)"
)

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]

# A counter of the traced child reads as itself; another name ending in
# .calls, .total_s or .self_s reads that field of the group of its prefix.
PER_LAYER = [
    ("qarith.mul.calls", "count"), ("qarith.mul.self_s", "s"),
    ("qarith.add.calls", "count"), ("qarith.add.self_s", "s"),
    ("qarith.div_exact.calls", "count"), ("qarith.div_exact.self_s", "s"),
    ("qarith.gcd.calls", "count"), ("qarith.gcd.self_s", "s"),
    ("qarith.new.calls", "count"),
    ("qarith.q_fact.calls", "count"), ("qarith.q_fact.total_s", "s"),
    ("qarith.peak_degree", "count"), ("qarith.peak_coeff_bits", "bits"),
    ("modrep.construct.calls", "count"), ("modrep.construct.self_s", "s"),
    ("modrep.module_init.self_s", "s"),
    ("modrep.apply.calls", "count"), ("modrep.apply.self_s", "s"),
    ("modrep.check_relations.self_s", "s"), ("modrep.relations_checked", "count"),
    ("tensorcg.tensor.self_s", "s"),
    ("tensorcg.hwv.calls", "count"), ("tensorcg.hwv.total_s", "s"), ("tensorcg.hwv.self_s", "s"),
    ("tensorcg.hwv.spaces", "count"), ("tensorcg.hwv.matrix_entries", "count"),
    ("tensorcg.hwv.useful_ratio", "ratio"),
    ("tensorcg.phi_vs_oracle.total_s", "s"), ("tensorcg.decompose_by_character.self_s", "s"),
    ("serialize.calls", "count"), ("serialize.self_s", "s"), ("serialize.bytes_out", "bytes"),
    ("cli.parse.self_s", "s"), ("cli.command.self_s", "s"), ("cli.main.self_s", "s"),
    ("cli.requests", "count"),
    ("layer.qarith.self_s", "s"), ("layer.modrep.self_s", "s"), ("layer.tensorcg.self_s", "s"),
    ("layer.serialize.self_s", "s"), ("layer.cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
FIELD = {"calls": 0, "total_s": 1, "self_s": 2}


class BenchError(Exception):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "harness.py"), *args]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} ran past the time limit")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def probe(code: list[str], deadline: float) -> tuple[float, list[float]]:
    """Wall seconds of one fresh interpreter and the numbers it printed."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *code], stdout=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    return time.perf_counter() - t0, [float(x) for x in proc.stdout.split()]


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    startup = [probe(["-c", "pass"], deadline)[0] for _ in range(STARTUP_SAMPLES)]
    # the first import in a fresh checkout also compiles bytecode; not a sample
    imports = [probe(["-c", IMPORT_PROBE, str(SRC), str(HERE)], deadline)[1] for _ in range(SETUP_SAMPLES + 1)][1:]
    child = run_child(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)], deadline)
    passes, items = child["passes"], child["items"]
    values = {
        "setup_s": statistics.median(ref for ref, _raw in imports),
        "wall_s": statistics.median(child["pass_s"]),
        "item_p50_ms": child["item_p50_ms"],
        "item_p90_ms": child["item_p90_ms"],
        "peak_rss_mib": child["peak_rss_mib"],
    }
    samples = {
        "setup_s": f"median of {len(imports)} imports; "
                   f"{statistics.median(raw for _ref, raw in imports):.4g} s unscaled",
        "wall_s": f"median of {passes} passes, {items // passes} items each; "
                  f"{statistics.median(child['raw_pass_s']):.4g} s unscaled",
        "item_p50_ms": f"{items} items",
        "item_p90_ms": f"{items} items",
        "peak_rss_mib": "1 child",
    }
    print(f"env python_startup_s {statistics.median(startup):.4f} s "
          f"(median of {len(startup)} bare 'python -c pass', not gated)")
    print(f"env reference_speed {child['factor']:.4f} (reference seconds per second, mean over passes)")
    for name, unit in END_TO_END:
        print(f"{workload} {name} {values[name]:.6g} {unit} ({samples[name]})")
    return values, child


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed), "--passes"]
    passes = str(MIN_PASSES[workload])
    plain = run_child(base + [passes], deadline)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{workload}-seed{seed}.jsonl"
    child = run_child(base + [passes, "--trace", "--spans", str(spans)], deadline)
    child["wrong"] += plain["wrong"]
    values = layer_values(child, plain)
    for name, unit in PER_LAYER:
        print(f"{workload} {name} {values[name]:.6g} {unit} ({child['items']} items, traced)")
    layer_self = {lay: values[f"layer.{lay}.self_s"] for lay in LAYERS}
    total = sum(layer_self.values()) or 1.0
    print(f"{workload} layer shares of self time: "
          + ", ".join(f"{lay} {s / total:.1%}" for lay, s in layer_self.items()))
    print(f"{workload} q_fact share of traced wall: "
          f"{values['qarith.q_fact.total_s'] / child['total_s']:.1%}")
    print(f"{workload} spans written to {spans.relative_to(ROOT)}")
    return values, child


def layer_values(child: dict, plain: dict) -> dict:
    """Per-layer metrics from a traced child and an untraced one of the same passes."""
    groups, counts = child["groups"], child["counts"]
    layer_self = {
        lay: sum(g[2] for name, g in groups.items() if name.split(".")[0] == lay) for lay in LAYERS
    }
    spaces = counts.get("tensorcg.hwv.spaces", 0)
    computed = {
        "tensorcg.hwv.useful_ratio": counts.get("tensorcg.hwv.requested", 0) / spaces if spaces else 0.0,
        "trace.overhead_ratio": child["total_s"] / plain["total_s"],
        **{f"layer.{lay}.self_s": s for lay, s in layer_self.items()},
    }
    values = {}
    for name, _unit in PER_LAYER:
        head, _, field = name.rpartition(".")
        if name in computed:
            values[name] = computed[name]
        elif name in counts or field not in FIELD:
            values[name] = counts.get(name, 0)
        else:
            values[name] = groups.get(head, [0, 0.0, 0.0])[FIELD[field]]
        if name.endswith("_s"):
            values[name] *= child["factor"]
    return values


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        values, child = per_layer(workload, seed, deadline)
        units = dict(PER_LAYER)
    else:
        values, child = end_to_end(workload, seed, seconds, deadline)
        units = dict(END_TO_END)
    attempted, failed = child["items"], child["failed"]
    print(f"{workload} fail_ratio {failed / attempted:.6g} ({failed} of {attempted} items, not gated)")
    for miss, count in child["misses"].items():
        print(f"{workload}   {count} x {miss}")
    return {
        "correct": child["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qsl2" / "cli.py").is_file():
        print(f"bench: no qsl2 sources under {SRC}; run from a qsl2 checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
