"""Tests of the benchmark itself: generators, output checks, tracer.

Run with ``python -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import checks
import harness
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent

COUNTS_PROBE = """
import json, sys
import harness, workloads
from tracer import Tracer
cli = harness.import_qsl2()
out = {}
for name in workloads.WORKLOADS:
    tracer = Tracer()
    with tracer.installed():
        harness.Run(cli, tracer).run_pass(workloads.generate(name, 11, 0)[:8])
    calls = {g: v[0] for g, v in tracer.groups().items()}
    out[name] = {"calls": calls, "counts": tracer.counts}
print(json.dumps(out, sort_keys=True))
"""

DETERMINISTIC = (
    "tensorcg.hwv.spaces", "tensorcg.hwv.matrix_entries", "qarith.peak_degree",
    "qarith.peak_coeff_bits", "qarith.new.calls",
)


def test_traced_counts_repeat_exactly():
    # two interpreters with different hash seeds, so set order cannot hide
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", COUNTS_PROBE], cwd=HERE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        )
        for hash_seed in (1, 2)
    ]
    outs = [json.loads(p.communicate(timeout=120)[0]) for p in procs]
    assert all(p.returncode == 0 for p in procs)
    first, second = outs
    assert first == second
    for name in workloads.WORKLOADS:
        assert first[name]["calls"]["cli.main"] == first[name]["counts"]["cli.requests"] == 8
    assert all(first["hwv-sweep"]["counts"][key] > 0 for key in DETERMINISTIC)
    assert first["check-rational"]["counts"]["modrep.relations_checked"] > 0
    assert first["cli-mix"]["calls"]["qarith.q_fact"] > 0


def test_tracer_restores_everything():
    cli = harness.import_qsl2()
    qarith = sys.modules["qsl2.qarith"]
    before = (cli.main, cli.COMMANDS["hwv"], cli.check_relations, qarith.LaurentPoly.__mul__,
              qarith.LaurentPoly.__init__, cli._Parser.parse_args)
    tracer = Tracer()
    with tracer.installed():
        assert cli.main is not before[0] and cli.COMMANDS["hwv"] is not before[1]
        assert cli.check_relations is sys.modules["qsl2.modrep"].check_relations
        assert "parse_args" in vars(cli._Parser)
    after = (cli.main, cli.COMMANDS["hwv"], cli.check_relations, qarith.LaurentPoly.__mul__,
             qarith.LaurentPoly.__init__, cli._Parser.parse_args)
    assert after == before and "parse_args" not in vars(cli._Parser)


def test_generators_repeat_and_keep_their_mix():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5, 2) == workloads.generate(name, 5, 2)
        assert workloads.generate(name, 5, 2) != workloads.generate(name, 6, 2)
    hwv = workloads.generate("hwv-sweep", 3, 0)
    assert sum(item["quantum"] for item in hwv) == 36 and len(hwv) == 48
    assert all(0 <= item["p"] <= min(item["m"], item["n"]) for item in hwv)
    rational = workloads.generate("check-rational", 3, 0)
    assert len(rational) == 60
    assert sum(bool(item.get("separate_token")) for item in rational) == 3
    assert sum(item["expect"] == 1 for item in rational) == 3
    assert sum(bool(item.get("describe")) for item in rational) == 12
    for item in rational:
        separate = any(re.fullmatch(r"-\d+/\d+", arg) for arg in item["argv"])
        assert separate == bool(item.get("separate_token"))
        if separate:
            assert item.get("depth", 0) <= 8 and item.get("window", 0) <= 3
    mix = workloads.generate("cli-mix", 3, 0)
    assert Counter(item["expect"] for item in mix) == {0: 85, 2: 15}
    assert {item.get("format") for item in mix} == {"json", "csv", "pretty", None}


def _output(cli, item):
    _, code, out, error = harness.run_item(cli, item)
    assert error is None
    return code, out


def _edit_payload(out, edit):
    env = json.loads(out)
    edit(env["payload"])
    return json.dumps(env, sort_keys=True, separators=(",", ":")) + "\n"


def test_checks_accept_right_and_reject_wrong_outputs():
    cli = harness.import_qsl2()
    hwv = workloads._hwv(2, 3, 1, True)
    code, out = _output(cli, hwv)
    assert checks.check_item(hwv, code, out) is None
    assert checks.check_item(hwv, 2, out) is not None

    def flip_sign(payload):
        payload["vector"][0][1][0][1] *= -1

    def claim_proportional(payload):
        payload["phi"]["proportional"] = True

    assert checks.check_item(hwv, code, _edit_payload(out, flip_sign)) is not None
    assert checks.check_item(hwv, code, _edit_payload(out, claim_proportional)) is not None
    assert checks.check_item(hwv, code, out.replace(":", ": ")) is not None  # not canonical

    classical = workloads._hwv(3, 2, 2, False, "csv")
    code, out = _output(cli, classical)
    assert checks.check_item(classical, code, out) is None
    assert checks.check_item(classical, code, out.replace(",-", ",")) is not None

    dec = workloads._decompose(3, 1, False)
    code, out = _output(cli, dec)
    assert checks.check_item(dec, code, out) is None
    assert checks.check_item(dec, code, _edit_payload(out, lambda p: p.pop())) is not None

    verma = workloads._verma(checks.Fraction(-7, 3), 9)
    verma["argv"].append("--describe")
    verma["describe"] = True
    code, out = _output(cli, verma)
    assert checks.check_item(verma, code, out) is None

    def drop_one_checked(payload):
        payload["checked"] -= 1

    assert checks.check_item(verma, code, _edit_payload(out, drop_one_checked)) is not None

    table = workloads._qtable(4, "csv")
    code, out = _output(cli, table)
    assert checks.check_item(table, code, out) is None
    assert checks.check_item(table, code, out.replace("1*v^-3", "2*v^-3")) is not None

    usage = {"cmd": "usage", "argv": ["qtable"], "expect": 2}
    code, out = _output(cli, usage)
    assert checks.check_item(usage, code, out) is None
    assert checks.check_item(usage, code, out.replace('"status":"error"', '"status":"ok"')) is not None


def test_laurent_token_round_trip():
    for n in range(7):
        p = checks.qfact(n)
        token = "+".join(f"{c}*v^{e}" for e, c in sorted(p.items())).replace("+-", "-")
        assert checks.laurent_from_token(token) == p
    assert checks.laurent_from_token("-1/2*v^-1+3*v^2") == {-1: checks.Fraction(-1, 2), 2: 3}


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_values_read_groups_counters_and_ratios():
    child = {
        "groups": {"qarith.mul": [3, 0.5, 0.4], "cli.main": [2, 1.0, 0.1], "serialize": [5, 0.2, 0.2]},
        "counts": {"qarith.new.calls": 7, "tensorcg.hwv.requested": 1, "tensorcg.hwv.spaces": 4},
        "total_s": 2.0,
        "factor": 2.0,
    }
    values = run.layer_values(child, {"total_s": 1.0})
    assert list(values) == [name for name, _unit in run.PER_LAYER]
    assert values["qarith.mul.calls"] == 3 and values["qarith.new.calls"] == 7
    assert values["qarith.mul.self_s"] == 0.8 and values["serialize.calls"] == 5
    assert values["layer.qarith.self_s"] == 0.8 and values["layer.cli.self_s"] == 0.2
    assert values["tensorcg.hwv.useful_ratio"] == 0.25 and values["tensorcg.hwv.spaces"] == 4
    assert values["trace.overhead_ratio"] == 2.0 and values["qarith.gcd.calls"] == 0
