import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qsl2
from qsl2 import tensorcg
from qsl2.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_module(*args):
    """``python -m qsl2 args`` on the qsl2 this test imported."""
    src = str(Path(qsl2.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "qsl2", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden(capsys, name):
    case = MANIFEST[name]
    expected = (GOLDEN / f"{name}.json").read_text()
    code, out = run_cli(capsys, case["argv"])
    assert out.encode() == expected.encode()
    assert code == case["exit"]
    # identical invocations are byte-identical
    code2, out2 = run_cli(capsys, case["argv"])
    assert (code2, out2) == (code, out)


def test_regen_cases_match_manifest():
    import regen_golden

    cases = {name: {"argv": argv, "exit": code} for name, (argv, code) in regen_golden.CASES.items()}
    assert cases == MANIFEST
    assert sorted(p.stem for p in GOLDEN.glob("*.json") if p.name != "manifest.json") == sorted(MANIFEST)


def test_exit_status_classes_covered():
    assert {case["exit"] for case in MANIFEST.values()} == {0, 1, 2}


def test_no_floats_anywhere():
    for name, case in MANIFEST.items():
        text = (GOLDEN / f"{name}.json").read_text()
        if "csv" in case["argv"]:
            assert not re.search(r"\d\.\d|\d[eE][-+]?\d", text), name
            continue

        def scan(x):
            assert not isinstance(x, float), (name, x)
            if isinstance(x, list):
                for item in x:
                    scan(item)
            elif isinstance(x, dict):
                for k, item in x.items():
                    scan(item)
        scan(json.loads(text))


def test_module_entry_point_matches_golden():
    expected = (GOLDEN / "decompose_1_1.json").read_text()
    proc = run_module("decompose", "--m", "1", "--n", "1")
    assert proc.returncode == 0
    assert proc.stdout == expected


# -- csv format -----------------------------------------------------------


def test_csv_decompose(capsys):
    code, out = run_cli(capsys, ["decompose", "--m", "2", "--n", "2", "--format", "csv"])
    assert code == 0
    assert out == "weight,multiplicity\n4,1\n2,1\n0,1\n"


def test_csv_hwv(capsys):
    code, out = run_cli(capsys, ["hwv", "--m", "1", "--n", "1", "--p", "1", "--format", "csv"])
    assert code == 0
    assert out == "label,coefficient\nw_0*w_1,1\nw_1*w_0,-1\n"


def test_csv_qtable(capsys):
    code, out = run_cli(capsys, ["qtable", "--max-n", "2", "--format", "csv"])
    assert code == 0
    assert out == "n,qint,qfact\n0,0,1*v^0\n1,1*v^0,1*v^0\n2,1*v^-1+1*v^1,1*v^-1+1*v^1\n"


def test_csv_check(capsys):
    code, out = run_cli(capsys, ["check", "findim", "--n", "3", "--format", "csv"])
    assert code == 0
    assert out == "module,flavor,checked,failures,excluded,ok\nF(n=3),classical,4,0,0,true\n"


def test_csv_has_no_commas_inside_tokens(capsys):
    _, out = run_cli(
        capsys,
        ["check", "rasskazova", "--beta", "-3", "--lambda", "5/2", "--n", "2",
         "--window", "3", "--format", "csv"],
    )
    header, row = out.strip().split("\n")
    assert len(row.split(",")) == len(header.split(","))


# -- pretty format ----------------------------------------------------------


def test_pretty_smoke(capsys):
    code, out = run_cli(capsys, ["decompose", "--m", "1", "--n", "1", "--format", "pretty"])
    assert code == 0
    assert "F_1 (x) F_1" in out and "weight 2" in out

    code, out = run_cli(capsys, ["check", "verma", "--hw", "5/2", "--depth", "4", "--format", "pretty"])
    assert code == 0
    assert "PASS" in out

    code, out = run_cli(capsys, ["qtable", "--max-n", "3", "--format", "pretty"])
    assert code == 0
    assert "[3]! = v^3 + 2v + 2v^-1 + v^-3" in out


# -- usage errors -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "findim"],
        ["check", "verma", "--hw", "1"],
        ["check", "rasskazova", "--beta", "0"],
        ["check", "verma", "--hw", "1", "--depth", "3", "--quantum"],
        ["check", "rasskazova", "--beta", "0", "--lambda", "0", "--n", "0", "--window", "2"],
        ["decompose", "--m", "-1", "--n", "2"],
        ["decompose", "--m", "1"],
        ["hwv", "--m", "1", "--n", "1", "--p", "1", "--format", "xml"],
        ["nonsense"],
    ],
)
def test_usage_errors(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 2
    envelope = json.loads(out)
    assert envelope["status"] == "error"
    assert envelope["command"] == argv


@pytest.mark.parametrize(
    "separate, joined",
    [
        (["check", "verma", "--hw", "-3/2", "--depth", "2"],
         ["check", "verma", "--hw=-3/2", "--depth", "2"]),
        (["check", "rasskazova", "--beta", "-1/2", "--lambda", "-5/2", "--n", "2", "--window", "2"],
         ["check", "rasskazova", "--beta=-1/2", "--lambda=-5/2", "--n", "2", "--window", "2"]),
    ],
)
def test_negative_rational_spellings_agree(capsys, separate, joined):
    # "--hw -3/2" and "--hw=-3/2" name the same input
    csv = [run_cli(capsys, argv + ["--format", "csv"]) for argv in (separate, joined)]
    assert csv[0] == csv[1] and csv[0][0] == 0
    payloads = [json.loads(run_cli(capsys, argv)[1])["payload"] for argv in (separate, joined)]
    assert payloads[0] == payloads[1]


def test_decompose_cross_check_mismatch_is_internal_failure(capsys, monkeypatch):
    from qsl2 import cli
    from qsl2.tensorcg import Decomposition

    monkeypatch.setattr(cli, "decompose_by_character", lambda module: Decomposition({0: 1}))
    code, out = run_cli(capsys, ["decompose", "--m", "1", "--n", "1"])
    assert code == 1
    envelope = json.loads(out)
    assert envelope["status"] == "error"
    assert "disagrees" in envelope["error"]
    assert envelope["payload"]["closed_form"] == [[2, 1], [0, 1]]
    assert envelope["payload"]["character"] == [[0, 1]]


def test_fault_injection_payload(capsys):
    code, out = run_cli(capsys, ["check", "findim", "--n", "4", "--inject-fault"])
    assert code == 1
    envelope = json.loads(out)
    assert envelope["status"] == "error"
    assert envelope["payload"]["ok"] is False
    assert envelope["payload"]["failures"]


@pytest.mark.parametrize(
    "argv",
    [["check", "verma", f"--hw={hw}", "--depth", "3"] for hw in range(-4, 5)]
    + [["check", "rasskazova", "--beta", "0", "--lambda=-3", "--n", "1", "--window", "2"]],
)
def test_injected_fault_never_cancels_its_entry(capsys, argv):
    # +1 would turn a -1 entry into a stored zero (a usage error)
    code, out = run_cli(capsys, argv + ["--inject-fault"])
    envelope = json.loads(out)
    assert code == 1 and envelope["status"] == "error"
    assert envelope["payload"]["failures"]


# -- hwv: one elimination per request ----------------------------------------

HWV_3_3_1 = ["hwv", "--m", "3", "--n", "3", "--p", "1"]


@pytest.mark.parametrize("flags", [[], ["--quantum"]])
def test_hwv_request_runs_one_elimination(capsys, monkeypatch, flags):
    calls = []
    kernel = tensorcg._kernel_fraction_free
    monkeypatch.setattr(
        tensorcg, "_kernel_fraction_free", lambda *args: calls.append(args) or kernel(*args)
    )
    code, _ = run_cli(capsys, HWV_3_3_1 + flags)
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("flags", [[], ["--quantum"]])
@pytest.mark.parametrize(
    "kernel, error",
    [
        (lambda rows, ncols, one: [], "nullspace at weight 4 is 0-dimensional, expected 1"),
        (lambda rows, ncols, one: [[one] * ncols], "nullspace certificate failed at weight 4 of "),
    ],
    ids=["empty", "not-annihilated"],
)
def test_hwv_oracle_failure_is_internal_failure(capsys, monkeypatch, flags, kernel, error):
    monkeypatch.setattr(tensorcg, "_kernel_fraction_free", kernel)
    code, out = run_cli(capsys, HWV_3_3_1 + flags)
    assert code == 1
    envelope = json.loads(out)
    assert envelope.pop("error").startswith(error)
    assert envelope == {"version": qsl2.__version__, "command": HWV_3_3_1 + flags, "status": "error"}


# -- help is argparse's, outside the envelope contract ---------------------------


@pytest.mark.parametrize("argv", [["-h"], ["hwv", "-h"], ["check", "--help"]])
def test_help_prints_usage_and_exits_zero(argv):
    proc = run_module(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: qsl2")
    assert '"status"' not in proc.stdout


def test_help_in_process_raises_system_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qsl2 [-h]")


def test_describe_includes_module_descriptor(capsys):
    code, out = run_cli(capsys, ["check", "findim", "--n", "1", "--describe"])
    assert code == 0
    descriptor = json.loads(out)["payload"]["descriptor"]
    assert descriptor["basis"] == ["w_0", "w_1"]
    assert descriptor["action"]["e"] == [["w_0", "w_1", 1]]
    assert descriptor["weights"] == [["w_0", 1], ["w_1", -1]]
