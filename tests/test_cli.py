import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import qsl2
from qsl2 import tensorcg
from qsl2.cli import main
from qsl2.qarith import ExactDivisionError

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_python(*args):
    """``python args`` with the qsl2 this test imported on the path."""
    src = str(Path(qsl2.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_module(*args):
    """``python -m qsl2 args`` on the qsl2 this test imported."""
    return run_python("-m", "qsl2", *args)


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
        if {"csv", "pretty"} & set(case["argv"]):  # text, not json
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


def test_format_does_not_leak_between_calls(capsys):
    code, out = run_cli(capsys, ["qtable", "--max-n", "2", "--format", "csv"])
    assert code == 0 and out.startswith("n,qint,qfact\n")
    code, out = run_cli(capsys, ["qtable", "--max-n", "2"])
    assert code == 0 and out == (GOLDEN / "qtable_2.json").read_text()


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


# -- each request renders only its own format ----------------------------------

RENDERERS = ("laurent_token", "laurent_json", "vector_json", "comparison_json")


@pytest.fixture
def renderer_calls(monkeypatch):
    """Calls per renderer, wherever cli or serialize looks it up."""
    from qsl2 import cli, serialize

    calls = dict.fromkeys(RENDERERS, 0)
    for name in RENDERERS:
        def counted(*args, _name=name, _render=getattr(serialize, name)):
            calls[_name] += 1
            return _render(*args)

        for module in (cli, serialize):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_qtable_json_renders_no_tokens(capsys, renderer_calls):
    code, _ = run_cli(capsys, ["qtable", "--max-n", "4"])
    assert code == 0
    assert renderer_calls["laurent_token"] == 0 and renderer_calls["laurent_json"] == 10


def test_qtable_csv_renders_no_json(capsys, renderer_calls):
    code, _ = run_cli(capsys, ["qtable", "--max-n", "4", "--format", "csv"])
    assert code == 0
    assert renderer_calls == {**dict.fromkeys(RENDERERS, 0), "laurent_token": 10}


def test_hwv_csv_renders_no_json(capsys, renderer_calls):
    code, out = run_cli(capsys, MANIFEST["hwv_2_2_1_quantum_csv"]["argv"])
    assert code == 0 and out == (GOLDEN / "hwv_2_2_1_quantum_csv.json").read_text()
    assert renderer_calls["vector_json"] == renderer_calls["comparison_json"] == 0


@pytest.mark.parametrize("flags", [["--format", "csv"], ["--format", "pretty"], ["--describe"]])
def test_failed_check_is_a_json_envelope_in_any_format(capsys, flags):
    code, out = run_cli(capsys, ["check", "findim", "--n", "3", "--inject-fault"] + flags)
    assert code == 1
    envelope = json.loads(out)
    assert envelope["status"] == "error" and envelope["error"].startswith("relation check failed")
    assert envelope["payload"]["ok"] is False and envelope["payload"]["failures"]
    assert ("descriptor" in envelope["payload"]) == ("--describe" in flags)


# -- usage errors -------------------------------------------------------------


# argv -> a fragment the error must contain (the flag or token at fault)
USAGE_ERRORS = {
    ("check", "findim"): "--n",
    ("check", "verma", "--hw", "1"): "--depth",
    ("check", "rasskazova", "--beta", "0"): "--lambda, --n, --window",
    ("check", "verma", "--hw", "1", "--depth", "3", "--quantum"): "--quantum",
    ("check", "rasskazova", "--beta", "0", "--lambda", "0", "--n", "0", "--window", "2"): "--n",
    ("decompose", "--m", "-1", "--n", "2"): "--m",
    ("decompose", "--m", "1"): "--n",
    ("hwv", "--m", "1", "--n", "1", "--p", "1", "--format", "xml"): "--format",
    ("nonsense",): "nonsense",
    # each check kind takes only its own flags
    ("check", "findim", "--n", "2", "--hw", "1/2"): "--hw",
    ("check", "verma", "--hw", "1/2", "--depth", "2", "--n", "7"): "--n",
    ("check", "rasskazova", "--beta", "0", "--lambda", "0", "--n", "1", "--window", "2",
     "--quantum"): "--quantum",
    ("check", "rasskazova", "--beta", "0", "--lambda", "0", "--n", "1", "--window", "2",
     "--depth", "3"): "--depth",
    ("decompose", "--m", "x", "--n", "1"): "--m: not an integer",
    ("check", "findim", "--n", "0", "--inject-fault"): "F(n=0) has no raising entries to perturb",
    # the descriptor is part of the json payload only, whether the check passes or fails
    ("check", "findim", "--n", "2", "--describe", "--format", "csv"): "--describe needs --format json",
    ("check", "verma", "--hw", "5/2", "--depth", "3", "--describe", "--format", "pretty"):
        "--describe needs --format json, got --format pretty",
    ("check", "findim", "--n", "3", "--inject-fault", "--describe", "--format", "pretty"):
        "--describe needs --format json",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in USAGE_ERRORS])
def test_usage_errors(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 2
    envelope = json.loads(out)
    assert envelope["status"] == "error"
    assert envelope["command"] == argv
    assert USAGE_ERRORS[tuple(argv)] in envelope["error"]


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

    monkeypatch.setattr(cli, "decompose_by_character", lambda *mods: Decomposition({0: 1}))
    code, out = run_cli(capsys, ["decompose", "--m", "1", "--n", "1"])
    assert code == 1
    envelope = json.loads(out)
    assert envelope["status"] == "error"
    assert "disagrees" in envelope["error"]
    assert envelope["payload"]["closed_form"] == [[2, 1], [0, 1]]
    assert envelope["payload"]["character"] == [[0, 1]]


def test_decompose_builds_no_tensor_module(capsys, monkeypatch):
    from qsl2 import cli

    def tensor(a, b):
        raise AssertionError("decompose built a tensor module")

    monkeypatch.setattr(cli, "tensor", tensor)
    monkeypatch.setattr(tensorcg, "tensor", tensor)
    for m in range(7):
        for n in range(7):
            pairs = tensorcg.cg_decompose(m, n).pairs()
            for quantum in ([], ["--quantum"]):
                argv = ["decompose", "--m", str(m), "--n", str(n), *quantum]
                code, out = run_cli(capsys, argv)
                assert code == 0 and json.loads(out)["payload"] == [list(p) for p in pairs]
                code, out = run_cli(capsys, argv + ["--format", "csv"])
                assert code == 0 and out.splitlines()[1:] == [f"{w},{k}" for w, k in pairs]
                code, out = run_cli(capsys, argv + ["--format", "pretty"])
                shown = re.findall(r"weight (-?\d+)  multiplicity (\d+)", out)
                assert code == 0 and [(int(w), int(k)) for w, k in shown] == pairs


def test_hwv_builds_only_the_two_weight_spaces_it_reads(capsys, monkeypatch):
    from qsl2 import cli

    full_tensor, built = tensorcg.tensor, []

    def tensor(a, b, spaces=None):
        module = full_tensor(a, b, spaces)
        built.append(module.dim)
        return module

    monkeypatch.setattr(cli, "tensor", tensor)
    monkeypatch.setattr(tensorcg, "tensor", tensor)
    for m in range(7):
        for n in range(7):
            for p in range(min(m, n) + 1):
                for flags in ([], ["--quantum"]):
                    for fmt in ("json", "csv", "pretty"):
                        built.clear()
                        argv = ["hwv", "--m", str(m), "--n", str(n), "--p", str(p), *flags, "--format", fmt]
                        code, _ = run_cli(capsys, argv)
                        # weight m+n-2p holds p+1 vectors of F_m (x) F_n, weight m+n-2p+2 holds p
                        assert code == 0 and built == [2 * p + 1], argv


# the quantum hwv requests with 1 <= m, n <= 6: 127 of them
QUANTUM_HWV = [["hwv", "--m", str(m), "--n", str(n), "--p", str(p), "--quantum"]
               for m in range(1, 7) for n in range(1, 7) for p in range(min(m, n) + 1)]


def test_hwv_requests_leave_few_allocated_blocks():
    """With the cyclic collector off, a request frees what it allocates.
    A generator splatted into a call, f(*(x for ...)), builds a resized
    tuple that is freed onto CPython's tuple free list; only a full
    collection empties that list, so such a call in the engine shows
    here as about 6 blocks per request where about 1.4 remain without it."""
    import contextlib
    import gc
    import io

    def run_all():
        for argv in QUANTUM_HWV:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv

    assert len(QUANTUM_HWV) == 127
    run_all()  # warm-up: caches, interned strings, the parser
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        run_all()
        run_all()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown / (2 * len(QUANTUM_HWV)) < 2.5


@pytest.mark.parametrize("fault", [ExactDivisionError("v - 1 does not divide v + 1"), ValueError("bad module")])
@pytest.mark.parametrize("flags", [[], ["--format", "csv"]])
def test_engine_exception_is_internal_failure(capsys, monkeypatch, fault, flags):
    from qsl2 import cli

    def decompose_by_character(*mods):
        raise fault

    monkeypatch.setattr(cli, "decompose_by_character", decompose_by_character)
    argv = ["decompose", "--m", "1", "--n", "1"] + flags
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out) == {
        "version": qsl2.__version__,
        "command": argv,
        "status": "error",
        "error": f"{type(fault).__name__}: {fault}",
    }
    assert err.startswith("Traceback") and f"{type(fault).__name__}: {fault}" in err


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


# -- hwv: one kernel solve per request ----------------------------------------

HWV_3_3_1 = ["hwv", "--m", "3", "--n", "3", "--p", "1"]


@pytest.mark.parametrize("flags", [[], ["--quantum"]])
def test_hwv_request_runs_one_elimination(capsys, monkeypatch, flags):
    # one kernel solve, by the recurrence: the space of weight m+n-2p is bidiagonal;
    # a quantum one is normalised in factored form, so the ring recurrence never runs
    recurrence = "_factored_kernel" if flags else "_bidiagonal_kernel"
    calls = Counter()
    for name in ("_kernel", "_bidiagonal_kernel", "_factored_kernel", "_kernel_fraction_free"):
        solver = getattr(tensorcg, name)
        monkeypatch.setattr(tensorcg, name, lambda *args, n=name, f=solver: calls.update([n]) or f(*args))
    code, _ = run_cli(capsys, HWV_3_3_1 + flags)
    assert code == 0 and calls == Counter({"_kernel": 1, recurrence: 1})  # no _kernel_fraction_free


@pytest.mark.parametrize("flags", [[], ["--quantum"]])
@pytest.mark.parametrize(
    "kernel, error",
    [
        (lambda rows, ncols, flavor: [], "nullspace at weight 4 is 0-dimensional, expected 1"),
        (lambda rows, ncols, flavor: [[flavor.ring(1)] * ncols], "nullspace certificate failed at weight 4 of "),
    ],
    ids=["empty", "not-annihilated"],
)
def test_hwv_oracle_failure_is_internal_failure(capsys, monkeypatch, flags, kernel, error):
    monkeypatch.setattr(tensorcg, "_kernel", kernel)
    code, out = run_cli(capsys, HWV_3_3_1 + flags)
    assert code == 1
    envelope = json.loads(out)
    assert envelope.pop("error").startswith(error)
    assert envelope == {"version": qsl2.__version__, "command": HWV_3_3_1 + flags, "status": "error"}


def test_quantum_hwv_requests_take_the_factored_path_and_no_gcd(capsys, monkeypatch):
    from qsl2 import modrep

    calls = Counter()
    for module, name in ((modrep, "lp_gcd"), (tensorcg, "_factored_kernel"), (tensorcg, "_bidiagonal_kernel")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, n=name, f=fn: calls.update([n]) or f(*args))
    for m in range(7):
        for n in range(7):
            for p in range(min(m, n) + 1):
                calls.clear()
                code, _ = run_cli(capsys, ["hwv", "--m", str(m), "--n", str(n), "--p", str(p), "--quantum"])
                assert code == 0 and calls == Counter({"_factored_kernel": 1}), (m, n, p)


def test_a_corrupted_cyclotomic_factor_fails_the_certificate(capsys, monkeypatch):
    # hwv 3 3 2 expands Phi_3, Phi_4 and Phi_6; the cache is filled first, so
    # that no other Phi_d is built by dividing by the corrupted Phi_4
    cyclotomic = tensorcg._cyclotomic
    for d in range(1, 20):
        cyclotomic(d)
    monkeypatch.setattr(tensorcg, "_cyclotomic", lambda d: cyclotomic(d) + 1 if d == 4 else cyclotomic(d))
    argv = ["hwv", "--m", "3", "--n", "3", "--p", "2", "--quantum"]
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"].startswith("nullspace certificate failed at weight 2 of ")
    with pytest.raises(tensorcg.NullspaceError, match="certificate failed at weight 2"):
        tensorcg.phi_vs_oracle(3, 3, 2)


# -- help is argparse's, outside the envelope contract ---------------------------


@pytest.mark.parametrize("argv", [["-h"], ["hwv", "-h"], ["check", "--help"]])
def test_help_prints_usage_and_exits_zero(argv):
    proc = run_module(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: qsl2")
    assert '"status"' not in proc.stdout


def test_parser_is_built_once_and_not_at_import():
    probe = (
        "from qsl2 import cli\n"
        "built = [cli.build_parser.cache_info().misses]\n"
        "for argv in (['qtable', '--max-n', '0'], ['nonsense'], ['check', 'findim', '--n', '1']):\n"
        "    cli.main(argv)\n"
        "    built.append(cli.build_parser.cache_info().misses)\n"
        "print(built)\n"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 1, 1, 1]"


def test_check_kind_help_lists_only_its_own_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "verma", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qsl2 check verma")
    assert "--depth" in out and "--window" not in out


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
