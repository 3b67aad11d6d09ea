import argparse
import contextlib
import functools
import io
import json
import os
import re
import runpy
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qsl2
from qsl2 import modrep, qarith, tensorcg
from qsl2.cli import main, run
from qsl2.modrep import CLASSICAL, QUANTUM
from qsl2.qarith import ExactDivisionError, LaurentPoly, q_fact, q_int
from qsl2.serialize import laurent_token
from argv_differential import FLAGS, ODD_VALUES, SWITCHES, VALID, agrees, argparse_or_error, reader_or_error
from calls import FRACTION_SLACK, count_calls, count_fractions, count_inits, count_muls

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_python(*args, input=None):
    """``python args`` with the qsl2 this test imported on the path, ``input`` on its stdin."""
    src = str(Path(qsl2.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        input=input,
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


@pytest.mark.parametrize("argv, code", [(["qtable", "--max-n", "0"], 0), (["hwv"], 2)], ids=["ok", "usage"])
def test_console_script_exits_with_the_status_of_main(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["qsl2", *argv])
    with pytest.raises(SystemExit) as exited:
        run()
    assert exited.value.code == code == main(argv)


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


def test_qtable_reads_the_shared_q_factorials(capsys, monkeypatch, empty_q_tables):
    calls = count_muls(monkeypatch)
    code, first = run_cli(capsys, ["qtable", "--max-n", "10"])
    assert code == 0 and calls["mul"] <= 9  # at most one product per [k]!, k = 2..10
    calls.clear()
    code, again = run_cli(capsys, ["qtable", "--max-n", "10"])
    assert code == 0 and again == first and calls["mul"] == 0


def test_qtable_past_the_kept_factorials_takes_one_product_per_row(capsys, monkeypatch, empty_q_tables):
    q_fact(16)
    calls = count_muls(monkeypatch)
    code, out = run_cli(capsys, ["qtable", "--max-n", "18", "--format", "csv"])
    rows = out.splitlines()[1:]
    assert code == 0 and calls["mul"] == 2  # [17]! and [18]!
    assert [row.split(",")[0] for row in rows] == [str(k) for k in range(19)]
    assert rows[-2:] == [f"{k},{laurent_token(q_int(k))},{laurent_token(q_fact(k))}" for k in (17, 18)]
    assert len(qarith._q_facts) == 17


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
    # an integer flag names its own least value
    ("check", "verma", "--hw", "1/2", "--depth", "-3"): "argument --depth: must be >= 1, got -3",
    ("check", "verma", "--hw", "1/2", "--depth", "0"): "argument --depth: must be >= 1, got 0",
    ("check", "rasskazova", "--beta", "0", "--lambda", "0", "--n", "-3", "--window", "2"):
        "argument --n: must be >= 1, got -3",
    ("check", "rasskazova", "--beta", "0", "--lambda", "0", "--n", "1", "--window", "-2"):
        "argument --window: must be >= 1, got -2",
    ("qtable", "--max-n", "-1"): "argument --max-n: must be >= 0, got -1",
    ("hwv", "--m", "1", "--n", "1", "--p=-2"): "argument --p: must be >= 0, got -2",
    # an unknown kind is refused whatever follows
    ("check", "nonsense", "--n", "1"): "argument kind: invalid choice: 'nonsense'",
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


# -- canonical argv is read off argparse's action table ------------------------------

def command_path(argv):
    return tuple(argv[:2]) if argv[:1] == ["check"] else tuple(argv[:1])


def is_canonical(argv):
    """A command path, then whole flags of it, each once, each value one
    token not starting with "-" unless argparse reads it as a negative number,
    or joined by "=" (not empty, not "--", which argparse drops, and not given
    to a switch); or an unknown command or kind, which argparse refuses
    whatever follows."""
    from qsl2 import cli

    negative = cli.build_parser()._negative_number_matcher
    path = command_path(argv)
    if path not in FLAGS:
        return len(path) == 1 + (path[:1] == ("check",)) and not path[-1].startswith("-")
    rest, flags = argv[len(path):], []
    while rest:
        token, *rest = rest
        flag, joined, value = token.partition("=")
        if flag not in FLAGS[path] or flag in flags:
            return False
        flags.append(flag)
        if joined and (flag in SWITCHES or value in ("", "--")):
            return False
        if flag not in SWITCHES and not joined:
            if not rest or rest[0].startswith("-") and not negative.fullmatch(rest[0]):
                return False
            rest = rest[1:]
    return True


def bench_items():
    """The benchmark's warm-up list and pass 0 of each workload."""
    workloads = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "workloads.py"))
    return workloads["warmup_items"]() + [
        item for name in workloads["WORKLOADS"] for item in workloads["generate"](name, 0, 0)]


def joined_argvs():
    """Each value flag spelled --flag=value with a valid, negative, empty and
    ill-typed value, and each switch given a value after "="."""
    argvs = []
    for path, valid in VALID.items():
        flags = {**valid, "--format": "csv"}
        for flag in flags:
            for value in (flags[flag], "-3/2", "", "x"):
                rest = [t for f, v in valid.items() if f != flag for t in (f, v)]
                argvs.append([*path, f"{flag}={value}", *rest])
        for switch in SWITCHES.intersection(FLAGS[path]):
            argvs.append([*path, f"{switch}=1", *(t for item in valid.items() for t in item)])
    return argvs


def test_canonical_reading_equals_argparse():
    """On every argv the tests and the benchmark send, the reader either
    defers or gives argparse's Namespace or usage error, message included;
    it reads exactly the canonical ones, --flag=value spellings among them."""
    import regen_golden
    from qsl2 import cli

    argvs = (regen_golden.grid() + [case["argv"] for case in MANIFEST.values()]
             + [list(argv) for argv in USAGE_ERRORS] + [item["argv"] for item in bench_items()])
    for argv in argvs:
        read, expected = reader_or_error(argv), argparse_or_error(argv)
        assert agrees(read, expected), (argv, read, expected)
        assert (read is None) == (not is_canonical(argv)), argv
    read = refused = 0
    for argv in joined_argvs():
        ns, expected = reader_or_error(argv), argparse_or_error(argv)
        assert agrees(ns, expected), (argv, ns, expected)
        assert (ns is None) == (not is_canonical(argv)), argv
        read += isinstance(ns, argparse.Namespace)
        refused += isinstance(ns, cli.UsageError)
    assert read == 19 + 3  # every valid value, and "-3/2" for --hw, --beta and --lambda
    assert refused == 16 + 19  # "-3/2" for an integer flag or --format, and every "x"


def test_the_argv_differential_finds_no_difference(capsys):
    # tests/argv_differential.py, run in process: every argv it enumerates is deferred, read
    # as argparse reads it, or refused in argparse's words
    import argv_differential
    import regen_golden

    assert argv_differential.main() == 0
    out = capsys.readouterr().out
    counts = re.fullmatch(r"Python \S+: (\d+) argvs, (\d+) read, (\d+) deferred, (\d+) refused, 0 differ\n", out)
    assert counts, out
    total, read, deferred, refused = map(int, counts.groups())
    assert total == read + deferred + refused > len(regen_golden.grid())


VALUES = {"--format": ["json", "csv", "pretty"], "--hw": ["1/2", "5/2", "3"],
          "--beta": ["1/2", "5/2", "3"], "--lambda": ["1/2", "5/2", "3"]}


@st.composite
def spelled_argvs(draw):
    """A command path, then its flags in any order; at a drawn rate the path
    is replaced by an invalid or missing command or kind, each flag is dropped,
    abbreviated, given an odd value, a missing one or one joined by "=", and
    a repeated flag, -h, --help or an unknown flag is added."""
    path = draw(st.sampled_from(sorted(FLAGS)))
    rate = draw(st.integers(0, 4))  # in tenths

    def odd():
        return draw(st.integers(0, 9)) < rate

    flags = draw(st.permutations(FLAGS[path]))
    if odd():
        extra = draw(st.sampled_from([*FLAGS[path], "-h", "--help", "--bogus"]))
        flags.insert(draw(st.integers(0, len(flags))), extra)
    argv = list(path)
    if odd():
        argv = draw(st.sampled_from([["tensor"], ["check", "bogus"], ["check"], [], [""], ["-3"], ["Hwv"]]))
    for flag in flags:
        if odd():
            continue
        name = flag[:draw(st.integers(min(3, len(flag)), len(flag)))] if odd() else flag
        value = draw(st.sampled_from(ODD_VALUES if odd() else VALUES.get(flag, ["1", "2", "3"])))
        form = "bare" if flag in SWITCHES else "next"
        form = draw(st.sampled_from(["bare", "next", "joined"])) if odd() else form
        argv += [name] if form == "bare" else [name, value] if form == "next" else [f"{name}={value}"]
    return argv


@settings(max_examples=400, deadline=None)
@given(spelled_argvs())
# argparse's first scan refuses an ambiguous abbreviation before any value: the reader defers
@example(["check", "verma", "--depth", "0", "--h"])
@example(["check", "verma", "--hw", "x", "--h", "1"])
def test_reader_defers_wherever_argparse_fails(argv):
    read, expected = reader_or_error(argv), argparse_or_error(argv)
    assert agrees(read, expected), (argv, read, expected)
    assert (read is None) == (not is_canonical(argv)), argv  # it defers only where it must


def test_canonical_requests_need_no_argparse(monkeypatch):
    """Every canonical grid and golden argv that argparse accepts, a
    negative rational given as its own token, and every usage error of the
    tests and the benchmark but an unknown flag gives its recorded output
    with argparse's parse_args disabled."""
    import regen_golden
    from qsl2 import cli

    def parse_args(self, *args, **kwargs):
        raise AssertionError("argparse parsed a canonical argv")

    def accepted(argv):
        return is_canonical(argv) and isinstance(argparse_or_error(argv), argparse.Namespace)

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            return main(argv), out.getvalue()

    digest = [line.split("  ", 1) for line in (GOLDEN / "grid_digest.txt").read_text().splitlines()]
    canonical = [(h, argv.split()) for h, argv in digest if accepted(argv.split())]
    golden = {name: case for name, case in MANIFEST.items() if accepted(case["argv"])}
    # 75 of the canonical grid argvs join a value by "=", and 4 of them and 1 golden give a
    # negative rational as its own token
    assert len(canonical) == 2848 and len(golden) == 36
    assert sum(any("=" in t for t in argv) for _, argv in canonical) == 75
    assert sum(any(re.fullmatch(r"-\d+/\d+", t) for t in argv) for _, argv in canonical) == 4
    assert golden["check_verma_negative_hw"]["argv"] == ["check", "verma", "--hw", "-3/2", "--depth", "2"]
    negative = ["check", "rasskazova", "--beta", "-1/2", "--lambda", "-3", "--n", "2", "--window", "2"]
    assert accepted(negative)

    def unknown_flag(argv):  # after an unknown command or kind, argparse reads no flag
        path = command_path(argv)
        return path in FLAGS and any(t.startswith("--") and t.partition("=")[0] not in FLAGS[path] for t in argv)

    bench_usage = [item["argv"] for item in bench_items() if item["cmd"] == "usage"]
    usage = [argv for argv in [*map(list, USAGE_ERRORS), *bench_usage] if not unknown_flag(argv)]
    assert sum(unknown_flag(list(argv)) for argv in USAGE_ERRORS) == 5  # the flags of another check kind
    assert {tuple(argv) for argv in bench_usage if unknown_flag(argv)} == {
        ("check", "verma", "--hw", "1/3", "--depth", "4", "--quantum")}
    with monkeypatch.context() as through_argparse:  # the reader defers: argparse parses every argv
        through_argparse.setattr(cli, "_read_canonical", lambda parser, argv: None)
        recorded, errors = run(negative), [run(argv) for argv in usage]
    assert {code for code, _ in errors} == {2}
    monkeypatch.setattr(cli._Parser, "parse_args", parse_args)
    for h, argv in canonical:
        assert regen_golden.grid_hash(argv) == h, argv
    for name, case in golden.items():
        assert run(case["argv"]) == (case["exit"], (GOLDEN / f"{name}.json").read_text()), name
    assert run(negative) == recorded and recorded[0] == 0
    assert [run(argv) for argv in usage] == errors


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


@pytest.mark.parametrize("argv", [[3], ["hwv", "--m", 3, "--n", "1", "--p", "0"]], ids=["command", "value"])
def test_a_non_str_argv_ends_in_the_engine_fault_envelope(capsys, argv):
    # a library caller's int token is no usage error: indexing it raises, as argparse would
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out) == {
        "version": qsl2.__version__,
        "command": argv,
        "status": "error",
        "error": "TypeError: 'int' object is not subscriptable",
    }
    assert err.startswith("Traceback")


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


@pytest.mark.parametrize("argv, small, large", [
    (["check", "verma", "--hw", "-7/3", "--depth"], "10", "200"),
    (["check", "rasskazova", "--beta", "1/2", "--lambda", "-5/3", "--n", "3", "--window"], "2", "40"),
], ids=["verma", "rasskazova"])
def test_a_rational_check_builds_no_fraction_per_entry(capsys, monkeypatch, argv, small, large):
    # a rational module is stored and checked as int numerators over one denominator,
    # and described with one gcd per scalar, so the count does not grow with the module
    built = count_fractions(monkeypatch)
    counts = []
    for size in (small, large):
        built.clear()
        code, out = run_cli(capsys, argv + [size, "--describe"])
        assert code == 0 and json.loads(out)["payload"]["descriptor"]["weights"]
        counts.append(built["Fraction"])
    assert counts[0] == counts[1] > 0


# -- hwv: one kernel solve per request ----------------------------------------

HWV_3_3_1 = ["hwv", "--m", "3", "--n", "3", "--p", "1"]


@pytest.mark.parametrize("flags", [[], ["--quantum"]])
def test_hwv_request_runs_one_kernel_solve(capsys, monkeypatch, flags):
    # one kernel solve, with no elimination: the space of weight m+n-2p is bidiagonal;
    # a classical one is solved straight into its normal form, a quantum one in factored form
    solvers = ("_kernel", "_factored_kernel", "_kernel_fraction_free", "_normalize_rational", "_rank_mod")
    calls = count_calls(monkeypatch, *solvers)
    code, _ = run_cli(capsys, HWV_3_3_1 + flags)
    assert code == 0 and calls == Counter({"_kernel": 1, "_factored_kernel": 1} if flags else {"_kernel": 1})


@pytest.mark.parametrize("flags", [[], ["--quantum"]])
@pytest.mark.parametrize(
    "kernel, error",
    [
        (lambda rows, ncols, ring: [], "nullspace at weight 4 is 0-dimensional, expected 1"),
        (lambda rows, ncols, ring: [[ring(1)] * ncols], "nullspace certificate failed at weight 4 of "),
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


@pytest.mark.parametrize("argv, counter, pinned, control", [
    (["hwv", "--m", "6", "--n", "6", "--p", "3", "--quantum"], count_inits, {"init": 0}, lambda: LaurentPoly(1)),
    (["hwv", "--m", "14", "--n", "14", "--p", "7"], count_fractions, {"Fraction": 9 * FRACTION_SLACK},
     lambda: Fraction(1, 3)),
], ids=["quantum-laurent-validations", "classical-fractions"])
def test_an_hwv_request_builds_a_pinned_count_of_ring_values(capsys, monkeypatch, argv, counter, pinned, control):
    # a deterministic stand-in for a time budget: a ring result is built canonical with no
    # re-validation, the formula is compared factored, a twist is built as a monomial and no
    # zero or one is validated (73 validating constructions with none of them, 23 with the first
    # alone, 10 without the third, 2 without the last); a rational kernel on int products with one
    # Fraction per coordinate, certified on int numerators (51 Fractions before the first, 30
    # before the second); the first run fills the F_n, q and Phi_d product caches
    assert run_cli(capsys, argv)[0] == 0
    built = counter(monkeypatch)
    code, _ = run_cli(capsys, argv)
    assert code == 0 and all(built[k] <= n for k, n in pinned.items())
    request = built.copy()  # the positive control: one construction outside the request is counted
    control()
    assert built - request == Counter(dict.fromkeys(pinned, 1))


def test_quantum_hwv_requests_take_the_factored_path_and_no_gcd(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "lp_gcd", "_factored_kernel", "_kernel_fraction_free")
    for m in range(7):
        for n in range(7):
            for p in range(min(m, n) + 1):
                calls.clear()
                code, _ = run_cli(capsys, ["hwv", "--m", str(m), "--n", str(n), "--p", str(p), "--quantum"])
                assert code == 0 and calls == Counter({"_factored_kernel": 1}), (m, n, p)


def test_a_quantum_hwv_request_compares_without_dividing(capsys, monkeypatch):
    # the transfer formula and the oracle are compared as factored scalars: a quotient is integer
    # subtractions, so no request divides Laurent polynomials, and the oracle's space is walked once;
    # the first pass fills the F_n and Phi_d caches (Phi_d is built by one division)
    for argv in QUANTUM_HWV:
        assert run_cli(capsys, argv)[0] == 0
    calls = count_calls(monkeypatch, "_factored_kernel")
    divisions = count_calls(monkeypatch, "div_exact", module=LaurentPoly)
    for argv in QUANTUM_HWV:
        calls.clear()
        assert run_cli(capsys, argv)[0] == 0 and calls == Counter({"_factored_kernel": 1}), argv
    assert divisions == Counter()


def test_a_warm_quantum_hwv_sweep_builds_no_cyclotomic_product(capsys, monkeypatch):
    # the oracle's coordinates and the formula's scalar are expanded as +-v^e times a product of
    # Phi_d's read from a bounded cache, here an empty one of the engine's size: the 127 triples
    # expand 450 scalars on 37 distinct counts, so the first pass builds 37 products, the second none
    size = tensorcg._cyclotomic_product.cache_parameters()["maxsize"]
    product = functools.lru_cache(size)(tensorcg._cyclotomic_product.__wrapped__)
    monkeypatch.setattr(tensorcg, "_cyclotomic_product", product)
    for hits in (413, 863):
        for argv in QUANTUM_HWV:
            assert run_cli(capsys, argv)[0] == 0
        assert product.cache_info() == (hits, 37, size, 37)


def test_a_corrupted_cyclotomic_factor_fails_the_certificate(capsys, monkeypatch):
    # hwv 3 3 2 expands Phi_3, Phi_4 and Phi_6; the cache is filled first, so
    # that no other Phi_d is built by dividing by the corrupted Phi_4, and the
    # products are read from an empty cache of their own, so each one is built
    # with the corrupted Phi_4 and the warm cache is back intact afterwards
    cyclotomic = tensorcg._cyclotomic
    for d in range(1, 20):
        cyclotomic(d)
    monkeypatch.setattr(tensorcg, "_cyclotomic", lambda d: cyclotomic(d) + 1 if d == 4 else cyclotomic(d))
    monkeypatch.setattr(tensorcg, "_cyclotomic_product", functools.cache(tensorcg._cyclotomic_product.__wrapped__))
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


def test_import_loads_no_dataclasses_inspect_or_typing():
    """What import qsl2.cli adds to the standard modules qsl2 itself needs:
    without site, so that no .pth file has loaded typing beforehand."""
    probe = (
        "import sys\n"
        "import argparse, collections.abc, fractions, functools, json, math, operator, re\n"
        "before = set(sys.modules)\n"
        "import qsl2.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = run_python("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "qsl2.cli" in added
    forbidden = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "qsl2._elimination", "threading",
                 "_weakrefset"}
    assert not added & forbidden, sorted(added)


def test_no_cli_request_loads_the_general_kernel_route():
    """The golden argvs and the grid run in a fresh interpreter without loading qsl2._elimination,
    so an import that leaves it out saves its compile instead of moving it into a request; all-weight
    hwv on F_1 (x) F_2 loads it, as its weight -1 space is square and takes the general route."""
    probe = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from regen_golden import grid\n"
        "from qsl2 import CLASSICAL, cli, finite_dim, highest_weight_vectors, tensor\n"
        "golden = [case['argv'] for case in json.loads(sys.stdin.read()).values()]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in golden + grid()]\n"
        "print(len(codes), 'qsl2._elimination' in sys.modules)\n"
        "highest_weight_vectors(tensor(finite_dim(1, CLASSICAL), finite_dim(2, CLASSICAL)))\n"
        "print('qsl2._elimination' in sys.modules)\n"
    )
    proc = run_python("-c", probe, str(Path(__file__).parent), input=json.dumps(MANIFEST))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(MANIFEST) + 2851), "False", "True"]


def test_public_api_is_exactly_all():
    """Every name in __all__ resolves, import * binds exactly them, and qsl2.__all__ is
    qarith's, modrep's and tensorcg's lists in turn, each name defined where it is listed."""
    assert [name for name in qsl2.__all__ if not hasattr(qsl2, name)] == []
    assert len(set(qsl2.__all__)) == len(qsl2.__all__)
    star: dict = {}
    exec("from qsl2 import *", star)
    assert star.keys() - {"__builtins__"} == set(qsl2.__all__)
    modules = (qarith, modrep, tensorcg)
    for module in modules:
        assert [name for name in module.__all__ if name not in vars(module)] == []
        # an instance, such as CLASSICAL or v, reports its class's module
        assert {getattr(vars(module)[name], "__module__", module.__name__) for name in module.__all__} == {
            module.__name__}
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert qsl2.__all__ == [*names, "__version__"]


def test_quantum_switch_carries_the_flavor():
    from qsl2 import cli

    for path in (["decompose", "--m", "1", "--n", "2"], ["hwv", "--m", "1", "--n", "1", "--p", "0"],
                 ["check", "findim", "--n", "2"]):
        assert cli.parse_args(path).flavor is CLASSICAL
        assert cli.parse_args(path + ["--quantum"]).flavor is QUANTUM  # read off the action table
        assert cli.build_parser().parse_args(path + ["--quantum"]).flavor is QUANTUM  # through argparse
        assert "quantum" not in vars(cli.parse_args(path))


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
