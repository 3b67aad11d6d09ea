"""Regenerate the CLI golden files, their manifest and the grid digest.

Run from the repository root after an intentional output-format change:

    python3 tests/regen_golden.py

Review the diff before committing: the golden files are the CLI's
byte-exact contract, and the grid digest extends it to every hwv and
decompose invocation with m, n <= 8 and to the check and qtable
requests the benchmark draws.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qsl2.cli import main

CASES = {
    "decompose_1_1": (["decompose", "--m", "1", "--n", "1"], 0),
    "decompose_4_0": (["decompose", "--m", "4", "--n", "0"], 0),
    "decompose_2_3": (["decompose", "--m", "2", "--n", "3"], 0),
    "decompose_2_2_quantum": (["decompose", "--m", "2", "--n", "2", "--quantum"], 0),
    "hwv_1_1_1": (["hwv", "--m", "1", "--n", "1", "--p", "1"], 0),
    "hwv_1_1_1_quantum": (["hwv", "--m", "1", "--n", "1", "--p", "1", "--quantum"], 0),
    "hwv_2_2_0_quantum": (["hwv", "--m", "2", "--n", "2", "--p", "0", "--quantum"], 0),
    "hwv_p_out_of_range": (["hwv", "--m", "3", "--n", "1", "--p", "2"], 2),
    "check_findim_6_quantum": (["check", "findim", "--n", "6", "--quantum"], 0),
    "check_verma_5_2_8": (["check", "verma", "--hw", "5/2", "--depth", "8"], 0),
    "check_rasskazova_0_0_1_5": (
        ["check", "rasskazova", "--beta", "0", "--lambda", "0", "--n", "1", "--window", "5"],
        0,
    ),
    "check_fault_injection": (["check", "findim", "--n", "4", "--inject-fault"], 1),
    "check_malformed_rational": (["check", "verma", "--hw", "abc", "--depth", "3"], 2),
    "check_verma_negative_hw": (["check", "verma", "--hw", "-3/2", "--depth", "2"], 0),
    "qtable_0": (["qtable", "--max-n", "0"], 0),
    "qtable_2": (["qtable", "--max-n", "2"], 0),
    "qtable_3": (["qtable", "--max-n", "3"], 0),
    "check_findim_2_quantum_describe": (
        ["check", "findim", "--n", "2", "--quantum", "--describe"],
        0,
    ),
    "check_verma_5_2_3_describe": (
        ["check", "verma", "--hw", "5/2", "--depth", "3", "--describe"],
        0,
    ),
    "check_rasskazova_0_1_2_2_describe": (
        ["check", "rasskazova", "--beta", "0", "--lambda", "1", "--n", "2", "--window", "2",
         "--describe"],
        0,
    ),
    "check_fault_injection_quantum": (
        ["check", "findim", "--n", "3", "--quantum", "--inject-fault"],
        1,
    ),
    "hwv_2_2_1_quantum_csv": (
        ["hwv", "--m", "2", "--n", "2", "--p", "1", "--quantum", "--format", "csv"],
        0,
    ),
    "decompose_2_2_quantum_pretty": (
        ["decompose", "--m", "2", "--n", "2", "--quantum", "--format", "pretty"],
        0,
    ),
    "hwv_1_1_1_pretty": (["hwv", "--m", "1", "--n", "1", "--p", "1", "--format", "pretty"], 0),
    "hwv_2_2_0_quantum_pretty": (
        ["hwv", "--m", "2", "--n", "2", "--p", "0", "--quantum", "--format", "pretty"],
        0,
    ),
    "hwv_2_2_1_quantum_pretty": (
        ["hwv", "--m", "2", "--n", "2", "--p", "1", "--quantum", "--format", "pretty"],
        0,
    ),
    "check_verma_5_2_3_pretty": (
        ["check", "verma", "--hw", "5/2", "--depth", "3", "--format", "pretty"],
        0,
    ),
    "check_verma_5_2_3_csv": (
        ["check", "verma", "--hw", "5/2", "--depth", "3", "--format", "csv"],
        0,
    ),
    "check_rasskazova_0_1_2_2_pretty": (
        ["check", "rasskazova", "--beta", "0", "--lambda", "1", "--n", "2", "--window", "2",
         "--format", "pretty"],
        0,
    ),
    "check_rasskazova_0_1_2_2_csv": (
        ["check", "rasskazova", "--beta", "0", "--lambda", "1", "--n", "2", "--window", "2",
         "--format", "csv"],
        0,
    ),
    "qtable_3_pretty": (["qtable", "--max-n", "3", "--format", "pretty"], 0),
    "decompose_3_1_pretty": (["decompose", "--m", "3", "--n", "1", "--format", "pretty"], 0),
    "decompose_20_20_quantum_csv": (
        ["decompose", "--m", "20", "--n", "20", "--quantum", "--format", "csv"],
        0,
    ),
    "check_findim_3_describe": (["check", "findim", "--n", "3", "--describe"], 0),
    "hwv_3_2_2_csv": (["hwv", "--m", "3", "--n", "2", "--p", "2", "--format", "csv"], 0),
    "check_fault_injection_rasskazova_0_0_2_1": (
        ["check", "rasskazova", "--beta", "0", "--lambda", "0", "--n", "2", "--window", "1",
         "--inject-fault"],
        1,
    ),
    "check_fault_injection_unread_0_0_1_1": (
        ["check", "rasskazova", "--beta", "0", "--lambda", "0", "--n", "1", "--window", "1",
         "--inject-fault"],
        2,
    ),
}


def grid() -> list[list[str]]:
    """Every hwv with m, n <= 8 and p <= min(m, n) + 1 (the last p is a
    usage error), then every decompose with m, n <= 8; each classical and
    quantum, in each of the three formats.  Then the check and qtable
    requests the benchmark workloads draw, over the ends of their ranges:
    check findim with n <= 8 and qtable with max-n <= 10 in every format
    and flavour; check verma and check rasskazova on non-integral
    rationals, plain, --describe and --inject-fault; and two negative
    rationals passed as separate tokens.  No argparse error is included:
    its wording varies across the supported Python versions."""
    variants = [[*quantum, "--format", fmt] for quantum in ([], ["--quantum"]) for fmt in ("json", "csv", "pretty")]
    hwv = [["hwv", "--m", str(m), "--n", str(n), "--p", str(p)]
           for m in range(9) for n in range(9) for p in range(min(m, n) + 2)]
    decompose = [["decompose", "--m", str(m), "--n", str(n)] for m in range(9) for n in range(9)]
    findim = [["check", "findim", "--n", str(n)] for n in range(9)]
    qtable = [["qtable", "--max-n", str(n), "--format", fmt] for n in range(11) for fmt in ("json", "csv", "pretty")]
    checks = [["check", "verma", f"--hw={hw}", "--depth", str(depth)]
              for hw in ("1/2", "-7/3", "40/9") for depth in (1, 8, 50, 300)]
    checks += [["check", "rasskazova", f"--beta={beta}", f"--lambda={lam}", "--n", str(n), "--window", str(window)]
               for beta, lam in (("1/2", "-1/3"), ("-40/9", "7/2")) for n in (1, 5) for window in (1, 10, 40)]
    checks = [argv + flag for argv in checks for flag in ([], ["--describe"], ["--inject-fault"])]
    separate = [["check", "verma", "--hw", "-3/2", "--depth", "4"],
                ["check", "rasskazova", "--beta", "1/2", "--lambda", "-1/3", "--n", "2", "--window", "2"]]
    return [argv + variant for argv in hwv + decompose + findim for variant in variants] + qtable + checks + separate


def grid_hash(argv: list[str]) -> str:
    """The first 16 hex digits of SHA-256 over the exit status and stdout of main(argv)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()[:16]


def regenerate_digest(path: Path) -> None:
    """One line per grid argv: its hash, two spaces, the argv joined by spaces."""
    argvs = grid()
    path.write_text("".join(f"{grid_hash(argv)}  {' '.join(argv)}\n" for argv in argvs))
    print(f"wrote {len(argvs)} grid hashes to {path}")


def regenerate(golden_dir: Path) -> None:
    manifest = {}
    for name, (argv, expected_exit) in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != expected_exit:
            raise SystemExit(f"{name}: exit {code}, expected {expected_exit}")
        (golden_dir / f"{name}.json").write_text(buf.getvalue())
        manifest[name] = {"argv": argv, "exit": expected_exit}
    with open(golden_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(CASES)} golden files to {golden_dir}")


if __name__ == "__main__":
    regenerate(Path(__file__).parent / "golden")
    regenerate_digest(Path(__file__).parent / "golden" / "grid_digest.txt")
