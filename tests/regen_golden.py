"""Regenerate the CLI golden files, their manifest and the grid digest.

Run from the repository root after an intentional output-format change:

    python3 tests/regen_golden.py

Review the diff before committing: the golden files are the CLI's
byte-exact contract, and the grid digest extends it to every hwv and
decompose invocation with m, n <= 8 and to the check and qtable
requests the benchmark draws.  The product digest pins every vector of
all-weight highest_weight_vectors on the triple products F_a (x) F_b (x) F_c,
the spaces that reach the elimination.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qsl2.cli import main
from qsl2.modrep import CLASSICAL, QUANTUM, finite_dim
from qsl2.tensorcg import highest_weight_vectors, tensor

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
    rationals passed as separate tokens.  Last, spellings other than the
    canonical one that every supported Python parses alike: "=" joins, an
    abbreviation, repeated flags, --format first and negative rationals
    as separate tokens.  No argparse error is included: its wording
    varies across the supported Python versions."""
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
    spellings = [["hwv", "--m=3", "--n", "2", "--p", "1"],
                 ["hwv", "--m", "2", "--n", "2", "--p", "1", "--quant"],
                 ["hwv", "--m", "1", "--n", "2", "--p", "1", "--m", "3", "--format", "pretty"],
                 ["decompose", "--format", "csv", "--m", "3", "--n", "2", "--quantum"],
                 ["qtable", "--format=pretty", "--max-n", "4"],
                 ["check", "findim", "--n", "3", "--quantum", "--quantum"],
                 ["check", "verma", "--depth", "3", "--hw", "-3/2", "--format", "csv"],
                 ["check", "rasskazova", "--beta", "-1/2", "--lambda=5/3", "--n", "2", "--window", "3"]]
    return ([argv + variant for argv in hwv + decompose + findim for variant in variants]
            + qtable + checks + separate + spellings)


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


def products() -> list[tuple]:
    """(flavor, a, b, c) for every F_a (x) F_b (x) F_c with a, b, c <= 4
    classical and <= 3 quantum (quantum F_4^(x)3 takes most of a second)."""
    return [(flavor, a, b, c) for flavor, top in ((CLASSICAL, 4), (QUANTUM, 3))
            for a in range(top + 1) for b in range(top + 1) for c in range(top + 1)]


def product_hash(flavor, a: int, b: int, c: int) -> str:
    """The first 16 hex digits of SHA-256 over the repr of every (weight,
    coordinates in basis order) that all-weight highest_weight_vectors
    returns on (F_a (x) F_b) (x) F_c: the repr shows each coordinate's type."""
    fa, fb, fc = (finite_dim(n, flavor) for n in (a, b, c))
    found = highest_weight_vectors(tensor(tensor(fa, fb), fc))
    return hashlib.sha256(repr([(w, x.items_in_order()) for w, x in found]).encode()).hexdigest()[:16]


def regenerate_products(path: Path) -> None:
    """One line per triple product: its hash, two spaces, the flavour and a, b, c."""
    lines = [f"{product_hash(*case)}  {case[0].name} {' '.join(map(str, case[1:]))}\n" for case in products()]
    path.write_text("".join(lines))
    print(f"wrote {len(lines)} product hashes to {path}")


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
    regenerate_products(Path(__file__).parent / "golden" / "product_digest.txt")
