"""Informational in-process timings of qsl2, one printed line each.

Run from anywhere:

    python3 tests/timings.py

Each timing runs in a fresh interpreter, as ``python3 tests/timings.py
NAME``, so a cold one reads no cache that another has built.  The lines:
the median of 15 ``import qsl2, qsl2.cli``, each in a fresh interpreter,
in raw ms, with that interpreter's sys.dont_write_bytecode beside it (True:
no bytecode is written, so where src holds no __pycache__ every import
compiles qsl2's source), then the same under ``python -S``,
where no site ``.pth`` file has imported a module (threading, say) before
qsl2, so it times all that qsl2 itself imports; all-weight
highest_weight_vectors on classical F_6^(x)3 and quantum F_4^(x)3 and
F_5^(x)3, with the general kernel route (qsl2._elimination) imported
first, so no compile is timed;
phi_vs_oracle over the 127 quantum hwv-sweep triples
1 <= m, n <= 6, 0 <= p <= min(m, n), a cold sweep, which builds the F_n,
q-integer and Phi_d product caches, then a warm one that reads them; the
warm time of tensor alone over those triples' two weight spaces m+n-2p and
m+n-2p+2, best of 5; then over the same two spaces of hwv-sweep's classical
triples, 4 <= m, n <= 14; and the warm time of check_relations on the
Verma module of highest weight 7/3 to depth 300 and on the Rasskazova
module V(1/3, -2/5, 5) with window 40, best of 5.  These are per-version
baselines, not gates: the exit status is 1 only if a timing raised.
Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def startup():
    probe = ("import sys, time; t = time.perf_counter(); import qsl2, qsl2.cli; "
             "print(time.perf_counter() - t, sys.dont_write_bytecode)")
    for flags, how in (((), ""), (("-S",), " under python -S")):
        runs = [subprocess.run([sys.executable, *flags, "-c", probe], capture_output=True, text=True, check=True,
                               env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout.split() for _ in range(15)]
        ms = statistics.median(float(t) * 1e3 for t, _ in runs)
        print(f"import qsl2, qsl2.cli{how}, median of {len(runs)} fresh interpreters: {ms:.1f} ms raw "
              f"(sys.dont_write_bytecode {runs[0][1]})")


def hwv_cubes():
    import qsl2._elimination  # noqa: F401  the general route, compiled here rather than in a timed call
    from qsl2 import CLASSICAL, QUANTUM, finite_dim, highest_weight_vectors, tensor

    for fl, n in ((CLASSICAL, 6), (QUANTUM, 4), (QUANTUM, 5)):
        f = finite_dim(n, fl)
        t = timeit.timeit(lambda: highest_weight_vectors(tensor(tensor(f, f), f)), number=1)
        print(f"all-weight hwv of {fl.name} F_{n}^(x)3: {t:.3f} s")


def triples(lo: int, hi: int) -> list[tuple[int, int, int]]:
    return [(m, n, p) for m in range(lo, hi + 1) for n in range(lo, hi + 1) for p in range(min(m, n) + 1)]


def phi_sweeps():
    from qsl2 import phi_vs_oracle

    t = triples(1, 6)
    for sweep in ("cold", "warm"):
        s = timeit.timeit(lambda: [phi_vs_oracle(*x) for x in t], number=1)
        print(f"phi_vs_oracle over the {len(t)} quantum hwv-sweep triples, {sweep} sweep: {s:.3f} s")


def cuts(flavor_name: str, lo: int, hi: int):
    import qsl2
    from qsl2 import finite_dim, tensor

    fl = getattr(qsl2, flavor_name.upper())
    t = [(finite_dim(m, fl), finite_dim(n, fl), {m + n - 2 * p, m + n - 2 * p + 2}) for m, n, p in triples(lo, hi)]

    def build():
        return [tensor(*x) for x in t]

    build()
    best = min(timeit.repeat(build, number=1, repeat=5))
    print(f"tensor over the two weight spaces of the {len(t)} {flavor_name} hwv-sweep triples, warm: {best * 1e3:.2f} ms")


def relation_checks():
    from fractions import Fraction

    from qsl2 import RasskazovaParams, check_relations, rasskazova, verma_classical

    for name, m in (("Verma 7/3 to depth 300", verma_classical(Fraction(7, 3), 300)),
                    ("Rasskazova 1/3, -2/5, n 5, window 40",
                     rasskazova(RasskazovaParams(Fraction(1, 3), Fraction(-2, 5), 5, 40)))):
        check_relations(m)
        best = min(timeit.repeat(lambda: check_relations(m), number=1, repeat=5))
        print(f"check_relations on {name}, warm: {best * 1e3:.2f} ms")


TIMINGS = {
    "startup": startup,
    "hwv-cubes": hwv_cubes,
    "phi-sweeps": phi_sweeps,
    "quantum-cuts": lambda: cuts("quantum", 1, 6),
    "classical-cuts": lambda: cuts("classical", 4, 14),
    "relation-checks": relation_checks,
}


def main(argv: list[str]) -> int:
    if argv:
        sys.path.insert(0, str(ROOT / "src"))
        TIMINGS[argv[0]]()
        return 0
    failed = [name for name in TIMINGS if subprocess.run([sys.executable, __file__, name]).returncode]
    for name in failed:
        print(f"{name}: failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
