"""Command-line surface for batch computation.

Subcommands: decompose, hwv, check, qtable.  Every invocation writes
exactly one output envelope, except -h/--help: that prints argparse's
help, no envelope, and exits 0 (main raises SystemExit(0)).  The json
format (default) is canonical — sorted keys, compact separators — so
identical invocations are byte-identical.  csv renders the flat tables;
pretty is for humans and carries no stability guarantee.  Errors always
emit a json error envelope.  Exit status: 0 success, 1 internal check
failure (relation failures, cross-check mismatch), 2 usage error.

All inputs are flags; rationals are written "a/b".  No configuration
files, no environment variables, no floating point.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .modrep import (
    RasskazovaParams,
    check_relations,
    corrupt_one_entry,
    finite_dim_classical,
    finite_dim_quantum,
    rasskazova,
    verma_classical,
)
from .qarith import q_fact, q_int
from .serialize import (
    comparison_json,
    decomposition_json,
    label_str,
    laurent_json,
    laurent_token,
    module_descriptor,
    relation_report_json,
    scalar_token,
    vector_json,
)
from .tensorcg import (
    NullspaceError,
    cg_decompose,
    decompose_by_character,
    highest_weight_vector,
    phi_vs_oracle,
    tensor,
)


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes any other "-..." token for an option, so a negative
        # rational "-a/b" given as its own token would lose its flag's value
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise UsageError(message)


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational 'a/b': {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="qsl2", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p = sub.add_parser("decompose", help="Clebsch-Gordan decomposition of F_m (x) F_n")
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--quantum", action="store_true")
    add_format(p)

    p = sub.add_parser("hwv", help="highest-weight vector of weight m+n-2p")
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--p", type=_nonneg, required=True)
    p.add_argument("--quantum", action="store_true")
    add_format(p)

    p = sub.add_parser("check", help="verify the defining relations on a module")
    p.add_argument("kind", choices=("findim", "verma", "rasskazova"))
    p.add_argument("--n", type=_nonneg, help="findim weight / rasskazova layer count")
    p.add_argument("--quantum", action="store_true", help="findim only")
    p.add_argument("--hw", type=_rational, help="verma highest weight, rational a/b")
    p.add_argument("--depth", type=_positive, help="verma truncation depth")
    p.add_argument("--beta", type=_rational)
    p.add_argument("--lambda", dest="lam", type=_rational)
    p.add_argument("--window", type=_positive, help="rasskazova window J")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="perturb one matrix entry first (diagnostic; must fail)",
    )
    p.add_argument(
        "--describe",
        action="store_true",
        help="include the full module descriptor in the payload",
    )
    add_format(p)

    p = sub.add_parser("qtable", help="table of q-integers and q-factorials")
    p.add_argument("--max-n", dest="max_n", type=_nonneg, required=True)
    add_format(p)

    return parser


@dataclass
class CommandResult:
    payload: object
    pretty: str
    csv: str
    interpretation: str | None = None


def _findim_tensor(ns):
    findim = finite_dim_quantum if ns.quantum else finite_dim_classical
    return tensor(findim(ns.m), findim(ns.n))


def cmd_decompose(ns) -> CommandResult:
    closed = cg_decompose(ns.m, ns.n)
    module = _findim_tensor(ns)
    peeled = decompose_by_character(module)
    payload = decomposition_json(closed)
    if peeled != closed:
        raise CheckFailure(
            "closed-form decomposition disagrees with character peeling",
            {"closed_form": payload, "character": decomposition_json(peeled)},
        )
    pretty_lines = [f"F_{ns.m} (x) F_{ns.n}  [{module.flavor.name}]"]
    pretty_lines += [f"  weight {w}  multiplicity {mult}" for w, mult in closed.pairs()]
    pretty_lines.append(f"  total dimension {closed.total_dim}")
    csv = "weight,multiplicity\n" + "".join(f"{w},{m}\n" for w, m in closed.pairs())
    return CommandResult(payload, "\n".join(pretty_lines) + "\n", csv)


def cmd_hwv(ns) -> CommandResult:
    if ns.p > min(ns.m, ns.n):
        raise UsageError(f"--p must be <= min(m, n) = {min(ns.m, ns.n)}, got {ns.p}")
    target = ns.m + ns.n - 2 * ns.p
    report = None
    try:
        if ns.quantum:
            report = phi_vs_oracle(ns.m, ns.n, ns.p)
            vec = report.oracle
        else:
            vec = highest_weight_vector(_findim_tensor(ns), target)
    except NullspaceError as exc:
        raise CheckFailure(str(exc))
    payload = {"weight": target, "flavor": vec.module.flavor.name, "vector": vector_json(vec)}
    lines = [f"highest-weight vector at weight {target} in {vec.module.name}"]
    lines += [f"  {label_str(lab)}: {scalar_token(c)}" for lab, c in vec.items_in_order()]
    if report is not None:
        payload["phi"] = comparison_json(report)
        if report.proportional:
            lines.append(f"  formula: proportional, scalar {laurent_token(report.scalar)}")
        else:
            lab, formula_c, oracle_c = report.witness
            lines.append(
                f"  formula: mismatch at {label_str(lab)} "
                f"(formula {scalar_token(formula_c)}, oracle {scalar_token(oracle_c)})"
            )
    csv = "label,coefficient\n" + "".join(
        f"{label_str(lab)},{scalar_token(c)}\n" for lab, c in vec.items_in_order()
    )
    interpretation = report.interpretation if report else None
    return CommandResult(payload, "\n".join(lines) + "\n", csv, interpretation)


def cmd_check(ns) -> CommandResult:
    if ns.quantum and ns.kind != "findim":
        raise UsageError(f"--quantum is not available for {ns.kind}")
    if ns.kind == "findim":
        if ns.n is None:
            raise UsageError("check findim requires --n")
        module = finite_dim_quantum(ns.n) if ns.quantum else finite_dim_classical(ns.n)
    elif ns.kind == "verma":
        if ns.hw is None or ns.depth is None:
            raise UsageError("check verma requires --hw and --depth")
        module = verma_classical(ns.hw, ns.depth)
    else:
        missing = [
            flag
            for flag, val in (
                ("--beta", ns.beta),
                ("--lambda", ns.lam),
                ("--n", ns.n),
                ("--window", ns.window),
            )
            if val is None
        ]
        if missing:
            raise UsageError(f"check rasskazova requires {' '.join(missing)}")
        if ns.n < 1:
            raise UsageError("check rasskazova requires --n >= 1")
        module = rasskazova(RasskazovaParams(ns.beta, ns.lam, ns.n, ns.window))

    if ns.inject_fault:
        try:
            module = corrupt_one_entry(module)
        except ValueError as exc:
            raise UsageError(str(exc))

    report = check_relations(module)
    payload = relation_report_json(report)
    if ns.describe:
        payload["descriptor"] = module_descriptor(module)
    if not report.ok:
        raise CheckFailure(
            f"relation check failed: {len(report.failures)} failure(s)", payload
        )

    lines = [
        f"relation check: {report.module} [{report.flavor}]",
        f"  checked {len(report.checked)} basis vectors, "
        f"{len(report.failures)} failures, {len(report.excluded)} excluded",
        "  PASS",
    ]
    csv = (
        "module,flavor,checked,failures,excluded,ok\n"
        f"{report.module},{report.flavor},{len(report.checked)},"
        f"{len(report.failures)},{len(report.excluded)},{str(report.ok).lower()}\n"
    )
    return CommandResult(payload, "\n".join(lines) + "\n", csv)


def cmd_qtable(ns) -> CommandResult:
    table = []  # (k, [k], [k]!) with [k]! = [k-1]! [k]
    fact = q_fact(0)
    for k in range(ns.max_n + 1):
        qk = q_int(k)
        if k > 1:
            fact = fact * qk
        table.append((k, qk, fact))
    rows = [{"n": k, "qint": laurent_json(qk), "qfact": laurent_json(f)} for k, qk, f in table]
    lines = [f"[{k}] = {qk}    [{k}]! = {f}" for k, qk, f in table]
    csv = "n,qint,qfact\n" + "".join(
        f"{k},{laurent_token(qk)},{laurent_token(f)}\n" for k, qk, f in table
    )
    return CommandResult(rows, "\n".join(lines) + "\n", csv)


COMMANDS = {
    "decompose": cmd_decompose,
    "hwv": cmd_hwv,
    "check": cmd_check,
    "qtable": cmd_qtable,
}


def _dump(envelope: dict) -> str:
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    envelope: dict = {"version": __version__, "command": argv}
    try:
        ns = build_parser().parse_args(argv)
        result = COMMANDS[ns.cmd](ns)
    except UsageError as exc:
        envelope.update(status="error", error=str(exc))
        sys.stdout.write(_dump(envelope))
        return 2
    except CheckFailure as exc:
        envelope.update(status="error", error=str(exc))
        if exc.payload is not None:
            envelope["payload"] = exc.payload
        sys.stdout.write(_dump(envelope))
        return 1

    envelope.update(status="ok", payload=result.payload)
    if result.interpretation is not None:
        envelope["interpretation"] = result.interpretation
    if ns.format == "json":
        sys.stdout.write(_dump(envelope))
    elif ns.format == "csv":
        sys.stdout.write(result.csv)
    else:
        sys.stdout.write(result.pretty)
    return 0


def run() -> None:
    sys.exit(main())
