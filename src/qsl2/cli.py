"""Command-line surface for batch computation.

Subcommands: decompose, hwv, check, qtable.  check has one sub-parser
per module kind (findim, verma, rasskazova); each declares only its own
flags, so another kind's flag is a usage error.  The parser is built once
per process, on first use.  Canonical argv (the command path, then whole
flags of it, each once, each value its own token, a negative number too,
or joined by "=") is read off the parser's action table, and so is its
usage error, raised as argparse raises it, in argparse's own words; all
else is argparse's: help and every other spelling, and their errors.

Every invocation writes exactly one output envelope, except -h/--help:
that prints argparse's help, no envelope, and exits 0 (main raises
SystemExit(0)).  The json format (default) is canonical — sorted keys,
compact separators — so identical invocations are byte-identical.  csv
renders the flat tables; pretty is for humans and carries no stability
guarantee.  Each command builds only the asked format: it returns the
csv or pretty text, or the json envelope's payload (and interpretation)
for main to wrap.  Errors always emit a json error envelope, whatever
--format says.  check --describe embeds the module descriptor in the
json payload, so it needs --format json: with csv or pretty it is a
usage error.  Exit status: 0 success, 1 internal check failure
(relation failures, cross-check mismatch, or any other exception the
engine raises, reported as "<Type>: <message>" with its traceback on
stderr), 2 usage error.

All inputs are flags; rationals are written "a/b".  No configuration
files, no environment variables, no floating point.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .modrep import (
    CLASSICAL,
    QUANTUM,
    RasskazovaParams,
    check_relations,
    corrupt_one_entry,
    rasskazova,
    verma_classical,
)
from .qarith import q_facts, q_int
from .serialize import (
    comparison_json,
    decomposition_json,
    laurent_json,
    laurent_token,
    module_descriptor,
    relation_report_json,
    scalar_token,
    vector_json,
)
from .tensorcg import (
    NullspaceError,
    _finite_dim,
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


def _nonneg(text: str, least: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _positive(text: str) -> int:
    return _nonneg(text, 1)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational 'a/b': {text!r}")


@functools.cache  # a constant: built on first use, not at import
def build_parser() -> _Parser:
    parser = _Parser(prog="qsl2", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p = sub.add_parser("decompose", help="Clebsch-Gordan decomposition of F_m (x) F_n")
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--quantum", dest="flavor", action="store_const", const=QUANTUM, default=CLASSICAL)
    add_format(p)

    p = sub.add_parser("hwv", help="highest-weight vector of weight m+n-2p")
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--p", type=_nonneg, required=True)
    p.add_argument("--quantum", dest="flavor", action="store_const", const=QUANTUM, default=CLASSICAL)
    add_format(p)

    p = sub.add_parser("check", help="verify the defining relations on a module")
    kinds = p.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    findim = kinds.add_parser("findim", help="F_n, classical or quantum")
    findim.add_argument("--n", type=_nonneg, required=True, help="highest weight")
    findim.add_argument("--quantum", dest="flavor", action="store_const", const=QUANTUM, default=CLASSICAL)
    verma = kinds.add_parser("verma", help="classical Verma module M(hw), truncated")
    verma.add_argument("--hw", type=_rational, required=True, help="highest weight, rational a/b")
    verma.add_argument("--depth", type=_positive, required=True, help="truncation depth")
    rass = kinds.add_parser("rasskazova", help="Rasskazova's V(beta, lambda, n)")
    rass.add_argument("--beta", type=_rational, required=True)
    rass.add_argument("--lambda", dest="lam", type=_rational, required=True)
    rass.add_argument("--n", type=_positive, required=True, help="layer count")
    rass.add_argument("--window", type=_positive, required=True, help="window J")
    for p in (findim, verma, rass):
        p.add_argument(
            "--inject-fault",
            action="store_true",
            help="perturb one matrix entry first (diagnostic; must fail)",
        )
        p.add_argument(
            "--describe",
            action="store_true",
            help="include the full module descriptor in the json payload",
        )
        add_format(p)

    p = sub.add_parser("qtable", help="table of q-integers and q-factorials")
    p.add_argument("--max-n", dest="max_n", type=_nonneg, required=True)
    add_format(p)

    return parser


def _read_canonical(parser: _Parser, argv: list[str]) -> argparse.Namespace | None:
    """parser.parse_args(argv) read off its actions, or None if argv is not canonical; a canonical
    argv argparse refuses raises argparse's UsageError, made by argparse's own pieces: for an
    unknown command, else for the first refused value, else for the required flags left out."""
    values, i, refused = {}, 0, None
    try:
        while commands := [a for a in parser._actions if not a.option_strings]:
            (action,) = commands  # the sub-parser choice, the only positional
            if i == len(argv) or argv[i][:1] == "-":
                return None  # no command, or an option before it
            if argv[i] not in action.choices:  # argparse refuses it, whatever follows
                parser._check_value(action, argv[i])
            values[action.dest], parser, i = argv[i], action.choices[argv[i]], i + 1
        actions = parser._option_string_actions  # the whole option strings of this command
        while i < len(argv):
            action, value = actions.get(argv[i]), None
            if action is None and argv[i].startswith("--"):  # --flag=value: the value may start with "-"
                flag, _, value = argv[i].partition("=")
                action = actions.get(flag)
            if action is None or action.dest in values or action.default is argparse.SUPPRESS or value in ("", "--"):
                return None  # not a flag of this command, repeated, -h, or nothing (argparse drops "--") after "="
            if action.nargs == 0 and value is None:
                values[action.dest], i = action.const, i + 1
                continue
            # a negative number is a value to argparse too: no option string here looks like one
            if value is None and i + 1 < len(argv) and (
                    argv[i + 1][:1] != "-" or parser._negative_number_matcher.fullmatch(argv[i + 1])):
                value, i = argv[i + 1], i + 1
            if action.nargs is not None or value is None:  # a switch given "=", or no value token
                return None
            try:
                value = value if action.type is None else action.type(value)
                if action.choices is not None and value not in action.choices:
                    parser._check_value(action, value)
            except argparse.ArgumentTypeError as exc:
                refused = refused or argparse.ArgumentError(action, str(exc))
            except argparse.ArgumentError as exc:
                refused = refused or exc
            values[action.dest], i = value, i + 1
    except argparse.ArgumentError as exc:
        raise UsageError(str(exc))
    missing = [a for a in parser._actions if a.dest not in values]
    required = [argparse._get_action_name(a) for a in missing if a.required]
    if refused or required:  # as argparse words it: the one literal here is its required-flags text
        raise UsageError(str(refused or argparse._("the following arguments are required: %s") % ", ".join(required)))
    # as argparse fills them in: no action here has both a type and a str default
    return argparse.Namespace(**values, **{a.dest: a.default for a in missing if a.default is not argparse.SUPPRESS})


def parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), or its UsageError, read off its action table when argv is canonical."""
    return _read_canonical(build_parser(), argv) or build_parser().parse_args(argv)


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _csv(header: str, rows) -> str:
    return _lines([header, *(",".join(map(str, row)) for row in rows)])


def cmd_decompose(ns):
    closed = cg_decompose(ns.m, ns.n)
    a, b = _finite_dim(ns.m, ns.flavor), _finite_dim(ns.n, ns.flavor)
    by_character = decompose_by_character(a, b)  # from the factors' characters: no tensor module
    if by_character != closed:
        raise CheckFailure(
            "closed-form decomposition disagrees with the character's multiplicities",
            {"closed_form": decomposition_json(closed), "character": decomposition_json(by_character)},
        )
    if ns.format == "csv":
        return _csv("weight,multiplicity", closed.pairs())
    if ns.format == "pretty":
        return _lines([
            f"F_{ns.m} (x) F_{ns.n}  [{a.flavor.name}]",
            *(f"  weight {w}  multiplicity {mult}" for w, mult in closed.pairs()),
            f"  total dimension {closed.total_dim}",
        ])
    return {"payload": decomposition_json(closed)}


def cmd_hwv(ns):
    if ns.p > min(ns.m, ns.n):
        raise UsageError(f"--p must be <= min(m, n) = {min(ns.m, ns.n)}, got {ns.p}")
    target = ns.m + ns.n - 2 * ns.p
    try:
        report = phi_vs_oracle(ns.m, ns.n, ns.p) if ns.flavor is QUANTUM else None
        vec = report.oracle if report else highest_weight_vector(  # only target's space and its image under e
            tensor(_finite_dim(ns.m, ns.flavor), _finite_dim(ns.n, ns.flavor), {target, target + 2}), target)
    except NullspaceError as exc:
        raise CheckFailure(str(exc))
    if ns.format == "csv":
        rows = ((lab, scalar_token(c)) for lab, c in vec.items_in_order())
        return _csv("label,coefficient", rows)
    if ns.format == "pretty":
        lines = [f"highest-weight vector at weight {target} in {vec.module.name}"]
        lines += [f"  {lab}: {scalar_token(c)}" for lab, c in vec.items_in_order()]
        if report is not None and report.proportional:
            lines.append(f"  formula: proportional, scalar {laurent_token(report.scalar)}")
        elif report is not None:
            lab, formula_c, oracle_c = report.witness
            lines.append(
                f"  formula: mismatch at {lab} "
                f"(formula {scalar_token(formula_c)}, oracle {scalar_token(oracle_c)})"
            )
        return _lines(lines)
    payload = {"weight": target, "flavor": vec.module.flavor.name, "vector": vector_json(vec)}
    if report is None:
        return {"payload": payload}
    payload["phi"] = comparison_json(report)
    return {"payload": payload, "interpretation": report.interpretation}


def cmd_check(ns):
    if ns.describe and ns.format != "json":
        raise UsageError(f"--describe needs --format json, got --format {ns.format}")
    if ns.kind == "findim":
        module = _finite_dim(ns.n, ns.flavor)
    elif ns.kind == "verma":
        module = verma_classical(ns.hw, ns.depth)
    else:
        module = rasskazova(RasskazovaParams(ns.beta, ns.lam, ns.n, ns.window))

    if ns.inject_fault:
        try:
            module = corrupt_one_entry(module)
        except ValueError as exc:
            raise UsageError(str(exc))

    report = check_relations(module)
    if not report.ok or ns.format == "json":  # a failure is always a json envelope
        payload = relation_report_json(report)
        if ns.describe:
            payload["descriptor"] = module_descriptor(module)
        if report.ok:
            return {"payload": payload}
        raise CheckFailure(f"relation check failed: {len(report.failures)} failure(s)", payload)

    checked, failures, excluded = len(report.checked), len(report.failures), len(report.excluded)
    if ns.format == "csv":
        return _csv(
            "module,flavor,checked,failures,excluded,ok",
            [(report.module, report.flavor, checked, failures, excluded, "true")],
        )
    return _lines([
        f"relation check: {report.module} [{report.flavor}]",
        f"  checked {checked} basis vectors, {failures} failures, {excluded} excluded",
        "  PASS",
    ])


def cmd_qtable(ns):
    table = [(k, q_int(k), f) for k, f in enumerate(q_facts(ns.max_n))]
    if ns.format == "csv":
        rows = ((k, laurent_token(qk), laurent_token(f)) for k, qk, f in table)
        return _csv("n,qint,qfact", rows)
    if ns.format == "pretty":
        return _lines(f"[{k}] = {qk}    [{k}]! = {f}" for k, qk, f in table)
    rows = [{"n": k, "qint": laurent_json(qk), "qfact": laurent_json(f)} for k, qk, f in table]
    return {"payload": rows}


COMMANDS = {
    "decompose": cmd_decompose,
    "hwv": cmd_hwv,
    "check": cmd_check,
    "qtable": cmd_qtable,
}


def _dump(envelope: dict) -> str:
    # main builds the envelope afresh from dicts, lists, strs, ints and bools: it holds no cycle
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = parse_args(argv)
        result, code = COMMANDS[ns.cmd](ns), 0
    except UsageError as exc:
        result, code = {"status": "error", "error": str(exc)}, 2
    except CheckFailure as exc:
        result, code = {"status": "error", "error": str(exc)}, 1
        if exc.payload is not None:
            result["payload"] = exc.payload
    except Exception as exc:  # an engine fault still ends in one envelope
        import traceback  # here, not at the top: its import adds to every start-up

        traceback.print_exc()
        result, code = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}, 1
    if isinstance(result, dict):  # a json envelope; an error's status replaces "ok"
        result = _dump({"version": __version__, "command": argv, "status": "ok", **result})
    sys.stdout.write(result)
    return code


def run() -> None:
    sys.exit(main())
