"""Output checks that share no code with qsl2.

Every check recomputes the expected answer with its own small exact
arithmetic: rationals are ``fractions.Fraction`` and Laurent polynomials
in v are dicts ``{exponent: Fraction}`` with no zero values.  A check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# -- Laurent polynomials as {exponent: Fraction} ------------------------------


def lp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            s = out.get(e1 + e2, 0) + c1 * c2
            if s:
                out[e1 + e2] = s
            else:
                out.pop(e1 + e2, None)
    return out


def qint(n: int) -> dict:
    """Balanced q-integer v^(n-1) + v^(n-3) + ... + v^(1-n); [0] = 0."""
    if n < 0:
        return {e: -c for e, c in qint(-n).items()}
    return {n - 1 - 2 * i: Fraction(1) for i in range(n)}


def qfact(n: int) -> dict:
    out = {0: Fraction(1)}
    for k in range(2, n + 1):
        out = lp_mul(out, qint(k))
    return out


def lp_triples(p: dict) -> list:
    """The documented json form: [exponent, numerator, denominator] ascending."""
    return [[e, c.numerator, c.denominator] for e, c in sorted(p.items())]


# -- parsing the documented token forms ---------------------------------------


def _no_float(text):
    raise ValueError(f"floating-point number {text} in output")


def parse_json(out: str):
    """Parse one canonical json envelope line; raise ValueError if it is not."""
    if not out.endswith("\n") or "\n" in out[:-1]:
        raise ValueError("json output is not exactly one line")
    env = json.loads(out, parse_float=_no_float)
    if json.dumps(env, sort_keys=True, separators=(",", ":")) + "\n" != out:
        raise ValueError("json output is not canonical")
    return env


def rational(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"not an exact rational: {x!r}")
    if isinstance(x, str) and not re.fullmatch(r"-?\d+/\d+", x):
        raise ValueError(f"not an a/b rational: {x!r}")
    return Fraction(x)


def laurent_from_json(triples) -> dict:
    out: dict = {}
    last = None
    for e, num, den in triples:
        if last is not None and e <= last:
            raise ValueError("laurent triples not strictly ascending")
        c = Fraction(num, den)
        if not c or (c.numerator, c.denominator) != (num, den):
            raise ValueError(f"laurent coefficient {num}/{den} not in lowest terms")
        out[e] = c
        last = e
    return out


def rational_token(tok: str) -> Fraction:
    return rational(int(tok) if re.fullmatch(r"-?\d+", tok) else tok)


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)\*v\^(-?\d+)")


def laurent_from_token(tok: str) -> dict:
    """Parse the comma-free csv form 1*v^-1+2/3*v^3 ("0" is zero)."""
    if tok == "0":
        return {}
    out: dict = {}
    pos = 0
    while pos < len(tok):
        m = _TERM.match(tok, pos)
        # only the first term may omit its sign, and it never writes "+"
        if m is None or m.group(1) == ("+" if pos == 0 else ""):
            raise ValueError(f"bad laurent token {tok!r}")
        c = Fraction(m.group(2)) * (-1 if m.group(1) == "-" else 1)
        out = lp_add(out, {int(m.group(3)): c})
        pos = m.end()
    return out


def parse_csv(out: str, header: str) -> list[list[str]]:
    lines = out.split("\n")
    if lines[-1] != "" or lines[0] != header:
        raise ValueError(f"csv does not start with {header!r} and end in a newline")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != width for row in rows):
        raise ValueError("csv row with the wrong number of fields")
    return rows


# -- expected answers -----------------------------------------------------------


def closed_form(m: int, n: int) -> list[list[int]]:
    return [[w, 1] for w in range(m + n, abs(m - n) - 1, -2)]


def raising_image(m: int, n: int, quantum: bool, vec: dict) -> dict:
    """e (resp. E) applied to a vector {(i, j): scalar} of F_m (x) F_n.

    Coproducts as documented: e -> e(x)1 + 1(x)e classically and
    D(E) = E(x)K + 1(x)E with E.w_k = [n-k+1] w_{k-1}, K.w_k = v^(n-2k) w_k.
    """
    out: dict = {}

    def add(key, c):
        s = lp_add(out.get(key, {}), c) if quantum else out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    for (i, j), c in vec.items():
        if quantum:
            if i >= 1:
                add((i - 1, j), lp_mul(lp_mul(qint(m - i + 1), {n - 2 * j: Fraction(1)}), c))
            if j >= 1:
                add((i, j - 1), lp_mul(qint(n - j + 1), c))
        else:
            if i >= 1:
                add((i - 1, j), (m - i + 1) * c)
            if j >= 1:
                add((i, j - 1), (n - j + 1) * c)
    return out


_LABEL = re.compile(r"w_(\d+)\*w_(\d+)")


def check_hw_vector(m: int, n: int, p: int, quantum: bool, pairs) -> str | None:
    """pairs: (label string, parsed scalar).  A nonzero vector of weight
    m+n-2p killed by the raising operator spans the one-dimensional
    highest-weight space, so this pins the answer up to a scalar."""
    target = m + n - 2 * p
    vec: dict = {}
    for lab, c in pairs:
        hit = _LABEL.fullmatch(lab)
        if hit is None:
            return f"bad tensor label {lab!r}"
        i, j = int(hit.group(1)), int(hit.group(2))
        if not (0 <= i <= m and 0 <= j <= n) or (i, j) in vec:
            return f"label {lab} outside F_{m} (x) F_{n} or repeated"
        if (m - 2 * i) + (n - 2 * j) != target:
            return f"label {lab} has weight {(m - 2 * i) + (n - 2 * j)}, not {target}"
        if not c:
            return f"stored zero at {lab}"
        vec[(i, j)] = c
    if not vec:
        return "zero vector"
    if raising_image(m, n, quantum, vec):
        return "vector is not annihilated by the raising operator"
    return None


def qtable_rows(max_n: int) -> list[dict]:
    return [
        {"n": k, "qint": lp_triples(qint(k)), "qfact": lp_triples(qfact(k))}
        for k in range(max_n + 1)
    ]


# -- per-command checks ---------------------------------------------------------


def check_item(item: dict, code: int, out: str) -> str | None:
    """Check one request's exit code and output; None when right."""
    try:
        return _check(item, code, out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def _check(item: dict, code: int, out: str) -> str | None:
    argv, expect, fmt = item["argv"], item["expect"], item.get("format", "json")
    if code != expect:
        return f"exit {code}, expected {expect}"
    if code != 0 or fmt == "json":
        env = parse_json(out)
        if env.get("command") != argv or not isinstance(env.get("version"), str):
            return "envelope command/version wrong"
        if env.get("status") != ("ok" if code == 0 else "error"):
            return f"status {env.get('status')!r} disagrees with exit {code}"
        if code == 2:
            return None if env.get("error") and "payload" not in env else "bad usage envelope"
        if code == 1 and not env.get("error"):
            return "check failure without an error message"
        return CHECKS[item["cmd"]]["json"](item, env["payload"], env)
    return CHECKS[item["cmd"]][fmt](item, out, None)


def _decompose_json(item, payload, env):
    want = closed_form(item["m"], item["n"])
    return None if payload == want else f"decomposition {payload} != closed form {want}"


def _decompose_csv(item, out, _):
    rows = [[int(w), int(k)] for w, k in parse_csv(out, "weight,multiplicity")]
    return None if rows == closed_form(item["m"], item["n"]) else "csv decomposition wrong"


def _decompose_pretty(item, out, _):
    m, n = item["m"], item["n"]
    lines = out.splitlines()
    ok = (
        len(lines) == len(closed_form(m, n)) + 2
        and lines[-1].strip() == f"total dimension {(m + 1) * (n + 1)}"
    )
    return None if ok else "pretty decomposition wrong"


def _hwv_json(item, payload, env):
    m, n, p, quantum = item["m"], item["n"], item["p"], item["quantum"]
    if payload["weight"] != m + n - 2 * p:
        return f"weight {payload['weight']} != {m + n - 2 * p}"
    if payload["flavor"] != ("quantum" if quantum else "classical"):
        return "wrong flavor"
    parse = laurent_from_json if quantum else rational
    bad = check_hw_vector(m, n, p, quantum, [(lab, parse(c)) for lab, c in payload["vector"]])
    if bad or not quantum:
        return bad
    if payload["phi"]["proportional"] != (p == 0):
        return f"phi.proportional is {payload['phi']['proportional']} at p={p}"
    if env.get("interpretation") != payload["phi"]["interpretation"]:
        return "envelope interpretation differs from the report's"
    return None


def _hwv_csv(item, out, _):
    parse = laurent_from_token if item["quantum"] else rational_token
    pairs = [(lab, parse(tok)) for lab, tok in parse_csv(out, "label,coefficient")]
    return check_hw_vector(item["m"], item["n"], item["p"], item["quantum"], pairs)


def _hwv_pretty(item, out, _):
    target = item["m"] + item["n"] - 2 * item["p"]
    first = out.splitlines()[0] if out else ""
    ok = first.startswith(f"highest-weight vector at weight {target} ")
    return None if ok else "pretty hwv header wrong"


def expected_check(item) -> tuple[int, int]:
    """(dimension, boundary size) of the module a check request builds."""
    kind = item["kind"]
    if kind == "findim":
        return item["n"] + 1, 0
    if kind == "verma":
        return item["depth"] + 1, 1
    return item["n"] * (2 * item["window"] + 1), 2 * item["n"]


def expected_weights(item) -> list:
    kind = item["kind"]
    if kind == "findim":
        return [item["n"] - 2 * k for k in range(item["n"] + 1)]
    if kind == "verma":
        return [item["hw"] - 2 * k for k in range(item["depth"] + 1)]
    J = item["window"]
    return [2 * j + item["beta"] for _ in range(item["n"]) for j in range(-J, J + 1)]


def _check_json(item, payload, env):
    dim, boundary = expected_check(item)
    fault = item.get("fault", False)
    nrel = 4 if item.get("quantum") else 3
    if payload["checked"] != dim - boundary:
        return f"checked {payload['checked']} != dimension {dim} - boundary {boundary}"
    if len(payload["excluded"]) != boundary or len(payload["relations"]) != nrel:
        return "excluded or relation list has the wrong length"
    if payload["ok"] == fault or bool(payload["failures"]) != fault:
        return f"ok={payload['ok']} with {len(payload['failures'])} failures, fault={fault}"
    if item.get("describe"):
        desc = payload["descriptor"]
        weights = [w if isinstance(w, int) else rational(w) for _, w in desc["weights"]]
        if len(desc["basis"]) != dim or len(desc["boundary"]) != boundary:
            return "descriptor basis or boundary has the wrong size"
        if weights != expected_weights(item):
            return "descriptor weights differ from the closed form"
    return None


def _check_csv(item, out, _):
    dim, boundary = expected_check(item)
    rows = parse_csv(out, "module,flavor,checked,failures,excluded,ok")
    ok = len(rows) == 1 and rows[0][2:] == [str(dim - boundary), "0", str(boundary), "true"]
    return None if ok else "csv check row wrong"


def _check_pretty(item, out, _):
    dim, boundary = expected_check(item)
    ok = f"checked {dim - boundary} basis vectors, 0 failures" in out and out.endswith("PASS\n")
    return None if ok else "pretty check summary wrong"


def _qtable_json(item, payload, env):
    return None if payload == qtable_rows(item["max_n"]) else "qtable rows wrong"


def _qtable_csv(item, out, _):
    rows = parse_csv(out, "n,qint,qfact")
    got = [
        {"n": int(k), "qint": lp_triples(laurent_from_token(a)), "qfact": lp_triples(laurent_from_token(b))}
        for k, a, b in rows
    ]
    return None if got == qtable_rows(item["max_n"]) else "csv qtable rows wrong"


def _qtable_pretty(item, out, _):
    lines = out.splitlines()
    ok = len(lines) == item["max_n"] + 1 and all(
        line.startswith(f"[{k}] = ") for k, line in enumerate(lines)
    )
    return None if ok else "pretty qtable wrong"


CHECKS = {
    "decompose": {"json": _decompose_json, "csv": _decompose_csv, "pretty": _decompose_pretty},
    "hwv": {"json": _hwv_json, "csv": _hwv_csv, "pretty": _hwv_pretty},
    "check": {"json": _check_json, "csv": _check_csv, "pretty": _check_pretty},
    "qtable": {"json": _qtable_json, "csv": _qtable_csv, "pretty": _qtable_pretty},
}
