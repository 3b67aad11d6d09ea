"""Exact, canonical serialization of the package's values.

Every number is emitted exactly: integers stay integers, other
rationals become "a/b" strings, Laurent polynomials become lists of
(exponent, numerator, denominator) triples ascending by exponent.
These forms are the machine-readable contract of the command-line
tool; the token forms are comma-free so CSV rows need no quoting.
A basis label is written as it is: the built-in ones are str names.
"""

from __future__ import annotations

from math import gcd

from .modrep import RelationReport, Vector, WeightModule
from .qarith import LaurentPoly
from .tensorcg import ComparisonReport, Decomposition


def rational_json(x):
    """An int or a Fraction; a float has no numerator and raises AttributeError."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def laurent_json(p: LaurentPoly) -> list:
    return [[e, c.numerator, c.denominator] for e, c in p.terms()]


def scalar_json(x):
    if isinstance(x, LaurentPoly):
        return laurent_json(x)
    return rational_json(x)


def laurent_token(p: LaurentPoly) -> str:
    """Comma-free compact form, ascending exponents: 1*v^-1+2*v^3."""
    if not p:
        return "0"
    parts = []
    for e, c in p.terms():
        piece = f"{abs(c)}*v^{e}"
        parts.append(("-" if c < 0 else "+") + piece)
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def scalar_token(x) -> str:
    if isinstance(x, LaurentPoly):
        return laurent_token(x)
    return str(x)


def vector_json(x: Vector) -> list:
    return [[lab, scalar_json(c)] for lab, c in x.items_in_order()]


def decomposition_json(d: Decomposition) -> list:
    return [[w, mult] for w, mult in d.pairs()]


def relation_report_json(r: RelationReport) -> dict:
    return {
        "module": r.module,
        "flavor": r.flavor,
        "relations": list(r.relations),
        "checked": len(r.checked),
        "failures": [
            {
                "relation": fl.relation,
                "label": fl.label,
                "defect": [[lab, scalar_json(c)] for lab, c in fl.defect],
            }
            for fl in r.failures
        ],
        "excluded": list(r.excluded),
        "ok": r.ok,
    }


def comparison_json(r: ComparisonReport) -> dict:
    out: dict = {"proportional": r.proportional, "interpretation": r.interpretation}
    if r.proportional:
        out["scalar"] = laurent_json(r.scalar)
    else:
        lab, phi_c, oracle_c = r.witness
        out["witness"] = {
            "label": lab,
            "formula": scalar_json(phi_c),
            "oracle": scalar_json(oracle_c),
        }
    return out


def module_descriptor(m: WeightModule) -> dict:
    """Full sparse description: flavor, basis, weights, and each generator as
    (row label, column label, scalar) triplets, the diagonal ones from their
    eigenvalues on the weights; a classical value is read off its numerator over m.den."""
    fl, den, weights, pos, rendered = m.flavor, m.den, m.num_weights, m.position, {}
    def over(n):  # n/den in lowest terms, with one gcd and no Fraction, once per distinct n
        if (s := rendered.get(n)) is None:
            g = gcd(n, den)
            s = rendered[n] = n // g if g == den else f"{n // g}/{den // g}"
        return s
    scalar = scalar_json if fl.ring is LaurentPoly else over
    action = {}
    for g in fl.generators:
        if g in m.num_action:
            mat = m.num_action[g]
            action[g] = [[row, col, scalar(entries[row])] for col in m.basis if (entries := mat.get(col))
                         for row in (sorted(entries, key=pos) if len(entries) > 1 else entries)]
        else:
            eigen = fl.diagonal[g]
            action[g] = [[lab, lab, scalar(c)] for lab in m.basis if (c := eigen(weights[lab]))]
    return {
        "flavor": fl.name,
        "name": m.name,
        "basis": list(m.basis),
        "weights": [[lab, over(weights[lab])] for lab in m.basis],
        "action": action,
        "boundary": [lab for lab in m.basis if lab in m.boundary],
    }
