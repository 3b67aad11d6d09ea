"""Linear algebra on modrep.Vector for the tests.

The reference relation evaluator, the reference coproduct and the
acceptance criteria add, subtract and scale vectors; the engine never
does, so modrep leaves these operations out.  Each returns a new Vector
and, as Vector does, drops zero entries.
"""

from qsl2.modrep import Vector


def basis_vector(m, label):
    """The basis vector of m labelled label, with coefficient the ring's one."""
    return Vector(m, {label: m.flavor.ring(1)})


def zero(m):
    return Vector(m, {})


def scaled(x, c):
    """x times the scalar c, each entry multiplied on the right."""
    return Vector(x.module, {lab: a * c for lab, a in x.entries.items()})


def add(x, *ys):
    """x + y + ..., summed left to right."""
    for y in ys:
        out = dict(x.entries)
        for lab, c in y.entries.items():
            out[lab] = out[lab] + c if lab in out else c
        x = Vector(x.module, out)
    return x


def sub(x, *ys):
    """x - y - ..., subtracted left to right."""
    return add(x, *(Vector(y.module, {lab: -c for lab, c in y.entries.items()}) for y in ys))
