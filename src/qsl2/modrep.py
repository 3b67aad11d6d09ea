"""Weight modules for classical and quantum sl(2).

Constructors for the finite-dimensional modules F_n (classical e/f/h and
quantum E/F/K actions), truncated Verma modules, and the Rasskazova
family V(beta, lambda, n), together with a machine check of the defining
algebra relations on every constructed module: the constructor's weight
grading certifies every relation but one, and check_relations evaluates
that one, the commutator of raising and lowering, on each basis vector.

A module is a finite ordered basis with weight labels and sparse
raising and lowering matrices over an exact scalar ring: Fraction for
classical modules, LaurentPoly for quantum ones; a known integer is
stored as an int in either.  A rational module is built, graded and
checked on int numerators over one common denominator; a Fraction is
made only where a scalar is a quotient or is reported.  Modules are
immutable after construction and every operation here is pure.

A basis label is the vector's printed name, a str: w_k for F_n and the
Verma modules, w^i_j for Rasskazova's, and la*lb for a tensor product.
Any hashable label is allowed; it is printed with str.

Every module carries a ``Flavor``, CLASSICAL or QUANTUM: the one value
that tells the two apart.  It names the generators and the scalar
ring, whose zero is ``ring()`` and one ``ring(1)``, gives the
eigenvalues by which the diagonal generators (h, or K and Kinv) act on
each weight, so that their matrices are never stored, and holds the
coproduct as data, the defining relations by name, the commutator's
value on each weight and the canonical scaling of kernel vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .qarith import LaurentPoly, lp_gcd, primitive, q_int


@dataclass(frozen=True, eq=False)
class Flavor:
    """Classical sl(2) or U_v(sl2), as data.

    ``ring`` is the scalar ring, Fraction or LaurentPoly: ``ring()`` is its
    zero, ``ring(1)`` its one; a stored scalar may also be an int or a Fraction.
    ``diagonal[g](w)`` is the eigenvalue of g on weight w.
    ``coproduct[g] = (right, left)`` means D(g) = g (x) right + left (x) g,
    each twist a diagonal generator or None for 1.  ``relations`` names
    the defining relations, [raising, lowering] = commutator(w) last; the
    others involve h, K or Kinv, which act by the weight, so WeightModule's
    weight grading proves them (see check_relations).
    """

    name: str
    raising: str
    lowering: str
    ring: type
    diagonal: dict
    coproduct: dict
    relations: tuple
    commutator: Callable
    normalize: Callable[[list], list]

    @property
    def generators(self) -> tuple[str, ...]:
        return (self.raising, self.lowering, *self.diagonal)


class WeightModule:
    """Graded basis with weight labels and sparse generator actions.

    ``action[g]`` maps a column label to the sparse column
    ``{row label: scalar}`` of the matrix of g; it holds exactly the
    raising and lowering generators.  ``boundary`` lists basis vectors
    whose image under some generator was clipped by truncating an
    infinite module; relation checks skip them.  A label is any hashable,
    printed with str; the built-in modules use the vector's name, a str.
    """

    __slots__ = ("flavor", "name", "basis", "weights", "action", "boundary", "_pos")

    def __init__(self, flavor: Flavor, name, basis, weights, action, boundary=()):
        if not isinstance(flavor, Flavor):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.name = name
        self.basis = tuple(basis)
        self._pos = {lab: i for i, lab in enumerate(self.basis)}
        if len(self._pos) != len(self.basis):
            raise ValueError("basis labels must be pairwise distinct")
        self.weights = dict(weights)
        self.action = {g: {c: dict(col) for c, col in mat.items()} for g, mat in action.items()}
        self.boundary = frozenset(boundary)
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def position(self, label) -> int:
        return self._pos[label]

    def column(self, gen: str, label) -> dict:
        """Sparse image of a basis vector under a generator."""
        mat = self.action.get(gen)
        if mat is not None:
            return mat.get(label, {})
        c = self.flavor.diagonal[gen](self.weights[label])
        return {label: c} if c else {}

    def _validate(self):
        fl = self.flavor
        if set(self.action) != {fl.raising, fl.lowering}:
            raise ValueError(f"{self.name}: stores {sorted(self.action)}, not {fl.raising} and {fl.lowering}")
        # v^w must be a ring element, so over Q a weight is any rational; an entry is int, Fraction or ring
        quantum = fl.ring is LaurentPoly
        allowed, kind = ({int}, "an integer") if quantum else ({int, Fraction}, "rational")
        scalars, ring = {int, Fraction, fl.ring}, "in Q[v, v^-1]" if quantum else "rational"
        weights = self.weights
        if weights.keys() != self._pos.keys():  # so a lookup in weights finds a label and its weight
            raise ValueError(f"{self.name}: the weights must label exactly the basis")
        if stray := self.boundary.difference(self._pos):  # else a typo leaves its vector checked
            raise ValueError(f"{self.name}: boundary label {min(map(str, stray))} is not in the basis")
        types = set(map(type, weights.values()))
        if not types <= allowed:
            lab, wt = next((lab, wt) for lab, wt in weights.items() if type(wt) not in allowed)
            raise ValueError(f"{self.name}: weight {wt} of {lab} is not {kind}")
        # the grading compared on integers: each weight times their common denominator
        den = lcm(*{wt.denominator for wt in weights.values()}) if Fraction in types else 1
        if den != 1:
            weights = {lab: wt.numerator * (den // wt.denominator) for lab, wt in weights.items()}
        # raising and lowering entries connect weights that differ by +-2
        for g, shift in ((fl.raising, 2 * den), (fl.lowering, -2 * den)):
            for col, entries in self.action[g].items():
                if (target := weights.get(col)) is None:
                    raise ValueError(f"{self.name}: unknown column label {col}")
                target += shift
                for row, c in entries.items():
                    if (wt := weights.get(row)) is None:
                        raise ValueError(f"{self.name}: unknown row label {row}")
                    if type(c) not in scalars:
                        raise ValueError(f"{self.name}: {g} entry {c} at ({row}, {col}) is not {ring}")
                    if not c:
                        raise ValueError(f"{self.name}: stored zero at ({row}, {col}) of {g}")
                    if wt != target:
                        raise ValueError(f"{self.name}: {g} entry ({row}, {col}) breaks the weight grading")

    def __repr__(self):
        return f"<WeightModule {self.name} dim={self.dim} {self.flavor.name}>"


class Vector:
    """Sparse linear combination of basis elements with exact entries."""

    __slots__ = ("module", "entries", "note")

    def __init__(self, module: WeightModule, entries: dict, note: str | None = None):
        self.module = module
        self.entries = {lab: c for lab, c in entries.items() if c}
        for lab in self.entries:
            if lab not in module._pos:
                raise ValueError(f"label {lab} does not belong to {module.name}")
        self.note = note

    @classmethod
    def zero(cls, module: WeightModule) -> "Vector":
        return cls(module, {})

    @classmethod
    def basis_vector(cls, module: WeightModule, label) -> "Vector":
        return cls(module, {label: module.flavor.ring(1)})

    def is_zero(self) -> bool:
        return not self.entries

    def items_in_order(self):
        """(label, scalar) pairs in ambient basis order."""
        return sorted(self.entries.items(), key=lambda kv: self.module.position(kv[0]))

    def scaled(self, c) -> "Vector":
        return Vector(self.module, {lab: x * c for lab, x in self.entries.items()})

    def __add__(self, other: "Vector") -> "Vector":
        out = dict(self.entries)
        for lab, c in other.entries.items():
            out[lab] = out[lab] + c if lab in out else c
        return Vector(self.module, out)

    def __sub__(self, other: "Vector") -> "Vector":
        return self + Vector(self.module, {lab: -c for lab, c in other.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.entries == other.entries

    def __str__(self):
        if not self.entries:
            return "0"
        parts = []
        for lab, c in self.items_in_order():
            cs = str(c)
            if " " in cs or "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{lab}" if cs != "1" else str(lab))
        return " + ".join(parts)

    def __repr__(self):
        return f"Vector({self})"


def apply(module: WeightModule, gen: str, x: Vector) -> Vector:
    """Exact sparse matrix-vector product g.x."""
    if gen not in module.flavor.generators:
        raise ValueError(f"generator {gen!r} not defined on {module.flavor.name} module {module.name}")
    if x.module is not module:
        raise ValueError(f"vector lives in {x.module.name}, not {module.name}")
    out: dict = {}
    for lab, c in x.entries.items():
        for row, a in module.column(gen, lab).items():
            out[row] = out[row] + a * c if row in out else a * c
    return Vector(module, out)


# -- constructors ------------------------------------------------------------


def finite_dim_classical(n: int) -> WeightModule:
    """The (n+1)-dimensional simple module with basis w_0 .. w_n.

    h.w_k = (n-2k) w_k, e.w_k = (n-k+1) w_{k-1}, f.w_k = (k+1) w_{k+1}.
    """
    if n < 0:
        raise ValueError(f"finite-dimensional module needs n >= 0, got {n}")
    basis = [f"w_{k}" for k in range(n + 1)]
    weights = {lab: n - 2 * k for k, lab in enumerate(basis)}
    e = {basis[k]: {basis[k - 1]: n - k + 1} for k in range(1, n + 1)}
    f = {basis[k]: {basis[k + 1]: k + 1} for k in range(n)}
    return WeightModule(CLASSICAL, f"F(n={n})", basis, weights, {"e": e, "f": f})


def finite_dim_quantum(n: int) -> WeightModule:
    """Quantum analogue of finite_dim_classical.

    K.w_k = v^(n-2k) w_k, E.w_k = [n-k+1] w_{k-1}, F.w_k = [k+1] w_{k+1}.
    """
    if n < 0:
        raise ValueError(f"finite-dimensional module needs n >= 0, got {n}")
    basis = [f"w_{k}" for k in range(n + 1)]
    weights = {lab: n - 2 * k for k, lab in enumerate(basis)}
    E = {basis[k]: {basis[k - 1]: q_int(n - k + 1)} for k in range(1, n + 1)}
    F = {basis[k]: {basis[k + 1]: q_int(k + 1)} for k in range(n)}
    return WeightModule(QUANTUM, f"Fq(n={n})", basis, weights, {"E": E, "F": F})


def verma_classical(hw, depth: int) -> WeightModule:
    """Verma module of highest weight hw, truncated below depth.

    f acts freely (f.w_k = w_{k+1}) with w_{depth+1} clipped, so w_depth
    is marked as the truncation boundary; e.w_k = k(hw-k+1) w_{k-1}.
    """
    if depth < 1:
        raise ValueError(f"Verma truncation depth must be >= 1, got {depth}")
    hw = Fraction(hw)
    p, q = hw.numerator, hw.denominator  # every scalar below over q, built once
    basis = [f"w_{k}" for k in range(depth + 1)]
    weights = {lab: Fraction(p - 2 * k * q, q) for k, lab in enumerate(basis)}
    e = {basis[k]: {basis[k - 1]: Fraction(k * (p - (k - 1) * q), q)}
         for k in range(1, depth + 1) if p != (k - 1) * q}  # no zero stored where hw = k-1
    f = {basis[k]: {basis[k + 1]: 1} for k in range(depth)}
    name = f"M(hw={hw};depth={depth})"
    return WeightModule(CLASSICAL, name, basis, weights, {"e": e, "f": f}, boundary=[basis[depth]])


@dataclass(frozen=True)
class RasskazovaParams:
    """Parameters (beta, lambda, n) plus the retained window j in [-J, J]."""

    beta: Fraction
    lam: Fraction
    n: int
    window: int

    def __post_init__(self):
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.n < 1:
            raise ValueError(f"Rasskazova family needs n >= 1, got {self.n}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")


def rasskazova(p: RasskazovaParams) -> WeightModule:
    """The module V(beta, lambda, n) on basis {w^i_j}, truncated to |j| <= J.

    h.w^i_j = (2j+beta) w^i_j
    e.w^i_j = w^i_{j+1}                                        for j >= 0
    e.w^i_j = (lam + j*beta + j(j+1)) w^i_{j+1} + w^{i-1}_{j+1}  for j < 0
    f.w^i_j = -(lam + (j-1)*beta + j(j-1)) w^i_{j-1} - w^{i-1}_{j-1}  for j > 0
    f.w^i_j = -w^i_{j-1}                                       for j <= 0
    with the convention w^0_j = 0.  Vectors with |j| = J sit on the
    truncation boundary.
    """
    beta, lam, n, J = p.beta, p.lam, p.n, p.window
    D = lcm(beta.denominator, lam.denominator)  # every scalar below over D, from numerators B and L
    B, L = int(beta * D), int(lam * D)
    at = {(i, j): f"w^{i}_{j}" for i in range(1, n + 1) for j in range(-J, J + 1)}  # entries reuse these
    basis = list(at.values())
    weights = dict(zip(basis, [Fraction(2 * j * D + B, D) for j in range(-J, J + 1)] * n))

    e: dict = {}
    f: dict = {}
    for (i, j), lab in at.items():
        if j + 1 <= J:
            col: dict = {}
            if j >= 0:
                col[at[i, j + 1]] = 1
            else:
                c = L + j * B + j * (j + 1) * D
                if c:
                    col[at[i, j + 1]] = Fraction(c, D)
                if i > 1:
                    col[at[i - 1, j + 1]] = 1
            if col:
                e[lab] = col
        if j - 1 >= -J:
            col = {}
            if j > 0:
                c = L + (j - 1) * B + j * (j - 1) * D
                if c:
                    col[at[i, j - 1]] = Fraction(-c, D)
                if i > 1:
                    col[at[i - 1, j - 1]] = -1
            else:
                col[at[i, j - 1]] = -1
            if col:
                f[lab] = col
    boundary = [lab for (i, j), lab in at.items() if abs(j) == J]
    name = f"V(beta={beta};lambda={lam};n={n};J={J})"
    return WeightModule(CLASSICAL, name, basis, weights, {"e": e, "f": f}, boundary=boundary)


# -- relation checking ----------------------------------------------------------


@dataclass(frozen=True)
class RelationFailure:
    relation: str
    label: object
    defect: tuple  # ((label, scalar), ...) in ambient order, never empty


@dataclass(frozen=True)
class RelationReport:
    """Exact pass/fail record of the defining relations on a module.

    Zero failures means every checked relation holds exactly on every
    non-boundary basis vector; ``excluded`` lists the truncation-boundary
    vectors that were skipped.
    """

    module: str
    flavor: str
    relations: tuple[str, ...]
    checked: tuple
    failures: tuple[RelationFailure, ...]
    excluded: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def check_relations(m: WeightModule) -> RelationReport:
    """Verify the defining sl(2) (or U_v(sl2)) relations on every
    non-boundary basis vector with exact arithmetic.

    On x of weight w with e.x = sum c_y y, [h,e]-2e leaves sum (wt(y)-w-2)
    c_y y and K E Kinv-v^2 E leaves sum (v^(wt(y)-w)-v^2) c_y y, zero as m
    is graded; so only [raising, lowering] = commutator(w) is evaluated,
    read from the stored columns.  Over Q it runs on ints, each scalar
    times the common denominator D, and a nonzero defect is divided by D^2.
    Failures are reported as data (relation name, basis vector, exact
    defect), never raised.
    """
    fl = m.flavor
    up, down = m.action[fl.raising], m.action[fl.lowering]
    checked = tuple([lab for lab in m.basis if lab not in m.boundary])  # a list: see qarith.primitive
    target = {lab: fl.commutator(m.weights[lab]) for lab in checked}
    D = None
    if fl.ring is Fraction:  # on integers: each scalar times D, the products times D^2
        D = lcm(*{c.denominator for x in (target, *up.values(), *down.values()) for c in x.values()})
        up, down = ({col: {row: c.numerator * (D // c.denominator) for row, c in entries.items()}
                     for col, entries in mat.items()} for mat in (up, down))
        target = {lab: c.numerator * (D * D // c.denominator) for lab, c in target.items()}
    failures = []
    for lab in checked:
        d = {lab: -target[lab]}
        for mid, a in down.get(lab, {}).items():  # + raising(lowering(x))
            for row, b in up.get(mid, {}).items():
                d[row] = d[row] + b * a if row in d else b * a
        for mid, a in up.get(lab, {}).items():  # - lowering(raising(x))
            for row, b in down.get(mid, {}).items():
                d[row] = d[row] - b * a if row in d else -(b * a)
        defect = [(row, c if D is None else Fraction(c, D * D)) for row, c in d.items() if c]
        if defect:
            defect.sort(key=lambda kv: m.position(kv[0]))
            failures.append(RelationFailure(fl.relations[-1], lab, tuple(defect)))

    return RelationReport(
        module=m.name,
        flavor=fl.name,
        relations=fl.relations,
        checked=checked,
        failures=tuple(failures),
        excluded=tuple([lab for lab in m.basis if lab in m.boundary]),
    )


def corrupt_one_entry(m: WeightModule) -> WeightModule:
    """Copy of m with one raising-operator entry perturbed by +1 (by -1
    where +1 would cancel it): the first, columns in basis order and rows
    by position, that a checked relation reads.  Its column x is off the
    boundary and lowering(y) is nonzero for its row y, or x lies in
    lowering(z) for some z off the boundary.

    Diagnostic helper: the copy must fail check_relations (exercising the
    defect report and the CLI exit status); ValueError if no entry qualifies.
    """
    fl = m.flavor
    up, down = m.action[fl.raising], m.action[fl.lowering]
    read = {x for z, col in down.items() if z not in m.boundary for x in col}  # by raising(lowering(z))
    for col in m.basis:
        entries = up.get(col, {})
        for row in sorted(entries, key=m.position):
            if col in read or (col not in m.boundary and down.get(row)):
                c = entries[row] + 1 or entries[row] - 1
                action = {**m.action, fl.raising: {**up, col: {**entries, row: c}}}
                return WeightModule(fl, m.name + "+fault", m.basis, m.weights, action, boundary=m.boundary)
    raise ValueError(f"{m.name} has no raising entries to perturb")


# -- the two flavours --------------------------------------------------------------


def _normalize_rational(coords: list) -> list:
    """First nonzero coordinate scaled to 1."""
    lead = next(c for c in coords if c)
    return [c / lead for c in coords]


def _normalize_laurent(coords: list) -> list:
    """No common Laurent factor, coprime integer coefficients, positive
    leading coefficient in the first nonzero coordinate."""
    nonzero = [c for c in coords if c]
    g = nonzero[0]
    for c in nonzero[1:]:
        g = lp_gcd(g, c)
    return primitive([c.div_exact(g) if c else c for c in coords])


CLASSICAL = Flavor(
    name="classical",
    raising="e",
    lowering="f",
    ring=Fraction,
    diagonal={"h": lambda w: w},
    coproduct={"e": (None, None), "f": (None, None)},  # x (x) 1 + 1 (x) x
    relations=("[h,e]=2e", "[h,f]=-2f", "[e,f]=h"),
    commutator=lambda w: w,
    normalize=_normalize_rational,
)

QUANTUM = Flavor(
    name="quantum",
    raising="E",
    lowering="F",
    ring=LaurentPoly,
    diagonal={"K": lambda w: LaurentPoly({w: 1}), "Kinv": lambda w: LaurentPoly({-w: 1})},
    # D(E) = E (x) K + 1 (x) E, D(F) = F (x) 1 + Kinv (x) F, D(K) = K (x) K
    coproduct={"E": ("K", None), "F": (None, "Kinv")},
    relations=("K Kinv=1", "K E Kinv=v^2 E", "K F Kinv=v^-2 F", "[E,F]=[h]_v"),
    commutator=q_int,
    normalize=_normalize_laurent,
)
