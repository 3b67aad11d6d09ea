"""Weight modules for classical and quantum sl(2).

Constructors for the finite-dimensional modules F_n (classical e/f/h and
quantum E/F/K actions), truncated Verma modules, and the Rasskazova
family V(beta, lambda, n), together with a machine check of the defining
algebra relations on every constructed module.

A module is a finite ordered basis with weight labels and sparse
raising and lowering matrices over an exact scalar ring: Fraction for
classical modules, LaurentPoly for quantum ones.  Modules are immutable
after construction and every operation here is pure.

Every module carries a ``Flavor``, CLASSICAL or QUANTUM: the one value
that tells the two apart.  It names the generators, holds the scalar
ring's zero and one, gives the eigenvalues by which the diagonal
generators (h, or K and Kinv) act on each weight, so that their
matrices are never stored, and holds the coproduct as data, the
defining relations by name and the canonical scaling of kernel vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .qarith import LaurentPoly, lp_gcd, primitive, q_int


@dataclass(frozen=True)
class Label:
    """Basis label; ``kind`` is one of findim/verma/rasskazova/tensor.

    findim and verma labels carry a single index k (k = 0 is the highest
    weight vector); rasskazova labels carry (i, j); tensor labels carry
    the pair of constituent labels.
    """

    kind: str
    index: tuple

    @staticmethod
    def findim(k: int) -> "Label":
        return Label("findim", (k,))

    @staticmethod
    def verma(k: int) -> "Label":
        return Label("verma", (k,))

    @staticmethod
    def rasskazova(i: int, j: int) -> "Label":
        return Label("rasskazova", (i, j))

    @staticmethod
    def tensor(a: "Label", b: "Label") -> "Label":
        return Label("tensor", (a, b))

    def __str__(self):
        if self.kind in ("findim", "verma"):
            return f"w_{self.index[0]}"
        if self.kind == "rasskazova":
            i, j = self.index
            return f"w^{i}_{j}"
        a, b = self.index
        return f"{a}*{b}"


@dataclass(frozen=True, eq=False)
class Flavor:
    """Classical sl(2) or U_v(sl2), as data.

    ``diagonal[g](w)`` is the eigenvalue of g on weight w.
    ``coproduct[g] = (right, left)`` means D(g) = g (x) right + left (x) g,
    each twist a diagonal generator or None for 1.  In ``relations``,
    ``defect(image, w)`` must vanish on each basis vector x of weight w,
    where ``image(*word)`` applies a word of generators to x, rightmost
    first.
    """

    name: str
    raising: str
    lowering: str
    zero: object
    one: object
    diagonal: dict
    coproduct: dict
    relations: tuple
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
    infinite module; relation checks skip them.
    """

    __slots__ = ("flavor", "name", "basis", "weights", "action", "boundary", "_pos")

    def __init__(self, flavor: Flavor, name, basis, weights, action, boundary=()):
        if not isinstance(flavor, Flavor):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.name = name
        self.basis = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("basis labels must be pairwise distinct")
        self.weights = dict(weights)
        self.action = {g: {c: dict(col) for c, col in mat.items()} for g, mat in action.items()}
        self.boundary = frozenset(boundary)
        self._pos = {lab: i for i, lab in enumerate(self.basis)}
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def position(self, label: Label) -> int:
        return self._pos[label]

    def column(self, gen: str, label: Label) -> dict:
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
        # raising and lowering entries connect weights that differ by +-2
        for g, shift in ((fl.raising, 2), (fl.lowering, -2)):
            for col, entries in self.action[g].items():
                if col not in self._pos:
                    raise ValueError(f"{self.name}: unknown column label {col}")
                for row, c in entries.items():
                    if row not in self._pos:
                        raise ValueError(f"{self.name}: unknown row label {row}")
                    if not c:
                        raise ValueError(f"{self.name}: stored zero at ({row}, {col}) of {g}")
                    if self.weights[row] != self.weights[col] + shift:
                        raise ValueError(
                            f"{self.name}: {g} entry ({row}, {col}) breaks the "
                            f"weight grading"
                        )

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
    def basis_vector(cls, module: WeightModule, label: Label) -> "Vector":
        return cls(module, {label: module.flavor.one})

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
    basis = [Label.findim(k) for k in range(n + 1)]
    weights = {lab: Fraction(n - 2 * k) for k, lab in enumerate(basis)}
    e = {basis[k]: {basis[k - 1]: Fraction(n - k + 1)} for k in range(1, n + 1)}
    f = {basis[k]: {basis[k + 1]: Fraction(k + 1)} for k in range(n)}
    return WeightModule(CLASSICAL, f"F(n={n})", basis, weights, {"e": e, "f": f})


def finite_dim_quantum(n: int) -> WeightModule:
    """Quantum analogue of finite_dim_classical.

    K.w_k = v^(n-2k) w_k, E.w_k = [n-k+1] w_{k-1}, F.w_k = [k+1] w_{k+1}.
    """
    if n < 0:
        raise ValueError(f"finite-dimensional module needs n >= 0, got {n}")
    basis = [Label.findim(k) for k in range(n + 1)]
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
    basis = [Label.verma(k) for k in range(depth + 1)]
    weights = {lab: hw - 2 * k for k, lab in enumerate(basis)}
    e = {}
    for k in range(1, depth + 1):
        c = k * (hw - k + 1)
        if c:
            e[basis[k]] = {basis[k - 1]: c}
    f = {basis[k]: {basis[k + 1]: Fraction(1)} for k in range(depth)}
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
    basis = [Label.rasskazova(i, j) for i in range(1, n + 1) for j in range(-J, J + 1)]
    weights = {lab: 2 * lab.index[1] + beta for lab in basis}
    one = Fraction(1)

    e: dict = {}
    f: dict = {}
    for lab in basis:
        i, j = lab.index
        if j + 1 <= J:
            col: dict = {}
            if j >= 0:
                col[Label.rasskazova(i, j + 1)] = one
            else:
                c = lam + j * beta + j * (j + 1)
                if c:
                    col[Label.rasskazova(i, j + 1)] = c
                if i > 1:
                    col[Label.rasskazova(i - 1, j + 1)] = one
            if col:
                e[lab] = col
        if j - 1 >= -J:
            col = {}
            if j > 0:
                c = -(lam + (j - 1) * beta + j * (j - 1))
                if c:
                    col[Label.rasskazova(i, j - 1)] = c
                if i > 1:
                    col[Label.rasskazova(i - 1, j - 1)] = -one
            else:
                col[Label.rasskazova(i, j - 1)] = -one
            if col:
                f[lab] = col
    boundary = [lab for lab in basis if abs(lab.index[1]) == J]
    name = f"V(beta={beta};lambda={lam};n={n};J={J})"
    return WeightModule(CLASSICAL, name, basis, weights, {"e": e, "f": f}, boundary=boundary)


# -- relation checking ----------------------------------------------------------


@dataclass(frozen=True)
class RelationFailure:
    relation: str
    label: Label
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
    checked: tuple[Label, ...]
    failures: tuple[RelationFailure, ...]
    excluded: tuple[Label, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_relations(m: WeightModule) -> RelationReport:
    """Verify the defining sl(2) (or U_v(sl2)) relations on every
    non-boundary basis vector with exact arithmetic.

    Failures are reported as data (relation name, basis vector, exact
    defect), never raised.
    """
    checked = []
    failures = []
    images: dict = {}

    def image(*word):
        # each suffix of a word is applied once per basis vector
        if word not in images:
            images[word] = apply(m, word[0], image(*word[1:]))
        return images[word]

    for lab in m.basis:
        if lab in m.boundary:
            continue
        checked.append(lab)
        images = {(): Vector.basis_vector(m, lab)}
        for relname, defect in m.flavor.relations:
            d = defect(image, m.weights[lab])
            if not d.is_zero():
                failures.append(RelationFailure(relname, lab, tuple(d.items_in_order())))

    return RelationReport(
        module=m.name,
        flavor=m.flavor.name,
        relations=tuple(relname for relname, _ in m.flavor.relations),
        checked=tuple(checked),
        failures=tuple(failures),
        excluded=tuple(lab for lab in m.basis if lab in m.boundary),
    )


def corrupt_one_entry(m: WeightModule) -> WeightModule:
    """Copy of m with one raising-operator matrix entry perturbed by +1
    (by -1 where +1 would cancel it).

    Diagnostic helper: the perturbed module must fail check_relations,
    which exercises the defect reporting and the CLI exit-status path.
    """
    raising = m.flavor.raising
    mat = m.action[raising]
    for col in m.basis:
        if mat.get(col):
            row = min(mat[col], key=m.position)
            c = mat[col][row] + m.flavor.one or mat[col][row] - m.flavor.one
            action = {**m.action, raising: {**mat, col: {**mat[col], row: c}}}
            return WeightModule(
                m.flavor, m.name + "+fault", m.basis, m.weights, action, boundary=m.boundary
            )
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
    zero=Fraction(0),
    one=Fraction(1),
    diagonal={"h": lambda w: w},
    coproduct={"e": (None, None), "f": (None, None)},  # x (x) 1 + 1 (x) x
    relations=(
        ("[h,e]=2e", lambda x, w: x("h", "e") - x("e", "h") - x("e").scaled(Fraction(2))),
        ("[h,f]=-2f", lambda x, w: x("h", "f") - x("f", "h") + x("f").scaled(Fraction(2))),
        ("[e,f]=h", lambda x, w: x("e", "f") - x("f", "e") - x("h")),
    ),
    normalize=_normalize_rational,
)

QUANTUM = Flavor(
    name="quantum",
    raising="E",
    lowering="F",
    zero=LaurentPoly(),
    one=LaurentPoly({0: 1}),
    diagonal={"K": lambda w: LaurentPoly({w: 1}), "Kinv": lambda w: LaurentPoly({-w: 1})},
    # D(E) = E (x) K + 1 (x) E, D(F) = F (x) 1 + Kinv (x) F, D(K) = K (x) K
    coproduct={"E": ("K", None), "F": (None, "Kinv")},
    relations=(
        ("K Kinv=1", lambda x, w: x("K", "Kinv") - x()),
        ("K E Kinv=v^2 E", lambda x, w: x("K", "E", "Kinv") - x("E").scaled(LaurentPoly({2: 1}))),
        ("K F Kinv=v^-2 F", lambda x, w: x("K", "F", "Kinv") - x("F").scaled(LaurentPoly({-2: 1}))),
        ("[E,F]=[h]_v", lambda x, w: x("E", "F") - x("F", "E") - x().scaled(q_int(w))),
    ),
    normalize=_normalize_laurent,
)
