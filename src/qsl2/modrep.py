"""Weight modules for classical and quantum sl(2).

Constructors for the finite-dimensional modules F_n of any Flavor
(finite_dim), truncated Verma modules, and the Rasskazova family
V(beta, lambda, n), together with a machine check of the defining
algebra relations on every constructed module: the constructor's weight
grading certifies every relation but one, and check_relations evaluates
that one, the commutator of raising and lowering, on each basis vector.

A module is a finite ordered basis with weight labels and sparse
raising and lowering matrices over an exact scalar ring: Fraction for
classical modules, LaurentPoly for quantum ones.  It stores each weight and
classical entry once, as an int numerator over its least common denominator
den (1 for F_n and quantum modules), and is graded, checked and described on
them; ``weights`` and ``action`` read the values, Fractions where den > 1.
A module given den keeps the dicts it is handed, so they must not change
afterwards; modules are immutable after construction and every operation is pure.

A basis label is the vector's printed name, a str: w_k for F_n and the
Verma modules, w^i_j for Rasskazova's, and la*lb for a tensor product.
Any hashable label is allowed; it is printed with str.

Every module carries a ``Flavor``, CLASSICAL or QUANTUM: the one value
that tells the two apart.  It names the generators and the scalar
ring, whose zero is ``ring()`` and one ``ring(1)``, gives the
eigenvalues by which the diagonal generators (h, or K and Kinv) act on
each weight, so that their matrices are never stored, and holds the
coproduct as data, the defining relations by name and the commutator's
value on each weight.

Flavor, RasskazovaParams and the relation reports are frozen records on
``Record``, the base defined here and shared with tensorcg: field-wise
== (identity for Flavor), a ``Name(field=value, ...)`` repr and a checked
``replace``.  It is plain Python, so importing qsl2 loads no inspect or typing.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index

from .qarith import LaurentPoly, _made, q_int

__all__ = ["CLASSICAL", "QUANTUM", "Flavor", "RasskazovaParams", "RelationFailure", "RelationReport", "Vector",
           "WeightModule", "apply", "check_relations", "corrupt_one_entry", "finite_dim", "rasskazova",
           "verma_classical"]


class Record:
    """Base of the frozen records: ``_fields`` names the fields, in order.

    A record compares and hashes field-wise, prints as ``Name(field=value,
    ...)`` and refuses assignment; ``replace`` builds the copy through
    ``__init__``, so its checks run again.  Only ``__init__`` writes
    ``__dict__``, so it holds exactly the fields, and == compares it.  This
    ``__init__`` takes them by position or name; a record that checks or converts them has its own.
    """

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}")
        self.__dict__.update(values)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__[f] for f in self._fields))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def replace(self, **changes):
        """A copy with the named fields changed, checked as a new record is."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)


class Flavor(Record):
    """Classical sl(2) or U_v(sl2), as data.

    ``ring`` is the scalar ring, Fraction or LaurentPoly: ``ring()`` is its
    zero, ``ring(1)`` its one; a quantum entry may also be an int or a Fraction.
    ``diagonal[g](w)`` is the eigenvalue of g on weight w (h's, w, is read on a numerator).
    ``coproduct[g] = (right, left)`` means D(g) = g (x) right + left (x) g,
    each twist a diagonal generator or None for 1.  ``relations`` names
    the defining relations, [raising, lowering] = commutator(w) last; the
    others involve h, K or Kinv, which act by the weight, so WeightModule's
    weight grading proves them (see check_relations).
    """

    _fields = ("name", "raising", "lowering", "ring", "diagonal", "coproduct", "relations", "commutator")
    __eq__, __hash__ = object.__eq__, object.__hash__  # two flavours are never equal

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

    ``num_weights`` and ``num_action`` hold each weight and classical entry as an int numerator
    over ``den``, the least common denominator (1 for F_n and quantum modules), given with den or
    else rescaled from ints and Fractions; ``weights`` and ``action`` read values, Fractions if den > 1.
    Given den, the module keeps the dicts it is handed, and nothing may write them afterwards.
    """

    __slots__ = ("flavor", "name", "basis", "den", "num_weights", "num_action", "weights", "action", "boundary", "_pos")

    def __init__(self, flavor: Flavor, name, basis, weights, action, boundary=(), den=None):
        if not isinstance(flavor, Flavor):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.flavor, self.name, self.basis = flavor, name, tuple(basis)
        self._pos = {lab: i for i, lab in enumerate(self.basis)}
        if len(self._pos) != len(self.basis):
            raise ValueError("basis labels must be pairwise distinct")
        if den is None:  # values: over Q, their ints and Fractions become numerators over their lcm, in copies
            weights, action = dict(weights), {g: {c: dict(col) for c, col in m.items()} for g, m in action.items()}
            dicts = [] if flavor.ring is LaurentPoly else [weights, *(c for m in action.values() for c in m.values())]
            den = lcm(*{x.denominator for d in dicts for x in d.values() if type(x) is Fraction})
            for d in dicts:  # any other value is left for _validate to refuse
                d.update({k: x.numerator * (den // x.denominator) for k, x in d.items() if type(x) in {int, Fraction}})
        self.den, self.num_weights, self.num_action = den, weights, action
        if den == 1:  # the views are the stored dicts
            self.weights, self.action = weights, action
        else:  # the subclass builds them when read; __getattr__ here would slow every attribute read
            self.__class__ = _FractionViews
        self.boundary = frozenset(boundary)
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def position(self, label) -> int:
        return self._pos[label]

    def _validate(self):
        fl, den, weights = self.flavor, self.den, self.num_weights
        if set(self.num_action) != {fl.raising, fl.lowering}:
            raise ValueError(f"{self.name}: stores {sorted(self.num_action)}, not {fl.raising} and {fl.lowering}")
        # v^w must be a ring element, so over Q a weight is any rational (stored as a numerator, as entries are)
        quantum = fl.ring is LaurentPoly
        if type(den) is not int or den < 1 or quantum and den != 1:
            raise ValueError(f"{self.name}: den {den!r} is not a positive int (1 over Q[v, v^-1])")
        scalars, ring = ({int, Fraction, fl.ring}, "in Q[v, v^-1]") if quantum else ({int}, "rational")
        over = f"an int numerator over den {den}"  # over Q a Fraction is left only where den was given
        if weights.keys() != self._pos.keys():  # so a lookup in weights finds a label and its weight
            raise ValueError(f"{self.name}: the weights must label exactly the basis")
        if stray := self.boundary.difference(self._pos):  # else a typo leaves its vector checked
            raise ValueError(f"{self.name}: boundary label {min(map(str, stray))} is not in the basis")
        if not set(map(type, weights.values())) <= {int}:
            lab, wt = next((lab, wt) for lab, wt in weights.items() if type(wt) is not int)
            what = "an integer" if quantum else over if type(wt) is Fraction else "rational"
            raise ValueError(f"{self.name}: weight {wt} of {lab} is not {what}")
        # raising and lowering entries connect weights that differ by +-2, compared on numerators
        wget = weights.get
        for g, shift in ((fl.raising, 2 * den), (fl.lowering, -2 * den)):
            for col, entries in self.num_action[g].items():
                if (target := wget(col)) is None:
                    raise ValueError(f"{self.name}: unknown column label {col}")
                target += shift
                for row, c in entries.items():  # one test per entry; a failure is named in the order below
                    if wget(row) != target or type(c) not in scalars or not c:
                        if row not in weights:
                            raise ValueError(f"{self.name}: unknown row label {row}")
                        if type(c) not in scalars:
                            what = over if type(c) is Fraction else ring
                            raise ValueError(f"{self.name}: {g} entry {c} at ({row}, {col}) is not {what}")
                        if not c:
                            raise ValueError(f"{self.name}: stored zero at ({row}, {col}) of {g}")
                        raise ValueError(f"{self.name}: {g} entry ({row}, {col}) breaks the weight grading")

    def __repr__(self):
        return f"<WeightModule {self.name} dim={self.dim} {self.flavor.name}>"


class _FractionViews(WeightModule):  # den > 1: weights and action are built on first read
    __slots__ = ()

    def __getattr__(self, name):  # reached while a slot is unset: builds that view alone
        if name == "weights":
            self.weights = {lab: Fraction(w, self.den) for lab, w in self.num_weights.items()}
        elif name == "action":
            self.action = {g: {c: {row: Fraction(x, self.den) for row, x in col.items()}
                               for c, col in mat.items()} for g, mat in self.num_action.items()}
        else:
            raise AttributeError(f"'WeightModule' object has no attribute {name!r}")
        return getattr(self, name)


class Vector:
    """Sparse linear combination of basis elements with exact entries."""

    __slots__ = ("module", "entries")

    def __init__(self, module: WeightModule, entries: dict):
        self.module = module
        self.entries = {lab: c for lab, c in entries.items() if c}
        for lab in self.entries:
            if lab not in module._pos:
                raise ValueError(f"label {lab} does not belong to {module.name}")

    def is_zero(self) -> bool:
        return not self.entries

    def items_in_order(self):
        """(label, scalar) pairs in ambient basis order."""
        return sorted(self.entries.items(), key=lambda kv: self.module.position(kv[0]))

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
    """Exact sparse matrix-vector product g.x, on the stored numerators: one division by den per entry."""
    if gen not in module.flavor.generators:
        raise ValueError(f"generator {gen!r} not defined on {module.flavor.name} module {module.name}")
    if x.module is not module:
        raise ValueError(f"vector lives in {x.module.name}, not {module.name}")
    mat, den = module.num_action.get(gen), module.den
    if mat is None:  # h, K or Kinv: each basis vector times its eigenvalue
        eigenvalue, weights = module.flavor.diagonal[gen], module.num_weights
        out = {lab: eigenvalue(weights[lab]) * c for lab, c in x.entries.items()}
    else:
        out = {}
        for lab, c in x.entries.items():
            for row, a in mat.get(lab, {}).items():
                out[row] = out[row] + a * c if row in out else a * c
    # Fraction(y, den), not y / den: an int over an int is a float
    return Vector(module, out if den == 1 else {row: Fraction(y, den) for row, y in out.items()})


# -- constructors ------------------------------------------------------------


def finite_dim(n: int, flavor: Flavor) -> WeightModule:
    """The (n+1)-dimensional simple module F_n of a flavour, basis w_0 .. w_n.

    w_k has weight n-2k, raising.w_k = [n-k+1] w_{k-1} and lowering.w_k =
    [k+1] w_{k+1}, where [a] = flavor.commutator(a): a classically, the
    q-integer [a]_v quantum; so h.w_k = (n-2k) w_k or K.w_k = v^(n-2k) w_k.
    """
    if (n := index(n)) < 0:  # index: a size is an int, so a bool or a float never reaches the name
        raise ValueError(f"finite-dimensional module needs n >= 0, got {n}")
    if not isinstance(flavor, Flavor):  # its fields are read before WeightModule checks it
        raise ValueError(f"unknown flavor {flavor!r}")
    basis = [f"w_{k}" for k in range(n + 1)]
    weights = {lab: n - 2 * k for k, lab in enumerate(basis)}
    up = {basis[k]: {basis[k - 1]: flavor.commutator(n - k + 1)} for k in range(1, n + 1)}
    down = {basis[k]: {basis[k + 1]: flavor.commutator(k + 1)} for k in range(n)}
    name = f"Fq(n={n})" if flavor.ring is LaurentPoly else f"F(n={n})"
    return WeightModule(flavor, name, basis, weights, {flavor.raising: up, flavor.lowering: down}, den=1)


def verma_classical(hw, depth: int) -> WeightModule:
    """Verma module of highest weight hw, truncated below depth.

    f acts freely (f.w_k = w_{k+1}) with w_{depth+1} clipped, so w_depth
    is marked as the truncation boundary; e.w_k = k(hw-k+1) w_{k-1}.
    """
    if (depth := index(depth)) < 1:  # index: as finite_dim reads n
        raise ValueError(f"Verma truncation depth must be >= 1, got {depth}")
    if isinstance(hw, float):
        raise ValueError(f"highest weight {hw!r} is a float: give an int, a Fraction or 'a/b'")
    hw = Fraction(hw)
    p, q = hw.numerator, hw.denominator  # every scalar below is a numerator over q, the least
    basis = [f"w_{k}" for k in range(depth + 1)]
    weights = {lab: p - 2 * k * q for k, lab in enumerate(basis)}
    e = {basis[k]: {basis[k - 1]: k * (p - (k - 1) * q)}
         for k in range(1, depth + 1) if p != (k - 1) * q}  # no zero stored where hw = k-1
    f = {basis[k]: {basis[k + 1]: q} for k in range(depth)}
    name = f"M(hw={hw};depth={depth})"
    return WeightModule(CLASSICAL, name, basis, weights, {"e": e, "f": f}, boundary=[basis[depth]], den=q)


class RasskazovaParams(Record):
    """Parameters (beta, lambda, n) plus the retained window j in [-J, J]."""

    _fields = ("beta", "lam", "n", "window")

    def __init__(self, beta, lam, n: int, window: int):
        if isinstance(beta, float) or isinstance(lam, float):
            raise ValueError(f"beta {beta!r} or lambda {lam!r} is a float: give an int, a Fraction or 'a/b'")
        beta, lam = Fraction(beta), Fraction(lam)
        if (n := index(n)) < 1:  # index: as finite_dim reads n
            raise ValueError(f"Rasskazova family needs n >= 1, got {n}")
        if (window := index(window)) < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.__dict__.update(beta=beta, lam=lam, n=n, window=window)


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
    D = lcm(beta.denominator, lam.denominator)  # every scalar below is a numerator over D, the least
    B, L = int(beta * D), int(lam * D)
    js = range(-J, J + 1)
    layers = [[f"w^{i}_{j}" for j in js] for i in range(1, n + 1)]  # layers[i-1][j+J] is w^i_j
    basis = [lab for layer in layers for lab in layer]
    weights = dict(zip(basis, [2 * j * D + B for j in js] * n))
    # the numerators of e.w^i_j's and f.w^i_j's w^i coefficients, the same on every layer i
    up = [D if j >= 0 else L + j * B + j * (j + 1) * D for j in js]
    down = [-D if j <= 0 else -(L + (j - 1) * B + j * (j - 1) * D) for j in js]
    e: dict = {}
    f: dict = {}
    below = None  # layer i-1, none below layer 1
    for layer in layers:
        for k, lab in enumerate(layer):  # j = k - J
            if k < 2 * J:
                col = {layer[k + 1]: up[k]} if up[k] else {}
                if below and k < J:
                    col[below[k + 1]] = D
                if col:
                    e[lab] = col
            if k:
                col = {layer[k - 1]: down[k]} if down[k] else {}
                if below and k > J:
                    col[below[k - 1]] = -D
                if col:
                    f[lab] = col
        below = layer
    boundary = [lab for layer in layers for lab in (layer[0], layer[-1])]
    name = f"V(beta={beta};lambda={lam};n={n};J={J})"
    return WeightModule(CLASSICAL, name, basis, weights, {"e": e, "f": f}, boundary=boundary, den=D)


# -- relation checking ----------------------------------------------------------


class RelationFailure(Record):
    _fields = ("relation", "label", "defect")  # defect: ((label, scalar), ...) in ambient order, never empty


class RelationReport(Record):
    """Exact pass/fail record of the defining relations on a module.

    Zero failures means every checked relation holds exactly on every
    non-boundary basis vector; ``excluded`` lists the truncation-boundary
    vectors that were skipped.
    """

    _fields = ("module", "flavor", "relations", "checked", "failures", "excluded")

    @property
    def ok(self) -> bool:
        return not self.failures


def check_relations(m: WeightModule) -> RelationReport:
    """Verify the defining sl(2) (or U_v(sl2)) relations on every
    non-boundary basis vector with exact arithmetic.

    On x of weight w with e.x = sum c_y y, [h,e]-2e leaves sum (wt(y)-w-2)
    c_y y and K E Kinv-v^2 E leaves sum (v^(wt(y)-w)-v^2) c_y y, zero as m
    is graded; so only [raising, lowering] = commutator(w) is evaluated,
    read from the stored columns.  Over Q it reads the int numerators over
    m.den: products over den^2, h (the weight) times den, a defect / den^2.
    x's own coefficient is one running scalar: -commutator(w), plus each
    product b*a of raising(lowering(x)) landing on x, minus each of
    lowering(raising(x)); a landing off x goes into a dict made at the
    first one (never on Verma modules, F_n or Rasskazova layer 1).
    Failures are data (relation name, basis vector, exact defect), never raised.
    """
    fl, den, weights, commutator = m.flavor, m.den, m.num_weights, m.flavor.commutator
    up, down, empty = m.num_action[fl.raising].get, m.num_action[fl.lowering].get, {}
    checked = tuple([lab for lab in m.basis if lab not in m.boundary])  # a list: see qarith.primitive
    failures = []
    for lab in checked:
        s, off = -commutator(weights[lab] * den), None  # den is 1 over Q[v, v^-1]
        for mid, a in down(lab, empty).items():  # + raising(lowering(x))
            for row, b in up(mid, empty).items():
                if row == lab:
                    s = s + b * a
                else:
                    off = off or {}  # made at the first landing off x
                    off[row] = off[row] + b * a if row in off else b * a
        for mid, a in up(lab, empty).items():  # - lowering(raising(x))
            for row, b in down(mid, empty).items():
                if row == lab:
                    s = s - b * a
                else:
                    off = off or {}
                    off[row] = off[row] - b * a if row in off else -(b * a)
        if s or off and any(off.values()):
            d = {lab: s, **(off or empty)}
            defect = [(row, c if fl.ring is LaurentPoly else Fraction(c, den * den)) for row, c in d.items() if c]
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

    Diagnostic helper: a checked relation reads that entry, so the copy's report differs from m's, and the
    copy fails check_relations where m passes (a fault may repair a failing m); ValueError if none qualifies.
    """
    fl, den = m.flavor, m.den
    up, down = m.num_action[fl.raising], m.num_action[fl.lowering]
    read = {x for z, col in down.items() if z not in m.boundary for x in col}  # by raising(lowering(z))
    for col in m.basis:
        entries = up.get(col, {})
        for row in sorted(entries, key=m.position):
            if col in read or (col not in m.boundary and down.get(row)):
                c = entries[row] + den or entries[row] - den  # +-1 on a numerator over den
                action = {**m.num_action, fl.raising: {**up, col: {**entries, row: c}}}
                return WeightModule(fl, m.name + "+fault", m.basis, m.num_weights, action, m.boundary, den)
    raise ValueError(f"{m.name} has no raising entries to perturb")


# -- the two flavours --------------------------------------------------------------


CLASSICAL = Flavor(
    name="classical",
    raising="e",
    lowering="f",
    ring=Fraction,
    diagonal={"h": lambda w: w},
    coproduct={"e": (None, None), "f": (None, None)},  # x (x) 1 + 1 (x) x
    relations=("[h,e]=2e", "[h,f]=-2f", "[e,f]=h"),
    commutator=lambda w: w,
)

QUANTUM = Flavor(
    name="quantum",
    raising="E",
    lowering="F",
    ring=LaurentPoly,
    diagonal={"K": lambda w: _made({w: 1}), "Kinv": lambda w: _made({-w: 1})},  # w: a validated int
    # D(E) = E (x) K + 1 (x) E, D(F) = F (x) 1 + Kinv (x) F, D(K) = K (x) K
    coproduct={"E": ("K", None), "F": (None, "Kinv")},
    relations=("K Kinv=1", "K E Kinv=v^2 E", "K F Kinv=v^-2 F", "[E,F]=[h]_v"),
    commutator=q_int,
)
