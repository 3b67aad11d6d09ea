"""[e,f] = h (quantum [E,F] = [h]) on F_n, the Verma modules and Rasskazova's
family, proved for every size and parameter.

Each entry is its constructor's docstring formula in sympy symbols, and the
commutator minus the weight reduces to zero on every piece of the basis.  Each
symbolic entry is then tied to the constructor: at a few sizes, the stored
numerators are the formula's values times den, entry by entry, with no other
entry stored.  check_relations certifies the same relation on each module it
is given; these tests say it holds on all of them.
"""

from fractions import Fraction

import pytest
import sympy

from qsl2.modrep import CLASSICAL, QUANTUM, RasskazovaParams, finite_dim, rasskazova, verma_classical
from qsl2.qarith import LaurentPoly

n, k, hw, beta, lam = sympy.symbols("n k hw beta lambda")
v, x, y = sympy.symbols("v x y")  # x = v^n and y = v^k


def as_fraction(value) -> Fraction:
    return Fraction(str(value))  # a sympy Rational; a symbol left in it is a ValueError


# -- F_n, classical and quantum ---------------------------------------------------


def f_n_raising(a):
    """The a in e.w_a = a' w_(a-1), classically a' = a, quantum a' = [a]: n - a + 1."""
    return n - a + 1


def f_n_lowering(a):
    """The a in f.w_a: a + 1."""
    return a + 1


def cleared_q_int(a):
    """(v - v^-1)[a] = v^a - v^-a, a linear in n and k: a Laurent polynomial in v, x = v^n, y = v^k."""
    poly = sympy.Poly(a, n, k)
    power = v ** poly.coeff_monomial(1) * x ** poly.coeff_monomial(n) * y ** poly.coeff_monomial(k)
    return power - 1 / power


FLAVORS = {  # the entry a' of an a, times unit: a classically, (v - v^-1)[a] quantum
    "classical": (lambda a: a, 1),
    "quantum": (cleared_q_int, v - 1 / v),
}


@pytest.mark.parametrize("flavor", sorted(FLAVORS))
def test_f_n_commutator_is_the_weight_for_every_n(flavor):
    scalar, unit = FLAVORS[flavor]
    e_f = scalar(f_n_lowering(k)) * scalar(f_n_raising(k + 1))  # e(f w_k) = [k+1][n-k] w_k
    f_e = scalar(f_n_raising(k)) * scalar(f_n_lowering(k - 1))  # f(e w_k) = [n-k+1][k] w_k
    # [k+1][n-k] - [n-k+1][k] - [n-2k], times unit^2: zero as a Laurent polynomial
    assert sympy.expand(e_f - f_e - scalar(n - 2 * k) * unit) == 0
    # the ends need no piece of their own: the clipped terms are zero there (e w_0 = 0, f w_n = 0)
    assert f_n_lowering(k - 1).subs(k, 0) == 0 and f_n_raising(k + 1).subs(k, n) == 0


def as_symbolic(c):
    """A stored int or LaurentPoly as a sympy expression in v."""
    return sum((a * v**e for e, a in c.terms()), sympy.Integer(0)) if isinstance(c, LaurentPoly) else c


@pytest.mark.parametrize("size", range(6))
def test_f_n_stores_the_symbolic_entries(size):
    for flavor in (CLASSICAL, QUANTUM):
        scalar, unit = FLAVORS[flavor.name]
        m = finite_dim(size, flavor)
        assert m.den == 1
        for g, formula, step in ((flavor.raising, f_n_raising, -1), (flavor.lowering, f_n_lowering, 1)):
            columns = [a for a in range(size + 1) if 0 <= a + step <= size]
            assert m.num_action[g].keys() == {f"w_{a}" for a in columns}
            for a in columns:
                ((row, c),) = m.num_action[g][f"w_{a}"].items()
                entry = scalar(formula(k)).subs({n: size, k: a, x: v**size, y: v**a})
                assert row == f"w_{a + step}" and sympy.expand(as_symbolic(c) * unit - entry) == 0


# -- Verma modules ------------------------------------------------------------------


def verma_raising(a):
    """e.w_a = a(hw - a + 1) w_(a-1); f.w_a = w_(a+1)."""
    return a * (hw - a + 1)


def test_verma_commutator_is_the_weight_for_every_highest_weight_and_depth():
    # on w_k off the truncation boundary: e(f w_k) = e w_(k+1), f(e w_k) = e's entry times w_k
    assert sympy.expand(verma_raising(k + 1) - verma_raising(k) - (hw - 2 * k)) == 0
    assert verma_raising(0) == 0  # e w_0 = 0, so k = 0 needs no piece of its own


@pytest.mark.parametrize("weight", [0, 1, 3, Fraction(1, 2), Fraction(-7, 3)])
def test_verma_stores_the_symbolic_entries(weight):
    for depth in (1, 2, 5):
        m = verma_classical(weight, depth)
        assert m.den == Fraction(weight).denominator
        values = {a: as_fraction(verma_raising(k).subs({hw: sympy.Rational(str(weight)), k: a}))
                  for a in range(1, depth + 1)}
        assert m.num_action["e"] == {f"w_{a}": {f"w_{a - 1}": c * m.den} for a, c in values.items() if c}
        assert m.num_action["f"] == {f"w_{a}": {f"w_{a + 1}": m.den} for a in range(depth)}
        assert m.num_weights == {f"w_{a}": (Fraction(weight) - 2 * a) * m.den for a in range(depth + 1)}


# -- Rasskazova's V(beta, lambda, n) ---------------------------------------------------


def rasskazova_raising(layer, j):
    """e.w^(i+layer)_j as {(layer offset, j'): coefficient}; j is an int or a symbol whose sign is known."""
    if sympy.sympify(j).is_nonnegative:
        return {(layer, j + 1): sympy.Integer(1)}
    assert sympy.sympify(j).is_negative, j
    return {(layer, j + 1): lam + j * beta + j * (j + 1), (layer - 1, j + 1): sympy.Integer(1)}


def rasskazova_lowering(layer, j):
    """f.w^(i+layer)_j, as rasskazova_raising."""
    if sympy.sympify(j).is_positive:
        return {(layer, j - 1): -(lam + (j - 1) * beta + j * (j - 1)), (layer - 1, j - 1): sympy.Integer(-1)}
    assert sympy.sympify(j).is_nonpositive, j
    return {(layer, j - 1): sympy.Integer(-1)}


def apply_symbolic(action, vector):
    out = {}
    for (layer, j), c in vector.items():
        for key, a in action(layer, j).items():
            out[key] = out.get(key, 0) + a * c
    return out


PIECES = {
    "j >= 1": sympy.Symbol("j", integer=True, positive=True),
    "j = 0": sympy.Integer(0),
    "j <= -1": sympy.Symbol("j", integer=True, negative=True),
}


@pytest.mark.parametrize("piece", PIECES)
def test_rasskazova_commutator_is_the_weight_on_every_piece(piece):
    j = PIECES[piece]
    w = {(0, j): sympy.Integer(1)}  # w^i_j: layer offsets 0 (w^i) and -1 (w^(i-1)) occur
    e_f = apply_symbolic(rasskazova_raising, apply_symbolic(rasskazova_lowering, w))
    f_e = apply_symbolic(rasskazova_lowering, apply_symbolic(rasskazova_raising, w))
    defect = {key: e_f.get(key, 0) - f_e.get(key, 0) for key in e_f.keys() | f_e.keys()}
    defect[0, j] -= 2 * j + beta
    assert (-1, j) in defect  # the w^(i-1) terms are there, and cancel
    assert all(sympy.expand(c) == 0 for c in defect.values()), defect
    # e and f never raise the layer, so dropping w^0 (layer i = 1) keeps each coefficient;
    # off the window's ends, |j| < J, every vector reached has |j'| <= J and is stored


@pytest.mark.parametrize("b, l", [(0, 0), (1, 2), (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), -1)])
def test_rasskazova_stores_the_symbolic_entries(b, l):
    for layers, window in ((1, 1), (2, 2), (3, 3)):
        m = rasskazova(RasskazovaParams(b, l, layers, window))
        values = {beta: sympy.Rational(str(b)), lam: sympy.Rational(str(l))}
        for g, action in (("e", rasskazova_raising), ("f", rasskazova_lowering)):
            expected = {}
            for i in range(1, layers + 1):
                for j in range(-window, window + 1):
                    col = {f"w^{i + d}_{jj}": as_fraction(c.subs(values)) * m.den
                           for (d, jj), c in action(0, j).items() if i + d >= 1 and abs(jj) <= window}
                    if col := {lab: c for lab, c in col.items() if c}:
                        expected[f"w^{i}_{j}"] = col
            assert m.num_action[g] == expected, g
        assert m.num_weights == {f"w^{i}_{j}": (2 * j + Fraction(b)) * m.den
                                 for i in range(1, layers + 1) for j in range(-window, window + 1)}
