from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qsl2.qarith import (
    ExactDivisionError,
    LaurentPoly,
    _poly_divmod,
    lp_gcd,
    q_binom,
    q_fact,
    q_int,
    specialize_one,
    v,
)

one = LaurentPoly({0: 1})


def lp(**kw):
    """Shorthand: lp(e2=1, em1=3) -> v^2 + 3v^-1 (m prefix = minus)."""
    coeffs = {}
    for key, c in kw.items():
        e = int(key[1:].replace("m", "-"))
        coeffs[e] = c
    return LaurentPoly(coeffs)


def canonical(p):
    """Every coefficient an int when integral and a Fraction only when not."""
    return all(
        type(c) is (int if c.denominator == 1 else Fraction) for _, c in p.terms()
    )


# -- canonical coefficients: int when integral -------------------------------


def test_integer_data_stays_int():
    assert all(type(c) is int for _, c in q_fact(12).terms())
    assert all(type(c) is int for _, c in q_binom(9, 4).terms())


def test_integral_fraction_is_stored_as_int():
    (c,) = (c for _, c in LaurentPoly({0: Fraction(4, 2)}).terms())
    assert c == 2 and type(c) is int


@pytest.mark.parametrize("exp", [Fraction(1, 2), 0.5, Fraction(2), 2.0, "2"])
def test_non_integral_exponent_is_rejected(exp):
    # truncating the exponent would make v^(1/2) equal 1
    with pytest.raises(TypeError):
        LaurentPoly({exp: 1})


def test_integer_exponents_are_accepted():
    assert LaurentPoly({-3: 1, True: 2}) == v**-3 + 2 * v


def test_negative_power_of_a_monomial_is_a_fraction():
    inverse = LaurentPoly({1: 2}) ** -1
    assert inverse == LaurentPoly({-1: Fraction(1, 2)})
    assert [type(c) for _, c in inverse.terms()] == [Fraction]
    assert [type(c) for _, c in (v**-3).terms()] == [int]


def test_poly_divmod_over_the_integers():
    # 2 + 4x = (1 + 2x) * 2, in ints
    quot, rem = _poly_divmod([2, 4], [1, 2])
    assert quot == [2] and type(quot[0]) is int and not any(rem)
    # 1 + x^2 = 2x * (x/2) + 1: a quotient only over Q
    quot, rem = _poly_divmod([1, 0, 1], [0, 2])
    assert quot == [0, Fraction(1, 2)] and type(quot[1]) is Fraction
    assert rem == [1, 0, 0]


def test_exact_quotient_of_integer_polynomials_is_integral():
    q = (2 * v + 4).div_exact(v + 2)
    assert q == 2 and canonical(q) and type(q.leading_coeff) is int


# -- addition / multiplication ---------------------------------------------


def test_add_cancellation():
    assert (v + 1) + LaurentPoly(-1) == v


def test_add_identity():
    p = lp(e3=2, em2=Fraction(1, 2))
    assert p + LaurentPoly() == p


def test_add_term_cancellation():
    assert (v + v**-1) + (v - v**-1) == 2 * v


def test_scalar_minus_poly():
    assert 1 - v == lp(e0=1, e1=-1)
    assert Fraction(1, 2) - v == -(v - Fraction(1, 2))


def test_constants_hash_like_their_number():
    assert {LaurentPoly(3): 1}[3] == 1
    assert {Fraction(1, 2): 1}[LaurentPoly(Fraction(1, 2))] == 1
    assert hash(LaurentPoly()) == hash(0)


def test_mul_difference_of_squares():
    assert (v - v**-1) * (v + v**-1) == v**2 - v**-2


def test_mul_identity():
    p = lp(e5=3, e0=1, em4=7)
    assert p * one == p


def test_mul_square():
    # (v + v^-1)^2 expanded by hand
    assert (v + v**-1) ** 2 == lp(e2=1, e0=2, em2=1)


# -- q-integers -------------------------------------------------------------


def test_q_int_small():
    assert q_int(2) == v + v**-1
    assert q_int(0) == LaurentPoly()
    assert q_int(3) == v**2 + 1 + v**-2
    assert q_int(1) == 1


def test_q_int_negation():
    for n in range(0, 9):
        assert q_int(-n) == -q_int(n)


def test_q_int_closed_form():
    # [n] (v - v^-1) = v^n - v^-n
    for n in range(1, 13):
        assert q_int(n) * (v - v**-1) == v**n - v**-n


# -- q-factorials -----------------------------------------------------------


def test_q_fact_conventions():
    assert q_fact(0) == 1
    assert q_fact(2) == v + v**-1


def test_q_fact_three():
    # [3][2][1] expanded by hand: (v^2+1+v^-2)(v+v^-1)
    assert q_fact(3) == lp(e3=1, e1=2, em1=2, em3=1)


def test_q_fact_negative_rejected():
    with pytest.raises(ValueError):
        q_fact(-1)


def test_q_fact_specializes_to_factorial():
    import math

    for n in range(0, 13):
        assert specialize_one(q_fact(n)) == math.factorial(n)


# -- q-binomials -------------------------------------------------------------


def q_binom_pascal(n, k):
    """Independent oracle: balanced q-Pascal recursion."""
    if k < 0 or k > n:
        return LaurentPoly()
    if k == 0 or k == n:
        return one
    return v**k * q_binom_pascal(n - 1, k) + v ** (k - n) * q_binom_pascal(
        n - 1, k - 1
    )


def test_q_binom_boundary():
    assert q_binom(4, 0) == 1
    assert q_binom(4, 4) == 1
    assert q_binom(4, -1) == LaurentPoly()
    assert q_binom(4, 5) == LaurentPoly()


def test_q_binom_two_one():
    assert q_binom(2, 1) == q_int(2)


def test_q_binom_four_two():
    # frozen from the Pascal-recursion oracle
    expected = lp(e4=1, e2=1, e0=2, em2=1, em4=1)
    assert q_binom_pascal(4, 2) == expected
    assert q_binom(4, 2) == expected


def test_q_binom_matches_pascal_oracle():
    for n in range(0, 13):
        for k in range(0, n + 1):
            assert q_binom(n, k) == q_binom_pascal(n, k), (n, k)


def test_q_binom_specializes_to_binomial():
    import math

    for n in range(0, 13):
        for k in range(0, n + 1):
            assert specialize_one(q_binom(n, k)) == math.comb(n, k)


def test_bar_symmetry():
    for n in range(0, 13):
        assert q_int(n).bar() == q_int(n)
        assert q_fact(n).bar() == q_fact(n)
        for k in range(0, n + 1):
            assert q_binom(n, k).bar() == q_binom(n, k)


# -- specialization -----------------------------------------------------------


def test_specialize_one():
    assert specialize_one(q_int(5)) == 5
    assert specialize_one(q_fact(3)) == 6
    assert specialize_one(LaurentPoly()) == 0
    assert isinstance(specialize_one(q_int(2)), Fraction)


# -- exact division ------------------------------------------------------------


def test_div_exact_factorization():
    assert (v**2 - v**-2).div_exact(v - v**-1) == v + v**-1


def test_div_exact_identity():
    p = lp(e2=3, e0=Fraction(-1, 3), em5=1)
    assert p.div_exact(one) == p


def test_div_exact_non_divisible():
    # long division of v+1 by v-1 leaves remainder 2
    with pytest.raises(ExactDivisionError):
        (v + 1).div_exact(v - 1)


def test_div_exact_by_zero():
    with pytest.raises(ZeroDivisionError):
        v.div_exact(LaurentPoly())


def test_div_exact_zero_numerator():
    assert LaurentPoly().div_exact(v + 1) == LaurentPoly()


def test_true_division_is_exact_division():
    assert (v**2 - v**-2) / (v - v**-1) == v + v**-1
    assert (v * 3) / 3 == v and isinstance(v / 2, LaurentPoly)
    with pytest.raises(ExactDivisionError):
        (v + 1) / (v - 1)
    with pytest.raises(ZeroDivisionError):
        v / LaurentPoly()
    with pytest.raises(ZeroDivisionError):
        v / 0


def test_a_number_over_a_laurent_polynomial_is_exact_division():
    assert 2 / v == LaurentPoly({-1: 2})
    assert Fraction(1, 2) / LaurentPoly(3) == LaurentPoly(Fraction(1, 6))
    assert 0 / (v + 1) == LaurentPoly()
    with pytest.raises(ExactDivisionError):
        1 / (v + 1)


def test_true_division_goes_through_div_exact(monkeypatch):
    calls = []
    div_exact = LaurentPoly.div_exact
    monkeypatch.setattr(LaurentPoly, "div_exact", lambda a, b: calls.append(b) or div_exact(a, b))
    assert (v**2) / v == v and calls == [v]


# -- gcd ------------------------------------------------------------------------


def test_gcd_includes_monomial_factor():
    a = v**3 - v  # v(v^2 - 1)
    b = v**2 - 1
    g = lp_gcd(a, b)
    assert g == v**2 - 1
    assert lp_gcd(a, v**2 * b) == v * (v**2 - 1)


def test_gcd_of_coprime_is_unit():
    assert lp_gcd(v + 1, v - 1) == 1
    assert lp_gcd(2 * v, 3 * one) == 1


def test_gcd_canonical_sign_and_content():
    g = lp_gcd(-2 * v - 2, -4 * v - 4)
    assert g == v + 1
    assert g.leading_coeff > 0


# -- ring laws (randomized) -------------------------------------------------------

coeffs = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)
polys = st.dictionaries(st.integers(-6, 6), coeffs, max_size=5).map(LaurentPoly)


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_product_divides_back(a, b):
    if b:
        assert (a * b).div_exact(b) == a


@given(polys, polys)
def test_true_division_undoes_product(a, b):
    if b:
        assert (a * b) / b == a


@given(polys, polys)
def test_ring_results_are_canonical(a, b):
    for p in (a, b, a + b, a - b, a * b, a.bar(), -a):
        assert canonical(p)
    if b:
        assert canonical((a * b) / b)


@given(polys)
def test_bar_is_involution(a):
    assert a.bar().bar() == a


def test_serial_terms_ascending():
    p = lp(e2=1, em1=3, e0=Fraction(1, 2))
    assert list(p.terms()) == [
        (-1, Fraction(3)),
        (0, Fraction(1, 2)),
        (2, Fraction(1)),
    ]
