import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from calls import FRACTION_SLACK, count_fractions, count_muls
from kernels import lp_gcd as euclid_gcd

from qsl2 import qarith
from qsl2.qarith import (
    ExactDivisionError,
    LaurentPoly,
    _poly_divmod,
    lp_gcd,
    primitive,
    q_binom,
    q_fact,
    q_facts,
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


def test_a_coefficient_is_an_exact_number():
    assert LaurentPoly({0: True}) == 1
    with pytest.raises(TypeError, match="cannot use float as an exact coefficient"):
        LaurentPoly({0: 1.5})


def test_laurent_poly_is_immutable():
    with pytest.raises(AttributeError, match="immutable"):
        v.x = 1


@pytest.mark.parametrize("exp", ["min_exp", "max_exp"])
def test_zero_has_no_exponents(exp):
    with pytest.raises(ValueError, match="zero polynomial has no exponents"):
        getattr(LaurentPoly(), exp)


@pytest.mark.parametrize(
    "op",
    [lambda: v + "a", lambda: v - "a", lambda: "a" - v, lambda: v * "a", lambda: v**0.5, lambda: v.div_exact("a")],
    ids=["add", "sub", "rsub", "mul", "pow", "div_exact"],
)
def test_an_operand_outside_the_ring_is_refused(op):
    with pytest.raises(TypeError):
        op()


def test_a_non_unit_has_no_negative_power():
    with pytest.raises(ValueError, match="negative power of a non-unit"):
        (v + 1) ** -1


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


# -- the tables of [n] and [n]! ---------------------------------------------


def closed_q_int(n):
    """[n] as the sum of v^(n-1-2i) over 0 <= i < n, with [0] = 0 and [-n] = -[n]."""
    out = sum((v ** (abs(n) - 1 - 2 * i) for i in range(abs(n))), LaurentPoly())
    return -out if n < 0 else out


def test_q_int_and_q_fact_match_their_definitions_on_both_sides_of_the_kept_range(empty_q_tables):
    for n in range(-70, 71):
        assert q_int(n) == closed_q_int(n), n
    product = one  # [1] [2] ... [n], left to right
    for n, fact in enumerate(q_facts(70)):
        product = product * closed_q_int(n) if n else product
        assert fact == product, n
        if n <= 20 or n == 70:  # past [16]! each q_fact call starts again from [16]!
            assert q_fact(n) == product, n
    assert q_int(-500) == -closed_q_int(500)
    # kept: [n] for |n| <= 16 and [0]! .. [16]!, nothing past them
    assert qarith._KEPT == 16
    assert sorted(qarith._q_ints) == list(range(-16, 17)) and sorted(qarith._q_facts) == list(range(17))


def test_q_int_and_q_fact_return_one_shared_value(empty_q_tables):
    for n in (-5, 0, 5, 16):
        assert q_int(n) is q_int(n)
    for n in (0, 1, 9, 16):
        assert q_fact(n) is q_fact(n)
    assert q_fact(1) == q_fact(0) == 1 and q_int(17) is not q_int(17) and q_fact(17) is not q_fact(17)
    for x in (2.0, 0.0, Fraction(2)):  # refused whether or not [2] and [0] are kept
        with pytest.raises(TypeError):
            q_int(x)
        with pytest.raises(TypeError):
            q_fact(x)
    with pytest.raises(AttributeError, match="immutable"):
        q_fact(3)._coeffs = {}


def test_q_fact_negative_leaves_the_tables_as_they_were(empty_q_tables):
    q_fact(5)
    before = dict(qarith._q_facts), dict(qarith._q_ints)
    with pytest.raises(ValueError):
        q_fact(-1)
    with pytest.raises(ValueError):
        next(q_facts(-1))
    assert (qarith._q_facts, qarith._q_ints) == before
    assert list(q_facts(0)) == [1] and list(q_facts(2)) == [1, 1, q_int(2)]


def in_threads(rounds, setup, target, check):
    """rounds of: setup(), then 8 threads each run target() at a 1 us switch interval, then check()."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):  # a race shows in some rounds, not all
            setup()
            threads = [threading.Thread(target=target) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            check()
    finally:
        sys.setswitchinterval(switch)


def test_threads_growing_the_factorial_table_leave_each_entry_right(empty_q_tables):
    kept = range(qarith._KEPT + 1)
    expected = {0: one, 1: one}
    for k in kept[2:]:
        expected[k] = expected[k - 1] * closed_q_int(k)
    got = []

    def setup():
        for k in kept[2:]:
            qarith._q_facts.pop(k, None)
        got.clear()

    def grow():  # q_fact(16) builds [2]! .. [16]! in every thread at once
        got.append({k: q_fact(k) for k in reversed(kept)})
        q_fact(30)

    def check():  # [0]! .. [16]!: q_fact(30) keeps nothing past [16]!, and each thread got the kept [k]!
        assert qarith._q_facts == expected
        assert all(x is qarith._q_facts[k] for values in got for k, x in values.items())

    in_threads(10, setup, grow, check)


def test_threads_building_the_same_q_integer_get_the_one_kept_value(empty_q_tables):
    kept = range(-qarith._KEPT, qarith._KEPT + 1)
    got = []

    def setup():
        qarith._q_ints.clear()
        got.clear()

    def check():  # two threads that both build [n] must both return the value the table keeps
        assert sorted(qarith._q_ints) == list(kept)
        assert all(x is qarith._q_ints[n] for values in got for n, x in zip(kept, values))
        assert all(qarith._q_ints[n] == closed_q_int(n) for n in kept)

    in_threads(50, setup, lambda: got.append([*map(q_int, kept)]), check)


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
    with pytest.raises(ValueError, match="needs n >= 0"):
        q_binom(-1, 0)
    for k in (2.0, 1.5, Fraction(2), "2"):  # k is a list position: refused, as q_int refuses a float
        with pytest.raises(TypeError):
            q_binom(5, k)
    assert q_binom(5, True) == q_binom(5, 1) == q_int(5)


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


def test_q_binom_takes_its_three_factorials_from_one_walk(monkeypatch):
    q_fact(16)  # warm: [0]! .. [16]! are kept
    products = {(40, 20): 25, (70, 35): 55, (40, 3): 25, (12, 5): 1}  # [17]! .. [n]!, then [k]! [n-k]!
    expected = {(n, k): q_fact(n).div_exact(q_fact(k) * q_fact(n - k)) for n, k in products}
    calls = count_muls(monkeypatch)
    for (n, k), count in products.items():
        assert q_binom(n, k) == expected[n, k] and calls["mul"] == count, (n, k)
        calls.clear()
    for n in (17, 40):  # q_fact(n) past [16]!: n - 16 products on each call
        q_fact(n)
        assert calls["mul"] == n - 16, n
        calls.clear()


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
    # an int or a Fraction is a constant
    for c in (3, Fraction(1, 2)):
        assert specialize_one(c) == c and type(specialize_one(c)) is Fraction


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


def test_gcd_with_zero_is_the_other_made_primitive():
    assert lp_gcd(LaurentPoly(), -2 * v - 4) == v + 2
    assert lp_gcd(Fraction(1, 2) * v**3, LaurentPoly()) == v**3


def test_primitive_returns_all_zero_input_as_is():
    zeros = [LaurentPoly()]
    assert primitive(zeros) is zeros


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


def validated(p):
    """p built again through LaurentPoly's validating constructor."""
    return LaurentPoly(dict(p._coeffs))


def stored(p):
    """p's stored terms with each coefficient's type, so 2 and Fraction(2) differ."""
    return sorted((e, type(c), c) for e, c in p._coeffs.items())


small = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6))
monomials = st.tuples(st.integers(-5, 5), small.filter(bool)).map(lambda ec: LaurentPoly({ec[0]: ec[1]}))
operands = st.one_of(monomials, st.dictionaries(st.integers(-4, 4), small, max_size=4).map(LaurentPoly))


@st.composite
def operand_pairs(draw):
    """(a, b): any two, b a monomial, b cancelling a term of a or all of it,
    or b the monomial whose product with a term of a is integral."""
    a, b = draw(operands), draw(operands)
    kind = draw(st.sampled_from(["any", "cancel-all", "cancel-term", "integral-product"]))
    if kind == "cancel-all":
        b = -a
    elif a and kind != "any":
        e, c = draw(st.sampled_from(sorted(a._coeffs.items())))
        if kind == "cancel-term":
            b = LaurentPoly({**b._coeffs, e: -c})
        else:
            b = LaurentPoly({-e: draw(st.sampled_from([1, -2, 3])) / Fraction(c)})
    return draw(st.permutations([a, b]))


@given(operand_pairs(), small)
def test_ring_results_are_their_own_validated_form(pair, n):
    # sums, differences, products and exact quotients are built without re-validation:
    # each must be what the validating constructor would build from its own terms
    a, b = pair
    results = [a + b, a - b, a * b, a + n, n - a, a * n, n * a, (a * b) - (a * b), -a]
    results += [(a * b).div_exact(d) for d in (a, b) if d]
    for r in results:
        assert stored(r) == stored(validated(r)) and r == validated(r) and hash(r) == hash(validated(r))
        assert all(type(e) is int for e in r._coeffs)
        assert all(type(c) is int or type(c) is Fraction and c.denominator != 1 for c in r._coeffs.values())
        assert all(r._coeffs.values())
    assert a * b == b * a and a + b == b + a and (a * b).div_exact(b or 1) * (b or 1) == a * b
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})
    with pytest.raises(TypeError):
        LaurentPoly({1.0: 1})


@given(operands, operands, operands)
def test_gcd_is_the_euclid_reference(a, b, shared):
    # operands draw zero, constants, monomials and Fraction coefficients; each pair alone and times a shared factor
    for x, y in ((a, b), (a * shared, b * shared), (a * shared, shared), (shared * shared, a * shared)):
        assert stored(lp_gcd(x, y)) == stored(euclid_gcd(x, y)), (x, y)


@pytest.mark.parametrize("degree, bits", [(80, 3), (20, 130)])
def test_gcd_of_dense_pairs_with_a_shared_cubic_builds_no_fraction_per_step(monkeypatch, degree, bits):
    # Euclid over Q swelled here (3.5 s and 1.3 s; 14,254 and 1,175 Fractions); the cofactors of this
    # seed are coprime, so the gcd is the cubic made primitive
    rng = random.Random(7)
    cubic, *pair = (LaurentPoly({e: rng.randrange(-2**bits, 2**bits) or 1 for e in range(d + 1)})
                    for d in (3, degree, degree))
    a, b, expected = pair[0] * cubic, pair[1] * cubic, primitive([cubic])[0]
    built = count_fractions(monkeypatch)
    assert lp_gcd(a, b) == expected
    assert built["Fraction"] <= 8 * FRACTION_SLACK, built  # a scale per input, one for the result and its 4 terms


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
