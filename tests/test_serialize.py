from fractions import Fraction

import pytest

from calls import count_calls
from qsl2 import serialize
from qsl2.modrep import CLASSICAL, QUANTUM, RasskazovaParams, Vector, finite_dim, rasskazova, verma_classical
from qsl2.qarith import LaurentPoly, q_fact, v
from qsl2.serialize import (
    comparison_json,
    laurent_json,
    laurent_token,
    module_descriptor,
    rational_json,
    scalar_token,
    vector_json,
)
from qsl2.tensorcg import phi_vs_oracle


def test_rational_json_forms():
    assert rational_json(Fraction(3)) == 3
    assert rational_json(Fraction(5, 2)) == "5/2"
    assert rational_json(Fraction(-1, 3)) == "-1/3"


def test_rational_json_takes_ints_and_fractions_as_they_are():
    assert rational_json(7) == 7 and rational_json(-2) == -2
    assert rational_json(Fraction(-5, 2)) == "-5/2"
    with pytest.raises(AttributeError):
        rational_json(0.5)  # not silently "1/2"


def test_laurent_json_ascending_triples():
    assert laurent_json(q_fact(3)) == [[-3, 1, 1], [-1, 2, 1], [1, 2, 1], [3, 1, 1]]
    assert laurent_json(LaurentPoly()) == []
    assert laurent_json(LaurentPoly({0: Fraction(-1, 2)})) == [[0, -1, 2]]


def test_laurent_token_comma_free():
    assert laurent_token(q_fact(3)) == "1*v^-3+2*v^-1+2*v^1+1*v^3"
    assert laurent_token(LaurentPoly()) == "0"
    assert laurent_token(-v) == "-1*v^1"
    assert laurent_token(v - 3 * v**-2) == "-3*v^-2+1*v^1"
    assert "," not in laurent_token(q_fact(5))


def test_scalar_token_dispatch():
    assert scalar_token(Fraction(5, 2)) == "5/2"
    assert scalar_token(v) == "1*v^1"


def test_vector_json_ambient_order():
    m = finite_dim(2, CLASSICAL)
    x = Vector(m, {"w_2": Fraction(1, 2), "w_0": Fraction(-3)})
    assert vector_json(x) == [["w_0", -3], ["w_2", "1/2"]]


def test_module_descriptor_classical():
    got = module_descriptor(finite_dim(1, CLASSICAL))
    assert got == {
        "flavor": "classical",
        "name": "F(n=1)",
        "basis": ["w_0", "w_1"],
        "weights": [["w_0", 1], ["w_1", -1]],
        "action": {
            "e": [["w_0", "w_1", 1]],
            "f": [["w_1", "w_0", 1]],
            "h": [["w_0", "w_0", 1], ["w_1", "w_1", -1]],
        },
        "boundary": [],
    }


def test_module_descriptor_quantum():
    got = module_descriptor(finite_dim(1, QUANTUM))
    assert got["weights"] == [["w_0", 1], ["w_1", -1]]
    assert got["action"]["K"] == [
        ["w_0", "w_0", [[1, 1, 1]]],
        ["w_1", "w_1", [[-1, 1, 1]]],
    ]
    assert got["action"]["E"] == [["w_0", "w_1", [[0, 1, 1]]]]


def test_comparison_json_shapes():
    ok = comparison_json(phi_vs_oracle(2, 2, 0))
    assert ok["proportional"] is True
    assert ok["scalar"] == [[2, 1, 1]]
    assert ok["interpretation"] == "weight-matched-v1"
    assert "witness" not in ok

    bad = comparison_json(phi_vs_oracle(1, 1, 1))
    assert bad["proportional"] is False
    assert set(bad["witness"]) == {"label", "formula", "oracle"}
    assert "scalar" not in bad


@pytest.mark.parametrize("make", [
    lambda: verma_classical(Fraction(-7, 3), 50),
    lambda: rasskazova(RasskazovaParams(Fraction(1, 2), Fraction(1, 3), 3, 10)),
], ids=["verma", "rasskazova"])
def test_descriptor_takes_one_gcd_per_distinct_numerator(make, monkeypatch):
    m = make()
    numerators = {*m.num_weights.values(), *(c for mat in m.num_action.values() for col in mat.values() for c in col.values())}
    expected = module_descriptor(m)
    calls = count_calls(monkeypatch, "gcd", module=serialize)
    assert module_descriptor(m) == expected
    assert 0 < calls["gcd"] <= len(numerators)
