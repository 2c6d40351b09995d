import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from genpos.fixtures import GOLDEN_DIR, germ_branch_curve, tangent_point_set
from genpos.groebner import Ideal
from genpos.points import PointSet
from genpos.poly import Polynomial
from genpos.scalars import QQ, PrimeField
from genpos.serialize import (canonical_json, curve_from_json, curve_to_json,
                              field_from_json, field_to_json,
                              ideal_from_json,
                              point_set_from_json, point_set_to_json)

F11 = PrimeField(11)


def test_canonical_json_bytes():
    out = canonical_json({"b": 1, "a": [2, 3]})
    assert out == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert canonical_json({"a": 1, "b": 1}) == canonical_json(
        {"b": 1, "a": 1})


# canonical_json's values: dicts with str keys, lists, tuples, str, int,
# bool and None, nested
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(st.integers(), max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_values)
def test_canonical_json_matches_json_dumps(obj):
    # the reference canonical_json once returned
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True,
                                             indent=2) + "\n"


def test_canonical_json_refuses_other_types():
    for obj in (1.5, {1: "a"}, [{"a": {2, 3}}], Fraction(1, 2), b"x"):
        with pytest.raises(TypeError):
            canonical_json(obj)


def test_goldens_re_encode_to_their_bytes():
    names = sorted(os.listdir(GOLDEN_DIR))
    assert len(names) == 12
    for name in names:
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            text = fh.read()
        assert canonical_json(json.loads(text)) == text, name


def test_field_round_trip():
    assert field_to_json(QQ) == "Q"
    assert field_to_json(F11) == {"p": 11}
    assert field_from_json("Q") is QQ
    assert field_from_json(None) is QQ
    assert field_from_json({"p": 11}) == F11
    with pytest.raises(ValueError, match="unrecognized"):
        field_from_json({"q": 11})
    with pytest.raises(ValueError):
        field_from_json("R")


def test_scalar_to_str():
    # printing is the field's job: a bare int does not know its modulus
    assert QQ.to_str(Fraction(-1, 2)) == "-1/2"
    assert QQ.to_str(Fraction(3)) == "3"
    assert F11.to_str(7) == "7 mod 11"
    assert F11.to_str(F11("-4")) == "7 mod 11"
    X = PointSet.of(1, F11, [[2, 3], [0, 1]])
    assert point_set_to_json(X)["points"] == [["1 mod 11", "7 mod 11"],
                                             ["0 mod 11", "1 mod 11"]]


def test_point_set_round_trip():
    for X in (tangent_point_set(),
              PointSet.of(1, QQ, [[1, Fraction(1, 2)], [0, 1]])):
        obj = point_set_to_json(X)
        assert point_set_from_json(obj) == X
    # integer coordinates are accepted on input
    X = point_set_from_json({"r": 1, "points": [[1, 2], [1, 3]]})
    assert X.field is QQ and X.e == 2


def test_curve_round_trip():
    C = germ_branch_curve()
    obj = curve_to_json(C)
    assert curve_from_json(obj) == C
    with pytest.raises(ValueError, match="components"):
        curve_from_json({"r": 2, "field": {"p": 11},
                         "branches": [["t", "t^2"]]})


def test_ideal_round_trip():
    x, y = [Polynomial.variable(i, 2, QQ) for i in range(2)]
    I = Ideal.of(x ** 2 - y, x * y - 1)
    # rationals are the default field
    J = ideal_from_json({"vars": 2, "gens": ["x0^2 - x1", "x0*x1 - 1"]})
    assert J.nvars == 2 and J.field is QQ and J.gens == I.gens

    w = Polynomial.variable(0, 1, F11)
    K = Ideal(1, F11, [w ** 2 + 1])
    back = ideal_from_json({"field": {"p": 11}, "vars": 1,
                            "gens": ["x0^2 + 1"]})
    assert back.field == F11 and back.gens == K.gens
