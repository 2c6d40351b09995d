import random
from fractions import Fraction

import pytest

from genpos.groebner import Ideal, ideal_intersect
from genpos.points import PointSet
from genpos.poly import Polynomial
from genpos.scalars import QQ, FieldMismatchError, PrimeField, is_prime


def test_is_prime_small_and_large():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13,
                                                        17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(2147483647)
    assert not is_prime(2147483649)
    # Carmichael number: fools Fermat, not Miller-Rabin
    assert not is_prime(561)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(10)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_fp_arithmetic():
    # GF(p) scalars are plain ints; the field reduces, inverts and prints
    F = PrimeField(11)
    a, b = F(7), F(8)
    assert type(a) is int and a == 7
    assert F(a + b) == 4
    assert F(a - b) == 10
    assert F(a * b) == 1
    assert F(a * F.inv(b)) == F(a * b ** 9)
    assert F(-a) == 4
    assert F(a ** 0) == F.one
    assert F(a * F.inv(a)) == F.one
    assert F.to_str(a) == "7 mod 11"
    assert F.to_str(-1) == "10 mod 11"


def test_field_inverse_and_float_refusal():
    F = PrimeField(11)
    for a in range(1, 11):
        inv = F.inv(a)
        assert type(inv) is int and 0 < inv < 11
        assert a * inv % 11 == 1
    assert F.inv(12) == 1
    assert F.inv(-1) == 10
    for zero in (0, 11, -22):
        with pytest.raises(ZeroDivisionError):
            F.inv(zero)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert type(QQ.inv(4)) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    for field in (F, QQ):
        with pytest.raises(TypeError):
            field(0.5)
        with pytest.raises(TypeError):
            field(None)


def test_fp_int_coercion_both_sides():
    F = PrimeField(11)
    assert F(15) == 4 and F(-1) == 10 and F(11) == 0
    assert F(Fraction(2, 3)) == F(2 * F.inv(3))
    assert F("-1/2") == F(-F.inv(2))
    assert F(True) == 1
    # zero and one are plain attributes, not rebuilt on each access
    assert F.zero == 0 and F.one == 1 and F.zero is F.zero
    assert QQ.zero == 0 and QQ.one == 1 and QQ.one is QQ.one
    assert type(QQ.zero) is Fraction and type(QQ(3)) is Fraction


def test_mixed_prime_fields_refused():
    # a bare int carries no field, so mixing is caught at the object boundaries
    x11 = Polynomial.variable(0, 1, PrimeField(11))
    x13 = Polynomial.variable(0, 1, PrimeField(13))
    xq = Polynomial.variable(0, 1, QQ)
    for a, b in ((x11, x13), (xq, x11), (x11, xq)):
        with pytest.raises(FieldMismatchError):
            a + b
        with pytest.raises(FieldMismatchError):
            a * b
    with pytest.raises(ValueError, match="wrong ring"):
        Ideal(1, QQ, [xq, x11])
    with pytest.raises(ValueError, match="different rings"):
        ideal_intersect(Ideal.of(x11), Ideal.of(x13))
    with pytest.raises(FieldMismatchError):
        PointSet.of(1, PrimeField(11), [["1 mod 13", "2 mod 13"]])
    with pytest.raises(FieldMismatchError):
        PointSet.of(1, QQ, [["1 mod 11", "2 mod 11"]])
    with pytest.raises(TypeError):
        PointSet.of(1, QQ, [[1, 0.5]])


def test_rational_field_parse_and_coerce():
    assert QQ("3/4") == Fraction(3, 4)
    assert QQ(-2) == Fraction(-2)
    assert QQ.to_str(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(FieldMismatchError):
        QQ.parse("3 mod 11")


def test_prime_field_parse():
    F = PrimeField(11)
    assert F.parse("7 mod 11") == F(7)
    assert F.parse("-1") == F(10)
    assert F.parse("1/2") == F(6)
    assert F(Fraction(1, 2)) == F(6)
    with pytest.raises(FieldMismatchError):
        F.parse("7 mod 13")
    with pytest.raises(ZeroDivisionError):
        F(Fraction(1, 11))


def test_objects_carry_their_field():
    F = PrimeField(11)
    x = Polynomial.variable(0, 2, F)
    assert x.field == F and (x * 3 + 1).field == F
    assert Ideal.of(x).field == F
    X = PointSet.of(1, F, [[1, 2], [0, 5]])
    assert X.field == F and X.points == ((1, 2), (0, 1))
    assert all(type(c) is int for p in X.points for c in p)


def test_random_elements_deterministic():
    F = PrimeField(101)
    a = [F.random(random.Random(7)) for _ in range(3)]
    b = [F.random(random.Random(7)) for _ in range(3)]
    assert a == b
    q = [QQ.random(random.Random(7)) for _ in range(3)]
    assert q == [QQ.random(random.Random(7)) for _ in range(3)]
