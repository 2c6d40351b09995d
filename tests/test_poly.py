import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (mono_deg, mono_div, mono_divides, mono_lcm, mono_mul,
                      monomials_up_to)
from genpos.poly import (DEGREVLEX, LAZARD, LEX, BlockOrder, DegRevLex, Lex,
                         Polynomial, monomials_of_degree, parse_polynomial)
from genpos.scalars import QQ, FieldMismatchError, PrimeField

F11 = PrimeField(11)


def xvars(n, field=QQ):
    return [Polynomial.variable(i, n, field) for i in range(n)]


def test_monomial_helpers():
    assert mono_mul((1, 2), (0, 3)) == (1, 5)
    assert mono_deg((2, 0, 1)) == 3
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((1, 2), (2, 1))
    assert mono_div((2, 1), (1, 0)) == (1, 1)
    assert mono_lcm((2, 0), (1, 3)) == (2, 3)


def test_ring_identities():
    x, y = xvars(2)
    p = (x + y) * (x - y)
    assert p == x ** 2 - y ** 2
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    assert p - p == Polynomial.zero(2, QQ)
    assert p * Polynomial.zero(2, QQ) == Polynomial.zero(2, QQ)
    assert (p + 1) - 1 == p
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x


def test_mixed_field_refused():
    x, = xvars(1)
    w, = xvars(1, F11)
    with pytest.raises(FieldMismatchError):
        x + w


def test_order_keys_disagree():
    # lex looks at the first variable only; degrevlex ranks by degree first
    x, y = xvars(2)
    p = x + y ** 2
    assert p.leading_monomial(Lex()) == (1, 0)
    assert p.leading_monomial(DegRevLex()) == (0, 2)


def test_degrevlex_tiebreak():
    x, y, z = xvars(3)
    # same degree: degrevlex prefers the monomial with the smaller
    # exponent on the last variable
    p = x * z + y ** 2
    assert p.leading_monomial(DegRevLex()) == (0, 2, 0)


def test_block_order_eliminates():
    x, y, z = xvars(3)
    order = BlockOrder(1)
    # any monomial containing x beats any that does not
    p = x + y ** 5 * z ** 5
    assert p.leading_monomial(order) == (1, 0, 0)


def test_orders_are_records_of_their_own_class():
    # the fieldless orders differ from each other and from (), so each keys
    # its own entry in the per-order caches
    assert DegRevLex() == DEGREVLEX and Lex() == LEX
    orders = [DEGREVLEX, LEX, LAZARD, BlockOrder(1), ()]
    for i, a in enumerate(orders):
        for b in orders[i + 1:]:
            assert a != b and not a == b
    assert len({DEGREVLEX: 0, LEX: 1, LAZARD: 2}) == 3
    assert BlockOrder(1) == BlockOrder(split=1) != BlockOrder(2)
    assert hash(BlockOrder(1)) == hash(BlockOrder(split=1))
    assert hash(DegRevLex()) == hash(DEGREVLEX)
    assert repr(BlockOrder(1)) == "BlockOrder(split=1)"
    assert repr(LAZARD) == "LazardOrder()"
    with pytest.raises(AttributeError):
        BlockOrder(1).split = 2


def test_degree_and_low_degree():
    x, y = xvars(2)
    p = x * y ** 2 + x ** 2 + y ** 5
    assert p.degree() == 5
    assert p.low_degree() == 2
    assert not p.is_homogeneous()
    assert (x * y).is_homogeneous()
    assert Polynomial.zero(2, QQ).degree() == -1


def test_text_canonical():
    x, y = xvars(2)
    p = y ** 2 - x + 1
    assert p.text() == "x1^2 - x0 + 1"
    assert p.text(names=("u", "v")) == "v^2 - u + 1"
    assert Polynomial.zero(2, QQ).text() == "0"
    assert Polynomial.constant(Fraction(-1, 2), 2, QQ).text() == "-1/2"
    w = Polynomial.variable(0, 1, F11)
    assert (8 * w ** 2 + w).text(names=("t",)) == "8*t^2 + t"


def test_parse_round_trip_seeded():
    rng = random.Random(42)
    for field in (QQ, F11):
        for _ in range(20):
            n = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 6)):
                m = tuple(rng.randint(0, 3) for _ in range(n))
                c = field.random(rng)
                if c:
                    terms[m] = c
            p = Polynomial(n, field, terms)
            assert parse_polynomial(p.text(), n, field) == p


@st.composite
def parse_cases(draw):
    """Polynomial text in x0..x2 and its terms as (sign, coefficient tokens,
    exponents): signs, integer and a/b tokens among the factors in any
    order, variables with and without exponents, repeated monomials."""
    terms, parts = [], []
    for k in range(draw(st.integers(1, 6))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=int(k > 0),
                              max_size=2))
        coeffs = draw(st.lists(st.one_of(
            st.integers(0, 60).map(str),
            st.tuples(st.integers(0, 60), st.integers(1, 30)).map(
                lambda ab: "%d/%d" % ab)), max_size=2))
        variables = draw(st.lists(st.tuples(st.integers(0, 2),
                                            st.integers(0, 3)), max_size=3))
        factors = coeffs + ["x%d" % i if e == 0 else "x%d^%d" % (i, e)
                            for i, e in variables]
        if not factors:
            factors = ["1"]
            coeffs = ["1"]
        factors = draw(st.permutations(factors))
        expo = [0, 0, 0]
        for i, e in variables:
            expo[i] += e or 1
        sign = (-1) ** signs.count("-")
        terms.append((sign, coeffs, tuple(expo)))
        parts.append(" ".join(signs) + " " + "*".join(factors))
    return " ".join(parts), terms


def fraction_parse(terms, field):
    """The parse before integer tokens stayed ints, kept as the oracle: a
    term's coefficient is Fraction(sign) times Fraction(token) for each of
    its coefficient tokens, coerced into the field and summed per monomial."""
    out = {}
    for sign, coeffs, expo in terms:
        coeff = Fraction(sign)
        for tok in coeffs:
            coeff *= Fraction(tok)
        out[expo] = out.get(expo, field.zero) + field(coeff)
    return Polynomial(3, field, out)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=parse_cases())
def test_parse_matches_fraction_parse(field, case):
    text, terms = case
    try:
        want = fraction_parse(terms, field)
    except ZeroDivisionError:  # a denominator divisible by p
        with pytest.raises(ZeroDivisionError):
            parse_polynomial(text, 3, field)
        return
    got = parse_polynomial(text, 3, field)
    assert got == want
    kind = int if field.p else Fraction
    assert all(type(c) is kind for c in got.terms.values())


def test_parse_custom_names():
    t = Polynomial.variable(0, 1, QQ)
    p = parse_polynomial("t^5 - 1", 1, QQ, names=("t",))
    assert p == t ** 5 - 1
    assert parse_polynomial("3/2", 1, QQ).degree() == 0


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_polynomial("x5 + 1", 2, QQ)
    with pytest.raises(ValueError):
        parse_polynomial("x0 +", 2, QQ)
    assert parse_polynomial("", 2, QQ).is_zero()
    with pytest.raises(ValueError):
        parse_polynomial("t + 1", 1, QQ)  # names not given
    for text in ("*x0", "x0 * * x1", "x0 + *x1"):
        with pytest.raises(ValueError, match="'\\*' needs a factor"):
            parse_polynomial(text, 2, QQ)


def test_monomials_of_degree():
    assert monomials_of_degree(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert monomials_of_degree(1, 0) == [(0,)]
    assert len(monomials_of_degree(3, 4)) == 15


def test_monomials_up_to():
    ms = monomials_up_to(2, 2)
    assert ms[0] == (0, 0)
    assert [mono_deg(m) for m in ms] == sorted(mono_deg(m) for m in ms)
    assert len(ms) == 6


def test_compose1():
    t = Polynomial.variable(0, 1, QQ)
    p = t ** 2 + 1
    assert p.compose1(t + 1) == t ** 2 + 2 * t + 2
    assert p.compose1(Polynomial.zero(1, QQ)) == Polynomial.constant(
        Fraction(1), 1, QQ)


def test_evaluate():
    x, y = xvars(2)
    p = x ** 2 * y - 3
    assert p.evaluate([Fraction(2), Fraction(5)]) == Fraction(17)
    w = Polynomial.variable(0, 1, F11)
    assert (w ** 5 - 1).evaluate([F11(3)]) == F11.zero
