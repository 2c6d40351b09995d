"""Cross-check: reduced degrevlex bases from `buchberger` against sympy.

sympy's `groebner(..., order="grevlex")` uses the same order as `DEGREVLEX`
(x0 > x1 > ...). A reduced basis is unique once each element is scaled to a
leading coefficient of 1, so both sides are normalised by their *grevlex*
leading coefficient; `Poly.monic()` divides by the lex one and would report
false mismatches.
"""

import random
from fractions import Fraction

import pytest

from conftest import monic
from genpos.groebner import buchberger
from genpos.poly import DEGREVLEX, Polynomial
from genpos.scalars import QQ, PrimeField

sympy = pytest.importorskip("sympy")

GF32003 = PrimeField(32003)


def to_sympy(f, xs):
    out = 0
    for m, c in f.terms.items():
        coeff = (sympy.Rational(c.numerator, c.denominator)
                 if f.field.p is None else sympy.Integer(c))
        out += coeff * sympy.Mul(*(x ** e for x, e in zip(xs, m)))
    return out


def from_sympy(poly, nvars, field):
    """A sympy Poly as a genpos Polynomial with grevlex leading coefficient 1."""
    terms = {}
    for m, c in poly.terms():
        c = Fraction(int(c.p), int(c.q)) if field.p is None else int(c)
        terms[tuple(m)] = c
    return monic(Polynomial(nvars, field, terms), DEGREVLEX)


def sympy_basis(gens, nvars, field):
    xs = sympy.symbols("x0:%d" % nvars)
    kwargs = {} if field.p is None else {"modulus": field.p}
    gb = sympy.groebner([to_sympy(g, xs) for g in gens], *xs,
                        order="grevlex", **kwargs)
    return sorted((from_sympy(p, nvars, field) for p in gb.polys),
                  key=lambda g: DEGREVLEX.key(g.leading_monomial(DEGREVLEX)))


def random_ideal(rng, field):
    nvars = rng.randint(2, 3)
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {tuple(rng.randint(0, 2) for _ in range(nvars)):
                 field(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 for _ in range(rng.randint(2, 4))}
        gens.append(Polynomial(nvars, field, terms))
    return nvars, [g for g in gens if not g.is_zero()]


def cyclic(n, field):
    """Generators of the cyclic-n ideal."""
    xs = [Polynomial.variable(i, n, field) for i in range(n)]
    gens = []
    for k in range(1, n):
        total = Polynomial.zero(n, field)
        for i in range(n):
            term = Polynomial.constant(field.one, n, field)
            for j in range(k):
                term = term * xs[(i + j) % n]
            total = total + term
        gens.append(total)
    last = Polynomial.constant(field.one, n, field)
    for x in xs:
        last = last * x
    gens.append(last - 1)
    return gens


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["Q", "GF32003"])
def test_random_ideals_match_sympy(field):
    rng = random.Random(2024)
    for _ in range(25):
        nvars, gens = random_ideal(rng, field)
        if not gens:
            continue
        assert list(buchberger(gens, DEGREVLEX)) == \
            sympy_basis(gens, nvars, field)


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["Q", "GF32003"])
def test_cyclic4_matches_sympy(field):
    gens = cyclic(4, field)
    got = buchberger(gens, DEGREVLEX)
    assert len(got) == 7
    assert list(got) == sympy_basis(gens, 4, field)
