import random
from operator import le, sub

import pytest
from hypothesis import given, settings, strategies as st

from genpos import groebner
from genpos.errors import BudgetExceededError
from genpos.groebner import (Ideal, buchberger, ideal_equal, ideal_intersect,
                             ideal_member, ideal_power, normal_form,
                             saturation, spolynomial)
from genpos.poly import (DEGREVLEX, LEX, BlockOrder, DegRevLex, Lex,
                         Overflow, Polynomial, monomials_of_degree)
from genpos.scalars import QQ, PrimeField

F11 = PrimeField(11)


def xvars(n, field=QQ):
    return [Polynomial.variable(i, n, field) for i in range(n)]


def test_spolynomial_cancels_leads():
    x, y = xvars(2)
    order = DegRevLex()
    f = x ** 2 + y
    g = x * y + 1
    s = spolynomial(f, g, order)
    # leading terms x^2*y cancel
    assert s == y ** 2 - x


def test_normal_form():
    x, y = xvars(2)
    order = DegRevLex()
    basis = [x ** 2 - y, x * y - 1]
    # x^3 -> x*y -> 1: reduction runs to a fixed point
    assert normal_form(x ** 3, basis, order) == x ** 0
    assert normal_form(x ** 2, basis, order) == y
    assert normal_form(y, basis, order) == y
    assert normal_form(Polynomial.zero(2, QQ), basis, order).is_zero()


def test_twisted_cubic_lex_basis():
    # projection of the monomial curve (s, s^2, s^3)
    x0, x1, x2 = xvars(3)
    ideal = Ideal.of(x0 ** 2 - x1, x0 * x1 - x2)
    gb = ideal.groebner_basis(Lex())
    assert [g.text() for g in gb] == [
        "x1^3 - x2^2",
        "-x1^2 + x0*x2",
        "x0*x1 - x2",
        "x0^2 - x1",
    ]
    assert ideal_member(x1 ** 3 - x2 ** 2, ideal)


def test_reduced_basis_is_generator_order_invariant():
    x, y, z = xvars(3)
    gens = [x ** 2 + y * z, x * y - z ** 2, y ** 3 - x * z]
    base = [g.text() for g in Ideal.of(*gens).groebner_basis()]
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        shuffled = Ideal.of(*[gens[i] for i in perm])
        assert [g.text() for g in shuffled.groebner_basis()] == base


def test_groebner_basis_cached_per_order():
    x, y = xvars(2)
    ideal = Ideal.of(x ** 2 - y)
    a = ideal.groebner_basis()
    assert ideal.groebner_basis() is a
    assert ideal.groebner_basis(Lex()) is not a


def test_ideal_member_and_equal():
    x, y = xvars(2)
    a = Ideal.of(x, y)
    b = Ideal.of(x + y, y)
    assert ideal_member(x ** 3 + y, a)
    assert not ideal_member(x + 1, a)
    assert ideal_equal(a, b)
    assert not ideal_equal(a, Ideal.of(x))


def test_intersection_is_not_product():
    x, y, z = xvars(3)
    left = Ideal.of(x, y)
    right = Ideal.of(x, z)
    both = ideal_intersect(left, right)
    assert sorted(g.text() for g in both.groebner_basis()) == ["x0", "x1*x2"]
    # the product ideal is strictly smaller: x is in the intersection only
    assert ideal_member(x, both)
    prod = Ideal.of(x * x, x * z, y * x, y * z)
    assert not ideal_member(x, prod)


# saturation before it ran one elimination, kept as the oracle: quotients
# (I : f) = (I intersect (f)) / f, iterated until the ideal holds still.

def divide_exact(f, g, order=DEGREVLEX):
    """Quotient of f by g when the division is exact; errors otherwise."""
    q, r = Polynomial.zero(f.nvars, f.field), f
    (lmg, lcg), inv = g.terms_sorted(order)[0], f.field.inv
    while not r.is_zero():
        lm, lc = r.terms_sorted(order)[0]
        if not all(map(le, lmg, lm)):
            raise ValueError("division is not exact")
        t = Polynomial.monomial(tuple(map(sub, lm, lmg)), f.nvars, f.field,
                                lc * inv(lcg))
        q, r = q + t, r - t * g
    return q


def ideal_quotient(ideal, f):
    """(ideal : f) for a single nonzero polynomial f."""
    inter = ideal_intersect(ideal, Ideal(ideal.nvars, ideal.field, [f]))
    return Ideal(ideal.nvars, ideal.field,
                 [divide_exact(g, f) for g in inter.gens])


def iterated_saturation(ideal, f):
    """(ideal : f^infinity) as the first quotient (I : f^k) that equals the
    one before it."""
    cur = ideal
    while not ideal_equal(nxt := ideal_quotient(cur, f), cur):
        cur = nxt
    return cur


def test_quotient_and_saturation():
    x, y = xvars(2)
    ideal = Ideal.of(x ** 2 * y, x * y ** 2)
    quot = ideal_quotient(ideal, x * y)
    assert ideal_equal(quot, Ideal.of(x, y))
    assert ideal_equal(saturation(ideal, x), Ideal.of(y))


@st.composite
def saturation_cases(draw):
    """An ideal of 1-3 generators in 2 or 3 variables, each with a monomial
    factor so that it has components to saturate away, and a polynomial f
    of 1-2 terms, over Q or GF(32003)."""
    field = draw(st.sampled_from([QQ, PrimeField(32003)]))
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n)

    def poly(terms):
        return Polynomial(n, field, {
            draw(exps): field(draw(st.sampled_from([1, -1, 2, 3, -5])))
            for _ in range(terms)})

    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = poly(draw(st.integers(1, 3)))
        gens.append(g * Polynomial.monomial(draw(exps), n, field, field.one))
    f = poly(draw(st.integers(1, 2)))
    return Ideal(n, field, gens), f


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(saturation_cases())
def test_saturation_matches_iterated_quotients(case):
    ideal, f = case
    assert ideal_equal(saturation(ideal, f), iterated_saturation(ideal, f))


# ideal_intersect before it took several ideals, kept as the oracle: the
# tagged generators u*g and (1 - u)*g as products in k[u, x], and the u-free
# part of their block-order basis, with no basis recorded.

def tagged_gens(a, b):
    n, field = a.nvars + 1, a.field
    u = Polynomial.variable(0, n, field)
    one = Polynomial.constant(field.one, n, field)

    def lift(g):
        return Polynomial(n, field, {(0,) + m: c for m, c in g.terms.items()})

    return ([u * lift(g) for g in a.gens]
            + [(one - u) * lift(g) for g in b.gens])


def oracle_intersect(a, b):
    field = a.field
    elim = buchberger(tagged_gens(a, b), BlockOrder(1))
    return Ideal(a.nvars, field, [
        Polynomial(a.nvars, field, {m[1:]: c for m, c in g.terms.items()})
        for g in elim if all(m[0] == 0 for m in g.terms)])


# exponents near 2^14, whose S-polynomials and lcms pass 2^15: an elimination
# outgrows the first packed width, and the whole tree reruns at twice the bits
K14 = (1 << 14) + 3


def logged_eliminations(monkeypatch):
    """A list that gains (bits, whether the result fit) per elimination."""
    log = []
    inner = groebner._Elimination.eliminate

    def logged(self, divisors):
        try:
            got = inner(self, divisors)
        except Overflow:
            log.append((self.packing.bits, False))
            raise
        log.append((self.packing.bits, True))
        return got

    monkeypatch.setattr(groebner._Elimination, "eliminate", logged)
    return log


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                         ids=["Q", "GF32003"])
def test_packed_tree_reruns_wider(field, monkeypatch):
    x0, x1, x2 = xvars(3, field)
    ideals = [Ideal.of(x0 ** K14 - x1), Ideal.of(x1 - x2), Ideal.of(x0 - x2),
              Ideal.of(x0 ** K14 - x2)]
    log = logged_eliminations(monkeypatch)
    got = ideal_intersect(*ideals)
    # both leaves' eliminations fit, the root's does not: all three rerun
    assert log == [(15, True), (15, True), (15, False)] + [(30, True)] * 3
    want = oracle_intersect(oracle_intersect(*ideals[:2]),
                            oracle_intersect(*ideals[2:]))
    assert got.groebner_basis() == buchberger(want.gens)
    assert max(g.degree() for g in got.gens) > 1 << 15
    ideal, f = Ideal.of(x0 * x2 ** K14 - x0 ** K14), x0 ** K14
    del log[:]
    got = saturation(ideal, f)
    assert log == [(15, False), (30, True)]
    assert ideal_equal(got, iterated_saturation(ideal, f))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                         ids=["Q", "GF32003"])
def test_packed_tree_with_zero_and_unit_leaves(field):
    x0, x1, x2 = xvars(3, field)
    zero, unit = Ideal(3, field, []), Ideal.of(x0 ** 0)
    for a in (Ideal.of(x0 * x1, x2 ** 2), Ideal.of(x0 ** K14 - x1)):
        for b in (zero, unit):
            got = ideal_intersect(a, b)
            assert got.groebner_basis() == \
                buchberger(oracle_intersect(a, b).gens)
            assert got.groebner_basis() == (() if b is zero
                                            else a.groebner_basis())
        assert ideal_intersect(a, unit, zero).gens == ()
        assert ideal_equal(ideal_intersect(unit, a, unit), a)
        assert saturation(a, x0 ** 0).groebner_basis() == a.groebner_basis()
    for b in (zero, unit):
        assert ideal_equal(saturation(b, x0), b)
        assert ideal_intersect(b, b).groebner_basis() == b.groebner_basis()


# ideal_equal before it compared reduced bases, kept as the oracle: each
# ideal's generators lie in the other.

def membership_equal(a, b, order=DEGREVLEX):
    return (all(ideal_member(g, b, order) for g in a.gens)
            and all(ideal_member(g, a, order) for g in b.gens))


@st.composite
def ideal_lists(draw, count=st.integers(2, 6)):
    """A list of ideals of one ring, 2 or 3 variables over Q or GF(32003),
    each of 1-2 generators of 1-3 terms of degree <= 2: all homogeneous
    (each generator of one degree 1 or 2) or all drawn from every monomial
    of degree <= 2, the constant too."""
    field = draw(st.sampled_from([QQ, PrimeField(32003)]))
    n = draw(st.integers(2, 3))
    homogeneous = draw(st.booleans())

    def poly():
        if homogeneous:
            monos = monomials_of_degree(n, draw(st.integers(1, 2)))
        else:
            monos = [m for d in range(3) for m in monomials_of_degree(n, d)]
        return Polynomial(n, field, {
            draw(st.sampled_from(monos)):
                field(draw(st.sampled_from([1, -1, 2, 3, -5])))
            for _ in range(draw(st.integers(1, 3)))})

    return [Ideal(n, field, [poly() for _ in range(draw(st.integers(1, 2)))])
            for _ in range(draw(count))]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ideal_lists())
def test_tree_intersection_matches_left_fold(ideals):
    tree = ideal_intersect(*ideals)
    fold = oracle = ideals[0]
    for b in ideals[1:]:
        fold = ideal_intersect(fold, b)
        oracle = oracle_intersect(oracle, b)
    assert tree.groebner_basis() == fold.groebner_basis()
    assert tree.groebner_basis() == buchberger(oracle.gens, DEGREVLEX)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(ideal_lists(), saturation_cases())
def test_eliminations_record_the_reduced_degrevlex_basis(ideals, case):
    """The recorded basis is the one Buchberger computes, and each element's
    terms are in descending degrevlex order, as its seeded sorted view says."""
    for ideal in (ideal_intersect(*ideals), saturation(*case)):
        recorded = ideal._bases[DEGREVLEX]
        assert recorded == buchberger(ideal.gens, DEGREVLEX)
        for g in recorded:
            assert list(g.terms_sorted(DEGREVLEX)) == sorted(
                g.terms.items(), key=lambda t: DEGREVLEX.key(t[0]),
                reverse=True)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ideal_lists(st.just(2)), st.sampled_from([DEGREVLEX, LEX]),
       st.sampled_from(["unrelated", "respelled", "sum"]))
def test_ideal_equal_matches_membership_oracle(pair, order, how):
    """Pairs drawn unrelated, as one ideal and the same ideal respelled (its
    first generator times 3, g0^2 added to the others), or as an ideal and
    its sum with another."""
    a, b = pair
    g0 = a.gens[0]
    if how == "respelled":
        b = Ideal(a.nvars, a.field, [g + g0 * g0 for g in a.gens[1:]]
                  + [g0 * 3])
        assert ideal_equal(a, b, order)
    elif how == "sum":
        b = Ideal(a.nvars, a.field, a.gens + b.gens)
    assert ideal_equal(a, b, order) == membership_equal(a, b, order)
    assert ideal_equal(b, a, order) == ideal_equal(a, b, order)


def test_ideal_intersect_needs_ideals_of_one_ring():
    x, y = xvars(2)
    with pytest.raises(ValueError, match="at least one ideal"):
        ideal_intersect()
    with pytest.raises(ValueError, match="different rings"):
        ideal_intersect(Ideal.of(x), Ideal.of(y), Ideal.of(xvars(3)[0]))
    with pytest.raises(ValueError, match="different rings"):
        ideal_intersect(Ideal.of(x), Ideal.of(xvars(2, F11)[0]))
    one = Ideal.of(x * y)
    assert ideal_intersect(one) is one


def test_ideal_power():
    x, y = xvars(2)
    m = Ideal.of(x, y)
    sq = ideal_power(m, 2)
    assert ideal_equal(sq, Ideal.of(x * x, x * y, y * y))
    assert ideal_equal(ideal_power(m, 1), m)
    unit = ideal_power(m, 0)
    assert ideal_member(x ** 0, unit)
    with pytest.raises(ValueError):
        ideal_power(m, -1)


def test_budget_errors_are_named():
    x, y, z = xvars(3)
    gens = [x ** 3 - y * z ** 2, y ** 3 - x * z ** 2, z ** 3 - x ** 2 * y]
    with pytest.raises(BudgetExceededError, match="pair budget 1 exceeded"):
        buchberger(gens, max_pairs=1)
    with pytest.raises(BudgetExceededError, match="basis budget 3 exceeded"):
        buchberger(gens, max_basis=3)


def test_budget_errors_report_the_counters():
    # pairs popped, basis size and pairs still queued when the budget blew
    x, y, z = xvars(3)
    gens = [x ** 3 - y * z ** 2, y ** 3 - x * z ** 2, z ** 3 - x ** 2 * y]
    with pytest.raises(BudgetExceededError) as err:
        buchberger(gens, max_pairs=1)
    assert str(err.value) == \
        "pair budget 1 exceeded after 2 pops (basis 4, 2 queued)"
    with pytest.raises(BudgetExceededError) as err:
        buchberger(gens, max_basis=3)
    assert str(err.value) == \
        "basis budget 3 exceeded after 1 pops (basis 4, 3 queued)"
    with pytest.raises(BudgetExceededError) as err:
        buchberger(xvars(4), max_basis=2)
    assert str(err.value) == \
        "basis budget 2 exceeded after 0 pops (basis 3, 0 queued)"


def test_input_generators_count_against_the_basis_budget():
    gens = xvars(4)
    with pytest.raises(BudgetExceededError, match="basis budget 2 exceeded"):
        buchberger(gens, max_basis=2)
    assert len(buchberger(gens, max_basis=4)) == 4


def test_spoly_reductions_vanish_seeded():
    # the defining property of a Groebner basis, checked on random ideals
    rng = random.Random(11)
    order = DegRevLex()
    for trial in range(20):
        field = F11 if trial % 2 else QQ
        n = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                m = tuple(rng.randint(0, 2) for _ in range(n))
                c = field.random(rng)
                if c:
                    terms[m] = c
            if terms:
                gens.append(Polynomial(n, field, terms))
        if not gens:
            continue
        gb = buchberger(gens, order)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = spolynomial(gb[i], gb[j], order)
                assert normal_form(s, gb, order).is_zero()


def test_truncated_membership_agrees_with_groebner(truncated_membership):
    rng = random.Random(23)
    for trial in range(20):
        field = F11 if trial % 2 else QQ
        n = rng.randint(2, 3)
        gens = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(n))
                c = field.random(rng)
                if c:
                    terms[m] = c
            if terms:
                gens.append(Polynomial(n, field, terms))
        if not gens:
            continue
        ideal = Ideal(n, field, gens)
        maxdeg = max(g.degree() for g in gens)
        for _ in range(5):
            if rng.random() < 0.5:
                # an honest member: random combination of the generators
                f = Polynomial.zero(n, field)
                for g in gens:
                    m = tuple(rng.randint(0, 1) for _ in range(n))
                    f = f + Polynomial.monomial(m, n, field) * g
            else:
                terms = {tuple(rng.randint(0, 2) for _ in range(n)):
                         field.one}
                f = Polynomial(n, field, terms)
            if f.is_zero():
                continue
            bound = f.degree() + maxdeg + 2
            assert truncated_membership(f, gens, bound) == \
                ideal_member(f, ideal)


def test_truncated_membership_direct(truncated_membership):
    x, y = xvars(2)
    gens = [x ** 2 - y]
    assert truncated_membership(x ** 3 - x * y, gens, 5)
    assert not truncated_membership(x, gens, 5)
