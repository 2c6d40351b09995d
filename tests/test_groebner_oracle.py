"""Property tests: the Groebner engine against scan-based references.

`normal_form` takes each leading term off a heap of order keys; its oracle is
the scan-based version it replaced, `max` over the live terms with
`order.key` on every step. Both use full reduction by the first divisor in
basis order, so remainders must match exactly. Over Q `normal_form` reduces
on integers and the oracle on `Fraction`s, so the remainders must still
agree term for term.

`buchberger` pops pairs from a heap and prunes them with the Gebauer-Moeller
update. `gm_buchberger` is the same strategy written from Becker &
Weispfenning's UPDATE (*Groebner Bases*, 1993, section 5.5) on plain lists,
with `min` over a dict of pairs, so the S-polynomials reduced and their
remainders must match it exactly. The oracles form S-polynomials from
monomial multiples (`old_spolynomial`), apart from the packed `_spair`.
`buchberger` keeps them packed and over Q scaled by positive integers, so
both sides are compared as `reduction`s: terms in descending order, over Q
divided by their positive content.
`old_buchberger` is the chain-criterion loop the update replaced: it reduces
other pairs, but reduced bases are unique, so its bases must match too.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (mono_deg, mono_div, mono_divides, mono_lcm, mono_mul,
                      monic)
from genpos import groebner, poly
from genpos.errors import BudgetExceededError
from genpos.groebner import (BITS, Ideal, buchberger, ideal_intersect,
                             leading_monomials, normal_form, saturation,
                             spolynomial)
from genpos.poly import (DEGREVLEX, LEX, BlockOrder, Overflow, Packing,
                         Polynomial, divisor_of_terms, parse_polynomial)
from genpos.scalars import QQ, PrimeField

FIELDS = [QQ, PrimeField(11), PrimeField(2 ** 31 - 1)]
ORDERS = [DEGREVLEX, LEX, BlockOrder(1)]
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)


def old_normal_form(f, basis, order):
    """Remainder of f under full multivariate division by `basis`."""
    if f.is_zero() or not basis:
        return f
    lm_basis = [(g.leading_monomial(order), g) for g in basis if not g.is_zero()]
    field = f.field
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=order.key)
        lc = work[lm]
        for lmg, g in lm_basis:
            if mono_divides(lmg, lm):
                factor = field(lc * field.inv(g.terms_sorted(order)[0][1]))
                shift = mono_div(lm, lmg)
                for m, c in g.terms.items():
                    mm = mono_mul(m, shift)
                    s = field(work.get(mm, 0) - factor * c)
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return Polynomial(f.nvars, field, remainder)


def old_spolynomial(f, g, order):
    """S-polynomial of f and g as a difference of monomial multiples of the
    monic f and g."""
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    l = mono_lcm(lf, lg)
    return (Polynomial.monomial(mono_div(l, lf), f.nvars, f.field)
            * monic(f, order)
            - Polynomial.monomial(mono_div(l, lg), g.nvars, g.field)
            * monic(g, order))


def old_buchberger(gens, order, log):
    """Scan-based pair selection; appends each (S-polynomial, remainder)."""
    basis = [monic(g, order) for g in gens if not g.is_zero()]
    if not basis:
        return ()
    lms = [g.leading_monomial(order) for g in basis]
    pairs = {}
    seq = 0
    processed = set()

    def push_pairs(j):
        nonlocal seq
        for i in range(j):
            pairs[(i, j)] = (mono_deg(mono_lcm(lms[i], lms[j])), seq)
            seq += 1

    for j in range(len(basis)):
        push_pairs(j)
    while pairs:
        (i, j) = min(pairs, key=lambda k: pairs[k])
        del pairs[(i, j)]
        l = mono_lcm(lms[i], lms[j])
        if l == mono_mul(lms[i], lms[j]):
            processed.add((i, j))
            continue
        if any(k not in (i, j) and mono_divides(lms[k], l)
               and (min(i, k), max(i, k)) in processed
               and (min(j, k), max(j, k)) in processed
               for k in range(len(basis))):
            continue
        sp = old_spolynomial(basis[i], basis[j], order)
        s = old_normal_form(sp, basis, order)
        log.append(reduction(sp.terms, s.terms, sp.field, order))
        processed.add((i, j))
        if s.is_zero():
            continue
        basis.append(monic(s, order))
        lms.append(basis[-1].leading_monomial(order))
        push_pairs(len(basis) - 1)
    keep = [g for i, g in enumerate(basis)
            if not any(j != i and mono_divides(lms[j], lms[i])
                       and (lms[j] != lms[i] or j < i)
                       for j in range(len(basis)))]
    reduced = []
    for i, g in enumerate(keep):
        r = old_normal_form(g, keep[:i] + keep[i + 1:], order)
        if not r.is_zero():
            reduced.append(monic(r, order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return tuple(reduced)


def gm_buchberger(gens, order, log):
    """Becker & Weispfenning's GROEBNERNEW2 with UPDATE: each input, then each
    nonzero remainder, goes through `update`. Pairs are chosen by (lcm degree,
    creation index); appends each (S-polynomial, remainder)."""
    f = []  # every element, in the order it joined
    G = []  # the active indices
    B = {}  # (i, j) -> (lcm degree, creation index)
    seq = 0

    def lm(i):
        return f[i].leading_monomial(order)

    def coprime(a, b):
        return mono_lcm(lm(a), lm(b)) == mono_mul(lm(a), lm(b))

    def update(h):
        nonlocal G, seq
        ih = len(f)
        f.append(h)
        mh = lm(ih)
        C = list(G)
        D = []
        while C:
            g1 = C.pop()  # last first: of equal lcms the earliest survives
            l1 = mono_lcm(mh, lm(g1))
            if coprime(ih, g1) or not any(
                    mono_divides(mono_lcm(mh, lm(g2)), l1) for g2 in C + D):
                D.append(g1)
        E = [g for g in G if g in D and not coprime(ih, g)]  # ascending
        for g1, g2 in list(B):
            l = mono_lcm(lm(g1), lm(g2))
            if (mono_divides(mh, l) and mono_lcm(lm(g1), mh) != l
                    and mono_lcm(lm(g2), mh) != l):
                del B[(g1, g2)]
        for g in E:
            B[(g, ih)] = (mono_deg(mono_lcm(lm(g), mh)), seq)
            seq += 1
        G = [g for g in G if not mono_divides(mh, lm(g))] + [ih]

    for g in gens:
        if not g.is_zero():
            update(monic(g, order))
    while B:
        (i, j) = min(B, key=lambda k: B[k])
        del B[(i, j)]
        sp = old_spolynomial(f[i], f[j], order)
        s = old_normal_form(sp, f, order)
        log.append(reduction(sp.terms, s.terms, sp.field, order))
        if not s.is_zero():
            update(monic(s, order))
    # the active elements form a Groebner basis; reduce it
    minimal = [f[g] for g in G
               if not any(h != g and mono_divides(lm(h), lm(g)) for h in G)]
    reduced = []
    for i, g in enumerate(minimal):
        r = old_normal_form(g, minimal[:i] + minimal[i + 1:], order)
        if not r.is_zero():
            reduced.append(monic(r, order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return tuple(reduced)


def snapshot(*polys):
    """Terms in insertion order, so equal snapshots mean equal construction."""
    return tuple(tuple(p.terms.items()) for p in polys)


def canonical(terms, field, order):
    """Terms descending under `order`; over Q divided by their positive
    content, so that positive multiples compare equal and negatives do not."""
    items = sorted(terms.items(), key=lambda t: order.key(t[0]), reverse=True)
    if field.p is None and items:
        den = lcm(*(Fraction(c).denominator for _, c in items))
        nums = [int(Fraction(c) * den) for _, c in items]
        content = gcd(*nums)
        items = [(m, c // content) for (m, _), c in zip(items, nums)]
    return tuple(items)


def reduction(f, r, field, order):
    """Log entry of one reduction: f and its remainder r, as term dicts."""
    return canonical(f, field, order), canonical(r, field, order)


@st.composite
def polynomial(draw, nvars, field, max_terms, max_exp):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        m = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        num = draw(st.integers(-20, 20))
        den = draw(st.integers(1, 6)) if field.p is None else 1
        terms[m] = field(Fraction(num, den))
    return Polynomial(nvars, field, terms)


@st.composite
def division_case(draw):
    """(f, basis, order): f mixes multiples of the basis, so reductions cancel."""
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from(ORDERS))
    nvars = draw(st.integers(2, 3))
    basis = draw(st.lists(polynomial(nvars, field, 4, 2), min_size=1,
                          max_size=4))
    f = draw(polynomial(nvars, field, 6, 4))
    for g in basis:
        if draw(st.booleans()):
            f = f + draw(polynomial(nvars, field, 2, 2)) * g
    return f, basis, order


@st.composite
def ideal_case(draw):
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from(ORDERS))
    nvars = draw(st.integers(2, 3))
    gens = draw(st.lists(polynomial(nvars, field, 3, 2), min_size=1,
                         max_size=3))
    return gens, order


@PROPERTY
@given(division_case())
def test_normal_form_matches_scan(case):
    f, basis, order = case
    assert snapshot(normal_form(f, basis, order)) == \
        snapshot(old_normal_form(f, basis, order))


@PROPERTY
@given(division_case())
def test_spolynomial_matches_products(case):
    _, basis, order = case
    for f in basis:
        for g in basis:
            if not (f.is_zero() or g.is_zero()):
                assert spolynomial(f, g, order) == \
                    old_spolynomial(f, g, order)


def logged_buchberger(gens, order, run=buchberger, **budgets):
    """`buchberger` (or `run`), with a `reduction` for every call of the
    packed reduction loop: the S-polynomial reductions first, then the
    interreduction of the minimal basis. Also returns the guard masks seen,
    one per width; a call at a new width means the run restarted wider, and
    the log starts over with it."""
    log, guards = [], []
    inner = groebner._reduce
    nvars, field = gens[0].nvars, gens[0].field

    def logged(work, packs, divisors, p, guard):
        if not guards or guard != guards[-1]:
            guards.append(guard)
            log.clear()
        packing = Packing(order, nvars, (guard & -guard).bit_length() - 1)
        f = {packing.unpack(packs[k]): c for k, c in work.items()}
        got = inner(work, packs, divisors, p, guard)
        r = {packing.unpack(packs[k]): c for k, c in got[0].items()}
        log.append(reduction(f, r, field, order))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_reduce", logged)
        got = run(gens, order, **budgets)
    return got, log, guards


@PROPERTY
@given(ideal_case())
def test_buchberger_matches_scan(case):
    gens, order = case
    want_log = []
    want = gm_buchberger(gens, order, want_log)
    got, got_log, _ = logged_buchberger(gens, order)
    # the same S-polynomials reduced in the same order, then the interreduction
    assert got_log[:len(want_log)] == want_log
    assert len(got_log) == len(want_log) + len(got)
    assert snapshot(*got) == snapshot(*want)
    # the chain-criterion loop reduces other pairs but reaches the same basis
    assert snapshot(*got) == snapshot(*old_buchberger(gens, order, []))


def reduced_leads(gens, order):
    return tuple(g.leading_monomial(order) for g in buchberger(gens, order))


@PROPERTY
@given(ideal_case())
def test_leading_monomials_are_the_reduced_basis_leads(case):
    # the same S-polynomials reduced in the same order, and no interreduction
    gens, order = case
    want_log = []
    gm_buchberger(gens, order, want_log)
    got, got_log, _ = logged_buchberger(gens, order, run=leading_monomials)
    assert got_log == want_log
    assert got == reduced_leads(gens, order)


def cyclic(n, field):
    """Generators of the cyclic-n ideal, as the benchmark writes them."""
    texts = [" + ".join("*".join("x%d" % ((i + j) % n) for j in range(k))
                        for i in range(n)) for k in range(1, n)]
    texts.append("*".join("x%d" % i for i in range(n)) + " - 1")
    return [parse_polynomial(t, n, field) for t in texts]


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                         ids=["Q", "GF32003"])
def test_cyclic_reduces_fewer_pairs(n, field):
    gens = cyclic(n, field)
    want_log, old_log = [], []
    want = gm_buchberger(gens, DEGREVLEX, want_log)
    old = old_buchberger(gens, DEGREVLEX, old_log)
    got, got_log, _ = logged_buchberger(gens, DEGREVLEX)
    assert got_log[:len(want_log)] == want_log
    assert len(got_log) == len(want_log) + len(got)
    assert snapshot(*got) == snapshot(*want) == snapshot(*old)
    assert len(got) == {4: 7, 5: 20}[n]
    # S-pair reductions: cyclic-4 12 -> 11, cyclic-5 230 -> 111
    assert len(want_log) == {4: 11, 5: 111}[n]
    assert len(old_log) == {4: 12, 5: 230}[n]


# coefficients over Q built to share factors with one another, so that the
# integer reduction rescales by lcg / gcd(lc, lcg) with both sides nontrivial
SHARED = [1, 2, 3, 4, 6, 9, 12, 36, 1000, 999983, 10 ** 6]


@st.composite
def shared_factor_coefficient(draw):
    num = draw(st.sampled_from(SHARED)) * draw(st.integers(-7, 7).filter(bool))
    den = draw(st.one_of(st.sampled_from(SHARED), st.integers(1, 10 ** 6)))
    return Fraction(num, den)


@st.composite
def rational_polynomial(draw, nvars, max_terms, max_exp):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        m = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[m] = draw(shared_factor_coefficient())
    return Polynomial(nvars, QQ, terms)


@st.composite
def rational_division_case(draw):
    """(f, basis, order) over Q: one-element bases half the time, leads of
    either sign, denominators up to 10^6."""
    order = draw(st.sampled_from(ORDERS))
    nvars = draw(st.integers(1, 3))
    size = draw(st.sampled_from([1, 1, 2, 3]))
    basis = [draw(rational_polynomial(nvars, 4, 3)) for _ in range(size)]
    f = draw(rational_polynomial(nvars, 5, 4))
    for g in basis:
        f = f + draw(rational_polynomial(nvars, 3, 2)) * g
    return f, basis, order


@PROPERTY
@given(rational_division_case())
def test_rational_normal_form_matches_scan(case):
    f, basis, order = case
    assert snapshot(normal_form(f, basis, order)) == \
        snapshot(old_normal_form(f, basis, order))


@PROPERTY
@given(division_case())
def test_divisor_cache_is_per_order(case):
    # the same f and basis objects, reduced under every order in turn
    f, basis, _ = case
    for order in ORDERS + ORDERS[::-1]:
        assert snapshot(normal_form(f, basis, order)) == \
            snapshot(old_normal_form(f, basis, order)), order


@st.composite
def divisor_case(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    if field.p is None and draw(st.booleans()):
        g = draw(rational_polynomial(nvars, 5, 3))
    else:
        g = draw(polynomial(nvars, field, 5, 3))
    assume(not g.is_zero())
    return g, draw(st.sampled_from(ORDERS))


@PROPERTY
@given(divisor_case())
def test_divisor_is_primitive_or_monic(case):
    g, order = case
    field = g.field
    packing = Packing(order, g.nvars, BITS)
    (lm, lc), *tail = g.terms_sorted(order)
    got_e, got_k, got_lc, got_tail = g.divisor(order, BITS)
    assert (got_e, got_k) == packing.pack(lm)
    assert [(e, k) for e, k, _ in got_tail] == \
        [packing.pack(m) for m, _ in tail]
    if field.p:
        inv = field.inv(lc)
        assert got_lc == 1
        assert [c for _, _, c in got_tail] == \
            [c * inv % field.p for _, c in tail]
        return
    # the primitive integer multiple of g with a positive lead
    coeffs = [got_lc] + [c for _, _, c in got_tail]
    assert got_lc > 0
    assert all(type(c) is int for c in coeffs)
    assert gcd(*coeffs) == 1
    k = Fraction(got_lc) / lc
    assert [Fraction(c) for c in coeffs] == [lc * k] + [c * k for _, c in tail]


# exponents at the edge of the packed field width and past it: x0 - x1^k
# turns x0^a into powers of x1 up to a*k, so reductions under lex and
# BlockOrder(1) raise exponents through 2^BITS; k = 2^29 also needs wider
# fields for the input alone and then once more during the reduction
TOP = (1 << BITS) - 1
EDGES = [1, TOP // 3, TOP // 2, TOP, TOP + 1, 2 * TOP, 1 << 29]


@st.composite
def widening_case(draw):
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from([LEX, BlockOrder(1)]))
    x0, x1, x2 = (Polynomial.variable(i, 3, field) for i in range(3))
    k = draw(st.sampled_from(EDGES))
    c = draw(st.integers(1, 5))
    basis = [x0 - x1 ** k - c * x2]
    if draw(st.booleans()):  # a few steps each: x1^j with j >= k / 4
        j = draw(st.sampled_from([e for e in EDGES if 4 * e >= k]))
        basis.append(x1 ** j - x2)
    f = x0 ** draw(st.integers(1, 3)) * x2 + c * x0 + draw(st.integers(-3, 3))
    return f, basis, order


@PROPERTY
@given(widening_case())
def test_degree_raising_reductions_widen_the_fields(case):
    f, basis, order = case
    assert snapshot(normal_form(f, basis, order)) == \
        snapshot(old_normal_form(f, basis, order))


@pytest.mark.parametrize("order", [LEX, BlockOrder(1)], ids=repr)
@pytest.mark.parametrize("k", [TOP // 3, TOP, 1 << 29])
def test_cube_of_x0_reduces_past_the_field_width(order, k):
    x0, x1 = (Polynomial.variable(i, 2, QQ) for i in range(2))
    r = normal_form(x0 ** 3, [x0 - x1 ** k], order)
    assert r == x1 ** (3 * k)
    assert snapshot(r) == snapshot(old_normal_form(x0 ** 3, [x0 - x1 ** k],
                                                   order))


@pytest.mark.parametrize("k", [TOP, 1 << 29])
def test_buchberger_past_the_field_width_matches_scan(k):
    x0, x1, x2 = (Polynomial.variable(i, 3, QQ) for i in range(3))
    gens = [x0 - x1 ** k, x0 ** 2 - x2]
    want_log = []
    want = gm_buchberger(gens, LEX, want_log)
    got, got_log, guards = logged_buchberger(gens, LEX)
    assert len(guards) > 1  # x1^(2k) outgrows the first width that fits
    assert got_log[:len(want_log)] == want_log
    assert len(got_log) == len(want_log) + len(got)
    assert snapshot(*got) == snapshot(*want)
    assert {g.leading_monomial(LEX) for g in got} == {(1, 0, 0), (0, 2 * k, 0)}


@pytest.mark.parametrize("k", [TOP, 1 << 29])
def test_pair_budget_counts_one_run_across_the_restart(k):
    # the widened run pops the same pairs from the start, so the budget the
    # run needs is the number of pairs gm_buchberger pops, restart or not
    x0, x1, x2 = (Polynomial.variable(i, 3, QQ) for i in range(3))
    gens = [x0 - x1 ** k, x0 ** 2 - x2]
    want_log = []
    want = gm_buchberger(gens, LEX, want_log)
    pops = len(want_log)
    got, _, guards = logged_buchberger(gens, LEX, max_pairs=pops)
    assert len(guards) > 1
    assert snapshot(*got) == snapshot(*want)
    with pytest.raises(BudgetExceededError,
                       match="pair budget %d exceeded after %d pops"
                       % (pops - 1, pops)):
        buchberger(gens, LEX, max_pairs=pops - 1)


@pytest.mark.parametrize("k", [TOP, 1 << 29])
def test_leading_monomials_past_the_field_width(k, monkeypatch):
    x0, x1, x2 = (Polynomial.variable(i, 3, QQ) for i in range(3))
    gens = [x0 - x1 ** k, x0 ** 2 - x2]
    want_log = []
    gm_buchberger(gens, LEX, want_log)
    got, got_log, guards = logged_buchberger(gens, LEX,
                                             run=leading_monomials)
    assert len(guards) > 1
    assert got_log == want_log
    assert got == ((0, 2 * k, 0), (1, 0, 0))
    with pytest.raises(BudgetExceededError,
                       match="pair budget %d exceeded after %d pops"
                       % (len(want_log) - 1, len(want_log))):
        monkeypatch.setattr(groebner, "DEFAULT_MAX_PAIRS", len(want_log) - 1)
        leading_monomials(gens, LEX)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_a_term_too_wide_raises_overflow_and_caches_nothing(field, order,
                                                             monkeypatch):
    x0, x1 = (Polynomial.variable(i, 2, field) for i in range(2))
    g = x0 * x1 + x0 ** (TOP + 1)
    with pytest.raises(Overflow):
        divisor_of_terms(g.terms_sorted(order), Packing(order, 2, BITS),
                         field.p)
    calls = []

    def counted(terms, packing, p):
        calls.append(packing.bits)
        return divisor_of_terms(terms, packing, p)

    monkeypatch.setattr(poly, "divisor_of_terms", counted)
    for _ in range(2):
        with pytest.raises(Overflow):
            g.divisor(order, BITS)
        wide = g.divisor(order, 2 * BITS)
    # the narrow width packs again on every call, the wide one once
    assert calls == [BITS, 2 * BITS, BITS]
    assert wide == divisor_of_terms(g.terms_sorted(order),
                                    Packing(order, 2, 2 * BITS), field.p)


# an exponent unit per variable in [2^BITS - 3, 2^(BITS + 1)], and each
# term's exponents 0, 1 or 2 units, so the runs are those of small-degree
# polynomials in the units. In half the cases the units and the multiples
# fit BITS bits, so only the S-polynomials and reductions cross 2^BITS; in
# the others the inputs already do.
@st.composite
def wide_case(draw):
    field = draw(st.sampled_from([QQ, PrimeField(32003)]))
    order = draw(st.sampled_from([LEX, BlockOrder(split=1), DEGREVLEX]))
    fits = draw(st.booleans())
    units = draw(st.lists(st.integers((1 << BITS) - 3,
                                      TOP if fits else 1 << BITS + 1),
                          min_size=2, max_size=3))

    def polynomial():  # two terms
        multiples = st.tuples(*[st.integers(0, 2 - fits)] * len(units))
        return Polynomial(len(units), field, {
            tuple(map(mul, m, units)): draw(st.integers(-3, 3).filter(bool))
            for m in draw(st.lists(multiples, min_size=2, max_size=2,
                                   unique=True))})

    gens = [polynomial() for _ in range(draw(st.integers(1, 3)))]
    return gens, polynomial(), polynomial(), order


def wide_calls(gens, f, h, order):
    """Every entry point of the packed engine on one case, each result as
    the snapshot of its polynomials; f * h may not fit where gens do."""
    return (snapshot(*buchberger(gens, order)),
            leading_monomials(gens, order),
            snapshot(normal_form(f, gens, order)),
            snapshot(normal_form(f * h, gens, order)),
            snapshot(spolynomial(f, h, order)),
            snapshot(*ideal_intersect(Ideal.of(gens),
                                      Ideal.of(f)).groebner_basis()),
            snapshot(*saturation(Ideal.of(gens), h).groebner_basis()))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(wide_case())
def test_widened_runs_match_one_attempt_at_64_bits(case):
    """No Overflow escapes a call that widens, and each result is the one a
    single attempt at 64 bits per exponent gives."""
    got = wide_calls(*case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "BITS", 64)
        assert got == wide_calls(*case)
