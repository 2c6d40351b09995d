from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import gcd

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from conftest import (ReferenceEchelon, mono_deg, mono_divides,
                      monomials_up_to)
from genpos.errors import StabilizationError
from genpos.fixtures import (germ_branch_curve, germ_components,
                             germ_membership_query, tangent_point_set,
                             unity_field)
from genpos.groebner import Ideal, buchberger
from genpos.linalg import IntegerEchelon, SparseEchelon, to_integer_vec
from genpos.points import binom, hilbert_function
from genpos.poly import (DEGREVLEX, BlockOrder, Polynomial,
                         monomials_of_degree, parse_polynomial)
from genpos.scalars import QQ, PrimeField
from genpos.tangent_cone import (Branch, BranchCurve, ConeProfile,
                                 GermRing, _coefficients, _digits, _exact,
                                 _least_n,
                                 _lowest_form_leads, _power_products,
                                 branch_tangent_points, cone_profile,
                                 germ_profile, lowest_form_ideal,
                                 standard_counts, subalgebra_member)

F11 = PrimeField(11)


def echelon_for(field):
    """An empty echelon over `field` and the map of a coefficient dict to its
    row: over Q a primitive integer dict, for IntegerEchelon."""
    if field == QQ:
        return IntegerEchelon(), to_integer_vec
    return SparseEchelon(field), (lambda v: v)


# The plateau rule both truncated oracles below stop on: the values must end
# in at least three equal ones, and the first of those is the reading.

def _stabilized(values, context):
    d0 = len(values) - 1
    while d0 > 0 and values[d0 - 1] == values[-1]:
        d0 -= 1
    if len(values) - d0 < 3:
        raise StabilizationError(
            "%s did not stabilize within the bound (values %s); raise the bound"
            % (context, list(values)))
    return d0


# The truncated route `lowest_form_ideal` and `cone_profile` took before they
# read the lowest forms of a Lazard standard basis, kept as the oracle: it
# row-reduces every multiple m*g of a degrevlex basis up to a degree bound.

@dataclass(frozen=True)
class TruncatedGradedIdeal:
    """Degreewise slices of an ideal of initial forms, valid up to `bound`."""

    nvars: int
    field: object
    bound: int
    slices: dict  # degree -> tuple of homogeneous Polynomials, echelonized

    def slice_dim(self, d):
        return len(self.slices.get(d, ()))


def truncated_lowest_form_ideal(ideal, bound):
    """Ideal of initial forms of `ideal` at the origin, degreewise to `bound`.

    Works modulo terms of degree > bound: a degree-compatible basis spans the
    ideal in each total degree, so the truncations of the multiples m*g with
    deg(m) + lowdeg(g) <= bound span the ideal's image mod that power of the
    maximal ideal, and truncation never touches a lowest form of degree
    <= bound. Echelonizing over columns sorted by ascending degree then makes
    slice d exactly the degree-d parts of the pivot rows leading in degree d.
    """
    gb = ideal.groebner_basis(DEGREVLEX)
    monos = monomials_up_to(ideal.nvars, bound)
    index = {m: i for i, m in enumerate(monos)}
    ech = ReferenceEchelon(ideal.field)
    for g in gb:
        low = g.low_degree()
        if low > bound:
            continue
        for m in monomials_up_to(ideal.nvars, bound - low):
            row = {}
            for mg, c in g.terms.items():
                mm = tuple(a + b for a, b in zip(m, mg))
                if mono_deg(mm) <= bound:
                    row[index[mm]] = c
            ech.insert(row)
    slices = {}
    for lead in sorted(ech.pivots):
        row = ech.pivots[lead]
        d = mono_deg(monos[lead])
        terms = {monos[c]: v for c, v in row.items() if mono_deg(monos[c]) == d}
        form = Polynomial(ideal.nvars, ideal.field, terms)
        slices.setdefault(d, []).append(form)
    return TruncatedGradedIdeal(ideal.nvars, ideal.field, bound,
                                {d: tuple(fs) for d, fs in slices.items()})


def truncated_cone_profile(truncated):
    """H(d) = C(d + n - 1, n - 1) - dim slice_d, with stabilization detection."""
    n = truncated.nvars
    values = tuple(binom(d + n - 1, n - 1) - truncated.slice_dim(d)
                   for d in range(truncated.bound + 1))
    d0 = _stabilized(values, "cone profile")
    return ConeProfile(values=values, stabilization_degree=d0,
                       multiplicity=values[-1],
                       emdim=values[1] if len(values) > 1 else 0)


# GermRing's t-basis rows before they moved to g-adic columns, kept as the
# oracle: a row is a dict exponent -> coefficient (integers mod p, or over Q
# a primitive integer row), and a product is reduced modulo the dense g^K.

def t_coefficients(poly):
    return {e[0]: c for e, c in poly.terms.items()}


def t_mul(a, b, p):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    if p is None:
        return {e: c for e, c in out.items() if c}
    return {e: r for e, c in out.items() if (r := c % p)}


def t_remainder(row, modulus, p):
    """`row` modulo the monic polynomial `modulus`, both dicts exponent ->
    coefficient; over Q as a primitive integer row, which spans the same
    line as the rational remainder."""
    top = max(modulus)
    row = dict(row)
    while (d := max(row, default=-1)) >= top:
        f = row.pop(d)
        for k, v in modulus.items():
            if k < top:
                row[k + d - top] = row.get(k + d - top, 0) - f * v
    if p is None:
        return to_integer_vec(row)
    return {k: r for k, v in row.items() if (r := v % p)}


def t_power_products(rows, p, cap, modulus):
    """Power products of the t-basis rows with at most `cap` factors, the
    empty one included, as (factor count, row) pairs, most factors first,
    each reduced modulo `modulus`."""
    out = []
    stack = [(0, 0, {0: 1})]
    while stack:
        first, count, cur = stack.pop()
        out.append((count, cur))
        if count < cap:
            for i in range(first, len(rows)):
                stack.append((i, count + 1, t_remainder(
                    t_mul(cur, rows[i], p), modulus, p)))
    out.sort(key=lambda product: product[0])
    return out[::-1]


def g_power(ring, n):
    """g^n as a t-basis dict."""
    g = {k: c for k, c in enumerate(ring.g) if c}
    out = {0: 1}
    for _ in range(n):
        out = t_mul(out, g, ring.field.p)
    return out


# subalgebra_member before it read the exact local level, kept as the oracle
# with its product walker: membership in the span of the power products of
# at least n factors and polynomial degree <= bound, one fresh level-0
# echelon per threshold. A yes exhibits q in m^n; a no says nothing.

def member_power_products(rows, p, cap, low=-1, memo=None):
    """Power products of the generators with polynomial degree in (low, cap],
    each once, as (degree, factor count, row) triples in order of degree."""
    memo = {} if memo is None else memo
    out = []
    stack = [((), {0: 1}, 0)]
    while stack:
        key, cur, deg = stack.pop()
        if deg > low:
            out.append((deg, len(key), cur))
        for i in range(key[-1] if key else 0, len(rows)):
            row, d = rows[i]
            if deg + d <= cap:
                child = key + (i,)
                prod = memo.get(child)
                if prod is None:
                    prod = memo[child] = t_mul(cur, row, p)
                stack.append((child, prod, deg + d))
    out.sort(key=lambda product: product[0])
    return out


# germ_profile before it read H exactly modulo a power of the components'
# gcd, kept as the oracle: it grows a degree window until the profile holds
# still for three windows. Each window's power products are the last one's
# and those of the degrees it adds, so a window's echelon takes the last
# echelon's pivot rows and the added products, level by level from the top:
# the pivots of level >= n span the last window's products of >= n factors.

def rebuild_germ_values(buckets, field, max_degree):
    """The profile of one window and its echelon, from its rows by level."""
    top = max(buckets)
    ech, _ = echelon_for(field)
    # levels the window cannot reach span nothing yet
    dims = {n: 0 for n in range(top + 1, max_degree + 2)}
    # the pivots hold every column from `full` to the last one any row has,
    # so a row with no column below `full` lies in their span: skip it
    full = max(max(row) for rows in buckets.values() for row in rows) + 1
    for level in range(top, 0, -1):
        for row in buckets.get(level, ()):
            if min(row) < full and ech.insert(row, level):
                while full - 1 in ech.pivots:
                    full -= 1
        dims[level] = ech.rank
    return tuple([1] + [dims[n] - dims[n + 1]
                        for n in range(1, max_degree + 1)]), ech


def rebuild_germ_profile(gens, max_degree=6, degree_cap=None, grow_steps=8):
    """Graded dimensions dim m^n / m^(n+1) of the subalgebra generated by
    `gens`, where m is the ideal the generators span in it.

    m^n is the field-span of the power products with at least n factors, so
    each H(n) is a difference of ranks of nested degree-windowed spans. The
    window grows until the whole profile holds still for three consecutive
    windows; drifting values raise StabilizationError rather than being
    reported. Over Q the products are primitive integer rows, which span
    the rational ones' lines (Gauss's lemma).
    """
    field = gens[0].field
    _, conv = echelon_for(field)
    rows = [(conv({e[0]: c for e, c in g.terms.items()}), g.degree())
            for g in gens]
    maxdeg = max(d for _, d in rows)
    cap = degree_cap or maxdeg * (max_degree + 3)
    memo, low, ech = {}, -1, None
    history = []
    for _ in range(grow_steps):
        buckets = {}
        if ech is not None:
            for c, row in ech.pivots.items():
                buckets.setdefault(ech.levels[c], []).append(row)
        for _, count, row in member_power_products(rows, field.p, cap, low,
                                                   memo):
            buckets.setdefault(count, []).append(row)
        values, ech = rebuild_germ_values(buckets, field, max_degree)
        history.append(values)
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            d0 = _stabilized(values, "germ profile")
            return ConeProfile(values=values, stabilization_degree=d0,
                               multiplicity=values[-1], emdim=values[1])
        low, cap = cap, cap + maxdeg
    raise StabilizationError(
        "germ profile kept drifting as the degree window grew: %s"
        % [list(v) for v in history])


def member_oracle(p, gens, bound, min_degree=1):
    """Whether p lies in the span of the power products of the generators that
    use at least min_degree factors and have polynomial degree <= bound."""
    if p.degree() > bound:
        raise ValueError("degree window %d smaller than deg p = %d"
                         % (bound, p.degree()))
    ech, conv = echelon_for(p.field)
    rows = [(conv({e[0]: c for e, c in g.terms.items()}), g.degree())
            for g in gens]
    for _, count, row in member_power_products(rows, p.field.p, bound):
        if count >= min_degree:
            ech.insert(row)
    query = conv({e[0]: c for e, c in p.terms.items()})
    return ech.contains(query)


def tvar(field=QQ):
    return Polynomial.variable(0, 1, field)


def xyvars():
    return [Polynomial.variable(i, 2, QQ) for i in range(2)]


def test_branch_validation():
    t = tvar()
    with pytest.raises(ValueError, match="vanish at the origin"):
        Branch((t + 1, t))  # constant term
    with pytest.raises(ValueError, match="all components zero"):
        Branch((Polynomial.zero(1, QQ), Polynomial.zero(1, QQ)))
    x, y = xyvars()
    with pytest.raises(ValueError, match="univariate"):
        Branch(components=(x, y))
    b = Branch((t, t ** 2))
    assert b.order == 1
    assert b.tangent_vector() == (QQ(1), QQ(0))
    assert Branch((t ** 2, t ** 3)).order == 2


def test_branch_tangent_points():
    t = tvar()
    curve = BranchCurve(1, QQ, (Branch((t, t ** 2)), Branch((t, t))))
    X = branch_tangent_points(curve)
    assert X.points == ((QQ(1), QQ(0)), (QQ(1), QQ(1)))

    singular = BranchCurve(1, QQ, (Branch((t ** 2, t ** 3)),))
    with pytest.raises(ValueError, match="order 2"):
        branch_tangent_points(singular)

    doubled = BranchCurve(1, QQ, (Branch((t, t ** 2)), Branch((t, t ** 3))))
    with pytest.raises(ValueError, match="coincident"):
        branch_tangent_points(doubled)


def test_germ_curve_tangents_match_fixture_points():
    curve = germ_branch_curve()
    X = branch_tangent_points(curve)
    assert set(X.points) == set(tangent_point_set().points)
    assert len(curve.branches) == 6


def test_lowest_form_ideal_cusp():
    x, y = xyvars()
    assert [f.text() for f in lowest_form_ideal(Ideal.of(y ** 2 - x ** 3))] \
        == ["x1^2"]
    tr = truncated_lowest_form_ideal(Ideal.of(y ** 2 - x ** 3), 6)
    assert [f.text() for f in tr.slices[2]] == ["x1^2"]
    assert tr.slice_dim(0) == 0 and tr.slice_dim(1) == 0
    assert tr.slice_dim(3) == 2  # x0*x1^2 and x1^3


def test_lowest_form_ideal_hidden_low_form():
    # x*(y^2 - x^5) - y*(x*y) = -x^6: the degree-6 slice must pick it up
    x, y = xyvars()
    forms = lowest_form_ideal(Ideal.of(x * y, y ** 2 - x ** 5))
    assert [f.text() for f in forms] == ["x0*x1", "x1^2", "x0^6"]
    tr = truncated_lowest_form_ideal(Ideal.of(x * y, y ** 2 - x ** 5), 6)
    assert [f.text() for f in tr.slices[2]] == ["x0*x1", "x1^2"]
    texts = [f.text() for f in tr.slices[6]]
    assert "x0^6" in texts


def oracle_profile(ideal, bound=8):
    return truncated_cone_profile(truncated_lowest_form_ideal(ideal, bound))


def test_cone_profile_principal_and_cusp():
    x, y = xyvars()
    for profile in (oracle_profile, cone_profile):
        smooth = profile(Ideal.of(x))
        assert smooth.values == (1,) * 9
        assert smooth.multiplicity == 1

        cusp = profile(Ideal.of(y ** 2 - x ** 3))
        assert cusp.values == (1, 2, 2, 2, 2, 2, 2, 2, 2)
        assert cusp.multiplicity == 2
        assert cusp.emdim == 2
        assert cusp.stabilization_degree == 1
        assert cusp.as_dict()["multiplicity"] == 2
        with pytest.raises(AttributeError):
            cusp.multiplicity = 3


def test_cone_profile_needs_stable_tail():
    x, y = xyvars()
    cusp = Ideal.of(y ** 2 - x ** 3)
    with pytest.raises(StabilizationError):
        oracle_profile(cusp, 2)
    # the values run to the first of 8, 16, 32, ... at least s + 2: the
    # cusp stops at 8, y^8 - x^9 at 16, y^20 - x^21 at 32, y^40 - x^41 at 64
    assert cone_profile(cusp).values == (1,) + (2,) * 8
    for a, top in ((8, 16), (20, 32), (40, 64)):
        prof = cone_profile(Ideal.of(y ** a - x ** (a + 1)))
        assert prof.values == tuple(range(1, a + 1)) + (a,) * (top + 1 - a)
        assert prof.stabilization_degree == a - 1
        assert prof.multiplicity == a


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_standard_counts_match_monomial_scan(data):
    # the closure under x_i * m against the scan of every degree-d monomial
    n = data.draw(st.integers(1, 4))
    leads = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                               max_size=6))
    counts = standard_counts(leads, n)
    for d in range(13):
        scan = sum(not any(all(a <= b for a, b in zip(lead, m))
                           for lead in leads)
                   for m in monomials_of_degree(n, d))
        assert next(counts) == scan, d


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cone_profile_stop_matches_standard_counts_to_degree_40(data):
    # a monomial ideal is its own lowest-form ideal. Its H, counted through
    # degree 40, far past every stop cone_profile can take here (leads of
    # degree <= 16), decides the outcome: still moving near degree 40 means
    # no curve and ending at 0 is a point; otherwise the profile runs to the
    # first of 8, 16, 32 at least the true stabilization degree + 2
    n = data.draw(st.integers(1, 4))
    exps = st.integers(0, 4)
    leads = data.draw(st.lists(st.tuples(*[exps] * n).filter(any),
                               min_size=1, max_size=4))
    for i, j in combinations(range(n), 2):
        if data.draw(st.integers(0, 5)):  # most pairs get a lead of their own
            lead = [0] * n
            lead[i], lead[j] = data.draw(st.tuples(exps, exps).filter(any))
            leads.append(tuple(lead))
    ideal = Ideal(n, QQ, [Polynomial(n, QQ, {m: 1}) for m in leads])
    counts = list(islice(standard_counts(leads, n), 41))
    s = next(d for d in range(41) if len(set(counts[d:])) == 1)
    if s > 30:
        assert all(h > d for d, h in enumerate(counts))
        with pytest.raises(ValueError, match="no lead in"):
            cone_profile(ideal)
        return
    if not counts[40]:
        with pytest.raises(ValueError, match="H\\(d\\) = 0 from degree %d on"
                                             % s):
            cone_profile(ideal)
        return
    top = next(b for b in (8, 16, 32) if b >= s + 2)
    profile = cone_profile(ideal)
    assert profile.values == tuple(counts[:top + 1])
    assert profile.stabilization_degree == s
    assert profile.multiplicity == counts[40]


def test_cone_matches_point_hilbert_function():
    # a cone over points has the graded dimensions of the point set
    from genpos.points import PointSet
    x, y, z = [Polynomial.variable(i, 3, QQ) for i in range(3)]
    X = PointSet.of(2, QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    u, v = xyvars()
    p = u * v * (u + v) * (u - v)
    Y = PointSet.of(1, QQ, [[1, 0], [0, 1], [1, -1], [1, 1]])
    for profile in (oracle_profile, cone_profile):
        prof = profile(Ideal.of(x * y, x * z, y * z))
        assert prof.values == tuple(hilbert_function(X, d) for d in range(9))
        prof = profile(Ideal.of(p))
        assert prof.values == tuple(hilbert_function(Y, d) for d in range(9))


def test_cone_profile_presentation_independent():
    # unit factors at the origin do not change the germ
    x, y = xyvars()
    g = y ** 2 - x ** 3
    for profile in (oracle_profile, cone_profile):
        a = profile(Ideal.of(g))
        b = profile(Ideal.of(g * (1 + x), g * (1 + g)))
        assert a == b


def test_subalgebra_member_cusp():
    # m^n = t^(2n) k[[t]]: the conductor of <2, 3> is 2
    t = tvar()
    gens = (t ** 2, t ** 3)
    assert subalgebra_member(t ** 2, gens) == 1
    assert subalgebra_member(t ** 7, gens) == 3
    assert subalgebra_member(t ** 12 + t ** 13, gens) == 6
    assert subalgebra_member(t, gens) == 0
    assert subalgebra_member(t + 1, gens) == 0
    with pytest.raises(ValueError, match="nonzero polynomial in t"):
        subalgebra_member(Polynomial.zero(1, QQ), gens)


def test_subalgebra_member_validates_gens():
    t = tvar()
    with pytest.raises(ValueError):
        subalgebra_member(t, ())
    with pytest.raises(ValueError):
        subalgebra_member(t, (t + 1,))
    x, y = xyvars()
    with pytest.raises(ValueError):
        subalgebra_member(t, (x,))
    with pytest.raises(ValueError, match="nonzero polynomial in t"):
        subalgebra_member(x, (t ** 2, t ** 3))


def test_germ_membership_query_frozen():
    query, min_factors = germ_membership_query()
    assert query.text(names=("t",)) == "t^22 + 8*t^17 + 3*t^12 + 10*t^7"
    gens = germ_components(unity_field())
    # inside the square of the maximal ideal, outside the cube
    assert subalgebra_member(query, gens) == 2 < min_factors


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_subalgebra_member_is_local(field):
    # (t^2 + t^3, t^5) has value semigroup <2, 5> with conductor 4: t^4 lies
    # in m, and t^9 in m^3, where a degree-windowed span of products (the
    # member_oracle) puts both at level 0
    t = tvar(field)
    gens = (t ** 2 + t ** 3, t ** 5)
    assert subalgebra_member(t ** 4, gens) == 1
    assert subalgebra_member(t ** 9, gens) == 3
    # (t^2, t^3) reads t^41 at level 20, far above the profile's last level
    gens = (t ** 2, t ** 3)
    ring = GermRing(gens, t ** 41)
    assert ring.L == 20 > ring.e
    assert subalgebra_member(t ** 41, gens, ring) == 20
    assert germ_profile(gens, ring) == germ_profile(gens)
    with pytest.raises(ValueError, match="reads levels <= 20, not 21"):
        subalgebra_member(t ** 42, gens, ring)


def test_germ_report_builds_one_echelon(monkeypatch):
    # the profile and the query's level read the same echelon
    from genpos import cli, tangent_cone

    calls = []

    def counted(*args):
        calls.append(args)
        return power_products(*args)

    power_products = tangent_cone._power_products
    monkeypatch.setattr(tangent_cone, "_power_products", counted)
    profile, mem = cli.germ_report({
        "field": "Q", "parametrization": ["t^2", "t^3"],
        "membership": {"query": "t^41", "min_factors": 20}})
    # the span modulo g^2 (products of at most one factor) already holds
    # g R, so N = 1, and the one more build is at K = N + L = 1 + 20
    assert [cap for _, _, cap, _ in calls] == [1, 20]
    assert profile.values == (1, 2, 2, 2, 2, 2, 2)
    assert mem["member"] and mem["member_at_min_factors_1"]


@pytest.mark.parametrize("texts, query", [
    (["t^2", "t^3"], "t^41"),
    # g = t(t - 1), so the digits come from long divisions by g
    (["t^2 - t", "t^3 - t^2"], "t^9 - 2*t^8 + t^7 + t^3 - t^2"),
])
def test_germ_report_digitizes_the_query_once(monkeypatch, texts, query):
    # GermRing reads L off the query's order, and subalgebra_member its
    # order and its row: all three from one set of digits
    from genpos import cli, tangent_cone

    calls = []

    def counted(q, g):
        calls.append(q)
        return digits(q, g)

    digits = tangent_cone._digits
    monkeypatch.setattr(tangent_cone, "_digits", counted)
    _, mem = cli.germ_report({"field": "Q", "parametrization": texts,
                              "membership": {"query": query}})
    assert mem["member"]
    q = parse_polynomial(query, 1, QQ, names=("t",))
    assert calls.count(q) == 1


@pytest.mark.parametrize("texts, caps", [
    # L = e = 2: N = 1 found at K = 2, then K = N + L = 3
    (["t^2", "t^3"], [1, 2]),
    # L = 3: N = 2 found at K = L + 1 = 4, where the level-3 span already
    # holds the last digit g^3 k[t] / g^4, so that build is exact
    (["t^3", "t^4"], [1, 3]),
    # L = 3: N = 8 found at K = 16 >= N + L = 11: that build is kept
    (["t^3", "t^13"], [1, 3, 7, 15]),
    # L = 2: N = 5 found at K = 6 < N + L = 7: one more build
    (["t^2", "t^11"], [1, 2, 5, 6]),
    # L = 5: no search pass between (L + 1)/2 and L + 1 = 6; N = 5 found
    # at K = 6, then K = 10
    (["t^5", "t^7"], [1, 5, 9]),
])
def test_germ_ring_passes(monkeypatch, texts, caps):
    ring, built = germ_ring_builds(monkeypatch, texts)
    assert ring.echelon[1] == caps[-1] + 1
    assert built == caps


def test_germ_ring_passes_for_a_high_order_query(monkeypatch):
    # L = b = 20 for q = t^60 = g^20: N = 2 found at K = 4, then one build
    # at K = N + L = 22, not a doubling past it
    q = tvar() ** 60
    ring, built = germ_ring_builds(monkeypatch, ["t^3", "t^4"], q)
    assert ring.echelon[1] == 22
    assert built == [1, 3, 21]
    assert subalgebra_member(q, ring.gens, ring) == 20


def germ_ring_builds(monkeypatch, texts, query=None):
    """A GermRing of the components `texts` over Q built for the polynomial
    `query`, and the cap of each power-product pass its echelon build made."""
    from genpos import tangent_cone

    calls = []

    def counted(*args):
        calls.append(args)
        return power_products(*args)

    power_products = tangent_cone._power_products
    monkeypatch.setattr(tangent_cone, "_power_products", counted)
    gens = [parse_polynomial(s, 1, QQ, names=("t",)) for s in texts]
    ring = GermRing(gens, query)
    ring.echelon
    return ring, [cap for _, _, cap, _ in calls]


def test_germ_profile_frozen():
    for field in (QQ, unity_field()):
        prof = germ_profile(germ_components(field))
        assert prof.values == (1, 3, 5, 5, 6, 6, 6)
        assert prof.multiplicity == 6
        assert prof.emdim == 3
        assert prof.stabilization_degree == 4


def test_germ_profile_cusp():
    t = tvar()
    prof = germ_profile((t ** 2, t ** 3))
    assert prof.values == (1, 2, 2, 2, 2, 2, 2)
    assert prof.multiplicity == 2
    assert prof.emdim == 2


def test_germ_profile_validation_and_non_birational():
    t = tvar()
    with pytest.raises(ValueError):
        germ_profile((t + 1,))
    # t -> (t^2, t^4) is two-to-one onto the parabola y = x^2
    with pytest.raises(ValueError, match="not birational onto its image"):
        germ_profile((t ** 2, t ** 4))


@st.composite
def germs(draw):
    """2-3 components t^order + (up to two higher terms), orders 2-6, over Q
    or GF(p)."""
    field = draw(st.sampled_from([QQ, PrimeField(32003),
                                  PrimeField(2 ** 31 - 1)]))
    comps = []
    for _ in range(draw(st.integers(2, 3))):
        order = draw(st.integers(2, 6))
        terms = {(order,): draw(st.sampled_from([Fraction(1), Fraction(-2),
                                                 Fraction(1, 3)]))}
        for k in draw(st.lists(st.integers(1, 3), max_size=2, unique=True)):
            terms[(order + k,)] = Fraction(draw(st.integers(-3, 3)),
                                           draw(st.integers(1, 2)))
        comps.append(Polynomial(1, field, terms))
    return tuple(comps)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(germs())
def test_germ_profile_matches_rebuild_oracle(gens):
    # wherever the windowed oracle stabilizes on a birational germ, its
    # plateau reading is the exact profile
    try:
        prof = germ_profile(gens)
    except ValueError as exc:
        assert "not birational" in str(exc)
        return
    try:
        expected = rebuild_germ_profile(gens)
    except StabilizationError:
        return
    assert prof == expected


@st.composite
def shared_factor_germs(draw):
    """(f, t*f) or (f, t*f, h), f = u^m*(1 + c*t), h = u^m'*t^k*(1 + c'*t),
    m <= m' <= m + 1 and u = t*(t - a)[*(t - b)], the second root off t = 0
    only for m = 1, over Q or GF(32003): the components share u^m, which has
    roots off t = 0, as fixtures.germ_components shares t*(t^5 - 1), and
    with m = 2 their gcd is not squarefree. t = (t*f)/f keeps every draw
    birational."""
    field = draw(st.sampled_from([QQ, PrimeField(32003)]))
    t = tvar(field)
    coeff = st.sampled_from([0, 1, -2, Fraction(1, 3)])
    m = draw(st.integers(1, 2))
    u = t
    for a in draw(st.lists(st.sampled_from([1, -1, 2, Fraction(1, 2)]),
                           min_size=1, max_size=3 - m, unique=True)):
        u = u * (t - a)
    f = u ** m * (t * draw(coeff) + 1)
    gens = (f, t * f)
    if draw(st.booleans()):
        h = u ** draw(st.integers(m, m + 1)) * t ** draw(st.integers(0, 1))
        gens += (h * (t * draw(coeff) + 1),)
    return gens


@st.composite
def germ_queries(draw, gens):
    """A product of up to 9 of the components, plus 0-2 times a power of t."""
    field = gens[0].field
    q = Polynomial.constant(field.one, 1, field)
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=9)):
        q = q * gens[i]
    tail = tvar(field) ** draw(st.integers(1, 30))
    q = q + tail * draw(st.integers(0, 2))
    assume(not q.is_zero())
    return q


# The oracle: GermRing.echelon's earlier loop at its earlier depth. Levels
# are capped at top + 1, top = max(6, e + 1, b) fixed here, not read off the
# ring; it reads N off the build at K = top + 2, doubles K while it finds no
# N, rebuilds at K = N + top + 1 when that is larger, and reads N again off
# every build.

def oracle_least_n(ring, ech, K):
    """The least n < K with every g^n t^i (i < e) in the span of `ech`, an
    echelon of the products modulo g^K, or None."""
    modulus, p = g_power(ring, K), ring.field.p
    return next((n for n in range(K) if all(ech.contains(t_remainder(
        {k + i: c for k, c in g_power(ring, n).items()}, modulus, p))
        for i in range(ring.e))), None)


def two_pass_echelon(ring, top):
    field, e, p = ring.field, ring.e, ring.field.p
    D = max(c.degree() for c in ring.gens)
    genus, K = (D - 1) * (D - 2) // 2, top + 2
    while True:
        ech, _ = echelon_for(field)
        modulus = g_power(ring, K)
        rows = [t_remainder(t_coefficients(c), modulus, p) for c in ring.gens]
        for count, row in t_power_products(rows, p, K - 1, modulus):
            ech.insert(row, min(count, top + 1))
        if e * K - ech.rank > genus:
            raise ValueError("not birational")
        N = oracle_least_n(ring, ech, K)
        if N is not None and N + top + 1 <= K:
            return ech, K
        K = 2 * K if N is None else N + top + 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(germs(), shared_factor_germs()), st.data())
def test_germ_ring_matches_two_pass_oracle(gens, data):
    # the ring read to level L = max(e, b), its N found by search passes
    # from K = 2, reads the same local ring as the old loop read to level
    # top + 1, top = max(6, e + 1, b)
    q = data.draw(germ_queries(gens))
    ring = GermRing(gens, q)
    b = ring.order(q)
    top = max(6, ring.e + 1, b)
    try:
        ech, K = ring.echelon
    except ValueError as exc:
        assert "not birational" in str(exc)
        with pytest.raises(ValueError, match="not birational"):
            two_pass_echelon(ring, top)
        return
    old, K_old = two_pass_echelon(ring, top)
    # the final span shows the oracle's N, and it reads every level up to
    # L: either K >= N + L or the level-L span holds the last digit
    N = oracle_least_n(ring, old, K_old)
    assert _least_n(ech, ring.e, K) == N
    assert K >= N + ring.L or _exact(ech, ring.e, K, ring.L)
    # the builds may stop at different K, so the ranks are compared as
    # e*K - rank_from(n) = dim R/m^n
    for n in range(ring.L + 1):
        assert (ring.e * K - ech.rank_from(n)
                == ring.e * K_old - old.rank_from(n))
    # column e*j + i stands for t^i g^j, the t-basis column e*j + i only
    # when g = t^e
    if K == K_old and ring.g == [0] * ring.e + [1]:
        assert ech.pivots == old.pivots
        assert ech.levels == {c: min(lv, ring.L)
                              for c, lv in old.levels.items()}
    # H(n) measured to degree top is e from the first s with H(s) = e on,
    # and the profile, its filled tail included, reads those values
    ranks = [old.rank_from(n) for n in range(1, top + 2)]
    measured = [1] + [hi - lo for hi, lo in zip(ranks, ranks[1:])]
    s = measured.index(ring.e)
    assert set(measured[s:]) == {ring.e}
    prof = germ_profile(gens, ring)
    assert prof.stabilization_degree == s
    assert prof.values == tuple(measured[:len(prof.values)])
    row = t_remainder(t_coefficients(q), g_power(ring, K_old), ring.field.p)
    assert subalgebra_member(q, gens, ring) == next(
        (n for n in range(b, 0, -1) if old.contains(row, n)), 0)


def as_polynomial(coefficients, field):
    return Polynomial(1, field, {(k,): c for k, c in enumerate(coefficients)})


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([QQ, PrimeField(2), PrimeField(32003)]),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=3),
       st.booleans(),
       st.dictionaries(st.integers(0, 24),
                       st.fractions(-5, 5, max_denominator=3),
                       min_size=1, max_size=6))
def test_digits_round_trip(field, factors, quadratic, terms):
    # g = (t^2 + t + 1)^[0 or 1] * prod (t - a)^m, squarefree or not, and
    # q = sum_j d_j g^j with every digit d_j of degree < deg g
    t = tvar(field)
    g = t ** 2 + t + 1 if quadratic or not factors else t ** 0
    for a, m in factors:
        g = g * (t - a) ** m
    q = Polynomial(1, field, {(k,): c for k, c in terms.items()
                              if field.p is None or c.denominator % 2})
    if q.is_zero():
        reject()
    gl = _coefficients(g)
    digits = _digits(q, gl)
    assert digits[-1] and all(not d or d[-1] and len(d) < len(gl)
                              for d in digits)
    total = Polynomial.zero(1, field)
    for d in reversed(digits):
        total = total * g + as_polynomial(d, field)
    # over Q the coefficient lists are primitive integer lists, q up to a
    # nonzero scalar
    top = (q.degree(),)
    assert total == q * (total.terms[top] * field.inv(q.terms[top]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(germs(), shared_factor_germs()))
def test_euclid_gcd_is_the_reduced_basis(gens):
    ring = GermRing(gens)
    (g,) = buchberger(gens)
    assert as_polynomial(ring.g, ring.field) == g


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(germs(), shared_factor_germs()), st.integers(1, 6),
       st.data())
def test_product_is_the_row_of_the_polynomial_product(gens, K, data):
    # where two digit exponents add up to e or more, the product takes a
    # long division by g inside the digit; over Q both sides are primitive
    # integer rows with the signs of the polynomials
    ring = GermRing(gens)
    a, b = data.draw(germ_queries(gens)), data.draw(germ_queries(gens))

    def row(q):
        return ring.row(_digits(q, ring.g), K)

    assert ring.product(row(a), row(b), K) == row(a * b)


def pass_echelon(ring, K):
    """One build of GermRing.echelon at K: the power products modulo g^K at
    their factor counts, levels capped at L."""
    ech, _ = echelon_for(ring.field)
    rows = [ring.row(_digits(c, ring.g), K) for c in ring.gens]
    for count, row in _power_products(ring, rows, K - 1, K):
        ech.insert(row, min(count, ring.L))
    return ech


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(germs(), shared_factor_germs()), st.integers(1, 9))
def test_pivot_reads_match_membership(gens, K):
    # g^n t^i is the column e*n + i. N read off the pivot leads (every
    # column >= e*n a lead) is the least n < K whose e columns g^n t^i lie
    # in the span (Nakayama), and K if none; the exactness read is the
    # level-L membership of every column of the last digit
    ring = GermRing(gens)
    e, L = ring.e, ring.L
    ech = pass_echelon(ring, K)
    assert _least_n(ech, e, K) == next(
        (n for n in range(K)
         if all(ech.contains({e * n + i: 1}) for i in range(e))), K)
    assert _exact(ech, e, K, L) == all(
        ech.contains({c: 1}, L) for c in range(e * (K - 1), e * K))


def t_basis_profile(ring):
    """The graded values the t-basis oracle measures to degree top, top =
    max(6, e + 1), and the first s with H(s) = e."""
    top = max(6, ring.e + 1)
    old, _ = two_pass_echelon(ring, top)
    ranks = [old.rank_from(n) for n in range(1, top + 2)]
    measured = [1] + [hi - lo for hi, lo in zip(ranks, ranks[1:])]
    return measured, measured.index(ring.e)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.integers(5, 8).flatmap(lambda e: st.lists(
    st.integers(1, 32002), min_size=e - 1, max_size=e - 1, unique=True)))
def test_ordinary_point_profile_matches_t_basis_oracle(roots):
    # e smooth branches through the origin, one at each root of g, with
    # the distinct tangents (1, a, a^2, a^3) on a twisted cubic
    field = PrimeField(32003)
    t = tvar(field)
    g = t
    for a in roots:
        g = g * (t - a)
    gens = (g, t * g, t * t * g + g * g, t ** 3 * g)
    ring = GermRing(gens)
    assert ring.e == len(roots) + 1
    prof = germ_profile(gens, ring)
    measured, s = t_basis_profile(ring)
    assert prof.stabilization_degree == s
    assert prof.values == tuple(measured[:len(prof.values)])
    assert prof.emdim == 4 and prof.multiplicity == ring.e


def test_germ_profile_names_a_profile_that_never_reaches_e():
    # an echelon whose H(1) is 1, not e = 2: no n < L = 2 reaches e
    t = tvar()
    ring = GermRing((t ** 2, t ** 3))
    ech = IntegerEchelon()
    ech.insert({0: 1}, 2)
    ech.insert({1: 1}, 1)
    ring.__dict__["echelon"] = (ech, 3)
    with pytest.raises(ValueError, match=r"e = 2 at no n < L = 2: level "
                                         r"ranks \[2, 1\]"):
        germ_profile(ring.gens, ring)


def implicit_ideal(gens):
    """The ideal of relations among the components: eliminate t from the
    x_i - gens[i](t) in k[t, x] (Cox, Little & O'Shea, Ideals, Varieties,
    and Algorithms, ch. 3)."""
    r, field = len(gens), gens[0].field
    rels = []
    for i, g in enumerate(gens):
        terms = {(e[0],) + (0,) * r: -c for e, c in g.terms.items()}
        terms[tuple(int(j == i + 1) for j in range(r + 1))] = field.one
        rels.append(Polynomial(r + 1, field, terms))
    return Ideal(r, field, [
        Polynomial(r, field, {m[1:]: c for m, c in h.terms.items()})
        for h in buchberger(rels, BlockOrder(1))
        if all(m[0] == 0 for m in h.terms)])


def implicit_cone(gens):
    """cone_profile of the implicit ideal, whose leads, read off a minimal
    basis, must be the degrevlex leads of its lowest forms."""
    ideal = implicit_ideal(gens)
    assert _lowest_form_leads(ideal) == [
        f.leading_monomial(DEGREVLEX) for f in lowest_form_ideal(ideal)]
    return cone_profile(ideal)


@pytest.mark.parametrize("spec", [
    ("t^2", "t^3"), ("t^3", "t^4", "t^5"), ("t^3", "t^4 + t^5"),
    ("t^4", "t^5 + 2*t^7"), ("t^4", "t^6 + t^7"), ("t^5", "t^6", "t^7"),
    ("t^3 + t^4", "t^5", "t^7"), ("t^2 + t^3", "3*t^5 + t^6")])
def test_germ_profile_matches_elimination_oracle(spec):
    # k[gens] is k[x]/I for the implicit ideal I, so both count
    # dim m^n/m^(n+1) of the same local ring
    field = PrimeField(32003)
    gens = [parse_polynomial(s, 1, field, names=("t",)) for s in spec]
    prof = germ_profile(gens)
    cone = implicit_cone(gens)
    assert prof.values == cone.values[:len(prof.values)]
    assert prof.multiplicity == cone.multiplicity


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5),
       st.lists(st.tuples(st.integers(2, 5),
                          st.dictionaries(st.integers(1, 3),
                                          st.integers(1, 32002), max_size=1)),
                min_size=1, max_size=2))
def test_germ_profile_matches_elimination_oracle_random(order, comps):
    # a pure power first component leaves t = 0 the only preimage of the
    # origin, so the germ has one branch there
    field = PrimeField(32003)
    gens = [Polynomial(1, field, {(order,): 1})] + [
        Polynomial(1, field, {(o + k,): c for k, c in ({0: 1} | tail).items()})
        for o, tail in comps]
    cone = implicit_cone(gens)
    try:
        prof = germ_profile(gens)
    except ValueError as exc:
        # a map of degree d >= 2 onto its image divides the multiplicity
        # deg gcd by d
        assert "not birational" in str(exc)
        assert cone.multiplicity < buchberger(gens)[0].degree()
        return
    assert prof.values == cone.values[:len(prof.values)]
    assert prof.multiplicity == cone.multiplicity


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_germ_profile_with_branches_off_t_zero(field):
    # u = t(2t - 1): both roots of u carry a branch of order 2 through the
    # origin, and the components' gcd u^2 is monic only with coefficient 1/4
    t = tvar(field)
    u = t * t * 2 - t
    gens = (u ** 2, u ** 3 + t * u ** 2)
    prof = germ_profile(gens)
    cone = implicit_cone(gens)
    assert prof.values == cone.values[:len(prof.values)]
    assert prof.values == (1, 2, 3, 4, 4, 4, 4)
    assert prof.multiplicity == cone.multiplicity == 4


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(shared_factor_germs())
def test_germ_profile_of_shared_factor_germs_matches_elimination_oracle(gens):
    # a gcd with roots off t = 0, squarefree or not: one branch through the
    # origin at each root
    prof = germ_profile(gens)
    cone = implicit_cone(gens)
    assert prof.values == cone.values[:len(prof.values)]
    assert prof.multiplicity == cone.multiplicity


@pytest.mark.parametrize("e", [6, 7])
def test_germ_profile_of_monomial_curves_past_the_plateau(e):
    # (t^e, t^(e+1)) has H(n) = n + 1 until n = e - 1, so its values run
    # past degree 6, to e + 1
    field = PrimeField(32003)
    t = tvar(field)
    gens = (t ** e, t ** (e + 1))
    prof = germ_profile(gens)
    cone = implicit_cone(gens)
    assert prof.values == cone.values[:len(prof.values)]
    assert prof.values == tuple(range(1, e + 1)) + (e, e)
    assert prof.multiplicity == e
    assert prof.stabilization_degree == e - 1


@st.composite
def ideals(draw):
    """1-3 generators in 2-3 variables of degree <= 4 over Q or GF(p), most
    without a constant term, so curves, surfaces and points all turn up."""
    field = draw(st.sampled_from([QQ, F11, PrimeField(32003)]))
    n = draw(st.integers(2, 3))
    monos = [m for m in monomials_up_to(n, 4) if mono_deg(m)]
    coeff = st.fractions(-3, 3, max_denominator=4)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(st.sampled_from(monos), coeff,
                                     min_size=1, max_size=4))
        if draw(st.integers(0, 9)) == 0:
            terms[(0,) * n] = Fraction(1)
        gens.append(Polynomial(n, field, terms))
    return Ideal(n, field, gens)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ideals(), st.integers(1, 7))
def test_lowest_forms_match_truncated_oracle(ideal, bound):
    leads = [f.leading_monomial(DEGREVLEX) for f in lowest_form_ideal(ideal)]
    # cone_profile's leads, read off a minimal basis, in the same order
    assert _lowest_form_leads(ideal) == leads
    values = [sum(not any(mono_divides(lead, m) for lead in leads)
                  for m in monomials_of_degree(ideal.nvars, d))
              for d in range(bound + 1)]
    truncated = truncated_lowest_form_ideal(ideal, bound)
    assert values == [binom(d + ideal.nvars - 1, ideal.nvars - 1)
                      - truncated.slice_dim(d) for d in range(bound + 1)]
    try:
        profile = cone_profile(ideal)
    except ValueError as exc:
        if "is a point" in str(exc):
            # H ends at 0: some degree holds no standard monomial
            assert 0 in islice(standard_counts(leads, ideal.nvars), 41)
        else:
            # no curve: every x_i^a x_j^b of some pair is standard
            assert "no lead in" in str(exc)
            assert all(h > d for d, h in enumerate(values))
        return
    assert profile.values[:bound + 1] == tuple(values)


@st.composite
def member_queries(draw):
    """Generators as in `germs`, a degree window, and a nonzero query of degree
    <= window: a random combination of power products, or a random
    polynomial."""
    gens = draw(germs())
    field = gens[0].field
    window = draw(st.integers(max(g.degree() for g in gens), 24))
    coeff = st.integers(-3, 3)
    q = Polynomial.zero(1, field)
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            prod = Polynomial.constant(field(draw(coeff)), 1, field)
            for i in draw(st.lists(st.integers(0, len(gens) - 1),
                                   min_size=1, max_size=6)):
                prod = prod * gens[i]
            if prod.degree() <= window:
                q = q + prod
    else:
        q = Polynomial(1, field, draw(st.dictionaries(
            st.builds(lambda e: (e,), st.integers(0, window)), coeff,
            min_size=1, max_size=4)))
    if q.is_zero():
        reject()
    return q, gens, window


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(member_queries())
def test_subalgebra_member_level_matches_oracle(case):
    # a windowed combination exhibits q in m^n, and q in m^n forces g^n | q
    q, gens, window = case
    try:
        ring = GermRing(gens, q)
        level = subalgebra_member(q, gens, ring)
    except ValueError as exc:
        assert "not birational" in str(exc)
        return
    windowed = 0
    while member_oracle(q, gens, window, windowed + 1):
        windowed += 1
    assert windowed <= level <= ring.order(q)


def semigroup_levels(gens, top):
    """L[x] = the most generators summing to x, for x <= top: the largest n
    with x in nM, M = S - {0}, since M + M lies in M. None off S."""
    levels = [0] + [None] * top
    for x in range(1, top + 1):
        options = [levels[x - a] for a in gens
                   if a <= x and levels[x - a] is not None]
        levels[x] = max(options) + 1 if options else None
    return levels


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([QQ, PrimeField(32003), PrimeField(2 ** 31 - 1)]),
       st.lists(st.integers(2, 7), min_size=2, max_size=3, unique=True),
       st.dictionaries(st.integers(0, 24), st.integers(-3, 3).filter(bool),
                       min_size=1, max_size=4))
def test_subalgebra_member_of_monomial_curves_matches_semigroup(
        field, exps, terms):
    # k[[t^a, t^b, ...]] is monomial, so m^n is spanned by the t^x with x in
    # nM, and completion is faithfully flat: q is in m^n exactly when every
    # exponent of q is
    if gcd(*exps) > 1:
        reject()
    t = tvar(field)
    gens = tuple(t ** a for a in exps)
    q = Polynomial(1, field, {(x,): c for x, c in terms.items()})
    if q.is_zero():
        reject()
    levels = semigroup_levels(exps, max(terms))
    expected = min(levels[x] or 0 for x in terms if field(terms[x]))
    assert subalgebra_member(q, gens) == expected
