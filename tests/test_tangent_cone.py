from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import gcd

import pytest
from hypothesis import given, reject, settings, strategies as st

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
                                 GermRing, _dict_mul,
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


# germ_profile before it read H exactly modulo a power of the components'
# gcd, kept as the oracle: it grows a degree window until the profile holds
# still for three windows, and every window recomputes every power product
# and fills a fresh echelon, level by level from the top.

def rebuild_dict_mul(a, b, field):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: r for e, c in out.items() if (r := field(c))}


def rebuild_power_products(gens, cap):
    """Power products of the generators with polynomial degree <= cap, each
    once, as (factor count, coefficient dict) pairs. Degrees add, so pruning
    on the exact degree makes the tree finite; products are never truncated.
    """
    field = gens[0].field
    vecs = [({e[0]: c for e, c in g.terms.items()}, g.degree()) for g in gens]
    out = []

    def rec(i0, cur, deg, count):
        out.append((count, cur))
        for i in range(i0, len(vecs)):
            v, d = vecs[i]
            if deg + d <= cap:
                rec(i, rebuild_dict_mul(cur, v, field), deg + d, count + 1)

    rec(0, {0: field.one}, 0, 0)
    return out


def rebuild_germ_values(gens, cap, max_degree):
    buckets = {}
    for count, vec in rebuild_power_products(gens, cap):
        buckets.setdefault(count, []).append(vec)
    top = max(buckets)
    ech, conv = echelon_for(gens[0].field)
    # levels the window cannot reach span nothing yet
    dims = {n: 0 for n in range(top + 1, max_degree + 2)}
    for level in range(top, 0, -1):
        for vec in buckets.get(level, ()):
            ech.insert(conv(dict(vec)))
        dims[level] = ech.rank
    return tuple([1] + [dims[n] - dims[n + 1]
                        for n in range(1, max_degree + 1)])


def rebuild_germ_profile(gens, max_degree=6, degree_cap=None, grow_steps=8):
    """Graded dimensions dim m^n / m^(n+1) of the subalgebra generated by
    `gens`, where m is the ideal the generators span in it.

    m^n is the field-span of the power products with at least n factors, so
    each H(n) is a difference of ranks of nested degree-windowed spans. The
    window grows until the whole profile holds still for three consecutive
    windows; drifting values raise StabilizationError rather than being
    reported.
    """
    maxdeg = max(g.degree() for g in gens)
    cap = degree_cap or maxdeg * (max_degree + 3)
    history = []
    for _ in range(grow_steps):
        history.append(rebuild_germ_values(gens, cap, max_degree))
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            values = history[-1]
            d0 = _stabilized(values, "germ profile")
            return ConeProfile(values=values, stabilization_degree=d0,
                               multiplicity=values[-1], emdim=values[1])
        cap += maxdeg
    raise StabilizationError(
        "germ profile kept drifting as the degree window grew: %s"
        % [list(v) for v in history])


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
                    prod = memo[child] = _dict_mul(cur, row, p)
                stack.append((child, prod, deg + d))
    out.sort(key=lambda product: product[0])
    return out


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
    with pytest.raises(ValueError):
        Branch((t + 1, t))  # constant term
    with pytest.raises(ValueError):
        Branch((Polynomial.zero(1, QQ), Polynomial.zero(1, QQ)))
    x, y = xyvars()
    with pytest.raises(ValueError):
        Branch((x, y))  # not univariate
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


def oracle_profile(ideal, bound):
    return truncated_cone_profile(truncated_lowest_form_ideal(ideal, bound))


def test_cone_profile_principal_and_cusp():
    x, y = xyvars()
    for profile in (oracle_profile, cone_profile):
        smooth = profile(Ideal.of(x), 6)
        assert smooth.values == (1,) * 7
        assert smooth.multiplicity == 1

        cusp = profile(Ideal.of(y ** 2 - x ** 3), 8)
        assert cusp.values == (1, 2, 2, 2, 2, 2, 2, 2, 2)
        assert cusp.multiplicity == 2
        assert cusp.emdim == 2
        assert cusp.stabilization_degree == 1
        assert cusp.as_dict()["multiplicity"] == 2


def test_cone_profile_needs_stable_tail():
    x, y = xyvars()
    cusp = Ideal.of(y ** 2 - x ** 3)
    with pytest.raises(StabilizationError):
        oracle_profile(cusp, 2)
    # the bound doubles: 2 -> 4 gives five values, the last three equal
    assert cone_profile(cusp, 2).values == (1, 2, 2, 2, 2)
    # y^8 - x^9 needs 16, y^20 - x^21 needs 32, and 32 is the last bound
    prof = cone_profile(Ideal.of(y ** 8 - x ** 9))
    assert prof.values == tuple(range(1, 9)) + (8,) * 9
    assert prof.stabilization_degree == 7
    prof = cone_profile(Ideal.of(y ** 20 - x ** 21))
    assert prof.values == tuple(range(1, 21)) + (20,) * 13
    assert prof.stabilization_degree == 19
    with pytest.raises(StabilizationError,
                       match=r"cone profile did not stabilize within the bound"
                             r" \(values \[1, 2, .*, 33\]\); raise the bound"):
        cone_profile(Ideal.of(y ** 40 - x ** 41))


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
    # no curve; otherwise the profile runs exactly to the first bound that
    # shows three equal values from the true stabilization degree on
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
    bound = data.draw(st.integers(1, 8))
    counts = list(islice(standard_counts(leads, n), 41))
    s = next(d for d in range(41) if len(set(counts[d:])) == 1)
    if s > 30:
        assert all(h > d for d, h in enumerate(counts))
        with pytest.raises(ValueError, match="not a curve germ"):
            cone_profile(ideal, bound)
        return
    tops = [b for b in (bound, 2 * bound, 4 * bound) if b >= s + 2]
    if not tops:
        with pytest.raises(StabilizationError,
                           match="constant from degree %d on" % s):
            cone_profile(ideal, bound)
        return
    profile = cone_profile(ideal, bound)
    assert profile.values == tuple(counts[:tops[0] + 1])
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
        prof = profile(Ideal.of(x * y, x * z, y * z), 8)
        assert prof.values == tuple(hilbert_function(X, d) for d in range(9))
        prof = profile(Ideal.of(p), 9)
        assert prof.values == tuple(hilbert_function(Y, d) for d in range(10))


def test_cone_profile_presentation_independent():
    # unit factors at the origin do not change the germ
    x, y = xyvars()
    g = y ** 2 - x ** 3
    for profile in (oracle_profile, cone_profile):
        a = profile(Ideal.of(g), 8)
        b = profile(Ideal.of(g * (1 + x), g * (1 + g)), 8)
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
    assert ring.top == 20 > max(6, ring.e + 1) + 1
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
    assert len(calls) == 1
    assert profile.values == (1, 2, 2, 2, 2, 2, 2)
    assert mem["member"] and mem["member_at_min_factors_1"]


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
    cone = cone_profile(implicit_ideal(gens))
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
    cone = cone_profile(implicit_ideal(gens))
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
    cone = cone_profile(implicit_ideal(gens))
    assert prof.values == cone.values[:len(prof.values)]
    assert prof.values == (1, 2, 3, 4, 4, 4, 4)
    assert prof.multiplicity == cone.multiplicity == 4


@pytest.mark.parametrize("e", [6, 7])
def test_germ_profile_of_monomial_curves_past_the_plateau(e):
    # (t^e, t^(e+1)) has H(n) = n + 1 until n = e - 1, so its values run
    # past degree 6, to e + 1
    field = PrimeField(32003)
    t = tvar(field)
    gens = (t ** e, t ** (e + 1))
    prof = germ_profile(gens)
    cone = cone_profile(implicit_ideal(gens))
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
    values = [sum(not any(mono_divides(lead, m) for lead in leads)
                  for m in monomials_of_degree(ideal.nvars, d))
              for d in range(bound + 1)]
    truncated = truncated_lowest_form_ideal(ideal, bound)
    assert values == [binom(d + ideal.nvars - 1, ideal.nvars - 1)
                      - truncated.slice_dim(d) for d in range(bound + 1)]
    try:
        profile = cone_profile(ideal, bound)
    except ValueError as exc:
        # no curve: every x_i^a x_j^b of some pair is standard
        assert "not a curve germ" in str(exc)
        assert all(h > d for d, h in enumerate(values))
        return
    except StabilizationError:
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
