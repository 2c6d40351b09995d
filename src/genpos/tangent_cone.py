"""Tangent cones of curve germs at the origin.

Three routes into the same graded object:
  * lowest_form_ideal homogenizes a polynomial ideal in one extra variable t
    and runs Buchberger under an order that prefers the larger power of t
    within a degree; at t = 1 that is a Lazard standard basis for the local
    degree order, whose lowest forms generate the ideal of the tangent cone.
    cone_profile counts the monomials outside their leading ideal, so its
    values are exact in every degree, with no truncation window, and it
    stops where a degree bound on the leads proves the count constant.
  * germ_profile reads the graded dimensions dim m^n / m^(n+1) of a
    parameterized curve's local ring off the power products of its
    components modulo a power of their gcd g, which is exact once g^N k[t]
    lies in the ring. One level-filtered echelon (see linalg), a GermRing,
    takes each power product once, at its factor count, and each product is
    computed once, from the product with one factor fewer. H reaches the
    multiplicity e below degree e and stays there, so the echelon reads
    levels only up to e.
    subalgebra_member reads the largest n with a query in m^n off the same
    echelon, its levels raised to the query's g-adic order when that is
    larger, so one build answers both.
  * branch_tangent_points extracts the tangent directions of a branch
    decomposition; for a germ with smooth branches these are the points whose
    count is the multiplicity.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from operator import le

from .groebner import buchberger
from .linalg import IntegerEchelon, SparseEchelon, to_integer_vec
from .points import PointSet, normalize_point
from .poly import DEGREVLEX, LAZARD, Polynomial
from .scalars import QQ


@dataclass(frozen=True)
class Branch:
    """One branch: r+1 univariate components in the local parameter, no constant term."""

    components: tuple

    def __post_init__(self):
        for c in self.components:
            if c.nvars != 1:
                raise ValueError("branch components must be univariate")
            if (0,) in c.terms:
                raise ValueError("branch components must vanish at the origin")
        if all(c.is_zero() for c in self.components):
            raise ValueError("branch with all components zero")

    @property
    def order(self):
        return min(c.low_degree() for c in self.components if not c.is_zero())

    def tangent_vector(self):
        field = next(c for c in self.components if not c.is_zero()).field
        return tuple(c.terms.get((1,), field.zero) for c in self.components)


@dataclass(frozen=True)
class BranchCurve:
    """A curve germ given by its branch decomposition."""

    r: int
    field: object
    branches: tuple


def branch_tangent_points(curve):
    """Tangent directions of the branches as a point set of P^r.

    Requires every branch to have order 1 (smooth branches) and the tangent
    directions to be pairwise distinct; then the point count is the
    multiplicity of the germ.
    """
    pts = []
    for i, b in enumerate(curve.branches):
        if b.order != 1:
            raise ValueError("branch %d has order %d, not 1" % (i, b.order))
        pts.append(normalize_point(b.tangent_vector(), curve.field))
    if len(set(pts)) != len(pts):
        raise ValueError("coincident tangent directions")
    return PointSet(curve.r, curve.field, tuple(pts))


def lowest_form_ideal(ideal):
    """Lowest forms of a standard basis of `ideal` at the origin.

    Each generator g becomes the sum of c_m * t^(deg g - |m|) * x^m in
    k[t, x]; their reduced basis under LAZARD, at t = 1, is a standard basis
    for the local degree order (Lazard 1983). Its lowest forms generate the
    tangent cone's ideal in every degree (Greuel & Pfister, A Singular
    Introduction to Commutative Algebra, 1.7 and 5.5). Returned in basis
    order.
    """
    n, field = ideal.nvars, ideal.field
    gens = [Polynomial(n + 1, field, {(g.degree() - sum(m),) + m: c
                                      for m, c in g.terms.items()})
            for g in ideal.gens]
    forms = []
    for h in buchberger(gens, LAZARD):
        # h is homogeneous, so its largest power of t marks its lowest x-degree
        top = h.leading_monomial(LAZARD)[0]
        forms.append(Polynomial(n, field, {m[1:]: c for m, c in h.terms.items()
                                           if m[0] == top}))
    return tuple(forms)


@dataclass(frozen=True)
class ConeProfile:
    """Graded dimensions H(d) of a tangent cone, with the stabilized reading."""

    values: tuple
    stabilization_degree: int
    multiplicity: int
    emdim: int

    def as_dict(self):
        return {
            "values": list(self.values),
            "stabilization_degree": self.stabilization_degree,
            "multiplicity": self.multiplicity,
            "emdim": self.emdim,
        }


def standard_counts(leads, nvars):
    """H(0), H(1), ...: how many monomials of each degree no lead divides.

    The standard monomials are closed under division, so those of degree d
    are the x_i * m, m standard of degree d-1, that no lead divides; no other
    monomial of degree d is tested.
    """
    std = {(0,) * nvars}
    while True:
        std = {m for m in std if not any(all(map(le, lead, m)) for lead in leads)}
        yield len(std)
        std = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in std for i in range(nvars)}


def cone_profile(ideal):
    """Graded dimensions H(d) of the tangent cone of `ideal` at the origin.

    H(d) counts the degree-d monomials that no degrevlex lead of the lowest
    forms divides (`standard_counts`). The cone is a curve exactly when each
    pair of variables carries a lead in those two alone and H does not end
    at 0; otherwise ValueError says which. From degree deg lcm(leads) - n + 1
    on, H is the leads' Hilbert polynomial (Taylor's resolution bounds the
    series numerator by deg lcm), for a curve the multiplicity. Values run to
    the first of 8, 16, 32, ... at least the exact stabilization degree + 2.
    """
    n = ideal.nvars
    leads = [f.leading_monomial(DEGREVLEX) for f in lowest_form_ideal(ideal)]
    for i, j in combinations(range(n), 2):
        if not any(sum(m) == m[i] + m[j] for m in leads):
            raise ValueError("the tangent cone is not a curve germ: no lead "
                             "in x%d and x%d alone, so H(d) > d" % (i, j))
    values = list(islice(standard_counts(leads, n),
                         max(sum(map(max, zip(*leads))) - n + 2, 1)))
    d0 = len(values) - 1
    while d0 and values[d0 - 1] == values[-1]:
        d0 -= 1
    if not values[-1]:
        raise ValueError("the tangent cone is a point, not a curve germ: "
                         "H(d) = 0 from degree %d on" % d0)
    top = 8
    while top < d0 + 2:
        top *= 2
    values = (values + values[-1:] * top)[:top + 1]
    return ConeProfile(values=tuple(values), stabilization_degree=d0,
                       multiplicity=values[-1], emdim=values[1])


def _dict_mul(a, b, p):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    if p is None:
        return {e: c for e, c in out.items() if c}
    return {e: r for e, c in out.items() if (r := c % p)}


def _remainder(row, modulus, p):
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


def _power_products(rows, p, cap, modulus):
    """Power products of the generator rows (integer dicts exponent ->
    coefficient, mod p when p is not None) with at most `cap` factors, the
    empty one included, as (factor count, row) pairs, most factors first.
    Each is computed once, from the product with one factor fewer, and
    reduced modulo `modulus` (see `_remainder`)."""
    out = []
    # an explicit stack, not a recursive closure: the closure's reference
    # cycle would keep every product alive until a full garbage collection
    stack = [(0, 0, {0: 1})]
    while stack:
        first, count, cur = stack.pop()
        out.append((count, cur))
        if count < cap:
            for i in range(first, len(rows)):
                stack.append((i, count + 1, _remainder(
                    _dict_mul(cur, rows[i], p), modulus, p)))
    out.sort(key=lambda product: product[0])
    return out[::-1]


def _coefficients(poly):
    return {e[0]: c for e, c in poly.terms.items()}


class GermRing:
    """The local ring A of the curve t -> gens at the origin modulo g^K: one
    level-filtered echelon of the power products of the components at their
    factor counts, levels capped at L. germ_profile and subalgebra_member
    handed one ring share its one build, which runs on first use, so its
    time falls inside germ_profile, a function the benchmark tracer times by
    name.

    With g the monic gcd of the components (their reduced basis in k[t] is
    [g]) and R = k[t] localized at its roots, mR = gR, so e = deg g is the
    multiplicity. Modulo g^K the products of at least n and fewer than K
    factors span the image of m^n. For n < K, if every g^n t^i (i < e) lies
    in the span of all products, g^n R lies in A + g^(n+1) R, hence in A
    (Nakayama). So once K > N, N the least n with g^n R in A, the least such
    n is N. The builds look for it at K = 2, 4, ... up to (L + 1)/2, then
    at K = L + 1, 2(L + 1), 4(L + 1), ..., and not again once it is found.
    Then g^(N+j) R = m^j g^N R lies in m^j, so g^K R lies in m^(K-N), and at
    any K >= N + L the level-n span modulo g^K reads m^n exactly for every
    n <= L: q lies in m^n exactly when its remainder lies in the span, and
    H(n) is the rank drop from level n to n + 1 for n < L. The build that
    found N is kept if its K is that large, else one more is made at
    K = N + L. L = max(e, b), b the g-adic order of `query` (0 without
    one): germ_profile reads H(n) for n < e, where H has reached e for good
    (see germ_profile), and subalgebra_member reads levels up to b. N is at
    most the conductor length, at most 2 delta (Serre, Algebraic Groups and
    Class Fields, IV 11), and a birational germ has delta = dim R/A at most
    the arithmetic genus (D - 1)(D - 2)/2 of a plane projection, D the
    largest component degree (Hartshorne, Algebraic Geometry, IV Ex. 1.8).
    A map of degree d >= 2 leaves A at most eK/d dimensions modulo g^K, so
    once A misses more than that genus at some K, the map is not birational
    and ValueError says so.
    """

    def __init__(self, gens, query=None):
        if not gens or any(g.nvars != 1 or g.is_zero() or (0,) in g.terms
                           for g in gens):
            raise ValueError("need univariate generators, each nonzero with "
                             "zero constant term")
        self.gens, self.field = tuple(gens), gens[0].field
        (self.g,) = buchberger(gens)
        self.e, self.powers = self.g.degree(), [{0: 1}, _coefficients(self.g)]
        self.L = max(self.e, 0 if query is None else self.order(query))

    def power(self, n):
        while len(self.powers) <= n:
            self.powers.append(_dict_mul(self.powers[-1], self.powers[1],
                                         self.field.p))
        return self.powers[n]

    def order(self, q):
        """The largest b with g^b | q in k[t]. m^n lies in g^n R, which meets
        k[t] in g^n k[t], so q in m^n forces n <= b."""
        if q.nvars != 1 or q.is_zero():
            raise ValueError("the query must be a nonzero polynomial in t")
        b = 0
        while not _remainder(_coefficients(q), self.power(b + 1),
                             self.field.p):
            b += 1
        return b

    @cached_property
    def echelon(self):
        field, e, L, p = self.field, self.e, self.L, self.field.p
        D = max(c.degree() for c in self.gens)
        genus, K, N = (D - 1) * (D - 2) // 2, 2, None
        while True:
            # _remainder also puts a row in the echelon's form: over Q a
            # primitive integer row, and products of those stay primitive
            # (Gauss's lemma), so IntegerEchelon never sees a Fraction
            ech = IntegerEchelon() if field == QQ else SparseEchelon(field)
            modulus = self.power(K)
            rows = [_remainder(_coefficients(c), modulus, p)
                    for c in self.gens]
            # most factors first: the echelon takes levels in non-increasing
            # order only, and raises on a row above the last level
            for count, row in _power_products(rows, p, K - 1, modulus):
                ech.insert(row, min(count, L))
            if (missing := e * K - ech.rank) > genus:
                raise ValueError(
                    "the parametrization is not birational onto its image: "
                    "its local ring misses %d > (D - 1)(D - 2)/2 = %d "
                    "dimensions modulo g^%d, g = %s, D = %d"
                    % (missing, genus, K, self.g.text(names=("t",)), D))
            if N is None:
                N = next((n for n in range(K) if all(ech.contains(_remainder(
                    {k + i: c for k, c in self.power(n).items()}, modulus, p))
                    for i in range(e))), None)
            if N is not None:
                if N + L <= K:
                    return ech, K
                K = N + L
            elif K < L + 1 < 4 * K:
                # the passes below L + 1 stop at (L + 1)/2, so together they
                # cost a fraction of the pass at L + 1
                K = L + 1
            else:
                K *= 2


def subalgebra_member(q, gens, ring=None):
    """The largest n with q in m^n, m the maximal ideal of the local ring of
    the curve t -> gens at the origin, read off `ring`, a GermRing of `gens`
    built for q (None builds one): the largest n <= ring.order(q) whose
    level-n span holds q modulo g^K. A combination of products exhibits q in
    m^n; q outside the span is outside m^n."""
    ring = ring or GermRing(gens, q)
    if (b := ring.order(q)) > ring.L:
        raise ValueError("the ring reads levels <= %d, not %d" % (ring.L, b))
    ech, K = ring.echelon
    row = _remainder(_coefficients(q), ring.power(K), ring.field.p)
    return next((n for n in range(b, 0, -1) if ech.contains(row, n)), 0)


def germ_profile(gens, ring=None):
    """Graded dimensions H(n) = dim m^n / m^(n+1) of the local ring of the
    curve t -> gens at the origin, exact in every degree: rank differences of
    the level-n spans of `ring`, a GermRing of `gens` (None builds one), for
    n < L = max(e, b), then e from the first s with H(s) = e on. The local
    ring A is 1-dimensional and Cohen-Macaulay; with x a minimal reduction
    of m (after a residue field extension, which leaves H alone),
    H(n) <= length(m^n / x m^n) = e, and equality means m^(n+1) = x m^n,
    which then holds for every larger n, so H(s) = e forces H(n) = e for
    every n >= s. m^n is stable once n >= e - 1, so s <= e - 1 < L (Lipman,
    Amer. J. Math. 93, 1971). The values run to max(6, s + 2)."""
    ring = ring or GermRing(gens)
    ech, _ = ring.echelon
    e, L = ring.e, ring.L
    ranks = [ech.rank_from(n) for n in range(1, L + 1)]
    values = [1] + [a - b for a, b in zip(ranks, ranks[1:])]
    if e not in values:
        raise ValueError("H(n) reaches the multiplicity e = %d at no n < "
                         "L = %d: level ranks %s for n = 1..L"
                         % (e, L, ranks))
    s = values.index(e)
    values = tuple(values[:s]) + (e,) * (max(6, s + 2) + 1 - s)
    return ConeProfile(values=values, stabilization_degree=s,
                       multiplicity=e, emdim=values[1])
