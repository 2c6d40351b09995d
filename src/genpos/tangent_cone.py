"""Tangent cones of curve germs at the origin.

Three routes into the same graded object:
  * lowest_form_ideal homogenizes a polynomial ideal in one extra variable t
    and runs Buchberger under an order that prefers the larger power of t
    within a degree; at t = 1 that is a Lazard standard basis for the local
    degree order, whose lowest forms generate the ideal of the tangent cone.
    cone_profile counts the monomials outside their leading ideal, so its
    values are exact in every degree, with no truncation window, and it
    stops where a degree bound on the leads proves the count constant. It
    needs only those leads, so it reads them off the LAZARD leads of a
    minimal basis, with no interreduction and no lowest form built.
  * germ_profile reads the graded dimensions dim m^n / m^(n+1) of a
    parameterized curve's local ring off the power products of its
    components modulo a power of their gcd g, which is exact once g^N k[t]
    lies in the ring. Rows hold g-adic digits, so reduction modulo g^K is
    truncation, and N and exactness are counts of pivot leads. One
    level-filtered echelon (see linalg), a GermRing, takes each power
    product once, at its factor count, and each product is computed once,
    from the product with one factor fewer. H reaches the multiplicity e
    below degree e and stays there, so the echelon reads levels only up
    to e.
    subalgebra_member reads the largest n with a query in m^n off the same
    echelon, its levels raised to the query's g-adic order when that is
    larger, so one build answers both.
  * branch_tangent_points extracts the tangent directions of a branch
    decomposition; for a germ with smooth branches these are the points whose
    count is the multiplicity.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from math import gcd
from operator import le

from .groebner import buchberger, leading_monomials
from .linalg import IntegerEchelon, SparseEchelon, to_integer_vec
from .points import PointSet, normalize_point
from .poly import LAZARD, Polynomial
from .records import record
from .scalars import QQ


class Branch(record("Branch", "components")):
    """One branch: r+1 univariate components in the local parameter, no constant term."""

    __slots__ = ()

    def __new__(cls, components):
        for c in components:
            if c.nvars != 1:
                raise ValueError("branch components must be univariate")
            if (0,) in c.terms:
                raise ValueError("branch components must vanish at the origin")
        if all(c.is_zero() for c in components):
            raise ValueError("branch with all components zero")
        return super().__new__(cls, components)

    @property
    def order(self):
        return min(c.low_degree() for c in self.components if not c.is_zero())

    def tangent_vector(self):
        field = next(c for c in self.components if not c.is_zero()).field
        return tuple(c.terms.get((1,), field.zero) for c in self.components)


class BranchCurve(record("BranchCurve", "r field branches")):
    """A curve germ given by its branch decomposition."""

    __slots__ = ()


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


def _homogenized(ideal):
    """Each generator g as the sum of c_m * t^(deg g - |m|) * x^m in
    k[t, x], t the leading variable."""
    n, field = ideal.nvars, ideal.field
    return [Polynomial(n + 1, field, {(g.degree() - sum(m),) + m: c
                                      for m, c in g.terms.items()})
            for g in ideal.gens]


def lowest_form_ideal(ideal):
    """Lowest forms of a standard basis of `ideal` at the origin.

    The reduced basis of the homogenized generators (`_homogenized`) under
    LAZARD, at t = 1, is a standard basis for the local degree order (Lazard
    1983). Its lowest forms generate the tangent cone's ideal in every degree
    (Greuel & Pfister, A Singular Introduction to Commutative Algebra, 1.7
    and 5.5). Returned in basis order.
    """
    n, field = ideal.nvars, ideal.field
    forms = []
    for h in buchberger(_homogenized(ideal), LAZARD):
        # h is homogeneous, so its largest power of t marks its lowest x-degree
        top = h.leading_monomial(LAZARD)[0]
        forms.append(Polynomial(n, field, {m[1:]: c for m, c in h.terms.items()
                                           if m[0] == top}))
    return tuple(forms)


def _lowest_form_leads(ideal):
    """The degrevlex leads of `lowest_form_ideal(ideal)`, in its order, with
    no interreduction and no `Polynomial` built: the LAZARD lead of a
    homogeneous h is (its top power of t, the degrevlex lead of its lowest
    form), and a minimal basis has the reduced basis's leads
    (`leading_monomials`)."""
    return [m[1:] for m in leading_monomials(_homogenized(ideal), LAZARD)]


class ConeProfile(record(
        "ConeProfile", "values stabilization_degree multiplicity emdim")):
    """Graded dimensions H(d) of a tangent cone, with the stabilized reading."""

    __slots__ = ()

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
    forms (`_lowest_form_leads`) divides (`standard_counts`). The cone is a
    curve exactly when each pair of variables carries a lead in those two
    alone and H does not end at 0; otherwise ValueError says which. From
    degree deg lcm(leads) - n + 1 on, H is the leads' Hilbert polynomial
    (Taylor's resolution bounds the series numerator by deg lcm), for a
    curve the multiplicity. Values run to the first of 8, 16, 32, ... at
    least the exact stabilization degree + 2.
    """
    n = ideal.nvars
    leads = _lowest_form_leads(ideal)
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


def _coefficients(poly):
    """The coefficient list of a nonzero univariate polynomial, index =
    exponent; over Q a primitive integer list, as every use holds up to a
    nonzero scalar."""
    terms = {k: c for (k,), c in poly.terms.items()}
    terms = terms if poly.field.p is not None else to_integer_vec(terms)
    return [terms.get(k, 0) for k in range(max(terms) + 1)]


def _divmod(a, g, p):
    """Quotient and remainder of the coefficient list `a` by the monic `g`,
    over Q or mod p; the remainder without trailing zeros, and so the
    quotient when `a` has none."""
    e, r = len(g) - 1, list(a)
    q = [0] * max(len(r) - e, 0)
    for s in range(len(r) - 1, e - 1, -1):
        if c := r[s] if p is None else r[s] % p:
            q[s - e] = c
            for k in range(e):
                r[s - e + k] -= c * g[k]
    r = r[:e] if p is None else [v % p for v in r[:e]]
    while r and not r[-1]:
        r.pop()
    return q, r


def _primitive_remainder(a, b):
    """The remainder of lc(b)^k * a by b, k = max(len(a) - len(b) + 1, 0),
    as a primitive int list without trailing zeros, for int lists a and b,
    b nonzero (a pseudo-remainder, content divided out)."""
    r, n = list(a), len(b) - 1
    while len(r) > n:
        c, s = r.pop(), len(r) - n
        r = [v * b[-1] for v in r]
        for k in range(n):
            r[s + k] -= c * b[k]
        while r and not r[-1]:
            r.pop()
    g = gcd(*r)
    return [v // g for v in r] if g > 1 else r


def _digits(q, g):
    """The g-adic digits of the polynomial q, g a monic coefficient list:
    lists d_j, each shorter than g, with q = sum_j d_j g^j (over Q up to a
    nonzero scalar)."""
    a, digits = _coefficients(q), []
    while a:
        a, d = _divmod(a, g, q.field.p)
        digits.append(d)
    return digits


def _power_products(ring, rows, cap, K):
    """Power products of the rows with at most `cap` factors, the empty one
    included, as (factor count, row) pairs, most factors first. Each is
    computed once, from the product with one factor fewer, by
    `ring.product` modulo g^K, and one that vanishes there is dropped with
    its multiples."""
    out = []
    # an explicit stack, not a recursive closure: the closure's reference
    # cycle would keep every product alive until a full garbage collection
    stack = [(0, 0, {0: 1})]
    while stack:
        first, count, cur = stack.pop()
        out.append((count, cur))
        if count < cap:
            for i in range(first, len(rows)):
                if prod := ring.product(cur, rows[i], K):
                    stack.append((i, count + 1, prod))
    out.sort(key=lambda product: product[0])
    return out[::-1]


def _least_n(ech, e, K):
    """The least n <= K with g^n k[t] / g^K, the columns >= e*n, in the span
    of `ech`. A pivot row leads at its first nonzero column, so the span
    meets the columns >= c in the span of the pivot rows leading there."""
    return max((c for c in range(e * K) if c not in ech.pivots),
               default=-1) // e + 1


def _exact(ech, e, K, L):
    """Whether g^(K-1) k[t] / g^K lies in the level-L span of `ech`."""
    return all(ech.levels.get(c, -1) >= L for c in range(e * (K - 1), e * K))


class GermRing:
    """The local ring A of the curve t -> gens at the origin modulo g^K: one
    level-filtered echelon of the power products of the components at their
    factor counts, levels capped at L. germ_profile and subalgebra_member
    handed one ring share its one build, which runs on first use, so its
    time falls inside germ_profile, a function the benchmark tracer times by
    name.

    With g the monic gcd of the components and R = k[t] localized at its
    roots, mR = gR, so e = deg g is the multiplicity. Column e*j + i stands
    for t^i g^j (i < e), so a row modulo g^K is its columns below eK, and
    there the products of at least n and fewer than K factors span the
    image of m^n. For n < K, g^n k[t] in the span gives g^n R in
    A + m g^n R, hence in A (Nakayama); so once K > N, N the least n with
    g^n R in A, `_least_n` reads N, and g^K R = m^(K-N) g^N R lies in
    m^(K-N). If g^(K-1) R lies in m^L + g^K R (`_exact`), g^K R lies in
    m^(L+1) + m g^K R, hence in m^(L+1). So at K >= N + L, or at an exact
    build, the level-n span reads m^n exactly for n <= L: q lies in m^n
    exactly when its digits below K lie in it, and H(n) is the rank drop
    from level n to n + 1 for n < L. The builds run at K = 2, 4, ... up to
    (L + 1)/2, then L + 1, 2(L + 1), ..., until one is exact or shows N,
    then once more at K = N + L if that is larger. L = max(e, b), b the
    g-adic order of `query` (0 without one): germ_profile reads H(n) for
    n < e (see germ_profile), subalgebra_member levels up to b. N is at most
    the conductor length, at most 2 delta (Serre, Algebraic Groups and
    Class Fields, IV 11), and a birational germ has delta = dim R/A at most
    the arithmetic genus (D - 1)(D - 2)/2 of a plane projection, D the
    largest component degree (Hartshorne, Algebraic Geometry, IV Ex. 1.8).
    A map of degree d >= 2 leaves A at most eK/d dimensions modulo g^K, so
    once A misses more than that genus at some K, ValueError says the map
    is not birational.
    """

    def __init__(self, gens, query=None):
        if not gens or any(g.nvars != 1 or g.is_zero() or (0,) in g.terms
                           for g in gens):
            raise ValueError("need univariate generators, each nonzero with "
                             "zero constant term")
        self.gens, self.field = tuple(gens), gens[0].field
        field = self.field
        g = []  # the gcd by Euclid, over Q on primitive int lists
        for b in map(_coefficients, gens):
            while b:
                if field.p is None:
                    g, b = b, _primitive_remainder(g, b)
                else:
                    inv = field.inv(b[-1])
                    b = [field(v * inv) for v in b]
                    g, b = b, _divmod(g, b, field.p)[1]
        # monic, with integral coefficients as ints: over Q products of
        # integer rows then stay in ints
        g = [Fraction(c, g[-1]) for c in g] if field.p is None else g
        self.g = [c.numerator if c.denominator == 1 else c for c in g]
        self.e = len(self.g) - 1
        self._kept = {}  # query -> its digits
        self.L = max(self.e, 0 if query is None else self.order(query))

    def digits(self, q):
        """The g-adic digits of the nonzero polynomial q in t (see
        `_digits`), computed once per query."""
        if q.nvars != 1 or q.is_zero():
            raise ValueError("the query must be a nonzero polynomial in t")
        if q not in self._kept:
            self._kept[q] = _digits(q, self.g)
        return self._kept[q]

    def order(self, q):
        """The largest b with g^b | q in k[t]: q's first nonzero digit. m^n
        lies in g^n R, which meets k[t] in g^n k[t], so q in m^n forces
        n <= b."""
        return next(j for j, d in enumerate(self.digits(q)) if d)

    def row(self, digits, K):
        """The row of `digits` below K, over Q a primitive integer row."""
        row = {self.e * j + i: v for j, d in enumerate(digits[:K])
               for i, v in enumerate(d) if v}
        return row if self.field.p is not None else to_integer_vec(row)

    def product(self, a, b, K):
        """The product of the rows a and b modulo g^K, as `row` gives it.
        t^i g^j * t^i' g^j' is the column e(j + j') + i + i' when i + i' < e
        or g = t^e; otherwise its t^(i+i') g^(j+j') goes to a long division
        by g inside digit j + j', whose quotient carries to the next."""
        e, p, top, g = self.e, self.field.p, self.e * K, self.g
        low, out, high = any(g[:-1]), {}, {}
        for ca, va in a.items():
            ia = ca % e
            for cb, vb in b.items():
                if low and ia + cb % e >= e:
                    if (c := ca + cb - e) < top:
                        high[c] = high.get(c, 0) + va * vb
                elif (c := ca + cb) < top:
                    out[c] = out.get(c, 0) + va * vb
        digits = {}
        for c, v in high.items():
            digits.setdefault(c // e, [0] * (2 * e - 1))[e + c % e] = v
        for j, d in digits.items():
            q, r = _divmod(d, g, p)
            for c, v in enumerate(r + [0] * (e - len(r)) + q, e * j):
                if c < top:
                    out[c] = out.get(c, 0) + v
        if p is None:
            return to_integer_vec(out)
        return {c: r for c, v in out.items() if (r := v % p)}

    @cached_property
    def echelon(self):
        field, e, L = self.field, self.e, self.L
        D = max(c.degree() for c in self.gens)
        genus, K = (D - 1) * (D - 2) // 2, 2
        digits = [_digits(c, self.g) for c in self.gens]
        while True:
            ech = IntegerEchelon() if field == QQ else SparseEchelon(field)
            rows = [self.row(d, K) for d in digits]
            # most factors first: the echelon takes levels in non-increasing
            # order only, and raises on a row above the last level
            for count, row in _power_products(self, rows, K - 1, K):
                ech.insert(row, min(count, L))
            if (missing := e * K - ech.rank) > genus:
                g = Polynomial(1, field, {(i,): c
                                          for i, c in enumerate(self.g)})
                raise ValueError(
                    "the parametrization is not birational onto its image: "
                    "its local ring misses %d > (D - 1)(D - 2)/2 = %d "
                    "dimensions modulo g^%d, g = %s, D = %d"
                    % (missing, genus, K, g.text(names=("t",)), D))
            if _exact(ech, e, K, L):
                return ech, K
            if (N := _least_n(ech, e, K)) < K:
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
    level-n span holds q's digits below K. A combination of products
    exhibits q in m^n; q outside the span is outside m^n."""
    ring = ring or GermRing(gens, q)
    if (b := ring.order(q)) > ring.L:
        raise ValueError("the ring reads levels <= %d, not %d" % (ring.L, b))
    ech, K = ring.echelon
    row = ring.row(ring.digits(q), K)
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
