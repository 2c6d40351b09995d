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
    lies in the ring. One level-filtered echelon (see linalg) takes each
    power product once, at its factor count, and each product is computed
    once, from the product with one factor fewer. subalgebra_member fills
    the same kind of echelon for one degree window and returns the largest
    n with the query in m^n there, so one span answers every power.
  * branch_tangent_points extracts the tangent directions of a branch
    decomposition; for a germ with smooth branches these are the points whose
    count is the multiplicity.
"""

from dataclasses import dataclass
from itertools import combinations, islice
from operator import le

from .errors import StabilizationError
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


def cone_profile(ideal, bound=8):
    """Graded dimensions H(d) of the tangent cone of `ideal` at the origin.

    H(d) counts the degree-d monomials that no degrevlex lead of the lowest
    forms divides (`standard_counts`). The cone is a curve exactly when each
    pair of variables carries a lead in those two alone; otherwise every
    x_i^a x_j^b is standard and ValueError says so. From degree
    deg lcm(leads) - n + 1 on, H is the leads' Hilbert polynomial (Taylor's
    resolution bounds the series numerator by deg lcm), for a curve the
    multiplicity. Values run to the first of bound, 2 * bound, 4 * bound at
    least the exact stabilization degree + 2; StabilizationError if none is.
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
    values += values[-1:] * (4 * bound + 1 - len(values))
    top = next((b for b in (bound, 2 * bound, 4 * bound) if b >= d0 + 2), None)
    if top is None:
        raise StabilizationError(
            "cone profile did not stabilize within the bound (values %s); "
            "raise the bound to at least %d (H is constant from degree %d on)"
            % (values[:4 * bound + 1], -(-(d0 + 2) // 4), d0))
    values = values[:top + 1]
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


def _power_products(rows, p, cap, modulus=None):
    """Power products of the generators, the empty one included, each once,
    as (weight, factor count, row) triples in order of weight. `rows` holds
    (row, weight) per generator, rows being integer dicts exponent ->
    coefficient, taken mod p when p is not None. Weights add, so pruning at
    weight `cap` makes the tree finite. Each product is computed once, from
    the product with one factor fewer, and reduced modulo `modulus` when one
    is given (see `_remainder`); otherwise it is never truncated.
    """
    out = []
    # an explicit stack, not a recursive closure: the closure's reference
    # cycle would keep every product alive until a full garbage collection
    stack = [(0, 0, {0: 1}, 0)]
    while stack:
        first, count, cur, weight = stack.pop()
        out.append((weight, count, cur))
        for i in range(first, len(rows)):
            row, w = rows[i]
            if weight + w <= cap:
                prod = _dict_mul(cur, row, p)
                if modulus is not None:
                    prod = _remainder(prod, modulus, p)
                stack.append((i, count + 1, prod, weight + w))
    out.sort(key=lambda product: product[0])
    return out


def _check_subalgebra_gens(gens):
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if g.nvars != 1:
            raise ValueError("generators must be univariate")
        if g.is_zero() or (0,) in g.terms:
            raise ValueError("generators must be nonzero with zero constant term")


def _echelon_for(field):
    """An empty echelon over `field` and the map of a coefficient dict to its
    row. Over Q the rows are primitive integer dicts for the fraction-free
    IntegerEchelon; a product of primitive rows is again primitive (Gauss's
    lemma) and a nonzero multiple of the rational product, which leaves every
    span unchanged."""
    if field == QQ:
        return IntegerEchelon(), to_integer_vec
    return SparseEchelon(field), (lambda v: v)


def _generator_rows(gens, conv):
    return [(conv({e[0]: c for e, c in g.terms.items()}), g.degree())
            for g in gens]


def subalgebra_member(p, gens, bound):
    """The largest n >= 1 such that p lies in the span of the power products
    of the generators with at least n factors and polynomial degree <= bound;
    0 when p lies outside that span for n = 1.

    The span for n windows m^n, m being the ideal the generators span in the
    subalgebra they generate. One level-filtered echelon takes each product
    once, at its factor count, and answers every n. A level of n exhibits a
    combination, hence certifies membership in m^n; the refutation at n + 1
    is exact for the degree window.
    """
    _check_subalgebra_gens(gens)
    if p.nvars != 1:
        raise ValueError("query must be univariate")
    if p.is_zero():
        raise ValueError("the zero query lies in every power of m")
    if p.degree() > bound:
        raise ValueError("degree window %d smaller than deg p = %d"
                         % (bound, p.degree()))
    ech, conv = _echelon_for(p.field)
    rows = _generator_rows(gens, conv)
    for _, count, row in _power_products(rows, p.field.p, bound):
        ech.insert(row, count)
    query = conv({e[0]: c for e, c in p.terms.items()})
    level = 0
    while ech.contains(query, level + 1):
        level += 1
    return level


def germ_profile(gens):
    """Graded dimensions H(n) = dim m^n / m^(n+1) of the local ring A of the
    curve t -> gens at the origin, exact in every degree.

    With g the monic gcd of the components (their reduced basis in k[t] is
    [g]) and R = k[t] localized at its roots, mR = gR, so e = deg g is the
    multiplicity. Modulo g^K the products of fewer than K factors span A,
    and one level-filtered echelon takes each at its factor count. If every
    g^N t^i (i < e) lies in that span, g^N R lies in A + g^(N+1) R, hence in
    A (Nakayama), and g^(N+n) R = m^n g^N R lies in m^n; so with
    K = N + L + 1, H(n) = rank_from(n) - rank_from(n + 1) for n <= L. H is
    e from some s <= e - 1 on (m^n is stable once n >= e - 1: Lipman, Amer.
    J. Math. 93, 1971), so L = max(6, e + 1) covers the values reported, up
    to max(6, s + 2). N is at most the conductor length, at most 2 delta
    (Serre, Algebraic Groups and Class Fields, IV 11), and a birational germ
    has delta = dim R/A at most the arithmetic genus (D - 1)(D - 2)/2 of a
    plane projection, D the largest component degree (Hartshorne, Algebraic
    Geometry, IV Ex. 1.8). A map of degree d >= 2 leaves A at most eK/d
    dimensions modulo g^K, so once A misses more than that genus, the map is
    not birational and ValueError says so.
    """
    _check_subalgebra_gens(gens)
    field = gens[0].field
    (g,) = buchberger(gens)
    e, top = g.degree(), max(c.degree() for c in gens)
    genus, last = (top - 1) * (top - 2) // 2, max(6, e + 1)
    powers = [{0: 1}, {m[0]: c for m, c in g.terms.items()}]
    K = last + 2
    while True:
        while len(powers) <= K:
            powers.append(_dict_mul(powers[-1], powers[1], field.p))
        ech, conv = _echelon_for(field)
        rows = [(row, 1) for row, _ in _generator_rows(gens, conv)]
        # most factors first, levels capped at the last one read: a row then
        # reduces against the pivots of the levels above its own and
        # displaces none
        for _, count, row in reversed(_power_products(rows, field.p, K - 1,
                                                      powers[K])):
            ech.insert(row, min(count, last + 1))
        if e * K - ech.rank > genus:
            raise ValueError(
                "the parametrization is not birational onto its image: its "
                "local ring misses %d > (D - 1)(D - 2)/2 = %d dimensions "
                "modulo g^%d, g = %s, D = %d" % (e * K - ech.rank, genus, K,
                                                 g.text(names=("t",)), top))
        N = next((n for n in range(K) if all(
            ech.contains(conv({k + i: c for k, c in powers[n].items()}))
            for i in range(e))), None)
        if N is not None and N + last + 1 <= K:
            break
        K = 2 * K if N is None else N + last + 1
    dims = [ech.rank_from(n) for n in range(1, last + 2)]
    values = [1] + [a - b for a, b in zip(dims, dims[1:])]
    s = values.index(e)
    values = tuple(values[:max(6, s + 2) + 1])
    return ConeProfile(values=values, stabilization_degree=s,
                       multiplicity=e, emdim=values[1])
