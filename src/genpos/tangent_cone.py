"""Tangent cones of curve germs at the origin.

Three routes into the same graded object:
  * lowest_form_ideal homogenizes a polynomial ideal in one extra variable t
    and runs Buchberger under an order that prefers the larger power of t
    within a degree; at t = 1 that is a Lazard standard basis for the local
    degree order, whose lowest forms generate the ideal of the tangent cone.
    cone_profile counts the monomials outside their leading ideal, so its
    values are exact in every degree, with no truncation window, and it
    stops where a degree bound on the leads proves the count constant.
  * germ_profile reads the graded dimensions dim m^n / m^(n+1) straight off a
    parameterized curve's coordinate subalgebra, as rank differences of nested
    degree-windowed spans of power products of the parameterization
    components, growing the window until the values hold still. The windows
    grow incrementally: one level-filtered echelon (see linalg) takes each
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


def _stabilized(values, context):
    d0 = len(values) - 1
    while d0 > 0 and values[d0 - 1] == values[-1]:
        d0 -= 1
    if len(values) - d0 < 3:
        raise StabilizationError(
            "%s did not stabilize within the bound (values %s); raise the bound"
            % (context, list(values)))
    return d0


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


def _power_products(rows, p, cap, low, memo):
    """Power products of the generators with polynomial degree in (low, cap],
    each once, as (degree, factor count, row) triples in order of degree,
    which keeps the echelon's pivot rows short. `rows` holds (row, degree) per
    generator, rows being integer dicts exponent -> coefficient, taken mod p
    when p is not None. Degrees add, so pruning on the exact degree makes the
    tree finite; products are never truncated. `memo` maps factor multisets
    (sorted index tuples) to their products, so a caller that widens the
    window multiplies only the new ones.
    """
    out = []
    # an explicit stack, not a recursive closure: the closure's reference
    # cycle would keep every product alive until a full garbage collection
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
    for _, count, row in _power_products(rows, p.field.p, bound, 0, {}):
        ech.insert(row, count)
    query = conv({e[0]: c for e, c in p.terms.items()})
    level = 0
    while ech.contains(query, level + 1):
        level += 1
    return level


def germ_profile(gens, max_degree=6, degree_cap=None, grow_steps=8):
    """Graded dimensions dim m^n / m^(n+1) of the subalgebra generated by
    `gens`, where m is the ideal the generators span in it.

    m^n is the field-span of the power products with at least n factors, so
    each H(n) is a difference of ranks of nested degree-windowed spans. The
    window grows until the whole profile holds still for three consecutive
    windows; drifting values raise StabilizationError rather than being
    reported. One level-filtered echelon serves every window: each product
    goes in once, when the window first reaches its degree, at its factor
    count capped at max_degree + 1. Only rank_from(n) for n <= max_degree + 1
    is read, and the cap leaves the rows it counts unchanged.
    """
    _check_subalgebra_gens(gens)
    maxdeg = max(g.degree() for g in gens)
    cap = degree_cap or maxdeg * (max_degree + 3)
    field = gens[0].field
    ech, conv = _echelon_for(field)
    rows = _generator_rows(gens, conv)
    memo = {}
    low = 0  # the empty product, of degree 0, spans no power of m
    history = []
    for _ in range(grow_steps):
        for _, count, row in _power_products(rows, field.p, cap, low, memo):
            ech.insert(row, min(count, max_degree + 1))
        low = cap
        dims = [ech.rank_from(n) for n in range(1, max_degree + 2)]
        history.append(tuple([1] + [a - b for a, b in zip(dims, dims[1:])]))
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            values = history[-1]
            d0 = _stabilized(values, "germ profile")
            return ConeProfile(values=values, stabilization_degree=d0,
                               multiplicity=values[-1], emdim=values[1])
        cap += maxdeg
    raise StabilizationError(
        "germ profile kept drifting as the degree window grew: %s"
        % [list(v) for v in history])
