"""Finite point sets in projective space: Hilbert ranks and genericity certificates.

A set of e points is in generic position when every degree-n evaluation matrix
has the maximal rank min(e, C(n+r, r)); it is in generic t-position when every
t-point subset is in generic position. Certificates carry the smallest failing
degree and an explicit hypersurface witness read off the null space. Every
check reads a degree's pivot columns (lex descending) through
`PointSet.echelon`, which builds each degree once per set, so the checks run
on one set share their work. Degree d is built from the border of degree
d-1: only the columns x_i * m, m a degree-(d-1) pivot monomial, each cell a
coordinate times a degree-(d-1) cell. No pivot is lost (the order-ideal
argument of Moeller & Buchberger 1982 and Marinari, Moeller & Mora 1993): if
f = m - sum c * m' (m' > m) vanishes on X, so does x_i * f, and lex is
multiplicative, so x_i * m is not a pivot either. Every pivot is thus a
candidate, every other column lies in the span of earlier pivots, and
elimination on the candidates keeps exactly the full matrix's pivots. Over Q
a point is evaluated at its integer representative, which scales its
degree-d row by a nonzero constant and so moves no rank, pivot column,
separator or RREF. Only the witness of a failing degree is read off an RREF
of the full evaluation matrix.

`ideal_basis` reads the reduced degrevlex basis of I(X) off the same
evaluations, over GF(p) when no point lies on x_r = 0. Then x_r is a
nonzerodivisor modulo I(X), and I(X) is the homogenization of the ideal of
the affine points x / x_r in the chart x_r = 1. Homogenizing the reduced
graded basis of that affine ideal gives the reduced basis of I(X) under the
order that compares degrees first and then the affine parts (Cox, Little &
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 8 section 4), and on the
forms of one degree that order is degrevlex. The affine basis is the ideal
of points by linear algebra (Moeller & Buchberger 1982; Marinari, Moeller &
Mora 1993): walk the affine monomials in increasing degrevlex order along
the border of the standard set; a monomial whose evaluation vector lies in
the span of the earlier standard ones is a minimal lead, and the dependency
is its basis element.
"""

import math
from functools import cached_property
from itertools import combinations

from .errors import BudgetExceededError
from .linalg import add_row, eliminate, integer_rows, nullspace_vector, rank
from .poly import DEGREVLEX, Polynomial, monomials_of_degree
from .records import record

DEFAULT_SUBSET_BUDGET = 20000
MAX_RESAMPLES = 1000  # random_point_set gives up after this many repeats


def binom(n, k):
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def nu(e, r):
    """Least n with e <= C(n+r, r): the degree where a generic Hilbert function tops out."""
    if e < 1:
        raise ValueError("need at least one point")
    n = 0
    while binom(n + r, r) < e:
        n += 1
    return n


def normalize_point(coords, field):
    coords = [field(c) for c in coords]
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("projective point with all coordinates zero")
    if p := field.p:
        inv = pow(lead, -1, p)
        return tuple([c * inv % p for c in coords])
    inv = field.inv(lead)
    return tuple(field(c * inv) for c in coords)


class PointSet(record("PointSet", "r field points")):
    """Distinct points of P^r, each normalized so its first nonzero coordinate
    is 1. `echelon(d)` fills a per-set memo, kept in the instance dict, that
    equality, hashing and repr ignore."""

    @classmethod
    def of(cls, r, field, coords):
        pts = []
        for c in coords:
            if len(c) != r + 1:
                raise ValueError("point with %d coordinates in P^%d" % (len(c), r))
            pts.append(normalize_point(c, field))
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        return cls(r, field, tuple(pts))

    @property
    def e(self):
        return len(self.points)

    def subset(self, idxs):
        return PointSet(self.r, self.field, tuple(self.points[i] for i in idxs))

    @cached_property
    def _echelons(self):
        return {}

    @cached_property
    def _coords(self):  # the points as `evaluation_matrix` evaluates them
        return self.points if self.field.p else integer_rows(self.points, self.field)

    def echelon(self, d):
        """(rows, monos): the pivot monomials of the degree-d evaluation
        matrix, lex descending, and its rows restricted to them, built once
        from degree d-1 (see the module docstring): forward elimination on
        the distinct x_i * m, m a degree-(d-1) pivot, sorted as
        `monomials_of_degree` sorts."""
        if d in self._echelons:
            return self._echelons[d]
        p = self.field.p
        if d == 0:
            monos, rows = [(0,) * (self.r + 1)], [[1] for _ in self.points]
        else:
            old, prev = self.echelon(d - 1)
            cands = {m[:i] + (m[i] + 1,) + m[i + 1:]: (j, i)
                     for j, m in enumerate(prev) for i in range(self.r + 1)}
            monos = sorted(cands, reverse=True)
            cells = [cands[m] for m in monos]
            rows = [[row[j] * pt[i] if p is None else row[j] * pt[i] % p
                     for j, i in cells] for row, pt in zip(old, self._coords)]
        piv = [c for c, _ in eliminate(rows, p)]
        got = [[row[c] for c in piv] for row in rows], [monos[c] for c in piv]
        self._echelons[d] = got
        return got


def evaluation_matrix(X, n):
    """Rows indexed by points, columns by the degree-n monomials (lex descending).

    Over GF(p) each product is reduced mod p as it is formed. Over Q each
    point is cleared of denominators first (primitive, as its first nonzero
    coordinate is 1), so the rows are ints.
    """
    monos = monomials_of_degree(X.r + 1, n)
    p = X.field.p
    rows = []
    for pt in X.points if p else integer_rows(X.points, X.field):
        row = []
        for m in monos:
            v = 1
            for x, exp in zip(pt, m):
                if exp:
                    v = v * x ** exp if p is None else v * x ** exp % p
            row.append(v)
        rows.append(row)
    return rows, monos


def hilbert_function(X, n):
    """Rank of the degree-n evaluation matrix."""
    rows, _ = evaluation_matrix(X, n)
    return rank(rows, X.field)


def ideal_basis(X):
    """The reduced degrevlex basis of I(X), in ascending lead order as
    `buchberger` returns it, for X over GF(p) with no point on x_r = 0 (see
    the module docstring); ValueError otherwise.

    The affine monomials in x_0..x_(r-1) come off a heap in increasing
    degrevlex order, from 1 along the border of the standard set: multiples
    of a lead are skipped, and a standard monomial pushes its r successors.
    A monomial's evaluation vector at the affine points is its parent's
    times one coordinate. A pivot row is a monic reduced vector followed by
    the combination of the standard vectors that gives it, so reducing the
    vector of m, followed by zeros, leaves a residue followed by some c. A
    zero residue makes m + sum c_s * s, over the smaller standard s, vanish
    on X: that is the basis element of lead m, homogenized to its degree.
    Otherwise m is standard, and its row joins the pivots. At most e
    monomials are standard."""
    from heapq import heappop, heappush  # loaded on first use
    p, r, e = X.field.p, X.r, X.e
    if p is None:
        raise ValueError("ideal_basis needs a prime field")
    if any(not pt[r] for pt in X.points):
        raise ValueError("a point lies on x%d = 0" % r)
    inverses = [pow(pt[r], -1, p) for pt in X.points]
    coords = [[pt[i] * w % p for pt, w in zip(X.points, inverses)]
              for i in range(r)]  # coords[i]: x_i / x_r at each point
    one = (0,) * r
    heap = [(DEGREVLEX.key(one), one, None, 0)]
    seen = {one}
    standard, values, pivots, leads, basis = [], [], [], [], []
    while heap:
        _, m, parent, i = heappop(heap)
        if any(all(a >= b for a, b in zip(m, lead)) for lead in leads):
            continue
        vec = ([1] * e if parent is None else
               [a * b % p for a, b in zip(values[parent], coords[i])])
        res = vec + [0] * len(standard)
        for col, row in pivots:
            if f := res[col]:
                res[:len(row)] = [(a - f * b) % p for a, b in zip(res, row)]
        col = next((c for c in range(e) if res[c]), None)
        if col is None:
            d = sum(m)
            terms = {m + (0,): 1}
            for s, c in zip(reversed(standard), reversed(res[e:])):
                if c:
                    terms[s + (d - sum(s),)] = c
            leads.append(m)
            basis.append(Polynomial(r + 1, X.field, terms, DEGREVLEX))
            continue
        inv = pow(res[col], -1, p)
        pivots.append((col, [v * inv % p for v in res + [1]]))
        standard.append(m)
        values.append(vec)
        for i in range(r):
            child = m[:i] + (m[i] + 1,) + m[i + 1:]
            if child not in seen:
                seen.add(child)
                heappush(heap, (DEGREVLEX.key(child), child,
                                len(standard) - 1, i))
    return tuple(basis)


class GenericityCertificate(record(
        "GenericityCertificate", "generic t e r checked_degrees hilbert_values"
        " failing_degree witness failing_subset", (None, None, None))):
    """Outcome of a generic-position check, with an explicit failure witness:
    a degree-n form vanishing on the failing subset, whose point indices are
    None when t == e."""

    __slots__ = ()

    def as_dict(self):
        return {
            "generic": self.generic,
            "t": self.t,
            "e": self.e,
            "r": self.r,
            "checked_degrees": list(self.checked_degrees),
            "hilbert_values": list(self.hilbert_values),
            "failing_degree": self.failing_degree,
            "witness": None if self.witness is None else self.witness.text(),
            "failing_subset": (None if self.failing_subset is None
                               else list(self.failing_subset)),
        }


def _generic_check(X):
    """(failing_degree, witness, hilbert_values) over degrees 0..nu(e, r)."""
    bound = nu(X.e, X.r)
    values = []
    for n in range(bound + 1):
        h = len(X.echelon(n)[1])
        values.append(h)
        if h < min(X.e, binom(n + X.r, X.r)):
            rows, monos = evaluation_matrix(X, n)
            vec = nullspace_vector(rows, len(monos), X.field)
            witness = Polynomial(X.r + 1, X.field, dict(zip(monos, vec)))
            lead = next(c for c in vec if c)
            witness = witness * X.field.inv(lead)
            return n, witness, values
    return None, None, values


def is_generic_position(X):
    """Certify generic position by checking ranks up to degree nu(e, r)."""
    failing, witness, values = _generic_check(X)
    return GenericityCertificate(
        generic=failing is None, t=X.e, e=X.e, r=X.r,
        checked_degrees=tuple(range(len(values))),
        hilbert_values=tuple(values),
        failing_degree=failing, witness=witness)


def _separated_points(rows, p):
    """Points q with a separator in this degree (a form vanishing on every
    other point but not on q): exactly those where every left-kernel vector
    of the evaluation matrix is 0. The left kernel is the null space of the
    transposed pivot columns `rows`, so q is separated when it is a pivot of
    their reduced form whose row is zero on every free column."""
    if len(rows[0]) == len(rows):  # full row rank: no left kernel
        return set(range(len(rows)))
    red = eliminate([list(col) for col in zip(*rows)], p, reduced=True)
    free = set(range(len(rows))) - {q for q, _ in red}
    return {q for q, row in red if not any(row[f] for f in free)}


def _first_failing_subset(X, t):
    """Lex-first t-subset of X not in generic position, or None.

    A t-set is in generic position exactly when two degrees pass, with
    n = nu(t, r): in degree n-1 no form vanishes on it (full column rank,
    which carries down to every lower degree) and in degree n its points are
    separated (full row rank). Row-subset ranks are read on the pivot columns
    of X's evaluation matrix, which span its column space. For t = e-1 the
    subset X minus q has rank H_X(d) - [q has a degree-d separator], so no
    subset is enumerated; the lex-first failing one omits the largest bad q.

    Otherwise the t-subsets are walked in lex order, depth first: a subset
    keeps the echelons of the prefix it shares with the one before and adds
    its other rows one at a time. Once a prefix's rank plus the rows still to
    come falls short of a degree's target, every subset with that prefix
    fails, and the current one is the lex-first of them.
    """
    n = nu(t, X.r)
    degrees = [d for d in (n - 1, n) if d >= 0]
    p = X.field.p
    if t == X.e - 1:
        bad = set()
        for d in degrees:
            rows, monos = X.echelon(d)
            want = min(t, binom(d + X.r, X.r))
            sep = _separated_points(rows, p)
            bad.update(q for q in range(X.e)
                       if len(monos) - (q in sep) != want)
        if not bad:
            return None
        return tuple(i for i in range(X.e) if i != max(bad))
    targets = []
    for d in degrees:
        targets.append((X.echelon(d)[0], min(t, binom(d + X.r, X.r)), []))
    sizes = [[0] * len(targets)]  # echelon sizes before each row of prev
    prev = (-1,) * t
    for idxs in combinations(range(X.e), t):
        k = next(j for j, (a, b) in enumerate(zip(prev, idxs)) if a != b)
        prev = idxs
        del sizes[k + 1:]
        for (_, _, ech), size in zip(targets, sizes[k]):
            del ech[size:]
        for j in range(k, t):
            for sub, want, ech in targets:
                if len(ech) < want:
                    add_row(ech, sub[idxs[j]], p)
                if len(ech) + t - 1 - j < want:
                    return idxs
            sizes.append([len(ech) for _, _, ech in targets])
    return None


def is_generic_t_position(X, t, subset_budget=DEFAULT_SUBSET_BUDGET):
    """Certify that every t-subset is in generic position, subsets in lex order.

    Reads X's echelons in degrees nu(t, r) - 1 and nu(t, r). A failing
    certificate is the per-subset `_generic_check` of the lex-first failing
    subset.
    """
    if not 1 <= t <= X.e:
        raise ValueError("t must be between 1 and e")
    total = binom(X.e, t)
    if total > subset_budget:
        raise BudgetExceededError(
            "C(%d, %d) = %d subsets exceed budget %d" % (X.e, t, total, subset_budget))
    idxs = _first_failing_subset(X, t)
    if idxs is not None:
        failing, witness, values = _generic_check(X.subset(idxs))
        assert failing is not None, idxs
        return GenericityCertificate(
            generic=False, t=t, e=X.e, r=X.r,
            checked_degrees=tuple(range(len(values))),
            hilbert_values=tuple(values),
            failing_degree=failing, witness=witness, failing_subset=idxs)
    return GenericityCertificate(
        generic=True, t=t, e=X.e, r=X.r,
        checked_degrees=tuple(range(nu(t, X.r) + 1)),
        hilbert_values=(), failing_degree=None)


def random_point_set(rng, e, r, field):
    """e distinct random points of P^r; returns (point set, resample count)."""
    pts = []
    seen = set()
    resamples = 0
    while len(pts) < e:
        coords = [field.random(rng) for _ in range(r + 1)]
        if all(c == field.zero for c in coords):
            resamples += 1
            continue
        p = normalize_point(coords, field)
        if p in seen:
            resamples += 1
            if resamples > MAX_RESAMPLES:
                raise RuntimeError("could not draw %d distinct points" % e)
            continue
        seen.add(p)
        pts.append(p)
    return PointSet(r, field, tuple(pts)), resamples
