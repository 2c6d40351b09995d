"""Finite point sets in projective space: Hilbert ranks and genericity certificates.

A set of e points is in generic position when every degree-n evaluation matrix
has the maximal rank min(e, C(n+r, r)); it is in generic t-position when every
t-point subset is in generic position. Certificates carry the smallest failing
degree and an explicit hypersurface witness read off the null space.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError
from .linalg import nullspace_vector, rref
from .poly import Polynomial, monomials_of_degree

DEFAULT_SUBSET_BUDGET = 20000


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
    inv = field.inv(lead)
    return tuple(field(c * inv) for c in coords)


@dataclass(frozen=True)
class PointSet:
    """Distinct points of P^r, each normalized so its first nonzero coordinate is 1."""

    r: int
    field: object
    points: tuple

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


def evaluation_matrix(X, n):
    """Rows indexed by points, columns by the degree-n monomials (lex descending)."""
    monos = monomials_of_degree(X.r + 1, n)
    rows = []
    for p in X.points:
        row = []
        for m in monos:
            v = X.field.one
            for x, exp in zip(p, m):
                if exp:
                    v = v * x ** exp
            row.append(X.field(v))
        rows.append(row)
    return rows, monos


def hilbert_function(X, n):
    """Rank of the degree-n evaluation matrix."""
    rows, _ = evaluation_matrix(X, n)
    return len(rref(rows, X.field)[1])


@dataclass(frozen=True)
class HilbertProfile:
    values: tuple
    stabilization_degree: object  # int, or None if e was not reached

    def value(self, n):
        if n < len(self.values):
            return self.values[n]
        return self.values[-1]


def hilbert_profile(X, upto):
    """H(0..upto) plus the first degree where H reaches e (None if never)."""
    vals = tuple(hilbert_function(X, n) for n in range(upto + 1))
    stab = next((n for n, v in enumerate(vals) if v == X.e), None)
    return HilbertProfile(vals, stab)


@dataclass(frozen=True)
class GenericityCertificate:
    """Outcome of a generic-position check, with an explicit failure witness."""

    generic: bool
    t: int
    e: int
    r: int
    checked_degrees: tuple
    hilbert_values: tuple
    failing_degree: object = None
    witness: object = None          # degree-n form vanishing on the failing subset
    failing_subset: object = None   # point indices, None when t == e

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
        rows, monos = evaluation_matrix(X, n)
        red, pivots = rref(rows, X.field)
        h = len(pivots)
        values.append(h)
        if h < min(X.e, binom(n + X.r, X.r)):
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


def is_generic_t_position(X, t, subset_budget=DEFAULT_SUBSET_BUDGET):
    """Certify that every t-subset is in generic position, subsets in lex order."""
    if not 1 <= t <= X.e:
        raise ValueError("t must be between 1 and e")
    total = binom(X.e, t)
    if total > subset_budget:
        raise BudgetExceededError(
            "C(%d, %d) = %d subsets exceed budget %d" % (X.e, t, total, subset_budget))
    for idxs in combinations(range(X.e), t):
        sub = X.subset(idxs)
        failing, witness, values = _generic_check(sub)
        if failing is not None:
            return GenericityCertificate(
                generic=False, t=t, e=X.e, r=X.r,
                checked_degrees=tuple(range(len(values))),
                hilbert_values=tuple(values),
                failing_degree=failing, witness=witness, failing_subset=idxs)
    full = list(range(nu(t, X.r) + 1))
    return GenericityCertificate(
        generic=True, t=t, e=X.e, r=X.r,
        checked_degrees=tuple(full),
        hilbert_values=(), failing_degree=None)


def random_point_set(rng, e, r, field, max_tries=1000):
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
            if resamples > max_tries:
                raise RuntimeError("could not draw %d distinct points" % e)
            continue
        seen.add(p)
        pts.append(p)
    return PointSet(r, field, tuple(pts)), resamples
