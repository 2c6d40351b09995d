"""Conductor formulas checked against independent oracles.

Each model computes the conductor two ways: a formula predicted by the graded
structure (a power of the maximal ideal, or an intersection of prime powers)
and a brute-force oracle that knows nothing about the formula. Certificates
report claimed vs oracle plus the hypotheses the prediction needs; a mismatch
is a first-class result, not an error. The points model reads its oracle and
both hypotheses off the point set's memoized degree echelons.
"""

from itertools import combinations, product as iproduct

from .errors import StabilizationError
from .groebner import (Ideal, ideal_equal, ideal_intersect, ideal_member,
                       ideal_power, saturation)
from .linalg import kernel_vector, rref
from .points import PointSet, _first_failing_subset, binom, ideal_basis, nu
from .records import record


class ConductorCertificate(record(
        "ConductorCertificate",
        "model claimed oracle hypotheses verdict details")):
    """The verdict is "match", "mismatch" or "hypotheses-failed"; `details`
    defaults to a fresh dict."""

    __slots__ = ()

    def __new__(cls, model, claimed, oracle, hypotheses, verdict,
                details=None):
        return super().__new__(cls, model, claimed, oracle, hypotheses,
                               verdict, {} if details is None else details)

    @property
    def hypotheses_failed(self):
        return self.verdict == "hypotheses-failed" or any(
            v is False for v in self.hypotheses.values())

    def as_dict(self):
        return {
            "model": self.model,
            "claimed": self.claimed,
            "oracle": self.oracle,
            "hypotheses": self.hypotheses,
            "verdict": self.verdict,
            "details": self.details,
        }


# ---------------------------------------------------------------- points

def points_conductor_sigma(X):
    """Least degree sigma from which the coordinate ring fills all of k^e,
    where the graded conductor starts, and H(0..max(nu + 4, sigma)). sigma
    <= e - 1: for each point p, a product of e - 1 linear forms, one through
    each other point and not through p, separates p. Ranks stop at sigma: a
    degree-d separator of p times a coordinate not vanishing at p is one in
    degree d+1, so H(d') = e for every d' > d."""
    values = []
    for d in range(X.e):
        values.append(len(X.echelon(d)[1]))
        if values[-1] == X.e:
            break
    sigma = len(values) - 1
    return sigma, tuple(values + [X.e] * (nu(X.e, X.r) + 4 - sigma))


def points_conductor_certificate(X):
    """Conductor exponent of the cone over X: claimed nu(e, r) vs graded oracle.

    The prediction needs X in generic position and in generic (e-1)-position;
    when either fails the verdict is hypotheses-failed with both numbers still
    reported. Both are read off ranks, with no witness: sigma >= nu, as
    H(d) <= C(d+r, r) < e below nu, so the oracle's values hold H(0..nu), and
    (e-1)-position is read off separators (`_first_failing_subset`).
    """
    claimed_nu = nu(X.e, X.r)
    sigma, values = points_conductor_sigma(X)
    sub = X.e < 2 or _first_failing_subset(X, X.e - 1) is None
    hypotheses = {
        "generic_position": all(values[n] == min(X.e, binom(n + X.r, X.r))
                                for n in range(claimed_nu + 1)),
        "generic_position_e_minus_1": sub,
    }
    if not all(hypotheses.values()):
        verdict = "hypotheses-failed"
    elif sigma == claimed_nu:
        verdict = "match"
    else:
        verdict = "mismatch"
    return ConductorCertificate(
        model="graded-points",
        claimed={"conductor": "maximal ideal power", "exponent": claimed_nu},
        oracle={"sigma": sigma, "hilbert_values": list(values)},
        hypotheses=hypotheses,
        verdict=verdict,
        details={"e": X.e, "r": X.r})


# ---------------------------------------------------------------- semigroups

class NumericalSemigroup(record(
        "NumericalSemigroup", "generators minimal_generators apery gaps"
        " frobenius conductor multiplicity emdim")):
    """Numerical semigroup with its gap data (gcd of generators must be 1):
    `apery` holds the smallest element per residue class mod multiplicity,
    and `frobenius` is -1 when there are no gaps."""

    __slots__ = ()

    @classmethod
    def from_generators(cls, gens):
        import math
        gens = tuple(sorted(set(int(g) for g in gens)))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise ValueError("generators must have gcd 1 (finitely many gaps)")
        m = gens[0]
        ap = [None] * m  # None: no element of this residue class found yet
        ap[0] = 0
        for _ in range(m):
            changed = False
            for res in range(m):
                if ap[res] is None:
                    continue
                for g in gens:
                    v = ap[res] + g
                    if ap[v % m] is None or v < ap[v % m]:
                        ap[v % m] = v
                        changed = True
            if not changed:
                break
        assert None not in ap
        frob = max(ap) - m
        gaps = tuple(n for n in range(1, frob + 1) if n < ap[n % m])

        def contains(n):
            return n >= 0 and n >= ap[n % m]

        minimal = tuple(g for g in gens
                        if not any(contains(h) and contains(g - h)
                                   for h in range(1, g)))
        return cls(generators=gens, minimal_generators=minimal,
                   apery=tuple(ap), gaps=gaps, frobenius=frob,
                   conductor=frob + 1, multiplicity=minimal[0],
                   emdim=len(minimal))

    def contains(self, n):
        return n >= 0 and n >= self.apery[n % self.multiplicity]


def semigroup_certificate(gens):
    """Negative control: a semigroup ring is unibranch, so the power formula's
    distinct-tangents hypothesis always fails for multiplicity >= 2; the
    certificate still compares the predicted conductor against the true one,
    so coincidental agreement (e.g. <2,3>) stays visible as verdict match with
    the failed hypothesis flagged alongside.

    The prediction is the extension of the nu-th maximal-ideal power to the
    normalization k[t], which is t^(nu*e)k[t]: order is additive, so a sum of
    nu elements of m has order at least nu*e, and t^(nu*e) = (t^e)^nu is one.
    The oracle conductor is t^c k[t]. Both are reported within the window
    [0, c + nu*e + 5]; the sets are intervals, so any divergence shows at
    their start points.
    """
    S = NumericalSemigroup.from_generators(gens)
    if S.multiplicity < 2:
        raise ValueError("multiplicity 1 semigroup is already normal")
    r = S.emdim - 1
    nv = nu(S.multiplicity, r)
    window = S.conductor + nv * S.multiplicity + 5
    start = nv * S.multiplicity
    predicted = list(range(start, window + 1))
    oracle_set = list(range(S.conductor, window + 1))
    agrees = start == S.conductor
    escape = next((n for n in predicted if not S.contains(n)), None)
    return ConductorCertificate(
        model="numerical-semigroup",
        claimed={"conductor": "maximal ideal power times normalization",
                 "exponent": nv, "start": start, "exponent_set": predicted},
        oracle={"conductor_start": S.conductor, "exponent_set": oracle_set,
                "gaps": list(S.gaps), "frobenius": S.frobenius},
        hypotheses={
            "distinct_tangents": False,
            "reason": "unibranch germ of multiplicity %d: the tangent cone is "
                      "one point counted %d times, never %d distinct points"
                      % (S.multiplicity, S.multiplicity, S.multiplicity),
        },
        verdict="match" if agrees else "mismatch",
        details={"first_divergence": None if agrees else min(start, S.conductor),
                 "predicted_escapes_ring_at": escape,
                 "window": window,
                 "multiplicity": S.multiplicity,
                 "emdim": S.emdim})


# ---------------------------------------------------------------- monomial algebras
#
# A set of lattice points in a box [0, n]^k is held by rows: a dict keyed by
# the first k - 1 coordinates (the prefix), whose int has bit j set when the
# point prefix + (j,) is in the set. An up-closed set, such as the conductor
# or a candidate's ideal, is a run of high bits in each row, so its row is
# kept as the first point of that run (n + 1 for an empty row).

def _monomial_dimension(generators, box):
    """k for generators in N^k, after checking them and the box."""
    if isinstance(box, bool) or not isinstance(box, int) or box < 1:
        raise ValueError("box must be a positive integer, got %r" % (box,))
    if not generators:
        raise ValueError("need at least one generator")
    k = len(generators[0])
    if any(len(g) != k for g in generators):
        raise ValueError("generators of mixed dimension")
    if k == 0 or any(min(g) < 0 or max(g) < 1 for g in generators):
        raise ValueError("generators must be nonzero nonnegative vectors")
    return k


def monomial_semigroup_rows(generators, box):
    """Rows of the affine semigroup's points inside [0, box]^k.

    A generator whose first k - 1 entries are zero moves points along their
    row; any other moves them to a row later in lex order. So rows visited
    in lex order have received every point from earlier rows when they are
    closed under the first kind and shifted on by the second.
    """
    k = len(generators[0])
    full = (1 << (box + 1)) - 1
    along = [g[-1] for g in generators if not any(g[:-1])]
    across = [g for g in generators if any(g[:-1])]
    rows = {(0,) * (k - 1): 1}
    for prefix in iproduct(range(box + 1), repeat=k - 1):
        m = rows.get(prefix)
        if not m:
            continue
        for s in along:
            while s <= box:  # adds every multiple of s, doubling the step
                m |= m << s & full
                s += s
        rows[prefix] = m
        for g in across:
            target = tuple(a + b for a, b in zip(prefix, g))
            if all(c <= box for c in target):
                rows[target] = rows.get(target, 0) | m << g[-1] & full
    return rows


def _monomial_conductor_rows(generators, box):
    """The conductor inside the comparison window [0, box//2]^k as up-closed
    rows (the first point of each), and the window. A window point v is in
    the conductor when v + w lies in the semigroup for every w in N^k that
    keeps v + w inside the box; the margin of box - box//2 in every
    coordinate is what makes the bounded check honest. StabilizationError
    is raised when the far corner of the window is not entirely in the
    conductor: the box is then too small to see the stable region."""
    k = len(generators[0])
    grid = monomial_semigroup_rows(generators, box)
    full = (1 << (box + 1)) - 1
    # bad[p] = t: the points p + (j,) with j < t have a non-semigroup point
    # between them and the far corner; decreasing lex order visits every
    # p + e_i before p
    bad = {}
    for p in iproduct(range(box, -1, -1), repeat=k - 1):
        t = (~grid.get(p, 0) & full).bit_length()
        for i in range(k - 1):
            if p[i] < box:
                t = max(t, bad[p[:i] + (p[i] + 1,) + p[i + 1:]])
        bad[p] = t
    window = box // 2
    cond = {p: min(bad[p], window + 1)
            for p in iproduct(range(window + 1), repeat=k - 1)}
    maxgen = max(max(g) for g in generators)
    corner_lo = max(window - maxgen, 0)
    for p in iproduct(range(corner_lo, window + 1), repeat=k - 1):
        if cond[p] > corner_lo:
            raise StabilizationError(
                "far corner %s of the window is not in the conductor; "
                "enlarge the box (box=%d)" % (p + (corner_lo,), box))
    for p, first in cond.items():
        for g in generators:
            target = tuple(a + b for a, b in zip(p, g))
            moved = first + g[-1]  # first point of p's row shifted by g
            if all(c <= window for c in target):
                assert moved > window or cond[target] <= moved, \
                    "conductor not closed under the semigroup"
    return cond, window


def monomial_conductor_certificate(generators, box, candidate):
    """Compare the bounded conductor against candidate * (full normalization).

    `candidate` is a list of exponent vectors generating the claimed conductor
    as an ideal of the normalization's monomial lattice; each must have the
    generators' length and no negative entry, or ValueError names it before
    any lattice work.
    """
    k = _monomial_dimension(generators, box)
    for i, c in enumerate(candidate):
        if len(c) != k or min(c) < 0:
            raise ValueError("candidate[%d]: expected %d nonnegative integers, "
                             "got %s" % (i, k, list(c)))
    cond, window = _monomial_conductor_rows(generators, box)
    cand = dict.fromkeys(cond, window + 1)
    for c in candidate:
        for p in iproduct(*(range(a, window + 1) for a in c[:-1])):
            cand[p] = min(cand[p], c[-1])
    missing = next((p + (cand[p],) for p in cond if cand[p] < cond[p]), None)
    extra = next((p + (cond[p],) for p in cond if cond[p] < cand[p]), None)
    verdict = "match" if missing is None and extra is None else "mismatch"
    return ConductorCertificate(
        model="monomial-algebra",
        claimed={"generators": [list(c) for c in sorted(candidate)],
                 "points_in_window": sum(window + 1 - f
                                         for f in cand.values())},
        oracle={"points_in_window": sum(window + 1 - f for f in cond.values()),
                "window": window, "box": box},
        hypotheses={"window_stable": True},
        verdict=verdict,
        details={"first_missing": list(missing) if missing else None,
                 "first_extra": list(extra) if extra else None})


# ---------------------------------------------------------------- hyperplane arrangements

def _linear_coeffs(form):
    if form.degree() != 1 or not form.is_homogeneous():
        raise ValueError("forms must be homogeneous linear")
    coeffs = []
    for i in range(form.nvars):
        m = tuple(1 if j == i else 0 for j in range(form.nvars))
        coeffs.append(form.terms.get(m, form.field.zero))
    return coeffs


def _products_except(forms):
    """The product of all forms but L_i, for each i, from prefix and suffix
    products: 3n - 6 multiplications for n >= 2 forms."""
    before, after = [forms[0]], [forms[-1]]
    for f, g in zip(forms[1:-1], forms[-2:0:-1]):
        before.append(before[-1] * f)
        after.append(g * after[-1])
    # before[i] = L_0 ... L_i and after[i] = L_(n-1-i) ... L_(n-1), i <= n - 2
    return ([after[-1]] + [a * b for a, b in zip(before, after[-2::-1])]
            + [before[-1]])


def arrangement_conductor_ideal(forms):
    """Conductor of a reduced hyperplane-union coordinate ring into its
    normalization, pulled back to the polynomial ring: the intersection over i
    of (L_i) + (prod of the other forms)."""
    if len(forms) < 2:
        raise ValueError("need at least two hyperplanes")
    return ideal_intersect(*(Ideal(f.nvars, f.field, [f, g])
                             for f, g in zip(forms, _products_except(forms))))


def arrangement_strata(forms):
    """Pairwise intersection strata: (defining rows, multiplicity, hyperplane ids).

    Rows are the canonical RREF of each codimension-2 stratum; the multiplicity
    is the number of input hyperplanes containing the stratum. A form lies on
    the stratum when it equals the combination of the two rows with its own
    entries at their pivot columns as coefficients.
    """
    field = forms[0].field
    vecs = [_linear_coeffs(f) for f in forms]
    strata = []
    seen = set()
    for i, j in combinations(range(len(forms)), 2):
        red, pivots = rref([vecs[i], vecs[j]], field)
        if len(pivots) < 2:
            raise ValueError("forms %d and %d are proportional" % (i, j))
        key = tuple(tuple(row) for row in red)
        if key in seen:
            continue
        seen.add(key)
        (c0, c1), (r0, r1) = pivots, red
        members = [l for l, v in enumerate(vecs)
                   if all(field(v[c0] * a + v[c1] * b) == x
                          for a, b, x in zip(r0, r1, v))]
        strata.append((red, len(members), tuple(members)))
    return strata


def _stratum_points_ideal(strata, nvars, field):
    """The formula side by `ideal_basis`, or None where it does not apply.

    With 3 variables and every e_k = 2, each P_k^(e_k - 1) is the ideal of
    the stratum's point of P^2, the kernel of its rows, so the intersection
    is I(X) for the C(n, 2) stratum points X. `ideal_basis` reads its reduced
    basis over GF(p) when no point lies on x2 = 0."""
    if nvars != 3 or field.p is None or any(e_k != 2 for _, e_k, _ in strata):
        return None
    points = []
    for red, _, _ in strata:
        pivots = [next(c for c, v in enumerate(row) if v) for row in red]
        points.append(kernel_vector(red, pivots, 3, field))
    if any(not pt[2] for pt in points):
        return None
    return Ideal.of_reduced_basis(
        nvars, field, ideal_basis(PointSet.of(2, field, points)))


def arrangement_certificate(forms):
    """Check conductor = intersection of stratum primes to the power e_k - 1.

    Each stratum is a codimension-one prime of the hypersurface union; its
    local ring sees e_k concurrent hyperplane traces in a plane transverse to
    the stratum (e_k distinct points of a projective line, always in generic
    position), so the predicted local exponent is nu(e_k, 1) = e_k - 1.

    The two sides run on different engines, and each carries its reduced
    degrevlex basis. The oracle is one `ideal_intersect` call, Buchberger
    eliminations. The formula is the ideal of the stratum points, read by
    linear algebra (`points.ideal_basis`), when all four of these hold: 3
    variables, a field GF(p), every e_k = 2, and no stratum point on
    x2 = 0. Otherwise it is one `ideal_intersect` call on the prime powers,
    each prime generated by the first two of its stratum's forms. The
    verdict compares the two reduced bases. The forms are validated, by
    `arrangement_strata`, before any elimination runs.
    """
    if len(forms) < 2:
        raise ValueError("need at least two hyperplanes")
    strata = arrangement_strata(forms)
    oracle = arrangement_conductor_ideal(forms)
    nvars, field = forms[0].nvars, forms[0].field
    detail = [{"hyperplanes": list(members), "multiplicity": e_k,
               "local_exponent": e_k - 1} for _, e_k, members in strata]
    formula = _stratum_points_ideal(strata, nvars, field)
    if formula is None:
        formula = ideal_intersect(*(
            ideal_power(Ideal(nvars, field, [forms[a], forms[b]]), e_k - 1)
            for _, e_k, (a, b, *_) in strata))
    hypotheses = {
        "pairwise_distinct_hyperplanes": True,
        "transverse_points_generic": True,
        "reason": "e_k distinct points of a projective line are always in "
                  "generic position",
    }
    return ConductorCertificate(
        model="hyperplane-arrangement",
        claimed={"basis": sorted(g.text() for g in
                 formula.groebner_basis())},
        oracle={"basis": sorted(g.text() for g in oracle.groebner_basis())},
        hypotheses=hypotheses,
        verdict="match" if ideal_equal(oracle, formula) else "mismatch",
        details={"strata": detail})


# ---------------------------------------------------------------- symbolic powers

def symbolic_power(q, m, s):
    """m-th symbolic power of the prime q, as saturation of q^m at s, where s
    is a witness outside q."""
    if ideal_member(s, q):
        raise ValueError("saturation witness lies in the ideal")
    return saturation(ideal_power(q, m), s)
