"""Conductor formulas checked against independent oracles.

Each model computes the conductor two ways: a formula predicted by the graded
structure (a power of the maximal ideal, or an intersection of prime powers)
and a brute-force oracle that knows nothing about the formula. Certificates
report claimed vs oracle plus the hypotheses the prediction needs; a mismatch
is a first-class result, not an error. The points model only calls the checks
of `points`; the point set itself shares its degree echelons among them.
"""

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, product as iproduct

from .errors import StabilizationError
from .groebner import (Ideal, ideal_equal, ideal_intersect, ideal_member,
                       ideal_power, saturation)
from .linalg import rank, rref
from .points import (DEFAULT_SUBSET_BUDGET, hilbert_profile,
                     is_generic_position, is_generic_t_position, nu)
from .poly import Polynomial


@dataclass(frozen=True)
class ConductorCertificate:
    model: str
    claimed: dict
    oracle: dict
    hypotheses: dict
    verdict: str  # "match" | "mismatch" | "hypotheses-failed"
    details: dict = dataclass_field(default_factory=dict)

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

def points_conductor_sigma(X, dmax=None):
    """Least degree from which the coordinate ring fills all of k^e, checked
    through dmax. This is the degree where the graded conductor starts."""
    floor = nu(X.e, X.r) + 2
    if dmax is None:
        dmax = floor + 2
    elif dmax < floor:
        raise ValueError("dmax must be at least nu + 2 = %d" % floor)
    prof = hilbert_profile(X, dmax)
    if prof.stabilization_degree is None:
        raise StabilizationError("no full-rank degree through %d (H = %s)"
                                 % (dmax, list(prof.values)))
    return prof.stabilization_degree, prof.values


def points_conductor_certificate(X, dmax=None,
                                 subset_budget=DEFAULT_SUBSET_BUDGET):
    """Conductor exponent of the cone over X: claimed nu(e, r) vs graded oracle.

    The prediction needs X in generic position and in generic (e-1)-position;
    when either fails the verdict is hypotheses-failed with both numbers still
    reported. The oracle and both hypothesis checks read X's memoized degree
    echelons, so each degree is reduced once.
    """
    claimed_nu = nu(X.e, X.r)
    sigma, values = points_conductor_sigma(X, dmax)
    full = is_generic_position(X)
    sub_ok = X.e < 2 or is_generic_t_position(X, X.e - 1,
                                              subset_budget).generic
    hypotheses = {
        "generic_position": full.generic,
        "generic_position_e_minus_1": sub_ok,
    }
    if not (full.generic and sub_ok):
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

@dataclass(frozen=True)
class NumericalSemigroup:
    """Numerical semigroup with its gap data (gcd of generators must be 1)."""

    generators: tuple
    minimal_generators: tuple
    apery: tuple  # smallest element per residue class mod multiplicity
    gaps: tuple
    frobenius: int  # -1 when there are no gaps
    conductor: int
    multiplicity: int
    emdim: int

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

def monomial_semigroup_points(generators, box):
    """Lattice points of the affine semigroup inside [0, box]^k."""
    k = len(generators[0])
    reached = {(0,) * k}
    frontier = [(0,) * k]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                w = tuple(a + b for a, b in zip(v, g))
                if all(c <= box for c in w) and w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    return reached


def monomial_conductor(generators, box):
    """Conductor lattice points within the comparison window [0, box//2]^k.

    A window point v is in the conductor when v + w lands in the semigroup for
    every point w of the ambient monoid N^k that keeps v + w inside the box;
    the margin of box - box//2 in every coordinate is what makes the bounded
    check honest. Errors when the far corner of the window is not entirely in
    the conductor (the box is then too small to see the stable region).

    One sweep down the box marks each point u "bad" when some point between
    u and the far corner of the box lies outside the semigroup, from its own
    membership and its k upper neighbours: O(k * (box+1)^k) in all.
    """
    if isinstance(box, bool) or not isinstance(box, int) or box < 1:
        raise ValueError("box must be a positive integer, got %r" % (box,))
    if not generators:
        raise ValueError("need at least one generator")
    k = len(generators[0])
    if any(len(g) != k for g in generators):
        raise ValueError("generators of mixed dimension")
    if any(min(g) < 0 or max(g) < 1 for g in generators):
        raise ValueError("generators must be nonzero nonnegative vectors")
    grid = monomial_semigroup_points(generators, box)
    window = box // 2
    bad = set()
    # decreasing lexicographic order visits every u + e_i before u
    for u in iproduct(range(box, -1, -1), repeat=k):
        if u not in grid or any(u[:i] + (u[i] + 1,) + u[i + 1:] in bad
                                for i in range(k) if u[i] < box):
            bad.add(u)
    conductor = {v for v in iproduct(range(window + 1), repeat=k)
                 if v not in bad}
    maxgen = max(max(g) for g in generators)
    corner_lo = max(window - maxgen, 0)
    for v in iproduct(range(corner_lo, window + 1), repeat=k):
        if v not in conductor:
            raise StabilizationError(
                "far corner %s of the window is not in the conductor; "
                "enlarge the box (box=%d)" % (v, box))
    for v in conductor:
        for g in generators:
            w = tuple(a + b for a, b in zip(v, g))
            if all(c <= window for c in w):
                assert w in conductor, "conductor not closed under the semigroup"
    return conductor, window


def up_closure(vectors, window):
    """All window points componentwise >= some given vector."""
    out = set()
    for base in vectors:
        ranges = [range(b, window + 1) for b in base]
        for v in iproduct(*ranges):
            out.add(v)
    return out


def monomial_conductor_certificate(generators, box, candidate):
    """Compare the bounded conductor against candidate * (full normalization).

    `candidate` is a list of exponent vectors generating the claimed conductor
    as an ideal of the normalization's monomial lattice.
    """
    cond, window = monomial_conductor(generators, box)
    cand = up_closure(candidate, window)
    missing = sorted(cand - cond)
    extra = sorted(cond - cand)
    verdict = "match" if not missing and not extra else "mismatch"
    return ConductorCertificate(
        model="monomial-algebra",
        claimed={"generators": [list(c) for c in sorted(candidate)],
                 "points_in_window": len(cand)},
        oracle={"points_in_window": len(cond), "window": window, "box": box},
        hypotheses={"window_stable": True},
        verdict=verdict,
        details={"first_missing": list(missing[0]) if missing else None,
                 "first_extra": list(extra[0]) if extra else None})


# ---------------------------------------------------------------- hyperplane arrangements

def _linear_coeffs(form):
    if form.degree() != 1 or not form.is_homogeneous():
        raise ValueError("forms must be homogeneous linear")
    coeffs = []
    for i in range(form.nvars):
        m = tuple(1 if j == i else 0 for j in range(form.nvars))
        coeffs.append(form.terms.get(m, form.field.zero))
    return coeffs


def _product_except(forms, skip):
    out = None
    for j, f in enumerate(forms):
        if j == skip:
            continue
        out = f if out is None else out * f
    return out


def arrangement_conductor_ideal(forms):
    """Conductor of a reduced hyperplane-union coordinate ring into its
    normalization, pulled back to the polynomial ring: the intersection over i
    of (L_i) + (prod of the other forms)."""
    if len(forms) < 2:
        raise ValueError("need at least two hyperplanes")
    out = None
    for i, f in enumerate(forms):
        piece = Ideal(f.nvars, f.field, [f, _product_except(forms, i)])
        out = piece if out is None else ideal_intersect(out, piece)
    return out


def arrangement_strata(forms):
    """Pairwise intersection strata: (defining rows, multiplicity, hyperplane ids).

    Rows are the canonical RREF of each codimension-2 stratum; the multiplicity
    is the number of input hyperplanes containing the stratum.
    """
    field = forms[0].field
    vecs = [_linear_coeffs(f) for f in forms]
    for i, j in combinations(range(len(forms)), 2):
        if rank([vecs[i], vecs[j]], field) < 2:
            raise ValueError("forms %d and %d are proportional" % (i, j))
    strata = []
    seen = {}
    for i, j in combinations(range(len(forms)), 2):
        red, _ = rref([vecs[i], vecs[j]], field)
        key = tuple(tuple(row) for row in red)
        if key in seen:
            continue
        members = [l for l in range(len(forms))
                   if rank([red[0], red[1], vecs[l]], field) == 2]
        seen[key] = True
        strata.append((red, len(members), tuple(members)))
    return strata


def arrangement_certificate(forms):
    """Check conductor = intersection of stratum primes to the power e_k - 1.

    Each stratum is a codimension-one prime of the hypersurface union; its
    local ring sees e_k concurrent hyperplane traces in a plane transverse to
    the stratum (e_k distinct points of a projective line, always in generic
    position), so the predicted local exponent is nu(e_k, 1) = e_k - 1.
    """
    oracle = arrangement_conductor_ideal(forms)  # checks len(forms) >= 2
    field = forms[0].field
    nvars = forms[0].nvars
    strata = arrangement_strata(forms)
    formula = None
    detail = []
    for red, e_k, members in strata:
        prime = Ideal(nvars, field, [
            Polynomial(nvars, field,
                       {tuple(1 if j == i else 0 for j in range(nvars)): c
                        for i, c in enumerate(row) if c != field.zero})
            for row in red])
        power = ideal_power(prime, e_k - 1)
        formula = power if formula is None else ideal_intersect(formula, power)
        detail.append({"hyperplanes": list(members), "multiplicity": e_k,
                       "local_exponent": e_k - 1})
    total = _product_except(forms, -1)
    formula = Ideal(nvars, field, tuple(formula.gens) + (total,))
    agree = ideal_equal(oracle, formula)
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
        verdict="match" if agree else "mismatch",
        details={"strata": detail})


# ---------------------------------------------------------------- symbolic powers

def symbolic_power(q, m, s):
    """m-th symbolic power of the prime q, as saturation of q^m at s, where s
    is a witness outside q."""
    if ideal_member(s, q):
        raise ValueError("saturation witness lies in the ideal")
    sat, _ = saturation(ideal_power(q, m), s)
    return sat
