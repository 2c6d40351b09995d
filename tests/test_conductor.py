import json
import math
import random
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from genpos import cli, conductor, points
from genpos.conductor import (ConductorCertificate, NumericalSemigroup,
                              _monomial_conductor_rows, _monomial_dimension,
                              arrangement_certificate,
                              arrangement_conductor_ideal,
                              arrangement_strata,
                              monomial_conductor_certificate,
                              monomial_semigroup_rows,
                              points_conductor_certificate,
                              points_conductor_sigma, semigroup_certificate,
                              symbolic_power)
from genpos.errors import BudgetExceededError, StabilizationError
from genpos.fixtures import (arrangement_forms, line_points,
                             off_conic_points, tangent_point_set)
from genpos.groebner import (Ideal, ideal_equal, ideal_intersect,
                             ideal_member, ideal_power)
from genpos.points import (PointSet, evaluation_matrix, hilbert_function,
                           is_generic_t_position, nu, random_point_set)
from genpos.poly import Polynomial, parse_polynomial
from genpos.scalars import QQ, PrimeField
from genpos.serialize import point_set_from_json


# ------------------------------------------------------------------ points

def test_sigma_frozen_values():
    sigma, values = points_conductor_sigma(tangent_point_set())
    assert sigma == 4
    assert values == (1, 3, 4, 5, 6, 6, 6)

    sigma, values = points_conductor_sigma(off_conic_points())
    assert sigma == 2
    assert values[:3] == (1, 3, 6)

    single = PointSet.of(2, QQ, [[1, 2, 3]])
    assert points_conductor_sigma(single)[0] == 0


def test_points_certificate_generic_match():
    cert = points_conductor_certificate(off_conic_points())
    assert cert.verdict == "match"
    assert cert.claimed["exponent"] == 2
    assert cert.oracle["sigma"] == 2
    assert cert.hypotheses == {"generic_position": True,
                               "generic_position_e_minus_1": True}
    assert not cert.hypotheses_failed
    d = cert.as_dict()
    assert d["model"] == "graded-points"
    # a certificate built without details gets a dict of its own
    a, b = (ConductorCertificate("m", {}, {}, {}, "match") for _ in range(2))
    assert a.details == {} and a.details is not b.details


def test_points_certificate_failed_hypotheses():
    cert = points_conductor_certificate(tangent_point_set())
    assert cert.verdict == "hypotheses-failed"
    assert cert.hypotheses["generic_position"] is False
    assert cert.hypotheses_failed
    assert cert.oracle["sigma"] == 4  # still reported


@pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)], ids=repr)
def test_points_certificate_reads_hypotheses_off_ranks(field, monkeypatch):
    # degenerate sets fail their hypotheses with every witness path refused:
    # no evaluation matrix, no RREF, no subset point set, no genericity check
    def refuse(*args, **kwargs):
        raise AssertionError("the conductor certificate built a witness")

    for name in ("evaluation_matrix", "nullspace_vector", "_generic_check"):
        monkeypatch.setattr(points, name, refuse)
    monkeypatch.setattr(PointSet, "subset", refuse)
    sets = {
        "collinear": (2, [[1, s, 2 * s + 1] for s in range(7)], 6),
        "normal-curve": (3, [[1, s, s * s, s ** 3] for s in range(8)], 3),
        "hyperplane": (3, [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0],
                           [1, 1, 1, 0], [1, 2, 3, 0]], 2),
    }
    for name, (r, coords, sigma) in sets.items():
        cert = points_conductor_certificate(PointSet.of(r, field, coords))
        assert cert.verdict == "hypotheses-failed", name
        assert cert.hypotheses["generic_position"] is False, name
        assert cert.oracle["sigma"] == sigma, name


def test_line_ladder():
    # e points on a line: conductor exponent e - 1 at every size
    for e in range(2, 8):
        cert = points_conductor_certificate(line_points(e))
        assert cert.verdict == "match"
        assert cert.oracle["sigma"] == e - 1


def test_two_points_plane():
    X = PointSet.of(2, QQ, [[1, 0, 0], [1, 1, 1]])
    cert = points_conductor_certificate(X)
    assert cert.verdict == "match" and cert.claimed["exponent"] == 1


def test_random_space_points_match():
    F = PrimeField(2147483647)
    X, _ = random_point_set(random.Random(77), 7, 3, F)
    cert = points_conductor_certificate(X)
    assert cert.verdict == "match"
    assert cert.claimed["exponent"] == 2


def test_scaled_points_certificate_e56_r5():
    # 56 = C(8, 5) points of P^5: every degree up to nu = 3 is square or wide
    F = PrimeField(2 ** 31 - 1)
    X, _ = random_point_set(random.Random(1), 56, 5, F)
    cert = points_conductor_certificate(X)
    assert cert.verdict == "match"
    assert cert.claimed["exponent"] == 3 and cert.oracle["sigma"] == 3
    assert cert.oracle["hilbert_values"][:4] == [1, 6, 21, 56]
    with pytest.raises(BudgetExceededError):
        is_generic_t_position(X, X.e - 1, subset_budget=X.e - 1)



def collinear_p5(e):
    """e collinear points of P^5 over GF(2^31-1), as a points-model JSON."""
    p = 2 ** 31 - 1
    a, b = [1, 3, 5, 7, 11, 13], [0, 1, 2, 4, 8, 16]
    pts = [[(x + s * y) % p for x, y in zip(a, b)] for s in range(e)]
    return {"model": "points",
            "points": {"field": {"p": p}, "r": 5, "points": pts}}


def cli_conductor(tmp_path, obj):
    src, out = tmp_path / "model.json", tmp_path / "cert.json"
    src.write_text(json.dumps(obj))
    code = cli.main(["conductor", str(src), "--json-out", str(out)])
    return code, json.loads(out.read_text())["certificate"]


def test_scaled_collinear_points_p5(tmp_path):
    # H_X(d) = min(d + 1, e) for collinear points: full rank only at e - 1,
    # far above nu + 4, where C(d + 5, 5) columns would be evaluated in full;
    # the values run through sigma, with no degree bound to give
    code, cert = cli_conductor(tmp_path, collinear_p5(30))
    assert code == 3
    assert cert["oracle"] == {"sigma": 29,
                              "hilbert_values": list(range(1, 31))}
    # a smaller set against the full-matrix ranks of `hilbert_function`
    obj = collinear_p5(8)
    X = point_set_from_json(obj["points"])
    values = [hilbert_function(X, d) for d in range(8)]
    sub = X.subset(range(X.e - 1))
    generic = [all(hilbert_function(Y, d) == min(Y.e, math.comb(d + 5, 5))
                   for d in range(nu(Y.e, 5) + 1)) for Y in (X, sub)]
    code, cert = cli_conductor(tmp_path, obj)
    assert code == 3
    assert cert == {
        "model": "graded-points",
        "claimed": {"conductor": "maximal ideal power",
                    "exponent": nu(8, 5)},
        "oracle": {"sigma": values.index(8), "hilbert_values": values},
        "hypotheses": {"generic_position": generic[0],
                       "generic_position_e_minus_1": generic[1]},
        "verdict": "hypotheses-failed",
        "details": {"e": 8, "r": 5}}


# ------------------------------------------------------------------ semigroups

def test_semigroup_2_5():
    S = NumericalSemigroup.from_generators((2, 5))
    assert S.gaps == (1, 3)
    assert S.frobenius == 3
    assert S.conductor == 4
    assert S.apery == (0, 5)
    assert S.multiplicity == 2 and S.emdim == 2
    cert = semigroup_certificate((2, 5))
    assert cert.verdict == "mismatch"
    assert cert.claimed["start"] == 2
    assert cert.oracle["conductor_start"] == 4
    assert cert.details["predicted_escapes_ring_at"] == 3
    assert cert.hypotheses["distinct_tangents"] is False
    assert cert.hypotheses_failed


def test_semigroup_2_3_accidental_match():
    cert = semigroup_certificate((2, 3))
    assert cert.verdict == "match"
    # the hypothesis is still violated even though the numbers agree
    assert cert.hypotheses["distinct_tangents"] is False
    assert cert.hypotheses_failed
    assert cert.details["first_divergence"] is None


def test_semigroup_3_4_5():
    S = NumericalSemigroup.from_generators((3, 4, 5))
    assert S.gaps == (1, 2) and S.conductor == 3
    assert S.minimal_generators == (3, 4, 5)
    cert = semigroup_certificate((3, 4, 5))
    assert cert.verdict == "match"


def test_semigroup_3_5_mismatch():
    cert = semigroup_certificate((3, 5))
    assert cert.verdict == "mismatch"
    assert cert.claimed["start"] == 6
    assert cert.oracle["conductor_start"] == 8


def test_semigroup_validation():
    S = NumericalSemigroup.from_generators((1,))
    assert S.gaps == () and S.conductor == 0 and S.frobenius == -1
    with pytest.raises(ValueError, match="multiplicity 1"):
        semigroup_certificate((1, 7))
    with pytest.raises(ValueError, match="gcd"):
        NumericalSemigroup.from_generators((2, 4))
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators((0, 3))


def test_semigroup_properties_seeded():
    rng = random.Random(17)
    for _ in range(15):
        gens = sorted(rng.sample(range(2, 14), rng.randint(2, 4)))
        from math import gcd
        g = 0
        for a in gens:
            g = gcd(g, a)
        if g != 1:
            gens.append(g + 1)
        S = NumericalSemigroup.from_generators(gens)
        assert S.conductor not in S.gaps
        assert S.contains(S.conductor)
        if S.conductor > 0:
            assert S.conductor - 1 in S.gaps
        assert S.multiplicity == min(S.minimal_generators)
        # a larger semigroup has a conductor at most as large
        bigger = NumericalSemigroup.from_generators(
            tuple(S.generators) + (rng.randint(2, 20),))
        assert bigger.conductor <= S.conductor


# The brute-force prediction `semigroup_certificate` built before it read the
# start in closed form, kept as the oracle of that closed form.

def nfold_sumset(elements, n, window):
    """The n-fold sums of `elements` (positive ints) up to `window`, as a
    bitmask: bit k is set when k is such a sum. Each round costs one shift-or
    per element on a (window + 1)-bit int.
    """
    full = (1 << (window + 1)) - 1
    sums = 1
    for _ in range(n):
        nxt = 0
        for b in elements:
            nxt |= sums << b
        sums = nxt & full
    return sums


def sumset_inputs(gens):
    """(semigroup elements up to the window, nu, window) as the certificate
    takes them."""
    S = NumericalSemigroup.from_generators(gens)
    nv = nu(S.multiplicity, S.emdim - 1)
    window = S.conductor + nv * S.multiplicity + 5
    return [n for n in range(1, window + 1) if S.contains(n)], nv, window


SUMSET_SEMIGROUPS = ((2, 3), (2, 5), (3, 4, 5), (4, 5), (12, 13), (13, 15),
                     (17, 20))


def test_nfold_sumset_matches_comprehension():
    def comprehension(elements, n, window):
        sums = {0}
        for _ in range(n):
            sums = {a + b for a in sums for b in elements if a + b <= window}
        return sums

    def bits(mask):
        return {k for k in range(mask.bit_length()) if mask >> k & 1}

    for gens in SUMSET_SEMIGROUPS:
        elements, nv, window = sumset_inputs(gens)
        assert bits(nfold_sumset(elements, nv, window)) == comprehension(
            elements, nv, window), gens
    assert bits(nfold_sumset([3, 7], 3, 20)) == comprehension([3, 7], 3, 20)
    assert nfold_sumset([3, 7], 0, 20) == 1
    assert nfold_sumset([30], 1, 20) == 0


def test_semigroup_start_matches_sumset():
    # the closed-form start nu*e against the lowest brute-force nu-fold sum:
    # the semigroups above, <a, a+1> up to a = 30, and the gap pairs <a, a+k>
    # (k = 2..5 coprime to a) of the benchmark's semigroup models
    cases = list(SUMSET_SEMIGROUPS) + [(a, a + 1) for a in range(2, 31)]
    cases += [(a, a + k) for a in (5, 7, 9, 11, 13, 17) for k in (2, 3, 4, 5)
              if math.gcd(a, a + k) == 1]
    for gens in cases:
        sums = nfold_sumset(*sumset_inputs(gens))
        cert = semigroup_certificate(gens)
        assert cert.claimed["start"] == (sums & -sums).bit_length() - 1, gens
        assert cert.claimed["exponent_set"][0] == cert.claimed["start"]


# ------------------------------------------------------------------ monomial algebras

def monomial_conductor(generators, box):
    """The conductor points of the window [0, box//2]^k as a set, and the
    window: the rows of `_monomial_conductor_rows` expanded, after the
    checks `monomial_conductor_certificate` makes on its inputs."""
    _monomial_dimension(generators, box)
    cond, window = _monomial_conductor_rows(generators, box)
    return {p + (j,) for p, first in cond.items()
            for j in range(first, window + 1)}, window


def test_monomial_conductor_direct():
    cond, window = monomial_conductor([(2, 0), (0, 1), (1, 1)], 8)
    assert window == 4
    assert cond == {(a, b) for a in range(5) for b in range(5) if b >= 1}
    assert (1, 0) not in cond and (3, 0) not in cond


def test_monomial_certificate_match_and_mismatch():
    gens = [(2, 0), (0, 1), (1, 1)]
    cert = monomial_conductor_certificate(gens, 8, [(0, 1), (1, 1)])
    assert cert.verdict == "match"
    assert not cert.hypotheses_failed

    wrong = monomial_conductor_certificate(gens, 8, [(0, 2)])
    assert wrong.verdict == "mismatch"
    assert wrong.details["first_extra"] == [0, 1]


def test_monomial_normal_control():
    cert = monomial_conductor_certificate([(1, 0), (0, 1)], 8, [(0, 0)])
    assert cert.verdict == "match"


def test_monomial_conductor_is_closed():
    gens = [(2, 0), (0, 1), (1, 1)]
    cond, window = monomial_conductor(gens, 8)
    for v in cond:
        for g in gens:
            w = tuple(a + b for a, b in zip(v, g))
            if all(c <= window for c in w):
                assert w in cond


def test_monomial_box_too_small():
    with pytest.raises(StabilizationError, match="enlarge the box"):
        monomial_conductor([(2, 0), (0, 3), (1, 1)], 4)


def test_monomial_validation():
    with pytest.raises(ValueError, match="mixed dimension"):
        monomial_conductor([(1, 0), (1,)], 4)
    with pytest.raises(ValueError, match="at least one generator"):
        monomial_conductor([], 4)
    with pytest.raises(ValueError):
        monomial_conductor([(0, 0), (1, 0)], 4)
    for box in (-3, 0, 2.5, True, "12"):
        with pytest.raises(ValueError, match="box must be a positive integer"):
            monomial_conductor([(2, 0), (0, 1), (1, 1)], box)


def test_monomial_candidate_is_checked_before_the_lattice():
    # box 4 is too small for this model's far corner, so the lattice work
    # would raise StabilizationError: the candidate's error comes first
    with pytest.raises(ValueError, match=r"candidate\[1\]: expected 2"):
        monomial_conductor_certificate([(2, 0), (0, 3), (1, 1)], 4,
                                       [(0, 1), (0, 1, 2)])


def monomial_semigroup_points(generators, box):
    """Lattice points of the affine semigroup inside [0, box]^k, by a
    breadth-first walk over point tuples: the semigroup monomial_conductor
    built before its row masks, kept as the oracle."""
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


def up_closure(vectors, window):
    """All window points componentwise >= some given vector."""
    out = set()
    for base in vectors:
        ranges = [range(b, window + 1) for b in base]
        for v in iproduct(*ranges):
            out.add(v)
    return out


def scan_monomial_conductor(generators, box):
    """The conductor scan monomial_conductor ran before its one-sweep form,
    kept as the oracle: every window point v checks every w with v + w in
    the box, O(window^k * box^k)."""
    k = len(generators[0])
    grid = monomial_semigroup_points(generators, box)
    window = box // 2
    conductor = set()
    for v in iproduct(range(window + 1), repeat=k):
        ranges = [range(box - c + 1) for c in v]
        ok = all(tuple(a + b for a, b in zip(v, w)) in grid
                 for w in iproduct(*ranges))
        if ok:
            conductor.add(v)
    maxgen = max(max(g) for g in generators)
    corner_lo = max(window - maxgen, 0)
    for v in iproduct(range(corner_lo, window + 1), repeat=k):
        if v not in conductor:
            raise StabilizationError(
                "far corner %s of the window is not in the conductor; "
                "enlarge the box (box=%d)" % (v, box))
    return conductor, window


def scan_monomial_certificate(generators, box, candidate):
    """monomial_conductor_certificate's dict as it was built on point sets,
    over the scan oracle."""
    cond, window = scan_monomial_conductor(generators, box)
    cand = up_closure(candidate, window)
    missing = sorted(cand - cond)
    extra = sorted(cond - cand)
    return {"model": "monomial-algebra",
            "claimed": {"generators": [list(c) for c in sorted(candidate)],
                        "points_in_window": len(cand)},
            "oracle": {"points_in_window": len(cond), "window": window,
                       "box": box},
            "hypotheses": {"window_stable": True},
            "verdict": "match" if not missing and not extra else "mismatch",
            "details": {"first_missing": list(missing[0]) if missing else None,
                        "first_extra": list(extra[0]) if extra else None}}


def conductor_or_error(conductor, generators, box):
    try:
        return conductor(generators, box)
    except StabilizationError as exc:
        return str(exc)


@st.composite
def monomial_models(draw):
    """c*e_i and (c+1)*e_i for each unit vector of N^k (k = 1..3), so some
    translate of N^k lies in the semigroup, and up to two more nonzero
    generators, with a box that keeps the scan small. At k = 3, c <= 2 and
    the box is 6..12: the window's far corner must lie c + 1 deep inside
    the conductor of <c, c + 1>, which starts at c(c - 1), so c = 2 needs a
    box of 10 and c = 3 one of 20; the lower boxes keep the
    StabilizationError path covered."""
    k = draw(st.integers(1, 3))
    gens = set()
    for i in range(k):
        c = draw(st.sampled_from([1, 2, 2, 3][:3 if k == 3 else 4]))
        gens |= {tuple(m if j == i else 0 for j in range(k)) for m in (c, c + 1)}
    gens |= {tuple(g) for g in draw(st.lists(
        st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any),
        max_size=2))}
    box = draw(st.integers(*((1, 30), (1, 20), (6, 12))[k - 1]))
    return sorted(gens), box


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(monomial_models())
def test_monomial_conductor_matches_scan_oracle(model):
    gens, box = model
    assert conductor_or_error(monomial_conductor, gens, box) == \
        conductor_or_error(scan_monomial_conductor, gens, box)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(monomial_models())
def test_monomial_semigroup_rows_match_bfs_oracle(model):
    gens, box = model
    rows = monomial_semigroup_rows(gens, box)
    assert all(m >> (box + 1) == 0 for m in rows.values())
    assert {p + (j,) for p, m in rows.items() for j in range(box + 1)
            if m >> j & 1} == monomial_semigroup_points(gens, box)


def minimal_points(points):
    return sorted(v for v in points
                  if not any(w != v and all(a <= b for a, b in zip(w, v))
                             for w in points))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(monomial_models(), st.data())
def test_monomial_certificate_matches_scan_oracle(model, data):
    """Candidates drawn empty, with entries past the window, or as the
    minimal points of the scanned conductor with one point dropped, moved
    or added (or none, for a match)."""
    gens, box = model
    k, window = len(gens[0]), box // 2
    vectors = st.lists(st.integers(0, window + 2), min_size=k, max_size=k)
    candidate = [tuple(v) for v in data.draw(st.lists(vectors, max_size=3))]
    try:
        cond, _ = scan_monomial_conductor(gens, box)
    except StabilizationError as exc:
        expected = str(exc)
    else:
        if data.draw(st.booleans()):
            candidate = minimal_points(cond)
            edit = data.draw(st.sampled_from(["none", "drop", "move", "add"]))
            if edit == "drop" and candidate:
                candidate.pop(data.draw(st.integers(0, len(candidate) - 1)))
            elif edit == "move" and candidate:
                i = data.draw(st.integers(0, len(candidate) - 1))
                j = data.draw(st.integers(0, k - 1))
                v = list(candidate[i])
                v[j] = max(v[j] + data.draw(st.sampled_from([-1, 1])), 0)
                candidate[i] = tuple(v)
            elif edit == "add":
                candidate.append(data.draw(vectors.map(tuple)))
        expected = scan_monomial_certificate(gens, box, candidate)
    try:
        got = monomial_conductor_certificate(gens, box, candidate).as_dict()
    except StabilizationError as exc:
        got = str(exc)
    assert got == expected


def test_monomial_conductor_scales_to_a_large_box():
    # the normal control N^2 in the box [0, 3000]^2: its conductor is the
    # whole window, every row starting at its first point
    cond, window = _monomial_conductor_rows([(1, 0), (0, 1)], 3000)
    assert window == 1500
    assert cond == {(a,): 0 for a in range(1501)}


def test_monomial_conductor_large_box():
    gens = [(8, 0), (0, 1), (1, 1)]
    cond, window = monomial_conductor(gens, 64)
    assert window == 32
    assert cond == up_closure([(j, 7) for j in range(8)], 32)


def test_up_closure():
    assert up_closure([(1, 1)], 2) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert up_closure([], 2) == set()


# ------------------------------------------------------------------ arrangements

def test_two_planes_oracle():
    forms = arrangement_forms("two-planes")
    oracle = arrangement_conductor_ideal(forms)
    gb = sorted(g.text() for g in oracle.groebner_basis())
    assert gb == ["x0", "x1"]


def test_arrangement_matches():
    for which in ("three-lines", "four-lines", "three-planes"):
        cert = arrangement_certificate(arrangement_forms(which))
        assert cert.verdict == "match", which
        assert cert.claimed["basis"] == cert.oracle["basis"]
        assert not cert.hypotheses_failed


def test_concurrent_lines():
    x0, x1, x2 = [Polynomial.variable(i, 3, QQ) for i in range(3)]
    cert = arrangement_certificate((x0, x1, x0 + x1))
    assert cert.verdict == "match"
    assert cert.details["strata"] == [
        {"hyperplanes": [0, 1, 2], "multiplicity": 3, "local_exponent": 2}]


def product_except(forms, skip):
    """The product of all forms but the skip-th, one factor at a time: the
    oracle for the prefix and suffix products of the conductor module."""
    return reduce(mul, (f for j, f in enumerate(forms) if j != skip))


def vandermonde_lines(n):
    """The lines x0 + i*x1 + i^2*x2, i = 1..n, of P^2 over GF(32003)."""
    field = PrimeField(32003)
    x0, x1, x2 = [Polynomial.variable(i, 3, field) for i in range(3)]
    return [x0 + i * x1 + i * i * x2 for i in range(1, n + 1)]


def test_arrangement_oracle_invariants():
    from genpos.conductor import _products_except
    for which in ("three-lines", "four-lines"):
        forms = arrangement_forms(which)
        oracle = arrangement_conductor_ideal(forms)
        others = _products_except(forms)
        for i, f in enumerate(forms):
            assert ideal_member(others[i], oracle)
            piece = Ideal(f.nvars, f.field, [f, others[i]])
            for g in oracle.groebner_basis():
                assert ideal_member(g, piece)


def test_arrangement_products_are_prefix_and_suffix_products(monkeypatch):
    from genpos.conductor import _products_except
    for n in range(2, 8):
        forms = vandermonde_lines(n)
        assert _products_except(forms) == [product_except(forms, i)
                                           for i in range(n)]
    # the 16 lines of the CI input: 3n - 6 = 42 products, where one product
    # per line took n(n - 2) = 224; every stratum is a double point, so the
    # formula is the ideal of the stratum points and makes none
    calls = []
    polynomial_mul = Polynomial.__mul__

    def counted(a, b):
        calls.append(b)
        return polynomial_mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    cert = arrangement_certificate(vandermonde_lines(16))
    assert cert.verdict == "match"
    assert len(calls) == 3 * 16 - 6


def test_arrangement_validates_forms_before_eliminating(tmp_path, capsys,
                                                         monkeypatch):
    # a quadric among the lines exits 2 before any elimination runs
    from genpos import conductor

    calls = []
    monkeypatch.setattr(conductor, "ideal_intersect",
                        lambda *ideals: calls.append(ideals))
    forms = ["x0 + %d*x1 + %d*x2" % (i, i * i) for i in range(1, 16)]
    src = tmp_path / "arrangement.json"
    src.write_text(json.dumps({"model": "arrangement", "vars": 3,
                               "field": {"p": 32003},
                               "forms": forms + ["x0^2 + x1*x2"]}))
    assert cli.main(["conductor", str(src)]) == 2
    assert capsys.readouterr().err == (
        "error: forms must be homogeneous linear\n")
    assert calls == []


def counted(monkeypatch, name):
    """The calls conductor makes to its function `name`, from here on."""
    calls = []
    real = getattr(conductor, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(conductor, name, wrapper)
    return calls


@pytest.mark.parametrize("field, nvars, forms, routed", [
    (PrimeField(32003), 3, ["x0 + x1 + x2", "x0 + 2*x1 + 4*x2",
                            "x0 + 3*x1 + 9*x2"], True),
    # a triple point
    (PrimeField(32003), 3, ["x0", "x1", "x0 + x1", "x0 + 2*x1 + 3*x2"],
     False),
    # the stratum point [0:1:0] lies on x2 = 0
    (PrimeField(32003), 3, ["x0 + x2", "2*x0 + x2", "x1"], False),
    (QQ, 3, ["x0 + x1 + x2", "x0 + 2*x1 + 4*x2", "x0 + 3*x1 + 9*x2"], False),
    (PrimeField(32003), 4, ["x0", "x1", "x2", "x0 + x1 + x2 + x3"], False),
], ids=["points", "triple-point", "point-on-x2", "Q", "4-vars"])
def test_arrangement_formula_routes(monkeypatch, field, nvars, forms,
                                    routed):
    """The formula side is the ideal of the stratum points only for 3
    variables over GF(p), double points and no point on x2 = 0; every other
    input intersects the prime powers, beside the oracle's intersection."""
    intersections = counted(monkeypatch, "ideal_intersect")
    bases = counted(monkeypatch, "ideal_basis")
    cert = arrangement_certificate(
        [parse_polynomial(f, nvars, field) for f in forms])
    assert cert.verdict == "match"
    assert len(intersections) == 1 + (not routed)
    assert len(bases) == routed


def linear_form(row, field):
    n = len(row)
    return Polynomial(n, field, {tuple(int(j == i) for j in range(n)): c
                                 for i, c in enumerate(row)})


@st.composite
def gf_arrangements(draw):
    """2-7 pairwise independent linear forms in 3 variables over GF(11),
    GF(32003) or GF(2^31 - 1), with small coefficients (triple points,
    points on x2 = 0) or large ones."""
    field = draw(st.sampled_from([PrimeField(11), PrimeField(32003),
                                  PrimeField(2 ** 31 - 1)]))
    coeff = st.integers(0, 3) | st.integers(0, field.p - 1)
    rows = draw(st.lists(st.tuples(coeff, coeff, coeff), min_size=2,
                         max_size=7))
    seen = {}
    for row in rows:
        if any(field(c) for c in row):
            seen.setdefault(points.normalize_point(row, field), row)
    assume(len(seen) >= 2)
    return [linear_form(row, field) for row in seen.values()]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gf_arrangements())
def test_stratum_points_route_matches_eliminations(forms):
    got = arrangement_certificate(forms).as_dict()
    with mock.patch.object(conductor, "_stratum_points_ideal",
                           lambda *args: None):
        assert arrangement_certificate(forms).as_dict() == got


@st.composite
def fat_arrangements(draw):
    """2-7 pairwise independent linear forms in 3 or 4 variables over Q,
    GF(11) or GF(32003), with a planted triple or quadruple stratum: A, B,
    A + B and perhaps A - B for two drawn forms A and B, then 0-3 more."""
    field = draw(st.sampled_from([QQ, PrimeField(11), PrimeField(32003)]))
    nvars = draw(st.sampled_from([3, 4]))
    row = st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars)
    a, b = draw(row), draw(row)
    rows = [a, b] + [[x + w * y for x, y in zip(a, b)]
                     for w in (1, -1)[:draw(st.sampled_from([1, 2]))]]
    rows += draw(st.lists(row, max_size=3))
    seen = {}
    for r in rows:
        if any(field(c) for c in r):
            seen.setdefault(points.normalize_point(r, field), r)
    assume(len(seen) >= 2)
    return [linear_form(r, field) for r in seen.values()]


def rref_row_certificate(forms):
    """The certificate dict built the long way, the reference for
    `arrangement_certificate`: each prime from its stratum's RREF rows, F =
    prod L_i added to the intersection of their powers as one more
    generator, and the oracle from products taken one factor at a time; and
    F itself, with that intersection."""
    nvars, field = forms[0].nvars, forms[0].field
    strata = arrangement_strata(forms)
    powers = ideal_intersect(*(
        ideal_power(Ideal(nvars, field, [linear_form(row, field)
                                         for row in red]), e_k - 1)
        for red, e_k, _ in strata))
    total = reduce(mul, forms)
    formula = Ideal(nvars, field, powers.gens + (total,))
    oracle = ideal_intersect(*(
        Ideal(nvars, field, [f, product_except(forms, i)])
        for i, f in enumerate(forms)))
    return {
        "model": "hyperplane-arrangement",
        "claimed": {"basis": sorted(g.text()
                                    for g in formula.groebner_basis())},
        "oracle": {"basis": sorted(g.text()
                                   for g in oracle.groebner_basis())},
        "hypotheses": {
            "pairwise_distinct_hyperplanes": True,
            "transverse_points_generic": True,
            "reason": "e_k distinct points of a projective line are always "
                      "in generic position"},
        "verdict": "match" if ideal_equal(oracle, formula) else "mismatch",
        "details": {"strata": [
            {"hyperplanes": list(members), "multiplicity": e_k,
             "local_exponent": e_k - 1} for _, e_k, members in strata]},
    }, total, powers


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fat_arrangements())
def test_arrangement_certificate_matches_the_rref_row_formula(forms):
    """F lies in every P_k^(e_k), so adding it to the formula changes
    nothing, and primes from the RREF rows or from two input forms generate
    the same ideals: the certificate is the one the long way builds."""
    expected, total, powers = rref_row_certificate(forms)
    assert ideal_member(total, powers)
    assert arrangement_certificate(forms).as_dict() == expected


def test_arrangement_validation():
    x0, x1, x2 = [Polynomial.variable(i, 3, QQ) for i in range(3)]
    with pytest.raises(ValueError, match="at least two"):
        arrangement_conductor_ideal([x0])
    with pytest.raises(ValueError, match="proportional"):
        arrangement_strata((x0, 2 * x0))
    with pytest.raises(ValueError, match="linear"):
        arrangement_certificate((x0 ** 2, x1))


# ------------------------------------------------------------------ symbolic powers

def test_symbolic_power_of_linear_prime():
    x, y, z = [Polynomial.variable(i, 3, QQ) for i in range(3)]
    q = Ideal.of(x, y)
    for m in range(1, 5):
        assert ideal_equal(symbolic_power(q, m, z), ideal_power(q, m))


def test_symbolic_power_contains_ordinary():
    x, y, z = [Polynomial.variable(i, 3, QQ) for i in range(3)]
    q = Ideal.of(x * y - z ** 2, y ** 2 - x * z)
    for m in (1, 2):
        sym = symbolic_power(q, m, x)
        for g in ideal_power(q, m).gens:
            assert ideal_member(g, sym)


def test_symbolic_power_principal_and_witness():
    x, y = [Polynomial.variable(i, 2, QQ) for i in range(2)]
    q = Ideal.of(x)
    assert ideal_equal(symbolic_power(q, 3, y), ideal_power(q, 3))
    with pytest.raises(ValueError, match="witness"):
        symbolic_power(Ideal.of(x, y), 2, x)


# ---------------------------------------------------- products of evaluations

def eval_vectors(X, d):
    # one vector per monomial, one coordinate per point
    rows, monos = evaluation_matrix(X, d)
    return [[rows[p][j] for p in range(X.e)] for j in range(len(monos))]


def sample_product(X, rng, vecs1):
    u = [sum((Fraction(rng.randint(-3, 3)) * c[i] for c in vecs1),
             Fraction(0)) for i in range(X.e)]
    v = [sum((Fraction(rng.randint(-3, 3)) * c[i] for c in vecs1),
             Fraction(0)) for i in range(X.e)]
    w = [Fraction(rng.randint(-3, 3)) for _ in range(X.e)]
    return [a * b * c for a, b, c in zip(u, v, w)]


def in_span(rows, vec, field):
    from genpos.linalg import rank
    return rank(rows + [vec], field) == rank(rows, field)


def test_products_stay_in_span_when_generic():
    # nu-fold products of degree-1 evaluations times anything stay inside
    # the degree-(nu + 1) evaluations for a set in generic position
    X = off_conic_points()
    rng = random.Random(4)
    v1 = eval_vectors(X, 1)
    v3 = eval_vectors(X, 3)
    for _ in range(10):
        vec = sample_product(X, rng, v1)
        assert in_span(v3, vec, QQ)


def test_products_escape_for_special_set():
    X = tangent_point_set()
    F = X.field
    rng = random.Random(4)
    v1 = eval_vectors(X, 1)
    v3 = eval_vectors(X, 3)
    escaped = False
    for _ in range(10):
        u = [sum((F(rng.randrange(11)) * c[i] for c in v1), F.zero)
             for i in range(X.e)]
        v = [sum((F(rng.randrange(11)) * c[i] for c in v1), F.zero)
             for i in range(X.e)]
        w = [F(rng.randrange(11)) for _ in range(X.e)]
        vec = [a * b * c for a, b, c in zip(u, v, w)]
        if not in_span(v3, vec, F):
            escaped = True
            break
    assert escaped
