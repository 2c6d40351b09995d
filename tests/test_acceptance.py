"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line for its criterion; timed
criteria assert wall-clock limits measured around the real work.
"""

import json
import random
import subprocess
import sys
import time

from genpos import cli
from genpos.conductor import (arrangement_certificate,
                              monomial_conductor_certificate,
                              points_conductor_certificate,
                              semigroup_certificate, symbolic_power)
from genpos.fixtures import (arrangement_forms, fixture_path,
                             germ_components, germ_membership_query,
                             line_points, monomial_model, off_conic_points,
                             tangent_point_set, unity_field)
from genpos.groebner import (Ideal, buchberger, ideal_equal, ideal_member,
                             ideal_power, normal_form, spolynomial)
from genpos.points import (PointSet, binom, hilbert_function,
                           is_generic_position, nu, random_point_set)
from genpos.poly import DegRevLex, Polynomial
from genpos.scalars import QQ, PrimeField
from genpos.tangent_cone import germ_profile, subalgebra_member


def report(num, label, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, label))
    assert ok, "criterion %d failed: %s" % (num, label)


def test_six_point_model_reproduced_exactly():
    start = time.monotonic()
    X = tangent_point_set()
    cert = is_generic_position(X)
    ok = ([hilbert_function(X, d) for d in range(5)] == [1, 3, 4, 5, 6]
          and cert.failing_degree == 2
          and cert.witness.text() == "x1*x2")
    sigma_cert = points_conductor_certificate(X)
    ok = ok and sigma_cert.oracle["sigma"] == 4
    prof = germ_profile(germ_components(unity_field()))
    ok = ok and prof.values == (1, 3, 5, 5, 6, 6, 6)
    query, min_factors = germ_membership_query()
    gens = germ_components(unity_field())
    ok = ok and 1 <= subalgebra_member(query, gens) < min_factors
    elapsed = time.monotonic() - start
    report(1, "six tangent directions, conductor degree 4, membership "
              "query outside the cube (%.2fs < 5s)" % elapsed,
           ok and elapsed < 5)


def test_random_generic_sets_have_predicted_conductor():
    start = time.monotonic()
    field = PrimeField(2147483647)
    rng = random.Random(20260817)
    matches = 0
    resampled = 0
    for i in range(30):
        e = 3 + (i % 8)
        r = 1 + (i % 3)
        for _ in range(50):
            X, _ = random_point_set(rng, e, r, field)
            cert = points_conductor_certificate(X)
            if cert.hypotheses_failed:
                resampled += 1
                print("resampled: %d points of P^%d drawn again" % (e, r))
                continue
            break
        if cert.verdict == "match":
            matches += 1
    elapsed = time.monotonic() - start
    report(2, "30/30 seeded random sets match nu "
              "(%d resampled, %.1fs < 60s)" % (resampled, elapsed),
           matches == 30 and elapsed < 60)


def test_collinear_ladder():
    ok = True
    for e in range(2, 11):
        cert = points_conductor_certificate(line_points(e))
        ok = ok and cert.verdict == "match" and cert.oracle["sigma"] == e - 1
    report(3, "points on a line: conductor degree e - 1 for e = 2..10", ok)


def test_monomial_surfaces_match_in_both_directions():
    start = time.monotonic()
    ok = True
    for n in range(2, 6):
        model = monomial_model(n)
        cert = monomial_conductor_certificate(
            model["generators"], model["box"], model["candidate"])
        ok = (ok and cert.verdict == "match"
              and cert.details["first_missing"] is None
              and cert.details["first_extra"] is None)
    elapsed = time.monotonic() - start
    report(4, "monomial surfaces n = 2..5: claimed and oracle conductors "
              "contain each other (%.2fs < 10s)" % elapsed,
           ok and elapsed < 10)


def test_hyperplane_arrangements_match():
    start = time.monotonic()
    ok = True
    for which in ("three-lines", "four-lines", "three-planes"):
        cert = arrangement_certificate(arrangement_forms(which))
        ok = ok and cert.verdict == "match"
    elapsed = time.monotonic() - start
    report(5, "three and four generic lines plus three planes: formula "
              "ideal equals oracle ideal (%.1fs < 60s)" % elapsed,
           ok and elapsed < 60)


def test_semigroup_contrast_and_byte_stability(tmp_path):
    c_bad = semigroup_certificate((2, 5))
    c_good = semigroup_certificate((2, 3))
    ok = (c_bad.verdict == "mismatch" and c_bad.hypotheses_failed
          and c_good.verdict == "match" and c_good.hypotheses_failed)
    blobs = {}
    for name in ("semigroup_2_5.json", "semigroup_2_3.json"):
        pair = []
        for run in range(2):
            out = tmp_path / ("%s.%d" % (name, run))
            code = cli.main(["conductor", str(fixture_path(name)),
                             "--json-out", str(out)])
            ok = ok and code == 3
            pair.append(out.read_bytes())
        blobs[name] = pair
        ok = ok and pair[0] == pair[1]
    report(6, "gap semigroup mismatches, tame semigroup matches, both "
              "flagged and byte-stable", ok)


def test_engine_self_checks(truncated_membership):
    ok = True
    rng = random.Random(6)
    order = DegRevLex()
    reductions = 0
    while reductions < 20:
        field = PrimeField(11) if reductions % 2 else QQ
        n = rng.randint(2, 3)
        gens = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(2, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(n))
                c = field.random(rng)
                if c:
                    terms[m] = c
            if terms:
                gens.append(Polynomial(n, field, terms))
        if len(gens) < 2:
            continue
        gb = buchberger(gens, order)
        s = spolynomial(gb[0], gb[-1], order)
        ok = ok and normal_form(s, gb, order).is_zero()
        reductions += 1

    rng = random.Random(7)
    for _ in range(20):
        n = 2
        x, y = [Polynomial.variable(i, n, QQ) for i in range(n)]
        gens = [x ** 2 - y, x * y - rng.randint(1, 3)]
        ideal = Ideal(n, QQ, gens)
        maxdeg = max(g.degree() for g in gens)
        for _ in range(5):
            f = (x + y) ** rng.randint(1, 3) - rng.randint(0, 2)
            bound = f.degree() + maxdeg + 2
            ok = ok and (truncated_membership(f, gens, bound)
                         == ideal_member(f, ideal))

    x, y, z = [Polynomial.variable(i, 3, QQ) for i in range(3)]
    q = Ideal.of(x, y)
    for m in range(1, 5):
        ok = ok and ideal_equal(symbolic_power(q, m, z), ideal_power(q, m))
    report(7, "reduced bases kill S-polynomials, truncated membership "
              "agrees with full membership, symbolic powers of a linear "
              "prime are ordinary powers", ok)


def test_hilbert_bounds_and_symmetry_invariance():
    ok = True
    rng = random.Random(8)
    suite = [tangent_point_set(), off_conic_points(), line_points(6)]
    for X in suite:
        bound = nu(X.e, X.r) + 3
        values = [hilbert_function(X, d) for d in range(bound + 1)]
        for d, h in enumerate(values):
            ok = ok and h <= min(X.e, binom(d + X.r, X.r))
        ok = ok and values[-1] == X.e
        base = is_generic_position(X)
        for _ in range(10):
            perm = list(range(X.e))
            rng.shuffle(perm)
            Y = PointSet(X.r, X.field, tuple(X.points[i] for i in perm))
            cert = is_generic_position(Y)
            ok = (ok and cert.generic == base.generic
                  and cert.failing_degree == base.failing_degree)
    report(8, "Hilbert values bounded and stabilizing at e; verdicts "
              "unchanged under point relabelings", ok)


def test_shipped_examples_reproduce():
    start = time.monotonic()
    res = subprocess.run([sys.executable, "-m", "genpos",
                          "reproduce-examples"],
                         capture_output=True, text=True)
    elapsed = time.monotonic() - start
    ok = res.returncode == 0 and "12/12" in res.stdout
    report(9, "shipped example suite reproduces its golden records "
              "(%.1fs < 300s)" % elapsed, ok and elapsed < 300)
