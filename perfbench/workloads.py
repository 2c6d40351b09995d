"""Seeded instance batches for the three benchmark workloads.

Each builder draws every input from `random.Random("<workload>:<seed>")`, writes
it as a JSON file, and records beside it the answer the oracle will demand.
Instance families and sizes are fixed; only coefficients and coordinates
depend on the seed, so the cost of a batch does not swing with the seed.
Random draws that land on a degenerate configuration (checked here with
ranks mod a prime, never with genpos) are redrawn.

Instance ids are stable across seeds. Ids carrying a `roadmap` tag are the
rows of the ROADMAP baseline table that fit in a run.
"""

import json
import math
import os
import random
from itertools import combinations

from algebra import (BIG_PRIME, CHECK_PRIME, SMALL_PRIME,
                     complete_intersection_hilbert, coprime_mod, form_text,
                     forms_ideal_rank, generic_mod, monomials, nu, poly_mul_1,
                     rank_mod, univariate_text)

WORKLOADS = ("points", "ideals", "germs")

# (r, e) of the generic GF(2^31-1) points conductor models: many small sets
# and a tail up to e = 20. Larger sets (e = 25 takes 1.5-2.5 s) would leave
# too few passes in a run for steady figures.
POINTS_FP = ([(2, e) for e in (6, 7, 8, 9, 10, 11, 12, 14, 16, 20)]
             + [(3, e) for e in (5, 6, 7, 8, 9, 10, 12)]
             + [(4, e) for e in (6, 7, 8, 9, 10, 12)]
             + [(5, e) for e in (7, 8, 9, 10)])
POINTS_Q = [(2, 6), (2, 8), (2, 10), (3, 8)]
Q_COORD = 30

ROADMAP_TAGS = {
    "points.fp.r2.e20": "points conductor cert, GF(2^31-1), e=20 r=2",
    "points.q.r2.e10": "points conductor cert, over Q, e=10 r=2",
    "cyclic5.fp": "buchberger cyclic-5, GF(32003)",
    "cyclic5.q": "buchberger cyclic-5, Q",
    "semigroup.a20.b21": "semigroup conductor <20,21>",
    "arrangement.q.v3.n4": "arrangement of 4 planes in 3 vars",
    "arrangement.fp.v3.n5": "arrangement of 5 planes in 3 vars",
    "arrangement.fp.v3.n6": "arrangement of 6 planes in 3 vars",
}


class Batch:
    """Instances of one run: input files under `inputs`, answers in memory."""

    def __init__(self, workdir, src):
        self.inputs = os.path.join(workdir, "inputs")
        self.certs = os.path.join(workdir, "certs")
        self.fixtures = os.path.join(src, "genpos", "fixtures")
        os.makedirs(self.inputs)
        os.makedirs(self.certs)
        self.instances = []

    def _write(self, iid, payload):
        path = os.path.join(self.inputs, iid + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        return path

    def add(self, iid, command, payload, expect, extra=(), fixture=None,
            twin=None):
        path = (os.path.join(self.fixtures, fixture) if fixture
                else self._write(iid, payload))
        self.instances.append({
            "id": iid,
            "argv": [command, path] + list(extra),
            "input": path,
            "out": os.path.join(self.certs, iid + ".json"),
            "expect": expect,
            "twin": twin,
            "tag": ROADMAP_TAGS.get(iid),
        })

    def add_library(self, iid, payload, expect):
        path = self._write(iid, payload)
        self.instances.append({
            "id": iid, "library": "buchberger", "input": path,
            "out": os.path.join(self.certs, iid + ".json"),
            "expect": expect, "twin": None, "tag": ROADMAP_TAGS.get(iid),
        })


def build(workload, seed, workdir, src):
    rng = random.Random("%s:%d" % (workload, seed))
    batch = Batch(workdir, src)
    {"points": build_points, "ideals": build_ideals,
     "germs": build_germs}[workload](rng, batch)
    ids = [inst["id"] for inst in batch.instances]
    assert len(ids) == len(set(ids)), "duplicate instance ids"
    return batch.instances


# ---------------------------------------------------------------- points

def _fp_field():
    return {"p": BIG_PRIME}


def _fp_coords(pts):
    return [["%d mod %d" % (x % BIG_PRIME, BIG_PRIME) for x in pt]
            for pt in pts]


def _generic_points(rng, e, r, draw, p, t=None):
    """e points of P^r (affine chart x0 = 1) in generic position mod p, and
    with every t-subset generic too (t defaults to e - 1)."""
    t = e - 1 if t is None else t
    while True:
        pts = [tuple([1] + [draw() for _ in range(r)]) for _ in range(e)]
        if len(set(pts)) < e or not generic_mod(pts, p):
            continue
        if t >= 1 and not all(generic_mod(list(s), p)
                              for s in combinations(pts, t)):
            continue
        return pts


def _independent_pair(rng, r):
    while True:
        a = [rng.randrange(BIG_PRIME) for _ in range(r + 1)]
        b = [rng.randrange(BIG_PRIME) for _ in range(r + 1)]
        if rank_mod([a, b], BIG_PRIME) == 2:
            return a, b


def _line_points(rng, e, r):
    a, b = _independent_pair(rng, r)
    params = rng.sample(range(1, BIG_PRIME), e)
    return [tuple((x + s * y) % BIG_PRIME for x, y in zip(a, b))
            for s in params]


def _hilbert_expect(e, r, hilbert, generic, code):
    """Answer for a points conductor model whose Hilbert function is known."""
    upto = nu(e, r) + 4
    values = [hilbert(d) for d in range(upto + 1)]
    sigma = next((d + 1 for d in range(upto, -1, -1) if values[d] != e), 0)
    assert sigma <= upto, "instance would exceed the default degree window"
    return {"check": "conductor-points", "e": e, "r": r, "hilbert": values,
            "sigma": sigma, "nu": nu(e, r), "generic": generic, "exit": code}


def _first_failing_degree(e, r, hilbert):
    return next((d for d in range(nu(e, r) + 1)
                 if hilbert(d) < min(e, math.comb(d + r, r))), None)


def build_points(rng, b):
    fp = lambda: rng.randrange(BIG_PRIME)
    for r, e in POINTS_FP:
        pts = _generic_points(rng, e, r, fp, BIG_PRIME)
        b.add("points.fp.r%d.e%d" % (r, e), "conductor",
              {"model": "points", "points": {"field": _fp_field(), "r": r,
                                             "points": _fp_coords(pts)}},
              _hilbert_expect(e, r, lambda d: min(e, math.comb(d + r, r)),
                              True, 0))
    qd = lambda: rng.randint(-Q_COORD, Q_COORD)
    for r, e in POINTS_Q:
        pts = _generic_points(rng, e, r, qd, CHECK_PRIME)
        b.add("points.q.r%d.e%d" % (r, e), "conductor",
              {"model": "points", "points": {"field": "Q", "r": r,
                                             "points": [list(p) for p in pts]}},
              _hilbert_expect(e, r, lambda d: min(e, math.comb(d + r, r)),
                              True, 0))

    # Degenerate by construction: the Hilbert function is known exactly.
    for r, e in ((2, 8), (3, 7), (4, 7), (5, 7)):
        pts = _line_points(rng, e, r)
        b.add("points.collinear.r%d.e%d" % (r, e), "conductor",
              {"model": "points", "points": {"field": _fp_field(), "r": r,
                                             "points": _fp_coords(pts)}},
              _hilbert_expect(e, r, lambda d: min(e, d + 1), False, 3))
    for r, e in ((2, 8), (3, 10), (4, 12)):
        params = rng.sample(range(1, BIG_PRIME), e)
        pts = [tuple(pow(s, k, BIG_PRIME) for k in range(r + 1))
               for s in params]
        b.add("points.rnc.r%d.e%d" % (r, e), "conductor",
              {"model": "points", "points": {"field": _fp_field(), "r": r,
                                             "points": _fp_coords(pts)}},
              _hilbert_expect(e, r, lambda d: min(e, r * d + 1), False, 3))
    for r, e in ((3, 12), (4, 12), (5, 14)):
        base = _generic_points(rng, e, r - 1, fp, BIG_PRIME, t=0)
        pts = [p + (0,) for p in base]
        b.add("points.hyperplane.r%d.e%d" % (r, e), "conductor",
              {"model": "points", "points": {"field": _fp_field(), "r": r,
                                             "points": _fp_coords(pts)}},
              _hilbert_expect(e, r, lambda d: min(e, math.comb(d + r - 1,
                                                               r - 1)),
                              False, 3))

    # points-check: t-position of generic sets, a planted collinear triple,
    # and whole degenerate sets whose witness must vanish on every point.
    for r, e, t in ((2, 9, 6), (3, 9, 5)):
        pts = _generic_points(rng, e, r, fp, BIG_PRIME, t=t)
        b.add("check.t%d.r%d.e%d" % (t, r, e), "points-check",
              {"field": _fp_field(), "r": r, "points": _fp_coords(pts)},
              {"check": "points-check", "points": pts, "p": BIG_PRIME,
               "generic": True, "t": t, "exit": 0},
              extra=["--t", str(t)])
    pts = (_generic_points(rng, 4, 2, fp, BIG_PRIME, t=0)
           + _line_points(rng, 3, 2))
    b.add("check.t3.planted.r2.e7", "points-check",
          {"field": _fp_field(), "r": 2, "points": _fp_coords(pts)},
          {"check": "points-check", "points": pts, "p": BIG_PRIME,
           "generic": False, "t": 3, "failing_degree": 1, "exit": 1},
          extra=["--t", "3"])
    degenerate = (
        ("check.collinear.r3.e6", 3, _line_points(rng, 6, 3),
         lambda d: min(6, d + 1)),
        ("check.conic.r2.e7", 2,
         [(1, s, s * s % BIG_PRIME) for s in rng.sample(range(1, BIG_PRIME), 7)],
         lambda d: min(7, 2 * d + 1)),
    )
    for iid, r, pts, hilbert in degenerate:
        b.add(iid, "points-check",
              {"field": _fp_field(), "r": r, "points": _fp_coords(pts)},
              {"check": "points-check", "points": pts, "p": BIG_PRIME,
               "generic": False, "t": len(pts),
               "failing_degree": _first_failing_degree(len(pts), r, hilbert),
               "exit": 1})

    # Shipped point fixtures: answers recorded from the harness's first commit.
    for name in ("line_points", "on_conic_points", "off_conic_points",
                 "tangent_points"):
        b.add("fixture." + name, "points-check", None,
              {"check": "points-check-fixture", "recorded": True},
              fixture=name + ".json")
    b.add("fixture.conductor_points", "conductor", None,
          {"check": "recorded", "recorded": True},
          fixture="conductor_points.json")


# ---------------------------------------------------------------- ideals

def _linear_forms(rng, n, nvars, hi, p):
    """n linear forms, every three (or all, if fewer variables) independent."""
    k = min(3, nvars)
    while True:
        vecs = [[rng.randint(1, hi) for _ in range(nvars)] for _ in range(n)]
        if all(rank_mod([vecs[i] for i in s], p) == k
               for s in combinations(range(n), k)):
            return vecs


def _random_form(rng, nvars, d, hi):
    return {m: rng.randint(1, hi) for m in monomials(nvars, d)}


# (variables, planes, copies) per field. Over Q the cost of five or more
# planes, or of planes in four variables, swings up to 2x with the seeded
# coefficients, so those sizes run over GF(p) only.
ARRANGEMENTS = {"q": ((3, 4, 2),),
                "fp": ((3, 4, 2), (3, 5, 1), (3, 6, 1), (4, 4, 1))}
CONE_COPIES = {"q": 2, "fp": 6}


def build_ideals(rng, b):
    fields = (("q", "Q", 9, CHECK_PRIME),
              ("fp", {"p": SMALL_PRIME}, SMALL_PRIME - 1, SMALL_PRIME))
    for tag, field, hi, p in fields:
        for nvars, n, copies in ARRANGEMENTS[tag]:
            for c in range(copies):
                vecs = _linear_forms(rng, n, nvars, hi, p)
                iid = "arrangement.%s.v%d.n%d%s" % (tag, nvars, n,
                                                     ".%d" % c if c else "")
                b.add(iid, "conductor",
                      {"model": "arrangement", "vars": nvars, "field": field,
                       "forms": [form_text({tuple(int(i == j)
                                                  for j in range(nvars)): v
                                            for i, v in enumerate(vec)})
                                 for vec in vecs]},
                      {"check": "arrangement", "strata": math.comb(n, 2),
                       "exit": 0})

    # Curve germs in A^3 whose lowest forms are a regular sequence of fixed
    # degrees; the tangent cone is then a complete intersection. Most run
    # over GF(p), whose cost does not depend on the seeded coefficients, so
    # the median certificate is one of them.
    for tag, field, hi, p in fields:
        for degrees in ((1, 2), (2, 2), (2, 3), (3, 3)):
            for c in range(CONE_COPIES[tag]):
                while True:
                    lows = [_random_form(rng, 3, d, hi) for d in degrees]
                    ci = complete_intersection_hilbert(3, degrees, sum(degrees))
                    if all(math.comb(d + 2, 2) - forms_ideal_rank(lows, 3, d, p)
                           == ci[d] for d in range(sum(degrees) + 1)):
                        break
                # one seeded higher-order term per generator
                gens = [form_text(low) + " + %d*x%d^%d"
                        % (rng.randint(1, hi), (k + 1) % 3, d + 1)
                        for k, (d, low) in enumerate(zip(degrees, lows))]
                iid = "cone.%s.d%s.%d" % (tag, "".join(map(str, degrees)), c)
                b.add(iid, "tangent-cone",
                      {"vars": 3, "field": field, "gens": gens},
                      {"check": "cone-ci", "nvars": 3, "degrees": list(degrees),
                       "exit": 0})

    for n in (4, 5):
        for tag, field, _, _ in fields:
            b.add_library("cyclic%d.%s" % (n, tag),
                          {"vars": n, "field": field, "gens": cyclic(n)},
                          {"check": "recorded", "recorded": True,
                           "basis_size": {4: 7, 5: 20}[n], "exit": 0})


def cyclic(n):
    """Generators of the cyclic-n ideal as text."""
    gens = []
    for k in range(1, n):
        terms = ["*".join("x%d" % ((i + j) % n) for j in range(k))
                 for i in range(n)]
        gens.append(" + ".join(terms))
    gens.append("*".join("x%d" % i for i in range(n)) + " - 1")
    return gens


# ---------------------------------------------------------------- germs

# (component orders, higher terms per component) of the parametrized germs;
# the orders have gcd 1, so the branch at t = 0 is primitive and, with no
# other preimage of the origin, the multiplicity is the smallest order.
GERMS = (((3, 4), 2), ((3, 5), 3), ((4, 5), 2), ((4, 7), 2), ((5, 6), 2),
         ((5, 7), 2), ((3, 4, 5), 1))
SEMIGROUP_NEXT = (4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 24)
SEMIGROUP_GAP = (5, 7, 9, 11, 13, 17)
MONOMIAL_N = (3, 4, 5, 6, 7, 8)
BRANCHES = ((2, 5), (2, 6), (2, 7), (3, 8))


def build_germs(rng, b):
    for i, (orders, extra) in enumerate(GERMS):
        # The origin must have no preimage but t = 0 (else the germ has more
        # branches there): the first two components' cofactors of t^order
        # share no root, over Q and mod the twin's prime.
        while True:
            tails = [{k: (1 if k == 0 else rng.randint(1, 9))
                      for k in range(extra + 1)} for _ in orders]
            if coprime_mod(tails[0], tails[1], BIG_PRIME):
                break
        comps = [{o + k: c for k, c in tail.items()}
                 for o, tail in zip(orders, tails)]
        # q = g0*g1 lies in m^2, so at min_factors 2 it must be a member
        query = poly_mul_1(comps[0], comps[1])
        min_factors = 2 if i % 2 == 0 else 3
        name = "germ.o%s" % "-".join(map(str, orders))
        for tag, field in (("q", "Q"), ("fp", {"p": BIG_PRIME})):
            b.add("%s.%s" % (name, tag), "tangent-cone",
                  {"field": field,
                   "parametrization": [univariate_text(c) for c in comps],
                   "membership": {"query": univariate_text(query),
                                  "min_factors": min_factors}},
                  {"check": "germ", "multiplicity": min(orders),
                   "member": True if min_factors <= 2 else None, "exit": 0},
                  twin="%s.%s" % (name, "fp" if tag == "q" else "q"))

    pairs = [(a, a + 1) for a in SEMIGROUP_NEXT]
    for a in SEMIGROUP_GAP:
        pairs.append((a, a + rng.choice([k for k in (2, 3, 4, 5)
                                         if math.gcd(a, a + k) == 1])))
    for a, c in pairs:
        b.add("semigroup.a%d.b%s" % (a, c if c == a + 1 else "x"),
              "conductor", {"model": "semigroup", "generators": [a, c]},
              {"check": "semigroup", "a": a, "b": c, "exit": 3})

    for n in MONOMIAL_N:
        b.add("monomial.n%d" % n, "conductor",
              {"model": "monomial-algebra",
               "generators": [[n, 0], [0, 1], [1, 1]], "box": 4 * n,
               "candidate": [[j, n - 1] for j in range(n)]},
              {"check": "monomial", "recorded": True, "exit": 0})

    for r, e in BRANCHES:
        tangents = _generic_points(rng, e, r, lambda: rng.randrange(BIG_PRIME),
                                   BIG_PRIME, t=0)
        branches = []
        for v in tangents:
            branches.append([univariate_text(
                {1: x, 2: rng.randint(1, 9), 3: rng.randint(1, 9)})
                if x else univariate_text({2: rng.randint(1, 9)})
                for x in v])
        b.add("branches.r%d.e%d" % (r, e), "tangent-cone",
              {"field": _fp_field(), "r": r, "branches": branches},
              {"check": "branches", "points": tangents, "p": BIG_PRIME,
               "exit": 0})
