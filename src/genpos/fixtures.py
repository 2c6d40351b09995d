"""Built-in worked examples: constructors plus the shipped JSON inputs.

Everything here is derived from a handful of seeds (a prime, a root order, a
list of parameter preimages), so the fixture files under fixtures/ can always
be regenerated byte-identically with write_fixture_files.
"""

import os
from fractions import Fraction

from .points import PointSet
from .poly import Polynomial
from .scalars import QQ, PrimeField, roots_of_unity
from .serialize import (canonical_json, curve_to_json, field_to_json,
                        point_set_to_json)
from .tangent_cone import Branch, BranchCurve

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN_DIR = os.path.join(FIXTURE_DIR, "golden")

ROOT_PRIME = 11
ROOT_ORDER = 5
BIG_PRIME = 2147483647  # 2^31 - 1, for random genericity sampling


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name)


def unity_field():
    return PrimeField(ROOT_PRIME)


def fifth_roots():
    """The five fifth roots of unity mod 11, in generator-power order."""
    field = unity_field()
    roots = roots_of_unity(field, ROOT_ORDER)
    gen = next(r for r in roots if all(field(r ** k) != field.one
                                       for k in range(1, ROOT_ORDER)))
    return tuple(field(gen ** k) for k in range(ROOT_ORDER))


def germ_components(field=None):
    """The parametrization (g, t*g, f*g) with f = t^5 - 1 and g = t*f."""
    field = field or unity_field()
    t = Polynomial.variable(0, 1, field)
    one = Polynomial.constant(field.one, 1, field)
    f = t ** ROOT_ORDER - one
    g = t * f
    return (g, t * g, f * g)


def germ_membership_query(field=None):
    """The product fg*(fg + g) whose class is tested against the cube of the
    maximal ideal, and that power, 3."""
    g, tg, fg = germ_components(field)
    return fg * (fg + g), 3


def germ_preimages():
    """Parameter values where all three components vanish: 0 and the roots."""
    return (unity_field().zero,) + fifth_roots()


def tangent_point_set():
    """The six tangent directions (1, a_i, 0) and (1, 0, -1) over GF(11)."""
    field = unity_field()
    pts = [[field.one, a, field.zero] for a in fifth_roots()]
    pts.append([field.one, field.zero, -field.one])
    return PointSet.of(2, field, pts)


def germ_branch_curve():
    """Branch decomposition of the parametrized germ at its six preimages."""
    field = unity_field()
    comps = germ_components(field)
    t = Polynomial.variable(0, 1, field)
    branches = []
    for tau in germ_preimages():
        shift = t + Polynomial.constant(tau, 1, field)
        moved = tuple(c.compose1(shift) for c in comps)
        for c in moved:
            assert (0,) not in c.terms, "component does not vanish at preimage"
        branches.append(Branch(moved))
    return BranchCurve(r=2, field=field, branches=tuple(branches))


def line_points(e, field=None):
    """e distinct points of P^1."""
    field = field or QQ
    return PointSet.of(1, field, [[field.one, field(i)] for i in range(e)])


def on_conic_points():
    """Six rational points of the conic x0*x2 = x1^2 in P^2."""
    return PointSet.of(2, QQ, [[Fraction(1), Fraction(i), Fraction(i * i)]
                               for i in range(6)])


def off_conic_points():
    """Six points of P^2 lying on no conic (checked in the test suite)."""
    return PointSet.of(2, QQ, [[Fraction(1), Fraction(i), Fraction(i ** 3)]
                               for i in range(6)])


def arrangement_forms(which):
    """Named linear-form families for the hyperplane-union conductor checks."""
    if which == "three-lines":
        nvars = 3
        specs = [(0,), (1,), (0, 1, 2)]
    elif which == "four-lines":
        nvars = 3
        specs = [(0,), (1,), (0, 1, 2), "skew"]
    elif which == "two-planes":
        nvars = 3
        specs = [(0,), (1,)]
    elif which == "three-planes":
        nvars = 4
        specs = [(0,), (1,), (2,)]
    else:
        raise ValueError("unknown arrangement %r" % (which,))
    forms = []
    for s in specs:
        if s == "skew":
            f = (Polynomial.variable(0, nvars, QQ)
                 - Polynomial.variable(1, nvars, QQ)
                 + Polynomial.variable(2, nvars, QQ) * QQ(2))
        else:
            f = Polynomial.zero(nvars, QQ)
            for i in s:
                f = f + Polynomial.variable(i, nvars, QQ)
        forms.append(f)
    return forms


def monomial_model(n):
    """Surface algebra generated by W^n, Y, WY inside N^2, with the candidate
    conductor generated by the exponent vectors of the degree-(n-1) products
    of the last two generators."""
    return {
        "generators": [[n, 0], [0, 1], [1, 1]],
        "box": 4 * n,
        "candidate": [[j, n - 1] for j in range(n)],
    }


def _conductor_points_payload(X):
    payload = point_set_to_json(X)
    return {"model": "points", "points": payload}


def fixture_files():
    """name -> JSON-serializable content for every shipped input fixture."""
    field = unity_field()
    curve = germ_branch_curve()
    query, min_factors = germ_membership_query()
    germ_model = {
        "field": field_to_json(field),
        "parametrization": [c.text(names=("t",)) for c in germ_components()],
        "membership": {
            "query": query.text(names=("t",)),
            "min_factors": min_factors,
        },
    }
    files = {
        "tangent_points.json": point_set_to_json(tangent_point_set()),
        "germ_curve.json": curve_to_json(curve),
        "germ_model.json": germ_model,
        "line_points.json": point_set_to_json(line_points(5)),
        "on_conic_points.json": point_set_to_json(on_conic_points()),
        "off_conic_points.json": point_set_to_json(off_conic_points()),
        "conductor_points.json": _conductor_points_payload(off_conic_points()),
        "semigroup_2_5.json": {"model": "semigroup", "generators": [2, 5]},
        "semigroup_2_3.json": {"model": "semigroup", "generators": [2, 3]},
        "semigroup_3_4_5.json": {"model": "semigroup", "generators": [3, 4, 5]},
        "monomial_n3.json": dict({"model": "monomial-algebra"},
                                 **monomial_model(3)),
        "arrangement_three_lines.json": {
            "model": "arrangement", "vars": 3, "field": "Q",
            "forms": [f.text() for f in arrangement_forms("three-lines")],
        },
        "arrangement_four_lines.json": {
            "model": "arrangement", "vars": 3, "field": "Q",
            "forms": [f.text() for f in arrangement_forms("four-lines")],
        },
        "arrangement_three_planes.json": {
            "model": "arrangement", "vars": 4, "field": "Q",
            "forms": [f.text() for f in arrangement_forms("three-planes")],
        },
    }
    return files


def write_fixture_files(directory=None):
    directory = directory or FIXTURE_DIR
    os.makedirs(directory, exist_ok=True)
    for name, content in sorted(fixture_files().items()):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(canonical_json(content))
