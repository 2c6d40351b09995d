"""Answer oracle: checks every certificate against an answer genpos did not make.

`check` returns a list of problems for one instance (empty when the
certificate is right). `corrupt` damages a certificate in the field its check
reads; the self-check in run.py confirms that every damaged certificate is
rejected, so an oracle that stopped looking would show up as a failed run.
"""

import copy
import hashlib
import json
import math

from algebra import (complete_intersection_hilbert, evaluate, generic_hilbert,
                     nu, parse_poly_text, scalar_value)


def answer_digest(cert):
    """sha256 of a certificate without its envelope (tool version, budgets)."""
    body = {k: v for k, v in cert.items() if k != "envelope"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _want(problems, what, got, expected):
    if got != expected:
        problems.append("%s: got %r, expected %r" % (what, got, expected))


def _conductor_points(x, cert, problems):
    c = cert["certificate"]
    _want(problems, "hilbert_values", c["oracle"]["hilbert_values"], x["hilbert"])
    _want(problems, "sigma", c["oracle"]["sigma"], x["sigma"])
    _want(problems, "claimed exponent", c["claimed"]["exponent"], x["nu"])
    hyps = c["hypotheses"]
    if x["generic"]:
        _want(problems, "hypotheses", hyps, {"generic_position": True,
                                             "generic_position_e_minus_1": True})
        _want(problems, "verdict", c["verdict"], "match")
    else:
        _want(problems, "generic_position", hyps["generic_position"], False)
        _want(problems, "verdict", c["verdict"], "hypotheses-failed")


def _witness(c, points, p, problems):
    """The witness must be a form of the failing degree that vanishes on the
    failing subset, in a degree where that proves the subset degenerate."""
    r = len(points[0]) - 1
    d = c["failing_degree"]
    form = parse_poly_text(c["witness"] or "0", r + 1)
    subset = c["failing_subset"]
    subset = list(range(len(points))) if subset is None else subset
    if not form:
        problems.append("witness is zero")
    if any(sum(m) != d for m in form):
        problems.append("witness %r is not a form of degree %s" % (c["witness"], d))
    if len(subset) != c["t"] or math.comb(d + r, r) > len(subset):
        problems.append("failing subset %s does not certify degree %s"
                        % (subset, d))
    bad = [i for i in subset if evaluate(form, points[i], p)]
    if bad:
        problems.append("witness does not vanish at points %s" % bad)


def _points_check(x, cert, problems, points, p):
    c = cert["certificate"]
    e, r, t = len(points), len(points[0]) - 1, c["t"]
    if "generic" in x:
        _want(problems, "generic", c["generic"], x["generic"])
        _want(problems, "t", t, x["t"])
    if c["generic"]:
        _want(problems, "checked_degrees", c["checked_degrees"],
              list(range(nu(t, r) + 1)))
        if t == e:
            _want(problems, "hilbert_values", c["hilbert_values"],
                  generic_hilbert(e, r, nu(e, r)))
    else:
        if x.get("failing_degree") is not None:
            _want(problems, "failing_degree", c["failing_degree"],
                  x["failing_degree"])
        _witness(c, points, p, problems)


def _fixture_points(inst):
    with open(inst["input"], encoding="utf-8") as fh:
        obj = json.load(fh)
    p = obj["field"]["p"] if isinstance(obj["field"], dict) else None
    return [[scalar_value(s, p) for s in row] for row in obj["points"]], p


def _arrangement(x, cert, problems):
    c = cert["certificate"]
    _want(problems, "verdict", c["verdict"], "match")
    strata = c["details"]["strata"]
    _want(problems, "strata", len(strata), x["strata"])
    _want(problems, "stratum multiplicities",
          sorted({s["multiplicity"] for s in strata}), [2])


def _cone_ci(x, cert, problems):
    prof = cert["profile"]
    values = prof["values"]
    _want(problems, "cone values", values, complete_intersection_hilbert(
        x["nvars"], x["degrees"], len(values) - 1))
    _want(problems, "multiplicity", prof["multiplicity"], math.prod(x["degrees"]))
    _want(problems, "emdim", prof["emdim"],
          x["nvars"] - sum(1 for d in x["degrees"] if d == 1))


def _germ(x, cert, problems, twin):
    prof = cert["profile"]
    _want(problems, "H(0)", prof["values"][0], 1)
    _want(problems, "multiplicity", prof["multiplicity"], x["multiplicity"])
    mem = cert["membership"]
    if x["member"] is not None:
        _want(problems, "member", mem["member"], x["member"])
    _want(problems, "member of m", mem["member_at_min_factors_1"], True)
    if twin is None:
        problems.append("twin certificate missing")
    else:
        _want(problems, "profile vs twin", prof, twin.get("profile"))
        _want(problems, "membership vs twin", mem, twin.get("membership"))


def _semigroup(x, cert, problems):
    a, b = x["a"], x["b"]
    c = cert["certificate"]
    _want(problems, "conductor", c["oracle"]["conductor_start"], (a - 1) * (b - 1))
    _want(problems, "frobenius", c["oracle"]["frobenius"], a * b - a - b)
    _want(problems, "gap count", len(c["oracle"]["gaps"]), (a - 1) * (b - 1) // 2)
    _want(problems, "claimed start", c["claimed"]["start"], a * (a - 1))
    _want(problems, "verdict", c["verdict"], "match" if b == a + 1 else "mismatch")
    _want(problems, "distinct_tangents", c["hypotheses"]["distinct_tangents"], False)


def _branches(x, cert, problems):
    p = x["p"]
    pts = [tuple(v % p for v in pt) for pt in x["points"]]
    _want(problems, "multiplicity", cert["multiplicity"], len(pts))
    got = cert["tangent_points"]["points"]
    _want(problems, "tangent points",
          sorted(tuple(scalar_value(s, p) for s in row) for row in got),
          sorted(pts))
    g = cert["genericity"]
    r = len(pts[0]) - 1
    _want(problems, "tangent genericity", g["generic"], True)
    _want(problems, "tangent hilbert", g["hilbert_values"],
          generic_hilbert(len(pts), r, nu(len(pts), r)))


def check(inst, cert, code, recorded, twin_cert=None):
    """Problems with one instance's certificate and exit code."""
    x = inst["expect"]
    problems = []
    if cert is None:
        return ["no certificate (exit %r)" % (code,)]
    rec = recorded.get(inst["id"]) if x.get("recorded") else None
    if x.get("recorded") and rec is None:
        return ["no recorded answer for %s" % inst["id"]]
    _want(problems, "exit code", code, rec["exit"] if rec else x["exit"])
    kind = x["check"]
    try:
        if kind == "conductor-points":
            _conductor_points(x, cert, problems)
        elif kind == "points-check":
            _points_check(x, cert, problems, x["points"], x["p"])
        elif kind == "points-check-fixture":
            _points_check(x, cert, problems, *_fixture_points(inst))
        elif kind == "arrangement":
            _arrangement(x, cert, problems)
        elif kind == "cone-ci":
            _cone_ci(x, cert, problems)
        elif kind == "germ":
            _germ(x, cert, problems, twin_cert)
        elif kind == "semigroup":
            _semigroup(x, cert, problems)
        elif kind == "monomial":
            _want(problems, "verdict", cert["certificate"]["verdict"], "match")
        elif kind == "branches":
            _branches(x, cert, problems)
        elif kind == "recorded" and "basis_size" in x:
            _want(problems, "basis size", len(cert["basis"]), x["basis_size"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append("malformed certificate: %r" % (exc,))
    if rec is not None:
        _want(problems, "answer digest", answer_digest(cert), rec["sha256"])
    return problems


def corrupt(inst, cert):
    """A copy of cert damaged where the instance's check looks."""
    bad = copy.deepcopy(cert)
    kind = inst["expect"]["check"]
    if kind == "conductor-points":
        bad["certificate"]["oracle"]["sigma"] += 1
    elif kind in ("points-check", "points-check-fixture"):
        bad["certificate"]["generic"] = not bad["certificate"]["generic"]
    elif kind in ("arrangement", "monomial"):
        bad["certificate"]["verdict"] = "mismatch"
    elif kind == "cone-ci":
        bad["profile"]["values"][-1] += 1
    elif kind == "germ":
        bad["profile"]["multiplicity"] += 1
    elif kind == "semigroup":
        bad["certificate"]["oracle"]["conductor_start"] += 1
    elif kind == "branches":
        bad["multiplicity"] += 1
    elif "basis" in bad:
        bad["basis"] = bad["basis"][:-1]
    else:
        bad["certificate"]["verdict"] = "corrupted"
    return bad
