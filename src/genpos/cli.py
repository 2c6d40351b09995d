"""Command-line front end: JSON models in, human report plus certificate out.

Subcommands:
  points-check        genericity of a point set (optionally of every t-subset)
  conductor           conductor formula vs brute-force oracle for one of four
                      model kinds: points, semigroup, monomial-algebra,
                      arrangement
  tangent-cone        graded profile of a singularity, from a branch
                      decomposition, a parametrization (with the exact
                      level of a query in the powers of m), or an ideal
  reproduce-examples  run the bundled example suite against golden outputs

Exit codes: 0 positive result (generic / match / all reproduced), 1 negative
result (not generic / mismatch / golden divergence), 2 error, 3 a conductor
hypothesis failed.

Every certificate depends only on its input file: the field, the box and
every other parameter of a model are keys of that file. Argparse is the only
configuration layer: each subcommand accepts just the flags its handler reads
(which subsets points-check checks, and where the certificate JSON goes), and
the handlers take the parsed namespace.
"""

import argparse
import json
import os
import sys
from functools import cache, partial

from . import __version__
from . import fixtures as fx
from .conductor import (arrangement_certificate, monomial_conductor_certificate,
                        points_conductor_certificate, points_conductor_sigma,
                        semigroup_certificate, symbolic_power)
from .errors import BudgetExceededError
from .groebner import (DEFAULT_MAX_BASIS, DEFAULT_MAX_PAIRS, Ideal,
                       ideal_equal, ideal_power)
from .points import (DEFAULT_SUBSET_BUDGET, is_generic_position,
                     is_generic_t_position, nu, random_point_set)
from .poly import Polynomial, parse_polynomial
from .scalars import QQ, PrimeField
from .serialize import (canonical_json, curve_from_json, exponent_vectors,
                        field_from_json, ideal_from_json, integer, integers,
                        load_json, point_set_from_json, point_set_to_json,
                        polynomial_text, polynomial_texts,
                        polynomials_from_json)
from .tangent_cone import (GermRing, branch_tangent_points, cone_profile,
                           germ_profile, subalgebra_member)


def positive_int(s):
    try:
        value = int(s)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r"
                                         % s)
    return value


FLAGS = {
    "--t": dict(type=positive_int,
                help="check every t-point subset instead of the full set"),
    "--subset-budget": dict(type=positive_int,
                            help="cap on the number of t-subsets to check "
                                 "(default %d)" % DEFAULT_SUBSET_BUDGET),
    "--only": dict(help="run only example ids containing this substring"),
    "--write-golden": dict(action="store_true",
                           help="record current outputs as the golden files"),
    "--golden-dir": dict(help="directory of golden files (default: bundled)"),
    "--json-out": dict(help="write the certificate JSON here instead of stdout"),
}


@cache
def build_parser():
    """The `genpos` parser, built on first use and reused by later calls:
    `parse_args` makes a fresh namespace each time and no flag has a
    mutable default."""
    parser = argparse.ArgumentParser(
        prog="genpos",
        description="Exact genericity, tangent-cone, and conductor checks.")
    parser.add_argument("--version", action="version",
                        version="genpos " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help, flags in (
            ("points-check", cmd_points_check,
             "certify generic (t-)position of a point set",
             ("--t", "--subset-budget", "--json-out")),
            ("conductor", cmd_conductor,
             "check a conductor formula against its oracle",
             ("--json-out",)),
            ("tangent-cone", cmd_tangent_cone,
             "graded profile of a curve singularity",
             ("--json-out",)),
            ("reproduce-examples", cmd_reproduce_examples,
             "run the bundled example suite against goldens",
             ("--only", "--write-golden", "--golden-dir", "--json-out"))):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if name != "reproduce-examples":
            p.add_argument("inputs", nargs="+", metavar="INPUT",
                           help="input JSON file(s)")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def envelope(args):
    """Reproducibility header embedded in every emitted certificate.

    A budget the subcommand has no flag for is recorded as the library
    default it runs under, or as None. No certificate reads a degree bound or
    a box from the command line, so `degree_bound` and `box` are always None,
    and no subcommand draws random numbers from a caller's seed, so `seed` is
    always 0; all three stay for byte-stable records.
    """
    return {
        "tool": "genpos",
        "tool_version": __version__,
        "seed": 0,
        "budgets": {
            "degree_bound": None,
            "box": None,
            # only the t-subset checks of points-check and the example
            # suite run under a subset budget
            "subset_budget": ((getattr(args, "subset_budget", None)
                               or DEFAULT_SUBSET_BUDGET)
                              if args.command in ("points-check",
                                                  "reproduce-examples")
                              else None),
            "max_basis": DEFAULT_MAX_BASIS,
            "max_pairs": DEFAULT_MAX_PAIRS,
        },
    }


def emit_json(json_out, payload):
    text = canonical_json(payload)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_batch(args, one):
    """Run `one` over every input path; print reports in input order.

    `one` returns (exit code, report lines, payload) and raises on errors, so
    the batch's code is the largest of 0, 1 and 3 among its inputs.
    """
    results = [one(path) for path in args.inputs]
    for _, lines, _ in results:
        for line in lines:
            print(line)
    payloads = [payload for _, _, payload in results]
    emit_json(args.json_out, payloads[0] if len(payloads) == 1 else payloads)
    return max(code for code, _, _ in results)


# ------------------------------------------------------------ points-check

def cmd_points_check(args):
    def one(path):
        X = point_set_from_json(load_json(path))
        if args.t is None:
            cert = is_generic_position(X)
            label = "generic position"
        else:
            cert = is_generic_t_position(
                X, args.t, args.subset_budget or DEFAULT_SUBSET_BUDGET)
            label = "generic %d-position" % args.t
        lines = ["%d points of P^%d over %s" % (X.e, X.r, X.field)]
        if cert.generic:
            lines.append("%s: yes (degrees checked: 0..%d)"
                         % (label, cert.checked_degrees[-1]))
        else:
            lines.append("%s: NO (failing degree %d)"
                         % (label, cert.failing_degree))
            lines.append("witness hypersurface: %s" % cert.witness.text())
            if cert.failing_subset is not None:
                lines.append("failing subset: %s" % (list(cert.failing_subset),))
        payload = {"command": "points-check", "envelope": envelope(args),
                   "certificate": cert.as_dict()}
        return (0 if cert.generic else 1), lines, payload

    return run_batch(args, one)


# ------------------------------------------------------------ conductor

def _summarize(d):
    parts = []
    for k in sorted(d):
        v = d[k]
        if isinstance(v, (int, bool, str)) or v is None:
            parts.append("%s=%s" % (k, v))
        elif isinstance(v, list) and len(v) <= 8:
            parts.append("%s=%s" % (k, v))
    return ", ".join(parts)


def conductor_certificate_for(obj):
    model = obj.get("model")
    if model == "points":
        return points_conductor_certificate(point_set_from_json(obj["points"]))
    if model == "semigroup":
        return semigroup_certificate(integers(obj["generators"],
                                              "generators"))
    if model == "monomial-algebra":
        if obj.get("box") is None:
            raise ValueError('monomial-algebra model needs a "box" key')
        return monomial_conductor_certificate(
            exponent_vectors(obj["generators"], "generators"), obj["box"],
            exponent_vectors(obj["candidate"], "candidate"))
    if model == "arrangement":
        return arrangement_certificate(polynomials_from_json(obj, "forms"))
    raise ValueError("unknown conductor model %r (expected points, "
                     "semigroup, monomial-algebra, or arrangement)" % (model,))


def cmd_conductor(args):
    def one(path):
        cert = conductor_certificate_for(load_json(path))
        flags = {k: v for k, v in cert.hypotheses.items()
                 if isinstance(v, bool)}
        lines = [
            "model: %s" % cert.model,
            "claimed: %s" % _summarize(cert.claimed),
            "oracle: %s" % _summarize(cert.oracle),
            "hypotheses: " + ", ".join(
                "%s=%s" % (k, "ok" if v else "FAILED")
                for k, v in sorted(flags.items())),
            "verdict: %s" % cert.verdict,
        ]
        reason = cert.hypotheses.get("reason")
        if reason:
            lines.insert(4, "note: %s" % reason)
        payload = {"command": "conductor", "envelope": envelope(args),
                   "certificate": cert.as_dict()}
        if cert.hypotheses_failed:
            code = 3
        elif cert.verdict == "match":
            code = 0
        else:
            code = 1
        return code, lines, payload

    return run_batch(args, one)


# ------------------------------------------------------------ tangent-cone

def cmd_tangent_cone(args):
    def one(path):
        obj = load_json(path)
        for key, route in (("branches", _cone_from_branches),
                           ("parametrization", _cone_from_parametrization),
                           ("gens", _cone_from_ideal)):
            if key in obj:
                break
        else:
            raise ValueError('tangent-cone input needs "branches", '
                             '"parametrization", or "gens"')
        return route(obj, args)

    return run_batch(args, one)


def _cone_from_branches(obj, args):
    curve = curve_from_json(obj)
    pts = branch_tangent_points(curve)
    cert = is_generic_position(pts)
    lines = ["branches: %d, all smooth with pairwise distinct tangents"
             % len(curve.branches),
             "multiplicity of the union: %d" % pts.e]
    if cert.generic:
        lines.append("tangent directions in generic position: yes")
    else:
        lines.append("tangent directions in generic position: NO "
                     "(degree %d, witness %s)"
                     % (cert.failing_degree, cert.witness.text()))
    payload = {"command": "tangent-cone", "route": "branches",
               "envelope": envelope(args), "multiplicity": pts.e,
               "tangent_points": point_set_to_json(pts),
               "genericity": cert.as_dict()}
    return 0, lines, payload


def germ_report(obj):
    """The graded profile of a parametrized germ model and, when it asks a
    membership query, the answers at min_factors and at 1 (else None), both
    read off the query's exact level in the powers of the maximal ideal of
    the germ's local ring. The profile and the level read one GermRing."""
    field = field_from_json(obj.get("field"))
    texts = obj["parametrization"]
    if not isinstance(texts, list) or not texts:
        raise ValueError("parametrization: expected a nonempty list of "
                         "polynomial strings, got %s" % json.dumps(texts))
    gens = [parse_polynomial(s, 1, field, names=("t",))
            for s in polynomial_texts(texts, "parametrization")]
    for i, g in enumerate(gens):
        if g.is_zero() or (0,) in g.terms:
            raise ValueError("parametrization[%d]: expected a nonzero "
                             "polynomial with no constant term, got %s"
                             % (i, json.dumps(texts[i])))
    mem = obj.get("membership")
    if mem is not None and not isinstance(mem, dict):
        raise ValueError('membership: expected an object with a "query" key, '
                         "got %s" % json.dumps(mem))
    if mem is None:
        return germ_profile(gens), None
    if "window" in mem:
        raise ValueError("membership.window is not read: the query's level "
                         "in the powers of the maximal ideal is exact")
    text = polynomial_text(mem["query"], "membership.query")
    q = parse_polynomial(text, 1, field, names=("t",))
    if q.is_zero():
        raise ValueError("membership.query: the zero query lies in every "
                         "power of the maximal ideal")
    min_factors = integer(mem.get("min_factors", 1),
                          "membership.min_factors", 1)
    ring = GermRing(gens, q)
    profile = germ_profile(gens, ring)
    level = subalgebra_member(q, gens, ring)
    return profile, {"query": text, "min_factors": min_factors,
                     "member": level >= min_factors,
                     "member_at_min_factors_1": level >= 1}


def _cone_from_parametrization(obj, args):
    profile, mem = germ_report(obj)
    lines = ["graded quotient dimensions: %s" % (list(profile.values),),
             "multiplicity: %d, embedding dimension: %d"
             % (profile.multiplicity, profile.emdim)]
    payload = {"command": "tangent-cone", "route": "parametrization",
               "envelope": envelope(args), "profile": profile.as_dict()}
    if mem:
        lines += ["query %s m^%d: %s"
                  % ("inside" if mem["member"] else "outside",
                     mem["min_factors"], mem["query"]),
                  "query inside m: %s"
                  % ("yes" if mem["member_at_min_factors_1"] else "no")]
        payload["membership"] = mem
    return 0, lines, payload


def _cone_from_ideal(obj, args):
    ideal = ideal_from_json(obj)
    for i, g in enumerate(ideal.gens):
        if g.low_degree() == 0:
            raise ValueError("generator %d (%s) has a nonzero constant term: "
                             "the ideal does not pass through the origin"
                             % (i, g.text()))
    profile = cone_profile(ideal)
    lines = ["graded cone dimensions: %s" % (list(profile.values),),
             "multiplicity: %d, embedding dimension: %d"
             % (profile.multiplicity, profile.emdim)]
    payload = {"command": "tangent-cone", "route": "ideal",
               "envelope": envelope(args), "profile": profile.as_dict()}
    return 0, lines, payload


# ------------------------------------------------------------ example suite

def _case_line_points():
    X = point_set_from_json(load_json(fx.fixture_path("line_points.json")))
    ok = all(is_generic_t_position(X, t).generic for t in range(1, X.e + 1))
    computed = ("generic t-position for every t" if ok
                else "some t-subset is degenerate")
    return computed, {"e": X.e, "r": X.r, "all_t_generic": ok}


def _case_hypersurface_detection():
    on = point_set_from_json(load_json(fx.fixture_path("on_conic_points.json")))
    off = point_set_from_json(load_json(fx.fixture_path("off_conic_points.json")))
    c_on = is_generic_position(on)
    c_off = is_generic_position(off)
    computed = ("on-curve set fails at degree %s; control set %s"
                % (c_on.failing_degree,
                   "generic" if c_off.generic else "degenerate"))
    return computed, {"on_curve": c_on.as_dict(), "control": c_off.as_dict()}


def _case_tangent_points():
    X = point_set_from_json(load_json(fx.fixture_path("tangent_points.json")))
    cert = is_generic_position(X)
    sigma, values = points_conductor_sigma(X)
    computed = ("e = %d, fails at degree %s, witness %s, conductor degree %s"
                % (X.e, cert.failing_degree,
                   None if cert.witness is None else cert.witness.text(),
                   sigma))
    return computed, {"certificate": cert.as_dict(), "sigma": sigma,
                      "hilbert": list(values)}


def _case_germ_profile():
    profile, mem = germ_report(load_json(fx.fixture_path("germ_model.json")))
    in_cube, in_max = mem["member"], mem["member_at_min_factors_1"]
    curve = curve_from_json(load_json(fx.fixture_path("germ_curve.json")))
    pts = branch_tangent_points(curve)
    X = point_set_from_json(load_json(fx.fixture_path("tangent_points.json")))
    same = set(pts.points) == set(X.points)
    bits = ["mult %d" % profile.multiplicity,
            "emdim %d" % profile.emdim,
            "query outside the cube" if in_max and not in_cube
            else "cube membership check failed",
            "tangents match" if same else "tangents differ"]
    payload = {"profile": profile.as_dict(), "in_maximal_ideal": in_max,
               "in_cube": in_cube, "tangents_match_fixture": same}
    return ", ".join(bits), payload


def _case_random_generic():
    from random import Random  # loaded by this case only
    rng = Random(0)
    field = PrimeField(fx.BIG_PRIME)
    rows = []
    resampled = 0
    matches = 0
    for i in range(30):
        e = 3 + (i % 8)
        r = 1 + (i % 3)
        cert = None
        for _ in range(50):
            X, _ = random_point_set(rng, e, r, field)
            cert = points_conductor_certificate(X)
            if not cert.hypotheses_failed:
                break
            resampled += 1
        rows.append({"e": e, "r": r, "nu": nu(e, r),
                     "sigma": cert.oracle["sigma"], "verdict": cert.verdict})
        matches += cert.verdict == "match"
    computed = "conductor exponent equals nu in %d/30 seeded sets" % matches
    return computed, {"cases": rows, "resamples": resampled,
                      "prime": fx.BIG_PRIME}


def _case_line_ladder():
    rows = []
    ok = True
    for e in range(2, 11):
        sigma, _ = points_conductor_sigma(fx.line_points(e))
        rows.append({"e": e, "sigma": sigma})
        ok = ok and sigma == e - 1
    computed = ("sigma = e - 1 for e = 2..10" if ok
                else "sigma deviates: %s" % rows)
    return computed, {"cases": rows}


def _case_arrangement(fixture_name):
    obj = load_json(fx.fixture_path(fixture_name))
    cert = arrangement_certificate(polynomials_from_json(obj, "forms"))
    computed = ("formula matches the oracle ideal" if cert.verdict == "match"
                else "formula misses the oracle ideal")
    return computed, {"certificate": cert.as_dict()}


def _case_monomial():
    rows = []
    ok = True
    for n in (2, 3, 4, 5):
        model = fx.monomial_model(n)
        cert = monomial_conductor_certificate(
            [tuple(g) for g in model["generators"]], model["box"],
            [tuple(c) for c in model["candidate"]])
        rows.append({"n": n, "verdict": cert.verdict,
                     "window": cert.oracle["window"]})
        ok = ok and cert.verdict == "match"
    computed = ("claimed generators match the bounded oracle for n = 2..5"
                if ok else "divergence: %s" % rows)
    return computed, {"cases": rows}


def _case_semigroups():
    certs = {}
    for name in ("semigroup_2_5.json", "semigroup_2_3.json",
                 "semigroup_3_4_5.json"):
        obj = load_json(fx.fixture_path(name))
        key = ",".join(str(g) for g in obj["generators"])
        certs[key] = semigroup_certificate(obj["generators"])
    flagged = all(c.hypotheses_failed for c in certs.values())
    computed = ("<2,5> %s, <2,3> %s, <3,4,5> %s, hypotheses flagged in all"
                % (certs["2,5"].verdict, certs["2,3"].verdict,
                   certs["3,4,5"].verdict))
    if not flagged:
        computed += " (flag missing)"
    return computed, {k: c.as_dict() for k, c in certs.items()}


def _case_symbolic_powers():
    x = Polynomial.variable(0, 3, QQ)
    y = Polynomial.variable(1, 3, QQ)
    z = Polynomial.variable(2, 3, QQ)
    q = Ideal.of(x, y)
    rows = []
    ok = True
    for m in range(1, 5):
        same = ideal_equal(symbolic_power(q, m, z), ideal_power(q, m))
        rows.append({"m": m, "equals_ordinary_power": same})
        ok = ok and same
    computed = ("symbolic power equals ordinary power for m = 1..4"
                if ok else "divergence: %s" % rows)
    return computed, {"cases": rows}


CASES = (
    ("line-points", "generic t-position for every t", _case_line_points),
    ("hypersurface-detection",
     "on-curve set fails at degree 2; control set generic",
     _case_hypersurface_detection),
    ("tangent-points",
     "e = 6, fails at degree 2, witness x1*x2, conductor degree 4",
     _case_tangent_points),
    ("germ-profile",
     "mult 6, emdim 3, query outside the cube, tangents match",
     _case_germ_profile),
    ("random-generic-conductor",
     "conductor exponent equals nu in 30/30 seeded sets",
     _case_random_generic),
    ("line-conductor-ladder", "sigma = e - 1 for e = 2..10",
     _case_line_ladder),
    ("three-lines-conductor", "formula matches the oracle ideal",
     partial(_case_arrangement, "arrangement_three_lines.json")),
    ("four-lines-conductor", "formula matches the oracle ideal",
     partial(_case_arrangement, "arrangement_four_lines.json")),
    ("three-planes-conductor", "formula matches the oracle ideal",
     partial(_case_arrangement, "arrangement_three_planes.json")),
    ("monomial-surface-conductor",
     "claimed generators match the bounded oracle for n = 2..5",
     _case_monomial),
    ("semigroup-contrast",
     "<2,5> mismatch, <2,3> match, <3,4,5> match, hypotheses flagged in all",
     _case_semigroups),
    ("symbolic-powers", "symbolic power equals ordinary power for m = 1..4",
     _case_symbolic_powers),
)


def cmd_reproduce_examples(args):
    golden_dir = args.golden_dir or fx.GOLDEN_DIR
    selected = [c for c in CASES if args.only is None or args.only in c[0]]
    if not selected:
        raise ValueError("no example id contains %r (ids: %s)"
                         % (args.only, ", ".join(c[0] for c in CASES)))
    env = envelope(args)

    records = []
    for cid, claim, fn in selected:
        computed, payload = fn()
        records.append({"id": cid, "claim": claim, "computed": computed,
                        "envelope": env, "result": payload})

    rows = []
    divergent = []
    missing = []
    written = 0
    for record in records:
        cid, claim, computed = record["id"], record["claim"], record["computed"]
        text = canonical_json(record)
        gpath = os.path.join(golden_dir, cid + ".json")
        if args.write_golden:
            if computed != claim:
                divergent.append(cid)
                status = "DIVERGES (golden not written)"
            else:
                os.makedirs(golden_dir, exist_ok=True)
                with open(gpath, "w", encoding="utf-8") as fh:
                    fh.write(text)
                written += 1
                status = "written"
        elif not os.path.exists(gpath):
            missing.append(cid)
            status = "missing-golden"
        else:
            with open(gpath, "r", encoding="utf-8") as fh:
                golden = fh.read()
            if text == golden and computed == claim:
                status = "pass"
            else:
                divergent.append(cid)
                status = "DIVERGES"
        rows.append((cid, claim, computed, status))

    header = ("id", "expected", "computed", "verdict")
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(4)]
    print(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    if args.json_out:
        emit_json(args.json_out, {"command": "reproduce-examples",
                                  "envelope": env, "cases": records})
    if missing:
        print("missing golden files: %s (use --write-golden to create them)"
              % ", ".join(missing))
        return 2
    if divergent:
        print("divergence in: %s" % ", ".join(divergent))
        return 1
    if args.write_golden:
        print("wrote %d golden files to %s" % (written, golden_dir))
        return 0
    print("%d/%d examples reproduced" % (len(rows), len(rows)))
    return 0


# ------------------------------------------------------------ entry point

def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print("error: budget exceeded: %s" % exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: missing input file: %s" % exc, file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print("error: malformed JSON: %s" % exc, file=sys.stderr)
        return 2
    except KeyError as exc:
        print("error: missing key %s in input" % exc, file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, RuntimeError,
            ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect, not a result: exit 1 always comes with a certificate
        print("error: internal: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
