"""JSON formats for point sets, branch curves, ideals, and certificates.

All output goes through canonical_json so byte-identical reruns are possible:
sorted keys, two-space indent, trailing newline.
"""

import json
from json.encoder import encode_basestring_ascii

from .poly import parse_polynomial
from .points import PointSet
from .scalars import QQ, PrimeField
from .tangent_cone import Branch, BranchCurve


def canonical_json(obj):
    """The bytes of json.dumps(obj, sort_keys=True, indent=2) + "\\n", written
    in one pass. It takes dicts with str keys, lists, tuples, str, int, bool
    and None; anything else is a TypeError."""
    out = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, nl, out):
    """Append the JSON of `obj` to `out`; `nl` is a newline and the indent
    of the line `obj` starts on."""
    inner = nl + "  "
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) and all(type(v) is int for v in obj):
        out.append("[%s%s%s]" % (inner, ("," + inner).join(
            map(int.__repr__, obj)), nl) if obj else "[]")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.append(("," if i else "[") + inner)
            _write_json(v, inner, out)
        out.append(nl + "]")
    elif isinstance(obj, dict):
        # a key that is no str is a TypeError in encode_basestring_ascii
        for i, key in enumerate(sorted(obj)):
            out.append("%s%s%s: " % ("," if i else "{", inner,
                                     encode_basestring_ascii(key)))
            _write_json(obj[key], inner, out)
        out.append(nl + "}" if obj else "{}")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


def field_to_json(field):
    if field is QQ:
        return "Q"
    return {"p": field.p}


def field_from_json(obj):
    if obj == "Q" or obj is None:
        return QQ
    if isinstance(obj, dict) and set(obj) == {"p"}:
        return PrimeField(integer(obj["p"], "field.p", 2))
    raise ValueError("unrecognized field descriptor: %r" % (obj,))


def point_set_to_json(X):
    return {
        "field": field_to_json(X.field),
        "r": X.r,
        "points": [[X.field.to_str(c) for c in p] for p in X.points],
    }


def point_set_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError('a point set must be a JSON object with "r" and '
                         '"points" keys, got %s' % type(obj).__name__)
    field = field_from_json(obj.get("field"))
    points = obj["points"]
    if not isinstance(points, list):
        raise ValueError("points: expected a list of points, got %s"
                         % json.dumps(points))
    for i, point in enumerate(points):
        if not isinstance(point, list):
            raise ValueError("points[%d]: expected a list of coordinates, "
                             "got %s" % (i, json.dumps(point)))
        for j, c in enumerate(point):
            if isinstance(c, bool) or not isinstance(c, (str, int)):
                raise ValueError("points[%d][%d]: expected a scalar string or "
                                 "an integer, got %s" % (i, j, json.dumps(c)))
    return PointSet.of(integer(obj["r"], "r", 0), field, points)


def polynomial_text(value, path):
    """`value` if it is a string; otherwise ValueError naming its JSON path."""
    if not isinstance(value, str):
        raise ValueError("%s: expected a polynomial string, got %s"
                         % (path, json.dumps(value)))
    return value


def polynomial_texts(values, path):
    """A JSON list of polynomial strings, each checked by polynomial_text."""
    if not isinstance(values, list):
        raise ValueError("%s: expected a list of polynomial strings, got %s"
                         % (path, json.dumps(values)))
    return [polynomial_text(v, "%s[%d]" % (path, i))
            for i, v in enumerate(values)]


def integer(value, path, least=None):
    """`value` if it is an integer (not a bool), and >= `least` when that is
    given; otherwise ValueError naming its JSON path."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or least is not None and value < least):
        raise ValueError("%s: expected an integer%s, got %s"
                         % (path, "" if least is None else " >= %d" % least,
                            json.dumps(value)))
    return value


def integers(values, path):
    """A JSON list of integers, each checked by `integer`."""
    if not isinstance(values, list):
        raise ValueError("%s: expected a list of integers, got %s"
                         % (path, json.dumps(values)))
    return [integer(v, "%s[%d]" % (path, i)) for i, v in enumerate(values)]


def exponent_vectors(values, path):
    """A JSON list of nonempty integer lists, as tuples; each entry checked
    by `integer`."""
    if not isinstance(values, list):
        raise ValueError("%s: expected a list of integer lists, got %s"
                         % (path, json.dumps(values)))
    vectors = []
    for i, v in enumerate(values):
        where = "%s[%d]" % (path, i)
        vectors.append(tuple(integers(v, where)))
        if not v:
            raise ValueError("%s: expected a nonempty exponent vector" % where)
    return vectors


def curve_to_json(C):
    return {
        "field": field_to_json(C.field),
        "r": C.r,
        "branches": [[comp.text(names=("t",)) for comp in B.components]
                     for B in C.branches],
    }


def curve_from_json(obj):
    field = field_from_json(obj.get("field"))
    r = integer(obj["r"], "r", 0)
    branches = obj["branches"]
    if not isinstance(branches, list) or not branches:
        raise ValueError("branches: expected a nonempty list of branches, "
                         "got %s" % json.dumps(branches))
    parsed = []
    for i, comps in enumerate(branches):
        comps = polynomial_texts(comps, "branches[%d]" % i)
        if len(comps) != r + 1:
            raise ValueError("branch needs %d components, got %d"
                             % (r + 1, len(comps)))
        parsed.append(Branch(tuple(
            parse_polynomial(c, 1, field, names=("t",)) for c in comps)))
    return BranchCurve(r=r, field=field, branches=tuple(parsed))


def polynomials_from_json(obj, key):
    """The polynomials `obj[key]` in `obj["vars"]` variables over
    `obj["field"]`, each entry's shape checked with its JSON path. With key
    "forms" this reads an arrangement model."""
    field = field_from_json(obj.get("field"))
    nvars = integer(obj["vars"], "vars", 1)
    return [parse_polynomial(s, nvars, field)
            for s in polynomial_texts(obj[key], key)]


def ideal_from_json(obj):
    from .groebner import Ideal
    gens = polynomials_from_json(obj, "gens")
    return Ideal(obj["vars"], field_from_json(obj.get("field")), gens)


def load_json(path):
    """The JSON object stored at `path`; every genpos input is an object."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("%s: top-level JSON value must be an object, got %s"
                         % (path, type(obj).__name__))
    return obj
