"""Spans at genpos layer boundaries, and per-layer metrics from the span file.

The tracer wraps public functions of each layer and patches the wrapper into
every genpos module that imported the function by name (e.g. both
`points.rref` and `linalg.rref`), so calls between modules are seen too.
Each call records (name, field tag, counter, parent span, start ns, end ns,
instance). Spans stay in memory until the run ends; `dump` writes them and
`self_times` reads them back. A span's self time is its duration minus the
durations of its children, which run one after another on the one thread.
"""

import json
import sys
import time


def _field_tag(field):
    return "q" if field.p is None else "fp"


# (module, attribute, span name, tag(args), counter(args, result))
BOUNDARIES = (
    ("cli", "main", "cli.main", None, None),
    ("serialize", "load_json", "serialize.load", None, None),
    ("serialize", "field_from_json", "serialize.load", None, None),
    ("serialize", "point_set_from_json", "serialize.load", None, None),
    ("serialize", "curve_from_json", "serialize.load", None, None),
    ("serialize", "ideal_from_json", "serialize.load", None, None),
    ("serialize", "canonical_json", "serialize.canonical_json", None, None),
    ("points", "evaluation_matrix", "points.evaluation_matrix", None,
     lambda a, out: len(out[0]) * len(out[1])),
    ("points", "hilbert_function", "points.hilbert_function", None, None),
    ("points", "is_generic_position", "points.is_generic_position", None, None),
    ("points", "is_generic_t_position", "points.is_generic_t_position",
     None, None),
    ("linalg", "rref", "linalg.rref", lambda a: _field_tag(a[1]),
     lambda a, out: len(a[0]) * len(a[0][0]) if a[0] else 0),
    ("linalg", "nullspace_vector", "linalg.nullspace_vector", None, None),
    ("linalg", "SparseEchelon.insert", "linalg.SparseEchelon.insert", None,
     lambda a, out: int(out)),
    ("linalg", "IntegerEchelon.insert", "linalg.IntegerEchelon.insert", None,
     lambda a, out: int(out)),
    ("groebner", "buchberger", "groebner.buchberger", None,
     lambda a, out: len(out)),
    ("groebner", "normal_form", "groebner.normal_form",
     lambda a: _field_tag(a[0].field), lambda a, out: int(out.is_zero())),
    ("groebner", "ideal_intersect", "groebner.ideal_intersect", None, None),
    ("poly", "Polynomial.__mul__", "poly.Polynomial.__mul__", None, None),
    ("poly", "parse_polynomial", "poly.parse_polynomial", None, None),
    ("tangent_cone", "germ_profile", "tangent_cone.germ_profile", None, None),
    ("tangent_cone", "subalgebra_member", "tangent_cone.subalgebra_member",
     None, None),
    ("tangent_cone", "lowest_form_ideal", "tangent_cone.lowest_form_ideal",
     None, None),
    ("conductor", "points_conductor_certificate",
     "conductor.points_conductor_certificate", None, None),
    ("conductor", "semigroup_certificate", "conductor.semigroup_certificate",
     None, None),
    ("conductor", "monomial_conductor_certificate",
     "conductor.monomial_conductor_certificate", None, None),
    ("conductor", "arrangement_certificate",
     "conductor.arrangement_certificate", None, None),
)

# Per-layer metrics; the suffix says how each is read off the spans:
# calls, self_s (optionally per field: .fp.self_s / .q.self_s), a counter
# total (cells, basis_out) or a counter per call (useful_ratio, zero_ratio).
LAYER_METRICS = (
    "cli.main.self_s",
    "serialize.load.self_s",
    "serialize.canonical_json.self_s",
    "points.evaluation_matrix.calls",
    "points.evaluation_matrix.cells",
    "points.evaluation_matrix.self_s",
    "points.hilbert_function.calls",
    "points.is_generic_position.self_s",
    "points.is_generic_t_position.self_s",
    "linalg.rref.calls",
    "linalg.rref.cells",
    "linalg.rref.fp.self_s",
    "linalg.rref.q.self_s",
    "linalg.nullspace_vector.calls",
    "linalg.SparseEchelon.insert.calls",
    "linalg.SparseEchelon.insert.self_s",
    "linalg.SparseEchelon.insert.useful_ratio",
    "linalg.IntegerEchelon.insert.calls",
    "linalg.IntegerEchelon.insert.self_s",
    "linalg.IntegerEchelon.insert.useful_ratio",
    "groebner.buchberger.calls",
    "groebner.buchberger.self_s",
    "groebner.buchberger.basis_out",
    "groebner.normal_form.calls",
    "groebner.normal_form.zero_ratio",
    "groebner.normal_form.fp.self_s",
    "groebner.normal_form.q.self_s",
    "groebner.ideal_intersect.calls",
    "groebner.ideal_intersect.self_s",
    "poly.Polynomial.__mul__.calls",
    "poly.Polynomial.__mul__.self_s",
    "poly.parse_polynomial.self_s",
    "tangent_cone.germ_profile.self_s",
    "tangent_cone.subalgebra_member.self_s",
    "tangent_cone.lowest_form_ideal.calls",
    "tangent_cone.lowest_form_ideal.self_s",
    "conductor.points_conductor_certificate.self_s",
    "conductor.semigroup_certificate.self_s",
    "conductor.monomial_conductor_certificate.self_s",
    "conductor.arrangement_certificate.self_s",
)


class Tracer:
    """Patches span-recording wrappers into the imported genpos modules."""

    def __init__(self):
        self.spans = []
        self.instance = -1
        self._stack = [-1]
        self._patches = []

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "genpos" or name.startswith("genpos.")]
        for module, attr, name, tag, counter in BOUNDARIES:
            home = sys.modules["genpos." + module]
            owner, _, method = attr.rpartition(".")
            # a method is patched on its class, aliases such as __rmul__ too
            targets = [getattr(home, owner)] if owner else mods
            orig = vars(targets[0])[method] if owner else getattr(home, attr)
            wrapper = self._wrap(name, orig, tag, counter)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        self._patch(target, key, orig, wrapper)

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches = []

    def _patch(self, obj, key, orig, new):
        self._patches.append((obj, key, orig))
        setattr(obj, key, new)

    def _wrap(self, name, fn, tag, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, tag(args) if tag else "",
                              counter(args, out) if counter and out is not None
                              else 0, parent, t0, t1, tracer.instance)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "tag", "counter", "parent",
                                  "start_ns", "end_ns", "instance"],
                       "names": names,
                       "spans": [[index[s[0]]] + list(s[1:])
                                 for s in self.spans]},
                      fh, separators=(",", ":"))


def self_times(path):
    """(span name, tag) -> [calls, self ns, counter total], from a span file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[5] - s[4]
    agg = {}
    for i, s in enumerate(spans):
        row = agg.setdefault((names[s[0]], s[1]), [0, 0, 0])
        row[0] += 1
        row[1] += s[5] - s[4] - child[i]
        row[2] += s[2]
    return agg


def layer_metrics(agg, passes):
    """Every LAYER_METRICS value per traced pass; untouched layers read 0."""

    def total(span, col, tag=None):
        return sum(v[col] for (n, t), v in agg.items()
                   if n == span and (tag is None or t == tag))

    out = {}
    for metric in LAYER_METRICS:
        span, _, what = metric.rpartition(".")
        if what == "self_s":
            tag = None
            if span.endswith((".fp", ".q")):
                span, _, tag = span.rpartition(".")
            out[metric] = (total(span, 1, tag) / 1e9 / passes, "s")
        elif what == "calls":
            out[metric] = (total(span, 0) / passes, "count")
        elif what.endswith("_ratio"):
            calls = total(span, 0)
            out[metric] = (total(span, 2) / calls if calls else 0.0, "ratio")
        else:
            out[metric] = (total(span, 2) / passes, "count")
    return out
