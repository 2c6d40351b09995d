"""The benchmark tracer patches genpos functions by name; each must exist.

`perfbench/spans.py` lists its patch points in BOUNDARIES as (module,
attribute) pairs. A function renamed or removed in genpos makes a traced
benchmark run fail, so this test resolves every pair the way the tracer
does: a plain function on `genpos.<module>`, a method in its class's own
namespace. The file is only loaded, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_boundary_resolves():
    boundaries = load_spans().BOUNDARIES
    assert boundaries
    missing = []
    for module, attr, *_ in boundaries:
        home = importlib.import_module("genpos." + module)
        owner, _, name = attr.rpartition(".")
        scope = getattr(home, owner, None) if owner else home
        if scope is None or not callable(vars(scope).get(name)):
            missing.append("genpos.%s.%s" % (module, attr))
    assert not missing, missing
