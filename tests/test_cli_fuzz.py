"""Fuzz the exit-code contract: `cli.main` on mutated shipped fixtures.

Each example takes one shipped input, applies one to three mutations (drop a
key or list entry, swap a value for one of another JSON type, flatten a list
of lists) and runs the subcommand that reads that input in process. Whatever
the input, the exit code is 0, 1, 2 or 3, a negative result (1) or a failed
hypothesis (3) always writes its certificate, and no traceback is printed.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from genpos import cli
from genpos.fixtures import fixture_path

COMMANDS = {
    "line_points.json": "points-check",
    "off_conic_points.json": "points-check",
    "on_conic_points.json": "points-check",
    "tangent_points.json": "points-check",
    "conductor_points.json": "conductor",
    "semigroup_2_3.json": "conductor",
    "semigroup_3_4_5.json": "conductor",
    "monomial_n3.json": "conductor",
    "arrangement_three_lines.json": "conductor",
    "arrangement_three_planes.json": "conductor",
    "germ_curve.json": "tangent-cone",
    "germ_model.json": "tangent-cone",
}
# one value of each JSON type, and a few of each that an input might hold
SWAPS = [None, True, False, 0, 2, -1, 2.5, "", "x", "t^2", "1 mod 11", [],
         [1], ["t"], [[1, 0]], {}, {"p": 11}]


def json_type(value):
    return bool if isinstance(value, bool) else type(value)


def paths(obj, prefix=()):
    """Every path (a tuple of keys and indices) below obj, obj's own first."""
    yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield from paths(v, prefix + (k,))


def at(obj, path):
    for k in path:
        obj = obj[k]
    return obj


@st.composite
def mutated_input(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    with open(fixture_path(name), encoding="utf-8") as fh:
        obj = json.load(fh)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(obj))[1:] or [()]))
        if not path:
            break  # everything was dropped
        parent, key = at(obj, path[:-1]), path[-1]
        value = parent[key]
        kind = draw(st.sampled_from(["drop", "swap", "flatten"]))
        if kind == "flatten" and isinstance(value, list) and any(
                isinstance(v, list) for v in value):
            parent[key] = [w for v in value
                           for w in (v if isinstance(v, list) else [v])]
        elif kind == "drop":
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(
                [s for s in SWAPS if json_type(s) is not json_type(value)])))
    return COMMANDS[name], obj


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(mutated_input())
def test_exit_code_contract_on_mutated_fixtures(case):
    command, obj = case
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "input.json")
        out = os.path.join(tmp, "cert.json")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([command, src, "--json-out", out])
        assert code in (0, 1, 2, 3), (code, obj)
        assert "Traceback" not in stderr.getvalue(), obj
        if code in (1, 3):
            with open(out, encoding="utf-8") as fh:
                assert "certificate" in json.load(fh), obj
        if code == 2:
            assert stderr.getvalue().startswith("error: "), obj
