import json
import os
import shutil
import subprocess
import sys

import genpos
from genpos.fixtures import GOLDEN_DIR, fixture_path


def run_cli(*args, env_extra=None):
    env = dict(os.environ, **(env_extra or {}))
    return subprocess.run([sys.executable, "-m", "genpos"] + list(args),
                          capture_output=True, text=True, env=env)


def fx(name):
    return str(fixture_path(name))


def test_version():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "0.1.0" in res.stdout


def test_points_check_failing_set():
    res = run_cli("points-check", fx("tangent_points.json"))
    assert res.returncode == 1
    assert "witness hypersurface: x1*x2" in res.stdout


def test_points_check_generic_set():
    res = run_cli("points-check", fx("off_conic_points.json"))
    assert res.returncode == 0
    assert "generic position: yes" in res.stdout


def test_points_check_t_flag_and_envelope(tmp_path):
    out = tmp_path / "cert.json"
    res = run_cli("points-check", fx("line_points.json"), "--t", "3",
                  "--json-out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "points-check"
    env = payload["envelope"]
    assert env["tool"] == "genpos"
    assert env["seed"] == 0
    assert set(env["budgets"]) == {"degree_bound", "box", "subset_budget",
                                   "max_basis", "max_pairs"}
    assert payload["certificate"]["generic"] is True


def test_points_check_field_override(tmp_path):
    # the input's "field" key is the only field a certificate reads
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"field": {"p": 7}, "r": 1,
                               "points": [[1, 0], [1, 1], [1, 2], [0, 1]]}))
    res = run_cli("points-check", str(src))
    assert res.returncode == 0
    assert "4 points of P^1 over GF(7)" in res.stdout
    # F11 scalar strings cannot be read back as rationals
    obj = json.loads(open(fx("tangent_points.json")).read())
    src.write_text(json.dumps(dict(obj, field="Q")))
    res = run_cli("points-check", str(src))
    assert res.returncode == 2
    assert "error" in res.stderr
    assert "Traceback" not in res.stderr


def test_conductor_points_match():
    res = run_cli("conductor", fx("conductor_points.json"))
    assert res.returncode == 0
    assert "verdict: match" in res.stdout


def test_conductor_semigroups_flag_hypotheses():
    for name in ("semigroup_2_5.json", "semigroup_2_3.json"):
        res = run_cli("conductor", fx(name))
        assert res.returncode == 3, name
        assert "FAILED" in res.stdout
    # the mismatch is still reported in the body
    res = run_cli("conductor", fx("semigroup_2_5.json"))
    assert "mismatch" in res.stdout


def test_conductor_monomial_and_arrangements():
    for name in ("monomial_n3.json", "arrangement_three_lines.json",
                  "arrangement_three_planes.json"):
        res = run_cli("conductor", fx(name))
        assert res.returncode == 0, (name, res.stdout, res.stderr)
        assert "verdict: match" in res.stdout


def test_conductor_unknown_model(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"model": "nonsense"}))
    res = run_cli("conductor", str(src))
    assert res.returncode == 2
    assert "model" in res.stderr


def test_conductor_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = run_cli("conductor", fx("semigroup_2_5.json"),
                      "--json-out", str(out))
        assert res.returncode == 3
    assert a.read_bytes() == b.read_bytes()


def test_tangent_cone_branches_route():
    res = run_cli("tangent-cone", fx("germ_curve.json"))
    assert res.returncode == 0
    assert "multiplicity of the union: 6" in res.stdout


def test_tangent_cone_parametrization_route(tmp_path):
    out = tmp_path / "cone.json"
    res = run_cli("tangent-cone", fx("germ_model.json"),
                  "--json-out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["profile"]["values"] == [1, 3, 5, 5, 6, 6, 6]
    assert payload["membership"]["member"] is False
    assert payload["membership"]["member_at_min_factors_1"] is True


def test_tangent_cone_ideal_route(tmp_path):
    src = tmp_path / "cusp.json"
    src.write_text(json.dumps({"vars": 2, "gens": ["x1^2 - x0^3"]}))
    out = tmp_path / "prof.json"
    res = run_cli("tangent-cone", str(src), "--json-out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["profile"]["multiplicity"] == 2
    assert payload["profile"]["emdim"] == 2


def test_tangent_cone_ideal_route_stops_at_the_exact_degree(tmp_path,
                                                           capsys):
    # x0*x1 = 0 with an embedded point: H holds at 4 on degrees 3..9, and
    # only from degree 11 on does it equal the multiplicity 2
    from genpos import cli

    src, out = tmp_path / "plateau.json", tmp_path / "prof.json"
    src.write_text(json.dumps({"field": "Q", "vars": 2,
                               "gens": ["x0^3*x1", "x0*x1^9"]}))
    assert cli.main(["tangent-cone", str(src), "--json-out", str(out)]) == 0
    assert "multiplicity: 2, embedding dimension: 2" in (
        capsys.readouterr().out)
    assert json.loads(out.read_text())["profile"] == {
        "values": [1, 2, 3, 4, 4, 4, 4, 4, 4, 4, 3, 2, 2, 2, 2, 2, 2],
        "stabilization_degree": 11, "multiplicity": 2, "emdim": 2}


def test_tangent_cone_of_a_surface_exits_2_at_once(tmp_path, capsys):
    from genpos import cli

    src = tmp_path / "surface.json"
    src.write_text(json.dumps({"field": "Q", "vars": 4,
                               "gens": ["x0*x1", "x2*x3"]}))
    assert cli.main(["tangent-cone", str(src)]) == 2
    assert capsys.readouterr().err == (
        "error: the tangent cone is not a curve germ: no lead in x0 and x2 "
        "alone, so H(d) > d\n")


def test_tangent_cone_of_a_point_exits_2(tmp_path, capsys):
    # multiplicity 0 is no curve germ; a line with an embedded point is one
    from genpos import cli

    src = tmp_path / "ideal.json"
    for vars_, gens in ((2, ["x0", "x1"]), (2, ["x0^2", "x1"]),
                        (1, ["x0^2"])):
        src.write_text(json.dumps({"vars": vars_, "gens": gens}))
        assert cli.main(["tangent-cone", str(src)]) == 2, gens
        assert capsys.readouterr().err.startswith(
            "error: the tangent cone is a point, not a curve germ: H(d) = 0 "
            "from degree "), gens
    src.write_text(json.dumps({"vars": 2, "gens": ["x0^2", "x0*x1"]}))
    assert cli.main(["tangent-cone", str(src)]) == 0
    assert "multiplicity: 1, embedding dimension: 2" in (
        capsys.readouterr().out)


def test_parametrization_route_reads_the_exact_local_level(tmp_path, capsys):
    # (t^2, t^3): m^n = t^(2n) k[[t]], so t^41 lies in m^20, not in m^21
    from genpos import cli

    src, out = tmp_path / "germ.json", tmp_path / "cone.json"
    for k, inside in ((20, "inside"), (21, "outside")):
        src.write_text(json.dumps({
            "field": "Q", "parametrization": ["t^2", "t^3"],
            "membership": {"query": "t^41", "min_factors": k}}))
        assert cli.main(["tangent-cone", str(src), "--json-out",
                         str(out)]) == 0
        assert "query %s m^%d: t^41\n" % (inside, k) in capsys.readouterr().out
        assert json.loads(out.read_text())["membership"] == {
            "query": "t^41", "min_factors": k, "member": inside == "inside",
            "member_at_min_factors_1": True}


def test_parametrization_route_exact_past_the_plateau_and_non_birational(
        tmp_path):
    # (t^7, t^8) rises until degree 6, past any three-window plateau;
    # t -> (t^2, t^4) is two-to-one onto its image
    src = tmp_path / "germ.json"
    src.write_text(json.dumps({"field": "Q",
                               "parametrization": ["t^7", "t^8"]}))
    res = run_cli("tangent-cone", str(src))
    assert res.returncode == 0, res.stderr
    assert "multiplicity: 7, embedding dimension: 2" in res.stdout
    payload = json.loads(res.stdout[res.stdout.index("{"):])
    assert payload["profile"]["stabilization_degree"] == 6
    src.write_text(json.dumps({"field": "Q",
                               "parametrization": ["t^2", "t^4"]}))
    res = run_cli("tangent-cone", str(src))
    assert res.returncode == 2
    assert res.stderr.startswith("error: the parametrization is not "
                                 "birational onto its image")
    assert "Traceback" not in res.stderr


def test_scalar_division_by_p_exits_2(tmp_path):
    # 1/11 has no value in GF(11): an input error, not a negative result
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"field": {"p": 11}, "r": 1,
                               "points": [["1", "0"], ["1", "1/11"]]}))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"vars": 2, "field": {"p": 11},
                                 "gens": ["x0^2 - 1/11*x1^3"]}))
    for args in (("points-check", str(pts)), ("tangent-cone", str(ideal))):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stderr.startswith("error: "), args
        assert "p=11" in res.stderr, args
        assert "Traceback" not in res.stderr, args


def test_monomial_box_key_must_be_positive_int(tmp_path):
    model = json.loads(open(fx("monomial_n3.json")).read())
    for box in (-3, 0, 2.5):
        src = tmp_path / "monomial.json"
        src.write_text(json.dumps(dict(model, box=box)))
        res = run_cli("conductor", str(src))
        assert res.returncode == 2, box
        assert "box must be a positive integer, got %r" % box in res.stderr
        assert "Traceback" not in res.stderr, box


def test_subset_budget_flag():
    res = run_cli("points-check", fx("off_conic_points.json"), "--t", "3",
                  "--subset-budget", "2")
    assert res.returncode == 2
    assert "budget" in res.stderr

    res = run_cli("points-check", fx("off_conic_points.json"), "--t", "3",
                  "--subset-budget", "50000")
    assert res.returncode == 0


def test_budget_env_vars():
    # The budgets are set by flags only: GENPOS_* variables change nothing.
    for args, env_extra in (
            (("conductor", fx("arrangement_three_lines.json")),
             {"GENPOS_MAX_PAIRS": "1", "GENPOS_MAX_BASIS": "1"}),
            (("points-check", fx("off_conic_points.json"), "--t", "3"),
             {"GENPOS_SUBSET_BUDGET": "2"})):
        plain = run_cli(*args)
        res = run_cli(*args, env_extra=env_extra)
        assert plain.returncode in (0, 3), (args, plain.stderr)
        assert (res.returncode, res.stdout) == (plain.returncode,
                                                plain.stdout), args
        assert "budget" not in res.stderr, args


def test_flag_beats_env():
    res = run_cli("points-check", fx("off_conic_points.json"), "--t", "3",
                  "--subset-budget", "50000",
                  env_extra={"GENPOS_SUBSET_BUDGET": "2"})
    assert res.returncode == 0

    res = run_cli("points-check", fx("off_conic_points.json"), "--t", "3",
                  "--subset-budget", "2",
                  env_extra={"GENPOS_SUBSET_BUDGET": "50000"})
    assert res.returncode == 2
    assert "budget" in res.stderr


def test_unaccepted_flags_and_values_exit_2():
    for args in (("points-check", fx("line_points.json"), "--box", "3"),
                 ("points-check", fx("line_points.json"), "--seed", "1"),
                 ("tangent-cone", fx("germ_curve.json"),
                  "--subset-budget", "1"),
                 ("conductor", fx("arrangement_three_lines.json"),
                  "--subset-budget", "5"),
                 ("reproduce-examples", "--seed", "1"),
                 ("points-check", fx("line_points.json"), "--t", "0"),
                 ("points-check", fx("line_points.json"), "--t", "3",
                  "--subset-budget", "0"),
                 ("conductor", fx("monomial_n3.json"), "--box", "-1"),
                 ("points-check", fx("line_points.json"), "--field", "x"),
                 # certificates read only their input: no subcommand takes
                 # a degree bound, a box or a field
                 ("points-check", fx("line_points.json"), "--field", "7"),
                 ("conductor", fx("conductor_points.json"),
                  "--degree-bound", "32"),
                 ("conductor", fx("monomial_n3.json"), "--box", "12"),
                 ("conductor", fx("arrangement_three_lines.json"),
                  "--field", "32003"),
                 ("tangent-cone", fx("germ_curve.json"), "--field", "Q"),
                 ("tangent-cone", fx("germ_curve.json"),
                  "--degree-bound", "4")):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert "usage:" in res.stderr, args
        assert "Traceback" not in res.stderr, args


def test_envelope_records_fixed_seed_and_library_budgets(tmp_path):
    # only points-check runs t-subset checks, under the default budget;
    # conductor and tangent-cone read no subset budget
    for args, subset_budget in ((("points-check", fx("line_points.json")),
                                 20000),
                                (("conductor", fx("semigroup_2_3.json")),
                                 None),
                                (("tangent-cone", fx("germ_curve.json")),
                                 None)):
        out = tmp_path / (args[0] + ".json")
        res = run_cli(*args, "--json-out", str(out))
        assert res.returncode in (0, 3), (args, res.stderr)
        env = json.loads(out.read_text())["envelope"]
        assert env["seed"] == 0
        assert env["budgets"]["max_basis"] == 500
        assert env["budgets"]["max_pairs"] == 50000
        assert env["budgets"]["subset_budget"] == subset_budget


def test_malformed_and_missing_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("points-check", str(bad))
    assert res.returncode == 2
    assert "malformed JSON" in res.stderr

    res = run_cli("points-check", str(tmp_path / "nope.json"))
    assert res.returncode == 2
    assert "missing input file" in res.stderr


def test_missing_key(tmp_path):
    src = tmp_path / "partial.json"
    src.write_text(json.dumps({"r": 2}))
    res = run_cli("points-check", str(src))
    assert res.returncode == 2
    assert "missing key" in res.stderr


def test_batch_multiple_inputs_order(tmp_path):
    out = tmp_path / "batch.json"
    inputs = [fx("off_conic_points.json"), fx("line_points.json")]
    res = run_cli("points-check", *inputs, "--json-out", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload, list) and len(payload) == 2
    assert [p["certificate"]["e"] for p in payload] == [6, 5]
    assert res.stdout.index("6 points of P^2") < res.stdout.index(
        "5 points of P^1")


def test_points_check_rejects_top_level_array(tmp_path):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps([[1, 0], [1, 1]]))
    res = run_cli("points-check", str(src))
    assert res.returncode == 2
    assert "must be an object" in res.stderr
    assert "Traceback" not in res.stderr


def test_conductor_rejects_top_level_array(tmp_path):
    src = tmp_path / "model.json"
    src.write_text(json.dumps([{"model": "semigroup", "generators": [2, 3]}]))
    res = run_cli("conductor", str(src))
    assert res.returncode == 2
    assert "must be an object" in res.stderr
    assert "Traceback" not in res.stderr


def test_conductor_rejects_nested_points_list(tmp_path):
    src = tmp_path / "model.json"
    src.write_text(json.dumps({"model": "points",
                               "points": [[1, 0, 0], [0, 1, 0]]}))
    res = run_cli("conductor", str(src))
    assert res.returncode == 2
    assert "must be a JSON object" in res.stderr
    assert "Traceback" not in res.stderr


def test_tangent_cone_rejects_ideal_off_the_origin(tmp_path):
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps({"vars": 2, "gens": ["x0^2 - x1^3", "1 + x0"]}))
    res = run_cli("tangent-cone", str(src))
    assert res.returncode == 2
    assert "generator 1 (x0 + 1) has a nonzero constant term" in res.stderr
    assert "Traceback" not in res.stderr


def test_groebner_budget_error_exits_2_with_its_counters(tmp_path, capsys,
                                                         monkeypatch):
    # no flag sets the Groebner budgets, so the cone's one pair loop, which
    # reads the leads of a minimal basis under the default budgets, gets a
    # pair budget of 1 here
    from genpos import cli, groebner

    monkeypatch.setattr(groebner, "DEFAULT_MAX_PAIRS", 1)
    src = tmp_path / "ideal.json"
    src.write_text(json.dumps({"vars": 3, "gens": [
        "x0^3 - x1*x2^2", "x1^3 - x0*x2^2", "x2^3 - x0^2*x1"]}))
    assert cli.main(["tangent-cone", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: budget exceeded: pair budget 1 exceeded "
                            "after 2 pops (basis 4, 2 queued)\n")
    assert captured.out == ""


def test_tangent_cone_rejects_non_string_polynomials(tmp_path, capsys):
    # each entry is read as a polynomial string; anything else names its path
    from genpos import cli

    cases = [
        ({"field": "Q", "parametrization": [3, "t^4"]}, "parametrization[0]"),
        ({"field": "Q", "parametrization": "t^3"}, "parametrization"),
        ({"field": "Q", "parametrization": []}, "parametrization"),
        ({"field": "Q", "parametrization": ["0", "t^2"]},
         "parametrization[0]"),
        ({"field": "Q", "parametrization": ["t^2 + 1", "t^3"]},
         "parametrization[0]"),
        ({"field": "Q", "parametrization": ["t^3", "t^4"],
          "membership": {"query": 7}}, "membership.query"),
        ({"field": "Q", "r": 1, "branches": [["t", 5]]}, "branches[0][1]"),
        ({"field": "Q", "r": 1, "branches": ["t"]}, "branches[0]"),
        ({"field": "Q", "r": 1, "branches": []}, "branches"),
        ({"vars": 2, "gens": ["x0^2 - x1^3", None]}, "gens[1]"),
    ]
    for obj, path in cases:
        src = tmp_path / "model.json"
        src.write_text(json.dumps(obj))
        assert cli.main(["tangent-cone", str(src)]) == 2, obj
        err = capsys.readouterr().err
        assert err.startswith("error: %s: expected a " % path), obj


def test_membership_fields_must_be_positive_ints(tmp_path, capsys):
    # one level answers every threshold, so a threshold must be a count
    from genpos import cli

    germ = {"field": "Q", "parametrization": ["t^2", "t^3"]}
    cases = [({"query": "t^4", "min_factors": 2.5}, "membership.min_factors",
              "2.5"),
             ({"query": "t^4", "min_factors": "3"}, "membership.min_factors",
              '"3"'),
             ({"query": "t^4", "min_factors": True}, "membership.min_factors",
              "true"),
             ({"query": "t^4", "min_factors": 0}, "membership.min_factors",
              "0")]
    for mem, path, got in cases:
        src = tmp_path / "germ.json"
        src.write_text(json.dumps(dict(germ, membership=mem)))
        assert cli.main(["tangent-cone", str(src)]) == 2, mem
        captured = capsys.readouterr()
        assert captured.err == ("error: %s: expected an integer >= 1, got %s\n"
                                % (path, got)), mem
        assert captured.out == "", mem


def test_membership_window_and_empty_object_exit_2(tmp_path, capsys):
    # the level is exact, so a window is not read; an empty object asks no
    # query and is an error like any object without one
    from genpos import cli

    germ = {"field": "Q", "parametrization": ["t^2", "t^3"]}
    cases = [({"query": "t^4", "window": 40},
              "membership.window is not read: the query's level in the "
              "powers of the maximal ideal is exact"),
             ({}, "missing key 'query' in input"),
             ({"min_factors": 2}, "missing key 'query' in input")]
    for mem, message in cases:
        src = tmp_path / "germ.json"
        src.write_text(json.dumps(dict(germ, membership=mem)))
        assert cli.main(["tangent-cone", str(src)]) == 2, mem
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % message, mem
        assert captured.out == "", mem


def test_zero_membership_query_exits_2(tmp_path, capsys):
    from genpos import cli

    for mem in ({"query": "0", "min_factors": 8}, {"query": "t^2 - t^2"},
                {"query": "0"}):
        src = tmp_path / "germ.json"
        src.write_text(json.dumps({"field": "Q",
                                   "parametrization": ["t^2", "t^3"],
                                   "membership": mem}))
        assert cli.main(["tangent-cone", str(src)]) == 2, mem
        err = capsys.readouterr().err
        assert err.startswith("error: membership.query: the zero query"), mem


def test_monomial_model_needs_its_box_key(tmp_path, capsys):
    from genpos import cli

    obj = json.loads(open(fx("monomial_n3.json")).read())
    src = tmp_path / "model.json"
    src.write_text(json.dumps({k: v for k, v in obj.items() if k != "box"}))
    assert cli.main(["conductor", str(src)]) == 2
    assert capsys.readouterr().err == (
        'error: monomial-algebra model needs a "box" key\n')
    src.write_text(json.dumps(dict(obj, box=16)))
    assert cli.main(["conductor", str(src)]) == 0
    assert "oracle: box=16, " in capsys.readouterr().out


def test_arrangement_model_shapes_name_their_path(tmp_path, capsys):
    from genpos import cli

    cases = [({"forms": [3, "x1"]},
              "forms[0]: expected a polynomial string, got 3"),
             ({"forms": "x0"},
              'forms: expected a list of polynomial strings, got "x0"'),
             ({"vars": "3"}, 'vars: expected an integer >= 1, got "3"'),
             ({"vars": True}, "vars: expected an integer >= 1, got true"),
             ({"vars": 0}, "vars: expected an integer >= 1, got 0")]
    model = {"model": "arrangement", "vars": 3, "field": "Q",
             "forms": ["x0", "x1", "x0 + x1 + x2"]}
    for change, message in cases:
        src = tmp_path / "arr.json"
        src.write_text(json.dumps(dict(model, **change)))
        assert cli.main(["conductor", str(src)]) == 2, change
        assert capsys.readouterr().err == "error: %s\n" % message, change
    src.write_text(json.dumps(dict(model, forms=[])))
    assert cli.main(["conductor", str(src)]) == 2
    assert capsys.readouterr().err == "error: need at least two hyperplanes\n"


def test_conductor_generators_must_be_integers(tmp_path, capsys):
    # a non-integer exponent or generator is an error, never truncated
    from genpos import cli

    monomial = json.loads(open(fx("monomial_n3.json")).read())
    cases = [(dict(monomial, generators=[[3.7, 0], [0, 1], [1, 1]]),
              "generators[0][0]: expected an integer, got 3.7"),
             (dict(monomial, candidate=[[0, 2], [1, True], [2, 2]]),
              "candidate[1][1]: expected an integer, got true"),
             (dict(monomial, candidate=[0, 2]),
              "candidate[0]: expected a list of integers, got 0"),
             (dict(monomial, generators="3"),
              'generators: expected a list of integer lists, got "3"'),
             (dict(monomial, generators=[[]]),
              "generators[0]: expected a nonempty exponent vector"),
             (dict(monomial, generators=[[3, 0], [], [1, 1]]),
              "generators[1]: expected a nonempty exponent vector"),
             ({"model": "semigroup", "generators": [2.9, "5"]},
              "generators[0]: expected an integer, got 2.9"),
             ({"model": "semigroup", "generators": [2, "5"]},
              'generators[1]: expected an integer, got "5"'),
             ({"model": "semigroup", "generators": 5},
              "generators: expected a list of integers, got 5")]
    for obj, message in cases:
        src = tmp_path / "model.json"
        out = tmp_path / "cert.json"
        src.write_text(json.dumps(obj))
        assert cli.main(["conductor", str(src), "--json-out", str(out)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message, obj
        assert not out.exists()


def test_monomial_candidate_must_fit_the_model(tmp_path, capsys):
    # a candidate of the wrong length or with a negative entry is no claim
    # about the 2-dimensional model: exit 2 naming it; an empty list is a
    # claim, and a wrong one
    from genpos import cli

    monomial = json.loads(open(fx("monomial_n3.json")).read())
    src = tmp_path / "model.json"
    for candidate, i in (([[0, 2, 5]], 0), ([[0]], 0), ([[-1, 2]], 0),
                         ([[0, 2], [1, 2], [2, -2]], 2)):
        src.write_text(json.dumps(dict(monomial, candidate=candidate)))
        assert cli.main(["conductor", str(src)]) == 2, candidate
        assert capsys.readouterr().err == (
            "error: candidate[%d]: expected 2 nonnegative integers, got %s\n"
            % (i, json.dumps(candidate[i])))
    src.write_text(json.dumps(dict(monomial, candidate=[])))
    assert cli.main(["conductor", str(src)]) == 1
    assert "verdict: mismatch" in capsys.readouterr().out


def test_r_must_be_a_nonnegative_integer(tmp_path, capsys):
    from genpos import cli

    curve = {"field": "Q", "branches": [["t", "t^2"]]}
    points = {"field": "Q", "points": [["1", "2"]]}
    for r, got in ((True, "true"), ("1", '"1"'), (1.0, "1.0"), (-1, "-1")):
        for command, obj in (("tangent-cone", curve), ("points-check", points)):
            src = tmp_path / "model.json"
            src.write_text(json.dumps(dict(obj, r=r)))
            assert cli.main([command, str(src)]) == 2, (command, r)
            assert capsys.readouterr().err == (
                "error: r: expected an integer >= 0, got %s\n" % got)
    # r = 0 is the point P^0 for both models
    src = tmp_path / "model.json"
    src.write_text(json.dumps({"field": "Q", "r": 0, "branches": [["t"]]}))
    assert cli.main(["tangent-cone", str(src)]) == 0
    src.write_text(json.dumps({"field": "Q", "r": 0, "points": [["1"]]}))
    assert cli.main(["points-check", str(src)]) == 0
    capsys.readouterr()


def test_point_written_as_a_string_exits_2(tmp_path, capsys):
    # a string is not read character by character as coordinates
    from genpos import cli

    cases = [("conductor", {"model": "points",
                            "points": {"field": "Q", "r": 1,
                                       "points": ["10", "12", "13"]}}, 0,
              '"10"'),
             ("points-check", {"field": "Q", "r": 1,
                               "points": [["1", "0"], "12"]}, 1, '"12"'),
             ("points-check", {"field": "Q", "r": 1,
                               "points": [["1", "0"], 7]}, 1, "7")]
    for command, obj, i, got in cases:
        src = tmp_path / "model.json"
        out = tmp_path / "cert.json"
        src.write_text(json.dumps(obj))
        assert cli.main([command, str(src), "--json-out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: points[%d]: expected a list of coordinates, got %s\n"
            % (i, got)), obj
        assert not out.exists()


def test_coordinates_must_be_strings_or_integers(tmp_path, capsys):
    # a JSON boolean is not the scalar 0 or 1, and a float names its path
    from genpos import cli

    pts = [[True, False, 0], [0, True, 0], [0, 0, 1]]
    cases = [("points-check", {"r": 2, "points": pts}, 0, 0, "true"),
             ("conductor", {"model": "points", "points": {"r": 2,
                                                          "points": pts}},
              0, 0, "true"),
             ("points-check", {"r": 1, "points": [["1", "0"], [1.5, 1]]},
              1, 0, "1.5"),
             ("conductor", {"model": "points",
                            "points": {"r": 1, "points": [[1, 0], [1, None]]}},
              1, 1, "null")]
    for command, obj, i, j, got in cases:
        src = tmp_path / "model.json"
        out = tmp_path / "cert.json"
        src.write_text(json.dumps(obj))
        assert cli.main([command, str(src), "--json-out", str(out)]) == 2, obj
        assert capsys.readouterr().err == (
            "error: points[%d][%d]: expected a scalar string or an integer, "
            "got %s\n" % (i, j, got)), obj
        assert not out.exists()
    # the same points written as integers are certified
    src.write_text(json.dumps({"r": 2, "points": [[1, 0, 0], [0, 1, 0],
                                                  [0, 0, 1]]}))
    assert cli.main(["points-check", str(src)]) == 0
    capsys.readouterr()


def test_prime_field_p_must_be_an_integer(tmp_path, capsys):
    from genpos import cli

    points = {"r": 1, "points": [["1", "0"], ["1", "1"]]}
    for p, got in ((True, "true"), ("11", '"11"'), (11.0, "11.0"),
                   ({}, "{}"), (1, "1")):
        src = tmp_path / "pts.json"
        src.write_text(json.dumps(dict(points, field={"p": p})))
        assert cli.main(["points-check", str(src)]) == 2, p
        assert capsys.readouterr().err == (
            "error: field.p: expected an integer >= 2, got %s\n" % got), p
    src.write_text(json.dumps(dict(points, field={"p": 4})))
    assert cli.main(["points-check", str(src)]) == 2
    assert capsys.readouterr().err == "error: 4 is not prime\n"
    src.write_text(json.dumps(dict(points, field={"p": 11})))
    assert cli.main(["points-check", str(src)]) == 0
    capsys.readouterr()


def test_membership_and_points_shapes_name_their_path(tmp_path, capsys):
    from genpos import cli

    germ = {"field": "Q", "parametrization": ["t^2", "t^3"]}
    cases = [("tangent-cone", dict(germ, membership="x"),
              'membership: expected an object with a "query" key, got "x"'),
             ("tangent-cone", dict(germ, membership=[1]),
              'membership: expected an object with a "query" key, got [1]'),
             ("conductor", {"model": "points",
                            "points": {"field": "Q", "r": 1, "points": 2}},
              "points: expected a list of points, got 2"),
             ("points-check", {"field": "Q", "r": 1, "points": "12"},
              'points: expected a list of points, got "12"')]
    for command, obj, message in cases:
        src = tmp_path / "model.json"
        src.write_text(json.dumps(obj))
        assert cli.main([command, str(src)]) == 2, obj
        assert capsys.readouterr().err == "error: %s\n" % message, obj


def test_unexpected_exception_exits_2(tmp_path, monkeypatch, capsys):
    # a defect inside a handler is an error, never the negative result 1
    from genpos import cli

    def broken(*args, **kwargs):
        raise AttributeError("broken engine")

    monkeypatch.setattr(cli, "germ_profile", broken)
    src = tmp_path / "germ.json"
    src.write_text(json.dumps({"field": "Q", "parametrization": ["t^2", "t^3"]}))
    assert cli.main(["tangent-cone", str(src)]) == 2
    err = capsys.readouterr().err
    assert err == "error: internal: AttributeError: broken engine\n"


def test_reproduce_examples_all():
    res = run_cli("reproduce-examples")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "12/12 examples reproduced" in res.stdout


def test_reproduce_examples_only_filter():
    res = run_cli("reproduce-examples", "--only", "germ")
    assert res.returncode == 0
    assert "germ-profile" in res.stdout
    res = run_cli("reproduce-examples", "--only", "nosuchcase")
    assert res.returncode == 2


def test_reproduce_examples_tampered_golden(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, golden)
    target = golden / "line-conductor-ladder.json"
    obj = json.loads(target.read_text())
    obj["claim"] = "sigma = e for e = 2..10"
    target.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    res = run_cli("reproduce-examples", "--golden-dir", str(golden))
    assert res.returncode == 1
    assert "line-conductor-ladder" in res.stdout
    assert "divergence" in res.stdout


def test_reproduce_examples_missing_goldens(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    res = run_cli("reproduce-examples", "--golden-dir", str(empty))
    assert res.returncode == 2


def test_reproduce_examples_write_golden(tmp_path):
    out = tmp_path / "golden"
    res = run_cli("reproduce-examples", "--write-golden",
                  "--golden-dir", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "wrote 12 golden files" in res.stdout
    shipped = sorted(os.listdir(GOLDEN_DIR))
    assert sorted(os.listdir(out)) == shipped
    for name in shipped:
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


def test_import_leaves_out_the_introspection_modules():
    # the records are namedtuples, not dataclasses, and `random` loads only
    # in the case that draws points, so a fresh `import genpos.cli` loads
    # none of these
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
             "random"]
    code = ("import sys, genpos.cli; print([m for m in %r if m in sys.modules])"
            % heavy)
    src = os.path.dirname(os.path.dirname(genpos.__file__))
    res = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
