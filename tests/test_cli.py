"""Command-line front end: exit codes, scenarios, determinism, CSV export."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from semiflow.cli import main, run_suite


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "gls-semigroup" in out and "quadratic-recovery" in out


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "negative-control"]) == 0
    out = capsys.readouterr().out
    assert "negative-control" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_adhoc_action(capsys):
    assert main(["verify", "--suite", "identity", "--action", "y"]) == 0
    out = capsys.readouterr().out
    assert "adhoc" in out


def test_verify_adhoc_action_parse_error(capsys):
    assert main(["verify", "--suite", "identity", "--action", "y + ("]) == 2
    assert "offset" in capsys.readouterr().err


def test_verify_adhoc_action_stray_variable(capsys):
    assert main(["verify", "--suite", "identity", "--action", "q*y"]) == 2


def test_verify_failing_tolerance_exits_one(capsys):
    # an unreachable tolerance must flip the exit code, not crash
    assert main(["verify", "--suite", "identity-axiom"]) == 0
    capsys.readouterr()
    rc = run_suite({"suite": "gls-semigroup", "tolerances": {"law": 1e-30}})
    assert rc == 1


def test_scenario_file_and_deterministic_report(tmp_path, capsys):
    scenario = {
        "suite": "negative-control",
        "tolerances": {},
        "seed": 42,
        "out": str(tmp_path / "report.json"),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["verify", "--scenario", str(path)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert main(["verify", "--scenario", str(path)]) == 0
    second = (tmp_path / "report.json").read_bytes()
    assert first == second
    doc = json.loads(first)
    assert doc["seed"] == 42 and "negative-control" in doc["suites"]


def test_scenario_declares_the_pde(tmp_path, capsys):
    scenario = {
        "suite": "semi-symmetry",
        "expressions": {"residual": "D(U,t) - D(U,x)", "unknown": "U", "vars": "t,x"},
    }
    path = tmp_path / "pde.json"
    path.write_text(json.dumps(scenario))
    assert main(["verify", "--scenario", str(path)]) == 0


def test_scenario_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"suite": "negative-control", "bogus": 1}))
    assert main(["verify", "--scenario", str(path)]) == 2


def test_scenario_malformed_expression(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"suite": "negative-control", "expressions": {"a": "1 + ("}}))
    assert main(["verify", "--scenario", str(path)]) == 2


def test_run_suite_programmatic():
    assert run_suite({"suite": "negative-control"}) == 0
    assert run_suite({"suite": "does-not-exist"}) == 2


def test_run_suite_resolves_suite_aliases(capsys):
    assert run_suite({"suite": "identity"}) == 0
    assert "identity[sqrt-action]" in capsys.readouterr().out


def test_failing_ode_residuals_carry_witnesses():
    from semiflow.suites import SuiteConfig, suite_ode_residuals

    rep = suite_ode_residuals(SuiteConfig(tolerances={"explicit": -1.0}))[0]
    assert rep.suite == "ode-residual[sqrt-branches]" and not rep.passed
    assert len(rep.witnesses) == 8
    assert all(w.values[0] > -1.0 for w in rep.witnesses)


@pytest.mark.parametrize(
    "overrides, unread",
    [
        ({"tolerances": {"bogus": 1}}, "tolerances.bogus"),
        ({"tolerances": {"law": 1e-9}}, "tolerances.law"),
        ({"grids": {"zz": {"lo": 0, "hi": 1, "count": 3}}}, "grids.zz"),
        ({"expressions": {"a": "x + 1"}}, "expressions.a"),
    ],
)
def test_unread_scenario_override_exits_two(overrides, unread, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_suite({"suite": "identity-axiom", "out": str(out), **overrides}) == 2
    captured = capsys.readouterr()
    assert unread in captured.err and captured.out == ""
    assert not out.exists()


def test_read_scenario_overrides_are_accepted(capsys):
    assert run_suite({"suite": "identity-axiom", "tolerances": {"identity": 1e-12}}) == 0
    grid = {"lo": 0.0, "hi": 1.0, "count": 5}
    assert run_suite({"suite": "gls-semigroup", "grids": {"t": grid}}) == 0


def test_run_suite_rejects_unknown_scenario_keys(capsys):
    assert run_suite({"suite": "negative-control", "bogus": 1}) == 2
    assert "unknown scenario keys ['bogus']" in capsys.readouterr().err


def test_run_suite_unwritable_report_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert run_suite({"suite": "negative-control", "out": str(out)}) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_scenario_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["verify", "--scenario", str(path)]) == 2
    assert run_suite([1, 2]) == 2


def test_cli_and_run_suite_write_the_same_report(tmp_path, capsys):
    cli_out, lib_out = tmp_path / "cli.json", tmp_path / "lib.json"
    assert main(["verify", "--suite", "noninvertibility", "--seed", "5", "--out", str(cli_out)]) == 0
    assert run_suite({"suite": "noninvertibility", "seed": 5, "out": str(lib_out)}) == 0
    assert cli_out.read_bytes() == lib_out.read_bytes()


def test_demo_quadratic_recovery(capsys):
    assert main(["demo", "--name", "quadratic-recovery"]) == 0
    out = capsys.readouterr().out
    assert "E(1,2)(3) = 6" in out
    assert "y*" in out  # the recovery transcript


def test_demo_catalog_runs(capsys):
    from semiflow.cli import DEMOS

    for name in DEMOS:
        assert main(["demo", "--name", name]) == 0
    capsys.readouterr()


def test_demo_unknown(capsys):
    assert main(["demo", "--name", "nope"]) == 2


def test_flow_export(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(
        [
            "flow", "--system", "cuberoot-ode", "--t0", "0", "--t1", "1",
            "--steps", "500", "--y0", "1.0", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,y1"
    t_last, y_last = (float(v) for v in lines[-1].split(","))
    assert t_last == 1.0
    assert y_last == pytest.approx(4.0 ** (1.0 / 3.0), rel=1e-9)


def test_flow_augmented_system(tmp_path, capsys):
    out = tmp_path / "aug.csv"
    rc = main(
        [
            "flow", "--system", "quadratic-augmented", "--t0", "0", "--t1", "2",
            "--steps", "100", "--y0", "0,5", "--out", str(out),
        ]
    )
    assert rc == 0
    header = out.read_text().split("\n", 1)[0]
    assert header == "t,y1,y2"


def test_flow_bad_arity(capsys):
    assert main(
        [
            "flow", "--system", "cuberoot-ode", "--t0", "0", "--t1", "1",
            "--steps", "10", "--y0", "1,2", "--out", "/tmp/x.csv",
        ]
    ) == 2


def test_flow_integration_error_exits_two(tmp_path, capsys):
    out = tmp_path / "f.csv"
    rc = main(
        [
            "flow", "--system", "sqrt-ode-minus", "--t0", "0", "--t1", "1",
            "--steps", "10", "--y0", "-100", "--out", str(out),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: integration failed:")
    assert "Traceback" not in err
    assert not out.exists()


def test_flow_unknown_system(capsys):
    assert main(
        ["flow", "--system", "nope", "--t0", "0", "--t1", "1", "--steps", "10", "--out", "/tmp/x.csv"]
    ) == 2


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_scenario_tolerance_must_be_finite_and_positive(tol, tmp_path, capsys):
    out = tmp_path / "r.json"
    scenario = {"suite": "identity-axiom", "tolerances": {"identity": tol}, "out": str(out)}
    assert run_suite(scenario) == 2
    captured = capsys.readouterr()
    assert "suite 'identity-axiom'" in captured.err and "tolerance 'identity'" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "scenario, key",
    [
        ({"suite": "burgers", "expressions": {"foo": 1}}, "expressions.foo"),
        ({"suite": "burgers", "expressions": ["foo"]}, "'expressions'"),
        ({"suite": "identity-axiom", "tolerances": [1, 2]}, "'tolerances'"),
        ({"suite": "identity-axiom", "tolerances": {"identity": True}}, "tolerance 'identity'"),
        ({"suite": "identity-axiom", "tolerances": {"identity": "1e-3"}}, "tolerance 'identity'"),
        ({"suite": "gls-semigroup", "grids": {"t": [0, 1, 3]}}, "grids.t"),
        ({"suite": "gls-semigroup", "grids": {"t": {"lo": 0, "hi": 1, "count": 2.5}}}, "grids.t"),
        ({"suite": "gls-semigroup", "grids": {"t": {"lo": "0", "hi": 1, "count": 3}}}, "grids.t"),
        ({"suite": ["a"]}, "'suite'"),
        ({"suite": "heat-flow", "out": 1}, "'out'"),
        ({"suite": "heat-flow", "out": True}, "'out'"),
        ({"suite": "identity-axiom", "seed": 1.5}, "'seed'"),
        ({"suite": "identity-axiom", "seed": True}, "'seed'"),
    ],
)
def test_scenario_value_of_the_wrong_type_exits_two(scenario, key, capsys):
    assert run_suite(scenario) == 2
    captured = capsys.readouterr()
    assert key in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "grid, name",
    [
        ({"lo": -1.0, "hi": 1.0, "count": 3}, "t"),  # sqrt(t) at t < 0
        ({"lo": -1e308, "hi": 1e308, "count": 3}, "y"),  # sqrt(t)*y^2 overflows
    ],
)
def test_grid_override_outside_a_suite_domain_exits_two(grid, name, capsys):
    assert run_suite({"suite": "ode-residuals", "grids": {name: grid}}) == 2
    err = capsys.readouterr().err
    assert "suite 'ode-residuals'" in err and f"grids.{name} = " in err


def test_seed_42_report_is_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--seed", "42", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "332c10d8f7c1edf23e85a3ecb219da5a31dd61b099b7d74ca1515ee28ad0945e"
