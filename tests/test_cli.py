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


@pytest.mark.parametrize(
    "argv, scenario",
    [
        (["--suite", "gls-semigroup"], {}),
        (["--suite", "all"], {}),
        ([], {"suite": "ode-residuals"}),
        (["--suite", "burgers"], {"suite": "identity"}),
    ],
)
def test_an_action_with_any_suite_but_identity_is_bad_input(tmp_path, capsys, argv, scenario):
    # --action runs the identity check alone, so a suite it would not run is an error
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["verify", *argv, "--scenario", str(path), "--action", "y + t*y"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--action runs only the identity check" in captured.err


@pytest.mark.parametrize("scenario", [{"suite": "identity"}, {"suite": "identity-axiom"}, {}])
def test_an_action_runs_under_the_identity_suite_or_none(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["verify", "--scenario", str(path), "--action", "y + t*y"]) == 0
    assert "identity[adhoc[y + t*y]]" in capsys.readouterr().out


def test_non_finite_report_is_strict_json(tmp_path, capsys):
    # y*1e308*10 overflows to inf, so H(0, y) is NaN at every y but 0
    out = tmp_path / "r.json"
    action = "y + (y*1e308*10 - y*1e308*10)"
    assert main(["verify", "--action", action, "--out", str(out)]) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    (rep,) = json.loads(out.read_text(), parse_constant=reject)["suites"]["adhoc-identity"]
    assert rep["max_deviation"] == "nan" and not rep["passed"]
    assert rep["witnesses"][0] == {"note": "H(0,y) != y", "point": [-3.0], "values": ["nan"]}


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


def test_scenario_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"suite": "negative-control", "bogus": 1}))
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
        ({"expressions": {"a": "x + 1"}}, "unknown scenario keys ['expressions']"),
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
    # the blurb, then the two recovery reports of the suites
    assert main(["demo", "--name", "quadratic-recovery"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "two-time evolution recovered from one slice by root finding"
    assert [line.split()[:2] for line in lines[1:]] == [
        ["PASS", "recovery[quadratic]:"],
        ["PASS", "recovery-vs-closed-form[sqrt-gls]:"],
    ]


def test_every_demo_report_is_produced_by_its_suites():
    from semiflow.cli import DEMOS
    from semiflow.suites import SuiteConfig, run_suites

    wanted: dict[str, set[str]] = {}
    for _, by_suite in DEMOS.values():
        for suite, names in by_suite.items():
            wanted.setdefault(suite, set()).update(names)
    ran = run_suites(sorted(wanted), SuiteConfig())
    missing = {suite: names - {rep.suite for rep in ran[suite]} for suite, names in wanted.items()}
    assert all(not names for names in missing.values()), missing


def test_a_demo_with_a_failing_report_exits_one(monkeypatch, capsys):
    import semiflow.suites as suites

    monkeypatch.setattr(suites, "NOT_C1_TOL", 1e-300)
    assert main(["demo", "--name", "sqrt-action"]) == 1
    assert "FAIL         not-c1[sqrt-action]" in capsys.readouterr().out


def test_the_constrained_scaling_demo_is_gone(capsys):
    assert main(["demo", "--name", "constrained-scaling"]) == 2
    assert "unknown demo 'constrained-scaling'" in capsys.readouterr().err


def test_demo_catalog_runs(capsys):
    from semiflow.cli import DEMOS

    transcript = []
    for name in DEMOS:
        assert main(["demo", "--name", name]) == 0
        transcript.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert digest == "227acf2f2396bec9b9954c0df0646e461bda4bdda08145dda854ddb59427140e"


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


@pytest.mark.parametrize(
    "flag, value",
    [("--eps-start", "-0.5"), ("--eps-start", "nan"), ("--eps-start", "inf"),
     ("--t0", "-inf"), ("--t1", "inf"), ("--t1", "nan")],
)
def test_flow_times_must_be_finite_and_eps_start_nonnegative(flag, value, tmp_path, capsys):
    out = tmp_path / "f.csv"
    args = {"--t0": "0", "--t1": "1", "--eps-start": "0"}
    args[flag] = value
    rc = main(
        ["flow", "--system", "quadratic", "--steps", "4", "--out", str(out)]
        + [f"{k}={v}" for k, v in args.items()]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "system, y0",
    [("quadratic", "nan"), ("quadratic", "inf"), ("quadratic", "-inf"),
     ("quadratic-augmented", "0,nan")],
)
def test_flow_initial_state_must_be_finite(system, y0, tmp_path, capsys):
    out = tmp_path / "f.csv"
    rc = main(
        ["flow", "--system", system, "--t0", "0", "--t1", "1", "--steps", "4",
         f"--y0={y0}", "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --y0 must be finite")
    assert not out.exists()


@pytest.mark.parametrize("y0", ["1,,2", "abc", "0,"])
def test_flow_initial_state_must_be_numbers(y0, tmp_path, capsys):
    out = tmp_path / "f.csv"
    rc = main(
        ["flow", "--system", "quadratic-augmented", "--t0", "0", "--t1", "1", "--steps", "4",
         f"--y0={y0}", "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --y0 must be comma-separated numbers")
    assert not out.exists()


@pytest.mark.parametrize("t0, eps_start", [("0", None), ("-1", "0.5")])
def test_flow_geometric_spacing_names_its_flags(t0, eps_start, tmp_path, capsys):
    out = tmp_path / "f.csv"
    args = ["flow", "--system", "quadratic", "--t0", t0, "--t1", "1", "--steps", "4",
            "--spacing", "geometric", "--out", str(out)]
    rc = main(args + (["--eps-start", eps_start] if eps_start else []))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --spacing geometric needs a start --t0 + --eps-start > 0")
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--steps", "0"], "error: --steps must be at least 1; got 0"),
        (["--steps", "-3"], "error: --steps must be at least 1; got -3"),
        (["--steps", "4", "--t1", "0"],
         "error: --t1 must exceed the start --t0 + --eps-start = 0.0; got 0.0"),
        (["--steps", "4", "--t1", "0.5", "--eps-start", "0.75"],
         "error: --t1 must exceed the start --t0 + --eps-start = 0.75; got 0.5"),
    ],
    ids=["steps-zero", "steps-negative", "t1-at-start", "t1-below-start"],
)
def test_flow_steps_and_end_time_name_their_flags(extra, message, tmp_path, capsys):
    out = tmp_path / "f.csv"
    args = ["flow", "--system", "quadratic", "--t0", "0", "--t1", "1", "--out", str(out)]
    assert main(args + extra) == 2
    assert capsys.readouterr().err == message + "\n"
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
        ({"suite": "burgers", "expressions": {"foo": 1}}, "unknown scenario keys ['expressions']"),
        ({"suite": "burgers", "grids": ["t"]}, "'grids'"),
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
        (
            {"suite": "gls-semigroup",
             "grids": {"t": {"lo": 0, "hi": 1, "count": 3, "jitter": 0.5, "cuont": 99}}},
            "grids.t has unknown keys ['cuont', 'jitter']",
        ),
        # json reads -Infinity, Infinity and NaN as floats; a grid over them samples NaN
        ({"suite": "gls-semigroup", "grids": {"y": {"lo": -math.inf, "hi": 4, "count": 5}}},
         "grids.y must be an object with finite numbers"),
        ({"suite": "gls-semigroup", "grids": {"y": {"lo": 0, "hi": math.inf, "count": 5}}},
         "grids.y must be an object with finite numbers"),
        ({"suite": "gls-semigroup", "grids": {"y": {"lo": math.nan, "hi": 4, "count": 5}}},
         "grids.y must be an object with finite numbers"),
    ],
)
def test_scenario_value_of_the_wrong_type_exits_two(scenario, key, capsys):
    assert run_suite(scenario) == 2
    captured = capsys.readouterr()
    assert key in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"suite": "noninvertibility", "tolerances": {"dichotomy": 1e-20}}, "identity axiom fails"),
        ({"suite": "burgers", "tolerances": {"algebra": 1e-300}}, "composition law fails"),
        ({"suite": "semi-symmetry", "expressions": {"residual": "D(U,t) + D(U,x)"}},
         "unknown scenario keys ['expressions']"),
    ],
)
def test_failed_precondition_is_bad_input(scenario, message, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_suite({**scenario, "out": str(out)}) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, name",
    [
        ({"lo": -1.0, "hi": 1.0, "count": 3}, "t"),  # sqrt(t) at t < 0
        ({"lo": -1e308, "hi": 1e308, "count": 3}, "y"),  # the span overflows a float
    ],
)
def test_grid_override_outside_a_suite_domain_exits_two(grid, name, capsys):
    assert run_suite({"suite": "ode-residuals", "grids": {name: grid}}) == 2
    err = capsys.readouterr().err
    assert "suite 'ode-residuals'" in err and f"grids.{name} = " in err


def test_a_negative_time_axis_names_the_domain_of_the_branch_odes(capsys):
    assert run_suite({"suite": "ode-residuals", "grids": {"t": {"lo": -1.0, "hi": 1.0, "count": 3}}}) == 2
    assert capsys.readouterr().err.endswith("the square-root branch ODEs are posed on t > 0\n")


def test_an_error_blames_only_the_grid_overrides_its_suite_read(capsys):
    # noninvertibility reads no grid override, and the tolerance, not the grid, fails it
    scenario = {
        "suite": "noninvertibility",
        "tolerances": {"dichotomy": 1e-20},
        "grids": {"y": {"lo": -1, "hi": 1, "count": 5}},
    }
    assert run_suite(scenario) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: identity axiom fails") and "grids.y" not in err
    # of two overrides, ode-residuals leaves its domain through the one it reads
    scenario = {
        "suite": "all",
        "grids": {"t": {"lo": -1, "hi": 1, "count": 3}, "zz": {"lo": 0, "hi": 1, "count": 3}},
    }
    assert run_suite(scenario) == 2
    err = capsys.readouterr().err
    assert "grids.t = " in err and "grids.zz" not in err


# each aborted with a RootSearchError while recovery scanned 256 points for
# sign changes: near the fold both roots fell into one scan cell
@pytest.mark.parametrize("seed", [11, 16, 32, 33, 35, 37, 46, 110])
def test_recovery_near_the_fold_passes_for_every_seed(seed, capsys):
    assert main(["verify", "--suite", "recovery-cross-check", "--seed", str(seed)]) == 0


def test_a_slice_with_no_root_on_the_bounded_branch_fails_its_report(tmp_path, monkeypatch, capsys):
    # the slice z - sqrt(tau)*z^2 peaks at 1/(4*sqrt(tau)): larger targets have no root
    import semiflow.suites as suites
    from semiflow.maps import scalar_map
    from semiflow.reduction import EvolutionOp

    folded = EvolutionOp(scalar_map(("t0", "t1", "y"), "y - sqrt(t1)*y*y", name="folded"))
    monkeypatch.setattr(suites, "gls_two_time_op", lambda: folded)
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "recovery-cross-check", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    (rep,) = json.loads(out.read_text())["suites"]["recovery-cross-check"]
    assert not rep["passed"] and rep["max_deviation"] == "inf"
    assert rep["witnesses"][0]["note"] == "no root on the bounded branch"


def test_seed_42_report_is_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--seed", "42", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "e7bbe3657a5a55bf7bbd0dcf09285b113b804efd4f958f02fc9b24c810c848e6"
    reports = [r for reps in json.loads(out.read_text())["suites"].values() for r in reps]
    assert len(reports) == 45
    for r in reports:
        dev = float(r["max_deviation"])  # a non-finite one is written as "nan", "inf"
        assert r["passed"] == (dev <= r["tolerance"] and not r["inconclusive"]), r["suite"]
