"""Tests of the benchmark itself: inputs, tracer and a smoke run per workload.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import hostspeed
import tracer as tracing
import workloads
from semiflow.rootfind import RootSearchError

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_expression_texts_are_deterministic_per_seed():
    assert workloads.churn_texts(7, 200) == workloads.churn_texts(7, 200)
    assert workloads.churn_texts(7, 200) != workloads.churn_texts(8, 200)
    assert workloads.churn_points(7, 6) == workloads.churn_points(7, 6)
    assert workloads.churn_points(7, 6) != workloads.churn_points(8, 6)


def test_flow_base_states_are_deterministic_and_in_range():
    states = [workloads.flow_base_state(seed) for seed in range(50)]
    assert states == [workloads.flow_base_state(seed) for seed in range(50)]
    assert len(set(states)) == 50
    assert all(0.5 <= y <= 2.0 for y in states)


def test_generated_expressions_round_trip_and_cover_the_grammar():
    import semiflow as sf
    from semiflow.expr import Binary, Unary

    ops = set()

    def walk(e):
        if isinstance(e, Binary):
            ops.add(e.op)
            walk(e.lhs)
            walk(e.rhs)
        elif isinstance(e, Unary):
            ops.add(e.op)
            walk(e.arg)

    for seed in (1, 2, 3):
        for text in workloads.churn_texts(seed, 2500):
            e = sf.parse_expr(text)
            assert sf.parse_expr(sf.to_text(e)) == e, text
            walk(e)
    assert ops == {"add", "sub", "mul", "div", "pow",
                   "neg", "sqrt", "cbrt", "tanh", "sin", "cos", "exp", "log"}


def test_churn_outputs_match_the_tree_walk_reference():
    import semiflow as sf

    for seed in (1, 2):
        inputs = {"texts": workloads.churn_texts(seed, 400), "points": workloads.churn_points(seed, 6)}
        check = workloads.churn_check(sf, inputs, workloads.churn_pass(sf, inputs), reference=True)
        assert check["attempted"] == 400
        assert check["failed"] == 0, check["problems"]


def _bindings():
    """Every name, class attribute and suite entry the tracer may replace."""
    names = {}
    modules = {name: importlib.import_module(name) for name in tracing.MODULES}
    for mod_name, mod in modules.items():
        for key, value in vars(mod).items():
            names[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("semiflow"):
                for attr, raw in vars(value).items():
                    names[(mod_name, key, attr)] = raw
    suites = importlib.import_module("semiflow.suites")
    names.update({("SUITES", k): v for k, v in suites.SUITES.items()})
    return names


def test_tracer_restores_every_patched_name():
    before = _bindings()
    with tracing.Tracer() as tr:
        during = _bindings()
        changed = [k for k in before if during[k] is not before[k]]
        import semiflow.cli as cli
        assert cli.main is not before[("semiflow.cli", "main")]
        assert tr._undo
    assert len(changed) > len(tracing.TARGETS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_counts_boundary_calls_and_self_time():
    import semiflow as sf

    e = sf.parse_expr("sin(x)^2 + exp(-x)*x")
    with tracing.Tracer() as tr:
        d = sf.diff(e, "x")
        m = sf.SmoothMap(("x",), (e, d))
        for k in range(10):
            m(0.1 * k)
        sf.evaluate(d, {"x": 0.5})
    diff, call, compile_, evaluate = (tr.stat(n) for n in
                                      ("expr.diff", "maps.call", "expr.compile", "expr.evaluate"))
    assert diff.calls == 1          # the recursion inside diff makes no spans
    assert evaluate.calls == 1
    assert call.calls == 10
    assert compile_.calls == 20     # SmoothMap.__call__ looks up each output
    assert call.self_s <= call.total_s
    assert call.self_s + compile_.self_s == pytest.approx(call.total_s, rel=1e-6, abs=1e-9)
    names = {span[1] for span in tr.spans}
    assert names == {"expr.diff"}   # hot calls are aggregated, not recorded


def test_verify_report_is_byte_identical_with_tracing(tmp_path):
    import semiflow.cli as cli

    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    for suite in ("reduction-algebra", "semi-symmetry"):
        def argv(out):
            return ["verify", "--suite", suite, "--seed", "3", "--out", str(out)]

        assert workloads._quiet(cli.main, argv(plain)) == 0
        with tracing.Tracer() as tr:
            assert workloads._quiet(cli.main, argv(traced)) == 0
        assert plain.read_bytes() == traced.read_bytes()
        assert tr.stat(f"suites.{suite}").calls == 1


@pytest.mark.xfail(strict=True, raises=RootSearchError,
                   reason="RootSearchError escapes recovery-cross-check for some seeds; "
                   "once fixed, let verify-all take the benchmark's seed again")
def test_verify_all_survives_every_seed(tmp_path):
    import semiflow.cli as cli

    for seed in (11, 110):
        argv = ["verify", "--suite", "recovery-cross-check", "--seed", str(seed),
                "--out", str(tmp_path / "report.json")]
        assert workloads._quiet(cli.main, argv) == 0


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="sin of an infinite intermediate raises ValueError, not EvalDomainError")
@pytest.mark.parametrize("path", ["evaluate", "SmoothMap"])
def test_sin_of_an_overflowed_value_is_a_domain_error(path):
    import semiflow as sf

    e = sf.parse_expr("sin(exp(x)*exp(x))")
    with pytest.raises(sf.EvalDomainError):
        if path == "evaluate":
            sf.evaluate(e, {"x": 400.0})
        else:
            sf.SmoothMap(("x",), (e,))(400.0)


def test_churn_check_counts_an_unexpected_error_as_failed():
    import semiflow as sf

    inputs = {"texts": ["sin(exp(x)*exp(x))", "x + y"],
              "points": [(0.5, 400.0, 0.0), (0.5, 0.1, 0.2)]}
    check = workloads.churn_check(sf, inputs, workloads.churn_pass(sf, inputs), True)
    assert (check["attempted"], check["failed"]) == (2, 1)
    assert check["fingerprints"][0] == "failed"
    assert "raised ValueError" in check["problems"][0]


def test_times_are_scaled_to_the_nominal_host_speed():
    import run

    slow = {"setup_s": 0.2, "pass_s": 4.0, "pass_cpu_s": 3.0, "peak_rss_mb": 40.0,
            "hostspeed_s": 2 * hostspeed.NOMINAL_S}
    assert [run.scaled(slow, n) for n in run.END_TO_END] == pytest.approx([0.1, 2.0, 1.5, 40.0])


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
                 "--size", "smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
    text = "\n".join(lines[:-1])
    for name in ("setup_s", "pass_s", "pass_cpu_s", "peak_rss_mb", "failed_frac"):
        assert f"  {name} " in text
    record = json.loads((ROOT / ".perfbench_out" / f"result-{workload}-trace0.json").read_text())
    assert record["failed_frac"]["value"] == 0.0
    assert record["environment"]["compile_cache_maxsize"] == 4096


def test_smoke_traced_run_reports_every_per_layer_metric():
    proc = _run(["--workload", "singular-flow", "--seed", "2", "--seconds", "1", "--trace", "1",
                 "--size", "smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    assert last["metrics"]["reduction.rk4.steps"]["value"] == 2000
    assert last["metrics"]["reduction.csv.bytes"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "verify-all", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not os.path.exists(tmp_path / ".perfbench_out")
