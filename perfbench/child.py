"""One benchmark pass in a fresh interpreter.

Started by ``run.py``; writes its measurements as JSON to ``--result``.
Run from the root of a checkout, it imports ``semiflow`` from its ``src/``
directory, builds the workload's inputs, runs one pass (with the tracer
installed when ``--trace 1``), then checks the outputs outside the timed
region. Just before and just after the pass it times the fixed reference
work of ``hostspeed.py``, which ``run.py`` scales the times by.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def _import_semiflow(root: str, workload: str):
    sys.path.insert(0, os.path.join(root, "src"))
    sf = importlib.import_module("semiflow")
    if workload != "symbolic-churn":
        importlib.import_module("semiflow.cli")
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(sf.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported semiflow from {sf.__file__}, not from {src}")
    return sf


def layer_metrics(tracer, cache: dict, check: dict) -> dict:
    """Per-layer metrics of one traced pass (see perfbench/README.md)."""
    st = tracer.stat
    flow = st("reduction.integrate_flow").extra
    recover = st("reduction.recover")
    rootfind = st("rootfind")
    maps_call = st("maps.call")
    graph = st("semisym.is_graph")
    lookups = cache["hits"] + cache["misses"]
    m = {
        "expr.parse.calls": st("expr.parse").calls,
        "expr.parse.self_s": st("expr.parse").self_s,
        "expr.diff.calls": st("expr.diff").calls,
        "expr.diff.self_s": st("expr.diff").self_s,
        "expr.compile.self_s": st("expr.compile").self_s,
        "expr.compile.hits": cache["hits"],
        "expr.compile.misses": cache["misses"],
        "expr.compile.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "expr.evaluate.calls": st("expr.evaluate").calls,
        "expr.evaluate.self_s": st("expr.evaluate").self_s,
        "maps.call.calls": maps_call.calls,
        "maps.call.self_s": maps_call.self_s,
        "maps.call.domain_errors": maps_call.errors,
        "maps.call.ok_ratio": 1.0 - maps_call.errors / maps_call.calls if maps_call.calls else 0.0,
        "maps.finite_diff.calls": st("maps.finite_diff").calls,
        "reduction.integrate_flow.self_s": st("reduction.integrate_flow").self_s,
        "reduction.rk4.steps": flow.get("steps", 0),
        "reduction.rk4_scalar.steps_per_s": (
            flow["scalar_steps"] / flow["scalar_s"] if flow.get("scalar_s") else 0.0
        ),
        "reduction.rk4_vector.steps_per_s": (
            flow["vector_steps"] / flow["vector_s"] if flow.get("vector_s") else 0.0
        ),
        "reduction.csv.self_s": st("reduction.csv").self_s,
        "reduction.csv.bytes": st("reduction.csv").extra.get("bytes", 0),
        "reduction.law_checks.self_s": st("reduction.law_checks").self_s,
        "reduction.recover.calls": recover.calls,
        "reduction.recover.us_per_call": 1e6 * recover.total_s / recover.calls if recover.calls else 0.0,
        "rootfind.calls": rootfind.calls,
        "rootfind.self_s": rootfind.self_s,
        "rootfind.failures": rootfind.errors + rootfind.extra.get("none", 0),
        "semisym.is_graph.calls": graph.calls,
        "semisym.is_graph.self_s": graph.self_s,
        "semisym.is_graph.samples": graph.extra.get("samples", 0),
        "semisym.is_graph.pairs_computed": graph.extra.get("pairs_computed", 0),
        "semisym.residual_max.calls": st("semisym.residual_max").calls,
        "semisym.residual_max.self_s": st("semisym.residual_max").self_s,
        "actions.checks.self_s": st("actions.checks").self_s,
        "actions.dichotomy.self_s": st("actions.dichotomy").self_s,
        "actions.probe.self_s": st("actions.probe").self_s,
        "actions.probe.points": st("actions.probe").extra.get("points", 0),
        "enforcing.diffeo.self_s": st("enforcing.diffeo").self_s,
        "enforcing.ode_residual.calls": st("enforcing.ode_residual").calls,
        "enforcing.ode_residual.self_s": st("enforcing.ode_residual").self_s,
        "evolution_pde.self_s": st("evolution_pde").self_s,
        "report.from_deviations.calls": st("report.from_deviations").calls,
        "report.self_s": tracer.self_s("report"),
        "report.json.bytes": check.get("report_bytes", 0),
    }
    suites = importlib.import_module("semiflow.suites")
    for name in suites.SUITES:
        m[f"suites.{name}.s"] = st(f"suites.{name}").total_s
    m["suites.reports"] = sum(
        s.extra.get("reports", 0) for n, s in tracer.stats.items() if n.startswith("suites.")
    )
    m["cli.self_s"] = st("cli").self_s
    return m


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p.add_argument("--pass-id", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--warmup", action="store_true", help="import only, then exit")
    args = p.parse_args()

    sf = _import_semiflow(os.getcwd(), args.workload)
    if args.warmup:
        importlib.import_module("semiflow.cli")
        return 0
    inputs = workloads.INPUTS[args.workload](args.seed, args.size, args.work)
    setup_s = time.perf_counter() - _T0

    speed_before = hostspeed.timed()
    compile_cache = sf.expr.compile_expr  # the lru_cache object, before any patching
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.pass_id)
        tracer.install()
    cache0 = compile_cache.cache_info()
    run_pass = workloads.PASSES[args.workload]
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        outcome = run_pass(sf, inputs)
    finally:
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
        if tracer is not None:
            tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed_after = hostspeed.timed()
    cache1 = compile_cache.cache_info()

    if args.workload == "verify-all":
        check = workloads.verify_check(inputs, outcome)
    elif args.workload == "singular-flow":
        check = workloads.flow_check(inputs, outcome)
    else:
        check = workloads.churn_check(sf, inputs, outcome, bool(args.reference))

    result = {
        "setup_s": setup_s,
        "pass_s": wall1 - wall0,
        "pass_cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_kib / 1024.0,
        "hostspeed_s": (speed_before + speed_after) / 2,
        "traced": bool(args.trace),
        "compile_cache_maxsize": cache1.maxsize,
        **check,
    }
    if tracer is not None:
        cache = {"hits": cache1.hits - cache0.hits, "misses": cache1.misses - cache0.misses}
        result["layers"] = layer_metrics(tracer, cache, check)
        tracer.write_spans(os.path.join(args.work, "spans.jsonl"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
