"""semiflow benchmark: one command, three workloads, every output checked.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

It runs passes of the workload one after another (a closed loop with one
client), each in a fresh interpreter, until ``--seconds`` have passed. With
``--trace 0`` it reports the end-to-end metrics, medians over the passes,
times scaled to a nominal host speed (``hostspeed.py``); with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it repeat every metric with its unit, ``failed_frac`` and the environment.
The exit code is 0 only when every output check passed.

Scratch files, span traces and a full result record per workload go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 170.0          # a run must end within 180 s
MIN_PASSES = {0: 3, 1: 4}  # trace 1 alternates, so at least two of each kind

END_TO_END = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MiB"}
# Times are scaled by the host's speed around their pass (see hostspeed.py).
TIMES = ("setup_s", "pass_s", "pass_cpu_s")


def _median(values):
    return statistics.median(values) if values else 0.0


def scaled(p: dict, name: str) -> float:
    """A pass's value of an end-to-end metric; times at the nominal host speed."""
    if name in TIMES:
        return p[name] * hostspeed.NOMINAL_S / p["hostspeed_s"]
    return p[name]


def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "semiflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_rev(root: str) -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(root) else None


def environment(root: str, cache_maxsize) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "git_rev": _git_rev(root),
        "src_sha256": _src_digest(root),
        "compile_cache_maxsize": cache_maxsize,
    }


class ChildError(Exception):
    pass


def run_child(root, args, work, pass_id, traced, reference, deadline, warmup=False) -> dict:
    os.makedirs(work, exist_ok=True)
    result = os.path.join(work, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--pass-id", str(pass_id), "--trace", str(int(traced)),
        "--reference", str(int(reference)), "--work", work, "--result", result,
    ]
    if warmup:
        cmd.append("--warmup")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"pass {pass_id} did not finish within the run's time budget") from None
    if proc.returncode != 0:
        raise ChildError(f"pass {pass_id} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    if warmup:
        return {}
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_passes(root: str, args, out_dir: str) -> list[dict]:
    start = time.monotonic()
    deadline = start + BUDGET_S
    scratch = os.path.join(out_dir, f"{args.workload}.tmp")
    shutil.rmtree(scratch, ignore_errors=True)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}.jsonl")
    try:
        # write the bytecode caches before the first timed pass
        run_child(root, args, scratch, -1, False, False, deadline, warmup=True)
        passes = []
        walls = []
        measure_until = time.monotonic() + args.seconds
        with open(trace_path, "w", encoding="utf-8") as trace_out:
            while True:
                pass_id = len(passes)
                # start no pass that would, by the typical pass so far, end after --seconds
                if len(passes) >= MIN_PASSES[args.trace] and (
                    time.monotonic() + statistics.median(walls) > measure_until
                ):
                    return passes
                began = time.monotonic()
                traced = bool(args.trace) and pass_id % 2 == 1
                work = os.path.join(scratch, f"pass-{pass_id}")
                res = run_child(root, args, work, pass_id, traced, pass_id == 0, deadline)
                spans = os.path.join(work, "spans.jsonl")
                if traced and os.path.exists(spans):
                    with open(spans, "r", encoding="utf-8") as fh:
                        shutil.copyfileobj(fh, trace_out)
                shutil.rmtree(work, ignore_errors=True)
                passes.append(res)
                walls.append(time.monotonic() - began)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def consistency_problems(workload: str, passes: list[dict]) -> list[str]:
    """Outputs that must repeat exactly across the passes of one run."""
    problems = []
    if workload == "verify-all":
        digests = {p["report_sha256"] for p in passes}
        if len(digests) != 1:
            problems.append(f"report JSON differs between passes: {sorted(digests)}")
    return problems


def churn_failures(passes: list[dict]) -> int:
    """Expressions whose values differ from the reference pass (pass 0)."""
    ref = passes[0]["fingerprints"]
    failed = 0
    for p in passes[1:]:
        for mine, want in zip(p["fingerprints"], ref):
            if mine != "failed" and mine != want:
                failed += 1
    return failed


def summarize(args, passes: list[dict], env: dict) -> tuple[dict, dict]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p.get("problems", [])]
    if args.workload == "symbolic-churn":
        drift = churn_failures(passes)
        failed += drift
        if drift:
            problems.append(f"{drift} expression values differ from the reference pass")
    problems += consistency_problems(args.workload, passes)

    e2e = {name: _median([scaled(p, name) for p in plain]) for name in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "end_to_end": {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()},
        "raw_median": {n: _median([p[n] for p in plain]) for n in (*TIMES, "hostspeed_s")},
        "failed_frac": {"value": failed / attempted, "unit": "ratio",
                        "failed": failed, "attempted": attempted},
        "samples": {n: [p[n] for p in plain] for n in (*END_TO_END, "hostspeed_s")},
        "problems": problems,
        "environment": env,
    }
    if args.workload == "verify-all":
        record["report_sha256"] = passes[0]["report_sha256"]
    if traced:
        names = traced[0]["layers"]
        layers = {n: _median([p["layers"][n] for p in traced]) for n in names}
        untraced_s = e2e["pass_s"]
        traced_s = _median([scaled(p, "pass_s") for p in traced])
        layers["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        record["per_layer"] = layers
        record["traced_pass_s"] = traced_s
    verdict = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed}
    return record, verdict


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="semiflow benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="'smoke' shrinks every workload; for the benchmark's own tests")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "semiflow", "__init__.py")):
        print(f"error: {root} holds no src/semiflow package to benchmark", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        passes = run_passes(root, args, out_dir)
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    env = environment(root, passes[0]["compile_cache_maxsize"])
    record, verdict = summarize(args, passes, env)
    with open(os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    n = record["passes"]
    print(f"semiflow benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} untraced passes={n['untraced']} traced passes={n['traced']}")
    raw = record["raw_median"]
    for name, m in record["end_to_end"].items():
        how = f"median of {n['untraced']} passes"
        if name in TIMES:
            how += f" at nominal host speed; unscaled {raw[name]:.6g}"
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}  ({how})")
    print(f"  {'hostspeed_s':<12} {raw['hostspeed_s']:.6g} s  "
          f"(median of {n['untraced']} passes; nominal {hostspeed.NOMINAL_S})")
    ff = record["failed_frac"]
    print(f"  {'failed_frac':<12} {ff['value']:.6g} {ff['unit']}  ({ff['failed']}/{ff['attempted']} operations)")
    if "report_sha256" in record:
        print(f"  report sha256 {record['report_sha256']}")
    print("  environment " + json.dumps(env, sort_keys=True))
    for msg in record["problems"]:
        print(f"  FAILED CHECK: {msg}")

    if args.trace:
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in record["per_layer"].items()}
    else:
        metrics = {name: dict(m) for name, m in record["end_to_end"].items()}
    print(json.dumps({**verdict, "metrics": metrics}))
    return 0 if verdict["correct"] else 1


def unit_of(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
