"""Run-to-run spread of the end-to-end metrics: one set of untraced runs.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload verify-all --seeds 101-110
    python3 perfbench/spread.py --workload verify-all --seeds 101-110 \\
        --record perfbench/baseline.json --set 2

Runs ``run.py`` once per seed with tracing off, for ``run_seconds`` from
``BENCHMARK.json``, as the benchmark's acceptance runs do. It prints, per
end-to-end metric, the median of the per-run values and the distance
between their first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median; the same for the unscaled ``pass_s`` and
for ``hostspeed_s``, the host's speed the times were scaled by.

With ``--record FILE --set N`` it stores the set as the N-th entry of
``workloads.<workload>.untraced_sets`` in FILE (the schema of
``baseline.json``), and, once sets 1 and 2 are both there, the change of
each median from set 1 to set 2 beside the metric's bound in
``workloads.<workload>.set_agreement``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: dict[str, float]) -> dict:
    runs = list(values.values())
    med = statistics.median(runs)
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med, "runs": values}


def run_set(workload: str, seeds: list[int], seconds: int) -> dict:
    started = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    values: dict[str, dict[str, float]] = {}
    unscaled: dict[str, dict[str, float]] = {}
    passes_per_run = []
    run_wall_s = []
    failed = attempted = 0
    for seed in seeds:
        began = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        run_wall_s.append(round(time.monotonic() - began, 1))
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed}: run.py exited with {proc.returncode}\n"
                             f"{proc.stdout}{proc.stderr}")
        path = os.path.join(ROOT, ".perfbench_out", f"result-{workload}-trace0.json")
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        passes_per_run.append(record["passes"]["untraced"])
        failed += record["failed_frac"]["failed"]
        attempted += record["failed_frac"]["attempted"]
        for name, m in record["end_to_end"].items():
            values.setdefault(name, {})[str(seed)] = m["value"]
        for name in ("pass_s", "hostspeed_s"):
            unscaled.setdefault(name, {})[str(seed)] = record["raw_median"][name]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[str(seed)]:.6g}" for n, v in values.items()), flush=True)
    return {
        "started_utc": started,
        "seeds": f"{seeds[0]}-{seeds[-1]}" if seeds == list(range(seeds[0], seeds[-1] + 1))
        else ",".join(map(str, seeds)),
        "seconds": seconds,
        "passes_per_run": passes_per_run,
        "run_wall_s": run_wall_s,
        "failed_frac": failed / attempted,
        "end_to_end": {name: summarize(v) for name, v in values.items()},
        "unscaled": {name: summarize(v) for name, v in unscaled.items()},
    }


def agreement(first: dict, second: dict, bounds: dict[str, float]) -> dict:
    out = {}
    for name, bound in bounds.items():
        m1 = first["end_to_end"][name]["median"]
        m2 = second["end_to_end"][name]["median"]
        change = (m2 - m1) / m1
        out[name] = {"median_change": change, "bound": bound, "within_bound": abs(change) <= bound}
    return out


def record_set(path: str, workload: str, index: int, result: dict, bounds: dict[str, float]) -> None:
    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    entry = baseline.setdefault("workloads", {}).setdefault(workload, {})
    sets = entry.setdefault("untraced_sets", [])
    if index > len(sets) + 1:
        raise SystemExit(f"--set {index}: {path} holds only {len(sets)} set(s) for {workload}")
    sets[index - 1:index] = [result]
    if len(sets) >= 2:
        entry["set_agreement"] = agreement(sets[0], sets[1], bounds)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="'101-110' or '3,5,8'")
    p.add_argument("--record", help="baseline file to store the set in")
    p.add_argument("--set", type=int, choices=(1, 2), help="which set of --record to replace")
    args = p.parse_args()
    if (args.record is None) != (args.set is None):
        p.error("--record and --set go together")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = run_set(args.workload, parse_seeds(args.seeds), bench["run_seconds"])
    for name, s in result["end_to_end"].items():
        print(f"{name:<12} median {s['median']:.6g}  IQR/median {s['iqr_over_median']:.4f}"
              f"  (bound {bounds[name]})")
    for name, s in result["unscaled"].items():
        print(f"{name:<12} unscaled median {s['median']:.6g}  IQR/median {s['iqr_over_median']:.4f}")
    if args.record:
        record_set(args.record, args.workload, args.set, result, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
