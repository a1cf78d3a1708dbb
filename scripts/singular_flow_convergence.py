#!/usr/bin/env python3
"""Convergence study for the singular-start RK4 flow.

Integrates the branch ODE of the square-root action from t = eps to t = 1
against the closed form H(t,1) = 1 + sqrt(t), along the step-doubling
sequence the flow-oracle suite draws its step count from. For each run it
prints the step count N, the Richardson estimate of the run's error and the
actual max relative deviation from the closed form, up to 10,000 steps, on
the uniform and the geometric mesh.

On the geometric mesh the estimate falls by about 2**4 = 16 per doubling
and tracks the actual error down to the rounding floor (~1e-14), which it
reaches at 10,000 steps. On the uniform mesh the first step over the
1/sqrt(t) layer sets the error: the estimate only halves per doubling, and
the factor 1/15 of an order-4 method makes it understate the actual error
15- to 20-fold. The ratio column (previous estimate / this one) shows
which regime a run is in.

Usage: python scripts/singular_flow_convergence.py [--eps 1e-8] [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from semiflow.enforcing import sqrt_action, sqrt_ode_system
from semiflow.reduction import closed_form_deviations, richardson_doubling
from semiflow.report import nan_max

MAX_STEPS = 10_000


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--eps", type=float, default=1e-8)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()

    action = sqrt_action()
    system = sqrt_ode_system("minus")
    y0 = action(args.eps, (1.0,))
    print(f"target: H(1, 1) = {action.call1(1.0, 1.0):.15g}, start eps = {args.eps:g}")
    print(f"{'steps':>8} {'mesh':>10} {'estimate':>11} {'ratio':>7} {'actual':>11}")
    for spacing in ("uniform", "geometric"):
        previous = None
        for traj, estimate in richardson_doubling(system, y0, 1.0, args.eps, spacing):
            actual = nan_max(closed_form_deviations(action, (1.0,), traj))
            ratio = f"{previous / estimate:7.2f}" if previous and estimate else f"{'':>7}"
            print(f"{traj.steps:>8} {spacing:>10} {estimate:>11.3e} {ratio} {actual:>11.3e}")
            previous = estimate
            if traj.steps >= MAX_STEPS:
                break
    if args.out_dir:
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "sqrt_flow_geometric.csv"
        traj.write_csv(str(path))  # the last run: geometric, MAX_STEPS steps
        print(f"trajectory written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
