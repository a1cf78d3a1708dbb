"""Scenario-driven command-line front end.

Commands:
    semiflow list
    semiflow verify --suite NAME|all [--scenario FILE] [--seed N] [--out FILE]
                    [--action EXPR]
    semiflow demo --name ID
    semiflow flow --system ID --t0 A --t1 B --steps N --out FILE
                  [--y0 V[,V...]] [--eps-start E] [--spacing uniform|geometric]

Exit codes: 0 all checks passed, 1 some check failed, 2 input/config error.
Reports are byte-deterministic for a fixed scenario and seed.
`run_suite(scenario)` is `semiflow verify` called from Python: the same
function runs both, with the same exit codes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Sequence

# the layers in dependency order (expr and maps come with the package)
from .expr import ExprError, free_vars, parse_expr
from .maps import SmoothMap
from .grids import Axis, grid1d
from .report import VerificationReport
from .actions import TimeAction, identity_check
from .reduction import IntegrationError, augment_system, integrate_flow, quadratic_system
from .enforcing import cuberoot_ode_system, sqrt_ode_system
from .suites import SUITES, SuiteConfig, run_suites


# ---------------------------------------------------------------------------
# demos: name -> (blurb, {suite: report names}); a demo runs those suites at their
# defaults and prints the blurb and the named reports, recomputing nothing itself

DEMOS: dict[str, tuple[str, dict[str, tuple[str, ...]]]] = {
    "sqrt-action": (
        "singular action y + sqrt(t)*y^2: collisions, branch ODEs and C^1 failure at t = 0",
        {
            "noninvertibility": ("sqrt-witness-collision", "sqrt-action-vs-smooth-family"),
            "ode-residuals": (
                "ode-residual[sqrt-branches]",
                "limit-ic[sqrt-action]",
                "not-c1[sqrt-action]",
            ),
        },
    ),
    "milder-action": (
        "smooth variant y + t*y^2 and its resolved ODEs",
        {
            "identity-axiom": ("identity[milder-action]",),
            "ode-residuals": ("ode-residual[milder-branches]",),
        },
    ),
    "cuberoot-group": (
        "cube-root flow: a group action from a singular RHS",
        {
            "noninvertibility": ("dichotomy[cuberoot-action]",),
            "flow-oracle": ("flow-vs-closed-form[cuberoot-action]",),
        },
    ),
    "homotopy-action": (
        "identity-to-f homotopy mediated by sqrt(t)",
        {
            "ode-residuals": (
                "ode-residual[homotopy-square]",
                "ode-residual[homotopy-bump]",
                "limit-ic[homotopy[square]]",
                "limit-ic[homotopy[bump]]",
            ),
            "diffeo-thresholds": ("diffeo-thresholds[bump-homotopy]",),
        },
    ),
    "gls-evolution": (
        "the genuine-semigroup evolution one dimension up",
        {
            "gls-semigroup": ("one-time-law[sqrt-gls-evolution]",),
            "noninvertibility": ("dichotomy[sqrt-gls-evolution]",),
        },
    ),
    "quadratic-recovery": (
        "two-time evolution recovered from one slice by root finding",
        {
            "reduction-algebra": ("recovery[quadratic]",),
            "recovery-cross-check": ("recovery-vs-closed-form[sqrt-gls]",),
        },
    ),
    "burgers-soliton": (
        "Burgers traveling kink and its parameter flow",
        {"burgers": ("burgers-soliton-residual", "soliton-translation", "param-flow-cocycle")},
    ),
    "rotated-parabola": (
        "parametric charts vs graphs under rotations",
        {
            "parametric-graph": (
                "rotated-parabola[pi/4]",
                "rotated-parabola[pi]",
                "regraph[half-turn-parabola]",
            ),
        },
    ),
    "heat-flow": (
        "heat kernel: an exact solution of U_t = U_xx",
        {"heat-flow": ("heat-flow-demo",)},
    ),
}


def _report_lines(reports: list[VerificationReport]) -> list[str]:
    """A demo's view of suite reports: status line, notes, witnesses."""
    lines = []
    for rep in reports:
        lines.append(f"  {rep.one_line()}")
        lines.extend(f"    note: {n}" for n in rep.notes)
        for w in rep.witnesses:
            point = ", ".join(f"{v:.6g}" for v in w.point)
            values = ", ".join(f"{v:.6g}" for v in w.values)
            lines.append(f"    witness at ({point}): values ({values}) {w.note}".rstrip())
    return lines


FLOW_SYSTEMS: dict[str, Callable[[], object]] = {
    "sqrt-ode-minus": lambda: sqrt_ode_system("minus"),
    "sqrt-ode-plus": lambda: sqrt_ode_system("plus"),
    "cuberoot-ode": cuberoot_ode_system,
    "quadratic": quadratic_system,
    "quadratic-augmented": lambda: augment_system(quadratic_system()),
}


# ---------------------------------------------------------------------------
# scenario handling


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _scenario_value(doc: dict, key: str, kind: type, what: str, default):
    """`doc[key]`, or `default` when absent; a bool is never an int here."""
    value = doc.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"scenario key '{key}' must be {what}, got {value!r}")
    return value


def config_from_scenario(doc: dict, seed_override: int | None, suite: str) -> SuiteConfig:
    grids = {}
    for name, spec in _scenario_value(doc, "grids", dict, "an object", {}).items():
        if not (
            isinstance(spec, dict)
            and all(_is_number(spec.get(k)) for k in ("lo", "hi", "count"))
            and math.isfinite(spec["lo"])
            and math.isfinite(spec["hi"])
            and float(spec["count"]).is_integer()
        ):
            raise ValueError(
                f"grids.{name} must be an object with finite numbers 'lo' and 'hi' "
                f"and an integral 'count', got {spec!r}"
            )
        stray = set(spec) - {"lo", "hi", "count"}
        if stray:
            raise ValueError(
                f"grids.{name} has unknown keys {sorted(stray)}; a grid spec takes "
                "only 'lo', 'hi' and 'count'"
            )
        grids[name] = Axis(float(spec["lo"]), float(spec["hi"]), int(spec["count"]))
    tolerances = {}
    for key, tol in _scenario_value(doc, "tolerances", dict, "an object", {}).items():
        if not (_is_number(tol) and 0.0 < tol < math.inf):
            raise ValueError(
                f"suite '{suite}': tolerance '{key}' must be a finite number > 0, got {tol!r}"
            )
        tolerances[key] = float(tol)
    seed = _scenario_value(doc, "seed", int, "an integer", 42)
    return SuiteConfig(seed=seed if seed_override is None else seed_override,
                       tolerances=tolerances, grids=grids)


def _adhoc_identity_report(text: str, tol: float) -> VerificationReport:
    expr = parse_expr(text)
    stray = free_vars(expr) - {"t", "y"}
    if stray:
        raise ExprError(f"--action expression may use only t and y; got {sorted(stray)}")
    action = TimeAction("nonneg", SmoothMap(("t", "y"), (expr,), name=f"adhoc[{text}]"))
    return identity_check(action, grid1d(-3.0, 3.0, 101), tol)


def write_report_file(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_list(_args: argparse.Namespace) -> int:
    print("suites:")
    for name in SUITES:
        print(f"  {name}")
    print("demos:")
    for name, (blurb, _) in DEMOS.items():
        print(f"  {name}: {blurb}")
    print("flow systems:")
    for name in FLOW_SYSTEMS:
        print(f"  {name}")
    return 0


SUITE_ALIASES = {"identity": "identity-axiom"}


def verify(
    doc: dict,
    suite: str | None = None,
    seed: int | None = None,
    out: str | None = None,
    action: str | None = None,
) -> int:
    """Run the scenario `doc` under the command-line overrides; 0 if every
    report passed, else 1.

    The one body behind `semiflow verify` and `run_suite`. Bad input
    raises one of INPUT_ERRORS, which both entry points turn into exit
    code 2; that includes a scenario tolerance or grid that none of the
    checks run has read.
    """
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    known = {"suite", "grids", "tolerances", "seed", "out"}
    stray = set(doc) - known
    if stray:
        raise ValueError(f"unknown scenario keys {sorted(stray)}; known: {sorted(known)}")
    doc_suite = _scenario_value(doc, "suite", str, "a string", "")
    out_path = out or _scenario_value(doc, "out", str, "a string", "")
    suite = suite or doc_suite
    if action is not None:
        # a user-declared action: check its identity axiom and nothing else
        if SUITE_ALIASES.get(suite, suite) not in ("", "identity-axiom"):
            raise ValueError(f"--action runs only the identity check, not suite '{suite}'")
        suite = "adhoc-identity"
    if not suite:
        raise ValueError("no suite named: pass --suite or a scenario with a 'suite' key")
    suite = SUITE_ALIASES.get(suite, suite)
    config = config_from_scenario(doc, seed, suite)
    reports: dict[str, list[VerificationReport]] = {}
    if action is not None:
        reports[suite] = [_adhoc_identity_report(action, config.tol("identity", 1e-12))]
    else:
        names = list(SUITES) if suite == "all" else [suite]
        reports.update(run_suites(names, config))
    unread = config.unread()
    if unread:
        raise ValueError(f"scenario overrides no check read: {unread}")
    all_passed = True
    for name, reps in reports.items():
        for rep in reps:
            print(rep.one_line())
            for note in rep.notes:
                print(f"    note: {note}")
            all_passed &= rep.passed
    if out_path:
        write_report_file(
            out_path,
            {
                "seed": config.seed,
                "suites": {n: [r.to_dict() for r in reps] for n, reps in reports.items()},
            },
        )
        print(f"report written to {out_path}")
    return 0 if all_passed else 1


def cmd_verify(args: argparse.Namespace) -> int:
    doc = load_scenario(args.scenario) if args.scenario else {}
    return verify(doc, args.suite, args.seed, args.out, args.action)


def cmd_demo(args: argparse.Namespace) -> int:
    if args.name not in DEMOS:
        raise ValueError(f"unknown demo '{args.name}'; known: {', '.join(DEMOS)}")
    blurb, wanted = DEMOS[args.name]
    ran = run_suites(list(wanted), SuiteConfig())
    reports = []
    for suite, names in wanted.items():
        by_name = {rep.suite: rep for rep in ran[suite]}
        reports.extend(by_name[name] for name in names)
    print("\n".join([blurb, *_report_lines(reports)]))
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_flow(args: argparse.Namespace) -> int:
    if args.system not in FLOW_SYSTEMS:
        raise ValueError(f"unknown system '{args.system}'; known: {', '.join(FLOW_SYSTEMS)}")
    for flag, value in (("--t0", args.t0), ("--t1", args.t1)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite; got {value!r}")
    if not (math.isfinite(args.eps_start) and args.eps_start >= 0.0):
        raise ValueError(f"--eps-start must be finite and >= 0; got {args.eps_start!r}")
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1; got {args.steps}")
    start = args.t0 + args.eps_start
    if args.t1 <= start:
        raise ValueError(
            f"--t1 must exceed the start --t0 + --eps-start = {start!r}; got {args.t1!r}"
        )
    sys_obj = FLOW_SYSTEMS[args.system]()
    try:
        y0 = tuple(float(v) for v in args.y0.split(",")) if args.y0 else (1.0,) * sys_obj.dim
    except ValueError:
        raise ValueError(f"--y0 must be comma-separated numbers; got {args.y0!r}") from None
    if not all(math.isfinite(v) for v in y0):
        raise ValueError(f"--y0 must be finite; got {args.y0!r}")
    if len(y0) != sys_obj.dim:
        raise ValueError(f"system '{args.system}' needs {sys_obj.dim} initial values")
    spacing = args.spacing
    if spacing == "auto":
        spacing = "geometric" if args.eps_start > 0.0 else "uniform"
    if spacing == "geometric" and start <= 0.0:
        raise ValueError(f"--spacing geometric needs a start --t0 + --eps-start > 0; got {start!r}")
    try:
        traj = integrate_flow(
            sys_obj, args.t0, y0, args.t1, args.steps, eps_start=args.eps_start, spacing=spacing
        )
    except IntegrationError as err:
        print(f"error: integration failed: {err}", file=sys.stderr)
        return 2
    traj.write_csv(args.out)
    print(
        f"integrated {args.system} from t={start:g} to {args.t1:g} "
        f"({args.steps} steps, {spacing} mesh); final state "
        f"{tuple(round(v, 12) for v in traj.final())}; wrote {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiflow",
        description="verification suites and demos for one-parameter semigroup actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list suites, demos and flow systems")
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", help="suite name, or 'all'")
    p_verify.add_argument("--scenario", help="scenario JSON file")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", help="write a JSON report here")
    p_verify.add_argument("--action", help="expression in (t, y) for an ad-hoc identity check")
    p_verify.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="print a worked transcript")
    p_demo.add_argument("--name", required=True)
    p_demo.set_defaults(func=cmd_demo)

    p_flow = sub.add_parser("flow", help="integrate a named system and export CSV")
    p_flow.add_argument("--system", required=True)
    p_flow.add_argument("--t0", type=float, required=True)
    p_flow.add_argument("--t1", type=float, required=True)
    p_flow.add_argument("--steps", type=int, required=True)
    p_flow.add_argument("--out", required=True)
    p_flow.add_argument("--y0", help="comma-separated initial state")
    p_flow.add_argument("--eps-start", type=float, default=0.0)
    p_flow.add_argument("--spacing", choices=("auto", "uniform", "geometric"), default="auto")
    p_flow.set_defaults(func=cmd_flow)
    return parser


# bad input of any kind: a scenario, an expression, a name or a file
INPUT_ERRORS = (KeyError, ValueError, ExprError, OSError)


def _exit_code(command: Callable[..., int], *args) -> int:
    try:
        return command(*args)
    except INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def run_suite(scenario: dict) -> int:
    """Programmatic `semiflow verify`: run the scenario document, return the exit code."""
    return _exit_code(verify, scenario)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
