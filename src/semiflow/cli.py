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

from .actions import TimeAction, composition_check, dichotomy_classify, identity_check
from .enforcing import (
    bump_map,
    cuberoot_group_action,
    cuberoot_ode_system,
    homotopy_action,
    milder_action,
    milder_ode_system,
    one_sided_quotients,
    ode_residual_explicit,
    ode_residual_homotopy,
    ode_residual_map,
    ode_residual_milder,
    milder_branch_for,
    sqrt_action,
    sqrt_branch_for,
    sqrt_mediator,
    sqrt_ode_system,
    square_map,
)
from .evolution_pde import burgers_residual, burgers_soliton
from .expr import ExprError, free_vars, parse_expr
from .grids import Axis, grid1d, grid2d
from .maps import SmoothMap
from .actions import noninvertibility_witness_sqrt
from .reduction import (
    IntegrationError,
    augment_system,
    gls_one_time_op,
    gls_slice,
    integrate_flow,
    quadratic_slice,
    quadratic_system,
    recover_evolution_detailed,
)
from .report import VerificationReport
from .semisym import (
    constrained_symmetry_scan,
    scaling_action,
    strip_predicate,
    value_shift_action,
)
from .suites import (
    SUITES,
    SuiteConfig,
    run_suites,
    suite_heat_flow,
    suite_parametric_graph,
)


# ---------------------------------------------------------------------------
# demos


def _demo_sqrt_action() -> str:
    action = sqrt_action()
    lines = ["square-root singular action H(t,y) = y + sqrt(t)*y^2 on t >= 0"]
    for t, y in ((0.0, 5.0), (1.0, 2.0), (4.0, -0.5)):
        lines.append(f"  H({t:g}, {y:g}) = {action.call1(t, y):.12g}")
    for t in (0.25, 1.0, 4.0):
        y1, y2 = noninvertibility_witness_sqrt(t)
        lines.append(
            f"  collision at t={t:g}: H({t:g},{y1:g}) = {action.call1(t, y1):.3g} "
            f"= H({t:g},{y2:g}) = {action.call1(t, y2):.3g} -> not injective"
        )
    lines.append("  one-sided difference quotients |H(e,1)-H(0,1)|/e (C^1 failure at 0):")
    for e, q in one_sided_quotients(action, 1.0, [1e-2, 1e-4, 1e-6, 1e-8]):
        lines.append(f"    eps={e:g}: {q:.6g}")
    branch = sqrt_branch_for(1.0, 1.0)
    residuals = {branch.name: ode_residual_map(action, sqrt_ode_system(branch.name))}
    lines.append("  residual of the branch ODE at (t=1, y=1), resolved branch: "
                 f"{ode_residual_explicit(residuals, 1.0, 1.0, branch):.3e}")
    return "\n".join(lines)


def _demo_milder_action() -> str:
    action = milder_action()
    lines = ["everywhere-smooth variant H(t,y) = y + t*y^2 on all of R"]
    for t, y in ((0.0, 3.0), (-1.0, 1.0), (2.0, 1.0)):
        lines.append(f"  H({t:g}, {y:g}) = {action.call1(t, y):.12g}")
    residuals = {b: ode_residual_map(action, milder_ode_system(b)) for b in ("regular", "singular")}
    for t, y in ((1.0, 1.0), (0.0, 3.0), (-1.0, 1.0)):
        r = ode_residual_milder(residuals, t, y, milder_branch_for(t, y))
        lines.append(f"  resolved-ODE residual at (t={t:g}, y={y:g}): {r:.3e}")
    lines.append("  smooth in t, yet H(t,.) is never injective for t != 0 "
                 "(witness pair y, -1/t - y), so no group action exists")
    return "\n".join(lines)


def _demo_cuberoot() -> str:
    action = cuberoot_group_action()
    comp = composition_check(action, [(1.0, 2.0), (-1.0, 2.0)], grid1d(-3.0, 3.0, 22), 1e-12)
    dich = dichotomy_classify(action, [0.5, 1.0, 2.0], grid1d(-3.0, 3.0, 22), 1e-9)
    return "\n".join(
        [
            "cube-root flow Y(t) = (3t + y^3)^(1/3) of dY/dt = 1/Y^2",
            f"  Y(1/3) from y=0: {action.call1(1.0 / 3.0, 0.0):.12g}",
            f"  composition law: {comp.one_line()}",
            f"  dichotomy classification: {dich.classification} "
            "(a group action despite the singular RHS)",
        ]
    )


def _demo_homotopy() -> str:
    med = sqrt_mediator()
    lines = ["homotopy action H(t,y) = (1 - g(t))*y + g(t)*f(y), g = sqrt(t)"]
    for name, f in (("square", square_map()), ("bump", bump_map())):
        action = homotopy_action(f, med)
        residual = ode_residual_homotopy(f, med, action.map, action.map.partial("t"), 0.25, 2.0)
        lines.append(
            f"  f = {name}: H(0,3) = {action.call1(0.0, 3.0):g}, "
            f"H(1,3) = {action.call1(1.0, 3.0):g} = f(3)"
        )
        lines.append(f"    implicit-ODE residual at (t=0.25, y=2): {residual:.3e}")
    return "\n".join(lines)


def _demo_gls_evolution() -> str:
    op = gls_one_time_op()
    a = op(1.0, (0.0, 2.0))
    b = op(3.0, a)
    c = op(4.0, (0.0, 2.0))
    return "\n".join(
        [
            "genuine-semigroup evolution one dimension up: E(s)(t,y) = (t+s, E(t,t+s)(y))",
            f"  E(1)(0, 2) = ({a[0]:g}, {a[1]:g})",
            f"  E(3)(1, 6) = ({b[0]:g}, {b[1]:g})",
            f"  E(4)(0, 2) = ({c[0]:g}, {c[1]:g})  [= E(3)∘E(1), the semigroup law]",
            "  each E(s), s > 0, is non-injective (collision on the t=0 slice), so no "
            "member except the identity is invertible",
        ]
    )


def _demo_quadratic_recovery() -> str:
    res = recover_evolution_detailed(quadratic_slice, 1.0, 2.0, 3.0)
    lines = [
        "recovering the two-time evolution of dY/dt = 2t from the slice E(0,t)(z) = t^2 + z",
        f"  target: E(1,2)(3) via E(0,2)(y*) with E(0,1)(y*) = 3",
        f"  brackets scanned: {len(res.brackets)}, roots: {[f'{r:.6g}' for r in res.roots]}",
        f"  y* = {res.ystar:.12g} (condition number {res.condition:.3g})",
        f"  E(1,2)(3) = {res.value:.12g}   [closed form: s^2 - t^2 + y = 6]",
    ]
    res2 = recover_evolution_detailed(gls_slice, 1.0, 4.0, 6.0)
    lines.append(
        f"  same machinery on the singular slice z + sqrt(t)*z^2: E(1,4)(6) = "
        f"{res2.value:.12g} with y* = {res2.ystar:.6g} ({res2.notes[0] if res2.notes else 'single root'})"
    )
    return "\n".join(lines)


def _demo_burgers() -> str:
    U = burgers_soliton(0.0, 1.0, 1.0, 0.5)
    r = burgers_residual(U, 0.5, grid2d(0.0, 1.0, 5, -5.0, 5.0, 11))
    return "\n".join(
        [
            "viscous Burgers traveling kink c - sqrt(c^2+d)*tanh(sqrt(c^2+d)/(2 mu)*(x-x0-c t))",
            f"  U(0,0) with (x0,c,d,mu)=(0,1,1,0.5): {U(0.0, 0.0)[0]:.12g}",
            f"  max residual of U_t + U U_x - mu U_xx on [0,1]x[-5,5]: {r:.3e}",
            "  time advance acts on parameters as x0 -> x0 + c*t with (c,d) frozen",
        ]
    )


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


def _demo_rotated_parabola() -> str:
    return "\n".join(
        [
            "parametric chart of the parabola u = x^2 under plane rotations",
            *_report_lines(suite_parametric_graph(SuiteConfig())),
            "  the chart survives either way: composition never needs an inverse",
        ]
    )


def _demo_heat_flow() -> str:
    return "\n".join(
        [
            "heat kernel exp(-x^2/(4 t))/sqrt(t) against U_t = U_xx",
            *_report_lines(suite_heat_flow(SuiteConfig())),
        ]
    )


def _demo_constrained() -> str:
    scan = constrained_symmetry_scan(
        scaling_action(),
        strip_predicate,
        grid1d(0.25, 1.5, 6),
        grid2d(-0.99, 0.99, 9, -2.0, 2.0, 5),
    )
    lines = ["scaling (g,(x,y)) -> (gx,y) against the strip |x| < 1:"]
    for g, ok, _ in scan.entries:
        lines.append(f"  g = {g:g}: {'keeps' if ok else 'leaves'} the strip")
    lines.append(f"  invariant parameter set on this sample: {scan.invariant_params}")
    shift = constrained_symmetry_scan(
        value_shift_action(),
        lambda p: p[1] > 0.0,
        grid1d(-2.0, 2.0, 5),
        grid2d(-1.0, 1.0, 3, 0.5, 3.0, 6),
    )
    lines.append("value shifts (x,u) -> (x,u+c) against the constraint u > 0:")
    for c, ok, _ in shift.entries:
        lines.append(f"  c = {c:g}: {'admissible' if ok else 'violates the constraint'}")
    return "\n".join(lines)


DEMOS: dict[str, tuple[str, Callable[[], str]]] = {
    "sqrt-action": ("singular action y + sqrt(t)*y^2: collisions and C^1 failure", _demo_sqrt_action),
    "milder-action": ("smooth variant y + t*y^2 and its resolved ODEs", _demo_milder_action),
    "cuberoot-group": ("cube-root flow: a group action from a singular RHS", _demo_cuberoot),
    "homotopy-action": ("identity-to-f homotopy mediated by sqrt(t)", _demo_homotopy),
    "gls-evolution": ("the genuine-semigroup evolution one dimension up", _demo_gls_evolution),
    "quadratic-recovery": ("two-time evolution recovered from one slice by root finding", _demo_quadratic_recovery),
    "burgers-soliton": ("Burgers traveling kink and its parameter flow", _demo_burgers),
    "rotated-parabola": ("parametric charts vs graphs under rotations", _demo_rotated_parabola),
    "heat-flow": ("heat kernel: an exact solution of U_t = U_xx", _demo_heat_flow),
    "constrained-scaling": ("subset-preserving parameter scans", _demo_constrained),
}


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
    expressions = _scenario_value(doc, "expressions", dict, "an object", {})
    declarations = {"unknown", "vars"}  # symbol lists, not expressions
    for name, text in expressions.items():
        if not isinstance(text, str):
            raise ValueError(f"expressions.{name} must be a string, got {text!r}")
        if name not in declarations:
            parse_expr(text)  # malformed expressions fail here, with an offset
    return SuiteConfig(seed=seed if seed_override is None else seed_override,
                       tolerances=tolerances, grids=grids, expressions=dict(expressions))


def _adhoc_identity_report(text: str, tol: float) -> VerificationReport:
    expr = parse_expr(text)
    stray = free_vars(expr) - {"t", "y"}
    if stray:
        raise ExprError(f"--action expression may use only t and y; got {sorted(stray)}")
    action = TimeAction(
        name=f"adhoc[{text}]",
        dim=1,
        time_domain="nonneg",
        time_var="t",
        state_vars=("y",),
        map=SmoothMap(("t", "y"), (expr,), name="adhoc"),
    )
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
    code 2; that includes a scenario tolerance, grid or expression that
    none of the checks run has read.
    """
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    known = {"suite", "expressions", "grids", "tolerances", "seed", "out"}
    stray = set(doc) - known
    if stray:
        raise ValueError(f"unknown scenario keys {sorted(stray)}; known: {sorted(known)}")
    doc_suite = _scenario_value(doc, "suite", str, "a string", "")
    out_path = out or _scenario_value(doc, "out", str, "a string", "")
    # a user-declared action: check its identity axiom and nothing else
    suite = "adhoc-identity" if action is not None else suite or doc_suite
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
    print(DEMOS[args.name][1]())
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    if args.system not in FLOW_SYSTEMS:
        raise ValueError(f"unknown system '{args.system}'; known: {', '.join(FLOW_SYSTEMS)}")
    for flag, value in (("--t0", args.t0), ("--t1", args.t1)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite; got {value!r}")
    if not (math.isfinite(args.eps_start) and args.eps_start >= 0.0):
        raise ValueError(f"--eps-start must be finite and >= 0; got {args.eps_start!r}")
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
    start = args.t0 + args.eps_start
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
        f"integrated {args.system} from t={args.t0 + args.eps_start:g} to {args.t1:g} "
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
