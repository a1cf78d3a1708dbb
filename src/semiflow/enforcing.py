"""Concrete singular actions and the ODEs they satisfy.

The central example is the square-root action H(t,y) = y + sqrt(t)*y^2 on
t >= 0: it is the identity at t=0, non-injective for every t > 0, fails to
be C^1 at t=0, and as a function of t solves a pair of branch-selected
explicit ODEs that are singular at t=0 and therefore admit only the
limit-type initial condition lim_{t->0+} Y(t) = y.

Each branch ODE is one `OdeSystem` of expressions: the flows integrate it, and
its residual dH/dt - rhs(t, H) is derived from that same system (`ode_residual_map`).

The homotopy family H(t,y) = (1-g(t))*y + g(t)*f(y) deforms the identity
into an arbitrary smooth self-map f, mediated by a time reparametrization
g with g(0)=0, g(1)=1 and nonvanishing derivative; it satisfies an
implicit ODE from which both y and f(y) can be recovered pointwise.

Also here: the everywhere-smooth variant y + t*y^2 (milder singularity,
full time axis), the cube-root flow (3t + y^3)^(1/3) which *is* a group
action, and a per-time diffeomorphism classifier with threshold
refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Mapping, Sequence

from .expr import (
    Const,
    EvalDomainError,
    Expr,
    Var,
    compile_expr,
    diff,
    parse_expr,
    substitute_many,
)
from .grids import SamplingGrid
from .maps import SmoothMap, scalar_map
from .reduction import OdeSystem
from .report import Tally, VerificationReport, Witness, deviation, max_norm
from .actions import TimeAction, _grows_at_ends
from .rootfind import RootSearchError, bisect, sign_brackets


@dataclass(frozen=True)
class MediatorFunction:
    """Time reparametrization g(t) with g(0)=0, g(1)=1 and g'(t) != 0 on (0, T]."""

    g: Expr

    @cached_property
    def value(self) -> Callable[[float], float]:
        """g as a compiled function of t, built once."""
        return compile_expr(self.g, ("t",))

    @cached_property
    def slope(self) -> Callable[[float], float]:
        """g' as a compiled function of t, built once."""
        return compile_expr(diff(self.g, "t"), ("t",))


def mediator(g: Expr | str) -> MediatorFunction:
    """Validate g(t): the endpoint values, and a derivative that neither
    vanishes nor changes sign at 64 times spread over (0, 10]."""
    expr = parse_expr(g) if isinstance(g, str) else g
    med = MediatorFunction(expr)
    if abs(med.value(0.0)) > 1e-12 or abs(med.value(1.0) - 1.0) > 1e-12:
        raise ValueError(
            f"mediator must satisfy g(0)=0, g(1)=1; got g(0)={med.value(0.0)!r}, "
            f"g(1)={med.value(1.0)!r}"
        )
    last_sign = 0
    for k in range(1, 65):
        t = 10.0 * (k / 64.0) ** 2
        slope = med.slope(t)
        if slope == 0.0:
            raise ValueError(f"mediator derivative vanishes at t={t!r}")
        sign = 1 if slope > 0.0 else -1
        if last_sign and sign != last_sign:
            # a continuous derivative that changes sign vanishes in between
            raise ValueError(f"mediator derivative changes sign near t={t!r}")
        last_sign = sign
    return med


def sqrt_mediator() -> MediatorFunction:
    return mediator("sqrt(t)")


# ---------------------------------------------------------------------------
# the registered actions and the ODEs they solve


def sqrt_action() -> TimeAction:
    """H(t,y) = y + sqrt(t)*y^2 on t in [0, inf); not C^1 at t = 0."""
    return TimeAction(
        time_domain="nonneg",
        map=scalar_map(("t", "y"), "y + sqrt(t)*y^2", name="sqrt-action"),
    )


def milder_action() -> TimeAction:
    """H(t,y) = y + t*y^2, smooth on all of R x R yet never a diffeomorphism for t != 0."""
    return TimeAction(
        time_domain="full",
        map=scalar_map(("t", "y"), "y + t*y^2", name="milder-action"),
    )


def cuberoot_group_action() -> TimeAction:
    """Y(t) = (3t + y^3)^(1/3): the flow of dY/dt = 1/Y^2, a full group action."""
    return TimeAction(
        time_domain="full",
        map=scalar_map(("t", "y"), "cbrt(3*t + y^3)", name="cuberoot-action"),
    )


def _known_branch(table: Mapping[str, str], branch: str) -> str:
    """`table[branch]`; a branch name not in `table` is bad input, named with the known ones."""
    if branch not in table:
        raise ValueError(f"unknown branch {branch!r}; known: {', '.join(map(repr, table))}")
    return table[branch]


def sqrt_ode_system(branch: str = "minus") -> OdeSystem:
    """dY/dt = (1 + 2*sqrt(t)*Y ± sqrt(1 + 4*sqrt(t)*Y))/(4*t*sqrt(t)), solved by the
    square-root action on the branch "minus" where 1 + 2*sqrt(t)*y >= 0, and on
    "plus" where it is negative."""
    sign = _known_branch({"plus": "+", "minus": "-"}, branch)
    rhs = f"(1 + 2*sqrt(t)*y {sign} sqrt(1 + 4*sqrt(t)*y))/(4*t*sqrt(t))"
    return OdeSystem(
        scalar_map(("t", "y"), rhs, f"sqrt-ode-{branch}"),
        region=((Var("t"), ">"), (parse_expr("1 + 4*sqrt(t)*y"), ">=")),
    )


def milder_ode_system(branch: str = "regular") -> OdeSystem:
    """The resolved ODEs solved by Y = y + t*y^2: the "regular" form, without
    singularity at t = 0, where 1 + 2*t*y >= 0, and the "singular" form where it
    is negative."""
    forms = {
        "regular": "2*y^2/(1 + 2*t*y + sqrt(1 + 4*t*y))",
        "singular": "(1 + 2*t*y + sqrt(1 + 4*t*y))/(2*t^2)",
    }
    rhs = _known_branch(forms, branch)
    return OdeSystem(scalar_map(("t", "y"), rhs, f"milder-ode-{branch}"))


def cuberoot_ode_system() -> OdeSystem:
    """dY/dt = 1/Y^2, whose flow is the cube-root action."""
    return OdeSystem(scalar_map(("y",), "1/y^2", name="cuberoot-ode"), region=((Var("y"), "!="),))


def ode_residual_map(action: TimeAction, system: OdeSystem) -> SmoothMap:
    """dH/dt - rhs(t, H(t, y)) as one map of (t, y), with the exact t-derivative:
    zero, up to rounding, wherever the 1-D action H solves `system`. The
    system's own time and state variables stand for the action's t and H."""
    (h,) = action.map.outputs
    at = (h,) if system.autonomous else (Var(action.time_var), h)
    rhs = substitute_many(system.rhs.outputs[0], dict(zip(system.rhs.inputs, at)))
    return SmoothMap(action.map.inputs, (diff(h, action.time_var) - rhs,), f"residual[{system.name}]")


def square_map() -> SmoothMap:
    return scalar_map(("y",), "y^2", name="square")


def bump_map() -> SmoothMap:
    return scalar_map(("y",), "1/(y^2 + 1)", name="bump")


def homotopy_action(f: SmoothMap, g: MediatorFunction) -> TimeAction:
    """H(t,y) = (1 - g(t))*y + g(t)*f(y): identity at t=0, exactly f at t=1."""
    if f.in_dim != f.out_dim:
        raise ValueError("homotopy target must have equal input/output arity")
    if "t" in f.inputs:
        raise ValueError("the mediator's time variable 't' collides with a state variable")
    one_minus_g = Const(1.0) - g.g
    outputs = tuple(
        one_minus_g * Var(y) + g.g * f_i for y, f_i in zip(f.inputs, f.outputs)
    )
    return TimeAction(
        time_domain="nonneg",
        map=SmoothMap(("t", *f.inputs), outputs, name=f"homotopy[{f.name or 'f'}]"),
    )


def k_action_relation_check(grid: SamplingGrid, tol: float) -> VerificationReport:
    """H(t, .) equals the smooth two-sided family K(s,y) = y + s*y^2 at s = sqrt(t).

    K itself has no singularity, yet precomposing with sqrt(t) is what makes
    H fail to be C^1 at t = 0: the singularity lives in the time variable.
    Witnesses follow `report.Tally`.
    """
    action = sqrt_action()
    tally = Tally(tol)
    for t, y in grid.points():
        if t < 0.0:
            raise ValueError("grid must satisfy t >= 0")
        s = math.sqrt(t)
        k_val = y + s * y * y
        h_val = action.call1(t, y)
        if tally.add(deviation((h_val,), (k_val,))):
            tally.witness((t, y), (h_val, k_val))
    return tally.report("sqrt-action-vs-smooth-family", grid.summary())


# ---------------------------------------------------------------------------
# ODE residuals (time derivatives are exact symbolic values, so these are
# algebraic identities up to rounding; no step-size tuning involved)


def ode_residual_explicit(
    residuals: Mapping[str, SmoothMap], t: float, y: float, branch: str
) -> float:
    """|dH/dt - rhs(t, H)| of the square-root action on `branch`, from
    `residuals[branch]`, its `ode_residual_map` of `sqrt_ode_system`."""
    if t <= 0.0:
        raise EvalDomainError("the explicit branch ODEs are posed on t > 0")
    return abs(residuals[branch](t, y)[0])


def homotopy_residual_map(f: SmoothMap, g: MediatorFunction) -> SmoothMap:
    """The implicit homotopy ODE (1-g)*dY/dt + g'*Y = g' * f((g'*Y - g*dY/dt)/g')
    and the pointwise recovery of y and f(y) from (Y, dY/dt), as one map of (t, y).

    Per coordinate its outputs are three gaps, each zero up to rounding: the
    ODE's, the recovered y's and the recovered f(y)'s. Y is `homotopy_action(f, g)`
    and dY/dt its exact t-partial; where g' = 0 the recovery divides by zero and
    the map is off its domain."""
    action = homotopy_action(f, g)
    gv, gp = g.g, diff(g.g, "t")
    hs = action.map.outputs
    hts = tuple(diff(h, "t") for h in hs)
    args = tuple((gp * h - gv * ht) / gp for h, ht in zip(hs, hts))
    at_args = dict(zip(f.inputs, args))
    gaps = []
    for y, h, ht, arg, f_y in zip(f.inputs, hs, hts, args, f.outputs):
        lhs = (1.0 - gv) * ht + gp * h
        gaps += (lhs - gp * substitute_many(f_y, at_args), arg - Var(y), lhs / gp - f_y)
    return SmoothMap(action.map.inputs, tuple(gaps), f"residual[{action.name}]")


def ode_residual_homotopy(residual: SmoothMap, t: float, y: float | Sequence[float]) -> float:
    """The largest gap of `residual`, the `homotopy_residual_map` of a target and
    a mediator, at (t, y)."""
    if t <= 0.0:
        raise EvalDomainError("the homotopy ODE is posed on t > 0")
    ys = (y,) if isinstance(y, (int, float)) else tuple(y)
    return max_norm(residual(t, *ys))


def ode_residual_milder(
    residuals: Mapping[str, SmoothMap], t: float, y: float, branch: str
) -> float:
    """|dH/dt - rhs(t, H)| of Y = y + t*y^2 on `branch`, from `residuals[branch]`,
    its `ode_residual_map` of `milder_ode_system`."""
    return abs(residuals[branch](t, y)[0])


# ---------------------------------------------------------------------------
# the limit-type initial condition and the C^1 failure at t = 0


def limit_ic_check(
    action: TimeAction,
    y: Sequence[float] | float,
    eps_sequence: Sequence[float],
    tol: float,
) -> VerificationReport:
    """‖H(eps, y) - y‖ must shrink monotonically (up to rounding) to <= tol.

    This is the only initial condition the singular ODEs admit: they are
    undefined at t = 0, so the datum is prescribed as a one-sided limit.
    """
    ys = (y,) if isinstance(y, (int, float)) else tuple(y)
    eps = list(eps_sequence)
    if not eps:
        raise ValueError("eps_sequence must not be empty")
    if any(b >= a for a, b in zip(eps, eps[1:])) or eps[-1] >= 1e-8:
        raise ValueError("eps_sequence must decrease strictly to below 1e-8")
    if any(e <= 0.0 for e in eps):
        raise ValueError("eps_sequence must be positive")
    scale = 1.0 + max_norm(ys)
    devs = []
    for e in eps:
        devs.append(max_norm([a - b for a, b in zip(action(e, ys), ys)]) / scale)
    monotone = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    witnesses = [Witness((e,), (d,)) for e, d in zip(eps, devs)]
    return VerificationReport(
        suite=f"limit-ic[{action.name}]",
        max_deviation=devs[-1],
        tolerance=tol,
        grid=f"eps {eps[0]:g}..{eps[-1]:g} ({len(eps)} values)",
        witnesses=witnesses,
        checked=len(eps),
        inconclusive=not monotone,
        notes=() if monotone else ("deviation sequence not monotone",),
    )


def not_c1_check(
    action: TimeAction, y: float, eps_sequence: Sequence[float], tol: float
) -> VerificationReport:
    """The one-sided quotient |H(eps,y) - H(0,y)|/eps must diverge like y^2/sqrt(eps).

    For H(t,y) = y + sqrt(t)*y^2 the gap is sqrt(eps)*y^2 exactly, so sqrt(eps)
    times the quotient equals y^2 at every eps and the quotient has no limit:
    H is not C^1 at t = 0. A 1-D action that is C^1 there, such as y + t*y^2,
    keeps its quotient bounded and fails at every eps, each with a witness
    (eps, sqrt(eps)*quotient, y^2). Deviations follow `report.deviation`.
    """
    eps = list(eps_sequence)
    if not eps:
        raise ValueError("eps_sequence must not be empty")
    base = action.call1(0.0, y)
    tally = Tally(tol)
    for e in eps:
        rate = math.sqrt(e) * abs(action.call1(e, y) - base) / e
        if tally.add(deviation((rate,), (y * y,))):
            tally.witness((e,), (rate, y * y))
    return tally.report(
        f"not-c1[{action.name}]", f"eps {eps[0]:g}..{eps[-1]:g} ({len(eps)} values), y = {y:g}"
    )


# ---------------------------------------------------------------------------
# per-time diffeomorphism classification


@dataclass
class DiffeoTimeReport:
    entries: list[tuple[float, bool]]
    thresholds: list[float]


def _critical_points(f: Callable[[float], float], y_pts: Sequence[float]) -> list[float]:
    crits = []
    for a, b in sign_brackets(f, y_pts):
        try:
            crits.append(bisect(f, a, b, tol=1e-12))
        except (EvalDomainError, RootSearchError):
            pass
    return crits


@dataclass(frozen=True)
class DiffeoClassifier:
    """Per-time diffeomorphism probe for a 1-D action."""

    action: TimeAction
    y_grid: SamplingGrid

    @cached_property
    def _compiled(self) -> tuple[Callable[[float, float], float], ...]:
        """dH/dy and d2H/dy2 as compiled functions of (t, y), built once."""
        m = self.action.map
        (state,) = self.action.state_vars
        slope = diff(m.outputs[0], state)
        return compile_expr(slope, m.inputs), compile_expr(diff(slope, state), m.inputs)

    def slope_attains_zero(self, t: float) -> bool:
        """Does dH(t,.)/dy reach zero somewhere? The y-grid is extended by an
        extremum search: zeros of the second derivative are bisected and the
        slope re-evaluated there, so interior extrema cannot slip between
        grid nodes."""
        slope, second = self._compiled
        slope_at, second_at = partial(slope, t), partial(second, t)
        y_pts = self.y_grid.axis_values()[0]
        candidates = []
        for y in list(y_pts) + _critical_points(second_at, y_pts):
            try:
                candidates.append(slope_at(y))
            except EvalDomainError:
                continue
        if not candidates:
            return True  # nothing evaluable: cannot rule a zero out
        return min(candidates) <= 0.0 <= max(candidates)

    def growth_ok(self, t: float) -> bool:
        """Sampling proxy for surjectivity: |H| grows at the grid ends and
        the end values have opposite signs (`actions._grows_at_ends`)."""
        axis = self.y_grid.axes[0]
        try:
            return _grows_at_ends(lambda y: self.action.call1(t, y), axis.lo, axis.hi)
        except EvalDomainError:
            return False

    def is_diffeo(self, t: float) -> bool:
        return (not self.slope_attains_zero(t)) and self.growth_ok(t)


def diffeo_classifier(action: TimeAction, y_grid: SamplingGrid) -> DiffeoClassifier:
    if action.dim != 1:
        raise ValueError("classification needs a 1-D action")
    return DiffeoClassifier(action, y_grid)


def diffeo_time_set(
    action: TimeAction, t_grid: SamplingGrid, y_grid: SamplingGrid
) -> DiffeoTimeReport:
    """Classify each sampled t: is H(t, .) a diffeomorphism of the line?

    Boundaries between classified regions are located by bisection on the
    slope-reaches-zero predicate to 1e-6 in t.
    """
    probe = diffeo_classifier(action, y_grid)
    times = [t for (t,) in t_grid.points()]
    # the predicate the scan bisects, evaluated once per grid time
    slope_zero = [probe.slope_attains_zero(t) for t in times]
    entries = [(t, not sz and probe.growth_ok(t)) for t, sz in zip(times, slope_zero)]

    thresholds = []
    for t0, t1, p0, p1 in zip(times, times[1:], slope_zero, slope_zero[1:]):
        if p0 == p1:
            continue
        lo, hi = t0, t1
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if probe.slope_attains_zero(mid) == p0:
                lo = mid
            else:
                hi = mid
        thresholds.append(0.5 * (lo + hi))
    return DiffeoTimeReport(entries, thresholds)
