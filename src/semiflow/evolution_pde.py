"""Semigroups induced by evolution PDEs on parametrized solution families.

The viscous Burgers equation U_t + U U_x = mu U_xx has the traveling
kink U(t,x) = c - sqrt(c^2+d) * tanh(sqrt(c^2+d)/(2 mu) * (x - x0 - c t)).
The kinks are one map of (t, x, x0, c, d, mu), `soliton_family`, so a
run parses and compiles the formula once and differentiates the family's
residual once, whatever parameter tuples it checks; `burgers_soliton` is
that map frozen at one tuple. Advancing time by t acts on the family
parameters as (x0, c, d) -> (x0 + c t, c, d): a one-parameter action (a
`TimeAction`) that moves the position and leaves the speed/shape
parameters frozen. The translation identity evaluates the family at p
and at the moved parameters flow(t, p). The semigroup law of the time
advance is that action's composition law, and for frozen (c, d) its
position coordinate is itself a one-parameter action of the line that
the axiom checks from the actions module can classify.

The heat-kernel demo checks that exp(-x^2/(4 t))/sqrt(t) solves the heat
equation U_t = U_xx.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

from .actions import TimeAction, composition_check
from .expr import Expr, Var, as_expr, compile_expr, diff
from .grids import SamplingGrid
from .maps import SmoothMap, map_from_exprs, scalar_map
from .report import Tally, VerificationReport, deviation, nan_max
from .semisym import _residuals, residual_max, residuals_at


# the kink formula as compiled code computes it: k = sqrt(c*c + d) once, the
# phase scaled by k/(2*mu), so a kink's values do not depend on whether its
# parameters are inputs or frozen constants
_KINK = "c - sqrt(c*c + d)*tanh(sqrt(c*c + d)/(2*mu)*(x - x0 - c*t))"


def soliton_family() -> SmoothMap:
    """Every traveling kink as one map (t, x, x0, c, d, mu) -> U.

    A tuple is a kink only where c^2 + d > 0, mu > 0 and the rate
    sqrt(c^2 + d)/(2*mu) is finite, which `burgers_soliton` checks; the
    map evaluates wherever its formula is defined."""
    return scalar_map(("t", "x", "x0", "c", "d", "mu"), _KINK, name="soliton-family")


def burgers_soliton(x0: float, c: float, d: float, mu: float) -> SmoothMap:
    """The traveling kink at one parameter tuple, as a map (t, x) -> U."""
    for name, value in (("x0", x0), ("c", c), ("d", d), ("mu", mu)):
        if not math.isfinite(value):
            raise ValueError(f"soliton parameter {name} must be finite; got {value!r}")
    if c * c + d <= 0.0:
        raise ValueError(f"soliton parameters need c^2 + d > 0; got c={c!r}, d={d!r}")
    if mu <= 0.0:
        raise ValueError("viscosity must be positive")
    # finite parameters can still overflow c*c, or the rate through a tiny mu
    rate = math.sqrt(c * c + d) / (2.0 * mu)
    if not math.isfinite(rate):
        raise ValueError(f"soliton parameters give a non-finite rate sqrt(c^2 + d)/(2*mu) = {rate!r}")
    kink = soliton_family().freeze(x0=x0, c=c, d=d, mu=mu)
    return replace(kink, name=f"soliton[x0={x0:g},c={c:g},d={d:g},mu={mu:g}]")


def burgers_pde(mu: float | Expr) -> Callable[[Expr], Expr]:
    """The residual U_t + U*U_x - mu*U_xx of a solution U(t, x); the
    viscosity is a number or an expression, such as Var("mu")."""
    viscosity = as_expr(mu)

    def residual(u: Expr) -> Expr:
        u_x = diff(u, "x")
        return diff(u, "t") + u * u_x - viscosity * diff(u_x, "x")

    return residual


def burgers_residual(U: SmoothMap, mu: float, grid: SamplingGrid) -> float:
    return residual_max(burgers_pde(mu), U, grid)


def soliton_residual_max(
    family: SmoothMap, grid: SamplingGrid
) -> Callable[[float, float, float, float], float]:
    """(x0, c, d, mu) -> max |U_t + U*U_x - mu*U_xx| of that kink over the (t, x) grid.

    The residual of the whole family is differentiated and compiled once,
    here; each call evaluates it at (t, x, x0, c, d, mu) for every grid
    point and returns what `burgers_residual(burgers_soliton(x0, c, d, mu),
    mu, grid)` does. A domain error raises EvalDomainError naming the point.
    """
    fn = compile_expr(burgers_pde(Var("mu"))(family.outputs[0]), family.inputs)
    plane = list(grid.points())

    def at(x0: float, c: float, d: float, mu: float) -> float:
        points = ((t, x, x0, c, d, mu) for t, x in plane)
        return nan_max([0.0, *(abs(r) for _, r in residuals_at(fn, points))])

    return at


# ---------------------------------------------------------------------------
# the induced parameter flow


def soliton_param_flow() -> TimeAction:
    """(t, (a, c, d)) -> (a + c*t, c, d): the position a moves, (c, d) stay."""
    return TimeAction(
        "nonneg",
        map_from_exprs(("t", "a", "c", "d"), ["a + c*t", "c", "d"], name="soliton-param-flow"),
    )


def param_flow_check(flow: TimeAction, grid: SamplingGrid, tol: float) -> VerificationReport:
    """The semigroup law flow(s, flow(t, p)) = flow(t+s, p) over a grid in (t, s, p...).

    This is `composition_check` with outer time s and inner time t over the
    state grid of the remaining axes, reported under the whole grid. With
    the speed/shape parameters frozen it is the one-parameter law of the
    position flow for each frozen (c, d).
    """
    if len(grid.axes) != 2 + flow.dim:
        raise ValueError(f"grid must sample (t, s and {flow.dim} state axes)")
    times = [(s, t) for t, s in SamplingGrid(grid.axes[:2]).points()]
    report = composition_check(flow, times, SamplingGrid(grid.axes[2:]), tol)
    return replace(report, suite="param-flow-cocycle", grid=grid.summary())


def soliton_translation_check(
    flow: TimeAction,
    family: SmoothMap,
    grid: SamplingGrid,
    tol: float,
) -> VerificationReport:
    """The time-t soliton equals the time-0 soliton with moved parameters.

    `family` is the kink map of (t, x, x0, c, d, mu), `soliton_family()`:
    each grid point p = (t, x, x0, c, d, mu) compares family(p) with
    family(0, x, flow(t, (x0, c, d)), mu). Parameter tuples with
    c^2 + d <= 0 or mu <= 0 are skipped. Witnesses and the inconclusive
    verdict follow `report.Tally`.
    """
    tally = Tally(tol)
    for point in grid.points():
        t, x, x0, c, d, mu = point
        if c * c + d <= 0.0 or mu <= 0.0:
            tally.skip()
            continue
        lhs = family(*point)
        rhs = family(0.0, x, *flow(t, (x0, c, d)), mu)
        if tally.add(deviation(lhs, rhs)):
            tally.witness(point, (*lhs, *rhs))
    return tally.report("soliton-translation", grid.summary())


# ---------------------------------------------------------------------------
# heat-kernel demo: an exact solution of the heat equation


def heat_kernel() -> SmoothMap:
    return scalar_map(("t", "x"), "exp(-x^2/(4*t))/sqrt(t)", name="heat-kernel")


def heat_pde(u: Expr) -> Expr:
    """The residual U_t - U_xx of a solution U(t, x)."""
    return diff(u, "t") - diff(diff(u, "x"), "x")


def heat_flow_demo(grid: SamplingGrid, tol: float) -> VerificationReport:
    """Max |U_t - U_xx| of the heat kernel over every grid point, with
    exact symbolic derivatives; witnesses follow `report.Tally`. A point
    off the kernel's domain raises EvalDomainError naming it."""
    kernel = heat_kernel()
    tally = Tally(tol)
    for point, r in _residuals(heat_pde, kernel.outputs[0], kernel.inputs, grid):
        if tally.add(abs(r)):
            tally.witness(point, (r,))
    return tally.report("heat-flow-demo", grid.summary())
