"""Parametric representation of functions and semi-symmetries of PDEs.

A function U on a base domain is represented by a chart V mapping
parameters to (base coordinates, value) whose image is the graph of U.
Arbitrary smooth self-maps of the ambient space, invertible or not,
then act on charts by plain composition, which is exactly what makes
non-invertible ("semi-") symmetries of PDEs actionable globally: a
rotated parabola stops being a graph, but its chart is still a perfectly
good parametric object.

A PDE is its residual: a function from a solution's expression to the
residual expression, built with `diff` (the transport equation U_t = U_x
is ``lambda u: diff(u, "t") - diff(u, "x")``). A map is a semi-symmetry
of a PDE when it carries solutions to solutions. The semi-symmetries
checked here are vertical maps (x, u) -> (x, g(u)): they send the graph
of a solution U to the graph of g∘U, so the transformed solution is built
symbolically and its residual checked exactly. A map that moves the base
coordinates may turn a graph into a chart of no function; `is_graph`
samples a chart for that.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .actions import PreconditionError
from .expr import (
    Const,
    EvalDomainError,
    Expr,
    ExprError,
    Var,
    compile_expr,
    free_vars,
    parse_expr,
    substitute_many,
    to_text,
)
from .grids import SamplingGrid, _near_pairs
from .maps import SmoothMap, compose
from .report import Tally, VerificationReport, Witness, nan_max


@dataclass(frozen=True)
class ParametricFunction:
    """A chart params -> (base..., value) whose image is a curve/surface in M:
    the chart's inputs are the parameters, its last output is the value and
    the outputs before it are the base coordinates."""

    chart: SmoothMap

    @property
    def params(self) -> tuple[str, ...]:
        return self.chart.inputs

    @property
    def base_dim(self) -> int:
        return self.chart.out_dim - 1

    def sample(self, point: Sequence[float]) -> tuple[tuple[float, ...], float]:
        out = self.chart.at(point)
        return out[:-1], out[-1]


def canonical_parametric(U: SmoothMap) -> ParametricFunction:
    """The chart x -> (x, U(x)); its image is the graph of U by construction."""
    if U.out_dim != 1:
        raise ExprError("canonical chart needs a single-output map")
    chart = SmoothMap(
        U.inputs,
        tuple(Var(v) for v in U.inputs) + (U.outputs[0],),
        name=f"graph[{U.name or 'U'}]",
    )
    return ParametricFunction(chart)


def act(f: SmoothMap, V: ParametricFunction) -> ParametricFunction:
    """The action of an ambient self-map on a chart: plain composition f∘V.

    Defined for every smooth self-map f of the ambient space, invertible or
    not; the result is again a chart, though not necessarily the graph of
    any function.
    """
    n = V.chart.out_dim
    if f.in_dim != n or f.out_dim != n:
        raise ExprError(
            f"ambient map must be a self-map of the chart's R^{n}; "
            f"got R^{f.in_dim} -> R^{f.out_dim}"
        )
    return ParametricFunction(compose(f, V.chart))


def is_graph(
    V: ParametricFunction,
    grid: SamplingGrid,
    base_tol: float = 1e-9,
    value_gap: float = 1e-6,
) -> tuple[bool, Witness | None]:
    """Is the sampled chart the graph of a function of its base coordinates?

    False iff two samples share base coordinates (within base_tol) while
    their values differ by more than value_gap; the offending parameter
    pair is returned as the witness. Sampling semantics only.

    Candidate pairs come from a neighbour-cell index of side 2*base_tol
    (`grids._near_pairs`), O(n) for spread-out samples plus one comparison
    per close pair; the witness is the first offending pair (i, j), i < j,
    in grid order, exactly as an all-pairs scan would find it. A sample
    with a NaN or infinite base coordinate is paired with every other
    sample and judged by the same predicate.
    """
    samples = []
    for lam in grid.points():
        try:
            base, value = V.sample(lam)
        except EvalDomainError:
            continue
        samples.append((base, value, lam))
    for i, j in _near_pairs([rec[0] for rec in samples], 2.0 * base_tol):
        base_i, val_i, lam_i = samples[i]
        base_j, val_j, lam_j = samples[j]
        if max(abs(a - b) for a, b in zip(base_i, base_j)) <= base_tol:
            if abs(val_j - val_i) > value_gap:
                return False, Witness(
                    (*lam_i, *lam_j),
                    (*base_i, val_i, *base_j, val_j),
                    "same base point, two values",
                )
    return True, None


def regraph(V: ParametricFunction, grid: SamplingGrid) -> Callable[[float], float]:
    """Rebuild a numeric U from a 1-D-base chart that passed is_graph.

    Monotone re-parametrization: samples are sorted by base coordinate and
    linearly interpolated. The result is a plain function x -> U(x), not a
    SmoothMap: it has no formula to differentiate or compose. Queries
    outside the sampled base range raise EvalDomainError.
    """
    if V.base_dim != 1:
        raise ExprError("re-graphing is implemented for 1-D bases")
    pts = []
    for lam in grid.points():
        base, value = V.sample(lam)
        pts.append((base[0], value))
    pts.sort()
    xs = [p[0] for p in pts]
    us = [p[1] for p in pts]

    def interp(x: float) -> float:
        if not xs[0] <= x <= xs[-1]:
            raise EvalDomainError(f"query {x!r} outside the sampled base range")
        i = min(max(bisect_left(xs, x), 1), len(xs) - 1)
        x0, x1 = xs[i - 1], xs[i]
        if x1 == x0:
            return us[i]
        w = (x - x0) / (x1 - x0)
        return us[i - 1] * (1.0 - w) + us[i] * w

    return interp


# ---------------------------------------------------------------------------
# PDE residuals


def residuals_at(
    fn: Callable[..., float], points: Iterable[tuple[float, ...]]
) -> Iterator[tuple[tuple[float, ...], float]]:
    """Each point with the compiled residual `fn` there, in order; a
    domain error raises EvalDomainError naming the point."""
    for point in points:
        try:
            r = fn(*point)
        except EvalDomainError as err:
            raise EvalDomainError(f"residual undefined at {point!r}: {err}") from err
        yield point, r


def _residuals(
    residual: Callable[[Expr], Expr], u: Expr, params: tuple[str, ...], grid: SamplingGrid
) -> Iterator[tuple[tuple[float, ...], float]]:
    """Each grid point with the residual of the solution u there, in grid order."""
    return residuals_at(compile_expr(residual(u), params), grid.points())


def residual_max(residual: Callable[[Expr], Expr], U: SmoothMap, grid: SamplingGrid) -> float:
    """Max |residual(U)| over the grid, which samples U's inputs, with exact
    symbolic derivatives."""
    if U.out_dim != 1:
        raise ExprError(f"a solution is a single-output map; {U.name or 'U'} has {U.out_dim}")
    return nan_max([0.0, *(abs(r) for _, r in _residuals(residual, U.outputs[0], U.inputs, grid))])


# ---------------------------------------------------------------------------
# vertical maps and the semi-symmetry check


def vertical_map(g: Expr | str, base_vars: Sequence[str]) -> SmoothMap:
    """(x, u) -> (x, g(u)): acts on the value coordinate u only."""
    g_expr = parse_expr(g) if isinstance(g, str) else g
    stray = free_vars(g_expr) - {"u"}
    if stray:
        raise ExprError(f"vertical value map may only use 'u'; got {sorted(stray)}")
    inputs = (*base_vars, "u")
    outputs = tuple(Var(v) for v in base_vars) + (g_expr,)
    return SmoothMap(inputs, outputs, name=f"vertical[{to_text(g_expr)}]")


def is_vertical(f: SmoothMap) -> bool:
    if f.in_dim != f.out_dim or f.in_dim < 2:
        return False
    base, value_var = f.inputs[:-1], f.inputs[-1]
    if any(f.outputs[i] != Var(v) for i, v in enumerate(base)):
        return False
    return free_vars(f.outputs[-1]) <= {value_var}


def rotation_map(theta: float) -> SmoothMap:
    """Rotation of the (x, u) plane about the origin."""
    c, s = math.cos(theta), math.sin(theta)
    x, u = Var("x"), Var("u")
    return SmoothMap(
        ("x", "u"),
        (Const(c) * x - Const(s) * u, Const(s) * x + Const(c) * u),
        name=f"rotation[{theta:g}]",
    )


def translation_wave(h: Expr | str) -> SmoothMap:
    """U(t,x) = h(t + x) for a profile h(z): the general solution of U_t = U_x."""
    h_expr = parse_expr(h) if isinstance(h, str) else h
    stray = free_vars(h_expr) - {"z"}
    if stray:
        raise ExprError(f"profile may only use 'z'; got {sorted(stray)}")
    body = substitute_many(h_expr, {"z": Var("t") + Var("x")})
    return SmoothMap(("t", "x"), (body,), name=f"wave[{to_text(h_expr)}]")


WAVE_PROFILES: dict[str, str] = {
    "sin": "sin(z)",
    "identity": "z",
    "exp": "exp(z)",
    "cubic": "z^3",
}

VALUE_MAPS: dict[str, str] = {
    "cubic-minus-identity": "u^3 - u",
    "square": "u^2",
    "tanh": "tanh(u)",
}


def semi_symmetry_check(
    residual: Callable[[Expr], Expr],
    f: SmoothMap,
    solution_family: Sequence[SmoothMap],
    grid: SamplingGrid,
    tol: float,
) -> VerificationReport:
    """Does the vertical map f send every registered solution to another solution?

    f must be vertical, (x, u) -> (x, g(u)), and every member a map of
    f's base variables x that solves the PDE (preconditions). f sends the
    graph of a member U to the graph of g∘U, which is built symbolically;
    its residual is evaluated at every grid point and tallied against tol
    (witnesses follow `report.Tally`, each noted with its member's name).
    `checked` counts those evaluations.
    """
    name = f.name or "f"
    if not is_vertical(f):
        raise PreconditionError(f"{name} is not a vertical map (x, u) -> (x, g(u))")
    base, u, g = f.inputs[:-1], f.inputs[-1], f.outputs[-1]
    tally = Tally(tol)
    for U in solution_family:
        member = U.name or to_text(U.outputs[0])
        if U.inputs != base:
            raise PreconditionError(
                f"{name} is not a vertical map over the base {U.inputs!r} of family member {member}"
            )
        dev = residual_max(residual, U, grid)
        if not dev <= tol:
            raise PreconditionError(
                f"family member {member} is not a solution (residual {dev:.3e})"
            )
        moved = substitute_many(g, {u: U.outputs[0]})
        for point, r in _residuals(residual, moved, base, grid):
            if tally.add(abs(r)):
                tally.witness(point, (r,), U.name)
    return tally.report(f"semi-symmetry[{name}]", grid.summary())
