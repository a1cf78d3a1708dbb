"""Parametric representation of functions and semi-symmetries of PDEs.

A function U on a base domain is represented by a chart V mapping
parameters to (base coordinates, value) whose image is the graph of U.
Arbitrary smooth self-maps of the ambient space, invertible or not,
then act on charts by plain composition, which is exactly what makes
non-invertible ("semi-") symmetries of PDEs actionable globally: a
rotated parabola stops being a graph, but its chart is still a perfectly
good parametric object.

A map is a semi-symmetry of a PDE when it carries solutions to
solutions. Vertical maps (x, u) -> (x, g(u)) always preserve graphs,
so for them the transformed solution is built symbolically and its
residual checked exactly; for non-vertical maps the chart may leave the
function category, and that failure is reported, not judged.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

from .actions import PreconditionError
from .expr import (
    Const,
    Deriv,
    EvalDomainError,
    Expr,
    ExprError,
    Var,
    compile_expr,
    diff,
    free_vars,
    parse_expr,
    substitute_many,
    to_text,
)
from .grids import SamplingGrid, _near_pairs
from .maps import SmoothMap, compose
from .report import VerificationReport, Witness, nan_max


@dataclass(frozen=True)
class ParametricFunction:
    """A chart params -> (base..., value) whose image is a curve/surface in M."""

    params: tuple[str, ...]
    chart: SmoothMap
    base_dim: int

    def __post_init__(self):
        if self.chart.in_dim != len(self.params):
            raise ExprError("chart arity must match the parameter count")
        if self.chart.out_dim != self.base_dim + 1:
            raise ExprError("chart must emit base coordinates plus one value")

    def sample(self, point: Sequence[float]) -> tuple[tuple[float, ...], float]:
        out = self.chart.at(point)
        return out[: self.base_dim], out[self.base_dim]


def canonical_parametric(U: SmoothMap) -> ParametricFunction:
    """The chart x -> (x, U(x)); its image is the graph of U by construction."""
    if U.out_dim != 1:
        raise ExprError("canonical chart needs a single-output map")
    if not U.is_symbolic:
        raise ExprError("canonical chart needs an expression-backed map")
    chart = SmoothMap(
        U.inputs,
        tuple(Var(v) for v in U.inputs) + (U.outputs[0],),
        name=f"graph[{U.name or 'U'}]",
    )
    return ParametricFunction(U.inputs, chart, U.in_dim)


def act(f: SmoothMap, V: ParametricFunction) -> ParametricFunction:
    """The action of an ambient self-map on a chart: plain composition f∘V.

    Defined for every smooth f, invertible or not; the result is again a
    chart, though not necessarily the graph of any function.
    """
    if f.in_dim != V.chart.out_dim:
        raise ExprError(
            f"ambient map expects {f.in_dim} coordinates, chart yields {V.chart.out_dim}"
        )
    return ParametricFunction(V.params, compose(f, V.chart), V.base_dim)


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

    A 1-D base is sorted and swept, O(n log n); the witness is the first
    offending pair in base order. Samples with a NaN or infinite base are
    left out of the sweep: under the exact predicate they are within
    base_tol of no sample, and a NaN key would leave the sort unordered.
    A higher-dimensional base goes through a
    neighbour-cell index of side 2*base_tol (`grids._near_pairs`), O(n)
    for spread-out samples plus one comparison per close pair; the witness
    is the first offending pair (i, j), i < j, in grid order, exactly as an
    all-pairs scan would find it.
    """
    samples = []
    for lam in grid.points():
        try:
            base, value = V.sample(lam)
        except EvalDomainError:
            continue
        samples.append((base, value, lam))
    if V.base_dim == 1:
        samples = [rec for rec in samples if math.isfinite(rec[0][0])]
        samples.sort(key=lambda rec: rec[0][0])
        for i, (base_i, val_i, lam_i) in enumerate(samples):
            for j in range(i + 1, len(samples)):
                base_j, val_j, lam_j = samples[j]
                if base_j[0] - base_i[0] > base_tol:
                    break
                if abs(val_j - val_i) > value_gap:
                    return False, Witness(
                        (*lam_i, *lam_j),
                        (base_i[0], val_i, base_j[0], val_j),
                        "same base point, two values",
                    )
        return True, None
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


def regraph(V: ParametricFunction, grid: SamplingGrid) -> SmoothMap:
    """Rebuild a numeric U from a 1-D-base chart that passed is_graph.

    Monotone re-parametrization: samples are sorted by base coordinate and
    linearly interpolated. Queries outside the sampled base range are
    domain errors.
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

    def interp(x: float) -> tuple[float]:
        if not xs[0] <= x <= xs[-1]:
            raise EvalDomainError(f"query {x!r} outside the sampled base range")
        i = min(max(bisect_left(xs, x), 1), len(xs) - 1)
        x0, x1 = xs[i - 1], xs[i]
        if x1 == x0:
            return (us[i],)
        w = (x - x0) / (x1 - x0)
        return (us[i - 1] * (1.0 - w) + us[i] * w,)

    return SmoothMap(("x",), func=interp, out_dim=1, name="regraph")


# ---------------------------------------------------------------------------
# PDE residual templates


@dataclass(frozen=True)
class PdeResidual:
    """A residual template over derivative markers of one unknown symbol."""

    vars: tuple[str, ...]
    unknown: str
    template: Expr

    def __post_init__(self):
        allowed = set(self.vars) | {self.unknown}
        stray = free_vars(self.template) - allowed
        if stray:
            raise ExprError(f"template references undeclared symbols {sorted(stray)}")
        for marker in _markers(self.template):
            if marker.func != self.unknown:
                raise ExprError(f"marker D({marker.func},...) is not the unknown")
            if not 1 <= len(marker.wrt) <= 2:
                raise ExprError("derivative markers support order 1 and 2 only")
            bad = set(marker.wrt) - set(self.vars)
            if bad:
                raise ExprError(f"marker differentiates along undeclared {sorted(bad)}")


def _markers(e: Expr) -> list[Deriv]:
    if isinstance(e, Deriv):
        return [e]
    if hasattr(e, "arg"):
        return _markers(e.arg)
    if hasattr(e, "lhs"):
        return _markers(e.lhs) + _markers(e.rhs)
    return []


def pde_from_text(residual: str, unknown: str, vars: Sequence[str]) -> PdeResidual:
    return PdeResidual(tuple(vars), unknown, parse_expr(residual))


def resolve_residual(pde: PdeResidual, U: SmoothMap) -> Expr:
    """Template with markers replaced by exact derivatives of U."""
    if U.inputs != pde.vars or U.out_dim != 1:
        raise ExprError(
            f"solution must be a single-output map of {pde.vars!r}; got "
            f"{U.inputs!r} -> {U.out_dim}"
        )
    if not U.is_symbolic:
        raise ExprError("residual resolution needs an expression-backed solution")
    body = U.outputs[0]

    def walk(e: Expr) -> Expr:
        if isinstance(e, Deriv):
            out = body
            for v in e.wrt:
                out = diff(out, v)
            return out
        if isinstance(e, Var) and e.name == pde.unknown:
            return body
        if hasattr(e, "arg"):
            return type(e)(e.op, walk(e.arg))
        if hasattr(e, "lhs"):
            return type(e)(e.op, walk(e.lhs), walk(e.rhs))
        return e

    return walk(pde.template)


def residual_max(pde: PdeResidual, U: SmoothMap, grid: SamplingGrid) -> float:
    """Max |residual| of U over the grid, with exact symbolic derivatives."""
    resolved = resolve_residual(pde, U)
    fn = compile_expr(resolved, pde.vars)
    residuals = [0.0]
    for point in grid.points():
        try:
            residuals.append(abs(fn(*point)))
        except EvalDomainError as err:
            raise EvalDomainError(f"residual undefined at {point!r}: {err}") from err
    return nan_max(residuals)


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
    if not f.is_symbolic or f.in_dim != f.out_dim or f.in_dim < 2:
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
    pde: PdeResidual,
    f: SmoothMap,
    solution_family: Sequence[SmoothMap],
    grid: SamplingGrid,
    tol: float,
) -> VerificationReport:
    """Does f map every registered solution to another solution?

    Members must be solutions already (precondition). Each is recast as a
    chart, pushed through f, and required to remain a graph; vertical maps
    are resolved symbolically and the transformed residual checked against
    tol. A chart that stops being a graph is reported as
    not-a-semi-symmetry-candidate in the function sense. `checked` counts
    the grid points at which a transformed residual was evaluated.
    """
    devs = []
    witnesses = []
    notes: list[str] = []
    graph_failure = False
    inconclusive = False
    for U in solution_family:
        base = residual_max(pde, U, grid)
        if not base <= tol:
            raise PreconditionError(
                f"family member {U.name or to_text(U.outputs[0])} is not a solution "
                f"(residual {base:.3e})"
            )
        chart = act(f, canonical_parametric(U))
        ok, wit = is_graph(chart, grid)
        if not ok:
            graph_failure = True
            if wit is not None:
                witnesses.append(wit)
            notes.append(
                f"member {U.name or 'U'}: transformed chart leaves the function "
                "category (not a semi-symmetry candidate in the function sense)"
            )
            continue
        if is_vertical(f):
            transformed = SmoothMap(
                pde.vars, (chart.chart.outputs[-1],), name=f"{f.name}·{U.name}"
            )
            devs.append(residual_max(pde, transformed, grid))
        else:
            inconclusive = True
            notes.append(
                f"member {U.name or 'U'}: non-vertical action kept the graph, but "
                "the re-graphed value is numeric only; residual not evaluated"
            )
    max_dev = nan_max(devs) if devs else 0.0
    if graph_failure:
        gap = witnesses[0].values[-1] - witnesses[0].values[1] if witnesses else 1.0
        max_dev = nan_max((max_dev, abs(gap)))
    return VerificationReport(
        suite=f"semi-symmetry[{f.name or 'f'}]",
        passed=(not graph_failure) and (not inconclusive) and max_dev <= tol,
        max_deviation=max_dev,
        tolerance=tol,
        grid=grid.summary(),
        witnesses=witnesses,
        checked=len(devs) * grid.size,
        inconclusive=inconclusive,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# constrained symmetries: parameters whose action preserves a subset


@dataclass
class ConstrainedScanReport:
    entries: list[tuple[float, bool, Witness | None]]

    @property
    def invariant_params(self) -> list[float]:
        return [g for g, ok, _ in self.entries if ok]


def constrained_symmetry_scan(
    action: SmoothMap,
    S: Callable[[tuple[float, ...]], bool],
    param_grid: SamplingGrid,
    state_grid: SamplingGrid,
) -> ConstrainedScanReport:
    """Sampled parameters g whose map sends every sampled point of S into S.

    `action` takes (g, state...) and returns the moved state. State-grid
    points outside S are ignored; they are not part of the constraint.
    """
    if len(param_grid.axes) != 1:
        raise ValueError("parameter grid must be one-dimensional")
    states = [p for p in state_grid.points() if S(p)]
    if not states:
        raise ValueError("no state-grid point lies in the constraint set")
    entries = []
    for (g,) in param_grid.points():
        witness = None
        for p in states:
            moved = action(g, *p)
            if not S(moved):
                witness = Witness((g, *p), moved, "image leaves the constraint set")
                break
        entries.append((g, witness is None, witness))
    return ConstrainedScanReport(entries)


def scaling_action() -> SmoothMap:
    """(g, (x, y)) -> (g*x, y): the positive-scaling family on the plane."""
    return SmoothMap(("g", "x", "y"), (Var("g") * Var("x"), Var("y")), name="x-scaling")


def strip_predicate(point: Sequence[float]) -> bool:
    return -1.0 < point[0] < 1.0


def value_shift_action() -> SmoothMap:
    """(c, (x, u)) -> (x, u + c): vertical translations of function values."""
    return SmoothMap(("c", "x", "u"), (Var("x"), Var("u") + Var("c")), name="value-shift")
