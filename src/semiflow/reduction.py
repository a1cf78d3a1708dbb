"""Non-autonomous -> autonomous reduction and evolution-operator algebra.

A non-autonomous system dY/dt = F(t, Y) on R^l is equivalent to the
autonomous system on R^{l+1} obtained by adjoining time as a state
coordinate with derivative 1. Its one-time evolution operator E_A(s)
then packages the full two-time operator: the first component is t + s
and the second is E(t, t+s), so the two-time algebra
E(s,r)∘E(t,s) = E(t,r) becomes the one-parameter law
E_A(r)∘E_A(s) = E_A(s+r) one dimension up.

For the square-root action y + sqrt(t)*y^2 the two-time operator has the
closed form E(t,s)(y) = y* + sqrt(s)*y*^2 with
y* = 2y/(1 + sqrt(1 + 4*sqrt(t)*y)), the root branch that stays bounded
as t -> 0+. Restricted to times >= 0, E_A is a semigroup whose members
are non-invertible for every s > 0: the promised genuine-semigroup
structure lives one dimension up from the original state space.

Also here: a classical fixed-step RK4 flow (optionally on a geometric
mesh for ODEs singular at the starting time), verification of the
operator laws, recovery of the full two-time operator from a single
fixed-origin slice by scalar root finding, and the oracle that compares
an RK4 flow with a closed form at a step count chosen by step doubling.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Iterator, Sequence

from .actions import TimeAction
from .expr import Const, EvalDomainError
from .grids import SamplingGrid
from .maps import SmoothMap, map_from_exprs
from .report import Tally, VerificationReport, Witness, deviation, nan_max
from .rootfind import (
    RootSearchError,
    hybrid_root,
    newton,
    numeric_derivative,
    scan_brackets,
)


class IntegrationError(Exception):
    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (at t={time!r})")
        self.time = time


@dataclass(frozen=True)
class OdeSystem:
    """Explicit first-order system; the RHS is an expression-backed map of
    (t, y...) or just (y...)."""

    name: str
    kind: str  # "autonomous" | "nonautonomous"
    dim: int
    rhs: SmoothMap
    validity: Callable[[float, tuple[float, ...]], bool] | None = None

    def __post_init__(self):
        if self.kind not in ("autonomous", "nonautonomous"):
            raise ValueError("kind must be 'autonomous' or 'nonautonomous'")
        if not self.rhs.is_symbolic:
            raise ValueError("the RHS must be an expression-backed map")
        want = self.dim if self.kind == "autonomous" else self.dim + 1
        if self.rhs.in_dim != want or self.rhs.out_dim != self.dim:
            raise ValueError(
                f"{self.kind} RHS must be R^{want} -> R^{self.dim}; got "
                f"{self.rhs.in_dim} -> {self.rhs.out_dim}"
            )

    def valid_at(self, t: float, y: Sequence[float]) -> bool:
        return self.validity is None or self.validity(t, tuple(y))


def augment_system(sys: OdeSystem) -> OdeSystem:
    """Adjoin time as the first state coordinate with derivative 1."""
    if sys.kind != "nonautonomous":
        raise ValueError("only non-autonomous systems are augmented")
    rhs = SmoothMap(
        sys.rhs.inputs, (Const(1.0), *sys.rhs.outputs), name=f"augmented[{sys.name}]"
    )
    validity = None
    if sys.validity is not None:
        validity = lambda _t, state: sys.validity(state[0], state[1:])  # noqa: E731
    return OdeSystem(
        name=f"augmented[{sys.name}]",
        kind="autonomous",
        dim=sys.dim + 1,
        rhs=rhs,
        validity=validity,
    )


_CSV_BLOCK = 512  # rows per `%` in Trajectory.write_csv


@dataclass
class Trajectory:
    """Samples from one integration run, stored as columns.

    `times` holds the mesh and `columns[i]` the values of state component
    i + 1 at those times, each an `array('d')`; sample k is `times[k]`
    with `tuple(c[k] for c in columns)`.
    """

    times: array
    columns: tuple[array, ...]
    steps: int
    eps_start: float
    spacing: str

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.times, islice(self.times, 1, None))):
            raise ValueError("trajectory times must increase strictly")
        if any(len(c) != len(self.times) for c in self.columns):
            raise ValueError("every column needs one value per time")

    @property
    def dim(self) -> int:
        return len(self.columns)

    def final(self) -> tuple[float, ...]:
        return tuple(c[-1] for c in self.columns)

    def write_csv(self, path: str) -> None:
        """Write the header `t,y1,...,yl` and one row per sample to `path`.

        Each block of up to `_CSV_BLOCK` rows is one `%` of a repeated
        "%.17g,...\n" template, the same text as `format(v, ".17g")` per
        value, so the whole file is never held as one string.
        """
        row = ",".join(["%.17g"] * (self.dim + 1)) + "\n"
        full = row * _CSV_BLOCK
        total = len(self.times)
        rows = zip(self.times, *self.columns)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("t," + ",".join(f"y{i + 1}" for i in range(self.dim)) + "\n")
            for start in range(0, total, _CSV_BLOCK):
                count = min(_CSV_BLOCK, total - start)
                template = full if count == _CSV_BLOCK else row * count
                fh.write(template % tuple(chain.from_iterable(islice(rows, count))))


def _time_mesh(a: float, b: float, steps: int, spacing: str) -> array:
    if spacing == "uniform":
        mesh = array("d", (a + (b - a) * k / steps for k in range(steps + 1)))
    elif spacing == "geometric":
        if not 0.0 < a < b:
            raise ValueError("geometric spacing needs 0 < start < end")
        ratio = b / a
        mesh = array("d", (a * ratio ** (k / steps) for k in range(steps + 1)))
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    mesh[-1] = b
    return mesh


def integrate_flow(
    sys: OdeSystem,
    t_start: float,
    y0: Sequence[float],
    t_end: float,
    steps: int,
    eps_start: float = 0.0,
    spacing: str = "uniform",
) -> Trajectory:
    """Classical fixed-step RK4 from t_start (+ eps_start) to t_end.

    For systems singular at t_start, pass eps_start > 0 and supply y0
    already moved to t_start + eps_start (e.g. through a known closed
    form); spacing="geometric" grades the fixed step count toward the
    singular end; the mesh is predetermined, never adaptive.

    Every system runs through one RK4 kernel, generated once per
    dimension and autonomy (`_rk4_kernel`), which calls the right-hand
    side once per stage as the map's own `compiled` lambda, which
    computes shared subtrees once. The kernel does the textbook scheme's
    floating-point operations in the textbook order, so states and times
    are bit for bit those of the plain loop over tuples. The trajectory keeps the mesh and one
    `array('d')` column of steps + 1 values per state component.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if len(y0) != sys.dim:
        raise ValueError(f"{sys.name} needs {sys.dim} initial values, got {len(y0)}")
    a = t_start + eps_start
    if t_end <= a:
        raise ValueError("integration runs forward: t_end must exceed the start")
    if not sys.valid_at(a, y0):
        raise IntegrationError("RHS invalid at the starting point", a)
    mesh = _time_mesh(a, t_end, steps, spacing)
    kernel = _rk4_kernel(sys.dim, sys.kind == "autonomous")
    columns = kernel(sys.rhs.compiled, mesh, *(float(v) for v in y0), sys.validity)
    return Trajectory(mesh, columns, steps, eps_start, spacing)


_RK4_SOURCE = """\
def rk4(f, mesh, {y}, validity):
    columns = ({new_columns})
    ({push}) = [column.append for column in columns]
    times = iter(mesh)
    t0 = next(times)
    for t1 in times:
        h = t1 - t0
        hh = 0.5 * h
        tm = t0 + hh
        try:
            ({k1},) = f({at_t0}{y})
            ({k2},) = f({at_tm}{y_k1})
            ({k3},) = f({at_tm}{y_k2})
            ({k4},) = f({at_t1}{y_k3})
        except EvalDomainError as err:
            raise IntegrationError(f"RHS domain error: {{err}}", t0) from err
        h6 = h / 6.0
{update}
        if not ({finite}):
            raise IntegrationError("state became nonfinite", t1)
        if validity is not None and not validity(t1, ({y},)):
            raise IntegrationError("state left the validity region", t1)
{append}
        t0 = t1
    return columns
"""


@lru_cache(maxsize=64)
def _rk4_kernel(dim: int, autonomous: bool) -> Callable[..., tuple[array, ...]]:
    """RK4 over a fixed mesh for `dim` components, as straight-line code.

    `kernel(f, mesh, y1, ..., ydim, validity)` returns one `array('d')`
    column per component, holding its value at every mesh time. Each
    component is a local, appended to its column after every step, and
    each stage is one call `f([t,] y1, ..., ydim)` unpacked into locals.
    The arithmetic is `y + 0.5*h*k` for the midpoint stages, `y + h*k` for
    the last and `y + (h/6)*(k1 + 2*(k2 + k3) + k4)` for the step, with
    `0.5*h` and `h/6` computed once per step, which Python's left-to-right
    evaluation makes the same operations. Errors carry the times the plain
    loop reports: a domain error in the RHS the step's start, a non-finite
    state or a validity exit the step's end.
    """

    def cols(template: str) -> str:
        return ", ".join(template.format(i=i) for i in range(dim))

    source = _RK4_SOURCE.format(
        y=cols("y{i}"),
        new_columns=cols("array('d', (y{i},))") + ",",
        push=cols("push{i}") + ",",
        k1=cols("a{i}"),
        k2=cols("b{i}"),
        k3=cols("c{i}"),
        k4=cols("d{i}"),
        at_t0="" if autonomous else "t0, ",
        at_tm="" if autonomous else "tm, ",
        at_t1="" if autonomous else "t1, ",
        y_k1=cols("y{i} + hh * a{i}"),
        y_k2=cols("y{i} + hh * b{i}"),
        y_k3=cols("y{i} + h * c{i}"),
        update="\n".join(
            f"        y{i} = y{i} + h6 * (a{i} + 2.0 * (b{i} + c{i}) + d{i})"
            for i in range(dim)
        ),
        finite=" and ".join(f"isfinite(y{i})" for i in range(dim)),
        append="\n".join(f"        push{i}(y{i})" for i in range(dim)),
    )
    namespace = {
        "EvalDomainError": EvalDomainError,
        "IntegrationError": IntegrationError,
        "array": array,
        "isfinite": math.isfinite,
    }
    exec(source, namespace)  # noqa: S102 - source built from the template above
    return namespace["rk4"]


# ---------------------------------------------------------------------------
# evolution operators


@dataclass(frozen=True)
class EvolutionOp:
    """One-time E(s) (autonomous) or two-time E(t0, t1) (non-autonomous) operator,
    given by a closed-form SmoothMap with inputs (s, x...) or (t0, t1, x...)."""

    name: str
    kind: str  # "one_time" | "two_time"
    dim: int
    closed_form: SmoothMap
    time_domain: str = "full"  # "nonneg": times outside [0, inf) are domain errors
    validity: Callable[..., bool] | None = None
    inverse_domain: Callable[..., bool] | None = None

    def __post_init__(self):
        if self.kind not in ("one_time", "two_time"):
            raise ValueError("kind must be 'one_time' or 'two_time'")

    def _check_time(self, *ts: float) -> None:
        if self.time_domain == "nonneg" and any(t < 0.0 for t in ts):
            raise EvalDomainError(
                f"time arguments {ts!r} outside the operator's domain [0, inf)"
            )

    def apply_one(self, s: float, x: Sequence[float]) -> tuple[float, ...]:
        if self.kind != "one_time":
            raise ValueError("not a one-time operator")
        self._check_time(s)
        return self.closed_form(s, *x)

    def apply_two(self, t0: float, t1: float, x: Sequence[float]) -> tuple[float, ...]:
        if self.kind != "two_time":
            raise ValueError("not a two-time operator")
        self._check_time(t0, t1)
        return self.closed_form(t0, t1, *x)

    def valid_one(self, s: float, x: Sequence[float]) -> bool:
        if self.time_domain == "nonneg" and s < 0.0:
            return False
        return self.validity is None or self.validity(s, tuple(x))

    def valid_two(self, t0: float, t1: float, x: Sequence[float]) -> bool:
        if self.time_domain == "nonneg" and (t0 < 0.0 or t1 < 0.0):
            return False
        return self.validity is None or self.validity(t0, t1, tuple(x))


def as_time_action(op: EvolutionOp, state_names: Sequence[str] | None = None) -> TimeAction:
    """View a one-time operator as a TimeAction so the axiom checks apply."""
    if op.kind != "one_time":
        raise ValueError("only one-time operators act as one-parameter families")
    names = tuple(state_names or (f"x{i + 1}" for i in range(op.dim)))
    return TimeAction(
        name=op.name,
        dim=op.dim,
        time_domain="nonneg" if op.time_domain == "nonneg" else "full",
        time_var="s",
        state_vars=names,
        map=SmoothMap(
            ("s", *names),
            func=lambda s, *x: op.apply_one(s, x),
            out_dim=op.dim,
            name=op.name,
        ),
        validity=lambda s, x: op.valid_one(s, x),
    )


# ---------------------------------------------------------------------------
# the square-root genuine-semigroup evolution, in closed form


def ystar_branch(t: float, y: float) -> float:
    """The root of z + sqrt(t)*z^2 = y that stays bounded (-> y) as t -> 0+."""
    if t < 0.0:
        raise EvalDomainError("ystar needs t >= 0")
    st = math.sqrt(t)
    radicand = 1.0 + 4.0 * st * y
    if radicand < 0.0:
        if radicand < -1e-9 * (1.0 + abs(4.0 * st * y)):
            raise EvalDomainError(f"negative radicand {radicand!r}")
        radicand = 0.0  # rounding at the fold boundary
    return 2.0 * y / (1.0 + math.sqrt(radicand))


def gls_two_time(t: float, s: float, y: float) -> float:
    """E(t,s)(y) = y* + sqrt(s)*y*^2 with y* = ystar_branch(t, y).

    Defined for t, s >= 0 and 1 + 4*sqrt(t)*y >= 0; at t=0 it reduces to
    the slice E(0,s)(y) = y + sqrt(s)*y^2.
    """
    if s < 0.0:
        raise EvalDomainError("gls_two_time needs s >= 0")
    ys = ystar_branch(t, y)
    return ys + math.sqrt(s) * ys * ys


def gls_slice(t: float, z: float) -> float:
    """The fixed-origin slice E(0,t)(z) = z + sqrt(t)*z^2."""
    if t < 0.0:
        raise EvalDomainError("slice needs t >= 0")
    return z + math.sqrt(t) * z * z


def _gls_valid_state(t: float, y: float) -> bool:
    return t >= 0.0 and 1.0 + 4.0 * math.sqrt(t) * y >= -1e-12


def _gls_branch_ok(s: float, t: float, y: float) -> bool:
    """Applying E(t, t+s) stays on the bounded root branch.

    Past this fold the one-parameter law genuinely fails (the slice map is
    non-injective and the bounded root at time t+s recovers a different
    trajectory), so law checks must treat such points as outside the
    action's validity region.
    """
    try:
        return 1.0 + 2.0 * math.sqrt(t + s) * ystar_branch(t, y) >= 0.0
    except EvalDomainError:
        return False


def gls_two_time_op() -> EvolutionOp:
    def guard(a: float, b: float, x: tuple[float, ...]) -> bool:
        # the bounded root at time max(a,b) must recover the same branch
        try:
            return 1.0 + 2.0 * math.sqrt(max(a, b)) * ystar_branch(a, x[0]) >= 0.0
        except EvalDomainError:
            return False

    return EvolutionOp(
        name="sqrt-gls-two-time",
        kind="two_time",
        dim=1,
        closed_form=SmoothMap(
            ("t0", "t1", "y"),
            func=lambda t0, t1, y: (gls_two_time(t0, t1, y),),
            out_dim=1,
            name="sqrt-gls-two-time",
        ),
        time_domain="nonneg",
        validity=lambda t0, t1, x: _gls_valid_state(t0, x[0]),
        inverse_domain=guard,
    )


def gls_one_time_op() -> EvolutionOp:
    """The autonomous operator one dimension up: E_A(s)(t,y) = (t+s, E(t,t+s)(y))."""
    return EvolutionOp(
        name="sqrt-gls-evolution",
        kind="one_time",
        dim=2,
        closed_form=SmoothMap(
            ("s", "t", "y"),
            func=lambda s, t, y: (t + s, gls_two_time(t, t + s, y)),
            out_dim=2,
            name="sqrt-gls-evolution",
        ),
        time_domain="nonneg",
        validity=lambda s, x: _gls_valid_state(x[0], x[1]) and _gls_branch_ok(s, x[0], x[1]),
    )


def gls_time_action() -> TimeAction:
    return as_time_action(gls_one_time_op(), ("t", "y"))


# ---------------------------------------------------------------------------
# the quadratic worked example dY/dt = 2t


def quadratic_system() -> OdeSystem:
    return OdeSystem(
        name="quadratic",
        kind="nonautonomous",
        dim=1,
        rhs=map_from_exprs(("t", "y"), ["2*t"], name="quadratic-rhs"),
    )


def quadratic_two_time_op() -> EvolutionOp:
    return EvolutionOp(
        name="quadratic-two-time",
        kind="two_time",
        dim=1,
        closed_form=SmoothMap(
            ("t0", "t1", "y"),
            func=lambda t0, t1, y: (t1 * t1 - t0 * t0 + y,),
            out_dim=1,
            name="quadratic-two-time",
        ),
    )


def quadratic_one_time_op() -> EvolutionOp:
    return EvolutionOp(
        name="quadratic-evolution",
        kind="one_time",
        dim=2,
        closed_form=SmoothMap(
            ("s", "t", "y"),
            func=lambda s, t, y: (t + s, s * s + 2.0 * s * t + y),
            out_dim=2,
            name="quadratic-evolution",
        ),
    )


def quadratic_slice(t: float, z: float) -> float:
    """E(0,t)(z) = t^2 + z for the quadratic example."""
    return t * t + z


# ---------------------------------------------------------------------------
# operator-law verification


def first_component_check(op: EvolutionOp, grid: SamplingGrid, tol: float) -> VerificationReport:
    """First output of an augmented one-time operator must be exactly t + s.

    Grid axes: (s, t, y1..yl). Points outside the operator's domain are
    skipped; witnesses and the inconclusive verdict follow `report.Tally`.
    """
    tally = Tally(tol)
    for point in grid.points():
        s, t, y = point[0], point[1], point[2:]
        if not op.valid_one(s, (t, *y)):
            tally.skip()
            continue
        try:
            out = op.apply_one(s, (t, *y))
        except EvalDomainError:
            tally.skip()
            continue
        tally.add(abs(out[0] - (t + s)) / (1.0 + abs(t + s)), point, out)
    return tally.report(f"first-component[{op.name}]", grid.summary())


def one_time_law_check(
    op: EvolutionOp,
    pairs: Sequence[tuple[float, float]],
    grid: SamplingGrid,
    tol: float,
) -> VerificationReport:
    """Max gap of E(r)(E(s)(x)) against E(s+r)(x) over the state grid.

    Points that leave the operator's domain are skipped; witnesses and the
    inconclusive verdict follow `report.Tally`.
    """
    tally = Tally(tol)
    for s, r in pairs:
        for x in grid.points():
            if not op.valid_one(s, x):
                tally.skip()
                continue
            try:
                mid = op.apply_one(s, x)
                if not op.valid_one(r, mid):
                    tally.skip()
                    continue
                lhs = op.apply_one(r, mid)
                rhs = op.apply_one(s + r, x)
            except EvalDomainError:
                tally.skip()
                continue
            tally.add(deviation(lhs, rhs), (s, r, *x), (*lhs, *rhs))
    return tally.report(f"one-time-law[{op.name}]", grid.summary())


def two_time_law_check(
    op: EvolutionOp,
    triples: Sequence[tuple[float, float, float]],
    grid: SamplingGrid,
    tol: float,
) -> VerificationReport:
    """Max gap of E(s,r)(E(t,s)(y)) against E(t,r)(y), plus the inverse
    identities E(t,s)∘E(s,t) = id = E(s,t)∘E(t,s) wherever both orders
    stay inside the operator's (branch-)domain. Both loops feed one
    `report.Tally`, which sets the witnesses and the inconclusive verdict."""
    tally = Tally(tol)

    def try_leg(a: float, b: float, x: tuple) -> tuple | None:
        if not op.valid_two(a, b, x):
            return None
        try:
            return op.apply_two(a, b, x)
        except EvalDomainError:
            return None

    for t, s, r in triples:
        for x in grid.points():
            mid = try_leg(t, s, x)
            out = None if mid is None else try_leg(s, r, mid)
            ref = try_leg(t, r, x)
            if out is None or ref is None:
                tally.skip()
            else:
                tally.add(deviation(out, ref), (t, s, r, *x), (*out, *ref))
    seen = set()
    for t, s, _ in triples:
        if (t, s) in seen or t == s:
            continue
        seen.add((t, s))
        for x in grid.points():
            for a, b in ((t, s), (s, t)):
                if op.inverse_domain is not None and not op.inverse_domain(a, b, tuple(x)):
                    tally.skip()
                    continue
                fwd = try_leg(a, b, x)
                back = None if fwd is None else try_leg(b, a, fwd)
                if back is None:
                    tally.skip()
                    continue
                tally.add(deviation(back, x), (a, b, *x), back, "inverse identity")
    return tally.report(f"two-time-law[{op.name}]", grid.summary())


# ---------------------------------------------------------------------------
# recovering the two-time operator from one slice


@dataclass(frozen=True)
class RecoverySettings:
    t0: float = 0.0
    search_lo: float = -50.0
    search_hi: float = 50.0
    scan_points: int = 256
    root_tol: float = 1e-12
    continuation_steps: int = 16


@dataclass
class RecoveryResult:
    value: float
    ystar: float
    roots: list[float]
    brackets: list[tuple[float, float]]
    condition: float
    notes: tuple[str, ...] = ()


def _continuation_root(
    slice_map: Callable[[float, float], float],
    t0: float,
    t: float,
    y: float,
    steps: int,
) -> float:
    """Track the root of slice(tau, z) = y from tau=t0 (where z=y) to tau=t."""
    z = y
    for k in range(1, steps + 1):
        tau = t0 + (t - t0) * k / steps
        g = lambda w: slice_map(tau, w) - y  # noqa: E731
        nxt = newton(g, numeric_derivative(g), z)
        if nxt is not None:
            z = nxt
    return z


def recover_evolution_detailed(
    slice_map: Callable[[float, float], float],
    t: float,
    s: float,
    y: float,
    settings: RecoverySettings = RecoverySettings(),
) -> RecoveryResult:
    """E(t,s)(y) from the single slice tau -> E(t0, tau), by root finding.

    Solves slice(t, y*) = y (bisection on scanned brackets, Newton polish),
    then returns slice(s, y*). With several roots the one continuous in t
    with limit y at t0 is chosen, located by continuation from the slice
    origin. The condition number 1/|d slice/dz| is reported; it blows up
    at the fold where the root becomes double.
    """
    g = lambda z: slice_map(t, z) - y  # noqa: E731
    brackets = scan_brackets(g, settings.search_lo, settings.search_hi, settings.scan_points)
    if not brackets:
        raise RootSearchError(
            f"no sign change for the slice equation in "
            f"[{settings.search_lo!r}, {settings.search_hi!r}]"
        )
    roots: list[float] = []
    for a, b in brackets:
        r = hybrid_root(g, a, b, tol=settings.root_tol)
        if not any(abs(r - q) <= 1e-9 * (1.0 + abs(q)) for q in roots):
            roots.append(r)
    notes: tuple[str, ...] = ()
    if len(roots) > 1:
        guide = _continuation_root(slice_map, settings.t0, t, y, settings.continuation_steps)
        chosen = min(roots, key=lambda r: abs(r - guide))
        notes = (f"{len(roots)} roots; continuation from t0={settings.t0:g} selected the bounded branch",)
    else:
        chosen = roots[0]
    dval = numeric_derivative(g)(chosen)
    condition = math.inf if dval == 0.0 else 1.0 / abs(dval)
    return RecoveryResult(
        value=slice_map(s, chosen),
        ystar=chosen,
        roots=roots,
        brackets=brackets,
        condition=condition,
        notes=notes,
    )


def recover_evolution(
    slice_map: Callable[[float, float], float],
    t: float,
    s: float,
    y: float,
    settings: RecoverySettings = RecoverySettings(),
) -> float:
    return recover_evolution_detailed(slice_map, t, s, y, settings).value


# ---------------------------------------------------------------------------
# flow-vs-closed-form oracle

# The oracle takes its RK4 step count from step doubling. RK4 has order 4,
# so runs of N and 2N steps on one mesh family differ by about 15 times the
# error of the 2N run, and max|y_N - y_2N|/15 over their shared points
# estimates that error (Richardson; Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.4). The counts double from FLOW_START_STEPS until the estimate is
# at most FLOW_TARGET_RATIO times the tolerance, up to FLOW_MAX_STEPS. The
# truncation error falls ~16-fold per doubling; an estimate within the
# tolerance that falls by less than FLOW_STALL_RATIO has met the rounding
# floor (~2e-16 to 7e-16), below which more steps only add rounding error.
FLOW_START_STEPS = 625  # doubling reaches 10,000 and the cap exactly
FLOW_TARGET_RATIO = 1e-3
FLOW_STALL_RATIO = 2.0
FLOW_MAX_STEPS = 160_000  # 625 * 2**8, above the former fixed 100,000 steps
RK4_RICHARDSON = 15.0  # 2**4 - 1 for a method of order 4


def richardson_doubling(
    sys: OdeSystem,
    y0: Sequence[float],
    t_end: float,
    eps_start: float,
    spacing: str,
) -> Iterator[tuple[Trajectory, float]]:
    """RK4 runs from t = 0 (+ eps_start) of 2, 4, 8, ... times FLOW_START_STEPS
    steps, each yielded with its Richardson error estimate; the caller stops.

    The estimate of a 2N-step run is the largest `deviation` of the N-step
    run from it at the N-step mesh times, divided by RK4_RICHARDSON. Those
    times are the even-indexed times of the 2N-step mesh, bit for bit, on
    both spacings, since (2k)/(2N) == k/N in floating point.
    """
    coarse = integrate_flow(sys, 0.0, y0, t_end, FLOW_START_STEPS, eps_start, spacing)
    while True:
        fine = integrate_flow(sys, 0.0, y0, t_end, 2 * coarse.steps, eps_start, spacing)
        halved = (column[::2] for column in fine.columns)
        gap = nan_max(deviation(c, f) for c, f in zip(zip(*coarse.columns), zip(*halved)))
        yield fine, gap / RK4_RICHARDSON
        coarse = fine


def closed_form_deviations(
    action: TimeAction, ys: tuple[float, ...], traj: Trajectory
) -> list[float]:
    """The `deviation` of every sample of `traj` from the action's value at
    ys, through the compiled outputs of its expression-backed map."""
    reference = action.map.compiled
    states = zip(*traj.columns)
    return [deviation(state, reference(tau, *ys)) for tau, state in zip(traj.times, states)]


def flow_vs_closed_form(
    action: TimeAction,
    sys: OdeSystem,
    y0: Sequence[float] | float,
    t_end: float,
    eps_start: float,
    tol: float,
) -> VerificationReport:
    """Integrate the ODE and compare every sample against the closed form.

    The starting state is the action's own value at eps_start, realizing
    the limit-type initial condition numerically; eps_start > 0 grades the
    mesh geometrically toward the singular start. The step count comes from
    `richardson_doubling`: the first run whose estimate is at most
    FLOW_TARGET_RATIO * tol, or is within tol and fell by less than
    FLOW_STALL_RATIO since the run before (the rounding floor), is
    compared, and its notes give the count, the estimate and the actual
    error. A run that reaches FLOW_MAX_STEPS with neither has not shown its
    accuracy: the report is inconclusive, so it fails whatever the
    comparison gives.
    """
    ys = (y0,) if isinstance(y0, (int, float)) else tuple(y0)
    spacing = "geometric" if eps_start > 0.0 else "uniform"
    start_state = action(eps_start if eps_start > 0.0 else 0.0, ys)
    target = FLOW_TARGET_RATIO * tol
    previous = math.inf
    for traj, estimate in richardson_doubling(sys, start_state, t_end, eps_start, spacing):
        stalled = estimate <= tol and estimate * FLOW_STALL_RATIO > previous
        if estimate <= target or stalled or traj.steps >= FLOW_MAX_STEPS:
            break
        previous = estimate
    devs = closed_form_deviations(action, ys, traj)
    max_dev = nan_max(devs)
    notes = [
        f"{traj.steps} steps by step doubling from {FLOW_START_STEPS}: Richardson "
        f"estimate {estimate:.3e} (target {target:.3e}), actual max deviation {max_dev:.3e}"
    ]
    if estimate > target and stalled:
        notes.append(
            f"the estimate did not fall {FLOW_STALL_RATIO:g}-fold from {previous:.3e}: "
            "within the tolerance, it has met the rounding floor"
        )
    elif estimate > target:
        notes.append(
            f"the estimate missed its target at the cap of {FLOW_MAX_STEPS} steps, "
            "so the run's accuracy is not established"
        )
    witnesses = []
    if not max_dev <= tol:
        # the first NaN, else the first largest deviation, is the worst point
        i = next(i for i, d in enumerate(devs) if d != d or d == max_dev)
        tau = traj.times[i]
        state = (column[i] for column in traj.columns)
        witnesses.append(Witness((tau,), (*state, *action.map.compiled(tau, *ys))))
    return VerificationReport.from_deviations(
        f"flow-vs-closed-form[{action.name}]",
        devs,
        tol,
        f"{traj.steps} steps, {traj.spacing} mesh, eps_start={eps_start:g}",
        witnesses,
        inconclusive=estimate > target and not stalled,
        notes=tuple(notes),
    )
