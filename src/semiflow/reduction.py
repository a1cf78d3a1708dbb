"""Non-autonomous -> autonomous reduction and evolution-operator algebra.

A non-autonomous system dY/dt = F(t, Y) on R^l is equivalent to the
autonomous system on R^{l+1} obtained by adjoining time as a state
coordinate with derivative 1. Its one-time evolution operator E_A(s)
then packages the full two-time operator: the first component is t + s
and the second is E(t, t+s), so the two-time algebra
E(s,r)∘E(t,s) = E(t,r) becomes the one-parameter law
E_A(r)∘E_A(s) = E_A(s+r) one dimension up. E_A is therefore a plain
`TimeAction` in (s, t, Y), whose one-time law `actions.composition_check`
checks, and the two-time operator an `EvolutionOp`: an expression that
raises outside its domain, plus the region where it can be inverted. Both
laws run one loop, `actions.tally_law`, keyed by tuples of times.

For the square-root action y + sqrt(t)*y^2 the two-time operator has the
closed form E(t,s)(y) = y* + sqrt(s)*y*^2 with
y* = 2y/(1 + sqrt(1 + 4*sqrt(t)*y)), the root branch that stays bounded
as t -> 0+. Restricted to times >= 0, E_A is a semigroup whose members
are non-invertible for every s > 0: the promised genuine-semigroup
structure lives one dimension up from the original state space.

Also here: a classical fixed-step RK4 flow (optionally on a geometric
mesh for ODEs singular at the starting time), verification of the
operator laws, recovery of the two-time operator from its own
fixed-origin slice by scalar root finding, and the oracle that compares
an RK4 flow with a closed form at a step count chosen by step doubling.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from itertools import chain, islice
from typing import Callable, Iterator, NoReturn, Sequence

from .actions import TimeAction, composition_check, tally_law
from .expr import (
    _COMPILE_NS,
    Binary,
    Const,
    EvalDomainError,
    Expr,
    Unary,
    Var,
    _check_params,
    _emit_system,
    _emit_tests,
    compile_expr,
    free_vars,
    parse_expr,
    raise_from_tree_walk,
    substitute_many,
)
from .grids import SamplingGrid
from .maps import SmoothMap, check_region, map_from_exprs, region_test
from .report import Tally, VerificationReport, Witness, deviation, nan_max
from .rootfind import RootSearchError, bisect, hybrid_root


class IntegrationError(Exception):
    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (at t={time!r})")
        self.time = time


@dataclass(frozen=True)
class OdeSystem:
    """Explicit first-order system dY/dt = rhs on R^l, where rhs is a
    SmoothMap of (t, y1..yl) or, for an autonomous system, of (y1..yl)
    alone: the map's name is the system's, its shape gives the dimension
    and the autonomy. `region` is where a flow may run: tests (expression,
    relation) over the RHS's inputs, each against 0 (`maps.check_region`)."""

    rhs: SmoothMap
    region: tuple[tuple[Expr, str], ...] = ()

    def __post_init__(self):
        if self.rhs.in_dim - self.rhs.out_dim not in (0, 1):
            raise ValueError(
                "RHS must be R^l -> R^l or R^(l+1) -> R^l; got "
                f"{self.rhs.in_dim} -> {self.rhs.out_dim}"
            )
        check_region(self.region, self.rhs.inputs)

    @property
    def name(self) -> str:
        return self.rhs.name

    @property
    def dim(self) -> int:
        return self.rhs.out_dim

    @property
    def autonomous(self) -> bool:
        return self.rhs.in_dim == self.rhs.out_dim

    @cached_property
    def _region_test(self) -> Callable[..., tuple[float] | None]:
        return region_test(self.rhs.inputs, self.region)

    def valid_at(self, t: float, y: Sequence[float]) -> bool:
        args = tuple(y) if self.autonomous else (t, *y)
        return not self.region or self._region_test(*args) is not None


def augment_system(sys: OdeSystem) -> OdeSystem:
    """Adjoin time as the first state coordinate with derivative 1. The
    augmented RHS has the same inputs, the time now a state variable, so
    the region carries over as it is."""
    if sys.autonomous:
        raise ValueError("only non-autonomous systems are augmented")
    rhs = SmoothMap(
        sys.rhs.inputs, (Const(1.0), *sys.rhs.outputs), name=f"augmented[{sys.name}]"
    )
    return OdeSystem(rhs, sys.region)


_CSV_BLOCK = 512  # rows per `%` in Trajectory.write_csv


@dataclass
class Trajectory:
    """Samples from one integration run, stored as columns.

    `times` holds the mesh and `columns[i]` the values of state component
    i + 1 at those times, each an `array('d')`; sample k is `times[k]`
    with `tuple(c[k] for c in columns)`, and `steps` is the mesh's.
    """

    times: array
    columns: tuple[array, ...]

    def __post_init__(self):
        times = self.times
        # a NaN time compares false both ways, so only `<` rejects it
        if not all(map(operator.lt, times, islice(times, 1, None))):
            raise ValueError("trajectory times must increase strictly")
        if any(len(c) != len(times) for c in self.columns):
            raise ValueError("every column needs one value per time")

    @property
    def steps(self) -> int:
        return len(self.times) - 1

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
    mesh = array("d", [0.0]) * (steps + 1)
    if spacing == "uniform":
        width = b - a
        for k in range(steps + 1):
            mesh[k] = a + width * k / steps
    elif spacing == "geometric":
        if not 0.0 < a < b:
            raise ValueError("geometric spacing needs 0 < start < end")
        ratio = b / a
        for k in range(steps + 1):
            mesh[k] = a * ratio ** (k / steps)
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

    Every system runs through an RK4 kernel generated once per right-hand
    side (`_rk4_kernel`): the code of the RHS outputs, with shared
    subtrees computed once, stands in each stage line, so a stage is no
    call, and calls no domain guard: a stage off the RHS's domain raises
    the IntegrationError "RHS domain error: ..." with the message the tree
    walk `evaluate` gives at that stage's inputs. The RHS's state-free
    part, its subtrees that read no state variable (sqrt(t), 4*t*sqrt(t)),
    is computed once per distinct mesh time, and once per run for an
    autonomous system. The kernel does the textbook scheme's
    floating-point operations in the textbook order, so states and times
    are bit for bit those of the plain loop over tuples.
    The trajectory keeps the mesh and one `array('d')` column per state
    component, each allocated once at steps + 1 values and filled by
    index.
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
    kernel = _rk4_kernel(sys.rhs.inputs, sys.rhs.outputs, sys.region)
    columns = kernel(mesh, *(float(v) for v in y0))
    return Trajectory(mesh, columns)


_RK4_SOURCE = """\
def _rk4(_mesh, {y}):
    _size = _len(_mesh)
{allocate}
    _times = _iter(_mesh)
    _t0 = _next(_times)
    _k = 0{free_at_start}
    for _t1 in _times:
        _h = _t1 - _t0
        _hh = 0.5 * _h
        _tm = _t0 + _hh
        try:
            ({inputs},) = ({at_t0}{y},)
            ({ka},) = ({rhs},)
            ({inputs},) = ({at_tm}{y_ka},){free_in_step}
            ({kb},) = ({rhs},)
            ({inputs},) = ({at_tm}{y_kb},)
            ({kc},) = ({rhs},)
            ({inputs},) = ({at_t1}{y_kc},){free_in_step}
            ({kd},) = ({rhs},)
        except _DOMAIN_ERRORS:
            _stage_failed(({inputs},), _t0)
        _h6 = _h / 6.0
{update}
        if not ({finite}):
            raise _IntegrationError("state became nonfinite", _t1)
{region}
        _k = _k + 1
{store}
        _t0 = _t1
    return ({columns},)
"""

# the RHS's state-free part at the mesh's start, once the inputs are bound
# there: a failure is the first stage's
_RK4_FREE_AT_START = """
    ({inputs},) = ({at_t0}{y},)
    try:
        {free}
    except _DOMAIN_ERRORS:
        _stage_failed(({inputs},), _t0)"""

# the step-end test of a region, once the inputs are bound at _t1; where a
# test raises, the region's leg (`maps.region_test`) decides as the checks do
_RK4_REGION = """\
        ({inputs},) = ({at_t1}{y},)
        try:
            _inside = {tests}
        except _DOMAIN_ERRORS:
            _inside = _region_test({inputs}) is not None
        if not _inside:
            raise _IntegrationError("state left the validity region", _t1)"""

# the kernel's own globals; with the helpers of the RHS code, every name of
# the kernel starts with "_", which no input of a compiled map may
_RK4_NS = {
    **_COMPILE_NS,
    "_DOMAIN_ERRORS": (EvalDomainError, ArithmeticError, ValueError),
    "_IntegrationError": IntegrationError,
    "_array": array,
    "_isfinite": math.isfinite,
    "_iter": iter,
    "_len": len,
    "_next": next,
}


def _stage_failed(
    outputs: tuple[Expr, ...], inputs: tuple[str, ...], args: tuple, t0: float
) -> NoReturn:
    """Raise what a failed RK4 stage at inputs `args`, in the step from
    t0, reports: the tree walk's EvalDomainError as the IntegrationError
    "RHS domain error: ...", or the tree walk's other error."""
    try:
        raise_from_tree_walk(outputs, inputs, args)
    except EvalDomainError as err:
        raise IntegrationError(f"RHS domain error: {err}", t0) from err


def _read_by_name(e: Expr, name_of: Callable[[Expr], Var | None]) -> Expr:
    """`e` with each outermost non-leaf subtree that `name_of` names
    replaced by that variable; the rest of the tree is kept as it is."""
    kind = type(e)
    if kind is Unary or kind is Binary:
        var = name_of(e)
        if var is not None:
            return var
        if kind is Unary:
            return Unary(e.op, _read_by_name(e.arg, name_of))
        return Binary(e.op, _read_by_name(e.lhs, name_of), _read_by_name(e.rhs, name_of))
    return e


@lru_cache(maxsize=64)
def _rk4_kernel(
    inputs: tuple[str, ...],
    outputs: tuple[Expr, ...],
    region: tuple[tuple[Expr, str], ...],
) -> Callable[..., tuple[array, ...]]:
    """RK4 over a fixed mesh for the RHS `outputs` of `inputs`, as
    straight-line code: of the state alone when there are as many inputs
    as outputs, else of the time and the state.

    `kernel(mesh, y1, ..., ydim)` returns one `array('d')` column per
    component holding its value at every mesh time. Each column is
    allocated once, as len(mesh) copies of the initial value, and each
    component is a local `_y{i}`, stored into its column by index after
    every step. Each stage binds the map's inputs as locals
    (`(t, y) = (_tm, _y0 + _hh * _ka0)`) and evaluates in place the code
    `expr._emit_system` writes for the outputs, the code a compiled map
    runs. Its shared subtrees (`_c0`, ...) become locals of the kernel,
    and no name of the kernel's own has that form. The arithmetic is
    `y + 0.5*h*k` for the midpoint stages, `y + h*k` for the last and
    `y + (h/6)*(k1 + 2*(k2 + k3) + k4)` for the step, with `0.5*h` and
    `h/6` computed once per step, which Python's left-to-right evaluation
    makes the same operations.

    The RHS's state-free part is each maximal non-leaf subtree that reads
    no state variable (for the sqrt ODE 2*sqrt(t), 4*sqrt(t) and
    4*t*sqrt(t)), taken as the tree has it, never re-associated, and read
    by the stage code under its name `_s0`, `_s1`, ... It is computed once
    per distinct mesh time, from the time bound as an input: before the
    loop at the mesh's start, then in each step once at the midpoint, for
    stages 2 and 3, and once at the step's end, for stage 4, the step-end
    region test and the next step's stage 1. Without a time input (an
    autonomous system, an augmented one included) it is constant and
    computed before the loop only. Each computation follows the binding
    of the inputs of the first stage it serves, so its failure is that
    stage's.

    Errors carry the times the plain loop reports: a domain error in the
    RHS the step's start, a non-finite state or a step that leaves the
    region the step's end. The RHS code raises the error of the C function
    or operator that failed (or `_pow`'s EvalDomainError); the `except`
    clause, which costs nothing while no stage fails, hands the failing
    stage's inputs to `_stage_failed`, which raises the tree walk's error
    there.

    The region's tests (`region`, over the same inputs) run inline at each
    step's end, on the inputs bound at the new time and state. Their code
    is emitted on its own, not with the RHS's, so a stage never reads a
    subtree the tests computed; a test reads a state-free value by name
    only where it holds that very subtree, and computes the rest inline,
    after the tests before it hold. Where a test raises, the region's tests
    alone (`maps.region_test`) decide: off the region where a test raises
    EvalDomainError, and any other error passes through.

    Cached on the map's inputs and outputs and the region, so a rebuilt
    equal system reuses its kernel.
    """
    _check_params(inputs)
    dim = len(outputs)
    autonomous = len(inputs) == dim

    def cols(template: str) -> str:
        return ", ".join(template.format(i=i) for i in range(dim))

    at = {k: "" if autonomous else f"_{k}, " for k in ("t0", "tm", "t1")}
    # each maximal non-leaf subtree that reads no state variable, under the
    # name _s0, _s1, ... the stage code reads it by
    state = set(inputs if autonomous else inputs[1:])
    hoisted: dict[Expr, Var] = {}

    def hoist(e: Expr) -> Var | None:
        if free_vars(e) & state:
            return None
        return hoisted.setdefault(e, Var(f"_s{len(hoisted)}"))

    rhs = tuple(_read_by_name(e, hoist) for e in outputs)
    names = tuple(v.name for v in hoisted.values())
    params = inputs + names
    free_at_start = free_in_step = ""
    if hoisted:
        free = f"({', '.join(names)},) = ({', '.join(_emit_system(tuple(hoisted), inputs))},)"
        free_at_start = _RK4_FREE_AT_START.format(
            inputs=", ".join(inputs), at_t0=at["t0"], y=cols("_y{i}"), free=free
        )
        if not autonomous:
            free_in_step = "\n            " + free
    tests = ""
    if region:
        # a test reads a state-free value only where it holds that very subtree
        codes = _emit_system(tuple(_read_by_name(e, hoisted.get) for e, _ in region), params)
        tests = _RK4_REGION.format(
            inputs=", ".join(inputs),
            at_t1=at["t1"],
            y=cols("_y{i}"),
            tests=_emit_tests(codes, [rel for _, rel in region]),
        )
    source = _RK4_SOURCE.format(
        y=cols("_y{i}"),
        allocate="\n".join(
            f"    _col{i} = _array('d', [_y{i}]) * _size" for i in range(dim)
        ),
        inputs=", ".join(inputs),
        rhs=", ".join(_emit_system(rhs, params)),
        free_at_start=free_at_start,
        free_in_step=free_in_step,
        ka=cols("_ka{i}"),
        kb=cols("_kb{i}"),
        kc=cols("_kc{i}"),
        kd=cols("_kd{i}"),
        at_t0=at["t0"],
        at_tm=at["tm"],
        at_t1=at["t1"],
        y_ka=cols("_y{i} + _hh * _ka{i}"),
        y_kb=cols("_y{i} + _hh * _kb{i}"),
        y_kc=cols("_y{i} + _h * _kc{i}"),
        update="\n".join(
            f"        _y{i} = _y{i} + _h6 * (_ka{i} + 2.0 * (_kb{i} + _kc{i}) + _kd{i})"
            for i in range(dim)
        ),
        finite=" and ".join(f"_isfinite(_y{i})" for i in range(dim)),
        region=tests,
        store="\n".join(f"        _col{i}[_k] = _y{i}" for i in range(dim)),
        columns=cols("_col{i}"),
    )
    namespace = dict(_RK4_NS, _stage_failed=partial(_stage_failed, outputs, inputs))
    if region:
        namespace["_region_test"] = region_test(inputs, region)
    exec(source, namespace)  # noqa: S102 - source built from the template above
    # taken out of its own globals, the kernel is in no reference cycle
    return namespace.pop("_rk4")


# ---------------------------------------------------------------------------
# evolution operators


@dataclass(frozen=True)
class EvolutionOp:
    """The two-time operator E(t0, t1) of a non-autonomous system: a
    closed-form SmoothMap, whose name is the operator's, with inputs
    (t0, t1, x...) that raises `EvalDomainError` outside its domain, and
    the region of the points (t0, t1, x) where E(t1, t0) undoes it: tests
    (expression, relation) over the closed form's inputs, each against 0
    (`maps.check_region`), none for an operator inverted on all its domain.

    The one-time operator E_A(s) one dimension up is a plain `TimeAction`
    in (s, t, x...), which the axiom checks of `actions` take directly.
    """

    closed_form: SmoothMap
    region: tuple[tuple[Expr, str], ...] = ()

    def __post_init__(self):
        check_region(self.region, self.closed_form.inputs)

    @property
    def name(self) -> str:
        return self.closed_form.name

    @cached_property
    def slice(self) -> tuple[Callable[[float, float], float], Callable[[float, float], float]]:
        """The slice (tau, z) -> E(0, tau)(z) of a scalar operator and its
        exact z-partial, as compiled functions of (tau, z), built once."""
        origin, _, state = self.closed_form.inputs
        frozen = self.closed_form.freeze(**{origin: 0.0})
        (value,), (slope,) = frozen.outputs, frozen.partial(state).outputs
        return compile_expr(value, frozen.inputs), compile_expr(slope, frozen.inputs)


# ---------------------------------------------------------------------------
# the square-root genuine-semigroup evolution, in closed form


def _gls_root(t: str) -> tuple[Expr, Expr]:
    """The radicand 1 + 4*sqrt(t)*y and y* = 2*y/(1 + sqrt(radicand)), the
    bounded root of z + sqrt(t)*z^2 = y, with one shared radicand node."""
    radicand = parse_expr(f"1 + 4*sqrt({t})*y")
    return radicand, substitute_many(parse_expr("2*y/(1 + sqrt(r))"), {"r": radicand})


def _gls_closed_form(ystar: Expr, s: str) -> Expr:
    """E(t,s)(y) as an expression: y* + sqrt(s)*y*^2 with one shared y*
    node. A negative radicand is a domain error, even one rounded just
    below 0."""
    return substitute_many(parse_expr(f"z + sqrt({s})*z*z"), {"z": ystar})


def _gls_branch_test(target: str, ystar: Expr) -> tuple[Expr, str]:
    """The test 1 + 2*sqrt(target)*y* >= 0: y* stays the bounded root at
    time target.

    Past this fold the one-parameter law genuinely fails (the slice map is
    non-injective and the bounded root at the target time recovers a
    different trajectory), so law checks must treat such points as outside
    the operator's region."""
    return substitute_many(parse_expr(f"1 + 2*sqrt({target})*z"), {"z": ystar}), ">="


def gls_two_time_op() -> EvolutionOp:
    """E(t0, t1) of the square-root action, inverted where the bounded root
    at time max(t0, t1) recovers the same branch. As 1 + 2*sqrt(tau)*y*
    is monotone in tau, in floating point too, that is the branch test at
    both times; the region's tests and the closed form share their
    radicand and y* nodes."""
    radicand, ystar = _gls_root("t0")
    return EvolutionOp(
        closed_form=SmoothMap(
            ("t0", "t1", "y"), (_gls_closed_form(ystar, "t1"),), name="sqrt-gls-two-time"
        ),
        region=(
            (Var("t0"), ">="),
            (radicand, ">="),
            _gls_branch_test("t0", ystar),
            (Var("t1"), ">="),
            _gls_branch_test("t1", ystar),
        ),
    )


def gls_one_time_op() -> TimeAction:
    """The autonomous operator one dimension up: E_A(s)(t,y) = (t+s, E(t,t+s)(y)),
    on the region where E(t, t+s) is defined and keeps the bounded root."""
    radicand, ystar = _gls_root("t")
    return TimeAction(
        time_domain="nonneg",
        map=SmoothMap(
            ("s", "t", "y"),
            (parse_expr("t + s"), _gls_closed_form(ystar, "t + s")),
            name="sqrt-gls-evolution",
        ),
        region=((Var("t"), ">="), (radicand, ">="), _gls_branch_test("t + s", ystar)),
    )


# ---------------------------------------------------------------------------
# the quadratic worked example dY/dt = 2t


def quadratic_system() -> OdeSystem:
    return OdeSystem(map_from_exprs(("t", "y"), ["2*t"], name="quadratic"))


def quadratic_two_time_op() -> EvolutionOp:
    return EvolutionOp(
        closed_form=map_from_exprs(
            ("t0", "t1", "y"), ["t1*t1 - t0*t0 + y"], name="quadratic-two-time"
        ),
    )


def quadratic_one_time_op() -> TimeAction:
    return TimeAction(
        time_domain="full",
        map=map_from_exprs(
            ("s", "t", "y"), ["t + s", "s*s + 2*s*t + y"], name="quadratic-evolution"
        ),
    )


# ---------------------------------------------------------------------------
# operator-law verification


def first_component_check(op: TimeAction, grid: SamplingGrid, tol: float) -> VerificationReport:
    """First output of an augmented one-time operator must be exactly t + s.

    Grid axes: (s, t, y1..yl). Points outside the operator's time domain,
    region or domain are skipped: each point is one leg on the region
    (`SmoothMap.on_region`). Witnesses and the inconclusive verdict follow
    `report.Tally`.
    """
    leg = op.map.on_region(op.region)
    tally = Tally(tol)
    for point in grid.points():
        s, t = point[0], point[1]
        out = leg(*point) if op.time_ok(s) else None
        if out is None:
            tally.skip()
            continue
        if tally.add(deviation((out[0],), (t + s,))):
            tally.witness(point, out)
    return tally.report(f"first-component[{op.name}]", grid.summary())


def one_time_law_check(
    op: TimeAction,
    pairs: Sequence[tuple[float, float]],
    grid: SamplingGrid,
    tol: float,
) -> VerificationReport:
    """The one-parameter law E(r)(E(s)(x)) = E(s+r)(x) for each (s, r) in
    `pairs`: `composition_check` with outer time r and inner time s, under
    this check's name."""
    report = composition_check(op, [(r, s) for s, r in pairs], grid, tol)
    return replace(report, suite=f"one-time-law[{op.name}]")


def two_time_law_check(
    op: EvolutionOp,
    triples: Sequence[tuple[float, float, float]],
    grid: SamplingGrid,
    tol: float,
) -> VerificationReport:
    """Max gap of E(s,r)(E(t,s)(y)) against E(t,r)(y), plus the inverse
    identities E(t,s)∘E(s,t) = id = E(s,t)∘E(t,s) wherever the forward leg
    stays inside the operator's region. The law is `actions.tally_law` on
    the closed form's `on_domain` leg, keyed by the pairs of times; each
    unordered pair {t, s} of distinct times in the triples then gives its
    two identities once per grid point, their backward leg on the domain
    and their forward leg on the region (`SmoothMap.on_region`). Both feed
    one `report.Tally`, which sets the witnesses and the inconclusive
    verdict."""
    on = op.closed_form.on_domain
    tally = Tally(tol)
    tally_law(tally, on, [((t, s, r), (t, s), (s, r), (t, r)) for t, s, r in triples], grid)
    inverse_pairs = {}
    for t, s, _ in triples:
        if t != s:
            inverse_pairs.setdefault(frozenset((t, s)), (t, s))
    forward = op.closed_form.on_region(op.region)
    for t, s in inverse_pairs.values():
        for x in grid.points():
            for a, b in ((t, s), (s, t)):
                fwd = forward(a, b, *x)
                back = None if fwd is None else on(b, a, *fwd)
                if back is None:
                    tally.skip()
                elif tally.add(deviation(back, x)):
                    tally.witness((a, b, *x), back, "inverse identity")
    return tally.report(f"two-time-law[{op.name}]", grid.summary())


# ---------------------------------------------------------------------------
# recovering the two-time operator from one slice


# The slice equation is solved for z in [SEARCH_LO, SEARCH_HI], to ROOT_TOL.
# A root outside it is sought by doubling the end past which it lies, at
# most SEARCH_DOUBLINGS times: to |z| = 50 * 2**40, about 5.5e13.
SEARCH_LO = -50.0
SEARCH_HI = 50.0
SEARCH_DOUBLINGS = 40
ROOT_TOL = 1e-12


@dataclass
class RecoveryResult:
    value: float
    ystar: float
    condition: float


def _widen_rising(
    f: Callable[[float], float], df: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """[lo, hi], on which f rises, widened until f changes sign on it.

    The end past which the root lies doubles, at most SEARCH_DOUBLINGS
    times. Where the slope df turns between an end and its double, the
    rising piece ends at the fold, found by bisection, and the widening
    stops there: past the fold lies the other branch.
    """
    for _ in range(SEARCH_DOUBLINGS):
        if f(hi) < 0.0:
            end = 2.0 * hi
            if not df(end) > 0.0:
                return lo, bisect(df, hi, end, tol=ROOT_TOL)
            hi = end
        elif f(lo) > 0.0:
            end = 2.0 * lo
            if not df(end) > 0.0:
                return bisect(df, end, lo, tol=ROOT_TOL), hi
            lo = end
        else:
            break
    return lo, hi


def recover_evolution_detailed(op: EvolutionOp, t: float, s: float, y: float) -> RecoveryResult:
    """E(t,s)(y) from the operator's slice tau -> E(0, tau), by root finding.

    Solves slice(t, y*) = y for y* on the bounded branch, then returns
    slice(s, y*). Between two zeros of the slope d/dz slice(t, z) the slice
    is monotone, so on each piece a sign change brackets its only root
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).
    The slope of both worked examples is affine in z (1, and
    1 + 2*sqrt(t)*z), so one bisection splits the search interval at the
    fold, and only when the slope changes sign between its ends. At the
    origin E(0,0) is the identity, with slope 1, and the bounded branch
    keeps that sign: its root lies on the rising piece, found by bisection
    and polished by Newton on the exact slope. Where the slope does not
    turn on the search interval and the slice does not reach y there, the
    interval widens (`_widen_rising`). The condition number is 1/|slope|
    at the root; it blows up at the fold, where the root becomes double.
    Raises RootSearchError when the rising piece holds no root.
    """
    value_at, slope_at = op.slice
    df = partial(slope_at, t)
    f = lambda z: value_at(t, z) - y  # noqa: E731

    lo, hi = SEARCH_LO, SEARCH_HI
    rising_hi = df(hi) > 0.0
    if (df(lo) > 0.0) != rising_hi:
        fold = bisect(df, lo, hi, tol=ROOT_TOL)
        lo, hi = (fold, hi) if rising_hi else (lo, fold)
    elif not rising_hi:
        raise RootSearchError(f"the slice falls on all of [{lo!r}, {hi!r}]")
    else:
        lo, hi = _widen_rising(f, df, lo, hi)
    ystar = hybrid_root(f, df, lo, hi, tol=ROOT_TOL)
    slope = df(ystar)
    return RecoveryResult(
        value=value_at(s, ystar),
        ystar=ystar,
        condition=math.inf if slope == 0.0 else 1.0 / abs(slope),
    )


def recover_evolution(op: EvolutionOp, t: float, s: float, y: float) -> float:
    return recover_evolution_detailed(op, t, s, y).value


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
    ys, through its map; a time off the closed form's domain raises the
    tree walk's error there."""
    m = action.map
    return [deviation(state, m(tau, *ys)) for tau, state in zip(traj.times, zip(*traj.columns))]


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
        witnesses.append(Witness((tau,), (*state, *action.map(tau, *ys))))
    return VerificationReport.from_deviations(
        f"flow-vs-closed-form[{action.name}]",
        len(devs),
        max_dev,
        tol,
        f"{traj.steps} steps, {spacing} mesh, eps_start={eps_start:g}",
        witnesses,
        inconclusive=estimate > target and not stalled,
        notes=tuple(notes),
    )
