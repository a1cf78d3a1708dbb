"""Reduction to autonomous form, RK4 flows, operator laws, recovery."""

from __future__ import annotations

import hashlib
import math
import re
import tempfile
from array import array
from functools import partial
from sys import getsizeof
from typing import Callable

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semiflow import reduction
from semiflow.actions import TimeAction, composition_check
from semiflow.cli import FLOW_SYSTEMS
from semiflow.enforcing import cuberoot_group_action, sqrt_action
from semiflow.expr import (
    Binary,
    Const,
    EvalDomainError,
    ExprError,
    Unary,
    Var,
    compile_expr,
    compile_system,
    neg,
    parse_expr,
    substitute_many,
)
from semiflow.grids import Axis, SamplingGrid, grid1d, grid2d
from semiflow.maps import SmoothMap, map_from_exprs, region_test
from semiflow.reduction import (
    FLOW_MAX_STEPS,
    FLOW_START_STEPS,
    FLOW_TARGET_RATIO,
    EvolutionOp,
    IntegrationError,
    OdeSystem,
    Trajectory,
    augment_system,
    first_component_check,
    flow_vs_closed_form,
    gls_one_time_op,
    gls_two_time_op,
    integrate_flow,
    one_time_law_check,
    quadratic_one_time_op,
    quadratic_system,
    quadratic_two_time_op,
    recover_evolution,
    recover_evolution_detailed,
    two_time_law_check,
)
from semiflow.reduction import _time_mesh  # the reference loop's mesh
from semiflow.rootfind import RootSearchError
from semiflow.enforcing import cuberoot_ode_system, sqrt_ode_system
from semiflow.suites import SuiteConfig, suite_flow_oracle


class TestOdeSystemShape:
    def test_a_map_of_another_shape_is_rejected(self):
        with pytest.raises(ValueError, match=r"R\^l -> R\^l or R\^\(l\+1\) -> R\^l; got 3 -> 1$"):
            OdeSystem("bad", map_from_exprs(("t", "y", "z"), ["y"]))

    def test_dimension_and_autonomy_are_read_from_the_map(self):
        rotation = OdeSystem("rotation", map_from_exprs(("x", "u"), ["-u", "x"]))
        forced = OdeSystem("forced", map_from_exprs(("s", "x", "u"), ["-u", "x + s"]))
        assert (rotation.dim, rotation.autonomous) == (2, True)
        assert (forced.dim, forced.autonomous) == (2, False)
        assert augment_system(forced).autonomous and augment_system(forced).dim == 3


class TestAugmentation:
    def test_quadratic_rhs(self):
        aug = augment_system(quadratic_system())
        assert aug.autonomous and aug.dim == 2
        # F_A(tau, y) = (1, 2*tau)
        assert aug.rhs(3.0, 7.0) == (1.0, 6.0)

    def test_zero_rhs(self):
        sys0 = OdeSystem("flat", map_from_exprs(("t", "y"), ["0"]))
        assert augment_system(sys0).rhs(5.0, 2.0) == (1.0, 0.0)

    def test_sqrt_rhs_renames_time_into_state(self):
        aug = augment_system(sqrt_ode_system("minus"))
        tau, y = 0.25, 1.5
        one, slope = aug.rhs(tau, y)
        assert one == 1.0
        # same value as the non-autonomous RHS at (t, y) = (tau, y)
        want = sqrt_ode_system("minus").rhs(tau, y)[0]
        assert slope == want

    def test_only_nonautonomous_accepted(self):
        with pytest.raises(ValueError):
            augment_system(cuberoot_ode_system())

    def test_validity_lifts_to_state(self):
        aug = augment_system(sqrt_ode_system("minus"))
        assert aug.valid_at(0.0, (1.0, 1.0))
        assert not aug.valid_at(0.0, (-1.0, 1.0))


class TestIntegrateFlow:
    def test_quadratic_example(self):
        # dY/dt = 2t from (t0, y0) = (0, 5): Y(2) = t^2 - t0^2 + y0 = 9
        traj = integrate_flow(quadratic_system(), 0.0, (5.0,), 2.0, 100)
        assert traj.final()[0] == pytest.approx(9.0, abs=1e-9)

    def test_constant_for_zero_rhs(self):
        sys0 = OdeSystem("flat", map_from_exprs(("t", "y"), ["0"]))
        traj = integrate_flow(sys0, 0.0, (3.5,), 1.0, 50)
        assert all(state == (3.5,) for state in zip(*traj.columns))

    def test_augmented_first_coordinate_tracks_time(self):
        aug = augment_system(quadratic_system())
        traj = integrate_flow(aug, 0.0, (0.0, 5.0), 2.0, 200)
        for tau, state in zip(traj.times, zip(*traj.columns)):
            assert abs(state[0] - tau) <= 1e-12

    def test_augmented_singular_run_matches_closed_form(self):
        # start on the closed form at t = 1e-6 and ride the augmented system to t = 1
        action = sqrt_action()
        eps = 1e-6
        aug = augment_system(sqrt_ode_system("minus"))
        traj = integrate_flow(
            aug, 0.0, (eps, action.call1(eps, 1.0)), 1.0, 100_000,
            eps_start=eps, spacing="geometric",
        )
        t_end, y_end = traj.final()
        assert t_end == pytest.approx(1.0, abs=1e-12)
        assert y_end == pytest.approx(2.0, rel=1e-5)

    def test_validity_exit_reports_time(self):
        drain = OdeSystem("drain", map_from_exprs(("y",), ["-1"]), region=((Var("y"), ">"),))
        with pytest.raises(IntegrationError) as err:
            integrate_flow(drain, 0.0, (1.0,), 2.0, 100)
        assert 0.9 < err.value.time < 1.3

    def test_nonfinite_state_detected(self):
        blow = OdeSystem("blow", map_from_exprs(("y",), ["y^2"]))
        with pytest.raises(IntegrationError):
            integrate_flow(blow, 0.0, (1.0,), 2.0, 40)

    def test_geometric_mesh_needs_positive_start(self):
        with pytest.raises(ValueError):
            integrate_flow(quadratic_system(), 0.0, (1.0,), 1.0, 10, spacing="geometric")

    def test_forward_only(self):
        with pytest.raises(ValueError):
            integrate_flow(quadratic_system(), 1.0, (1.0,), 0.5, 10)

    def test_rhs_domain_error_reports_time(self):
        sys_sq = sqrt_ode_system("minus")
        with pytest.raises(IntegrationError):
            # starting exactly at the t=0 singularity is invalid
            integrate_flow(sys_sq, 0.0, (1.0,), 1.0, 10)


def _csv_text(traj: Trajectory) -> str:
    with tempfile.TemporaryDirectory() as work:
        path = f"{work}/f.csv"
        traj.write_csv(path)
        with open(path, encoding="ascii", newline="") as fh:
            return fh.read()


class TestTrajectory:
    def test_csv_format(self):
        traj = integrate_flow(quadratic_system(), 0.0, (5.0,), 1.0, 4)
        lines = _csv_text(traj).strip().split("\n")
        assert lines[0] == "t,y1"
        assert len(lines) == 6
        t_back, y_back = (float(v) for v in lines[-1].split(","))
        assert t_back == traj.times[-1] and y_back == traj.final()[0]

    def test_strictly_increasing_times_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(array("d", [0.0, 0.0]), (array("d", [1.0, 1.0]),), 1, 0.0, "uniform")

    @pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [math.nan, 1.0], [0.0, math.nan]])
    def test_a_nan_time_is_not_increasing(self, times):
        # every comparison with NaN is false, so `b <= a` let these through
        column = array("d", [1.0] * len(times))
        with pytest.raises(ValueError, match="increase strictly"):
            Trajectory(array("d", times), (column,), len(times) - 1, 0.0, "uniform")

    def test_every_column_has_one_value_per_time(self):
        with pytest.raises(ValueError, match="one value per time"):
            Trajectory(array("d", [0.0, 1.0]), (array("d", [1.0]),), 1, 0.0, "uniform")

    @given(st.lists(st.tuples(st.floats(), st.floats(), st.integers(-10, 10)), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_csv_rows_match_per_value_formatting(self, rows):
        # inf, nan, signed zeros, subnormals and int entries included
        times = [float(k) for k in range(len(rows))]
        columns = tuple(array("d", column) for column in zip(*rows))
        traj = Trajectory(array("d", times), columns, len(rows) - 1, 0.0, "uniform")
        want = "t,y1,y2,y3\n" + "".join(
            ",".join(f"{v:.17g}" for v in (t, *y)) + "\n" for t, y in zip(times, rows)
        )
        assert _csv_text(traj) == want


@pytest.mark.parametrize("rows", [1, reduction._CSV_BLOCK - 1, reduction._CSV_BLOCK,
                                  reduction._CSV_BLOCK + 1, 2 * reduction._CSV_BLOCK + 1])
def test_csv_blocks_write_every_row_once(rows):
    times = array("d", (0.5 * k for k in range(rows)))
    columns = (array("d", (-1.0 / (k + 1) for k in range(rows))), array("d", range(rows)))
    want = "t,y1,y2\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in zip(times, *columns)
    )
    assert _csv_text(Trajectory(times, columns, rows - 1, 0.0, "uniform")) == want


@pytest.mark.parametrize("name,y0,t_end,eps,spacing", [
    ("sqrt-ode-minus", (1.0001,), 1.0, 1e-8, "geometric"),
    ("quadratic-augmented", (0.0, 1.25), 2.0, 0.0, "uniform"),
])
def test_flow_columns_are_arrays_of_the_reference_states(name, y0, t_end, eps, spacing):
    sys = FLOW_SYSTEMS[name]()
    traj = integrate_flow(sys, 0.0, y0, t_end, 300, eps, spacing)
    assert len(traj.columns) == traj.dim == sys.dim
    for column in traj.columns:
        assert type(column) is array and column.typecode == "d" and len(column) == 301
    times, states = _reference_rk4(sys, 0.0, y0, t_end, 300, eps, spacing)
    assert list(traj.times) == times
    assert list(zip(*traj.columns)) == states


# sha256 of the CSV bytes of five runs: the first three taken from the
# plain RK4 loop over tuples, the last two from the kernel that called the
# right-hand side's compiled lambda once per stage
_GOLDEN_Y = 1.25
GOLDEN_RUNS = [
    ("sqrt-ode-minus", (_GOLDEN_Y + math.sqrt(1e-8) * _GOLDEN_Y * _GOLDEN_Y,), 1.0, 3000, 1e-8, "geometric",
     "481cda675a3e219329b2efd507eba9c5256d20701610686889dbec16993ed860"),
    ("quadratic-augmented", (0.0, _GOLDEN_Y), 2.0, 2000, 0.0, "uniform",
     "c8c278b8ebd7c7c54dc3cf4e58c4cc59a36a55a16fe7bf800a7592cdd37f3ba6"),
    ("cuberoot-ode", (1.0,), 1.0, 2000, 0.0, "uniform",
     "2ecd4522454bfb6d579153c54f0ceedad50291420197ffe05b7bb04f720c3cb5"),
    # y = -3 lies on the plus branch from t = 1/36 on; H(1/4, -3) = 1.5
    ("sqrt-ode-plus", (1.5,), 1.0, 2000, 0.25, "geometric",
     "80e9cbb67fda76f1f31fe0fc8b4841ba476999904e8438972e97bbac4b66c239"),
    ("quadratic", (_GOLDEN_Y,), 2.0, 2000, 0.0, "uniform",
     "86fb4dc4e6d58f7d19fbace82c58ad350d1a106246da2465eea9c3ca4532339a"),
]


@pytest.mark.parametrize("name,y0,t_end,steps,eps,spacing,digest", GOLDEN_RUNS,
                         ids=[run[0] for run in GOLDEN_RUNS])
def test_trajectory_csv_bytes_are_pinned(tmp_path, name, y0, t_end, steps, eps, spacing, digest):
    traj = integrate_flow(FLOW_SYSTEMS[name](), 0.0, y0, t_end, steps, eps, spacing)
    out = tmp_path / "f.csv"
    traj.write_csv(str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _reference_rk4(sys, t_start, y0, t_end, steps, eps_start, spacing):
    """Classical RK4 as a plain loop over tuples, one lambda per component."""
    comps = [compile_expr(c, sys.rhs.inputs) for c in sys.rhs.outputs]
    autonomous = sys.autonomous

    def f(t, y):
        args = y if autonomous else (t, *y)
        return tuple(c(*args) for c in comps)

    a = t_start + eps_start
    if not sys.valid_at(a, y0):
        raise IntegrationError("RHS invalid at the starting point", a)
    mesh = _time_mesh(a, t_end, steps, spacing)
    y = tuple(float(v) for v in y0)
    times, states = [mesh[0]], [y]
    for k in range(steps):
        t0, t1 = mesh[k], mesh[k + 1]
        h = t1 - t0
        tm = t0 + 0.5 * h
        try:
            k1 = f(t0, y)
            k2 = f(tm, tuple(v + 0.5 * h * d for v, d in zip(y, k1)))
            k3 = f(tm, tuple(v + 0.5 * h * d for v, d in zip(y, k2)))
            k4 = f(t1, tuple(v + h * d for v, d in zip(y, k3)))
        except EvalDomainError as err:
            raise IntegrationError(f"RHS domain error: {err}", t0) from err
        y = tuple(
            v + (h / 6.0) * (a1 + 2.0 * (a2 + a3) + a4)
            for v, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)
        )
        if not all(math.isfinite(v) for v in y):
            raise IntegrationError("state became nonfinite", t1)
        if not sys.valid_at(t1, y):
            raise IntegrationError("state left the validity region", t1)
        times.append(t1)
        states.append(y)
    return times, states


_LEAF_CONSTANTS = st.sampled_from([-1.0, 0.5, 2.0]).map(Const)


def _extend_rhs(children):
    pair = st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), children, children)
    return st.one_of(
        pair.map(lambda oab: Binary(*oab)),
        st.tuples(children, st.sampled_from([2.0, 3.0, -1.0])).map(
            lambda ae: Binary("pow", ae[0], Const(ae[1]))
        ),
        children.map(neg),
        *(children.map(partial(Unary, op)) for op in ("sqrt", "log", "exp", "sin")),
    )


# input names of the drawn systems: the usual ones, and names that the RK4
# kernel would own if its locals and globals did not all start with "_"
_KERNEL_LIKE_NAMES = ("h", "hh", "tm", "h6", "k", "size", "mesh", "validity", "inside", "times",
                      "t0", "t1", "err", "array", "iter", "next", "len", "isfinite", "rk4",
                      "ka0", "y0", "col0", "c0", "s0")
_INPUT_NAMES = st.sampled_from(("t", "y", "y1", "y2", "y3") + _KERNEL_LIKE_NAMES)


# right-hand-side trees over the placeholder inputs _p0, ..., one strategy
# per arity, built once: `_flow_cases` renames the placeholders to the
# drawn input names
_PLACEHOLDERS = tuple(f"_p{i}" for i in range(4))
_TREES = {
    arity: st.recursive(
        _LEAF_CONSTANTS | st.sampled_from(_PLACEHOLDERS[:arity]).map(Var), _extend_rhs, max_leaves=4
    )
    for arity in range(1, 5)
}
_CONSTANT_TREES = st.recursive(_LEAF_CONSTANTS, _extend_rhs, max_leaves=4)


@st.composite
def _flow_cases(draw):
    dim = draw(st.integers(1, 3))
    autonomous = draw(st.booleans())
    arity = dim if autonomous else dim + 1
    inputs = tuple(draw(st.lists(_INPUT_NAMES, min_size=arity, max_size=arity, unique=True)))
    trees = _TREES[arity]
    names = {p: Var(name) for p, name in zip(_PLACEHOLDERS, inputs)}
    # a subtree that recurs in every output, as sqrt(t) does in the sqrt
    # ODE: it stands for each occurrence of the first input (time, when
    # there is one). Drawn over every input, over the first input alone
    # (the kernel computes a subtree of the time alone once per mesh time)
    # or over constants alone (once per run)
    common = draw(st.one_of(
        trees.map(partial(substitute_many, mapping=names)),
        _TREES[1].map(partial(substitute_many, mapping={_PLACEHOLDERS[0]: Var(inputs[0])})),
        _CONSTANT_TREES,
    ))
    outputs = tuple(
        substitute_many(draw(trees), {**names, _PLACEHOLDERS[0]: common}) for _ in range(dim)
    )
    # a region |y1| < bound on the first state variable, or none; the region
    # may also test common - common >= 0, which holds where common is finite
    # and reads the value the stages computed where common has no state
    bound = draw(st.none() | st.floats(0.5, 20.0))
    first = Var(inputs[0 if autonomous else 1])
    region = () if bound is None else ((bound - first, ">"), (bound + first, ">"))
    if draw(st.booleans()):
        region += ((common - common, ">="),)
    sys = OdeSystem("random", SmoothMap(inputs, outputs), region)
    spacing = draw(st.sampled_from(["uniform", "geometric"]))
    t_start = draw(st.floats(0.01, 1.0) if spacing == "geometric" else st.floats(-1.0, 1.0))
    t_end = t_start + draw(st.floats(0.1, 3.0))
    y0 = tuple(draw(st.floats(-4.0, 4.0)) for _ in range(dim))
    return sys, t_start, y0, t_end, draw(st.integers(1, 30)), spacing


def _flow_outcome(run, *args):
    try:
        times, states = run(*args)
    except IntegrationError as err:
        return ("error", str(err), repr(err.time))
    except ValueError as err:
        # sin/cos of an infinite argument raise ValueError from libm, a
        # known defect of the expression engine: both runs must raise it
        return ("raised", type(err).__name__, str(err))
    return ("ok", [repr(t) for t in times], [tuple(repr(v) for v in y) for y in states])


def _kernel_run(sys, t_start, y0, t_end, steps, eps_start, spacing):
    traj = integrate_flow(sys, t_start, y0, t_end, steps, eps_start, spacing)
    return traj.times, list(zip(*traj.columns))


_BLOW_UP = OdeSystem("blow-up", map_from_exprs(("y1", "y2"), ["y1*y1*y1*y2", "y2*y1"]))
_DRAIN = OdeSystem(
    "drain", map_from_exprs(("t", "y1", "y2", "y3"), ["-1 - t", "y3", "-y2"]),
    region=((Var("y1"), ">"),),
)
# sqrt(y) raises EvalDomainError once y < 0: off the region, not an error
_SQRT_DRAIN = OdeSystem("sqrt-drain", map_from_exprs(("y",), ["-1"]), ((parse_expr("sqrt(y)"), ">="),))
# a subtree of the time alone that raises from t = 0.7 on, and one that
# raises at every t > 0; and a subtree of constants alone that always raises
_SQRT_CLOSING = OdeSystem("sqrt-closing", map_from_exprs(("t", "y"), ["y*sqrt(0.7 - t) - 1"]))
_SQRT_NEGATIVE_TIME = OdeSystem("sqrt-negative-time", map_from_exprs(("t", "y"), ["y + sqrt(-t)"]))
_SQRT_NEGATIVE_CONSTANT = OdeSystem(
    "sqrt-negative-constant", SmoothMap(("y",), (Var("y") * Unary("sqrt", Const(-1.0)),))
)


@given(_flow_cases())
@settings(max_examples=200, deadline=None)
@example((_BLOW_UP, 0.0, (2.0, 1.0), 3.0, 30, "uniform"))  # a non-finite state
@example((_DRAIN, 0.5, (1.0, 0.0, 1.0), 3.0, 25, "geometric"))  # a validity exit
@example((_SQRT_DRAIN, 0.0, (1.0,), 2.0, 4, "uniform"))  # a region test that raises
# the time part raises first at a step's midpoint (0.75), at a step's end
# (0.75) and at the mesh's start (0.5); the constant part at the start
@example((_SQRT_CLOSING, 0.0, (1.0,), 1.0, 2, "uniform"))
@example((_SQRT_CLOSING, 0.0, (1.0,), 1.0, 4, "uniform"))
@example((_SQRT_NEGATIVE_TIME, 0.5, (1.0,), 1.0, 3, "geometric"))
@example((_SQRT_NEGATIVE_CONSTANT, 0.0, (1.0,), 1.0, 3, "uniform"))
def test_generated_kernel_matches_the_plain_loop(case):
    sys, t_start, y0, t_end, steps, spacing = case
    args = (sys, t_start, y0, t_end, steps, 0.0, spacing)
    assert _flow_outcome(_kernel_run, *args) == _flow_outcome(_reference_rk4, *args)


@pytest.mark.parametrize("name", _KERNEL_LIKE_NAMES)
def test_inputs_named_like_kernel_internals_integrate_as_the_plain_loop(name):
    # each name as the time input and as a state input, read by every output
    systems = [
        OdeSystem("named-time", map_from_exprs((name, "u"), [f"u*{name} - sqrt({name})"])),
        OdeSystem(
            "named-state", map_from_exprs(("u", name), [f"-{name}", f"u - 0.25*{name}*{name}"])
        ),
    ]
    for sys in systems:
        args = (sys, 0.5, (1.25,) * sys.dim, 2.0, 40, 0.0, "uniform")
        outcome = _flow_outcome(_kernel_run, *args)
        assert outcome[0] == "ok"
        assert outcome == _flow_outcome(_reference_rk4, *args)


@pytest.mark.parametrize("name,y0,spacing,eps", [
    ("sqrt-ode-minus", (1.0001,), "geometric", 1e-8),
    ("quadratic-augmented", (0.0, 1.25), "uniform", 0.0),
])
def test_mesh_and_columns_are_allocated_once_at_their_length(name, y0, spacing, eps):
    steps = 1000
    traj = integrate_flow(FLOW_SYSTEMS[name](), 0.0, y0, 1.0, steps, eps, spacing)
    exact = getsizeof(array("d", [0.0]) * (steps + 1))
    assert getsizeof(traj.times) == exact
    assert [getsizeof(column) for column in traj.columns] == [exact] * len(y0)


def test_one_kernel_per_right_hand_side():
    reduction._rk4_kernel.cache_clear()
    for build in (quadratic_system, quadratic_system, quadratic_system, sqrt_ode_system):
        integrate_flow(build(), 0.0, (1.0,), 1.0, 10, 0.5, "uniform")
    # the same system twice and a rebuilt equal one share a kernel
    info = reduction._rk4_kernel.cache_info()
    assert (info.misses, info.hits) == (2, 2)


@pytest.mark.parametrize("steps", [1, 7, 300])
def test_the_sqrt_ode_kernel_takes_six_square_roots_a_step(monkeypatch, steps):
    # sqrt(t) once per mesh time: at the start, then at each step's midpoint
    # and end; sqrt(1 + 4*sqrt(t)*y) once per stage; none in the region test
    calls = 0

    def counting_sqrt(x):
        nonlocal calls
        calls += 1
        return math.sqrt(x)

    monkeypatch.setitem(reduction._RK4_NS, "_sqrt", counting_sqrt)
    reduction._rk4_kernel.cache_clear()
    try:
        integrate_flow(FLOW_SYSTEMS["sqrt-ode-minus"](), 0.0, (1.0001,), 1.0, steps, 1e-8, "geometric")
    finally:
        reduction._rk4_kernel.cache_clear()
    assert calls == 6 * steps + 1


def test_repeated_input_names_are_rejected():
    with pytest.raises(ExprError, match="repeat"):
        compile_system((parse_expr("t*t"),), ("t", "t"))
    twice = OdeSystem("twice", map_from_exprs(("t", "t"), ["t"]))
    with pytest.raises(ExprError, match="repeat"):
        integrate_flow(twice, 0.0, (1.0,), 1.0, 4)


def test_initial_state_must_match_the_dimension():
    with pytest.raises(ValueError, match="needs 2 initial values"):
        integrate_flow(augment_system(quadratic_system()), 0.0, (1.0,), 1.0, 10)


class TestEvolutionOps:
    def test_one_time_identity(self):
        op = quadratic_one_time_op()
        assert op(0.0, (2.0, 3.0)) == (2.0, 3.0)
        gls = gls_one_time_op()
        t, y = 0.7, 2.5
        out = gls(0.0, (t, y))
        assert out[0] == t and out[1] == pytest.approx(y, abs=1e-12)

    def test_two_time_identity(self):
        assert quadratic_two_time_op().closed_form(1.5, 1.5, 4.0) == (4.0,)
        got = gls_two_time_op().closed_form(1.0, 1.0, 6.0)[0]
        assert got == pytest.approx(6.0, abs=1e-10)

    def test_nonneg_domain_enforced(self):
        with pytest.raises(EvalDomainError):
            gls_one_time_op()(-0.5, (0.0, 1.0))
        with pytest.raises(EvalDomainError):
            gls_two_time_op().closed_form(-1.0, 1.0, 0.0)
        with pytest.raises(EvalDomainError):
            gls_two_time_op().closed_form(1.0, -1.0, 0.0)

    def test_quadratic_evolution_spots(self):
        op = quadratic_one_time_op()
        assert op(1.0, (2.0, 3.0)) == (3.0, 8.0)
        mid = op(1.0, (0.0, 1.0))
        assert op(2.0, mid) == op(3.0, (0.0, 1.0)) == (3.0, 10.0)


# ---------------------------------------------------------------------------
# the square-root evolution as hand-written float formulas: a reference
# independent of the expression engine. The closed forms do its arithmetic in
# its order, so the two agree bit for bit wherever both are defined.


def ystar_branch(t: float, y: float) -> float:
    """The root of z + sqrt(t)*z^2 = y that stays bounded (-> y) as t -> 0+."""
    if t < 0.0:
        raise EvalDomainError("ystar needs t >= 0")
    st_ = math.sqrt(t)
    radicand = 1.0 + 4.0 * st_ * y
    if radicand < 0.0:
        if radicand < -1e-9 * (1.0 + abs(4.0 * st_ * y)):
            raise EvalDomainError(f"negative radicand {radicand!r}")
        radicand = 0.0  # rounding at the fold boundary
    return 2.0 * y / (1.0 + math.sqrt(radicand))


def gls_two_time(t: float, s: float, y: float) -> float:
    """E(t,s)(y) = y* + sqrt(s)*y*^2 with y* = ystar_branch(t, y)."""
    if s < 0.0:
        raise EvalDomainError("gls_two_time needs s >= 0")
    ys = ystar_branch(t, y)
    return ys + math.sqrt(s) * ys * ys


def gls_slice(t: float, z: float) -> float:
    """The fixed-origin slice E(0,t)(z) = z + sqrt(t)*z^2."""
    if t < 0.0:
        raise EvalDomainError("slice needs t >= 0")
    return z + math.sqrt(t) * z * z


class TestGlsClosedForm:
    def test_slice_value(self):
        assert gls_two_time_op().closed_form(0.0, 1.0, 2.0) == (6.0,) == (gls_slice(1.0, 2.0),)

    def test_two_step_value(self):
        (got,) = gls_two_time_op().closed_form(1.0, 4.0, 6.0)
        assert got == pytest.approx(10.0, rel=1e-14)

    def test_self_evolution_is_identity(self):
        (got,) = gls_two_time_op().closed_form(1.0, 1.0, 6.0)
        assert got == pytest.approx(6.0, rel=1e-14)

    def test_ystar_examples(self):
        # the root recovery finds is the bounded one
        op = gls_two_time_op()
        assert recover_evolution_detailed(op, 1.0, 0.0, 6.0).ystar == pytest.approx(2.0, rel=1e-14)
        assert recover_evolution_detailed(op, 1.0, 0.0, 0.0).ystar == 0.0
        assert recover_evolution_detailed(op, 1e-12, 0.0, 3.0).ystar == pytest.approx(3.0, abs=1e-5)

    def test_negative_radicand_rejected(self):
        with pytest.raises(EvalDomainError):
            gls_two_time_op().closed_form(1.0, 1.0, -1.0)

    def test_negative_times_rejected(self):
        with pytest.raises(EvalDomainError):
            gls_two_time_op().closed_form(-1.0, 1.0, 0.5)
        with pytest.raises(EvalDomainError):
            gls_two_time_op().closed_form(1.0, -1.0, 0.5)

    def test_inverse_identities_on_branch(self):
        # E(t,s) inverts E(s,t) while the bounded branch survives
        op = gls_two_time_op()
        for t, s, y in ((1.0, 4.0, 2.0), (0.25, 2.25, 1.5), (2.0, 0.5, 0.3)):
            mid = op.closed_form(s, t, y)
            assert op.closed_form(t, s, *mid)[0] == pytest.approx(y, rel=1e-10)

    @given(st.floats(0.0, 9.0), st.floats(0.0, 9.0), st.floats(-10.0, 10.0))
    @settings(max_examples=300)
    @example(1.0, 2.0, -0.25)  # a zero radicand: the fold itself
    @example(0.5, 1.0, -0.35355339059327373)  # a zero radicand off a round time
    @example(0.5, 1.0, -0.3535533905932738)  # radicand -2.2e-16, which ystar_branch clamps
    def test_closed_forms_equal_their_references(self, t, s, y):
        # the expression-backed operators do the references' arithmetic in
        # their order, so they agree bit for bit wherever they are defined
        one, two = gls_one_time_op(), gls_two_time_op()
        if 1.0 + 4.0 * math.sqrt(t) * y >= 0.0:
            assert one(s, (t, y)) == (t + s, gls_two_time(t, t + s, y))
            assert two.closed_form(t, s, y) == (gls_two_time(t, s, y),)
        else:
            with pytest.raises(EvalDomainError):
                one(s, (t, y))
            with pytest.raises(EvalDomainError):
                two.closed_form(t, s, y)
        assert quadratic_one_time_op()(s, (t, y)) == (t + s, s * s + 2.0 * s * t + y)
        assert quadratic_two_time_op().closed_form(t, s, y) == (s * s - t * t + y,)

    @given(st.floats(-1.0, 9.0), st.floats(-1.0, 9.0), st.floats(-10.0, 10.0))
    @settings(max_examples=300)
    @example(1.0, 2.0, -0.25)  # a zero radicand: the fold itself
    @example(0.5, 1.0, -0.35355339059327373)  # a zero radicand off a round time
    @example(0.5, 1.0, -0.3535533905932738)  # radicand -2.2e-16, which ystar_branch clamps
    @example(1.0, 0.5, -0.25)  # the fold at t0 > t1, where the inverse region tests t0's branch
    @example(0.5, 1.0, 0.0)  # y = 0, off the cube-root system's region
    @example(0.0, 1.0, 1.0)  # t = 0, off the sqrt system's region
    def test_branch_predicate_is_the_old_conjunction(self, t, s, y):
        def valid_state(t, y):  # the closed form's domain: t >= 0 and radicand >= 0
            return t >= 0.0 and 1.0 + 4.0 * math.sqrt(t) * y >= 0.0

        def bounded_root_at(target, t, y):  # E(t, target) keeps the bounded root
            try:
                ystar = ystar_branch(t, y)
            except EvalDomainError:
                return False
            return 1.0 + 2.0 * math.sqrt(target) * ystar >= 0.0

        def compiled(owner, inputs, leg, point):
            # the region's tests alone, and the leg of the map on its region,
            # defined wherever the region holds: both None exactly off it
            alone = region_test(inputs, owner.region)(*point) is not None
            assert (leg.on_region(owner.region)(*point) is not None) == alone
            return alone

        if s >= 0.0:
            # the one-time operator's region, at every time s >= 0
            one = gls_one_time_op()
            old = valid_state(t, y) and bounded_root_at(t + s, t, y)
            assert one.valid_at(s, (t, y)) == old
            assert compiled(one, one.map.inputs, one.map, (s, t, y)) == old
            # the two-time operator's inverse region, for t1 = s >= 0: the
            # old guard clamped a radicand just below 0 instead of testing
            # it, but there y* is -1/(2*sqrt(t)) and its branch test fails
            # as well
            two = gls_two_time_op()
            old_guard = bounded_root_at(max(t, s), t, y)
            assert compiled(two, two.closed_form.inputs, two.closed_form, (t, s, y)) == old_guard
        # the ODE systems' regions
        sqrt_ode = sqrt_ode_system("minus")
        assert sqrt_ode.valid_at(t, (y,)) == (t > 0.0 and 1.0 + 4.0 * math.sqrt(t) * y >= 0.0)
        assert cuberoot_ode_system().valid_at(t, (y,)) == (y != 0.0)

    @given(
        st.floats(0.0, 4.0, allow_nan=False),
        st.floats(-0.2, 5.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_ystar_solves_slice_equation(self, t, y):
        assume(1.0 + 4.0 * math.sqrt(t) * y >= 1e-6)
        z = ystar_branch(t, y)
        assert abs(z + math.sqrt(t) * z * z - y) <= 1e-12 * (1.0 + abs(y))

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(-0.2, 4.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_one_time_law_pointwise(self, t, s, r, y):
        op = gls_one_time_op()
        assume(op.valid_at(s, (t, y)))
        mid = op(s, (t, y))
        assume(op.valid_at(r, mid))
        lhs = op(r, mid)
        rhs = op(s + r, (t, y))
        scale = 1.0 + max(abs(v) for v in rhs)
        assert all(abs(a - b) <= 1e-11 * scale for a, b in zip(lhs, rhs))


class TestOperatorLaws:
    def test_first_component_exact(self):
        grid = SamplingGrid((Axis(0.0, 2.0, 5), Axis(0.0, 2.0, 5), Axis(-5.0, 5.0, 9)))
        rep = first_component_check(quadratic_one_time_op(), grid, 1e-12)
        assert rep.passed and rep.max_deviation == 0.0

    def test_first_component_keeps_the_first_eight_witnesses(self):
        # the first output is t + s + 1 everywhere: all 27 points fail
        op = TimeAction(
            "off-by-one", "full",
            map_from_exprs(("s", "t", "y"), ["t + s + 1", "y"]),
        )
        grid = SamplingGrid((Axis(0.0, 2.0, 3), Axis(0.0, 2.0, 3), Axis(-1.0, 1.0, 3)))
        rep = first_component_check(op, grid, 1e-12)
        assert not rep.passed and rep.checked == 27
        assert [w.point for w in rep.witnesses] == list(grid.points())[:8]

    def test_quadratic_two_time_law(self):
        times = (0.0, 1.0, 2.0, 3.0)
        triples = [(t, s, r) for t in times for s in times for r in times]
        rep = two_time_law_check(quadratic_two_time_op(), triples, grid1d(-5.0, 5.0, 21), 1e-12)
        assert rep.passed

    def test_gls_one_time_law(self):
        pairs = [(s / 4.0, r / 4.0) for s in range(5) for r in range(5)]
        rep = one_time_law_check(
            gls_one_time_op(), pairs, grid2d(0.0, 1.0, 5, -0.2, 4.0, 41), 1e-9
        )
        assert rep.passed and rep.skipped == 0

    def test_gls_two_time_law_with_inverses(self):
        vals = (0.25, 1.0, 2.25)
        triples = [(t, s, r) for t in vals for s in vals for r in vals]
        rep = two_time_law_check(gls_two_time_op(), triples, grid1d(-0.1, 2.0, 22), 1e-9)
        assert rep.passed

    def test_nan_deviation_carries_a_witness(self):
        # E(s)(x) = x at s = 0 and NaN (inf - inf) for every s > 0
        op = TimeAction(
            "nan-op", "full",
            SmoothMap(("s", "x"), (parse_expr("x + (s*1e308*10 - s*1e308*10)"),)),
        )
        rep = one_time_law_check(op, [(1.0, 1.0)], grid1d(0.0, 1.0, 3), 1e-9)
        assert not rep.passed and math.isnan(rep.max_deviation)
        assert len(rep.witnesses) == 3
        # the report is composition_check's with outer time r and inner
        # time s; only its name differs
        pairs, grid = [(0.0, 1.0), (1.0, 0.0), (1.0, 2.0)], grid1d(0.0, 1.0, 3)
        rep = one_time_law_check(op, pairs, grid, 1e-9)
        comp = composition_check(op, [(r, s) for s, r in pairs], grid, 1e-9)
        assert rep.suite == "one-time-law[nan-op]" and comp.suite == "composition[nan-op]"
        assert rep.to_dict() == {**comp.to_dict(), "suite": rep.suite}
        assert rep.checked == 9 and rep.skipped == 0 and len(rep.witnesses) == 8
        assert rep.witnesses[0].point == (1.0, 0.0, 0.0)  # (r, s, x) of the first pair
        assert rep.witnesses[0].note == "H(t,H(s,y)) != H(t+s,y)"

    def test_fold_crossing_skip_counts(self):
        # grids that cross the fold: the branch region and the closed
        # form's own domain decide every skip. The two-time law has 27 * 30
        # points and 3 unordered pairs of times with 2 inverse identities
        # per grid point, 990 in all
        vals = (0.25, 1.0, 2.25)
        triples = [(t, s, r) for t in vals for s in vals for r in vals]
        rep = two_time_law_check(gls_two_time_op(), triples, grid1d(-0.9, 2.0, 30), 1e-9)
        assert (rep.checked, rep.skipped, rep.passed) == (776, 214, False)
        assert rep.max_deviation == pytest.approx(0.5926, abs=1e-4)
        times = [k / 4.0 for k in range(5)]
        pairs = [(s, r) for s in times for r in times]
        rep = one_time_law_check(gls_one_time_op(), pairs, grid2d(0.0, 1.0, 5, -1.5, 4.0, 56), 1e-9)
        assert (rep.checked, rep.skipped, rep.passed) == (5501, 1499, True)

    def test_beyond_fold_points_are_skipped_not_wrong(self):
        # y* < 0 with a large target time flips the bounded branch; the
        # operator's guard must exclude such inverse legs instead of
        # reporting a bogus deviation
        rep = two_time_law_check(
            gls_two_time_op(), [(0.25, 4.0, 0.25)], grid1d(-0.9, -0.5, 5), 1e-9
        )
        assert rep.passed or rep.inconclusive

    def test_non_extendability_of_the_evolution(self):
        # E_A(s) with s > 0 has no left inverse: two states on the t=0 slice
        # share an image, and first components only ever move forward
        op = gls_one_time_op()
        s = 1.0
        a = op(s, (0.0, 0.0))
        b = op(s, (0.0, -1.0))
        assert abs(a[0] - b[0]) <= 1e-15 and abs(a[1] - b[1]) <= 1e-12
        for u in (0.0, 0.5, 2.0):
            assert op(u, a)[0] >= a[0]


class TestRecovery:
    def test_quadratic_example(self):
        got = recover_evolution(quadratic_two_time_op(), 1.0, 2.0, 3.0)
        assert got == pytest.approx(6.0, abs=1e-12)

    def test_identity_when_times_equal(self):
        op = quadratic_two_time_op()
        for t, y in ((1.0, 3.0), (2.5, -4.0)):
            assert recover_evolution(op, t, t, y) == pytest.approx(y, abs=1e-12)

    def test_quadratic_grid_against_closed_form(self):
        op = quadratic_two_time_op()
        for t in (0.0, 0.5, 1.5, 3.0):
            for s in (0.0, 1.0, 2.0, 3.0):
                for y in (-5.0, -0.5, 0.0, 2.0, 5.0):
                    got = recover_evolution(op, t, s, y)
                    assert got == pytest.approx(s * s - t * t + y, rel=1e-9, abs=1e-9)

    def test_gls_slice_selects_bounded_branch(self):
        # z + z^2 = 6 has the roots 2 and -3; -3 lies past the fold z = -1/2
        res = recover_evolution_detailed(gls_two_time_op(), 1.0, 4.0, 6.0)
        assert res.ystar == pytest.approx(2.0, abs=1e-10)
        assert res.value == pytest.approx(10.0, rel=1e-10)

    def test_matches_two_time_closed_form(self):
        import random

        rng = random.Random(7)
        op = gls_two_time_op()
        for _ in range(100):
            t = rng.uniform(0.05, 2.0)
            s = rng.uniform(0.0, 2.0)
            y = rng.uniform(-0.9 / (4.0 * math.sqrt(t)), 4.0)
            got = recover_evolution(op, t, s, y)
            want = gls_two_time(t, s, y)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_no_root_in_range_raises(self):
        with pytest.raises(RootSearchError):
            # z + z^2 = -0.3 has no real root
            recover_evolution(gls_two_time_op(), 1.0, 2.0, -0.3)

    @pytest.mark.parametrize("y", [-49.0, 60.0, -240.0, 1e6])
    def test_roots_outside_the_search_interval_are_found(self, y):
        # at t = 1e-6 the fold lies at z = -500, and the slice crosses these
        # y outside [-50, 50]: the end past which the root lies doubles
        op, t = gls_two_time_op(), 1e-6
        res = recover_evolution_detailed(op, t, t, y)
        assert abs(res.ystar - ystar_branch(t, y)) <= 1e-12 * (1.0 + abs(y))
        (want,) = op.closed_form(t, t, y)
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_widening_stops_at_the_fold_and_at_its_cap(self):
        # below the fold value -1/(4*sqrt(t)) = -250 there is no root: the
        # left end doubles across the fold at -500 and stops there
        with pytest.raises(RootSearchError):
            recover_evolution(gls_two_time_op(), 1e-6, 1e-6, -260.0)
        # z = y on the quadratic slice: a root past 50 * 2**40 is not sought
        op = quadratic_two_time_op()
        assert recover_evolution(op, 0.0, 0.0, 5e13) == 5e13
        with pytest.raises(RootSearchError):
            recover_evolution(op, 0.0, 0.0, 6e13)

    def test_recovery_from_a_nonzero_origin_slice(self):
        # the quadratic operator seen from origin 1: its zero-origin slice
        # tau -> E(1, 1 + tau)(z) = (1 + tau)^2 - 1 + z carries the same
        # information as the original's slice from 0
        shifted = EvolutionOp(
            "quadratic-from-one",
            map_from_exprs(("t0", "t1", "y"), ["(1 + t1)*(1 + t1) - (1 + t0)*(1 + t0) + y"]),
        )
        for t, s, y in ((1.0, 2.0, 0.5), (-0.5, 1.5, -1.0), (0.0, 0.0, 4.0)):
            got = recover_evolution(shifted, t, s, y)
            assert got == pytest.approx((1 + s) ** 2 - (1 + t) ** 2 + y, abs=1e-9)

    def test_condition_number_blows_up_at_fold(self):
        # just above the fold value -1/(4*sqrt(2)) both roots lie within
        # 1e-4 of the fold z = -1/(2*sqrt(2)), inside one cell of a 256-point
        # scan of [-50, 50]; the split at the fold still brackets the bounded
        # one, and the condition number 1/|slope| records the nearly double root
        op = gls_two_time_op()
        t, y = 2.0, -1.0 / (4.0 * math.sqrt(2.0)) + 1e-8
        near = recover_evolution_detailed(op, t, t, y)
        assert abs(near.ystar - ystar_branch(t, y)) <= 1e-12
        assert near.condition > 1e3
        assert recover_evolution_detailed(op, t, t, 2.0).condition < 10.0

    # the slope at the root is sqrt(radicand) >= 1e-3, so the rounding of the
    # slice equation moves y* by up to ~1e3 ulps: on 2e5 random points, a third
    # of them within 10% of the fold value, recovery and reference were at
    # most 4.8e-13 apart
    @given(
        st.floats(0.0, 4.0, allow_nan=False),
        st.floats(0.0, 4.0, allow_nan=False),
        st.floats(-10.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    @example(2.0, 2.0, -1.0 / (4.0 * math.sqrt(2.0)) + 1e-6)  # radicand 4e-6 past the fold
    def test_recovery_matches_the_float_reference(self, t, s, y):
        assume(1.0 + 4.0 * math.sqrt(t) * y >= 1e-6)
        res = recover_evolution_detailed(gls_two_time_op(), t, s, y)
        ystar, value = ystar_branch(t, y), gls_two_time(t, s, y)
        assert abs(res.ystar - ystar) <= 1e-11 * (1.0 + abs(ystar))
        assert abs(res.value - value) <= 1e-11 * (1.0 + abs(value))

    def test_the_slice_is_compiled_once_per_operator(self, monkeypatch):
        op = gls_two_time_op()
        recover_evolution(op, 1.0, 2.0, 3.0)
        compiles = []
        monkeypatch.setattr(reduction, "compile_expr", lambda *args: compiles.append(args))
        for y in (-0.1, 0.5, 3.0):
            recover_evolution(op, 1.0, 2.0, y)
        assert compiles == []


def _mutant(name: str, text: str) -> Callable[[], EvolutionOp]:
    """A factory of the operator with closed form `text` in (t0, t1, y)."""
    return lambda: EvolutionOp(name, map_from_exprs(("t0", "t1", "y"), [text], name=name))


class TestRecoveryMutants:
    """A recovery report reads the operator it recovers: a closed form whose
    two-time values disagree with its own slice fails it, with witnesses."""

    @pytest.mark.parametrize(
        "factory, mutant, suite, report",
        [
            (
                "gls_two_time_op",
                "2*y/(1 + sqrt(1 + 4.000004*sqrt(t0)*y)) + sqrt(t1)*(2*y/(1 + sqrt(1 + 4.000004*sqrt(t0)*y)))^2",
                "suite_recovery_cross_check",
                "recovery-vs-closed-form[sqrt-gls]",
            ),
            (
                "quadratic_two_time_op",
                "t1*t1 - 1.000001*t0*t0 + y",
                "suite_reduction_algebra",
                "recovery[quadratic]",
            ),
        ],
        ids=["sqrt-gls", "quadratic"],
    )
    def test_an_inconsistent_closed_form_fails_its_recovery_report(self, monkeypatch, factory, mutant, suite, report):
        import semiflow.suites as suites

        monkeypatch.setattr(suites, factory, _mutant("mutant", mutant))
        reports = {rep.suite: rep for rep in getattr(suites, suite)(suites.SuiteConfig())}
        assert not reports[report].passed and reports[report].witnesses


def _estimate_and_target(rep):
    """The Richardson estimate and its target, as the report's first note gives them."""
    found = re.search(r"Richardson estimate (\S+) \(target (\S+)\)", rep.notes[0])
    return float(found.group(1)), float(found.group(2))


class TestFlowVsClosedForm:
    def test_sqrt_action_from_singular_start(self):
        rep = flow_vs_closed_form(
            sqrt_action(), sqrt_ode_system("minus"), 1.0, 1.0, eps_start=1e-8, tol=1e-5,
        )
        assert rep.passed
        assert rep.grid == "1250 steps, geometric mesh, eps_start=1e-08"
        assert rep.checked == 2 * FLOW_START_STEPS + 1 == 1251
        assert rep.notes[0].startswith("1250 steps by step doubling from 625: ")
        assert rep.notes[0].endswith(f"actual max deviation {rep.max_deviation:.3e}")

    def test_sqrt_estimate_is_within_a_factor_2_of_the_actual_error(self):
        rep = flow_vs_closed_form(
            sqrt_action(), sqrt_ode_system("minus"), 1.0, 1.0, eps_start=1e-8, tol=1e-5,
        )
        estimate, target = _estimate_and_target(rep)
        assert estimate <= target == FLOW_TARGET_RATIO * 1e-5
        assert 0.5 <= estimate / rep.max_deviation <= 2.0

    def test_cuberoot_flow(self):
        rep = flow_vs_closed_form(
            cuberoot_group_action(), cuberoot_ode_system(), 1.0, 1.0, eps_start=0.0, tol=1e-6,
        )
        assert rep.passed and rep.checked == 1251
        estimate, target = _estimate_and_target(rep)
        assert estimate <= target

    def test_a_tighter_sqrt_flow_tolerance_selects_more_steps_and_passes(self):
        default = suite_flow_oracle(SuiteConfig())[0]
        tight = suite_flow_oracle(SuiteConfig(tolerances={"sqrt_flow": 1e-9}))[0]
        assert default.passed and tight.passed and tight.tolerance == 1e-9
        # the error falls ~16-fold per doubling: 9.5e-11, 6.0e-12, 3.7e-13 <= 1e-12
        assert (default.checked, tight.checked) == (1251, 5001)
        estimate, target = _estimate_and_target(tight)
        assert estimate <= target == 1e-12

    def test_reaching_the_cap_fails_with_a_note(self):
        # 1e-16 is below the rounding floor: no step count meets its target
        rep = flow_vs_closed_form(
            sqrt_action(), sqrt_ode_system("minus"), 1.0, 1.0, eps_start=1e-8, tol=1e-16,
        )
        assert not rep.passed and rep.inconclusive
        assert rep.checked == FLOW_MAX_STEPS + 1
        assert f"cap of {FLOW_MAX_STEPS} steps" in rep.notes[1]

    def test_the_cap_fails_a_run_inside_its_tolerance(self, monkeypatch):
        # at 1250 steps the error is 9.6e-11 <= 1e-9, but the estimate misses 1e-12
        monkeypatch.setattr(reduction, "FLOW_MAX_STEPS", 1250)
        rep = flow_vs_closed_form(
            sqrt_action(), sqrt_ode_system("minus"), 1.0, 1.0, eps_start=1e-8, tol=1e-9,
        )
        assert rep.max_deviation <= rep.tolerance
        assert not rep.passed and rep.inconclusive and rep.checked == 1251
        assert "cap of 1250 steps" in rep.notes[1]

    def test_a_tolerance_near_the_rounding_floor_stops_where_the_estimate_stalls(self):
        # target 1e-16 is below the floor; the estimate goes 1.95e-15, 1.90e-16, 2.46e-16
        rep = suite_flow_oracle(SuiteConfig(tolerances={"cuberoot_flow": 1e-13}))[1]
        assert rep.passed and not rep.inconclusive
        assert rep.checked == 8 * FLOW_START_STEPS + 1 == 5001
        assert rep.max_deviation <= 1e-13
        assert "rounding floor" in rep.notes[1]

    def test_a_stalled_run_outside_its_tolerance_fails(self):
        # the estimate stalls at 2.46e-16 <= 2e-15, the actual error is 3.3e-15
        rep = flow_vs_closed_form(
            cuberoot_group_action(), cuberoot_ode_system(), 1.0, 1.0, eps_start=0.0, tol=2e-15,
        )
        assert rep.checked == 5001 and "rounding floor" in rep.notes[1]
        assert not rep.passed and not rep.inconclusive
        assert rep.max_deviation > rep.tolerance and len(rep.witnesses) == 1

    def test_nan_deviation_carries_the_first_nan_as_witness(self):
        # the closed form is NaN (inf - inf) once t*1e308*10 overflows, t > 0.1797...;
        # on the 1250-step mesh the first such time is 225/1250 = 0.18
        nan_later = SmoothMap(("t", "y"), (parse_expr("y + (t*1e308*10 - t*1e308*10)"),))
        action = TimeAction("nan-later", "nonneg", nan_later)
        sys0 = OdeSystem("flat", map_from_exprs(("y",), ["0"]))
        rep = flow_vs_closed_form(action, sys0, 1.0, 1.0, 0.0, 1e-9)
        assert not rep.passed and math.isnan(rep.max_deviation)
        assert len(rep.witnesses) == 1 and rep.witnesses[0].point == (225 / 1250,) == (0.18,)

    def test_constant_action_zero_rhs(self):
        still = map_from_exprs(("t", "y"), ["y"], name="still")
        action = TimeAction("still", "nonneg", still)
        sys0 = OdeSystem("flat", map_from_exprs(("y",), ["0"]))
        rep = flow_vs_closed_form(action, sys0, 4.2, 1.0, 0.0, 1e-15)
        assert rep.passed and rep.max_deviation == 0.0


@given(
    st.floats(-1e3, 1e3),
    st.floats(1e-6, 1e3),
    st.integers(1, 5000),
)
@settings(max_examples=300)
def test_the_n_step_mesh_is_every_other_point_of_the_2n_step_mesh(a, width, steps):
    b = a + width
    assume(b > a)
    coarse = _time_mesh(a, b, steps, "uniform")
    assert coarse == _time_mesh(a, b, 2 * steps, "uniform")[::2]
    if a > 0.0:
        coarse = _time_mesh(a, b, steps, "geometric")
        assert coarse == _time_mesh(a, b, 2 * steps, "geometric")[::2]


class TestOffTheDomain:
    """Off their domain the slice, and recovery through it, and the flow
    oracle's closed form raise the tree walk's error, message and all."""

    @pytest.mark.parametrize(
        "t, s, message",
        [
            (-1.0, 1.0, r"^sqrt of negative argument -1\.0$"),  # the slope at t
            (1.0, -1.0, r"^sqrt of negative argument -1\.0$"),  # the value at s
        ],
    )
    def test_recovery_off_the_slices_domain(self, t, s, message):
        # the slice z + sqrt(tau)*z^2 and its z-partial need tau >= 0
        with pytest.raises(EvalDomainError, match=message):
            recover_evolution_detailed(gls_two_time_op(), t, s, 0.5)

    def test_recovery_through_a_pole_of_the_slope(self):
        # the slope 1/z changes sign across its pole, where the fold search lands
        op = EvolutionOp("log", map_from_exprs(("t0", "t1", "y"), ["log(y) + t1 - t0"]))
        with pytest.raises(EvalDomainError, match="^division by zero$"):
            recover_evolution_detailed(op, 1.0, 2.0, 0.5)

    def test_the_slice_functions_raise_the_tree_walks_error(self):
        value, slope = gls_two_time_op().slice
        for fn in (value, slope):
            with pytest.raises(EvalDomainError, match=r"^sqrt of negative argument -1\.0$"):
                fn(-1.0, 1.0)
        op = EvolutionOp("log", map_from_exprs(("t0", "t1", "y"), ["log(y) + t1 - t0"]))
        value, slope = op.slice  # log(z) + tau and 1/z
        with pytest.raises(EvalDomainError, match=r"^log of non-positive argument 0\.0$"):
            value(1.0, 0.0)
        with pytest.raises(EvalDomainError, match="^division by zero$"):
            slope(1.0, 0.0)

    def test_closed_form_deviations_off_the_closed_forms_domain(self):
        # y + sqrt(t)*y^2 at y = 1 is defined only for t >= 0
        action, column = sqrt_action(), array("d", [1.0, 2.0, 0.0])
        traj = Trajectory(array("d", [0.0, 1.0, 2.0]), (column,), 2, 0.0, "uniform")
        devs = reduction.closed_form_deviations(action, (1.0,), traj)
        assert devs[:2] == [0.0, 0.0] and devs[2] > 0.0
        traj = Trajectory(array("d", [-1.0, 0.0, 1.0]), (column,), 2, 0.0, "uniform")
        with pytest.raises(EvalDomainError, match=r"^sqrt of negative argument -1\.0$"):
            reduction.closed_form_deviations(action, (1.0,), traj)
