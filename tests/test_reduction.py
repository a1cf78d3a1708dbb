"""Reduction to autonomous form, RK4 flows, operator laws, recovery."""

from __future__ import annotations

import hashlib
import math
import re
import tempfile
from array import array
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semiflow import reduction
from semiflow.actions import TimeAction
from semiflow.cli import FLOW_SYSTEMS
from semiflow.enforcing import cuberoot_group_action, sqrt_action
from semiflow.expr import (
    Binary,
    Const,
    EvalDomainError,
    Unary,
    Var,
    compile_expr,
    neg,
    parse_expr,
    substitute_many,
)
from semiflow.grids import Axis, SamplingGrid, grid1d, grid2d
from semiflow.maps import SmoothMap, map_from_exprs
from semiflow.reduction import (
    FLOW_MAX_STEPS,
    FLOW_START_STEPS,
    FLOW_TARGET_RATIO,
    EvolutionOp,
    IntegrationError,
    OdeSystem,
    RecoverySettings,
    Trajectory,
    augment_system,
    first_component_check,
    flow_vs_closed_form,
    gls_one_time_op,
    gls_slice,
    gls_two_time,
    gls_two_time_op,
    integrate_flow,
    one_time_law_check,
    quadratic_one_time_op,
    quadratic_slice,
    quadratic_system,
    quadratic_two_time_op,
    recover_evolution,
    recover_evolution_detailed,
    two_time_law_check,
    ystar_branch,
)
from semiflow.reduction import _time_mesh  # the reference loop's mesh
from semiflow.rootfind import RootSearchError
from semiflow.suites import SuiteConfig, cuberoot_ode_system, sqrt_ode_system, suite_flow_oracle


class TestAugmentation:
    def test_quadratic_rhs(self):
        aug = augment_system(quadratic_system())
        assert aug.kind == "autonomous" and aug.dim == 2
        # F_A(tau, y) = (1, 2*tau)
        assert aug.rhs(3.0, 7.0) == (1.0, 6.0)

    def test_zero_rhs(self):
        sys0 = OdeSystem("flat", "nonautonomous", 1, map_from_exprs(("t", "y"), ["0"]))
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
        sys0 = OdeSystem("flat", "nonautonomous", 1, map_from_exprs(("t", "y"), ["0"]))
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
        drain = OdeSystem(
            "drain", "autonomous", 1, map_from_exprs(("y",), ["-1"]),
            validity=lambda t, y: y[0] > 0.0,
        )
        with pytest.raises(IntegrationError) as err:
            integrate_flow(drain, 0.0, (1.0,), 2.0, 100)
        assert 0.9 < err.value.time < 1.3

    def test_nonfinite_state_detected(self):
        blow = OdeSystem("blow", "autonomous", 1, map_from_exprs(("y",), ["y^2"]))
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


# sha256 of the CSV bytes of three runs, taken from the plain RK4 loop
# over tuples that the generated kernel replaced
_GOLDEN_Y = 1.25
GOLDEN_RUNS = [
    ("sqrt-ode-minus", (_GOLDEN_Y + math.sqrt(1e-8) * _GOLDEN_Y * _GOLDEN_Y,), 1.0, 3000, 1e-8, "geometric",
     "481cda675a3e219329b2efd507eba9c5256d20701610686889dbec16993ed860"),
    ("quadratic-augmented", (0.0, _GOLDEN_Y), 2.0, 2000, 0.0, "uniform",
     "c8c278b8ebd7c7c54dc3cf4e58c4cc59a36a55a16fe7bf800a7592cdd37f3ba6"),
    ("cuberoot-ode", (1.0,), 1.0, 2000, 0.0, "uniform",
     "2ecd4522454bfb6d579153c54f0ceedad50291420197ffe05b7bb04f720c3cb5"),
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
    autonomous = sys.kind == "autonomous"

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


_RHS_TREES = {
    names: st.recursive(_LEAF_CONSTANTS | st.sampled_from(names).map(Var), _extend_rhs, max_leaves=4)
    for names in (("y1",), ("y1", "y2"), ("y1", "y2", "y3"))
}


@st.composite
def _flow_cases(draw):
    dim = draw(st.integers(1, 3))
    autonomous = draw(st.booleans())
    names = tuple(f"y{i + 1}" for i in range(dim))
    inputs = names if autonomous else ("t", *names)
    trees = _RHS_TREES[names]
    # a subtree that recurs in every output, as sqrt(t) does in the sqrt
    # ODE: it stands for each occurrence of y1 (or of t, when there is one)
    common = draw(trees)
    outputs = tuple(substitute_many(draw(trees), {inputs[0]: common}) for _ in range(dim))
    bound = draw(st.none() | st.floats(0.5, 20.0))
    validity = None if bound is None else (lambda t, y: abs(y[0]) < bound)
    sys = OdeSystem(
        "random", "autonomous" if autonomous else "nonautonomous", dim,
        SmoothMap(inputs, outputs), validity,
    )
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
    return ("ok", [repr(t) for t in times], [tuple(repr(v) for v in y) for y in states])


def _kernel_run(sys, t_start, y0, t_end, steps, eps_start, spacing):
    traj = integrate_flow(sys, t_start, y0, t_end, steps, eps_start, spacing)
    return traj.times, list(zip(*traj.columns))


_BLOW_UP = OdeSystem("blow-up", "autonomous", 2, map_from_exprs(("y1", "y2"), ["y1*y1*y1*y2", "y2*y1"]))
_DRAIN = OdeSystem(
    "drain", "nonautonomous", 3, map_from_exprs(("t", "y1", "y2", "y3"), ["-1 - t", "y3", "-y2"]),
    validity=lambda t, y: y[0] > 0.0,
)


@given(_flow_cases())
@settings(max_examples=200, deadline=None)
@example((_BLOW_UP, 0.0, (2.0, 1.0), 3.0, 30, "uniform"))  # a non-finite state
@example((_DRAIN, 0.5, (1.0, 0.0, 1.0), 3.0, 25, "geometric"))  # a validity exit
def test_generated_kernel_matches_the_plain_loop(case):
    sys, t_start, y0, t_end, steps, spacing = case
    args = (sys, t_start, y0, t_end, steps, 0.0, spacing)
    assert _flow_outcome(_kernel_run, *args) == _flow_outcome(_reference_rk4, *args)


def test_ode_system_rejects_a_callable_rhs():
    symbolic = augment_system(sqrt_ode_system("minus"))
    plain = SmoothMap(symbolic.rhs.inputs, func=symbolic.rhs, out_dim=2)
    with pytest.raises(ValueError, match="expression-backed"):
        OdeSystem("plain", "autonomous", 2, plain, symbolic.validity)


def test_initial_state_must_match_the_dimension():
    with pytest.raises(ValueError, match="needs 2 initial values"):
        integrate_flow(augment_system(quadratic_system()), 0.0, (1.0,), 1.0, 10)


class TestEvolutionOps:
    def test_one_time_identity(self):
        op = quadratic_one_time_op()
        assert op.apply_one(0.0, (2.0, 3.0)) == (2.0, 3.0)
        gls = gls_one_time_op()
        t, y = 0.7, 2.5
        out = gls.apply_one(0.0, (t, y))
        assert out[0] == t and out[1] == pytest.approx(y, abs=1e-12)

    def test_two_time_identity(self):
        assert quadratic_two_time_op().apply_two(1.5, 1.5, (4.0,)) == (4.0,)
        got = gls_two_time_op().apply_two(1.0, 1.0, (6.0,))[0]
        assert got == pytest.approx(6.0, abs=1e-10)

    def test_nonneg_domain_enforced(self):
        with pytest.raises(EvalDomainError):
            gls_one_time_op().apply_one(-0.5, (0.0, 1.0))
        with pytest.raises(EvalDomainError):
            gls_two_time_op().apply_two(-1.0, 1.0, (0.0,))

    def test_quadratic_evolution_spots(self):
        op = quadratic_one_time_op()
        assert op.apply_one(1.0, (2.0, 3.0)) == (3.0, 8.0)
        mid = op.apply_one(1.0, (0.0, 1.0))
        assert op.apply_one(2.0, mid) == op.apply_one(3.0, (0.0, 1.0)) == (3.0, 10.0)

    def test_flow_backed_one_time(self):
        # an RK4 flow of dY/ds = 1/Y^2 from Y(0) = y as the operator's map
        def flow(s, y):
            if s == 0.0:
                return (y,)
            return integrate_flow(cuberoot_ode_system(), 0.0, (y,), s, 400).final()

        op = EvolutionOp(
            name="cuberoot-flow-op",
            kind="one_time",
            dim=1,
            closed_form=SmoothMap(("s", "y"), func=flow, out_dim=1),
        )
        got = op.apply_one(1.0, (1.0,))[0]
        assert got == pytest.approx((3.0 + 1.0) ** (1.0 / 3.0), rel=1e-9)
        assert op.apply_one(0.0, (1.7,)) == (1.7,)


class TestGlsClosedForm:
    def test_slice_value(self):
        assert gls_two_time(0.0, 1.0, 2.0) == 6.0

    def test_two_step_value(self):
        assert gls_two_time(1.0, 4.0, 6.0) == pytest.approx(10.0, rel=1e-14)

    def test_self_evolution_is_identity(self):
        assert gls_two_time(1.0, 1.0, 6.0) == pytest.approx(6.0, rel=1e-14)

    def test_ystar_examples(self):
        assert ystar_branch(1.0, 6.0) == pytest.approx(2.0, rel=1e-14)
        assert ystar_branch(1.0, 0.0) == 0.0
        assert ystar_branch(1e-12, 3.0) == pytest.approx(3.0, abs=1e-5)

    def test_negative_radicand_rejected(self):
        with pytest.raises(EvalDomainError):
            gls_two_time(1.0, 1.0, -1.0)

    def test_negative_times_rejected(self):
        with pytest.raises(EvalDomainError):
            gls_two_time(-1.0, 1.0, 0.5)
        with pytest.raises(EvalDomainError):
            gls_two_time(1.0, -1.0, 0.5)

    def test_inverse_identities_on_branch(self):
        # E(t,s) inverts E(s,t) while the bounded branch survives
        for t, s, y in ((1.0, 4.0, 2.0), (0.25, 2.25, 1.5), (2.0, 0.5, 0.3)):
            mid = gls_two_time(s, t, y)
            assert gls_two_time(t, s, mid) == pytest.approx(y, rel=1e-10)

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
        assume(op.valid_one(s, (t, y)))
        mid = op.apply_one(s, (t, y))
        assume(op.valid_one(r, mid))
        lhs = op.apply_one(r, mid)
        rhs = op.apply_one(s + r, (t, y))
        scale = 1.0 + max(abs(v) for v in rhs)
        assert all(abs(a - b) <= 1e-11 * scale for a, b in zip(lhs, rhs))


class TestOperatorLaws:
    def test_first_component_exact(self):
        grid = SamplingGrid((Axis(0.0, 2.0, 5), Axis(0.0, 2.0, 5), Axis(-5.0, 5.0, 9)))
        rep = first_component_check(quadratic_one_time_op(), grid, 1e-12)
        assert rep.passed and rep.max_deviation == 0.0

    def test_first_component_keeps_the_first_eight_witnesses(self):
        # the first output is t + s + 1 everywhere: all 27 points fail
        op = EvolutionOp(
            "off-by-one", "one_time", 2,
            closed_form=map_from_exprs(("s", "t", "y"), ["t + s + 1", "y"]),
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
        op = EvolutionOp(
            "nan-op", "one_time", 1,
            closed_form=SmoothMap(("s", "x"), (parse_expr("x + (s*1e308*10 - s*1e308*10)"),)),
        )
        rep = one_time_law_check(op, [(1.0, 1.0)], grid1d(0.0, 1.0, 3), 1e-9)
        assert not rep.passed and math.isnan(rep.max_deviation)
        assert len(rep.witnesses) == 3

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
        a = op.apply_one(s, (0.0, 0.0))
        b = op.apply_one(s, (0.0, -1.0))
        assert abs(a[0] - b[0]) <= 1e-15 and abs(a[1] - b[1]) <= 1e-12
        for u in (0.0, 0.5, 2.0):
            assert op.apply_one(u, a)[0] >= a[0]


class TestRecovery:
    def test_quadratic_example(self):
        assert recover_evolution(quadratic_slice, 1.0, 2.0, 3.0) == pytest.approx(6.0, abs=1e-12)

    def test_identity_when_times_equal(self):
        for t, y in ((1.0, 3.0), (2.5, -4.0)):
            assert recover_evolution(quadratic_slice, t, t, y) == pytest.approx(y, abs=1e-12)

    def test_quadratic_grid_against_closed_form(self):
        for t in (0.0, 0.5, 1.5, 3.0):
            for s in (0.0, 1.0, 2.0, 3.0):
                for y in (-5.0, -0.5, 0.0, 2.0, 5.0):
                    got = recover_evolution(quadratic_slice, t, s, y)
                    assert got == pytest.approx(s * s - t * t + y, rel=1e-9, abs=1e-9)

    def test_gls_slice_selects_bounded_branch(self):
        res = recover_evolution_detailed(gls_slice, 1.0, 4.0, 6.0)
        assert len(res.roots) == 2
        assert res.ystar == pytest.approx(2.0, abs=1e-10)
        assert res.value == pytest.approx(10.0, rel=1e-10)
        assert any("continuation" in n for n in res.notes)

    def test_matches_two_time_closed_form(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            t = rng.uniform(0.05, 2.0)
            s = rng.uniform(0.0, 2.0)
            y = rng.uniform(-0.9 / (4.0 * math.sqrt(t)), 4.0)
            got = recover_evolution(gls_slice, t, s, y)
            want = gls_two_time(t, s, y)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_no_root_in_range_raises(self):
        with pytest.raises(RootSearchError):
            recover_evolution(gls_slice, 1.0, 2.0, -0.3)  # z + z^2 = -0.3 has no real root

    def test_recovery_from_a_nonzero_origin_slice(self):
        # the slice tau -> E(1, tau)(z) = tau^2 - 1 + z carries the same
        # information as the zero-origin one
        slice_from_one = lambda tau, z: tau * tau - 1.0 + z  # noqa: E731
        settings = RecoverySettings(t0=1.0)
        for t, s, y in ((2.0, 3.0, 0.5), (0.5, 2.5, -1.0), (1.0, 1.0, 4.0)):
            got = recover_evolution(slice_from_one, t, s, y, settings)
            assert got == pytest.approx(s * s - t * t + y, abs=1e-9)

    def test_condition_number_blows_up_at_fold(self):
        # roots coalesce at the fold y = -1/4: resolving them needs a scan
        # finer than their separation, and the condition number records the
        # nearly-double root
        fine = RecoverySettings(search_lo=-2.0, search_hi=2.0, scan_points=2001)
        near = recover_evolution_detailed(gls_slice, 1.0, 1.0, -0.2499, fine)
        far = recover_evolution_detailed(gls_slice, 1.0, 1.0, 2.0, fine)
        assert near.condition > 10.0 > far.condition
        assert len(near.roots) == 2


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
        action = TimeAction("nan-later", 1, "nonneg", "t", ("y",), nan_later)
        sys0 = OdeSystem("flat", "autonomous", 1, map_from_exprs(("y",), ["0"]))
        rep = flow_vs_closed_form(action, sys0, 1.0, 1.0, 0.0, 1e-9)
        assert not rep.passed and math.isnan(rep.max_deviation)
        assert len(rep.witnesses) == 1 and rep.witnesses[0].point == (225 / 1250,) == (0.18,)

    def test_constant_action_zero_rhs(self):
        still = map_from_exprs(("t", "y"), ["y"], name="still")
        action = TimeAction("still", 1, "nonneg", "t", ("y",), still)
        sys0 = OdeSystem("flat", "autonomous", 1, map_from_exprs(("y",), ["0"]))
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
