"""Burgers soliton family, its parameter flow, and the heat-kernel demo."""

from __future__ import annotations

import json
import math
import re

import pytest

from semiflow import evolution_pde, maps, suites
from semiflow.actions import TimeAction, composition_check
from semiflow.cli import run_suite
from semiflow.evolution_pde import (
    burgers_residual,
    burgers_soliton,
    heat_flow_demo,
    heat_kernel,
    heat_pde,
    param_flow_check,
    soliton_family,
    soliton_param_flow,
    soliton_residual_max,
    soliton_translation_check,
)
from semiflow.expr import EvalDomainError
from semiflow.grids import Axis, SamplingGrid, grid2d
from semiflow.maps import map_from_exprs, scalar_map
from semiflow.semisym import _residuals, residual_max
from semiflow.suites import SuiteConfig, suite_burgers

# the suite's (t, x) grid of the residual check and its translation grid
RESIDUAL_GRID = grid2d(0.0, 1.0, 5, -5.0, 5.0, 11)
TRANSLATION_GRID = SamplingGrid(
    (
        Axis(0.0, 2.0, 3),
        Axis(-5.0, 5.0, 7),
        Axis(-1.0, 1.0, 3),
        Axis(-2.0, 2.0, 3),
        Axis(-1.0, 2.0, 3),
        Axis(0.25, 1.0, 2),
    )
)


def fd_burgers_residual(U, mu: float, t: float, x: float, h: float = 1e-5) -> float:
    """Independent oracle: the PDE residual from central differences only."""
    u = lambda tt, xx: U(tt, xx)[0]  # noqa: E731
    u_t = (u(t + h, x) - u(t - h, x)) / (2.0 * h)
    u_x = (u(t, x + h) - u(t, x - h)) / (2.0 * h)
    u_xx = (u(t, x + h) - 2.0 * u(t, x) + u(t, x - h)) / (h * h)
    return abs(u_t + u(t, x) * u_x - mu * u_xx)


class TestSoliton:
    def test_center_value(self):
        U = burgers_soliton(0.0, 1.0, 1.0, 0.5)
        assert U(0.0, 0.0)[0] == pytest.approx(1.0, rel=1e-15)

    def test_zero_speed_center(self):
        U = burgers_soliton(0.7, 0.0, 1.0, 1.0)
        assert U(0.0, 0.7)[0] == pytest.approx(0.0, abs=1e-15)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            burgers_soliton(0.0, 1.0, -1.0, 0.5)  # c^2 + d = 0
        with pytest.raises(ValueError):
            burgers_soliton(0.0, 1.0, 1.0, 0.0)  # mu = 0
        with pytest.raises(ValueError):
            burgers_soliton(0.0, 0.5, -0.25, 0.5)  # c^2 + d = 0

    def test_family_profile(self):
        # at its center x = x0 + c*t the kink takes the value c
        U = burgers_soliton(1.0, -0.5, 1.0, 0.25)
        assert U(0.0, 1.0)[0] == pytest.approx(-0.5, rel=1e-14)

    def test_symbolic_residual(self):
        U = burgers_soliton(0.0, 1.0, 1.0, 0.5)
        grid = grid2d(0.0, 1.0, 5, -5.0, 5.0, 11)
        assert burgers_residual(U, 0.5, grid) <= 1e-8

    def test_residual_against_finite_difference_oracle(self):
        U = burgers_soliton(0.3, -0.8, 1.5, 0.4)
        for t, x in ((0.0, 0.0), (0.5, 1.0), (1.0, -2.0)):
            assert fd_burgers_residual(U, 0.4, t, x) <= 1e-5

    def test_constant_is_a_solution(self):
        grid = grid2d(0.0, 1.0, 4, -2.0, 2.0, 5)
        assert burgers_residual(scalar_map(("t", "x"), "3"), 0.5, grid) == 0.0

    def test_linear_profile_residual_is_abs_x(self):
        # U = x: U_t = 0, U*U_x = x, U_xx = 0 -> residual |x|
        grid = grid2d(0.0, 1.0, 3, -4.0, 4.0, 9)
        assert burgers_residual(scalar_map(("t", "x"), "x"), 0.5, grid) == pytest.approx(4.0)

    def test_tanh_saturates_without_overflow(self):
        U = burgers_soliton(0.0, 2.0, 2.0, 0.1)
        assert U(0.0, 1e6)[0] == pytest.approx(2.0 - math.sqrt(6.0), rel=1e-12)

    @pytest.mark.parametrize("name", ["x0", "c", "d", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_parameter_is_bad_input(self, name, value):
        # a NaN made every value NaN, and mu = inf a constant profile
        params = {"x0": 0.0, "c": 1.0, "d": 1.0, "mu": 0.5, name: value}
        with pytest.raises(ValueError, match=f"soliton parameter {name} must be finite"):
            burgers_soliton(**params)

    @pytest.mark.parametrize("params", [(0.0, 1e200, 1.0, 0.5), (0.0, 1.0, 1.0, 1e-310)])
    def test_finite_parameters_that_overflow_the_kink_are_bad_input(self, params):
        # c*c overflows sqrt(c*c + d), or a subnormal mu the rate sqrt(c*c + d)/(2*mu):
        # the kink was NaN at its center
        with pytest.raises(ValueError, match="non-finite rate"):
            burgers_soliton(*params)

    def test_a_kink_keeps_its_name(self):
        U = burgers_soliton(0.5, -1.0, 2.0, 0.25)
        assert U.inputs == ("t", "x") and U.name == "soliton[x0=0.5,c=-1,d=2,mu=0.25]"


def _float_kink(t, x, x0, c, d, mu):
    """The kink computed with floats in Python, the family's reference."""
    k = math.sqrt(c * c + d)
    return c - k * math.tanh(k / (2.0 * mu) * (x - x0 - c * t))


def _suite_tuples(monkeypatch, seed):
    """Each (x0, c, d, mu) of the suite's residual check, with its residual."""
    seen = []

    def recording(family, grid):
        at = soliton_residual_max(family, grid)

        def record(*params):
            r = at(*params)
            seen.append((params, r))
            return r

        return record

    monkeypatch.setattr(suites, "soliton_residual_max", recording)
    suite_burgers(SuiteConfig(seed=seed))
    assert len(seen) == 20
    return seen


class TestSolitonFamily:
    def test_the_family_is_the_float_kink_bit_for_bit(self, monkeypatch):
        family = soliton_family()
        assert family.inputs == ("t", "x", "x0", "c", "d", "mu")
        tuples = [params for params, _ in _suite_tuples(monkeypatch, 42)]
        tuples += [
            (x0, c, d, mu)
            for x0 in (-1.0, 0.0, 0.7)
            for c in (-1.5, -0.0, 0.0, 0.8)
            for d in (0.3, 2.0)
            for mu in (0.1, 0.25, 1.0)
        ]
        for params in tuples:
            kink = burgers_soliton(*params)
            for t, x in RESIDUAL_GRID.points():
                (u,) = family(t, x, *params)
                assert u.hex() == _float_kink(t, x, *params).hex(), (t, x, params)
                assert kink(t, x)[0].hex() == u.hex(), (t, x, params)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_the_family_residual_is_each_kinks_bit_for_bit(self, monkeypatch, seed):
        for (x0, c, d, mu), r in _suite_tuples(monkeypatch, seed):
            kink = burgers_residual(burgers_soliton(x0, c, d, mu), mu, RESIDUAL_GRID)
            assert r.hex() == kink.hex(), (x0, c, d, mu)

    def test_a_domain_error_names_the_point(self):
        residual = soliton_residual_max(soliton_family(), RESIDUAL_GRID)
        # c^2 + d < 0: sqrt of a negative number at the grid's first point
        point = re.escape(repr((0.0, -5.0, 0.0, 0.0, -1.0, 0.5)))
        with pytest.raises(EvalDomainError, match=f"residual undefined at {point}: sqrt"):
            residual(0.0, 0.0, -1.0, 0.5)

    def test_a_suite_run_compiles_the_family_and_its_residual_once(self, monkeypatch):
        systems, exprs = [], []

        def count_system(outputs, params):
            systems.append(params)
            return compile_system(outputs, params)

        def count_expr(e, params):
            exprs.append(params)
            return compile_expr(e, params)

        compile_system, compile_expr = maps.compile_system, evolution_pde.compile_expr
        monkeypatch.setattr(maps, "compile_system", count_system)
        monkeypatch.setattr(evolution_pde, "compile_expr", count_expr)
        suite_burgers(SuiteConfig())
        family = ("t", "x", "x0", "c", "d", "mu")
        # at one map per kink the run compiled 96 maps of (t, x) and 20 residuals
        assert systems.count(family) == 1 and ("t", "x") not in systems
        assert exprs == [family]


class TestParamFlow:
    def test_identity_at_zero(self):
        flow = soliton_param_flow()
        assert flow(0.0, (1.5, 0.7, -0.2)) == (1.5, 0.7, -0.2)

    def test_cocycle_exact_for_linear_flow(self):
        grid = SamplingGrid(
            (Axis(0.0, 2.0, 4), Axis(0.0, 2.0, 4), Axis(-3.0, 3.0, 5), Axis(-2.0, 2.0, 5), Axis(0.5, 2.0, 3))
        )
        rep = param_flow_check(soliton_param_flow(), grid, 1e-12)
        assert rep.passed and rep.checked == grid.size

    def test_cocycle_for_nonconstant_beta(self):
        # (a, c) -> (a + c*(exp(t)-1), c*exp(t)): a synthetic flow whose
        # speed parameter genuinely moves, still a one-parameter action
        flow = TimeAction(
            "nonneg",
            map_from_exprs(("t", "a", "c"), ["a + c*(exp(t) - 1)", "c*exp(t)"], name="synthetic"),
        )
        grid = SamplingGrid(
            (Axis(0.0, 1.5, 4), Axis(0.0, 1.5, 4), Axis(-2.0, 2.0, 5), Axis(-1.0, 1.0, 5))
        )
        assert param_flow_check(flow, grid, 1e-12).passed
        # c*t in place of c*(exp(t)-1) breaks the law once c moves
        broken = TimeAction(
            "nonneg",
            map_from_exprs(("t", "a", "c"), ["a + c*t", "c*exp(t)"], name="broken"),
        )
        # the report is composition_check's over the state axes with outer
        # time s and inner time t; only the suite name and grid summary differ
        rep = param_flow_check(broken, grid, 1e-12)
        times = [(s, t) for t in grid.axes[0].points() for s in grid.axes[1].points()]
        comp = composition_check(broken, times, SamplingGrid(grid.axes[2:]), 1e-12)
        assert (rep.suite, rep.grid) == ("param-flow-cocycle", grid.summary())
        assert (comp.suite, comp.grid) == ("composition[broken]", "[-2,2]#5×[-1,1]#5")
        assert rep.to_dict() == {**comp.to_dict(), "suite": rep.suite, "grid": rep.grid}
        assert not rep.passed and rep.checked == grid.size and rep.skipped == 0
        # witnesses read (outer time s, inner time t, a, c)
        s, t, *p = rep.witnesses[0].point
        lhs, rhs = broken(s, broken(t, p)), broken(t + s, p)
        assert rep.witnesses[0].values == (*lhs, *rhs)
        assert rep.witnesses[0].note == "H(t,H(s,y)) != H(t+s,y)"

    def test_signature_validation(self):
        grid = SamplingGrid((Axis(0.0, 1.0, 2), Axis(0.0, 1.0, 2), Axis(-1.0, 1.0, 3)))
        with pytest.raises(ValueError, match="3 state axes"):
            param_flow_check(soliton_param_flow(), grid, 1e-12)

    def test_frozen_parameters_give_a_time_action(self):
        # for fixed (c,d) the position flow is a plain translation semigroup
        from semiflow.actions import composition_check, dichotomy_classify, identity_check
        from semiflow.grids import grid1d
        from semiflow.maps import SmoothMap

        frozen = soliton_param_flow().map.freeze(c=0.8, d=0.5)
        action = TimeAction(
            "nonneg",
            SmoothMap(frozen.inputs, frozen.outputs[:1], name="soliton-position-flow"),
        )
        assert identity_check(action, grid1d(-3.0, 3.0, 21), 1e-12).passed
        assert composition_check(action, [(0.5, 1.5), (1.0, 1.0)], grid1d(-3.0, 3.0, 21), 1e-12).passed
        # translations are invertible: the induced flow is group-like, not genuine
        verdict = dichotomy_classify(action, [0.5, 1.0, 2.0], grid1d(-3.0, 3.0, 21), 1e-12)
        assert verdict.classification == "group_like"


class TestTranslationCheck:
    def test_soliton_translation(self):
        rep = soliton_translation_check(
            soliton_param_flow(), soliton_family(), TRANSLATION_GRID, 1e-12
        )
        assert rep.passed
        assert rep.skipped > 0  # inadmissible (c,d) tuples are skipped, not errors

    def test_a_wrong_flow_fails_with_witnesses(self, monkeypatch):
        # the position moves twice as fast as the kink: U(t, x) != U(0, x) at p moved
        wrong = TimeAction(
            "nonneg",
            map_from_exprs(("t", "a", "c", "d"), ["a + 2*c*t", "c", "d"], name="wrong-flow"),
        )
        monkeypatch.setattr(suites, "soliton_param_flow", lambda: wrong)
        reps = {r.suite: r for r in suite_burgers(SuiteConfig())}
        rep = reps["soliton-translation"]
        assert not rep.passed and rep.witnesses
        t, x, x0, c, d, mu = rep.witnesses[0].point
        family = soliton_family()
        lhs, rhs = family(t, x, x0, c, d, mu), family(0.0, x, x0 + 2 * c * t, c, d, mu)
        assert rep.witnesses[0].values == (*lhs, *rhs)

    def test_explicit_translation_identity(self):
        # U(2, x) with x0=0 equals U(0, x) with x0 moved to 2
        flow = soliton_param_flow()
        U0 = burgers_soliton(0.0, 1.0, 1.0, 0.5)
        U2 = burgers_soliton(*flow(2.0, (0.0, 1.0, 1.0)), 0.5)
        for x in (-3.0, 0.0, 1.5, 4.0):
            assert U0(2.0, x)[0] == pytest.approx(U2(0.0, x)[0], abs=1e-12)


class TestHeatDemo:
    def test_kernel_solves_heat_equation(self):
        grid = grid2d(0.5, 2.0, 16, -3.0, 3.0, 21)
        assert residual_max(heat_pde, heat_kernel(), grid) <= 1e-12

    def test_demo_report(self):
        grid = grid2d(0.5, 2.0, 9, -3.0, 3.0, 11)
        rep = heat_flow_demo(grid, 1e-10)
        assert rep.passed and rep.max_deviation == residual_max(heat_pde, heat_kernel(), grid)
        assert rep.checked == 9 * 11 and rep.notes == ()

    def test_a_failing_demo_names_its_points(self, tmp_path, capsys):
        # no residual of the kernel is below 1e-300: the suite exits 1 and the
        # report keeps its first failing points, in grid order, as witnesses
        out = tmp_path / "heat.json"
        scenario = {"suite": "heat-flow", "tolerances": {"residual": 1e-300}, "out": str(out)}
        assert run_suite(scenario) == 1
        (rep,) = json.loads(out.read_text())["suites"]["heat-flow"]
        grid = grid2d(0.5, 2.0, 16, -3.0, 3.0, 21)
        assert rep["suite"] == "heat-flow-demo" and not rep["passed"]
        assert rep["checked"] == grid.size and 1 <= len(rep["witnesses"]) <= 8
        assert rep["max_deviation"] == residual_max(heat_pde, heat_kernel(), grid)
        failing = [
            (list(point), [r])
            for point, r in _residuals(heat_pde, heat_kernel().outputs[0], ("t", "x"), grid)
            if not abs(r) <= 1e-300
        ]
        assert [(w["point"], w["values"]) for w in rep["witnesses"]] == failing[:8]

    def test_off_the_kernels_domain_the_demo_raises(self):
        with pytest.raises(EvalDomainError, match=r"^residual undefined at \(0\.0, -1\.0\)"):
            heat_flow_demo(grid2d(0.0, 1.0, 3, -1.0, 1.0, 3), 1e-10)

    def test_kernel_fd_oracle(self):
        K = heat_kernel()
        h = 1e-4
        for t, x in ((1.0, 0.0), (0.7, 1.3)):
            u = lambda tt, xx: K(tt, xx)[0]  # noqa: E731
            u_t = (u(t + h, x) - u(t - h, x)) / (2.0 * h)
            u_xx = (u(t, x + h) - 2.0 * u(t, x) + u(t, x - h)) / (h * h)
            assert abs(u_t - u_xx) <= 1e-6
