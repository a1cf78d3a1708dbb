"""Singular actions, their exact ODE residuals, and diffeo classification."""

from __future__ import annotations

import math
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflow.enforcing import (
    DiffeoClassifier,
    MediatorFunction,
    _critical_points,
    bump_map,
    cuberoot_group_action,
    cuberoot_ode_system,
    diffeo_classifier,
    diffeo_time_set,
    homotopy_action,
    homotopy_residual_map,
    k_action_relation_check,
    limit_ic_check,
    mediator,
    milder_action,
    milder_ode_system,
    not_c1_check,
    ode_residual_explicit,
    ode_residual_homotopy,
    ode_residual_map,
    ode_residual_milder,
    sqrt_action,
    sqrt_mediator,
    sqrt_ode_system,
    square_map,
)
from semiflow.expr import Const, EvalDomainError, diff, evaluate, parse_expr
from semiflow.grids import Axis, SamplingGrid, grid1d, grid2d
from semiflow.maps import identity_map, scalar_map
from semiflow.actions import TimeAction
from semiflow.maps import SmoothMap
from semiflow.reduction import OdeSystem
from semiflow.report import max_norm
from semiflow.rootfind import RootSearchError, bisect
from semiflow.suites import (
    LIMIT_IC_EPS,
    NOT_C1_TOL,
    _fold_margin,
    _milder_branch_legs,
    _sqrt_branch_legs,
)


class TestRegisteredActions:
    def test_sqrt_action_values(self):
        a = sqrt_action()
        assert a.call1(0.0, 5.0) == 5.0
        assert a.call1(1.0, 2.0) == 6.0
        assert a.call1(4.0, -0.5) == pytest.approx(0.0, abs=1e-15)

    def test_milder_action_values(self):
        a = milder_action()
        assert a.call1(0.0, 7.0) == 7.0
        assert a.call1(-1.0, 1.0) == 0.0
        assert a.call1(2.0, 1.0) == 3.0

    def test_cuberoot_values(self):
        a = cuberoot_group_action()
        assert a.call1(0.0, 2.0) == pytest.approx(2.0, rel=1e-15)
        assert a.call1(1.0 / 3.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_cuberoot_composition_telescopes(self):
        a = cuberoot_group_action()
        for y in (-2.9, -1.3, 0.4, 2.2):
            lhs = a.call1(1.0, a.call1(2.0, y))
            rhs = a.call1(3.0, y)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_homotopy_square_hits_f_at_one(self):
        h = homotopy_action(square_map(), sqrt_mediator())
        assert h.call1(1.0, 3.0) == 9.0
        assert h.call1(0.0, 3.0) == 3.0

    def test_homotopy_bump_value(self):
        h = homotopy_action(bump_map(), sqrt_mediator())
        assert h.call1(1.0, 0.0) == 1.0

    def test_homotopy_requires_square_arity(self):
        with pytest.raises(ValueError):
            homotopy_action(scalar_map(("a", "b"), "a + b"), sqrt_mediator())


class TestMediator:
    def test_sqrt_mediator(self):
        g = sqrt_mediator()
        assert g.value(0.0) == 0.0
        assert g.value(1.0) == 1.0
        assert g.slope(0.25) == 1.0

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            mediator("t + 1")

    def test_vanishing_slope_rejected(self):
        # g(0)=0, g(1)=1 but g'(1) = 0
        with pytest.raises(ValueError):
            mediator("3*t^2 - 2*t^3")

    def test_alternate_mediator_accepted(self):
        g = mediator("t^0.25")
        assert g.value(1.0) == 1.0

    def test_off_its_domain_a_mediator_raises_the_tree_walks_error(self):
        g = sqrt_mediator()  # g = sqrt(t), g' = 1/(2*sqrt(t))
        for fn in (g.value, g.slope):
            with pytest.raises(EvalDomainError, match=r"^sqrt of negative argument -1\.0$"):
                fn(-1.0)
        assert g.value(0.0) == 0.0
        with pytest.raises(EvalDomainError, match="^division by zero$"):
            g.slope(0.0)


class TestKRelation:
    def test_spot_identity(self):
        a = sqrt_action()
        assert a.call1(4.0, 1.0) == 1.0 + 2.0 * 1.0  # K(2, 1)

    def test_grid_exact(self):
        rep = k_action_relation_check(grid2d(0.0, 9.0, 19, -3.0, 3.0, 25), 1e-12)
        assert rep.passed and rep.max_deviation <= 1e-15


# the float rules the ode-residuals suite's legs replace, kept as references: the
# branch that the sign of d = 1 + 2*s*y names (s = sqrt(t), or t), and the fold skip
# |d|/S < band, S the sensitivity of the branch rhs to its square root


def sqrt_branch_for(t, y):
    return "minus" if 1.0 + 2.0 * math.sqrt(t) * y >= 0.0 else "plus"


def milder_branch_for(t, y):
    return "regular" if 1.0 + 2.0 * t * y >= 0.0 else "singular"


def sqrt_near_fold(t, y, band):
    s = math.sqrt(t)
    return abs(1.0 + 2.0 * s * y) * 4.0 * t * s < band  # S = 1/(4*t*s)


def milder_near_fold(t, y, band):
    d = abs(1.0 + 2.0 * t * y)
    return d * (1.0 + d) ** 2 < 2.0 * y * y * band  # S = 2*y^2/(1 + |d|)^2


# the residual maps of both branch families, built as the ode-residuals suite builds them
SQRT_RESIDUALS = {b: ode_residual_map(sqrt_action(), sqrt_ode_system(b)) for b in ("plus", "minus")}
MILDER_RESIDUALS = {
    b: ode_residual_map(milder_action(), milder_ode_system(b)) for b in ("regular", "singular")
}


class TestExplicitOdeResiduals:
    def test_minus_branch_point(self):
        # H(1,1)=2: (1 + 4 - sqrt(9))/4 = 0.5 = y^2/(2 sqrt t)
        assert sqrt_branch_for(1.0, 1.0) == "minus"
        assert ode_residual_explicit(SQRT_RESIDUALS, 1.0, 1.0, "minus") <= 1e-12

    def test_plus_branch_point(self):
        # y=-2 at t=1: 1+2*sqrt(t)*y = -3 <= 0; (1 + 4 + 3)/4 = 2 = y^2/2
        assert sqrt_branch_for(1.0, -2.0) == "plus"
        assert ode_residual_explicit(SQRT_RESIDUALS, 1.0, -2.0, "plus") <= 1e-12

    def test_needs_positive_time(self):
        for t in (0.0, -1.0):
            with pytest.raises(EvalDomainError):
                ode_residual_explicit(SQRT_RESIDUALS, t, 1.0, "minus")

    def test_branch_selector_overlap(self):
        # on 1 + 2 sqrt(t) y = 0 both branches apply and agree
        t, y = 1.0, -0.5
        assert abs(SQRT_RESIDUALS["plus"](t, y)[0]) <= 1e-12
        assert abs(SQRT_RESIDUALS["minus"](t, y)[0]) <= 1e-12

    def test_grid_residual(self):
        worst = 0.0
        for t, y in grid2d(1e-3, 10.0, 50, -5.0, 5.0, 50).points():
            worst = max(worst, ode_residual_explicit(SQRT_RESIDUALS, t, y, sqrt_branch_for(t, y)))
        assert worst <= 1e-10


def homotopy_residual(f, g, t, y):
    """`ode_residual_homotopy` of the `homotopy_residual_map` built here."""
    return ode_residual_homotopy(homotopy_residual_map(f, g), t, y)


def float_homotopy_residual(f, g, t, y):
    """The homotopy residual in float arithmetic on the compiled homotopy map, its
    t-partial and the mediator: the reference `homotopy_residual_map` replaces."""
    h_map = homotopy_action(f, g).map
    ht_map = h_map.partial("t")
    ys = (y,)
    gv = g.value(t)
    gp = g.slope(t)
    h_val = h_map(t, *ys)
    ht_val = ht_map(t, *ys)
    arg = [(gp * h - gv * ht) / gp for h, ht in zip(h_val, ht_val)]
    f_at_arg = f.at(arg)
    f_at_y = f.at(ys)
    gaps = []
    for i in range(len(ys)):
        lhs = (1.0 - gv) * ht_val[i] + gp * h_val[i]
        gaps += (lhs - gp * f_at_arg[i], arg[i] - ys[i], lhs / gp - f_at_y[i])
    return max_norm(gaps)


class TestHomotopyOdeResidual:
    def test_square_target(self):
        assert homotopy_residual(square_map(), sqrt_mediator(), 0.25, 2.0) <= 1e-10

    def test_identity_target_is_exact(self):
        f = identity_map(("y",))
        for t in (0.01, 0.5, 2.0):
            for y in (-3.0, 0.0, 4.0):
                assert homotopy_residual(f, sqrt_mediator(), t, y) == 0.0

    def test_bump_target(self):
        assert homotopy_residual(bump_map(), sqrt_mediator(), 1.0, 1.0) <= 1e-10

    def test_vanishing_slope_is_domain_error(self):
        dead = MediatorFunction(parse_expr("3*t^2 - 2*t^3"))  # slope 0 at t=1
        with pytest.raises(EvalDomainError):
            homotopy_residual(square_map(), dead, 1.0, 2.0)

    def test_positive_time_required(self):
        with pytest.raises(EvalDomainError):
            homotopy_residual(square_map(), sqrt_mediator(), 0.0, 1.0)

    def test_a_nan_residual_term_fails(self):
        # y*1e308*10 overflows to inf, so every term of the residual is NaN
        f = scalar_map(("y",), "y*1e308*10")
        assert math.isnan(homotopy_residual(f, sqrt_mediator(), 0.25, 1.0))


class TestMilderOdeResidual:
    def test_regular_branch_points(self):
        for t, y in ((1.0, 1.0), (0.0, 3.0)):
            assert milder_branch_for(t, y) == "regular"
            assert ode_residual_milder(MILDER_RESIDUALS, t, y, "regular") <= 1e-12

    def test_singular_branch_point(self):
        # t=-1, y=1: 1+2ty = -1 <= 0, Y = 0, RHS = (1+0+1)/2 = 1 = y^2
        assert milder_branch_for(-1.0, 1.0) == "singular"
        assert ode_residual_milder(MILDER_RESIDUALS, -1.0, 1.0, "singular") <= 1e-12

    def test_grid_residual(self):
        worst = 0.0
        for t, y in grid2d(-2.0, 2.0, 41, -3.0, 3.0, 41).points():
            worst = max(worst, ode_residual_milder(MILDER_RESIDUALS, t, y, milder_branch_for(t, y)))
        assert worst <= 1e-10


class TestLimitInitialCondition:
    def test_sqrt_action_limit(self):
        rep = limit_ic_check(sqrt_action(), 1.0, [1e-2, 1e-4, 1e-6, 1e-10], 1e-5)
        assert rep.passed
        # deviations are exactly sqrt(eps)*y^2/(1+|y|)
        assert rep.max_deviation == pytest.approx(math.sqrt(1e-10) / 2.0, rel=1e-12)

    def test_homotopy_limit(self):
        h = homotopy_action(square_map(), sqrt_mediator())
        rep = limit_ic_check(h, 2.0, [1e-2, 1e-4, 1e-6, 1e-10], 1e-5)
        assert rep.passed
        # |H(eps,2) - 2| = sqrt(eps)*|f(2)-2| = 2 sqrt(eps); normalized by 3
        assert rep.max_deviation == pytest.approx(2.0 * math.sqrt(1e-10) / 3.0, rel=1e-12)

    def test_constant_action_is_exact(self):
        const = TimeAction("nonneg", SmoothMap(("t", "y"), (parse_expr("y"),), name="still"))
        rep = limit_ic_check(const, 5.0, [1e-2, 1e-6, 1e-9], 1e-12)
        assert rep.passed and rep.max_deviation == 0.0

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            limit_ic_check(sqrt_action(), 1.0, [1e-2, 1e-2, 1e-10], 1e-5)
        with pytest.raises(ValueError):
            limit_ic_check(sqrt_action(), 1.0, [1e-2, 1e-4], 1e-5)  # stops above 1e-8

    def test_an_empty_sequence_is_bad_input(self):
        with pytest.raises(ValueError, match="eps_sequence must not be empty"):
            limit_ic_check(sqrt_action(), 1.0, [], 1e-5)


class TestNotC1AtZero:
    """The check of the ode-residuals suite, at its eps values and pinned tolerance."""

    EPS = LIMIT_IC_EPS
    TOL = NOT_C1_TOL

    @pytest.mark.parametrize("y", [1.0, 2.0, -3.0])
    def test_one_sided_quotient_diverges(self, y):
        # |H(e,y) - y|/e = y^2/sqrt(e) exactly, up to rounding
        rep = not_c1_check(sqrt_action(), y, self.EPS, self.TOL)
        assert rep.passed and rep.checked == 5 and rep.witnesses == []
        assert rep.max_deviation <= 2.0**-53 / (2.0 * math.sqrt(1e-10)) + 7 * 2.0**-53

    def test_milder_action_is_c1(self):
        # the everywhere-smooth variant keeps its quotient at y^2, so sqrt(e)*quotient
        # falls to 0 and every eps is a witness (eps, sqrt(e)*y^2, y^2)
        rep = not_c1_check(milder_action(), 2.0, self.EPS, self.TOL)
        assert not rep.passed and rep.suite == "not-c1[milder-action]"
        assert [w.point for w in rep.witnesses] == [(e,) for e in self.EPS]
        rate, want = rep.witnesses[0].values
        assert rate == pytest.approx(0.4, rel=1e-12) and want == 4.0

    def test_an_empty_sequence_is_bad_input(self):
        with pytest.raises(ValueError, match="eps_sequence must not be empty"):
            not_c1_check(sqrt_action(), 1.0, (), self.TOL)


class TestDiffeoClassification:
    def test_bump_homotopy_spots(self):
        probe = diffeo_classifier(
            homotopy_action(bump_map(), sqrt_mediator()), grid1d(-3.0, 3.0, 121)
        )
        assert probe.is_diffeo(0.1)
        assert not probe.is_diffeo(1.0)  # H(1,.) = f is not injective
        assert probe.is_diffeo(10.0)

    def test_threshold_values(self):
        action = homotopy_action(bump_map(), sqrt_mediator())
        report = diffeo_time_set(action, grid1d(0.05, 10.0, 41), grid1d(-3.0, 3.0, 121))
        assert len(report.thresholds) == 2
        peak = 3.0 * math.sqrt(3.0) / 8.0  # slope extremum of 1/(y^2+1) at 1/sqrt(3)
        lo, hi = sorted(report.thresholds)
        assert lo == pytest.approx((1.0 / (1.0 + peak)) ** 2, abs=1e-4)
        assert hi == pytest.approx((1.0 / (1.0 - peak)) ** 2, abs=1e-4)

    def test_a_wrong_spot_class_fails_the_threshold_report(self, monkeypatch):
        import semiflow.suites as suites

        classify = suites.diffeo_classifier

        class CallsOneADiffeo:
            """The real classifier, except that H(1, .) counts as a diffeomorphism."""

            def __init__(self, probe):
                self.probe = probe

            def is_diffeo(self, t):
                return t == 1.0 or self.probe.is_diffeo(t)

        monkeypatch.setattr(suites, "diffeo_classifier", lambda *args: CallsOneADiffeo(classify(*args)))
        (rep,) = suites.suite_diffeo_thresholds(suites.SuiteConfig())
        # the thresholds still match, but the verdict follows the report's rule
        assert not rep.passed and rep.max_deviation == 1.0 > rep.tolerance
        assert rep.notes[-1].endswith("-> False")

    def test_scan_evaluates_each_grid_time_once(self, monkeypatch):
        # the scan reuses the predicate of the entries loop: 41 grid times
        # plus the bisection steps, where it used to take 157 calls
        calls = []
        probe = DiffeoClassifier.slope_attains_zero
        monkeypatch.setattr(
            DiffeoClassifier, "slope_attains_zero", lambda self, t: calls.append(t) or probe(self, t)
        )
        action = homotopy_action(bump_map(), sqrt_mediator())
        report = diffeo_time_set(action, grid1d(0.05, 10.0, 41), grid1d(-3.0, 3.0, 121))
        assert len(calls) <= 80 and len(calls) == len(set(calls))
        # the thresholds of the scan that re-evaluated both ends of every pair
        assert report.thresholds == [0.36752338171005244, 8.14087642908096]
        assert sum(ok for _, ok in report.entries) == 10

    @pytest.mark.parametrize("text, attains", [("y + t*sqrt(y)", False), ("y - t*sqrt(y)", True)])
    def test_grid_points_off_the_slopes_domain_are_skipped(self, text, attains):
        # dH/dy = 1 +- t/(2*sqrt(y)) raises at y <= 0, half of the grid; its
        # zero, if any, is at y = t^2/4, inside the other half
        action = TimeAction("nonneg", scalar_map(("t", "y"), text, name="half"))
        slope = diff(action.map.outputs[0], "y")
        with pytest.raises(EvalDomainError, match=r"^sqrt of negative argument -1\.0$"):
            evaluate(slope, {"t": 1.0, "y": -1.0})
        with pytest.raises(EvalDomainError, match="^division by zero$"):
            evaluate(slope, {"t": 1.0, "y": 0.0})
        probe = diffeo_classifier(action, grid1d(-1.0, 1.0, 21))
        assert probe.slope_attains_zero(1.0) is attains

    def test_an_exact_zero_is_a_critical_point(self):
        # y*y touches zero at a grid point without changing sign there
        assert _critical_points(lambda y: y * y, [-1.0, 0.0, 1.0]) == [0.0]

    def test_identity_always_diffeo(self):
        ident = TimeAction("nonneg", SmoothMap(("t", "y"), (parse_expr("y"),), name="still"))
        report = diffeo_time_set(ident, grid1d(0.1, 5.0, 7), grid1d(-3.0, 3.0, 31))
        assert all(ok for _, ok in report.entries)
        assert report.thresholds == []


def sqrt_action_over(time: str, state: str) -> TimeAction:
    """The square-root action, written in the variables (time, state)."""
    text = f"{state} + sqrt({time})*{state}^2"
    return TimeAction("nonneg", scalar_map((time, state), text, name="sqrt-action"))


def sqrt_minus_system_over(time: str, state: str) -> OdeSystem:
    """`sqrt_ode_system("minus")`, written in the variables (time, state)."""
    root = f"sqrt(1 + 4*sqrt({time})*{state})"
    rhs = f"(1 + 2*sqrt({time})*{state} - {root})/(4*{time}*sqrt({time}))"
    return OdeSystem(scalar_map((time, state), rhs, name="sqrt-ode-minus"))


class TestVariablesComeFromTheMap:
    def test_frozen_map_fixes_the_maps_time(self):
        frozen = sqrt_action_over("s", "x").frozen_map(1.0)
        assert frozen.inputs == ("x",) and frozen(0.5) == (0.75,)

    def test_the_classifier_differentiates_in_the_maps_state(self):
        grid = grid1d(-3.0, 3.0, 61)
        probe = diffeo_classifier(sqrt_action_over("s", "x"), grid)
        for t in (0.01, 0.05, 1.0):
            assert probe.is_diffeo(t) is diffeo_classifier(sqrt_action(), grid).is_diffeo(t)
        assert probe.is_diffeo(0.01) and not probe.is_diffeo(1.0)

    @pytest.mark.parametrize(
        "action_vars, system_vars",
        [(("s", "x"), ("s", "x")), (("s", "x"), ("t", "y")), (("t", "y"), ("s", "x"))],
    )
    def test_the_residual_binds_each_maps_own_variables(self, action_vars, system_vars):
        action, system = sqrt_action_over(*action_vars), sqrt_minus_system_over(*system_vars)
        residual = ode_residual_map(action, system)
        assert residual.inputs == action_vars
        for t, y in ((1.0, 0.5), (0.25, -0.5), (4.0, 2.0)):
            assert residual(t, y) == SQRT_RESIDUALS["minus"](t, y)
        assert residual(1.0, 0.5) == (0.0,)

    def test_an_autonomous_system_binds_its_state(self):
        system = OdeSystem(scalar_map(("u",), "1/u^2", name="cuberoot-ode"))
        residual = ode_residual_map(cuberoot_group_action(), system)
        want = ode_residual_map(cuberoot_group_action(), cuberoot_ode_system())
        assert residual.outputs == want.outputs


# ---------------------------------------------------------------------------
# compiled evaluation against the tree walk: the functions above evaluate
# compiled code; these references compute the same quantities with
# `evaluate`, and the two must agree bit for bit


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvalDomainError:
        return "domain error"


def _walk_branch_residual(residuals, t, y, branch):
    """The tree walk of the residual expression `ode_residual_explicit` and
    `ode_residual_milder` evaluate compiled."""
    return abs(evaluate(residuals[branch].outputs[0], {"t": t, "y": y}))


def _walk_homotopy_residual(f, g, t, y):
    outputs = homotopy_action(f, g).map.outputs
    bindings = {"t": t, f.inputs[0]: y}
    h = evaluate(outputs[0], bindings)
    ht = evaluate(diff(outputs[0], "t"), bindings)
    gv = evaluate(g.g, {"t": t})
    gp = evaluate(diff(g.g, "t"), {"t": t})
    arg = (gp * h - gv * ht) / gp
    lhs = (1.0 - gv) * ht + gp * h
    return max(abs(lhs - gp * f(arg)[0]), abs(arg - y), abs(lhs / gp - f(y)[0]))


def _walk_slope_attains_zero(action, y_grid, t):
    slope = diff(action.map.outputs[0], "y")
    second = diff(slope, "y")
    y_pts = y_grid.axis_values()[0]
    crits = []
    prev_y = prev_v = None
    for y in y_pts:
        try:
            v = evaluate(second, {"t": t, "y": y})
        except EvalDomainError:
            prev_y = prev_v = None
            continue
        if prev_v is not None and (prev_v < 0.0) != (v < 0.0):
            try:
                crits.append(
                    bisect(lambda z: evaluate(second, {"t": t, "y": z}), prev_y, y, tol=1e-12)
                )
            except (EvalDomainError, RootSearchError):
                pass
        prev_y, prev_v = y, v
    values = []
    for y in list(y_pts) + crits:
        try:
            values.append(evaluate(slope, {"t": t, "y": y}))
        except EvalDomainError:
            continue
    return not values or min(values) <= 0.0 <= max(values)


_MEDIATORS = ["sqrt(t)", "t^2", "3*t^2 - 2*t^3", "(exp(t) - 1)/(exp(1) - 1)", "t/(2 - t)"]


class TestCompiledMatchesTreeWalk:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_MEDIATORS), st.floats(0.0, 10.0))
    def test_mediator_value_and_slope(self, g_text, t):
        g = MediatorFunction(parse_expr(g_text))
        assert _outcome(g.value, t) == _outcome(evaluate, g.g, {"t": t})
        assert _outcome(g.slope, t) == _outcome(evaluate, diff(g.g, "t"), {"t": t})

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 10.0), st.floats(-5.0, 5.0))
    def test_explicit_residual(self, t, y):
        branch = sqrt_branch_for(t, y)
        assert _outcome(ode_residual_explicit, SQRT_RESIDUALS, t, y, branch) == _outcome(
            _walk_branch_residual, SQRT_RESIDUALS, t, y, branch
        )

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
    def test_milder_residual(self, t, y):
        branch = milder_branch_for(t, y)
        assert _outcome(ode_residual_milder, MILDER_RESIDUALS, t, y, branch) == _outcome(
            _walk_branch_residual, MILDER_RESIDUALS, t, y, branch
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["square", "bump", "identity"]),
        st.floats(1e-3, 10.0),
        st.floats(-5.0, 5.0),
    )
    def test_homotopy_residual(self, name, t, y):
        f = {"square": square_map(), "bump": bump_map(), "identity": identity_map(("y",))}[name]
        g = sqrt_mediator()
        assert homotopy_residual(f, g, t, y) == _walk_homotopy_residual(f, g, t, y)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 10.0), st.sampled_from(["bump", "square"]))
    def test_slope_attains_zero(self, t, name):
        f = bump_map() if name == "bump" else square_map()
        action = homotopy_action(f, sqrt_mediator())
        y_grid = grid1d(-3.0, 3.0, 61)
        probe = diffeo_classifier(action, y_grid)
        assert probe.slope_attains_zero(t) == _walk_slope_attains_zero(action, y_grid, t)


# ---------------------------------------------------------------------------
# the suite's legs against the float rules they replace: each gives the float
# code's values and skips bit for bit

FOLD_TOLS = (1e-10, 1e-6)
SQRT_LEGS = {tol: _sqrt_branch_legs(sqrt_action(), tol) for tol in FOLD_TOLS}
MILDER_LEGS = {tol: _milder_branch_legs(milder_action(), tol) for tol in FOLD_TOLS}
HOMOTOPY_TARGETS = {"square": square_map(), "bump": bump_map(), "identity": identity_map(("y",))}


def _sqrt_outcomes(t, y, tol):
    """The sqrt legs' outcome at (t, y), and the float rule's."""
    return _leg_outcome(SQRT_LEGS[tol], t, y), _float_rule_outcome(
        SQRT_RESIDUALS, sqrt_branch_for, sqrt_near_fold, tol, t, y
    )


def _milder_outcomes(t, y, tol):
    """The milder legs' outcome at (t, y), and the float rule's."""
    return _leg_outcome(MILDER_LEGS[tol], t, y), _float_rule_outcome(
        MILDER_RESIDUALS, milder_branch_for, milder_near_fold, tol, t, y
    )


def _leg_outcome(legs, t, y):
    """(note, max norm) of the first leg that returns a value at (t, y), else "skip"."""
    for note, leg in legs:
        out = leg(t, y)
        if out is not None:
            return note, max_norm(out)
    return "skip"


def _float_rule_outcome(residuals, branch_for, near_fold, tol, t, y):
    """A skip within the fold margin or off the residual's domain, else (branch,
    |residual|) on the branch that `branch_for` names."""
    if near_fold(t, y, 2.0 * _fold_margin(tol)):
        return "skip"
    branch = branch_for(t, y)
    try:
        return branch, abs(residuals[branch](t, y)[0])
    except EvalDomainError:
        return "skip"


def _near_the_fold(s, eps):
    """The y with 1 + 2*s*y = -eps, up to rounding."""
    return -(1.0 + eps) / (2.0 * s)


class TestLegsFollowTheFloatRules:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 10.0), st.floats(-5.0, 5.0), st.sampled_from(FOLD_TOLS))
    @example(0.37, -0.8219949365267882, 1e-10)  # d = -2e-15
    @example(0.1, -1.5811368947702615, 1e-10)  # |d| = 1.22e-6, inside 2u*S/tol
    @example(1.0, -0.5, 1e-10)  # d = 0
    @example(0.0, 1.0, 1e-10)  # t = 0, on the fold for every y
    def test_sqrt_legs(self, t, y, tol):
        legs, rule = _sqrt_outcomes(t, y, tol)
        assert legs == rule

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 10.0), st.floats(-1e-6, 1e-6), st.sampled_from(FOLD_TOLS))
    def test_sqrt_legs_near_the_fold(self, t, eps, tol):
        legs, rule = _sqrt_outcomes(t, _near_the_fold(math.sqrt(t), eps), tol)
        assert legs == rule

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.sampled_from(FOLD_TOLS))
    @example(0.47, -1.0638297871072222, 1e-10)  # d = -6.1e-13
    @example(0.62, -0.8064516129037196, 1e-10)  # d = 1.2e-10
    @example(0.1, -5.00001, 1e-10)  # |d| = 2e-6, inside 2u*S/tol
    @example(1.0, -0.5, 1e-10)  # d = 0
    @example(0.0, 3.0, 1e-10)  # t = 0, where the singular form divides by zero
    def test_milder_legs(self, t, y, tol):
        legs, rule = _milder_outcomes(t, y, tol)
        assert legs == rule

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1e-3, 2.0), st.booleans(), st.floats(-1e-6, 1e-6), st.sampled_from(FOLD_TOLS)
    )
    def test_milder_legs_near_the_fold(self, t, negative, eps, tol):
        t = -t if negative else t
        legs, rule = _milder_outcomes(t, _near_the_fold(t, eps), tol)
        assert legs == rule

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(HOMOTOPY_TARGETS)), st.floats(1e-3, 10.0), st.floats(-5.0, 5.0))
    def test_homotopy_map(self, name, t, y):
        f, g = HOMOTOPY_TARGETS[name], sqrt_mediator()
        assert max_norm(homotopy_residual_map(f, g)(t, y)) == float_homotopy_residual(f, g, t, y)


# ---------------------------------------------------------------------------
# the branch right-hand sides as hand-written float formulas: a reference
# independent of the expression engine, so they agree with the systems only
# up to rounding

# measured on 2e4 random points: the right-hand sides at most 3e-16 apart
FLOAT_REFERENCE_RTOL = 1e-13
# the residuals at most 2.1e-12*(1 + |dH/dt|) apart where |fold| >= 1e-4. At
# the fold 1 + 2*s*y = 0 (s = sqrt(t), or t) the radicand has a double root,
# whose square root turns one rounding of H into an error near sqrt(ulp):
# there the two residuals (and each against zero) differ by up to 3e-8
FLOAT_RESIDUAL_TOL = 1e-11
FOLD_MARGIN = 1e-4


def _float_sqrt_branch(t, y, branch):
    """(H, dH/dt, rhs(t, H), fold) of the square-root action on `branch`."""
    st_ = math.sqrt(t)
    h = y + st_ * y * y
    sign = 1.0 if branch == "plus" else -1.0
    rhs = (1.0 + 2.0 * st_ * h + sign * math.sqrt(1.0 + 4.0 * st_ * h)) / (4.0 * t * st_)
    return h, y * y / (2.0 * st_), rhs, 1.0 + 2.0 * st_ * y


def _float_milder_branch(t, y, branch):
    """(H, dH/dt, rhs(t, H), fold) of Y = y + t*y^2 on `branch`."""
    h = y + t * y * y
    root = math.sqrt(1.0 + 4.0 * t * h)
    if branch == "regular":
        rhs = 2.0 * h * h / (1.0 + 2.0 * t * h + root)
    else:
        rhs = (1.0 + 2.0 * t * h + root) / (2.0 * t * t)
    return h, y * y, rhs, 1.0 + 2.0 * t * y


def _check_against_float_formulas(system, residuals, reference, t, y, branch):
    try:
        h, dh, rhs, fold = reference(t, y, branch)
    except (ValueError, ZeroDivisionError):
        return  # off the formulas' domain
    # a subnormal result keeps fewer bits, so the relative bound stops at the normal range
    assert math.isclose(
        system(branch).rhs(t, h)[0], rhs, rel_tol=FLOAT_REFERENCE_RTOL, abs_tol=sys.float_info.min
    )
    if abs(fold) >= FOLD_MARGIN:
        r = residuals[branch](t, y)[0]
        assert abs(r - (dh - rhs)) <= FLOAT_RESIDUAL_TOL * (1.0 + abs(dh))


class TestFloatReference:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 10.0), st.floats(-5.0, 5.0))
    def test_sqrt_branches(self, t, y):
        _check_against_float_formulas(
            sqrt_ode_system, SQRT_RESIDUALS, _float_sqrt_branch, t, y, sqrt_branch_for(t, y)
        )

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
    def test_milder_branches(self, t, y):
        _check_against_float_formulas(
            milder_ode_system, MILDER_RESIDUALS, _float_milder_branch, t, y, milder_branch_for(t, y)
        )


def _scaled_rhs(factory, factor):
    """`factory` with every system's right-hand side multiplied by `factor`."""

    def scaled(*args):
        system = factory(*args)
        outputs = tuple(Const(factor) * out for out in system.rhs.outputs)
        return replace(system, rhs=SmoothMap(system.rhs.inputs, outputs, name=system.rhs.name))

    return scaled


class TestABranchIsItsName:
    """The sign of d = 1 + 2*s*y names a branch; that name builds the branch's
    system, whose residual map the ode-residuals suite reads on the branch."""

    @pytest.mark.parametrize(
        "factory, known",
        [(sqrt_ode_system, "'plus', 'minus'"), (milder_ode_system, "'regular', 'singular'")],
        ids=["sqrt", "milder"],
    )
    @pytest.mark.parametrize("name", ["Minus", "x", ""], ids=["Minus", "x", "empty"])
    def test_an_unknown_branch_is_bad_input(self, factory, known, name):
        with pytest.raises(ValueError, match=re.escape(f"unknown branch {name!r}; known: {known}")):
            factory(name)

    @pytest.mark.parametrize(
        "factory, branch_for, family, count",
        [
            (sqrt_ode_system, sqrt_branch_for, "sqrt", 2500),
            (milder_ode_system, milder_branch_for, "milder", 1681),
        ],
    )
    def test_the_named_system_is_the_one_whose_residual_the_suite_reads(
        self, monkeypatch, factory, branch_for, family, count
    ):
        import semiflow.suites as suites

        read = []
        on_region = SmoothMap.on_region

        def recording(residual, region=()):
            leg = on_region(residual, region)

            def recorded(*point):
                out = leg(*point)
                if out is not None:
                    read.append((point, residual))
                return out

            return recorded

        monkeypatch.setattr(SmoothMap, "on_region", recording)
        reports = {rep.suite: rep for rep in suites.suite_ode_residuals(suites.SuiteConfig())}
        # the residual maps the family's report read, named after its systems
        read = [(p, r) for p, r in read if r.name.startswith(f"residual[{family}-ode-")]
        assert reports[f"ode-residual[{family}-branches]"].checked == len(read) == count
        branches = set()
        for (t, y), residual in read:
            system = factory(branch_for(t, y))
            assert residual.name == f"residual[{system.name}]"
            assert abs(residual(t, y)[0]) <= 1e-10
            branches.add(system.name)
        assert len(branches) == 2


class TestResidualChecksReadTheIntegratedSystems:
    @pytest.mark.parametrize(
        "factory, suite",
        [
            ("sqrt_ode_system", "ode-residual[sqrt-branches]"),
            ("milder_ode_system", "ode-residual[milder-branches]"),
        ],
    )
    def test_a_scaled_rhs_fails_its_residual_check(self, monkeypatch, factory, suite):
        import semiflow.suites as suites

        monkeypatch.setattr(suites, factory, _scaled_rhs(getattr(suites, factory), 1.000001))
        reports = {rep.suite: rep for rep in suites.suite_ode_residuals(suites.SuiteConfig())}
        assert not reports[suite].passed and reports[suite].witnesses
        others = [rep for name, rep in reports.items() if name != suite]
        assert all(rep.passed for rep in others)


class TestBranchResidualsSkipTheFold:
    """Within 2*S*u/tol of the fold 1 + 2*s*y = 0, S the sensitivity of the rhs to its
    square root, a branch residual measures only the rounding of H, so the point is a
    skip, not a failure."""

    def test_the_sqrt_residual_skips_a_point_on_the_fold(self):
        import semiflow.suites as suites

        # 1 + 2*sqrt(t)*y = -2e-15 at the first point; H solves the ODE there
        grids = {"t": Axis(0.37, 0.38, 2), "y": Axis(-0.8219949365267882, -0.5, 2)}
        reports = {rep.suite: rep for rep in suites.suite_ode_residuals(suites.SuiteConfig(grids=grids))}
        rep = reports["ode-residual[sqrt-branches]"]
        assert rep.passed and (rep.checked, rep.skipped) == (3, 1)

    def test_the_milder_residual_skips_points_on_the_fold(self, monkeypatch):
        import semiflow.suites as suites

        # 1 + 2*t*y is -6.1e-13 at the first point and 1.2e-10 at the last one
        folds = SamplingGrid((Axis(0.47, 0.62, 2), Axis(-1.0638297871072222, -0.8064516129037196, 2)))
        monkeypatch.setattr(suites, "grid2d", lambda *args: folds)
        reports = {rep.suite: rep for rep in suites.suite_ode_residuals(suites.SuiteConfig())}
        rep = reports["ode-residual[milder-branches]"]
        assert rep.passed and (rep.checked, rep.skipped) == (2, 2)

    def test_the_margin_grows_with_the_sensitivity_of_the_sqrt_rhs(self):
        import semiflow.suites as suites
        from semiflow.cli import run_suite

        # |1 + 2*sqrt(t)*y| = 1.22e-6 at the first point: just outside u/tol, but the rhs
        # scales the rounding of its root by 1/(4*t*sqrt(t)) = 7.9, so the residual of
        # the exact solution reads 4.9e-10
        scenario = {
            "suite": "ode-residuals",
            "grids": {
                "t": {"lo": 0.1, "hi": 0.2, "count": 2},
                "y": {"lo": -1.5811368947702615, "hi": -1.0, "count": 2},
            },
        }
        assert run_suite(scenario) == 0
        grids = {k: Axis(**v) for k, v in scenario["grids"].items()}
        reports = {rep.suite: rep for rep in suites.suite_ode_residuals(suites.SuiteConfig(grids=grids))}
        rep = reports["ode-residual[sqrt-branches]"]
        assert rep.passed and (rep.checked, rep.skipped) == (3, 1)

    def test_the_margin_grows_with_the_sensitivity_of_the_milder_rhs(self, monkeypatch):
        import semiflow.suites as suites

        # 1 + 2*t*y = -2e-6 at (0.1, -5.00001), where the rhs scales the rounding of its
        # root by 2*y^2/(1 + |d|)^2 = 50 and the residual of the exact solution reads 1.7e-9
        folds = SamplingGrid((Axis(0.1, 0.2, 2), Axis(-5.00001, -1.0, 2)))
        monkeypatch.setattr(suites, "grid2d", lambda *args: folds)
        reports = {rep.suite: rep for rep in suites.suite_ode_residuals(suites.SuiteConfig())}
        rep = reports["ode-residual[milder-branches]"]
        assert rep.passed and (rep.checked, rep.skipped) == (3, 1)

    def test_the_default_grids_stay_clear_of_the_fold(self):
        import semiflow.suites as suites

        reports = {rep.suite: rep for rep in suites.suite_ode_residuals(suites.SuiteConfig())}
        for name in ("ode-residual[sqrt-branches]", "ode-residual[milder-branches]"):
            assert reports[name].passed and reports[name].skipped == 0

    def test_the_margin_is_unit_roundoff_over_the_tolerance(self):
        from semiflow.suites import _fold_margin

        assert _fold_margin(1e-10) == 2.0**-53 / 1e-10
