"""Parametric charts, graph recovery, PDE residuals, semi-symmetries."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflow.actions import PreconditionError
from semiflow.expr import EvalDomainError, ExprError, Var
from semiflow.grids import grid1d, grid2d
from semiflow.maps import SmoothMap, compose, identity_map, scalar_map
from semiflow.report import Witness
from semiflow.semisym import (
    VALUE_MAPS,
    WAVE_PROFILES,
    ParametricFunction,
    act,
    canonical_parametric,
    constrained_symmetry_scan,
    is_graph,
    pde_from_text,
    regraph,
    residual_max,
    rotation_map,
    scaling_action,
    semi_symmetry_check,
    strip_predicate,
    translation_wave,
    value_shift_action,
    vertical_map,
)


class TestCanonicalParametric:
    def test_parabola_chart(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        assert V.params == ("x",) and V.base_dim == 1
        base, value = V.sample((3.0,))
        assert base == (3.0,) and value == 9.0

    def test_zero_function(self):
        V = canonical_parametric(scalar_map(("x",), "0"))
        assert V.sample((1.7,)) == ((1.7,), 0.0)

    def test_wave_chart(self):
        V = canonical_parametric(translation_wave("sin(z)"))
        base, value = V.sample((0.25, 0.5))
        assert base == (0.25, 0.5)
        assert value == pytest.approx(math.sin(0.75), rel=1e-15)

    def test_needs_single_output(self):
        with pytest.raises(ExprError):
            canonical_parametric(identity_map(("x", "y")))

    def test_rejects_a_callable_backed_map(self):
        U = SmoothMap(("x",), func=lambda x: (x * x,), out_dim=1)
        with pytest.raises(ExprError, match="expression-backed"):
            canonical_parametric(U)


class TestAct:
    def test_identity_action_is_structural_identity(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        W = act(identity_map(("x", "u")), V)
        assert W.chart.outputs == V.chart.outputs

    def test_vertical_on_wave_is_composition(self):
        V = canonical_parametric(translation_wave("sin(z)"))
        f = vertical_map("u^3 - u", ("t", "x"))
        W = act(f, V)
        t, x = 0.3, 0.8
        h = math.sin(t + x)
        _, value = W.sample((t, x))
        assert value == pytest.approx(h**3 - h, abs=1e-15)

    def test_arity_mismatch(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        with pytest.raises(ExprError):
            act(identity_map(("t", "x", "u")), V)  # three coordinates for a plane chart

    def test_functoriality_on_grid(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        f = rotation_map(0.7)
        h = rotation_map(-0.2)
        lhs = act(f, act(h, V))
        rhs = act(compose(f, h), V)
        for (lam,) in grid1d(-2.0, 2.0, 41).points():
            a = lhs.chart(lam)
            b = rhs.chart(lam)
            assert all(abs(x - y) <= 1e-12 for x, y in zip(a, b))


class TestIsGraph:
    def test_canonical_charts_are_graphs(self):
        for profile in WAVE_PROFILES.values():
            V = canonical_parametric(translation_wave(profile))
            ok, _ = is_graph(V, grid2d(0.0, 1.0, 15, 0.0, 1.0, 15))
            assert ok

    def test_quarter_turn_breaks_graph(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        ok, wit = is_graph(act(rotation_map(math.pi / 4.0), V), grid1d(-2.0, 2.0, 401))
        assert not ok and wit is not None
        # witness parameters straddle the turning point and share a base point
        lam1, lam2 = wit.point
        assert abs(wit.values[0] - wit.values[2]) <= 1e-9
        assert abs(wit.values[1] - wit.values[3]) > 1e-6

    def test_half_turn_keeps_graph(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        ok, _ = is_graph(act(rotation_map(math.pi), V), grid1d(-2.0, 2.0, 401))
        assert ok

    def test_vertical_maps_preserve_graphs(self):
        for profile in WAVE_PROFILES.values():
            V = canonical_parametric(translation_wave(profile))
            for g_text in VALUE_MAPS.values():
                W = act(vertical_map(g_text, ("t", "x")), V)
                ok, _ = is_graph(W, grid2d(0.0, 1.0, 11, 0.0, 1.0, 11))
                assert ok


def all_pairs_is_graph(V, grid, base_tol, value_gap):
    """Reference: an all-pairs scan under is_graph's exact predicate."""
    samples = []
    for lam in grid.points():
        try:
            base, value = V.sample(lam)
        except EvalDomainError:
            continue
        samples.append((base, value, lam))
    for i, (base_i, val_i, lam_i) in enumerate(samples):
        for j in range(i + 1, len(samples)):
            base_j, val_j, lam_j = samples[j]
            if max(abs(a - b) for a, b in zip(base_i, base_j)) <= base_tol:
                if abs(val_j - val_i) > value_gap:
                    return False, Witness(
                        (*lam_i, *lam_j),
                        (*base_i, val_i, *base_j, val_j),
                        "same base point, two values",
                    )
    return True, None


def tabulated_chart(rows):
    """A chart k -> rows[k] over the grid 0, 1, ..., len(rows)-1."""
    dim = len(rows[0][0])
    chart = SmoothMap(("k",), func=lambda k: (*rows[int(k)][0], rows[int(k)][1]), out_dim=dim + 1)
    return ParametricFunction(("k",), chart, dim), grid1d(0.0, len(rows) - 1.0, len(rows))


_ODD = [math.nan, math.inf, -math.inf, 1e300, -1e300, -0.0]


@st.composite
def graph_samples(draw, dims=(2, 2, 3)):
    # Coordinates on a lattice of half the tolerance give duplicates, pairs
    # exactly base_tol apart and pairs across cell boundaries; the odd values
    # and free floats give loose samples and overflowing cell quotients.
    base_tol = draw(st.sampled_from([0.25, 0.1, 1e-9, 0.0]))
    unit = base_tol / 2.0 if base_tol else 1.0
    coord = st.one_of(
        st.integers(-8, 8).map(lambda k: k * unit),
        st.sampled_from(_ODD),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    value = st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.nan, math.inf]), st.floats())
    dim = draw(st.sampled_from(dims))
    rows = draw(
        st.lists(st.tuples(st.tuples(*[coord] * dim), value), min_size=2, max_size=40)
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=6))
    return base_tol, rows


class TestIsGraphCellIndex:
    @settings(max_examples=200, deadline=None)
    @given(graph_samples())
    @example((0.25, [((0.375, 0.0), 0.0), ((0.625, 0.0), 1.0)]))  # across a cell edge
    @example((0.25, [((0.0, 0.0), 0.0), ((-0.25, 0.25), 1.0)]))  # negative, base_tol apart
    @example((0.25, [((0.0, math.nan), 0.0), ((0.0, 5.0), 1.0)]))  # NaN base matches
    @example((0.25, [((0.0, 5.0), 0.0), ((0.0, math.nan), 1.0)]))  # ... also as the later one
    @example((1e-9, [((1e300, 0.0), 0.0), ((1e300, 0.0), 1.0)]))  # quotient overflows
    @example((1e-9, [((math.inf, 0.0), 0.0), ((1.0, 0.0), 1.0), ((1.0, 0.0), 1.0)]))
    def test_matches_all_pairs_scan(self, case):
        base_tol, rows = case
        V, grid = tabulated_chart(rows)
        expected = all_pairs_is_graph(V, grid, base_tol, 0.5)
        assert repr(is_graph(V, grid, base_tol, 0.5)) == repr(expected)

    def test_first_offending_pair_in_grid_order(self):
        rows = [((0.0, 0.0), 0.0), ((5.0, 5.0), 0.0), ((5.0, 5.0), 3.0), ((0.0, 0.0), 1.0)]
        ok, wit = is_graph(*tabulated_chart(rows))
        assert not ok and wit.point == (0.0, 3.0)


class TestIsGraphOneDimensionalSweep:
    @settings(max_examples=200, deadline=None)
    @given(graph_samples(dims=(1,)))
    @example((0.25, [((3.0,), 0.0), ((math.nan,), 0.0), ((1.0,), 5.0)]))
    @example((0.25, [((math.inf,), 0.0), ((math.inf,), 5.0)]))  # inf - inf is NaN
    @example((0.25, [((1.0,), 0.0), ((math.nan,), 0.0), ((1.1,), 5.0)]))  # NaN between a pair
    def test_matches_all_pairs_scan(self, case):
        # the sweep's witness is the first pair in base order, so only the verdict is compared
        base_tol, rows = case
        V, grid = tabulated_chart(rows)
        expected, _ = all_pairs_is_graph(V, grid, base_tol, 0.5)
        assert is_graph(V, grid, base_tol, 0.5)[0] == expected

    def test_nan_base_matches_nothing(self):
        rows = [((3.0,), 0.0), ((math.nan,), 0.0), ((1.0,), 5.0)]
        assert is_graph(*tabulated_chart(rows)) == (True, None)


class TestRegraph:
    def test_reconstructs_values(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        U = regraph(V, grid1d(-2.0, 2.0, 201))
        for x in (-1.7, -0.3, 0.0, 1.25):
            assert U(x)[0] == pytest.approx(x * x, abs=1e-3)

    def test_outside_range_is_domain_error(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        U = regraph(V, grid1d(-2.0, 2.0, 21))
        with pytest.raises(EvalDomainError):
            U(5.0)


class TestPdeResidual:
    def test_transport_solutions(self):
        pde = pde_from_text("D(U,t) - D(U,x)", "U", ("t", "x"))
        grid = grid2d(0.0, 1.0, 21, 0.0, 1.0, 21)
        assert residual_max(pde, translation_wave("sin(z)"), grid) <= 1e-14

    def test_non_solution_has_unit_residual(self):
        pde = pde_from_text("D(U,t) - D(U,x)", "U", ("t", "x"))
        grid = grid2d(0.0, 1.0, 5, 0.0, 1.0, 5)
        assert residual_max(pde, scalar_map(("t", "x"), "t"), grid) == pytest.approx(1.0)

    def test_second_order_markers(self):
        pde = pde_from_text("D(U,t) - D(U,x,x)", "U", ("t", "x"))
        grid = grid2d(0.5, 2.0, 9, -2.0, 2.0, 9)
        # U = x^2 + 2t solves the diffusion equation exactly
        assert residual_max(pde, scalar_map(("t", "x"), "x^2 + 2*t"), grid) <= 1e-14

    def test_template_validation(self):
        with pytest.raises(ExprError):
            pde_from_text("D(V,t)", "U", ("t", "x"))  # wrong unknown
        with pytest.raises(ExprError):
            pde_from_text("D(U,t,t,t)", "U", ("t", "x"))  # order 3
        with pytest.raises(ExprError):
            pde_from_text("D(U,q)", "U", ("t", "x"))  # undeclared variable
        with pytest.raises(ExprError):
            pde_from_text("D(U,t) - w", "U", ("t", "x"))  # stray symbol

    def test_variable_order_must_match(self):
        pde = pde_from_text("D(U,t) - D(U,x)", "U", ("t", "x"))
        with pytest.raises(ExprError):
            residual_max(pde, scalar_map(("x", "t"), "x + t"), grid2d(0, 1, 3, 0, 1, 3))

    def test_domain_error_reports_point(self):
        pde = pde_from_text("D(U,t) - D(U,x)", "U", ("t", "x"))
        bad = scalar_map(("t", "x"), "sqrt(t + x)")  # derivative singular at t+x=0
        with pytest.raises(EvalDomainError) as err:
            residual_max(pde, bad, grid2d(0.0, 1.0, 3, 0.0, 1.0, 3))
        assert "(0.0, 0.0)" in str(err.value)


class TestSemiSymmetry:
    def setup_method(self):
        self.pde = pde_from_text("D(U,t) - D(U,x)", "U", ("t", "x"))
        self.family = [translation_wave(p) for p in WAVE_PROFILES.values()]
        self.grid = grid2d(0.0, 1.0, 21, 0.0, 1.0, 21)

    def test_vertical_corpus_passes(self):
        for g_text in VALUE_MAPS.values():
            rep = semi_symmetry_check(
                self.pde, vertical_map(g_text, ("t", "x")), self.family, self.grid, 1e-12
            )
            assert rep.passed and rep.max_deviation <= 1e-12

    def test_checked_counts_the_grid_points_evaluated(self):
        # every member stays a graph, and its residual is evaluated at all 21 x 21 points
        rep = semi_symmetry_check(
            self.pde, vertical_map("2*u", ("t", "x")), self.family, self.grid, 1e-12
        )
        assert rep.checked == len(self.family) * 441 == 4 * 441
        small = grid2d(0.0, 1.0, 3, 0.0, 1.0, 5)
        rep = semi_symmetry_check(
            self.pde, vertical_map("2*u", ("t", "x")), self.family[:2], small, 1e-12
        )
        assert rep.checked == 2 * 15

    def test_identity_is_trivially_semi_symmetry(self):
        rep = semi_symmetry_check(
            self.pde, vertical_map("u", ("t", "x")), self.family, self.grid, 1e-12
        )
        assert rep.passed

    def test_rotation_reports_graph_failure(self):
        # a quarter turn of the (x, u) plane, t fixed
        c = s = math.sqrt(0.5)
        t, x, u = Var("t"), Var("x"), Var("u")
        turn = SmoothMap(("t", "x", "u"), (t, c * x - s * u, s * x + c * u))
        rep = semi_symmetry_check(self.pde, turn, self.family, self.grid, 1e-12)
        assert not rep.passed
        assert any("function category" in note for note in rep.notes)
        assert rep.witnesses
        assert rep.checked == 0  # no member kept the graph, so no residual was evaluated

    def test_non_solution_member_is_precondition_error(self):
        with pytest.raises(PreconditionError):
            semi_symmetry_check(
                self.pde,
                vertical_map("u", ("t", "x")),
                [scalar_map(("t", "x"), "t")],
                self.grid,
                1e-12,
            )

    def test_nan_residual_fails(self):
        # u*1e308*10 overflows for x > 0, so the residual U - U of the
        # transformed member is inf - inf = NaN everywhere but at x = 0
        pde = pde_from_text("U - U", "U", ("x",))
        rep = semi_symmetry_check(
            pde, vertical_map("u*1e308*10", ("x",)), [scalar_map(("x",), "x")],
            grid1d(0.0, 1.0, 5), 1e-9,
        )
        assert not rep.passed and math.isnan(rep.max_deviation)


class TestConstrainedScan:
    def test_scaling_strip(self):
        scan = constrained_symmetry_scan(
            scaling_action(),
            strip_predicate,
            grid1d(0.25, 1.5, 6),
            grid2d(-0.99, 0.99, 9, -2.0, 2.0, 5),
        )
        for g, ok, witness in scan.entries:
            assert ok == (g <= 1.0)
            assert (witness is None) == ok
        assert scan.invariant_params == [0.25, 0.5, 0.75, 1.0]

    def test_value_shift_constraint(self):
        scan = constrained_symmetry_scan(
            value_shift_action(),
            lambda p: p[1] > 0.0,
            grid1d(-2.0, 2.0, 5),
            grid2d(-1.0, 1.0, 3, 0.5, 3.0, 6),
        )
        for c, ok, _ in scan.entries:
            assert ok == (c >= 0.0)

    def test_identity_parameter_always_invariant(self):
        scan = constrained_symmetry_scan(
            scaling_action(), strip_predicate, grid1d(0.999999, 1.0, 2),
            grid2d(-0.9, 0.9, 5, -1.0, 1.0, 3),
        )
        assert all(ok for _, ok, _ in scan.entries)

    def test_empty_constraint_sample_rejected(self):
        with pytest.raises(ValueError):
            constrained_symmetry_scan(
                scaling_action(), lambda p: False, grid1d(0.5, 1.0, 2),
                grid2d(-1.0, 1.0, 3, -1.0, 1.0, 3),
            )
