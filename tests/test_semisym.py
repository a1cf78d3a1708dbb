"""Parametric charts, graph recovery, PDE residuals, semi-symmetries."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflow.actions import PreconditionError
from semiflow.evolution_pde import heat_kernel, heat_pde
from semiflow.expr import EvalDomainError, ExprError, Var, diff
from semiflow.grids import grid1d, grid2d
from semiflow.maps import SmoothMap, compose, identity_map, map_from_exprs, scalar_map
from semiflow.report import Witness
from semiflow.semisym import (
    VALUE_MAPS,
    WAVE_PROFILES,
    ParametricFunction,
    act,
    canonical_parametric,
    is_graph,
    regraph,
    residual_max,
    rotation_map,
    semi_symmetry_check,
    translation_wave,
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


class TestParametricFunction:
    def test_params_and_base_dim_are_read_from_the_chart(self):
        V = ParametricFunction(map_from_exprs(("a", "b"), ["a", "b", "a*b", "a + b"]))
        assert V.params == ("a", "b") and V.base_dim == 3
        assert V.sample((2.0, 3.0)) == ((2.0, 3.0, 6.0), 5.0)


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

    def test_a_map_that_is_no_self_map_is_rejected(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        with pytest.raises(ExprError, match=r"self-map of the chart's R\^2; got R\^2 -> R\^3$"):
            act(map_from_exprs(("x", "u"), ["x", "u", "x*u"]), V)

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


class TabulatedChart:
    """A stand-in for a SmoothMap k -> rows[k] with arbitrary values: charts
    read only `inputs`, `in_dim`, `out_dim`, `at`, `__call__` and `name`."""

    inputs, in_dim, name = ("k",), 1, "tabulated"

    def __init__(self, rows):
        self.rows, self.out_dim = rows, len(rows[0][0]) + 1

    def __call__(self, k):
        base, value = self.rows[int(k)]
        return (*base, value)

    def at(self, point):
        return self(*point)


def tabulated_chart(rows):
    """A chart k -> rows[k] over the grid 0, 1, ..., len(rows)-1."""
    chart = TabulatedChart(rows)
    grid = grid1d(0.0, len(rows) - 1.0, len(rows))
    return ParametricFunction(chart), grid


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
    """One-dimensional bases, the case a sorted sweep once handled, now go
    through the same cell index, so the witness is compared too."""

    @settings(max_examples=200, deadline=None)
    @given(graph_samples(dims=(1,)))
    @example((0.25, [((3.0,), 0.0), ((math.nan,), 0.0), ((1.0,), 5.0)]))
    @example((0.25, [((math.inf,), 0.0), ((math.inf,), 5.0)]))  # inf - inf is NaN
    @example((0.25, [((1.0,), 0.0), ((math.nan,), 0.0), ((1.1,), 5.0)]))  # NaN between a pair
    def test_matches_all_pairs_scan(self, case):
        base_tol, rows = case
        V, grid = tabulated_chart(rows)
        expected = all_pairs_is_graph(V, grid, base_tol, 0.5)
        assert repr(is_graph(V, grid, base_tol, 0.5)) == repr(expected)

    def test_nan_base_matches_nothing(self):
        rows = [((3.0,), 0.0), ((math.nan,), 0.0), ((1.0,), 5.0)]
        assert is_graph(*tabulated_chart(rows)) == (True, None)


class TestRegraph:
    def test_reconstructs_values(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        U = regraph(V, grid1d(-2.0, 2.0, 201))
        for x in (-1.7, -0.3, 0.0, 1.25):
            assert U(x) == pytest.approx(x * x, abs=1e-3)

    def test_outside_range_is_domain_error(self):
        V = canonical_parametric(scalar_map(("x",), "x^2"))
        U = regraph(V, grid1d(-2.0, 2.0, 21))
        with pytest.raises(EvalDomainError):
            U(5.0)


def transport(u):
    return diff(u, "t") - diff(u, "x")


class TestPdeResidual:
    def test_transport_solutions(self):
        grid = grid2d(0.0, 1.0, 21, 0.0, 1.0, 21)
        assert residual_max(transport, translation_wave("sin(z)"), grid) <= 1e-14

    def test_non_solution_has_unit_residual(self):
        grid = grid2d(0.0, 1.0, 5, 0.0, 1.0, 5)
        assert residual_max(transport, scalar_map(("t", "x"), "t"), grid) == pytest.approx(1.0)

    def test_second_order_markers(self):
        grid = grid2d(0.5, 2.0, 9, -2.0, 2.0, 9)
        # U = x^2 + 2t solves the diffusion equation exactly
        U = scalar_map(("t", "x"), "x^2 + 2*t")
        assert residual_max(heat_pde, U, grid) <= 1e-14

    def test_variable_order_must_match(self):
        # a member over (x, t) is no map of the vertical map's base (t, x)
        member = scalar_map(("x", "t"), "x + t")
        with pytest.raises(PreconditionError, match="family member"):
            semi_symmetry_check(
                transport, vertical_map("u", ("t", "x")), [member], grid2d(0, 1, 3, 0, 1, 3), 1e-12
            )

    def test_domain_error_reports_point(self):
        # the residual 1/(2*sqrt(t + x)) - 1/(2*sqrt(t + x)) first fails at
        # the grid's first point, with the tree walk's error there
        bad = scalar_map(("t", "x"), "sqrt(t + x)")
        for t0, message in [
            (0.0, "residual undefined at (0.0, 0.0): division by zero"),
            (-1.0, "residual undefined at (-1.0, 0.0): sqrt of negative argument -1.0"),
        ]:
            with pytest.raises(EvalDomainError) as err:
                residual_max(transport, bad, grid2d(t0, 1.0, 3, 0.0, 1.0, 3))
            assert str(err.value) == message
            assert type(err.value.__cause__) is EvalDomainError


class TestSemiSymmetry:
    def setup_method(self):
        self.pde = transport
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

    def test_an_empty_family_checks_nothing_and_cannot_pass(self):
        rep = semi_symmetry_check(self.pde, vertical_map("u", ("t", "x")), [], self.grid, 1e-12)
        assert rep.checked == 0 and rep.inconclusive and not rep.passed

    def test_identity_is_trivially_semi_symmetry(self):
        rep = semi_symmetry_check(
            self.pde, vertical_map("u", ("t", "x")), self.family, self.grid, 1e-12
        )
        assert rep.passed

    def test_rotation_is_precondition_error(self):
        # a quarter turn of the (x, u) plane, t fixed, moves base coordinates
        c = s = math.sqrt(0.5)
        t, x, u = Var("t"), Var("x"), Var("u")
        turn = SmoothMap(("t", "x", "u"), (t, c * x - s * u, s * x + c * u))
        with pytest.raises(PreconditionError, match="not a vertical map"):
            semi_symmetry_check(self.pde, turn, self.family, self.grid, 1e-12)

    def test_vertical_map_of_the_wrong_base_arity_is_precondition_error(self):
        # vertical over (x,) only: three coordinates are needed for U(t, x)
        with pytest.raises(PreconditionError, match="not a vertical map"):
            semi_symmetry_check(
                self.pde, vertical_map("u^2", ("x",)), self.family, self.grid, 1e-12
            )
        with pytest.raises(PreconditionError, match="not a vertical map"):
            semi_symmetry_check(
                self.pde, vertical_map("u^2", ("s", "t", "x")), self.family, self.grid, 1e-12
            )

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
        rep = semi_symmetry_check(
            lambda u: u - u, vertical_map("u*1e308*10", ("x",)), [scalar_map(("x",), "x")],
            grid1d(0.0, 1.0, 5), 1e-9,
        )
        assert not rep.passed and math.isnan(rep.max_deviation)

    def test_a_failing_map_writes_its_first_witnesses(self):
        # on U_t = U_xx, g(U) has residual g'(U)(U_t - U_xx) - g''(U) U_x^2:
        # u^2 breaks the heat kernel, an affine map keeps it a solution
        grid = grid2d(0.5, 2.0, 16, -3.0, 3.0, 21)
        kernel = heat_kernel()
        rep = semi_symmetry_check(heat_pde, vertical_map("u^2", ("t", "x")), [kernel], grid, 1e-10)
        assert not rep.passed and rep.max_deviation == pytest.approx(1.44, abs=0.01)
        assert rep.checked == 16 * 21 and len(rep.witnesses) == 8
        first = rep.witnesses[0]
        assert first.point == (0.5, -3.0) and first.note == "heat-kernel"
        assert abs(first.values[0]) > 1e-10
        rep = semi_symmetry_check(
            heat_pde, vertical_map("3*u - 1", ("t", "x")), [kernel], grid, 1e-10
        )
        assert rep.passed and rep.max_deviation <= 1e-15 and rep.witnesses == []
