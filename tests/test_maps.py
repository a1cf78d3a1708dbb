"""SmoothMap backing rules, composition, grids, and scalar root finding."""

from __future__ import annotations

import math

import pytest

from semiflow.expr import EvalDomainError, ExprError, Var
from semiflow.grids import Axis, SamplingGrid, grid2d, linspace
from semiflow.maps import SmoothMap, compose, identity_map, map_from_exprs, scalar_map
from semiflow.rootfind import (
    RootSearchError,
    bisect,
    hybrid_root,
    newton,
    scan_brackets,
)


class TestSmoothMap:
    def test_exactly_one_backing(self):
        with pytest.raises(ExprError):
            SmoothMap(("x",))
        with pytest.raises(ExprError):
            SmoothMap(("x",), (Var("x"),), func=lambda x: (x,), out_dim=1)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ExprError):
            map_from_exprs(("x",), ["x + y"])

    def test_undeclared_variable_message_names_the_first_stray_output(self):
        with pytest.raises(ExprError, match=r"output 'x \+ y' uses undeclared variables \['y'\]"):
            map_from_exprs(("x",), ["x", "x + y", "z"])

    def test_call_and_at(self):
        m = map_from_exprs(("t", "y"), ["t + y", "t*y"])
        assert m(2.0, 3.0) == (5.0, 6.0)
        assert m.at([2.0, 3.0]) == (5.0, 6.0)
        with pytest.raises(ExprError):
            m(1.0)

    def test_outputs_compile_once_per_map(self, monkeypatch):
        import semiflow.maps as maps

        systems = []
        real = maps.compile_system
        monkeypatch.setattr(maps, "compile_system", lambda *a: systems.append(a) or real(*a))
        m = map_from_exprs(("x",), ["sin(x)^2 + exp(-x)*x", "exp(-x)*x"])
        values = [m(0.1 * k) for k in range(10)]
        assert systems == [(m.outputs, m.inputs)]
        x = 0.1 * 3
        assert values[3] == (math.sin(x) ** 2 + math.exp(-x) * x, math.exp(-x) * x)
        assert m.partial("x")(0.0) == (1.0, 1.0) and len(systems) == 2  # a new map compiles anew

    def test_callable_backed_map_has_no_compiled_outputs(self):
        m = SmoothMap(("x",), func=lambda x: (2 * x,), out_dim=1)
        assert m(2) == (4.0,)
        with pytest.raises(ExprError, match="no compiled outputs"):
            m.compiled

    def test_builtin_backing(self):
        m = SmoothMap(("x",), func=lambda x: (x * 2.0,), out_dim=1)
        assert m(4.0) == (8.0,)
        with pytest.raises(ExprError):
            m.partial("x")

    def test_partial(self):
        m = scalar_map(("y",), "y^3")
        d = m.partial("y")
        assert d(2.0)[0] == pytest.approx(12.0, rel=1e-15)

    def test_freeze(self):
        m = scalar_map(("t", "y"), "y + sqrt(t)*y^2")
        frozen = m.freeze(t=4.0)
        assert frozen.inputs == ("y",)
        assert frozen(3.0)[0] == pytest.approx(21.0, rel=1e-15)

    def test_compose_symbolic(self):
        outer = scalar_map(("u",), "u^2")
        inner = scalar_map(("x",), "x + 1")
        c = compose(outer, inner)
        assert c.is_symbolic
        assert c(2.0)[0] == 9.0

    def test_compose_arity_mismatch(self):
        with pytest.raises(ExprError):
            compose(scalar_map(("u", "v"), "u + v"), scalar_map(("x",), "x"))

    def test_compose_rejects_a_callable_operand(self):
        plain = SmoothMap(("u",), func=lambda u: (u * 2.0,), out_dim=1)
        symbolic = scalar_map(("x",), "x + 1")
        for outer, inner in ((plain, symbolic), (symbolic, plain)):
            with pytest.raises(ExprError, match="callable-backed"):
                compose(outer, inner)

    def test_identity_map(self):
        m = identity_map(("a", "b"))
        assert m(1.0, 2.0) == (1.0, 2.0)


class TestGrids:
    def test_linspace_endpoints(self):
        pts = linspace(0.0, 1.0, 5)
        assert pts == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            Axis(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Axis(1.0, 0.0, 5)

    def test_grid_points_order_deterministic(self):
        g = grid2d(0.0, 1.0, 2, 0.0, 1.0, 3)
        assert list(g.points()) == [
            (0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
            (1.0, 0.0), (1.0, 0.5), (1.0, 1.0),
        ]
        assert g.size == 6

    def test_jitter_is_seeded_and_interior(self):
        g1 = SamplingGrid((Axis(0.0, 1.0, 11),), seed=7, jitter=0.5)
        g2 = SamplingGrid((Axis(0.0, 1.0, 11),), seed=7, jitter=0.5)
        v1, v2 = g1.axis_values()[0], g2.axis_values()[0]
        assert v1 == v2
        assert v1[0] == 0.0 and v1[-1] == 1.0
        assert v1 != linspace(0.0, 1.0, 11)


class TestRootFinding:
    def test_scan_and_bisect(self):
        f = lambda x: x * x - 2.0  # noqa: E731
        brackets = scan_brackets(f, 0.0, 3.0, 64)
        assert len(brackets) == 1
        root = bisect(f, *brackets[0], tol=1e-13)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_scan_skips_domain_gaps(self):
        def f(x):
            if x < 0.5:
                raise EvalDomainError("gap")
            return x - 1.0

        brackets = scan_brackets(f, 0.0, 2.0, 64)
        assert len(brackets) == 1
        assert brackets[0][0] < 1.0 < brackets[0][1]

    def test_bisect_requires_sign_change(self):
        with pytest.raises(RootSearchError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_newton_polish(self):
        f = lambda x: x * x * x - 8.0  # noqa: E731
        df = lambda x: 3.0 * x * x  # noqa: E731
        root = newton(f, df, 3.0)
        assert root == pytest.approx(2.0, abs=1e-14)

    def test_newton_returns_none_on_flat(self):
        assert newton(lambda x: 1.0 + x * 0.0, lambda x: 0.0, 1.0) is None

    def test_hybrid_beats_plain_bisection(self):
        f = lambda x: math.tanh(x - 0.7)  # noqa: E731
        root = hybrid_root(f, 0.0, 2.0, tol=1e-10)
        assert root == pytest.approx(0.7, abs=1e-13)
