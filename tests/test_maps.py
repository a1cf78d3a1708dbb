"""SmoothMap backing rules, composition, grids, and scalar root finding."""

from __future__ import annotations

import inspect
import math
import random

import pytest

from semiflow.expr import EvalDomainError, ExprError
from semiflow.grids import Axis, _cell_key, _near_pairs, grid2d, linspace
from semiflow.maps import SmoothMap, compose, identity_map, map_from_exprs, scalar_map
from semiflow.rootfind import (
    RootSearchError,
    bisect,
    hybrid_root,
    newton,
    scan_brackets,
    sign_brackets,
)


class TestSmoothMap:
    def test_exactly_one_backing(self):
        with pytest.raises(ExprError):
            SmoothMap(("x",))

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

    def test_wrong_arity_message(self):
        m = map_from_exprs(("t", "y"), ["t + y"])
        for args in [(1.0, 2.0, 3.0), (1.0,), ()]:
            message = rf"^expected 2 arguments \(\('t', 'y'\)\), got {len(args)}$"
            with pytest.raises(ExprError, match=message):
                m(*args)

    def test_type_error_at_the_right_arity_propagates(self):
        # a bad argument type is the caller's error, not a malformed map
        m = map_from_exprs(("t", "y"), ["t + y"])
        with pytest.raises(TypeError) as info:
            m("a", 1.0)
        assert not isinstance(info.value, ExprError)

    def test_on_domain_returns_none_where_the_call_raises_a_domain_error(self):
        m = map_from_exprs(("x", "y"), ["sqrt(x) + y", "log(y)"])
        assert m.on_domain(4.0, 1.0) == m(4.0, 1.0) == (3.0, 0.0)
        for args in [(-1.0, 1.0), (4.0, 0.0), (math.nan, -1.0)]:
            with pytest.raises(EvalDomainError):
                m(*args)
            assert m.on_domain(*args) is None
        assert m.on_domain is m.on_domain  # built once per map

    def test_on_domain_lets_every_other_error_through(self):
        # sin of a product that overflowed to inf raises ValueError, not a domain error
        m = scalar_map(("x",), "sin(exp(x)*exp(x))")
        with pytest.raises(ValueError) as info:
            m.on_domain(400.0)
        assert not isinstance(info.value, ExprError)
        # a wrong arity names the map's inputs, as a call does
        two = map_from_exprs(("t", "y"), ["t + y"])
        for args in [(1.0, 2.0, 3.0), (1.0,), ()]:
            with pytest.raises(ExprError, match=rf"^expected 2 arguments \(\('t', 'y'\)\), got {len(args)}$"):
                two.on_domain(*args)
        with pytest.raises(TypeError) as info:
            two.on_domain("a", 1.0)
        assert not isinstance(info.value, ExprError)

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
        assert c.inputs == ("x",) and c.out_dim == 1
        assert c(2.0)[0] == 9.0

    def test_compose_arity_mismatch(self):
        with pytest.raises(ExprError):
            compose(scalar_map(("u", "v"), "u + v"), scalar_map(("x",), "x"))

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


def _double_loop_pairs(points, side):
    """The pairs `_near_pairs` promises, by brute force: every (i, j), i < j,
    in loop order, whose cells are at most one apart per axis, or where
    either cell cannot be computed."""
    keys = [_cell_key(p, side) for p in points]
    return [
        (i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
        if keys[i] is None
        or keys[j] is None
        or all(abs(a - b) <= 1 for a, b in zip(keys[i], keys[j]))
    ]


def _seeded_point_sets(count, seed=20261018):
    """Point sets of dimension 1-3: spread out, clustered or duplicated,
    some with NaN or infinite coordinates, under sides from 0 to inf."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 3)
        n = rng.randint(0, 30)
        scale = rng.choice([1.0, 1.0, 1e-8, 1e300])
        side = rng.choice([0.0, 1e-9, math.inf, 0.05, 0.3, 1.0, rng.uniform(0.01, 2.0)])
        kind = rng.choice(["spread", "clusters", "duplicates"])
        if kind == "spread":
            points = [[scale * rng.uniform(-3.0, 3.0) for _ in range(d)] for _ in range(n)]
        elif kind == "clusters":
            centres = [[scale * rng.uniform(-3.0, 3.0) for _ in range(d)] for _ in range(3)]
            points = [
                [c + scale * rng.uniform(-0.1, 0.1) for c in rng.choice(centres)]
                for _ in range(n)
            ]
        else:
            pool = [[scale * rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(4)]
            points = [list(rng.choice(pool)) for _ in range(n)]
        if points and rng.random() < 0.3:
            for _ in range(rng.randint(1, 3)):
                rng.choice(points)[rng.randrange(d)] = rng.choice([math.nan, math.inf, -math.inf])
        yield [tuple(p) for p in points], side


class TestNearPairs:
    def test_matches_the_double_loop_pair_for_pair_and_in_order(self):
        for points, side in _seeded_point_sets(2000):
            assert list(_near_pairs(points, side)) == _double_loop_pairs(points, side)

    def test_every_close_pair_is_a_candidate(self):
        for points, side in _seeded_point_sets(500, seed=7):
            got = set(_near_pairs(points, side))
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    gaps = [abs(a - b) for a, b in zip(points[i], points[j])]
                    if all(g <= side / 2 for g in gaps):
                        assert (i, j) in got

    def test_loose_points_pair_with_every_other_point(self):
        points = [(0.0, 0.0), (math.nan, 1.0), (5.0, 5.0), (math.inf, 0.0), (9.0, 9.0)]
        assert list(_near_pairs(points, 1.0)) == [
            (0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)
        ]
        assert len(list(_near_pairs(points, 0.0))) == 10  # a zero side: every pair

    def test_stays_lazy(self):
        # a caller that stops at its first match must not pay for all pairs
        pairs = _near_pairs([(0.0, 0.0)] * 1000, 1.0)
        assert inspect.isgenerator(pairs)
        assert next(pairs) == (0, 1)


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

    def test_scan_is_the_sign_scan_of_its_uniform_points(self):
        f = lambda x: (x - 0.7) * (x - 1.2) * (x - 2.6)  # noqa: E731
        brackets = sign_brackets(f, [0.5 * k for k in range(7)])
        assert scan_brackets(f, 0.0, 3.0, 7) == brackets == [(0.5, 1.0), (1.0, 1.5), (2.5, 3.0)]
        # an exact zero is a bracket of its own, with or without a sign change
        assert sign_brackets(lambda x: x * x, [-1.0, 0.0, 1.0]) == [(0.0, 0.0)]

    def test_an_exact_zero_is_not_sign_tested_again(self):
        # the values after the zeros at 1.0 and 2.5 are negative, then positive: each
        # zero, -0.0 included, is reported once and brackets nothing after it
        f = lambda x: (x - 0.5) * (x - 1.0) * (x - 2.5)  # noqa: E731
        assert sign_brackets(f, [0.5 * k for k in range(7)]) == [(0.5, 0.5), (1.0, 1.0), (2.5, 2.5)]
        assert sign_brackets(lambda x: -0.0 if x == 0.0 else -x, [0.0, 1.0]) == [(0.0, 0.0)]

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
        df = lambda x: 1.0 - math.tanh(x - 0.7) ** 2  # noqa: E731
        root = hybrid_root(f, df, 0.0, 2.0, tol=1e-10)
        assert root == pytest.approx(0.7, abs=1e-13)
