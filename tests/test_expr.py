"""Parser, evaluator, exact differentiation, substitution, printing."""

from __future__ import annotations

import ast
import gc
import math
import operator

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semiflow.expr import (
    Binary,
    Const,
    EvalDomainError,
    ExprError,
    ParseError,
    UnboundVariableError,
    Unary,
    Var,
    compile_expr,
    compile_system,
    diff,
    evaluate,
    free_vars,
    neg,
    parse_expr,
    substitute_many,
    to_text,
)
from semiflow.expr import _COMPILE_NS, RELATIONS, _emit_system
from semiflow.maps import SmoothMap, finite_diff, scalar_map
from semiflow.reduction import IntegrationError, OdeSystem, integrate_flow


def sin(e):
    return Unary("sin", e)


def cos(e):
    return Unary("cos", e)


def exp(e):
    return Unary("exp", e)


def tanh(e):
    return Unary("tanh", e)


class TestParser:
    def test_sqrt_action_tree(self):
        got = parse_expr("y + sqrt(t)*y^2")
        want = Binary(
            "add",
            Var("y"),
            Binary("mul", Unary("sqrt", Var("t")), Binary("pow", Var("y"), Const(2.0))),
        )
        assert got == want

    def test_single_variable(self):
        assert parse_expr("y") == Var("y")

    def test_reciprocal_bump_tree(self):
        got = parse_expr("1/(y^2+1)")
        want = Binary(
            "div",
            Const(1.0),
            Binary("add", Binary("pow", Var("y"), Const(2.0)), Const(1.0)),
        )
        assert got == want

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse_expr("-x^2"), {"x": 3.0}) == -9.0
        assert evaluate(parse_expr("exp(-x^2/(4*t))"), {"x": 2.0, "t": 1.0}) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )

    def test_power_right_associative(self):
        assert evaluate(parse_expr("2^3^2"), {}) == 512.0

    def test_left_associative_sub_div(self):
        assert evaluate(parse_expr("8 - 3 - 2"), {}) == 3.0
        assert evaluate(parse_expr("16/4/2"), {}) == 2.0

    def test_whitespace_insensitive(self):
        assert parse_expr(" y +  sqrt( t ) * y ^ 2 ") == parse_expr("y+sqrt(t)*y^2")

    def test_unknown_function_reports_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("y + frob(t)")
        assert err.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("y + 1 )")

    def test_incomplete_expression(self):
        with pytest.raises(ParseError):
            parse_expr("y + (")

    def test_function_arity(self):
        with pytest.raises(ParseError):
            parse_expr("sqrt(t, y)")

    def test_pow_exponent_must_be_constant(self):
        with pytest.raises(ParseError):
            parse_expr("y^t")
        # rational constant exponents are fine
        assert evaluate(parse_expr("8^(1/3)"), {}) == pytest.approx(2.0)

    def test_scientific_notation(self):
        assert parse_expr("1e-8") == Const(1e-8)
        assert parse_expr("2.5e3") == Const(2500.0)

    def test_derivative_marker(self):
        # D is an ordinary name: the old marker syntax is an unknown function
        with pytest.raises(ParseError, match="unknown function name 'D'") as err:
            parse_expr("D(U,t)")
        assert err.value.offset == 0
        assert parse_expr("D") == Var("D")

    def test_nested_parentheses(self):
        assert parse_expr("((x))") == Var("x")

    def test_bare_function_name_is_a_variable(self):
        # only a following "(" makes an identifier a function call
        assert parse_expr("sqrt") == Var("sqrt")
        with pytest.raises(ParseError):
            parse_expr("sqrt x")

    def test_empty_and_blank_inputs(self):
        for text in ("", "   "):
            with pytest.raises(ParseError):
                parse_expr(text)


class TestEvaluate:
    def test_direct_value(self):
        assert evaluate(parse_expr("y + sqrt(t)*y^2"), {"t": 4.0, "y": 3.0}) == 21.0

    def test_identity(self):
        assert evaluate(parse_expr("y"), {"y": 7.0}) == 7.0

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse_expr("sqrt(t)"), {"t": -1.0})

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse_expr("log(x)"), {"x": 0.0})

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse_expr("1/x"), {"x": 0.0})

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse_expr("y + z"), {"y": 1.0})

    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_compiled_division_by_zero_is_a_domain_error(self, x):
        # the compiled code divides with "/", which raises by itself; the
        # function of compile_expr and a map's call turn that into the tree
        # walk's error
        with pytest.raises(EvalDomainError, match="division by zero"):
            compile_expr(parse_expr("1/x"), ("x",))(x)
        with pytest.raises(EvalDomainError, match="division by zero"):
            scalar_map(("x",), "1/x")(x)
        with pytest.raises(EvalDomainError, match="division by zero"):
            scalar_map(("x",), "x + 1/(x*x)")(x)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -0.0, 1e-300])
    def test_compiled_constants_match_the_tree_walk(self, value):
        e = Binary("add", Var("x"), Const(value))
        got = compile_expr(e, ("x",))(1.0)
        want = evaluate(e, {"x": 1.0})
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_cbrt_odd_extension(self):
        assert evaluate(parse_expr("cbrt(x)"), {"x": -8.0}) == pytest.approx(-2.0, rel=1e-15)
        assert evaluate(parse_expr("cbrt(x)"), {"x": 0.0}) == 0.0

    def test_negative_base_integer_power(self):
        assert evaluate(parse_expr("x^3"), {"x": -2.0}) == -8.0
        with pytest.raises(EvalDomainError):
            evaluate(parse_expr("x^0.5"), {"x": -2.0})

    @pytest.mark.parametrize("text", ["x^(1e308*10)", "x^(0*(1e308*10))", "x^-(1e308*10)"])
    def test_negative_base_non_finite_exponent_is_a_domain_error(self, text):
        # the exponent is inf or NaN, which has no integer value
        e = parse_expr(text)
        with pytest.raises(EvalDomainError, match="non-integer exponent"):
            evaluate(e, {"x": -2.0})
        with pytest.raises(EvalDomainError, match="non-integer exponent"):
            SmoothMap(("x",), (e,))(-2.0)


class TestDiff:
    def test_product_and_power_rules(self):
        d = diff(parse_expr("y + t*y^2"), "y")
        for t, y in ((1.0, 2.0), (0.5, -3.0), (2.0, 0.0)):
            assert evaluate(d, {"t": t, "y": y}) == pytest.approx(1.0 + 2.0 * t * y, rel=1e-14)

    def test_variable(self):
        assert diff(parse_expr("y"), "y") == Const(1.0)
        assert diff(parse_expr("y"), "t") == Const(0.0)

    def test_tanh_chain_rule(self):
        d = diff(parse_expr("tanh(a*x)"), "x")
        for a, x in ((1.0, 0.5), (2.0, -1.0), (0.3, 3.0)):
            want = a * (1.0 - math.tanh(a * x) ** 2)
            assert evaluate(d, {"a": a, "x": x}) == pytest.approx(want, rel=1e-14)

    def test_sqrt_derivative_singular_at_zero(self):
        d = diff(parse_expr("sqrt(t)"), "t")
        assert evaluate(d, {"t": 4.0}) == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(EvalDomainError):
            evaluate(d, {"t": 0.0})

    def test_quotient_rule(self):
        d = diff(parse_expr("1/(y^2+1)"), "y")
        for y in (-2.0, 0.0, 0.7, 3.0):
            want = -2.0 * y / (y * y + 1.0) ** 2
            assert evaluate(d, {"y": y}) == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_pow_with_variable_exponent_rejected(self):
        with pytest.raises(ExprError):
            diff(Binary("pow", Var("y"), Var("t")), "y")


class TestFiniteDiff:
    def test_square(self):
        m = scalar_map(("y",), "y^2")
        assert finite_diff(m, (3.0,), "y", 1e-5) == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        m = scalar_map(("y",), "5")
        assert finite_diff(m, (1.0,), "y", 1e-5) == 0.0

    def test_partial_in_t(self):
        m = scalar_map(("t", "y"), "y + t*y^2")
        assert finite_diff(m, (1.0, 2.0), "t", 1e-5) == pytest.approx(4.0, abs=1e-8)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff(scalar_map(("y",), "y"), (1.0,), "y", 0.0)

    def test_domain_error_propagates(self):
        with pytest.raises(EvalDomainError):
            finite_diff(scalar_map(("t",), "sqrt(t)"), (0.0,), "t", 1e-5)


class TestSubstitute:
    def test_wave_composition(self):
        g_of_u = parse_expr("u^3 - u")
        composed = substitute_many(g_of_u, {"u": parse_expr("sin(t + x)")})
        for t, x in ((0.0, 0.0), (0.3, 0.7), (1.0, -1.0)):
            h = math.sin(t + x)
            assert evaluate(composed, {"t": t, "x": x}) == pytest.approx(h**3 - h, abs=1e-15)

    def test_identity_replacement(self):
        e = parse_expr("y^2 + sqrt(y)")
        assert substitute_many(e, {"y": Var("y")}) == e

    def test_structural_replacement(self):
        got = substitute_many(parse_expr("y^2"), {"y": parse_expr("sqrt(t)")})
        assert got == parse_expr("sqrt(t)^2")

    def test_simultaneous_swap_is_capture_free(self):
        e = parse_expr("x + y")
        swapped = substitute_many(e, {"x": Var("y"), "y": Var("x")})
        assert swapped == parse_expr("y + x")


class TestPrinter:
    @pytest.mark.parametrize(
        "text",
        [
            "y + sqrt(t)*y^2",
            "1/(y^2+1)",
            "cbrt(3*t + y^3)",
            "exp(-x^2/(4*t))/sqrt(t)",
            "(1 - sqrt(t))*y + sqrt(t)/(y^2 + 1)",
            "x^2^3",
            "-(x + y)*z",
            "2*y/(1 + sqrt(1 + 4*sqrt(t)*y))",
        ],
    )
    def test_round_trip(self, text):
        e = parse_expr(text)
        assert parse_expr(to_text(e)) == e

    def test_negative_constants(self):
        e = Binary("mul", Const(-3.0), Var("y"))
        assert parse_expr(to_text(e)) == e
        e2 = Binary("pow", Const(-3.0), Const(2.0))
        assert parse_expr(to_text(e2)) == e2


# ---------------------------------------------------------------------------
# property tests

_names = st.sampled_from(["x", "y", "t"])
_leaf = st.one_of(
    st.integers(-4, 4).map(lambda v: Const(float(v))),
    _names.map(Var),
)


def _extend(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: Binary("add", ab[0], ab[1])),
        pair.map(lambda ab: Binary("sub", ab[0], ab[1])),
        pair.map(lambda ab: Binary("mul", ab[0], ab[1])),
        pair.map(lambda ab: Binary("div", ab[0], ab[1])),
        st.tuples(children, st.integers(0, 3)).map(
            lambda ae: Binary("pow", ae[0], Const(float(ae[1])))
        ),
        children.map(neg),
        children.map(sin),
        children.map(cos),
        children.map(tanh),
        children.map(exp),
    )


_trees = st.recursive(_leaf, _extend, max_leaves=12)

_smooth_leaf = st.one_of(
    st.integers(-2, 2).map(lambda v: Const(float(v))),
    _names.map(Var),
)


def _extend_smooth(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: Binary("add", ab[0], ab[1])),
        pair.map(lambda ab: Binary("sub", ab[0], ab[1])),
        pair.map(lambda ab: Binary("mul", ab[0], ab[1])),
        children.map(sin),
        children.map(cos),
        children.map(tanh),
    )


_smooth_trees = st.recursive(_smooth_leaf, _extend_smooth, max_leaves=6)
_points = st.fixed_dictionaries(
    {n: st.floats(-1.5, 1.5, allow_nan=False) for n in ("x", "y", "t")}
)


@given(_trees)
@settings(max_examples=200)
@example(neg(exp(Const(-0.0))))  # -0.0 prints as -0, not 0
@example(Binary("pow", Const(-0.0), Const(2.0)))  # and binds like a negative literal
def test_print_parse_round_trip(e):
    assert parse_expr(to_text(e)) == e


@given(_trees)
@settings(max_examples=100)
def test_substitute_self_is_identity(e):
    for v in free_vars(e):
        assert substitute_many(e, {v: Var(v)}) == e


def test_free_vars_visits_each_shared_node_once():
    # 61 node objects, 2**60 leaves as a tree: a tree walk would not finish
    e = Var("x")
    for _ in range(60):
        e = Binary("mul", e, e)
    assert free_vars(e) == {"x"}
    assert free_vars(e, Binary("add", e, Var("y"))) == {"x", "y"}


@given(_smooth_trees, _points)
@settings(max_examples=200)
def test_derivative_matches_central_difference(e, point):
    h = 1e-6
    m = SmoothMap(("x", "y", "t"), (e,))
    args = (point["x"], point["y"], point["t"])
    for v in sorted(free_vars(e)):
        exact = evaluate(diff(e, v), point)
        approx = finite_diff(m, args, v, h)
        assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))


def test_concurrent_evaluation_is_safe():
    # expressions are immutable values; evaluation and compilation are pure
    from concurrent.futures import ThreadPoolExecutor

    e = parse_expr("y + sqrt(t)*y^2")
    d = diff(e, "y")

    def work(k: int) -> float:
        t, y = 0.5 + k % 7, -2.0 + (k % 11) * 0.4
        return evaluate(d, {"t": t, "y": y}) - (1.0 + 2.0 * math.sqrt(t) * y)

    with ThreadPoolExecutor(max_workers=8) as pool:
        residuals = list(pool.map(work, range(400)))
    assert max(abs(r) for r in residuals) <= 1e-12


def _outcome(fn, *args):
    try:
        v = fn(*args)
    except (EvalDomainError, ValueError) as err:
        return f"{type(err).__name__}: {err}"
    return "nan" if math.isnan(v) else v


@given(_trees, _points)
@settings(max_examples=300)
# ** of a negative integer at a zero base, and _pow's own error
@example(Binary("pow", Binary("sub", Var("x"), Var("x")), Const(-2.0)), {"x": 0.5, "y": 0.0, "t": 0.0})
@example(Binary("pow", Var("x"), Const(0.5)), {"x": -0.5, "y": 0.0, "t": 0.0})
def test_compiled_code_agrees_with_the_tree_walk(e, point):
    # the same values, and an error exactly where the tree walk raises one:
    # the boundary raises ExprError where only the compiled code raises
    fn = compile_expr(e, ("x", "y", "t"))
    got = _outcome(fn, point["x"], point["y"], point["t"])
    assert got == _outcome(evaluate, e, point)


@given(_trees, _points)
@settings(max_examples=150)
# 4/y overflows to inf at a subnormal y, and sin(inf) raises ValueError
@example(sin(Binary("div", Const(4.0), Var("y"))), {"x": 0.0, "y": 2.2250738585072014e-308, "t": 0.0})
def test_simplify_and_compile_preserve_values(e, point):
    args = (point["x"], point["y"], point["t"])
    fn = compile_expr(e, ("x", "y", "t"))
    try:
        want = evaluate(e, point)
    except EvalDomainError:
        assume(False)
    except Exception as err:
        # any other error: the compiled code must fail the same way
        assert _outcome(fn, *args) == f"{type(err).__name__}: {err}"
        return
    assume(math.isfinite(want) and abs(want) < 1e12)
    assert fn(*args) == want


def test_signed_zero_twins_do_not_share_compiled_code():
    # x + 0.0 and x + -0.0 differ at x = -0.0, so the compile cache must not
    # hand one the other's lambda
    assert Const(0.0) != Const(-0.0) and hash(Const(0.0)) != hash(Const(-0.0))
    assert repr(compile_expr(parse_expr("x + 0"), ("x",))(-0.0)) == "0.0"
    twin = Binary("add", Var("x"), Const(-0.0))
    assert repr(compile_expr(twin, ("x",))(-0.0)) == "-0.0"
    nan = math.nan
    assert Const(nan) == Const(nan) and Const(nan) != Const(float("nan"))


# signed zeros, libm domain edges, and values whose products overflow to inf
_edge_values = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    709.78, 710.0, -745.2, 1e154, 1e308, -1e308, math.inf, -math.inf, math.nan,
])
_edge_points = st.fixed_dictionaries(
    {n: st.one_of(_edge_values, st.floats()) for n in ("x", "y", "t")}
)
_edge_leaf = st.one_of(_leaf, st.sampled_from([Const(-0.0), Const(1e308), Const(-1e308)]))


def _values_or_first_error(values):
    try:
        return tuple(repr(v) for v in values())
    except (EvalDomainError, ArithmeticError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


@given(st.lists(st.recursive(_edge_leaf, _extend, max_leaves=10), min_size=1, max_size=3),
       _edge_points)
@settings(max_examples=300)
@example([Binary("add", Var("x"), Const(-0.0)), parse_expr("x + 0")], {"x": -0.0, "y": 0.0, "t": 0.0})
@example([sin(Binary("mul", Var("x"), Var("x"))), exp(Var("y"))], {"x": 1e200, "y": 710.0, "t": 0.0})
def test_smooth_map_agrees_with_evaluate_output_by_output(outputs, point):
    m = SmoothMap(("x", "y", "t"), tuple(outputs))
    got = _values_or_first_error(lambda: m(point["x"], point["y"], point["t"]))
    want = _values_or_first_error(lambda: [evaluate(c, point) for c in outputs])
    assert got == want


def _call_or_error(call):
    """The repr of each value a call returns, None for a None, or its error."""
    try:
        out = call()
    except (ExprError, ArithmeticError, ValueError) as err:
        return f"{type(err).__name__}: {err}"
    return None if out is None else tuple(repr(v) for v in out)


@given(st.lists(st.recursive(_edge_leaf, _extend, max_leaves=10), min_size=1, max_size=3),
       _edge_points)
@settings(max_examples=300)
@example([Unary("sqrt", Var("x")), exp(Var("y"))], {"x": -1.0, "y": 0.0, "t": 0.0})
@example([sin(Binary("mul", Var("x"), Var("x"))), exp(Var("y"))], {"x": 1e200, "y": 0.0, "t": 0.0})
def test_on_domain_is_none_exactly_where_the_map_raises_a_domain_error(outputs, point):
    m = SmoothMap(("x", "y", "t"), tuple(outputs))
    args = (point["x"], point["y"], point["t"])
    got = _call_or_error(lambda: m.on_domain(*args))
    want = _call_or_error(lambda: m(*args))
    if isinstance(want, str) and want.startswith("EvalDomainError:"):
        assert got is None
    else:
        assert got == want


_RELATION_OPS = {">": operator.gt, ">=": operator.ge, "!=": operator.ne}


@given(st.lists(st.recursive(_edge_leaf, _extend, max_leaves=10), min_size=1, max_size=2),
       st.lists(st.tuples(st.recursive(_edge_leaf, _extend, max_leaves=6),
                          st.sampled_from(RELATIONS)), min_size=1, max_size=2),
       _edge_points)
@settings(max_examples=200)
@example([parse_expr("sqrt(x) + y")], [(parse_expr("sqrt(x) - 1"), ">=")], {"x": -1.0, "y": 0.0, "t": 0.0})
@example([parse_expr("x")], [(sin(Binary("mul", Var("x"), Var("x"))), "!=")], {"x": 1e200, "y": 0.0, "t": 0.0})
def test_on_region_is_none_exactly_off_the_region_or_where_the_map_raises_a_domain_error(
    outputs, region, point
):
    # the reference: each test by the tree walk, in order, then the map
    m = SmoothMap(("x", "y", "t"), tuple(outputs))
    args = (point["x"], point["y"], point["t"])

    def reference():
        for e, rel in region:
            try:
                if not _RELATION_OPS[rel](evaluate(e, point), 0.0):
                    return None
            except EvalDomainError:
                return None
        try:
            return m(*args)
        except EvalDomainError:
            return None

    assert _call_or_error(lambda: m.on_region(tuple(region))(*args)) == _call_or_error(reference)


# the edges of each operation that compiled code leaves to a C function or
# operator: (expression in x, x); ints as a caller may pass them
_DOMAIN_EDGES = [
    *(("sqrt(x)", x) for x in (0.0, -0.0, -1e-300, -math.inf, math.nan)),
    *(("log(x)", x) for x in (0.0, -0.0, math.nan, math.inf)),
    ("exp(x)", 709.78),
    ("exp(x)", 710.0),
    ("1/x", 0.0),
    ("1/x", -0.0),
    ("x/x", 0.0),  # 0.0 / 0.0
    ("x^-1", 0.0),
    ("x^-1", -0.0),
    ("x^2", 1e200),
    ("(-8)^3*x", 1.0),
    ("1/x", 0),
    ("x^2 + sqrt(x)/x", 4),
    ("sin(exp(x)*exp(x))", 400.0),  # sin(inf): ValueError, not a domain error
]


def _edge_outcome(value):
    try:
        return repr(value())
    except (ExprError, ArithmeticError, ValueError, IntegrationError) as err:
        return f"{type(err).__name__}: {err}"


def _rk4_step_outcome(e, x0):
    """One RK4 step of dx/dt = e(x) over [0, 1] from x0, with the tree walk
    for the right-hand side and the kernel's arithmetic and errors."""

    def rhs(x):
        return evaluate(e, {"x": x})

    def step():
        try:
            k1 = rhs(x0)
            k2 = rhs(x0 + 0.5 * k1)
            k3 = rhs(x0 + 0.5 * k2)
            k4 = rhs(x0 + 1.0 * k3)
        except EvalDomainError as err:
            raise IntegrationError(f"RHS domain error: {err}", 0.0) from err
        x1 = x0 + (1.0 / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not math.isfinite(x1):
            raise IntegrationError("state became nonfinite", 1.0)
        return x1

    return _edge_outcome(step)


@pytest.mark.parametrize("text, x", _DOMAIN_EDGES)
def test_domain_edges_raise_as_the_tree_walk_on_every_compiled_path(text, x):
    e = parse_expr(text)
    want = _edge_outcome(lambda: evaluate(e, {"x": x}))
    assert _edge_outcome(lambda: SmoothMap(("x",), (e,))(x)[0]) == want
    assert _edge_outcome(lambda: compile_expr(e, ("x",))(x)) == want
    flow = OdeSystem("edge", SmoothMap(("x",), (e,)))
    got = _edge_outcome(lambda: integrate_flow(flow, 0.0, (x,), 1.0, 1).columns[0][-1])
    assert got == _rk4_step_outcome(e, float(x))


class TestReservedNames:
    # compiled code looks its helpers up as globals and binds shared
    # subtrees as locals named _c0, _c1, ...; parameters may not shadow them

    def test_helper_name_is_rejected_not_shadowed(self):
        e = parse_expr("sqrt(_sqrt)")
        assert evaluate(e, {"_sqrt": 4.0}) == 2.0
        with pytest.raises(ExprError, match="reserved"):
            compile_expr(e, ("_sqrt",))

    @pytest.mark.parametrize("name", ["_", "_x", "_c0", "_div", "__builtins__"])
    def test_underscore_names_are_rejected(self, name):
        with pytest.raises(ExprError, match="reserved"):
            compile_expr(Var(name), (name,))
        with pytest.raises(ExprError, match="reserved"):
            compile_system((Var(name),), (name,))

    def test_system_input_named_like_a_shared_local_is_rejected(self):
        # with _c0 as an input, sqrt(t) bound to _c0 would overwrite it
        outputs = (parse_expr("sqrt(t) + sqrt(t)*_c0"),)
        with pytest.raises(ExprError, match="reserved"):
            compile_system(outputs, ("t", "_c0"))
        m = SmoothMap(("t", "_c0"), outputs)
        from semiflow.reduction import OdeSystem, integrate_flow

        sys_c0 = OdeSystem("c0", m)
        with pytest.raises(ExprError, match="reserved"):
            integrate_flow(sys_c0, 1.0, (3.0,), 2.0, 4)

    def test_compiled_code_shares_one_namespace_it_never_writes(self):
        # the C functions raise by themselves: no guard of `evaluate` is called
        assert _COMPILE_NS["_sqrt"] is math.sqrt and _COMPILE_NS["_log"] is math.log
        assert _COMPILE_NS["_exp"] is math.exp and "_div" not in _COMPILE_NS
        before = dict(_COMPILE_NS)
        f = compile_system((parse_expr("sqrt(x)*sqrt(x) + x"),), ("x",))
        g = compile_expr(parse_expr("exp(y) + exp(y)"), ("y",))
        assert f.__globals__ is g.__globals__ is _COMPILE_NS
        assert f(4.0) == (8.0,) and g(0.0) == 2.0
        assert _COMPILE_NS == before  # the shared subtrees bound as _c0 stay local
        with pytest.raises(ExprError, match="reserved"):
            compile_system((parse_expr("_sqrt + x"),), ("x", "_sqrt"))

    def test_keywords_are_rejected(self):
        e = parse_expr("lambda + 1")
        assert evaluate(e, {"lambda": 1.0}) == 2.0
        with pytest.raises(ExprError, match="not an identifier"):
            compile_expr(e, ("lambda",))


class TestBoundaryFallback:
    # compiled code that raises where the tree walk does not is a fault of
    # the compiled code: the boundary names it instead of returning a value

    def test_compiled_code_raising_alone_is_an_expr_error(self, monkeypatch):
        def failing_sqrt(x):
            raise ValueError("math domain error")

        monkeypatch.setitem(_COMPILE_NS, "_sqrt", failing_sqrt)
        # an expression no other test compiles, so the compile cache holds none
        e = parse_expr("sqrt(x) + 0.4375")
        assert evaluate(e, {"x": 4.0}) == 2.4375
        message = r"^compiled code raised where the tree walk does not, at \(4\.0,\)$"
        for fn in (compile_expr(e, ("x",)), SmoothMap(("x",), (e,))):
            with pytest.raises(ExprError, match=message) as err:
                fn(4.0)
            assert type(err.value) is ExprError


class TestCompileSystem:
    def test_sqrt_rhs_takes_the_square_root_of_t_once(self):
        rhs = parse_expr("(1 + 2*sqrt(t)*y - sqrt(1 + 4*sqrt(t)*y))/(4*t*sqrt(t))")
        (code,) = _emit_system((rhs,), ("t", "y"))
        assert code.count("_sqrt(t)") == 1 and code.count("_c0") == 3
        fn = compile_system((rhs,), ("t", "y"))
        assert fn(0.25, 1.5) == (evaluate(rhs, {"t": 0.25, "y": 1.5}),)

    def test_compile_expr_computes_a_repeated_subtree_once(self):
        fn = compile_expr(parse_expr("sqrt(t)*sqrt(t)"), ("t",))
        assert "_c0" in fn.__code__.co_varnames
        assert fn(4.0) == 4.0

    def test_subtrees_shared_across_outputs(self):
        outputs = (parse_expr("exp(x*y) + 1"), parse_expr("exp(x*y)*2"), parse_expr("x"))
        codes = _emit_system(outputs, ("x", "y"))
        assert codes == ["(_c0 := _exp(x * y)) + 1.0", "_c0 * 2.0", "x"]

    def test_signed_zero_constants_are_not_merged(self):
        outputs = (Binary("add", Var("x"), Const(0.0)), Binary("add", Var("x"), Const(-0.0)))
        assert _emit_system(outputs, ("x",)) == ["x + 0.0", "x + -0.0"]

    def test_the_first_error_is_the_first_output_to_fail(self):
        outputs = (parse_expr("sqrt(x)"), parse_expr("log(x)"))
        # the lambda raises libm's error; the map's call, the tree walk's
        for x in (-1.0, 0.0):
            with pytest.raises(ValueError, match="math domain error"):
                compile_system(outputs, ("x",))(x)
        with pytest.raises(EvalDomainError, match="sqrt of negative"):
            SmoothMap(("x",), outputs)(-1.0)
        with pytest.raises(EvalDomainError, match="log of non-positive"):
            SmoothMap(("x",), outputs)(0.0)

    def test_compile_errors_match_compile_expr(self):
        with pytest.raises(UnboundVariableError):
            compile_system((Var("x"), Var("z")), ("x",))


def _sequential(outputs, point):
    """Each output through the tree walk `evaluate` in turn, first error wins."""
    try:
        return tuple(repr(evaluate(o, point)) for o in outputs)
    except (EvalDomainError, ValueError) as err:
        return (type(err).__name__, str(err))


def _combine(parts):
    """A shape over `parts`: a part, (op, a, b) for a binary op, ("sin", a) or ("exp", a)."""
    pair = st.tuples(st.sampled_from(("add", "sub", "mul", "div")), parts, parts)
    return st.one_of(parts, pair, parts.map(lambda a: ("sin", a)), parts.map(lambda a: ("exp", a)))


# a pool of one to three subtrees, and up to three output shapes, two levels deep,
# over a pool of n parts (n = 2, 4 or 6); built once here, not inside every draw
_POOLS = st.lists(_trees, min_size=1, max_size=3)
_SHAPES = {
    n: st.lists(_combine(_combine(st.sampled_from(range(n)))), min_size=1, max_size=3)
    for n in (2, 4, 6)
}


def _build(shape, parts):
    """The tree `shape` describes, made of the pool objects `parts` themselves."""
    if isinstance(shape, int):
        return parts[shape]
    if len(shape) == 2:
        return {"sin": sin, "exp": exp}[shape[0]](_build(shape[1], parts))
    op, a, b = shape
    return Binary(op, _build(a, parts), _build(b, parts))


@st.composite
def _shared_outputs(draw):
    # outputs assembled from a small pool of subtrees, reused both as the
    # same object and as a structurally equal copy, two levels deep
    pool = draw(_POOLS)
    parts = pool + [parse_expr(to_text(e)) for e in pool]
    return tuple(_build(shape, parts) for shape in draw(_SHAPES[len(parts)]))


@given(_shared_outputs(), _points)
@settings(max_examples=200)
def test_system_lambda_agrees_with_compile_expr_per_output(outputs, point):
    args = (point["x"], point["y"], point["t"])
    fn = SmoothMap(("x", "y", "t"), outputs)  # the system lambda behind its boundary
    try:
        got = tuple(repr(v) for v in fn(*args))
    except (EvalDomainError, ValueError) as err:
        got = (type(err).__name__, str(err))
    assert got == _sequential(outputs, point)


# ---------------------------------------------------------------------------
# the emitted code parses like the code with every operation bracketed


def _bracketed_emit_system(outputs, params):
    """Reference for `_emit_system`: the same subtree numbering and naming,
    with every +, -, *, /, ** and unary minus, and every negative literal,
    bracketed whatever its context. Pow of a finite, integer-valued
    constant is Python's **, other pows call _pow."""
    numbers, keys, refs, by_object = {}, [], [], {}

    def leaf_code(e):
        if type(e) is Const:
            if not math.isfinite(e.value):
                return f"_float('{e.value!r}')"
            return f"({e.value!r})" if math.copysign(1.0, e.value) < 0.0 else repr(e.value)
        if e.name not in params:
            raise UnboundVariableError(e.name)
        return e.name

    def intern(e):
        if id(e) in by_object:
            return by_object[id(e)]
        if type(e) is Binary:
            children = (intern(e.lhs), intern(e.rhs))
            integer_power = type(e.rhs) is Const and e.rhs.value.is_integer()
            key = ("**" if e.op == "pow" and integer_power else e.op, *children)
        elif type(e) is Unary:
            children = (intern(e.arg),)
            key = (e.op, *children)
        else:
            children, key = (), leaf_code(e)
        n = numbers.setdefault(key, len(keys))
        if n == len(keys):
            keys.append(key)
            refs.append(0)
            for c in children:
                refs[c] += 1
        by_object[id(e)] = n
        return n

    roots = [intern(e) for e in outputs]
    for r in roots:
        refs[r] += 1
    names = {}
    infix = {"add": "+", "sub": "-", "mul": "*", "div": "/", "**": "**"}

    def code_of(n):
        if n in names:
            return names[n]
        key = keys[n]
        if type(key) is str:
            return key
        op, args = key[0], [code_of(c) for c in key[1:]]
        if op in infix:
            code = f"({args[0]} {infix[op]} {args[1]})"
        elif op == "neg":
            code = f"(-{args[0]})"
        else:
            code = f"_{op}({', '.join(args)})"
        if refs[n] == 1:
            return code
        names[n] = name = f"_c{len(names)}"
        return f"({name} := {code})"

    return [code_of(r) for r in roots]


def _assert_same_ast(outputs, params=("x", "y", "t")):
    # as compile_system and compile_expr wrap the code: a tuple and a body
    def sources(codes):
        head = f"lambda {', '.join(params)}: "
        return [head + f"({', '.join(codes)},)", *(head + c for c in codes)]

    minimal = sources(_emit_system(outputs, params))
    bracketed = sources(_bracketed_emit_system(outputs, params))
    for got, want in zip(minimal, bracketed):
        assert ast.dump(ast.parse(got)) == ast.dump(ast.parse(want)), (got, want)
        assert len(got) <= len(want)


# signed zeros, huge and non-finite constants, and a unary minus of a
# negative literal, which `neg` would fold away
_ast_leaf = st.one_of(_leaf, st.sampled_from([
    Const(-0.0), Const(1e308), Const(-1e308), Const(-2.5),
    Const(math.inf), Const(-math.inf), Const(math.nan),
]))


def _extend_unfolded(children):
    return st.one_of(_extend(children), children.map(lambda e: Unary("neg", e)))


@given(st.one_of(
    _trees.map(lambda e: (e, diff(e, "x"))),
    _shared_outputs(),
    st.lists(st.recursive(_ast_leaf, _extend_unfolded, max_leaves=12), min_size=1, max_size=3)
    .map(tuple),
))
@settings(max_examples=200)
@example((Unary("neg", Const(-1.0)), neg(Binary("mul", Var("x"), Const(-0.0)))))
@example((Binary("sub", Var("x"), Binary("sub", Var("y"), Const(-1e308))),))
@example((
    Binary("pow", Const(-2.0), Const(2.0)),
    neg(Binary("pow", Var("x"), Const(2.0))),
    Binary("pow", Binary("pow", Var("x"), Const(2.0)), Const(3.0)),
    Binary("div", Var("x"), Binary("pow", Var("y"), Const(-1.0))),
))
def test_emitted_code_parses_like_the_fully_bracketed_code(outputs):
    _assert_same_ast(outputs)


def test_golden_corpus_code_parses_like_the_fully_bracketed_code():
    from test_expr_golden import VARIABLES, corpus

    for text in corpus():
        e = parse_expr(text)
        _assert_same_ast((e, *(diff(e, v) for v in VARIABLES)), VARIABLES)


def test_compiling_leaves_no_reference_cycles():
    # every table of the emitter is freed by reference counting on return
    from semiflow.reduction import _rk4_kernel

    outputs = [
        (parse_expr(f"sqrt(x)*sqrt(x) + {k}"), parse_expr(f"exp(x*y)/(exp(x*y) + {k})"), Var("y"))
        for k in range(50)
    ]
    region = ((parse_expr("sqrt(x) - 1"), ">="),)
    gc.collect()
    gc.disable()
    try:
        for out in outputs:
            m = SmoothMap(("x", "y"), out)
            assert m(4.0, 0.0) == compile_system(out, ("x", "y"))(4.0, 0.0) == m.on_region(region)(4.0, 0.0)
            # the map keeps its leg on no region, which must not hold the map
            assert m.on_domain(4.0, 0.0) == m(4.0, 0.0)
        fresh = (parse_expr("sqrt(t)*y + sqrt(t) - 0.123456789"),)
        _rk4_kernel(("t", "y"), fresh, ())
        _rk4_kernel(("t", "y"), fresh, ((parse_expr("sqrt(t) - 0.5"), ">"),))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
