"""The law checks evaluate each on-grid leg once: equivalence with the
plain loops they replaced, event by event, and their map-call counts."""

from __future__ import annotations

import json
import operator

import pytest

from semiflow.actions import _UNSEEN, PreconditionError, TimeAction, composition_check, leg_columns
from semiflow.expr import EvalDomainError, ExprError, evaluate, parse_expr
from semiflow.grids import Axis, SamplingGrid, grid1d, grid2d
from semiflow.maps import SmoothMap, map_from_exprs
from semiflow.reduction import (
    EvolutionOp,
    gls_one_time_op,
    gls_two_time_op,
    quadratic_one_time_op,
    quadratic_two_time_op,
    two_time_law_check,
)
from semiflow.report import Tally, deviation
from semiflow.suites import SUITES, SuiteConfig

# every nonzero deviation fails, so each report keeps its first 8 witnesses
TOL = 1e-300


_RELATIONS = {">": operator.gt, ">=": operator.ge, "!=": operator.ne}


def _on_region(region, inputs, args):
    """The region's tests by the tree walk, in order: False from the first
    that fails or raises EvalDomainError."""
    bindings = dict(zip(inputs, args))
    try:
        return all(_RELATIONS[rel](evaluate(e, bindings), 0.0) for e, rel in region)
    except EvalDomainError:
        return False


def _reference_composition(action, times, grid, tol):
    """`composition_check` as a plain loop that evaluates every leg for
    every pair and point, each right after its region test."""
    for t, s in times:
        for v in (t, s, t + s):
            if not action.time_ok(v):
                raise PreconditionError(f"time {v!r} outside the action's domain")

    def leg(tau, y):
        if not _on_region(action.region, action.map.inputs, (tau, *y)):
            return None
        try:
            return action(tau, y)
        except EvalDomainError:
            return None

    tally = Tally(tol)
    for t, s in times:
        for y in grid.points():
            mid = leg(s, y)
            lhs = None if mid is None else leg(t, mid)
            rhs = None if lhs is None else leg(t + s, y)
            if rhs is None:
                tally.skip()
                continue
            if tally.add(deviation(lhs, rhs)):
                tally.witness((t, s, *y), (*lhs, *rhs), "H(t,H(s,y)) != H(t+s,y)")
    return tally.report(f"composition[{action.name}]", grid.summary())


def _reference_two_time_law(op, triples, grid, tol):
    """`two_time_law_check` as a plain loop that evaluates every leg for
    every triple, unordered pair and point, the reference leg only where
    the law's side is defined, and the forward leg of an inverse identity
    right after its region test."""
    tally = Tally(tol)

    def try_leg(a, b, x, region=()):
        if not _on_region(region, op.closed_form.inputs, (a, b, *x)):
            return None
        try:
            return op.closed_form(a, b, *x)
        except EvalDomainError:
            return None

    for t, s, r in triples:
        for x in grid.points():
            mid = try_leg(t, s, x)
            out = None if mid is None else try_leg(s, r, mid)
            ref = None if out is None else try_leg(t, r, x)
            if ref is None:
                tally.skip()
            elif tally.add(deviation(out, ref)):
                tally.witness((t, s, r, *x), (*out, *ref))
    seen = set()
    for t, s, _ in triples:
        if frozenset((t, s)) in seen or t == s:
            continue
        seen.add(frozenset((t, s)))
        for x in grid.points():
            for a, b in ((t, s), (s, t)):
                fwd = try_leg(a, b, x, op.region)
                back = None if fwd is None else try_leg(b, a, fwd)
                if back is None:
                    tally.skip()
                    continue
                if tally.add(deviation(back, x)):
                    tally.witness((a, b, *x), back, "inverse identity")
    return tally.report(f"two-time-law[{op.name}]", grid.summary())


def _outcome(monkeypatch, check, *args):
    """Every `Tally` event of a run in order, by repr (so -0.0 is not 0.0):
    each deviation added and whether it was asked for as a witness, each
    witness kept and each skip; then the report's JSON or the error the
    run raised."""
    events = []
    add, witness, skip = Tally.add, Tally.witness, Tally.skip

    def logged_add(self, d):
        asked = add(self, d)
        events.append(repr(("add", d, asked)))
        return asked

    def logged_witness(self, point, values, note=""):
        events.append(repr(("witness", point, values, note)))
        witness(self, point, values, note)

    def logged_skip(self):
        events.append("skip")
        skip(self)

    with monkeypatch.context() as patch:
        patch.setattr(Tally, "add", logged_add)
        patch.setattr(Tally, "witness", logged_witness)
        patch.setattr(Tally, "skip", logged_skip)
        try:
            report = check(*args)
        except (ArithmeticError, ValueError, ExprError) as err:  # the reference must raise it alike
            return events, type(err).__name__, str(err)
    return events, json.dumps(report.to_dict())


def _action(name, text, time_domain="full", region=()):
    return TimeAction(time_domain, map_from_exprs(("t", "y"), [text], name=name), region)


def _op(name, text, region=()):
    return EvolutionOp(map_from_exprs(("a", "b", "y"), [text], name=name), region)


_QUARTERS = [k / 4.0 for k in range(5)]
_GLS_PAIRS = [(r, s) for s in _QUARTERS for r in _QUARTERS]  # one_time_law_check's (outer, inner)
_SIGNED_ZEROS = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (1.0, -1.0), (-1.0, 1.0)]

COMPOSITION_CASES = {
    # the gls-semigroup suite, and a grid that crosses the fold
    "gls-suite": (gls_one_time_op(), _GLS_PAIRS, SamplingGrid((Axis(0.0, 1.0, 5), Axis(-0.2, 4.0, 41)))),
    "gls-fold": (gls_one_time_op(), _GLS_PAIRS, grid2d(0.0, 1.0, 5, -1.5, 4.0, 56)),
    "quadratic": (quadratic_one_time_op(), [(r, s) for s in (0.0, 1.0, 2.0) for r in (-1.0, 0.0, 3.0)],
                  grid2d(0.0, 3.0, 4, -5.0, 5.0, 11)),
    # H(s, y) lies in the validity region y < 1.2 on the grid, H(t, H(s, y)) often not
    "mid-leaves-validity": (_action("grows", "y + t*y*y", "nonneg", ((parse_expr("1.2 - y"), ">"),)),
                            [(0.5, 0.25), (0.25, 0.5), (0.5, 0.5), (1.0, 0.0)], grid1d(-1.0, 1.1, 15)),
    # sqrt(4 - y^2) raises on the grid past |y| = 2 and at mids that leave [-2, 2]
    "domain-errors": (_action("sqrt-bump", "y + t*sqrt(4 - y*y)"),
                      [(0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (-0.5, 1.5)], grid1d(-3.0, 3.0, 25)),
    # H(-0.0, -0.0) = -0.0 but H(0.0, -0.0) = 0.0
    "signed-zero-times": (_action("translation", "y + t"), _SIGNED_ZEROS, grid1d(-1.0, -0.0, 5)),
    # sin of the product overflowing to inf raises ValueError: first in
    # H(2, 200), the t + s leg of the second pair at its last point
    "sin-overflow": (_action("sin-exp", "y + sin(exp(t*y)*exp(t*y))", "nonneg"),
                     [(0.5, 0.5), (1.0, 1.0), (0.5, 1.0)], grid1d(0.0, 200.0, 5)),
}


@pytest.mark.parametrize("case", COMPOSITION_CASES)
def test_composition_matches_the_plain_loop(monkeypatch, case):
    args = (*COMPOSITION_CASES[case], TOL)
    got = _outcome(monkeypatch, composition_check, *args)
    assert got == _outcome(monkeypatch, _reference_composition, *args)
    assert got[0], "the case checks no point"


def test_composition_raises_the_sin_overflow_at_its_pair(monkeypatch):
    # the first pair passes its 5 points; the second raises at its last
    events, name, _ = _outcome(monkeypatch, composition_check,
                               *COMPOSITION_CASES["sin-overflow"], TOL)
    adds = [e for e in events if e.startswith("('add'")]
    assert name == "ValueError" and len(adds) == 9 and "skip" not in events


_GLS_TIMES = (0.25, 1.0, 2.25)
_GLS_TRIPLES = [(t, s, r) for t in _GLS_TIMES for s in _GLS_TIMES for r in _GLS_TIMES]
_QUADRATIC_TIMES = (0.0, 1.0, 2.0, 3.0)

TWO_TIME_CASES = {
    # the reduction-algebra suite, and a grid that crosses the fold, where
    # both the branch predicate and the closed form's domain skip points
    "gls-suite": (gls_two_time_op(), _GLS_TRIPLES, grid1d(-0.1, 2.0, 22)),
    "gls-fold": (gls_two_time_op(), _GLS_TRIPLES, grid1d(-0.9, 2.0, 30)),
    "quadratic": (quadratic_two_time_op(),
                  [(t, s, r) for t in _QUADRATIC_TIMES for s in _QUADRATIC_TIMES for r in _QUADRATIC_TIMES],
                  grid1d(-5.0, 5.0, 21)),
    "domain-errors": (_op("sqrt-bump", "y + (b - a)*sqrt(4 - y*y)", ((parse_expr("1.5 - y"), ">"),)),
                      [(0.0, 0.5, 1.0), (0.5, 1.0, 0.0), (0.0, 1.0, 0.5)], grid1d(-3.0, 3.0, 25)),
    "signed-zero-times": (_op("translation", "y + b - a"),
                          [(a, b, c) for a in (-0.0, 0.0, 1.0) for b in (0.0, -0.0) for c in (-0.0, 1.0)],
                          grid1d(-1.0, -0.0, 5)),
    # E(1, 2)(200) overflows: the third triple's reference leg, its last point
    "sin-overflow": (_op("sin-exp", "y + sin(exp((b - a)*y)*exp((b - a)*y))"),
                     [(0.0, 0.5, 1.0), (0.0, 1.0, 1.5), (1.0, 1.5, 3.0)], grid1d(0.0, 200.0, 5)),
    # E(0, 2) is off the domain, so the law skips every point and never
    # evaluates E(0, 1)(400), which overflows
    "late-overflow": (_op("late-overflow", "0*sqrt(1.5 - b) + y + sin(exp((b - a)*y)*exp((b - a)*y))"),
                      [(0.0, 2.0, 1.0)], grid1d(0.0, 400.0, 3)),
}


@pytest.mark.parametrize("case", TWO_TIME_CASES)
def test_two_time_law_matches_the_plain_loop(monkeypatch, case):
    args = (*TWO_TIME_CASES[case], TOL)
    got = _outcome(monkeypatch, two_time_law_check, *args)
    assert got == _outcome(monkeypatch, _reference_two_time_law, *args)
    assert got[0], "the case checks no point"


def test_two_time_law_skips_a_late_overflow_on_a_skipped_leg():
    # the law's 3 points and the 2 inverse identities of {0, 2} at each
    report = two_time_law_check(*TWO_TIME_CASES["late-overflow"], TOL)
    assert (report.checked, report.skipped, report.inconclusive) == (0, 9, True)


def _count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name from now on."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_legs(monkeypatch):
    """Count the calls of every leg a map builds from now on, on a region
    or on none (`SmoothMap.on_domain` is the leg on no region)."""
    calls = [0]
    original = SmoothMap.on_region

    def counted_form(self, region=()):
        leg = original(self, region)

        def counted(*args):
            calls[0] += 1
            return leg(*args)

        return counted

    monkeypatch.setattr(SmoothMap, "on_region", counted_form)
    return calls


def test_gls_semigroup_evaluates_each_grid_leg_once(monkeypatch):
    # 25 pairs (t, s) over 205 grid points: every mid leg H(t, H(s, y)) is
    # checked once per pair (25 * 205), and the legs H(tau, y) on the grid
    # once per distinct time tau in {0, 1/4, ..., 2} (9 * 205); the plain
    # loop evaluated 3 legs per pair and point, 15,375 map calls. Every leg
    # is the map's leg on the action's region, which tests the region in
    # its own code: no leg calls the map itself, and nothing tests the
    # region outside a leg.
    maps = _count_calls(monkeypatch, SmoothMap, "__call__")
    legs = _count_legs(monkeypatch)
    region_tests = _count_calls(monkeypatch, TimeAction, "valid_at")
    reports = SUITES["gls-semigroup"](SuiteConfig())
    assert reports[0].passed and reports[0].checked == 25 * 205
    assert legs[0] == 25 * 205 + 9 * 205 == 6970
    assert maps[0] == 0
    assert region_tests[0] == 0


def test_two_time_law_checks_each_inverse_identity_once():
    # the triples hold (t, s) and (s, t) for every two distinct times: each
    # unordered pair gives its two inverse identities once per grid point,
    # after the law's one point per triple and grid point
    reports = {r.suite: r for r in SUITES["reduction-algebra"](SuiteConfig())}
    gls = reports["two-time-law[sqrt-gls-two-time]"]
    assert gls.checked == 27 * 22 + 3 * 2 * 22 == 726 and gls.skipped == 0
    quadratic = reports["two-time-law[quadratic-two-time]"]
    assert quadratic.checked == 64 * 21 + 6 * 2 * 21 == 1596 and quadratic.skipped == 0


def test_leg_columns_share_a_column_from_its_first_reader_to_its_last():
    passes = [((1.0,), (2.0,)), ((1.0,), (0.0,)), ((-0.0,), (0.0,)), ((3.0,), (3.0,))]
    columns = leg_columns(passes, 4)
    first, second, third, fourth = (next(columns) for _ in passes)
    # 1.0 and 0.0 are read twice, 2.0 and -0.0 once: those get a column of
    # their own, which the memo never keeps
    assert first[0] is second[0] and first[1] is not first[0]
    assert second[1] is third[1] and second[1] is not first[0]
    assert all(third[0] is not c for c in (*first, *second, third[1]))
    # a key read twice by one pass shares its column there
    assert fourth[0] is fourth[1]
    # every column has one unseen entry per grid point
    assert all(len(c) == 4 and set(map(id, c)) == {id(_UNSEEN)} for c in (*first, *second, *third, *fourth))
    # the memo drops each column after its last reader
    assert columns.gi_frame.f_locals["live"] == {(3.0, 1.0): fourth[0]}
