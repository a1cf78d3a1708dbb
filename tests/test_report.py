"""The one tally behind every sampled check: witnesses, skips, inconclusive."""

from __future__ import annotations

import json
import math
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflow.report import WITNESS_CAP, VerificationReport, Tally, Witness, deviation, nan_max

TOL = 1e-9

# a deviation, or None for a skipped point
_events = st.lists(
    st.one_of(
        st.none(),
        st.floats(0.0, 1e-8),
        st.sampled_from([0.0, TOL, 2 * TOL, math.nan, math.inf, -math.inf]),
    ),
    max_size=40,
)


def reference_report(events: list[float | None]) -> VerificationReport:
    """The rule written out plainly, to hold `Tally` to it."""
    devs = [d for d in events if d is not None]
    skipped = len(events) - len(devs)
    failing = [i for i, d in enumerate(devs) if not d <= TOL][:8]
    dev = nan_max(devs) if devs else 0.0
    inconclusive = bool(events) and skipped > len(events) / 2
    return VerificationReport(
        suite="s",
        passed=dev <= TOL and not inconclusive,
        max_deviation=dev,
        tolerance=TOL,
        grid="g",
        witnesses=[Witness((float(i),), (devs[i],), "n") for i in failing],
        checked=len(devs),
        skipped=skipped,
        inconclusive=inconclusive,
    )


@settings(max_examples=300)
@given(_events)
def test_tally_matches_the_plain_rule(events):
    tally = Tally(TOL)
    k = 0
    for d in events:
        if d is None:
            tally.skip()
        else:
            if tally.add(d):
                tally.witness((float(k),), (d,), "n")
            k += 1
    got, want = tally.report("s", "g"), reference_report(events)
    # NaN != NaN, so compare the JSON text, where NaN is the string "nan"
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


@settings(max_examples=300)
@given(st.lists(st.one_of(st.floats(0.0, 1e-8), st.sampled_from([TOL, 2 * TOL, math.nan, math.inf])),
                max_size=40))
def test_add_asks_for_exactly_the_first_failing_points(devs):
    # add answers True for the first WITNESS_CAP deviations not <= tol, a NaN
    # too; witness keeps each such point in the order it was sampled
    tally = Tally(TOL)
    asked = []
    for k, d in enumerate(devs):
        if tally.add(d):
            asked.append(k)
            tally.witness((float(k),), (d,), "n")
    failing = [k for k, d in enumerate(devs) if not d <= TOL]
    assert asked == failing[:WITNESS_CAP]
    assert [w.point for w in tally.witnesses] == [(float(k),) for k in asked]
    assert tally.checked == len(devs)


def test_a_passing_point_is_never_asked_for():
    tally = Tally(TOL)
    assert [tally.add(d) for d in (0.0, TOL, -math.inf, 0.5 * TOL)] == [False] * 4
    assert tally.witnesses == [] and tally.checked == 4


def test_add_stops_asking_once_the_cap_is_kept():
    tally = Tally(TOL)
    for k in range(WITNESS_CAP):
        assert tally.add(math.inf)
        tally.witness((float(k),), ())
    assert not tally.add(math.nan) and not tally.add(1.0)
    rep = tally.report("s")
    assert len(rep.witnesses) == WITNESS_CAP and math.isnan(rep.max_deviation)


def test_a_nan_deviation_gets_a_witness_and_fails():
    tally = Tally(TOL)
    assert not tally.add(0.0)
    assert tally.add(math.nan)
    tally.witness((1.0,), ())
    rep = tally.report("s")
    assert not rep.passed and math.isnan(rep.max_deviation)
    assert [w.point for w in rep.witnesses] == [(1.0,)]


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_values_are_strict_json():
    tally = Tally(TOL)
    tally.add(0.0)
    if tally.add(math.nan):
        tally.witness((math.inf, 1.0), (-math.inf, math.nan))
    rep = tally.report("s")
    doc = json.loads(json.dumps(rep.to_dict()), parse_constant=_no_constants)
    assert doc["max_deviation"] == "nan" and doc["tolerance"] == TOL
    assert doc["witnesses"] == [{"point": ["inf", 1.0], "values": ["-inf", "nan"], "note": ""}]
    assert rep.one_line().startswith("FAIL")


def test_half_skipped_is_still_conclusive():
    tally = Tally(TOL)
    tally.add(0.0)
    tally.skip()
    assert tally.report("s").passed
    tally.skip()
    rep = tally.report("s")
    assert rep.inconclusive and not rep.passed


def test_nothing_sampled_is_vacuous():
    rep = Tally(TOL).report("s")
    assert rep.passed and not rep.inconclusive and rep.checked == 0


def test_a_tally_does_not_grow_with_its_points():
    # deviations cross TOL at k = 10_000, so the witness list fills up too
    tally = Tally(TOL)
    tracemalloc.start()
    try:
        for k in range(100_000):
            if tally.add(k * 1e-13):
                tally.witness((float(k),), ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    rep = tally.report("s")
    assert rep.checked == 100_000 and rep.max_deviation == 99_999 * 1e-13 and not rep.passed
    assert len(rep.witnesses) == 8


def nan_max_deviation(lhs, rhs) -> float:
    """`deviation` as one formula for every length, through `nan_max`."""
    gap = nan_max(abs(a - b) for a, b in zip(lhs, rhs))
    return gap / (1.0 + nan_max(abs(x) for x in rhs))


_SUBNORMALS = [5e-324, -5e-324, 1e-310, -2.225073858507201e-308]
_components = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, *_SUBNORMALS]),
)


def _same(x: float, y: float) -> bool:
    """Both NaN (of any payload), or the same bits: 0.0 is not -0.0."""
    return x != x and y != y or struct.pack("<d", x) == struct.pack("<d", y)


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(_components, min_size=n, max_size=n)] * 2)
))
@settings(max_examples=500)
@example(([1.0, math.nan], [1.0, 2.0]))  # a NaN gap after a finite one
@example(([1.0, 2.0], [math.inf, math.nan]))  # a NaN |r| after an infinite one
@example(([-0.0, 5e-324], [0.0, -5e-324]))  # zero gaps of either sign, subnormals
def test_deviation_matches_the_nan_max_formula(pair):
    lhs, rhs = pair
    got = deviation(lhs, rhs)
    assert _same(got, nan_max_deviation(lhs, rhs))
    if any(math.isnan(v) for v in (*lhs, *rhs)):
        assert math.isnan(got)


@pytest.mark.parametrize("lhs, rhs", [
    ([], []), ([1.0], []), ([], [1.0]), ([1.0], [1.0, 2.0]), ([1.0, 2.0, 3.0], [1.0, 2.0]),
])
def test_deviation_of_unequal_or_empty_vectors_raises(lhs, rhs):
    with pytest.raises(ValueError, match=f"got {len(lhs)} and {len(rhs)}"):
        deviation(lhs, rhs)
