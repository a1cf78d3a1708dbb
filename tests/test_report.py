"""The one tally behind every sampled check: witnesses, skips, inconclusive."""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflow.actions import DichotomyResult, InvertibilitySample, TimeAction
from semiflow.reduction import EvolutionOp, OdeSystem, Trajectory
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
    inconclusive = not events or skipped > len(events) / 2
    return VerificationReport(
        suite="s",
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
    # a check that sampled no point compared nothing, so it cannot pass
    rep = Tally(TOL).report("s")
    assert not rep.passed and rep.inconclusive and rep.checked == 0
    assert rep.one_line().startswith("INCONCLUSIVE")


@given(st.floats(), st.floats(), st.booleans())
@settings(max_examples=300)
@example(math.nan, 1.0, False)
@example(0.0, math.nan, False)
@example(math.inf, math.inf, False)
@example(-math.inf, -math.inf, False)
@example(-0.0, 0.0, False)
@example(0.0, -0.0, True)
@example(-0.0, -0.0, False)
def test_every_constructor_gives_the_rule(dev, tol, inconclusive):
    rule = dev <= tol and not inconclusive
    direct = VerificationReport("s", dev, tol, inconclusive=inconclusive)
    derived = VerificationReport.from_deviations("s", 1, dev, tol, inconclusive=inconclusive)
    tally = Tally(tol)
    if tally.add(dev):
        tally.witness((0.0,), (dev,))
    for _ in range(2 if inconclusive else 0):
        tally.skip()  # two skips of three sampled points make the run inconclusive
    tallied = tally.report("s")
    assert tallied.inconclusive == inconclusive
    assert direct.passed == derived.passed == tallied.passed == rule


def test_a_verdict_cannot_be_given():
    with pytest.raises(TypeError, match="passed"):
        VerificationReport("s", 1.0, 0.5, passed=True)
    rep = VerificationReport("s", 0.0, 0.5)
    with pytest.raises(AttributeError):
        rep.passed = False


@pytest.mark.parametrize("record, stored", [
    (TimeAction, ["time_domain", "map", "region"]),
    (OdeSystem, ["rhs", "region"]),
    (EvolutionOp, ["closed_form", "region"]),
    (Trajectory, ["times", "columns"]),
    (VerificationReport, ["suite", "max_deviation", "tolerance", "grid", "witnesses",
                          "checked", "skipped", "inconclusive", "notes"]),
    (InvertibilitySample, ["t", "evidence"]),
    (DichotomyResult, ["samples", "identity_report", "composition_report"]),
])
def test_a_record_stores_only_what_it_cannot_compute(record, stored):
    assert [f.name for f in dataclasses.fields(record)] == stored


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


_pairs_of_2_vectors = st.tuples(*[st.lists(_components, min_size=2, max_size=2)] * 2)


@given(_pairs_of_2_vectors)
@settings(max_examples=500)
@example(([math.nan, 1.0], [1.0, 2.0]))  # a NaN gap first
@example(([1.0, 2.0], [1.0, math.nan]))  # a NaN r second
@example(([math.inf, 1.0], [math.inf, 1.0]))  # inf - inf is a NaN gap
@example(([1.0, -math.inf], [0.0, 2.0]))  # an infinite gap
@example(([0.0, 1.0], [-math.inf, 1.0]))  # an infinite |r|
@example(([-0.0, -0.0], [0.0, -0.0]))  # zero gaps and |r| of either sign
@example(([1.0, 3.0], [2.0, 2.0]))  # equal gaps
def test_two_vector_deviation_is_the_general_loops(pair):
    lhs, rhs = pair
    # a third pair 0.0, 0.0 sends the vectors through the general loop and
    # leaves both maxima as they are, since each starts at 0.0
    assert _same(deviation(lhs, rhs), deviation([*lhs, 0.0], [*rhs, 0.0]))


@pytest.mark.parametrize("lhs, rhs", [
    ([], []), ([1.0], []), ([], [1.0]), ([1.0], [1.0, 2.0]), ([1.0, 2.0, 3.0], [1.0, 2.0]),
    ([1.0, 2.0], [1.0]), ([1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0], []),
])
def test_deviation_of_unequal_or_empty_vectors_raises(lhs, rhs):
    with pytest.raises(ValueError, match=f"got {len(lhs)} and {len(rhs)}"):
        deviation(lhs, rhs)
