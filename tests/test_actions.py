"""Semigroup axiom checks, injectivity probing and the dichotomy."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiflow.actions import (
    PreconditionError,
    ProbeEvidence,
    TimeAction,
    classify_samples,
    composition_check,
    dichotomy_classify,
    identity_check,
    injectivity_probe,
    noninvertibility_witness_sqrt,
    probe_evidence,
)
from semiflow.enforcing import (
    bump_map,
    cuberoot_group_action,
    homotopy_action,
    milder_action,
    sqrt_action,
    sqrt_mediator,
    square_map,
)
from semiflow.expr import EvalDomainError, ExprError, parse_expr
from semiflow.grids import grid1d, grid2d
from semiflow.maps import SmoothMap, identity_map, map_from_exprs, scalar_map
from semiflow.reduction import EvolutionOp, OdeSystem, gls_one_time_op
from semiflow.report import Tally, Witness, deviation


def identity_action() -> TimeAction:
    return TimeAction(
        time_domain="nonneg",
        map=SmoothMap(("t", "y"), (parse_expr("y"),), name="identity-action"),
    )


class TestTimeAction:
    def test_arity_validation(self):
        # a map R^3 -> R^1 is no family of self-maps of any R^l
        with pytest.raises(ExprError, match=r"must be R\^\(l\+1\) -> R\^l; got 3 -> 1$"):
            TimeAction("nonneg", scalar_map(("t", "y", "z"), "y", name="bad"))

    def test_shape_is_read_from_the_map(self):
        rotation = map_from_exprs(
            ("s", "x", "u"), ["x*cos(s) - u*sin(s)", "x*sin(s) + u*cos(s)"], name="rotation"
        )
        action = TimeAction("full", rotation)
        assert (action.dim, action.time_var, action.state_vars) == (2, "s", ("x", "u"))
        assert action.frozen_map(0.5).inputs == ("x", "u")

    def test_time_domain_enforced(self):
        with pytest.raises(EvalDomainError):
            sqrt_action()(-1.0, (1.0,))
        assert milder_action()(-1.0, (1.0,)) == (0.0,)

    def test_frozen_map_symbolic(self):
        frozen = sqrt_action().frozen_map(4.0)
        assert frozen.inputs == ("y",)
        assert frozen(3.0)[0] == pytest.approx(21.0, rel=1e-15)


class TestIdentityCheck:
    def test_sqrt_action_exact(self):
        rep = identity_check(sqrt_action(), grid1d(-3.0, 3.0, 101), 1e-12)
        assert rep.passed and rep.max_deviation == 0.0

    def test_homotopy_families(self):
        for f in (bump_map(), identity_map(("y",))):
            rep = identity_check(homotopy_action(f, sqrt_mediator()), grid1d(-3.0, 3.0, 41), 1e-12)
            assert rep.passed

    def test_milder_action(self):
        assert identity_check(milder_action(), grid1d(-3.0, 3.0, 41), 1e-12).passed

    def test_failing_identity_collects_witnesses(self):
        shifted = TimeAction(
            "nonneg",
            SmoothMap(("t", "y"), (parse_expr("y + 1"),), name="shifted"),
        )
        rep = identity_check(shifted, grid1d(-1.0, 1.0, 5), 1e-12)
        assert not rep.passed and rep.witnesses

    def test_nan_deviation_carries_a_witness(self):
        # y*1e308*10 overflows to inf, and inf - inf is NaN at every point
        overflowing = TimeAction(
            "nonneg",
            SmoothMap(
                ("t", "y"), (parse_expr("y + (y*1e308*10 - y*1e308*10)"),), name="overflowing"
            ),
        )
        rep = identity_check(overflowing, grid1d(0.5, 1.0, 3), 1e-12)
        assert not rep.passed and math.isnan(rep.max_deviation)
        assert [w.point for w in rep.witnesses] == [(0.5,), (0.75,), (1.0,)]

    def test_mostly_skipped_is_inconclusive(self):
        # 2 of 21 points lie in the region y > 0.85: the exact identity
        # must not pass on a tenth of its grid
        guarded = TimeAction(
            "nonneg",
            SmoothMap(("t", "y"), (parse_expr("y"),), name="guarded"),
            region=((parse_expr("y - 0.85"), ">"),),
        )
        rep = identity_check(guarded, grid1d(-1.0, 1.0, 21), 1e-12)
        assert rep.checked == 2 and rep.skipped == 19
        assert rep.inconclusive and not rep.passed


class TestCompositionCheck:
    def test_raw_sqrt_action_fails(self):
        rep = composition_check(sqrt_action(), [(1.0, 1.0)], grid1d(0.5, 1.5, 5), 1e-9)
        assert not rep.passed
        assert rep.max_deviation > 0.1

    def test_raw_milder_action_fails(self):
        rep = composition_check(milder_action(), [(1.0, 1.0)], grid1d(0.5, 1.5, 5), 1e-9)
        assert not rep.passed

    def test_raw_homotopy_action_fails(self):
        # H(1, H(1, 2)) = f(f(2)) = 16 but H(2, 2) = 2 + 2*sqrt(2): the raw
        # deformation toward f is no semigroup either
        action = homotopy_action(square_map(), sqrt_mediator())
        rep = composition_check(action, [(1.0, 1.0)], grid1d(1.5, 3.0, 7), 1e-9)
        assert not rep.passed and rep.max_deviation > 0.1

    def test_cuberoot_group_law_on_both_signs(self):
        rep = composition_check(
            cuberoot_group_action(), [(1.0, 2.0), (-1.0, 2.0), (0.5, -0.25)],
            grid1d(-3.0, 3.0, 22), 1e-12,
        )
        assert rep.passed

    def test_nan_deviation_carries_a_witness(self):
        # t*1e308*10 - t*1e308*10 is 0 at t = 0 and NaN for every t > 0
        action = TimeAction(
            "nonneg",
            SmoothMap(
                ("t", "y"),
                (parse_expr("y + (t*1e308*10 - t*1e308*10)"),),
                name="nan-for-positive-t",
            ),
        )
        rep = composition_check(action, [(1.0, 1.0)], grid1d(0.5, 1.0, 3), 1e-9)
        assert not rep.passed and math.isnan(rep.max_deviation)
        assert len(rep.witnesses) == 3

    def test_zero_times_trivial(self):
        rep = composition_check(sqrt_action(), [(0.0, 0.0)], grid1d(-2.0, 2.0, 9), 1e-15)
        assert rep.passed

    def test_time_domain_precondition(self):
        with pytest.raises(PreconditionError):
            composition_check(sqrt_action(), [(-1.0, 2.0)], grid1d(0.0, 1.0, 3), 1e-9)

    def test_no_time_pair_checks_nothing_and_cannot_pass(self):
        rep = composition_check(sqrt_action(), [], grid1d(0.0, 1.0, 3), 1e-9)
        assert rep.checked == rep.skipped == 0 and rep.inconclusive and not rep.passed

    def test_mostly_skipped_is_inconclusive(self):
        guarded = TimeAction(
            "nonneg",
            SmoothMap(("t", "y"), (parse_expr("y"),), name="guarded"),
            region=((parse_expr("y - 0.9"), ">"),),
        )
        rep = composition_check(guarded, [(1.0, 1.0)], grid1d(-1.0, 1.0, 21), 1e-9)
        assert rep.inconclusive and not rep.passed


class TestRegion:
    @pytest.mark.parametrize("build", [
        lambda region: TimeAction("full", scalar_map(("t", "y"), "y + t", name="a"), region),
        lambda region: OdeSystem(scalar_map(("t", "y"), "y", name="s"), region),
        lambda region: EvolutionOp(scalar_map(("t", "y", "z"), "y + z", name="e"), region),
    ], ids=["action", "system", "operator"])
    def test_construction_rejects_a_stray_variable_or_relation(self, build):
        with pytest.raises(ExprError, match=r"undeclared variables \['q'\]"):
            build(((parse_expr("y - q"), ">"),))
        for rel in ("<", "==", "> 0", ""):
            with pytest.raises(ExprError, match="unknown relation"):
                build(((parse_expr("y"), rel),))
        build(((parse_expr("y"), ">"), (parse_expr("t"), ">="), (parse_expr("y - t"), "!=")))

    def test_a_region_test_that_raises_a_domain_error_is_a_skip(self):
        # sqrt(y) - 0.5 >= 0 holds for y >= 0.25 and raises for y < 0: the
        # grid's point -0.25 is off the region like 0, and no check raises
        action = TimeAction(
            "full", scalar_map(("t", "y"), "y + t", name="shift"),
            region=((parse_expr("sqrt(y) - 0.5"), ">="),),
        )
        assert action.map.on_region(action.region)(0.5, -1.0) is None
        assert not action.valid_at(0.5, (-1.0,)) and action.valid_at(0.5, (0.25,))
        line = grid1d(-0.25, 1.0, 6)
        comp = composition_check(action, [(0.5, 0.5)], line, 1e-12)
        ident = identity_check(action, line, 1e-12)
        for rep in (comp, ident):
            assert rep.passed and (rep.checked, rep.skipped) == (4, 2)


class TestInjectivityProbe:
    def test_sqrt_frozen_is_non_injective(self):
        frozen = sqrt_action().frozen_map(1.0)  # y + y^2
        rep = injectivity_probe(frozen, grid1d(-3.0, 3.0, 61), 1e-9)
        assert not rep.passed
        y1, y2 = rep.witnesses[0].point
        v1, v2 = rep.witnesses[0].values
        assert abs(y1 - y2) > 1e-3
        assert abs(v1 - v2) <= 1e-9 * (1.0 + abs(v1))

    def test_identity_is_clean(self):
        rep = injectivity_probe(identity_action().frozen_map(1.0), grid1d(-3.0, 3.0, 61), 1e-9)
        assert rep.passed and not rep.witnesses

    def test_bump_homotopy_at_one_is_non_injective(self):
        frozen = homotopy_action(bump_map(), sqrt_mediator()).frozen_map(1.0)  # = 1/(y^2+1)
        rep = injectivity_probe(frozen, grid1d(-3.0, 3.0, 61), 1e-9)
        assert not rep.passed

    def test_pairwise_method_on_2d(self):
        fold = SmoothMap(("x", "y"), (parse_expr("x^2"), parse_expr("y")), name="fold")
        rep = injectivity_probe(fold, grid2d(-2.0, 2.0, 9, -1.0, 1.0, 5), 1e-9)
        assert not rep.passed

    def test_grid_beyond_4000_points(self):
        fold = SmoothMap(("x", "y"), (parse_expr("x^2"), parse_expr("y")), name="fold")
        grid = grid2d(-2.0, 2.0, 70, -1.0, 1.0, 70)
        rep = injectivity_probe(fold, grid, 1e-9)
        assert not rep.passed and rep.checked == 4900
        xs, ys = grid.axis_values()
        # the first 8 pairs in grid order: (-2, y_k) and its mirror (2, y_k)
        assert [w.point for w in rep.witnesses] == [(-2.0, y, 2.0, y) for y in ys[:8]]
        assert rep.max_deviation == math.inf

    def test_a_located_collision_fails_every_tolerance(self):
        # at tol = 2 every pair of the identity's images collides; the pairs'
        # separations are at most 1.6 <= tol, yet the report must fail
        ident = map_from_exprs(("x", "y"), ["x", "y"])
        rep = injectivity_probe(ident, grid2d(-1, 1, 11, -1, 1, 11), 2.0)
        assert rep.witnesses and rep.max_deviation == math.inf
        assert rep.passed == (rep.max_deviation <= rep.tolerance and not rep.inconclusive)
        assert not rep.passed

    def test_a_sign_change_without_a_located_pair_fails_its_tolerance(self):
        # y^2 turns at 0, but on [-3, 0.01] the partners of the points tried
        # left of 0 lie past the grid's right end: no pair is located
        rep = injectivity_probe(scalar_map(("y",), "y^2"), grid1d(-3.0, 0.01, 41), 1e-9)
        assert [w.note for w in rep.witnesses] == ["derivative sign change (no pair located)"]
        assert not rep.passed and not rep.max_deviation <= rep.tolerance
        assert rep.passed == (rep.max_deviation <= rep.tolerance and not rep.inconclusive)

    def test_arity_requirement(self):
        with pytest.raises(Exception):
            injectivity_probe(scalar_map(("x", "y"), "x + y"), grid2d(0, 1, 3, 0, 1, 3), 1e-9)


def all_pairs_probe(m, grid, tol):
    """Reference: the all-pairs collision scan of the pairwise probe."""
    sep = 1e-6 * max(ax.hi - ax.lo for ax in grid.axes)
    images = []
    skipped = 0
    for p in grid.points():
        try:
            images.append((p, m.at(p)))
        except EvalDomainError:
            skipped += 1
    witnesses = []
    for i in range(len(images)):
        p1, v1 = images[i]
        for j in range(i + 1, len(images)):
            p2, v2 = images[j]
            if max(abs(a - b) for a, b in zip(p1, p2)) < sep:
                continue
            if deviation(v1, v2) <= tol:
                witnesses.append(Witness((*p1, *p2), (*v1, *v2), "image collision"))
                if len(witnesses) >= 8:
                    return ProbeEvidence(witnesses, skipped=skipped)
    return ProbeEvidence(witnesses, skipped=skipped)


class TabulatedMap:
    """A stand-in for a SmoothMap with arbitrary images: the probes read
    only `inputs`, `in_dim`, `out_dim`, `at`, `__call__` and `name`."""

    inputs, in_dim, out_dim, name = ("x", "y"), 2, 2, "tabulated"

    def __init__(self, ny, images):
        self.ny, self.images = ny, images

    def __call__(self, x, y):
        v = self.images[int(x) * self.ny + int(y)]
        if v is None:
            raise EvalDomainError("no image")
        return v

    def at(self, point):
        return self(*point)


def tabulated_map(nx, ny, images):
    """A map of the integer grid [0, nx-1] x [0, ny-1]; a None image is a domain error."""
    return TabulatedMap(ny, images), grid2d(0, nx - 1, nx, 0, ny - 1, ny)


_ODD = [math.nan, math.inf, -math.inf, 1e300, -1e300, -0.0]


@st.composite
def probe_cases(draw):
    # Image components on a lattice of a quarter tolerance collide often
    # (more than 8 times on larger grids) and sit on cell boundaries; the odd
    # values and free floats give loose images and a wide range of cell sides.
    tol = draw(st.sampled_from([0.25, 1e-9, 0.5, 0.0]))
    unit = tol / 4.0 if tol else 1.0
    comp = st.one_of(
        st.integers(-8, 8).map(lambda k: k * unit),
        st.sampled_from(_ODD + [1e3]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    nx, ny = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    image = st.one_of(st.tuples(comp, comp), st.none())
    images = draw(st.lists(image, min_size=nx * ny, max_size=nx * ny))
    return tol, nx, ny, images


class TestPairwiseProbeCellIndex:
    @settings(max_examples=200, deadline=None)
    @given(probe_cases())
    @example((0.25, 2, 2, [(10.0, 0.0), (12.0, 0.0), None, None]))  # gap 2 > tol, deviation 2/13
    @example((0.25, 2, 2, [(0.0, 0.0), (-0.25, 0.0), (0.375, 0.0), (math.nan, 9.0)]))
    @example((1e-9, 2, 2, [(1e300, 1.0), (1e300, 1.0), (math.inf, 1.0), (math.inf, 1.0)]))
    @example((0.25, 3, 4, [(1.0, 1.0)] * 12))  # 66 collisions, the first 8 kept
    def test_matches_all_pairs_scan(self, case):
        tol, nx, ny, images = case
        m, grid = tabulated_map(nx, ny, images)
        assert repr(probe_evidence(m, grid, tol)) == repr(all_pairs_probe(m, grid, tol))


class TestWitnessPair:
    @pytest.mark.parametrize("t,expected", [(1.0, -1.0), (4.0, -0.5), (0.25, -2.0)])
    def test_known_pairs(self, t, expected):
        y1, y2 = noninvertibility_witness_sqrt(t)
        assert y1 == 0.0
        assert y2 == pytest.approx(expected, rel=1e-15)
        action = sqrt_action()
        assert abs(action.call1(t, y1) - action.call1(t, y2)) <= 1e-12

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            noninvertibility_witness_sqrt(0.0)


class TestDichotomy:
    def test_aggregation_rules(self):
        assert classify_samples(["invertible", "invertible"]) == "group_like"
        assert classify_samples(["noninvertible"] * 3) == "genuine_semigroup"
        assert classify_samples(["invertible", "noninvertible"]) == "inconsistent"
        assert classify_samples(["invertible", "unknown"]) == "inconclusive"
        assert classify_samples([]) == "inconclusive"
        # mixed evidence dominates unknowns: it signals a modeling error
        assert classify_samples(["invertible", "unknown", "noninvertible"]) == "inconsistent"

    def test_cuberoot_is_group_like(self):
        res = dichotomy_classify(cuberoot_group_action(), [0.5, 1.0, 2.0], grid1d(-3.0, 3.0, 22), 1e-9)
        assert res.classification == "group_like"
        assert all(s.status == "invertible" for s in res.samples)

    def test_identity_is_group_like(self):
        res = dichotomy_classify(identity_action(), [0.5, 1.0], grid1d(-3.0, 3.0, 21), 1e-9)
        assert res.classification == "group_like"

    def test_no_time_sample_fails_the_composition_precondition(self):
        # no sample gives no composition time pair, and a law checked at no
        # point is inconclusive: no verified semigroup to classify
        with pytest.raises(PreconditionError, match="composition law fails: INCONCLUSIVE"):
            dichotomy_classify(identity_action(), [], grid1d(-3.0, 3.0, 21), 1e-9)

    def test_gls_evolution_is_genuine(self):
        res = dichotomy_classify(
            gls_one_time_op(),
            [0.25, 1.0, 4.0],
            grid2d(0.0, 1.0, 3, -2.0, 2.0, 41),
            1e-9,
            composition_times=[(0.25, 0.25), (0.25, 0.5), (0.5, 0.5)],
        )
        assert res.classification == "genuine_semigroup"
        for sample in res.samples:
            assert sample.status == "noninvertible" and sample.evidence.witnesses

    @pytest.mark.parametrize(
        "suite, name",
        [("noninvertibility", "dichotomy[cuberoot-action]"), ("burgers", "dichotomy[soliton-position-flow]")],
    )
    def test_a_misclassified_group_report_writes_its_collisions(self, monkeypatch, suite, name):
        import semiflow.suites as suites

        def genuine(*args, **kwargs):
            # whatever it is given, classify the square-root evolution, which collides
            return dichotomy_classify(
                gls_one_time_op(), [0.25, 1.0], grid2d(0.0, 1.0, 3, -2.0, 2.0, 41), 1e-9,
                composition_times=[(0.25, 0.25)],
            )

        monkeypatch.setattr(suites, "dichotomy_classify", genuine)
        (rep,) = [r for r in suites.SUITES[suite](suites.SuiteConfig()) if r.suite == name]
        assert not rep.passed and len(rep.witnesses) == 2
        assert rep.notes[0].startswith("classified genuine_semigroup")

    def test_raw_action_rejected(self):
        with pytest.raises(PreconditionError):
            dichotomy_classify(sqrt_action(), [1.0], grid1d(0.5, 1.5, 5), 1e-9)

    def test_positive_samples_required(self):
        with pytest.raises(ValueError):
            dichotomy_classify(identity_action(), [0.0, 1.0], grid1d(-1.0, 1.0, 5), 1e-9)


class TestReportInvariant:
    def test_pass_iff_dev_below_tol(self):
        rep = identity_check(sqrt_action(), grid1d(-2.0, 2.0, 11), 1e-12)
        assert rep.passed == (rep.max_deviation <= rep.tolerance and not rep.inconclusive)
        rep2 = composition_check(sqrt_action(), [(1.0, 1.0)], grid1d(0.5, 1.5, 5), 1e-9)
        assert rep2.passed == (rep2.max_deviation <= rep2.tolerance and not rep2.inconclusive)

    def test_nan_deviation_does_not_depend_on_position(self):
        assert math.isnan(deviation((1.0, math.nan), (1.0, 2.0)))
        assert math.isnan(deviation((math.nan, 1.0), (2.0, 1.0)))
        assert math.isnan(deviation((1.0, 2.0), (1.0, math.nan)))

    @staticmethod
    def tallied(devs):
        tally = Tally(1e-9)
        for k, d in enumerate(devs):
            if tally.add(d):
                tally.witness((float(k),), ())
        return tally.report("x")

    @pytest.mark.parametrize("devs", [[0.0, math.nan], [math.nan, 0.0]])
    def test_nan_deviation_fails_the_report(self, devs):
        rep = self.tallied(devs)
        assert not rep.passed and math.isnan(rep.max_deviation)

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(0.0, 1e-12), max_size=20),
        st.lists(st.sampled_from([math.nan, math.inf]), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_any_non_finite_deviation_fails_the_report(self, finite, odd, rng):
        devs = finite + odd
        rng.shuffle(devs)
        rep = self.tallied(devs)
        assert not rep.passed and rep.passed == (rep.max_deviation <= rep.tolerance)
        if any(math.isnan(x) for x in odd):
            assert math.isnan(rep.max_deviation)
        else:
            assert rep.max_deviation == math.inf

    def test_json_round_trip(self):
        import json

        rep = identity_check(sqrt_action(), grid1d(-2.0, 2.0, 11), 1e-12)
        doc = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
        assert doc["suite"] == rep.suite and doc["passed"] is True
