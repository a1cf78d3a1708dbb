"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

from __future__ import annotations

import math
import re
import time

from semiflow.suites import SUITES, SuiteConfig


CONFIG = SuiteConfig(seed=42)


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")


def _run(name: str):
    return SUITES[name](CONFIG)


def test_criterion_01_semigroup_law_of_the_evolution():
    reps = _run("gls-semigroup")
    ok = all(r.passed and r.tolerance == 1e-9 and r.skipped == 0 for r in reps)
    _line(1, ok, f"one-time law on the evolution operator, max dev {reps[0].max_deviation:.2e} <= 1e-9")
    assert ok


def test_criterion_02_identity_axiom():
    reps = _run("identity-axiom")
    ok = len(reps) == 7 and all(r.passed and r.tolerance == 1e-12 for r in reps)
    worst = max(r.max_deviation for r in reps)
    _line(2, ok, f"identity at t=0 for all 7 registered actions, max dev {worst:.2e} <= 1e-12")
    assert ok


def test_criterion_03_noninvertibility_and_dichotomy():
    reps = _run("noninvertibility")
    by_name = {r.suite: r for r in reps}
    collision = by_name["sqrt-witness-collision"]
    ok = (
        collision.passed
        and collision.tolerance == 1e-12
        and by_name["dichotomy[sqrt-gls-evolution]"].passed
        and by_name["dichotomy[cuberoot-action]"].passed
    )
    k_rel = by_name["sqrt-action-vs-smooth-family"]
    ok = ok and k_rel.passed and k_rel.tolerance == 1e-12 and k_rel.checked == 19 * 25
    _line(3, ok, "witness pairs collide within 1e-12; genuine semigroup vs group-like classified; "
          "H(t,y) = K(sqrt(t),y) within 1e-12")
    assert ok


def test_criterion_04_ode_residuals():
    reps = {r.suite: r for r in _run("ode-residuals")}
    ok = (
        reps["ode-residual[sqrt-branches]"].passed
        and reps["ode-residual[sqrt-branches]"].tolerance == 1e-10
        and reps["ode-residual[homotopy-square]"].passed
        and reps["ode-residual[homotopy-bump]"].passed
        and reps["ode-residual[homotopy-square]"].tolerance == 1e-9
        and reps["ode-residual[milder-branches]"].passed
        and reps["ode-residual[milder-branches]"].tolerance == 1e-10
    )
    for name in ("limit-ic[sqrt-action]", "limit-ic[homotopy[square]]", "limit-ic[homotopy[bump]]"):
        ok = ok and reps[name].passed and reps[name].tolerance == 1e-5 and reps[name].checked == 5
    ok = ok and reps["not-c1[sqrt-action]"].passed and reps["not-c1[sqrt-action]"].checked == 5
    _line(4, ok, "branch ODEs <= 1e-10, homotopy ODE <= 1e-9, smooth-variant ODEs <= 1e-10, "
          "limit-type initial conditions <= 1e-5, quotient ~ y^2/sqrt(eps): not C^1 at t = 0")
    assert ok


def test_criterion_05_flow_oracle():
    started = time.time()
    reps = {r.suite: r for r in _run("flow-oracle")}
    elapsed = time.time() - started
    sqrt_rep = reps["flow-vs-closed-form[sqrt-action]"]
    cbrt_rep = reps["flow-vs-closed-form[cuberoot-action]"]
    # step doubling from 625 stops at 1250 steps on both runs: every sample compared
    estimates = [
        [float(v) for v in re.search(r"estimate (\S+) \(target (\S+)\)", r.notes[0]).groups()]
        for r in (sqrt_rep, cbrt_rep)
    ]
    ok = (
        sqrt_rep.passed
        and sqrt_rep.tolerance == 1e-5
        and sqrt_rep.checked == 1251  # 1250 steps from eps = 1e-8
        and cbrt_rep.passed
        and cbrt_rep.tolerance == 1e-6
        and cbrt_rep.checked == 1251
        and all(est <= target for est, target in estimates)
        and elapsed <= 30.0
    )
    _line(
        5,
        ok,
        f"RK4 oracle: singular start rel dev {sqrt_rep.max_deviation:.2e} <= 1e-5 "
        f"(estimate {estimates[0][0]:.2e}), cube-root rel dev {cbrt_rep.max_deviation:.2e} "
        f"<= 1e-6, {elapsed:.1f}s <= 30s",
    )
    assert ok


def test_criterion_06_reduction_algebra():
    reps = _run("reduction-algebra")
    by_name = {r.suite: r for r in reps}
    ok = (
        by_name["first-component[quadratic-evolution]"].passed
        and by_name["first-component[sqrt-gls-evolution]"].passed
        and by_name["first-component[quadratic-evolution]"].max_deviation <= 1e-12
        and by_name["two-time-law[quadratic-two-time]"].passed
        and by_name["two-time-law[quadratic-two-time]"].tolerance == 1e-12
        and by_name["recovery[quadratic]"].passed
        and by_name["recovery[quadratic]"].tolerance == 1e-9
    )
    _line(6, ok, "first component exact, quadratic laws <= 1e-12, slice recovery <= 1e-9")
    assert ok


def test_criterion_07_recovery_cross_check():
    reps = _run("recovery-cross-check")
    rep = reps[0]
    ok = rep.passed and rep.tolerance == 1e-9 and rep.checked == 100
    _line(7, ok, f"slice recovery vs closed form at 100 random points, max dev {rep.max_deviation:.2e} <= 1e-9")
    assert ok


def test_criterion_08_semi_symmetry_corpus():
    reps = _run("semi-symmetry")
    ok = len(reps) == 3 and all(
        r.passed and r.tolerance == 1e-12 and r.checked == 4 * 21 * 21 for r in reps
    )
    worst = max(r.max_deviation for r in reps)
    _line(8, ok, f"12 profile/value-map combinations stay solutions, max residual {worst:.2e} <= 1e-12")
    assert ok


def test_criterion_09_parametric_representation():
    reps = {r.suite: r for r in _run("parametric-graph")}
    ok = reps["rotated-parabola[pi/4]"].passed and reps["rotated-parabola[pi]"].passed
    has_witness = bool(reps["rotated-parabola[pi/4]"].witnesses)
    regraphed = reps["regraph[half-turn-parabola]"]
    # linear interpolation on knots 0.01 apart: h^2/8 * |U''| = 2.5e-5 for U = -x^2
    ok = ok and regraphed.passed and regraphed.tolerance == 2.5e-5 * (1.0 + 1e-6)
    ok = ok and regraphed.checked == 400
    _line(9, ok and has_witness, "pi/4 rotation breaks the graph (witness returned); pi keeps it, "
          "and its re-graphed chart matches u = -x^2 within h^2/8*|U''|")
    assert ok and has_witness


def test_criterion_10_burgers():
    reps = {r.suite: r for r in _run("burgers")}
    ok = (
        reps["burgers-soliton-residual"].passed
        and reps["burgers-soliton-residual"].tolerance == 1e-8
        and reps["burgers-soliton-residual"].checked == 20
        and reps["soliton-translation"].passed
        and reps["soliton-translation"].tolerance == 1e-12
        and reps["param-flow-cocycle"].passed
        and reps["param-flow-cocycle"].tolerance == 1e-12
    )
    _line(10, ok, "soliton residual <= 1e-8 (20 tuples); translation and cocycle <= 1e-12")
    assert ok


def test_criterion_11_diffeo_thresholds():
    reps = _run("diffeo-thresholds")
    rep = reps[0]
    slope_peak = 3.0 * math.sqrt(3.0) / 8.0
    want_lo = (1.0 / (1.0 + slope_peak)) ** 2
    want_hi = (1.0 / (1.0 - slope_peak)) ** 2
    ok = rep.passed and rep.tolerance == 1e-4 and rep.max_deviation <= 1e-4
    prints_both = any("4/9" in n for n in rep.notes) and any(
        f"{want_lo:.6f}" in n for n in rep.notes
    )
    _line(
        11,
        ok and prints_both,
        f"thresholds match {want_lo:.5f} and {want_hi:.5f} within 1e-4; "
        "report shows the commonly quoted [0,4/9) U (4,inf) alongside",
    )
    assert ok and prints_both


def test_criterion_12_negative_control():
    reps = _run("negative-control")
    ok = all(r.passed for r in reps)
    _line(12, ok, "raw singular actions FAIL the composition law (gap > 0.1 at t=s=1, y=1)")
    assert ok


def test_criterion_13_symbolic_engine():
    reps = {r.suite: r for r in _run("symbolic-engine")}
    deriv = reps["derivative-vs-central-difference"]
    ok = (
        deriv.passed
        and deriv.tolerance == 1e-6
        and deriv.checked == 100
        and reps["parser-round-trip"].passed
    )
    _line(13, ok, f"100 randomized derivative checks <= 1e-6 relative; parser round-trip clean")
    assert ok


# points each pass/fail verdict sampled, and skipped: the charts' grid
# points, a classification's identity, composition and probe points, the
# composition points plus the spot point, the catalog, the classified times
SAMPLED = {
    "rotated-parabola[pi/4]": (401, 0),
    "rotated-parabola[pi]": (802, 0),
    "dichotomy[sqrt-gls-evolution]": (571, 290),
    "dichotomy[cuberoot-action]": (286, 0),
    "dichotomy[soliton-position-flow]": (273, 0),
    "negative-control[raw-sqrt-action]": (6, 0),
    "negative-control[raw-homotopy-action]": (7, 0),
    "parser-round-trip": (12, 0),
    "diffeo-thresholds[bump-homotopy]": (44, 0),
    "heat-flow-demo": (16 * 21, 0),
}


def test_every_report_counts_the_points_it_sampled():
    reports = {r.suite: r for name in SUITES for r in _run(name)}
    assert [name for name, r in reports.items() if r.checked == 0] == []
    assert {name: (reports[name].checked, reports[name].skipped) for name in SAMPLED} == SAMPLED
