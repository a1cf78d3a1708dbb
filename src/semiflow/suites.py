"""Named verification suites: the package's acceptance surface.

Every suite returns a list of VerificationReports with pinned default
tolerances; the CLI runs them by name and the acceptance tests assert on
them directly. All randomness is seeded through SuiteConfig.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .actions import (
    TimeAction,
    composition_check,
    dichotomy_classify,
    identity_check,
    noninvertibility_witness_sqrt,
)
from .enforcing import (
    bump_map,
    cuberoot_group_action,
    cuberoot_ode_system,
    diffeo_time_set,
    diffeo_classifier,
    homotopy_action,
    homotopy_residual_map,
    k_action_relation_check,
    limit_ic_check,
    milder_action,
    milder_ode_system,
    not_c1_check,
    ode_residual_map,
    sqrt_action,
    sqrt_mediator,
    sqrt_ode_system,
    square_map,
)
from .evolution_pde import (
    heat_flow_demo,
    param_flow_check,
    soliton_family,
    soliton_param_flow,
    soliton_residual_max,
    soliton_translation_check,
)
from .expr import EvalDomainError, Expr, Unary, Var, diff, parse_expr, to_text
from .grids import Axis, SamplingGrid, grid1d, grid2d
from .maps import SmoothMap, finite_diff, identity_map, scalar_map
from .reduction import (
    EvolutionOp,
    OdeSystem,
    first_component_check,
    flow_vs_closed_form,
    gls_one_time_op,
    gls_two_time_op,
    one_time_law_check,
    quadratic_one_time_op,
    quadratic_two_time_op,
    recover_evolution,
    two_time_law_check,
)
from .report import Tally, VerificationReport, Witness, deviation, max_norm, nan_max
from .rootfind import RootSearchError
from .semisym import (
    VALUE_MAPS,
    WAVE_PROFILES,
    act,
    canonical_parametric,
    is_graph,
    regraph,
    rotation_map,
    semi_symmetry_check,
    translation_wave,
    vertical_map,
)


@dataclass
class SuiteConfig:
    """Seed and scenario overrides for the suites.

    Suites read overrides only through `tol` and `axis`, which record each
    name read, in order, so `unread` can name the scenario keys no suite
    looked at and `run_suites` those one suite read.
    """

    seed: int = 42
    tolerances: dict[str, float] = field(default_factory=dict)
    grids: dict[str, Axis] = field(default_factory=dict)
    _read: list[tuple[str, str]] = field(default_factory=list, init=False, repr=False, compare=False)

    def tol(self, name: str, default: float) -> float:
        self._read.append(("tolerances", name))
        return float(self.tolerances.get(name, default))

    def axis(self, name: str, default: Axis) -> Axis:
        self._read.append(("grids", name))
        return self.grids.get(name, default)

    def unread(self) -> list[str]:
        """The overrides no `tol` or `axis` call has read, as kind.name."""
        return [
            f"{kind}.{name}"
            for kind, given in (("tolerances", self.tolerances), ("grids", self.grids))
            for name in sorted(given)
            if (kind, name) not in self._read
        ]


# expressions exercised by the symbolic-engine suite; each entry is
# (text, sampling box per free variable)
EXPRESSION_CATALOG: dict[str, tuple[str, dict[str, tuple[float, float]]]] = {
    "sqrt-action": ("y + sqrt(t)*y^2", {"t": (0.01, 9.0), "y": (-3.0, 3.0)}),
    "milder-action": ("y + t*y^2", {"t": (-2.0, 2.0), "y": (-3.0, 3.0)}),
    "cuberoot-flow": ("cbrt(3*t + y^3)", {"t": (0.1, 2.0), "y": (0.5, 3.0)}),
    "bump": ("1/(y^2 + 1)", {"y": (-3.0, 3.0)}),
    "bump-homotopy": ("(1 - sqrt(t))*y + sqrt(t)/(y^2 + 1)", {"t": (0.01, 4.0), "y": (-3.0, 3.0)}),
    "heat-kernel": ("exp(-x^2/(4*t))/sqrt(t)", {"t": (0.5, 2.0), "x": (-3.0, 3.0)}),
    "soliton": (
        "1 - sqrt(2)*tanh(sqrt(2)*(x - 1*t))",
        {"t": (0.0, 1.0), "x": (-5.0, 5.0)},
    ),
    "quadratic-evolution": ("s^2 + 2*s*t + y", {"s": (0.0, 2.0), "t": (0.0, 2.0), "y": (-5.0, 5.0)}),
    "gls-two-time": (
        "2*y/(1 + sqrt(1 + 4*sqrt(t)*y)) + sqrt(s)*4*y^2/(1 + sqrt(1 + 4*sqrt(t)*y))^2",
        {"t": (0.1, 2.0), "s": (0.1, 2.0), "y": (0.0, 3.0)},
    ),
    "wave-sin": ("sin(t + x)", {"t": (0.0, 1.0), "x": (0.0, 1.0)}),
    "log-blend": ("log(1 + exp(x)) + cos(2*x)", {"x": (-2.0, 2.0)}),
    "tanh-chain": ("tanh(a*x)", {"a": (0.5, 2.0), "x": (-3.0, 3.0)}),
}


# pinned tolerances of the checks that read no scenario key
K_RELATION_TOL = 1e-12  # H(t, y) = K(sqrt(t), y) is exact up to rounding
LIMIT_IC_TOL = 1e-5  # |H(eps, y) - y|/(1 + |y|) at the smallest eps
LIMIT_IC_EPS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
# not-c1 compares sqrt(eps)*|H(eps,1) - H(0,1)|/eps with y^2 = 1. Rounding the sum
# y + sqrt(eps)*y^2 errs by at most u*|H| (u = 2^-53) and the subtraction of y is
# exact, so the rate is off by u*|y|/sqrt(eps) plus a few u*y^2: a deviation of at
# most u/(2*sqrt(eps)) + 7u, 5.6e-12 at the smallest eps. The tolerance is twice that.
NOT_C1_TOL = 2.0**-53 / math.sqrt(LIMIT_IC_EPS[-1])
# Linear interpolation on knots h apart errs by at most h^2/8*max|U''|;
# for U = -x^2 on knots 0.01 apart that is 2.5e-5, and the measured
# midpoint error is that bound itself, so a relative 1e-6 absorbs rounding.
REGRAPH_TOL = 0.01**2 / 8.0 * 2.0 * (1.0 + 1e-6)


def _bool_report(
    suite: str,
    ok: bool,
    checked: int,
    detail: str,
    witnesses: list[Witness] | None = None,
    skipped: int = 0,
) -> VerificationReport:
    """A pass/fail verdict over `checked` sampled points (`skipped` more
    were outside a checked map's domain)."""
    return VerificationReport(
        suite=suite,
        max_deviation=0.0 if ok else 1.0,
        tolerance=0.5,
        notes=(detail,),
        witnesses=witnesses or [],
        checked=checked,
        skipped=skipped,
    )


def _dichotomy_report(
    name: str, action: TimeAction, times: Sequence[float], grid: SamplingGrid, tol: float,
    expected: str, note: str, composition_times: Sequence[tuple[float, float]] | None = None,
) -> VerificationReport:
    """`dichotomy_classify` as a verdict that passes if the classification is `expected`,
    noted as "classified <classification>" + `note`. It counts the points of the identity
    and composition checks and of one injectivity probe of the grid per time; each
    sample's first collision is a witness."""
    result = dichotomy_classify(action, times, grid, tol, composition_times)
    checked = result.identity_report.checked + result.composition_report.checked
    skipped = result.identity_report.skipped + result.composition_report.skipped
    for sample in result.samples:
        checked += grid.size - sample.evidence.skipped
        skipped += sample.evidence.skipped
    return _bool_report(
        name,
        result.classification == expected,
        checked,
        f"classified {result.classification}{note}",
        [w for sample in result.samples for w in sample.evidence.witnesses[:1]],
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# suites 1..13


def suite_gls_semigroup(config: SuiteConfig) -> list[VerificationReport]:
    tol = config.tol("law", 1e-9)
    times = [k / 4.0 for k in range(5)]
    grid = SamplingGrid((config.axis("t", Axis(0.0, 1.0, 5)), config.axis("y", Axis(-0.2, 4.0, 41))))
    pairs = [(s, r) for s in times for r in times]
    return [one_time_law_check(gls_one_time_op(), pairs, grid, tol)]


def suite_identity_axiom(config: SuiteConfig) -> list[VerificationReport]:
    tol = config.tol("identity", 1e-12)
    line = grid1d(-3.0, 3.0, 101)
    reports = [
        identity_check(sqrt_action(), line, tol),
        identity_check(milder_action(), line, tol),
        identity_check(cuberoot_group_action(), line, tol),
    ]
    for f in (square_map(), bump_map(), identity_map(("y",))):
        reports.append(identity_check(homotopy_action(f, sqrt_mediator()), line, tol))
    reports.append(
        identity_check(gls_one_time_op(), grid2d(0.0, 1.0, 5, -0.2, 4.0, 41), tol)
    )
    return reports


def suite_noninvertibility(config: SuiteConfig) -> list[VerificationReport]:
    tol = config.tol("collision", 1e-12)
    action = sqrt_action()
    gaps = []
    witnesses = []
    for t in (0.25, 1.0, 4.0):
        y1, y2 = noninvertibility_witness_sqrt(t)
        v1, v2 = action.call1(t, y1), action.call1(t, y2)
        gaps.append(abs(v1 - v2))
        witnesses.append(Witness((t, y1, y2), (v1, v2)))
    reports = [
        VerificationReport.from_deviations(
            "sqrt-witness-collision", len(gaps), nan_max(gaps), tol, "t in {0.25, 1, 4}", witnesses
        )
    ]
    reports.append(
        _dichotomy_report(
            "dichotomy[sqrt-gls-evolution]", gls_one_time_op(), [0.25, 1.0, 4.0],
            grid2d(0.0, 1.0, 3, -2.0, 2.0, 41), config.tol("dichotomy", 1e-9),
            "genuine_semigroup", " (expected genuine_semigroup)",
            composition_times=[(0.25, 0.25), (0.25, 0.5), (0.5, 0.5)],
        )
    )
    reports.append(
        _dichotomy_report(
            "dichotomy[cuberoot-action]", cuberoot_group_action(), [0.5, 1.0, 2.0],
            grid1d(-3.0, 3.0, 22), config.tol("dichotomy", 1e-9),
            "group_like", " (expected group_like)",
        )
    )
    # the singularity lives in the time variable: H(t, y) = K(sqrt(t), y), K smooth
    reports.append(k_action_relation_check(grid2d(0.0, 9.0, 19, -3.0, 3.0, 25), K_RELATION_TOL))
    return reports


def _fold_margin(tol: float) -> float:
    """u/tol, u = 2^-53: a branch residual measures rounding where |d|/S < 2*u/tol.

    The radicand 1 + 4*s*H of a branch ODE equals d^2, d = 1 + 2*s*y (s = sqrt(t)
    for the square-root action, s = t for the milder one). Near the fold d = 0 its
    terms are 1 and about -1, so its computed value is off by up to about 4u and
    its square root by about 2u/|d|. The rhs multiplies that by its sensitivity S
    to the root, so the residual is off by about 2u*S/|d|:
      - square root: rhs = (1 + 2*s*H ± root)/(4*t*s), so S = 1/(4*t*sqrt(t));
      - milder: rhs = (1 + 2*t*H + root)/(2*t^2) on the singular branch and
        2*H^2/(1 + 2*t*H + root) on the regular one; with 2*t*y = d - 1,
        H = y*(1 + d)/2 and root = |d|, both give S = 2*y^2/(1 + |d|)^2.
    A point with |d|/S < 2u/tol counts as a skip. A sweep of 2e5 points with
    1e-9 <= |d| <= 1e-2 measured residuals of at most 2.1u*S/|d|, and the default
    grids stay 39 (square root) and 720 (milder) times this margin from the fold.
    Far from the fold (|d| near 1) the square-root rhs still scales rounding by S,
    so at t below (u/(2*tol))^(2/3), 6.8e-5 at tol = 1e-10, every point is a skip.
    """
    return 2.0**-53 / tol


def _branch_legs(
    action: TimeAction, system: Callable[[str], OdeSystem], branches: tuple[str, str],
    d: Expr, off_fold: Callable[[Expr, float], Expr], tol: float,
) -> list[tuple[str, Callable]]:
    """The residual legs (`SmoothMap.on_region`) of a pair of branches, each noted
    with its branch's name.

    The first branch is the region d >= 0 of its residual map and the second
    -d > 0, d = 1 + 2*s*y the fold's expression; on each, the signed d_b (d, then
    -d) is |d|, and a leg keeps the points off the fold, where off_fold(d_b, band)
    >= 0, band = 2*`_fold_margin(tol)`. A NaN d is on neither region. The Expr
    operators do not fold, so each test computes the float operations its
    formula reads."""
    band = 2.0 * _fold_margin(tol)
    return [
        (b, ode_residual_map(action, system(b)).on_region(((d_b, rel), (off_fold(d_b, band), ">="))))
        for b, d_b, rel in ((branches[0], d, ">="), (branches[1], -d, ">"))
    ]


def _sqrt_branch_legs(action: TimeAction, tol: float) -> list[tuple[str, Callable]]:
    """ "minus" and "plus" of `sqrt_ode_system`; a point is on the fold where
    |d|*4*t*sqrt(t) < band."""
    t, y = Var("t"), Var("y")
    s = Unary("sqrt", t)
    return _branch_legs(
        action, sqrt_ode_system, ("minus", "plus"), 1 + 2 * s * y,
        lambda d_b, band: d_b * 4 * t * s - band, tol,
    )


def _milder_branch_legs(action: TimeAction, tol: float) -> list[tuple[str, Callable]]:
    """ "regular" and "singular" of `milder_ode_system`; a point is on the fold where
    |d|*(1 + |d|)^2 < 2*y^2*band."""
    t, y = Var("t"), Var("y")
    return _branch_legs(
        action, milder_ode_system, ("regular", "singular"), 1 + 2 * t * y,
        lambda d_b, band: d_b * (1 + d_b) ** 2 - 2 * y * y * band, tol,
    )


def _residual_report(
    name: str, grid: SamplingGrid, tol: float,
    legs: Sequence[tuple[str, Callable]],
) -> VerificationReport:
    """At each grid point, the max norm of the first leg that returns a value,
    witnessed with that leg's note; a point where every leg returns None is a skip."""
    tally = Tally(tol)
    for point in grid.points():
        for note, leg in legs:
            out = leg(*point)
            if out is not None:
                r = max_norm(out)
                if tally.add(r):
                    tally.witness(point, (r,), note)
                break
        else:
            tally.skip()
    return tally.report(name, grid.summary())


def suite_ode_residuals(config: SuiteConfig) -> list[VerificationReport]:
    """Four residual reports, each one loop over its legs (`_residual_report`); the
    branch residuals skip every point that `_fold_margin` puts on the fold."""
    tol_homotopy = config.tol("homotopy", 1e-9)
    # each branch residual is derived from the system the flows integrate
    sqrt_act = sqrt_action()
    grid = SamplingGrid((config.axis("t", Axis(1e-3, 10.0, 50)), config.axis("y", Axis(-5.0, 5.0, 50))))
    if grid.axes[0].lo < 0.0:
        raise ValueError("the square-root branch ODEs are posed on t > 0")
    tol_sqrt = config.tol("explicit", 1e-10)
    legs = _sqrt_branch_legs(sqrt_act, tol_sqrt)
    reports = [_residual_report("ode-residual[sqrt-branches]", grid, tol_sqrt, legs)]
    med = sqrt_mediator()
    hgrid = grid2d(1e-3, 10.0, 25, -5.0, 5.0, 21)
    targets = (square_map(), bump_map())
    for f in targets:
        legs = [("", homotopy_residual_map(f, med).on_region(((Var("t"), ">"),)))]
        reports.append(_residual_report(f"ode-residual[homotopy-{f.name}]", hgrid, tol_homotopy, legs))
    tol_milder = config.tol("milder", 1e-10)
    legs = _milder_branch_legs(milder_action(), tol_milder)
    milder_grid = grid2d(-2.0, 2.0, 41, -3.0, 3.0, 41)
    reports.append(_residual_report("ode-residual[milder-branches]", milder_grid, tol_milder, legs))
    # the singular ODEs admit only the limit-type initial condition H(0+, y) = y
    reports.append(limit_ic_check(sqrt_act, 1.0, LIMIT_IC_EPS, LIMIT_IC_TOL))
    # and H is not C^1 at t = 0: its one-sided quotient diverges like y^2/sqrt(eps)
    reports.append(not_c1_check(sqrt_act, 1.0, LIMIT_IC_EPS, NOT_C1_TOL))
    for f in targets:
        reports.append(limit_ic_check(homotopy_action(f, med), 2.0, LIMIT_IC_EPS, LIMIT_IC_TOL))
    return reports


def suite_flow_oracle(config: SuiteConfig) -> list[VerificationReport]:
    rep_sqrt = flow_vs_closed_form(
        sqrt_action(),
        sqrt_ode_system("minus"),
        1.0,
        1.0,
        eps_start=1e-8,
        tol=config.tol("sqrt_flow", 1e-5),
    )
    rep_cbrt = flow_vs_closed_form(
        cuberoot_group_action(),
        cuberoot_ode_system(),
        1.0,
        1.0,
        eps_start=0.0,
        tol=config.tol("cuberoot_flow", 1e-6),
    )
    return [rep_sqrt, rep_cbrt]


def _tally_recovery(tally: Tally, op: EvolutionOp, t: float, s: float, y: float) -> None:
    """E(t,s)(y) recovered from the operator's slice against its closed form;
    a slice equation with no root on the bounded branch is a failing point."""
    (want,) = op.closed_form(t, s, y)
    try:
        got = recover_evolution(op, t, s, y)
    except RootSearchError:
        if tally.add(math.inf):
            tally.witness((t, s, y), (want,), "no root on the bounded branch")
        return
    if tally.add(deviation((got,), (want,))):
        tally.witness((t, s, y), (got, want))


def suite_reduction_algebra(config: SuiteConfig) -> list[VerificationReport]:
    tol = config.tol("algebra", 1e-12)
    tol_rec = config.tol("recovery", 1e-9)
    fc_grid = SamplingGrid((Axis(0.0, 2.0, 5), Axis(0.0, 2.0, 5), Axis(-5.0, 5.0, 9)))
    reports = [
        first_component_check(quadratic_one_time_op(), fc_grid, tol),
        first_component_check(
            gls_one_time_op(), SamplingGrid((Axis(0.0, 1.0, 5), Axis(0.0, 1.0, 5), Axis(-0.2, 4.0, 9))), tol
        ),
    ]
    quadratic = quadratic_two_time_op()
    times = (0.0, 1.0, 2.0, 3.0)
    triples = [(t, s, r) for t in times for s in times for r in times]
    reports.append(two_time_law_check(quadratic, triples, grid1d(-5.0, 5.0, 21), tol))
    qp = [(s, r) for s in times for r in times]
    reports.append(
        one_time_law_check(quadratic_one_time_op(), qp, grid2d(0.0, 3.0, 4, -5.0, 5.0, 11), tol)
    )
    gls_times = (0.25, 1.0, 2.25)
    gls_triples = [(t, s, r) for t in gls_times for s in gls_times for r in gls_times]
    reports.append(
        two_time_law_check(
            gls_two_time_op(), gls_triples, grid1d(-0.1, 2.0, 22), config.tol("gls_law", 1e-9)
        )
    )
    tally = Tally(tol_rec)
    for t in (0.0, 0.5, 1.0, 2.0, 3.0):
        for s in (0.0, 0.5, 1.0, 2.0, 3.0):
            for y in (-5.0, -1.0, 0.0, 2.0, 5.0):
                _tally_recovery(tally, quadratic, t, s, y)
    reports.append(tally.report("recovery[quadratic]", "t,s in {0..3}, y in {-5..5}"))
    return reports


def suite_recovery_cross_check(config: SuiteConfig) -> list[VerificationReport]:
    tol = config.tol("recovery", 1e-9)
    rng = random.Random(config.seed)
    gls = gls_two_time_op()
    tally = Tally(tol)
    for _ in range(100):
        t = rng.uniform(0.05, 2.0)
        s = rng.uniform(0.0, 2.0)
        y_min = -0.9 / (4.0 * math.sqrt(t))
        y = rng.uniform(y_min, 4.0)
        _tally_recovery(tally, gls, t, s, y)
    return [
        tally.report(
            "recovery-vs-closed-form[sqrt-gls]", f"100 random valid (t,s,y), seed={config.seed}"
        )
    ]


def suite_semi_symmetry(config: SuiteConfig) -> list[VerificationReport]:
    """Vertical value maps against a solution corpus of U_t = U_x."""
    tol = config.tol("residual", 1e-12)
    family = [translation_wave(profile) for profile in WAVE_PROFILES.values()]
    grid = grid2d(0.0, 1.0, 21, 0.0, 1.0, 21)

    def transport(u: Expr) -> Expr:
        return diff(u, "t") - diff(u, "x")

    return [
        semi_symmetry_check(transport, vertical_map(g_text, ("t", "x")), family, grid, tol)
        for g_text in VALUE_MAPS.values()
    ]


def suite_parametric_graph(config: SuiteConfig) -> list[VerificationReport]:
    parabola = canonical_parametric(scalar_map(("x",), "x^2", name="parabola"))
    grid = grid1d(-2.0, 2.0, 401)
    tilted_ok, tilted_wit = is_graph(act(rotation_map(math.pi / 4.0), parabola), grid)
    half_turn = act(rotation_map(math.pi), parabola)
    half_turn_ok, _ = is_graph(half_turn, grid)
    base_ok, _ = is_graph(parabola, grid)
    reports = [
        _bool_report(
            "rotated-parabola[pi/4]",
            (not tilted_ok) and tilted_wit is not None,
            grid.size,
            "quarter-turn rotation must break the graph property and return a witness",
            [tilted_wit] if tilted_wit else [],
        ),
        _bool_report(
            "rotated-parabola[pi]",
            half_turn_ok and base_ok,
            2 * grid.size,
            "half-turn rotation keeps the graph property",
        ),
    ]
    # re-graphed, the half-turn chart is u = -x^2, checked midway between its knots
    U = regraph(half_turn, grid)
    midpoints = grid1d(-1.995, 1.995, 400)
    tally = Tally(REGRAPH_TOL)
    for (x,) in midpoints.points():
        u = U(x)
        if tally.add(abs(u + x * x)):
            tally.witness((x,), (u, -x * x))
    report = tally.report("regraph[half-turn-parabola]", midpoints.summary())
    notes = (
        f"knots {grid.summary()} 0.01 apart; linear interpolation errs by at most "
        "h^2/8*max|U''| = 2.5e-05 for U = -x^2, and the tolerance adds a relative "
        "1e-6 for rounding",
    )
    reports.append(replace(report, notes=notes))
    return reports


def suite_burgers(config: SuiteConfig) -> list[VerificationReport]:
    tol_res = config.tol("residual", 1e-8)
    tol_alg = config.tol("algebra", 1e-12)
    rng = random.Random(config.seed)
    # the residual and translation checks read one kink family: it compiles
    # once, and its residual is differentiated and compiled once
    family = soliton_family()
    residual = soliton_residual_max(family, grid2d(0.0, 1.0, 5, -5.0, 5.0, 11))
    tally = Tally(tol_res)
    for _ in range(20):
        c = rng.uniform(-2.0, 2.0)
        d = rng.uniform(max(-c * c + 0.1, -2.0), 2.0)
        mu = rng.uniform(0.1, 1.0)
        x0 = rng.uniform(-2.0, 2.0)
        r = residual(x0, c, d, mu)
        if tally.add(r):
            tally.witness((x0, c, d, mu), (r,))
    reports = [
        tally.report("burgers-soliton-residual", f"20 random parameter tuples, seed={config.seed}")
    ]
    flow = soliton_param_flow()
    reports.append(
        soliton_translation_check(
            flow,
            family,
            SamplingGrid(
                (
                    Axis(0.0, 2.0, 3),
                    Axis(-5.0, 5.0, 7),
                    Axis(-1.0, 1.0, 3),
                    Axis(-2.0, 2.0, 3),
                    Axis(-1.0, 2.0, 3),
                    Axis(0.25, 1.0, 2),
                )
            ),
            tol_alg,
        )
    )
    reports.append(
        param_flow_check(
            flow,
            SamplingGrid(
                (
                    Axis(0.0, 2.0, 4),
                    Axis(0.0, 2.0, 4),
                    Axis(-3.0, 3.0, 5),
                    Axis(-2.0, 2.0, 5),
                    Axis(0.5, 2.0, 3),
                )
            ),
            tol_alg,
        )
    )
    # for frozen (c,d) the position flow a -> a + c*t is itself a verified
    # one-parameter action; the dichotomy reports it invertible throughout
    c, d = 0.8, 0.5
    frozen = flow.map.freeze(c=c, d=d)
    position = TimeAction(
        "nonneg", SmoothMap(frozen.inputs, frozen.outputs[:1], "soliton-position-flow")
    )
    reports.append(
        _dichotomy_report(
            "dichotomy[soliton-position-flow]", position, [0.5, 1.0, 2.0],
            grid1d(-3.0, 3.0, 21), tol_alg, "group_like",
            ": every frozen-parameter advance is an invertible translation, so this "
            "induced flow is NOT a genuine semigroup",
        )
    )
    return reports


def suite_diffeo_thresholds(config: SuiteConfig) -> list[VerificationReport]:
    tol = config.tol("threshold", 1e-4)
    action = homotopy_action(bump_map(), sqrt_mediator())
    y_grid = grid1d(-3.0, 3.0, 121)
    report = diffeo_time_set(action, grid1d(0.05, 10.0, 41), y_grid)
    slope_peak = 3.0 * math.sqrt(3.0) / 8.0  # extremum of |d(1/(y^2+1))/dy| at y = 1/sqrt(3)
    want_lo = (1.0 / (1.0 + slope_peak)) ** 2
    want_hi = (1.0 / (1.0 - slope_peak)) ** 2
    got = sorted(report.thresholds)
    probe = diffeo_classifier(action, y_grid)
    spot_ok = probe.is_diffeo(0.1) and (not probe.is_diffeo(1.0)) and probe.is_diffeo(10.0)
    notes = (
        f"computed diffeomorphism time set: [0, {got[0]:.6f}) U ({got[-1]:.6f}, inf)"
        if len(got) == 2
        else f"computed thresholds: {got!r}",
        f"slope extremum 3*sqrt(3)/8 = {slope_peak:.6f} at y = 1/sqrt(3) gives "
        f"thresholds {want_lo:.6f} and {want_hi:.6f}",
        "commonly quoted interval [0, 4/9) U (4, inf) corresponds to bounding the "
        "slope by |f'(1)| = 1/2 instead of the true extremum; both shown, neither "
        "silently adopted",
        f"spot classification: diffeo at t=0.1 and t=10, not at t=1 -> {spot_ok}",
    )
    # a wrong threshold count or a wrong spot class is a full miss
    if len(got) == 2 and spot_ok:
        dev = nan_max((abs(got[0] - want_lo), abs(got[-1] - want_hi)))
    else:
        dev = 1.0
    return [
        VerificationReport.from_deviations(
            "diffeo-thresholds[bump-homotopy]",
            len(report.entries) + 3,  # the grid times and the spot times
            dev,
            tol,
            f"t {report.entries[0][0]:g}..{report.entries[-1][0]:g}, y {y_grid.summary()}",
            notes=notes,
        )
    ]


def suite_negative_control(config: SuiteConfig) -> list[VerificationReport]:
    comp = composition_check(sqrt_action(), [(1.0, 1.0)], grid1d(0.5, 1.5, 5), 1e-9)
    action = sqrt_action()
    lhs = action.call1(1.0, action.call1(1.0, 1.0))
    rhs = action.call1(2.0, 1.0)
    point_dev = deviation((lhs,), (rhs,))
    ok = (not comp.passed) and point_dev > 0.1
    reports = [
        _bool_report(
            "negative-control[raw-sqrt-action]",
            ok,
            comp.checked + 1,
            "the raw singular action must FAIL the composition law "
            f"(H(1,H(1,1))={lhs:.6f} vs H(2,1)={rhs:.6f}, normalized gap {point_dev:.3f} > 0.1); "
            "the semigroup only appears one dimension up",
            list(comp.witnesses[:2]),
        )
    ]
    homotopy = homotopy_action(square_map(), sqrt_mediator())
    comp_h = composition_check(homotopy, [(1.0, 1.0)], grid1d(1.5, 3.0, 7), 1e-9)
    reports.append(
        _bool_report(
            "negative-control[raw-homotopy-action]",
            not comp_h.passed,
            comp_h.checked,
            "the raw identity-to-f deformation must FAIL the composition law too "
            f"(max normalized gap {comp_h.max_deviation:.3f})",
        )
    )
    return reports


def suite_symbolic_engine(config: SuiteConfig) -> list[VerificationReport]:
    rng = random.Random(config.seed)
    rel_tol = config.tol("derivative", 1e-6)
    catalog = list(EXPRESSION_CATALOG.items())
    # one map and one partial per expression and variable, each compiled once
    maps = {name: SmoothMap(tuple(sorted(box)), (parse_expr(text),), name=name)
            for name, (text, box) in catalog}
    slopes = {(name, v): m.partial(v) for name, m in maps.items() for v in m.inputs}
    tally = Tally(rel_tol)
    cases = 0
    while cases < 100:
        name, (_, box) = catalog[cases % len(catalog)]
        variables = sorted(box)
        point = {v: rng.uniform(*box[v]) for v in variables}
        var = variables[cases % len(variables)]
        args = [point[v] for v in variables]
        exact = slopes[name, var](*args)[0]
        approx = finite_diff(maps[name], args, var, 1e-5)
        if tally.add(deviation((approx,), (exact,))):
            tally.witness(tuple(point.values()), (exact, approx), f"{name} d/d{var}")
        cases += 1
    reports = [
        tally.report(
            "derivative-vs-central-difference",
            f"100 randomized cases over {len(catalog)} registered expressions, seed={config.seed}",
        )
    ]
    bad = [
        name
        for name, (text, _) in EXPRESSION_CATALOG.items()
        if parse_expr(to_text(parse_expr(text))) != parse_expr(text)
    ]
    reports.append(
        _bool_report(
            "parser-round-trip",
            not bad,
            len(EXPRESSION_CATALOG),
            f"print-then-parse must reproduce every registered expression; failures: {bad!r}",
        )
    )
    return reports


def suite_heat_flow(config: SuiteConfig) -> list[VerificationReport]:
    return [heat_flow_demo(grid2d(0.5, 2.0, 16, -3.0, 3.0, 21), config.tol("residual", 1e-10))]


SUITES: dict[str, Callable[[SuiteConfig], list[VerificationReport]]] = {
    "gls-semigroup": suite_gls_semigroup,
    "identity-axiom": suite_identity_axiom,
    "noninvertibility": suite_noninvertibility,
    "ode-residuals": suite_ode_residuals,
    "flow-oracle": suite_flow_oracle,
    "reduction-algebra": suite_reduction_algebra,
    "recovery-cross-check": suite_recovery_cross_check,
    "semi-symmetry": suite_semi_symmetry,
    "parametric-graph": suite_parametric_graph,
    "burgers": suite_burgers,
    "diffeo-thresholds": suite_diffeo_thresholds,
    "negative-control": suite_negative_control,
    "symbolic-engine": suite_symbolic_engine,
    "heat-flow": suite_heat_flow,
}


def run_suites(names: Sequence[str], config: SuiteConfig) -> dict[str, list[VerificationReport]]:
    """Each named suite's reports. A suite that leaves its domain under
    scenario grid overrides it read raises ValueError naming it and those
    overrides; an error of a suite that read none passes through."""
    out: dict[str, list[VerificationReport]] = {}
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite '{name}'; known: {', '.join(sorted(SUITES))}")
        first_read = len(config._read)
        try:
            out[name] = SUITES[name](config)
        except (ArithmeticError, ValueError, EvalDomainError) as err:
            read = {k for kind, k in config._read[first_read:] if kind == "grids" and k in config.grids}
            if not read:
                raise
            given = ", ".join(f"grids.{k} = {config.grids[k]}" for k in sorted(read))
            raise ValueError(f"suite '{name}' cannot run on the scenario's {given}: {err}") from err
    return out
