"""Candidate one-parameter actions and the semigroup axiom checks.

A TimeAction is a family H(t, .) of self-maps of an open state domain,
with t in [0, inf) or all of R. The checks here sample the defining
axioms (identity at t=0, the composition law, and (non-)invertibility
of the frozen maps) and aggregate them into the invertibility
dichotomy: a verified one-parameter semigroup with identity either
consists of invertible maps for every sampled t (group-like) or of
non-invertible ones for every sampled t > 0 (genuine semigroup); a
mixed outcome flags a modeling error rather than a mathematical
possibility.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, Sequence

from .expr import EvalDomainError, Expr, ExprError
from .grids import SamplingGrid, _near_pairs
from .maps import SmoothMap, check_region, region_test
from .report import Tally, VerificationReport, Witness, deviation, max_norm, nan_max
from .rootfind import RootSearchError, bisect, scan_brackets


class PreconditionError(ValueError):
    """A check was invoked on input that fails its stated preconditions:
    bad input, which the command line turns into exit code 2."""


@dataclass(frozen=True)
class TimeAction:
    """A parametrized family (t, y) -> H(t, y) acting on an l-dimensional state.

    The family is its map, a SmoothMap R^(l+1) -> R^l: the map's name is
    the action's, its first input is the time variable, the others are the
    state variables, and its outputs give the dimension l. `region`
    restricts the usable part of (t, y) when the law holds on less than the
    formula's domain (e.g. one root branch of a radicand): tests
    (expression, relation) over the map's inputs, each against 0
    (`maps.check_region`). The checks read it through the map's leg
    `map.on_region(region)`, whose code tests the region in front of the
    outputs; a call of the action ignores it.
    """

    time_domain: str  # "nonneg" | "full"
    map: SmoothMap
    region: tuple[tuple[Expr, str], ...] = ()

    def __post_init__(self):
        if self.time_domain not in ("nonneg", "full"):
            raise ValueError("time_domain must be 'nonneg' or 'full'")
        if self.map.in_dim != self.map.out_dim + 1:
            raise ExprError(
                f"action map must be R^(l+1) -> R^l; got {self.map.in_dim} -> {self.map.out_dim}"
            )
        check_region(self.region, self.map.inputs)

    @property
    def name(self) -> str:
        return self.map.name

    @property
    def dim(self) -> int:
        return self.map.out_dim

    @property
    def time_var(self) -> str:
        return self.map.inputs[0]

    @property
    def state_vars(self) -> tuple[str, ...]:
        return self.map.inputs[1:]

    def time_ok(self, t: float) -> bool:
        return self.time_domain == "full" or t >= 0.0

    @cached_property
    def _region_test(self) -> Callable[..., tuple[float] | None]:
        return region_test(self.map.inputs, self.region)

    def valid_at(self, t: float, y: Sequence[float]) -> bool:
        return self.time_ok(t) and (not self.region or self._region_test(t, *y) is not None)

    def __call__(self, t: float, y: Sequence[float]) -> tuple[float, ...]:
        if self.time_domain != "full" and not t >= 0.0:  # time_ok, inlined: a per-point call
            raise EvalDomainError(f"time {t!r} outside the action's domain")
        return self.map(t, *y)

    def call1(self, t: float, y: float) -> float:
        if len(self.map.outputs) != 1:  # self.dim, inlined: a per-point call
            raise ExprError("call1 requires a 1-dimensional state")
        return self(t, (y,))[0]

    def frozen_map(self, t: float) -> SmoothMap:
        """The self-map H(t, .) with the time parameter fixed."""
        return replace(self.map.freeze(**{self.time_var: t}), name=f"{self.name}@t={t:g}")


def identity_check(action: TimeAction, grid: SamplingGrid, tol: float) -> VerificationReport:
    """Max gap between H(0, y) and y over the grid.

    Grid points outside the action's region are skipped (the state domain
    need not be a box); evaluation failures inside it propagate.
    Witnesses and the inconclusive verdict follow `report.Tally`.
    """
    tally = Tally(tol)
    for y in grid.points():
        if not action.valid_at(0.0, y):
            tally.skip()
            continue
        out = action(0.0, y)
        if tally.add(deviation(out, y)):
            tally.witness(y, out, "H(0,y) != y")
    return tally.report(f"identity[{action.name}]", grid.summary())


_UNSEEN = object()  # a memo entry not computed yet


def leg_columns(
    passes: Sequence[Sequence[tuple[float, ...]]], size: int
) -> Iterator[tuple[list, ...]]:
    """Yield, for each pass of a check over a grid of `size` points, one
    memo column of `size` entries for each key the pass reads, in the
    order given. A reader takes `v = column[i]` and computes and stores
    v only where it is `_UNSEEN`.

    A key is a tuple of times, told apart as `Const` tells values apart:
    0.0 is not -0.0, since H(-0.0, y) may differ from H(0.0, y) in the sign
    of a zero (a NaN time equals only itself and may miss the memo). A key
    read more than once gets one column, shared from its first reader to
    its last and dropped after the last; a key read once gets a column of
    its own, dropped with its pass. So the memo holds one column per key
    still to be read, and at most distinct keys x `size` entries.
    """
    keyed = [
        [tuple(chain.from_iterable((t, math.copysign(1.0, t)) for t in key)) for key in keys]
        for keys in passes
    ]
    reads: Counter = Counter()
    last = {}
    for p, keys in enumerate(keyed):
        reads.update(keys)
        last.update(dict.fromkeys(keys, p))
    live: dict[tuple, list] = {}
    for p, keys in enumerate(keyed):
        yield tuple(
            live.setdefault(k, [_UNSEEN] * size) if reads[k] > 1 else [_UNSEEN] * size
            for k in keys
        )
        for k in keys:
            if last[k] == p:
                live.pop(k, None)


def tally_law(
    tally: Tally,
    leg: Callable[..., tuple[float, ...] | None],
    laws: Sequence[tuple[tuple[float, ...], ...]],
    grid: SamplingGrid,
    note: str = "",
) -> None:
    """Fold a semigroup law into `tally`: for each law (label, a, b, c) of
    parameter tuples and each grid point y, H(b, H(a, y)) against H(c, y),
    where H(p, y) is `leg(*p, *y)`, None off the leg's region or domain.
    A None leg is a skip, and H(c, y) is evaluated only where H(b, H(a, y))
    is defined. A failing point's witness is (*label, *y), with the values
    of both sides and the note `note`.

    Each leg that starts on the grid, H(a, y) or H(c, y), is evaluated once
    per distinct tuple and grid point, where the first law needs it, and
    read back by later laws (`leg_columns`); only H(b, H(a, y)) is evaluated
    per law. The memo holds at most distinct tuples x grid points entries;
    `Tally` keeps nothing per checked point.
    """
    columns = leg_columns([(a, c) for _, a, _, c in laws], grid.size)
    for (label, a, b, c), (inner, whole) in zip(laws, columns):
        for i, y in enumerate(grid.points()):
            mid = inner[i]
            if mid is _UNSEEN:
                mid = inner[i] = leg(*a, *y)
            lhs = None if mid is None else leg(*b, *mid)
            if lhs is None:
                tally.skip()
                continue
            rhs = whole[i]
            if rhs is _UNSEEN:
                rhs = whole[i] = leg(*c, *y)
            if rhs is None:
                tally.skip()
            elif tally.add(deviation(lhs, rhs)):
                tally.witness((*label, *y), (*lhs, *rhs), note)


def composition_check(
    action: TimeAction,
    times: Sequence[tuple[float, float]],
    grid: SamplingGrid,
    tol: float,
) -> VerificationReport:
    """Max gap between H(t, H(s, y)) and H(t+s, y): `tally_law` on the
    map's leg on the action's region (`SmoothMap.on_region`), so points
    where a leg leaves the region or domain are skipped; witnesses and the
    inconclusive verdict follow `report.Tally`.
    """
    for t, s in times:
        for v in (t, s, t + s):
            if not action.time_ok(v):
                raise PreconditionError(f"time {v!r} outside the action's domain")
    tally = Tally(tol)
    laws = [((t, s), (s,), (t,), (t + s,)) for t, s in times]
    tally_law(tally, action.map.on_region(action.region), laws, grid, "H(t,H(s,y)) != H(t+s,y)")
    return tally.report(f"composition[{action.name}]", grid.summary())


# ---------------------------------------------------------------------------
# injectivity probing


@dataclass
class ProbeEvidence:
    """Internal, richer record behind injectivity_probe's report."""

    witnesses: list[Witness]
    sign_constant: bool | None = None  # 1-D only: derivative never changes sign
    unbounded: bool | None = None      # 1-D only: |m| grows at both grid ends
    skipped: int = 0

    @property
    def invertible_evidence(self) -> bool:
        return (
            not self.witnesses
            and self.sign_constant is True
            and self.unbounded is True
        )


def _derivative_fn(m: SmoothMap) -> Callable[[float], float]:
    d = m.partial(m.inputs[0])
    return lambda y: d(y)[0]


def _collision_pair(
    m: SmoothMap, y_crit: float, lo: float, hi: float, tol: float
) -> Witness | None:
    """Exact-collision pair around a derivative zero of a scalar map."""
    span = hi - lo
    for frac in (0.02, 0.1, 0.25):
        h = frac * span
        y1 = max(lo, y_crit - h)
        if y1 >= y_crit:
            continue
        try:
            target = m(y1)[0]
            g = lambda z: m(z)[0] - target  # noqa: E731
            brackets = scan_brackets(g, y_crit, min(hi, y_crit + span), 64)
        except EvalDomainError:
            continue
        for a, b in brackets:
            try:
                y2 = bisect(g, a, b, tol=1e-14)
                v2 = m(y2)[0]
            except (EvalDomainError, RootSearchError):
                continue
            if abs(y2 - y1) > 1e-9 and abs(v2 - target) <= tol * (1.0 + abs(target)):
                return Witness((y1, y2), (target, v2), "distinct points, equal image")
    return None


def _grows_at_ends(f: Callable[[float], float], lo: float, hi: float) -> bool:
    """Sampling proxy for the surjectivity of a scalar map on [lo, hi]: f
    has opposite signs at the ends and |f(y)| >= 0.05*max(1, |y|) at both."""
    f_lo, f_hi = f(lo), f(hi)
    return (
        f_lo * f_hi < 0.0
        and abs(f_lo) >= 0.05 * max(1.0, abs(lo))
        and abs(f_hi) >= 0.05 * max(1.0, abs(hi))
    )


def _probe_1d(m: SmoothMap, grid: SamplingGrid, tol: float) -> ProbeEvidence:
    axis = grid.axes[0]
    pts = grid.axis_values()[0]
    dfn = _derivative_fn(m)
    skipped = 0
    last_x = None
    last_sign = 0
    seen_pos = seen_neg = False
    witnesses: list[Witness] = []
    for y in pts:
        try:
            d = dfn(y)
        except EvalDomainError:
            skipped += 1
            last_x, last_sign = None, 0
            continue
        sign = 0 if d == 0.0 else (1 if d > 0.0 else -1)
        seen_pos |= sign > 0
        seen_neg |= sign < 0
        if sign != 0:
            if last_sign != 0 and sign != last_sign:
                # derivative crosses zero: bracket the critical point, then
                # produce an explicit two-points-one-image witness
                try:
                    y_crit = bisect(dfn, last_x, y, tol=1e-12)
                except (EvalDomainError, RootSearchError):
                    y_crit = 0.5 * (last_x + y)
                w = _collision_pair(m, y_crit, axis.lo, axis.hi, tol)
                witnesses.append(
                    w
                    if w is not None
                    else Witness((y_crit,), (), "derivative sign change (no pair located)")
                )
            last_x, last_sign = y, sign
    sign_constant = not (seen_pos and seen_neg)
    try:
        unbounded = _grows_at_ends(lambda y: m(y)[0], axis.lo, axis.hi)
    except EvalDomainError:
        unbounded = None
    return ProbeEvidence(witnesses, sign_constant, unbounded, skipped)


def _probe_pairwise(m: SmoothMap, grid: SamplingGrid, tol: float) -> ProbeEvidence:
    """Up to 8 pairs of grid points whose images agree to deviation <= tol;
    pairs closer than 1e-6 of the widest axis span count as one point.

    deviation(v1, v2) <= tol bounds every component gap by tol*(1 + M), M
    the largest finite image max-norm, so the images go through a
    neighbour-cell index of twice that side (`grids._near_pairs`): O(n)
    for spread-out images plus one comparison per close pair. Pairs (i, j),
    i < j, are tried in grid order, so the witnesses are the first 8 an
    all-pairs scan would find.
    """
    sep = 1e-6 * max(ax.hi - ax.lo for ax in grid.axes)
    images = []
    skipped = 0
    for p in grid.points():
        try:
            images.append((p, m.at(p)))
        except EvalDomainError:
            skipped += 1
    norms = [max_norm(v) for _, v in images]
    bound = max((x for x in norms if math.isfinite(x)), default=0.0)
    witnesses = []
    for i, j in _near_pairs([v for _, v in images], 2.0 * tol * (1.0 + bound)):
        p1, v1 = images[i]
        p2, v2 = images[j]
        if max(abs(a - b) for a, b in zip(p1, p2)) < sep:
            continue
        if deviation(v1, v2) <= tol:
            witnesses.append(Witness((*p1, *p2), (*v1, *v2), "image collision"))
            if len(witnesses) >= 8:
                break
    return ProbeEvidence(witnesses, skipped=skipped)


def probe_evidence(m: SmoothMap, grid: SamplingGrid, tol: float) -> ProbeEvidence:
    if m.in_dim != m.out_dim:
        raise ExprError("injectivity probe needs equal input/output arity")
    if m.in_dim == 1:
        return _probe_1d(m, grid, tol)
    return _probe_pairwise(m, grid, tol)


def injectivity_probe(m: SmoothMap, grid: SamplingGrid, tol: float) -> VerificationReport:
    """Search the grid for two distinct points with the same image.

    A pass means no collision was found on this grid (never a global
    certificate). A located collision has deviation +inf, and a derivative
    sign change whose colliding pair was not located has deviation NaN, so
    either fails every tolerance; a pair's separation shows in its witness.

    A 1-D map is probed through the sign changes of its derivative. A map
    of two or more variables is probed pairwise through a neighbour-cell
    index of its images, at a cost of O(n) for spread-out images plus one
    comparison per close pair, on grids of any size; the witnesses are the
    first 8 colliding pairs (i, j), i < j, in grid order.
    """
    ev = probe_evidence(m, grid, tol)
    notes = []
    if ev.sign_constant is not None:
        notes.append(f"derivative-sign-constant={ev.sign_constant}")
    if ev.unbounded is not None:
        notes.append(f"endpoint-growth={ev.unbounded}")
    devs = [math.inf if len(w.point) == 2 * m.in_dim else math.nan for w in ev.witnesses]
    return VerificationReport(
        suite=f"injectivity[{m.name or 'map'}]",
        max_deviation=nan_max([0.0, *devs]),
        tolerance=tol,
        grid=grid.summary(),
        witnesses=ev.witnesses,
        checked=grid.size - ev.skipped,
        skipped=ev.skipped,
        notes=tuple(notes),
    )


def noninvertibility_witness_sqrt(t: float) -> tuple[float, float]:
    """The pair (0, -1/sqrt(t)): both map to 0 under y + sqrt(t)*y^2."""
    if t <= 0.0:
        raise ValueError("witness pair needs t > 0")
    return (0.0, -1.0 / math.sqrt(t))


# ---------------------------------------------------------------------------
# dichotomy


@dataclass
class InvertibilitySample:
    t: float
    evidence: ProbeEvidence

    @property
    def status(self) -> str:
        """"noninvertible" with a witness, "invertible" with invertible
        evidence, "unknown" otherwise."""
        if self.evidence.witnesses:
            return "noninvertible"
        return "invertible" if self.evidence.invertible_evidence else "unknown"


@dataclass
class DichotomyResult:
    samples: list[InvertibilitySample]
    identity_report: VerificationReport
    composition_report: VerificationReport

    @property
    def classification(self) -> str:
        """group_like | genuine_semigroup | inconsistent | inconclusive:
        `classify_samples` of the samples' statuses."""
        return classify_samples([s.status for s in self.samples])


def classify_samples(statuses: Sequence[str]) -> str:
    """Aggregate per-t invertibility outcomes under the dichotomy.

    Mixed invertible/non-invertible samples contradict the extension lemma
    for one-parameter semigroups with identity, so they are reported as
    `inconsistent` (a modeling error) rather than averaged away.
    """
    has_inv = "invertible" in statuses
    has_non = "noninvertible" in statuses
    if has_inv and has_non:
        return "inconsistent"
    if not statuses or "unknown" in statuses:
        return "inconclusive"
    return "group_like" if has_inv else "genuine_semigroup"


def dichotomy_classify(
    action: TimeAction,
    t_samples: Sequence[float],
    grid: SamplingGrid,
    tol: float,
    composition_times: Sequence[tuple[float, float]] | None = None,
) -> DichotomyResult:
    """Classify a verified one-parameter semigroup as group-like or genuine.

    Preconditions (identity at 0 and the composition law on the grid) are
    re-checked and a PreconditionError raised on failure, so raw
    non-semigroup families cannot be classified by mistake.
    """
    if any(t <= 0.0 for t in t_samples):
        raise ValueError("t_samples must be strictly positive")
    ident = identity_check(action, grid, tol)
    if composition_times is None:
        base = list(t_samples[:3])
        composition_times = [(a, b) for a in base for b in base]
    comp = composition_check(action, composition_times, grid, tol)
    if not ident.passed:
        raise PreconditionError(f"identity axiom fails: {ident.one_line()}")
    if not comp.passed:
        raise PreconditionError(f"composition law fails: {comp.one_line()}")
    samples = [InvertibilitySample(t, probe_evidence(action.frozen_map(t), grid, tol))
               for t in t_samples]
    return DichotomyResult(samples, ident, comp)
