"""Verification reports shared by every property suite."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


def nan_max(values: Iterable[float]) -> float:
    """The largest value, or NaN if any value is NaN.

    The builtin max keeps or drops a NaN depending on where it stands, so a
    check aggregated with it could pass on a value it never measured.
    Raises ValueError on an empty input, like max.
    """
    it = iter(values)
    try:
        worst = next(it)
    except StopIteration:
        raise ValueError("nan_max() arg is an empty sequence") from None
    if worst != worst:
        return math.nan
    for x in it:
        if x > worst:
            worst = x
        elif x != x:
            return math.nan
    return worst


def max_norm(v: Sequence[float]) -> float:
    return nan_max(map(abs, v))


def deviation(lhs: Sequence[float], rhs: Sequence[float]) -> float:
    """Relative-absolute gap max|l-r|/(1+max|r|); states grow quadratically
    in the worked examples, so a plain absolute gap would over-weight them.
    A NaN in either vector makes the deviation NaN, so it fails every
    `<= tol` test, as IEEE arithmetic does on its own for 1-vectors. The
    vectors must have one length >= 1; ValueError otherwise."""
    n = len(lhs)
    if n == 1 == len(rhs):
        return abs(lhs[0] - rhs[0]) / (1.0 + abs(rhs[0]))
    if n == 2 == len(rhs):
        # the loop below, unrolled: a NaN gap, which a NaN r makes, is NaN
        d0 = abs(lhs[0] - rhs[0])
        d1 = abs(lhs[1] - rhs[1])
        if d0 != d0 or d1 != d1:
            return math.nan
        r0 = abs(rhs[0])
        r1 = abs(rhs[1])
        return (d1 if d1 > d0 else d0) / (1.0 + (r1 if r1 > r0 else r0))
    if n != len(rhs) or not n:
        raise ValueError(f"deviation() needs two vectors of one length >= 1, got {n} and {len(rhs)}")
    # one pass; every gap and |r| is >= 0.0 or NaN, so 0.0 starts both
    # maxima, and a NaN r makes its gap NaN first
    gap = norm = 0.0
    for left, right in zip(lhs, rhs):
        d = abs(left - right)
        if not d <= gap:
            if d != d:
                return math.nan
            gap = d
        size = abs(right)
        if size > norm:
            norm = size
    return gap / (1.0 + norm)


def _json_float(x: float) -> float | str:
    """x itself, or the repr of a non-finite x ("nan", "inf", "-inf"):
    strict JSON has no literal for those, and the standard parsers of
    other languages reject the NaN and Infinity that `json` writes."""
    return x if math.isfinite(x) else repr(x)


@dataclass
class Witness:
    point: tuple[float, ...]
    values: tuple[float, ...] = ()
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "point": [_json_float(x) for x in self.point],
            "values": [_json_float(x) for x in self.values],
            "note": self.note,
        }


@dataclass
class VerificationReport:
    """Outcome of one property suite over a sampling grid.

    max_deviation is already normalized (see `deviation`), so the invariant
    passed == (max_deviation <= tolerance and not inconclusive) holds
    literally; `inconclusive` flags runs that could not establish their
    result: too many grid points skipped (see `Tally`), or a flow whose
    error estimate missed its target (see `reduction.flow_vs_closed_form`).
    A NaN or +inf deviation, wherever it stood among the checked points,
    becomes max_deviation and fails the report.
    """

    suite: str
    passed: bool
    max_deviation: float
    tolerance: float
    grid: str = ""
    witnesses: list[Witness] = field(default_factory=list)
    checked: int = 0
    skipped: int = 0
    inconclusive: bool = False
    notes: tuple[str, ...] = ()

    @classmethod
    def from_deviations(
        cls,
        suite: str,
        checked: int,
        max_deviation: float,
        tolerance: float,
        grid: str = "",
        witnesses: list[Witness] | None = None,
        skipped: int = 0,
        inconclusive: bool = False,
        notes: tuple[str, ...] = (),
    ) -> "VerificationReport":
        """The report of `checked` points whose `nan_max` deviation is
        `max_deviation`; `passed` follows the rule above."""
        return cls(
            suite=suite,
            passed=max_deviation <= tolerance and not inconclusive,
            max_deviation=max_deviation,
            tolerance=tolerance,
            grid=grid,
            witnesses=witnesses or [],
            checked=checked,
            skipped=skipped,
            inconclusive=inconclusive,
            notes=notes,
        )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "max_deviation": _json_float(self.max_deviation),
            "tolerance": _json_float(self.tolerance),
            "grid": self.grid,
            "checked": self.checked,
            "skipped": self.skipped,
            "inconclusive": self.inconclusive,
            "notes": list(self.notes),
            "witnesses": [w.to_dict() for w in self.witnesses],
        }

    def one_line(self) -> str:
        status = "PASS" if self.passed else ("INCONCLUSIVE" if self.inconclusive else "FAIL")
        return (
            f"{status:12s} {self.suite}: max dev {self.max_deviation:.3e} "
            f"(tol {self.tolerance:.1e}, {self.checked} checked, {self.skipped} skipped)"
        )


WITNESS_CAP = 8  # failing points kept as witnesses, in sampling order
SKIP_SHARE = 0.5  # a run that skips more than this share of its points is inconclusive


class Tally:
    """The bookkeeping of one sampled check, and its one rule.

    `add` counts a point and folds its deviation into a running maximum,
    the `nan_max` of every deviation so far (0.0 before the first). It
    returns True for the first WITNESS_CAP points whose deviation is not
    <= tol (a NaN too), and the caller hands each of those to `witness`,
    so a passing point builds no witness. `skip` counts a point outside
    the checked map's domain. The report is inconclusive when at least one
    point was sampled and more than SKIP_SHARE of them were skipped.
    Nothing is kept per point, so a tally's size does not grow with its
    grid.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.checked = 0
        self.worst = -math.inf  # below every float: the first deviation replaces it, as in nan_max
        self.witnesses: list[Witness] = []
        self.skipped = 0

    def add(self, d: float) -> bool:
        """Count a point of deviation d; True when it must become a witness."""
        self.checked += 1
        if d > self.worst:
            self.worst = d
        elif d != d:
            self.worst = math.nan
        return not d <= self.tol and len(self.witnesses) < WITNESS_CAP

    def witness(self, point: tuple[float, ...], values: tuple[float, ...], note: str = "") -> None:
        """Keep the point `add` just asked for, in sampling order."""
        self.witnesses.append(Witness(point, values, note))

    def skip(self) -> None:
        self.skipped += 1

    def report(self, suite: str, grid: str = "") -> VerificationReport:
        sampled = self.checked + self.skipped
        return VerificationReport.from_deviations(
            suite,
            self.checked,
            self.worst if self.checked else 0.0,
            self.tol,
            grid,
            self.witnesses,
            self.skipped,
            inconclusive=self.skipped > SKIP_SHARE * sampled,
        )
