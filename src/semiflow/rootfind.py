"""Scalar root finding: bracket scans, bisection, Newton polish."""

from __future__ import annotations

from typing import Callable, Sequence

from .expr import EvalDomainError


class RootSearchError(Exception):
    pass


def sign_brackets(f: Callable[[float], float], xs: Sequence[float]) -> list[tuple[float, float]]:
    """Sign-change intervals of f between neighbouring points of `xs`, and
    (x, x) at each exact zero. A point where f raises a domain error is a
    gap in the scan, and so is an exact zero for the sign test of the point
    after it: the zero is its own bracket."""
    brackets = []
    prev_x = prev_y = None
    for x in xs:
        try:
            y = f(x)
        except EvalDomainError:
            prev_x = prev_y = None
            continue
        if y == 0.0:
            brackets.append((x, x))
            y = None  # no sign for the next point's test
        elif prev_y is not None and (prev_y < 0.0) != (y < 0.0):
            brackets.append((prev_x, x))
        prev_x, prev_y = x, y
    return brackets


def scan_brackets(
    f: Callable[[float], float], lo: float, hi: float, n: int
) -> list[tuple[float, float]]:
    """`sign_brackets` of f on an n-point uniform scan of [lo, hi]."""
    if n < 2:
        raise ValueError("need at least 2 scan points")
    step = (hi - lo) / (n - 1)
    return sign_brackets(f, [lo + k * step for k in range(n)])


def bisect(f: Callable[[float], float], a: float, b: float, tol: float = 1e-12) -> float:
    """A root of f in the sign-change interval [a, b], to width `tol`
    (at most 200 halvings)."""
    if a == b:
        return a
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise RootSearchError(f"no sign change on [{a!r}, {b!r}]")
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a <= tol:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def newton(
    f: Callable[[float], float], df: Callable[[float], float], x0: float
) -> float | None:
    """Newton iteration to a relative step of 1e-14; returns None instead
    of diverging or looping past 60 steps."""
    x = x0
    for _ in range(60):
        try:
            y = f(x)
            d = df(x)
        except EvalDomainError:
            return None
        if d == 0.0:
            return None
        step = y / d
        x_new = x - step
        if abs(step) <= 1e-14 * (1.0 + abs(x)):
            return x_new
        x = x_new
    return None


def hybrid_root(
    f: Callable[[float], float],
    df: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
) -> float:
    """Bisection to `tol`, then a Newton polish on the slope df, kept when
    it stays in [a, b] and does not raise |f|."""
    x = bisect(f, a, b, tol=tol)
    polished = newton(f, df, x)
    if polished is not None and min(a, b) - tol <= polished <= max(a, b) + tol:
        try:
            if abs(f(polished)) <= abs(f(x)):
                return polished
        except EvalDomainError:
            pass
    return x
