"""Smooth maps R^m -> R^n backed by expression trees or plain callables.

Differentiation, freezing and composition are symbolic: they take and
return expression-backed maps. A callable-backed map can only be called.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .expr import (
    Const,
    EvalDomainError,  # noqa: F401 - what a call raises off its domain; kept importable here
    Expr,
    ExprError,
    Var,
    compile_system,
    diff,
    free_vars,
    parse_expr,
    substitute_many,
    to_text,
)


@dataclass(frozen=True)
class SmoothMap:
    """A map given per-coordinate by expressions, or by a named builtin callable.

    Expression-backed maps support exact differentiation and symbolic
    composition; callable-backed ones only evaluation. Expression-backed
    maps compile their outputs into one lambda on first call (`compiled`).
    """

    inputs: tuple[str, ...]
    outputs: tuple[Expr, ...] = ()
    func: Callable[..., tuple[float, ...]] | None = None
    out_dim: int = 0
    name: str = ""

    def __post_init__(self):
        if bool(self.outputs) == (self.func is not None):
            raise ExprError("SmoothMap needs exactly one backing: outputs or func")
        if self.outputs:
            object.__setattr__(self, "out_dim", len(self.outputs))
            declared = set(self.inputs)
            if not free_vars(*self.outputs) <= declared:
                # cold path: name the first output that strays
                for coord in self.outputs:
                    stray = free_vars(coord) - declared
                    if stray:
                        raise ExprError(
                            f"output '{to_text(coord)}' uses undeclared "
                            f"variables {sorted(stray)}"
                        )
        if self.out_dim < 1:
            raise ExprError("output arity must be >= 1")

    @property
    def in_dim(self) -> int:
        return len(self.inputs)

    @property
    def is_symbolic(self) -> bool:
        return bool(self.outputs)

    def __call__(self, *args: float) -> tuple[float, ...]:
        if len(args) != self.in_dim:
            raise ExprError(
                f"expected {self.in_dim} arguments ({self.inputs}), got {len(args)}"
            )
        if self.func is not None:
            return tuple(map(float, self.func(*args)))
        return self.compiled(*args)

    @cached_property
    def compiled(self) -> Callable[..., tuple[float, ...]]:
        """All outputs as one lambda of the inputs, compiled on first use."""
        if not self.is_symbolic:
            raise ExprError("callable-backed map has no compiled outputs")
        return compile_system(self.outputs, self.inputs)

    def at(self, point: Sequence[float]) -> tuple[float, ...]:
        return self(*point)

    def partial(self, var: str) -> "SmoothMap":
        """Coordinate-wise exact partial derivative (symbolic backing only)."""
        if not self.is_symbolic:
            raise ExprError("cannot differentiate a callable-backed map exactly")
        return SmoothMap(
            self.inputs,
            tuple(diff(c, var) for c in self.outputs),
            name=f"d({self.name or 'map'})/d{var}",
        )

    def freeze(self, **values: float) -> "SmoothMap":
        """Substitute constants for some inputs, dropping them from the signature."""
        if not self.is_symbolic:
            raise ExprError("cannot freeze inputs of a callable-backed map")
        mapping = {k: Const(float(v)) for k, v in values.items()}
        remaining = tuple(v for v in self.inputs if v not in values)
        return SmoothMap(
            remaining,
            tuple(substitute_many(c, mapping) for c in self.outputs),
            name=self.name,
        )


def map_from_exprs(inputs: Sequence[str], texts: Sequence[str], name: str = "") -> SmoothMap:
    return SmoothMap(tuple(inputs), tuple(parse_expr(t) for t in texts), name=name)


def scalar_map(inputs: Sequence[str], text: str, name: str = "") -> SmoothMap:
    return map_from_exprs(inputs, [text], name=name)


def identity_map(inputs: Sequence[str]) -> SmoothMap:
    return SmoothMap(tuple(inputs), tuple(Var(v) for v in inputs), name="identity")


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """outer after inner, by substituting inner's outputs into outer's."""
    if outer.in_dim != inner.out_dim:
        raise ExprError(
            f"arity mismatch: outer expects {outer.in_dim}, inner yields {inner.out_dim}"
        )
    if not (outer.is_symbolic and inner.is_symbolic):
        raise ExprError("cannot compose a callable-backed map symbolically")
    mapping = dict(zip(outer.inputs, inner.outputs))
    return SmoothMap(
        inner.inputs,
        tuple(substitute_many(c, mapping) for c in outer.outputs),
        name=f"{outer.name or 'outer'}∘{inner.name or 'inner'}",
    )


def finite_diff(m: SmoothMap, point: Sequence[float], var: str, h: float):
    """Central difference (m(point+h·e_var) - m(point-h·e_var)) / (2h).

    Returns a float for single-output maps, else a tuple per coordinate.
    Domain errors from evaluation propagate.
    """
    if h <= 0.0:
        raise ValueError("finite difference step must be positive")
    try:
        i = m.inputs.index(var)
    except ValueError:
        raise ExprError(f"'{var}' is not an input of the map {m.inputs!r}") from None
    hi = list(point)
    lo = list(point)
    hi[i] += h
    lo[i] -= h
    up = m.at(hi)
    dn = m.at(lo)
    out = tuple((u - d) / (2.0 * h) for u, d in zip(up, dn))
    return out[0] if m.out_dim == 1 else out
