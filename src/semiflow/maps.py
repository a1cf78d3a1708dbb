"""Smooth maps R^m -> R^n given per coordinate by expression trees.

Differentiation, freezing and composition are symbolic: they take and
return maps. Every map evaluates through the compiled code of its
outputs; a call off the outputs' domain raises the error the tree walk
`evaluate` raises there. `SmoothMap.__call__` and `SmoothMap.on_region`
are the boundary that turns the compiled lambda's error into that one,
and the only readers of the lambda (`compiled`): a check calls the map
itself, or its leg form `on_region`, which returns None off a region of
the map's inputs and where the call raises EvalDomainError.

A region is a tuple of tests, each a pair (expression, relation) over the
map's inputs with the relation one of ">", ">=" and "!=" against 0
(`expr.RELATIONS`): the part of a family's domain where its law holds,
such as the bounded root branch of the square-root action. Its tests
compile into the leg's own code, in front of the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .expr import (
    Const,
    EvalDomainError,
    Expr,
    ExprError,
    Var,
    as_expr,
    check_relations,
    compile_system,
    diff,
    free_vars,
    parse_expr,
    raise_from_tree_walk,
    substitute_many,
    to_text,
)


def _check_arity(inputs: tuple[str, ...], args: tuple) -> None:
    # the lambda checks the arity itself; name the map's inputs only then
    if len(args) != len(inputs):
        raise ExprError(
            f"expected {len(inputs)} arguments ({inputs}), got {len(args)}"
        ) from None


@dataclass(frozen=True)
class SmoothMap:
    """A map given per coordinate by expressions in its named inputs.

    Supports exact differentiation and symbolic composition; the outputs
    compile into one lambda on first call (`compiled`).
    """

    inputs: tuple[str, ...]
    outputs: tuple[Expr, ...] = ()
    name: str = ""

    def __post_init__(self):
        if not self.outputs:
            raise ExprError("a SmoothMap needs at least one output expression")
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

    @property
    def in_dim(self) -> int:
        return len(self.inputs)

    @property
    def out_dim(self) -> int:
        return len(self.outputs)

    def __call__(self, *args: float) -> tuple[float, ...]:
        try:
            return self.compiled(*args)
        except (ArithmeticError, ValueError):
            raise_from_tree_walk(self.outputs, self.inputs, args)
        except TypeError:
            _check_arity(self.inputs, args)
            raise

    @cached_property
    def on_domain(self) -> Callable[..., tuple[float, ...] | None]:
        """The map as one function that returns None off its domain: its
        leg on no region (`on_region`), built once."""
        return self.on_region()

    def on_region(
        self, region: tuple[tuple[Expr, str], ...] = ()
    ) -> Callable[..., tuple[float, ...] | None]:
        """The map as one function that returns None off `region` and off
        its domain: the form of a leg that a check evaluates once per grid
        point.

        Its code is the map's lambda with the region's tests in front
        (`expr.compile_system`), so the map is evaluated only on the region
        and a subtree the tests share with the outputs is computed once; on
        no region it is the map's own lambda. It returns None where a test
        fails or where the tests or the outputs raise EvalDomainError; every
        other error (the ValueError of sin or cos at infinity, the ExprError
        of a wrong arity) passes through. It calls the lambda itself, in one
        frame, and runs the tree walk only when the lambda raises."""
        inputs = self.inputs
        compiled = compile_system(self.outputs, inputs, region) if region else self.compiled
        walked = (*(e for e, _ in region), *self.outputs)

        def on_region(*args: float) -> tuple[float, ...] | None:
            try:
                return compiled(*args)
            except (ArithmeticError, ValueError):
                try:
                    raise_from_tree_walk(walked, inputs, args)
                except EvalDomainError:
                    return None
            except TypeError:
                _check_arity(inputs, args)
                raise

        # the leg holds the inputs, not the map: a map that keeps its leg
        # (`on_domain`) is in no reference cycle
        return on_region

    @cached_property
    def compiled(self) -> Callable[..., tuple[float, ...]]:
        """All outputs as one lambda of the inputs, compiled on first use.

        Off the outputs' domain it raises the error of the C function or
        operator that failed; a call of the map raises the tree walk's."""
        return compile_system(self.outputs, self.inputs)

    def at(self, point: Sequence[float]) -> tuple[float, ...]:
        return self(*point)

    def partial(self, var: str) -> "SmoothMap":
        """Coordinate-wise exact partial derivative."""
        return SmoothMap(
            self.inputs,
            tuple(diff(c, var) for c in self.outputs),
            name=f"d({self.name or 'map'})/d{var}",
        )

    def freeze(self, **values: float) -> "SmoothMap":
        """Substitute constants for some inputs, dropping them from the signature."""
        mapping = {k: as_expr(float(v)) for k, v in values.items()}
        remaining = tuple(v for v in self.inputs if v not in values)
        return SmoothMap(
            remaining,
            tuple(substitute_many(c, mapping) for c in self.outputs),
            name=self.name,
        )


def check_region(region: tuple[tuple[Expr, str], ...], inputs: tuple[str, ...]) -> None:
    """Reject a region with an unknown relation or a variable not among `inputs`."""
    check_relations([rel for _, rel in region])
    for expr, rel in region:
        stray = free_vars(expr) - set(inputs)
        if stray:
            raise ExprError(
                f"region test '{to_text(expr)} {rel} 0' uses undeclared variables {sorted(stray)}"
            )


def region_test(
    inputs: tuple[str, ...], region: tuple[tuple[Expr, str], ...]
) -> Callable[..., tuple[float] | None]:
    """The region's tests alone, as the leg of the constant map 0 of
    `inputs` on `region`: a function of the inputs that returns None
    exactly off the region, a test that raises EvalDomainError included."""
    return SmoothMap(inputs, (Const(0.0),)).on_region(region)


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
