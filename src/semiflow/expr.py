"""Symbolic expression trees over named real variables.

Nodes: real constants, variables, the unary operations
{neg, sqrt, cbrt, tanh, sin, cos, exp, log}, the binary operations
{add, sub, mul, div, pow} with pow restricted to constant rational
exponents, and derivative markers ``D(U, x[, x])`` used by PDE residual
templates (markers are inert until resolved against a concrete map).

Operations: a parser for the infix grammar below, a printer that
round-trips through the parser, exact symbolic differentiation,
capture-free substitution (the variable namespace is flat) and evaluation.

Nodes are frozen, slotted dataclasses. The parser splits the text into a
token list with one compiled regular expression, whose character classes
are those of `str.isspace`, `str.isdigit` and `str.isalpha`, and then runs
one recursive descent over that list; token offsets are recovered only for
a `ParseError`. Differentiation and the folding constructors return shared
leaves for the constants 0, 1 and 2 (`_ZERO`, `_ONE`, `_TWO`), which make
up most of the leaves a derivative creates before folding drops them.

Evaluation has one path: compiled code from one generator,
`_emit_system`, which computes shared subtrees once. Every
expression-backed `SmoothMap` compiles its outputs once into one
`compile_system` lambda; `compile_expr` is its one-output case. The tree
walk `evaluate` applies the same domain rules node by node; it is kept as
the reference the compiled code is tested against.

Grammar (whitespace-insensitive)::

    expr   := term   (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, which in
turn binds tighter than ``*``/``/``, so ``-x^2`` means ``-(x^2)`` and
``exp(-x^2/(4*t))`` parses the way the formula reads.
"""

from __future__ import annotations

import keyword
import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    """Syntax error with the character offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left a function's real domain (sqrt of a negative, ...)."""


class UnboundVariableError(ExprError):
    """A free variable had no binding at evaluation time."""


class UnresolvedMarkerError(ExprError):
    """A derivative marker D(...) reached evaluation or differentiation."""


@dataclass(frozen=True, slots=True)
class Expr:
    """Immutable expression node; subclasses carry the actual payload."""

    def __add__(self, other):
        return Binary("add", self, as_expr(other))

    def __radd__(self, other):
        return Binary("add", as_expr(other), self)

    def __sub__(self, other):
        return Binary("sub", self, as_expr(other))

    def __rsub__(self, other):
        return Binary("sub", as_expr(other), self)

    def __mul__(self, other):
        return Binary("mul", self, as_expr(other))

    def __rmul__(self, other):
        return Binary("mul", as_expr(other), self)

    def __truediv__(self, other):
        return Binary("div", self, as_expr(other))

    def __rtruediv__(self, other):
        return Binary("div", as_expr(other), self)

    def __pow__(self, other):
        return Binary("pow", self, as_expr(other))

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    """A real constant. Equality and hash tell 0.0 from -0.0 (x + 0.0 and
    x + -0.0 differ at x = -0.0), so equal trees always compute alike."""

    value: float

    def _key(self) -> tuple[float, float]:
        return self.value, math.copysign(1.0, self.value)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Const else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if not self.name:
            raise ExprError("variable name must be nonempty")


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str
    arg: Expr


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class Deriv(Expr):
    """Inert derivative marker: D(func, *wrt). Resolved by PDE templates."""

    func: str
    wrt: tuple[str, ...]


FUNCTION_NAMES = ("sqrt", "cbrt", "tanh", "sin", "cos", "exp", "log")


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise ExprError(f"cannot coerce {value!r} to an expression")


def neg(e: Expr) -> Expr:
    # fold -c so printed negative literals reparse to the same node
    e = as_expr(e)
    if isinstance(e, Const):
        return Const(-e.value)
    return Unary("neg", e)


def tanh(e) -> Expr:
    return Unary("tanh", as_expr(e))


# ---------------------------------------------------------------------------
# evaluation


def _cbrt(x: float) -> float:
    # odd extension, defined on all reals
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _safe_sqrt(x: float) -> float:
    if x < 0.0:
        raise EvalDomainError(f"sqrt of negative argument {x!r}")
    return math.sqrt(x)


def _safe_log(x: float) -> float:
    if x <= 0.0:
        raise EvalDomainError(f"log of non-positive argument {x!r}")
    return math.log(x)


def _safe_div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalDomainError("division by zero")
    return a / b


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError as err:
        raise EvalDomainError(f"exp overflow at argument {x!r}") from err


_UNARY_FN: dict[str, Callable[[float], float]] = {
    "neg": lambda x: -x,
    "sqrt": _safe_sqrt,
    "cbrt": _cbrt,
    "tanh": math.tanh,
    "sin": math.sin,
    "cos": math.cos,
    "exp": _safe_exp,
    "log": _safe_log,
}


def _safe_pow(base: float, expo: float) -> float:
    if base == 0.0 and expo < 0.0:
        raise EvalDomainError("zero raised to a negative power")
    if base < 0.0 and not float(expo).is_integer():  # an infinite or NaN exponent too
        raise EvalDomainError(
            f"negative base {base!r} with non-integer exponent {expo!r}"
        )
    try:
        return base ** expo
    except OverflowError as err:
        raise EvalDomainError("pow overflow") from err


_BINARY_FN: dict[str, Callable[[float, float], float]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _safe_div,
    "pow": _safe_pow,
}


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """IEEE double value of `e` with every free variable bound.

    The reference tree walk: the code `_emit_system` generates, which is
    what the package itself evaluates, gives the same values and raises
    the same first error.
    """
    kind = type(e)
    if kind is Const:
        return e.value
    if kind is Var:
        try:
            return float(bindings[e.name])
        except KeyError:
            raise UnboundVariableError(f"unbound variable '{e.name}'") from None
    if kind is Binary:
        return _BINARY_FN[e.op](evaluate(e.lhs, bindings), evaluate(e.rhs, bindings))
    if kind is Unary:
        return _UNARY_FN[e.op](evaluate(e.arg, bindings))
    if kind is Deriv:
        raise UnresolvedMarkerError(
            f"derivative marker D({e.func},{','.join(e.wrt)}) was not resolved"
        )
    raise ExprError(f"unknown node {e!r}")


def free_vars(*exprs: Expr) -> set[str]:
    """Names of the variables in `exprs`, and of the functions their markers name.

    One walk over all of them that enters each inner node object once, so
    subtrees shared within or across the expressions (a derivative shares
    many with its expression) cost one visit, not one per occurrence.
    """
    names: set[str] = set()
    seen: set[int] = set()
    stack = list(exprs)
    while stack:
        e = stack.pop()
        kind = type(e)
        if kind is Binary:
            if id(e) not in seen:
                seen.add(id(e))
                stack += (e.lhs, e.rhs)
        elif kind is Unary:
            if id(e) not in seen:
                seen.add(id(e))
                stack.append(e.arg)
        elif kind is Var:
            names.add(e.name)
        elif kind is Deriv:
            names.add(e.func)
        elif kind is not Const:
            raise ExprError(f"unknown node {e!r}")
    return names


# ---------------------------------------------------------------------------
# folding constructors (constant folding and 0/1 identities only)


# shared leaves: differentiation makes a 0 or a 1 for nearly every node
_ZERO = Const(0.0)
_ONE = Const(1.0)
_TWO = Const(2.0)


def fold_add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value == 0.0:
        return a
    return Binary("add", a, b)


def fold_sub(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if type(a) is Const:
            return Const(a.value - b.value)
        if b.value == 0.0:
            return a
    elif type(a) is Const and a.value == 0.0:
        return neg(b)
    return Binary("sub", a, b)


def fold_mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value * b.value)
        if a.value == 0.0:
            return _ZERO
        if a.value == 1.0:
            return b
    elif type(b) is Const:
        if b.value == 0.0:
            return _ZERO
        if b.value == 1.0:
            return a
    return Binary("mul", a, b)


def fold_div(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if type(a) is Const and b.value != 0.0:
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if type(a) is Const and a.value == 0.0:
        return _ZERO
    return Binary("div", a, b)


def fold_pow(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _ONE
        if type(a) is Const:
            try:
                return Const(_safe_pow(a.value, b.value))
            except EvalDomainError:
                pass
    return Binary("pow", a, b)


# ---------------------------------------------------------------------------
# differentiation


def _constant_exponent(e: Expr) -> float:
    try:
        return evaluate(e, {})
    except UnboundVariableError:
        raise ExprError(
            "pow exponent must be a rational constant; got "
            f"'{to_text(e)}' with free variables"
        ) from None


def diff(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative of `e` with respect to `var`."""
    kind = type(e)
    if kind is Const:
        return _ZERO
    if kind is Var:
        return _ONE if e.name == var else _ZERO
    if kind is Binary:
        op = e.op
        if op == "add":
            return fold_add(diff(e.lhs, var), diff(e.rhs, var))
        if op == "sub":
            return fold_sub(diff(e.lhs, var), diff(e.rhs, var))
        if op == "mul":
            return fold_add(
                fold_mul(diff(e.lhs, var), e.rhs),
                fold_mul(e.lhs, diff(e.rhs, var)),
            )
        if op == "div":
            return fold_div(
                fold_sub(
                    fold_mul(diff(e.lhs, var), e.rhs),
                    fold_mul(e.lhs, diff(e.rhs, var)),
                ),
                fold_pow(e.rhs, _TWO),
            )
        if op == "pow":
            c = _constant_exponent(e.rhs)
            if c == 0.0:
                return _ZERO
            du = diff(e.lhs, var)
            return fold_mul(
                fold_mul(Const(c), fold_pow(e.lhs, Const(c - 1.0))), du
            )
        raise ExprError(f"unknown binary op {op!r}")
    if kind is Unary:
        u, du = e.arg, diff(e.arg, var)
        op = e.op
        if op == "neg":
            return neg(du)
        if op == "sqrt":
            # singular where u = 0; surfaces as a domain error at eval time
            return fold_div(du, fold_mul(_TWO, Unary("sqrt", u)))
        if op == "cbrt":
            return fold_div(
                du, fold_mul(Const(3.0), fold_pow(Unary("cbrt", u), _TWO))
            )
        if op == "tanh":
            return fold_mul(
                fold_sub(_ONE, fold_pow(Unary("tanh", u), _TWO)), du
            )
        if op == "sin":
            return fold_mul(Unary("cos", u), du)
        if op == "cos":
            return neg(fold_mul(Unary("sin", u), du))
        if op == "exp":
            return fold_mul(Unary("exp", u), du)
        if op == "log":
            return fold_div(du, u)
        raise ExprError(f"unknown unary op {op!r}")
    if kind is Deriv:
        raise UnresolvedMarkerError(
            "cannot differentiate an unresolved derivative marker"
        )
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# substitution (flat namespace, no capture possible)


def substitute_many(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneously replace every occurrence of each mapped variable."""
    kind = type(e)
    if kind is Var:
        return mapping.get(e.name, e)
    if kind is Unary:
        return Unary(e.op, substitute_many(e.arg, mapping))
    if kind is Binary:
        return Binary(
            e.op, substitute_many(e.lhs, mapping), substitute_many(e.rhs, mapping)
        )
    return e


# ---------------------------------------------------------------------------
# printing

_PREC_ADD = 1.0
_PREC_MUL = 2.0
_PREC_NEG = 2.5
_PREC_POW = 3.0
_PREC_ATOM = 4.0


def format_number(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return f"{v:.0f}"  # the integer's digits, and "-0" for -0.0
    return repr(v)


def _node_prec(e: Expr) -> float:
    kind = type(e)
    if kind is Const:
        return _PREC_ATOM if math.copysign(1.0, e.value) > 0.0 else _PREC_NEG
    if kind is Var or kind is Deriv:
        return _PREC_ATOM
    if kind is Unary:
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if e.op == "pow":
        return _PREC_POW
    if e.op in ("mul", "div"):
        return _PREC_MUL
    return _PREC_ADD


def _fmt(e: Expr, ctx: float) -> str:
    text = _fmt_bare(e)
    if _node_prec(e) < ctx:
        return f"({text})"
    return text


def _fmt_bare(e: Expr) -> str:
    kind = type(e)
    if kind is Const:
        return format_number(e.value)
    if kind is Var:
        return e.name
    if kind is Deriv:
        return f"D({e.func},{','.join(e.wrt)})"
    if kind is Unary:
        if e.op == "neg":
            return "-" + _fmt(e.arg, _PREC_NEG)
        return f"{e.op}({_fmt(e.arg, 0.0)})"
    op = e.op
    if op == "pow":
        return f"{_fmt(e.lhs, _PREC_ATOM)}^{_fmt(e.rhs, _PREC_NEG)}"
    if op in ("mul", "div"):
        sym = "*" if op == "mul" else "/"
        return f"{_fmt(e.lhs, _PREC_MUL)}{sym}{_fmt(e.rhs, _PREC_MUL + 0.25)}"
    sym = " + " if op == "add" else " - "
    return f"{_fmt(e.lhs, _PREC_ADD)}{sym}{_fmt(e.rhs, _PREC_ADD + 0.25)}"


def to_text(e: Expr) -> str:
    """Infix form that `parse_expr` maps back to the same tree."""
    return _fmt(e, 0.0)


# ---------------------------------------------------------------------------
# parsing


def _token_pattern(digits: str = "", numerals: str = "") -> re.Pattern[str]:
    r"""One token per match, after optional white space: a number, a name or
    any other single character, in the groups (number, name, other).

    The classes are those of `str`: ``\s`` is `isspace`, ``\d`` is
    `isdecimal` and ``\w`` is `isalnum` or "_". A number is
    ``digits ['.' digits] [('e'|'E') ['+'|'-'] digits+]`` and starts with a
    digit or '.', where a digit is anything `isdigit` accepts: `digits` adds
    the ones that are not decimal (superscripts, circled digits), so that
    "1²" is one (bad) number literal. A name starts with a letter or "_"
    (``[^\W\d]``, less the `numerals` that `isalpha` rejects, such as
    roman numerals) and goes on with word characters. `re` caches the
    compiled pattern of each pair.
    """
    digit = rf"[\d{digits}]"
    name_start = rf"(?![{numerals}])[^\W\d]" if numerals else r"[^\W\d]"
    return re.compile(
        rf"\s*(?:((?=[\d{digits}.]){digit}*(?:\.{digit}*)?(?:[eE][+-]?{digit}+)?)"
        rf"|({name_start}\w*)|(\S))"
    )


_TOKENS = _token_pattern()


def _tokenizer(text: str) -> re.Pattern[str]:
    if text.isascii():
        return _TOKENS
    digits = {c for c in text if c.isdigit() and not c.isdecimal()}
    numerals = {c for c in text if c.isnumeric() and not c.isdigit() and not c.isalpha()}
    return _token_pattern(
        re.escape("".join(sorted(digits))), re.escape("".join(sorted(numerals)))
    )


_END = ("", "", "")  # the token after the last one


class _Parser:
    """Recursive descent over the token list of `text`.

    A token is a (number, name, other) triple with exactly one part
    nonempty. Offsets are recovered only when an error needs one.
    """

    def __init__(self, text: str):
        self.text = text
        self.pattern = _tokenizer(text)
        self.tokens = self.pattern.findall(text)
        self.tokens.append(_END)
        self.i = 0

    def offset(self, index: int) -> int:
        starts = [m.start(m.lastindex) for m in self.pattern.finditer(self.text)]
        return (*starts, len(self.text))[index]

    def error(self, message: str, index: int | None = None) -> ParseError:
        return ParseError(message, self.offset(self.i if index is None else index))

    def found(self) -> str:
        """The character where the current token starts; '' at the end."""
        offset = self.offset(self.i)
        return self.text[offset:offset + 1]

    def expect(self, ch: str):
        if self.tokens[self.i][2] != ch:
            raise self.error(f"expected '{ch}'")
        self.i += 1

    def parse(self) -> Expr:
        e = self.expr()
        if self.tokens[self.i] is not _END:
            raise self.error(f"unexpected trailing input {self.found()!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        tokens = self.tokens
        while True:
            op = tokens[self.i][2]
            if op == "+":
                self.i += 1
                e = Binary("add", e, self.term())
            elif op == "-":
                self.i += 1
                e = Binary("sub", e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        tokens = self.tokens
        while True:
            op = tokens[self.i][2]
            if op == "*":
                self.i += 1
                e = Binary("mul", e, self.factor())
            elif op == "/":
                self.i += 1
                e = Binary("div", e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        if self.tokens[self.i][2] == "-":
            self.i += 1
            return neg(self.factor())
        e = self.base()
        if self.tokens[self.i][2] == "^":
            self.i += 1
            expo = self.factor()  # right-associative
            if free_vars(expo):
                raise self.error("pow exponent must be a rational constant")
            return Binary("pow", e, expo)
        return e

    def base(self) -> Expr:
        number, name, other = self.tokens[self.i]
        if number:
            try:
                value = float(number)
            except ValueError:
                raise self.error(f"bad number literal {number!r}") from None
            self.i += 1
            return Const(value)
        if name:
            self.i += 1
            if self.tokens[self.i][2] != "(":
                return Var(name)
            if name == "D":
                return self.deriv_marker()
            if name not in FUNCTION_NAMES:
                raise self.error(f"unknown function name '{name}'", self.i - 1)
            self.i += 1
            arg = self.expr()
            if self.tokens[self.i][2] == ",":
                raise self.error(f"function '{name}' takes exactly one argument")
            self.expect(")")
            return Unary(name, arg)
        if other == "(":
            self.i += 1
            e = self.expr()
            self.expect(")")
            return e
        raise self.error(f"expected a number, name or '(' but found {self.found()!r}")

    def deriv_marker(self) -> Expr:
        start = self.i - 1  # the name "D"
        self.i += 1
        args = [self.expr()]
        while self.tokens[self.i][2] == ",":
            self.i += 1
            args.append(self.expr())
        self.expect(")")
        if len(args) < 2 or not all(type(a) is Var for a in args):
            raise self.error(
                "derivative marker must be D(name, var[, var...]) with plain names", start
            )
        return Deriv(args[0].name, tuple(a.name for a in args[1:]))


def parse_expr(text: str) -> Expr:
    """Parse infix `text` into the unique tree under the grammar above."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# compiled evaluation: the package's one evaluation path


def _emit(e: Expr, params: tuple[str, ...]) -> str:
    """Code of a leaf; `_emit_system` writes the code of inner nodes."""
    kind = type(e)
    if kind is Const:
        # inf and nan have no literal: rebuild them from their repr
        return repr(e.value) if math.isfinite(e.value) else f"_float('{e.value!r}')"
    if kind is Var:
        if e.name not in params:
            raise UnboundVariableError(
                f"variable '{e.name}' not among parameters {params!r}"
            )
        return e.name
    if kind is Deriv:
        raise UnresolvedMarkerError("cannot compile an unresolved derivative marker")
    raise ExprError(f"unknown node {e!r}")


_INFIX = {"add": "+", "sub": "-", "mul": "*"}


def _node_code(op: str, *args: str) -> str:
    """Code of one operation applied to the code of its operands."""
    if op in _INFIX:
        return f"({args[0]} {_INFIX[op]} {args[1]})"
    if op == "neg":
        return f"(-{args[0]})"
    return f"_{op}({', '.join(args)})"


# compiled code calls the helpers `evaluate` calls, under the op's name
_COMPILE_NS = {
    "__builtins__": {},
    **{f"_{op}": fn for op, fn in (*_UNARY_FN.items(), *_BINARY_FN.items())},
    "_float": float,
}


def _check_params(params: tuple[str, ...]) -> None:
    # compiled code owns every name that starts with "_": its helpers are
    # globals (_sqrt, _div, ...) and its shared subtrees locals (_c0, ...)
    for p in params:
        if not p.isidentifier() or keyword.iskeyword(p):
            raise ExprError(f"parameter name {p!r} is not an identifier")
        if p.startswith("_"):
            raise ExprError(
                f"parameter name {p!r} is reserved: names starting with '_' "
                "belong to compiled code"
            )


def _lambda(params: tuple[str, ...], body: str) -> Callable:
    return eval(f"lambda {', '.join(params)}: {body}", dict(_COMPILE_NS))  # noqa: S307 - closed namespace


# cached only because perfbench/child.py reads `compile_expr.cache_info()`
@lru_cache(maxsize=4096)
def compile_expr(e: Expr, params: tuple[str, ...]) -> Callable[..., float]:
    """Positional-argument evaluator for `e`: `compile_system` of one
    output, returning the value itself rather than a 1-tuple.

    The code calls the domain-checked helpers of `evaluate`, the reference
    tree walk, so both give the same values and raise the same
    EvalDomainError; a subtree that recurs in `e` is computed once.
    Parameter names must be identifiers that do not start with "_".
    """
    _check_params(params)
    (code,) = _emit_system((e,), params)
    return _lambda(params, code)


def _emit_system(outputs: tuple[Expr, ...], params: tuple[str, ...]) -> list[str]:
    """Code of each output, with every repeated subtree computed once.

    Subtrees are hash-consed (Filliatre & Conchon, "Type-safe modular
    hash-consing", 2006): a node's key is its operation and the numbers of
    its children, and a leaf's key is its own code, so equal subtrees get
    one number without rehashing whole trees. Each node's references are
    counted when the node is first numbered. A subtree referenced more
    than once is bound with an assignment expression where it first
    appears in the code, and read by name afterwards. Python evaluates the
    code left to right, so the first appearance is also the first
    evaluation: values, and the first error raised, are those of the
    outputs evaluated one after another.
    """
    numbers: dict[str | tuple, int] = {}
    keys: list[str | tuple] = []  # a leaf's code, or (op, *child numbers)
    refs: list[int] = []  # references from numbered nodes and from the outputs
    by_object: dict[int, int] = {}  # id() of a node object already numbered
    seen = by_object.get

    def intern(e: Expr) -> int:
        n = seen(id(e))
        if n is not None:
            return n
        kind = type(e)
        if kind is Binary:
            a, b = intern(e.lhs), intern(e.rhs)
            key = (e.op, a, b)
        elif kind is Unary:
            a = intern(e.arg)
            key = (e.op, a)
        else:
            key = _emit(e, params)
        n = numbers.setdefault(key, len(keys))
        if n == len(keys):  # a new node: count its references to its children
            keys.append(key)
            refs.append(0)
            if kind is Binary:
                refs[a] += 1
                refs[b] += 1
            elif kind is Unary:
                refs[a] += 1
        by_object[id(e)] = n
        return n

    roots = [intern(e) for e in outputs]
    for r in roots:
        refs[r] += 1
    names: dict[int, str] = {}

    def code_of(n: int) -> str:
        name = names.get(n)
        if name is not None:
            return name
        key = keys[n]
        if type(key) is str:
            return key
        code = _node_code(key[0], *map(code_of, key[1:]))
        if refs[n] == 1:
            return code
        names[n] = name = f"_c{len(names)}"
        return f"({name} := {code})"

    return [code_of(r) for r in roots]


def compile_system(
    outputs: tuple[Expr, ...], params: tuple[str, ...]
) -> Callable[..., tuple[float, ...]]:
    """One lambda returning the tuple of every output's value.

    Values, and the first EvalDomainError, are those of `evaluate` applied
    to each output in turn. Repeated subtrees, within an output or across
    outputs, are computed once (see `_emit_system`). Uncached: a
    `SmoothMap` keeps the lambda of its outputs, which the flow integrator
    calls once per RK4 stage.
    """
    _check_params(params)
    return _lambda(params, f"({', '.join(_emit_system(outputs, params))},)")
