"""Symbolic expression trees over named real variables.

Nodes: real constants, variables, the unary operations
{neg, sqrt, cbrt, tanh, sin, cos, exp, log} and the binary operations
{add, sub, mul, div, pow} with pow restricted to constant rational
exponents.

Operations: a parser for the infix grammar below, a printer that
round-trips through the parser, exact symbolic differentiation,
capture-free substitution (the variable namespace is flat) and evaluation.

Nodes are frozen, slotted dataclasses whose `__init__` is written by hand:
it stores each field through its slot's descriptor, at about half the cost
of the generated frozen `__init__`. The parser splits the text into a list
of token strings with one compiled regular expression, whose character
classes are those of `str.isspace`, `str.isdigit` and `str.isalpha`, and
then runs one recursive descent over that list, telling a number from a
name or another character by a token's first character; token offsets are
recovered only for a `ParseError`. Differentiation builds no factor that
a zero derivative of an argument, base or numerator would fold away.

A tree holds each piece it shares once. Every `Unary` the parser builds
holds the canonical string of `FUNCTION_NAMES`, not the token cut from the
text, and the parser returns one `Var` per variable name from a table that
lives as long as the process, as CPython interns identifiers. Every
`Const` the engine builds (a parsed literal, `as_expr`, `neg`, a fold's
constant result, a derivative rule's constant, `SmoothMap.freeze`) comes
from one table of leaves keyed by value and sign, an `lru_cache` of fixed
size, so it holds the constants used last however many numbers are
parsed; differentiation and the folding constructors keep their 0, 1, 2
and 3 (`_ZERO`, `_ONE`, `_TWO`, `_THREE`) from it. Where a derivative rule
needs the node it differentiates (sqrt, cbrt, tanh, exp) or the exponent
of a power, it holds that node itself. A node built by its class
(`Const(2.0)`, `Var("x")`) is a node of its own. Only object identity
differs from fresh nodes: trees, texts, code and values are the same.

Evaluation has one path: compiled code from one generator,
`_emit_system`, which computes shared subtrees once, brackets an operand
only where Python's precedence needs it (the code parses to the same AST as
fully bracketed code) and leaves no reference cycle. Its code feeds three
consumers. Every `SmoothMap` compiles its outputs once into one
`compile_system` lambda, and a leg on a region into one more, with the
region's tests in front. `compile_expr` wraps the code of one output in a
function of its own, for the scalar functions the checks evaluate. The RK4
kernel of `semiflow.reduction` writes the code of a right-hand side's
state-free part (its subtrees that read no state variable) where the time
changes, the code of the rest, which reads those values by name, into each
of its stage lines, and a system's region into its step's end.

The tree walk `evaluate` applies the domain rules node by node through
guards that raise `EvalDomainError`; it is kept as the reference the
compiled code is tested against. The compiled code calls no guard:
`math.sqrt`, `math.log`, `math.exp`, the operator ``/`` and ``**`` of an
integer-valued constant raise by themselves (ValueError, ZeroDivisionError,
OverflowError) exactly where the guards raise. One boundary,
`raise_from_tree_walk`, turns such an error into the tree walk's own,
message and all, at the four places compiled code is called: in the
`except` clause of every function `compile_expr` returns, in
`SmoothMap.__call__`, in `SmoothMap.on_region` (which turns the tree
walk's EvalDomainError into None) and in the RK4 kernel's failed stage.
It runs only on the error path, so a call that raises nothing pays
nothing for it, and the caller of a map or of a `compile_expr` function
sees only the tree walk's errors.

Grammar (whitespace-insensitive)::

    expr   := term   (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'sqrt' | 'cbrt' | 'tanh' | 'sin' | 'cos' | 'exp' | 'log'

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
from typing import Callable, Mapping, NoReturn, Sequence


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


# Each node class below builds its instances with a hand-written __init__
# that stores every field through the slot's member descriptor, bound once
# after the class: the generated __init__ of a frozen dataclass calls
# object.__setattr__ per field, which costs about twice as much. Only
# __init__ is replaced; eq, hash, repr, pickle, copy, dataclasses.replace
# and FrozenInstanceError stay the dataclass's.


@dataclass(frozen=True, slots=True, init=False)
class Const(Expr):
    """A real constant. Equality and hash tell 0.0 from -0.0 (x + 0.0 and
    x + -0.0 differ at x = -0.0), so equal trees always compute alike."""

    value: float

    def __init__(self, value: float):
        _set_const_value(self, value)

    def _key(self) -> tuple[float, float]:
        return self.value, math.copysign(1.0, self.value)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Const else NotImplemented

    def __hash__(self):
        return hash(self._key())


_set_const_value = Const.value.__set__


# the table every Const the engine builds comes from: keyed by the value
# and its sign, so 0.0 and -0.0 stay two leaves and a NaN, which hashes by
# identity, never shares one; typed, so a caller's int constant never
# stands in for a float. Bounded: it keeps the constants used last.
@lru_cache(maxsize=256, typed=True)
def _const_leaf(value: float, sign: float) -> Const:
    return Const(value)


def _const(value: float) -> Const:
    """The shared leaf of `value`."""
    return _const_leaf(value, math.copysign(1.0, value))


@dataclass(frozen=True, slots=True, init=False)
class Var(Expr):
    name: str

    def __init__(self, name: str):
        if not name:
            raise ExprError("variable name must be nonempty")
        _set_var_name(self, name)


_set_var_name = Var.name.__set__


@dataclass(frozen=True, slots=True, init=False)
class Unary(Expr):
    op: str
    arg: Expr

    def __init__(self, op: str, arg: Expr):
        _set_unary_op(self, op)
        _set_unary_arg(self, arg)


_set_unary_op = Unary.op.__set__
_set_unary_arg = Unary.arg.__set__


@dataclass(frozen=True, slots=True, init=False)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        _set_binary_op(self, op)
        _set_binary_lhs(self, lhs)
        _set_binary_rhs(self, rhs)


_set_binary_op = Binary.op.__set__
_set_binary_lhs = Binary.lhs.__set__
_set_binary_rhs = Binary.rhs.__set__


FUNCTION_NAMES = ("sqrt", "cbrt", "tanh", "sin", "cos", "exp", "log")


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return _const(float(value))
    raise ExprError(f"cannot coerce {value!r} to an expression")


def neg(e: Expr) -> Expr:
    # fold -c so printed negative literals reparse to the same node
    e = as_expr(e)
    if isinstance(e, Const):
        return _const(-e.value)
    return Unary("neg", e)


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
    what the package itself evaluates, gives the same values and raises at
    the same first point, where `raise_from_tree_walk` turns its error
    into this walk's.
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
    raise ExprError(f"unknown node {e!r}")


def free_vars(*exprs: Expr) -> set[str]:
    """Names of the variables in `exprs`.

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
        elif kind is not Const:
            raise ExprError(f"unknown node {e!r}")
    return names


# ---------------------------------------------------------------------------
# folding constructors (constant folding and 0/1 identities only)


# differentiation makes a 0 or a 1 for nearly every node
_ZERO = _const(0.0)
_ONE = _const(1.0)
_TWO = _const(2.0)
_THREE = _const(3.0)


def fold_add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return _const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value == 0.0:
        return a
    return Binary("add", a, b)


def fold_sub(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if type(a) is Const:
            return _const(a.value - b.value)
        if b.value == 0.0:
            return a
    elif type(a) is Const and a.value == 0.0:
        return neg(b)
    return Binary("sub", a, b)


def fold_mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            return _const(a.value * b.value)
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
            return _const(a.value / b.value)
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
                return _const(_safe_pow(a.value, b.value))
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


# the unary ops whose derivative folds to _ZERO wherever the argument's is a
# zero constant of either sign; cos gives Const(-0.0) there, and log's
# quotient folds by whether its argument is a constant
_CHAIN_TIMES_ZERO = frozenset(("sqrt", "cbrt", "tanh", "sin", "exp"))


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
            num = fold_sub(
                fold_mul(diff(e.lhs, var), e.rhs),
                fold_mul(e.lhs, diff(e.rhs, var)),
            )
            if type(num) is Const and num.value == 0.0 and type(e.rhs) is not Const:
                return _ZERO  # what fold_div gives over rhs^2, which is not built
            return fold_div(num, fold_pow(e.rhs, _TWO))
        if op == "pow":
            expo = e.rhs
            if type(expo) is Const:
                c = expo.value
            else:
                c = _constant_exponent(expo)
                expo = _const(c)
            if c == 0.0:
                return _ZERO
            du = diff(e.lhs, var)
            if type(du) is Const and du.value == 0.0 and type(e.lhs) is not Const and c != 1.0:
                # what the rule folds to, its factor not built: the factor is
                # no constant, so times a zero it folds to _ZERO; with a constant
                # base or c = 1 it is one, and the product can be -0.0 or NaN
                return _ZERO
            return fold_mul(
                fold_mul(expo, fold_pow(e.lhs, _const(c - 1.0))), du
            )
        raise ExprError(f"unknown binary op {op!r}")
    if kind is Unary:
        u, du = e.arg, diff(e.arg, var)
        op = e.op
        if op == "neg":
            return neg(du)
        if op in _CHAIN_TIMES_ZERO and type(du) is Const and du.value == 0.0:
            return _ZERO  # what each rule folds to there, its factor not built
        if op == "sqrt":
            # singular where u = 0; surfaces as a domain error at eval time
            return fold_div(du, fold_mul(_TWO, e))
        if op == "cbrt":
            return fold_div(du, fold_mul(_THREE, fold_pow(e, _TWO)))
        if op == "tanh":
            return fold_mul(fold_sub(_ONE, fold_pow(e, _TWO)), du)
        if op == "sin":
            return fold_mul(Unary("cos", u), du)
        if op == "cos":
            return neg(fold_mul(Unary("sin", u), du))
        if op == "exp":
            return fold_mul(e, du)
        if op == "log":
            return fold_div(du, u)
        raise ExprError(f"unknown unary op {op!r}")
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
    if math.isinf(v):
        # a literal that overflows back to v; "inf" would parse as a variable
        return "1e999" if v > 0.0 else "-1e999"
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return f"{v:.0f}"  # the integer's digits, and "-0" for -0.0
    return repr(v)  # "nan" too: the grammar has no NaN literal


def _node_prec(e: Expr) -> float:
    kind = type(e)
    if kind is Const:
        return _PREC_ATOM if math.copysign(1.0, e.value) > 0.0 else _PREC_NEG
    if kind is Var:
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
    """Infix form that `parse_expr` maps back to the same tree.

    Infinite constants print as ``1e999`` and ``-1e999``, which parse back
    to them. A NaN constant is the one node that does not round-trip: it
    prints as ``nan``, which parses as a variable.
    """
    return _fmt(e, 0.0)


# ---------------------------------------------------------------------------
# parsing


def _token_pattern(digits: str = "", numerals: str = "") -> re.Pattern[str]:
    r"""One token per match, after optional white space, in the one group: a
    number, a name or any other single character.

    The classes are those of `str`: ``\s`` is `isspace`, ``\d`` is
    `isdecimal` and ``\w`` is `isalnum` or "_". A number is
    ``digits ['.' digits] [('e'|'E') ['+'|'-'] digits+]`` and starts with a
    digit or '.', where a digit is anything `isdigit` accepts: `digits` adds
    the ones that are not decimal (superscripts, circled digits), so that
    "1²" is one (bad) number literal. A name starts with a letter or "_"
    (``[^\W\d]``, less the `numerals` that `isalpha` rejects, such as
    roman numerals) and goes on with word characters. So a token is a
    number exactly when its first character is '.' or `isdigit`, a name
    exactly when it is not and its first character is `isalpha` or "_", and
    otherwise one other character; the parser tells them apart that way.
    `re` caches the compiled pattern of each pair.
    """
    digit = rf"[\d{digits}]"
    name_start = rf"(?![{numerals}])[^\W\d]" if numerals else r"[^\W\d]"
    return re.compile(
        rf"\s*((?=[\d{digits}.]){digit}*(?:\.{digit}*)?(?:[eE][+-]?{digit}+)?"
        rf"|{name_start}\w*|\S)"
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


_END = ""  # the token after the last one; every token is nonempty

# each function name's canonical string, which every parsed Unary holds in
# place of the token cut from the text; a name not in it is unknown
_FUNCTIONS = {name: name for name in FUNCTION_NAMES}

# the one Var of each variable name parsed so far, shared by every parsed tree
_VARS: dict[str, Var] = {}


class _Parser:
    """Recursive descent over the token list of `text`.

    A token is the text of one match of the tokenizer, compared directly
    (``tok == "+"``) and classified by its first character. Offsets are
    recovered only when an error needs one.
    """

    def __init__(self, text: str):
        self.text = text
        self.pattern = _tokenizer(text)
        self.tokens = self.pattern.findall(text)
        self.tokens.append(_END)
        self.i = 0

    def offset(self, index: int) -> int:
        starts = [m.start(1) for m in self.pattern.finditer(self.text)]
        return (*starts, len(self.text))[index]

    def error(self, message: str, index: int | None = None) -> ParseError:
        return ParseError(message, self.offset(self.i if index is None else index))

    def found(self) -> str:
        """The character where the current token starts; '' at the end."""
        offset = self.offset(self.i)
        return self.text[offset:offset + 1]

    def expect(self, ch: str):
        if self.tokens[self.i] != ch:
            raise self.error(f"expected '{ch}'")
        self.i += 1

    def parse(self) -> Expr:
        e = self.expr()
        if self.tokens[self.i] != _END:
            raise self.error(f"unexpected trailing input {self.found()!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        tokens = self.tokens
        while True:
            op = tokens[self.i]
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
            op = tokens[self.i]
            if op == "*":
                self.i += 1
                e = Binary("mul", e, self.factor())
            elif op == "/":
                self.i += 1
                e = Binary("div", e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        if self.tokens[self.i] == "-":
            self.i += 1
            return neg(self.factor())
        e = self.base()
        if self.tokens[self.i] == "^":
            self.i += 1
            expo = self.factor()  # right-associative
            if free_vars(expo):
                raise self.error("pow exponent must be a rational constant")
            return Binary("pow", e, expo)
        return e

    def base(self) -> Expr:
        tok = self.tokens[self.i]
        first = tok[:1]
        if first == "." or first.isdigit():
            try:
                value = float(tok)
            except ValueError:
                raise self.error(f"bad number literal {tok!r}") from None
            self.i += 1
            return _const(value)
        if first.isalpha() or first == "_":
            self.i += 1
            if self.tokens[self.i] != "(":
                var = _VARS.get(tok)
                if var is None:  # setdefault: threads that race store one Var
                    var = _VARS.setdefault(tok, Var(tok))
                return var
            op = _FUNCTIONS.get(tok)
            if op is None:
                raise self.error(f"unknown function name '{tok}'", self.i - 1)
            self.i += 1
            arg = self.expr()
            if self.tokens[self.i] == ",":
                raise self.error(f"function '{tok}' takes exactly one argument")
            self.expect(")")
            return Unary(op, arg)
        if tok == "(":
            self.i += 1
            e = self.expr()
            self.expect(")")
            return e
        raise self.error(f"expected a number, name or '(' but found {self.found()!r}")


def parse_expr(text: str) -> Expr:
    """Parse infix `text` into the unique tree under the grammar above."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# compiled evaluation: the package's one evaluation path


# operator, strength and the strengths its left and right operands need,
# of each infix operation (see `_emit_system`); "**" is pow of an
# integer-valued constant
_INFIX = {
    "add": (" + ", 1, 1, 2),
    "sub": (" - ", 1, 1, 2),
    "mul": (" * ", 2, 2, 3),
    "div": (" / ", 2, 2, 3),
    "**": (" ** ", 4, 5, 3),
}


def raise_from_tree_walk(
    outputs: tuple[Expr, ...], params: tuple[str, ...], args: tuple
) -> NoReturn:
    """Raise the error `evaluate` raises on `outputs`, in order, at `args`.

    The boundary of compiled code: called in the `except` clause of a
    compiled call that raised ArithmeticError or ValueError, it re-raises
    the failure as the tree walk reports it, an EvalDomainError with its
    message, or the ValueError of sin or cos at infinity. The tree walk
    raises there too, since the compiled code raises only where it does; if
    it does not, that is a fault of the compiled code, an ExprError. Its
    callers are the functions `compile_expr` returns, `SmoothMap.__call__`,
    `SmoothMap.on_region` and the RK4 kernel's `reduction._stage_failed`.
    """
    bindings = dict(zip(params, args))
    for e in outputs:
        evaluate(e, bindings)
    raise ExprError(f"compiled code raised where the tree walk does not, at {args!r}")


# the functions compiled code calls, under the op's name: the C functions
# raise by themselves where the guards of `evaluate` raise; `_pow` keeps its
# guard for the exponents it gets (Python's ** gives a complex number for a
# negative base there), and `_cbrt` is the odd extension `evaluate` uses
_COMPILE_NS = {
    "__builtins__": {},
    "_sqrt": math.sqrt,
    "_cbrt": _cbrt,
    "_tanh": math.tanh,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_log": math.log,
    "_pow": _safe_pow,
    "_float": float,
    # what the C functions and operators raise off their domain, and the
    # boundary the functions of `compile_expr` hand it to
    "_ERRORS": (ArithmeticError, ValueError),
    "_raise_from_tree_walk": raise_from_tree_walk,
}


# memoized: every compile checks its parameter tuple, and a few tuples
# recur; a tuple that raises is not cached and raises again
@lru_cache(maxsize=256)
def _check_params(params: tuple[str, ...]) -> None:
    # compiled code owns every name that starts with "_": its helpers are
    # globals (_sqrt, _div, ...) and its shared subtrees locals (_c0, ...)
    if len(set(params)) != len(params):
        raise ExprError(f"parameter names {params!r} repeat a name")
    for p in params:
        if not p.isidentifier() or keyword.iskeyword(p):
            raise ExprError(f"parameter name {p!r} is not an identifier")
        if p.startswith("_"):
            raise ExprError(
                f"parameter name {p!r} is reserved: names starting with '_' "
                "belong to compiled code"
            )


# `compile_expr`'s function, made by a factory so that its `except` clause
# reads the output and parameter names from the factory's closure
_FUNCTION = """\
def _function(_e, _params):
    def _fn({params}):
        try:
            return {code}
        except _ERRORS:
            _raise_from_tree_walk((_e,), _params, ({args}))
    return _fn
"""


# cached only because perfbench/child.py reads `compile_expr.cache_info()`
@lru_cache(maxsize=4096)
def compile_expr(e: Expr, params: tuple[str, ...]) -> Callable[..., float]:
    """Positional-argument evaluator for `e`: the code `_emit_system`
    writes for one output, returning the value itself.

    It gives the values of `evaluate`, the reference tree walk, and raises
    where `evaluate` raises, with the tree walk's own error: the error of
    the C function or operator that failed goes to `raise_from_tree_walk`
    in the function's own `except` clause, which costs nothing when
    nothing is raised. A subtree that recurs in `e` is computed once.
    Parameter names must be identifiers that do not start with "_".
    """
    _check_params(params)
    (code,) = _emit_system((e,), params)
    source = _FUNCTION.format(
        params=", ".join(params), code=code, args="".join(f"{p}, " for p in params)
    )
    # the factory is defined in a scope of its own: the shared namespace,
    # whose globals the code only reads, stays unwritten
    scope: dict[str, Callable] = {}
    exec(source, _COMPILE_NS, scope)  # noqa: S102 - source built from the template above
    return scope["_function"](e, params)


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

    Division is Python's ``/``, and pow of a finite, integer-valued
    constant Python's ``**``: both raise where `evaluate`'s guards do.
    Other exponents keep the guarded `_pow`.

    An operand is bracketed only where Python's precedence needs it. A sum
    has strength 1, a product or quotient 2, a unary minus or a negative
    literal 3, a power 4; calls, names, other literals and assignment
    expressions are atoms (5). An operand of + or - needs strength 1 on
    the left and 2 on the right, one of * or / 2 and 3, one of unary minus
    3, and one of ** an atom on the left and 3 on the right (``x ** -1.0``).
    So the code parses to the same AST, and compiles to the same bytecode,
    as the code with every operation bracketed, from fewer tokens. The two
    walks are closures that call themselves; unbinding them on return
    leaves no reference cycle, so their tables are freed at once, not by
    the cyclic collector.
    """
    numbers: dict[str | tuple, int] = {}
    keys: list[str | tuple] = []  # a leaf's code, or (op, *child numbers)
    refs: list[int] = []  # references from numbered nodes and from the outputs
    by_object: dict[int, int] = {}  # id() of a node object already numbered
    seen = by_object.get

    def intern(e: Expr) -> int:
        # numbers a node object not yet seen; its children are looked up first
        kind = type(e)
        if kind is Binary:
            a = seen(id(e.lhs))
            if a is None:
                a = intern(e.lhs)
            b = seen(id(e.rhs))
            if b is None:
                b = intern(e.rhs)
            op = e.op
            if op == "pow" and type(e.rhs) is Const and float(e.rhs.value).is_integer():
                op = "**"
            key = (op, a, b)
        elif kind is Unary:
            a = seen(id(e.arg))
            if a is None:
                a = intern(e.arg)
            key = (e.op, a)
        elif kind is Const:
            # inf and nan have no literal: rebuild them from their repr
            key = repr(e.value) if math.isfinite(e.value) else f"_float('{e.value!r}')"
        elif kind is Var:
            if e.name not in params:
                raise UnboundVariableError(
                    f"variable '{e.name}' not among parameters {params!r}"
                )
            key = e.name
        else:
            raise ExprError(f"unknown node {e!r}")
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

    names: dict[int, str] = {}

    def code_of(n: int, need: int) -> str:
        # the code of node n in a context that needs strength `need`
        name = names.get(n)
        if name is not None:
            return name
        key = keys[n]
        if type(key) is str:
            # a negative literal has the strength of a unary minus
            return f"({key})" if need > 3 and key[0] == "-" else key
        op = key[0]
        strength = 5  # a call
        if op in _INFIX:
            sym, strength, left, right = _INFIX[op]
            code = code_of(key[1], left) + sym + code_of(key[2], right)
        elif op == "neg":
            strength = 3
            code = "-" + code_of(key[1], 3)
        elif len(key) == 2:
            code = f"_{op}({code_of(key[1], 0)})"
        else:
            code = f"_{op}({code_of(key[1], 0)}, {code_of(key[2], 0)})"
        if refs[n] == 1:
            return f"({code})" if strength < need else code
        names[n] = name = f"_c{len(names)}"
        return f"({name} := {code})"

    try:
        roots = []
        for e in outputs:
            n = seen(id(e))
            if n is None:
                n = intern(e)
            refs[n] += 1
            roots.append(n)
        return [code_of(n, 0) for n in roots]
    finally:
        del intern, code_of


# the relations a region's test may put its expression in, against 0
RELATIONS = (">", ">=", "!=")


def check_relations(relations: Sequence[str]) -> None:
    """Reject a relation that is not one of RELATIONS."""
    for rel in relations:
        if rel not in RELATIONS:
            raise ExprError(f"unknown relation {rel!r}; known: {', '.join(RELATIONS)}")


def _emit_tests(codes: Sequence[str], relations: Sequence[str]) -> str:
    """One condition that holds where every expression code stands in its
    relation to 0, tested left to right and stopping at the first that fails."""
    check_relations(relations)
    return " and ".join(f"{code} {rel} 0.0" for code, rel in zip(codes, relations))


def compile_system(
    outputs: tuple[Expr, ...],
    params: tuple[str, ...],
    tests: tuple[tuple[Expr, str], ...] = (),
) -> Callable[..., tuple[float, ...] | None]:
    """One lambda returning the tuple of every output's value.

    Values are those of `evaluate` applied to each output in turn, and it
    raises where that first raises, with the error of the C function or
    operator that failed (see `raise_from_tree_walk`). Repeated subtrees,
    within an output or across outputs, are computed once (see
    `_emit_system`). Uncached: a `SmoothMap` keeps the lambda of its
    outputs.

    Each of `tests`, a pair (expression, relation), puts a condition in
    front of the outputs: the lambda returns None, computing no output,
    where the first test that fails stands out of its relation to 0. The
    tests are evaluated first, in order, so a subtree they share with the
    outputs is computed once, in the test.
    """
    _check_params(tuple(params))  # hashable for the memo, whatever sequence it is
    codes = _emit_system((*(e for e, _ in tests), *outputs), params)
    # every lambda shares one namespace: the code only reads its globals,
    # and the names it binds (_c0, ...) are locals of the lambda
    body = f"({', '.join(codes[len(tests):])},)"
    if tests:
        body = f"{body} if {_emit_tests(codes, [rel for _, rel in tests])} else None"
    return eval(f"lambda {', '.join(params)}: {body}", _COMPILE_NS)  # noqa: S307 - closed namespace
