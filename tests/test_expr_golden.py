"""Golden pins of the expression front end: parse, print, diff and emit.

The digests and the error table were taken from the character-walking
parser that the token-list parser replaced; any change to a tree, a printed
text, a derivative, the generated code or a parse error shows up here. The
emit digest was taken again when the generated code dropped the brackets
Python does not need; its AST did not change (see `tests/test_expr.py`).
It was taken once more when the code began to divide with ``/`` and raise
to an integer-valued constant power with ``**`` in place of the guarded
helpers `_div` and `_pow`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import random
import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiflow.expr import (
    FUNCTION_NAMES,
    Binary,
    Const,
    ExprError,
    ParseError,
    Unary,
    Var,
    diff,
    free_vars,
    neg,
    parse_expr,
    to_text,
)
from semiflow.expr import _emit_system

VARIABLES = ("t", "x", "y")
FUNCTIONS = ("sqrt", "cbrt", "tanh", "sin", "cos", "exp", "log")
BINARY = ("+", "-", "*", "/")
POWERS = ("2", "3", "-1", "-2", "0", "1", "0.5", "1.5", "(1/3)", "-(2/3)", "2^-1")
CONSTANTS = ("0", "1", "2", "3", "0.5", "1.25", ".75", "4", "2.5e-3", "1E2", "0.1", "-0")


def _random_text(rng: random.Random, ops: int) -> str:
    """Text over t, x, y with `ops` operators, in varied spacing and nesting."""
    if ops == 0:
        return rng.choice(VARIABLES) if rng.random() < 0.7 else rng.choice(CONSTANTS)
    roll = rng.random()
    if roll < 0.35:
        return f"{rng.choice(FUNCTIONS)}({_random_text(rng, ops - 1)})"
    if roll < 0.45:
        inner = _random_text(rng, ops - 1)
        return f"-{inner}" if rng.random() < 0.5 else f"-({inner})"
    if roll < 0.6:
        return f"({_random_text(rng, ops - 1)})^{rng.choice(POWERS)}"
    left = rng.randint(0, ops - 1)
    lhs = _random_text(rng, left)
    rhs = _random_text(rng, ops - 1 - left)
    sep = rng.choice(("", " ", "  "))
    text = f"{lhs}{sep}{rng.choice(BINARY)}{sep}{rhs}"
    return f"({text})" if rng.random() < 0.6 else text


def corpus() -> list[str]:
    rng = random.Random("expr-golden-corpus")
    return [_random_text(rng, rng.randint(1, 9)) for _ in range(500)]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_the_corpus_uses_every_operator_function_and_power():
    texts = corpus()
    joined = " ".join(texts)
    for token in (*FUNCTIONS, *BINARY, "^", *VARIABLES):
        assert token in joined
    for power in POWERS:
        assert f")^{power}" in joined


def test_parse_print_diff_and_emit_are_pinned():
    # one digest per stage, so a change to one stage shows the others held
    stages = {"repr": [], "print": [], "diff": [], "emit": []}
    for text in corpus():
        e = parse_expr(text)
        partials = tuple(diff(e, v) for v in VARIABLES)
        stages["repr"].append(repr(e))
        stages["print"].append(to_text(e))
        stages["diff"].extend(to_text(p) for p in partials)
        stages["emit"].extend(_emit_system((e, *partials), VARIABLES))
    assert {stage: _digest(lines) for stage, lines in stages.items()} == {
        "repr": "38fece2037de11992e3f22cc60a76960c504f28c64b8366d5a94105b3880f7f4",
        "print": "7c7bc385df61c2d790484d7e80e79f53399b989a2ba651c2b7999b4afff1b1f0",
        "diff": "e000647264a648fc64a6cfa804f35f92c46a9142f7931db4a0e2cd31346dd641",
        "emit": "ffdf88eae7b2ff5939d272def027d3c966fe7b4f78b4cde3ebf71b19fd7a9f10",
    }


# (input, offset, message without its " (at offset N)" suffix)
PARSE_ERRORS = [
    ("", 0, "expected a number, name or '(' but found ''"),
    ("   ", 3, "expected a number, name or '(' but found ''"),
    ("x +", 3, "expected a number, name or '(' but found ''"),
    ("(x", 2, "expected ')'"),
    ("x)", 1, "unexpected trailing input ')'"),
    ("foo(x)", 0, "unknown function name 'foo'"),
    ("sqrt(x, y)", 6, "function 'sqrt' takes exactly one argument"),
    ("D(U,t)", 0, "unknown function name 'D'"),
    ("1.2.3", 3, "unexpected trailing input '.'"),
    ("2e", 1, "unexpected trailing input 'e'"),
    ("x^y", 3, "pow exponent must be a rational constant"),
    ("x^(y) + 1", 6, "pow exponent must be a rational constant"),
    ("3 $ 4", 2, "unexpected trailing input '$'"),
    ("²", 0, "bad number literal '²'"),
    ("1²", 0, "bad number literal '1²'"),
    ("x^²", 2, "bad number literal '²'"),
    ("ⅷ", 0, "expected a number, name or '(' but found 'ⅷ'"),
    ("1½", 1, "unexpected trailing input '½'"),
    (".", 0, "bad number literal '.'"),
    (".e5", 0, "bad number literal '.e5'"),
    ("sqrt x", 5, "unexpected trailing input 'x'"),
    ("sin(x,)", 5, "function 'sin' takes exactly one argument"),
    ("sqrt(x", 6, "expected ')'"),
    ("sqrt(,x)", 5, "expected a number, name or '(' but found ','"),
    ("x y", 2, "unexpected trailing input 'y'"),
    ("x+\x00", 2, "expected a number, name or '(' but found '\\x00'"),
    ("a\u0301", 1, "unexpected trailing input '\u0301'"),
]


@pytest.mark.parametrize("text, offset, message", PARSE_ERRORS)
def test_parse_error_offsets_and_messages(text, offset, message):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (at offset {offset})"


@pytest.mark.parametrize(
    "text, tree",
    [
        ("x\u2003+ 1", Binary("add", Var("x"), Const(1.0))),  # an em space
        ("x\xa0*\u3000y\x1c", Binary("mul", Var("x"), Var("y"))),
        ("٣.5 + x٣", Binary("add", Const(3.5), Var("x٣"))),  # Arabic-Indic 3
        ("x²", Var("x²")),
        ("Ωx_1", Var("Ωx_1")),
        ("1.e3 - .5", Binary("sub", Const(1000.0), Const(0.5))),
        ("2E5", Const(200000.0)),
        ("sqrt (x)", Unary("sqrt", Var("x"))),
        ("D", Var("D")),
        ("sqrt", Var("sqrt")),
        ("x ^ - 2", Binary("pow", Var("x"), Const(-2.0))),
        ("1e400", Const(float("inf"))),
    ],
)
def test_unicode_digits_letters_and_spaces(text, tree):
    assert parse_expr(text) == tree


PROBE_CHARS = (
    "".join(map(chr, range(0x20, 0x7F)))
    + "\t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u2003\u2028\u3000\ufeff"
    + "²³¹⁰₉①❶፩\U0001f100٣\U0001d7d9½ⅷ〇一Ωµªᵃ\u0301\u200b"
)
PROBE_TEMPLATES = ("{}", "x{}", "1{}", "{}1", "1.{}", "1e{}", "x +{}1", "{}x", "sqrt({})")


def test_every_probe_character_parses_or_fails_as_pinned():
    lines = []
    for c in PROBE_CHARS:
        for template in PROBE_TEMPLATES:
            text = template.format(c)
            try:
                lines.append(f"{text!r} {parse_expr(text)!r}")
            except ParseError as err:
                lines.append(f"{text!r} {err}")
    assert _digest(lines) == "a9175e00701c6ffe63f545c19bfcb24343a85767574a4943a63f138a9b881fac"


NODES = (
    Const(1.0),
    Var("x"),
    Unary("neg", Var("x")),
    Binary("add", Var("x"), Const(1.0)),
)


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_nodes_are_immutable_and_slotted(node):
    field = next(iter(node.__dataclass_fields__))
    with pytest.raises(FrozenInstanceError):
        setattr(node, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(node, field)
    assert not hasattr(node, "__dict__")
    # no attribute can be added: dataclasses raise TypeError here for a
    # frozen slotted class on Python 3.10 and 3.11, FrozenInstanceError later
    with pytest.raises((FrozenInstanceError, TypeError)):
        node.extra = 1
    assert not hasattr(node, "extra")


def test_nodes_survive_copy_and_pickle():
    e = parse_expr("x + sin(-0)*y^2 - log(x)")
    assert copy.copy(e) == copy.deepcopy(e) == pickle.loads(pickle.dumps(e)) == e


def test_signed_zero_constants_stay_distinct():
    assert Const(0.0) != Const(-0.0)
    assert hash(Const(0.0)) != hash(Const(-0.0))
    assert Const(0.0) == Const(0.0) and hash(Const(-0.0)) == hash(Const(-0.0))


def test_nodes_replace_and_validate_through_their_own_init():
    b = Binary("add", Var("x"), Var("y"))
    assert dataclasses.replace(b, op="sub") == Binary("sub", Var("x"), Var("y"))
    assert dataclasses.replace(Const(-0.0), value=2.0) == Const(2.0)
    assert Binary(op="mul", lhs=Var("x"), rhs=Const(2.0)) == parse_expr("x*2")
    for node in (b, Const(-0.0), Var("x"), Unary("sqrt", b)):
        for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)
    with pytest.raises(ExprError, match="variable name must be nonempty"):
        Var("")
    with pytest.raises(ExprError, match="variable name must be nonempty"):
        dataclasses.replace(Var("x"), name="")


# ---------------------------------------------------------------------------
# the tokenizer with one group per token class, and the parser over its
# (number, name, other) triples, that the string tokens replaced; the
# parser's tokens must be its tokens and the classes its groups


def _reference_token_pattern(digits: str = "", numerals: str = "") -> re.Pattern[str]:
    digit = rf"[\d{digits}]"
    name_start = rf"(?![{numerals}])[^\W\d]" if numerals else r"[^\W\d]"
    return re.compile(
        rf"\s*(?:((?=[\d{digits}.]){digit}*(?:\.{digit}*)?(?:[eE][+-]?{digit}+)?)"
        rf"|({name_start}\w*)|(\S))"
    )


def _reference_tokenizer(text: str) -> re.Pattern[str]:
    if text.isascii():
        return _reference_token_pattern()
    digits = {c for c in text if c.isdigit() and not c.isdecimal()}
    numerals = {c for c in text if c.isnumeric() and not c.isdigit() and not c.isalpha()}
    return _reference_token_pattern(
        re.escape("".join(sorted(digits))), re.escape("".join(sorted(numerals)))
    )


_REFERENCE_END = ("", "", "")


class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        self.pattern = _reference_tokenizer(text)
        self.tokens = self.pattern.findall(text)
        self.tokens.append(_REFERENCE_END)
        self.i = 0

    def offset(self, index: int) -> int:
        starts = [m.start(m.lastindex) for m in self.pattern.finditer(self.text)]
        return (*starts, len(self.text))[index]

    def error(self, message: str, index: int | None = None) -> ParseError:
        return ParseError(message, self.offset(self.i if index is None else index))

    def found(self) -> str:
        offset = self.offset(self.i)
        return self.text[offset:offset + 1]

    def expect(self, ch: str):
        if self.tokens[self.i][2] != ch:
            raise self.error(f"expected '{ch}'")
        self.i += 1

    def parse(self):
        e = self.expr()
        if self.tokens[self.i] is not _REFERENCE_END:
            raise self.error(f"unexpected trailing input {self.found()!r}")
        return e

    def expr(self):
        e = self.term()
        while True:
            op = self.tokens[self.i][2]
            if op == "+":
                self.i += 1
                e = Binary("add", e, self.term())
            elif op == "-":
                self.i += 1
                e = Binary("sub", e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            op = self.tokens[self.i][2]
            if op == "*":
                self.i += 1
                e = Binary("mul", e, self.factor())
            elif op == "/":
                self.i += 1
                e = Binary("div", e, self.factor())
            else:
                return e

    def factor(self):
        if self.tokens[self.i][2] == "-":
            self.i += 1
            return neg(self.factor())
        e = self.base()
        if self.tokens[self.i][2] == "^":
            self.i += 1
            expo = self.factor()
            if free_vars(expo):
                raise self.error("pow exponent must be a rational constant")
            return Binary("pow", e, expo)
        return e

    def base(self):
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


def _tree_or_error(parse, text):
    try:
        return repr(parse(text))
    except ParseError as err:
        return f"ParseError at {err.offset}: {err}"


def _assert_parses_like_the_reference(text):
    assert _tree_or_error(parse_expr, text) == _tree_or_error(
        lambda t: _ReferenceParser(t).parse(), text
    )


NON_ASCII = ("x²", "1²", "٣x", "Ⅷ", "½", "𝟙", "é", "..", "1e", "sqrt(")


def test_string_tokens_parse_like_the_reference_tokenizer():
    texts = [
        *corpus(),
        *NON_ASCII,
        *(text for text, _, _ in PARSE_ERRORS),
        *(template.format(c) for c in PROBE_CHARS for template in PROBE_TEMPLATES),
    ]
    for text in texts:
        _assert_parses_like_the_reference(text)


_TOKEN_ALPHABET = "xy_t0129.eE+-*/^(), \t²٣Ⅷⅷ½𝟙éµ〇一Ω①\u0301\u2003"


@given(st.text(_TOKEN_ALPHABET, max_size=12))
@settings(max_examples=300)
def test_random_texts_parse_like_the_reference_tokenizer(text):
    _assert_parses_like_the_reference(text)
