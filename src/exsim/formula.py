r"""Math formula normalization via a hand-written recursive-descent parser.

Exercise text carries formulas delimited by ``$...$``. Surface forms of the
same expression differ in whitespace, brace style and LaTeX sugar, which
breaks exact text matching, so each formula is rewritten in a single
canonical spelling. Each production of the parser returns the canonical
text of what it read; no tree is built.

Grammar (precedence low to high: relational, additive, multiplicative,
power; implicit multiplication binds like ``*``)::

    relation := additive (("=" | "<" | ">") additive)*
    additive := term (("+" | "-") term)*
    term     := factor (("*" | "/")? factor)*
    factor   := "-" factor | power
    power    := primary ("^" factor)?
    primary  := NUMBER | SYMBOL | func | frac | "(" relation ")" | "{" relation "}"
    func     := ("sqrt" | "sin" | "cos" | "log") primary      -- "\" prefix optional
    frac     := "\frac" "{" relation "}" "{" relation "}"

``\cdot`` and ``\times`` are accepted as ``*``. Symbols are single letters,
so ``2m`` parses as ``2 * m``.

Canonical spelling (the contract):

* every binary operation is fully parenthesized and space-separated as
  ``( l op r )``, e.g. ``x-2m=0`` and ``x - 2m  = 0`` both spell
  ``( ( x - ( 2 * m ) ) = 0 )``; negation spells ``( - x )`` and a function
  ``f ( x )``;
* ``\frac{a}{b}`` folds to division: ``( a / b )``; groups are transparent;
* a number is spelled from its digits, never through a float: leading
  zeros of the whole part go (one ``0`` stays), trailing zeros of the
  fraction go, and an empty fraction goes with its point, so ``2.0``
  spells ``2``, ``00.50`` spells ``0.5`` and every digit of
  ``12345678901234567`` or ``0.00001`` is kept.

No algebraic rewriting happens: ``x+1`` and ``1+x`` stay distinct, and so do
``x-2m=0`` and ``x^2-2m=0``. :func:`normalize_formula` never raises and is
idempotent in every branch: a formula that does not parse is spelled by its
non-space characters, one per token (that spelling is canonicalized in turn
when it parses), so no exercise is ever lost to a parse error.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<NUMBER>\d+(?:\.\d+)?)
      | (?P<FRAC>\\frac)
      | (?P<FUNC>\\?(?:sqrt|sin|cos|log))
      | (?P<STAR>\\cdot|\\times)
      | (?P<OP>[+\-*/^=<>])
      | (?P<LPAREN>\() | (?P<RPAREN>\))
      | (?P<LBRACE>\{) | (?P<RBRACE>\})
      | (?P<SYM>[a-zA-Z])
    """,
    re.VERBOSE,
)

# tokens that start a factor, so one right after a factor multiplies it
_FACTOR_START = ("NUMBER", "SYM", "FUNC", "FRAC", "LPAREN", "LBRACE")
_CLOSER = {"LPAREN": "RPAREN", "LBRACE": "RBRACE"}

# each nesting level spans several mutually recursive frames, so the guard
# must trip well before the interpreter stack limit does
_MAX_DEPTH = 60


class FormulaParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _spell_number(digits: str) -> str:
    """The canonical spelling of a NUMBER token, made from its digits' values:
    every decimal digit, of any script, is written as its ASCII digit
    (``int`` reads any decimal digit ``\\d`` matches)."""
    if not digits.isascii():
        digits = "".join(c if c == "." else str(int(c)) for c in digits)
    whole, _, fraction = digits.partition(".")
    whole = whole.lstrip("0") or "0"
    fraction = fraction.rstrip("0")
    return f"{whole}.{fraction}" if fraction else whole


def _lex(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise FormulaParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            text = m.group()
            if kind == "STAR":
                kind, text = "OP", "*"
            elif kind == "FUNC":
                text = text.lstrip("\\")
            tokens.append((kind, text, pos))
        pos = m.end()
    return tokens


class _Parser:
    """One method per grammar rule; each returns the canonical spelling of
    what it read."""

    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.depth = 0

    def peek(self, kind: str) -> bool:
        return self.pos < len(self.tokens) and self.tokens[self.pos][0] == kind

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        if not self.peek(kind):
            where = self.tokens[self.pos][2] if self.pos < len(self.tokens) else self.length
            raise FormulaParseError(f"expected {kind}", where)
        return self.take()

    def at_op(self, *ops: str) -> bool:
        return self.peek("OP") and self.tokens[self.pos][1] in ops

    def chain(self, ops: tuple[str, ...], operand) -> str:
        """``operand (op operand)*`` for ``op`` in ``ops``, left-associative."""
        text = operand()
        while self.at_op(*ops):
            op = self.take()[1]
            text = f"( {text} {op} {operand()} )"
        return text

    def relation(self) -> str:
        return self.chain(("=", "<", ">"), self.additive)

    def additive(self) -> str:
        return self.chain(("+", "-"), self.term)

    def term(self) -> str:
        text = self.factor()
        while True:
            if self.at_op("*", "/"):
                op = self.take()[1]
            elif self.pos < len(self.tokens) and self.tokens[self.pos][0] in _FACTOR_START:
                op = "*"
            else:
                return text
            text = f"( {text} {op} {self.factor()} )"

    def factor(self) -> str:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise FormulaParseError("formula too deeply nested", 0)
        try:
            if self.at_op("-"):
                self.take()
                return f"( - {self.factor()} )"
            return self.power()
        finally:
            self.depth -= 1

    def power(self) -> str:
        text = self.primary()
        if self.at_op("^"):
            self.take()
            text = f"( {text} ^ {self.factor()} )"
        return text

    def primary(self) -> str:
        if self.pos >= len(self.tokens):
            raise FormulaParseError("unexpected end of formula", self.length)
        kind, text, where = self.take()
        if kind == "NUMBER":
            return _spell_number(text)
        if kind == "SYM":
            return text
        if kind == "FUNC":
            return f"{text} ( {self.primary()} )"
        if kind == "FRAC":
            self.expect("LBRACE")
            numer = self.group("RBRACE")
            self.expect("LBRACE")
            return f"( {numer} / {self.group('RBRACE')} )"
        if kind in _CLOSER:
            return self.group(_CLOSER[kind])
        raise FormulaParseError(f"unexpected token {text!r}", where)

    def group(self, close: str) -> str:
        """A relation up to its closing bracket, which it takes."""
        text = self.relation()
        self.expect(close)
        return text


def parse_formula(src: str) -> str:
    """The canonical spelling of formula source, raising FormulaParseError
    on input the grammar does not read."""
    tokens = _lex(src)
    if not tokens:
        raise FormulaParseError("empty formula", 0)
    parser = _Parser(tokens, len(src))
    try:
        text = parser.relation()
    except RecursionError:
        raise FormulaParseError("formula too deeply nested", 0) from None
    if parser.pos < len(parser.tokens):
        _, rest, where = parser.tokens[parser.pos]
        raise FormulaParseError(f"trailing input {rest!r}", where)
    return text


def normalize_formula(src: str) -> str:
    """The canonical spelling of formula source, never raising.

    Input that does not parse is spelled by its non-space characters, one
    per token; that spelling is canonicalized in turn when it parses
    (single characters recombine through implicit multiplication), which
    keeps the function idempotent in every branch.
    """
    try:
        return parse_formula(src)
    except FormulaParseError:
        pass
    fallback = " ".join(ch for ch in src if not ch.isspace())
    try:
        return parse_formula(fallback)
    except FormulaParseError:
        return fallback
