r"""Math formula normalization via a hand-written recursive-descent parser.

Exercise text carries formulas delimited by ``$...$``. Surface forms of the
same expression differ in whitespace, brace style and LaTeX sugar, which
breaks exact text matching, so each formula is parsed and re-emitted in a
single canonical spelling.

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

Canonicalization rules (the contract):

* every binary operation is fully parenthesized and space-separated,
  e.g. ``x-2m=0`` and ``x - 2m  = 0`` both emit ``( ( x - ( 2 * m ) ) = 0 )``;
* ``\frac{a}{b}`` folds to division: ``( a / b )``;
* powers fold to the ``^`` operator, groups are transparent;
* numbers print without trailing zeros (``2.0`` prints ``2``).

No algebraic rewriting happens: ``x+1`` and ``1+x`` stay distinct, and so do
``x-2m=0`` and ``x^2-2m=0``. Unparseable input falls back to character-level
tokens and is flagged; the fallback is total and idempotent, so no exercise
is ever lost to a parse error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

_FUNCS = ("sqrt", "sin", "cos", "log")

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

# each nesting level spans several mutually recursive frames, so the guard
# must trip well before the interpreter stack limit does
_MAX_DEPTH = 60


class FormulaParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    child: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Node"


Node = Union[Num, Sym, Unary, Binary, Func]


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
        return self.pos < len(self.tokens) and self.tokens[self.pos][0] == "OP" \
            and self.tokens[self.pos][1] in ops

    def relation(self) -> Node:
        node = self.additive()
        while self.at_op("=", "<", ">"):
            op = self.take()[1]
            node = Binary(op, node, self.additive())
        return node

    def additive(self) -> Node:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.take()[1]
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            if self.at_op("*", "/"):
                op = self.take()[1]
                node = Binary(op, node, self.factor())
            elif self.pos < len(self.tokens) and self.tokens[self.pos][0] in (
                    "NUMBER", "SYM", "FUNC", "FRAC", "LPAREN", "LBRACE"):
                node = Binary("*", node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise FormulaParseError("formula too deeply nested", 0)
        try:
            if self.at_op("-"):
                self.take()
                return Unary("-", self.factor())
            return self.power()
        finally:
            self.depth -= 1

    def power(self) -> Node:
        node = self.primary()
        if self.at_op("^"):
            self.take()
            node = Binary("^", node, self.factor())
        return node

    def primary(self) -> Node:
        if self.pos >= len(self.tokens):
            raise FormulaParseError("unexpected end of formula", self.length)
        kind, text, where = self.tokens[self.pos]
        if kind == "NUMBER":
            self.take()
            return Num(float(text))
        if kind == "SYM":
            self.take()
            return Sym(text)
        if kind == "FUNC":
            self.take()
            return Func(text, self.primary())
        if kind == "FRAC":
            self.take()
            self.expect("LBRACE")
            numer = self.relation()
            self.expect("RBRACE")
            self.expect("LBRACE")
            denom = self.relation()
            self.expect("RBRACE")
            return Binary("/", numer, denom)
        if kind == "LPAREN":
            self.take()
            node = self.relation()
            self.expect("RPAREN")
            return node
        if kind == "LBRACE":
            self.take()
            node = self.relation()
            self.expect("RBRACE")
            return node
        raise FormulaParseError(f"unexpected token {text!r}", where)


def parse_formula(src: str) -> Node:
    """Parse formula source to an AST, raising FormulaParseError on failure."""
    tokens = _lex(src)
    if not tokens:
        raise FormulaParseError("empty formula", 0)
    parser = _Parser(tokens, len(src))
    try:
        node = parser.relation()
    except RecursionError:
        raise FormulaParseError("formula too deeply nested", 0) from None
    if parser.pos < len(parser.tokens):
        _, text, where = parser.tokens[parser.pos]
        raise FormulaParseError(f"trailing input {text!r}", where)
    return node


def canonical(node: Node) -> str:
    """Serialize an AST to its unique canonical spelling."""
    if isinstance(node, Num):
        v = node.value
        return str(int(v)) if v == int(v) else repr(v)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Unary):
        return f"( {node.op} {canonical(node.child)} )"
    if isinstance(node, Binary):
        return f"( {canonical(node.left)} {node.op} {canonical(node.right)} )"
    if isinstance(node, Func):
        return f"{node.name} ( {canonical(node.arg)} )"
    raise TypeError(f"not an AST node: {node!r}")


@dataclass(frozen=True)
class NormalizedFormula:
    text: str
    parsed: bool  # False means the character-level fallback was used


def normalize_formula(src: str) -> NormalizedFormula:
    """Normalize formula source to canonical text, never failing.

    Parseable input emits the canonical AST spelling. Anything else falls
    back to space-separated characters, flagged as a parse failure. The
    fallback text is itself normalized when it happens to parse (single
    characters recombine through implicit multiplication), which makes the
    whole function idempotent in every branch.
    """
    try:
        return NormalizedFormula(canonical(parse_formula(src)), True)
    except FormulaParseError:
        pass
    fallback = " ".join(ch for ch in src if not ch.isspace())
    try:
        return NormalizedFormula(canonical(parse_formula(fallback)), False)
    except FormulaParseError:
        return NormalizedFormula(fallback, False)
