"""Parser for the parameter expression grammar.

    param    := block ( "x" block )*
    block    := "U(" name ":" degree "," d "," t ")" shift?
              | "P(" "U(" name ":" degree "," d "," t ")" "," rational ")"
    shift    := "@" rational
    name     := [A-Za-z_] [A-Za-z0-9_]* ["~"]
    rational := ["-"] int [ "/" int ]
    int      := [0-9]+

Example: "U(rho:1,1,3)@0 x P(U(rho:1,2,2),1/4)".  Whitespace between
tokens is ignored, and the separator is the one character "x", so
"U(a:1,1,1)xU(b:1,1,1)" parses too.  Names are ASCII identifiers with an
optional trailing "~" marking a dual label.  Errors carry the offset of
the first character of the offending token.

The parser is the one place that checks and normalises a parameter:
it refuses degree, d or t below 1 and a zero denominator, stores a
pair's alpha as abs(alpha), and returns the speh.Block tuples sorted.
Printed parameters (speh.parameter_text) re-parse to equal values.
"""

from __future__ import annotations

import string
from fractions import Fraction

from .errors import ParseError
from .speh import Block


class _Tokens:
    # only ASCII: str.isalpha and str.isalnum also take "²" and full-width letters
    NAME_START = frozenset(string.ascii_letters + "_")
    NAME_CHARS = NAME_START | frozenset(string.digits)

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self) -> bool:
        return self.peek() == ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            found = self.peek() or "end of input"
            raise ParseError(f"expected {char!r}, found {found!r}", self.pos)
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        text = self.text
        if self.pos >= len(text) or text[self.pos] not in self.NAME_START:
            raise ParseError("expected a name", self.pos)
        while self.pos < len(text) and text[self.pos] in self.NAME_CHARS:
            self.pos += 1
        if self.pos < len(text) and text[self.pos] == "~":
            self.pos += 1
        return text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        text = self.text
        while self.pos < len(text) and "0" <= text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            found = text[self.pos] if self.pos < len(text) else "end of input"
            raise ParseError(f"expected an integer, found {found!r}", start)
        try:
            return int(text[start:self.pos])
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise ParseError(f"integer of {self.pos - start} digits is too long", start) from None

    def rational(self) -> Fraction:
        self.skip_ws()
        negative = False
        if self.peek() == "-":
            self.pos += 1
            negative = True
        num = self.integer()
        den = 1
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            den_pos = self.pos
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", den_pos)
        value = Fraction(num, den)
        return -value if negative else value


def _at_least_one(tok: _Tokens, what: str) -> int:
    tok.skip_ws()
    start = tok.pos
    value = tok.integer()
    if value < 1:
        raise ParseError(f"{what} must be >= 1", start)
    return value


def _parse_u(tok: _Tokens) -> tuple[str, bool, int, int, int]:
    """U(name~:degree,d,t) as (name, dual, degree, d, t)."""
    head = tok.ident()
    if head != "U":
        raise ParseError(f"expected 'U', found {head!r}", tok.pos - len(head))
    tok.expect("(")
    name = tok.ident()
    dual = name.endswith("~")
    tok.expect(":")
    degree = _at_least_one(tok, "cuspidal degree")
    tok.expect(",")
    d = _at_least_one(tok, "d")
    tok.expect(",")
    t = _at_least_one(tok, "t")
    tok.expect(")")
    return name.removesuffix("~"), dual, degree, d, t


def _parse_block(tok: _Tokens) -> Block:
    save = tok.pos
    if tok.ident() == "P":
        tok.expect("(")
        shape = _parse_u(tok)
        tok.expect(",")
        alpha = tok.rational()
        tok.expect(")")
        return Block(True, *shape, abs(alpha))  # the pair's +alpha representative
    tok.pos = save
    shape = _parse_u(tok)
    alpha = Fraction(0)
    if tok.peek() == "@":
        tok.pos += 1
        alpha = tok.rational()
    return Block(False, *shape, alpha)


def parse_parameter(text: str) -> tuple[Block, ...]:
    tok = _Tokens(text)
    blocks = [_parse_block(tok)]
    while not tok.at_end():
        if tok.peek() != "x":  # the separator is one character: "xU(" is "x" and a block
            sep_pos = tok.pos
            raise ParseError(f"expected block separator 'x', found {tok.ident()!r}", sep_pos)
        tok.pos += 1
        blocks.append(_parse_block(tok))
    return tuple(sorted(blocks))
