"""Parser for the parameter expression grammar.

    param    := block ( "x" block )*
    block    := "U(" name ":" degree "," d "," t ")" shift?
              | "P(" "U(" name ":" degree "," d "," t ")" "," rational ")"
    shift    := "@" rational
    name     := [A-Za-z_] [A-Za-z0-9_]* ["~"]
    rational := ["-"] int [ "/" int ]
    int      := [0-9]+

Example: "U(rho:1,1,3)@0 x P(U(rho:1,2,2),1/4)".  Names are ASCII
identifiers with an optional trailing "~" marking a dual label.  Errors
carry the character offset.  Printed parameters
(TadicParameter.__str__) re-parse to equal values.
"""

from __future__ import annotations

import string
from fractions import Fraction

from .errors import ParseError
from .speh import CuspidalLabel, ParamBlock, SpehBlock, TadicParameter


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
        return int(text[start:self.pos])

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
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", self.pos)
        value = Fraction(num, den)
        return -value if negative else value


def _parse_u_block(tok: _Tokens, allow_shift: bool) -> SpehBlock:
    head = tok.ident()
    if head != "U":
        raise ParseError(f"expected 'U', found {head!r}", tok.pos - len(head))
    tok.expect("(")
    name = tok.ident()
    dual = name.endswith("~")
    if dual:
        name = name[:-1]
    tok.expect(":")
    pos_before = tok.pos
    degree = tok.integer()
    if degree < 1:
        raise ParseError("cuspidal degree must be >= 1", pos_before)
    tok.expect(",")
    pos_before = tok.pos
    d = tok.integer()
    if d < 1:
        raise ParseError("d must be >= 1", pos_before)
    tok.expect(",")
    pos_before = tok.pos
    t = tok.integer()
    if t < 1:
        raise ParseError("t must be >= 1", pos_before)
    tok.expect(")")
    alpha = Fraction(0)
    if allow_shift and tok.peek() == "@":
        tok.pos += 1
        alpha = tok.rational()
    rho = CuspidalLabel(name, degree, dual=dual)
    return SpehBlock(rho, d, t, alpha)


def _parse_block(tok: _Tokens) -> ParamBlock:
    save = tok.pos
    head = tok.ident()
    if head == "P":
        tok.expect("(")
        inner = _parse_u_block(tok, allow_shift=False)
        tok.expect(",")
        alpha = tok.rational()
        tok.expect(")")
        return ParamBlock(SpehBlock(inner.rho, inner.d, inner.t, alpha), paired=True)
    tok.pos = save
    return ParamBlock(_parse_u_block(tok, allow_shift=True))


def parse_parameter(text: str) -> TadicParameter:
    tok = _Tokens(text)
    entries = [_parse_block(tok)]
    while not tok.at_end():
        sep_pos = tok.pos
        sep = tok.ident()
        if sep != "x":
            raise ParseError(f"expected block separator 'x', found {sep!r}", sep_pos)
        entries.append(_parse_block(tok))
    return TadicParameter(entries)
