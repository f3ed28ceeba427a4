import random
from fractions import Fraction

import pytest

from klyachko.errors import ParseError
from klyachko.paramparse import parse_parameter
from klyachko.speh import parameter_degree, parameter_text
from oracles import Label, paired, plain


def test_single_block():
    param = parse_parameter("U(rho:1,1,3)@0")
    assert param == (plain(Label("rho"), 1, 3),)


def test_example_from_grammar():
    param = parse_parameter("U(rho:1,1,3)@0 x P(U(rho:1,2,2),1/4)")
    assert param == (plain(Label("rho"), 1, 3), paired(Label("rho"), 2, 2, Fraction(1, 4)))
    assert parameter_degree(param) == 3 + 8


def test_shift_is_optional_and_rational():
    assert parse_parameter("U(a:1,1,2)")[0].alpha == 0
    assert parse_parameter("U(a:1,1,2)@-1/2")[0].alpha == Fraction(-1, 2)
    assert parse_parameter("U(a:1,1,2)@3")[0].alpha == 3


def test_dual_label_marker():
    param = parse_parameter("U(rho~:2,1,1)@0")
    block = param[0]
    assert block.dual and block.name == "rho" and block.degree == 2


def test_whitespace_insensitive():
    a = parse_parameter("U(a:1,1,1)@0 x U(b:1,1,1)@0")
    for text in ["U(a:1,1,1)@0xU(b:1,1,1)@0".replace("x", " x "), "U(a:1,1,1)xU(b:1,1,1)",
                 "U(a:1,1,1)@0xU(b:1,1,1)@0", " U ( a : 1 , 1 , 1 ) @ 0 x U(b:1,1,1) "]:
        assert parse_parameter(text) == a
    b = parse_parameter("U(a:1,1,1)@0 x P(U(b:1,1,2),1/4)")
    for text in ["U(a:1,1,1)@0xP(U(b:1,1,2),1/4)", "P(U(b:1,1,2),1/4)xU(a:1,1,1)"]:
        assert parse_parameter(text) == b


def test_paired_alpha_normalized_positive():
    param = parse_parameter("P(U(rho:1,1,2),-1/4)")
    assert param[0].alpha == Fraction(1, 4)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_parameter("U(rho:1,1)")
    assert info.value.position > 0
    with pytest.raises(ParseError):
        parse_parameter("")
    with pytest.raises(ParseError):
        parse_parameter("U(rho:1,1,3)@0 y U(a:1,1,1)@0")
    with pytest.raises(ParseError):
        parse_parameter("V(rho:1,1,3)")
    with pytest.raises(ParseError):
        parse_parameter("U(rho:1,1,0)")  # t = 0 rejected at parse time
    with pytest.raises(ParseError):
        parse_parameter("U(rho:0,1,1)")
    with pytest.raises(ParseError):
        parse_parameter("U(rho:1,1,1)@1/0")
    # only ASCII digits: "²" passes str.isdigit() and "１" (full width) int()
    for text, position in [("U(rho:²,1,1)", 6), ("U(rho:1,1,3)@1/²", 15),
                           ("U(rho:1,1,²)", 10), ("U(rho:１,1,1)", 6)]:
        with pytest.raises(ParseError) as info:
            parse_parameter(text)
        assert info.value.position == position
    # a value out of range: the position of its first character, after any blanks
    for text, position in [("U(rho: 0,1,1)", 7), ("U(rho:1, 0,1)", 9), ("U(rho:1,1, 0)", 11),
                           ("U(rho:1,1,1)@1/0", 15), ("U(rho:1,1,1)@1/ 0", 16)]:
        with pytest.raises(ParseError) as info:
            parse_parameter(text)
        assert info.value.position == position
    # only ASCII names: "²" passes str.isalnum() and "ｒ" (full width) str.isalpha()
    for text, position in [("U(rho²:1,1,1)", 5), ("U(ｒho:1,1,1)", 2)]:
        with pytest.raises(ParseError) as info:
            parse_parameter(text)
        assert info.value.position == position


def test_round_trip_random():
    rng = random.Random(31)
    for _ in range(500):
        entries = []
        for _ in range(rng.randrange(1, 4)):
            rho = Label(
                rng.choice(("rho", "tau", "s_1")),
                rng.randrange(1, 4),
                dual=rng.random() < 0.3,
            )
            alpha = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 4)))
            make = paired if rng.random() < 0.4 else plain
            entries.append(make(rho, rng.randrange(1, 4), rng.randrange(1, 5), alpha))
        param = tuple(sorted(entries))
        assert parse_parameter(parameter_text(param)) == param
