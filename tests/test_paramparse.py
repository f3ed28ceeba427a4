import random
from fractions import Fraction

import pytest

from klyachko.errors import ParseError
from klyachko.paramparse import parse_parameter
from klyachko.speh import CuspidalLabel, ParamBlock, SpehBlock, TadicParameter


def test_single_block():
    param = parse_parameter("U(rho:1,1,3)@0")
    assert param == TadicParameter([ParamBlock(SpehBlock(CuspidalLabel("rho"), 1, 3))])


def test_example_from_grammar():
    param = parse_parameter("U(rho:1,1,3)@0 x P(U(rho:1,2,2),1/4)")
    assert len(param.entries) == 2
    kinds = sorted(e.paired for e in param.entries)
    assert kinds == [False, True]
    paired = next(e for e in param.entries if e.paired)
    assert paired.block == SpehBlock(CuspidalLabel("rho"), 2, 2, Fraction(1, 4))
    assert param.n == 3 + 8


def test_shift_is_optional_and_rational():
    assert parse_parameter("U(a:1,1,2)").entries[0].block.alpha == 0
    assert parse_parameter("U(a:1,1,2)@-1/2").entries[0].block.alpha == Fraction(-1, 2)
    assert parse_parameter("U(a:1,1,2)@3").entries[0].block.alpha == 3


def test_dual_label_marker():
    param = parse_parameter("U(rho~:2,1,1)@0")
    rho = param.entries[0].block.rho
    assert rho.dual and rho.name == "rho" and rho.degree == 2


def test_whitespace_insensitive():
    a = parse_parameter("U(a:1,1,1)@0 x U(b:1,1,1)@0")
    b = parse_parameter("U(a:1,1,1)@0xU(b:1,1,1)@0".replace("x", " x "))
    assert a == b


def test_paired_alpha_normalized_positive():
    param = parse_parameter("P(U(rho:1,1,2),-1/4)")
    assert param.entries[0].block.alpha == Fraction(1, 4)


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
            rho = CuspidalLabel(
                rng.choice(("rho", "tau", "s_1")),
                rng.randrange(1, 4),
                dual=rng.random() < 0.3,
            )
            alpha = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 4)))
            block = SpehBlock(rho, rng.randrange(1, 4), rng.randrange(1, 5), alpha)
            entries.append(ParamBlock(block, paired=rng.random() < 0.4))
        param = TadicParameter(entries)
        assert parse_parameter(str(param)) == param
