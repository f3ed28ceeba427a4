"""The segment oracle that the highest derivatives of Speh blocks are
checked against."""

from fractions import Fraction

import pytest

from klyachko.speh import CuspidalLabel
from oracles import Multisegment, Segment, dual_label

RHO = CuspidalLabel("rho")


def seg(a, b, base=RHO):
    return Segment(base, Fraction(a), Fraction(b))


def test_label_dual_involution():
    tau = CuspidalLabel("tau", 2)
    assert dual_label(tau) == CuspidalLabel("tau", 2, dual=True)
    assert dual_label(dual_label(tau)) == tau
    sd = CuspidalLabel("sigma", 1)
    assert dual_label(sd, {"sigma"}) == sd


def test_segment_rejects_bad_span():
    with pytest.raises(ValueError):
        Segment(RHO, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        Segment(RHO, 2, 0)


def test_segment_degree():
    assert seg(0, 2).degree == 3
    assert Segment(CuspidalLabel("tau", 2), 0, 2).degree == 6


def test_derivative_shortens_right_end():
    assert Multisegment([seg(0, 2)]).derivative() == Multisegment([seg(0, 1)])


def test_derivative_deletes_singletons():
    assert Multisegment([seg(0, 0)]).derivative() == Multisegment()


def test_derivative_degree_drop():
    ms = Multisegment([seg(0, 2), seg(1, 3), seg(5, 5)])
    assert ms.degree - ms.derivative().degree == 3


def test_multiset_semantics():
    assert Multisegment([seg(0, 1), seg(0, 1)]) != Multisegment([seg(0, 1)])
    assert Multisegment([seg(0, 1), seg(2, 3)]) == Multisegment([seg(2, 3), seg(0, 1)])
