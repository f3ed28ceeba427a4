import random
from fractions import Fraction

import pytest

from klyachko.segments import (
    CuspidalLabel,
    Multisegment,
    Segment,
    admissible_order,
    segment_precedes,
)

RHO = CuspidalLabel("rho")


def seg(a, b, base=RHO):
    return Segment(base, Fraction(a), Fraction(b))


def test_label_shift_additive():
    assert RHO.shifted(Fraction(1, 2)).shifted(Fraction(1, 2)) == RHO.shifted(1)


def test_label_dual_involution():
    tau = CuspidalLabel("tau", 2, Fraction(1, 2))
    assert tau.dualized().dualized() == tau
    sd = CuspidalLabel("sigma", 1, self_dual=True)
    assert sd.dualized() == sd


def test_segment_normalizes_base_shift():
    shifted = Segment(RHO.shifted(Fraction(1, 2)), 0, 2)
    assert shifted.base == RHO
    assert (shifted.a, shifted.b) == (Fraction(1, 2), Fraction(5, 2))
    assert shifted.length == 3


def test_segment_rejects_bad_span():
    with pytest.raises(ValueError):
        Segment(RHO, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        Segment(RHO, 2, 0)


def test_segment_degree():
    assert seg(0, 2).degree == 3
    assert Segment(CuspidalLabel("tau", 2), 0, 2).degree == 6


def test_precedes_examples():
    assert segment_precedes(seg(0, 1), seg(2, 3))       # union [0,3], shift 2
    assert not segment_precedes(seg(0, 3), seg(1, 2))   # contained
    assert not segment_precedes(seg(0, 1), seg(3, 4))   # union not a segment


def test_precedes_needs_same_line():
    other = CuspidalLabel("tau")
    assert not segment_precedes(seg(0, 1), seg(2, 3, other))
    # same name but half-integer offset: shift equation unsolvable
    assert not segment_precedes(seg(0, 1), Segment(RHO, Fraction(3, 2), Fraction(5, 2)))


def test_precedes_irreflexive_asymmetric():
    rng = random.Random(1)
    for _ in range(500):
        s1 = seg(rng.randrange(-3, 4), rng.randrange(3, 8))
        s2 = seg(rng.randrange(-3, 4), rng.randrange(3, 8))
        assert not segment_precedes(s1, s1)
        assert not (segment_precedes(s1, s2) and segment_precedes(s2, s1))


def test_admissible_order_example():
    ms = Multisegment([seg(0, 1), seg(2, 3)])
    assert admissible_order(ms) == [seg(2, 3), seg(0, 1)]


def test_admissible_order_singleton_and_distinct_lines():
    single = Multisegment([seg(0, 2)])
    assert admissible_order(single) == [seg(0, 2)]
    tau = CuspidalLabel("tau")
    two_lines = Multisegment([seg(0, 1), seg(0, 1, tau)])
    ordered = admissible_order(two_lines)
    assert sorted(s.base.name for s in ordered) == ["rho", "tau"]


def test_admissible_order_property_random():
    rng = random.Random(77)
    labels = [RHO, CuspidalLabel("tau"), CuspidalLabel("rho", 2)]
    for _ in range(300):
        segs = []
        for _ in range(rng.randrange(1, 9)):
            a = Fraction(rng.randrange(-4, 5), rng.choice((1, 2)))
            segs.append(Segment(rng.choice(labels), a, a + rng.randrange(4)))
        ordered = admissible_order(Multisegment(segs))
        for i, earlier in enumerate(ordered):
            for later in ordered[i + 1:]:
                assert not segment_precedes(earlier, later)


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


def test_segment_points():
    pts = seg(-1, 1).points()
    assert pts == [RHO.shifted(-1), RHO, RHO.shifted(1)]
