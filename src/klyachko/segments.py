"""Zelevinsky segment calculus over abstract cuspidal labels.

A cuspidal label rho names an irreducible cuspidal of G_degree together
with an exact rational twist; nothing else about it is modeled.  The
segment [a, b]^(rho) stands for the set {rho[a+i] : 0 <= i <= b - a};
twists on the base label are normalized into the endpoints so multiset
equality is plain structural equality.  Shifts that occur in practice
are half-integers, but any Fraction is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import InvariantViolation

Rational = Fraction | int


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class CuspidalLabel:
    """Opaque cuspidal representation of G_degree, twisted by shift.

    dual marks the formal contragredient rho~; a label declared
    self_dual is its own dual.  Shifting is additive:
    (rho[x])[y] = rho[x + y].
    """

    name: str
    degree: int = 1
    shift: Fraction = Fraction(0)
    dual: bool = False
    self_dual: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"cuspidal degree must be >= 1, got {self.degree}")
        object.__setattr__(self, "shift", _frac(self.shift))
        if self.self_dual and self.dual:
            object.__setattr__(self, "dual", False)

    def shifted(self, y: Rational) -> "CuspidalLabel":
        return replace(self, shift=self.shift + _frac(y))

    def dualized(self) -> "CuspidalLabel":
        """(rho[x])~ = rho~[-x], with rho~ = rho for self-dual labels."""
        flipped = self.dual if self.self_dual else not self.dual
        return replace(self, shift=-self.shift, dual=flipped)

    def __str__(self) -> str:
        base = self.name + ("~" if self.dual else "")
        if self.shift:
            return f"{base}[{self.shift}]"
        return base


@dataclass(frozen=True)
class Segment:
    """[a, b]^(rho) with b - a a nonnegative integer; rho unshifted."""

    base: CuspidalLabel
    a: Fraction
    b: Fraction

    def __post_init__(self):
        a = _frac(self.a) + self.base.shift
        b = _frac(self.b) + self.base.shift
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.base.shift:
            object.__setattr__(self, "base", replace(self.base, shift=Fraction(0)))
        span = self.b - self.a
        if span.denominator != 1 or span < 0:
            raise ValueError(f"b - a must be a nonnegative integer, got {span}")

    @property
    def length(self) -> int:
        return int(self.b - self.a) + 1

    @property
    def degree(self) -> int:
        return self.base.degree * self.length

    def points(self) -> list[CuspidalLabel]:
        return [self.base.shifted(self.a + i) for i in range(self.length)]

    def contains(self, other: "Segment") -> bool:
        return (
            self.base == other.base
            and (other.a - self.a).denominator == 1
            and self.a <= other.a
            and other.b <= self.b
        )

    def shortened(self) -> "Segment | None":
        """Right end dropped: [a, b-1], or None when the segment empties."""
        if self.b - 1 < self.a:
            return None
        return Segment(self.base, self.a, self.b - 1)

    def dualized(self) -> "Segment":
        return Segment(self.base.dualized(), -self.b, -self.a)

    def sort_key(self) -> tuple:
        return (self.base.name, self.base.dual, self.base.degree, self.a, self.b)

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]^({self.base})"


def segment_precedes(first: Segment, second: Segment) -> bool:
    """Zelevinsky's precedes: second is not contained in first, starts a
    positive integer further along the same line, and the union is again
    a segment."""
    if first.base != second.base:
        return False
    k = second.a - first.a
    if k.denominator != 1 or k <= 0:
        return False
    if first.contains(second):
        return False
    return second.a <= first.b + 1


@dataclass(frozen=True)
class Multisegment:
    """Finite multiset of segments, stored canonically sorted."""

    segments: tuple[Segment, ...]

    def __init__(self, segments: Iterable[Segment] = ()):
        object.__setattr__(
            self, "segments", tuple(sorted(segments, key=Segment.sort_key))
        )

    @property
    def degree(self) -> int:
        return sum(s.degree for s in self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __add__(self, other: "Multisegment") -> "Multisegment":
        return Multisegment(self.segments + other.segments)

    def derivative(self) -> "Multisegment":
        """The multiset a^-: every segment loses its right endpoint and
        emptied segments disappear (highest-derivative combinatorics)."""
        out = []
        for seg in self.segments:
            short = seg.shortened()
            if short is not None:
                out.append(short)
        return Multisegment(out)

    def dualized(self) -> "Multisegment":
        return Multisegment(s.dualized() for s in self.segments)

    def __str__(self) -> str:
        return "{" + ", ".join(str(s) for s in self.segments) + "}"


def admissible_order(a: Multisegment) -> list[Segment]:
    """An ordering where no earlier segment precedes a later one.

    Sorting by (line, decreasing right endpoint, decreasing left
    endpoint) always works: precedes(x, y) forces y to reach strictly
    further right than x on the same line.  The non-precedence condition
    is re-verified pairwise before returning.
    """
    ordered = sorted(
        a.segments,
        key=lambda s: (s.base.name, s.base.dual, s.base.degree, -s.b, -s.a),
    )
    for i, earlier in enumerate(ordered):
        for later in ordered[i + 1:]:
            if segment_precedes(earlier, later):
                raise InvariantViolation("sort failed the non-precedence check")
    return ordered
