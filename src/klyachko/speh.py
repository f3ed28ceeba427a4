"""Speh blocks, Tadic parameters, highest derivatives, and the
model-assignment map kappa.

A cuspidal label rho names an irreducible cuspidal of G_degree; dual
marks the formal contragredient rho~, and nothing else about it is
modeled.  A SpehBlock (rho, d, t, alpha) names the twisted Speh
representation U(delta, t)[alpha], where delta is the square-integrable
representation built from d singleton segments of rho.  Its highest
derivative is read off the shape alone, (t, alpha) -> (t - 1,
alpha - 1/2), of order the degree of delta; the tests check this
against the segment calculus of the block's multisegment.

A TadicParameter is a multiset of blocks, each either plain or paired
(standing for U(delta,t)[alpha] x U(delta,t)[-alpha]); by Tadic's
classification the unitary ones are exactly those with plain alpha = 0
and paired 0 < alpha < 1/2.

kappa reads the Klyachko type, the pair (r, k) naming the model
H_{r,2k} with psi_r, straight off the block shape: blocks of odd t
contribute their delta-degree to the Whittaker rank r, and every block
contributes floor(t/2) * delta-degree to the symplectic half-rank k, so
r + 2k = n always.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import EmptyBlock


@dataclass(frozen=True)
class CuspidalLabel:
    """An opaque cuspidal representation of G_degree; dual marks rho~."""

    name: str
    degree: int = 1
    dual: bool = False

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"cuspidal degree must be >= 1, got {self.degree}")


@dataclass(frozen=True)
class SpehBlock:
    rho: CuspidalLabel
    d: int
    t: int
    alpha: Fraction = Fraction(0)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if not isinstance(self.alpha, Fraction):
            object.__setattr__(self, "alpha", Fraction(self.alpha))

    @property
    def delta_degree(self) -> int:
        """Degree of the square-integrable delta itself."""
        return self.rho.degree * self.d

    @property
    def degree(self) -> int:
        return self.delta_degree * self.t

    @property
    def is_empty(self) -> bool:
        return self.t == 0

    def highest_derivative(self) -> "SpehBlock":
        """(rho, d, t, alpha) -> (rho, d, t-1, alpha - 1/2)."""
        if self.t == 0:
            raise EmptyBlock("t = 0 block has no derivative")
        return replace(self, t=self.t - 1, alpha=self.alpha - Fraction(1, 2))

    def sort_key(self) -> tuple:
        return (self.rho.name, self.rho.dual, self.rho.degree, self.d, self.t, self.alpha)

    def __str__(self) -> str:
        name = self.rho.name + ("~" if self.rho.dual else "")
        return f"U({name}:{self.rho.degree},{self.d},{self.t})@{self.alpha}"


def product_highest_derivative(blocks: list[SpehBlock]) -> tuple[int, list[SpehBlock]]:
    """One highest-derivative step of a product of Speh blocks.

    The derivative order is the sum of the delta-degrees; each block
    steps down blockwise and exhausted blocks leave the product.
    """
    for b in blocks:
        if b.t < 1:
            raise EmptyBlock("all blocks must have t >= 1")
    order = sum(b.delta_degree for b in blocks)
    stepped = [b.highest_derivative() for b in blocks]
    return order, [b for b in stepped if not b.is_empty]


@dataclass(frozen=True)
class ParamBlock:
    block: SpehBlock
    paired: bool = False

    def __post_init__(self):
        if self.paired and self.block.alpha < 0:
            object.__setattr__(self, "block", replace(self.block, alpha=-self.block.alpha))

    @property
    def degree(self) -> int:
        return self.block.degree * (2 if self.paired else 1)

    def expanded(self) -> list[SpehBlock]:
        if self.paired:
            return [self.block, replace(self.block, alpha=-self.block.alpha)]
        return [self.block]

    def sort_key(self) -> tuple:
        return (self.paired,) + self.block.sort_key()

    def __str__(self) -> str:
        if self.paired:
            inner = str(replace(self.block, alpha=Fraction(0)))
            return f"P({inner[: inner.index('@')]},{self.block.alpha})"
        return str(self.block)


@dataclass(frozen=True)
class TadicParameter:
    """Multiset of plain/paired Speh blocks; t = 0 entries are dropped."""

    entries: tuple[ParamBlock, ...]

    def __init__(self, entries=()):
        kept = [e for e in entries if not e.block.is_empty]
        object.__setattr__(
            self, "entries", tuple(sorted(kept, key=ParamBlock.sort_key))
        )

    @property
    def n(self) -> int:
        return sum(e.degree for e in self.entries)

    def expanded_blocks(self) -> list[SpehBlock]:
        out = []
        for e in self.entries:
            out.extend(e.expanded())
        return out

    def __str__(self) -> str:
        return " x ".join(str(e) for e in self.entries)


def kappa(param: TadicParameter) -> tuple[int, int]:
    """(r, k): Whittaker rank from odd-t blocks, half-rank floor(t/2) per block."""
    r = 0
    k = 0
    for block in param.expanded_blocks():
        if block.t % 2 == 1:
            r += block.delta_degree
        k += (block.t // 2) * block.delta_degree
    return r, k


def validate_unitary(param: TadicParameter) -> bool:
    """Tadic's gate: plain blocks sit at alpha = 0, paired ones inside
    the open interval (0, 1/2)."""
    for e in param.entries:
        if e.paired:
            if not (0 < e.block.alpha < Fraction(1, 2)):
                return False
        elif e.block.alpha != 0:
            return False
    return True
