"""Tadic parameters as plain values, their highest derivatives, and the
model-assignment map kappa.

A Block (paired, name, dual, degree, d, t, alpha) names the twisted Speh
representation U(delta, t)[alpha], where delta is the square-integrable
representation built from d singleton segments of an opaque cuspidal
rho of G_degree; dual marks the formal contragredient rho~, and nothing
else about rho is modeled.  A paired block stands for U(delta,t)[alpha]
x U(delta,t)[-alpha] and keeps alpha >= 0.  A parameter is a sorted
tuple of blocks; the field order is the sort order, and
paramparse.parse_parameter is the one place that builds, checks and
sorts them.  By Tadic's classification the unitary parameters are
exactly those with plain alpha = 0 and paired 0 < alpha < 1/2.

The highest derivative of a product of plain blocks is read off the
shape alone, blockwise (t, alpha) -> (t - 1, alpha - 1/2), of order the
sum of the delta-degrees degree * d; the tests check this against the
segment calculus of the block's multisegment.

kappa reads the Klyachko type, the pair (r, k) naming the model
H_{r,2k} with psi_r, straight off the block shape: blocks of odd t
contribute their delta-degree to the Whittaker rank r, and every block
contributes floor(t/2) * delta-degree to the symplectic half-rank k, so
r + 2k = n always.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import EmptyBlock

HALF = Fraction(1, 2)


class Block(NamedTuple):
    paired: bool
    name: str
    dual: bool
    degree: int
    d: int
    t: int
    alpha: Fraction


def block_text(b: Block) -> str:
    """U(name~:degree,d,t)@alpha, or P(U(name~:degree,d,t),alpha) for a pair."""
    u = f"U({b.name}{'~' if b.dual else ''}:{b.degree},{b.d},{b.t})"
    return f"P({u},{b.alpha})" if b.paired else f"{u}@{b.alpha}"


def parameter_text(param) -> str:
    return " x ".join(map(block_text, param))


def parameter_degree(param) -> int:
    """n of G_n: degree * d * t per block, a paired block counting twice."""
    return sum((1 + b.paired) * b.degree * b.d * b.t for b in param)


def expanded_blocks(param) -> list[Block]:
    """The product of plain blocks: each pair as its +alpha then its -alpha block."""
    out = []
    for b in param:
        plain = b._replace(paired=False)
        out.append(plain)
        if b.paired:
            out.append(plain._replace(alpha=-b.alpha))
    return out


def product_highest_derivative(blocks: list[Block]) -> tuple[int, list[Block]]:
    """One highest-derivative step of a product of plain blocks.

    The derivative order is the sum of the delta-degrees; each block
    steps down blockwise and exhausted blocks leave the product.
    """
    if any(b.t < 1 for b in blocks):
        raise EmptyBlock("all blocks must have t >= 1")
    order = sum(b.degree * b.d for b in blocks)
    return order, [Block(paired, name, dual, degree, d, t - 1, alpha - HALF)
                   for paired, name, dual, degree, d, t, alpha in blocks if t > 1]


def kappa(param) -> tuple[int, int]:
    """(r, k): Whittaker rank from odd-t blocks, half-rank floor(t/2) per block."""
    r = 0
    k = 0
    for b in param:
        delta_degree = (1 + b.paired) * b.degree * b.d
        r += (b.t % 2) * delta_degree
        k += (b.t // 2) * delta_degree
    return r, k


def validate_unitary(param) -> bool:
    """Tadic's gate: plain blocks sit at alpha = 0, paired ones inside
    the open interval (0, 1/2)."""
    return all(0 < b.alpha < HALF if b.paired else b.alpha == 0 for b in param)
