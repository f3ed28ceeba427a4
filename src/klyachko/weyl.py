"""Exponent-vector and coset combinatorics behind the residue
computation of Eisenstein constant terms.

Everything lives on the block level: for a group of rank t*r cut into t
blocks of size r, exponent vectors are length-t tuples of exact
rationals, the relevant Weyl elements are permutations of the blocks,
and a parabolic containing the blocks is a composition of t.  The
staircase vector Lambda_t = ((t-1)/2, ..., (1-t)/2) is the point where
the multi-residue is taken.

Permutations act on exponent vectors by (w . v)_j = v_{w^-1(j)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import gt, ne, sub

from .errors import UnsupportedComposition

Vector = tuple  # of exact rationals


def interior_indices(composition: tuple[int, ...]) -> list[int]:
    """Delta^L: the adjacent pairs (j, j+1) lying inside one block of
    the composition, 1-based."""
    out = []
    pos = 0
    for m in composition:
        out.extend(range(pos + 1, pos + m))
        pos += m
    return out


@dataclass(frozen=True)
class WeylElement:
    """A permutation of [1, t], stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        t = len(self.images)
        if sorted(self.images) != list(range(1, t + 1)):
            raise ValueError(f"not a permutation of [1, {t}]: {self.images}")

    @classmethod
    def cycle(cls, t: int, i: int) -> "WeylElement":
        """The cycle (1, 2, ..., i) inside S_t: j -> j+1 for j < i, i -> 1."""
        return cls((*range(2, i + 1), 1, *range(i + 1, t + 1)))

    @property
    def t(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def inverse(self) -> "WeylElement":
        """w^-1 in one pass over the images (on CPython 3.11 this plain loop
        is faster than a dict position map or a keyed sort)."""
        inv = [0] * self.t
        for j, img in enumerate(self.images, start=1):
            inv[img - 1] = j
        return WeylElement(tuple(inv))

    def apply(self, vec: Vector) -> Vector:
        """(w . v)_j = v_{w^-1(j)}: one lookup pass of w^-1's images into
        the vector, padded so that the 1-based images index it."""
        if len(vec) != self.t:
            raise ValueError("vector length mismatch")
        return tuple(map((None, *vec).__getitem__, self.inverse().images))

    def cycle_string(self) -> str:
        """The disjoint cycles, each from its least point, walked on the
        images from the moved points only; "e" for the identity."""
        images = self.images
        seen = [False] * (self.t + 1)
        parts = []
        for start in compress(count(1), map(ne, images, count(1))):
            if seen[start]:
                continue
            orbit = [start]
            nxt = images[start - 1]
            while nxt != start:
                orbit.append(nxt)
                seen[nxt] = True
                nxt = images[nxt - 1]
            parts.append("(" + " ".join(map(str, orbit)) + ")")
        return "".join(parts) or "e"


def descent_set(w: WeylElement) -> list[int]:
    """{i in [1, t-1] : w(i) > w(i+1)}, ascending."""
    images = w.images
    return list(compress(count(1), map(gt, images, images[1:])))


def coset_reps(t: int) -> list[WeylElement]:
    """The t reduced representatives for the (r, 2mr) parabolic, t = 2m+1
    odd: w^(i) = (1, 2, ..., i), the unique one with w^(i)(i) = 1."""
    if t < 1 or t % 2 == 0:
        raise UnsupportedComposition(
            f"only compositions of type (r, 2mr) with t = 2m+1 odd are supported, got t = {t}"
        )
    return [WeylElement.cycle(t, i) for i in range(1, t + 1)]


def residue_survival(t: int) -> dict:
    """Pole bookkeeping for each coset representative w^(i), t = 2m+1,
    as the `residue-survival` payload without `meta`.

    The multi-residue multiplies by all 2m factors lambda_j - lambda_{j+1}
    - 1 vanishing at Lambda_t, so a term survives iff it supplies poles
    of total order 2m.  Two sources are counted from first principles:

    - descents of w (first-order poles of the intertwining operator),
    - positions w^-1(j) for interior indices j of the (1, 2m) block
      composition where (w . Lambda_t) steps down by exactly 1, i.e.
      residue hyperplanes of the inner Eisenstein series that pass
      through Lambda_t.  For i > 1 this set equals [1, 2m] minus
      {i-1, i}; for the identity it is [2, 2m], which is why the
      identity term also dies.
    """
    if t < 3 or t % 2 == 0:
        raise UnsupportedComposition(f"t must be odd and >= 3, got t = {t}")
    m = (t - 1) // 2
    lam2 = tuple(t - 1 - 2 * j for j in range(t))  # 2 Lambda_t, in integers: a step of 1 is 2
    inner = frozenset(interior_indices((1, t - 1)))
    terms = []
    for i, w in enumerate(coset_reps(t), start=1):
        moved = w.apply(lam2)
        # steps[j-1] = moved_j - moved_{j+1}; the residue hyperplanes through
        # Lambda_t are the interior j with a step of exactly 2
        steps = map(sub, moved, moved[1:])
        through = inner.intersection(compress(count(1), map((2).__eq__, steps)))
        # w^-1(through): the positions k with w(k) in through, ascending
        bookkeeping = list(compress(count(1), map(through.__contains__, w.images)))
        descents = descent_set(w)
        pole_order = len(bookkeeping) + len(descents)
        terms.append({
            "i": i,
            "cycle": w.cycle_string(),
            "descents": descents,
            "bookkeeping": bookkeeping,
            "pole_order": pole_order,
            "survives": pole_order >= 2 * m,
        })
    return {
        "t": t,
        "m": m,
        "required_order": 2 * m,
        "terms": terms,
        "survivors": [term["i"] for term in terms if term["survives"]],
        "w_q_index": t,
    }
