"""Exponent-vector and coset combinatorics behind the residue
computation of Eisenstein constant terms.

Everything lives on the block level: for a group of rank t*r cut into t
blocks of size r, exponent vectors are length-t tuples of exact
rationals, the relevant Weyl elements are permutations of the blocks,
and a parabolic containing the blocks is a composition of t.  A
permutation w of [1, t] is the plain tuple of its images
(w(1), ..., w(t)).  The staircase vector
Lambda_t = ((t-1)/2, ..., (1-t)/2) is the point where the
multi-residue is taken.

Permutations act on exponent vectors by (w . v)_j = v_{w^-1(j)}, but
nothing here applies that action: on the staircase it reduces to the
images of w.  Lambda_k = (t+1)/2 - k, so
(w . Lambda_t)_j - (w . Lambda_t)_{j+1} = w^-1(j+1) - w^-1(j), and with
j = w(k) that step is 1 exactly when w(k+1) = w(k) + 1.
"""

from __future__ import annotations

from itertools import compress, count
from operator import and_, eq, gt, ne

from .errors import UnsupportedComposition


def cycle_string(images: tuple[int, ...]) -> str:
    """The disjoint cycles of the permutation with these images, each
    from its least point, walked on the images from the moved points
    only; "e" for the identity."""
    seen = [False] * (len(images) + 1)
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


def descent_set(images: tuple[int, ...]) -> list[int]:
    """{i in [1, t-1] : w(i) > w(i+1)}, ascending."""
    return list(compress(count(1), map(gt, images, images[1:])))


def bookkeeping_set(images: tuple[int, ...]) -> list[int]:
    """w^-1 of the residue hyperplanes through Lambda_t for the (1, t-1)
    block composition, ascending: the k with w(k+1) = w(k) + 1 and w(k)
    interior, i.e. in [2, t-1] (see the module docstring).  w(k+1) <= t
    caps w(k) at t-1, so only w(k) > 1 is tested."""
    return list(compress(count(1), map(and_, map(eq, images[1:], map((1).__add__, images)),
                                       map((1).__lt__, images))))


def residue_survival(t: int) -> dict:
    """Pole bookkeeping for each coset representative w^(i), t = 2m+1,
    as the `residue-survival` payload without `meta`.  The t reduced
    representatives for the (r, 2mr) parabolic are the cycles
    w^(i) = (1 2 ... i), each the unique one with w^(i)(i) = 1; each is
    built, read and dropped in turn.

    The multi-residue multiplies by all 2m factors lambda_j - lambda_{j+1}
    - 1 vanishing at Lambda_t, so a term survives iff it supplies poles
    of total order 2m.  Two sources are counted from first principles:

    - descents of w (first-order poles of the intertwining operator),
    - the bookkeeping set: positions w^-1(j) for interior indices j of
      the (1, 2m) block composition where (w . Lambda_t) steps down by
      exactly 1, i.e. residue hyperplanes of the inner Eisenstein series
      that pass through Lambda_t.  That step is w^-1(j+1) - w^-1(j), so
      the set is read off the images of w as its unit ascents
      w(k+1) = w(k) + 1 with w(k) interior (`bookkeeping_set`).  For
      i > 1 it equals [1, 2m] minus {i-1, i}; for the identity it is
      [2, 2m], which is why the identity term also dies.
    """
    if t < 3 or t % 2 == 0:
        raise UnsupportedComposition(f"t must be odd and >= 3, got t = {t}")
    m = (t - 1) // 2
    terms = []
    for i in range(1, t + 1):
        w = (*range(2, i + 1), 1, *range(i + 1, t + 1))
        bookkeeping = bookkeeping_set(w)
        descents = descent_set(w)
        pole_order = len(bookkeeping) + len(descents)
        terms.append({
            "i": i,
            "cycle": cycle_string(w),
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
