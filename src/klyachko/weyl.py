"""Exponent-vector and coset combinatorics behind the residue
computation of Eisenstein constant terms.

Everything lives on the block level: for a group of rank t*r cut into t
blocks of size r, exponent vectors are length-t tuples of exact
rationals, the relevant Weyl elements are permutations of the blocks,
and a parabolic containing the blocks is a composition of t.  A
permutation w of [1, t] is the list of its images (w(1), ..., w(t)).
The staircase vector Lambda_t = ((t-1)/2, ..., (1-t)/2) is the point
where the multi-residue is taken.

Permutations act on exponent vectors by (w . v)_j = v_{w^-1(j)}, but
nothing here applies that action: on the staircase it reduces to the
images of w.  Lambda_k = (t+1)/2 - k, so
(w . Lambda_t)_j - (w . Lambda_t)_{j+1} = w^-1(j+1) - w^-1(j), and with
j = w(k) that step is 1 exactly when w(k+1) = w(k) + 1.

The coset representatives w^(i) = (1 2 ... i) are walked, not rebuilt
one by one: w^(i) = w^(i-1) (i-1 i), so a step swaps the images at
positions i-1 and i of one image list.  Two lemmas make each step cost
a constant number of interpreter steps:

- whether the pair k is a descent, w(k) > w(k+1), or a unit ascent,
  w(k+1) = w(k) + 1, reads only w(k) and w(k+1), so the swap changes
  only the pairs k = i-2, i-1 and i;
- multiplying by (a b) on the right, with b fixed, puts b right after a
  in the cycle of a and leaves every other cycle alone.  w^(i-1) fixes
  i and sends i-1 to 1, so the cycle through 1, listed from 1, grows by
  i at its end, and every point off it stays fixed.
"""

from __future__ import annotations

from itertools import compress, count

from .errors import InvariantViolation, UnsupportedComposition


def residue_survival(t: int) -> dict:
    """Pole bookkeeping for each coset representative w^(i), t = 2m+1,
    as the `residue-survival` payload without `meta`.  The t reduced
    representatives for the (r, 2mr) parabolic are the cycles
    w^(i) = (1 2 ... i), each the unique one with w^(i)(i) = 1, walked
    from the identity w^(1) (see the module docstring).

    The multi-residue multiplies by all 2m factors lambda_j - lambda_{j+1}
    - 1 vanishing at Lambda_t, so a term survives iff it supplies poles
    of total order 2m.  Two sources are counted from first principles:

    - descents of w (first-order poles of the intertwining operator),
    - the bookkeeping set: positions w^-1(j) for interior indices j of
      the (1, 2m) block composition where (w . Lambda_t) steps down by
      exactly 1, i.e. residue hyperplanes of the inner Eisenstein series
      that pass through Lambda_t.  That step is w^-1(j+1) - w^-1(j), so
      the set is read off the images of w as its unit ascents
      w(k+1) = w(k) + 1 with w(k) interior, i.e. in [2, t-1]; w(k+1) <= t
      caps w(k) at t-1, so only w(k) > 1 is tested.
    """
    if t < 3 or t % 2 == 0:
        raise UnsupportedComposition(f"t must be odd and >= 3, got t = {t}")
    m = (t - 1) // 2
    names = list(map(str, range(t + 1)))
    # w[k] = w(k) for k in [1, t]; the sentinels 0 and t + 2 keep the
    # pairs k = 0 and k = t in range, and neither is ever flagged
    w = [0, *range(1, t + 1), t + 2]
    descent = bytearray(t + 1)
    unit_ascent = bytearray(t + 1)
    cycle = [1]  # the cycle of w through 1, from 1
    changed = range(t + 1)
    terms = []
    for i in range(1, t + 1):
        if i > 1:
            if w[i] != i or w[i - 1] != 1:
                raise InvariantViolation(f"w^({i - 1}) does not fix {i} and send {i - 1} to 1")
            w[i - 1], w[i] = w[i], w[i - 1]
            cycle.append(i)
            changed = range(i - 2, i + 1)
        for k in changed:
            a, b = w[k], w[k + 1]
            descent[k] = a > b
            unit_ascent[k] = b - a == 1 < a
        descents = list(compress(count(), descent))
        bookkeeping = list(compress(count(), unit_ascent))
        pole_order = len(bookkeeping) + len(descents)
        terms.append({
            "i": i,
            "cycle": "(" + " ".join(map(names.__getitem__, cycle)) + ")" if len(cycle) > 1 else "e",
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
