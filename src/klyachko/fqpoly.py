"""Polynomials over F_q and invariant factors of matrices.

Polynomials are tuples of coefficient codes in ascending degree with no
trailing zeros; the zero polynomial is ().  The conjugacy-class key of
g in GL_n(F_q) is the tuple of non-constant invariant factors of the
characteristic matrix xI - g, computed by Smith-form elimination over
the Euclidean domain F_q[x].  Two matrices are conjugate iff their keys
are equal; groups computes the key once per class representative and
finds the class members by conjugation orbits.
"""

from __future__ import annotations

from .gf import FiniteField

Poly = tuple  # coefficient codes, ascending degree, no trailing zeros


def poly_trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a: Poly, b: Poly, field: FiniteField) -> Poly:
    q, add = field.q, field.add
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add[out[i] * q + c]
    return poly_trim(out)


def poly_sub(a: Poly, b: Poly, field: FiniteField) -> Poly:
    q, sub = field.q, field.sub
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = sub[out[i] * q + c]
    return poly_trim(out)


def poly_scale(a: Poly, c: int, field: FiniteField) -> Poly:
    if c == 0:
        return ()
    q, mul = field.q, field.mul
    return poly_trim([mul[x * q + c] for x in a])


def poly_mul(a: Poly, b: Poly, field: FiniteField) -> Poly:
    if not a or not b:
        return ()
    q, mul, add = field.q, field.mul, field.add
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = add[out[i + j] * q + mul[ca * q + cb]]
    return poly_trim(out)


def poly_divmod(a: Poly, b: Poly, field: FiniteField) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q, mul, sub = field.q, field.mul, field.sub
    lead_inv = field.inv[b[-1]]
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    while len(rem) - 1 >= db and rem:
        f = mul[rem[-1] * q + lead_inv]
        shift = len(rem) - 1 - db
        quo[shift] = f
        for i, cb in enumerate(b):
            rem[shift + i] = sub[rem[shift + i] * q + mul[f * q + cb]]
        while rem and rem[-1] == 0:
            rem.pop()
    return poly_trim(quo), poly_trim(rem)


def poly_monic(a: Poly, field: FiniteField) -> Poly:
    if not a or a[-1] == 1:
        return a
    return poly_scale(a, field.inv[a[-1]], field)


def char_matrix(g: tuple[int, ...], n: int, field: FiniteField) -> list[list[Poly]]:
    """xI - g as an n x n matrix of polynomials."""
    neg = field.neg
    m: list[list[Poly]] = []
    for i in range(n):
        row = []
        for j in range(n):
            c = neg[g[i * n + j]]
            if i == j:
                row.append((c, 1))
            else:
                row.append((c,) if c else ())
        m.append(row)
    return m


def smith_diagonal(m: list[list[Poly]], field: FiniteField) -> list[Poly]:
    """Smith form diagonal of a square polynomial matrix, monic, d_i | d_{i+1}.

    Standard elimination over F_q[x]: pull a minimal-degree pivot to
    (t, t), kill its row and column by division (remainders strictly
    drop the pivot degree, so this terminates), then absorb any entry
    the pivot fails to divide and repeat.
    """
    n = len(m)
    for t in range(n):
        while True:
            # minimal-degree nonzero entry in the trailing block
            best = None
            for i in range(t, n):
                row = m[i]
                for j in range(t, n):
                    e = row[j]
                    if e and (best is None or len(e) < len(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break  # trailing block is zero
            bi, bj = best
            if bi != t:
                m[t], m[bi] = m[bi], m[t]
            if bj != t:
                for row in m:
                    row[t], row[bj] = row[bj], row[t]
            pivot = m[t][t]
            dirty = False
            for i in range(t + 1, n):
                if m[i][t]:
                    quo, rem = poly_divmod(m[i][t], pivot, field)
                    if quo:
                        row_i, row_t = m[i], m[t]
                        for j in range(t, n):
                            row_i[j] = poly_sub(row_i[j], poly_mul(quo, row_t[j], field), field)
                    if rem:
                        dirty = True
            for j in range(t + 1, n):
                if m[t][j]:
                    quo, rem = poly_divmod(m[t][j], pivot, field)
                    if quo:
                        for i in range(t, n):
                            m[i][j] = poly_sub(m[i][j], poly_mul(quo, m[i][t], field), field)
                    if rem:
                        dirty = True
            if dirty:
                continue
            # pivot must divide everything that remains
            offender = None
            for i in range(t + 1, n):
                row = m[i]
                for j in range(t + 1, n):
                    if row[j] and poly_divmod(row[j], pivot, field)[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_o, row_t = m[offender], m[t]
            for j in range(t, n):
                row_t[j] = poly_add(row_t[j], row_o[j], field)
    return [poly_monic(m[i][i], field) for i in range(n)]


def invariant_factors(g: tuple[int, ...], n: int, field: FiniteField) -> tuple[Poly, ...]:
    """Non-constant invariant factors of xI - g, ascending divisibility."""
    diag = smith_diagonal(char_matrix(g, n, field), field)
    return tuple(d for d in diag if len(d) > 1)
