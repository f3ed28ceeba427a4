"""Test oracles: matrix and subgroup helpers that the library itself
does not need, written plainly so the tests can check it against them."""

from klyachko.gf import mat_mul
from klyachko.groups import symplectic_form


def gl_order(n, q):
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    qn = q**n
    out = 1
    for i in range(n):
        out *= qn - q**i
    return out


def mat_transpose(a, n):
    return tuple(a[j * n + i] for i in range(n) for j in range(n))


def mat_det(a, n, field):
    """The determinant by Gaussian elimination over the field tables."""
    q, mul, sub = field.q, field.mul, field.sub
    m = [list(a[i * n:(i + 1) * n]) for i in range(n)]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = field.neg[det]
        pval = m[col][col]
        det = mul[det * q + pval]
        pinv = field.inv[pval]
        for r in range(col + 1, n):
            f = mul[m[r][col] * q + pinv]
            if f:
                mrow, crow = m[r], m[col]
                for c in range(col, n):
                    mrow[c] = sub[mrow[c] * q + mul[f * q + crow[c]]]
    return det


def sp_membership_flat(g, k, field):
    """t(g) J g == J by two matrix products (Sp(0) is the empty matrix)."""
    if k == 0:
        return g == ()
    n = 2 * k
    j = symplectic_form(k, field)
    return mat_mul(mat_mul(mat_transpose(g, n), j, n, field), g, n, field) == j


def h_membership_flat(g, spec, field):
    """Membership in H_{r,2k}: zero lower-left block, U_r upper-left,
    Sp(2k) lower-right."""
    r, k, n = spec.r, spec.k, spec.n
    if any(g[i * n + j] for i in range(r, n) for j in range(r)):
        return False
    for i in range(r):
        for j in range(i + 1):
            if g[i * n + j] != (1 if i == j else 0):
                return False
    s = 2 * k
    return sp_membership_flat(tuple(g[(r + i) * n + (r + j)] for i in range(s) for j in range(s)),
                              k, field)
