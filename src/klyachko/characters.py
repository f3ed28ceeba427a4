"""Exact character theory of GL_n(F_q) in a mod-ell arena.

The irreducible table comes from the classical class-sum method: the
central characters are the common eigenvectors of the class
multiplication matrices, which are split simultaneously by one random
linear combination (seeded, retried on the rare split failure).  All
linear algebra is over Z/ell, so every identity below is checked
exactly, never to a tolerance.

Induced characters of (H, psi) are evaluated from the subgroup side:
grouping the Frobenius sum chi(g) = |H|^-1 sum_{x: xgx^-1 in H}
psi(xgx^-1) by conjugacy class gives
chi(c) = |G| * S_c / (|H| * |c|) with S_c = sum over H-members in class
c of psi.  The tests cross-check it against the literal sum over all
of G.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .arena import ModularArena
from .errors import ArenaMismatch, EigenSplitFailure, InvariantViolation
from .groups import (
    GroupTable,
    KlyachkoSubgroupSpec,
    enumerate_h,
    psi_r_trace_flat,
)
from .gf import mat_mul

DEFAULT_SEED = 20259


@dataclass(frozen=True)
class ClassFunction:
    """One residue mod ell per conjugacy class, class order as in the table."""

    arena: ModularArena
    values: tuple[int, ...]

    def dimension(self, table: GroupTable) -> int:
        v = self.values[table.identity_class()]
        return self.arena.lift_bounded(v, 0, self.arena.group_order, "dimension")


def class_multiplication_tensor(table: GroupTable) -> list[list[list[int]]]:
    """a[k][i][j] = #{(x, y) in C_i x C_j : xy = g_k}, g_k the class reps.

    One pass of |G| products per class k: y = x^-1 g_k always lands in a
    unique class j, so each x contributes to exactly one (i, j) cell.
    """
    classes = table.classes
    n_cls = len(classes)
    n, field = table.n, table.field
    class_of = table.class_of
    index_of = table.index_of
    inverses = table.inverses()
    tensor = [[[0] * n_cls for _ in range(n_cls)] for _ in range(n_cls)]
    for k, cls in enumerate(classes):
        gk = cls.representative
        tk = tensor[k]
        for idx in range(table.order):
            y = mat_mul(inverses[idx], gk, n, field)
            tk[class_of[idx]][class_of[index_of[y]]] += 1
    return tensor


def _charpoly_mod(mat: list[list[int]], ell: int) -> list[int]:
    """Characteristic polynomial mod ell (ascending coefficients),
    via similarity reduction to upper Hessenberg form."""
    n = len(mat)
    h = [row[:] for row in mat]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k] % ell), None)
        if piv is None:
            continue
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        inv_p = pow(h[k + 1][k], ell - 2, ell)
        for i in range(k + 2, n):
            f = h[i][k] * inv_p % ell
            if f:
                hi, hk1 = h[i], h[k + 1]
                for j in range(k, n):
                    hi[j] = (hi[j] - f * hk1[j]) % ell
                for row in h:
                    row[k + 1] = (row[k + 1] + f * row[i]) % ell
    polys: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        pm = [0] * (m + 1)
        a = h[m - 1][m - 1]
        for d, c in enumerate(prev):
            pm[d + 1] = (pm[d + 1] + c) % ell
            pm[d] = (pm[d] - a * c) % ell
        beta = 1
        for i in range(1, m):
            beta = beta * h[m - i][m - i - 1] % ell
            if beta == 0:
                break
            coef = h[m - 1 - i][m - 1] * beta % ell
            if coef:
                for d, c in enumerate(polys[m - 1 - i]):
                    pm[d] = (pm[d] - coef * c) % ell
        polys.append(pm)
    return polys[n]


def _roots_mod(coeffs: list[int], ell: int) -> list[int]:
    """All roots in Z/ell by direct scan (ell is desk-scale here)."""
    roots = []
    rev = list(reversed([c % ell for c in coeffs]))
    for x in range(ell):
        acc = 0
        for c in rev:
            acc = (acc * x + c) % ell
        if acc == 0:
            roots.append(x)
    return roots


def _kernel_vector(mat: list[list[int]], lam: int, ell: int) -> list[int] | None:
    """A basis vector of ker(mat - lam*I) if it is 1-dimensional."""
    n = len(mat)
    a = [[(mat[i][j] - (lam if i == j else 0)) % ell for j in range(n)] for i in range(n)]
    pivot_row_of_col: dict[int, int] = {}
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv_p = pow(a[row][col], ell - 2, ell)
        a[row] = [v * inv_p % ell for v in a[row]]
        arow = a[row]
        for r in range(n):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [(a[r][j] - f * arow[j]) % ell for j in range(n)]
        pivot_row_of_col[col] = row
        row += 1
    free = [c for c in range(n) if c not in pivot_row_of_col]
    if len(free) != 1:
        return None
    fc = free[0]
    v = [0] * n
    v[fc] = 1
    for c, r in pivot_row_of_col.items():
        v[c] = -a[r][fc] % ell
    return v


def character_table(table: GroupTable, arena: ModularArena,
                    seed: int = DEFAULT_SEED, attempts: int = 20) -> list[ClassFunction]:
    """All irreducible characters, sorted by (dimension, values)."""
    _check_arena(table, arena)
    classes = table.classes
    n_cls = len(classes)
    ell = arena.ell
    sizes = [c.size for c in classes]
    inv_map = [c.inverse_class for c in classes]
    e_idx = table.identity_class()
    tensor = class_multiplication_tensor(table)

    for attempt in range(attempts):
        rng = random.Random(seed * 1000003 + attempt)
        mix = [rng.randrange(ell) for _ in range(n_cls)]
        b = [[0] * n_cls for _ in range(n_cls)]
        for k in range(n_cls):
            tk = tensor[k]
            for i in range(n_cls):
                ri = mix[i]
                if ri:
                    tki = tk[i]
                    for j in range(n_cls):
                        if tki[j]:
                            b[j][k] = (b[j][k] + ri * tki[j]) % ell
        roots = _roots_mod(_charpoly_mod(b, ell), ell)
        if len(roots) != n_cls:
            continue
        omegas = []
        for lam in roots:
            v = _kernel_vector(b, lam, ell)
            if v is None or v[e_idx] == 0:
                omegas = None
                break
            scale = pow(v[e_idx], ell - 2, ell)
            omegas.append([x * scale % ell for x in v])
        if omegas is None:
            continue
        chars = [_character_from_central(om, sizes, inv_map, table.order, arena) for om in omegas]
        chars.sort(key=lambda cf: (cf.values[e_idx], cf.values))
        verify_orthogonality(chars, table, arena)
        return chars
    raise EigenSplitFailure(f"class sums failed to split after {attempts} attempts")


def _character_from_central(omega: list[int], sizes: list[int], inv_map: list[int],
                            order: int, arena: ModularArena) -> ClassFunction:
    ell = arena.ell
    s = 0
    for i, w in enumerate(omega):
        s = (s + w * omega[inv_map[i]] % ell * pow(sizes[i], ell - 2, ell)) % ell
    if s == 0:
        raise InvariantViolation("degenerate central character")
    d_sq = arena.lift_bounded(order * pow(s, ell - 2, ell) % ell, 1, order, "squared dimension")
    d = math.isqrt(d_sq)
    if d * d != d_sq:
        raise InvariantViolation(f"dimension^2 = {d_sq} is not a perfect square")
    vals = tuple(
        omega[i] * d % ell * pow(sizes[i], ell - 2, ell) % ell for i in range(len(omega))
    )
    return ClassFunction(arena, vals)


def inner_product_residue(a: ClassFunction, b: ClassFunction, table: GroupTable) -> int:
    """<a, b> = |G|^-1 sum_c |c| a(c) b(c^-1), as a residue mod ell."""
    arena = a.arena
    if arena != b.arena:
        raise ArenaMismatch("class functions from different arenas")
    ell = arena.ell
    acc = 0
    for c, cls in enumerate(table.classes):
        acc = (acc + cls.size * a.values[c] % ell * b.values[cls.inverse_class]) % ell
    return acc * pow(table.order, ell - 2, ell) % ell


def multiplicity(chi_model: ClassFunction, chi_irr: ClassFunction, table: GroupTable) -> int:
    """<chi_model, chi_irr> lifted to an integer in [0, dim chi_model]."""
    res = inner_product_residue(chi_model, chi_irr, table)
    bound = chi_model.dimension(table)
    return chi_model.arena.lift_bounded(res, 0, bound, "multiplicity")


def verify_orthogonality(chars: list[ClassFunction], table: GroupTable, arena: ModularArena) -> None:
    """Exact row/column orthogonality and the dimension identity of a
    computed table; raises InvariantViolation on any mismatch."""
    ell = arena.ell
    n_cls = len(table.classes)
    if len(chars) != n_cls:
        raise InvariantViolation(f"{len(chars)} characters for {n_cls} classes")
    dims = [cf.dimension(table) for cf in chars]
    if sum(d * d for d in dims) != table.order:
        raise InvariantViolation("sum of squared dimensions != |G|")
    for a in range(n_cls):
        for b in range(a, n_cls):
            want = 1 if a == b else 0
            if inner_product_residue(chars[a], chars[b], table) != want:
                raise InvariantViolation(f"row orthogonality failed at ({a}, {b})")
    inv_map = [c.inverse_class for c in table.classes]
    for c in range(n_cls):
        for cp in range(n_cls):
            acc = 0
            for cf in chars:
                acc = (acc + cf.values[c] * cf.values[inv_map[cp]]) % ell
            want = table.order // table.classes[c].size if c == cp else 0
            if acc != want % ell:
                raise InvariantViolation(f"column orthogonality failed at ({c}, {cp})")


def _check_arena(table: GroupTable, arena: ModularArena) -> None:
    if arena.group_order != table.order:
        raise ArenaMismatch(
            f"arena built for |G| = {arena.group_order}, table has {table.order}"
        )
    if arena.p != table.field.p:
        raise ArenaMismatch(f"arena p = {arena.p}, field p = {table.field.p}")


def induced_character(table: GroupTable, arena: ModularArena,
                      members: list[tuple[int, ...]],
                      exponents: list[int] | None = None,
                      zeta: int = 1) -> ClassFunction:
    """Character induced from a subgroup given by its member list and
    character values zeta^exponent (class-sum evaluation)."""
    _check_arena(table, arena)
    ell = arena.ell
    n_cls = len(table.classes)
    class_of = table.class_of
    index_of = table.index_of
    zpow = {0: 1}
    sums = [0] * n_cls
    for pos, el in enumerate(members):
        ex = exponents[pos] if exponents is not None else 0
        zp = zpow.get(ex)
        if zp is None:
            zp = zpow[ex] = pow(zeta, ex, ell)
        c = class_of[index_of[el]]
        sums[c] = (sums[c] + zp) % ell
    h_size = len(members)
    if table.order % h_size:
        raise InvariantViolation("|H| does not divide |G|")
    vals = []
    for c in range(n_cls):
        denom_inv = pow(h_size * table.classes[c].size % ell, ell - 2, ell)
        vals.append(table.order % ell * sums[c] % ell * denom_inv % ell)
    cf = ClassFunction(arena, tuple(vals))
    # induced dimension must lift to the exact index [G : H]
    got = cf.dimension(table)
    if got != table.order // h_size:
        raise InvariantViolation(f"chi(e) lifted to {got}, expected index {table.order // h_size}")
    return cf


def induced_klyachko_character(table: GroupTable, spec: KlyachkoSubgroupSpec,
                               arena: ModularArena) -> ClassFunction:
    """Character of the Klyachko model Ind_{H_{r,2k}}^{G}(psi_r)."""
    if spec.n != table.n:
        raise ArenaMismatch(f"spec is for n = {spec.n}, table has n = {table.n}")
    _check_arena(table, arena)
    field = table.field
    if spec.psi_generator % field.p == 0:
        raise ValueError("psi_generator must be nonzero mod p (psi nontrivial)")
    zeta = pow(arena.zeta_p, spec.psi_generator, arena.ell)
    members = enumerate_h(spec, field, ambient=table)
    exps = [psi_r_trace_flat(el, spec, field) for el in members]
    return induced_character(table, arena, members, exps, zeta)
