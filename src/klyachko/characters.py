"""Exact character theory of GL_n(F_q) in a mod-ell arena.

The irreducible table comes from the Dixon-Schneider class-sum method.
The central characters omega(K_j) = |C_j| chi(g_j) / chi(1) are the
common eigenvectors of the class matrices M_i, whose entries
(M_i)_{jk} = a_{ij}^k are the structure constants of
K_i K_j = sum_k a_{ij}^k K_k.  The split starts from the
central-character spaces, the joint eigenspaces of the central class
matrices, built in closed form: the scalar w I permutes the classes
(`groups.scalar_class_map`), so M_{wI} is a permutation matrix and its
eigenvectors are read off the orbits (see `_central_spaces`; Schneider,
J. Symbolic Comput. 9, 1990).  It then visits only the non-central
classes, rational classes first: the first class in ascending
(size, index) order of each rational class (the classes of g^a, a
prime to the order of g, each power read through the row images of g),
then the other classes in the same order.  Over the complex numbers a
class of a rational class already visited separates no characters that
the visited one leaves together, because chi(g^a)/chi(1) is a Galois
conjugate of chi(g)/chi(1); modulo ell that need not hold, so the class
stays in the queue.  Each class splits every space that is not yet a
line: only the rows of M_i at the space's pivot columns are computed,
|C_i| products each, the d x d restriction of M_i to the space is
diagonalised, and the kernel of each eigenvalue becomes a new space.
A product x g_j is read row by row: the table's elements are tuples of
row codes, and row r of x g_j is the entry of `groups.row_images(g_j)`
at row r of x; then one lookup in the table's element-to-class map
gives its class.  When every space is a line its vector is a central
character.  A restriction that is a scalar leaves its space whole with
no characteristic polynomial: class matrices act diagonalisably, so one
eigenvalue means a scalar.  Otherwise the eigenvalues are the roots of
the characteristic polynomial chi, found as gcd(x^ell - x, s) on its
squarefree part s = chi / gcd(chi, chi') and separated by
Cantor-Zassenhaus equal-degree splitting with the shifts 0, 1, 2, ...;
nothing is random.  All linear algebra is over Z/ell, so every
identity below is checked exactly, never to a tolerance; the row and
column orthogonality of the finished table are one dot product mod ell
per pair of characters and per pair of classes.

Induced characters of (H, psi) are evaluated from the subgroup side:
grouping the Frobenius sum chi(g) = |H|^-1 sum_{x: xgx^-1 in H}
psi(xgx^-1) by conjugacy class gives
chi(c) = |G| * S_c / (|H| * |c|) with S_c = sum over H-members in class
c of psi.  The members come from `groups.enumerate_h` as row codes, so
each is a key of the table's class map as it is, and
`groups.psi_r_trace` reads psi_r off its top rows.  The tests
cross-check it against the literal sum over all of G.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import mul

from .arena import ModularArena, zpoly_divmod, zpoly_gcd, zpoly_powmod, zpoly_sub, zpoly_trim
from .errors import ArenaMismatch, EigenSplitFailure, InvariantViolation
from .groups import (
    GroupTable,
    KlyachkoSubgroupSpec,
    encode_rows,
    enumerate_h,
    psi_r_trace,
    row_images,
    scalar_class_map,
)


@dataclass(frozen=True)
class ClassFunction:
    """One residue mod ell per conjugacy class, class order as in the table."""

    arena: ModularArena
    values: tuple[int, ...]

    def dimension(self, table: GroupTable) -> int:
        v = self.values[table.identity_class()]
        return self.arena.lift_bounded(v, 0, self.arena.group_order, "dimension")


def class_multiplication_tensor(table: GroupTable, i: int, rows: list[int],
                                images: dict | None = None) -> list[list[int]]:
    """Rows j in `rows` of the class matrix M_i, a slice of the tensor
    a[i][j][k] = #{(x, y) in C_i x C_j : xy = g_k}, g_k the class reps.

    Conjugating y to g_j gives a[i][j][k] = |C_j| * #{x in C_i : x g_j in C_k} / |C_k|,
    so a row costs |C_i| products and no inverses.  Row r of x g_j is
    (row r of x) g_j, so a product is n lookups in the row images of
    g_j, one per row column of the members.  The row images of g_j are
    kept in `images` under j, so a caller that passes one dict to
    several calls builds each at most once.
    """
    classes = table.classes
    class_of = table.class_of
    columns = list(zip(*compress(class_of, map(i.__eq__, class_of.values()))))
    if images is None:
        images = {}
    out = []
    for j in rows:
        size_j = classes[j].size
        image = _row_image(table, j, images)
        products = zip(*[map(image, col) for col in columns])
        counts = Counter(map(class_of.__getitem__, products))
        row = [0] * len(classes)
        for k, cnt in counts.items():
            row[k], rem = divmod(size_j * cnt, classes[k].size)
            if rem:
                raise InvariantViolation(
                    f"|C_{j}| * {cnt} is not divisible by |C_{k}| = {classes[k].size} (class {i})"
                )
        out.append(row)
    return out


def _row_image(table: GroupTable, c: int, images: dict):
    """The lookup v -> v g of the representative g of class c, kept in
    `images` under c, so that each is built once per dict."""
    image = images.get(c)
    if image is None:
        image = images[c] = row_images(table.classes[c].representative, table.n,
                                       table.field).__getitem__
    return image


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
    """The distinct roots in Z/ell of a nonzero polynomial f (ascending
    coefficients) of degree below ell, in ascending order.

    The squarefree part s = f / gcd(f, f') has the same roots, each once:
    deg f < ell keeps every multiplicity m below ell, so f' holds each
    factor of f exactly m - 1 times.  g = gcd(x^ell - x, s) has one
    linear factor per root; the powering runs modulo s, whose degree is
    the number of distinct roots when f splits into linear factors, as
    the characteristic polynomial of a diagonalisable restriction does.
    Cantor-Zassenhaus splits g with gcd(g, (x + a)^((ell - 1)/2) - 1) for
    a = 0, 1, 2, ... (ell is an odd prime).
    """
    f = zpoly_trim([c % ell for c in coeffs])
    if len(f) - 1 >= ell:
        raise ValueError(f"degree {len(f) - 1} is not below ell = {ell}")
    if len(f) < 2:
        return []
    derivative = zpoly_trim([d * c % ell for d, c in enumerate(f)][1:])
    s = zpoly_divmod(f, zpoly_gcd(f, derivative, ell), ell)[0]
    roots: list[int] = []
    pending = [zpoly_gcd(s, zpoly_sub(zpoly_powmod([0, 1], ell, s, ell), [0, 1], ell), ell)]
    half = (ell - 1) // 2
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % ell)  # g is monic: x + g_0
            continue
        if len(g) < 2:
            continue
        for a in range(ell):
            h = zpoly_gcd(g, zpoly_sub(zpoly_powmod([a, 1], half, g, ell), [1], ell), ell)
            if 1 < len(h) < len(g):
                pending += [h, zpoly_divmod(g, h, ell)[0]]  # both monic
                break
        else:
            raise InvariantViolation(f"no shift separates the roots of a degree {len(g) - 1} factor")
    return sorted(roots)


def _rref(rows: list[list[int]], ell: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod ell of the span of `rows`: its
    nonzero rows and their pivot columns."""
    a = [[v % ell for v in row] for row in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots: list[int] = []
    for col in range(n_cols):
        r0 = len(pivots)
        piv = next((r for r in range(r0, n_rows) if a[r][col]), None)
        if piv is None:
            continue
        a[r0], a[piv] = a[piv], a[r0]
        inv_p = pow(a[r0][col], ell - 2, ell)
        prow = a[r0] = [v * inv_p % ell for v in a[r0]]
        for r in range(n_rows):
            f = a[r][col]
            if r != r0 and f:
                a[r] = [(x - f * y) % ell for x, y in zip(a[r], prow)]
        pivots.append(col)
        if len(pivots) == n_rows:
            break
    return a[:len(pivots)], pivots


def _kernel_basis(mat: list[list[int]], ell: int) -> list[list[int]]:
    """A basis of {v : mat v = 0} mod ell, one vector per free column."""
    n = len(mat[0])
    red, pivots = _rref(mat, ell)
    out = []
    for fc in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[fc] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[fc] % ell
        out.append(v)
    return out


def _split_space(basis: list[list[int]], pivots: list[int], m_rows: dict[int, list[int]],
                 ell: int) -> list[tuple[list[list[int]], list[int]]]:
    """The eigenspaces of a class matrix on the invariant space spanned by
    `basis` (RREF, pivot columns `pivots`), each in RREF.

    Coordinates of a vector of the space are its entries at the pivots,
    so the restriction needs only the rows of M at the pivots.  A scalar
    restriction leaves the space whole with no characteristic polynomial.
    Class matrices act diagonalisably on an invariant space, so one with
    a single eigenvalue that is not a scalar fails the dimension check.
    """
    d = len(basis)
    restricted = [[sum(map(mul, m_rows[p], b)) % ell for b in basis] for p in pivots]
    lam = restricted[0][0]
    if all(v == (lam if r == c else 0)
           for r, row in enumerate(restricted) for c, v in enumerate(row)):
        return [(basis, pivots)]
    parts = []
    for lam in _roots_mod(_charpoly_mod(restricted, ell), ell):
        shifted = [[(v - lam) % ell if r == c else v for c, v in enumerate(row)]
                   for r, row in enumerate(restricted)]
        vectors = []
        for coords in _kernel_basis(shifted, ell):
            v = [0] * len(basis[0])
            for cr, b in zip(coords, basis):
                if cr:
                    v = [x + cr * y for x, y in zip(v, b)]
            vectors.append(v)
        parts.append(_rref(vectors, ell))
    if sum(len(b) for b, _ in parts) != d:
        raise InvariantViolation(
            f"eigenspaces of dimensions {[len(b) for b, _ in parts]} do not fill a space of dimension {d}"
        )
    return parts


def _rational_class(table: GroupTable, c: int, images: dict) -> set[int]:
    """The classes of g^a for every a prime to the order of g, the
    representative of class c; each power is the one before times g, its
    rows mapped through the row images of g."""
    n, q = table.n, table.q
    image = _row_image(table, c, images)
    ident = encode_rows(table.identity(), n, q)
    powers = [encode_rows(table.classes[c].representative, n, q)]
    while powers[-1] != ident:
        powers.append(tuple(map(image, powers[-1])))
    order = len(powers)
    return {table.class_of[x] for a, x in enumerate(powers, 1) if math.gcd(a, order) == 1}


def _central_spaces(table: GroupTable, arena: ModularArena,
                    ) -> list[tuple[list[list[int]], list[int]]]:
    """The joint eigenspaces of the central class matrices, each in RREF
    with its pivot columns, written down with no linear algebra.

    The central classes are the scalars w^a I, and K_{wI} K_j = K_{w g_j},
    so M_{wI} is the permutation matrix of `scalar_class_map`, sigma, and
    the other central M are its powers.  M_{wI} v = mu v reads
    v_sigma(j) = mu v_j, so each orbit O of sigma with mu^|O| = 1 gives one
    eigenvector: 1 at the least class of O and mu^t at its t-th class
    along sigma.  The eigenvalues are the powers of zeta = zeta_m^(m/(q-1)),
    and each orbit gives |O| vectors in all, so the dimensions add up to N.
    The vectors of one eigenvalue have disjoint supports, so they are
    already in RREF with the orbit minima as pivots.
    """
    shift = scalar_class_map(table)
    n_cls, ell = len(shift), arena.ell
    orbits, seen = [], [False] * n_cls
    for start in range(n_cls):  # ascending, so each orbit starts at its least class
        if seen[start]:
            continue
        orbit, c = [], start
        while not seen[c]:
            seen[c] = True
            orbit.append(c)
            c = shift[c]
        orbits.append(orbit)
    zeta = pow(arena.zeta_m, arena.m // (table.q - 1), ell)
    spaces = []
    for k in range(table.q - 1):
        mu = pow(zeta, k, ell)
        basis, pivots = [], []
        for orbit in orbits:
            if pow(mu, len(orbit), ell) != 1:
                continue
            v, x = [0] * n_cls, 1
            for c in orbit:
                v[c], x = x, x * mu % ell
            basis.append(v)
            pivots.append(orbit[0])
        if basis:
            spaces.append((basis, pivots))
    if sum(len(basis) for basis, _ in spaces) != n_cls:
        raise InvariantViolation(
            f"central eigenspaces of dimensions {[len(b) for b, _ in spaces]} do not fill {n_cls}"
        )
    return spaces


def _visit_order(table: GroupTable, images: dict):
    """The non-central classes: one per rational class, then the rest,
    each group in ascending (size, index) order."""
    classes = table.classes
    seen: set[int] = set()
    rest = []
    for c in sorted((c for c in range(len(classes)) if classes[c].size > 1),
                    key=lambda c: (classes[c].size, c)):
        if c in seen:
            rest.append(c)
        else:
            seen |= _rational_class(table, c, images)
            yield c
    yield from rest


def character_table(table: GroupTable, arena: ModularArena) -> list[ClassFunction]:
    """All irreducible characters, sorted by (dimension, values)."""
    _check_arena(table, arena)
    classes = table.classes
    ell = arena.ell
    e_idx = table.identity_class()
    # invariant spaces as (RREF basis, pivot columns), from the central ones
    spaces = _central_spaces(table, arena)
    images: dict = {}  # row images of the class representatives, for this call only
    visit = _visit_order(table, images)
    while any(len(basis) > 1 for basis, _ in spaces):
        i = next(visit, None)
        if i is None:
            raise EigenSplitFailure(
                f"class matrices leave eigenspaces of dimensions "
                f"{sorted(len(b) for b, _ in spaces if len(b) > 1)} unsplit"
            )
        rows = [p for basis, pivots in spaces if len(basis) > 1 for p in pivots]
        m_rows = dict(zip(rows, class_multiplication_tensor(table, i, rows, images)))
        spaces = [part for basis, pivots in spaces
                  for part in (_split_space(basis, pivots, m_rows, ell) if len(basis) > 1
                               else [(basis, pivots)])]
    omegas = []
    for (v,), _ in spaces:
        if v[e_idx] == 0:
            raise InvariantViolation("a central character vanishes on the identity class")
        scale = pow(v[e_idx], ell - 2, ell)
        omegas.append([x * scale % ell for x in v])
    inv_sizes = [pow(c.size, ell - 2, ell) for c in classes]
    inv_map = [c.inverse_class for c in classes]
    chars = [_character_from_central(om, inv_sizes, inv_map, table.order, arena) for om in omegas]
    chars.sort(key=lambda cf: (cf.values[e_idx], cf.values))
    verify_orthogonality(chars, table, arena)
    return chars


def _character_from_central(omega: list[int], inv_sizes: list[int], inv_map: list[int],
                            order: int, arena: ModularArena) -> ClassFunction:
    """The character d omega(K_c) / |c| of a central character omega,
    with d^2 = |G| / sum_c omega(K_c) omega(K_c^-1) / |c|; `inv_sizes`
    holds the 1 / |c| mod ell."""
    ell = arena.ell
    s = sum(map(mul, map(mul, omega, map(omega.__getitem__, inv_map)), inv_sizes)) % ell
    if s == 0:
        raise InvariantViolation("degenerate central character")
    d_sq = arena.lift_bounded(order * pow(s, ell - 2, ell) % ell, 1, order, "squared dimension")
    d = math.isqrt(d_sq)
    if d * d != d_sq:
        raise InvariantViolation(f"dimension^2 = {d_sq} is not a perfect square")
    return ClassFunction(arena, tuple(w * d * inv % ell for w, inv in zip(omega, inv_sizes)))


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
    computed table; raises InvariantViolation on any mismatch.

    Each check is one dot product mod ell: a row against the vector
    |c| chi_b(c^-1) of the other, a column against another column.
    Columns c and c' have dot product |G| / |c| when c' is the inverse
    class of c and 0 otherwise; both sides are symmetric in c and c', so
    each pair is checked once.
    """
    ell = arena.ell
    classes = table.classes
    n_cls = len(classes)
    if any(cf.arena != arena for cf in chars):
        raise ArenaMismatch("class functions from different arenas")
    if len(chars) != n_cls:
        raise InvariantViolation(f"{len(chars)} characters for {n_cls} classes")
    dims = [cf.dimension(table) for cf in chars]
    if sum(d * d for d in dims) != table.order:
        raise InvariantViolation("sum of squared dimensions != |G|")
    inv_map = [c.inverse_class for c in classes]
    sizes = [c.size for c in classes]
    inv_order = pow(table.order, ell - 2, ell)
    weighted = [list(map(mul, sizes, map(cf.values.__getitem__, inv_map))) for cf in chars]
    for a in range(n_cls):
        row = chars[a].values
        for b in range(a, n_cls):
            want = 1 if a == b else 0
            if sum(map(mul, row, weighted[b])) % ell * inv_order % ell != want:
                raise InvariantViolation(f"row orthogonality failed at ({a}, {b})")
    columns = list(zip(*(cf.values for cf in chars)))
    for c in range(n_cls):
        col, want = columns[c], table.order // sizes[c] % ell
        for c2 in range(c, n_cls):
            if sum(map(mul, col, columns[c2])) % ell != (want if c2 == inv_map[c] else 0):
                raise InvariantViolation(f"column orthogonality failed at ({c}, {c2})")


def _check_arena(table: GroupTable, arena: ModularArena) -> None:
    if arena.group_order != table.order:
        raise ArenaMismatch(
            f"arena built for |G| = {arena.group_order}, table has {table.order}"
        )
    if arena.p != table.field.p:
        raise ArenaMismatch(f"arena p = {arena.p}, field p = {table.field.p}")


def induced_klyachko_character(table: GroupTable, spec: KlyachkoSubgroupSpec,
                               arena: ModularArena) -> ClassFunction:
    """Character of the Klyachko model Ind_{H_{r,2k}}^{G}(psi_r), by the
    class-sum evaluation over the members of H_{r,2k}."""
    if spec.n != table.n:
        raise ArenaMismatch(f"spec is for n = {spec.n}, table has n = {table.n}")
    _check_arena(table, arena)
    field, ell = table.field, arena.ell
    if spec.psi_generator % field.p == 0:
        raise ValueError("psi_generator must be nonzero mod p (psi nontrivial)")
    zeta = pow(arena.zeta_p, spec.psi_generator, ell)
    psi_values = [pow(zeta, t, ell) for t in range(field.p)]  # psi of a trace in [0, p)
    class_of = table.class_of
    members = enumerate_h(spec, field)
    sums = [0] * len(table.classes)
    for el in members:
        c = class_of[el]
        sums[c] = (sums[c] + psi_values[psi_r_trace(el, spec, field)]) % ell
    h_size = len(members)
    if table.order % h_size:
        raise InvariantViolation("|H| does not divide |G|")
    vals = []
    for s_c, cls in zip(sums, table.classes):
        denom_inv = pow(h_size * cls.size % ell, ell - 2, ell)
        vals.append(table.order % ell * s_c % ell * denom_inv % ell)
    cf = ClassFunction(arena, tuple(vals))
    # induced dimension must lift to the exact index [G : H]
    got = cf.dimension(table)
    if got != table.order // h_size:
        raise InvariantViolation(f"chi(e) lifted to {got}, expected index {table.order // h_size}")
    return cf
