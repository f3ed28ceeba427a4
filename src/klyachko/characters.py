"""Exact character theory of GL_n(F_q) in a mod-ell arena.

A character (or any class function) is a tuple of residues mod ell, one
per conjugacy class in the table's class order, and every function that
reads one is passed its arena beside it; `dimension` lifts chi(1) to an
integer in [0, |G|].

The irreducible table comes from the Dixon-Schneider class-sum method.
The central characters omega(K_j) = |C_j| chi(g_j) / chi(1) are the
common eigenvectors of the class matrices M_i, whose entries
(M_i)_{jk} = a_{ij}^k are the structure constants of
K_i K_j = sum_k a_{ij}^k K_k.  The split starts from the
central-character spaces, the joint eigenspaces of the central class
matrices, built in closed form: the scalar w I permutes the classes
(`groups.scalar_class_map`), so M_{wI} is a permutation matrix and its
eigenvectors are read off the orbits (see `_central_spaces`; Schneider,
J. Symbolic Comput. 9, 1990).  It then queues only the non-central
classes, rational classes first: the first class in ascending
(size, index) order of each rational class (the classes of g^a, a
prime to the order of g, each power read through the row images of g),
then the other classes in the same order.  Over the complex numbers a
class of a rational class already visited separates no characters that
the visited one leaves together, because chi(g^a)/chi(1) is a Galois
conjugate of chi(g)/chi(1); modulo ell that need not hold, so the class
stays in the queue.  Two exact rules skip what cannot split anything.
(1) M_sigma^t(j) = M_{wI}^t M_j acts as mu^t M_j on every space, so
the queue keeps one class per orbit of sigma (`_visit_order`).
(2) chibar(g) = chi(g^-1), so a real class takes one value on chi and
chibar and acts as a scalar on the plane of omega_chi and
omega_chibar; a real class requests no rows for such a plane
(`_conjugate_pair`), and a visit with no rows left computes nothing.
A wrong skip could at worst leave a space unsplit, which raises
EigenSplitFailure.  Each visited class splits every other space that
is not yet a line: only the rows of M_i at the space's pivot columns
are computed, once per visit for a column several spaces share, each
counted over the smaller of C_i and C_j (a_ij^k = a_ji^k, as class
sums are central), the d x d restriction of M_i to the space is
diagonalised, and the kernel of each eigenvalue becomes a new space.
The members of every class come with the table (`GroupTable.members`),
so no visit scans the whole group.  A product
x g is read row by row: row r of x g is the entry of
`groups.row_images(g)` at row r of x, so with tables of the rows of
each chunk of rows at their places the code of x g is a sum of one
lookup per chunk (`groups.products`, for all of a class at once), and
one index into the table's label array gives its class.  When every
space is a line its vector is a central character.
A restriction that is a scalar leaves its space whole with no
characteristic polynomial: class matrices act diagonalisably, so one
eigenvalue means a scalar.
Otherwise the restriction is brought to upper Hessenberg form H by one
recorded similarity (`_hessenberg`), and the eigenvalues are the roots
of its characteristic polynomial chi, read off H, on its squarefree
part s = chi / gcd(chi, chi').  A squarefree factor of degree 1 or 2 is
solved by formula, the square root of its discriminant by
Tonelli-Shanks.  For a larger s one powering h = x^((ell - 1)/2) mod s,
on packed integers (`arena.zpoly_powmod`), gives both the linear part
gcd(s, x h^2 - x) = gcd(s, x^ell - x) and its first Cantor-Zassenhaus
split (Math. Comp. 36, 1981), and the factors of degree above 2 are
split further with the shifts 1, 2, ..., each factor resuming after the
shift that made it; nothing is random.  Each eigenspace is the kernel
of H - lambda I, where each column is eliminated only among the rows
still without a pivot and the one row that starts there, O(d^2) where a
dense elimination is O(d^3), mapped back through the recorded
similarity and put in RREF in the coordinates of its parent space
(`_eigenspace`); it is then mapped back to all N columns still in RREF
(see `_split_space`).  All linear algebra is over Z/ell, so every
identity below is checked exactly, never to a tolerance.  The row
orthogonality of the finished table is one packed sum per character,
holding its relations with itself and every later character, which
covers every pair as the relations are symmetric; over Z/ell the row
relations imply the column relations (see `verify_orthogonality`).

Only one central space per twist orbit is split.  Twisting by
lambda(det) permutes the irreducibles and keeps degrees, and
(chi lambda(det))(g) = lambda(det g) chi(g), so
omega_{chi lambda(det)}(K_c) = lambda(det g_c) omega_chi(K_c) and the
central character moves from mu to mu lambda(w^n).  With
det g_c = w^(a_c) (`groups.det_class_map`) and lambda_j(w^a) = zeta^(j a),
D_j = diag(zeta^(j a_c)) maps the lines of space k onto those of space
k + n j mod (q - 1).  So the split keeps the spaces k < gcd(n, q - 1),
one per orbit (`_twists`), normalises only its final lines and turns
only them into characters, and twists those characters to the rest of
each orbit, c -> zeta^(j a_c) chi(c), checking that each lands in its
space and that each space gets its dimension in lines (`_carry`).  The
degree of a twist is not derived again: twisting keeps it.

Induced characters of (H, psi) are evaluated from the subgroup side:
grouping the Frobenius sum chi(g) = |H|^-1 sum_{x: xgx^-1 in H}
psi(xgx^-1) by conjugacy class gives
chi(c) = |G| * S_c / (|H| * |c|) with S_c = sum over H-members in class
c of psi.  The members come from `groups.enumerate_h` as element codes,
so each is an index into the table's label array as it is, and
`groups.psi_r_trace` reads psi_r off its digits.  The tests
cross-check it against the literal sum over all of G.  The
multiplicities of all N irreducibles in one model come from one weight
vector over the classes, one weighted sum per irreducible
(`multiplicity`).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Callable
from functools import cache
from operator import mul

from .arena import (
    ModularArena,
    zpoly_divmod,
    zpoly_gcd,
    zpoly_mulmod,
    zpoly_powmod,
    zpoly_sub,
    zpoly_trim,
)
from .errors import ArenaMismatch, EigenSplitFailure, InvariantViolation
from .gf import mat_identity
from .groups import (
    GroupTable,
    chunk_columns,
    chunk_images,
    det_class_map,
    encode,
    enumerate_h,
    product_code,
    products,
    psi_r_trace,
    scalar_class_map,
)


def dimension(chi: tuple[int, ...], table: GroupTable, arena: ModularArena) -> int:
    """chi(1), lifted from its residue to an integer in [0, |G|]."""
    return arena.lift_bounded(chi[table.identity_class()], 0, table.order, "dimension")


def class_multiplication_tensor(table: GroupTable, i: int, rows: list[int], columns: Callable,
                                images: Callable) -> list[list[int]]:
    """Rows j in `rows` of the class matrix M_i, a slice of the tensor
    a[i][j][k] = #{(x, y) in C_i x C_j : xy = g_k}, g_k the class reps;
    `columns(c)` gives the chunk columns of the members of class c
    (`groups.chunk_columns`) and `images(c)` the chunk images of its
    representative (`groups.chunk_images`).

    Conjugating y to g_j gives a[i][j][k] = |C_j| * #{x in C_i : x g_j in C_k} / |C_k|,
    and class sums are central, so K_i K_j = K_j K_i and the same count
    with i and j swapped, |C_i| * #{y in C_j : y g_i in C_k} / |C_k|, is
    the same entry.  Each row is counted over the smaller of C_i and C_j
    (C_i on a tie), so it costs min(|C_i|, |C_j|) products and no
    inverses.  Row r of x g is (row r of x) g, so a product is one
    lookup per chunk of rows in the chunk images of g, summed
    (`groups.products`).  A caller that memoizes `columns` and `images`
    builds each at most once over several calls.
    """
    classes = table.classes
    labels = table.labels
    size_i = classes[i].size
    out = []
    for j in rows:
        small, other = (j, i) if classes[j].size < size_i else (i, j)
        size = classes[other].size
        counts = Counter(map(labels.__getitem__, products(columns(small), images(other))))
        row = [0] * len(classes)
        for k, cnt in counts.items():
            row[k], rem = divmod(size * cnt, classes[k].size)
            if rem:
                raise InvariantViolation(
                    f"|C_{other}| * {cnt} is not divisible by |C_{k}| = {classes[k].size} "
                    f"(row {j} of class {i})"
                )
        out.append(row)
    return out


def _hessenberg(mat: list[list[int]], ell: int) -> tuple[list[list[int]], list]:
    """An upper Hessenberg H = S^-1 mat S mod ell and the steps of S.

    Column k is cleared below row k + 1 by one similarity: swap rows and
    columns k + 1 and piv, the first row below row k with a nonzero entry
    in column k, then subtract f_i times row k + 1 from each row i > k + 1
    and add f_i times column i to column k + 1.  A column with nothing
    to clear takes no step, so H may be reduced (a zero subdiagonal
    entry).  Each step is (k + 1, piv, [(i, f_i), ...]); S u applies
    them to u from the last: u_i += f_i u_(k+1), then swap entries
    k + 1 and piv (`_eigenspace`)."""
    n = len(mat)
    h = [row[:] for row in mat]
    steps = []
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k] % ell), None)
        if piv is None:
            continue
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        inv_p = pow(h[k + 1][k], ell - 2, ell)
        factors = []
        for i in range(k + 2, n):
            f = h[i][k] * inv_p % ell
            if f:
                hi, hk1 = h[i], h[k + 1]
                for j in range(k, n):
                    hi[j] = (hi[j] - f * hk1[j]) % ell
                for row in h:
                    row[k + 1] = (row[k + 1] + f * row[i]) % ell
                factors.append((i, f))
        steps.append((k + 1, piv, factors))
    return h, steps


def _charpoly_mod(h: list[list[int]], ell: int) -> list[int]:
    """Characteristic polynomial mod ell (ascending coefficients) of an
    upper Hessenberg matrix (`_hessenberg`), by the recurrence over its
    leading principal blocks."""
    n = len(h)
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


def _eigenspace(h: list[list[int]], steps: list, lam: int, ell: int,
                ) -> tuple[list[list[int]], list[int]]:
    """The kernel {v : mat v = lam v} mod ell in RREF, and its pivots,
    from H, steps = `_hessenberg(mat, ell)`.

    Row r of H - lam I is zero before column r - 1, so at column c only
    the rows left without a pivot and row c + 1 can be nonzero there:
    each column is eliminated among those, at most two more than the
    free columns so far, not among all d rows.  A reduced H (a zero
    subdiagonal entry) or a repeated lam only leaves more rows waiting.
    Back substitution gives each free column fc the kernel vector that
    is 1 at fc and 0 at every other free column and after fc.  Mapped
    through S (`_hessenberg`'s steps, the last first) these span the
    kernel of mat - lam I, and one `_rref` of them gives its unique
    RREF, the same basis whatever the elimination order."""
    d = len(h)
    waiting: list[list[int]] = []
    pivot_rows: list[tuple[int, list[int]]] = []  # (c, the row from column c on, 1 at c)
    free = []
    for c in range(d):
        for r in ((0, 1) if c == 0 else (c + 1,)):
            if r < d:
                row = h[r][:]
                row[r] = (row[r] - lam) % ell
                waiting.append(row)
        at = next((t for t, row in enumerate(waiting) if row[c]), None)
        if at is None:
            free.append(c)
            continue
        row = waiting.pop(at)
        inv_p = pow(row[c], ell - 2, ell)
        tail = [x * inv_p % ell for x in row[c:]]
        for other in waiting:
            f = other[c]
            if f:
                other[c:] = [(x - f * y) % ell for x, y in zip(other[c:], tail)]
        pivot_rows.append((c, tail))
    vectors = []
    for fc in free:
        v = [0] * d
        v[fc] = 1
        for c, tail in reversed(pivot_rows):
            if c < fc:
                v[c] = -sum(map(mul, tail[1:fc + 1 - c], v[c + 1:fc + 1])) % ell
        for k1, piv, factors in reversed(steps):
            x = v[k1]
            if x:
                for i, f in factors:
                    v[i] = (v[i] + f * x) % ell
            v[k1], v[piv] = v[piv], v[k1]
        vectors.append(v)
    return _rref(vectors, ell)


def _roots_mod(coeffs: list[int], ell: int) -> list[int]:
    """The distinct roots in Z/ell of a nonzero polynomial f (ascending
    coefficients) of degree below ell, in ascending order.

    The squarefree part s = f / gcd(f, f') has the same roots, each once:
    deg f < ell keeps every multiplicity m below ell, so f' holds each
    factor of f exactly m - 1 times.  A squarefree factor of degree 1 or
    2 is solved by formula (`_small_roots`), so an s of degree at most 2
    needs no powering at all.  Otherwise one powering,
    h = x^((ell - 1)/2) mod s, does two jobs (ell is an odd prime).
    x^ell - x = x h^2 - x mod s, so g = gcd(s, x h^2 - x) has one linear
    factor per root and none of the irreducible factors of higher
    degree; and h mod g is the power of the shift a = 0 in the
    Cantor-Zassenhaus split of g, gcd(g, (x + a)^((ell - 1)/2) - 1) for
    a = 0, 1, 2, ..., each power taken modulo the factor being split,
    until every factor has degree at most 2.  Every factor carries the
    next shift to try: a shift that failed on a factor, or that split
    its parent, gives the same answer to "(r + a)^((ell - 1)/2) = 1?" at
    every root r of it, so a child resumes at a + 1 and no shift is
    applied twice to a factor or to a divisor of it.  The powering runs
    modulo s, whose degree is the number of distinct roots when f splits
    into linear factors, as the characteristic polynomial of a
    diagonalisable restriction does.  Nothing is random.
    """
    f = zpoly_trim([c % ell for c in coeffs])
    if len(f) - 1 >= ell:
        raise ValueError(f"degree {len(f) - 1} is not below ell = {ell}")
    if len(f) < 2:
        return []
    derivative = zpoly_trim([d * c % ell for d, c in enumerate(f)][1:])
    s = zpoly_divmod(f, zpoly_gcd(f, derivative, ell), ell)[0]
    if len(s) <= 3:
        return sorted(_small_roots(s, ell))
    half = (ell - 1) // 2
    h = zpoly_powmod([0, 1], half, s, ell)
    x_ell = zpoly_mulmod(zpoly_mulmod(h, h, s, ell), [0, 1], s, ell)
    roots: list[int] = []
    pending = [(zpoly_gcd(s, zpoly_sub(x_ell, [0, 1], ell), ell), 0)]
    while pending:
        g, first = pending.pop()
        if len(g) <= 3:
            roots += _small_roots(g, ell)
            continue
        for a in range(first, ell):
            power = zpoly_divmod(h, g, ell)[1] if a == 0 else zpoly_powmod([a, 1], half, g, ell)
            k = zpoly_gcd(g, zpoly_sub(power, [1], ell), ell)
            if 1 < len(k) < len(g):
                pending += [(k, a + 1), (zpoly_divmod(g, k, ell)[0], a + 1)]  # both monic
                break
        else:
            raise InvariantViolation(f"no shift separates the roots of a degree {len(g) - 1} factor")
    return sorted(roots)


def _small_roots(s: list[int], ell: int) -> list[int]:
    """The roots in Z/ell of a squarefree s of degree at most 2, not
    necessarily monic: -c/b for b x + c, and for a x^2 + b x + c, with
    disc = b^2 - 4ac, (-b +- sqrt(disc)) / 2a when disc is a square and
    none when it is not (s is then irreducible)."""
    if len(s) < 2:
        return []
    inv_lead = pow(s[-1], ell - 2, ell)
    if len(s) == 2:
        return [-s[0] * inv_lead % ell]
    c, b = s[0] * inv_lead % ell, s[1] * inv_lead % ell
    root = _sqrt_mod(b * b - 4 * c, ell)
    if root is None:
        return []
    inv_two = (ell + 1) // 2
    return [(-b + root) * inv_two % ell, (-b - root) * inv_two % ell]


def _sqrt_mod(a: int, ell: int) -> int | None:
    """A square root of a modulo the odd prime ell, or None when a is not
    a square, by Tonelli-Shanks.  The nonresidue it needs is the least
    one, so the root returned is always the same."""
    a %= ell
    if a == 0:
        return 0
    if pow(a, (ell - 1) // 2, ell) != 1:
        return None
    odd, m = ell - 1, 0  # ell - 1 = odd * 2^m
    while odd % 2 == 0:
        odd //= 2
        m += 1
    root, t = pow(a, (odd + 1) // 2, ell), pow(a, odd, ell)  # root^2 = a t
    if t == 1:
        return root
    z = next(z for z in range(2, ell) if pow(z, (ell - 1) // 2, ell) != 1)
    c = pow(z, odd, ell)  # of order exactly 2^m
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:  # t has order 2^i
            t2 = t2 * t2 % ell
            i += 1
        b = pow(c, 1 << (m - i - 1), ell)
        m, c = i, b * b % ell
        root, t = root * b % ell, t * c % ell
    return root


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


def _split_space(basis: list[list[int]], pivots: list[int], m_rows: dict[int, list[int]],
                 ell: int) -> list[tuple[list[list[int]], list[int]]]:
    """The eigenspaces of a class matrix on the invariant space spanned by
    `basis` (RREF, pivot columns `pivots`), each in RREF.

    Coordinates of a vector of the space are its entries at the pivots,
    so the restriction needs only the rows of M at the pivots.  A scalar
    restriction leaves the space whole with no characteristic polynomial.
    Class matrices act diagonalisably on an invariant space, so one with
    a single eigenvalue that is not a scalar fails the dimension check.

    The restriction is brought to Hessenberg form once (`_hessenberg`),
    which gives the characteristic polynomial and, for each root, the
    eigenspace in the d coordinates, in RREF (`_eigenspace`).  Only then
    is it mapped back: a combination of the basis with coordinates u has
    its first nonzero entry at pivots[j], j the first nonzero coordinate
    of u, and its entries at the pivots are u.  So coordinate vectors in
    RREF with pivots J map to vectors in RREF with pivots
    [pivots[j] for j in J].
    """
    d = len(basis)
    restricted = [[sum(map(mul, m_rows[p], b)) % ell for b in basis] for p in pivots]
    lam = restricted[0][0]
    if all(v == (lam if r == c else 0)
           for r, row in enumerate(restricted) for c, v in enumerate(row)):
        return [(basis, pivots)]
    parts = []
    h, steps = _hessenberg(restricted, ell)
    for lam in _roots_mod(_charpoly_mod(h, ell), ell):
        reduced, coord_pivots = _eigenspace(h, steps, lam, ell)
        vectors = []
        for coords in reduced:
            v = [0] * len(basis[0])
            for cr, b in zip(coords, basis):
                if cr:
                    v = [x + cr * y for x, y in zip(v, b)]
            vectors.append([x % ell for x in v])
        parts.append((vectors, [pivots[j] for j in coord_pivots]))
    if sum(len(b) for b, _ in parts) != d:
        raise InvariantViolation(
            f"eigenspaces of dimensions {[len(b) for b, _ in parts]} do not fill a space of dimension {d}"
        )
    return parts


def _rational_class(table: GroupTable, c: int, images: Callable) -> set[int]:
    """The classes of g^a for every a prime to the order of g, the
    representative of class c; each power is the one before times g,
    read one code at a time through the chunk images of g, `images(c)`
    (`groups.product_code`), from the code of g to the code of the identity."""
    n, q = table.n, table.q
    tables = images(c)
    ident = encode(mat_identity(n), q)
    powers = [table.members[c][0]]
    while powers[-1] != ident:
        powers.append(product_code(powers[-1], tables, n, q))
    order = len(powers)
    return {table.labels[x] for a, x in enumerate(powers, 1) if math.gcd(a, order) == 1}


def _central_spaces(table: GroupTable, arena: ModularArena, shift: list[int],
                    ) -> list[tuple[list[list[int]], list[int]]]:
    """The joint eigenspaces of the central class matrices, each in RREF
    with its pivot columns, written down with no linear algebra.

    The central classes are the scalars w^a I, and K_{wI} K_j = K_{w g_j},
    so M_{wI} is the permutation matrix of `shift`, the `scalar_class_map`
    sigma, and the other central M are its powers.  M_{wI} v = mu v reads
    v_sigma(j) = mu v_j, so each orbit O of sigma with mu^|O| = 1 gives one
    eigenvector: 1 at the least class of O and mu^t at its t-th class
    along sigma.  The eigenvalues are the powers of zeta = zeta_m^(m/(q-1)),
    and each orbit gives |O| vectors in all, so the dimensions add up to N.
    The vectors of one eigenvalue have disjoint supports, so they are
    already in RREF with the orbit minima as pivots.  Space k, the
    zeta^k-eigenspace, is entry k of the list.
    """
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
        spaces.append((basis, pivots))
    if sum(len(basis) for basis, _ in spaces) != n_cls:
        raise InvariantViolation(
            f"central eigenspaces of dimensions {[len(b) for b, _ in spaces]} do not fill {n_cls}"
        )
    return spaces


def _visit_order(table: GroupTable, images: Callable, shift: list[int]):
    """The non-central classes to visit: one per rational class, then the
    rest, each group in ascending (size, index) order, keeping only the
    first class of each orbit of `shift`, the scalar class map sigma.

    K_{wI} K_j = K_sigma(j), so M_sigma^t(j) = M_{wI}^t M_j.  Every space
    lies in one mu-eigenspace of M_{wI}, where M_sigma^t(j) acts as
    mu^t M_j: once j is visited, no class of its orbit splits anything.
    """
    classes = table.classes

    def queue():
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

    covered: set[int] = set()  # the orbits of the classes yielded
    for c in queue():
        if c in covered:
            continue
        d = c
        while d not in covered:
            covered.add(d)
            d = shift[d]
        yield c


def _conjugate_pair(basis: list[list[int]], pivots: list[int], inv_map: list[int],
                    ell: int) -> bool:
    """Whether the space spanned by `basis` (RREF, pivot columns
    `pivots`) is span{omega_chi, omega_chibar} with chi != chibar.

    The column permutation P: v -> (v_{c^-1})_c maps omega_chi to
    omega_chibar, as chibar(g) = chi(g^-1) and c, c^-1 have one size.  A
    space of the split is spanned by the omega it holds, so a plane V
    with P V = V and P|V != id holds exactly such a pair.  Each P b is
    in V exactly when it is the combination of the basis with its own
    entries at the pivots as coordinates.
    """
    if len(basis) != 2:
        return False
    permuted = [list(map(v.__getitem__, inv_map)) for v in basis]
    if permuted == basis:
        return False
    (p0, p1), (b0, b1) = pivots, basis
    return all(u == [(u[p0] * x + u[p1] * y) % ell for x, y in zip(b0, b1)] for u in permuted)


def _twists(n: int, q: int) -> dict[int, list[tuple[int, int]]]:
    """The central spaces the split keeps, k < gcd(n, q - 1), each with
    the spaces (k + n j mod (q - 1), j) its lines are carried to by D_j,
    for j = 1, ..., (q - 1)/gcd(n, q - 1) - 1.

    n j runs over the multiples of g = gcd(n, q - 1) mod q - 1 as j does
    over [0, (q - 1)/g), each once, so the orbit of space k is every
    space k' = k mod g, reached from k by exactly one j.
    """
    g = math.gcd(n, q - 1)
    return {k: [((k + n * j) % (q - 1), j) for j in range(1, (q - 1) // g)] for k in range(g)}


def _carry(lines: list[tuple[tuple[int, ...], int]], twists: dict, dims: list[int],
           dets: list[int], shift: list[int], zeta: int, ell: int) -> list[tuple[int, ...]]:
    """The characters of every central space from `lines`, the (chi, k)
    of the lines of the kept spaces: each chi of space k, and its twist
    (chi lambda_j(det))(c) = zeta^(j a_c) chi(c), a_c = `dets`[c], in
    each space k' of `twists`[k].

    A twist must satisfy chi(sigma(c)) = zeta^k' chi(c) for every c, the
    line condition on omega(K_c) = |c| chi(c) / chi(1), as
    |sigma(c)| = |c|; and each space must receive its dimension
    `dims`[k'] in lines; InvariantViolation otherwise.  The degree is
    not derived again, as twisting keeps it: a_{c^-1} = -a_c leaves every
    omega(K_c) omega(K_c^-1), and so d^2 = |G| / sum_c omega(K_c)
    omega(K_c^-1) / |c|.
    """
    order = len(dims)
    powers = [pow(zeta, t, ell) for t in range(order)]
    out, got = [], [0] * order
    for chi, k in lines:
        out.append(chi)
        got[k] += 1
        for target, j in twists[k]:
            u = tuple(x * powers[j * a % order] % ell for x, a in zip(chi, dets))
            mu = powers[target]
            if any(u[d] != mu * x % ell for x, d in zip(u, shift)):
                raise InvariantViolation(f"a line carried to central space {target} is not in it")
            out.append(u)
            got[target] += 1
    if got != dims:
        raise InvariantViolation(f"{got} lines carried to central spaces of dimensions {dims}")
    return out


SORT_BLOCK = 1 << 15  # codes per block in `_sorted_codes`


def _sorted_codes(codes: array) -> array:
    """The codes in increasing order, as an array('I'): each block of
    `SORT_BLOCK` codes is sorted into an array of its own and the blocks
    are merged, so no list of Python ints longer than a block is built.
    A class of GL_4(F_3) holds up to 758 160 members, 27 MB as one list."""
    blocks = [array("I", sorted(codes[at:at + SORT_BLOCK])) for at in range(0, len(codes), SORT_BLOCK)]
    if len(blocks) == 1:
        return blocks[0]
    # imported only here: heapq adds about 0.15 MiB resident, which a group
    # whose classes all fit in one block does not need
    import heapq
    return array("I", heapq.merge(*blocks))


def character_table(table: GroupTable, arena: ModularArena) -> list[tuple[int, ...]]:
    """All irreducible characters, sorted by (dimension, values)."""
    _check_arena(table, arena)
    classes, n, q = table.classes, table.n, table.q
    ell = arena.ell
    e_idx = table.identity_class()
    inv_map = [c.inverse_class for c in classes]
    shift = scalar_class_map(table)
    central = _central_spaces(table, arena, shift)
    twists = _twists(n, q)
    # invariant spaces as (RREF basis, pivot columns, central space), from the kept central ones
    spaces = [(basis, pivots, k) for k, (basis, pivots) in enumerate(central)
              if k in twists and basis]
    # memos for this call only: each class's chunk columns, cut from its members in increasing
    # order so that the tensor's lookups run through the tables in order, and its
    # representative's chunk images
    columns = cache(lambda c: chunk_columns(_sorted_codes(table.members[c]), n, q))
    images = cache(lambda c: chunk_images(classes[c].representative, n, table.field))
    visit = _visit_order(table, images, shift)
    while any(len(basis) > 1 for basis, _, _ in spaces):
        i = next(visit, None)
        if i is None:
            raise EigenSplitFailure(
                f"class matrices leave eigenspaces of dimensions "
                f"{sorted(len(b) for b, _, _ in spaces if len(b) > 1)} unsplit"
            )
        real = inv_map[i] == i  # a scalar on every conjugate pair
        split = [len(basis) > 1 and not (real and _conjugate_pair(basis, pivots, inv_map, ell))
                 for basis, pivots, _ in spaces]
        # spaces share pivot columns: ask for each row once
        rows = list(dict.fromkeys(p for (_, pivots, _), s in zip(spaces, split) if s
                                  for p in pivots))
        if not rows:
            continue
        m_rows = dict(zip(rows, class_multiplication_tensor(table, i, rows, columns, images)))
        spaces = [(b, p, k) for (basis, pivots, k), s in zip(spaces, split)
                  for b, p in (_split_space(basis, pivots, m_rows, ell) if s
                               else [(basis, pivots)])]
    inv_sizes = [pow(c.size, ell - 2, ell) for c in classes]
    lines = []
    for (v,), _, k in spaces:
        if v[e_idx] == 0:
            raise InvariantViolation("a central character vanishes on the identity class")
        scale = pow(v[e_idx], ell - 2, ell)
        omega = [x * scale % ell for x in v]
        lines.append((_character_from_central(omega, inv_sizes, inv_map, table.order, arena), k))
    zeta = pow(arena.zeta_m, arena.m // (q - 1), ell)
    chars = _carry(lines, twists, [len(b) for b, _ in central], det_class_map(table, shift),
                   shift, zeta, ell)
    chars.sort(key=lambda chi: (chi[e_idx], chi))
    verify_orthogonality(chars, table, arena)
    return chars


def _character_from_central(omega: list[int], inv_sizes: list[int], inv_map: list[int],
                            order: int, arena: ModularArena) -> tuple[int, ...]:
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
    return tuple(w * d * inv % ell for w, inv in zip(omega, inv_sizes))


def multiplicity(chi_model: tuple[int, ...], chars: list[tuple[int, ...]], table: GroupTable,
                 arena: ModularArena) -> list[int]:
    """The multiplicities <chi_model, chi> of every chi in `chars`, each
    lifted to an integer in [0, dim chi_model].

    <chi_model, chi> = |G|^-1 sum_c |c| chi_model(c) chi(c^-1), so with
    the weights w[c^-1] = |c| chi_model(c) / |G| mod ell, built once, each
    character costs one weighted sum of its values."""
    ell = arena.ell
    inv_order = pow(table.order, ell - 2, ell)
    weights = [0] * len(table.classes)
    for c, x in zip(table.classes, chi_model):
        weights[c.inverse_class] = c.size * x % ell * inv_order % ell
    bound = dimension(chi_model, table, arena)
    return [arena.lift_bounded(sum(map(mul, weights, chi)), 0, bound, "multiplicity")
            for chi in chars]


def verify_orthogonality(chars: list[tuple[int, ...]], table: GroupTable,
                         arena: ModularArena) -> None:
    """Exact row and column orthogonality and the dimension identity of a
    computed table; raises InvariantViolation on any mismatch.

    Let X be the N x N table, X[a][c] = chi_a(c), and B the matrix
    B[c][b] = |c| chi_b(c^-1) / |G|.  The row relations for all N^2 pairs
    (a, b) say X B = I.  The Gram matrix |G| X B is symmetric:
    |G| <chi_a, chi_b> = sum_c |c| chi_a(c) chi_b(c^-1) turns into
    |G| <chi_b, chi_a> when c runs over the inverse classes instead,
    which an involution keeping class sizes allows (checked first).  So
    the pairs b >= a are all the pairs.  Column c of B times |G|, over
    the characters b >= a, is packed into one integer with a slot of
    `width` bits per character, slot 0 for b = a, holding
    |c| chi_b(c^-1) mod ell; the columns are built from the last row up,
    one slot per row, in the loop that checks the rows.  With every
    chi_a(c) in [0, ell) (a row with a value outside is reduced first) a
    slot of row a's sum over c of chi_a(c) times the packed column is at
    most N (ell - 1)^2 < 2^width, so one sum per row gives its products
    |G| <chi_a, chi_b> for every b >= a, each checked mod ell against
    |G| delta_ab.

    The column relations follow.  Over the field Z/ell a one-sided
    inverse of a square matrix is two-sided, so X B = I gives B X = I,
    whose entry (c, c') is sum_b |c| chi_b(c^-1) chi_b(c') / |G|.  When
    inverse_class is an involution keeping class sizes and every size
    divides |G| (checked first), putting c^-1 for c makes B X = I read:
    columns c and c' have dot product |G| / |c| when c' is the inverse
    class of c and 0 otherwise, the column relation for every pair.
    """
    ell = arena.ell
    classes = table.classes
    n_cls = len(classes)
    if len(chars) != n_cls:
        raise InvariantViolation(f"{len(chars)} characters for {n_cls} classes")
    dims = [dimension(chi, table, arena) for chi in chars]
    if sum(d * d for d in dims) != table.order:
        raise InvariantViolation("sum of squared dimensions != |G|")
    inv_map = [c.inverse_class for c in classes]
    sizes = [c.size for c in classes]
    for c, i in enumerate(inv_map):
        if not 0 <= i < n_cls or inv_map[i] != c or sizes[i] != sizes[c] or table.order % sizes[c]:
            raise InvariantViolation(f"class {c} and its inverse class {i} do not pair up")
    rows = [chi if 0 <= min(chi) and max(chi) < ell else [v % ell for v in chi]
            for chi in chars]
    width = (n_cls * (ell - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    order = table.order % ell
    packed = [0] * n_cls  # slot b - a of packed[c] at bits [(b - a) width, (b - a + 1) width)
    for a in reversed(range(n_cls)):
        row = rows[a]
        packed = [col << width | size * row[i] % ell for col, size, i in zip(packed, sizes, inv_map)]
        total = sum(map(mul, row, packed))
        for b in range(a, n_cls):
            if (total & mask) % ell != (order if a == b else 0):
                raise InvariantViolation(f"row orthogonality failed at ({a}, {b})")
            total >>= width


def _check_arena(table: GroupTable, arena: ModularArena) -> None:
    if arena.group_order != table.order:
        raise ArenaMismatch(
            f"arena built for |G| = {arena.group_order}, table has {table.order}"
        )
    if arena.p != table.field.p:
        raise ArenaMismatch(f"arena p = {arena.p}, field p = {table.field.p}")


def induced_klyachko_character(table: GroupTable, k: int, psi: int,
                               arena: ModularArena) -> tuple[int, ...]:
    """Character of the Klyachko model Ind_{H_{r,2k}}^{G}(psi_r),
    r = n - 2k, by the class-sum evaluation over the members of
    H_{r,2k}; psi_r takes its values in the powers of zeta_p^psi."""
    _check_arena(table, arena)
    field, ell, n = table.field, arena.ell, table.n
    r = n - 2 * k
    if psi % field.p == 0:
        raise ValueError("psi must be nonzero mod p (psi nontrivial)")
    zeta = pow(arena.zeta_p, psi, ell)
    psi_values = [pow(zeta, t, ell) for t in range(field.p)]  # psi of a trace in [0, p)
    labels = table.labels
    members = enumerate_h(r, k, field)
    sums = [0] * len(table.classes)
    for el in members:
        c = labels[el]
        sums[c] = (sums[c] + psi_values[psi_r_trace(el, r, n, field)]) % ell
    h_size = len(members)
    if table.order % h_size:
        raise InvariantViolation("|H| does not divide |G|")
    vals = []
    for s_c, cls in zip(sums, table.classes):
        denom_inv = pow(h_size * cls.size % ell, ell - 2, ell)
        vals.append(table.order % ell * s_c % ell * denom_inv % ell)
    chi = tuple(vals)
    # induced dimension must lift to the exact index [G : H]
    got = dimension(chi, table, arena)
    if got != table.order // h_size:
        raise InvariantViolation(f"chi(e) lifted to {got}, expected index {table.order // h_size}")
    return chi
