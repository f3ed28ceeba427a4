"""Enumeration of GL_n(F_q), its conjugacy classes, and the subgroups
H_{r,2k} with their character psi_r.

This module owns the row code, the one element encoding of the group
layer.  The row code of a row vector is the base-q integer of its entry
codes, first entry most significant, and an element is the n-tuple of
the row codes of its rows.  Lex order of row-code tuples is lex order of
the flat row-major entry tuples, which `decode_rows` and `encode_rows`
convert to and from.  A product x g is read row by row from the table
`row_images(g)` of v g for every row vector v, built by linearity from
the field tables.  The enumeration builds matrices row by row, only
extending with rows outside the span of the rows chosen so far, so
exactly the prod_{i<n} (q^n - q^i) invertible matrices are produced, in
lexicographic order.

Conjugacy classes are the orbits of conjugation by three cheap
generators of GL_n(F_q) (an n-cycle permutation matrix, the elementary
matrix x_12(1) and, for q > 2, diag(w, 1, ..., 1) with w primitive).
Each generator conjugates the whole element list at once, one
row-image table lookup per row; a depth-first search over the element
positions labels the orbits, and the positions dict becomes the table's
one map from element to class.  `class_records` turns that map into the
class records, for the sweep and for a cached table alike.  Each class is
keyed by the invariant factors of xI - g (see fqpoly), computed once per
class representative, not per element; labels whose number is not
`class_count(n, q)`, or two classes with one key, would mean the labels
were not the classes, and raise InvariantViolation.  Class
representatives, flat entry tuples, are the lexicographically least
members, which the lex enumeration order makes free.  The central
scalar w I permutes the classes; `scalar_class_map` gives that
permutation, from which the character table starts its split.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from operator import add, itemgetter

from .arena import prime_factors
from .errors import GroupTooLarge, InvariantViolation, UsageError
from .fqpoly import Poly, invariant_factors
from .gf import FiniteField, mat_identity, mat_inv

DEFAULT_MAX_ELEMENTS = 10**7  # enumeration cap on |G| and |H|


# -- row codes -------------------------------------------------------------


@lru_cache(maxsize=None)
def _row_vectors(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The row vectors of length n in lex order: entry tuples by row code."""
    return tuple(product(range(q), repeat=n))


def encode_rows(g: tuple[int, ...], n: int, q: int) -> tuple[int, ...]:
    """The row codes of a flat row-major tuple of n-entry rows."""
    out = []
    for i in range(0, len(g), n):
        code = 0
        for x in g[i:i + n]:
            code = code * q + x
        out.append(code)
    return tuple(out)


def decode_rows(codes: tuple[int, ...], n: int, q: int) -> tuple[int, ...]:
    """The flat row-major entry tuple of rows given by their row codes."""
    return tuple(chain.from_iterable(map(_row_vectors(n, q).__getitem__, codes)))


def _diagonal(entries: list[int]) -> tuple[int, ...]:
    """The flat diagonal matrix with these diagonal entries."""
    n = len(entries)
    return tuple(entries[i] if i == j else 0 for i in range(n) for j in range(n))


def row_images(g: tuple[int, ...], n: int, field: FiniteField) -> list[int]:
    """The row code of v g for every row vector v, indexed by the row code
    of v; g is a flat row-major m x n entry tuple, m = len(g) // n.

    Built by linearity, one column at a time: entry c of v g is the sum of
    v_k g_kc, each step appending a digit v_k through the field's add
    table.  The columns are then packed into row codes.
    """
    q = field.q
    add_rows = [field.add[a * q:(a + 1) * q] for a in range(q)]
    # times_b(row a of the add table) = (a + s b for s = 0, ..., q - 1)
    times = [itemgetter(*field.mul[b::q]) for b in range(q)]
    codes: list[int] = []
    for c in range(n):
        col = [0]
        for k in range(c, len(g), n):
            col = list(chain.from_iterable(map(times[g[k]], map(add_rows.__getitem__, col))))
        codes = list(map(add, map(q.__mul__, codes), col)) if codes else col
    return codes


def sp_order(k: int, q: int) -> int:
    """|Sp(2k, F_q)| = q^{k^2} * prod_{i=1}^{k} (q^{2i} - 1)."""
    out = q ** (k * k)
    for i in range(1, k + 1):
        out *= q ** (2 * i) - 1
    return out


def h_order(r: int, k: int, q: int) -> int:
    return q ** (r * (r - 1) // 2) * q ** (2 * k * r) * sp_order(k, q)


@dataclass(frozen=True)
class ConjClass:
    representative: tuple[int, ...]
    size: int
    invariant_factors: tuple[Poly, ...]
    inverse_class: int


@dataclass(frozen=True, eq=False)
class GroupTable:
    """GL_n(F_q), complete at construction and never changed afterwards:
    the map from each element, as its tuple of row codes, to its
    conjugacy class, keys in lex order, and the class records.

    Built only by `gl_enumerate` and `tablecache.load_table`.
    """

    field: FiniteField
    n: int
    class_of: dict[tuple[int, ...], int]
    classes: tuple[ConjClass, ...]

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def order(self) -> int:
        return len(self.class_of)

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The elements in lex order as flat entry tuples: the keys of
        `class_of`, decoded."""
        n, q = self.n, self.q
        return tuple(decode_rows(g, n, q) for g in self.class_of)

    def class_of_flat(self, el: tuple[int, ...]) -> int:
        """The class of an element given as a flat entry tuple."""
        return self.class_of[encode_rows(el, self.n, self.q)]

    def identity(self) -> tuple[int, ...]:
        return mat_identity(self.n)

    def inverses(self) -> list[tuple[int, ...]]:
        """The inverses of `elements`, in the same order, as flat entry tuples."""
        n, f = self.n, self.field
        return [mat_inv(el, n, f) for el in self.elements]

    def identity_class(self) -> int:
        return self.class_of_flat(self.identity())

    def exponent(self) -> int:
        """The lcm of the element orders, p^a lcm(q - 1, q^2 - 1, ..., q^n - 1)
        with p^a the least power of p that is >= n.  A unipotent Jordan
        block of size b <= n has order the least p^a >= b; semisimple
        orders divide the q^d - 1 for d <= n, and Singer cycles reach them."""
        n, q = self.n, self.q
        unipotent = 1
        while unipotent < n:
            unipotent *= self.field.p
        return unipotent * math.lcm(*(q**d - 1 for d in range(1, n + 1)))


def class_count(n: int, q: int) -> int:
    """The number of conjugacy classes of GL_n(F_q): the coefficient of
    t^n in prod_{k >= 1} (1 - t^k) / (1 - q t^k) (Macdonald, 1981), a
    power series kept to degree n."""
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):  # times 1 - t^k
            coeffs[i] -= coeffs[i - k]
        for i in range(k, n + 1):  # over 1 - q t^k
            coeffs[i] += q * coeffs[i - k]
    return coeffs[n]


def check_group_cap(n: int, q: int, max_elements: int) -> int:
    """|GL_n(F_q)|, or GroupTooLarge if it exceeds the element cap; UsageError
    for n < 1.  The product q^i (q^(i+1) - 1) over i < n stops as soon as
    it passes the cap, so a huge n costs nothing."""
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    order, qi = 1, 1
    for _ in range(n):
        order *= qi * (qi * q - 1)
        qi *= q
        if order > max_elements:
            raise GroupTooLarge(f"|GL_{n}(F_{q})| >= {order} exceeds cap {max_elements}")
    return order


def gl_elements(n: int, field: FiniteField,
                max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[tuple[int, ...]]:
    """The elements of GL_n(F_q) as row-code tuples, in lexicographic order.

    The span of the rows chosen so far is a set of row codes; adding a
    row v adds the multiples c v to each of its members through a table
    of the sums of two row codes.
    """
    q = field.q
    expected = check_group_cap(n, q, max_elements)
    size = q**n
    ident = mat_identity(n)
    plus = row_images(ident + ident, n, field)  # the code of a + b at a * size + b
    sums = [plus[a * size:(a + 1) * size] for a in range(size)]
    multiples = [row_images(_diagonal([c] * n), n, field) for c in range(1, q)]
    elements: list[tuple[int, ...]] = []

    def extend(rows: tuple[int, ...], span: set[int], depth: int) -> None:
        if depth == n - 1:
            elements.extend([rows + (v,) for v in range(size) if v not in span])
            return
        for v in range(size):
            if v in span:
                continue
            new_span = set(span)
            for times in multiples:
                new_span.update(map(sums[times[v]].__getitem__, span))
            extend(rows + (v,), new_span, depth + 1)

    extend((), {0}, 0)
    if len(elements) != expected:
        raise InvariantViolation(f"enumerated {len(elements)}, expected {expected}")
    return elements


def gl_enumerate(n: int, field: FiniteField, max_elements: int = DEFAULT_MAX_ELEMENTS) -> GroupTable:
    """GL_n(F_q) in lexicographic order, with its conjugacy classes."""
    classes, class_of = conjugacy_classes(gl_elements(n, field, max_elements), n, field)
    return GroupTable(field, n, class_of, classes)


def _primitive_element(field: FiniteField) -> int:
    """The least code generating the multiplicative group F_q^*: the
    least w with w^((q-1)/r) != 1 for each prime r dividing q - 1."""
    q = field.q
    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    for w in range(1, q):
        if all(field.pow(w, c) != 1 for c in cofactors):
            return w
    raise InvariantViolation(f"F_{q}^* has no generator")


def scalar_class_map(table: GroupTable) -> list[int]:
    """The class of w g_c for every class c, w I the scalar matrix of the
    least primitive element w of F_q^* (w = 1 when q = 2).

    w I is central, so it permutes the classes and keeps their sizes; one
    row-image lookup per row of each representative and one class lookup
    give the image.  A map that is not such a permutation means the
    labels were not the classes, and raises InvariantViolation.
    """
    n, field, classes = table.n, table.field, table.classes
    w = _primitive_element(field)
    image = row_images(_diagonal([w] * n), n, field).__getitem__
    out = [table.class_of[tuple(map(image, encode_rows(c.representative, n, field.q)))]
           for c in classes]
    if sorted(out) != list(range(len(classes))):
        raise InvariantViolation("multiplying by a scalar does not permute the classes")
    if any(classes[d].size != c.size for c, d in zip(classes, out)):
        raise InvariantViolation("multiplying by a scalar changes a class size")
    return out


def _conjugators(n: int, field: FiniteField) -> list:
    """Maps from the n row columns of an element list (row r of every
    element) to the row columns of the conjugates s g s^-1, for s in a
    generating set of GL_n(F_q): the n-cycle permutation matrix,
    x_12(1) = I + E_12 and, when q > 2, diag(w, 1, ..., 1) with w
    primitive.  Each conjugate row is one lookup in a `row_images` table:
    s g puts rows of g, a row sum or a scaled row in each row, and
    right multiplication by s^-1 maps every row v to v s^-1.

    The cycle's conjugates of x_12(1) are the x_{i,i+1}(1) and
    x_{n,1}(1), whose commutators give every x_ij(1), hence SL_n(F_p);
    conjugating by diag(w) adds the x_12(a) for all a (the powers of w
    span F_q) and every determinant.  Empty for n = 1, where classes are
    singletons."""
    if n == 1:
        return []
    q, size = field.q, field.q**n
    # entry (i, j) of P g P^-1 is entry (i + 1, j + 1) of g, indices mod n
    rotate = row_images(tuple(int(k == (j + 1) % n) for k in range(n) for j in range(n)),
                        n, field).__getitem__

    def cycle(cols):
        return [map(rotate, cols[(i + 1) % n]) for i in range(n)]

    # row 0 += row 1, then col 1 -= col 0: v -> v (I - E_12) on every row,
    # and on row 0 through the pair table (a, b) -> (a + b)(I - E_12)
    shear = list(mat_identity(n))
    shear[1] = field.neg[1]
    shear = tuple(shear)
    sheared = row_images(shear, n, field).__getitem__
    pair = row_images(shear + shear, n, field).__getitem__

    def transvection(cols):
        return [map(pair, map(add, map(size.__mul__, cols[0]), cols[1])),
                *(map(sheared, col) for col in cols[1:])]

    out = [cycle, transvection]
    if q > 2:
        w = _primitive_element(field)
        # row 0 *= w, then col 0 *= w^-1: row 0 keeps entry 0 and scales
        # the rest by w, every other row scales entry 0 by w^-1
        top = row_images(_diagonal([1] + [w] * (n - 1)), n, field).__getitem__
        rest = row_images(_diagonal([field.inv[w]] + [1] * (n - 1)), n, field).__getitem__

        def scaling(cols):
            return [map(top, cols[0]), *(map(rest, col) for col in cols[1:])]

        out.append(scaling)
    return out


def conjugacy_classes(elements: list[tuple[int, ...]], n: int, field: FiniteField,
                      ) -> tuple[tuple[ConjClass, ...], dict[tuple[int, ...], int]]:
    """Classes of a lex-ordered list of row-code elements as conjugation
    orbits, and the map from each element to its class, keys in the
    list's order.

    Each generator of `_conjugators` maps the whole list at once, and its
    conjugates become positions in the list.  The first position not yet
    labelled is the lex-least member of a new class, whose orbit is then
    labelled by a depth-first search over the positions; the dict from
    element to position is relabelled into the map in place, and
    `class_records` builds the records.
    """
    class_of = {g: i for i, g in enumerate(elements)}
    columns = [list(map(itemgetter(r), elements)) for r in range(n)]
    neighbours = [list(map(class_of.__getitem__, zip(*conj(columns))))
                  for conj in _conjugators(n, field)]
    labels = [-1] * len(elements)
    c = 0
    for start, label in enumerate(labels):  # reads the labels the search sets
        if label >= 0:
            continue
        labels[start] = c
        stack = [start]
        while stack:
            g = stack.pop()
            for conjugate in neighbours:
                h = conjugate[g]
                if labels[h] < 0:
                    labels[h] = c
                    stack.append(h)
        c += 1
    class_of.update(zip(elements, labels))
    return class_records(class_of, n, field), class_of


def class_records(class_of: dict[tuple[int, ...], int], n: int, field: FiniteField,
                  ) -> tuple[ConjClass, ...]:
    """The records of the classes that `class_of` labels, one label per
    row-code element, numbered 0, 1, ... with none skipped (KeyError
    otherwise).

    A class's representative is its first key as a flat entry tuple, its
    size the count of its label, its key the invariant factors of xI - g
    of the representative, and its inverse class the label of the
    representative's inverse.  A number of labels other than
    `class_count(n, q)` (labels that merge classes, say), or a key
    shared by two classes, raises InvariantViolation.
    """
    q = field.q
    # walking backwards, the last key stored for a label is its first
    first = dict(zip(reversed(class_of.values()), reversed(class_of.keys())))
    expected = class_count(n, q)
    if len(first) != expected:
        raise InvariantViolation(f"{len(first)} class labels, GL_{n}(F_{q}) has {expected} classes")
    sizes = Counter(class_of.values())
    reps = [decode_rows(first[c], n, q) for c in range(len(first))]
    keys = [invariant_factors(g, n, field) for g in reps]
    if len(set(keys)) != len(keys):
        raise InvariantViolation("two classes share invariant factors")
    return tuple(
        ConjClass(g, sizes[c], key, class_of[encode_rows(mat_inv(g, n, field), n, q)])
        for c, (g, key) in enumerate(zip(reps, keys))
    )


# -- symplectic and mixed subgroups --------------------------------------


def symplectic_form(k: int, field: FiniteField) -> tuple[int, ...]:
    """J = [[0, w_k], [-w_k, 0]] with w_k the antidiagonal permutation."""
    n = 2 * k
    entries = [0] * (n * n)
    one, neg_one = 1, field.neg[1]
    for i in range(1, k + 1):
        entries[(i - 1) * n + (k + (k + 1 - i)) - 1] = one      # w_k block
        entries[(k + i - 1) * n + (k + 1 - i) - 1] = neg_one    # -w_k block
    return tuple(entries)


@dataclass(frozen=True)
class KlyachkoSubgroupSpec:
    """H_{r,2k} inside GL_{r+2k}: unipotent block over a symplectic one.

    psi_generator selects the primitive p-th root of unity used for
    psi (the arena's zeta_p raised to this power).
    """

    r: int
    k: int
    psi_generator: int = 1

    def __post_init__(self):
        if self.r < 0 or self.k < 0:
            raise ValueError("r and k must be nonnegative")

    @property
    def n(self) -> int:
        return self.r + 2 * self.k


def psi_r_trace(g: tuple[int, ...], spec: KlyachkoSubgroupSpec, field: FiniteField) -> int:
    """Tr_{F_q/F_p}(u_{1,2} + ... + u_{r-1,r}) in [0, p) of a row-code
    element: u_{i,i+1} is digit i + 1 of row code i."""
    r, n = spec.r, spec.n
    if r <= 1:
        return 0
    q, add = field.q, field.add
    s = 0
    for i in range(r - 1):
        s = add[s * q + g[i] // q ** (n - 2 - i) % q]
    return field.trace_to_prime(s)


# -- subgroup enumeration -------------------------------------------------


def enumerate_sp(k: int, field: FiniteField) -> list[tuple[int, ...]]:
    """Sp(2k, F_q) as row-code tuples in lexicographic order, built row
    by row.

    g is symplectic exactly when g J t(g) = J (its transpose is
    symplectic too), that is when omega(g_a, g_b) = J_ab for every pair
    of its rows, where omega(u, v) = u J t(v).  So the rows are chosen one
    at a time, each from the nonzero vectors v with omega(g_a, v) = J_ab
    for every row g_a already chosen.  Each chosen row is kept as the
    functional g_a J, one row of the multiplication table per
    coordinate, so omega(g_a, v) costs 2k lookups and additions.
    """
    if k == 0:
        return [()]
    n, q, add, mul = 2 * k, field.q, field.add, field.mul
    j = symplectic_form(k, field)
    # the nonzero vectors with their row codes; the zero vector is never a row
    vectors = list(enumerate(_row_vectors(n, q)))[1:]
    out: list[tuple[int, ...]] = []

    def functional(u: tuple[int, ...]) -> list[list[int]]:
        rows = []
        for c in range(n):
            w = 0
            for r in range(n):
                w = add[w * q + mul[u[r] * q + j[r * n + c]]]
            rows.append(mul[w * q:(w + 1) * q])
        return rows

    def extend(codes: tuple[int, ...], funcs: list[list[list[int]]]) -> None:
        b = len(codes)
        if b == n:
            out.append(codes)
            return
        wants = [(rows, j[a * n + b]) for a, rows in enumerate(funcs)]
        for code, v in vectors:
            for rows, want in wants:
                s = 0
                for row, x in zip(rows, v):
                    s = add[s * q + row[x]]
                if s != want:
                    break
            else:
                extend(codes + (code,), funcs + [functional(v)])

    extend((), [])
    out.sort()
    return out


def enumerate_h(spec: KlyachkoSubgroupSpec, field: FiniteField) -> list[tuple[int, ...]]:
    """All of H_{r,2k}(F_q) as row-code tuples, in lexicographic order.

    Top row i has 1 on the diagonal, 0 to its left and any field element
    to its right (the U_r block together with the r x 2k block beside
    it), so its row codes are the range [q^(n-1-i), 2 q^(n-1-i)).  The
    top rows range over the product of these ranges, each stacked over
    [0 | s] for every s in Sp(2k) from `enumerate_sp`, whose row codes
    are those of s.
    """
    r, k, n = spec.r, spec.k, spec.n
    q = field.q
    total = h_order(r, k, q)
    if total > DEFAULT_MAX_ELEMENTS:
        raise GroupTooLarge(f"|H_{{{r},{2 * k}}}| = {total} exceeds cap {DEFAULT_MAX_ELEMENTS}")
    tops = product(*(range(q ** (n - 1 - i), 2 * q ** (n - 1 - i)) for i in range(r)))
    bottoms = enumerate_sp(k, field)
    out = [top + bottom for top in tops for bottom in bottoms]
    if len(out) != total:
        raise InvariantViolation(f"|H| came out {len(out)}, expected {total}")
    return out
