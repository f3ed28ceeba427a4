"""Enumeration of GL_n(F_q), its conjugacy classes, and the subgroups
H_{r,2k} with their character psi_r.

This module owns the element code, the one element encoding of the group
layer.  The row code of a row vector is the base-q integer of its entry
codes, first entry most significant, and the code of an n x n matrix
packs its row codes base q^n, row 0 most significant:
sum_i rowcode_i q^(n(n-1-i)), the base-q integer of its flat row-major
entry tuple (`encode`, `decode`).  Numeric order of codes is lex order
of matrices.  A product x g is read row by row from the table
`row_images(g)` of v g for every row vector v, built by linearity from
the field tables.  Rows of x g depend only on the same rows of x, so
with the rows cut into chunks (pairs of rows when n > 2,
`chunk_columns`) and one table per chunk of the image rows at their
places (`chunk_images`), the code of x g is a sum of one lookup per
chunk; `products` forms it for a whole list of x at once, and
`product_code` for one x.

`gl_elements` lists the codes of GL_n(F_q) in increasing order.  It
chooses the first n - 2 rows depth first, each outside the span S of
the rows before it, and takes the last two rows from the q + 1
hyperplanes through S: a row v outside S spans the hyperplane S + <v>
with S, and the last row is any vector outside that hyperplane.  Each
hyperplane's complement is built once per S and shared by every v that
spans it, so exactly the prod_{i<n} (q^n - q^i) invertible matrices
are produced.

Conjugacy classes are the orbits of conjugation by two cheap matrices
(`_gl_generators`: with P the n-cycle permutation matrix, P and x_12(1)
when q = 2, and P x_12(1) and diag(w, 1, ..., 1) with w =
`field.primitive` when q > 2).  Conjugation by a generator s is linear
in g, and every generator's tables come from its matrix by one rule:
row i of s g s^-1 is sum_j s_ij (row j of g) s^-1, one `row_images`
lookup over the rows j with s_ij != 0.  No row i may read rows on both sides of the
cut between rows 0, 1 and rows 2, ..., n - 1: the tables check this for
every generator and raise InvariantViolation if it fails.  So the rows
that rows 0 and 1 of g reach are disjoint from those the other rows
reach, and with cut = q^(n(n-2)) the code of s g s^-1 is
top[g // cut] + rest[g % cut], a sum with no carry of two tables that s
builds: top over the q^(2n) matrices that are zero below row 1, rest
over the q^(n(n-2)) matrices that are zero on rows 0 and 1 (only the
zero matrix when n <= 2).  The search scans the codes in increasing
order, with the label array as its visited set: a code not yet reached
is the least member of a new orbit, as every lesser code was labelled
by an earlier orbit, and the orbit is walked as a list that the loop
reads while it appends to it, its two lookups per generator written out
for the pair, so the orbits are labelled in the order of their least
members.  Orbits of conjugation by the group the two generators make
refine the classes, so more or fewer orbits than class_count(n, q)
raise InvariantViolation, and orbits that pass are the classes.  The
table keeps one label array indexed by code, holding `SINGULAR` at the
codes of singular matrices, so a class lookup is one index,
labels[encode(g, q)] (`identity_class` is that index at the identity's
code), and the codes of the members of each class, least member first.
It holds each element once: no list of the element codes is kept, the
order is the sum of the class sizes and the elements are the codes whose
label is not `SINGULAR`.  One loop writes the label array and the
members: the search's, each orbit in the order the walk reached it
being the members of its class, with no sort.  `class_records` is the
one builder of a table, for the search and for a cached table alike,
and does only per-class work: sizes and least members are read off
the members (the first of each), and each class is keyed by the
invariant factors of xI - g (see fqpoly), computed once per class
representative, not per element.  Other than class_count(n, q)
classes, least members that do not increase with the label, or two
classes with one key would mean the labels were not the classes in
their canonical order, and raise InvariantViolation.  Class
representatives, flat entry tuples, are the least members.  The
central scalar w I, w the least generator `field.primitive` of F_q^*,
permutes the classes;
`scalar_class_map` gives that permutation, from which the character
table starts its split, and `det_class_map` the determinant of each
class as a power of w, by which it carries characters across twists.

Sp(2k, F_q) is the closure of the identity under right multiplication
by a generating set of symplectic transvections (`enumerate_sp`), and
H_{r,2k} stacks its unipotent top rows over it (`enumerate_h`).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import chain, compress, count, filterfalse, product, repeat
from operator import add, itemgetter

from .errors import GroupTooLarge, InvariantViolation, UsageError
from .fqpoly import Poly, invariant_factors
from .gf import FiniteField, mat_identity, mat_inv, mat_mul

DEFAULT_MAX_ELEMENTS = 10**7  # enumeration cap on |G| and |H|
SINGULAR = 0xFFFF  # the label at the code of a singular matrix


# -- element codes -----------------------------------------------------------


@lru_cache(maxsize=None)
def _row_vectors(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The row vectors of length n in lex order: entry tuples by row code."""
    return tuple(product(range(q), repeat=n))


def encode(g: tuple[int, ...], q: int) -> int:
    """The code of a matrix given as its flat row-major entry tuple."""
    code = 0
    for x in g:
        code = code * q + x
    return code


def row_codes(code: int, n: int, q: int) -> list[int]:
    """The row codes of the n x n matrix with this code, row 0 first."""
    size = q**n
    return [code // size ** (n - 1 - r) % size for r in range(n)]


def decode(code: int, n: int, q: int) -> tuple[int, ...]:
    """The flat row-major entry tuple of the n x n matrix with this code."""
    return tuple(chain.from_iterable(map(_row_vectors(n, q).__getitem__, row_codes(code, n, q))))


def chunk_rows(n: int) -> int:
    """The rows per chunk of an n x n matrix: pairs of rows when n > 2,
    single rows when n <= 2, where a pair's table of all q^(2n) values
    would be as long as the group."""
    return 2 if n > 2 else 1


def chunk_columns(codes, n: int, q: int) -> list[array]:
    """The rows of the matrix of every code in chunks of `chunk_rows(n)`
    rows (the last chunk may be shorter), each chunk as the number its
    row codes make base q^n: one array('I') per chunk, row 0 first."""
    size, width = q**n, chunk_rows(n)
    columns = []
    for a in range(0, n, width):
        b = min(a + width, n)
        col = codes if b == n else map((size ** (n - b)).__rfloordiv__, codes)
        columns.append(array("I", col if a == 0 else map((size ** (b - a)).__rmod__, col)))
    return columns


def _pack_rows(columns: list, size: int):
    """The codes, as an iterator, of the matrices whose rows are given by
    the columns (row r of every matrix in column r), base `size` per row."""
    codes = iter(columns[0])
    for col in columns[1:]:
        codes = map(add, map(size.__mul__, codes), col)
    return codes


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


def chunk_images(g: tuple[int, ...], n: int, field: FiniteField) -> list[list[int]]:
    """One table per chunk of rows (`chunk_columns`): entry v of a chunk's
    table is the code, at their places in x g, of the rows of x g that
    the chunk's rows of x give when they make the number v.  Each row's
    `row_images(g)` is moved to the row's place, q^(n(n-1-r)), and the
    chunk's rows are summed over all their values."""
    images = row_images(g, n, field)
    size, width = field.q**n, chunk_rows(n)
    tables = []
    for a in range(0, n, width):
        table = [0]
        for r in range(a, min(a + width, n)):
            shifted = list(map((size ** (n - 1 - r)).__mul__, images))
            table = list(map(add, chain.from_iterable(map(repeat, table, repeat(size))),
                             shifted * len(table)))
        tables.append(table)
    return tables


def products(columns: list[array], tables: list[list[int]]):
    """The codes of x g, as an iterator, for the matrices x with the
    chunk columns `columns` and g with the `chunk_images` `tables`: rows
    of x g depend only on the same rows of x, so the code is one lookup
    per chunk, summed."""
    codes = map(tables[0].__getitem__, columns[0])
    for table, col in zip(tables[1:], columns[1:]):
        codes = map(add, codes, map(table.__getitem__, col))
    return codes


def product_code(code: int, tables: list[list[int]], n: int, q: int) -> int:
    """The code of x g for the one matrix x with code `code` and g with
    the `chunk_images` `tables`: `products` for a single code, its chunks
    cut as `chunk_columns` cuts them, the last chunk first."""
    size, width = q**n, chunk_rows(n)
    out = 0
    for a in reversed(range(0, n, width)):
        code, chunk = divmod(code, size ** (min(a + width, n) - a))
        out += tables[a // width][chunk]
    return out


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
    the class label at every code below q^(n^2) (an array('H'), `SINGULAR`
    at singular matrices), the codes of the members of each class, least
    member first and the rest in no set order (an array('I') per class),
    and the class records.  Each element is held once, as a member: the
    order is the sum of the class sizes, and `elements` reads the codes
    off the label array.
    The class of a matrix g is labels[encode(g, q)].

    Built only by `class_records`, for `gl_enumerate` and
    `tablecache.load_table` alike.
    """

    field: FiniteField
    n: int
    labels: array
    members: tuple[array, ...]
    classes: tuple[ConjClass, ...]

    @property
    def q(self) -> int:
        return self.field.q

    @cached_property
    def order(self) -> int:
        return sum(map(len, self.members))

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The elements in lex order as flat entry tuples: the codes whose
        label is not `SINGULAR`, in increasing order, decoded."""
        n, q = self.n, self.q
        return tuple(decode(code, n, q) for code in compress(count(), map(SINGULAR.__ne__, self.labels)))

    def inverses(self) -> list[tuple[int, ...]]:
        """The inverses of `elements`, in the same order, as flat entry tuples."""
        n, f = self.n, self.field
        return [mat_inv(el, n, f) for el in self.elements]

    def identity_class(self) -> int:
        return self.labels[encode(mat_identity(self.n), self.q)]

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


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    return math.prod(q**n - q**i for i in range(n))


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


def gl_elements(n: int, field: FiniteField, max_elements: int = DEFAULT_MAX_ELEMENTS) -> array:
    """The codes of GL_n(F_q) in increasing order, as an array('I').

    A span is a set of row codes; adding a row v adds the multiples c v to
    each of its members through a table of the sums of two row codes.
    The last two rows come from the hyperplanes through the span of the
    others, as the module docstring says.
    """
    q = field.q
    expected = check_group_cap(n, q, max_elements)
    codes = array("I", range(1, q)) if n == 1 else _hyperplane_codes(n, field)
    if len(codes) != expected:
        raise InvariantViolation(f"enumerated {len(codes)}, expected {expected}")
    return codes


def _hyperplane_codes(n: int, field: FiniteField) -> array:
    """The codes of GL_n(F_q), n >= 2, in increasing order, as an array('I')."""
    q = field.q
    size = q**n
    ident = mat_identity(n)
    plus = row_images(ident + ident, n, field)  # the code of a + b at a * size + b
    sums = [plus[a * size:(a + 1) * size] for a in range(size)]
    multiples = [row_images(_diagonal([c] * n), n, field) for c in range(1, q)]
    vectors = range(size)

    def span_with(span: set[int], v: int) -> set[int]:
        out = set(span)
        for times in multiples:
            out.update(map(sums[times[v]].__getitem__, span))
        return out

    def last_two(span: set[int]) -> list[int]:
        """Row n-2 times q^n plus row n-1, in increasing order, for every
        choice of the last two rows over first rows with span `span`."""
        complements: dict[int, list[int]] = {}  # v outside span -> outside span + <v>
        for v in filterfalse(span.__contains__, vectors):
            if v not in complements:
                hyperplane = span_with(span, v)
                complements.update(dict.fromkeys(
                    hyperplane - span, list(filterfalse(hyperplane.__contains__, vectors))))
        return list(chain.from_iterable(map((v * size).__add__, outside)
                                        for v, outside in sorted(complements.items())))

    tails: dict[frozenset[int], list[int]] = {}  # by span: prefixes with one span share it
    codes = array("I")

    def extend(prefix: int, span: set[int], depth: int) -> None:
        if depth == n - 2:
            key = frozenset(span)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = last_two(span)
            codes.extend(map((prefix * size * size).__add__, tail))
            return
        for v in filterfalse(span.__contains__, vectors):
            extend(prefix * size + v, span_with(span, v), depth + 1)

    extend(0, {0}, 0)
    # `extend` calls itself, so it and its closure are a reference cycle that
    # holds `codes` and `tails` until the cyclic collector runs: break it, so
    # the codes live only as long as the caller holds them
    del extend
    return codes


def gl_enumerate(n: int, field: FiniteField, max_elements: int = DEFAULT_MAX_ELEMENTS) -> GroupTable:
    """GL_n(F_q) in lexicographic order, with its conjugacy classes."""
    return conjugacy_classes(gl_elements(n, field, max_elements), n, field)


def scalar_class_map(table: GroupTable) -> list[int]:
    """The class of w g_c for every class c, w I the scalar matrix of
    `field.primitive`, the least generator w of F_q^* (w = 1 when q = 2).

    w I is central, so it permutes the classes and keeps their sizes; one
    product per entry of each representative and one label lookup give
    the image.  A map that is not such a permutation means the labels
    were not the classes, and raises InvariantViolation.
    """
    field, classes, labels = table.field, table.classes, table.labels
    q = field.q
    times_w = field.mul[field.primitive::q]  # x -> x w
    out = [labels[encode(map(times_w.__getitem__, c.representative), q)] for c in classes]
    if sorted(out) != list(range(len(classes))):
        raise InvariantViolation("multiplying by a scalar does not permute the classes")
    if any(classes[d].size != c.size for c, d in zip(classes, out)):
        raise InvariantViolation("multiplying by a scalar changes a class size")
    return out


def det_class_map(table: GroupTable, shift: list[int]) -> list[int]:
    """The exponent a_c in [0, q - 1) with det g_c = w^(a_c) for every
    class c, w = `field.primitive`, as in `scalar_class_map`.

    The invariant factors of xI - g multiply to det(xI - g), whose value
    at 0 is det(-g), so det g = (-1)^n prod f(0).  det(w g) = w^n det g,
    so a_sigma(c) = a_c + n mod q - 1 for `shift`, the scalar class map
    sigma; a map that breaks this raises InvariantViolation.
    """
    field, n, q = table.field, table.n, table.q
    w, log, x = field.primitive, {}, 1
    for a in range(q - 1):
        log[x], x = a, field.mul[x * q + w]
    out = []
    for c in table.classes:
        det = field.neg[1] if n % 2 else 1
        for f in c.invariant_factors:
            det = field.mul[det * q + f[0]]
        out.append(log.get(det, -1))
    if -1 in out or any((out[s] - a - n) % (q - 1) for a, s in zip(out, shift)):
        raise InvariantViolation("the class determinants do not follow multiplication by a scalar")
    return out


def _gl_generators(n: int, field: FiniteField) -> list[tuple[int, ...]]:
    """Two matrices as flat tuples, whose conjugation orbits are the
    classes of GL_n(F_q): with P the n-cycle permutation matrix, whose
    row i is e_{i+1} (indices mod n), and x_12(1) = I + E_12, they are P
    and x_12(1) when q = 2, and P x_12(1) and diag(w, 1, ..., 1) with w
    = `field.primitive` when q > 2.

    P and x_12(1) generate GL_n(F_2) = SL_n(F_2): the cycle's conjugates
    of x_12(1) are the x_{i,i+1}(1) and x_{n,1}(1), whose commutators
    give every x_ij(1).  For q > 2, P, x_12(1) and diag(w) generate
    GL_n(F_q) (conjugating by diag(w) adds the x_12(a) for all a, as the
    powers of w span F_q, and every determinant), but whether P x_12(1)
    and diag(w) alone do is not proved here.  It need not be: orbits of
    conjugation by any subgroup refine the classes, so orbits that
    number exactly class_count(n, q) are the classes.  The search
    counts them and raises InvariantViolation on more or fewer; the pair
    passes that count on every group the tests run and on GL_4(F_3).
    The identity twice for n = 1, where classes are singletons, so that
    every n has a pair."""
    ident = mat_identity(n)
    if n == 1:
        return [ident, ident]
    cycle = tuple(int(j == (i + 1) % n) for i in range(n) for j in range(n))
    transvection = ident[:1] + (1,) + ident[2:]
    if field.q == 2:
        return [cycle, transvection]
    return [mat_mul(cycle, transvection, n, field), _diagonal([field.primitive] + [1] * (n - 1))]


def _conjugation_tables(generators: list[tuple[int, ...]], n: int, field: FiniteField,
                        ) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """The cut q^(n(n-2)) (1 when n <= 2) and, for each of the flat
    invertible matrices s of `generators` in order, its tables
    (top, rest), with the code of s g s^-1 equal to
    top[g // cut] + rest[g % cut] (see the module docstring): top over
    the matrices zero below row 1, rest over those zero on rows 0 and 1.

    Row i of s g s^-1 is sum_j s_ij (row j of g) s^-1 over the rows j
    with s_ij != 0: those rows packed base q^n, looked up in the
    `row_images` of the s_ij s^-1 stacked in order.  A row i whose rows j
    lie on both sides of the cut (rows 0 and 1 against the others) would
    make the sum carry, and raises InvariantViolation."""
    q, size = field.q, field.q**n
    cut = size ** max(n - 2, 0)

    def all_rows(k: int) -> list[list[int]]:
        """The row columns of the k-row matrices, in code order."""
        return [list(chain.from_iterable(map(repeat, range(size), repeat(size ** (k - 1 - r)))))
                * size**r for r in range(k)]

    top = all_rows(min(n, 2)) + [[0] * size**2] * (n - 2)
    rest = [[0] * cut] * 2 + all_rows(n - 2)
    lookup = cache(lambda stacked: row_images(stacked, n, field).__getitem__)  # the cycle shares one
    out = []
    for s in generators:
        inverse = mat_inv(s, n, field)
        rows = []  # (the rows j that row i reads, their row_images lookup)
        for i in range(n):
            sources = [j for j in range(n) if s[i * n + j]]
            if sources[0] < 2 <= sources[-1]:
                raise InvariantViolation(f"row {i} of a conjugate reads rows {sources}, across the cut")
            rows.append((sources, lookup(tuple(
                field.mul[s[i * n + j] * q + x] for j in sources for x in inverse))))
        out.append(tuple(
            list(_pack_rows([map(images, _pack_rows([cols[j] for j in sources], size))
                             for sources, images in rows], size))
            for cols in (top, rest)))
    return cut, out


def conjugacy_classes(codes: array, n: int, field: FiniteField) -> GroupTable:
    """The table of GL_n(F_q) with its classes as conjugation orbits, from
    the codes of its elements in increasing order, as `class_records`
    builds it.  The table keeps no reference to `codes`: the members and
    labels hold every element.

    One label array indexed by code is the search's visited set:
    conjugates of invertible matrices are invertible, so `SINGULAR`
    marks a code not yet reached.  The first code in increasing order not
    yet reached is the least member of a new orbit, as every lesser code
    was labelled by an earlier one.  The orbit is a list that the loop
    reads while it appends to it: each member's two conjugates are two
    lookups each in the `_conjugation_tables` of the pair that
    `_gl_generators` returns, written out for the two, and one not yet
    reached is labelled and appended.  Each finished orbit, least member
    first and the rest in the order the walk reached them, is the members
    of its class, so the search visits each element once and no pass
    over the group or sort follows it.  A generator count other than two
    raises InvariantViolation.  More orbits than class_count(n, q) raise
    InvariantViolation before the next orbit starts, so the label counter
    never reaches `SINGULAR`; fewer raise in `class_records`.
    """
    q = field.q
    expected = class_count(n, q)
    cut, tables = _conjugation_tables(_gl_generators(n, field), n, field)
    if len(tables) != 2:
        raise InvariantViolation(f"{len(tables)} conjugation generators, the search takes 2")
    (top0, rest0), (top1, rest1) = tables
    labels = array("H", [SINGULAR]) * q ** (n * n)
    members = []
    for start in codes:
        if labels[start] != SINGULAR:
            continue
        c = len(members)
        if c == expected:
            raise InvariantViolation(f"more than {expected} conjugation orbits in GL_{n}(F_{q})")
        labels[start] = c
        orbit = [start]
        for g in orbit:
            hi, lo = g // cut, g % cut
            h = top0[hi] + rest0[lo]
            if labels[h] == SINGULAR:
                labels[h] = c
                orbit.append(h)
            h = top1[hi] + rest1[lo]
            if labels[h] == SINGULAR:
                labels[h] = c
                orbit.append(h)
        members.append(array("I", orbit))
    return class_records(tuple(members), labels, n, field)


def class_records(members: tuple[array, ...], labels: array, n: int,
                  field: FiniteField) -> GroupTable:
    """The table of GL_n(F_q) with the class members `members` (the codes
    of each class, least member first, class c at index c) and `labels`,
    the label array of q^(n^2) entries holding c at the codes of class c
    and `SINGULAR` at every code that is not an element.

    Only per-class work is done here: the caller made the members and
    wrote the labels, the search as it walks the orbits and
    `tablecache.load_table` in its one loop over the file's labels.  The
    classes must be the class_count(n, q) classes, numbered in the order
    of their least members, as the search of `conjugacy_classes` finds
    them.  A class's size is its count of members, its representative
    its least member, the first, as a flat entry tuple, its key the
    invariant factors of xI - g of the representative, and its inverse
    class the label at the representative's inverse.  Other
    than class_count(n, q) classes or an empty one (labels that skip a
    number or merge classes, say), sizes that do not sum to
    gl_order(n, q) (a member that is not an element, say),
    least members that do not increase with the label (labels that
    permute the classes) or a key shared by two classes (labels that
    split a class) raise InvariantViolation.
    """
    q = field.q
    expected = class_count(n, q)
    if len(members) != expected or not all(members):
        raise InvariantViolation(
            f"{sum(map(bool, members))} classes named, GL_{n}(F_{q}) has {expected}")
    if sum(map(len, members)) != gl_order(n, q):
        raise InvariantViolation("the class sizes do not sum to the group order")
    firsts = [m[0] for m in members]
    if any(a > b for a, b in zip(firsts, firsts[1:])):
        raise InvariantViolation("class labels out of order: a later class has a lesser member")
    reps = [decode(code, n, q) for code in firsts]
    keys = [invariant_factors(g, n, field) for g in reps]
    if len(set(keys)) != len(keys):
        raise InvariantViolation("two classes share invariant factors")
    classes = tuple(
        ConjClass(g, len(m), key, labels[encode(mat_inv(g, n, field), q)])
        for g, key, m in zip(reps, keys, members)
    )
    return GroupTable(field, n, labels, members, classes)


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


def psi_r_trace(g: int, r: int, n: int, field: FiniteField) -> int:
    """Tr_{F_q/F_p}(u_{1,2} + ... + u_{r-1,r}) in [0, p) of the code of
    an n x n matrix: u_{i,i+1} is entry (i, i + 1), base-q digit
    n^2 - 2 - i (n + 1) of the code."""
    if r <= 1:
        return 0
    q, add = field.q, field.add
    s = 0
    for i in range(r - 1):
        s = add[s * q + g // q ** (n * n - 2 - i * (n + 1)) % q]
    return field.trace_to_prime(s)


# -- subgroup enumeration -------------------------------------------------


def _symplectic_generators(k: int, field: FiniteField) -> list[tuple[int, ...]]:
    """Symplectic transvections x -> x + t omega(x, v) v that generate
    Sp(2k, F_q), k >= 1, as flat matrices I + t (J t(v)) v; omega(x, v)
    = x J t(v).  With e_a = row a of I and f_a = row 2k - 1 - a, so that
    omega(e_a, f_b) = [a = b], v runs over every e_a and f_a and, for
    a < k - 1, over e_a + f_{a+1} and e_{a+1} + f_a; t runs over the
    F_p-basis 1, w, ..., w^(e-1) of F_q, w = `field.primitive`.

    Why they generate: T_{v,s} T_{v,t} = T_{v,s+t}, so every T_{v,t} is
    reached.  The T_{e_a,t} and T_{f_a,t} are the long root groups
    X_{2 eps_a} and X_{-2 eps_a}.  For u, v with omega(u, v) = 0,
    T_{u+v,t} T_{u,-t} T_{v,-t} is x -> x + t (omega(x, u) v + omega(x, v) u),
    which for (e_a, f_{a+1}) and (e_{a+1}, f_a) gives the short root groups
    X_{eps_a - eps_{a+1}} and X_{eps_{a+1} - eps_a}.  The root groups of
    the simple roots of C_k and of their negatives generate Sp(2k, F_q)
    (Steinberg, Lectures on Chevalley Groups, sections 3 and 6).
    A generator that is not symplectic (g J t(g) != J) raises
    InvariantViolation.
    """
    n, q, add, mul = 2 * k, field.q, field.add, field.mul
    j = symplectic_form(k, field)
    basis = [tuple(int(b == a) for b in range(n)) for a in range(n)]
    vectors = basis + [tuple(map(max, basis[a], basis[n - 2 - a])) for a in range(k - 1)] \
        + [tuple(map(max, basis[a + 1], basis[n - 1 - a])) for a in range(k - 1)]
    scalars = [field.pow(field.primitive, i) for i in range(field.e)]
    out = []
    for v in vectors:
        jv = []  # J t(v)
        for a in range(n):
            s = 0
            for c in range(n):
                s = add[s * q + mul[j[a * n + c] * q + v[c]]]
            jv.append(s)
        for t in scalars:
            g = tuple(add[int(a == b) * q + mul[mul[t * q + jv[a]] * q + v[b]]]
                      for a in range(n) for b in range(n))
            gt = tuple(g[b * n + a] for a in range(n) for b in range(n))
            if mat_mul(mat_mul(g, j, n, field), gt, n, field) != j:
                raise InvariantViolation(f"the transvection along {v} is not symplectic")
            out.append(g)
    return out


def enumerate_sp(k: int, field: FiniteField) -> list[int]:
    """The codes of Sp(2k, F_q) in increasing order: the closure of the
    identity under right multiplication by `_symplectic_generators`,
    frontier by frontier.  Each generator multiplies the whole frontier
    at once through its `chunk_images`, one lookup per chunk of rows.  A
    closure whose size is not |Sp(2k, F_q)| raises InvariantViolation.
    """
    if k == 0:
        return [0]  # the empty matrix
    n, q = 2 * k, field.q
    generators = [chunk_images(g, n, field) for g in _symplectic_generators(k, field)]
    seen = frontier = {encode(mat_identity(n), q)}
    while frontier:
        columns = chunk_columns(frontier, n, q)
        found: set[int] = set()
        for tables in generators:
            found.update(products(columns, tables))
        frontier = found - seen
        seen |= frontier
    if len(seen) != sp_order(k, q):
        raise InvariantViolation(
            f"|Sp({n}, F_{q})| came out {len(seen)}, expected {sp_order(k, q)}")
    return sorted(seen)


def enumerate_h(r: int, k: int, field: FiniteField) -> list[int]:
    """The codes of H_{r,2k}(F_q) inside GL_n(F_q), n = r + 2k, in
    increasing order.

    Top row i has 1 on the diagonal, 0 to its left and any field element
    to its right (the U_r block together with the r x 2k block beside
    it), so its row codes are the range [q^(n-1-i), 2 q^(n-1-i)).  The
    top rows range over the product of these ranges, each stacked over
    [0 | s] for every s in Sp(2k) from `enumerate_sp`, whose row codes
    are those of s.
    """
    n, q = r + 2 * k, field.q
    total = h_order(r, k, q)
    if total > DEFAULT_MAX_ELEMENTS:
        raise GroupTooLarge(f"|H_{{{r},{2 * k}}}| = {total} exceeds cap {DEFAULT_MAX_ELEMENTS}")
    size = q**n
    bottoms = enumerate_sp(k, field)
    if r and k:  # the rows of s, re-packed as rows of length n
        bottoms = [sum(row * size ** (2 * k - 1 - j)
                       for j, row in enumerate(row_codes(s, 2 * k, q))) for s in bottoms]
    out: list[int] = []
    for top in product(*(range(q ** (n - 1 - i), 2 * q ** (n - 1 - i)) for i in range(r))):
        start = 0
        for row in top:
            start = start * size + row
        start *= size ** (2 * k)
        out.extend(map(start.__add__, bottoms))
    if len(out) != total:
        raise InvariantViolation(f"|H| came out {len(out)}, expected {total}")
    return out
