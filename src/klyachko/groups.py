"""Enumeration of GL_n(F_q), its conjugacy classes, and the subgroups
H_{r,2k} with their character psi_r.

Group elements are flat row-major tuples of field-element codes.  The
enumeration builds matrices row by row, only extending with vectors
outside the span of the rows chosen so far, so exactly the
prod_{i<n} (q^n - q^i) invertible matrices are produced, in
lexicographic order.

Conjugacy classes are the orbits of conjugation by three cheap
generators of GL_n(F_q) (an n-cycle permutation matrix, the elementary
matrix x_12(1) and, for q > 2, diag(w, 1, ..., 1) with w primitive),
found in one sweep over the elements that fills the table's one map
from element to class.  `class_records` turns that map into the class
records, for the sweep and for a cached table alike.  Each class is
keyed by the invariant factors of xI - g (see fqpoly), computed once per
class representative, not per element; two classes with one key would
mean the labels were finer than the classes, and raise
InvariantViolation.  Class representatives are the lexicographically
least members, which the lex enumeration order makes free.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import product
from operator import itemgetter

from .arena import prime_factors
from .errors import GroupTooLarge, InvariantViolation, UsageError
from .fqpoly import Poly, invariant_factors
from .gf import FiniteField, mat_identity, mat_inv, mat_mul

DEFAULT_MAX_ELEMENTS = 10**7  # enumeration cap on |G| and |H|


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
    the map from each element to its conjugacy class, keys in lex order,
    and the class records.

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
        """The elements in lex order: the keys of `class_of`."""
        return tuple(self.class_of)

    def identity(self) -> tuple[int, ...]:
        return mat_identity(self.n)

    def inverses(self) -> list[tuple[int, ...]]:
        n, f = self.n, self.field
        return [mat_inv(el, n, f) for el in self.class_of]

    def identity_class(self) -> int:
        return self.class_of[self.identity()]

    def powers(self, el: tuple[int, ...]) -> list[tuple[int, ...]]:
        """el, el^2, ... up to the identity: as many as the order of el."""
        ident, n, f = self.identity(), self.n, self.field
        out = [el]
        while out[-1] != ident:
            out.append(mat_mul(out[-1], el, n, f))
        return out

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
    """The elements of GL_n(F_q) in lexicographic (row-major) order."""
    q = field.q
    expected = check_group_cap(n, q, max_elements)
    add, mul = field.add, field.mul
    vectors = list(product(range(q), repeat=n))
    elements: list[tuple[int, ...]] = []
    zero = vectors[0]

    def extend(rows: tuple[int, ...], span: set[tuple[int, ...]], depth: int) -> None:
        last = depth == n - 1
        for v in vectors:
            if v in span:
                continue
            new_rows = rows + v
            if last:
                elements.append(new_rows)
                continue
            new_span = set(span)
            for c in range(1, q):
                cv = tuple(mul[c * q + x] for x in v)
                for s in span:
                    new_span.add(tuple(add[s[i] * q + cv[i]] for i in range(n)))
            extend(new_rows, new_span, depth + 1)

    extend((), {zero}, 0)
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


def _conjugators(n: int, field: FiniteField) -> list:
    """Maps g -> s g s^-1 on flat tuples, for s in a generating set of
    GL_n(F_q): the n-cycle permutation matrix, x_12(1) = I + E_12 and,
    when q > 2, diag(w, 1, ..., 1) with w primitive.  The cycle's
    conjugates of x_12(1) are the x_{i,i+1}(1) and x_{n,1}(1), whose
    commutators give every x_ij(1), hence SL_n(F_p); conjugating by
    diag(w) adds the x_12(a) for all a (the powers of w span F_q) and
    every determinant.  Empty for n = 1, where classes are singletons."""
    if n == 1:
        return []
    q, add, sub, mul = field.q, field.add, field.sub, field.mul
    cells = n * n
    # entry (i, j) of P g P^-1 is entry (i + 1, j + 1) of g, indices mod n
    cycle = itemgetter(*[(i + 1) % n * n + (j + 1) % n for i in range(n) for j in range(n)])

    def transvection(g):
        m = list(g)
        for j in range(n):  # row 0 += row 1
            m[j] = add[m[j] * q + m[n + j]]
        for i in range(0, cells, n):  # col 1 -= col 0
            m[i + 1] = sub[m[i + 1] * q + m[i]]
        return tuple(m)

    out = [cycle, transvection]
    if q > 2:
        w = _primitive_element(field)
        w_inv = field.inv[w]

        def scaling(g):
            m = list(g)
            for j in range(1, n):  # row 0 *= w
                m[j] = mul[m[j] * q + w]
            for i in range(n, cells, n):  # col 0 *= w^-1
                m[i] = mul[m[i] * q + w_inv]
            return tuple(m)

        out.append(scaling)
    return out


def conjugacy_classes(elements: Iterable[tuple[int, ...]], n: int, field: FiniteField,
                      ) -> tuple[tuple[ConjClass, ...], dict[tuple[int, ...], int]]:
    """Classes of a lex-ordered element list as conjugation orbits, and
    the map from each element to its class, keys in the list's order.

    The first element not yet labelled is the lex-least member of a new
    class, whose orbit is then labelled by a depth-first search over the
    generators of `_conjugators`; `class_records` builds the records.
    """
    conjugators = _conjugators(n, field)
    class_of = dict.fromkeys(elements, -1)
    c = 0
    for start, label in class_of.items():  # relabelling keeps the keys
        if label >= 0:
            continue
        class_of[start] = c
        stack = [start]
        while stack:
            g = stack.pop()
            for conj in conjugators:
                h = conj(g)
                if class_of[h] < 0:
                    class_of[h] = c
                    stack.append(h)
        c += 1
    return class_records(class_of, n, field), class_of


def class_records(class_of: dict[tuple[int, ...], int], n: int, field: FiniteField,
                  ) -> tuple[ConjClass, ...]:
    """The records of the classes that `class_of` labels, one label per
    element, numbered 0, 1, ... with none skipped (KeyError otherwise).

    A class's representative is its first key, its size the count of its
    label, its key the invariant factors of xI - g of the representative,
    and its inverse class the label of the representative's inverse.  A
    key shared by two classes raises InvariantViolation.
    """
    # walking backwards, the last key stored for a label is its first
    first = dict(zip(reversed(class_of.values()), reversed(class_of.keys())))
    sizes = Counter(class_of.values())
    reps = [first[c] for c in range(len(first))]
    keys = [invariant_factors(g, n, field) for g in reps]
    if len(set(keys)) != len(keys):
        raise InvariantViolation("two classes share invariant factors")
    return tuple(
        ConjClass(g, sizes[c], key, class_of[mat_inv(g, n, field)])
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


def psi_r_trace_flat(g: tuple[int, ...], spec: KlyachkoSubgroupSpec, field: FiniteField) -> int:
    """Tr_{F_q/F_p}(u_{1,2} + ... + u_{r-1,r}) in [0, p)."""
    r, n = spec.r, spec.n
    if r <= 1:
        return 0
    q, add = field.q, field.add
    s = 0
    for i in range(r - 1):
        s = add[s * q + g[i * n + (i + 1)]]
    return field.trace_to_prime(s)


# -- subgroup enumeration -------------------------------------------------


def enumerate_sp(k: int, field: FiniteField) -> list[tuple[int, ...]]:
    """Sp(2k, F_q) in lexicographic order, built column by column.

    g is symplectic exactly when omega(g_a, g_b) = J_ab for every pair of
    its columns, where omega(u, v) = t(u) J v.  So the columns are chosen
    one at a time, each from the nonzero vectors v with
    omega(g_a, v) = J_ab for every column g_a already chosen.  Each chosen
    column is kept as the functional t(g_a) J, one row of the
    multiplication table per coordinate, so omega(g_a, v) costs 2k
    lookups and additions.
    """
    if k == 0:
        return [()]
    n, q, add, mul = 2 * k, field.q, field.add, field.mul
    j = symplectic_form(k, field)
    vectors = list(product(range(q), repeat=n))[1:]  # the zero vector is never a column
    out: list[tuple[int, ...]] = []

    def functional(u: tuple[int, ...]) -> list[list[int]]:
        rows = []
        for c in range(n):
            w = 0
            for r in range(n):
                w = add[w * q + mul[u[r] * q + j[r * n + c]]]
            rows.append(mul[w * q:(w + 1) * q])
        return rows

    def extend(cols: list[tuple[int, ...]], funcs: list[list[list[int]]]) -> None:
        b = len(cols)
        if b == n:
            out.append(tuple(x for row in zip(*cols) for x in row))
            return
        wants = [(rows, j[a * n + b]) for a, rows in enumerate(funcs)]
        for v in vectors:
            for rows, want in wants:
                s = 0
                for row, x in zip(rows, v):
                    s = add[s * q + row[x]]
                if s != want:
                    break
            else:
                extend(cols + [v], funcs + [functional(v)])

    extend([], [])
    out.sort()
    return out


def enumerate_h(spec: KlyachkoSubgroupSpec, field: FiniteField) -> list[tuple[int, ...]]:
    """All of H_{r,2k}(F_q), in lexicographic order.

    The top r rows range over one product of their entries: 1 on the
    diagonal, 0 to its left and any field element to its right (the U_r
    block together with the r x 2k block beside it).  Each is stacked
    over [0 | s] for every s in Sp(2k) from `enumerate_sp`.
    """
    r, k, n = spec.r, spec.k, spec.n
    q, m = field.q, 2 * k
    total = h_order(r, k, q)
    if total > DEFAULT_MAX_ELEMENTS:
        raise GroupTooLarge(f"|H_{{{r},{m}}}| = {total} exceeds cap {DEFAULT_MAX_ELEMENTS}")
    cells = [(1,) if j == i else (0,) if j < i else range(q) for i in range(r) for j in range(n)]
    zeros = (0,) * r
    bottoms = [tuple(x for i in range(m) for x in zeros + s[i * m:(i + 1) * m])
               for s in enumerate_sp(k, field)]
    out = [top + bottom for top in product(*cells) for bottom in bottoms]
    if len(out) != total:
        raise InvariantViolation(f"|H| came out {len(out)}, expected {total}")
    return out
