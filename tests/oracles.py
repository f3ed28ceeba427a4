"""Test oracles: matrix and subgroup helpers, the row-by-row search for
Sp(2k, F_q), three matrices that provably generate GL_n(F_q) and a
search over their conjugation orbits, the class members bucketed from
the labels, the dense kernel of a matrix in RREF, the character
split's visit order over every non-central class, the sources of its
class matrix rows and the rows counted over C_i, Green's class data,
the segment calculus, contragredients and mu_Q behind the symbolic
commands, and per-index routines on Weyl elements as image tuples with
the closed forms of the residue-survival count.  The library itself
does not need them; they are written plainly so the tests can check it
against them."""

import math
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from klyachko.characters import _rational_class, _rref
from klyachko.errors import EmptyBlock, InvariantViolation
from klyachko.gf import mat_identity, mat_mul
from klyachko.groups import (
    SINGULAR,
    _conjugation_tables,
    chunk_columns,
    chunk_images,
    encode,
    gl_elements,
    products,
    symplectic_form,
)
from klyachko.speh import Block, kappa


def gl_order(n, q):
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    qn = q**n
    out = 1
    for i in range(n):
        out *= qn - q**i
    return out


def exponent_by_powers(table):
    """The lcm of the orders of the class representatives, each order
    found by multiplying the representative by itself up to the identity."""
    n, field, ident = table.n, table.field, mat_identity(table.n)

    def order(g):
        x, k = g, 1
        while x != ident:
            x, k = mat_mul(x, g, n, field), k + 1
        return k

    return math.lcm(*(order(cls.representative) for cls in table.classes))


def label_of(table, el):
    """The class label of a matrix given as its flat entry tuple: the
    label at its code; KeyError at a singular matrix."""
    label = table.labels[encode(el, table.q)]
    if label == SINGULAR:
        raise KeyError(f"{el} is singular")
    return label


def element_labels(table):
    """The class label of every element of a group table, in increasing
    order of codes, the codes taken from `gl_elements`, not the table."""
    return [table.labels[code] for code in gl_elements(table.n, table.field)]


def inner_product_residue(a, b, table, arena):
    """<a, b> = |G|^-1 sum_c |c| a(c) b(c^-1) of two class functions of
    `arena`, as a residue mod ell, one pair at a time."""
    ell = arena.ell
    acc = sum(c.size * x * b[c.inverse_class] for c, x in zip(table.classes, a))
    return acc % ell * pow(table.order, ell - 2, ell) % ell


def every_class_visit_order(table, images):
    """The split's visit order with no class skipped: every non-central
    class once, one per rational class first, then the rest, each group
    in ascending (size, index) order."""
    classes = table.classes
    seen, first, rest = set(), [], []
    for c in sorted((c for c in range(len(classes)) if classes[c].size > 1),
                    key=lambda c: (classes[c].size, c)):
        if c in seen:
            rest.append(c)
        else:
            seen |= _rational_class(table, c, images)
            first.append(c)
    return first + rest


def class_members(table):
    """The codes of the members of each class, in increasing order,
    indexed by class: the element codes of `gl_elements`, not the
    table's, bucketed by their labels."""
    members = tuple(array("I") for _ in table.classes)
    for code in gl_elements(table.n, table.field):
        members[table.labels[code]].append(code)
    return members


def relabelled(table, labels, classes):
    """`table` with the label array `labels` and the class records
    `classes`, and the members bucketed from those labels: a corrupt
    classification whose members still match its labels."""
    out = replace(table, labels=labels, classes=classes)
    return replace(out, members=class_members(out))


def kernel_basis(mat, ell):
    """The null space {v : mat v = 0} mod ell in RREF: one vector per free
    column, and the free columns, its pivots, by one dense elimination.

    `mat` is eliminated from its last column back (the RREF of its rows
    reversed), so a row's pivot column c is its last nonzero column and
    the row is zero at every free column after c.  The vector of free
    column fc is 1 at fc, 0 at the other free columns and -row[fc] at the
    pivot column c of each row, nonzero only for c > fc.  In ascending
    order of fc the vectors are therefore in RREF with the free columns
    as pivots.
    """
    n = len(mat[0])
    red, back = _rref([row[::-1] for row in mat], ell)
    pivots = [n - 1 - c for c in back]
    free = sorted(set(range(n)) - set(pivots))
    out = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[n - 1 - fc] % ell
        out.append(v)
    return out, free


def tensor_sources(table):
    """(columns, images) as `class_multiplication_tensor` takes them: the
    chunk columns of the members of each class and the chunk images of
    each representative, each built once."""
    columns = cache(lambda c: chunk_columns(table.members[c], table.n, table.q))
    images = cache(lambda c: chunk_images(table.classes[c].representative, table.n, table.field))
    return columns, images


def tensor_rows_over_c_i(table, i, rows, members):
    """Rows j of the class matrix M_i, each counted over C_i:
    a_ij^k = |C_j| #{x in C_i : x g_j in C_k} / |C_k|, a division that is
    not exact an InvariantViolation; `members` are the codes of every
    class's members."""
    classes, labels = table.classes, table.labels
    columns = chunk_columns(members[i], table.n, table.q)
    out = []
    for j in rows:
        tables = chunk_images(classes[j].representative, table.n, table.field)
        counts = Counter(labels[code] for code in products(columns, tables))
        row = [0] * len(classes)
        for k, cnt in counts.items():
            row[k], rem = divmod(classes[j].size * cnt, classes[k].size)
            if rem:
                raise InvariantViolation(f"row {j} of class {i}: division by |C_{k}| not exact")
        out.append(row)
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


def det_exponents(table):
    """The exponent a in [0, q - 1) with det g_c = w^a for every class
    representative, w the least element of F_q^* of order q - 1: the
    determinant by elimination (`mat_det`), its exponent by stepping
    through the powers of w.  No invariant factor is used."""
    field, n, q = table.field, table.n, table.q

    def powers(w):
        out, x = [], 1
        for _ in range(q - 1):
            out.append(x)
            x = field.mul[x * q + w]
        return out

    w = next(w for w in range(1, q) if len(set(powers(w))) == q - 1)
    log = powers(w)
    return [log.index(mat_det(cls.representative, n, field)) for cls in table.classes]


def sp_membership_flat(g, k, field):
    """t(g) J g == J by two matrix products (Sp(0) is the empty matrix)."""
    if k == 0:
        return g == ()
    n = 2 * k
    j = symplectic_form(k, field)
    return mat_mul(mat_mul(mat_transpose(g, n), j, n, field), g, n, field) == j


def sp_by_search(k, field):
    """Sp(2k, F_q) as row-code tuples in lexicographic order, built row
    by row: g is symplectic exactly when omega(g_a, g_b) = J_ab for every
    pair of its rows, omega(u, v) = u J t(v), so each row is chosen from
    the nonzero vectors v with omega(g_a, v) = J_ab for every row g_a
    already chosen.  Each chosen row is kept as the functional g_a J, one
    row of the multiplication table per coordinate."""
    if k == 0:
        return [()]
    n, q, add, mul = 2 * k, field.q, field.add, field.mul
    j = symplectic_form(k, field)
    vectors = list(enumerate(product(range(q), repeat=n)))[1:]  # the zero vector is never a row
    out = []

    def functional(u):
        rows = []
        for c in range(n):
            w = 0
            for r in range(n):
                w = add[w * q + mul[u[r] * q + j[r * n + c]]]
            rows.append(mul[w * q:(w + 1) * q])
        return rows

    def extend(codes, funcs):
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
    return sorted(out)


def h_membership_flat(g, r, k, field):
    """Membership in H_{r,2k}: zero lower-left block, U_r upper-left,
    Sp(2k) lower-right."""
    n = r + 2 * k
    if any(g[i * n + j] for i in range(r, n) for j in range(r)):
        return False
    for i in range(r):
        for j in range(i + 1):
            if g[i * n + j] != (1 if i == j else 0):
                return False
    s = 2 * k
    return sp_membership_flat(tuple(g[(r + i) * n + (r + j)] for i in range(s) for j in range(s)),
                              k, field)


def _mobius(m):
    out, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


def irreducible_count(d, q):
    """Monic irreducibles of degree d over F_q other than f = x, by
    Gauss's formula (1/d) sum_{e | d} mu(e) q^(d/e)."""
    total = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
    return total - 1 if d == 1 else total


def partitions(m, largest=None):
    """The partitions of m as non-increasing tuples."""
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in partitions(m - part, part):
            yield (part,) + rest


def green_functions(n, q):
    """Green's functions lambda from the monic irreducibles f != x over
    F_q to partitions with sum deg f * |lambda(f)| = n, each as a list of
    (f, deg f, lambda(f)) over the f with lambda(f) nonempty.  The f are
    labelled by degree and a count; their coefficients play no part.
    The same functions index the conjugacy classes and the irreducibles
    of GL_n(F_q)."""
    polys = [(f"f{d}_{i}", d) for d in range(1, n + 1) for i in range(irreducible_count(d, q))]

    def assign(start, left):
        if left == 0:
            yield []
            return
        for at in range(start, len(polys)):
            name, d = polys[at]
            for size in range(1, left // d + 1):
                for lam in partitions(size):
                    for rest in assign(at + 1, left - d * size):
                        yield [(name, d, lam)] + rest

    yield from assign(0, n)


def green_parameters(n, q):
    """Green's parametrisation of the irreducibles of GL_n(F_q): each
    function of `green_functions` as the Tadic parameter with one block
    U(f:deg f,1,t) for each part t of lambda(f)."""
    for function in green_functions(n, q):
        yield tuple(sorted(plain(Label(name, d), 1, t) for name, d, lam in function for t in lam))


def centraliser_factor(lam, t):
    """a_lambda(t) = t^(|lambda| + 2 n(lambda)) prod_i phi_{m_i}(1/t), with
    n(lambda) = sum_i (i - 1) lambda_i, m_i the multiplicity of the part i
    and phi_m(x) = (1 - x)(1 - x^2)...(1 - x^m) (Macdonald, ch. IV 2)."""
    out = Fraction(t ** (sum(lam) + 2 * sum(i * part for i, part in enumerate(lam))))
    for m in Counter(lam).values():
        for j in range(1, m + 1):
            out *= 1 - Fraction(1, t**j)
    if out.denominator != 1:
        raise ValueError(f"a_{lam}({t}) = {out} is not an integer")
    return int(out)


def green_class_sizes(n, q):
    """The conjugacy class sizes of GL_n(F_q), in ascending order, from
    Green's class data: the class of lambda has centraliser order
    prod_f a_{lambda(f)}(q^deg f), so its size is |G| over that.  Their
    number is the class count."""
    order = gl_order(n, q)
    sizes = []
    for function in green_functions(n, q):
        centraliser = math.prod(centraliser_factor(lam, q**d) for _, d, lam in function)
        if order % centraliser:
            raise ValueError(f"centraliser order {centraliser} does not divide {order}")
        sizes.append(order // centraliser)
    return sorted(sizes)


def model_histogram(n, q):
    """{k: number of irreducibles of GL_n(F_q) in the model H_{n-2k,2k}},
    read from Green's parametrisation through kappa: odd parts t feed r,
    and floor(t/2) deg f feeds k."""
    return dict(Counter(kappa(param)[1] for param in green_parameters(n, q)))


def model_columns(rows):
    """{k: number of irreducibles with a nonzero multiplicity in column k}
    of the rows of a Gelfand report in JSON form."""
    return dict(Counter(k for row in rows for k, m in row["mults"] if m))


def hook_lengths(lam):
    """The hook lengths of the cells of the partition lam."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    return [part - j + conj[j] - i - 1 for i, part in enumerate(lam) for j in range(part)]


def green_degree(function, n, q):
    """The degree of the irreducible of GL_n(F_q) with Green's function
    lambda (a list as `green_functions` yields it): Green's formula
    psi_n(q) prod_f q_f^n(lambda(f)) / H_lambda(f)(q_f), with
    psi_n(q) = (q - 1)(q^2 - 1)...(q^n - 1), q_f = q^deg f,
    n(lambda) = sum_i (i - 1) lambda_i and H_lambda(t) the product of
    t^h - 1 over the hook lengths h (Macdonald, ch. IV (6.7), there
    with lambda(f) transposed: here a one-part lambda(f) = (n) of a
    degree-1 f is a character, as U(f:1,1,n) is in `green_parameters`)."""
    numerator = math.prod(q**i - 1 for i in range(1, n + 1))
    denominator = 1
    for _, d, lam in function:
        numerator *= q ** (d * sum(i * part for i, part in enumerate(lam)))
        denominator *= math.prod(q ** (d * h) - 1 for h in hook_lengths(lam))
    if numerator % denominator:
        raise ValueError(f"Green's degree {numerator}/{denominator} is not an integer")
    return numerator // denominator


def degree_model_histogram(n, q):
    """{(dim pi, k): number of irreducibles pi of GL_n(F_q) of that
    dimension in the model H_{n-2k,2k}}, from Green's degree formula and
    the parametrisation read through kappa."""
    return dict(Counter((green_degree(function, n, q), kappa(param)[1])
                        for function, param in zip(green_functions(n, q),
                                                   green_parameters(n, q))))


def degree_model_columns(rows):
    """{(dim, k): number of irreducibles of that dimension with a nonzero
    multiplicity in column k} of the rows of a Gelfand report in JSON form."""
    return dict(Counter((row["dim"], k) for row in rows for k, m in row["mults"] if m))


def three_generators(n, field):
    """P, x_12(1) and, when q > 2, diag(w, 1, ..., 1) as flat matrices,
    with P the n-cycle permutation matrix (row i is e_{i+1}, indices mod
    n) and w = `field.primitive`: a set that provably generates
    GL_n(F_q), so its conjugation orbits are the classes with no count
    to confirm it.  The cycle's conjugates of x_12(1) are the
    x_{i,i+1}(1) and x_{n,1}(1), whose commutators give every x_ij(1);
    conjugating by diag(w) adds the x_12(a) for all a and every
    determinant."""
    if n == 1:
        return []
    ident = mat_identity(n)
    out = [tuple(int(j == (i + 1) % n) for i in range(n) for j in range(n)),
           ident[:1] + (1,) + ident[2:]]
    if field.q > 2:
        out.append(tuple(field.primitive if i == j == 0 else int(i == j)
                         for i in range(n) for j in range(n)))
    return out


def three_generator_classes(codes, n, field):
    """The label array and the members, each class in increasing order,
    of the conjugation orbits of `three_generators`, from the codes of
    GL_n(F_q) in increasing order: a stack search of its own, each
    conjugate read from the generator's `groups._conjugation_tables`, the
    orbits numbered in the order of their least members."""
    cut, tables = _conjugation_tables(three_generators(n, field), n, field)
    labels = array("H", [SINGULAR]) * field.q ** (n * n)
    members = []
    for start in codes:
        if labels[start] != SINGULAR:
            continue
        c = len(members)
        labels[start] = c
        orbit, stack = [start], [start]
        while stack:
            g = stack.pop()
            for top, rest in tables:
                h = top[g // cut] + rest[g % cut]
                if labels[h] == SINGULAR:
                    labels[h] = c
                    orbit.append(h)
                    stack.append(h)
        members.append(array("I", sorted(orbit)))
    return labels, tuple(members)


def _flat_conjugators(n, field):
    """Maps g -> s g s^-1 on flat entry tuples for the generators s of
    GL_n(F_q) that the library conjugates by, in its order: with P the
    n-cycle permutation matrix, P and x_12(1) when q = 2, and P x_12(1)
    and diag(w, 1, ..., 1) with w a primitive element when q > 2; the
    identity twice when n = 1."""
    if n == 1:
        return [tuple, tuple]
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

    if q == 2:
        return [cycle, transvection]
    w = next(w for w in range(2, q) if len({field.pow(w, k) for k in range(q - 1)}) == q - 1)
    w_inv = field.inv[w]

    def scaling(g):
        m = list(g)
        for j in range(1, n):  # row 0 *= w
            m[j] = mul[m[j] * q + w]
        for i in range(n, cells, n):  # col 0 *= w^-1
            m[i] = mul[m[i] * q + w_inv]
        return tuple(m)

    return [lambda g: cycle(transvection(g)), scaling]


def flat_orbit_classes(elements, n, field):
    """The map from each flat entry tuple of a lex-ordered element list to
    its class label, keys in the list's order, by a per-element sweep:
    the first element not yet labelled starts a new class, whose orbit a
    depth-first search labels one conjugate at a time."""
    conjugators = _flat_conjugators(n, field)
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
    return class_of


# -- the segment calculus behind the highest derivative of a Speh block ----


class Label(NamedTuple):
    """An opaque cuspidal rho of G_degree; dual marks rho~."""

    name: str
    degree: int = 1
    dual: bool = False


def plain(label, d, t, alpha=0):
    """The block U(delta, t)[alpha], delta built from d singleton
    segments of `label`."""
    return Block(False, label.name, label.dual, label.degree, d, t, Fraction(alpha))


def paired(label, d, t, alpha):
    """The pair U(delta, t)[alpha] x U(delta, t)[-alpha] as the parser
    stores it, at abs(alpha)."""
    return Block(True, label.name, label.dual, label.degree, d, t, abs(Fraction(alpha)))


@dataclass(frozen=True)
class Segment:
    """The Zelevinsky segment [a, b]^(rho) = {rho[a], rho[a + 1], ...,
    rho[b]}, its endpoints exact rationals with b - a a nonnegative
    integer."""

    base: Label
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        span = self.b - self.a
        if span.denominator != 1 or span < 0:
            raise ValueError(f"b - a must be a nonnegative integer, got {span}")

    @property
    def degree(self):
        return self.base.degree * (int(self.b - self.a) + 1)

    def sort_key(self):
        return (self.base.name, self.base.dual, self.base.degree, self.a, self.b)


@dataclass(frozen=True)
class Multisegment:
    """A finite multiset of segments, stored sorted."""

    segments: tuple

    def __init__(self, segments=()):
        object.__setattr__(self, "segments", tuple(sorted(segments, key=Segment.sort_key)))

    @property
    def degree(self):
        return sum(s.degree for s in self.segments)

    def derivative(self):
        """The multiset a^-: every segment loses its right endpoint and
        emptied segments disappear (highest-derivative combinatorics)."""
        return Multisegment(Segment(s.base, s.a, s.b - 1) for s in self.segments if s.b > s.a)


def speh_multisegment(block):
    """The multisegment of U(delta, t)[alpha], delta built from d
    singleton segments of rho: d segments of length t centred at
    (1 - d)/2 + alpha, ..., (d - 1)/2 + alpha.  This is the
    subrepresentation convention for <a>; translate before comparing
    with sources that use the Langlands-quotient convention."""
    if block.t == 0:
        raise EmptyBlock("t = 0 block has no multisegment")
    half = Fraction(block.t - 1, 2)
    centres = (Fraction(1 - block.d, 2) + j + block.alpha for j in range(block.d))
    base = Label(block.name, block.degree, block.dual)
    return Multisegment(Segment(base, c - half, c + half) for c in centres)


# -- contragredients -------------------------------------------------------


def dual_label(rho, self_dual=frozenset()):
    """rho~: the dual flag flipped, unless rho's name is self-dual."""
    return rho if rho.name in self_dual else rho._replace(dual=not rho.dual)


def contragredient(param, self_dual=frozenset()):
    """The contragredient of a Tadic parameter: blockwise delta -> delta~
    and alpha -> -alpha, with rho~ = rho for the names in `self_dual`;
    paired entries go back to their positive representative."""
    out = []
    for b in param:
        dual = dual_label(Label(b.name, b.degree, b.dual), self_dual).dual
        out.append(b._replace(dual=dual, alpha=abs(b.alpha) if b.paired else -b.alpha))
    return tuple(sorted(out))


# -- mu_Q ------------------------------------------------------------------


def lambda_vec(t):
    """Lambda_t = ((t-1)/2, (t-3)/2, ..., (1-t)/2)."""
    return tuple(Fraction(t - 1 - 2 * i, 2) for i in range(t))


def lambda_blockwise(composition):
    """Lambda^Q assembled per block: (Lambda_{m_1}, ..., Lambda_{m_s})."""
    return tuple(x for m in composition for x in lambda_vec(m))


def block_project(vec, composition):
    """Orthogonal projection to the composition's Levi coordinates: one
    average per block."""
    if sum(composition) != len(vec):
        raise ValueError("composition does not match vector length")
    out, pos = [], 0
    for m in composition:
        out.append(sum(vec[pos:pos + m], Fraction(0)) / m)
        pos += m
    return tuple(out)


def mu_q(m):
    """w_Q Lambda_{2m+1} - Lambda^Q projected to the (r, 2mr) Levi
    coordinates, w_Q the long cycle (1, 2, ..., 2m+1); the difference is
    checked to be constant on each block, so the projection loses
    nothing."""
    t = 2 * m + 1
    composition = (1, t - 1)
    moved = naive_apply(naive_cycle(t, t), lambda_vec(t))
    diff = tuple(a - b for a, b in zip(moved, lambda_blockwise(composition)))
    if len(set(diff[1:])) != 1:
        raise InvariantViolation("difference vector not constant on blocks")
    return block_project(diff, composition)


# -- Weyl elements -----------------------------------------------------------
# A permutation w of [1, t] is the tuple of its images, w(j) = w[j - 1].


def naive_cycle(t, i):
    """The cycle (1 2 ... i) inside S_t, one image at a time: j -> j+1
    for j < i, i -> 1, and j -> j past i."""
    return tuple(j + 1 if j < i else 1 if j == i else j for j in range(1, t + 1))


def naive_inverse(w):
    """The images of w^-1: for each k, the j with w(j) = k, found by search."""
    return tuple(w.index(k) + 1 for k in range(1, len(w) + 1))


def naive_apply(w, vec):
    """(w . v)_j = v_{w^-1(j)}, one index at a time."""
    if len(vec) != len(w):
        raise ValueError("vector length mismatch")
    inv = naive_inverse(w)
    return tuple(vec[inv[j - 1] - 1] for j in range(1, len(w) + 1))


def naive_cycle_string(w):
    """Disjoint cycles of w, each from its least point, fixed points left out."""
    seen = set()
    parts = []
    for start in range(1, len(w) + 1):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        nxt = w[start - 1]
        while nxt != start:
            orbit.append(nxt)
            seen.add(nxt)
            nxt = w[nxt - 1]
        if len(orbit) > 1:
            parts.append("(" + " ".join(map(str, orbit)) + ")")
    return "".join(parts) or "e"


def naive_descent_set(w):
    """{i in [1, t-1] : w(i) > w(i+1)}, as an ascending list."""
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def interior_indices(composition):
    """Delta^L: the adjacent pairs (j, j+1) lying inside one block of
    the composition, 1-based."""
    out = []
    pos = 0
    for m in composition:
        out.extend(range(pos + 1, pos + m))
        pos += m
    return out


def naive_bookkeeping_set(w):
    """The bookkeeping set from the action: apply w to 2 Lambda_t, keep
    the interior indices j of the (1, t-1) composition where it steps
    down by exactly 2 (a step of 1 in Lambda_t), and map them back
    through w^-1, ascending."""
    t = len(w)
    moved = naive_apply(w, tuple(t - 1 - 2 * k for k in range(t)))  # w . 2 Lambda_t
    through = [j for j in interior_indices((1, t - 1)) if moved[j - 1] - moved[j] == 2]
    inv = naive_inverse(w)
    return sorted(inv[j - 1] for j in through)


def residue_terms_closed_form(t):
    """The `residue-survival` payload for t = 2m+1, without `meta`, from
    the closed forms: w^(i) = (1 2 ... i) has the descents {i-1} (none
    for i = 1), the bookkeeping set [1, 2m] minus {i-1, i} (so [2, 2m]
    for i = 1), and pole order 2m for i = t and 2m - 1 otherwise; only
    w_Q = w^(t) survives."""
    m = (t - 1) // 2
    terms = [
        {
            "i": i,
            "cycle": "(" + " ".join(map(str, range(1, i + 1))) + ")" if i > 1 else "e",
            "descents": [i - 1] if i > 1 else [],
            "bookkeeping": [j for j in range(1, 2 * m + 1) if j not in (i - 1, i)],
            "pole_order": 2 * m if i == t else 2 * m - 1,
            "survives": i == t,
        }
        for i in range(1, t + 1)
    ]
    return {"t": t, "m": m, "required_order": 2 * m, "terms": terms,
            "survivors": [t], "w_q_index": t}
