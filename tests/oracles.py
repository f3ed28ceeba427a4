"""Test oracles: matrix and subgroup helpers, Green's class data, the
segment calculus, contragredients and mu_Q behind the symbolic
commands, and per-index Weyl-element routines with the closed forms of
the residue-survival count.  The library itself does not need them;
they are written plainly so the tests can check it against them."""

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter

from klyachko.errors import EmptyBlock, InvariantViolation
from klyachko.gf import mat_mul
from klyachko.groups import symplectic_form
from klyachko.speh import CuspidalLabel, ParamBlock, SpehBlock, TadicParameter, kappa
from klyachko.weyl import WeylElement


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
    n, field, ident = table.n, table.field, table.identity()

    def order(g):
        x, k = g, 1
        while x != ident:
            x, k = mat_mul(x, g, n, field), k + 1
        return k

    return math.lcm(*(order(cls.representative) for cls in table.classes))


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
        yield TadicParameter([ParamBlock(SpehBlock(CuspidalLabel(name, d), 1, t))
                              for name, d, lam in function for t in lam])


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
    return dict(Counter(kappa(param).k for param in green_parameters(n, q)))


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
    return dict(Counter((green_degree(function, n, q), kappa(param).k)
                        for function, param in zip(green_functions(n, q),
                                                   green_parameters(n, q))))


def degree_model_columns(rows):
    """{(dim, k): number of irreducibles of that dimension with a nonzero
    multiplicity in column k} of the rows of a Gelfand report in JSON form."""
    return dict(Counter((row["dim"], k) for row in rows for k, m in row["mults"] if m))


def _flat_conjugators(n, field):
    """Maps g -> s g s^-1 on flat entry tuples for the generators s of
    GL_n(F_q) that the library conjugates by: the n-cycle permutation
    matrix, x_12(1) and, when q > 2, diag(w, 1, ..., 1) with w a
    primitive element."""
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
        w = next(w for w in range(2, q) if len({field.pow(w, k) for k in range(q - 1)}) == q - 1)
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


@dataclass(frozen=True)
class Segment:
    """The Zelevinsky segment [a, b]^(rho) = {rho[a], rho[a + 1], ...,
    rho[b]}, its endpoints exact rationals with b - a a nonnegative
    integer."""

    base: CuspidalLabel
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
    return Multisegment(Segment(block.rho, c - half, c + half) for c in centres)


# -- contragredients -------------------------------------------------------


def dual_label(rho, self_dual=frozenset()):
    """rho~: the dual flag flipped, unless rho's name is self-dual."""
    return rho if rho.name in self_dual else replace(rho, dual=not rho.dual)


def contragredient(param, self_dual=frozenset()):
    """The contragredient of a Tadic parameter: blockwise delta -> delta~
    and alpha -> -alpha, with rho~ = rho for the names in `self_dual`;
    paired entries go back to their positive representative."""
    return TadicParameter(
        ParamBlock(replace(e.block, rho=dual_label(e.block.rho, self_dual), alpha=-e.block.alpha),
                   e.paired)
        for e in param.entries
    )


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
    moved = WeylElement.cycle(t, t).apply(lambda_vec(t))
    diff = tuple(a - b for a, b in zip(moved, lambda_blockwise(composition)))
    if len(set(diff[1:])) != 1:
        raise InvariantViolation("difference vector not constant on blocks")
    return block_project(diff, composition)


# -- Weyl elements -----------------------------------------------------------


def naive_inverse(w):
    """The images of w^-1: for each k, the j with w(j) = k, found by search."""
    return tuple(next(j for j in range(1, w.t + 1) if w(j) == k) for k in range(1, w.t + 1))


def naive_apply(w, vec):
    """(w . v)_j = v_{w^-1(j)}, one index at a time."""
    if len(vec) != w.t:
        raise ValueError("vector length mismatch")
    inv = naive_inverse(w)
    return tuple(vec[inv[j - 1] - 1] for j in range(1, w.t + 1))


def naive_cycle_string(w):
    """Disjoint cycles of w, each from its least point, fixed points left out."""
    seen = set()
    parts = []
    for start in range(1, w.t + 1):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        nxt = w(start)
        while nxt != start:
            orbit.append(nxt)
            seen.add(nxt)
            nxt = w(nxt)
        if len(orbit) > 1:
            parts.append("(" + " ".join(map(str, orbit)) + ")")
    return "".join(parts) or "e"


def naive_descent_set(w):
    """{i in [1, t-1] : w(i) > w(i+1)}."""
    return {i for i in range(1, w.t) if w(i) > w(i + 1)}


def residue_terms_closed_form(t):
    """The residue-survival terms for t = 2m+1 in the JSON shape of
    `residue-survival`, and the survivors, from the closed forms:
    w^(i) = (1 2 ... i) has the descents {i-1} (none for i = 1), the
    bookkeeping set [1, 2m] minus {i-1, i} (so [2, 2m] for i = 1), and
    pole order 2m for i = t and 2m - 1 otherwise; only w_Q = w^(t)
    survives."""
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
    return terms, [t]
