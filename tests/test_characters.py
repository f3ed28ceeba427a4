import itertools
import math
import random
from operator import mul
from pathlib import Path

import pytest

from klyachko import characters
from klyachko.arena import build_arena, zpoly_powmod
from klyachko.characters import (
    ClassFunction,
    _central_spaces,
    _character_from_central,
    _charpoly_mod,
    _rational_class,
    _roots_mod,
    _rref,
    _split_space,
    _visit_order,
    character_table,
    class_multiplication_tensor,
    induced_klyachko_character,
    inner_product_residue,
    multiplicity,
    verify_orthogonality,
)
from klyachko.errors import ArenaMismatch, ArenaTooSmall, InvariantViolation, LiftOutOfRange
from klyachko.gelfand import verify_gelfand
from klyachko.gf import mat_inv, mat_mul
from klyachko.groups import (
    ConjClass,
    GroupTable,
    KlyachkoSubgroupSpec,
    _primitive_element,
    encode_rows,
    h_order,
    psi_r_trace,
    row_images,
)
from oracles import h_membership_flat


def _induced_full_sum(table, spec, arena):
    """Oracle: the literal Frobenius sum over all of G per class
    representative, chi(g) = |H|^-1 sum_x psi(x g x^-1) over x g x^-1 in H."""
    ell = arena.ell
    n, field = table.n, table.field
    zeta = pow(arena.zeta_p, spec.psi_generator, ell)
    h_inv = pow(h_order(spec.r, spec.k, field.q), ell - 2, ell)
    elements, inverses = table.elements, table.inverses()
    vals = []
    for cls in table.classes:
        acc = 0
        for x, x_inv in zip(elements, inverses):
            y = mat_mul(mat_mul(x, cls.representative, n, field), x_inv, n, field)
            if h_membership_flat(y, spec, field):
                acc += pow(zeta, psi_r_trace(encode_rows(y, n, field.q), spec, field), ell)
        vals.append(acc * h_inv % ell)
    return ClassFunction(arena, tuple(vals))


def test_arena_least_prime_for_s3(table_store):
    table = table_store(2, 2)
    arena = build_arena(table.order, table.exponent(), 2)
    # m = lcm(6, 2) = 6, need ell > 12 and ell = 1 mod 6: ell = 13
    assert arena.m == 6
    assert arena.ell == 13
    assert pow(arena.zeta_m, 6, 13) == 1
    assert pow(arena.zeta_m, 2, 13) != 1 and pow(arena.zeta_m, 3, 13) != 1
    assert pow(arena.zeta_p, 2, 13) == 1 and arena.zeta_p != 1


def test_arena_override_validation(table_store):
    table = table_store(2, 2)
    with pytest.raises(ArenaTooSmall):
        build_arena(table.order, table.exponent(), 2, ell=7)       # too small
    with pytest.raises(ArenaTooSmall):
        build_arena(table.order, table.exponent(), 2, ell=17)      # not 1 mod 6
    arena = build_arena(table.order, table.exponent(), 2, ell=19)
    assert arena.ell == 19


def test_lift_bounded(arena_store):
    arena = arena_store(2, 2)
    assert arena.lift_signed(arena.ell - 1) == -1
    with pytest.raises(LiftOutOfRange):
        arena.lift_bounded(arena.ell - 1, 0, 5)


def dims_of(chars, table):
    return sorted(cf.dimension(table) for cf in chars)


def test_gl2_f2_is_s3(table_store, arena_store):
    table, arena = table_store(2, 2), arena_store(2, 2)
    chars = character_table(table, arena)
    assert dims_of(chars, table) == [1, 1, 2]
    # classical S_3 table, classes keyed by size: 1 = identity,
    # 3 = order-2 (transposition type), 2 = order-3
    by_size = {cls.size: i for i, cls in enumerate(table.classes)}
    ell = arena.ell
    expected = {
        (1, 1, 1),
        (1, ell - 1, 1),
        (2, 0, ell - 1),
    }
    got = {
        (cf.values[by_size[1]], cf.values[by_size[3]], cf.values[by_size[2]])
        for cf in chars
    }
    assert got == expected


def test_gl2_f2_table_against_regular_decomposition(table_store, arena_store):
    """Oracle: multiplicity of each irreducible in the regular
    representation is its dimension."""
    table, arena = table_store(2, 2), arena_store(2, 2)
    chars = character_table(table, arena)
    e_idx = table.identity_class()
    regular = ClassFunction(arena, tuple(table.order % arena.ell if c == e_idx else 0
                                         for c in range(len(table.classes))))
    assert regular.dimension(table) == table.order
    for cf in chars:
        assert multiplicity(regular, cf, table) == cf.dimension(table)


def test_gl2_f3_dimensions(table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    chars = character_table(table, arena)
    assert dims_of(chars, table) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(d * d for d in dims_of(chars, table)) == 48


def test_gl3_f2_dimensions(table_store, arena_store):
    table, arena = table_store(3, 2), arena_store(3, 2)
    chars = character_table(table, arena)
    assert dims_of(chars, table) == [1, 3, 3, 6, 7, 8]
    assert sum(dims_of(chars, table)) == 28


def test_row_orthogonality_explicit(table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    chars = character_table(table, arena)
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            assert inner_product_residue(a, b, table) == (1 if i == j else 0)


def _literal_orthogonality(chars, table, arena):
    """Oracle: the row and column relations and the dimension identity,
    one inner_product_residue per pair of characters and one loop over
    the characters per pair of classes."""
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


@pytest.mark.parametrize("n,q", [(2, 5), (3, 2)])
def test_orthogonality_checkers_agree_on_perturbed_tables(n, q, table_store, arena_store):
    """Both checkers pass the true table and reject every table with one
    entry moved by +1 mod ell, and a table with one character dropped."""
    table, arena = table_store(n, q), arena_store(n, q)
    chars = character_table(table, arena)
    checkers = (verify_orthogonality, _literal_orthogonality)
    for check in checkers:
        check(chars, table, arena)
        with pytest.raises(InvariantViolation):
            check(chars[1:], table, arena)
    for a, cf in enumerate(chars):
        for c in range(len(table.classes)):
            values = list(cf.values)
            values[c] = (values[c] + 1) % arena.ell
            perturbed = chars[:a] + [ClassFunction(arena, tuple(values))] + chars[a + 1:]
            for check in checkers:
                with pytest.raises(InvariantViolation):
                    check(perturbed, table, arena)


def test_orthogonality_takes_each_dot_product_once(table_store, arena_store, monkeypatch):
    """N(N+1)/2 row and N(N+1)/2 column dot products, each one sum call,
    plus the sum of squared dimensions."""
    table, arena = table_store(2, 9), arena_store(2, 9)
    chars = character_table(table, arena)
    calls = []

    def counting_sum(values, *start):
        calls.append(1)
        return sum(values, *start)

    monkeypatch.setattr(characters, "sum", counting_sum, raising=False)
    verify_orthogonality(chars, table, arena)
    n_cls = len(table.classes)
    assert len(calls) == 1 + 2 * (n_cls * n_cls + n_cls) // 2


def test_orthogonality_rejects_characters_of_another_arena(table_store, arena_store):
    table = table_store(2, 3)
    chars = character_table(table, arena_store(2, 3))
    other = build_arena(table.order, table.exponent(), 3, ell=1000000009)
    with pytest.raises(ArenaMismatch):
        verify_orthogonality(chars, table, other)


def test_determinism(table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    assert character_table(table, arena) == character_table(table, arena)


# -- the Dixon-Schneider split against the full class tensor -------------


def _scan_roots(coeffs, ell):
    """Oracle: every x in Z/ell with f(x) = 0, by Horner evaluation."""
    return [x for x in range(ell)
            if sum(c * pow(x, d, ell) for d, c in enumerate(coeffs)) % ell == 0]


def _kernel_vector(mat, lam, ell):
    """A basis vector of ker(mat - lam*I) if it is 1-dimensional."""
    n = len(mat)
    a = [[(mat[i][j] - (lam if i == j else 0)) % ell for j in range(n)] for i in range(n)]
    pivot_row_of_col = {}
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv_p = pow(a[row][col], ell - 2, ell)
        a[row] = [v * inv_p % ell for v in a[row]]
        for r in range(n):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [(a[r][j] - f * a[row][j]) % ell for j in range(n)]
        pivot_row_of_col[col] = row
        row += 1
    free = [c for c in range(n) if c not in pivot_row_of_col]
    if len(free) != 1:
        return None
    v = [0] * n
    v[free[0]] = 1
    for c, r in pivot_row_of_col.items():
        v[c] = -a[r][free[0]] % ell
    return v


def _tensor_character_table(table, arena, seed=20259, attempts=20):
    """Oracle: the full class tensor split by one seeded random mix of all
    class matrices, eigenvalues by a scan of Z/ell, one kernel vector per
    eigenvalue."""
    classes = table.classes
    n_cls = len(classes)
    ell = arena.ell
    e_idx = table.identity_class()
    m = [class_multiplication_tensor(table, i, list(range(n_cls))) for i in range(n_cls)]
    for attempt in range(attempts):
        rng = random.Random(seed * 1000003 + attempt)
        mix = [rng.randrange(ell) for _ in range(n_cls)]
        b = [[sum(mix[i] * m[i][j][k] for i in range(n_cls)) % ell for k in range(n_cls)]
             for j in range(n_cls)]
        roots = _scan_roots(_charpoly_mod(b, ell), ell)
        if len(roots) != n_cls:
            continue
        vectors = [_kernel_vector(b, lam, ell) for lam in roots]
        if any(v is None or v[e_idx] == 0 for v in vectors):
            continue
        omegas = [[x * pow(v[e_idx], ell - 2, ell) % ell for x in v] for v in vectors]
        chars = [_character_from_central(om, [pow(c.size, ell - 2, ell) for c in classes],
                                         [c.inverse_class for c in classes], table.order, arena)
                 for om in omegas]
        chars.sort(key=lambda cf: (cf.values[e_idx], cf.values))
        verify_orthogonality(chars, table, arena)
        return chars
    pytest.fail("the random mix never split")


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_split_matches_tensor_oracle(n, q, table_store, arena_store):
    table, arena = table_store(n, q), arena_store(n, q)
    assert character_table(table, arena) == _tensor_character_table(table, arena)


def test_class_matrix_rows_are_pair_counts(table_store):
    """a_{ij}^k from the pivot-side count equals #{(x, y) in C_i x C_j : xy = g_k}."""
    table = table_store(2, 3)
    n, field, n_cls = table.n, table.field, len(table.classes)
    pairs = [[[0] * n_cls for _ in range(n_cls)] for _ in range(n_cls)]  # [i][j][k]
    for k, cls in enumerate(table.classes):
        for x, c in zip(table.elements, table.class_of.values()):
            y = mat_mul(mat_inv(x, n, field), cls.representative, n, field)
            pairs[c][table.class_of_flat(y)][k] += 1
    for i in range(n_cls):
        assert class_multiplication_tensor(table, i, list(range(n_cls))) == pairs[i]
    assert class_multiplication_tensor(table, 3, [5, 1]) == [pairs[3][5], pairs[3][1]]


def _mat_mul_tensor_rows(table, i, rows):
    """Oracle: rows j of M_i by one mat_mul per product x g_j, x in C_i."""
    n, field, classes = table.n, table.field, table.classes
    members = [el for el, c in zip(table.elements, table.class_of.values()) if c == i]
    out = []
    for j in rows:
        counts = [0] * len(classes)
        for x in members:
            counts[table.class_of_flat(mat_mul(x, classes[j].representative, n, field))] += 1
        out.append([classes[j].size * cnt // cls.size for cnt, cls in zip(counts, classes)])
    return out


@pytest.mark.parametrize("n,q", [(2, 4), (3, 2), (2, 5)])
def test_class_matrix_rows_match_mat_mul_oracle(n, q, table_store):
    table = table_store(n, q)
    every = list(range(len(table.classes)))
    for i in every:
        assert class_multiplication_tensor(table, i, every) == _mat_mul_tensor_rows(table, i, every)


def test_row_images_built_once_per_representative_and_call(table_store, arena_store, monkeypatch):
    """On GL_2(F_9) one character_table call builds each class
    representative's row images at most once; a second call builds them
    again, since the tables are kept for one call only."""
    table, arena = table_store(2, 9), arena_store(2, 9)
    built = []

    def counting_row_images(g, n, field):
        built.append(g)
        return row_images(g, n, field)

    monkeypatch.setattr(characters, "row_images", counting_row_images)
    character_table(table, arena)
    first = list(built)
    assert 0 < len(first) == len(set(first)) <= len(table.classes) == 80
    character_table(table, arena)
    assert built[len(first):] == first


@pytest.mark.parametrize("n,q", [(2, 4), (3, 2)])
def test_row_images_match_mat_mul(n, q, table_store):
    table = table_store(n, q)
    field = table.field
    for cls in table.classes:
        g = cls.representative
        images = row_images(g, n, field)
        assert len(images) == q**n
        for code, row in enumerate(itertools.product(range(q), repeat=n)):
            x = row + (0,) * (n * n - n)  # row 0 of x is the row, the rest zero
            assert (images[code],) == encode_rows(mat_mul(x, g, n, field)[:n], n, q)


def _power_map_rational_classes(table):
    """Oracle: for every class, the classes of x^a over every member x and
    every a prime to the order of x."""
    n, field, ident = table.n, table.field, table.identity()
    found = [set() for _ in table.classes]
    for x, c in zip(table.elements, table.class_of.values()):
        powers = [x]
        while powers[-1] != ident:
            powers.append(mat_mul(powers[-1], x, n, field))
        found[c] |= {table.class_of_flat(y) for a, y in enumerate(powers, 1)
                     if math.gcd(a, len(powers)) == 1}
    return found


@pytest.mark.parametrize("n,q", [(2, 5), (2, 9), (3, 3)])
def test_rational_class_matches_power_map(n, q, table_store):
    table = table_store(n, q)
    oracle = _power_map_rational_classes(table)
    images = {}
    assert [_rational_class(table, c, images) for c in range(len(table.classes))] == oracle
    # the rational classes partition the classes
    assert all(oracle[d] == oracle[c] for c in range(len(oracle)) for d in oracle[c])


# (classes visited, products, characteristic polynomials, restrictions) of
# the split, as the README's "Character table" section states them
SPLIT_WORK = {(3, 3): (9, 21706, 8, 26), (4, 2): (10, 37526, 4, 16),
              (2, 9): (18, 57416, 52, 272)}
README = Path(__file__).resolve().parents[1] / "README.md"


def _count_split_work(table, arena, monkeypatch):
    """One character_table call with its work counted where it is done:
    the visited classes, |C_i| products per requested row, the
    characteristic polynomials and the restrictions (_split_space calls).
    The counting patches are undone before it returns."""
    visited, products, charpolys, restrictions = [], [], [], []

    def counting_tensor(tab, i, rows, *images):
        visited.append(i)
        products.append(tab.classes[i].size * len(rows))
        return class_multiplication_tensor(tab, i, rows, *images)

    def counting_charpoly(mat, ell):
        charpolys.append(len(mat))
        return _charpoly_mod(mat, ell)

    def counting_split(*args):
        restrictions.append(len(args[0]))
        return _split_space(*args)

    monkeypatch.setattr(characters, "class_multiplication_tensor", counting_tensor)
    monkeypatch.setattr(characters, "_charpoly_mod", counting_charpoly)
    monkeypatch.setattr(characters, "_split_space", counting_split)
    character_table(table, arena)
    monkeypatch.undo()
    return visited, products, charpolys, restrictions


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2), (2, 9)])
def test_split_uses_a_fifth_of_the_tensor_products(n, q, table_store, arena_store, monkeypatch):
    """Products are counted where they are done: |C_i| per requested row."""
    table, arena = table_store(n, q), arena_store(n, q)
    visited, products, _, _ = _count_split_work(table, arena, monkeypatch)
    max_visited, max_products, _, _ = SPLIT_WORK[(n, q)]
    assert len(set(visited)) == len(visited) <= max_visited
    assert 0 < sum(products) <= max_products <= table.order * len(table.classes) // 5


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2), (2, 9)])
def test_split_skips_scalar_restrictions(n, q, table_store, arena_store, monkeypatch):
    """One characteristic polynomial per restriction that is not a scalar."""
    table, arena = table_store(n, q), arena_store(n, q)
    _, _, charpolys, _ = _count_split_work(table, arena, monkeypatch)
    assert 0 < len(charpolys) <= SPLIT_WORK[(n, q)][2]


def _listed(values):
    """'a, b and c', thousands separated by a space."""
    words = [f"{v:,}".replace(",", " ") for v in values]
    return ", ".join(words[:-1]) + " and " + words[-1]


def test_split_work_is_pinned_and_matches_readme(table_store, arena_store, monkeypatch):
    """The split's work on GL_3(F_3), GL_4(F_2) and GL_2(F_9), exactly, and
    the README sentences that state it."""
    groups = list(SPLIT_WORK)
    counted = {}
    for n, q in groups:
        visited, products, charpolys, restrictions = _count_split_work(
            table_store(n, q), arena_store(n, q), monkeypatch)
        counted[(n, q)] = (len(visited), sum(products), len(charpolys), len(restrictions))
    assert counted == SPLIT_WORK
    visits, products, charpolys, restrictions = zip(*(SPLIT_WORK[g] for g in groups))
    text = " ".join(README.read_text().split())
    assert f"the split visits {_listed(visits)} classes" in text
    assert f"makes {_listed(products)} products" in text
    assert f"computes {_listed(restrictions)} restrictions" in text
    assert f"takes {_listed(charpolys)} characteristic polynomials" in text
    _, _, charpolys_29, restrictions_29 = SPLIT_WORK[(2, 9)]
    scalar_29 = restrictions_29 - charpolys_29  # a scalar restriction takes no polynomial
    assert f"on GL_2(F_9) {scalar_29} of the {restrictions_29} restrictions" in text


# -- the central pre-split -----------------------------------------------------

PRESPLIT_GRID = [(1, 5), (2, 5), (2, 9), (3, 3), (4, 2)]


@pytest.mark.parametrize("n,q", PRESPLIT_GRID)
def test_central_spaces_are_eigenspaces_of_the_central_classes(n, q, table_store, arena_store):
    """Space k holds eigenvectors of M_{wI} with eigenvalue mu = zeta^k,
    hence of M_{w^a I} with eigenvalue mu^a, the class matrices taken row
    by row from class_multiplication_tensor; each space is in RREF."""
    table, arena = table_store(n, q), arena_store(n, q)
    field, ell, n_cls = table.field, arena.ell, len(table.classes)
    zeta = pow(arena.zeta_m, arena.m // (q - 1), ell)
    w = _primitive_element(field)
    log = {field.pow(w, a): a for a in range(q - 1)}
    spaces = _central_spaces(table, arena)
    assert len(spaces) == q - 1  # every character of the centre occurs
    every = list(range(n_cls))
    central = [c for c, cls in enumerate(table.classes) if cls.size == 1]
    assert len(central) == q - 1
    for i in central:
        a = log[table.classes[i].representative[0]]
        m = class_multiplication_tensor(table, i, every)
        for k, (basis, _) in enumerate(spaces):
            lam = pow(zeta, k * a, ell)
            for v in basis:
                assert [sum(map(mul, row, v)) % ell for row in m] == [lam * x % ell for x in v]
    for basis, pivots in spaces:
        assert pivots == sorted(pivots)
        assert [[v[p] for p in pivots] for v in basis] == [
            [int(r == c) for c in range(len(pivots))] for r in range(len(pivots))]


@pytest.mark.parametrize("n,q", PRESPLIT_GRID)
def test_central_spaces_partition_the_class_space(n, q, table_store, arena_store):
    table, arena = table_store(n, q), arena_store(n, q)
    n_cls, ell = len(table.classes), arena.ell
    spaces = _central_spaces(table, arena)
    assert sum(len(basis) for basis, _ in spaces) == n_cls
    assert len(_rref([v for basis, _ in spaces for v in basis], ell)[0]) == n_cls


@pytest.mark.parametrize("n,q", PRESPLIT_GRID)
def test_visit_order_skips_central_classes(n, q, table_store):
    table = table_store(n, q)
    order = list(_visit_order(table, {}))
    assert len(order) == len(set(order))
    assert sorted(order) == [c for c, cls in enumerate(table.classes) if cls.size > 1]


def _refuse_tensor(*args):
    raise AssertionError("no class matrix row is needed")


def test_non_injective_scalar_map_raises_at_once(table_store, arena_store, monkeypatch):
    """GL_2(F_5) with the classes of I and w I merged: I and w^-1 I both map
    to the merged class.  The split raises before any class matrix row."""
    table, arena = table_store(2, 5), arena_store(2, 5)
    w = _primitive_element(table.field)
    a, b = sorted({table.identity_class(), table.class_of_flat((w, 0, 0, w))})
    monkeypatch.setattr(characters, "class_multiplication_tensor", _refuse_tensor)
    with pytest.raises(InvariantViolation, match="does not permute the classes"):
        character_table(_merge_classes(table, a, b), arena)


def test_gl1_table_needs_no_visit(table_store, arena_store, monkeypatch):
    """n = 1: every class is central, so the start spaces are lines."""
    table, arena = table_store(1, 5), arena_store(1, 5)
    monkeypatch.setattr(characters, "class_multiplication_tensor", _refuse_tensor)
    chars = character_table(table, arena)
    assert len(chars) == 4 and all(cf.dimension(table) == 1 for cf in chars)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_central_spaces_over_f2_are_the_whole_space(n, table_store, arena_store):
    """q = 2: the scalar map is the identity, so the start is the whole space."""
    table, arena = table_store(n, 2), arena_store(n, 2)
    n_cls = len(table.classes)
    assert _central_spaces(table, arena) == [
        ([[int(r == c) for c in range(n_cls)] for r in range(n_cls)], list(range(n_cls)))]


def _refuse_charpoly(mat, ell):
    raise AssertionError("a scalar restriction needs no characteristic polynomial")


def test_split_space_returns_scalar_space_whole(monkeypatch):
    ell = 97
    basis, pivots = [[1, 0, 5, 0], [0, 1, 7, 0]], [0, 1]
    m_rows = {0: [4, 0, 0, 9], 1: [0, 4, 0, 11]}  # M b = 4 b on the span
    monkeypatch.setattr(characters, "_charpoly_mod", _refuse_charpoly)
    assert _split_space(basis, pivots, m_rows, ell) == [(basis, pivots)]


def test_split_space_rejects_jordan_block():
    """One eigenvalue but not a scalar: the kernel is a line in a plane."""
    ell = 97
    basis, pivots = [[1, 0, 0], [0, 1, 0]], [0, 1]
    m_rows = {0: [4, 1, 0], 1: [0, 4, 0]}
    with pytest.raises(InvariantViolation, match="do not fill a space of dimension 2"):
        _split_space(basis, pivots, m_rows, ell)


def _merge_classes(table, a, b):
    """The table with class b folded into class a (a < b): a corrupt
    classification that still partitions the group."""
    remap = [c if c < b else (a if c == b else c - 1) for c in range(len(table.classes))]
    classes = tuple(
        ConjClass(cls.representative, cls.size + (table.classes[b].size if c == a else 0),
                  cls.invariant_factors, remap[cls.inverse_class])
        for c, cls in enumerate(table.classes) if c != b
    )
    return GroupTable(table.field, table.n,
                      {el: remap[c] for el, c in table.class_of.items()}, classes)


@pytest.mark.parametrize("n,q", [(2, 5), (3, 2)])
def test_merged_classes_raise_invariant_violation(n, q, table_store, arena_store):
    table, arena = table_store(n, q), arena_store(n, q)
    for a, b in itertools.combinations(range(len(table.classes)), 2):
        with pytest.raises(InvariantViolation):
            character_table(_merge_classes(table, a, b), arena)


# -- roots mod ell -----------------------------------------------------------


def _poly_from_roots(roots, lead, ell):
    coeffs = [lead % ell]
    for r in roots:
        shifted = [0] + coeffs
        for d, c in enumerate(coeffs):
            shifted[d] = (shifted[d] - r * c) % ell
        coeffs = shifted
    return coeffs


@pytest.mark.parametrize("ell", [97, 7057, 12241])
def test_roots_match_scan(ell):
    rng = random.Random(ell)
    for degree in range(13):
        pool = [rng.randrange(ell) for _ in range(max(1, degree // 2))]
        roots = [rng.choice(pool) for _ in range(degree)]  # repeats on purpose
        coeffs = _poly_from_roots(roots, rng.randrange(1, ell), ell)
        assert _roots_mod(coeffs, ell) == _scan_roots(coeffs, ell) == sorted(set(roots))


def test_roots_skip_irreducible_factor():
    ell = 97
    nonresidue = next(c for c in range(2, ell) if pow(c, (ell - 1) // 2, ell) != 1)
    coeffs = _poly_from_roots([3, 3, 50], 1, ell)
    product = [0] * (len(coeffs) + 2)  # times x^2 - nonresidue
    for d, c in enumerate(coeffs):
        product[d + 2] += c
        product[d] -= nonresidue * c
    assert _roots_mod(product, ell) == _scan_roots(product, ell) == [3, 50]


def test_roots_large_ell():
    ell = 364141
    rng = random.Random(ell)
    for degree in (1, 2, 5, 12, 24):
        roots = [rng.randrange(ell) for _ in range(degree)] + [0, ell - 1]
        coeffs = _poly_from_roots(roots, 7, ell)
        assert _roots_mod(coeffs, ell) == sorted(set(roots))


@pytest.mark.parametrize("ell", [12241, 364141])
def test_roots_of_high_multiplicity_power_modulo_the_squarefree_part(ell, monkeypatch):
    """A degree-80 polynomial with two roots: x^ell is taken modulo a
    polynomial of degree 2, not 80."""
    coeffs = _poly_from_roots([5] * 40 + [ell - 9] * 40, 3, ell)
    moduli = []

    def recording_powmod(a, e, f, p):
        moduli.append(len(f) - 1)
        return zpoly_powmod(a, e, f, p)

    monkeypatch.setattr(characters, "zpoly_powmod", recording_powmod)
    assert _roots_mod(coeffs, ell) == [5, ell - 9]
    assert moduli and max(moduli) <= 2


def test_roots_skip_repeated_irreducible_factor():
    ell = 97
    nonresidue = next(c for c in range(2, ell) if pow(c, (ell - 1) // 2, ell) != 1)
    coeffs = _poly_from_roots([3, 3, 3], 1, ell)
    for _ in range(2):  # times x^2 - nonresidue
        coeffs = [(a - nonresidue * b) % ell for a, b in zip([0, 0] + coeffs, coeffs + [0, 0])]
    assert _roots_mod(coeffs, ell) == _scan_roots(coeffs, ell) == [3]


def test_roots_need_degree_below_ell():
    with pytest.raises(ValueError, match="not below ell"):
        _roots_mod(_poly_from_roots([1] * 5, 1, 5), 5)


def test_billion_scale_ell_gives_same_report(table_store):
    """1000000009 is prime and 1 mod 24 = lcm(exp GL_2(F_3), 3)."""
    table = table_store(2, 3)
    big = verify_gelfand(table, ell=1000000009)
    default = verify_gelfand(table)
    assert big.ell == 1000000009
    assert sorted((r.dim, r.mults) for r in big.rows) == \
        sorted((r.dim, r.mults) for r in default.rows)


# -- induced Klyachko characters -------------------------------------------


def test_induced_trivial_when_h_is_everything(table_store, arena_store):
    # Sp(2, F_2) = GL_2(F_2), so the (r, k) = (0, 1) model is trivial
    table, arena = table_store(2, 2), arena_store(2, 2)
    chi = induced_klyachko_character(table, KlyachkoSubgroupSpec(0, 1), arena)
    assert chi.values == (1, 1, 1)


def test_induced_whittaker_gl2_f2(table_store, arena_store):
    table, arena = table_store(2, 2), arena_store(2, 2)
    chi = induced_klyachko_character(table, KlyachkoSubgroupSpec(2, 0), arena)
    by_size = {cls.size: i for i, cls in enumerate(table.classes)}
    ell = arena.ell
    assert chi.values[by_size[1]] == 3
    assert chi.values[by_size[3]] == ell - 1
    assert chi.values[by_size[2]] == 0


def test_induced_dimension_is_index(table_store, arena_store):
    from klyachko.groups import h_order

    for n, q in ((2, 3), (3, 2), (2, 4)):
        table, arena = table_store(n, q), arena_store(n, q)
        for k in range(n // 2 + 1):
            spec = KlyachkoSubgroupSpec(n - 2 * k, k)
            chi = induced_klyachko_character(table, spec, arena)
            assert chi.dimension(table) == table.order // h_order(spec.r, spec.k, q)


def test_full_sum_method_agrees(table_store, arena_store):
    for n, q in ((2, 2), (2, 3)):
        table, arena = table_store(n, q), arena_store(n, q)
        for k in range(n // 2 + 1):
            spec = KlyachkoSubgroupSpec(n - 2 * k, k)
            fast = induced_klyachko_character(table, spec, arena)
            slow = _induced_full_sum(table, spec, arena)
            assert fast == slow


def test_multiplicity_examples(table_store, arena_store):
    table, arena = table_store(2, 2), arena_store(2, 2)
    chars = character_table(table, arena)
    trivial = next(cf for cf in chars if set(cf.values) == {1})
    m_symp = induced_klyachko_character(table, KlyachkoSubgroupSpec(0, 1), arena)
    m_whit = induced_klyachko_character(table, KlyachkoSubgroupSpec(2, 0), arena)
    assert multiplicity(m_symp, trivial, table) == 1
    assert multiplicity(m_whit, trivial, table) == 0


def test_psi_generator_changes_character_not_multiplicities(table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    chars = character_table(table, arena)
    spec1 = KlyachkoSubgroupSpec(2, 0, psi_generator=1)
    spec2 = KlyachkoSubgroupSpec(2, 0, psi_generator=2)
    chi1 = induced_klyachko_character(table, spec1, arena)
    chi2 = induced_klyachko_character(table, spec2, arena)
    mults1 = [multiplicity(chi1, cf, table) for cf in chars]
    mults2 = [multiplicity(chi2, cf, table) for cf in chars]
    assert mults1 == mults2
