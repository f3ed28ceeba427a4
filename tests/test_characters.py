import dataclasses
import itertools
import math
import random
from array import array
from operator import mul
from pathlib import Path

import pytest

from klyachko import characters
from klyachko.arena import build_arena, zpoly_divmod, zpoly_powmod
from klyachko.characters import (
    SORT_BLOCK,
    _central_spaces,
    _character_from_central,
    _carry,
    _charpoly_mod,
    _conjugate_pair,
    _eigenspace,
    _hessenberg,
    _rational_class,
    _roots_mod,
    _rref,
    _sorted_codes,
    _split_space,
    _sqrt_mod,
    _twists,
    _visit_order,
    character_table,
    class_multiplication_tensor,
    dimension,
    induced_klyachko_character,
    multiplicity,
    verify_orthogonality,
)
from klyachko.cli import main
from klyachko.errors import (
    ArenaTooSmall,
    EigenSplitFailure,
    InvariantViolation,
    LiftOutOfRange,
    UsageError,
)
from klyachko.gelfand import verify_gelfand
from klyachko.gf import mat_identity, mat_inv, mat_mul
from klyachko.groups import (
    SINGULAR,
    ConjClass,
    chunk_columns,
    chunk_images,
    det_class_map,
    encode,
    h_order,
    psi_r_trace,
    row_images,
    scalar_class_map,
)
from klyachko.tablecache import load_table, save_table
from oracles import (
    class_members,
    det_exponents,
    element_labels,
    every_class_visit_order,
    h_membership_flat,
    inner_product_residue,
    kernel_basis,
    label_of,
    relabelled,
    tensor_rows_over_c_i,
    tensor_sources,
)


def _induced_full_sum(table, k, psi, arena):
    """Oracle: the literal Frobenius sum over all of G per class
    representative, chi(g) = |H|^-1 sum_x psi(x g x^-1) over x g x^-1 in H,
    H = H_{n-2k,2k}."""
    ell = arena.ell
    n, field = table.n, table.field
    r = n - 2 * k
    zeta = pow(arena.zeta_p, psi, ell)
    h_inv = pow(h_order(r, k, field.q), ell - 2, ell)
    elements, inverses = table.elements, table.inverses()
    vals = []
    for cls in table.classes:
        acc = 0
        for x, x_inv in zip(elements, inverses):
            y = mat_mul(mat_mul(x, cls.representative, n, field), x_inv, n, field)
            if h_membership_flat(y, r, k, field):
                acc += pow(zeta, psi_r_trace(encode(y, field.q), r, n, field), ell)
        vals.append(acc * h_inv % ell)
    return tuple(vals)


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
    with pytest.raises(ArenaTooSmall):  # a strong pseudoprime to the bases up to 37
        build_arena(table.order, table.exponent(), 2, ell=318665857834031151167461)
    with pytest.raises(UsageError):  # past the proven range of is_prime
        build_arena(table.order, table.exponent(), 2, ell=3317044064679887385961981)
    arena = build_arena(table.order, table.exponent(), 2, ell=19)
    assert arena.ell == 19


def test_lift_bounded(arena_store):
    arena = arena_store(2, 2)
    assert arena.lift_signed(arena.ell - 1) == -1
    with pytest.raises(LiftOutOfRange):
        arena.lift_bounded(arena.ell - 1, 0, 5)


def dims_of(chars, table, arena):
    return sorted(dimension(chi, table, arena) for chi in chars)


def test_gl2_f2_is_s3(table_store, arena_store):
    table, arena = table_store(2, 2), arena_store(2, 2)
    chars = character_table(table, arena)
    assert dims_of(chars, table, arena) == [1, 1, 2]
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
        (chi[by_size[1]], chi[by_size[3]], chi[by_size[2]])
        for chi in chars
    }
    assert got == expected


def test_gl2_f2_table_against_regular_decomposition(table_store, arena_store):
    """Oracle: multiplicity of each irreducible in the regular
    representation is its dimension."""
    table, arena = table_store(2, 2), arena_store(2, 2)
    chars = character_table(table, arena)
    e_idx = table.identity_class()
    regular = tuple(table.order % arena.ell if c == e_idx else 0
                    for c in range(len(table.classes)))
    assert dimension(regular, table, arena) == table.order
    assert multiplicity(regular, chars, table, arena) == [dimension(chi, table, arena)
                                                           for chi in chars]


def test_gl2_f3_dimensions(table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    chars = character_table(table, arena)
    assert dims_of(chars, table, arena) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(d * d for d in dims_of(chars, table, arena)) == 48


def test_gl3_f2_dimensions(table_store, arena_store):
    table, arena = table_store(3, 2), arena_store(3, 2)
    chars = character_table(table, arena)
    assert dims_of(chars, table, arena) == [1, 3, 3, 6, 7, 8]
    assert sum(dims_of(chars, table, arena)) == 28


def test_row_orthogonality_explicit(table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    chars = character_table(table, arena)
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            assert inner_product_residue(a, b, table, arena) == (1 if i == j else 0)


def _literal_orthogonality(chars, table, arena):
    """Oracle: the row and column relations and the dimension identity,
    one inner_product_residue per pair of characters and one loop over
    the characters per pair of classes."""
    ell = arena.ell
    n_cls = len(table.classes)
    if len(chars) != n_cls:
        raise InvariantViolation(f"{len(chars)} characters for {n_cls} classes")
    dims = [dimension(chi, table, arena) for chi in chars]
    if sum(d * d for d in dims) != table.order:
        raise InvariantViolation("sum of squared dimensions != |G|")
    for a in range(n_cls):
        for b in range(a, n_cls):
            want = 1 if a == b else 0
            if inner_product_residue(chars[a], chars[b], table, arena) != want:
                raise InvariantViolation(f"row orthogonality failed at ({a}, {b})")
    inv_map = [c.inverse_class for c in table.classes]
    for c in range(n_cls):
        for cp in range(n_cls):
            acc = 0
            for chi in chars:
                acc = (acc + chi[c] * chi[inv_map[cp]]) % ell
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
    for a, chi in enumerate(chars):
        for c in range(len(table.classes)):
            values = list(chi)
            values[c] = (values[c] + 1) % arena.ell
            perturbed = chars[:a] + [tuple(values)] + chars[a + 1:]
            for check in checkers:
                with pytest.raises(InvariantViolation):
                    check(perturbed, table, arena)


@pytest.mark.parametrize("n,q", [(2, 5), (3, 3)])
def test_orthogonality_rejects_a_perturbed_last_row(n, q, table_store, arena_store):
    """The last row's pairs with the rows before it are checked only from
    those rows' side, as the Gram matrix is symmetric: moving any one of
    its values by +1 mod ell still raises."""
    table, arena = table_store(n, q), arena_store(n, q)
    chars = character_table(table, arena)
    *rest, last = chars
    for c in range(len(table.classes)):
        values = list(last)
        values[c] = (values[c] + 1) % arena.ell
        with pytest.raises(InvariantViolation):
            verify_orthogonality(rest + [tuple(values)], table, arena)


def test_orthogonality_takes_each_dot_product_once(table_store, arena_store, monkeypatch):
    """One packed sum per character, holding its row relations with
    itself and every later character, plus the sum of squared
    dimensions: N + 1 sum calls.  The column relations
    are implied by the row relations over Z/ell, not computed."""
    table, arena = table_store(2, 9), arena_store(2, 9)
    chars = character_table(table, arena)
    calls = []

    def counting_sum(values, *start):
        calls.append(1)
        return sum(values, *start)

    monkeypatch.setattr(characters, "sum", counting_sum, raising=False)
    verify_orthogonality(chars, table, arena)
    assert len(calls) == len(table.classes) + 1


def test_orthogonality_reduces_values_outside_the_residue_range(table_store, arena_store):
    """A table whose rows hold other representatives of the same
    residues passes: the slot bound is kept by reducing them first."""
    table, arena = table_store(2, 5), arena_store(2, 5)
    chars = character_table(table, arena)
    ell = arena.ell
    for shift in (ell, -ell, 3 * ell * ell):
        shifted = [tuple(v + shift for v in chi) for chi in chars]
        verify_orthogonality(shifted, table, arena)
        _literal_orthogonality(shifted, table, arena)


def _with_inverse_classes(table, pairs):
    """The table with class c's inverse_class set to i for each (c, i)."""
    classes = list(table.classes)
    for c, i in pairs:
        classes[c] = dataclasses.replace(classes[c], inverse_class=i)
    return dataclasses.replace(table, classes=tuple(classes))


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5)])
def test_orthogonality_rejects_inverse_classes_that_do_not_pair_up(n, q, table_store, arena_store):
    """The column relations follow from the row relations only when
    inverse_class is an involution keeping class sizes: a map that is
    not an involution, or that pairs classes of different sizes, or that
    leaves the classes, is refused before the row pass."""
    table, arena = table_store(n, q), arena_store(n, q)
    chars = character_table(table, arena)
    classes = table.classes
    inv = [c.inverse_class for c in classes]
    c0 = next(c for c in range(len(classes)) if inv[c] != c)  # a class of non-real elements
    e_idx = table.identity_class()
    other = next(c for c in range(len(classes)) if inv[c] == c and classes[c].size > 1)
    assert classes[other].size != classes[e_idx].size
    broken = [
        _with_inverse_classes(table, [(c0, c0)]),  # its old inverse class still points at c0
        _with_inverse_classes(table, [(e_idx, other), (other, e_idx)]),  # an involution, sizes 1 and > 1
        _with_inverse_classes(table, [(c0, len(classes))]),
    ]
    for bad in broken:
        with pytest.raises(InvariantViolation, match="do not pair up"):
            verify_orthogonality(chars, bad, arena)
    verify_orthogonality(chars, table, arena)


def test_orthogonality_rejects_characters_of_another_arena(table_store, arena_store):
    """Residues mod one ell read in the arena of another are not a
    character table there: the row relations fail."""
    table = table_store(2, 3)
    chars = character_table(table, arena_store(2, 3))
    other = build_arena(table.order, table.exponent(), 3, ell=1000000009)
    with pytest.raises(InvariantViolation, match="row orthogonality failed"):
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
    sources = tensor_sources(table)
    m = [class_multiplication_tensor(table, i, list(range(n_cls)), *sources)
         for i in range(n_cls)]
    for attempt in range(attempts):
        rng = random.Random(seed * 1000003 + attempt)
        mix = [rng.randrange(ell) for _ in range(n_cls)]
        b = [[sum(mix[i] * m[i][j][k] for i in range(n_cls)) % ell for k in range(n_cls)]
             for j in range(n_cls)]
        roots = _scan_roots(_charpoly_mod(_hessenberg(b, ell)[0], ell), ell)
        if len(roots) != n_cls:
            continue
        vectors = [_kernel_vector(b, lam, ell) for lam in roots]
        if any(v is None or v[e_idx] == 0 for v in vectors):
            continue
        omegas = [[x * pow(v[e_idx], ell - 2, ell) % ell for x in v] for v in vectors]
        chars = [_character_from_central(om, [pow(c.size, ell - 2, ell) for c in classes],
                                         [c.inverse_class for c in classes], table.order, arena)
                 for om in omegas]
        chars.sort(key=lambda chi: (chi[e_idx], chi))
        verify_orthogonality(chars, table, arena)
        return chars
    pytest.fail("the random mix never split")


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_split_matches_tensor_oracle(n, q, table_store, arena_store):
    table, arena = table_store(n, q), arena_store(n, q)
    assert character_table(table, arena) == _tensor_character_table(table, arena)


def test_class_matrix_rows_are_pair_counts(table_store):
    """a_{ij}^k, counted over the smaller class, equals #{(x, y) in C_i x C_j : xy = g_k}."""
    table = table_store(2, 3)
    n, field, n_cls = table.n, table.field, len(table.classes)
    pairs = [[[0] * n_cls for _ in range(n_cls)] for _ in range(n_cls)]  # [i][j][k]
    for k, cls in enumerate(table.classes):
        for x, c in zip(table.elements, element_labels(table)):
            y = mat_mul(mat_inv(x, n, field), cls.representative, n, field)
            pairs[c][label_of(table, y)][k] += 1
    sources = tensor_sources(table)
    for i in range(n_cls):
        assert class_multiplication_tensor(table, i, list(range(n_cls)), *sources) == pairs[i]
    assert class_multiplication_tensor(table, 3, [5, 1], *sources) == [pairs[3][5], pairs[3][1]]


def _mat_mul_tensor_rows(table, i, rows):
    """Oracle: rows j of M_i by one mat_mul per product x g_j, x in C_i."""
    n, field, classes = table.n, table.field, table.classes
    members = [el for el, c in zip(table.elements, element_labels(table)) if c == i]
    out = []
    for j in rows:
        counts = [0] * len(classes)
        for x in members:
            counts[label_of(table, mat_mul(x, classes[j].representative, n, field))] += 1
        out.append([classes[j].size * cnt // cls.size for cnt, cls in zip(counts, classes)])
    return out


@pytest.mark.parametrize("n,q", [(2, 4), (3, 2), (2, 5)])
def test_class_matrix_rows_match_mat_mul_oracle(n, q, table_store):
    table = table_store(n, q)
    every = list(range(len(table.classes)))
    sources = tensor_sources(table)
    for i in every:
        assert class_multiplication_tensor(table, i, every, *sources) == \
            _mat_mul_tensor_rows(table, i, every)


def test_row_images_built_once_per_representative_and_call(table_store, arena_store, monkeypatch):
    """On GL_2(F_9) one character_table call builds each class
    representative's chunk images at most once; a second call
    builds them again, since the tables are kept for one call only."""
    table, arena = table_store(2, 9), arena_store(2, 9)
    built = []

    def counting_row_images(g, n, field):
        built.append(g)
        return chunk_images(g, n, field)

    monkeypatch.setattr(characters, "chunk_images", counting_row_images)
    character_table(table, arena)
    first = list(built)
    assert 0 < len(first) == len(set(first)) <= len(table.classes) == 80
    character_table(table, arena)
    assert built[len(first):] == first


@pytest.mark.parametrize("n,q", [(2, 5), (3, 3), (4, 2)])
def test_character_table_ignores_the_order_of_members(n, q, table_store, arena_store):
    """The members of each class reversed after the least one, and
    shuffled so, give the same character table: only the least member of
    a class is read for its position, and the tensor counts members."""
    table, arena = table_store(n, q), arena_store(n, q)
    want = character_table(table, arena)
    rng = random.Random(n * 10 + q)
    shuffled = [m[1:].tolist() for m in table.members]
    for m in shuffled:
        rng.shuffle(m)
    for tail in ([m[:0:-1] for m in table.members], shuffled):
        members = tuple(array("I", [m[0], *t]) for m, t in zip(table.members, tail))
        assert [sorted(m) for m in members] == [sorted(m) for m in table.members]
        permuted = dataclasses.replace(table, members=members)
        assert character_table(permuted, arena) == want


@pytest.mark.parametrize("length", [0, 1, 1000, SORT_BLOCK, 3 * SORT_BLOCK + 5])
def test_sorted_codes_sorts_across_blocks(length):
    """Codes in any order come back in increasing order, whether they fit
    in one block or are merged from several."""
    rng = random.Random(length)
    codes = array("I", rng.sample(range(4**9), length))
    got = _sorted_codes(codes)
    assert isinstance(got, array) and got.typecode == "I"
    assert list(got) == sorted(codes)


def test_member_columns_built_once_per_class_and_call(table_store, arena_store, monkeypatch):
    """On GL_3(F_3) one character_table call cuts the members of each class
    into chunk columns at most once, whichever side of a row counts them,
    and cuts them in increasing order; the powers of a representative are
    walked one code at a time and cut no columns."""
    table, arena = table_store(3, 3), arena_store(3, 3)
    cut = []

    def counting_columns(codes, n, q):
        assert list(codes) == sorted(codes)
        cut.append(codes[0])
        return chunk_columns(codes, n, q)

    monkeypatch.setattr(characters, "chunk_columns", counting_columns)
    character_table(table, arena)
    assert 1 < len(cut) == len(set(cut))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_class_members_are_the_classes_in_lex_order(n, q, table_store, tmp_path):
    """The members a table holds, computed or loaded from its file, are
    the element codes bucketed by label, each class with its least member
    first: sorted, they are the buckets, each in increasing order."""
    table = table_store(n, q)
    path = tmp_path / "t.tbl"
    save_table(table, path)
    for tab in (table, load_table(path, table.field, n)):
        assert [sorted(m) for m in tab.members] == [list(m) for m in class_members(table)]
        assert all(m[0] == min(m) for m in tab.members)
        assert [len(m) for m in tab.members] == [cls.size for cls in table.classes]


class _IndexOnly:
    """A label array that can be indexed and not iterated."""

    def __init__(self, labels):
        self.labels = labels

    def __getitem__(self, code):
        return self.labels[code]

    def __iter__(self):
        raise TypeError("the label array is iterated")


def test_character_table_scans_no_element_list(table_store, arena_store):
    """The split reads the members of each class from the table and
    looks up labels one code at a time: with a label array that cannot
    be iterated, so no element list can be read off it, it gives the
    same characters."""
    table, arena = table_store(3, 3), arena_store(3, 3)
    unscannable = dataclasses.replace(table, labels=_IndexOnly(table.labels))
    with pytest.raises(TypeError):
        unscannable.elements
    assert character_table(unscannable, arena) == character_table(table, arena)


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
            assert images[code] == encode(mat_mul(x, g, n, field)[:n], q)


def _power_map_rational_classes(table):
    """Oracle: for every class, the classes of x^a over every member x and
    every a prime to the order of x."""
    n, field, ident = table.n, table.field, mat_identity(table.n)
    found = [set() for _ in table.classes]
    for x, c in zip(table.elements, element_labels(table)):
        powers = [x]
        while powers[-1] != ident:
            powers.append(mat_mul(powers[-1], x, n, field))
        found[c] |= {label_of(table, y) for a, y in enumerate(powers, 1)
                     if math.gcd(a, len(powers)) == 1}
    return found


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (2, 9), (3, 3)])
def test_rational_class_matches_power_map(n, q, table_store):
    table = table_store(n, q)
    oracle = _power_map_rational_classes(table)
    _, images = tensor_sources(table)
    assert [_rational_class(table, c, images) for c in range(len(table.classes))] == oracle
    # the rational classes partition the classes
    assert all(oracle[d] == oracle[c] for c in range(len(oracle)) for d in oracle[c])


# (classes visited, products, characteristic polynomials, restrictions,
# lines carried from the kept central spaces) of the split, as the
# README's "Character table" section states them
SPLIT_WORK = {(3, 3): (4, 4719, 4, 6, 12), (4, 2): (4, 7914, 4, 5, 0),
              (2, 9): (8, 3711, 13, 31, 60)}
README = Path(__file__).resolve().parents[1] / "README.md"


def _count_split_work(table, arena, monkeypatch):
    """One character_table call with its work counted where it is done:
    the classes whose rows are requested, min(|C_i|, |C_j|) products per
    requested row j, the characteristic polynomials, the restrictions
    (_split_space calls) and the lines carried to the spaces not split.
    The counting patches are undone before it returns."""
    visited, products, charpolys, restrictions, carried = [], [], [], [], []

    def counting_tensor(tab, i, rows, *rest):
        visited.append(i)
        products.append(sum(min(tab.classes[i].size, tab.classes[j].size) for j in rows))
        return class_multiplication_tensor(tab, i, rows, *rest)

    def counting_charpoly(mat, ell):
        charpolys.append(len(mat))
        return _charpoly_mod(mat, ell)

    def counting_split(*args):
        restrictions.append(len(args[0]))
        return _split_space(*args)

    def counting_carry(lines, *rest):
        out = _carry(lines, *rest)
        carried.append(len(out) - len(lines))
        return out

    monkeypatch.setattr(characters, "class_multiplication_tensor", counting_tensor)
    monkeypatch.setattr(characters, "_charpoly_mod", counting_charpoly)
    monkeypatch.setattr(characters, "_split_space", counting_split)
    monkeypatch.setattr(characters, "_carry", counting_carry)
    character_table(table, arena)
    monkeypatch.undo()
    return visited, products, charpolys, restrictions, sum(carried)


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2), (2, 9)])
def test_split_uses_a_fifth_of_the_tensor_products(n, q, table_store, arena_store, monkeypatch):
    """Products are counted where they are done: min(|C_i|, |C_j|) per requested row j."""
    table, arena = table_store(n, q), arena_store(n, q)
    visited, products, _, _, _ = _count_split_work(table, arena, monkeypatch)
    max_visited, max_products = SPLIT_WORK[(n, q)][:2]
    assert len(set(visited)) == len(visited) <= max_visited
    assert 0 < sum(products) <= max_products <= table.order * len(table.classes) // 5


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2), (2, 9)])
def test_split_skips_scalar_restrictions(n, q, table_store, arena_store, monkeypatch):
    """One characteristic polynomial per restriction that is not a scalar."""
    table, arena = table_store(n, q), arena_store(n, q)
    _, _, charpolys, _, _ = _count_split_work(table, arena, monkeypatch)
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
        visited, products, charpolys, restrictions, carried = _count_split_work(
            table_store(n, q), arena_store(n, q), monkeypatch)
        counted[(n, q)] = (len(visited), sum(products), len(charpolys), len(restrictions), carried)
    assert counted == SPLIT_WORK
    visits, products, charpolys, restrictions, carried = zip(*(SPLIT_WORK[g] for g in groups))
    text = " ".join(README.read_text().split())
    assert f"the split visits {_listed(visits)} classes" in text
    assert f"makes {_listed(products)} products" in text
    assert f"computes {_listed(restrictions)} restrictions" in text
    assert f"takes {_listed(charpolys)} characteristic polynomials" in text
    classes = _listed(len(table_store(*g).classes) for g in groups)
    assert f"carries {_listed(carried)} of their {classes} central characters" in text
    _, _, charpolys_29, restrictions_29, _ = SPLIT_WORK[(2, 9)]
    scalar_29 = restrictions_29 - charpolys_29  # a scalar restriction takes no polynomial
    assert f"on GL_2(F_9) {scalar_29} of the {restrictions_29} restrictions" in text


ROOT_POWERINGS = {(2, 8): 4, (2, 9): 6, (3, 3): 6, (4, 2): 9}


def test_root_search_powerings_are_pinned_and_match_readme(table_store, arena_store, monkeypatch):
    """The zpoly_powmod calls of one character_table call, exactly, and
    the README sentence that states them: one x^((ell - 1)/2) per
    characteristic polynomial whose squarefree part has degree above 2,
    and one (x + a)^((ell - 1)/2) per shift a > 0 tried on a factor of
    degree above 2."""
    counted = {}
    for n, q in ROOT_POWERINGS:
        calls = []

        def recording_powmod(a, e, f, p):
            calls.append(1)
            return zpoly_powmod(a, e, f, p)

        monkeypatch.setattr(characters, "zpoly_powmod", recording_powmod)
        character_table(table_store(n, q), arena_store(n, q))
        monkeypatch.undo()
        counted[(n, q)] = len(calls)
    assert counted == ROOT_POWERINGS
    text = " ".join(README.read_text().split())
    groups = "GL_2(F_8), GL_2(F_9), GL_3(F_3) and GL_4(F_2)"
    assert f"On {groups} the root search makes {_listed(ROOT_POWERINGS.values())} powerings" in text


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
    w = field.primitive
    log = {field.pow(w, a): a for a in range(q - 1)}
    spaces = _central_spaces(table, arena, scalar_class_map(table))
    assert len(spaces) == q - 1  # every character of the centre occurs
    every = list(range(n_cls))
    central = [c for c, cls in enumerate(table.classes) if cls.size == 1]
    assert len(central) == q - 1
    for i in central:
        a = log[table.classes[i].representative[0]]
        m = class_multiplication_tensor(table, i, every, *tensor_sources(table))
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
    spaces = _central_spaces(table, arena, scalar_class_map(table))
    assert sum(len(basis) for basis, _ in spaces) == n_cls
    assert len(_rref([v for basis, _ in spaces for v in basis], ell)[0]) == n_cls


@pytest.mark.parametrize("n,q", PRESPLIT_GRID)
def test_visit_order_skips_central_classes(n, q, table_store):
    """No repeats and no central class; the orbits of the scalar class
    map through the visited classes partition the non-central classes,
    and the order keeps the order of the every-class queue."""
    table = table_store(n, q)
    shift = scalar_class_map(table)
    _, images = tensor_sources(table)
    order = list(_visit_order(table, images, shift))
    assert len(order) == len(set(order))
    assert all(table.classes[c].size > 1 for c in order)
    orbits = []
    for c in order:
        orbit, d = {c}, shift[c]
        while d != c:
            orbit.add(d)
            d = shift[d]
        orbits.append(orbit)
    assert sum(map(len, orbits)) == len(set().union(*orbits))
    assert set().union(*orbits) == {c for c, cls in enumerate(table.classes) if cls.size > 1}
    full = every_class_visit_order(table, images)
    assert order == [c for c in full if c in order]
    if q == 2:
        assert order == full


# -- the classes and rows that cannot split ------------------------------------

# the restrictions of the split with nothing skipped that each rule proves
# scalar: (by a class the visit order omits, by a real class on a pair)
SKIPPED = {(2, 3): (0, 0), (2, 4): (0, 0), (2, 5): (8, 0), (2, 7): (30, 0), (3, 2): (0, 0),
           (3, 3): (12, 6), (4, 2): (0, 11), (2, 9): (148, 10)}


def _split_every_space(n, q):
    """`_twists` with transport turned off: every central space is kept
    and split, and none is carried to another."""
    return {k: [] for k in range(q - 1)}


@pytest.mark.parametrize("n,q", list(SKIPPED))
def test_skipped_classes_and_planes_split_nothing(n, q, table_store, arena_store, monkeypatch):
    """The split with nothing skipped, every non-central class queued,
    every space requested and every central space split (no transport),
    gives the same table; and at each class's turn there, a class the
    visit order omits, and a real class on a conjugate pair, restricts
    to a scalar on every space it meets."""
    table, arena = table_store(n, q), arena_store(n, q)
    ell, inv_map = arena.ell, [cls.inverse_class for cls in table.classes]
    expected = character_table(table, arena)
    kept = set(_visit_order(table, tensor_sources(table)[1], scalar_class_map(table)))
    turns = []  # (class, [(basis, pivots, whether it split)]) in visit order

    def every_class(tab, images, shift):
        for c in every_class_visit_order(tab, images):
            turns.append((c, []))
            yield c

    def recording_split(basis, pivots, m_rows, ell):
        parts = _split_space(basis, pivots, m_rows, ell)
        turns[-1][1].append((basis, pivots, len(parts) > 1))
        return parts

    monkeypatch.setattr(characters, "_visit_order", every_class)
    monkeypatch.setattr(characters, "_conjugate_pair", lambda *args: False)
    monkeypatch.setattr(characters, "_split_space", recording_split)
    monkeypatch.setattr(characters, "_twists", _split_every_space)
    assert character_table(table, arena) == expected
    monkeypatch.undo()
    omitted = [split for c, spaces in turns if c not in kept for _, _, split in spaces]
    pairs = [split for c, spaces in turns if inv_map[c] == c
             for basis, pivots, split in spaces if _conjugate_pair(basis, pivots, inv_map, ell)]
    assert not any(omitted) and not any(pairs)
    assert (len(omitted), len(pairs)) == SKIPPED[(n, q)]


# -- the twist transport -------------------------------------------------------

TWIST_GRID = [(1, 5), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9), (3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("n,q,kept", [(2, 2, 1), (2, 3, 2), (3, 4, 3), (2, 8, 1), (2, 9, 2),
                                      (3, 3, 1), (3, 5, 1), (1, 5, 1), (4, 5, 4), (2, 7, 2)])
def test_twists_reach_every_space_once(n, q, kept):
    """The kept spaces are k < gcd(n, q - 1); the targets of space k are
    the other spaces k' = k mod gcd, each reached by the one j with
    k + n j = k' mod q - 1, so every space is kept or reached once."""
    twists = _twists(n, q)
    assert sorted(twists) == list(range(kept))
    reached = list(twists) + [t for targets in twists.values() for t, _ in targets]
    assert sorted(reached) == list(range(q - 1))
    for k, targets in twists.items():
        for target, j in targets:
            assert 0 < j < (q - 1) // kept and (k + n * j - target) % (q - 1) == 0
            assert target % kept == k


@pytest.mark.parametrize("n,q", TWIST_GRID)
def test_transport_changes_nothing(n, q, table_store, arena_store, monkeypatch):
    """The table with every central space split equals the table with
    one space per twist orbit split and the rest carried by D_j; with
    transport off, the lines handed to _carry fill every space and it
    carries none."""
    table, arena = table_store(n, q), arena_store(n, q)
    carried = character_table(table, arena)
    handed = []

    def recording_carry(lines, *rest):
        handed.append(sorted(k for _, k in lines))
        return _carry(lines, *rest)

    monkeypatch.setattr(characters, "_twists", _split_every_space)
    monkeypatch.setattr(characters, "_carry", recording_carry)
    assert character_table(table, arena) == carried
    dims = [len(basis) for basis, _ in _central_spaces(table, arena, scalar_class_map(table))]
    assert handed == [[k for k, d in enumerate(dims) for _ in range(d)]]


@pytest.mark.parametrize("n,q", TWIST_GRID)
def test_every_twist_of_a_character_is_a_character(n, q, table_store, arena_store):
    """For every character chi and j = 1, ..., q - 2 the class function
    c -> zeta^(j a_c) chi(c), chi lambda_j(det), is a row of the table;
    a_c is the exponent of det g_c by elimination (`det_exponents`),
    which shares no code with det_class_map."""
    table, arena = table_store(n, q), arena_store(n, q)
    ell = arena.ell
    zeta = pow(arena.zeta_m, arena.m // (q - 1), ell)
    chars = character_table(table, arena)
    rows = set(chars)
    dets = det_exponents(table)
    twists = [tuple(pow(zeta, j * a, ell) * x % ell for x, a in zip(chi, dets))
              for chi in chars for j in range(1, q - 1)]
    assert all(twist in rows for twist in twists)
    if q > 2:  # twisting by lambda_1 moves some character
        assert any(t != chi for chi, t in zip(chars, twists[::q - 2]))


def _det_off_by_one(c):
    """det_class_map with the exponent of class c one too large."""
    def wrong(table, shift):
        dets = det_class_map(table, shift)
        dets[c] = (dets[c] + 1) % (table.q - 1)
        return dets
    return wrong


@pytest.mark.parametrize("n,q", [(2, 5), (2, 9), (3, 3)])
def test_a_determinant_off_by_one_raises(n, q, table_store, arena_store, monkeypatch):
    """A determinant map off by one on any one non-central class makes a
    carried line leave its space: InvariantViolation, never a table."""
    table, arena = table_store(n, q), arena_store(n, q)
    for c, cls in enumerate(table.classes):
        if cls.size > 1:
            monkeypatch.setattr(characters, "det_class_map", _det_off_by_one(c))
            with pytest.raises(InvariantViolation, match="a line carried to central space"):
                character_table(table, arena)


def test_a_determinant_off_by_one_exits_3(table_store, monkeypatch, capsys):
    table = table_store(2, 5)
    c = next(c for c, cls in enumerate(table.classes) if cls.size > 1)
    monkeypatch.setattr(characters, "det_class_map", _det_off_by_one(c))
    assert main(["verify-gelfand", "--n", "2", "--q", "5", "--no-cache", "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "a line carried to central space" in err


@pytest.mark.parametrize("n,q", [(2, 5), (2, 9), (3, 3)])
def test_a_line_carried_to_the_wrong_space_raises(n, q, table_store, arena_store, monkeypatch,
                                                  capsys):
    """Targets moved one space on, or reached with j + 1, which lands n
    spaces on, raise InvariantViolation; verify-gelfand exits 3."""
    table, arena = table_store(n, q), arena_store(n, q)

    def moved(n, q):
        return {k: [((t + 1) % (q - 1), j) for t, j in targets]
                for k, targets in _twists(n, q).items()}

    def next_j(n, q):
        return {k: [(t, j + 1) for t, j in targets] for k, targets in _twists(n, q).items()}

    for wrong in (moved, next_j):
        monkeypatch.setattr(characters, "_twists", wrong)
        with pytest.raises(InvariantViolation, match="a line carried to central space"):
            character_table(table, arena)
    assert main(["verify-gelfand", "--n", str(n), "--q", str(q), "--no-cache"]) == 3
    assert "a line carried to central space" in capsys.readouterr().err


def test_a_space_that_receives_too_few_lines_raises(table_store, arena_store, monkeypatch):
    """GL_2(F_9) with one target dropped from the twists: every carried
    line is in its space, but one space gets none of its lines."""
    table, arena = table_store(2, 9), arena_store(2, 9)

    def dropped(n, q):
        twists = _twists(n, q)
        twists[0] = twists[0][1:]
        return twists

    monkeypatch.setattr(characters, "_twists", dropped)
    with pytest.raises(InvariantViolation, match="lines carried to central spaces of dimensions"):
        character_table(table, arena)


def _omegas(chars, table, ell):
    """The central character |c| chi(c) / chi(1) of every character."""
    e_idx = table.identity_class()
    return [[cls.size * v * pow(chi[e_idx], ell - 2, ell) % ell
             for cls, v in zip(table.classes, chi)] for chi in chars]


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 3), (4, 2), (2, 9)])
def test_conjugate_pair_holds_exactly_for_a_character_and_its_conjugate(n, q, table_store,
                                                                        arena_store):
    """On the final table, the plane of omega_a and omega_b passes exactly
    when chi_b = conj(chi_a) != chi_a: two real characters, or two that are
    not conjugate, fail, and so does every span of a conjugate pair and a
    third character."""
    table, arena = table_store(n, q), arena_store(n, q)
    ell, inv_map = arena.ell, [cls.inverse_class for cls in table.classes]
    chars = character_table(table, arena)
    omegas = _omegas(chars, table, ell)
    index = {chi: a for a, chi in enumerate(chars)}
    conj = [index[tuple(map(chi.__getitem__, inv_map))] for chi in chars]
    conjugate_pairs = [(a, b) for a, b in itertools.combinations(range(len(chars)), 2)
                       if conj[a] == b]
    real = [a for a in range(len(chars)) if conj[a] == a]
    assert conjugate_pairs and len(real) >= 2
    for a, b in itertools.combinations(range(len(chars)), 2):
        basis, pivots = _rref([omegas[a], omegas[b]], ell)
        assert _conjugate_pair(basis, pivots, inv_map, ell) == (conj[a] == b)
    for (a, b), c in itertools.product(conjugate_pairs, range(len(chars))):
        if c not in (a, b):
            basis, pivots = _rref([omegas[a], omegas[b], omegas[c]], ell)
            assert not _conjugate_pair(basis, pivots, inv_map, ell)


@pytest.mark.parametrize("n,q", [(2, 4), (2, 5), (3, 2), (3, 3)])
def test_rows_over_the_smaller_class_match_rows_over_c_i(n, q, table_store):
    table = table_store(n, q)
    every = list(range(len(table.classes)))
    members = class_members(table)
    sizes = [cls.size for cls in table.classes]
    assert any(sizes[j] < sizes[i] for i in every for j in every)
    columns, images = tensor_sources(table)
    for i in every:
        assert class_multiplication_tensor(table, i, every, columns, images) == \
            tensor_rows_over_c_i(table, i, every, members)


def test_merged_classes_fail_the_division_when_counted_over_c_j(table_store):
    """GL_2(F_5) with classes 0 and 1 merged (54 members, against 20 in
    C_1 and 30 in C_14): row 1 of M_0 is counted over C_1, which is C_j,
    and row 14 of M_1 over C_1, which is C_i; on both sides a division by
    a class size is not exact."""
    table = _merge_classes(table_store(2, 5), 0, 1)
    sources = tensor_sources(table)
    assert [table.classes[c].size for c in (0, 1, 14)] == [54, 20, 30]
    with pytest.raises(InvariantViolation, match=r"\|C_0\| \* \d+ is not divisible"):
        class_multiplication_tensor(table, 0, [1], *sources)
    with pytest.raises(InvariantViolation, match=r"\|C_14\| \* \d+ is not divisible"):
        class_multiplication_tensor(table, 1, [14], *sources)


def test_classes_running_out_raise_eigen_split_failure(table_store, arena_store, monkeypatch,
                                                      capsys):
    """GL_2(F_3) with the visit order cut to nothing: the split raises
    EigenSplitFailure naming the central spaces it leaves unsplit, and
    the CLI maps it to exit 3."""
    table, arena = table_store(2, 3), arena_store(2, 3)
    monkeypatch.setattr(characters, "_visit_order", lambda *args: iter(()))
    with pytest.raises(EigenSplitFailure, match=r"eigenspaces of dimensions \[3, 5\] unsplit"):
        character_table(table, arena)
    assert main(["verify-gelfand", "--n", "2", "--q", "3", "--no-cache"]) == 3
    err = capsys.readouterr().err
    assert "internal invariant violation: class matrices leave eigenspaces" in err


def _refuse_tensor(*args):
    raise AssertionError("no class matrix row is needed")


def test_non_injective_scalar_map_raises_at_once(table_store, arena_store, monkeypatch):
    """GL_2(F_5) with the classes of I and w I merged: I and w^-1 I both map
    to the merged class.  The split raises before any class matrix row."""
    table, arena = table_store(2, 5), arena_store(2, 5)
    w = table.field.primitive
    a, b = sorted({table.identity_class(), label_of(table, (w, 0, 0, w))})
    monkeypatch.setattr(characters, "class_multiplication_tensor", _refuse_tensor)
    with pytest.raises(InvariantViolation, match="does not permute the classes"):
        character_table(_merge_classes(table, a, b), arena)


def test_gl1_table_needs_no_visit(table_store, arena_store, monkeypatch):
    """n = 1: every class is central, so the start spaces are lines and
    no class members are cut into chunk columns."""
    table, arena = table_store(1, 5), arena_store(1, 5)
    monkeypatch.setattr(characters, "class_multiplication_tensor", _refuse_tensor)
    monkeypatch.setattr(characters, "chunk_columns", _refuse_tensor)
    chars = character_table(table, arena)
    assert len(chars) == 4 and all(dimension(chi, table, arena) == 1 for chi in chars)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_central_spaces_over_f2_are_the_whole_space(n, table_store, arena_store):
    """q = 2: the scalar map is the identity, so the start is the whole space."""
    table, arena = table_store(n, 2), arena_store(n, 2)
    n_cls = len(table.classes)
    assert _central_spaces(table, arena, scalar_class_map(table)) == [
        ([[int(r == c) for c in range(n_cls)] for r in range(n_cls)], list(range(n_cls)))]


def _refuse_charpoly(mat, ell):
    raise AssertionError("a scalar restriction needs no characteristic polynomial")


def test_split_space_returns_scalar_space_whole(monkeypatch):
    ell = 97
    basis, pivots = [[1, 0, 5, 0], [0, 1, 7, 0]], [0, 1]
    m_rows = {0: [4, 0, 0, 9], 1: [0, 4, 0, 11]}  # M b = 4 b on the span
    monkeypatch.setattr(characters, "_charpoly_mod", _refuse_charpoly)
    assert _split_space(basis, pivots, m_rows, ell) == [(basis, pivots)]


ACCEPTANCE_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("n,q", ACCEPTANCE_GRID)
def test_split_parts_are_in_rref_with_pivots_from_their_parent(n, q, table_store, arena_store,
                                                               monkeypatch):
    """Every space of the split, from the central spaces on, is in RREF
    over all N columns: each part _split_space returns equals _rref of
    itself, though it was reduced in coordinates only, and its pivots
    are among its parent's."""
    table, arena = table_store(n, q), arena_store(n, q)
    ell = arena.ell
    splits = []

    def recording_split(basis, pivots, m_rows, ell):
        parts = _split_space(basis, pivots, m_rows, ell)
        splits.append((pivots, parts))
        return parts

    monkeypatch.setattr(characters, "_split_space", recording_split)
    character_table(table, arena)
    monkeypatch.undo()
    for basis, pivots in _central_spaces(table, arena, scalar_class_map(table)):
        assert _rref(basis, ell) == (basis, pivots)
    assert any(len(parts) > 1 for _, parts in splits)
    for parent_pivots, parts in splits:
        for basis, pivots in parts:
            assert _rref(basis, ell) == (basis, pivots)
            assert set(pivots) <= set(parent_pivots)


def test_split_space_rejects_jordan_block():
    """One eigenvalue but not a scalar: the kernel is a line in a plane."""
    ell = 97
    basis, pivots = [[1, 0, 0], [0, 1, 0]], [0, 1]
    m_rows = {0: [4, 1, 0], 1: [0, 4, 0]}
    with pytest.raises(InvariantViolation, match="do not fill a space of dimension 2"):
        _split_space(basis, pivots, m_rows, ell)


def _low_rank(n, rank, p, rng):
    """A random n x n matrix mod p of rank at most `rank`: an n x rank
    factor times a rank x n one."""
    a = [[rng.randrange(p) for _ in range(rank)] for _ in range(n)]
    b = [[rng.randrange(p) for _ in range(n)] for _ in range(rank)]
    return [[sum(a[i][t] * b[t][j] for t in range(rank)) % p for j in range(n)] for i in range(n)]


def _null_space_by_search(mat, p):
    """Oracle: every v in F_p^n with mat v = 0."""
    return {v for v in itertools.product(range(p), repeat=len(mat[0]))
            if all(sum(map(mul, row, v)) % p == 0 for row in mat)}


def _span(vectors, p, n):
    """Every combination of `vectors` over F_p."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        v = [0] * n
        for c, u in zip(coeffs, vectors):
            v = [(x + c * y) % p for x, y in zip(v, u)]
        out.add(tuple(v))
    return out


def _kernel(mat, p):
    """The null space of mat by the split's path: the kernel of H - 0 I
    for the Hessenberg form H of mat, mapped back and put in RREF."""
    return _eigenspace(*_hessenberg(mat, p), 0, p)


@pytest.mark.parametrize("p", [5, 7])
def test_kernel_basis_is_the_null_space_in_rref(p):
    """Square matrices up to 4 x 4 over F_p, from the zero matrix (the
    whole space) through random ones of every rank to a full-rank one
    (nothing): the vectors span the null space found by trying every
    vector, one per dimension, already in RREF with their pivots, and
    equal the dense elimination's."""
    rng = random.Random(p)
    for n in range(1, 5):
        unitriangular = [[int(i == j) or (rng.randrange(p) if j > i else 0) for j in range(n)]
                         for i in range(n)]
        assert _kernel([[0] * n for _ in range(n)], p) == (
            [[int(i == j) for j in range(n)] for i in range(n)], list(range(n)))
        assert _kernel(unitriangular, p) == ([], [])
        mats = [_low_rank(n, rank, p, rng) for rank in range(n + 1) for _ in range(3)]
        for mat in mats + [unitriangular[::-1]]:
            vectors, pivots = _kernel(mat, p)
            null = _null_space_by_search(mat, p)
            assert len(null) == p ** len(vectors)
            assert _span(vectors, p, n) == null
            assert _rref(vectors, p) == (vectors, pivots)
            assert (vectors, pivots) == kernel_basis(mat, p)


def test_kernel_basis_of_random_singular_matrices_mod_a_large_prime():
    """Random singular matrices mod 10007, up to 8 x 8: every vector is in
    the kernel, there are n - rank of them, and they are in RREF."""
    ell, rng = 10007, random.Random(10007)
    for _ in range(60):
        n = rng.randrange(2, 9)
        mat = _low_rank(n, rng.randrange(n), ell, rng)
        vectors, pivots = _kernel(mat, ell)
        assert len(vectors) == n - len(_rref(mat, ell)[1]) > 0
        assert all(sum(map(mul, row, v)) % ell == 0 for row in mat for v in vectors)
        assert _rref(vectors, ell) == (vectors, pivots)
        assert (vectors, pivots) == kernel_basis(mat, ell)


def _shifted(mat, lam, ell):
    return [[(v - lam) % ell if r == c else v for c, v in enumerate(row)] for r, row in enumerate(mat)]


def _conjugated(diagonal, ell, rng):
    """P diag(diagonal) P^-1 mod ell for a random invertible P: a
    diagonalisable matrix with the given eigenvalues, repeats kept."""
    d = len(diagonal)
    while True:
        p = [[rng.randrange(ell) for _ in range(d)] for _ in range(d)]
        if len(_rref(p, ell)[1]) == d:
            break
    aug = _rref([row + [int(r == c) for c in range(d)] for r, row in enumerate(p)], ell)[0]
    p_inv = [row[d:] for row in aug]
    return [[sum(p[i][k] * diagonal[k] * p_inv[k][j] for k in range(d)) % ell for j in range(d)]
            for i in range(d)]


def _is_hessenberg(h):
    return all(v == 0 for r, row in enumerate(h) for c, v in enumerate(row) if r > c + 1)


@pytest.mark.parametrize("ell", [97, 10007, 364141])
def test_eigenspaces_of_repeated_eigenvalues_match_the_dense_kernel(ell):
    """Diagonalisable d x d matrices, d from 1 to 9, whose eigenvalues
    repeat up to d times: the Hessenberg form is reduced (a repeated
    eigenvalue of a diagonalisable matrix forces a zero subdiagonal
    entry), and each eigenvalue's space is the dense kernel of
    mat - lam I, of dimension its multiplicity, in RREF."""
    rng = random.Random(ell)
    reduced = 0
    for d in range(1, 10):
        for mult in range(1, d + 1):
            values = rng.sample(range(ell), d - mult + 1)
            diagonal = [values[0]] * mult + values[1:]
            rng.shuffle(diagonal)
            mat = _conjugated(diagonal, ell, rng)
            h, steps = _hessenberg(mat, ell)
            assert _is_hessenberg(h)
            reduced += any(h[r + 1][r] == 0 for r in range(d - 1))
            for lam in set(diagonal):
                vectors, pivots = _eigenspace(h, steps, lam, ell)
                assert len(vectors) == diagonal.count(lam)
                assert (vectors, pivots) == kernel_basis(_shifted(mat, lam, ell), ell)
            other = next(x for x in range(ell) if x not in diagonal)
            assert _eigenspace(h, steps, other, ell) == ([], [])
    assert reduced > 0


@pytest.mark.parametrize("ell", [97, 364141])
def test_eigenspaces_of_hessenberg_forms_with_zero_subdiagonals(ell):
    """Matrices that are upper Hessenberg already, with random zero
    entries on the subdiagonal, and the scalar d x d matrices (all of it
    one eigenvalue of multiplicity d): every kernel of mat - lam I, lam
    an entry of the diagonal, is the dense one."""
    rng = random.Random(ell + 1)
    for d in range(1, 9):
        scalar = [[7 * int(r == c) for c in range(d)] for r in range(d)]
        h, steps = _hessenberg(scalar, ell)
        assert _eigenspace(h, steps, 7, ell) == (
            [[int(r == c) for c in range(d)] for r in range(d)], list(range(d)))
        for _ in range(6):
            mat = [[0 if r > c + 1 else rng.randrange(ell) for c in range(d)] for r in range(d)]
            for r in range(d - 1):
                if rng.randrange(2):
                    mat[r + 1][r] = 0
            for c in range(d):
                if rng.randrange(2):
                    mat[c][c] = mat[0][0]  # a repeated diagonal entry
            h, steps = _hessenberg(mat, ell)
            assert h == mat
            for lam in {row[c] for c, row in enumerate(mat)}:
                assert _eigenspace(h, steps, lam, ell) == kernel_basis(_shifted(mat, lam, ell), ell)


def _det(mat, ell):
    """The determinant mod ell by elimination."""
    a = [row[:] for row in mat]
    d, det = len(a), 1
    for c in range(d):
        piv = next((r for r in range(c, d) if a[r][c] % ell), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % ell
        inv = pow(a[c][c], ell - 2, ell)
        for r in range(c + 1, d):
            f = a[r][c] * inv % ell
            a[r] = [(x - f * y) % ell for x, y in zip(a[r], a[c])]
    return det % ell


def test_hessenberg_steps_map_its_kernel_back():
    """H = S^-1 mat S: for random 1 x 1 to 7 x 7 matrices mod 364141 the
    characteristic polynomial of H is that of mat (checked at random
    points as det(x I - mat) by elimination), and the eigenspace at any
    eigenvalue found is the dense kernel."""
    ell, rng = 364141, random.Random(5)
    for _ in range(40):
        d = rng.randrange(1, 8)
        mat = [[rng.randrange(ell) for _ in range(d)] for _ in range(d)]
        h, steps = _hessenberg(mat, ell)
        assert _is_hessenberg(h)
        chi = _charpoly_mod(h, ell)
        for x in (0, 1, rng.randrange(ell)):
            assert sum(c * pow(x, k, ell) for k, c in enumerate(chi)) % ell == \
                (-1) ** d * _det(_shifted(mat, x, ell), ell) % ell
        for lam in _roots_mod(chi, ell):
            assert _eigenspace(h, steps, lam, ell) == kernel_basis(_shifted(mat, lam, ell), ell)


def _merge_classes(table, a, b):
    """The table with class b folded into class a (a < b): a corrupt
    classification that still partitions the group."""
    remap = [c if c < b else (a if c == b else c - 1) for c in range(len(table.classes))]
    classes = tuple(
        ConjClass(cls.representative, cls.size + (table.classes[b].size if c == a else 0),
                  cls.invariant_factors, remap[cls.inverse_class])
        for c, cls in enumerate(table.classes) if c != b
    )
    labels = array("H", (c if c == SINGULAR else remap[c] for c in table.labels))
    return relabelled(table, labels, classes)


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
    """The search works on the squarefree part, not on f: a degree-80
    polynomial with two roots has a quadratic squarefree part, solved by
    formula with no powering, and a degree-90 one with three roots takes
    its powers modulo polynomials of degree at most 3, not 90."""
    moduli = []

    def recording_powmod(a, e, f, p):
        moduli.append(len(f) - 1)
        return zpoly_powmod(a, e, f, p)

    monkeypatch.setattr(characters, "zpoly_powmod", recording_powmod)
    coeffs = _poly_from_roots([5] * 40 + [ell - 9] * 40, 3, ell)
    assert _roots_mod(coeffs, ell) == [5, ell - 9]
    assert moduli == []
    coeffs = _poly_from_roots([5] * 40 + [ell - 9] * 40 + [17] * 10, 3, ell)
    assert _roots_mod(coeffs, ell) == [5, 17, ell - 9]
    assert moduli and max(moduli) <= 3


def test_roots_apply_no_shift_twice_to_a_factor_or_a_divisor_of_it(monkeypatch):
    """Twelve distinct roots: every powering is of a linear x + a, and two
    powerings with the same shift a are modulo factors neither of which
    divides the other."""
    ell = 97
    roots = sorted(random.Random(12).sample(range(ell), 12))
    applied = []

    def recording_powmod(a, e, f, p):
        assert len(a) == 2 and a[1] == 1
        applied.append((a[0], f))
        return zpoly_powmod(a, e, f, p)

    monkeypatch.setattr(characters, "zpoly_powmod", recording_powmod)
    assert _roots_mod(_poly_from_roots(roots, 5, ell), ell) == roots
    assert len({shift for shift, _ in applied}) > 2  # the split goes past the first shifts
    for (s1, f1), (s2, f2) in itertools.combinations(applied, 2):
        if s1 == s2:
            assert zpoly_divmod(f1, f2, ell)[1] and zpoly_divmod(f2, f1, ell)[1], s1


def test_roots_skip_repeated_irreducible_factor():
    ell = 97
    nonresidue = next(c for c in range(2, ell) if pow(c, (ell - 1) // 2, ell) != 1)
    coeffs = _poly_from_roots([3, 3, 3], 1, ell)
    for _ in range(2):  # times x^2 - nonresidue
        coeffs = [(a - nonresidue * b) % ell for a, b in zip([0, 0] + coeffs, coeffs + [0, 0])]
    assert _roots_mod(coeffs, ell) == _scan_roots(coeffs, ell) == [3]


def _least_nonresidue(ell):
    return next(c for c in range(2, ell) if pow(c, (ell - 1) // 2, ell) != 1)


def _refuse_powmod(a, e, f, p):
    raise AssertionError("a squarefree part of degree at most 2 needs no powering")


@pytest.mark.parametrize("ell", [97, 7681, 12289, 65537])
def test_roots_of_non_monic_squarefree_parts_of_degree_one_and_two(ell, monkeypatch):
    """The squarefree part s = f / gcd(f, f') keeps the leading
    coefficient of f, so the closed forms divide by it: lead (x - r)^3
    has the part lead (x - r), and lead (x - r)^2 (x - t) the part
    lead (x - r)(x - t).  Neither takes a powering."""
    rng = random.Random(ell)
    monkeypatch.setattr(characters, "zpoly_powmod", _refuse_powmod)
    for _ in range(20):
        lead, r, t = rng.randrange(2, ell), rng.randrange(ell), rng.randrange(ell)
        for roots in ([r], [r] * 3, [r, t], [r, r, t], [r, t, t, t]):
            coeffs = _poly_from_roots(roots, lead, ell)
            assert _roots_mod(coeffs, ell) == sorted(set(roots))
            if ell == 97:
                assert _roots_mod(coeffs, ell) == _scan_roots(coeffs, ell)


@pytest.mark.parametrize("ell", [97, 7681, 12289, 65537])
def test_irreducible_quadratic_has_no_roots(ell, monkeypatch):
    """lead ((x - r)^2 - c), c a nonresidue, is irreducible: its
    discriminant 4c is not a square, so it has no root, alone or squared,
    and the closed form finds none without a powering."""
    c = _least_nonresidue(ell)
    monkeypatch.setattr(characters, "zpoly_powmod", _refuse_powmod)
    for lead in (1, 2, ell - 1):
        for r in (0, 1, ell // 3):
            quad = [(r * r - c) * lead % ell, -2 * r * lead % ell, lead % ell]
            squared = [sum(quad[i] * quad[d - i] for i in range(3) if 0 <= d - i < 3) % ell
                       for d in range(5)]
            assert _roots_mod(quad, ell) == _roots_mod(squared, ell) == []
            if ell == 97:
                assert _scan_roots(quad, ell) == _scan_roots(squared, ell) == []


@pytest.mark.parametrize("ell", [7681, 12289, 65537])
def test_square_roots_where_ell_minus_one_has_a_large_power_of_two(ell):
    """ell - 1 = 15 * 2^9, 3 * 2^12 and 2^16, so Tonelli-Shanks loops up
    to 9, 12 and 16 times: every square gets a root (the same on every
    call), every nonsquare None, and quadratics with two roots are
    solved."""
    half = (ell - 1) // 2
    rng = random.Random(ell)
    for a in itertools.chain(range(3000), (rng.randrange(ell) for _ in range(3000))):
        root = _sqrt_mod(a, ell)
        if a % ell == 0 or pow(a, half, ell) == 1:
            assert root is not None and root * root % ell == a % ell
            assert _sqrt_mod(a, ell) == root
        else:
            assert root is None
    for _ in range(200):
        r, t = rng.sample(range(ell), 2)
        assert _roots_mod(_poly_from_roots([r, t], rng.randrange(1, ell), ell), ell) == sorted([r, t])


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (2, 5), (3, 2), (2, 7)])
def test_every_root_search_of_the_split_matches_scan(n, q, table_store, arena_store, monkeypatch):
    """Each _roots_mod call of character_table, closed forms included,
    finds exactly the roots a scan of Z/ell finds."""
    calls = []

    def recording_roots(coeffs, ell):
        roots = _roots_mod(coeffs, ell)
        calls.append((coeffs, ell, roots))
        return roots

    monkeypatch.setattr(characters, "_roots_mod", recording_roots)
    character_table(table_store(n, q), arena_store(n, q))
    monkeypatch.undo()
    assert calls
    for coeffs, ell, roots in calls:
        assert roots == _scan_roots(coeffs, ell)


def test_roots_need_degree_below_ell():
    with pytest.raises(ValueError, match="not below ell"):
        _roots_mod(_poly_from_roots([1] * 5, 1, 5), 5)


def test_billion_scale_ell_gives_same_report(table_store):
    """1000000009 is prime and 1 mod 24 = lcm(exp GL_2(F_3), 3)."""
    table = table_store(2, 3)
    big = verify_gelfand(table, ell=1000000009)
    default = verify_gelfand(table)
    assert big["ell"] == 1000000009
    assert sorted((r["dim"], r["mults"]) for r in big["rows"]) == \
        sorted((r["dim"], r["mults"]) for r in default["rows"])


# -- induced Klyachko characters -------------------------------------------


def test_induced_trivial_when_h_is_everything(table_store, arena_store):
    # Sp(2, F_2) = GL_2(F_2), so the (r, k) = (0, 1) model is trivial
    table, arena = table_store(2, 2), arena_store(2, 2)
    chi = induced_klyachko_character(table, 1, 1, arena)
    assert chi == (1, 1, 1)


def test_induced_whittaker_gl2_f2(table_store, arena_store):
    table, arena = table_store(2, 2), arena_store(2, 2)
    chi = induced_klyachko_character(table, 0, 1, arena)
    by_size = {cls.size: i for i, cls in enumerate(table.classes)}
    ell = arena.ell
    assert chi[by_size[1]] == 3
    assert chi[by_size[3]] == ell - 1
    assert chi[by_size[2]] == 0


def test_induced_dimension_is_index(table_store, arena_store):
    from klyachko.groups import h_order

    for n, q in ((2, 3), (3, 2), (2, 4)):
        table, arena = table_store(n, q), arena_store(n, q)
        for k in range(n // 2 + 1):
            chi = induced_klyachko_character(table, k, 1, arena)
            assert dimension(chi, table, arena) == table.order // h_order(n - 2 * k, k, q)


def test_a_model_of_the_wrong_dimension_raises(table_store, arena_store, monkeypatch, capsys):
    """GL_2(F_3) with H listed with the identity in place of one other
    member: |H| is the same, so it still divides |G|, but the identity is
    counted twice and chi(1) lifts to twice the index.  Both models
    raise, and verify-gelfand exits 3 with nothing on stdout."""
    table, arena = table_store(2, 3), arena_store(2, 3)
    listed = characters.enumerate_h

    def identity_twice(r, k, field):
        members = listed(r, k, field)
        ident = encode(mat_identity(r + 2 * k), field.q)
        i = next(i for i, el in enumerate(members) if el != ident)
        return members[:i] + [ident] + members[i + 1:]

    monkeypatch.setattr(characters, "enumerate_h", identity_twice)
    for k in (0, 1):
        index = table.order // h_order(2 - 2 * k, k, 3)
        with pytest.raises(InvariantViolation,
                           match=f"chi\\(e\\) lifted to {2 * index}, expected index {index}"):
            induced_klyachko_character(table, k, 1, arena)
    assert main(["verify-gelfand", "--n", "2", "--q", "3", "--no-cache"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "expected index" in err


def test_full_sum_method_agrees(table_store, arena_store):
    for n, q in ((2, 2), (2, 3)):
        table, arena = table_store(n, q), arena_store(n, q)
        for k in range(n // 2 + 1):
            fast = induced_klyachko_character(table, k, 1, arena)
            slow = _induced_full_sum(table, k, 1, arena)
            assert fast == slow


def test_multiplicity_examples(table_store, arena_store):
    table, arena = table_store(2, 2), arena_store(2, 2)
    chars = character_table(table, arena)
    trivial = next(chi for chi in chars if set(chi) == {1})
    m_symp = induced_klyachko_character(table, 1, 1, arena)
    m_whit = induced_klyachko_character(table, 0, 1, arena)
    assert multiplicity(m_symp, [trivial], table, arena) == [1]
    assert multiplicity(m_whit, [trivial], table, arena) == [0]


@pytest.mark.parametrize("n,q", ACCEPTANCE_GRID)
def test_multiplicities_match_the_per_pair_inner_product(n, q, table_store, arena_store):
    """One weighted pass per model gives, for every irreducible, the
    per-pair inner product lifted to [0, dim of the model]."""
    table, arena = table_store(n, q), arena_store(n, q)
    chars = character_table(table, arena)
    for k in range(n // 2 + 1):
        chi_model = induced_klyachko_character(table, k, 1, arena)
        bound = dimension(chi_model, table, arena)
        assert multiplicity(chi_model, chars, table, arena) == [
            arena.lift_bounded(inner_product_residue(chi_model, chi, table, arena), 0, bound)
            for chi in chars]


def test_multiplicity_rejects_a_perturbed_model_and_another_arena(table_store, arena_store):
    """A model character with one value moved by +1 has an inner product
    with the trivial character that lifts outside [0, dim]; so do the
    model and characters of one arena read in another."""
    table, arena = table_store(2, 3), arena_store(2, 3)
    chars = character_table(table, arena)
    chi_model = induced_klyachko_character(table, 0, 1, arena)
    e_idx = table.identity_class()
    for c in range(len(table.classes)):
        if c == e_idx:
            continue
        values = list(chi_model)
        values[c] = (values[c] + 1) % arena.ell
        with pytest.raises(LiftOutOfRange, match="multiplicity"):
            multiplicity(tuple(values), chars, table, arena)
    other = build_arena(table.order, table.exponent(), 3, ell=1000000009)
    with pytest.raises(LiftOutOfRange, match="multiplicity"):
        multiplicity(chi_model, chars, table, other)


def test_psi_generator_changes_character_not_multiplicities(table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    chars = character_table(table, arena)
    chi1 = induced_klyachko_character(table, 0, 1, arena)
    chi2 = induced_klyachko_character(table, 0, 2, arena)
    mults1 = multiplicity(chi1, chars, table, arena)
    mults2 = multiplicity(chi2, chars, table, arena)
    assert mults1 == mults2
