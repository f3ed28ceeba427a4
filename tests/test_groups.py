import random
import tracemalloc
from array import array
from dataclasses import replace
from itertools import product

import pytest

from klyachko import groups
from klyachko.errors import GroupTooLarge, InvariantViolation, UsageError
from klyachko.fqpoly import invariant_factors
from klyachko.gf import field_from_q, field_make, mat_identity, mat_inv, mat_mul
from klyachko.groups import (
    ConjClass,
    _conjugation_tables,
    chunk_columns,
    chunk_images,
    chunk_rows,
    class_count,
    class_records,
    conjugacy_classes,
    decode,
    det_class_map,
    encode,
    enumerate_h,
    enumerate_sp,
    gl_elements,
    gl_enumerate,
    h_order,
    product_code,
    products,
    psi_r_trace,
    row_codes,
    scalar_class_map,
    sp_order,
    symplectic_form,
)
from oracles import (
    _flat_conjugators,
    det_exponents,
    element_labels,
    exponent_by_powers,
    flat_orbit_classes,
    gl_order,
    green_class_sizes,
    h_membership_flat,
    label_of,
    mat_det,
    mat_transpose,
    relabelled,
    sp_by_search,
    sp_membership_flat,
    three_generator_classes,
    three_generators,
)

# the groups whose classes are checked against Green's class data and the flat sweep
CLASS_GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (2, 8), (2, 9)]


def decoded(elements, n, q):
    return [decode(g, n, q) for g in elements]


def brute_force_gl(n, field):
    """Oracle: all q^(n^2) matrices, keep the invertible ones."""
    return [m for m in product(range(field.q), repeat=n * n) if mat_det(m, n, field)]


@pytest.mark.parametrize("n,p,e,count", [(2, 2, 1, 6), (2, 3, 1, 48), (3, 2, 1, 168)])
def test_enumeration_matches_brute_force(n, p, e, count):
    field = field_make(p, e)
    elements = gl_elements(n, field)
    oracle = brute_force_gl(n, field)
    assert len(elements) == count == len(oracle)
    assert decoded(elements, n, field.q) == sorted(oracle)


@pytest.mark.parametrize("n,q", [(1, 2), (1, 5), (2, 2), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_gl_elements_are_the_codes_of_the_lex_enumeration(n, q):
    """Strictly increasing codes that decode to the flat lex enumeration;
    for n = 1 and n = 2 the hyperplane step starts at the root."""
    field = field_from_q(q)
    elements = gl_elements(n, field)
    assert all(a < b for a, b in zip(elements, elements[1:]))
    assert decoded(elements, n, q) == brute_force_gl(n, field)


@pytest.mark.parametrize("n,q", [(2, 4), (2, 5), (3, 3), (2, 7)])
def test_order_formula(n, q):
    from klyachko.gf import field_from_q

    elements = gl_elements(n, field_from_q(q))
    qn = q**n
    expected = 1
    for i in range(n):
        expected *= qn - q**i
    assert len(elements) == expected == gl_order(n, q)


def test_group_too_large_refused():
    field = field_make(2, 1)
    with pytest.raises(GroupTooLarge):
        gl_enumerate(4, field, max_elements=1000)


def test_group_cap_refuses_huge_n_and_bad_n():
    # the full order of GL_100000(F_2) has about 3 * 10^9 digits
    with pytest.raises(GroupTooLarge):
        groups.check_group_cap(100000, 2, 10**7)
    for n in (0, -1):
        with pytest.raises(UsageError):
            groups.check_group_cap(n, 2, 10**7)
    assert [groups.check_group_cap(n, 3, 10**7) for n in (1, 2, 3)] == [2, 48, 11232]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_primitive_element_is_least_of_full_order(q):
    field = field_from_q(q)

    def order(w):
        acc, k = w, 1
        while acc != 1:
            acc, k = field.mul[acc * q + w], k + 1
        return k

    assert field.primitive == min(w for w in range(1, q) if order(w) == q - 1)


def _scalar(c, n):
    return tuple(c if i == j else 0 for i in range(n) for j in range(n))


@pytest.mark.parametrize("n,q", [(1, 2), (1, 5), (2, 2), (2, 5), (2, 9), (3, 3), (4, 2)])
def test_scalar_class_map_is_multiplication_by_w(n, q, table_store):
    table = table_store(n, q)
    field = table.field
    w = _scalar(field.primitive, n)
    assert scalar_class_map(table) == [
        label_of(table, mat_mul(w, cls.representative, n, field)) for cls in table.classes
    ]
    if q == 2:
        assert scalar_class_map(table) == list(range(len(table.classes)))


def test_scalar_class_map_rejects_labels_that_are_not_classes(table_store):
    table = table_store(2, 5)
    e_idx = table.identity_class()
    labels = array("H", table.labels)
    # w I labelled as the identity: I and w^-1 I both map to the identity's class
    labels[encode(_scalar(table.field.primitive, 2), 5)] = e_idx
    with pytest.raises(InvariantViolation, match="does not permute the classes"):
        scalar_class_map(relabelled(table, labels, table.classes))
    # the identity class recorded with size 2: a permutation, but not of equal sizes
    classes = list(table.classes)
    classes[e_idx] = replace(classes[e_idx], size=2)
    resized = replace(table, classes=tuple(classes))
    with pytest.raises(InvariantViolation, match="changes a class size"):
        scalar_class_map(resized)


@pytest.mark.parametrize("n,q", [(1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2),
                                 (2, 8), (2, 9)])
def test_det_class_map_matches_elimination(n, q, table_store):
    """The determinants read off the invariant factors equal those by
    elimination, and multiplying by w I adds n to the exponent."""
    table = table_store(n, q)
    shift = scalar_class_map(table)
    dets = det_class_map(table, shift)
    assert dets == det_exponents(table)
    assert all((dets[s] - a - n) % (q - 1) == 0 for a, s in zip(dets, shift))
    assert dets[table.identity_class()] == 0


def test_det_class_map_rejects_a_key_of_another_determinant(table_store):
    """GL_2(F_5) with one non-central class keyed as a class of another
    determinant: the exponents no longer follow the scalar class map."""
    table = table_store(2, 5)
    dets = det_class_map(table, scalar_class_map(table))
    c = next(c for c, cls in enumerate(table.classes) if cls.size > 1)
    d = next(d for d in range(len(table.classes)) if dets[d] != dets[c])
    classes = list(table.classes)
    classes[c] = replace(classes[c], invariant_factors=classes[d].invariant_factors)
    rekeyed = replace(table, classes=tuple(classes))
    with pytest.raises(InvariantViolation, match="do not follow multiplication by a scalar"):
        det_class_map(rekeyed, scalar_class_map(rekeyed))


def class_members(table, c):
    """The members of class c as flat entry tuples."""
    return [el for el, label in zip(table.elements, element_labels(table)) if label == c]


def brute_force_orbit_partition(table):
    """Oracle: conjugation orbits computed directly."""
    n, field = table.n, table.field
    elements, inverses = table.elements, table.inverses()
    seen = set()
    orbits = []
    for g in elements:
        if g in seen:
            continue
        orbit = set()
        for idx, x in enumerate(elements):
            orbit.add(mat_mul(mat_mul(x, g, n, field), inverses[idx], n, field))
        orbits.append(frozenset(orbit))
        seen |= orbit
    return set(orbits)


@pytest.mark.parametrize("n,q,num_classes", [(2, 2, 3), (2, 3, 8), (3, 2, 6), (2, 4, 15), (2, 5, 24)])
def test_classes_match_orbit_oracle(n, q, num_classes, table_store):
    table = table_store(n, q)
    assert len(table.classes) == num_classes
    ours = {frozenset(class_members(table, c)) for c in range(len(table.classes))}
    assert ours == brute_force_orbit_partition(table)
    assert sum(cls.size for cls in table.classes) == table.order


def smith_key_classes(elements, n, field):
    """Oracle: classes keyed by the invariant factors of xI - g, one
    Smith form per element, ordered by lex-least member."""
    keys = [invariant_factors(el, n, field) for el in elements]
    first, sizes = {}, {}
    for idx, key in enumerate(keys):
        first.setdefault(key, idx)
        sizes[key] = sizes.get(key, 0) + 1
    key_to_class = {key: c for c, key in enumerate(first)}
    class_of = {el: key_to_class[key] for el, key in zip(elements, keys)}
    classes = []
    for key, idx in first.items():
        rep = elements[idx]
        inv_key = invariant_factors(mat_inv(rep, n, field), n, field)
        classes.append(ConjClass(rep, sizes[key], key, key_to_class[inv_key]))
    return tuple(classes), class_of


@pytest.mark.parametrize("n,q", [(1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8),
                                 (2, 9), (3, 2), (3, 3)])
def test_orbit_classes_match_smith_key_oracle(n, q, table_store):
    """Same class order, representatives, sizes, keys, inverse classes
    and element labels as keying every element by its Smith form."""
    table = table_store(n, q)
    classes, class_of = smith_key_classes(table.elements, n, table.field)
    assert table.classes == classes
    assert list(zip(table.elements, element_labels(table))) == list(class_of.items())


@pytest.mark.parametrize("n,q", CLASS_GRID)
def test_classes_match_green_class_data(n, q):
    """The class count and the multiset of class sizes of the sweep equal
    Green's, |G| / prod_f a_{lambda(f)}(q^deg f) over his class data, and
    the count is the generating function's."""
    field = field_from_q(q)
    classes = conjugacy_classes(gl_elements(n, field), n, field).classes
    assert sorted(cls.size for cls in classes) == green_class_sizes(n, q)
    assert len(classes) == class_count(n, q)


@pytest.mark.parametrize("n,q", CLASS_GRID)
def test_row_code_classes_match_flat_sweep(n, q, table_store):
    """The labels of the decoded elements equal the per-element sweep on
    flat entry tuples, label for label and in order."""
    table = table_store(n, q)
    flat = flat_orbit_classes(table.elements, n, table.field)
    assert list(zip(table.elements, element_labels(table))) == list(flat.items())


@pytest.mark.parametrize("n,q", [(2, 4), (3, 2)])
def test_row_codes_round_trip(n, q):
    """Decoding all of GL_n(F_q) gives every invertible matrix once, in
    lex order, encoding gives the codes back, and the row codes are the
    base-q^n digits of the code."""
    field = field_from_q(q)
    elements = gl_elements(n, field)
    flat = decoded(elements, n, q)
    assert flat == brute_force_gl(n, field)
    assert [encode(g, q) for g in flat] == list(elements)
    for code, g in zip(elements, flat):
        rows = row_codes(code, n, q)
        assert rows == [encode(g[r * n:(r + 1) * n], q) for r in range(n)]
        assert sum(row * q ** (n * (n - 1 - r)) for r, row in enumerate(rows)) == code


@pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_products_match_mat_mul(n, q, table_store):
    """x g for every element x, by one chunk-image lookup per chunk of
    rows (pairs of rows when n > 2), equals the matrix product."""
    table = table_store(n, q)
    columns = chunk_columns(gl_elements(n, table.field), n, q)
    assert len(columns) == -(-n // chunk_rows(n))
    for cls in table.classes[:4]:
        g = cls.representative
        assert list(products(columns, chunk_images(g, n, table.field))) == \
            [encode(mat_mul(x, g, n, table.field), q) for x in table.elements]


@pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_product_code_matches_products(n, q):
    """x g for one code x, by one chunk-image lookup per chunk of rows
    (a shorter last chunk when n is odd and above 2), equals `products`
    on the one-code list and the matrix product, on random invertible
    x and g (n = 5 with no enumeration of GL_5(F_2))."""
    field = field_from_q(q)
    rng = random.Random(n * 10 + q)
    flats = []
    while len(flats) < 40:
        g = tuple(rng.randrange(q) for _ in range(n * n))
        if mat_det(g, n, field):
            flats.append(g)
    for g in flats[:4]:
        tables = chunk_images(g, n, field)
        for x in flats:
            code = encode(x, q)
            want = encode(mat_mul(x, g, n, field), q)
            assert product_code(code, tables, n, q) == want
            assert list(products(chunk_columns([code], n, q), tables)) == [want]


@pytest.mark.parametrize("n,q", CLASS_GRID)
def test_enumerate_h_is_the_encoded_membership_filter(n, q):
    """Every H_{r,2k} of GL_n(F_q) is the row-code encoding of the
    lex-ordered flat elements that pass the membership oracle."""
    field = field_from_q(q)
    flat = decoded(gl_elements(n, field), n, q)
    for k in range(n // 2 + 1):
        oracle = [encode(g, q) for g in flat if h_membership_flat(g, n - 2 * k, k, field)]
        assert enumerate_h(n - 2 * k, k, field) == oracle


@pytest.mark.parametrize("n,q,drop", [
    # either generator alone makes a cyclic group, whose orbits are finer than the classes
    *(pytest.param(2, 5, drop, id=str(drop)) for drop in range(2)),
    (3, 5, 0), (3, 5, 1), (3, 4, 0), (3, 4, 1)])
def test_missing_conjugator_raises(n, q, drop, monkeypatch):
    """With the kept generator in place of the dropped one the orbits are
    those of one generator, finer than the classes, so the search finds
    more orbits than classes.  GL_3(F_5) without P x_12(1) is conjugated
    by diag(w) alone, whose orbits have at most 4 members: more than
    65 535 orbits, which a 16-bit label counter would reach `SINGULAR`
    on."""
    full = groups._gl_generators
    monkeypatch.setattr(groups, "_gl_generators", lambda n, field: [full(n, field)[1 - drop]] * 2)
    field = field_from_q(q)
    with pytest.raises(InvariantViolation, match="more than"):
        conjugacy_classes(gl_elements(n, field), n, field)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_generator_count_other_than_two_raises(count, monkeypatch):
    """The search is written out for a pair of generators: any other
    count raises InvariantViolation, not an unpacking error."""
    field = field_from_q(3)
    monkeypatch.setattr(groups, "_gl_generators",
                        lambda n, field: (three_generators(n, field) * 2)[:count])
    with pytest.raises(InvariantViolation, match=f"{count} conjugation generators"):
        conjugacy_classes(gl_elements(2, field), 2, field)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_gl1_conjugates_by_the_identity_pair(q):
    """GL_1(F_q) is abelian: its pair is the identity twice, and its q - 1
    classes are the singletons, in increasing order."""
    field = field_from_q(q)
    assert groups._gl_generators(1, field) == [(1,), (1,)]
    table = conjugacy_classes(gl_elements(1, field), 1, field)
    assert [list(m) for m in table.members] == [[a] for a in range(1, q)]


def _holds_the_members(got, want):
    """Whether the members `got` are the classes of `want`, sorted, each
    with its least member first."""
    return ([sorted(m) for m in got] == [list(m) for m in want]
            and all(m[0] == min(m) for m in got))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (2, 9), (3, 2), (3, 3), (4, 2), (3, 4)])
def test_generator_pair_matches_three_generators(n, q):
    """The search over the library's two generators gives the label
    array, members (as sets, each least member first) and class records
    that the search of `oracles.three_generator_classes` over the three
    generators of `oracles.three_generators`, which provably generate
    GL_n(F_q), gives."""
    field = field_from_q(q)
    codes = gl_elements(n, field)
    pair = conjugacy_classes(codes, n, field)
    labels, members = three_generator_classes(codes, n, field)
    assert pair.labels == labels
    assert _holds_the_members(pair.members, members)
    assert pair.classes == class_records(members, labels, n, field).classes


def _send_identity_to(dst, generator, field, monkeypatch):
    """Patch one generator's GL_2 tables so that it sends the identity,
    which every generator fixes, to the code `dst`.  With n = 2 the cut
    is 1 and `top` is indexed by the whole code, so the patch moves that
    one image and leaves every other as it was."""
    ident = encode(mat_identity(2), field.q)
    full = groups._conjugation_tables

    def patched(generators, n, field):
        cut, tables = full(generators, n, field)
        top, rest = tables[generator]
        assert cut == 1 and top[ident] + rest[0] == ident
        top = list(top)
        top[ident] = dst - rest[0]
        return cut, [*tables[:generator], (top, rest), *tables[generator + 1:]]

    monkeypatch.setattr(groups, "_conjugation_tables", patched)


@pytest.mark.parametrize("q,generator", [(3, 0), (3, 1), (5, 0), (5, 1)])
def test_generator_table_that_merges_classes_raises(q, generator, monkeypatch):
    """A table that sends the identity to the least member of the next
    class makes the identity's orbit take in that class, so the search
    finds one orbit fewer than GL_2(F_q) has classes: it raises, and
    returns no table."""
    field = field_from_q(q)
    table = conjugacy_classes(gl_elements(2, field), 2, field)
    c = table.identity_class()
    _send_identity_to(table.members[c + 1][0], generator, field, monkeypatch)
    with pytest.raises(InvariantViolation, match=f"{len(table.classes) - 1} classes named"):
        conjugacy_classes(gl_elements(2, field), 2, field)


@pytest.mark.parametrize("generator", [0, 1])
def test_generator_table_that_reaches_a_singular_matrix_raises(generator, monkeypatch):
    """A table that sends the identity to the zero matrix puts a code
    that is not an element into the identity's class: the class count is
    still right, but the sizes sum past |GL_2(F_3)|, and the search
    raises."""
    field = field_from_q(3)
    _send_identity_to(0, generator, field, monkeypatch)
    with pytest.raises(InvariantViolation, match="do not sum to the group order"):
        conjugacy_classes(gl_elements(2, field), 2, field)


def test_generator_across_the_cut_raises():
    """Row 1 of (I + E_23) g is row 1 plus row 2 of g (0-based), on both
    sides of the cut after row 1, so top + rest could carry: building
    the tables with I + E_23 among the generators raises."""
    field = field_from_q(2)
    e23 = list(mat_identity(3))
    e23[1 * 3 + 2] = 1
    with pytest.raises(InvariantViolation, match="across the cut"):
        _conjugation_tables(groups._gl_generators(3, field) + [tuple(e23)], 3, field)


@pytest.mark.parametrize("n,q", [(1, 5), (2, 9), (2, 16), (3, 4), (3, 5), (4, 2), (5, 2)])
def test_conjugation_tables_match_flat_conjugators(n, q):
    """top[g // cut] + rest[g % cut] is the code of s g s^-1 for each
    generator s, in the order of the flat oracle's generators, on random
    invertible matrices (n = 5 with no enumeration of GL_5(F_2); F_16
    and F_4 with e > 1, GL_2(F_16) the largest n = 2 tables; the
    identity pair for n = 1)."""
    field = field_from_q(q)
    cut, tables = _conjugation_tables(groups._gl_generators(n, field), n, field)
    conjugators = _flat_conjugators(n, field)
    assert len(tables) == len(conjugators)
    rng = random.Random(n * 100 + q)
    flats = []
    while len(flats) < 200:
        g = tuple(rng.randrange(q) for _ in range(n * n))
        if mat_det(g, n, field):
            flats.append(g)
    for (top, rest), conj in zip(tables, conjugators):
        for g in flats:
            code = encode(g, q)
            assert top[code // cut] + rest[code % cut] == encode(conj(g), q)


def test_conjugacy_classes_memory():
    """The search holds one label array indexed by code (4^9 codes), two
    tables per generator over at most 4^6 codes each, the members found
    so far and the orbit it walks: a traced peak of about 1.65 MiB on
    GL_3(F_4), bounded here by 3 MiB."""
    field = field_from_q(4)
    codes = gl_elements(3, field)
    tracemalloc.start()
    try:
        conjugacy_classes(codes, 3, field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_class_count_generating_function():
    assert [class_count(1, q) for q in (2, 3, 4)] == [1, 2, 3]
    assert [class_count(2, q) for q in (2, 3, 9)] == [3, 8, 80]
    assert (class_count(3, 3), class_count(4, 2)) == (24, 14)


def test_gl3_f4_classes():
    """181 440 elements: 60 classes, as the generating function counts."""
    table = gl_enumerate(3, field_from_q(4))
    assert len(table.classes) == 60 == class_count(3, 4)
    assert sum(cls.size for cls in table.classes) == table.order == gl_order(3, 4)
    assert len({cls.invariant_factors for cls in table.classes}) == 60
    assert all(table.order % cls.size == 0 for cls in table.classes)


def test_gl2_f2_class_sizes(table_store):
    table = table_store(2, 2)
    assert sorted(cls.size for cls in table.classes) == [1, 2, 3]


def test_class_sizes_divide_order(table_store):
    for n, q in ((2, 3), (3, 2), (2, 4)):
        table = table_store(n, q)
        for cls in table.classes:
            assert table.order % cls.size == 0


def test_representative_is_lex_least(table_store):
    table = table_store(2, 3)
    for c, cls in enumerate(table.classes):
        assert cls.representative == min(class_members(table, c))


def test_inverse_class_is_involution_fixing_identity(table_store):
    for n, q in ((2, 2), (2, 3), (3, 2), (2, 5)):
        table = table_store(n, q)
        inv_map = [cls.inverse_class for cls in table.classes]
        for c, cls in enumerate(table.classes):
            assert inv_map[inv_map[c]] == c
            g_inv = mat_inv(cls.representative, n, table.field)
            assert label_of(table, g_inv) == inv_map[c]
        assert inv_map[table.identity_class()] == table.identity_class()


def test_inverse_class_consistent_on_all_elements(table_store):
    table = table_store(2, 3)
    inv_map = [cls.inverse_class for cls in table.classes]
    for el, c in zip(table.elements, element_labels(table)):
        g_inv = mat_inv(el, 2, table.field)
        assert label_of(table, g_inv) == inv_map[c]


def test_class_key_agrees_on_every_member(table_store):
    table = table_store(3, 2)
    for c, cls in enumerate(table.classes):
        for el in class_members(table, c)[:10]:
            assert invariant_factors(el, 3, table.field) == cls.invariant_factors


# -- symplectic groups ----------------------------------------------------


def test_sp_counts():
    f3 = field_make(3, 1)
    members = enumerate_sp(1, f3)
    assert len(members) == 24 == sp_order(1, 3)  # Sp(2) = SL_2
    for g in decoded(members, 2, 3):
        assert mat_det(g, 2, f3) == 1
    f2 = field_make(2, 1)
    assert len(enumerate_sp(1, f2)) == 6  # all of GL_2(F_2)


@pytest.mark.parametrize("k,q", [(1, 2), (1, 3), (1, 4), (1, 8), (1, 9), (2, 2)])
def test_enumerate_sp_matches_two_product_filter(k, q):
    field = field_from_q(q)
    oracle = [g for g in gl_elements(2 * k, field)
              if sp_membership_flat(decode(g, 2 * k, q), k, field)]
    assert enumerate_sp(k, field) == oracle
    assert len(oracle) == sp_order(k, q)


def random_symplectic(k, field, rng, steps=12):
    """A product of random symplectic transvections x -> x + c w(v, x) v,
    i.e. I + c v t(v) J with w(v, x) = t(v) J x."""
    n, q = 2 * k, field.q
    j = symplectic_form(k, field)
    g = mat_identity(n)
    for _ in range(steps):
        v = [rng.randrange(q) for _ in range(n)]
        c = rng.randrange(1, q)
        vj = [0] * n  # t(v) J
        for r in range(n):
            for col in range(n):
                vj[col] = field.add[vj[col] * q + field.mul[v[r] * q + j[r * n + col]]]
        t = tuple(field.add[(1 if a == b else 0) * q + field.mul[field.mul[c * q + v[a]] * q + vj[b]]]
                  for a in range(n) for b in range(n))
        g = mat_mul(t, g, n, field)
    return g


@pytest.mark.parametrize("k,q", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3)])
def test_enumerate_sp_closure_matches_search(k, q):
    """The transvection closure equals the row-by-row search it replaced."""
    field = field_from_q(q)
    closure = enumerate_sp(k, field)
    assert [tuple(row_codes(code, 2 * k, q)) for code in closure] == sp_by_search(k, field)
    assert closure == sorted(closure) and len(closure) == sp_order(k, q)


def test_enumerate_sp_checks_its_generators(monkeypatch):
    """Too few generators give a closure smaller than Sp(4, F_3), and a
    transvection built on a symmetric form, the antidiagonal of ones, is
    not symplectic: both raise."""
    field = field_from_q(3)
    full = groups._symplectic_generators
    monkeypatch.setattr(groups, "_symplectic_generators", lambda k, f: full(k, f)[:1])
    with pytest.raises(InvariantViolation, match="came out"):
        enumerate_sp(2, field)
    monkeypatch.setattr(groups, "_symplectic_generators", full)
    monkeypatch.setattr(groups, "symplectic_form", lambda k, f: (0, 1, 1, 0))
    with pytest.raises(InvariantViolation, match="not symplectic"):
        enumerate_sp(1, field)


def test_enumerate_sp4_f3_against_two_product_test():
    """GL_4(F_3) is too large to filter whole, so check Sp(4, F_3) by its
    order, random symplectic matrices and one-entry changes of them
    (mostly not symplectic)."""
    rng = random.Random(3)
    field = field_from_q(3)
    members = enumerate_sp(2, field)
    assert len(members) == sp_order(2, 3)
    member_set = set(members)
    hits = 0
    for _ in range(300):
        g = random_symplectic(2, field, rng)
        assert sp_membership_flat(g, 2, field)
        assert encode(g, 3) in member_set
        m = list(g)
        m[rng.randrange(16)] = rng.randrange(3)
        m = tuple(m)
        want = sp_membership_flat(m, 2, field)
        assert (encode(m, 3) in member_set) == want
        hits += want
    assert hits < 300


def test_sp_order_formula():
    assert sp_order(2, 2) == 720
    assert sp_order(2, 3) == 51840


# -- mixed subgroups ------------------------------------------------------


def test_h_identity_and_sizes():
    f2 = field_make(2, 1)
    assert h_membership_flat(mat_identity(2), 2, 0, f2)
    assert len(enumerate_h(2, 0, f2)) == 2 == h_order(2, 0, 2)
    f3 = field_make(3, 1)
    assert len(enumerate_h(1, 1, f3)) == 216 == h_order(1, 1, 3)


@pytest.mark.parametrize("r,k,q", [(0, 2, 2), (1, 1, 3), (2, 1, 2)])
def test_enumerate_h_is_built_without_gl(r, k, q, monkeypatch):
    """H_{r,2k} is the lex-ordered filter of GL_n by membership, built
    without enumerating any general linear group."""
    field = field_from_q(q)
    n = r + 2 * k
    oracle = [g for g in gl_elements(n, field) if h_membership_flat(decode(g, n, q), r, k, field)]

    def no_gl(*args, **kwargs):
        raise AssertionError("gl_elements called")

    monkeypatch.setattr(groups, "gl_elements", no_gl)
    assert enumerate_h(r, k, field) == oracle
    assert len(oracle) == h_order(r, k, q)


def test_h_closure_under_product_and_inverse():
    rng = random.Random(42)
    f3 = field_make(3, 1)
    n = 3
    members = decoded(enumerate_h(1, 1, f3), n, 3)
    for _ in range(1000):
        a, b = rng.choice(members), rng.choice(members)
        ab = mat_mul(a, b, n, f3)
        assert h_membership_flat(ab, 1, 1, f3)
        assert h_membership_flat(mat_inv(a, n, f3), 1, 1, f3)


def test_psi_identity_is_zero():
    f3 = field_make(3, 1)
    assert psi_r_trace(encode(mat_identity(3), 3), 3, 3, f3) == 0


def test_psi_reads_superdiagonal():
    f3 = field_make(3, 1)
    assert psi_r_trace(encode((1, 2, 0, 1), 3), 2, 2, f3) == 2


def test_psi_trivial_for_small_r():
    f3 = field_make(3, 1)
    for g in enumerate_sp(1, f3):
        assert psi_r_trace(g, 0, 2, f3) == 0


def test_psi_is_homomorphism():
    rng = random.Random(9)
    for p, e, r, k in ((3, 1, 3, 0), (2, 1, 2, 1), (2, 2, 2, 0)):
        field = field_make(p, e)
        n = r + 2 * k
        members = enumerate_h(r, k, field)
        for _ in range(1000):
            a, b = rng.choice(members), rng.choice(members)
            ab = mat_mul(decode(a, n, field.q), decode(b, n, field.q), n, field)
            assert h_membership_flat(ab, r, k, field)
            va = psi_r_trace(a, r, n, field)
            vb = psi_r_trace(b, r, n, field)
            assert psi_r_trace(encode(ab, field.q), r, n, field) == (va + vb) % p


# -- the mirrored family H'_{2k,r} ----------------------------------------


def duality_involution(g, r, k, field):
    """tau(g) = w (t g^-1) w^-1 with w sending the unipotent coordinates
    to the bottom, reversed, and the symplectic ones to the top.

    Maps H_{r,2k} onto H'_{2k,r} with psi'_r(tau(h)) = -psi_r(h) mod p.
    """
    n = r + 2 * k
    w = [0] * (n * n)
    for c in range(2 * k):
        w[c * n + (r + c)] = 1
    for j in range(r):
        w[(2 * k + (r - 1 - j)) * n + j] = 1
    w = tuple(w)
    core = mat_transpose(mat_inv(g, n, field), n)
    return mat_mul(mat_mul(w, core, n, field), mat_inv(w, n, field), n, field)


def mirrored_h_membership(g, r, k, field):
    """Membership in H'_{2k,r}: Sp(2k) upper-left, U_r lower-right."""
    n, s = r + 2 * k, 2 * k
    if any(g[i * n + j] for i in range(s, n) for j in range(s)):
        return False
    for i in range(r):
        for j in range(i + 1):
            if g[(s + i) * n + (s + j)] != (1 if i == j else 0):
                return False
    return sp_membership_flat(tuple(g[i * n + j] for i in range(s) for j in range(s)), k, field)


def mirrored_psi_trace(g, r, k, field):
    """psi'_r on H'_{2k,r}: trace of the superdiagonal of the U_r block."""
    n, s = r + 2 * k, 2 * k
    acc = 0
    for i in range(r - 1):
        acc = field.add[acc * field.q + g[(s + i) * n + (s + i + 1)]]
    return field.trace_to_prime(acc)


def test_duality_involution_swaps_model_families():
    """tau carries H_{r,2k} onto H'_{2k,r} and conjugates psi."""
    for p, e, r, k in ((2, 1, 2, 1), (3, 1, 2, 0), (3, 1, 1, 1), (2, 2, 2, 0)):
        field = field_make(p, e)
        n = r + 2 * k
        image = set()
        for h in enumerate_h(r, k, field):
            t = duality_involution(decode(h, n, field.q), r, k, field)
            image.add(t)
            e1 = psi_r_trace(h, r, n, field)
            e2 = mirrored_psi_trace(t, r, k, field)
            assert (e1 + e2) % p == 0
        mirrored = {g for g in decoded(gl_elements(n, field), n, field.q)
                    if mirrored_h_membership(g, r, k, field)}
        assert len(mirrored) == h_order(r, k, field.q)
        assert image == mirrored



def test_exponent_small_groups(table_store):
    assert table_store(2, 2).exponent() == 6       # S_3
    assert table_store(2, 3).exponent() == 24      # lcm of orders in GL_2(F_3)
    assert table_store(3, 2).exponent() == 84      # lcm(1..4,7) orders in GL_3(F_2)


@pytest.mark.parametrize("n,q", [(1, 2), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2),
                                 (3, 3), (4, 2)])
def test_exponent_is_lcm_of_element_orders(table_store, n, q):
    """The closed form against the orders of the class representatives,
    on the groups the acceptance suite verifies and two GL_1."""
    assert table_store(n, q).exponent() == exponent_by_powers(table_store(n, q))
