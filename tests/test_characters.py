import pytest

from klyachko.arena import build_arena
from klyachko.characters import (
    ClassFunction,
    character_table,
    induced_character,
    induced_klyachko_character,
    inner_product_residue,
    multiplicity,
)
from klyachko.errors import ArenaTooSmall, LiftOutOfRange
from klyachko.gf import mat_mul
from klyachko.groups import KlyachkoSubgroupSpec, h_membership_flat, h_order, psi_r_trace_flat


def _induced_full_sum(table, spec, arena):
    """Oracle: the literal Frobenius sum over all of G per class
    representative, chi(g) = |H|^-1 sum_x psi(x g x^-1) over x g x^-1 in H."""
    ell = arena.ell
    n, field = table.n, table.field
    zeta = pow(arena.zeta_p, spec.psi_generator, ell)
    h_inv = pow(h_order(spec.r, spec.k, field.q), ell - 2, ell)
    inverses = table.inverses()
    vals = []
    for cls in table.classes:
        acc = 0
        for x, x_inv in zip(table.elements, inverses):
            y = mat_mul(mat_mul(x, cls.representative, n, field), x_inv, n, field)
            if h_membership_flat(y, spec, field):
                acc += pow(zeta, psi_r_trace_flat(y, spec, field), ell)
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
    regular = induced_character(table, arena, [table.identity()])
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


def test_determinism(table_store, arena_store):
    table, arena = table_store(2, 3), arena_store(2, 3)
    assert character_table(table, arena) == character_table(table, arena)


def test_eigen_split_failure_after_exhausted_attempts(table_store, arena_store):
    from klyachko.errors import EigenSplitFailure

    with pytest.raises(EigenSplitFailure):
        character_table(table_store(2, 2), arena_store(2, 2), attempts=0)


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
