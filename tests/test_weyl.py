import random
from fractions import Fraction

import pytest

from klyachko.errors import UnsupportedComposition
from klyachko.weyl import (
    WeylElement,
    coset_reps,
    descent_set,
    interior_indices,
    residue_survival,
)
from oracles import (
    block_project,
    lambda_blockwise,
    lambda_vec,
    mu_q,
    naive_apply,
    naive_cycle_string,
    naive_descent_set,
    naive_inverse,
    residue_terms_closed_form,
)


def test_lambda_small():
    assert lambda_vec(1) == (0,)
    assert lambda_vec(2) == (Fraction(1, 2), Fraction(-1, 2))
    assert lambda_vec(3) == (1, 0, -1)


def test_lambda_invariants_up_to_50():
    for t in range(1, 51):
        lam = lambda_vec(t)
        assert sum(lam) == 0
        assert tuple(reversed(lam)) == tuple(-x for x in lam)
        assert all(a - b == 1 for a, b in zip(lam, lam[1:]))


def test_descent_sets():
    assert descent_set(WeylElement((1, 2, 3, 4, 5))) == set()
    for t in (3, 5, 9):
        for i in range(2, t + 1):
            assert descent_set(WeylElement.cycle(t, i)) == {i - 1}
    reversal = WeylElement(tuple(range(5, 0, -1)))
    assert descent_set(reversal) == {1, 2, 3, 4}


def test_weyl_action_convention():
    # (w . v)_j = v_{w^-1(j)}: the cycle (1 2 3) sends position-1 value to slot 2
    w = WeylElement.cycle(3, 3)
    assert w.apply((10, 20, 30)) == (30, 10, 20)


def test_coset_reps_t3():
    reps = coset_reps(3)
    assert [w.cycle_string() for w in reps] == ["e", "(1 2)", "(1 2 3)"]
    for i, w in enumerate(reps, start=1):
        assert w.inverse()(1) == i
        assert w(i) == 1


def test_coset_reps_bijection_property():
    for t in (1, 3, 5, 7, 9, 11):
        reps = coset_reps(t)
        assert [w.inverse()(1) for w in reps] == list(range(1, t + 1))
        assert reps[-1].cycle_string() == "(" + " ".join(map(str, range(1, t + 1))) + ")" if t > 1 else "e"


def test_coset_reps_rejects_even():
    with pytest.raises(UnsupportedComposition):
        coset_reps(4)
    with pytest.raises(UnsupportedComposition):
        coset_reps(0)


def test_interior_indices():
    assert interior_indices((1, 2)) == [2]
    assert interior_indices((1, 4)) == [2, 3, 4]
    assert interior_indices((2, 3)) == [1, 3, 4]
    assert interior_indices((5,)) == [1, 2, 3, 4]


def test_residue_survival_t3_details():
    report = residue_survival(3)
    assert report.m == 1
    by_i = {term.i: term for term in report.terms}
    # i = 2: empty bookkeeping set, one descent: pole order 1 < 2, dies
    assert by_i[2].bookkeeping == frozenset()
    assert by_i[2].descents == frozenset({1})
    assert by_i[2].pole_order == 1 and not by_i[2].survives
    # i = 3 = w_Q: pole order 2 = 2m, survives
    assert by_i[3].pole_order == 2 and by_i[3].survives
    assert report.survivors == [3] == [report.w_q_index]


@pytest.mark.parametrize("t", range(3, 102, 2))
def test_residue_survival_bookkeeping_identity(t):
    report = residue_survival(t)
    terms, survivors = residue_terms_closed_form(t)
    assert report.m == (t - 1) // 2
    assert all(term.required_order == 2 * report.m for term in report.terms)
    assert [
        {
            "i": term.i,
            "cycle": term.weyl.cycle_string(),
            "descents": sorted(term.descents),
            "bookkeeping": sorted(term.bookkeeping),
            "pole_order": term.pole_order,
            "survives": term.survives,
        }
        for term in report.terms
    ] == terms
    assert report.survivors == survivors


def test_weyl_element_matches_naive_references():
    rng = random.Random(16)
    for t in range(1, 13):
        for _ in range(40):
            images = list(range(1, t + 1))
            rng.shuffle(images)
            w = WeylElement(tuple(images))
            vec = tuple(rng.randrange(-50, 50) for _ in range(t))
            assert w.inverse().images == naive_inverse(w)
            assert w.apply(vec) == naive_apply(w, vec)
            assert w.cycle_string() == naive_cycle_string(w)
            assert descent_set(w) == naive_descent_set(w)
    with pytest.raises(ValueError):
        WeylElement((1, 1, 3))
    with pytest.raises(ValueError):
        WeylElement((2, 3, 1)).apply((1, 2))


def test_residue_survival_rejects_bad_t():
    with pytest.raises(UnsupportedComposition):
        residue_survival(4)
    with pytest.raises(UnsupportedComposition):
        residue_survival(1)


def test_mu_q_formula():
    for m in range(1, 21):
        assert mu_q(m) == (Fraction(-m), Fraction(1, 2))


def test_mu_q_first_coordinate_independent_recompute():
    # w_Q moves the last staircase entry (1-t)/2 = -m to position 1
    for m in (1, 2, 5):
        t = 2 * m + 1
        w_q = WeylElement.cycle(t, t)
        moved = w_q.apply(lambda_vec(t))
        assert moved[0] == Fraction(1 - t, 2) == -m


def test_block_project():
    assert block_project((1, 2, 3, 4), (2, 2)) == (Fraction(3, 2), Fraction(7, 2))
    assert lambda_blockwise((1, 2)) == (0, Fraction(1, 2), Fraction(-1, 2))
