import sys
import tracemalloc
from fractions import Fraction

import pytest

from klyachko.errors import UnsupportedComposition
from klyachko.weyl import residue_survival
from oracles import (
    block_project,
    interior_indices,
    lambda_blockwise,
    lambda_vec,
    mu_q,
    naive_apply,
    naive_bookkeeping_set,
    naive_cycle,
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


def test_weyl_action_convention():
    # (w . v)_j = v_{w^-1(j)}: the cycle (1 2 3) sends position-1 value to slot 2
    w = naive_cycle(3, 3)
    assert w == (2, 3, 1)
    assert naive_apply(w, (10, 20, 30)) == (30, 10, 20)


def test_coset_reps_t3():
    cycles = [term["cycle"] for term in residue_survival(3)["terms"]]
    assert cycles == ["e", "(1 2)", "(1 2 3)"]
    for i in range(1, 4):
        w = naive_cycle(3, i)
        assert naive_cycle_string(w) == cycles[i - 1]
        assert naive_inverse(w)[0] == i
        assert w[i - 1] == 1


def test_coset_reps_bijection_property():
    """w^(i) is the representative with w^(i)(i) = 1, so i -> w^-1(1) is
    a bijection onto [1, t]; the payload names each w^(i) by its cycle."""
    for t in (1, 3, 5, 7, 9, 11):
        reps = [naive_cycle(t, i) for i in range(1, t + 1)]
        assert [naive_inverse(w)[0] for w in reps] == list(range(1, t + 1))
        assert naive_cycle_string(reps[-1]) == ("(" + " ".join(map(str, range(1, t + 1))) + ")"
                                                if t > 1 else "e")
        if t > 1:
            cycles = [term["cycle"] for term in residue_survival(t)["terms"]]
            assert cycles == list(map(naive_cycle_string, reps))


def test_interior_indices():
    assert interior_indices((1, 2)) == [2]
    assert interior_indices((1, 4)) == [2, 3, 4]
    assert interior_indices((2, 3)) == [1, 3, 4]
    assert interior_indices((5,)) == [1, 2, 3, 4]


def test_residue_survival_t3_details():
    report = residue_survival(3)
    assert report["m"] == 1
    by_i = {term["i"]: term for term in report["terms"]}
    # i = 2: empty bookkeeping set, one descent: pole order 1 < 2, dies
    assert by_i[2]["bookkeeping"] == []
    assert by_i[2]["descents"] == [1]
    assert by_i[2]["pole_order"] == 1 and not by_i[2]["survives"]
    # i = 3 = w_Q: pole order 2 = 2m, survives
    assert by_i[3]["pole_order"] == 2 and by_i[3]["survives"]
    assert report["survivors"] == [3] == [report["w_q_index"]]


@pytest.mark.parametrize("t", range(3, 102, 2))
def test_residue_survival_bookkeeping_identity(t):
    assert residue_survival(t) == residue_terms_closed_form(t)


def test_residue_survival_terms_match_naive_references():
    """Every term of the walk agrees with the naive per-index routines on
    the representative built from scratch: its cycle string, descents
    and bookkeeping set (the route through the action on 2 Lambda_t)."""
    for t in range(3, 102, 2):
        for i, term in enumerate(residue_survival(t)["terms"], start=1):
            w = naive_cycle(t, i)
            assert term["i"] == i
            assert term["cycle"] == naive_cycle_string(w)
            assert term["descents"] == naive_descent_set(w)
            assert term["bookkeeping"] == naive_bookkeeping_set(w)


def test_residue_survival_makes_no_python_call_per_term():
    """The walk runs each term in the function's own frame: the Python-level
    calls inside residue_survival(t), counted as profile "call" events,
    are as many at t = 11 as at t = 301."""

    def calls(t):
        events = []
        sys.setprofile(lambda frame, event, arg: event == "call" and events.append(frame))
        try:
            residue_survival(t)
        finally:
            sys.setprofile(None)
        return len(events)

    assert calls(11) == calls(301)


def test_residue_survival_rejects_bad_t():
    for t in (4, 1, 0, -1):
        with pytest.raises(UnsupportedComposition):
            residue_survival(t)


def test_residue_survival_holds_one_representative_at_a_time():
    """Building the report allocates little beyond what the report
    keeps: the traced peak of residue_survival(301) is at most 1.2 times
    the memory the returned payload retains.  A list of all t coset
    representatives, t ints each, would add about as much again."""
    tracemalloc.start()
    try:
        payload = residue_survival(301)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["survivors"] == [301]
    assert peak <= 1.2 * retained, f"peak {peak} B, payload {retained} B"


def test_mu_q_formula():
    for m in range(1, 21):
        assert mu_q(m) == (Fraction(-m), Fraction(1, 2))


def test_mu_q_first_coordinate_independent_recompute():
    # w_Q moves the last staircase entry (1-t)/2 = -m to position 1
    for m in (1, 2, 5):
        t = 2 * m + 1
        w_q = naive_cycle(t, t)
        moved = naive_apply(w_q, lambda_vec(t))
        assert moved[0] == Fraction(1 - t, 2) == -m


def test_block_project():
    assert block_project((1, 2, 3, 4), (2, 2)) == (Fraction(3, 2), Fraction(7, 2))
    assert lambda_blockwise((1, 2)) == (0, Fraction(1, 2), Fraction(-1, 2))
