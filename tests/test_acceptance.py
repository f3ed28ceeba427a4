"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
value asserted here is an exact integer identity or an explicitly
stated numeric tolerance, nothing is calibrated after the fact.
"""

import time
from fractions import Fraction

import pytest

from klyachko.arena import build_arena
from klyachko.characters import character_table, verify_orthogonality
from klyachko.gelfand import verify_gelfand
from klyachko.gf import field_from_q
from klyachko.groups import gl_enumerate, h_order
from klyachko.periods import evaluate_period, period_formula, zeta_assignment
from klyachko.speh import (
    CuspidalLabel,
    ParamBlock,
    SpehBlock,
    TadicParameter,
    kappa,
)
from klyachko.weyl import residue_survival
from oracles import (
    Multisegment,
    contragredient,
    degree_model_columns,
    degree_model_histogram,
    gl_order,
    green_degree,
    green_functions,
    model_columns,
    model_histogram,
    mu_q,
    speh_multisegment,
)

GELFAND_CASES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]
RUNTIME_BUDGET = {(3, 3): 30.0, (4, 2): 600.0}  # seconds; 1 s for n = 2 cases

_reports = {}


def _report(n, q):
    if (n, q) not in _reports:
        start = time.monotonic()
        table = gl_enumerate(n, field_from_q(q))
        report = verify_gelfand(table)
        _reports[(n, q)] = (report, table, time.monotonic() - start)
    return _reports[(n, q)]


@pytest.mark.parametrize("n,q", GELFAND_CASES)
def test_criterion_1_gelfand_verification(n, q):
    report, _, elapsed = _report(n, q)
    assert report.existence and report.disjointness and report.uniqueness
    assert report.gelfand
    for row in report.rows:
        assert row.total == 1
    budget = RUNTIME_BUDGET.get((n, q), 1.0 if n == 2 else 30.0)
    assert elapsed <= budget, f"({n},{q}) took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion 1 ({n},{q}): PASS - m_pi = 1 for all {len(report.rows)} "
          f"irreducibles in {elapsed:.2f}s")


@pytest.mark.parametrize("n,q", GELFAND_CASES)
def test_criterion_2_dimension_cross_check(n, q):
    report, _, _ = _report(n, q)
    # left side from the closed index formulas, no character theory
    index_side = sum(
        gl_order(n, q) // h_order(n - 2 * k, k, q) for k in range(n // 2 + 1)
    )
    assert index_side == report.irreducible_dim_sum == report.model_dim_sum
    print(f"criterion 2 ({n},{q}): PASS - sum of indices {index_side} = sum of dims")


@pytest.mark.parametrize("n,q", GELFAND_CASES)
def test_model_columns_match_green_parametrisation(n, q):
    """The engine's model columns against Green's parametrisation read
    through kappa: one kappa for both engines."""
    report, _, _ = _report(n, q)
    assert model_columns(report.to_json_dict()["rows"]) == model_histogram(n, q)


@pytest.mark.parametrize("n,q", GELFAND_CASES)
def test_dimensions_and_models_match_green_degrees(n, q):
    """The joint (dim pi, k(pi)) histogram of the engine's rows against
    Green's degree formula over the same parametrisation."""
    report, _, _ = _report(n, q)
    assert degree_model_columns(report.to_json_dict()["rows"]) == degree_model_histogram(n, q)


@pytest.mark.parametrize("n,q", [(1, 5), (2, 9), (3, 4), (4, 3), (5, 2)])
def test_green_degrees_square_sum_to_the_order(n, q):
    """Green's degrees alone, one per parameter: sum d^2 = |G|."""
    degrees = [green_degree(function, n, q) for function in green_functions(n, q)]
    assert sum(d * d for d in degrees) == gl_order(n, q)


def test_green_histogram_of_gl3_f4():
    # the engine's columns for GL_3(F_4), too slow to recompute here
    assert model_histogram(3, 4) == {0: 48, 1: 12}


@pytest.mark.parametrize("n,q", GELFAND_CASES)
def test_criterion_3_orthogonality_exact(n, q):
    _, table, _ = _report(n, q)
    arena = build_arena(table.order, table.exponent(), table.field.p)
    chars = character_table(table, arena)
    verify_orthogonality(chars, table, arena)  # raises on any exact mismatch
    print(f"criterion 3 ({n},{q}): PASS - row and column orthogonality exact mod {arena.ell}")


def test_criterion_4_derivative_coherence():
    import random

    rng = random.Random(8141)
    alphas = [Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)]
    start = time.monotonic()
    for _ in range(1000):
        block = SpehBlock(
            CuspidalLabel(rng.choice("pqrs"), rng.randrange(1, 5)),
            rng.randrange(1, 5),
            rng.randrange(1, 7),
            rng.choice(alphas),
        )
        stepped = block.highest_derivative()
        lhs = speh_multisegment(block).derivative()
        rhs = Multisegment() if stepped.is_empty else speh_multisegment(stepped)
        assert lhs == rhs
    elapsed = time.monotonic() - start
    assert elapsed <= 1.0, f"took {elapsed:.2f}s, budget 1s"
    print(f"criterion 4: PASS - 1000 random blocks coherent in {elapsed:.2f}s")


def test_criterion_5_kappa_consistency():
    import random

    for r in range(1, 7):
        for d in range(1, 5):
            for t in range(1, 10):
                block = SpehBlock(CuspidalLabel("rho", r), d, t)
                kt = kappa(TadicParameter([ParamBlock(block)]))
                assert kt.k == block.delta_degree * (t // 2)
                assert kt.r + 2 * kt.k == block.degree
    rng = random.Random(515)
    for _ in range(1000):
        self_dual = {name for name in "uvw" if rng.random() < 0.25}
        entries = []
        for _ in range(rng.randrange(1, 4)):
            rho = CuspidalLabel(rng.choice("uvw"), rng.randrange(1, 4), dual=rng.random() < 0.25)
            block = SpehBlock(rho, rng.randrange(1, 4), rng.randrange(1, 6),
                              Fraction(rng.randrange(-2, 3), 4))
            entries.append(ParamBlock(block, paired=rng.random() < 0.4))
        param = TadicParameter(entries)
        assert kappa(contragredient(param, self_dual)) == kappa(param)
    print("criterion 5: PASS - closed form exhaustive (r<=6, d<=4, t<=9) "
          "and kappa o contragredient = kappa on 1000 parameters")


def test_criterion_6_residue_bookkeeping():
    start = time.monotonic()
    for t in (3, 5, 7, 9, 11):
        report = residue_survival(t)
        m = report.m
        full = set(range(1, 2 * m + 1))
        for term in report.terms:
            if term.i > 1:
                assert set(term.bookkeeping) == full - {term.i - 1, term.i}
        assert report.survivors == [report.w_q_index] == [t]
    elapsed = time.monotonic() - start
    assert elapsed <= 1.0, f"took {elapsed:.2f}s, budget 1s"
    print(f"criterion 6: PASS - bookkeeping sets and unique survivor w_Q for t in 3..11 "
          f"({elapsed:.3f}s)")


def test_criterion_7_mu_q():
    for m in range(1, 21):
        assert mu_q(m) == (Fraction(-m), Fraction(1, 2))
    print("criterion 7: PASS - mu_Q = (-m, 1/2) for 1 <= m <= 20")


def test_criterion_8_period_formulas():
    golden = {
        1: "alpha/Res",
        2: "L(2)/Res",
        3: "alpha*L(2)/(Res*L(3))",
        4: "L(2)*L(4)/(Res*L(3))",
        5: "alpha*L(2)*L(4)/(Res*L(3)*L(5))",
        6: "L(2)*L(4)*L(6)/(Res*L(3)*L(5))",
        7: "alpha*L(2)*L(4)*L(6)/(Res*L(3)*L(5)*L(7))",
        8: "L(2)*L(4)*L(6)*L(8)/(Res*L(3)*L(5)*L(7))",
    }
    for t, expected in golden.items():
        assert period_formula(t).to_string() == expected

    def series_oracle(s, n_terms):
        partial = sum(k ** (-float(s)) for k in range(1, n_terms + 1))
        return (partial + (n_terms + 1) ** (1 - s) / (s - 1),
                partial + n_terms ** (1 - s) / (s - 1))

    expr2 = period_formula(2)
    val2 = evaluate_period(expr2, zeta_assignment(expr2))
    assert abs(val2 - 1.6449341) <= 1e-6
    lo2, hi2 = series_oracle(2, 400000)
    assert lo2 - 1e-6 <= val2 <= hi2 + 1e-6

    expr4 = period_formula(4)
    val4 = evaluate_period(expr4, zeta_assignment(expr4))
    lo3, hi3 = series_oracle(3, 5000)
    lo4, hi4 = series_oracle(4, 2000)
    oracle_mid = (lo2 + hi2) / 2 * (lo4 + hi4) / 2 / ((lo3 + hi3) / 2)
    assert abs(val4 - oracle_mid) <= 1e-6
    print(f"criterion 8: PASS - golden formulas t<=8; zeta(2) = {val2:.7f}, "
          f"zeta(2)zeta(4)/zeta(3) = {val4:.7f} (up to measure normalization)")
