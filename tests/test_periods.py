import math
from fractions import Fraction

import pytest

from klyachko.errors import DivisionByZero, MissingAtom
from klyachko.periods import (
    evaluate_period,
    intertwining_eigenvalue,
    lval,
    norm_constant,
    period_formula,
    zeta_assignment,
    zeta_value,
)


def zeta_oracle(s, n_terms):
    """Plain truncated Dirichlet series with interval bounds: the true
    value lies between partial + integral-from-(N+1) and partial +
    integral-from-N."""
    partial = sum(k ** (-float(s)) for k in range(1, n_terms + 1))
    lo = partial + (n_terms + 1) ** (1 - s) / (s - 1)
    hi = partial + n_terms ** (1 - s) / (s - 1)
    return lo, hi


# frozen golden trees for t <= 8, written out by hand from the two
# closed formulas (even: L(2)...L(2m) / Res L(3)...L(2m-1); odd:
# alpha/Res * prod L(2j)/L(2j+1))
GOLDEN_PERIOD_STRINGS = {
    1: "alpha/Res",
    2: "L(2)/Res",
    3: "alpha*L(2)/(Res*L(3))",
    4: "L(2)*L(4)/(Res*L(3))",
    5: "alpha*L(2)*L(4)/(Res*L(3)*L(5))",
    6: "L(2)*L(4)*L(6)/(Res*L(3)*L(5))",
    7: "alpha*L(2)*L(4)*L(6)/(Res*L(3)*L(5)*L(7))",
    8: "L(2)*L(4)*L(6)*L(8)/(Res*L(3)*L(5)*L(7))",
}


def atom(key):
    return {"kind": "atom", "atom": key}


def product(*keys):
    return {"kind": "product", "children": [atom(key) for key in keys]}


def quotient(num, den):
    return {"kind": "quotient", "children": [num, den]}


GOLDEN_PERIOD_TREES = {
    1: quotient(atom("alpha"), atom("Res")),
    2: quotient(atom("L(2)"), atom("Res")),
    3: quotient(product("alpha", "L(2)"), product("Res", "L(3)")),
    4: quotient(product("L(2)", "L(4)"), product("Res", "L(3)")),
}


def test_period_formula_strings_match_golden():
    for t, expected in GOLDEN_PERIOD_STRINGS.items():
        assert period_formula(t).to_string() == expected


def test_period_formula_trees_match_golden():
    for t, tree in GOLDEN_PERIOD_TREES.items():
        assert period_formula(t).to_json() == tree


def test_even_case_has_no_alpha_atom():
    for t in (2, 4, 6, 8):
        assert "alpha" not in period_formula(t).atoms()
    for t in (1, 3, 5, 7):
        assert "alpha" in period_formula(t).atoms()


def test_period_atom_multisets():
    expr = period_formula(6)
    assert expr.atoms() == {"L(2)", "L(4)", "L(6)", "Res", "L(3)", "L(5)"}
    assert lval(5) == "L(5)"
    with pytest.raises(ValueError):
        lval(1)


def test_norm_constant():
    assert norm_constant(2).to_string() == "L(2)/Res"
    assert norm_constant(3).to_string() == "L(2)*L(3)/(Res^2)"
    assert norm_constant(4).to_string() == "L(2)*L(3)*L(4)/(Res^3)"


def test_intertwining_eigenvalue():
    for t in (3, 5, 7):
        expr = intertwining_eigenvalue(t)
        assert expr.to_json() == quotient(atom("Res"), atom(f"L({t})"))
        assert expr.to_string() == f"Res/L({t})"
    with pytest.raises(ValueError):
        intertwining_eigenvalue(4)


def test_json_shape():
    js = period_formula(4).to_json()
    assert js["kind"] == "quotient"
    num, den = js["children"]
    assert num == {"kind": "product", "children": [
        {"kind": "atom", "atom": "L(2)"}, {"kind": "atom", "atom": "L(4)"}]}
    assert den["children"][0] == {"kind": "atom", "atom": "Res"}


def test_evaluate_all_ones():
    for t in range(1, 9):
        expr = period_formula(t)
        ones = {key: 1 for key in expr.atoms()}
        assert evaluate_period(expr, ones) == 1


def test_evaluate_missing_atom():
    with pytest.raises(MissingAtom):
        evaluate_period(period_formula(2), {"Res": 1.0})


def test_evaluate_division_by_zero():
    with pytest.raises(DivisionByZero):
        evaluate_period(period_formula(2), {"L(2)": 1.0, "Res": 0.0})


def test_norm_constant_evaluates_denominator_power():
    expr = norm_constant(3)
    assert expr.to_json() == quotient(
        product("L(2)", "L(3)"), {"kind": "power", "exponent": 2, "children": [atom("Res")]})
    values = {"L(2)": Fraction(3, 2), "L(3)": 4, "Res": Fraction(1, 2)}
    assert evaluate_period(expr, values) == 24
    assert evaluate_period(norm_constant(4), {**values, "L(4)": 5, "Res": 2}) == Fraction(15, 4)
    with pytest.raises(DivisionByZero, match=r"denominator Res\^2 evaluated to 0"):
        evaluate_period(expr, {**values, "Res": 0})


def test_zeta_value_against_series_oracle():
    for s in (2, 3, 4):
        lo, hi = zeta_oracle(s, 200000 if s == 2 else 5000)
        val = zeta_value(s, tol=1e-9)
        assert lo - 1e-9 <= val <= hi + 1e-9
    assert abs(zeta_value(2) - math.pi**2 / 6) < 1e-7
    assert abs(zeta_value(4) - math.pi**4 / 90) < 1e-8


@pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-10, 1e-14, 1e-300])
def test_zeta_value_within_tol_of_closed_forms(tol):
    """zeta(2k) = (-1)^(k+1) B_2k (2 pi)^2k / (2 (2k)!), with B_2, B_4,
    B_6 = 1/6, -1/30, 1/42; a few ulps of rounding come on top of tol."""
    exact = {2: math.pi**2 / 6, 4: math.pi**4 / 90, 6: math.pi**6 / 945}
    for s, want in exact.items():
        assert abs(zeta_value(s, tol=tol) - want) <= tol + 4 * math.ulp(want)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_zeta_value_rejects_nonpositive_tol(tol):
    with pytest.raises(ValueError):
        zeta_value(2, tol=tol)


def test_period_zeta_instances():
    expr2 = period_formula(2)
    val2 = evaluate_period(expr2, zeta_assignment(expr2))
    assert abs(val2 - 1.6449341) < 1e-6
    expr4 = period_formula(4)
    val4 = evaluate_period(expr4, zeta_assignment(expr4))
    lo2, hi2 = zeta_oracle(2, 200000)
    lo3, hi3 = zeta_oracle(3, 5000)
    lo4, hi4 = zeta_oracle(4, 2000)
    assert lo2 * lo4 / hi3 - 1e-7 <= val4 <= hi2 * hi4 / lo3 + 1e-7
    assert abs(val4 - 1.4810866) < 1e-6
