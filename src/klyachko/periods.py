"""Symbolic L-value period formulas and their numeric evaluation.

A formula is one ratio of two monomials in three atoms:

- L(j): the Rankin-Selberg value L_sigma(j) = L(j, sigma x sigma~),
- Res:  the residue of L_sigma(s) at s = 1,
- alpha: the opaque finite product of local Whittaker normalization
  factors over the bad places.

The numerator is a product of atoms and the denominator a product of
atom powers, each side with at least one factor.  In JSON a formula is
a "quotient" node over its two sides; a side of several factors is a
"product" node, a factor an "atom" node, or a "power" node over its
atom when the exponent is above 1.
Atoms are never computed analytically here; evaluation substitutes a
user-supplied assignment, and every numeric output is defined only up
to the global Haar-measure normalization.

The squared-period formulas:

    t = 2m:    L(2) L(4) ... L(2m) / (Res L(3) ... L(2m-1))
    t = 2m+1:  (alpha / Res) * prod_{j=1..m} L(2j) / L(2j+1)

with the t = 1 case reducing to the Whittaker formula alpha / Res.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping

from .errors import DivisionByZero, MissingAtom


def lval(j: int) -> str:
    if j < 2:
        raise ValueError(f"L-value atoms require j >= 2, got {j}")
    return f"L({j})"


RES = "Res"
ALPHA = "alpha"
ZETA_TOL = 1e-8  # default error bound of each zeta value


def _atom_json(atom: str) -> dict:
    return {"kind": "atom", "atom": atom}


def _side_json(factors: list[dict]) -> dict:
    return factors[0] if len(factors) == 1 else {"kind": "product", "children": factors}


@dataclass(frozen=True)
class PeriodFormula:
    """prod(numerator) / prod(atom^exponent for (atom, exponent) in denominator)."""

    numerator: tuple[str, ...]
    denominator: tuple[tuple[str, int], ...]

    def atoms(self) -> set[str]:
        return set(self.numerator) | {atom for atom, _ in self.denominator}

    def _denominator_string(self) -> str:
        return "*".join(atom if e == 1 else f"{atom}^{e}" for atom, e in self.denominator)

    def to_string(self) -> str:
        num = "*".join(self.numerator)
        den = self._denominator_string()
        if len(self.denominator) == 1 and self.denominator[0][1] == 1:
            return f"{num}/{den}"
        return f"{num}/({den})"

    def to_json(self) -> dict:
        num = [_atom_json(atom) for atom in self.numerator]
        den = [_atom_json(atom) if e == 1
               else {"kind": "power", "exponent": e, "children": [_atom_json(atom)]}
               for atom, e in self.denominator]
        return {"kind": "quotient", "children": [_side_json(num), _side_json(den)]}


def period_formula(t: int) -> PeriodFormula:
    """Squared mixed period of the normalized spherical vector of the
    discrete-spectrum representation built from t cuspidal blocks."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    num = [ALPHA] * (t % 2) + [lval(j) for j in range(2, t + 1, 2)]
    den = [RES] + [lval(j) for j in range(3, t + 1, 2)]
    return PeriodFormula(tuple(num), tuple((atom, 1) for atom in den))


def norm_constant(t: int) -> PeriodFormula:
    """Squared inverse L^2-norm of the spherical multi-residue vector:
    L(2) L(3) ... L(t) / Res^(t-1)."""
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    return PeriodFormula(tuple(lval(j) for j in range(2, t + 1)), ((RES, t - 1),))


def intertwining_eigenvalue(t: int) -> PeriodFormula:
    """Eigenvalue of the residual intertwining operator at w_Q on the
    spherical vector: Res / L(t), t = 2m+1 odd."""
    if t < 3 or t % 2 == 0:
        raise ValueError(f"t must be odd and >= 3, got {t}")
    return PeriodFormula((RES,), ((lval(t), 1),))


def evaluate_period(expr: PeriodFormula, assignment: Mapping[str, complex]):
    """Evaluate under an atom assignment; exact when the values are exact.
    Each side multiplies its factors left to right, the denominator first."""

    def value(atom: str):
        if atom not in assignment:
            raise MissingAtom(f"no value supplied for atom {atom}")
        return assignment[atom]

    den = math.prod(value(atom) ** e for atom, e in expr.denominator)
    if den == 0:
        raise DivisionByZero(f"denominator {expr._denominator_string()} evaluated to 0")
    return math.prod(map(value, expr.numerator)) / den


# -- numeric instantiation ------------------------------------------------


@cache
def _bernoulli(m: int) -> Fraction:
    """B_m (B_1 = -1/2), from sum_{i <= m} C(m + 1, i) B_i = 0."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, i) * _bernoulli(i) for i in range(m)) / (m + 1)


def zeta_value(s: int, tol: float = ZETA_TOL) -> float:
    """zeta(s) by Euler-Maclaurin summation with a proven remainder bound.

    For f(x) = x^-s and a cut-off N,

        zeta(s) = sum_{k<N} k^-s + N^(1-s)/(s-1) + N^-s/2 + sum_{j=1}^{m} T_j + R_m,
        T_j = B_2j / (2j)! * s(s+1)...(s+2j-2) * N^(1-s-2j).

    Every derivative f^(i)(x) = (-1)^i s(s+1)...(s+i-1) x^(-s-i) keeps
    one sign on [N, oo), so R_m has the sign of T_{m+1} and
    |R_m| <= |T_{m+1}|.  N starts at 10 and m is the least count with
    |T_{m+1}| <= tol; if the T_j stop shrinking first (a tol below what
    this N reaches), N doubles.  The parts are added by math.fsum, so
    rounding adds about one ulp of zeta(s) per part on top of the bound.
    """
    if s < 2:
        raise ValueError(f"zeta evaluation needs s >= 2, got {s}")
    if not tol > 0:
        raise ValueError(f"zeta tolerance must be positive, got {tol}")
    cutoff = 10
    while True:
        n_pow = float(cutoff) ** -s
        parts = [k ** -float(s) for k in range(1, cutoff)]
        parts += (n_pow * cutoff / (s - 1.0), 0.5 * n_pow)
        term = s * n_pow / (12.0 * cutoff)  # T_1
        j = 1
        while abs(term) > tol:
            parts.append(term)
            step = (float(_bernoulli(2 * j + 2) / _bernoulli(2 * j))
                    * (s + 2 * j - 1) * (s + 2 * j)
                    / ((2 * j + 1) * (2 * j + 2) * cutoff * cutoff))
            if abs(step) >= 1.0:
                break
            term *= step
            j += 1
        else:
            return math.fsum(parts)
        cutoff *= 2


def zeta_assignment(expr: PeriodFormula, tol: float = ZETA_TOL) -> dict[str, float]:
    """The illustrative assignment for sigma trivial on GL_1 over Q:
    L(j) = zeta(j), Res = 1, alpha = 1."""
    out: dict[str, float] = {}
    for key in expr.atoms():
        if key in (RES, ALPHA):
            out[key] = 1.0
        elif key.startswith("L(") and key.endswith(")"):
            out[key] = zeta_value(int(key[2:-1]), tol=tol)
        else:
            raise MissingAtom(f"no zeta instantiation for atom {key}")
    return out
