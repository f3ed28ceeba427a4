"""Symbolic L-value period formulas and their numeric evaluation.

Expressions are immutable trees over four atoms:

- L(j): the Rankin-Selberg value L_sigma(j) = L(j, sigma x sigma~),
- Res:  the residue of L_sigma(s) at s = 1,
- alpha: the opaque finite product of local Whittaker normalization
  factors over the bad places,
- exact rational numerals,

combined by products, quotients and integer powers.
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


class PeriodExpression:
    """Base class; concrete nodes implement the small visitor surface."""

    def atoms(self) -> set[str]:
        raise NotImplementedError

    def evaluate(self, assignment: Mapping[str, complex]):
        raise NotImplementedError

    def to_string(self) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_string()

    def _needs_parens(self) -> bool:
        return False


@dataclass(frozen=True)
class Atom(PeriodExpression):
    """One of "L(j)", "Res", "alpha" by canonical key."""

    key: str

    def atoms(self) -> set[str]:
        return {self.key}

    def evaluate(self, assignment):
        if self.key not in assignment:
            raise MissingAtom(f"no value supplied for atom {self.key}")
        return assignment[self.key]

    def to_string(self) -> str:
        return self.key

    def to_json(self) -> dict:
        return {"kind": "atom", "atom": self.key}


def lval(j: int) -> Atom:
    if j < 2:
        raise ValueError(f"L-value atoms require j >= 2, got {j}")
    return Atom(f"L({j})")


RES = Atom("Res")
ALPHA = Atom("alpha")


@dataclass(frozen=True)
class Numeral(PeriodExpression):
    value: Fraction

    def atoms(self) -> set[str]:
        return set()

    def evaluate(self, assignment):
        return self.value

    def to_string(self) -> str:
        return str(self.value)

    def to_json(self) -> dict:
        return {"kind": "number", "value": str(self.value)}


@dataclass(frozen=True)
class Product(PeriodExpression):
    factors: tuple[PeriodExpression, ...]

    def atoms(self) -> set[str]:
        out: set[str] = set()
        for f in self.factors:
            out |= f.atoms()
        return out

    def evaluate(self, assignment):
        out = 1
        for f in self.factors:
            out = out * f.evaluate(assignment)
        return out

    def to_string(self) -> str:
        return "*".join(
            f"({f.to_string()})" if f._needs_parens() else f.to_string()
            for f in self.factors
        )

    def to_json(self) -> dict:
        return {"kind": "product", "children": [f.to_json() for f in self.factors]}

    def _needs_parens(self) -> bool:
        return True


@dataclass(frozen=True)
class Quotient(PeriodExpression):
    numerator: PeriodExpression
    denominator: PeriodExpression

    def atoms(self) -> set[str]:
        return self.numerator.atoms() | self.denominator.atoms()

    def evaluate(self, assignment):
        den = self.denominator.evaluate(assignment)
        if den == 0:
            raise DivisionByZero(f"denominator {self.denominator.to_string()} evaluated to 0")
        return self.numerator.evaluate(assignment) / den

    def to_string(self) -> str:
        num = self.numerator.to_string()
        den = self.denominator.to_string()
        if isinstance(self.denominator, Atom) or isinstance(self.denominator, Numeral):
            return f"{num}/{den}"
        return f"{num}/({den})"

    def to_json(self) -> dict:
        return {
            "kind": "quotient",
            "children": [self.numerator.to_json(), self.denominator.to_json()],
        }

    def _needs_parens(self) -> bool:
        return True


@dataclass(frozen=True)
class Power(PeriodExpression):
    base: PeriodExpression
    exponent: int

    def atoms(self) -> set[str]:
        return self.base.atoms()

    def evaluate(self, assignment):
        return self.base.evaluate(assignment) ** self.exponent

    def to_string(self) -> str:
        base = self.base.to_string()
        if self.base._needs_parens():
            base = f"({base})"
        return f"{base}^{self.exponent}"

    def to_json(self) -> dict:
        return {"kind": "power", "exponent": self.exponent, "children": [self.base.to_json()]}


def _product(factors: list[PeriodExpression]) -> PeriodExpression:
    if not factors:
        return Numeral(Fraction(1))
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def period_formula(t: int) -> PeriodExpression:
    """Squared mixed period of the normalized spherical vector of the
    discrete-spectrum representation built from t cuspidal blocks."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if t % 2 == 0:
        m = t // 2
        num = [lval(2 * j) for j in range(1, m + 1)]
        den = [RES] + [lval(2 * j + 1) for j in range(1, m)]
        return Quotient(_product(num), _product(den))
    m = (t - 1) // 2
    num = [ALPHA] + [lval(2 * j) for j in range(1, m + 1)]
    den = [RES] + [lval(2 * j + 1) for j in range(1, m + 1)]
    return Quotient(_product(num), _product(den))


def norm_constant(t: int) -> PeriodExpression:
    """Squared inverse L^2-norm of the spherical multi-residue vector:
    L(2) L(3) ... L(t) / Res^(t-1)."""
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    num = [lval(j) for j in range(2, t + 1)]
    den = RES if t == 2 else Power(RES, t - 1)
    return Quotient(_product(num), den)


def intertwining_eigenvalue(t: int) -> PeriodExpression:
    """Eigenvalue of the residual intertwining operator at w_Q on the
    spherical vector: Res / L(t), t = 2m+1 odd."""
    if t < 3 or t % 2 == 0:
        raise ValueError(f"t must be odd and >= 3, got {t}")
    return Quotient(RES, lval(t))


def evaluate_period(expr: PeriodExpression, assignment: Mapping[str, complex]):
    """Evaluate under an atom assignment; exact when the values are exact."""
    return expr.evaluate(assignment)


# -- numeric instantiation ------------------------------------------------


@cache
def _bernoulli(m: int) -> Fraction:
    """B_m (B_1 = -1/2), from sum_{i <= m} C(m + 1, i) B_i = 0."""
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, i) * _bernoulli(i) for i in range(m)) / (m + 1)


def zeta_value(s: int, tol: float = 1e-8) -> float:
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


def zeta_assignment(expr: PeriodExpression, tol: float = 1e-8) -> dict[str, float]:
    """The illustrative assignment for sigma trivial on GL_1 over Q:
    L(j) = zeta(j), Res = 1, alpha = 1."""
    out: dict[str, float] = {}
    for key in expr.atoms():
        if key == "Res":
            out[key] = 1.0
        elif key == "alpha":
            out[key] = 1.0
        elif key.startswith("L(") and key.endswith(")"):
            out[key] = zeta_value(int(key[2:-1]), tol=tol)
        else:
            raise MissingAtom(f"no zeta instantiation for atom {key}")
    return out
