"""Closed-form answers the benchmark checks the program against.

Nothing here imports the package under test: every figure comes from a
formula or from mpmath, so a fault in the program cannot hide in its
own oracle.

- the class count of GL_n(F_q): the coefficient of x^n in
  prod_{i>=1} (1 - x^i) / (1 - q x^i);
- |GL_n(F_q)|, |Sp_2k(F_q)|, |H_{r,2k}| and the model dimensions
  [GL_n : H_{n-2k,2k}];
- the model-column histogram from Green's parametrisation: functions
  lambda from the monic irreducibles f != x to partitions with
  sum deg f * |lambda(f)| = n; each has r = sum deg f * #odd parts of
  lambda(f), and k = (n - r) / 2 is the column where the matching
  irreducible has its multiplicity;
- zeta(s): even s exactly from Bernoulli numbers, odd s from mpmath;
- kappa and the derivative orders of a Tadic parameter from its blocks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath

mpmath.mp.dps = 40


# -- GL_n(F_q) ----------------------------------------------------------


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def sp_order(k: int, q: int) -> int:
    out = q ** (k * k)
    for i in range(1, k + 1):
        out *= q ** (2 * i) - 1
    return out


def h_order(r: int, k: int, q: int) -> int:
    """|H_{r,2k}|: unipotent U_r, the r x 2k corner, and Sp_2k."""
    return q ** (r * (r - 1) // 2 + 2 * k * r) * sp_order(k, q)


def model_dims(n: int, q: int) -> list[int]:
    g = gl_order(n, q)
    return [g // h_order(n - 2 * k, k, q) for k in range(n // 2 + 1)]


def class_count(n: int, q: int) -> int:
    series = [1] + [0] * n
    for i in range(1, n + 1):
        # times (1 - x^i)
        series = [c - (series[d - i] if d >= i else 0) for d, c in enumerate(series)]
        # times 1 / (1 - q x^i) = sum_j q^j x^(ij)
        for d in range(i, n + 1):
            series[d] += q * series[d - i]
    return series[n]


def _mobius(m: int) -> int:
    out, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


def irreducible_count(d: int, q: int) -> int:
    """Monic irreducibles of degree d over F_q, leaving out f = x."""
    total = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
    return total - 1 if d == 1 else total


def _partitions(m: int, largest: int | None = None):
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def _times(a: dict, b: dict, n: int) -> dict:
    out: dict = {}
    for (sa, ra), ca in a.items():
        for (sb, rb), cb in b.items():
            if sa + sb <= n:
                key = (sa + sb, ra + rb)
                out[key] = out.get(key, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def model_histogram(n: int, q: int) -> dict[int, int]:
    """{k: number of irreducibles whose multiplicity sits in column k}."""
    total = {(0, 0): 1}
    for d in range(1, n + 1):
        # one polynomial of degree d: sum over partitions of x^(d|lam|) y^(d odd(lam))
        one = {}
        for size in range(0, n // d + 1):
            for lam in _partitions(size):
                key = (d * size, d * sum(1 for part in lam if part % 2))
                one[key] = one.get(key, 0) + 1
        for _ in range(irreducible_count(d, q)):
            total = _times(total, one, n)
    hist: dict[int, int] = {}
    for (size, r), count in total.items():
        if size == n:
            hist[(n - r) // 2] = hist.get((n - r) // 2, 0) + count
    return hist


# -- zeta values ----------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2, from sum_{j<=m} C(m+1, j) B_j = 0."""
    if m == 0:
        return Fraction(1)
    return -sum(comb(m + 1, j) * _bernoulli(j) for j in range(m)) / (m + 1)


@lru_cache(maxsize=None)
def zeta(s: int) -> mpmath.mpf:
    if s < 2:
        raise ValueError(f"zeta oracle needs s >= 2, got {s}")
    if s % 2:
        return mpmath.zeta(s)
    b = abs(_bernoulli(s))
    return mpmath.mpf(b.numerator) / b.denominator * (2 * mpmath.pi) ** s / (2 * factorial(s))


def period_zeta_value(t: int) -> mpmath.mpf:
    """|period|^2 at L(j) = zeta(j), Res = alpha = 1:
    prod_j zeta(2j) / zeta(2j+1) for t = 2m+1, and
    zeta(2) ... zeta(2m) / (zeta(3) ... zeta(2m-1)) for t = 2m."""
    m = t // 2
    value = mpmath.mpf(1)
    for j in range(1, m + 1):
        value *= zeta(2 * j)
    for j in range(1, m if t % 2 == 0 else m + 1):
        value /= zeta(2 * j + 1)
    return value


# -- Tadic parameters -----------------------------------------------------


def kappa(blocks: list[dict]) -> tuple[int, int, int]:
    """(n, r, k): odd-t blocks feed r, every block floor(t/2) to k."""
    n = r = k = 0
    for b in blocks:
        width = b["degree"] * b["d"] * (2 if b["paired"] else 1)
        n += width * b["t"]
        r += width * (b["t"] % 2)
        k += width * (b["t"] // 2)
    return n, r, k


def derive_orders(blocks: list[dict]) -> list[int]:
    """Each step removes one row from every block still alive, so step i
    has order sum of the delta-degrees of blocks with t > i."""
    longest = max(b["t"] for b in blocks)
    return [
        sum(b["degree"] * b["d"] * (2 if b["paired"] else 1) for b in blocks if b["t"] > i)
        for i in range(longest)
    ]


def unitary(blocks: list[dict]) -> bool:
    """Tadic's gate: plain blocks at alpha = 0, pairs with 0 < |alpha| < 1/2."""
    for b in blocks:
        alpha = Fraction(b["alpha"])
        if b["paired"]:
            if not 0 < abs(alpha) < Fraction(1, 2):
                return False
        elif alpha != 0:
            return False
    return True


def self_check() -> list[str]:
    """Consistency of the oracle with itself: the histogram counts the
    irreducibles, which number as many as the classes, and the even zeta
    values from Bernoulli numbers agree with mpmath."""
    problems = []
    for n, q in ((2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (2, 8), (2, 9)):
        if sum(model_histogram(n, q).values()) != class_count(n, q):
            problems.append(f"histogram total != class count for ({n}, {q})")
    for s in range(2, 42, 2):
        if abs(zeta(s) - mpmath.zeta(s)) > mpmath.mpf(10) ** -30:
            problems.append(f"Bernoulli zeta({s}) disagrees with mpmath")
    return problems
