"""Mod-ell arena for exact character arithmetic.

All character values live in Z/ell for a prime ell = 1 (mod m), where
m = lcm(exponent(G), p).  Such an ell makes Z/ell a splitting field for
the group algebra, and ell > 2|G| guarantees that any integer quantity
of absolute value at most |G| (dimensions, multiplicities, inner
products) lifts uniquely from its residue.  No cyclotomic arithmetic
ever happens: zeta_m is just a fixed element of exact order m mod ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArenaTooSmall, LiftOutOfRange


def _is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3 * 10^24
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class ModularArena:
    ell: int
    m: int
    p: int
    zeta_m: int
    zeta_p: int
    group_order: int

    def lift_signed(self, a: int) -> int:
        """Unique integer in (-ell/2, ell/2] congruent to a."""
        a %= self.ell
        return a - self.ell if a > self.ell // 2 else a

    def lift_bounded(self, a: int, low: int, high: int, what: str = "value") -> int:
        """Lift a residue to the unique integer in [low, high], or fail."""
        v = self.lift_signed(a)
        if not (low <= v <= high):
            raise LiftOutOfRange(f"{what} lifted to {v}, outside [{low}, {high}]")
        return v


def build_arena(group_order: int, exponent: int, p: int, ell: int | None = None) -> ModularArena:
    """Least prime ell = 1 (mod lcm(exponent, p)) with ell > 2|G|,
    unless a valid override is supplied."""
    m = math.lcm(exponent, p)
    if ell is None:
        ell = 2 * group_order + 1
        ell += (-(ell - 1)) % m  # smallest candidate = 1 mod m above the bound
        while not _is_probable_prime(ell):
            ell += m
    else:
        if ell <= 2 * group_order:
            raise ArenaTooSmall(f"ell = {ell} <= 2|G| = {2 * group_order}")
        if (ell - 1) % m:
            raise ArenaTooSmall(f"ell = {ell} is not 1 mod m = {m}")
        if not _is_probable_prime(ell):
            raise ArenaTooSmall(f"ell = {ell} is not prime")
    cofactor = (ell - 1) // m
    prime_divs = _prime_factors(m)
    zeta_m = None
    for a in range(2, ell):
        cand = pow(a, cofactor, ell)
        if cand == 1:
            continue
        if all(pow(cand, m // r, ell) != 1 for r in prime_divs):
            zeta_m = cand
            break
    if zeta_m is None:
        raise ArenaTooSmall(f"no element of order {m} mod {ell}")
    zeta_p = pow(zeta_m, m // p, ell)
    return ModularArena(ell=ell, m=m, p=p, zeta_m=zeta_m, zeta_p=zeta_p, group_order=group_order)
