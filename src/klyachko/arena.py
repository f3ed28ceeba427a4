"""Prime-field arithmetic and the mod-ell arena for exact character
arithmetic.

The prime-field layer serves both F_p, the base of F_q in gf, and Z/ell:
primality (deterministic Miller-Rabin), prime factors by trial division,
and polynomials mod a prime p as lists of residues in ascending degree
with no trailing zeros (the zero polynomial is []), including Ben-Or's
irreducibility test.  Polynomials over F_q itself live in fqpoly.

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

from .errors import ArenaTooSmall, LiftOutOfRange, UsageError


# the least strong pseudoprime to all of MR_BASES; with base 37 last the
# least is 318665857834031151167461, so base 41 is needed above it
MR_BOUND = 3317044064679887385961981
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    # Miller-Rabin to the bases MR_BASES: proven deterministic for n < MR_BOUND
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
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


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
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


# -- polynomials mod a prime p --------------------------------------------


def zpoly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def zpoly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod p; b is trimmed and nonzero."""
    db = len(b) - 1
    r = list(a)
    quo = [0] * max(len(a) - db, 0)
    inv_lead = pow(b[-1], p - 2, p)
    for s in range(len(a) - 1 - db, -1, -1):
        c = r[s + db] * inv_lead % p
        if c:
            quo[s] = c
            for t, bt in enumerate(b):
                r[s + t] = (r[s + t] - c * bt) % p
    return zpoly_trim(quo), zpoly_trim(r[:db])


def zpoly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a * b mod (f, p)."""
    prod = [0] * (len(a) + len(b) - 1)
    for s, x in enumerate(a):
        if x:
            for t, y in enumerate(b):
                prod[s + t] += x * y
    return zpoly_divmod([c % p for c in prod], f, p)[1]


def zpoly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod (f, p), e >= 0, by square-and-multiply from the top bit of
    e, every multiply by a itself (reduced mod f once), on packed integers.

    A polynomial of degree below d = deg f is held as the integer
    sum_i c_i 2^(i w), one slot of w bits per coefficient, so a product
    of two is one integer product.  Between products every coefficient
    is below 2^c, with c = 2 bitlen(p) + L + 4 and 2d < 2^L, and
    w = 2c + L.  The reduction by f stays packed: x^d = sum_i neg_i x^i,
    neg_i = -f_i / lead(f) mod p, so from the top slot t >= d down, the
    slot read mod p is added back times neg shifted to slot t - d, one
    shift-and-add per high slot, and the slots from d up are then
    dropped.  A slot sums at most d products below 2^(2c) and d - 1 of
    the added ones below p^2, under 2d 2^(2c) <= 2^w, so no slot carries
    into the next.  Two folds, v -> (v >> h) r + (v mod 2^h) in every
    slot at once with h = c - 1 and r = 2^h mod p, keep each coefficient
    mod p and bring it from below 2^w to below 2^(c + L + bitlen(p) + 2)
    and then below 2^c.  Only the result is read out of its slots, mod p.
    """
    d = len(f) - 1
    if d < 1:
        return []
    spread = (2 * d).bit_length()
    c = 2 * p.bit_length() + spread + 4
    w = 2 * c + spread
    h = c - 1
    r = pow(2, h, p)
    slot = (1 << w) - 1
    ones = ((1 << (d * w)) - 1) // slot  # 1 in each of the d slots
    low, high = ones * ((1 << h) - 1), ones * ((1 << (w - h)) - 1)
    inv_lead = pow(f[-1], p - 2, p)
    neg = sum((-x * inv_lead % p) << (i * w) for i, x in enumerate(f[:-1]))
    reads = [(t * w, (t - d) * w) for t in range(2 * d - 2, d - 1, -1)]  # top slot first

    def mulmod(x: int, y: int) -> int:
        prod = x * y
        for at, to in reads[2 * d - 2 - (prod.bit_length() - 1) // w:]:
            k = (prod >> at & slot) % p
            if k:
                prod += k * neg << to
        prod = (prod >> h & high) * r + (prod & low)
        return (prod >> h & high) * r + (prod & low)

    base = sum(x << (i * w) for i, x in enumerate(zpoly_divmod(a, f, p)[1]))
    out = 1
    for bit in f"{e:b}":
        out = mulmod(out, out)
        if bit == "1":
            out = mulmod(out, base)
    return zpoly_trim([(out >> (i * w) & slot) % p for i in range(d)])


def zpoly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod p of two trimmed polynomials, a nonzero."""
    while b:
        a, b = b, zpoly_divmod(a, b, p)[1]
    inv_lead = pow(a[-1], p - 2, p)
    return [c * inv_lead % p for c in a]


def zpoly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for s, c in enumerate(b):
        out[s] = (out[s] - c) % p
    return zpoly_trim(out)


def zpoly_is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test for a monic f of degree e >= 1 over F_p: f is
    irreducible iff gcd(x^(p^i) - x, f) = 1 for every i <= e/2, since
    x^(p^i) - x is the product of the monic irreducibles of degree
    dividing i."""
    x_pow = [0, 1]
    for _ in range((len(f) - 1) // 2):
        x_pow = zpoly_powmod(x_pow, p, f, p)
        if len(zpoly_gcd(f, zpoly_sub(x_pow, [0, 1], p), p)) > 1:
            return False
    return True


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
        while not is_prime(ell):
            ell += m
    else:
        if ell >= MR_BOUND:
            raise UsageError(f"ell = {ell} is at or above {MR_BOUND}, past the proven prime test")
        if ell <= 2 * group_order:
            raise ArenaTooSmall(f"ell = {ell} <= 2|G| = {2 * group_order}")
        if (ell - 1) % m:
            raise ArenaTooSmall(f"ell = {ell} is not 1 mod m = {m}")
        if not is_prime(ell):
            raise ArenaTooSmall(f"ell = {ell} is not prime")
    cofactor = (ell - 1) // m
    prime_divs = prime_factors(m)
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
