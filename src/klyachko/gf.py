"""Arithmetic in the small finite fields F_q, q = p^e <= MAX_Q = 16.

Field elements are encoded as integers in [0, q): the element
sum_i c_i * t^i (c_i in F_p, t the residue of x mod the modulus) has
code sum_i c_i * p^i.  The modulus is the irreducible monic polynomial
of degree e over F_p with the least integer code (x itself for e = 1,
where codes are plain residues mod p), so element codes are
reproducible across runs.  Irreducibility is Ben-Or's test and products
are reduced by the modulus with the prime-field polynomials of arena.

A field is a plain immutable value, `FiniteField`, a NamedTuple whose
full q x q addition and multiplication tables are tuples; all
group-theoretic hot loops index into them directly.  `field_make` is
its one builder and memoizes the fields, so every table in a process
shares one set of tuples, which no one can change.  `primitive`, the
least code that generates F_q^*, is found once per field.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from typing import NamedTuple

from .arena import is_prime, prime_factors, zpoly_is_irreducible, zpoly_mulmod
from .errors import FieldTooLarge, InvariantViolation, NonPrimeP

MAX_Q = 16  # desk-scale cap on the field size


def _poly_from_code(code: int, p: int) -> list[int]:
    coeffs = []
    while code:
        coeffs.append(code % p)
        code //= p
    return coeffs


def _least_irreducible(p: int, e: int) -> tuple[int, ...]:
    for code in range(p**e, 2 * p**e):  # the monic polynomials of degree e
        poly = _poly_from_code(code, p)
        if zpoly_is_irreducible(poly, p):
            return tuple(poly)
    # a monic irreducible of every degree exists over F_p
    raise InvariantViolation(f"no irreducible monic of degree {e} over F_{p}")


class FiniteField(NamedTuple):
    """F_q with element codes in [0, q) and precomputed op tables.

    A plain immutable value built only by `field_make`.  `add`, `sub`,
    `mul` are flat q*q lookup tuples indexed by a*q + b; `neg` and `inv`
    are length-q tuples (inv[0] is unused).  `modulus` is the ascending
    coefficient tuple of the modulus.  `primitive` is the least code w
    generating F_q^* (1 for q = 2): the least w with w^((q-1)/r) != 1
    for each prime r dividing q - 1.
    """

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]
    add: tuple[int, ...]
    sub: tuple[int, ...]
    mul: tuple[int, ...]
    neg: tuple[int, ...]
    inv: tuple[int, ...]
    primitive: int

    def pow(self, a: int, k: int) -> int:
        """a^k for k >= 0."""
        out, q, mul = 1, self.q, self.mul
        while k:
            if k & 1:
                out = mul[out * q + a]
            a = mul[a * q + a]
            k >>= 1
        return out

    def trace_to_prime(self, a: int) -> int:
        """Tr_{F_q/F_p}(a), returned as an integer in [0, p)."""
        acc, frob = 0, a
        for _ in range(self.e):
            acc = self.add[acc * self.q + frob]
            frob = self.pow(frob, self.p)
        if acc >= self.p:
            raise InvariantViolation("trace landed outside the prime subfield")
        return acc


@lru_cache(maxsize=None)
def field_make(p: int, e: int) -> FiniteField:
    """Construct (and memoize) F_{p^e} with the canonical modulus: the one
    builder of `FiniteField`."""
    if not is_prime(p):
        raise NonPrimeP(f"p = {p} is not prime")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    q = p**e
    if q > MAX_Q:
        raise FieldTooLarge(f"q = {q} exceeds cap {MAX_Q}")
    modulus = _least_irreducible(p, e)
    polys = [_poly_from_code(c, p) for c in range(q)]
    places = [p**i for i in range(e)]
    add = tuple(sum((x + y) % p * c for x, y, c in zip_longest(a, b, places, fillvalue=0))
                for a in polys for b in polys)
    mul = tuple(sum(x * c for x, c in zip(zpoly_mulmod(a, b, modulus, p), places))
                for a in polys for b in polys)
    neg = tuple(add.index(0, a * q, (a + 1) * q) - a * q for a in range(q))
    inv = [0]
    for a in range(1, q):
        try:
            inv.append(mul.index(1, a * q, (a + 1) * q) - a * q)
        except ValueError:
            raise InvariantViolation(f"element {a} has no inverse: the modulus is not irreducible") from None
    sub = tuple(add[a * q + neg[b]] for a in range(q) for b in range(q))
    field = FiniteField(p, e, q, modulus, add, sub, mul, neg, tuple(inv), 0)
    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    primitive = next((w for w in range(1, q) if all(field.pow(w, c) != 1 for c in cofactors)), None)
    if primitive is None:
        raise InvariantViolation(f"F_{q}^* has no generator")
    return field._replace(primitive=primitive)


def field_from_q(q: int) -> FiniteField:
    """Resolve a prime power q to its field; rejects non prime powers.
    The cap is checked first, so a large q is never factored."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if q > MAX_Q:
        raise FieldTooLarge(f"q = {q} exceeds cap {MAX_Q}")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p, e = factors[0], 1
    while p**e < q:
        e += 1
    return field_make(p, e)


# -- matrices ----------------------------------------------------------
#
# A matrix is a flat row-major tuple of its n * n entry codes.


def mat_identity(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mat_mul(a: tuple[int, ...], b: tuple[int, ...], n: int, field: FiniteField) -> tuple[int, ...]:
    q, mul, add = field.q, field.mul, field.add
    out = []
    for i in range(n):
        row = a[i * n:(i + 1) * n]
        for j in range(n):
            s = 0
            for k in range(n):
                s = add[s * q + mul[row[k] * q + b[k * n + j]]]
            out.append(s)
    return tuple(out)


def mat_inv(a: tuple[int, ...], n: int, field: FiniteField) -> tuple[int, ...]:
    q, mul, sub_, inv = field.q, field.mul, field.sub, field.inv
    m = [list(a[i * n:(i + 1) * n]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        pinv = inv[m[col][col]]
        crow = m[col]
        for c in range(2 * n):
            crow[c] = mul[crow[c] * q + pinv]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                rrow = m[r]
                for c in range(2 * n):
                    rrow[c] = sub_[rrow[c] * q + mul[f * q + crow[c]]]
    return tuple(m[i][n + j] for i in range(n) for j in range(n))
