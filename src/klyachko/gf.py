"""Arithmetic in the small finite fields F_q, q = p^e <= MAX_Q = 16.

Field elements are encoded as integers in [0, q): the element
sum_i c_i * t^i (c_i in F_p, t the residue of x mod the modulus) has
code sum_i c_i * p^i.  The modulus is the irreducible monic polynomial
of degree e over F_p with the least integer code (x itself for e = 1,
where codes are plain residues mod p), so element codes are
reproducible across runs.  Irreducibility is Ben-Or's test and products
are reduced by the modulus with the prime-field polynomials of arena.

Full q x q addition and multiplication tables are precomputed; all
group-theoretic hot loops index into them directly.  `primitive`, the
least code that generates F_q^*, is found once per field, and
`field_make` memoizes the fields.
"""

from __future__ import annotations

from functools import lru_cache

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


class FiniteField:
    """F_q with element codes in [0, q) and precomputed op tables.

    Attributes `add`, `sub`, `mul` are flat q*q lookup lists indexed by
    a*q + b; `neg` and `inv` are length-q lists (inv[0] is unused).
    `primitive` is the least code w generating F_q^* (1 for q = 2): the
    least w with w^((q-1)/r) != 1 for each prime r dividing q - 1.
    """

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise NonPrimeP(f"p = {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        q = p**e
        if q > MAX_Q:
            raise FieldTooLarge(f"q = {q} exceeds cap {MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _least_irreducible(p, e)
        self._build_tables()
        cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
        self.primitive = next(
            (w for w in range(1, q) if all(self.pow(w, c) != 1 for c in cofactors)), None)
        if self.primitive is None:
            raise InvariantViolation(f"F_{q}^* has no generator")

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        polys = [_poly_from_code(c, p) for c in range(q)]
        modulus = list(self.modulus)
        add = [0] * (q * q)
        mul = [0] * (q * q)
        for a in range(q):
            for b in range(q):
                add[a * q + b] = self._code(
                    tuple(
                        ((polys[a][i] if i < len(polys[a]) else 0)
                         + (polys[b][i] if i < len(polys[b]) else 0)) % p
                        for i in range(e)
                    )
                )
                mul[a * q + b] = self._code(zpoly_mulmod(polys[a], polys[b], modulus, p))
        self.add = add
        self.mul = mul
        neg = [0] * q
        for a in range(q):
            for b in range(q):
                if add[a * q + b] == 0:
                    neg[a] = b
                    break
        self.neg = neg
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    break
            else:
                raise InvariantViolation(f"element {a} has no inverse: the modulus is not irreducible")
        self.inv = inv
        self.sub = [add[a * q + neg[b]] for a in range(q) for b in range(q)]

    def _code(self, coeffs: tuple[int, ...]) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    # -- scalar ops ------------------------------------------------------

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv[a], -k
        out, q = 1, self.q
        mul = self.mul
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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, e={self.e})"


@lru_cache(maxsize=None)
def field_make(p: int, e: int) -> FiniteField:
    """Construct (and memoize) F_{p^e} with the canonical modulus."""
    return FiniteField(p, e)


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
