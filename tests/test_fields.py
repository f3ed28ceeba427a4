import itertools
import random

import pytest

from klyachko import gf
from klyachko.arena import is_prime, zpoly_is_irreducible, zpoly_mulmod, zpoly_powmod
from klyachko.errors import FieldTooLarge, InvariantViolation, NonPrimeP
from klyachko.gf import FiniteField, field_from_q, field_make

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def trial_division_prime(n):
    """Oracle for is_prime."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def poly_from_code(code, p):
    coeffs = []
    while code:
        coeffs.append(code % p)
        code //= p
    return tuple(coeffs)


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_rem(a, b, p):
    """a mod b over F_p, b monic."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i, cb in enumerate(b):
                a[shift + i] = (a[shift + i] - lead * cb) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def divisor_irreducible(poly, p):
    """Oracle for Ben-Or's test: no monic divisor of degree 1..deg/2."""
    e = len(poly) - 1
    for deg in range(1, e // 2 + 1):
        for code in range(p**deg, 2 * p**deg):  # monic of degree deg
            if not poly_rem(poly, poly_from_code(code, p), p):
                return False
    return True


def oracle_field(q):
    """(modulus, add, sub, mul, neg, inv) of F_q built by exhaustive
    divisor search for the least monic irreducible and by schoolbook
    products reduced by it."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = len(poly_from_code(q, p)) - 1
    modulus = next(poly_from_code(c, p) for c in range(p**e, 2 * p**e)
                   if divisor_irreducible(poly_from_code(c, p), p))

    def code(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    polys = [poly_from_code(c, p) for c in range(q)]
    add = [code([(x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])
           for a in polys for b in polys]
    mul = [code(poly_rem(poly_mul(a, b, p), modulus, p)) for a in polys for b in polys]
    neg = [add[a * q:(a + 1) * q].index(0) for a in range(q)]
    inv = [0] + [mul[a * q:(a + 1) * q].index(1) for a in range(1, q)]
    sub = [add[a * q + neg[b]] for a in range(q) for b in range(q)]
    return modulus, tuple(add), tuple(sub), tuple(mul), tuple(neg), tuple(inv)


def brute_force_irreducible(coeffs, p):
    """Oracle: monic poly (ascending coeffs) has no monic divisor of
    degree 1..deg-1, checked by trial multiplication of all pairs."""
    deg = len(coeffs) - 1

    def polys_of_degree(d):
        for tail in itertools.product(range(p), repeat=d):
            yield tail + (1,)

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
        return tuple(out)

    for d1 in range(1, deg):
        d2 = deg - d1
        if d2 < d1:
            break
        for a in polys_of_degree(d1):
            for b in polys_of_degree(d2):
                if mul(a, b) == tuple(coeffs):
                    return False
    return True


def test_f2_addition():
    f = field_make(2, 1)
    assert f.q == 2
    assert f.add[1 * 2 + 1] == 0


def test_f3_multiplication():
    f = field_make(3, 1)
    assert f.mul[2 * 3 + 2] == 1


def test_f4_modulus_and_generator_relation():
    f = field_make(2, 2)
    assert f.q == 4
    # x^2 + x + 1, the only irreducible monic quadratic over F_2
    assert f.modulus == (1, 1, 1)
    candidates = [(c0, c1, 1) for c0 in range(2) for c1 in range(2)]
    irreducible = [c for c in candidates if brute_force_irreducible(c, 2)]
    assert irreducible == [(1, 1, 1)]
    # both elements outside F_2 satisfy t^2 = t + 1
    for t in (2, 3):
        assert f.mul[t * 4 + t] == f.add[t * 4 + 1]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 4), (13, 1)])
def test_every_nonzero_element_invertible(p, e):
    f = field_make(p, e)
    for a in range(1, f.q):
        assert f.mul[a * f.q + f.inv[a]] == 1


@pytest.mark.parametrize("p,e", [(2, 2), (3, 1), (2, 3)])
def test_field_axioms_exhaustive(p, e):
    f = field_make(p, e)
    q, add, mul = f.q, f.add, f.mul
    for a in range(q):
        for b in range(q):
            assert add[a * q + b] == add[b * q + a]
            assert mul[a * q + b] == mul[b * q + a]
            for c in range(q):
                assert add[add[a * q + b] * q + c] == add[a * q + add[b * q + c]]
                assert mul[mul[a * q + b] * q + c] == mul[a * q + mul[b * q + c]]
                assert mul[a * q + add[b * q + c]] == add[mul[a * q + b] * q + mul[a * q + c]]


def test_trace_lands_in_prime_field_and_is_additive():
    f = field_make(2, 2)
    # Tr(a) = a + a^2 over F_4: 0,1 -> 0; t, t+1 -> 1
    assert [f.trace_to_prime(a) for a in range(4)] == [0, 0, 1, 1]
    f9 = field_make(3, 2)
    for a in range(9):
        assert 0 <= f9.trace_to_prime(a) < 3
        for b in range(9):
            s = f9.add[a * 9 + b]
            assert f9.trace_to_prime(s) == (f9.trace_to_prime(a) + f9.trace_to_prime(b)) % 3


def test_trace_identity_on_prime_field():
    f = field_make(3, 1)
    assert [f.trace_to_prime(a) for a in range(3)] == [0, 1, 2]


def test_rejects_non_prime_p():
    with pytest.raises(NonPrimeP):
        field_make.__wrapped__(4, 1)


def test_rejects_oversized_field():
    with pytest.raises(FieldTooLarge):
        field_make.__wrapped__(17, 1)
    with pytest.raises(FieldTooLarge):
        field_make.__wrapped__(2, 5)


def test_a_field_with_no_generator_raises(monkeypatch):
    """With every prime of q - 1 taken as 1, w^(q-1) = 1 rules out every
    w: the search for `primitive` raises InvariantViolation, not
    StopIteration."""
    monkeypatch.setattr(gf, "prime_factors", lambda m: [1])
    with pytest.raises(InvariantViolation, match="F_5\\^\\* has no generator"):
        field_make.__wrapped__(5, 1)


def test_a_field_with_no_irreducible_modulus_raises(monkeypatch):
    """A monic irreducible of every degree exists over F_p, so a search
    that finds none is a bug: InvariantViolation."""
    monkeypatch.setattr(gf, "zpoly_is_irreducible", lambda poly, p: False)
    with pytest.raises(InvariantViolation, match="no irreducible monic of degree 2 over F_3"):
        field_make.__wrapped__(3, 2)


def test_a_reducible_modulus_raises(monkeypatch):
    """With every polynomial taken as irreducible the modulus is x^2,
    under which x has no inverse: InvariantViolation."""
    monkeypatch.setattr(gf, "zpoly_is_irreducible", lambda poly, p: True)
    with pytest.raises(InvariantViolation, match="element 3 has no inverse"):
        field_make.__wrapped__(3, 2)


def test_field_from_q():
    assert field_from_q(4).modulus == (1, 1, 1)
    assert field_from_q(9).p == 3
    with pytest.raises(ValueError):
        field_from_q(12)


def test_field_from_q_checks_cap_before_factoring():
    # 2^31 - 1 is prime: finding p by trial division would take 2^31 steps
    for q in (17, 18, 2**31 - 1, 10**30):
        with pytest.raises(FieldTooLarge):
            field_from_q(q)


@pytest.mark.parametrize("p,max_deg", [(2, 4), (3, 4), (5, 2), (7, 2), (11, 2), (13, 2)])
def test_ben_or_matches_divisor_oracle(p, max_deg):
    for deg in range(1, max_deg + 1):
        for code in range(p**deg, 2 * p**deg):
            poly = poly_from_code(code, p)
            assert zpoly_is_irreducible(list(poly), p) == divisor_irreducible(poly, p), poly


@pytest.mark.parametrize("p", [2, 3, 7057])
def test_powmod_matches_repeated_mulmod(p):
    """a^e mod (f, p) for e = 0..70 equals e products by a, for a linear
    base and for a base of degree deg f - 1."""
    f = [1, 0, p - 1, 1, 0, 1]  # monic of degree 5
    for a in ([p - 1, 1], [2 % p, 1, 0, p - 1, 1]):
        expected = [1]
        for e in range(71):
            assert zpoly_powmod(a, e, f, p) == expected, (a, e)
            expected = zpoly_mulmod(expected, a, f, p)


def schoolbook_powmod(a, e, f, p):
    """Oracle: a^e mod (f, p) by square-and-multiply over lists, each
    product a schoolbook one reduced by long division by f, from 1 mod f."""

    def reduce(c):
        c = [x % p for x in c]
        inv_lead = pow(f[-1], p - 2, p)
        for top in range(len(c) - 1, len(f) - 2, -1):
            k = c[top] * inv_lead % p
            for i, y in enumerate(f):
                c[top - len(f) + 1 + i] = (c[top - len(f) + 1 + i] - k * y) % p
        c = c[:len(f) - 1]
        while c and c[-1] == 0:
            c.pop()
        return c

    def times(x, y):
        prod = [0] * (len(x) + len(y))
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] += u * v
        return reduce(prod)

    out, square = reduce([1]), reduce(list(a))
    while e:
        if e & 1:
            out = times(out, square)
        square, e = times(square, square), e >> 1
    return out


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@pytest.mark.parametrize("p", [97, 7057, 364141, _next_prime(2**31)])
def test_packed_powmod_matches_schoolbook(p):
    """The packed powering against the schoolbook oracle: moduli of
    degree 1 to 40, not monic, for e in {0, 1, 2, (p - 1)/2}, with the
    bases x, x + a and a random base of degree up to deg f + 2 (Ben-Or's
    test passes nonlinear ones)."""
    rng = random.Random(p)
    for deg in range(1, 41):
        f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        for a in ([0, 1], [rng.randrange(p), 1], [rng.randrange(p) for _ in range(deg + 3)]):
            for e in (0, 1, 2, (p - 1) // 2):
                assert zpoly_powmod(a, e, f, p) == schoolbook_powmod(a, e, f, p), (deg, a, e)


def test_packed_powmod_of_a_zero_base_and_a_constant_modulus():
    """0^0 = 1 and 0^e = 0 mod f; every polynomial is 0 mod a nonzero
    constant."""
    p = 364141
    f = [3, 0, 1]
    assert zpoly_powmod([], 0, f, p) == [1]
    assert zpoly_powmod([0], 5, f, p) == []
    assert zpoly_powmod([0, 0, 1], 3, f, p) == schoolbook_powmod([0, 0, 1], 3, f, p)
    assert zpoly_powmod([1, 1], 7, [5], p) == []


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_match_oracle_construction(q):
    f = field_from_q(q)
    assert (f.modulus, f.add, f.sub, f.mul, f.neg, f.inv) == oracle_field(q)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_is_an_immutable_value_from_its_one_builder(q):
    """Every table is a tuple, so no caller can change the tables that
    every group table of the process shares, and `field_from_q` returns
    the memoized field of `field_make`."""
    f = field_from_q(q)
    assert type(f) is FiniteField
    assert f is field_make(f.p, f.e)
    for name in ("modulus", "add", "sub", "mul", "neg", "inv"):
        table = getattr(f, name)
        assert type(table) is tuple, name
        with pytest.raises(TypeError):
            table[0] = 1
    with pytest.raises(AttributeError):
        f.add = ()


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_rejects_the_base_37_pseudoprime():
    # 399165290221 * 798330580441, a strong pseudoprime to every prime base up to 37
    assert not is_prime(318665857834031151167461)


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial_division_prime(n)
    ]
