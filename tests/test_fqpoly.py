import random

from klyachko.fqpoly import (
    char_matrix,
    invariant_factors,
    poly_divmod,
    poly_monic,
    poly_mul,
    poly_sub,
    smith_diagonal,
)
from klyachko.gf import field_make, mat_inv, mat_mul
from oracles import mat_det


def random_poly(rng, field, max_deg):
    deg = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(field.q) for _ in range(deg)] + [rng.randrange(1, field.q)]
    return tuple(coeffs)


def test_divmod_roundtrip_random():
    rng = random.Random(7)
    for field in (field_make(2, 1), field_make(3, 1), field_make(2, 2)):
        for _ in range(200):
            a = random_poly(rng, field, 5)
            b = random_poly(rng, field, 3)
            quo, rem = poly_divmod(a, b, field)
            assert poly_sub(a, poly_mul(quo, b, field), field) == rem
            assert len(rem) < len(b) or not rem


def test_gcd_divides_both():
    """The last nonzero remainder of Euclid's chain divides both inputs."""
    rng = random.Random(11)
    field = field_make(3, 1)
    for _ in range(100):
        a = random_poly(rng, field, 4)
        b = random_poly(rng, field, 4)
        g, r = a, b
        while r:
            g, r = r, poly_divmod(g, r, field)[1]
        g = poly_monic(g, field)
        assert poly_divmod(a, g, field)[1] == ()
        assert poly_divmod(b, g, field)[1] == ()


def test_invariant_factors_scalar_matrix():
    field = field_make(3, 1)
    two_i = (2, 0, 0, 2)
    # xI - 2I: three copies of x - 2 = x + 1
    assert invariant_factors(two_i, 2, field) == ((1, 1), (1, 1))


def test_invariant_factors_companion_matrix():
    field = field_make(2, 1)
    # companion matrix of x^2 + x + 1: cyclic, single invariant factor
    comp = (0, 1, 1, 1)
    assert invariant_factors(comp, 2, field) == ((1, 1, 1),)


def test_invariant_factors_jordan_block():
    field = field_make(2, 1)
    jordan = (1, 1, 0, 1)
    # (x - 1)^2 = x^2 + 1 over F_2
    assert invariant_factors(jordan, 2, field) == ((1, 0, 1),)


def test_invariant_factors_conjugation_invariant():
    rng = random.Random(3)
    for q, p, e in ((2, 2, 1), (3, 3, 1)):
        field = field_make(p, e)
        n = 3
        invertible = []
        while len(invertible) < 40:
            cand = tuple(rng.randrange(q) for _ in range(n * n))
            if mat_det(cand, n, field):
                invertible.append(cand)
        for _ in range(60):
            g = rng.choice(invertible)
            x = rng.choice(invertible)
            conj = mat_mul(mat_mul(x, g, n, field), mat_inv(x, n, field), n, field)
            assert invariant_factors(g, n, field) == invariant_factors(conj, n, field)


def test_smith_diagonal_divisibility_and_charpoly():
    rng = random.Random(5)
    field = field_make(3, 1)
    n = 3
    for _ in range(40):
        g = tuple(rng.randrange(3) for _ in range(n * n))
        diag = smith_diagonal(char_matrix(g, n, field), field)
        assert sum(len(d) - 1 for d in diag) == n
        for a, b in zip(diag, diag[1:]):
            assert poly_divmod(b, a, field)[1] == ()
        prod = (1,)
        for d in diag:
            prod = poly_mul(prod, d, field)
        # product of invariant factors is the (monic) characteristic polynomial
        charpoly = _det_poly(char_matrix(g, n, field), field)
        assert poly_monic(prod, field) == poly_monic(charpoly, field)


def _det_poly(m, field):
    """Cofactor-expansion determinant of a polynomial matrix (oracle)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = ()
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [[m[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = poly_mul(m[0][j], _det_poly(minor, field), field)
        if j % 2:
            term = poly_sub((), term, field)
        acc = poly_sub(acc, poly_sub((), term, field), field)
    return acc
