import pytest

from klyachko.arena import build_arena
from klyachko.gf import field_make
from klyachko.groups import gl_enumerate


@pytest.fixture(scope="session")
def table_store():
    """Memoized classed group tables, shared across the whole run."""
    cache = {}

    def get(n, q):
        if (n, q) not in cache:
            field = None
            for p in (2, 3, 5, 7, 11, 13):
                e = 0
                m = q
                while m % p == 0:
                    m //= p
                    e += 1
                if m == 1 and e:
                    field = field_make(p, e)
                    break
            if field is None:
                raise ValueError(f"q = {q} not a prime power")
            cache[(n, q)] = gl_enumerate(n, field)
        return cache[(n, q)]

    return get


@pytest.fixture(scope="session")
def arena_store(table_store):
    cache = {}

    def get(n, q):
        if (n, q) not in cache:
            table = table_store(n, q)
            cache[(n, q)] = build_arena(table.order, table.exponent(), table.field.p)
        return cache[(n, q)]

    return get
