import pytest

from klyachko.arena import build_arena
from klyachko.gf import field_from_q
from klyachko.groups import gl_enumerate


@pytest.fixture(scope="session")
def table_store():
    """Memoized classed group tables, shared across the whole run."""
    cache = {}

    def get(n, q):
        if (n, q) not in cache:
            cache[(n, q)] = gl_enumerate(n, field_from_q(q))
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
