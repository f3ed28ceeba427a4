"""One comparison of long texts for the tests: on a mismatch it reports
the first differing offset with 40 characters either side, where a bare
`==` makes pytest diff every line, which took minutes on the 150 kB
`residue-survival --t 101` JSON."""

from itertools import zip_longest

import pytest


def assert_same_text(actual: str, expected: str, source: str) -> None:
    """Fail unless `actual == expected`, naming the first differing offset
    and what `source` (the writer of `expected`) has there."""
    if actual == expected:
        return
    at = next(i for i, pair in enumerate(zip_longest(actual, expected)) if pair[0] != pair[1])
    lo = max(at - 40, 0)
    pytest.fail(f"offset {at}: {actual[lo:at + 40]!r} where {source} has "
                f"{expected[lo:at + 40]!r}", pytrace=False)
