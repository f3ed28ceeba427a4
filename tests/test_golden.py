"""Golden-file regression: shipped Gelfand reports reproduce exactly.

The reports are fully deterministic (fixed table ordering, canonically
chosen ell, no randomness in the character table), so everything except
the run metadata is compared verbatim.
"""

import json
from pathlib import Path

import pytest

from klyachko.gelfand import verify_gelfand
from oracles import model_columns, model_histogram

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CASES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]


def strip_meta(js):
    out = dict(js)
    out.pop("meta", None)
    return out


@pytest.mark.parametrize("n,q", GOLDEN_CASES)
def test_gelfand_report_matches_golden(n, q, table_store):
    path = GOLDEN_DIR / f"gelfand_n{n}_q{q}.json"
    golden = json.loads(path.read_text())
    live = verify_gelfand(table_store(n, q)).to_json_dict()
    assert strip_meta(live) == strip_meta(golden)


@pytest.mark.parametrize("n,q", GOLDEN_CASES)
def test_golden_model_columns_match_green_parametrisation(n, q):
    golden = json.loads((GOLDEN_DIR / f"gelfand_n{n}_q{q}.json").read_text())
    assert model_columns(golden["rows"]) == model_histogram(n, q)
