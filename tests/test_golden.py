"""Golden-file regression: shipped Gelfand reports and symbolic command
outputs reproduce exactly.

The reports are fully deterministic (fixed table ordering, canonically
chosen ell, no randomness in the character table), so everything except
the run metadata is compared verbatim.
"""

import json
from pathlib import Path

import pytest

from klyachko.cli import main
from klyachko.gelfand import verify_gelfand
from oracles import degree_model_columns, degree_model_histogram, model_columns, model_histogram

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CASES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]

# a dual label, a paired block, a negative shift and a product of three blocks
EXPRESSIONS = {
    "dual_label": "U(rho~:2,1,3) x U(sigma:1,2,2)",
    "paired": "U(rho:1,1,3)@0 x P(U(rho~:1,2,2),1/4)",
    "negative_shift": "U(tau:3,2,4)@-1/2",
    "three_blocks": "U(a:1,1,1) x U(b:2,1,2) x U(c:1,3,5)@0",
}
SYMBOLIC_CASES = {
    **{f"{command}_{name}": [command, expr]
       for command in ("kappa", "derive") for name, expr in EXPRESSIONS.items()},
    "residue_survival_t7": ["residue-survival", "--t", "7"],
    "period_t1": ["period", "--t", "1"],
    "period_t4_zeta": ["period", "--t", "4", "--zeta"],
    "period_t7_zeta_tol": ["period", "--t", "7", "--zeta", "--tol", "1e-10"],
}


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


@pytest.mark.parametrize("n,q", GOLDEN_CASES)
def test_golden_dimensions_and_models_match_green_degrees(n, q):
    golden = json.loads((GOLDEN_DIR / f"gelfand_n{n}_q{q}.json").read_text())
    assert degree_model_columns(golden["rows"]) == degree_model_histogram(n, q)


@pytest.mark.parametrize("name", sorted(SYMBOLIC_CASES))
def test_symbolic_output_matches_golden(name, capsys):
    """The JSON of the command, key order included, apart from meta."""
    assert main(SYMBOLIC_CASES[name] + ["--format", "json"]) == 0
    live = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert json.dumps(strip_meta(live), indent=2) == json.dumps(strip_meta(golden), indent=2)
