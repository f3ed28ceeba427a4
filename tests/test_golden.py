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
from textcheck import assert_same_text

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CASES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (3, 3)]

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
    live = verify_gelfand(table_store(n, q))
    assert_same_text(json.dumps(strip_meta(live), indent=2), json.dumps(strip_meta(golden), indent=2),
                     path.name)


@pytest.mark.parametrize("n,q", GOLDEN_CASES)
def test_golden_model_columns_match_green_parametrisation(n, q):
    golden = json.loads((GOLDEN_DIR / f"gelfand_n{n}_q{q}.json").read_text())
    assert model_columns(golden["rows"]) == model_histogram(n, q)


@pytest.mark.parametrize("n,q", GOLDEN_CASES)
def test_golden_dimensions_and_models_match_green_degrees(n, q):
    golden = json.loads((GOLDEN_DIR / f"gelfand_n{n}_q{q}.json").read_text())
    assert degree_model_columns(golden["rows"]) == degree_model_histogram(n, q)


def test_table_output_matches_golden(capsys):
    """The `table` JSON of GL_2(F_5), whose character values the Gelfand
    reports do not carry, apart from meta."""
    assert main(["table", "--n", "2", "--q", "5", "--format", "json", "--no-cache"]) == 0
    live = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN_DIR / "table_n2_q5.json").read_text())
    assert_same_text(json.dumps(strip_meta(live), indent=2), json.dumps(strip_meta(golden), indent=2),
                     "table_n2_q5.json")


@pytest.mark.parametrize("name", sorted(SYMBOLIC_CASES))
def test_symbolic_output_matches_golden(name, capsys):
    """The JSON of the command, key order included, apart from meta."""
    assert main(SYMBOLIC_CASES[name] + ["--format", "json"]) == 0
    live = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_same_text(json.dumps(strip_meta(live), indent=2), json.dumps(strip_meta(golden), indent=2),
                     f"{name}.json")


# the text of kappa and derive on EXPRESSIONS, which has no meta and is
# pinned whole
SYMBOLIC_TEXT = {
    "kappa_dual_label": """\
parameter: U(rho~:2,1,3)@0 x U(sigma:1,2,2)@0
n = 10, kappa: (r, 2k) = (2, 8)
model: H_{2,8} with psi_2
unitary (Tadic gate): True
contragredient carries H'_{8,2} with conjugate psi'_2
""",
    "kappa_paired": """\
parameter: U(rho:1,1,3)@0 x P(U(rho~:1,2,2),1/4)
n = 11, kappa: (r, 2k) = (1, 10)
model: H_{1,10} with psi_1
unitary (Tadic gate): True
contragredient carries H'_{10,1} with conjugate psi'_1
""",
    "kappa_negative_shift": """\
parameter: U(tau:3,2,4)@-1/2
n = 24, kappa: (r, 2k) = (0, 24)
model: H_{0,24} with psi_0
unitary (Tadic gate): False
contragredient carries H'_{24,0} with conjugate psi'_0
""",
    "kappa_three_blocks": """\
parameter: U(a:1,1,1)@0 x U(b:2,1,2)@0 x U(c:1,3,5)@0
n = 20, kappa: (r, 2k) = (4, 16)
model: H_{4,16} with psi_4
unitary (Tadic gate): True
contragredient carries H'_{16,4} with conjugate psi'_4
""",
    "derive_dual_label": """\
input: U(rho~:2,1,3)@0 x U(sigma:1,2,2)@0 (n = 10)
  step 1: derivative order 4 -> U(rho~:2,1,2)@-1/2 x U(sigma:1,2,1)@-1/2
  step 2: derivative order 4 -> U(rho~:2,1,1)@-1
  step 3: derivative order 2 -> (empty)
exhausted after 3 steps; orders [4, 4, 2]
""",
    "derive_paired": """\
input: U(rho:1,1,3)@0 x P(U(rho~:1,2,2),1/4) (n = 11)
  step 1: derivative order 5 -> U(rho:1,1,2)@-1/2 x U(rho~:1,2,1)@-3/4 x U(rho~:1,2,1)@-1/4
  step 2: derivative order 5 -> U(rho:1,1,1)@-1
  step 3: derivative order 1 -> (empty)
exhausted after 3 steps; orders [5, 5, 1]
""",
    "derive_negative_shift": """\
input: U(tau:3,2,4)@-1/2 (n = 24)
  step 1: derivative order 6 -> U(tau:3,2,3)@-1
  step 2: derivative order 6 -> U(tau:3,2,2)@-3/2
  step 3: derivative order 6 -> U(tau:3,2,1)@-2
  step 4: derivative order 6 -> (empty)
exhausted after 4 steps; orders [6, 6, 6, 6]
""",
    "derive_three_blocks": """\
input: U(a:1,1,1)@0 x U(b:2,1,2)@0 x U(c:1,3,5)@0 (n = 20)
  step 1: derivative order 6 -> U(b:2,1,1)@-1/2 x U(c:1,3,4)@-1/2
  step 2: derivative order 5 -> U(c:1,3,3)@-1
  step 3: derivative order 3 -> U(c:1,3,2)@-3/2
  step 4: derivative order 3 -> U(c:1,3,1)@-2
  step 5: derivative order 3 -> (empty)
exhausted after 5 steps; orders [6, 5, 3, 3, 3]
""",
}


@pytest.mark.parametrize("name", sorted(SYMBOLIC_TEXT))
def test_symbolic_text_matches_golden(name, capsys):
    assert main(SYMBOLIC_CASES[name] + ["--format", "text"]) == 0
    assert_same_text(capsys.readouterr().out, SYMBOLIC_TEXT[name], name)


EMITTED_ARGVS = {
    "verify_gelfand_n3_q3": ["verify-gelfand", "--n", "3", "--q", "3", "--no-cache"],
    "table_n2_q5": ["table", "--n", "2", "--q", "5", "--no-cache"],
    **SYMBOLIC_CASES,
    **{f"residue_survival_t{t}": ["residue-survival", "--t", str(t)] for t in (3, 101)},
}


@pytest.mark.parametrize("name", sorted(EMITTED_ARGVS))
def test_json_output_is_the_stdlib_encoding(name, capsys):
    """Every command writes exactly json.dumps(report, indent=2) and a
    newline, meta included, though cli._emit does not call it."""
    assert main(EMITTED_ARGVS[name] + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert_same_text(out, json.dumps(json.loads(out), indent=2) + "\n", "json.dumps")
