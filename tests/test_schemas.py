"""Every CLI JSON output validates against its shipped schema."""

import ast
import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from klyachko import periods
from klyachko.cli import main

SCHEMA_DIR = Path(__file__).parent.parent / "schemas"


def schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def cli_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_gelfand_report_schema(capsys):
    js = cli_json(capsys, "verify-gelfand", "--n", "2", "--q", "3", "--no-cache")
    jsonschema.validate(js, schema("gelfand-report"))


def test_golden_files_validate_too():
    sch = schema("gelfand-report")
    golden_dir = Path(__file__).parent / "golden"
    files = sorted(golden_dir.glob("gelfand_*.json"))
    assert len(files) == 7
    for path in files:
        jsonschema.validate(json.loads(path.read_text()), sch)
    jsonschema.validate(json.loads((golden_dir / "table_n2_q5.json").read_text()), schema("table"))


def test_kappa_schema(capsys):
    js = cli_json(capsys, "kappa", "U(rho:1,1,3)@0 x P(U(rho:1,2,2),1/4)")
    jsonschema.validate(js, schema("kappa"))


def test_derive_schema(capsys):
    js = cli_json(capsys, "derive", "U(rho:2,2,3)@0 x U(tau:1,1,2)@0")
    jsonschema.validate(js, schema("derive"))


def test_period_schema(capsys):
    for t in (1, 2, 3, 4, 7):
        js = cli_json(capsys, "period", "--t", str(t), "--zeta")
        jsonschema.validate(js, schema("period"))


def _emitted_kinds():
    """The "kind" constants of every dict literal in the periods module."""
    tree = ast.parse(Path(periods.__file__).read_text())
    return {value.value for d in ast.walk(tree) if isinstance(d, ast.Dict)
            for key, value in zip(d.keys, d.values)
            if isinstance(key, ast.Constant) and key.value == "kind"}


def test_period_schema_kinds_are_the_emitted_kinds():
    """The period tree schema accepts exactly the node kinds the code can emit."""
    branches = schema("period")["$defs"]["expr"]["oneOf"]
    kinds = [branch["properties"]["kind"]["const"] for branch in branches]
    assert len(kinds) == len(set(kinds))
    assert set(kinds) == _emitted_kinds() == {"atom", "product", "quotient", "power"}


def test_residue_survival_schema(capsys):
    for t in (3, 7, 101):  # 101 is the largest t the benchmark sends
        js = cli_json(capsys, "residue-survival", "--t", str(t))
        jsonschema.validate(js, schema("residue-survival"))


def test_table_schema(capsys):
    js = cli_json(capsys, "table", "--n", "2", "--q", "4", "--no-cache")
    jsonschema.validate(js, schema("table"))
