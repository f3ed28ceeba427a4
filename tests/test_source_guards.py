"""Guards on the library source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import math
import re
import sys
from collections import Counter
from pathlib import Path

import klyachko
from klyachko.groups import GroupTable

SRC = Path(klyachko.__file__).parent
WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_no_assert_or_assertion_error_in_library():
    """Exact identities raise InvariantViolation: a bare assert vanishes
    under python -O and an AssertionError escapes the CLI's exit codes."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_library_imports_only_stdlib_and_itself():
    """The package is pure standard library: every absolute import names
    a stdlib module or klyachko, and relative imports stay inside it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "klyachko":
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_private_names_cross_modules():
    """A module lends out nothing private: no library module imports an
    underscore-prefixed name (dunders such as __version__ aside) from
    another klyachko module.  What another module needs gets a public
    owner."""

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "klyachko"
            ):
                module_private = any(map(private, (node.module or "").split(".")))
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if module_private or private(alias.name)]
    assert found == []


def test_only_groups_codes_rows():
    """groups owns the row code: no other module lists the row vectors
    of a length (`product(range(q), repeat=n)`) to code them itself."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and any(kw.arg == "repeat" for kw in node.keywords):
                found.append(path.name)
    assert found == ["groups.py"]


def test_every_library_name_is_used():
    """Every function, class and method the library defines, dunders
    aside, is used by the library or the benchmark: its name occurs as a
    word in src/klyachko or perfbench/ outside the def or class lines
    that define it.  What only tests use belongs in tests/."""
    words = Counter()
    for path in sorted(SRC.glob("*.py")) + sorted(WORKER.parent.glob("*.py")):
        words.update(re.findall(r"\w+", path.read_text()))
    own = Counter()  # occurrences of each name on the lines defining it
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                own[node.name] += re.findall(r"\w+", lines[node.lineno - 1]).count(node.name)
    assert sorted(name for name in own if words[name] <= own[name]) == []


def _resolves(name: str) -> bool:
    """Whether `module.attr.attr...` names something under klyachko."""
    module, *attrs = name.split(".")
    try:
        obj = importlib.import_module(f"klyachko.{module}")
    except ModuleNotFoundError:
        return False
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_benchmark_worker_names_resolve():
    """Every name the benchmark worker takes from the package still
    exists: the TRACED (module, attribute) pairs, the modules and names
    it imports, and the GroupTable members it reads from a `table`.  The
    worker is parsed, not imported."""
    names, table_members = set(), set()
    for node in ast.walk(ast.parse(WORKER.read_text(), str(WORKER))):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            names |= {f"{module}.{attr}" for module, attr in ast.literal_eval(node.value)}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("klyachko."):
            module = node.module.removeprefix("klyachko.")
            names |= {f"{module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("klyachko.") for alias in node.names
                      if alias.name.startswith("klyachko.")}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "table":
            table_members.add(node.attr)
    assert {"cli", "gf.mat_mul", "fqpoly.invariant_factors", "groups.GroupTable.exponent"} <= names
    assert "inverses" in table_members
    assert sorted(name for name in names if not _resolves(name)) == []
    members = set(dir(GroupTable)) | {f.name for f in dataclasses.fields(GroupTable)}
    assert sorted(table_members - members) == []


def test_benchmark_worker_unit_costs_run_on_tables(table_store, monkeypatch):
    """The benchmark worker, imported as it runs, times invariant_factors
    and mat_mul on the elements, inverses and representatives of real
    tables: a table API it cannot use fails here, not only in a
    benchmark run."""
    monkeypatch.syspath_prepend(str(WORKER.parent))  # the worker imports hostspeed
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    costs = worker.unit_costs({(2, 2): table_store(2, 2), (2, 3): table_store(2, 3)})
    assert sorted(costs) == ["fqpoly.invariant_factors_us", "gf.mat_mul_us"]
    assert all(math.isfinite(us) and us > 0 for us in costs.values())
