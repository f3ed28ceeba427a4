"""Guards on the library source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import math
import re
import sys
from pathlib import Path

import klyachko
from klyachko.groups import GroupTable
from klyachko.tablecache import load_table, save_table

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


def test_only_tablecache_reads_and_writes_files():
    """tablecache owns the file framing: no other module calls `open`
    (the builtin or a path's), `read_bytes` or `write_bytes`, and
    tablecache reads once, with `read_bytes` in its one reader, and
    writes once, opening the file in its one writer, which writes the
    body's parts without joining them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("open", "read_bytes", "write_bytes"):
                found.append((path.name, node.attr))
            elif isinstance(node, ast.Name) and node.id == "open":
                found.append((path.name, "open"))
    assert sorted(found) == [("tablecache.py", "open"), ("tablecache.py", "read_bytes")]


def test_only_cli_emit_writes_indented_json():
    """One JSON writer: no library call of `json.dumps`, `json.dump` or
    `JSONEncoder` passes `indent`, so every indented report comes from
    `cli._emit`, whose bytes the tests compare with the stdlib's."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords) \
                    and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} \
                    & {"dumps", "dump", "JSONEncoder"}:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _build_sites(name):
    """The library function around each call `name(...)` or `x.name(...)`,
    one entry per call."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                func = node
                while func is not None and not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    func = parents.get(func)
                sites.append(f"{path.name}:{func.name if func else '<module>'}")
    return sites


def test_group_table_is_built_only_by_class_records():
    """One builder of tables: `GroupTable(` is called at exactly one site
    in the library, inside `groups.class_records`, so a computed table
    and a loaded one get their class records from the same per-class
    code, whether the search's orbits or the load's one bucketing loop
    gave the labels and members."""
    assert _build_sites("GroupTable") == ["groups.py:class_records"]


def test_finite_field_is_built_only_by_field_make():
    """One builder of fields: `FiniteField(` is called at exactly one site
    in the library, inside `gf.field_make`, so every field of a process is
    the memoized one and its tables are built by one code path."""
    assert _build_sites("FiniteField") == ["gf.py:field_make"]


def test_no_class_of_dict_in_library():
    """One class-lookup path: the label array indexed by element code.
    No module keeps a `class_of` map from elements to classes."""
    found = [f"{path.name}:{lineno}" for path in sorted(SRC.glob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"\bclass_of\b", line)]
    assert found == []


def test_every_library_name_is_used():
    """Every function, class and method the library defines, dunders
    aside, is used by the library or the benchmark, read from the syntax
    of src/klyachko and perfbench/, not from words in their prose.  A
    function or class outside a class body is used when it is loaded by
    name or imported; a method when it is read as an attribute, where a
    dotted string constant such as TRACED's "GroupTable.exponent" reads
    its last part.  What only tests use belongs in tests/."""
    loaded, read = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted(WORKER.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "." in node.value and all(map(str.isidentifier, node.value.split("."))):
                read.add(node.value.rpartition(".")[2])
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")) \
                    and node.name not in (read if id(node) in methods else loaded):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


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


def test_benchmark_worker_unit_costs_run_on_tables(table_store, monkeypatch, tmp_path):
    """The benchmark worker, imported as it runs, times invariant_factors
    and mat_mul on the elements, inverses and representatives of real
    tables, computed and loaded from a `.tbl` (whose elements come from
    its labels alone): a table API it cannot use fails here, not only in
    a benchmark run."""
    monkeypatch.syspath_prepend(str(WORKER.parent))  # the worker imports hostspeed
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    path = tmp_path / "t.tbl"
    save_table(table_store(3, 2), path)
    loaded = load_table(path, table_store(3, 2).field, 3)
    costs = worker.unit_costs({(2, 2): table_store(2, 2), (2, 3): table_store(2, 3), (3, 2): loaded})
    assert sorted(costs) == ["fqpoly.invariant_factors_us", "gf.mat_mul_us"]
    assert all(math.isfinite(us) and us > 0 for us in costs.values())
