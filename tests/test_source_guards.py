"""Guards on the library source itself."""

import ast
import sys
from pathlib import Path

import klyachko

SRC = Path(klyachko.__file__).parent


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
