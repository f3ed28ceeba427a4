"""Guards on the library source itself."""

import ast
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
