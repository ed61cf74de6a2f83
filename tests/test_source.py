import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "strbc"


def test_no_bare_asserts_in_package():
    # Invariants must hold under python -O, which strips assert statements.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare asserts in src/strbc: {found}"
