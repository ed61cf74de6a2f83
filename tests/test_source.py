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


def _float_uses(tree: ast.AST):
    """Line numbers of float literals, true divisions, the name float and
    np.linalg in a module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Attribute) and node.attr == "linalg"):
            yield node.lineno


def test_no_floats_in_package():
    # Every number is exact: int64 arrays, Python ints and cyclotomic
    # integers.  Nothing reaches BLAS, which is also why the CLI can pin
    # OpenBLAS to one thread at no cost.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"floats in src/strbc: {found}"


def test_tracer_finds_every_target(monkeypatch):
    # The benchmark's tracer wraps functions of the package by name; a
    # renamed or removed target shows here, not only in its own self-test.
    root = SRC.parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import selftest

    assert selftest.check_install_roundtrip(root) == []
