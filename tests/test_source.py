import ast
from pathlib import Path

import pytest

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
    """Line numbers of float literals, true divisions, the name float,
    np.linalg, the float dtypes np.float64/32/16 and a weights= keyword (the
    weighted np.bincount returns float64) in a module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Attribute)
                and node.attr in ("linalg", "float64", "float32", "float16")
                or isinstance(node, ast.keyword) and node.arg == "weights"):
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


@pytest.mark.parametrize("snippet", [
    "x = 0.5", "x = 1j", "x = a / b", "a /= b", "x = float(a)",
    "x = np.linalg.det(a)", "x = np.float64", "x = a.astype(np.float32)",
    "x = np.zeros(3, np.float16)", "x = np.bincount(a, weights=w)",
])
def test_float_ban_flags_each_construct(snippet):
    assert list(_float_uses(ast.parse(snippet))) == [1]


def test_tracer_finds_every_target(monkeypatch):
    # The benchmark's tracer wraps functions of the package by name; a
    # renamed or removed target shows here, not only in its own self-test.
    root = SRC.parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import selftest

    assert selftest.check_install_roundtrip(root) == []
