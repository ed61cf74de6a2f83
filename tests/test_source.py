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


def _assertion_error_raises(tree: ast.AST):
    """Line numbers of raise AssertionError, called or not, in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_no_bare_assertion_errors_in_package():
    # A failed identity or invariant raises _modp.CheckFailed, which the CLI
    # reports as one "check failed" line; a bare AssertionError would escape
    # it as a traceback.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _assertion_error_raises(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"bare AssertionError raises in src/strbc: {found}"


@pytest.mark.parametrize("snippet, flagged", [
    ("raise AssertionError('x')", [1]), ("raise AssertionError", [1]),
    ("if a:\n    raise AssertionError(f'{a}') from e", [2]),
    ("raise CheckFailed('x')", []), ("raise", []),
    ("x = AssertionError('x')", []),
])
def test_assertion_error_ban_flags_each_raise(snippet, flagged):
    assert list(_assertion_error_raises(ast.parse(snippet))) == flagged


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


def _cyc_root_uses(tree: ast.AST):
    """Line numbers of the names cyc_root and cyc_embed in a module: an
    import, a load or an attribute."""
    names = ("cyc_root", "cyc_embed")
    for node in ast.walk(tree):
        if (isinstance(node, ast.alias) and node.name in names
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names):
            yield node.lineno


def test_single_roots_of_unity_are_exponents():
    # A single root of unity is carried as its exponent (a fourth root as
    # its quarter-turn count, a character value as a log or a trace); a
    # CycNum root is built only in cyclotomic itself and for the b_y total
    # in stratum.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("cyclotomic.py", "stratum.py")
        for line in _cyc_root_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"cyc_root or cyc_embed named in src/strbc: {found}"


@pytest.mark.parametrize("snippet, flagged", [
    ("from .cyclotomic import CycNum, cyc_root", [1]),
    ("from .cyclotomic import cyc_embed as embed", [1]),
    ("x = cyc_embed(v, 4)", [1]), ("f = cyc_root", [1]),
    ("import strbc.cyclotomic as c\nx = c.cyc_root(4, 1)", [2]),
    ("from .cyclotomic import CycNum", []), ("x = CycNum.one(4)", []),
    ("x = cyc_roots(4)", []),
])
def test_cyc_root_scan_flags_each_use(snippet, flagged):
    assert list(_cyc_root_uses(ast.parse(snippet))) == flagged


def _hand_memo_uses(tree: ast.AST):
    """Line numbers of hand-kept memo code in a module: a ._memo or .memo
    attribute, or a .key() or .tobytes() call, outside the memoized
    decorator, its _content and a key() method.  Creating the memo, a store
    of an empty dict into ._memo, is exempt."""
    def walk(node, exempt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = exempt or node.name in ("memoized", "_content", "key")
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if (isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, ast.Dict) and not node.value.keys
                and all(isinstance(t, ast.Attribute) and t.attr == "_memo"
                        for t in targets)):
            return
        if not exempt and (
                isinstance(node, ast.Attribute) and node.attr in ("_memo", "memo")
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("key", "tobytes")):
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, exempt)

    return list(walk(tree, False))


def test_memo_keys_come_only_from_the_decorator():
    # One key rule: a memoized builder is keyed by its name and the content
    # of its arguments, and nothing else reads, writes or keys a tower's memo.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _hand_memo_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"memo kept by hand in src/strbc: {found}"


def test_memoized_builder_names_are_unique():
    # A memo key starts with the builder's name, so two builders of one
    # name would share entries.
    names = [
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "memoized" for d in node.decorator_list)
    ]
    assert len(names) == len(set(names)) == 11, names


@pytest.mark.parametrize("snippet, flagged", [
    ("t._memo[k] = v", [1]), ("hit = t._memo.get(k)", [1]),
    ("t._memo = {1: 2}", [1]), ("v = t.memo(('cent', m), build)", [1]),
    ("key = ('cent', tuple(g.key() for g in gens), m)", [1]),
    ("key = (b.shape, b.tobytes())", [1]),
    ("def build(t):\n    return t._memo", [2]),
    ("def memoized(build):\n    def cached(t, *a):\n        return t._memo.get(a)", []),
    ("def _content(x):\n    return x.key(), x.tobytes()", []),
    ("class E:\n    def key(self):\n        return self.rows.tobytes()", []),
    ("class T:\n    def __init__(self):\n        self._memo: dict = {}", []),
    ("self._memo = {}", []), ("@memoized\ndef f(t, m):\n    return m", []),
])
def test_memo_scan_flags_each_hand_kept_use(snippet, flagged):
    assert _hand_memo_uses(ast.parse(snippet)) == flagged


def _unread_names(trees: dict[str, ast.AST]) -> list[str]:
    """Functions, methods, properties, classes and module-level names, public
    or private, that the modules define but never read: no load of the name
    and no attribute of that name anywhere in them.  Dunders are exempt."""
    defined = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{module}:{node.lineno}")
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.setdefault(target.id, f"{module}:{node.lineno}")
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    return sorted(f"{where} {name}" for name, where in defined.items()
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in read)


def test_every_name_is_read_in_package():
    # Code that only the tests reach belongs in tests/_support.py, not in
    # src/strbc, so every name there, public or private, has a reader in
    # the package.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = _unread_names(trees)
    assert not found, f"names read nowhere in src/strbc: {found}"


@pytest.mark.parametrize("snippet,unread", [
    ("def _f(): pass", ["m:1 _f"]),
    ("class _C: pass", ["m:1 _C"]),
    ("_X = 1", ["m:1 _X"]),
    ("_X: int = 1", ["m:1 _X"]),
    ("class C:\n    def _m(self): pass", ["m:1 C", "m:2 _m"]),
    ("def _f(): pass\ng = _f", ["m:2 g"]),
    ("_X = 1\ny = obj._X", ["m:2 y"]),
    ("def __init__(self): pass\ndef f(): pass", ["m:2 f"]),
])
def test_private_name_scan_flags_each_unread_definition(snippet, unread):
    assert _unread_names({"m": ast.parse(snippet)}) == unread


@pytest.mark.parametrize("snippet,unread", [
    ("def f(): pass", ["m:1 f"]),
    ("class C: pass", ["m:1 C"]),
    ("X = 1", ["m:1 X"]),
    ("X: int = 1", ["m:1 X"]),
    ("x = C()\nclass C:\n    def m(self): pass", ["m:1 x", "m:3 m"]),
    ("x = C()\nclass C:\n    @property\n    def p(self): return 1", ["m:1 x", "m:4 p"]),
    ("def f(): pass\nf()", []),
    ("X = 1\nprint(X)", []),
    ("class C:\n    def m(self): pass\nC().m()", []),
    ("class C:\n    @property\n    def p(self): return 1\nprint(C().p)", []),
    ("class C:\n    def __repr__(self): return ''\nprint(C())", []),
])
def test_name_scan_flags_each_unread_public_definition(snippet, unread):
    assert _unread_names({"m": ast.parse(snippet)}) == unread


def _is_dataclass(decorator: ast.AST) -> bool:
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass"


def _unread_attributes(trees: dict[str, ast.AST]) -> list[str]:
    """'module:line name' for each attribute stored on self, or declared as
    a dataclass field, that no module loads as an attribute.  A read through
    getattr with a computed name does not count."""
    stored = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and any(map(_is_dataclass, node.decorator_list))):
                for field in node.body:
                    if (isinstance(field, ast.AnnAssign)
                            and isinstance(field.target, ast.Name)):
                        stored.setdefault(field.target.id, f"{module}:{field.lineno}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                stored.setdefault(node.attr, f"{module}:{node.lineno}")
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{where} {name}" for name, where in stored.items()
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in read)


def test_every_attribute_is_read_in_package():
    # A field that the package writes and never reads is dead state: it
    # goes, or moves with its only readers to the tests.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = _unread_attributes(trees)
    assert not found, f"attributes read nowhere in src/strbc: {found}"


@pytest.mark.parametrize("snippet,unread", [
    ("class C:\n    def __init__(self):\n        self.x = 1", ["m:3 x"]),
    ("class C:\n    def __init__(self):\n        self.x, self.y = 1, 2\n"
     "print(C().y)", ["m:3 x"]),
    ("@dataclass\nclass C:\n    x: int\n    y: int = 0\nprint(C(1).y)", ["m:3 x"]),
    ("@dataclass(frozen=True)\nclass C:\n    x: int", ["m:3 x"]),
    ("@dataclasses.dataclass\nclass C:\n    x: int", ["m:3 x"]),
    ("class C:\n    def __init__(self):\n        self.r_y = 1\n"
     "    def f(self, w):\n        return getattr(self, f'r_{w}')", ["m:3 r_y"]),
    ("@dataclass\nclass C:\n    x: int\nw = 'x'\nprint(getattr(C(1), f'{w}'))",
     ["m:3 x"]),
    ("class C:\n    def __init__(self):\n        self.x = 1\n"
     "    def f(self):\n        return self.x", []),
    ("@dataclass\nclass C:\n    x: int\nprint(C(1).x)", []),
    ("class C:\n    x: int\n    def __init__(self):\n        self.__dict__ = {}", []),
    ("class C:\n    def __init__(self, o):\n        o.x = 1", []),
])
def test_attribute_scan_flags_each_unread_store(snippet, unread):
    assert _unread_attributes({"m": ast.parse(snippet)}) == unread


def test_tracer_finds_every_target(monkeypatch):
    # The benchmark's tracer wraps functions of the package by name; a
    # renamed or removed target shows here, not only in its own self-test.
    root = SRC.parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import selftest

    assert selftest.check_install_roundtrip(root) == []
