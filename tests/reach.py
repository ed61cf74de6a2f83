"""Statements of src/strbc that no golden run reaches, gated by an allowlist.

Replays every run of tests/golden/runs.json in-process through ``cli.main``
under ``sys.settrace`` and prints each statement of the package that none of
them executed, as ``module.py:first-last`` ranges of neighbouring unreached
statements.  A range's text is the stripped first line of its first
statement and, when it holds more than one, `` ... `` and that of its last
one, so a range that grows gets a new text.  ``raise`` statements are left
out: a refusal that no golden run provokes is expected.  So are docstrings
and ``nonlocal`` and ``global`` statements, which execute nothing.  A
compound statement counts as reached when its header line or anything in
its body runs.

Every range must be named in tests/reach_allow.txt, one line per range:

    module.py | enclosing function | text | reason

The enclosing function is the qualified name of the innermost function or
class around the range's first statement (``<module>`` at the top level).
An entry matches on those three fields, not on line numbers, so an edit
elsewhere in the module does not break it; each entry matches one range,
so two ranges with the same text in the same function need two entries.
Lines that are blank or start with ``#`` are comments.

It exits 1 when a range is unreached and not listed, or when a listed entry
matches no unreached range (its code was deleted or a golden run now
reaches it), and 0 otherwise:

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import ast
import json
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "strbc"
ALLOW = Path(__file__).resolve().parent / "reach_allow.txt"


class Range(NamedTuple):
    """Neighbouring unreached statements of one module; text names the first
    and the last of them."""
    module: str
    first: int
    last: int
    function: str
    text: str

    def key(self) -> tuple[str, str, str]:
        return self.module, self.function, self.text

    def __str__(self) -> str:
        lines = f"{self.first}" + (f"-{self.last}" if self.last != self.first else "")
        return f"{self.module}:{lines}  {self.text}  (in {self.function})"


def _executes_nothing(node: ast.stmt) -> bool:
    return (isinstance(node, (ast.Raise, ast.Nonlocal, ast.Global))
            or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)))


def _spans(tree: ast.AST) -> list[tuple[int, int, str]]:
    """(first line, last line, enclosing qualified name) of every statement
    but raise, nonlocal and global statements and docstrings, in source
    order, an enclosing statement before its body."""
    out = []

    def walk(node: ast.AST, scope: str, prefix: str) -> None:
        # prefix: what the qualified name of a def or class here starts with
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and not _executes_nothing(child):
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                out.append((first, child.end_lineno, scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                walk(child, name, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                name = prefix + child.name
                walk(child, name, name + ".")
            else:
                walk(child, scope, prefix)

    walk(tree, "<module>", "")
    return sorted(out, key=lambda span: (span[0], -span[1]))


def unreached(executed: dict[str, set[int]], src: Path = SRC) -> list[Range]:
    """Each run of neighbouring statements of src/*.py that did not execute.

    A statement executed when any line of it did: a line in the body of a
    compound statement runs only after its header.  A run is [first line,
    last line, scope, first line of its last statement]."""
    out = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        hit = executed.get(str(path), set())
        runs, cur = [], None
        for first, last, scope in _spans(ast.parse(text, str(path))):
            if cur and first <= cur[1]:
                continue  # inside an unreached statement already counted
            if hit.intersection(range(first, last + 1)):
                cur = None
            elif cur:
                cur[1], cur[3] = last, first
            else:
                cur = [first, last, scope, first]
                runs.append(cur)
        out += [Range(path.name, a, b, scope, lines[a - 1].strip()
                      + (f" ... {lines[z - 1].strip()}" if z != a else ""))
                for a, b, scope, z in runs]
    return out


def parse_allowlist(text: str) -> list[tuple[tuple[str, str, str], str]]:
    """The (module, function, text) key and the reason of each entry."""
    entries = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(" | ")]
        if len(parts) < 4 or not all(parts[:2]) or not parts[-1]:
            raise ValueError(f"reach_allow.txt:{n}: want 'module | function | "
                             f"text | reason', got {line!r}")
        key = (parts[0], parts[1], " | ".join(parts[2:-1]))
        entries.append((key, parts[-1]))
    return entries


def check(found: list[Range], entries) -> tuple[list[Range], list[tuple]]:
    """The ranges no entry names and the entries that match no range."""
    left = Counter(key for key, _ in entries)
    unlisted = []
    for r in found:
        if left[r.key()]:
            left[r.key()] -= 1
        else:
            unlisted.append(r)
    return unlisted, list(left.elements())


def main() -> int:
    src_dir = str(SRC)
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(src_dir):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        # Imported under the tracer, so that module-level statements count.
        from test_golden import RUNS, run_in_process
        runs = json.loads(RUNS.read_text())
        with tempfile.TemporaryDirectory() as tmp:
            for name, run in runs.items():
                run_in_process(run["argv"], Path(tmp) / f"{name}.json")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    found = unreached(executed)
    print(f"{len(found)} ranges of src/strbc statements that none of the "
          f"{len(runs)} golden runs reaches (raise statements left out):")
    print("\n".join(map(str, found)))
    unlisted, stale = check(found, parse_allowlist(ALLOW.read_text()))
    for r in unlisted:
        print(f"not in {ALLOW.name}: {r}")
    for module, function, text in stale:
        print(f"stale entry in {ALLOW.name}, it matches no unreached range: "
              f"{module} | {function} | {text}")
    if unlisted or stale:
        print(f"FAIL: {len(unlisted)} unlisted ranges, {len(stale)} stale entries")
        return 1
    print(f"all {len(found)} ranges are named in {ALLOW.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
