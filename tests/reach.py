"""Statements of src/strbc that no golden run reaches.

Replays every run of tests/golden/runs.json in-process through ``cli.main``
under ``sys.settrace`` and prints each statement of the package that none of
them executed, as ``module.py:first-last`` ranges of neighbouring unreached
statements, each with the source of its first line.  ``raise`` statements
are left out: a refusal that no golden run provokes is expected.  So are
docstrings, which execute nothing.  A compound statement counts as reached
when its header line or anything in its body runs.

It only reports and always exits 0:

    PYTHONPATH=src python tests/reach.py
"""

from __future__ import annotations

import ast
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "strbc"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _spans(tree: ast.AST) -> list[tuple[int, int]]:
    """(first line, last line) of every statement but raise statements and
    docstrings, in source order, an enclosing statement before its body."""
    return sorted(((min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])]),
                    node.end_lineno)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.stmt)
                   and not isinstance(node, ast.Raise)
                   and not _is_docstring(node)),
                  key=lambda span: (span[0], -span[1]))


def unreached(executed: dict[str, set[int]]) -> list[str]:
    """One line per run of neighbouring statements that did not execute.

    A statement executed when any line of it did: a line in the body of a
    compound statement runs only after its header."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        hit = executed.get(str(path), set())
        runs, cur = [], None
        for first, last in _spans(ast.parse(text, str(path))):
            if cur and first <= cur[1]:
                continue  # inside an unreached statement already counted
            if hit.intersection(range(first, last + 1)):
                cur = None
            elif cur:
                cur[1] = last
            else:
                cur = [first, last]
                runs.append(cur)
        out += [f"{path.name}:{a}" + (f"-{b}" if b != a else "")
                + f"  {lines[a - 1].strip()}" for a, b in runs]
    return out


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
    print("\n".join(found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
