"""Fresh-process entry points of the benchmark.

    python3 perfbench/child.py setup ROOT SOURCE...
        Import strbc.cli and build every tower and stratum named by the
        sources (a built-in case name or a config path), or, for a source
        "gauss:CONFIG:SEED", the field and every form of that gauss grid.
        No enumeration runs.  Prints the elapsed seconds.

    python3 perfbench/child.py traced ROOT SPANS -- STRBC_ARGS...
        Install the tracing wrappers, call strbc.cli.main(STRBC_ARGS), write
        the spans to SPANS and exit with main's return code.

ROOT is the checkout whose src/ holds the strbc package under test.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def _use_checkout(root: str) -> None:
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import strbc

    if not os.path.abspath(strbc.__file__).startswith(src + os.sep):
        raise SystemExit(f"strbc imported from {strbc.__file__}, not {src}")


def setup(root: str, sources: list[str]) -> int:
    _use_checkout(root)
    from strbc.cli import ExperimentConfig
    from strbc.finite_field import AddChar, get_field
    from strbc.gauss import QuadSpace

    import workloads

    for src in sources:
        if src.startswith("gauss:"):
            _, config, seed = src.split(":")
            for q, _n, gram in workloads.gauss_forms(config, int(seed)):
                k = get_field(q, 1)
                AddChar(k, 1)
                QuadSpace.from_ints(k, gram)
        elif src.endswith(".json"):
            ExperimentConfig.load(src).build_stratum()
        else:
            ExperimentConfig.from_dict(
                {"schema_version": 1, "case": src}).build_stratum()
    print(f"{time.perf_counter() - T0:.6f}")
    return 0


def traced(root: str, spans_path: str, argv: list[str]) -> int:
    t = time.perf_counter()
    _use_checkout(root)
    import strbc.cli

    import_s = time.perf_counter() - t
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = strbc.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, {"import_s": import_s})
    return rc


def main(argv: list[str]) -> int:
    mode, root, *rest = argv
    if mode == "setup":
        return setup(root, rest)
    if mode == "traced":
        spans_path, sep, *cli_args = rest
        if sep != "--":
            raise SystemExit("usage: child.py traced ROOT SPANS -- ARGS...")
        return traced(root, spans_path, cli_args)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
