"""Self-test of the benchmark's tracing (``run.py --self-test``).

0. BENCHMARK.json lists the workloads and metrics that run.py reports.
1. Installing and removing the wrappers leaves every attribute of every
   strbc module and class exactly as it was.
2. A traced run of a few quick operations writes the same payload bytes as
   an untraced run, and its trace holds the spans it should.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import tracer
import workloads

QUICK_OPS = [
    workloads.Op("sign u1", ("sign", "--case", "u1")),
    workloads.Op("base-change e1f2", ("base-change", "--case", "e1f2")),
    workloads.Op("reducibility e3f1", ("reducibility", "--case", "e3f1")),
    workloads.Op("gauss default", ("gauss", "--seed", "3", "--threads", "2")),
]
EXPECTED_SPANS = {
    "sign u1": ["cli.main.calls", "stratum.epsilon_z.calls", "gauss.closed.calls"],
    "base-change e1f2": ["hecke_bc.s", "local_model.build_Wz.calls"],
    "reducibility e3f1": ["stratum.bz_oracle.calls", "stratum.solve_Y_from_X.calls",
                          "local_model.matmul.calls", "finite_field.mul.calls"],
    "gauss default": ["gauss.histogram.calls", "gauss.histogram.points"],
}


def _snapshot() -> dict:
    snap = {}
    for mod in tracer._strbc_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, v in vars(value).items():
                    snap[(mod.__name__, f"{name}.{attr}")] = v
    return snap


def check_install_roundtrip(root) -> list[str]:
    sys.path.insert(0, str(root / "src"))
    import strbc.cli  # noqa: F401

    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    changed = sum(1 for k, v in _snapshot().items() if before.get(k) is not v)
    t.uninstall()
    after = _snapshot()
    errors = []
    if t.missing:
        errors.append(f"targets not found: {t.missing}")
    if changed < len(tracer.SPAN_TARGETS) + len(tracer.COUNT_TARGETS):
        errors.append(f"install replaced only {changed} attributes")
    diff = sorted(str(k) for k in set(before) | set(after)
                  if before.get(k) is not after.get(k))
    if diff:
        errors.append(f"uninstall left changes: {diff[:5]}")
    return errors


def check_payloads(runner) -> list[str]:
    errors = []
    for op in QUICK_OPS:
        plain = runner.op(op, None, traced=False)
        traced = runner.op(op, None, traced=True)
        for r in (plain, traced):
            if r["status"] != "ok":
                errors.append(f"{op.name} ({'traced' if r['traced'] else 'plain'}): "
                              f"{r['status']} {r['detail']}")
        if plain["hash"] != traced["hash"]:
            errors.append(f"{op.name}: traced payload differs from untraced")
        for key in EXPECTED_SPANS[op.name]:
            if not traced.get("layers", {}).get(key):
                errors.append(f"{op.name}: trace has no {key}")
        print(f"{op.name}: plain {plain['wall_s']:.2f} s, traced "
              f"{traced['wall_s']:.2f} s, {traced['layers'].get('trace.spans', 0)} spans")
    return errors


def check_spec(root) -> list[str]:
    """BENCHMARK.json names the workloads and metrics this benchmark reports."""
    from run import END_TO_END, PER_LAYER

    spec = json.loads((root / "BENCHMARK.json").read_text())
    errors = []
    if {w["name"]: w["why"] for w in spec["workloads"]} != workloads.WHY:
        errors.append("BENCHMARK.json workloads differ from workloads.WHY")
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if theirs != list(ours):
            errors.append(f"BENCHMARK.json {key} differs from run.py")
    return errors


def main(root) -> int:
    from run import RUN_CAP_S, Runner

    errors = check_spec(root) + check_install_roundtrip(root)
    runner = Runner(time.monotonic() + RUN_CAP_S)
    try:
        errors += check_payloads(runner)
    finally:
        runner.close()
    for e in errors:
        print(f"FAIL {e}")
    print("self-test: " + ("FAIL" if errors else "pass"))
    return 1 if errors else 0
