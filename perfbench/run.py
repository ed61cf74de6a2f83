#!/usr/bin/env python3
"""Benchmark for the strbc CLI.

Run from the root of a checkout (the strbc package under test is src/strbc):

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1 --out perfbench/results/a.jsonl
    python3 perfbench/run.py --compare A.jsonl B.jsonl
    python3 perfbench/run.py --self-test

A run draws its operations from the workload and seed (see workloads.py),
times the set-up in fresh processes, then runs the operations in pass order
until ``--seconds`` have elapsed, and at least one full pass.  Each
operation is one ``strbc`` CLI call in a fresh process, started after the
previous one exited (one client, closed loop).  Every payload goes through
the result gate.  Known failures run once per run, untimed, and are
reported in ``failed_ratio``.

With ``--trace 1`` every pass is run twice, untraced and then traced
(wrappers from tracer.py).  Both modes print the end-to-end metrics; the
traced mode adds the per-module metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-module ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

SETUP_REPS = 7        # fresh set-up processes per run; setup_s is their median
OP_CAP_S = 120.0      # one operation past this is killed and counted as timeout
PROBE_CAP_S = 30.0
RUN_CAP_S = 165.0     # no operation starts or runs past this point of a run

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

# The spans and counters whose call count and time (.calls, .s) are reported.
_TIMED_CALLS = ["stratum.solve_Y_from_X", "stratum.eval_simple_char",
                "stratum.epsilon_z", "local_model.matmul", "local_model.alpha",
                "local_model.layer_coords", "local_model.mat_from_layer",
                "local_model.inverse_unit", "local_model.build_Wz",
                "gauss.histogram", "gauss.closed"]
PER_LAYER = (
    [("stratum.bz_oracle.s", "s", "lower"), ("stratum.by_oracle.s", "s", "lower")]
    + [(f"{n}.{k}", u, "lower") for n in _TIMED_CALLS
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("stratum.det_unit.calls", "count", "lower"),
       ("stratum.pathA_verified_ratio", "ratio", "higher"),
       ("local_model.build_Wz.distinct_ratio", "ratio", "higher"),
       ("local_model.cent_layer.calls", "count", "lower"),
       ("local_model.cent_layer.distinct_ratio", "ratio", "higher"),
       ("local_model.build_tower.s", "s", "lower"),
       ("local_model.iwahori_indices.s", "s", "lower")]
    + [(f"finite_field.{n}.calls", "count", "lower")
       for n in ("mul", "pow", "inverse", "element")]
    + [(f"cyclotomic.{n}.calls", "count", "lower") for n in ("mul", "add", "root")]
    + [("gauss.histogram.points", "count", "lower"),
       ("gauss.histogram.points_per_s", "points/s", "higher"),
       ("gauss.brute_verified_ratio", "ratio", "higher"),
       ("hecke_bc.s", "s", "lower"),
       ("cli.import_s", "s", "lower")]
    + [(f"{m}.self_s", "s", "lower") for m in tracer.SELF_MODULES]
    + [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
)

# Mean time per call at the seed commit on the e3f2 tower (ROADMAP table),
# printed next to the traced means.
ROADMAP_PER_CALL_US = {"local_model.matmul": 354, "local_model.alpha": 310,
                       "local_model.layer_coords": 309,
                       "local_model.mat_from_layer": 268,
                       "local_model.build_Wz": 17000}


# ---------------------------------------------------------------------------
# Processes


class Runner:
    """Starts strbc processes from one checkout and measures each one."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else f"{src}{os.pathsep}{old}"
        self.work = WORK / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        # Children use a bytecode cache, as an installed package would, so
        # no call pays for compiling strbc whatever the caller's settings.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(self.work / "pycache")
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.work)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    def path(self, suffix: str) -> Path:
        self._n += 1
        return self.work / f"{self._n}{suffix}"

    def spawn(self, argv: list[str], cap: float) -> dict:
        """Run argv to completion; wall, CPU and peak RSS come from wait4."""
        cap = min(cap, self.deadline - time.monotonic())
        out, err = self.path(".out"), self.path(".err")
        if cap <= 0:
            return {"rc": None, "timeout": True, "wall_s": 0.0, "cpu_s": 0.0,
                    "rss_mb": 0.0, "stdout": "", "stderr": "not started: run cap"}
        killed = threading.Event()
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(cap, kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"rc": proc.returncode, "timeout": killed.is_set(), "wall_s": wall,
               "cpu_s": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024,
               "stdout": out.read_text(errors="replace"),
               "stderr": err.read_text(errors="replace")}
        out.unlink()
        err.unlink()
        return rec

    def op(self, op: workloads.Op, expected: dict | None, traced: bool,
           cap: float = OP_CAP_S) -> dict:
        payload = self.path(".json")
        args = list(op.argv) + ["--json", str(payload)]
        if traced:
            spans = self.path(".npz")
            argv = [sys.executable, str(HERE / "child.py"), "traced", str(ROOT),
                    str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "strbc.cli", *args]
        rec = self.spawn(argv, cap)
        rec.update(op=op.name, traced=traced, hash=None, detail="")
        if rec["timeout"]:
            rec["status"] = "timeout"
            rec["detail"] = rec["stderr"] if rec["rc"] is None else "killed at the time cap"
        elif rec["rc"] != 0:
            lines = rec["stderr"].strip().splitlines()
            rec["status"] = "error"
            rec["detail"] = f"exit {rec['rc']}: {lines[-1] if lines else ''}"
        elif not payload.exists():
            rec["status"], rec["detail"] = "wrong", "exit 0 without a payload"
        else:
            data = payload.read_bytes()
            rec["hash"] = hashlib.sha256(data).hexdigest()
            try:
                miss = expected and workloads.gate(json.loads(data), expected)
            except json.JSONDecodeError as exc:
                miss = f"payload is not JSON: {exc}"
            rec["status"], rec["detail"] = ("wrong", miss) if miss else ("ok", "")
        if payload.exists():
            payload.unlink()
        if traced:
            if spans.exists():
                trace = tracer.load(str(spans))
                rec["layers"] = tracer.summarize(trace)
                rec["missing"] = trace["meta"]["missing"]
                spans.unlink()
            else:
                rec["layers"] = {}
        del rec["stdout"], rec["stderr"]
        return rec

    def setup(self, sources) -> float:
        argv = [sys.executable, str(HERE / "child.py"), "setup", str(ROOT), *sources]
        rec = self.spawn(argv, PROBE_CAP_S)
        if rec["rc"] != 0:
            raise RuntimeError(f"set-up failed: {rec['stderr'].strip()[-300:]}")
        return float(rec["stdout"].split()[-1])


# ---------------------------------------------------------------------------
# Metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: Counter) -> dict:
    """Per-module metrics of one traced pass from the summed trace totals."""
    g = layers.get
    out = {name: g(name, 0) for name, _, _ in PER_LAYER}
    out["stratum.pathA_verified_ratio"] = _ratio(
        g("stratum.pathA_terms", 0), g("stratum.pathA_terms_total", 0))
    for n in ("build_Wz", "cent_layer"):
        out[f"local_model.{n}.distinct_ratio"] = _ratio(
            g(f"local_model.{n}.distinct", 0), g(f"local_model.{n}.calls", 0))
    out["gauss.histogram.points_per_s"] = _ratio(
        g("gauss.histogram.points", 0), g("gauss.histogram.s", 0))
    out["gauss.brute_verified_ratio"] = _ratio(
        g("gauss.brute.calls", 0), g("gauss.closed.calls", 0))
    return out


def op_medians(recs: list[dict], key: str) -> dict[str, float]:
    by_op: dict[str, list] = {}
    for r in recs:
        by_op.setdefault(r["op"], []).append(r[key])
    return {op: statistics.median(v) for op, v in by_op.items()}


def pass_time(recs: list[dict]) -> float:
    """Time of one pass: the sum over operations of each one's median."""
    return sum(op_medians(recs, "wall_s").values())


def traced_pass_metrics(recs: list[dict]) -> list[dict]:
    """Per-module metrics of each traced pass."""
    totals: dict[int, Counter] = {}
    for r in recs:
        totals.setdefault(r["pass"], Counter()).update(r.get("layers", {}))
    return [layer_metrics(t) for t in totals.values()]


# ---------------------------------------------------------------------------
# Machine block


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_rev": _git_rev()}


# ---------------------------------------------------------------------------
# One benchmark run


def measure(runner: Runner, wl: workloads.Workload, expected: dict,
            seconds: int, trace: bool) -> list[dict]:
    """Operation records, in the order run.

    Untraced, operations run in pass order until ``seconds`` have elapsed,
    and at least one full pass.  Traced, every pass is run untraced and then
    traced, as a pair, until ``seconds`` have elapsed (at least one pair).
    """
    t0 = time.monotonic()

    def time_left() -> bool:
        now = time.monotonic()
        return now - t0 < seconds and now < runner.deadline

    recs = []
    n = len(wl.ops)
    if trace:
        npass = 0
        while npass == 0 or time_left():
            for traced in (False, True):
                for op in wl.ops:
                    rec = runner.op(op, expected[op.name], traced)
                    recs.append(dict(rec, **{"pass": npass}))
            npass += 1
    else:
        i = 0
        while i < n or time_left():
            rec = runner.op(wl.ops[i % n], expected[wl.ops[i % n].name], False)
            recs.append(dict(rec, **{"pass": i // n}))
            i += 1
    return recs


def flag_nondeterminism(recs: list[dict]) -> None:
    """Payloads of one operation must be byte-identical across calls, traced
    or not; a differing payload fails every call of that operation."""
    hashes: dict[str, set] = {}
    for r in recs:
        if r["hash"]:
            hashes.setdefault(r["op"], set()).add(r["hash"])
    for r in recs:
        if r["status"] == "ok" and len(hashes[r["op"]]) > 1:
            r["status"], r["detail"] = "wrong", "payload differs between calls"


def run(workload: str, seed: int, seconds: int, trace: bool,
        out_path: str | None) -> int:
    if not (ROOT / "src" / "strbc" / "cli.py").is_file():
        print(f"error: no strbc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + RUN_CAP_S)
    wl = workloads.build(workload, seed)
    reference = workloads.load_reference()
    expected = {op.name: workloads.expected_fields(op, reference, wl.cli_seed)
                for op in wl.ops}
    try:
        setup = [runner.setup(wl.setup) for _ in range(SETUP_REPS)]
        recs = measure(runner, wl, expected, seconds, trace)
        probes = [runner.op(op, None, False, PROBE_CAP_S) for op in wl.probes]
    finally:
        runner.close()
    flag_nondeterminism(recs)

    failed = [r for r in recs if r["status"] != "ok"]
    probe_failed = [r for r in probes if r["status"] != "ok"]
    # A known failure may start to pass, but never with a wrong payload.
    correct = not failed and all(r["status"] != "wrong" for r in probes)
    plain = [r for r in recs if not r["traced"]]
    metrics = {"wall_s": pass_time(plain),
               "cpu_s": sum(op_medians(plain, "cpu_s").values()),
               "peak_rss_mb": max(op_medians(plain, "rss_mb").values()),
               "setup_s": statistics.median(setup)}
    units = {n: u for n, u, _ in END_TO_END}
    if trace:
        per_pass = traced_pass_metrics([r for r in recs if r["traced"]])
        metrics.update({name: statistics.median(p[name] for p in per_pass)
                        for name, _, _ in PER_LAYER})
        metrics["trace.overhead_s"] = (pass_time([r for r in recs if r["traced"]])
                                       - metrics["wall_s"])
        units.update({n: u for n, u, _ in PER_LAYER})
    reported = PER_LAYER if trace else END_TO_END

    attempted_all = len(recs) + len(probes)
    failed_ratio = _ratio(len(failed) + len(probe_failed), attempted_all)
    report(wl, seed, seconds, trace, recs, probes, setup, metrics, units)
    print(f"failed_ratio {failed_ratio} ratio ({len(failed) + len(probe_failed)} of "
          f"{attempted_all} operations, known-failure probes included)")
    result = {"correct": correct, "attempted": len(recs), "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u, _ in reported}}
    if out_path:
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "machine": machine(), "result": result,
                  "failed_ratio": failed_ratio, "setup_samples": setup,
                  "calls": recs, "probes": probes}
        with open(out_path, "a") as fh:
            fh.write(json.dumps(record, default=float) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def report(wl, seed, seconds, trace, recs, probes, setup, metrics, units) -> None:
    print(f"strbc benchmark: workload={wl.name} seed={seed} cli_seed={wl.cli_seed} "
          f"seconds={seconds} trace={int(trace)}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine().items()))
    npass = 1 + max(r["pass"] for r in recs)
    print(f"loop: closed, 1 client; {len(recs)} calls of {len(wl.ops)} operations "
          f"in {npass} passes{' (each run untraced, then traced)' if trace else ''}")
    print(f"  {'operation':<30} {'mode':<6} {'calls':>5} {'median wall':>12} "
          f"{'median cpu':>11} {'median rss':>11}")
    for traced in (False, True) if trace else (False,):
        sel = [r for r in recs if r["traced"] == traced]
        walls, cpus = op_medians(sel, "wall_s"), op_medians(sel, "cpu_s")
        rss = op_medians(sel, "rss_mb")
        for op in wl.ops:
            n = sum(1 for r in sel if r["op"] == op.name)
            print(f"  {op.name:<30} {'traced' if traced else 'plain':<6} {n:>5} "
                  f"{walls[op.name]:>10.3f} s {cpus[op.name]:>9.3f} s "
                  f"{rss[op.name]:>8.1f} MB")
    for r in recs:
        if r["status"] != "ok":
            print(f"  FAILED {r['op']} (pass {r['pass']}): {r['status']} {r['detail']}")
    for r in probes:
        print(f"known-failure probe {r['op']}: {r['status']} {r['detail']}")
    if trace:
        print_per_call(recs)
    else:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    how = {"wall_s": "untraced, sum over operations of per-operation medians",
           "cpu_s": "untraced, sum over operations of per-operation medians",
           "peak_rss_mb": "untraced, largest per-operation median",
           "setup_s": f"median of {len(setup)} fresh set-ups",
           "trace.overhead_s": "traced minus untraced wall_s"}
    for k, v in metrics.items():
        print(f"{k} {v} {units[k]} ({how.get(k, 'median over traced passes')})")


def print_per_call(recs) -> None:
    """Mean time per call of each traced operation, from its first traced call."""
    names = list(ROADMAP_PER_CALL_US) + ["stratum.solve_Y_from_X"]
    print("mean time per call, us (ROADMAP e3f2 reference in brackets):")
    print("  " + " ".join(f"{n.split('.')[1]:>16}" for n in names))
    seen = set()
    for r in recs:
        if not r["traced"] or r["op"] in seen:
            continue
        seen.add(r["op"])
        lay = r.get("layers", {})
        cells = []
        for n in names:
            calls = lay.get(f"{n}.calls", 0)
            cell = f"{1e6 * lay[f'{n}.s'] / calls:.0f}" if calls else "-"
            if n in ROADMAP_PER_CALL_US:
                cell += f" [{ROADMAP_PER_CALL_US[n]}]"
            cells.append(f"{cell:>16}")
        print(f"  {' '.join(cells)}  {r['op']}")
        if r.get("missing"):
            print(f"  untraced (not found): {', '.join(r['missing'])}")


# ---------------------------------------------------------------------------
# Comparing two result files


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]
              if m["better"] == "higher"}

    def load(path):
        groups: dict[tuple, dict[str, list]] = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            g = groups.setdefault((rec["workload"], rec["trace"]), {})
            for k, v in rec["result"]["metrics"].items():
                g.setdefault(k, []).append(v["value"])
            g.setdefault("failed_ratio", []).append(rec["failed_ratio"])
        return groups

    a, b = load(path_a), load(path_b)
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    for key in sorted(set(a) & set(b)):
        print(f"\nworkload {key[0]}, trace {key[1]}")
        print(f"  {'metric':<40} {'A q1/median/q3':>30} {'B q1/median/q3':>30}  verdict")
        for name in sorted(set(a[key]) & set(b[key])):
            qa, qb = _quartiles(a[key][name]), _quartiles(b[key][name])
            sign = -1 if name in higher else 1
            verdict = ""
            if name in bounds and qa[1]:
                change = sign * (qb[1] - qa[1]) / qa[1]
                spread = (qa[2] - qa[0]) / qa[1]
                bound = bounds[name]
                if change > bound:
                    verdict, worse = f"WORSE by {change:.1%} (bound {bound:.0%})", worse + 1
                elif spread > bound:
                    verdict = f"unresolved: A spread {spread:.1%} > bound"
                elif change > 0:
                    verdict = f"ok ({change:.1%} worse, within bound)"
                else:
                    verdict = f"ok ({abs(change):.1%} better)"
            elif qa[1]:
                verdict = f"{(qb[1] - qa[1]) / qa[1]:+.1%}"
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"  {name:<40} {fa:>30} {fb:>30}  {verdict}  (n={len(a[key][name])}"
                  f"/{len(b[key][name])})")
    return 1 if worse else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WHY) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full run record to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two --out files against the benchmark's bounds")
    ap.add_argument("--self-test", action="store_true",
                    help="check that tracing leaves strbc and its payloads unchanged")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        import selftest

        return selftest.main(ROOT)
    if not args.workload:
        ap.error("--workload is required")
    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    rcs = [run(w, args.seed, args.seconds, bool(args.trace), args.out) for w in names]
    return max(rcs)


if __name__ == "__main__":
    sys.exit(main())
