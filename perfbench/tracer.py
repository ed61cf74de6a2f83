"""Call tracing for strbc, installed from outside the package.

``Tracer.install()`` replaces selected public functions of the strbc modules
with wrappers; ``Tracer.uninstall()`` puts every original back.  A wrapper
replaces the name in the defining module (or class) and every other strbc
module that imported it, so ``stratum.build_Wz`` is traced as well as
``local_model.build_Wz``.

Two kinds of wrapper exist:

* a span records (name, start, end, parent) in flat in-memory arrays;
* a counter only increments a call count, for element-level operations
  where a span per call would swamp the trace.

Spans stay in memory and are written once, by ``dump``, when the traced
process ends.  ``summarize`` turns a dumped trace into per-module metrics.
"""

from __future__ import annotations

import array
import enum
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute path, span name)
SPAN_TARGETS = [
    ("cli", "main", "cli.main"),
    ("stratum", "bz_oracle", "stratum.bz_oracle"),
    ("stratum", "by_oracle", "stratum.by_oracle"),
    ("stratum", "solve_Y_from_X", "stratum.solve_Y_from_X"),
    ("stratum", "eval_simple_char", "stratum.eval_simple_char"),
    ("stratum", "epsilon_z", "stratum.epsilon_z"),
    ("local_model", "MatF.__matmul__", "local_model.matmul"),
    ("local_model", "TowerSpec.alpha", "local_model.alpha"),
    ("local_model", "TowerSpec.layer_coords", "local_model.layer_coords"),
    ("local_model", "TowerSpec.mat_from_layer", "local_model.mat_from_layer"),
    ("local_model", "inverse_unit", "local_model.inverse_unit"),
    ("local_model", "build_Wz", "local_model.build_Wz"),
    ("local_model", "build_tower", "local_model.build_tower"),
    ("local_model", "iwahori_indices", "local_model.iwahori_indices"),
    # Path B of bz_oracle and the degenerate branch of epsilon_z call the
    # histogram kernel directly, so this private function is wrapped too.
    ("gauss", "_phase_histogram", "gauss.histogram"),
    ("gauss", "gauss_sum_closed", "gauss.closed"),
    ("gauss", "gauss_sum_brute", "gauss.brute"),
    ("gauss", "normalized_sign", "gauss.normalized_sign"),
]

# (module, attribute path, counter name)
COUNT_TARGETS = [
    ("stratum", "det_unit", "stratum.det_unit"),
    ("local_model", "TowerSpec.cent_layer", "local_model.cent_layer"),
    ("finite_field", "FqElem.__mul__", "finite_field.mul"),
    ("finite_field", "pow_fq", "finite_field.pow"),
    ("finite_field", "FqElem.inverse", "finite_field.inverse"),
    ("finite_field", "FqField.element", "finite_field.element"),
    ("cyclotomic", "CycNum.__mul__", "cyclotomic.mul"),
    ("cyclotomic", "CycNum.__add__", "cyclotomic.add"),
    ("cyclotomic", "cyc_root", "cyclotomic.root"),
]

# Every public function and public method of this module gets a span.
WHOLE_MODULE_SPANS = "hecke_bc"


def _strbc_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "strbc" or name.startswith("strbc."))]


def _whole_module_targets(modname: str) -> list[tuple[str, str, str]]:
    mod = importlib.import_module(f"strbc.{modname}")
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((modname, name, f"{modname}.{name}"))
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn) and (attr == "__init__"
                                               or not attr.startswith("_")):
                    out.append((modname, f"{name}.{attr}",
                                f"{modname}.{name}.{attr}"))
    return out


class Tracer:
    """Installs span and counter wrappers and holds what they record."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def current_span_name(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.span_name[top]]

    def _span_wrapper(self, fn, name: str, after=None):
        nid = self._name_id(name)
        stack, now = self._stack, time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str, key=None):
        counts, calls = self.counts, f"{name}.calls"
        if key is None:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
        else:
            seen = self.keys.setdefault(name, set())

            def wrapper(*args, **kwargs):
                counts[calls] += 1
                seen.add(key(args))
                return fn(*args, **kwargs)
        return wrapper

    # -- hooks that derive counts from arguments and results -----------------

    def _histogram_points(self, args, result):
        gram, p = args[0], args[1]
        self.counts["gauss.histogram.points"] += p ** gram.shape[0]

    def _wz_built(self, args, result):
        tower, stratum = args[0], args[1]
        self.keys.setdefault("local_model.build_Wz", set()).add(
            (id(tower), id(stratum)))
        # The build_Wz call made directly by bz_oracle sizes its path-A
        # enumeration: one term per (unit y, X in W_z).
        if self.current_span_name() == "stratum.bz_oracle":
            self.counts["stratum.pathA_terms_total"] += (
                (tower.kE.q - 1) * tower.p ** result.dim_k)

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch(self, modname: str, path: str, make) -> None:
        try:
            mod = importlib.import_module(f"strbc.{modname}")
            owner = mod
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{modname}.{path}")
            return
        wrapper = make(original)
        # The name itself, its aliases in the same namespace (such as
        # __rmul__ = __mul__) and every module that imported it.
        owners = [owner] + [m for m in _strbc_modules() if m is not owner]
        for o in owners:
            for name, value in list(vars(o).items()):
                if value is original:
                    self._replace(o, name, wrapper)

    def install(self) -> None:
        importlib.import_module("strbc.cli")
        hooks = {
            "gauss.histogram": self._histogram_points,
            "local_model.build_Wz": self._wz_built,
        }
        spans = SPAN_TARGETS + _whole_module_targets(WHOLE_MODULE_SPANS)
        for modname, path, name in spans:
            self._patch(modname, path, lambda fn, name=name: self._span_wrapper(
                fn, name, hooks.get(name)))
        keys = {"local_model.cent_layer":
                lambda a: (id(a[0]), tuple(g.key() for g in a[1]), a[2])}
        for modname, path, name in COUNT_TARGETS:
            self._patch(modname, path, lambda fn, name=name: self._count_wrapper(
                fn, name, keys.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans and counts of this process to an .npz file."""
        meta = dict(meta, names=self.names, counts=dict(self.counts),
                    distinct={k: len(v) for k, v in self.keys.items()},
                    missing=self.missing)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                meta=np.array(json.dumps(meta)),
                name=np.frombuffer(self.span_name, dtype=np.int32),
                parent=np.frombuffer(self.span_parent, dtype=np.int32),
                start=np.frombuffer(self.span_start, dtype=np.float64),
                end=np.frombuffer(self.span_end, dtype=np.float64),
            )


# ---------------------------------------------------------------------------
# Reading a dumped trace.

SELF_MODULES = ["cli", "stratum", "local_model", "gauss", "hecke_bc"]


def load(path: str) -> dict:
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        return dict(meta=meta, name=z["name"], parent=z["parent"],
                    start=z["start"], end=z["end"])


def summarize(trace: dict) -> dict:
    """Raw per-module totals of one traced process (sums, not ratios)."""
    meta = trace["meta"]
    names = meta["names"]
    name, parent = trace["name"], trace["parent"]
    dur = trace["end"] - trace["start"]
    n = len(dur)
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                        minlength=n) if n else np.zeros(0)
    self_time = dur - child
    module_of = np.array([s.split(".")[0] for s in names] or [""])
    span_module = module_of[name] if n else np.array([], dtype=str)
    out = Counter()
    for i, s in enumerate(names):
        sel = name == i
        out[f"{s}.calls"] += int(sel.sum())
        out[f"{s}.s"] += float(dur[sel].sum())
    for mod in SELF_MODULES:
        out[f"{mod}.self_s"] += float(self_time[span_module == mod].sum())
    if n:
        # hecke_bc.s: time inside hecke_bc, counting nested calls once.
        top = span_module == "hecke_bc"
        par_mod = np.where(parent >= 0, span_module[np.maximum(parent, 0)], "")
        out["hecke_bc.s"] += float(dur[top & (par_mod != "hecke_bc")].sum())
        # Path-A terms actually evaluated: solve_Y_from_X under bz_oracle.
        if "stratum.solve_Y_from_X" in names and "stratum.bz_oracle" in names:
            solve = name == names.index("stratum.solve_Y_from_X")
            bz = names.index("stratum.bz_oracle")
            under = np.zeros(n, dtype=bool)
            under[parent >= 0] = name[parent[parent >= 0]] == bz
            out["stratum.pathA_terms"] += int((solve & under).sum())
    for k, v in meta["counts"].items():
        out[k] += v
    for k, v in meta["distinct"].items():
        out[f"{k}.distinct"] += v
    out["trace.spans"] += n
    out["cli.import_s"] += meta["import_s"]
    return dict(out)
