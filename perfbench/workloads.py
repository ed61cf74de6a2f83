"""The benchmark's workloads, the inputs drawn from the workload seed, and
the result gate that every CLI payload must pass.

Every operation is one ``strbc`` CLI call in a fresh process.  The workload
seed reaches the program only as ``--seed``: it picks the sampled e3f2 path-A
terms on ``oracle`` and the random forms on ``gauss_grid``, and the order of
the operations within a pass on every workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = "perfbench/configs"
GAUSS_CONFIG = f"{CONFIGS}/gauss_grid.json"
REFERENCE = HERE / "reference.json"

WHY = {
    "oracle": "exhaustive and sampled Hecke oracles: time goes to stratum "
              "path A and the local_model/finite_field arithmetic under it",
    "sign_suite": "sign and base change on seven towers, each in a cold process: "
                  "many small Gauss sums, closed forms and cold caches",
    "gauss_grid": "Gauss sums up to 3^13 points at 1 and 2 threads: the numpy "
                  "histogram kernel, with little stratum or local_model work",
}


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]      # one pass, in the order drawn from the seed
    probes: tuple[Op, ...]   # known failures: run once per run, untimed
    setup: tuple[str, ...]   # sources for ``child.py setup``
    cli_seed: int


def _case_ops(cmds, cases):
    return [Op(f"{c} {case}", (c, "--case", case)) for case in cases for c in cmds]


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    if name == "oracle":
        cli_seed = rng.randrange(1, 2**31)
        ops = _case_ops(["reducibility"], ["e1f2", "e5f1"]) + [
            Op("reducibility e3f2-sample40",
               ("reducibility", f"{CONFIGS}/e3f2_sample40.json")),
        ]
        probes = _case_ops(["reducibility"], ["d1-tower"])
        setup = ("e1f2", "e5f1", f"{CONFIGS}/e3f2_sample40.json")
    elif name == "sign_suite":
        cli_seed = rng.randrange(1, 2**31)
        cases = ["u1", "e3f1", "e1f2", "e5f1", "e3f2"]
        ops = _case_ops(["sign", "base-change"], cases) + [
            Op("sign q7-e1f2", ("sign", f"{CONFIGS}/q7_e1f2.json")),
            Op("sign q7-e3f2", ("sign", f"{CONFIGS}/q7_e3f2.json")),
        ]
        probes = _case_ops(["sign", "base-change"], ["d1-tower"])
        setup = tuple(cases) + (f"{CONFIGS}/q7_e1f2.json",
                                f"{CONFIGS}/q7_e3f2.json")
    elif name == "gauss_grid":
        cli_seed = _steady_gauss_seed(rng)
        ops = [Op(f"gauss grid t{t}", ("gauss", GAUSS_CONFIG, "--threads", str(t)))
               for t in (1, 2)]
        probes = []
        setup = (f"gauss:{GAUSS_CONFIG}:{cli_seed}",)
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
    ops = [Op(o.name, o.argv + ("--seed", str(cli_seed))) for o in ops]
    rng.shuffle(ops)
    return Workload(name, tuple(ops), tuple(probes), setup, cli_seed)


# ---------------------------------------------------------------------------
# The gauss grid, drawn exactly as ``strbc gauss`` draws it.


@lru_cache(maxsize=None)
def _grid(config: str) -> tuple[tuple[int, ...], int, int]:
    with open(HERE.parent / config) as fh:
        run = json.load(fh)["run"]
    return tuple(run["grid_q"]), run["grid_n"], run["grid_count"]


def gauss_forms(config: str, seed: int):
    """(q, n, symmetric Gram rows) in the order ``strbc gauss`` draws them."""
    grid_q, grid_n, count = _grid(config)
    rng = random.Random(seed)
    for q in grid_q:
        for n in range(1, grid_n + 1):
            for _ in range(count):
                gram = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                yield q, n, [[(gram[i][j] + gram[j][i]) % q for j in range(n)]
                             for i in range(n)]


def _rank_mod(rows: list[list[int]], p: int) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % p:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def gauss_rows(config: str, seed: int) -> list[dict]:
    """The rows a correct ``strbc gauss`` run prints for this grid and seed."""
    rows = []
    last_q = None
    for q, n, gram in gauss_forms(config, seed):
        if q != last_q:
            rows.append({"q": q, "n": 0, "status": "sum=1 sign=+1"})
            last_q = q
        full = _rank_mod(gram, q) == n
        rows.append({"q": q, "n": n, "status": "match" if full else "degenerate"})
    return rows


def _steady_gauss_seed(rng: random.Random) -> int:
    """A CLI seed whose forms of the four largest sizes are all nondegenerate.

    Only nondegenerate forms are enumerated, so this fixes the number of
    points a pass enumerates to within the smaller forms' share (about 1%),
    whatever the workload seed.
    """
    _, grid_n, _ = _grid(GAUSS_CONFIG)
    while True:
        cand = rng.randrange(1, 2**31)
        rows = gauss_rows(GAUSS_CONFIG, cand)
        if all(r["status"] == "match" for r in rows if r["n"] > grid_n - 4):
            return cand


# ---------------------------------------------------------------------------
# Result gate.


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def expected_fields(op: Op, reference: dict, cli_seed: int) -> dict:
    if op.argv[0] == "gauss":
        return {"ok": True, "seed": cli_seed,
                "rows": gauss_rows(op.argv[1], cli_seed)}
    return reference[op.name]


def gate(payload: dict, expected: dict) -> str | None:
    """None when every expected field matches, else the first mismatch."""
    for key, want in expected.items():
        got = payload.get(key)
        if got != want:
            return f"{key}: got {json.dumps(got)[:80]}, want {json.dumps(want)[:80]}"
    return None
