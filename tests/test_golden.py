"""Golden CLI runs: stdout, stderr, exit code and ``--json`` bytes of a fixed
set of commands, replayed in-process through ``cli.main`` and compared byte
for byte with the files under tests/golden/.

The commands cover ``sign`` and ``base-change`` on the five d = 0 cases,
``sign`` on the two q7 configs, ``reducibility`` on u1, e3f1, e1f2, e5f1 and
the sampled e3f2 config, ``gauss`` at its default and at a seed with three
threads, the gauss grid config at one and two threads, the three
out-of-scope d1-tower runs, eight configs off the built-in cases (W_z
blocks past grade 0 (r_0 = 3 or 5, wild and tame), f = 3, q = 5, the least
allowed precision N = 3 and a non-minimal c_0 that exits 2), and ``sign`` and
``base-change`` at depth 1 on q3_e3f2_d1, whose W_z has two blocks and
whose per-block D-forms are checked.  A change that is meant to alter an output
regenerates the files with ``PYTHONPATH=src python tests/test_golden.py``
and says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from strbc import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = GOLDEN / "runs.json"

CASES = ("u1", "e3f1", "e1f2", "e5f1", "e3f2")
GRID_SEED = "244470886"
COMMANDS = (
    [(f"{cmd}-{case}", [cmd, "--case", case])
     for case in CASES for cmd in ("sign", "base-change")]
    + [(f"sign-{name}", ["sign", f"configs/{name}.json"])
       for name in ("q7_e1f2", "q7_e3f2")]
    + [(f"reducibility-{case}", ["reducibility", "--case", case])
       for case in ("u1", "e3f1", "e1f2", "e5f1")]
    + [("reducibility-e3f2_sample40-seed1",
        ["reducibility", "configs/e3f2_sample40.json", "--seed", "1"]),
       ("gauss-default", ["gauss"]),
       ("gauss-seed7-threads3", ["gauss", "--seed", "7", "--threads", "3"])]
    + [(f"gauss-grid-threads{t}", ["gauss", "configs/gauss_grid.json",
                                   "--seed", GRID_SEED, "--threads", str(t)])
       for t in (1, 2)]
    + [(f"{cmd}-d1-tower", [cmd, "--case", "d1-tower"])
       for cmd in ("sign", "reducibility", "base-change")]
    + [(f"{cmd}-{name}", [cmd, f"configs/{name}.json"]) for cmd, name in (
        ("sign", "q3_e3f1_r5"), ("sign", "q3_e3f2_r5"),
        ("base-change", "q3_e5f1_r3"), ("sign", "q5_e1f2_r3"),
        ("sign", "q3_e1f3"), ("reducibility", "q3_e3f1_N3"),
        ("reducibility", "q5_e3f1"), ("sign", "q3_e3f2_nonminimal"),
        ("sign", "q3_e3f2_d1"), ("base-change", "q3_e3f2_d1"))]
)


def run_in_process(argv: list[str], json_path: Path) -> dict:
    """One ``strbc`` run through ``cli.main``: its exit code, stdout, stderr
    and the bytes it wrote to ``--json`` (None when it wrote none)."""
    argv = [str(GOLDEN / a) if a.startswith("configs/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json", str(json_path)])
    payload = json_path.read_bytes() if json_path.exists() else None
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "payload": payload}


def test_golden_table_lists_every_command():
    runs = json.loads(RUNS.read_text())
    assert list(runs) == [name for name, _ in COMMANDS]
    for name, argv in COMMANDS:
        assert runs[name]["argv"] == argv


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[n for n, _ in COMMANDS])
def test_golden_run_is_byte_identical(name, argv, tmp_path):
    want = json.loads(RUNS.read_text())[name]
    got = run_in_process(argv, tmp_path / "out.json")
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]
    assert got["stderr"] == want["stderr"]
    payload = GOLDEN / "payloads" / f"{name}.json"
    if got["payload"] is None:
        assert not payload.exists()
    else:
        assert got["payload"] == payload.read_bytes()


def write_goldens() -> None:
    """Regenerate runs.json and the payload files from the current code."""
    payloads = GOLDEN / "payloads"
    payloads.mkdir(exist_ok=True)
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            path = Path(tmp) / f"{name}.json"
            got = run_in_process(argv, path)
            runs[name] = {"argv": argv, "exit": got["exit"],
                          "stdout": got["stdout"], "stderr": got["stderr"]}
            if got["payload"] is not None:
                (payloads / f"{name}.json").write_bytes(got["payload"])
            print(f"{name}: exit {got['exit']}", file=sys.stderr)
    RUNS.write_text(json.dumps(runs, indent=2) + "\n")


if __name__ == "__main__":
    write_goldens()
