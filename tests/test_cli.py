import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strbc import cli, gauss, stratum
from strbc.cli import ConfigError, ExperimentConfig, main
from strbc.cyclotomic import cyc_root
from strbc.finite_field import FqField
from strbc.hecke_bc import LevelZeroChar
from strbc.local_model import TowerSpec
from strbc.stratum import StratumSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Config validation.


def test_config_requires_schema_version():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"case": "u1"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"schema_version": 2, "case": "u1"})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"schema_version": 1, "case": "u1", "towr": {}}
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"schema_version": 1, "tower": {"q": 3, "e": 1, "f": 1,
                                            "ramification": 3}}
        )
    # Keys that nothing reads are rejected rather than silently ignored.
    for block, key in [("run", "bound"), ("run", "threads"),
                       ("character", "rho_sign"), ("character", "rho_signs"),
                       ("character", "mu_power"), ("character", "bhat")]:
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"schema_version": 1, "case": "u1", block: {key: 1}}
            )


def test_config_rejects_unknown_case():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"schema_version": 1, "case": "e7f3"})


@pytest.mark.parametrize("sample", [0, -3, True, 2.5, "40"])
def test_config_rejects_bad_sample(sample, capsys, tmp_path):
    data = {"schema_version": 1, "case": "u1", "run": {"sample": sample}}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    code, _, err = run(["reducibility", str(cfgp)], capsys)
    assert code == 2
    assert "run.sample" in err


def test_config_needs_case_or_tower():
    # The check sits with its only reader, since gauss reads no stratum.
    cfg = ExperimentConfig.from_dict({"schema_version": 1})
    with pytest.raises(ConfigError, match="either a case or a tower block"):
        cfg.build_stratum()


def test_config_builds_stratum_from_tower_block():
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1,
        "tower": {"q": 3, "e": 3, "f": 1, "N": 8},
        "stratum": {"c": [[0, -1]]},
    })
    s = cfg.build_stratum()
    assert s.tower.e == 3
    assert tuple(s.r_list) == (1,)


def test_config_recheck_catches_bad_stratum():
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1,
        "tower": {"q": 3, "e": 3, "f": 1, "N": 8},
        "stratum": {"c": [[0, 1]]},  # non-negative valuation
    })
    with pytest.raises(ValueError):
        cfg.build_stratum()


def test_config_load_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    for raw in (b"{nope", b"\x80\x81"):
        p.write_bytes(raw)
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.load(str(p))


# ---------------------------------------------------------------------------
# Commands.


def test_cli_sign_u1(capsys):
    code, out, _ = run(["sign", "--case", "u1"], capsys)
    assert code == 0
    assert "epsilon = 1" in out
    assert "pass" in out


def test_cli_gauss_default_grid(capsys, tmp_path):
    path = tmp_path / "g.json"
    code, out, _ = run(["gauss", "--seed", "7", "--json", str(path)], capsys)
    assert code == 0
    assert "all-match" in out
    payload = json.loads(path.read_text())
    assert payload["ok"] is True
    assert any(r["n"] == 0 for r in payload["rows"])


def test_cli_reducibility_e3f1(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, out, _ = run(
        ["reducibility", "--case", "e3f1", "--json", str(path)], capsys)
    assert code == 0
    assert "b_y = 6" in out
    assert "pi*i/log qE" in out
    payload = json.loads(path.read_text())
    assert payload["b_z_high"] == 0
    assert payload["b_z_low"] == 6
    assert payload["spectra"] == {"y": [-1, 3], "z": [-1, 3]}
    assert payload["provenance"]["c"] == [{"exponent": -1, "coeff": [1]}]


def test_cli_base_change_u1(capsys, tmp_path):
    path = tmp_path / "b.json"
    code, out, _ = run(
        ["base-change", "--case", "u1", "--json", str(path)], capsys)
    assert code == 0
    payload = json.loads(path.read_text())
    values = {(r["rho(-1)"], r["varpi_F"]) for r in payload["rows"]}
    assert values == {(1, 1), (-1, -1)}


def test_cli_json_roundtrip_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["sign", "--case", "e3f1", "--json", str(a)], capsys)[0] == 0
    assert run(["sign", "--case", "e3f1", "--json", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_config_file_drives_sign(capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "schema_version": 1,
        "tower": {"q": 3, "e": 1, "f": 1},
        "stratum": {"c": [[0, -1]]},
    }))
    code, out, _ = run(["sign", str(cfgp)], capsys)
    assert code == 0
    assert "epsilon = 1" in out


def test_cli_missing_config_errors(capsys):
    code, _, err = run(["sign"], capsys)
    assert code == 2
    assert "config" in err


def test_cli_rejects_zero_threads(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gauss", "--threads", "0"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sign", "reducibility", "base-change"])
def test_cli_threads_belongs_to_gauss_only(command, capsys):
    # Only gauss runs a threaded kernel; elsewhere the flag is not silently
    # ignored but refused as an unknown argument.
    with pytest.raises(SystemExit) as exc:
        main([command, "--case", "u1", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# A run key or block that the subcommand never reads is refused, not
# ignored; run.seed and, in a gauss config, a case stay accepted.
_UNREAD = [(command, "run", key, value)
           for key, value, commands in [
               ("sample", 3, ("sign", "base-change", "gauss")),
               ("grid_q", [5], ("sign", "reducibility", "base-change")),
               ("grid_n", 2, ("sign", "reducibility", "base-change")),
               ("grid_count", 2, ("sign", "reducibility", "base-change"))]
           for command in commands] + [("gauss", "character", "psi_twist", 2)]


@pytest.mark.parametrize("command, block, key, value", _UNREAD)
def test_cli_refuses_a_key_the_command_never_reads(command, block, key, value,
                                                   capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, "case": "u1",
                                block: {key: value}}))
    code, out, err = run([command, str(cfgp)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {command} does not read ")
    assert len(err.splitlines()) == 1
    assert (key if block == "run" else "character") in err


@pytest.mark.parametrize("command", ["gauss", "sign", "reducibility", "base-change"])
def test_cli_accepts_a_seed_and_a_case_everywhere(command, capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, "case": "u1",
                                "run": {"seed": 3}}))
    code, _, err = run([command, str(cfgp)], capsys)
    assert (code, err) == (0, "")


_ONE_FORM = {"run": {"grid_q": [3], "grid_n": 1, "grid_count": 1}}


@pytest.mark.parametrize("blocks", [
    # An even e and a non-negative valuation, which sign refuses as well.
    {"tower": {"q": 5, "e": 2, "f": 1}, "stratum": {"c": [[0, 2]]}},
    {"tower": {"q": 3, "e": 3, "f": 1}},
    {"stratum": {"c": [[0, -1]]}},
])
def test_cli_gauss_refuses_a_tower_or_stratum_block(blocks, capsys, tmp_path):
    # gauss reads no stratum, so a tower or stratum block is refused, not
    # ignored.
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, **blocks, **_ONE_FORM}))
    line = run_refused(["gauss", str(cfgp)], capsys)
    assert line.startswith("error: gauss does not read ")
    assert all(name in line for name in blocks)


def test_cli_gauss_needs_no_case(capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, **_ONE_FORM}))
    code, out, err = run(["gauss", str(cfgp), "--seed", "5"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "gauss cross-validation: all-match"


@pytest.mark.parametrize("command", ["sign", "reducibility", "base-change"])
def test_cli_needs_a_case_or_a_tower(command, capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1}))
    line = run_refused([command, str(cfgp)], capsys)
    assert line == "error: config needs either a case or a tower block"


def test_cli_bad_config_path(capsys):
    code, _, err = run(["sign", "/nonexistent/x.json"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("where", ["config-dir", "json-dir",
                                   "config-under-file", "json-under-file"])
def test_cli_unusable_path_exits_2(where, capsys, tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    argv = {
        "config-dir": ["sign", str(tmp_path)],
        "json-dir": ["sign", "--case", "u1", "--json", str(tmp_path)],
        "config-under-file": ["sign", str(plain / "cfg.json")],
        "json-under-file": ["sign", "--case", "u1", "--json", str(plain / "x.json")],
    }[where]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, blocks", [
    ("gauss", {"case": "u1", "run": {"grid_q": [10**400]}}),
    ("sign", {"tower": {"q": 10**400, "e": 1, "f": 1}, "stratum": {"c": [[0, -1]]}}),
])
def test_cli_rejects_a_huge_q_without_a_float(command, blocks, capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, **blocks}))
    code, _, err = run([command, str(cfgp)], capsys)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(10**400) in err and "float" not in err


def _import_cli(openblas_threads):
    """(OS threads, OPENBLAS_NUM_THREADS) after a fresh process imports the
    CLI with the variable unset or set to the given value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    probe = ("import os, strbc.cli; print(len(os.listdir('/proc/self/task')), "
             "os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return int(out[0]), out[1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc/self/task")
def test_cli_import_pins_openblas_to_one_thread():
    # A fresh process each, since this one may have loaded numpy or set the
    # variable already.  No BLAS worker starts; a caller's value wins.
    assert _import_cli(None) == (1, "1")
    assert _import_cli("2")[1] == "2"


@pytest.mark.parametrize("command", ["sign", "reducibility", "base-change"])
def test_cli_out_of_scope_case_exits_3(command, capsys):
    code, _, err = run([command, "--case", "d1-tower"], capsys)
    assert code == 3
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of scope: ")


def test_cli_gauss_past_bound_exits_2(capsys):
    code, _, err = run(["gauss", "--bound", "10"], capsys)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_rejects_zero_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sign", "--case", "e3f2", "--bound", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if "error:" in ln] == [
        "strbc sign: error: argument --bound: must be at least 1, got 0"
    ]


@pytest.mark.parametrize("command", ["sign", "base-change"])
def test_cli_bound_skips_brute_force(command, capsys, monkeypatch):
    calls = []
    brute = gauss.gauss_sum_brute

    def counted(*args, **kwargs):
        calls.append(args[0].dim)
        return brute(*args, **kwargs)

    monkeypatch.setattr(gauss, "gauss_sum_brute", counted)
    code, out, _ = run([command, "--case", "e3f2", "--bound", "100"], capsys)
    assert code == 0
    assert "epsilon = 1" in out
    assert calls == []
    # The same run at the default bound does enumerate.
    assert run([command, "--case", "e3f2"], capsys)[0] == 0
    assert calls


def test_cli_reducibility_honours_bound(capsys, monkeypatch):
    # e1f2: 24 b_y representatives, 72 b_z terms over phase sums of 9 points.
    calls = []
    evaluate = stratum.eval_simple_char
    monkeypatch.setattr(stratum, "eval_simple_char",
                        lambda *a: calls.append(a) or evaluate(*a))
    code, out, err = run(["reducibility", "--case", "e1f2", "--bound", "8"], capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # Refused before the first b_y representative is evaluated.
    assert calls == []
    code, out, _ = run(["reducibility", "--case", "e1f2", "--bound", "100"], capsys)
    assert code == 0
    assert "reducibility suite: pass" in out


def test_cli_reducibility_refuses_a_draw_past_maxsize(tmp_path):
    # q7 e5f3: 342 units times 7^dim b_y terms is past sys.maxsize, which
    # random.sample cannot index; 40 sampled terms are within the bound.
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "schema_version": 1, "tower": {"q": 7, "e": 5, "f": 3},
        "stratum": {"c": [[1, -1]]}, "run": {"sample": 40}}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "strbc.cli", "reducibility", str(cfgp)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(sys.maxsize) in lines[0] and "Traceback" not in done.stderr


def test_cli_reducibility_honours_psi_twist(capsys, tmp_path, monkeypatch):
    seen = []
    oracle = stratum.bz_oracle

    def spy(s, chars, *args, **kwargs):
        seen.append(chars[0].psi)
        return oracle(s, chars, *args, **kwargs)

    monkeypatch.setattr("strbc.cli.bz_oracle", spy)
    cfgp, path = tmp_path / "cfg.json", tmp_path / "r.json"
    cfgp.write_text(json.dumps({
        "schema_version": 1, "tower": {"q": 3, "e": 3, "f": 1, "N": 8},
        "stratum": {"c": [[0, -1]]}, "character": {"psi_twist": 2}}))
    code, out, _ = run(["reducibility", str(cfgp), "--json", str(path)], capsys)
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["provenance"]["psi_twist"] == 2
    assert (payload["b_y"], payload["b_z_low"], payload["b_z_high"]) == (6, 6, 0)
    assert [psi.twist.coeffs for psi in seen] == [(2,)]


@pytest.mark.parametrize("grid_q", [[4], [2], [9], [1], [3, 15], []])
def test_cli_gauss_rejects_non_odd_prime_grid(grid_q, capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, "case": "u1",
                                "run": {"grid_q": grid_q}}))
    code, out, err = run(["gauss", str(cfgp)], capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "odd primes" in lines[0]


@pytest.mark.parametrize("knob", ["grid_n", "grid_count"])
def test_cli_gauss_rejects_an_empty_grid(knob, capsys, tmp_path):
    # A zero grid compares no form, so it cannot report all-match.
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, "case": "u1",
                                "run": {knob: 0}}))
    code, out, err = run(["gauss", str(cfgp)], capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: run.{knob} ")


@pytest.mark.parametrize("seed,compared", [(1, 0), (2, 0), (3, 0), (4, 0), (5, 1)])
def test_cli_gauss_fails_when_it_compared_no_form(seed, compared, capsys, tmp_path):
    # One 1x1 form over F_3: seeds 1-4 draw the zero form, seed 5 a unit.
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, "case": "u1", "run": {
        "grid_q": [3], "grid_n": 1, "grid_count": 1}}))
    jp = tmp_path / "out.json"
    code, out, err = run(["gauss", str(cfgp), "--seed", str(seed),
                          "--json", str(jp)], capsys)
    payload = json.loads(jp.read_text())
    statuses = [r["status"] for r in payload["rows"] if r["n"]]
    assert err == ""
    if compared:
        assert statuses == ["match"] and payload["ok"] is True and code == 0
        assert out.splitlines()[-1] == "gauss cross-validation: all-match"
    else:
        assert statuses == ["degenerate"] and payload["ok"] is False and code == 1
        assert out.splitlines()[-1] == ("gauss cross-validation: no form "
                                        "compared (every drawn form is degenerate)")


# ---------------------------------------------------------------------------
# Refused before any work: exit 2 with one error line, within 2 s.

Q7_E1F2 = {"tower": {"q": 7, "e": 1, "f": 2, "N": 6}, "stratum": {"c": [[1, -1]]}}


def run_refused(argv, capsys):
    """Run argv, check for exit 2 with empty stdout and one error line
    within 2 s, and return that line."""
    start = time.monotonic()
    code, out, err = run(argv, capsys)
    assert time.monotonic() - start < 2
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("blocks, flags", [
    (Q7_E1F2, ["--case", "u1"]),        # a config file and --case
    ({"case": "u1", **Q7_E1F2}, []),    # a case and a tower in one config
])
def test_cli_refuses_a_stratum_named_twice(blocks, flags, capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, **blocks}))
    run_refused(["sign", str(cfgp)] + flags, capsys)


def test_cli_bounds_the_sign_invariance_suite(capsys, tmp_path, monkeypatch):
    # q = 10007: the base, 10006 psi twists and 10006 units, past --bound 10.
    calls = []
    monkeypatch.setattr(stratum, "epsilon_z", lambda *a, **k: calls.append(a))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, "tower": {
        "q": 10007, "e": 1, "f": 1}, "stratum": {"c": [[0, -1]]}}))
    line = run_refused(["sign", str(cfgp), "--bound", "10"], capsys)
    assert "20013" in line
    assert calls == []


@pytest.mark.parametrize("command, blocks", [
    ("gauss", {"case": "u1", "run": {"grid_q": [2**61 - 1]}}),
    ("sign", {"tower": {"q": 2**61 - 1, "e": 1, "f": 1},
              "stratum": {"c": [[0, -1]]}}),
])
def test_cli_refuses_a_huge_prime_q(command, blocks, capsys, tmp_path, monkeypatch):
    # 2^61 - 1 is prime: it is refused for its size, before a field is built.
    built = []
    monkeypatch.setattr(FqField, "_build_log_tables", lambda self: built.append(self))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, **blocks}))
    assert str(2**61 - 1) in run_refused([command, str(cfgp)], capsys)
    assert built == []


@pytest.mark.parametrize("command, case", [("sign", "u1"),
                                           ("reducibility", "e3f2")])
def test_cli_checks_the_json_path_first(command, case, capsys, tmp_path,
                                        monkeypatch):
    calls = []
    for name in ("by_oracle", "epsilon_z_invariance"):
        monkeypatch.setattr(f"strbc.cli.{name}", lambda *a, **k: calls.append(a))
    run_refused([command, "--case", case, "--json", str(tmp_path)], capsys)
    assert calls == []


def test_cli_json_check_leaves_no_file_behind(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, _, _ = run(["reducibility", "--case", "e1f2", "--bound", "8",
                      "--json", str(path)], capsys)
    assert code == 2
    assert not path.exists()


# ---------------------------------------------------------------------------
# A Hecke cross-check that stops the run: exit 1 with one error line.


def run_check_failed(argv, capsys, tmp_path):
    """Run argv with a --json path, check for exit 1 with empty stdout, one
    'error: check failed:' line and no payload, and return that line."""
    path = tmp_path / "r.json"
    code, out, err = run(argv + ["--json", str(path)], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: check failed: ")
    assert not path.exists()
    return lines[0]


def test_cli_reports_an_inconsistent_b_y(capsys, tmp_path, monkeypatch):
    oracle = stratum.by_oracle
    monkeypatch.setattr("strbc.cli.by_oracle", lambda *a, **k: oracle(*a, **k) * 2)
    line = run_check_failed(["reducibility", "--case", "e1f2"], capsys, tmp_path)
    assert "b_y = 48 does not match the invariant value 24" in line


def test_cli_reports_a_path_mismatch(capsys, tmp_path, monkeypatch):
    # Path B one off at every unit: only the comparison of the totals sees it.
    brute = stratum.gauss_sum_brute
    monkeypatch.setattr(stratum, "gauss_sum_brute",
                        lambda *a, **k: brute(*a, **k) + 1)
    line = run_check_failed(["reducibility", "--case", "e1f2"], capsys, tmp_path)
    assert "two evaluation routes disagree" in line


# Each break takes a setattr (monkeypatch's or the builtin) and shifts the
# quantity that one cross-check compares, so that only that check fails.


def _break_brute_sum(setattr):
    brute = gauss.gauss_sum_brute
    setattr(gauss, "gauss_sum_brute", lambda *a, **k: brute(*a, **k) + 1)


def _break_d_form(setattr):
    # Negate the sign of the first D-form, so the product of them flips.
    build, sign, first = stratum.build_Dj_forms, stratum.normalized_sign, []

    def forms(*a, **k):
        first[:] = out = build(*a, **k)
        return out

    def flipped(space, *a, **k):
        res = sign(space, *a, **k)
        if first and space is first[0]:
            return dataclasses.replace(res, value=-res.value)
        return res

    setattr(stratum, "build_Dj_forms", forms)
    setattr(stratum, "normalized_sign", flipped)


def _break_constancy(setattr):
    evaluate = stratum.eval_simple_char

    def shifted(chi, g):
        values = evaluate(chi, g)
        if chi.side == "u":
            values[-1] = (values[-1] + 1) % chi.stratum.tower.p
        return values

    setattr(stratum, "eval_simple_char", shifted)


def _break_defining_relation(setattr):
    # Twice each (1 - alpha) solution solves for twice its right side.
    solve = stratum._solve_one_minus_alpha
    setattr(stratum, "_solve_one_minus_alpha",
            lambda tower, *a: 2 * solve(tower, *a) % tower.p)


def _break_exchange_identity(setattr):
    # eval_simple_char reads two coefficients; the exchange identity stacks
    # both of its sides at full precision.
    det = stratum.det_unit

    def shifted(X):
        out = det(X)
        if X.fprec > 2:
            out = out.copy()
            out[-1, -1] = (out[-1, -1] + 1) % X.tower.p
        return out

    setattr(stratum, "det_unit", shifted)


def _break_path_a(setattr):
    chunk = stratum._bz_chunk
    setattr(stratum, "_bz_chunk",
            lambda s, *a: (chunk(s, *a) + 1) % s.tower.p)


def _break_walk_domain(setattr):
    valuation = TowerSpec.valuation
    setattr(TowerSpec, "valuation", lambda self, X: 0 * valuation(self, X))


def _break_minimality(setattr):
    # The centralizer route calls the minimal c_0 of e1f2 non-minimal; the
    # check must see it before NotMinimal would refuse the stratum.
    level_minimal = StratumSpec._level_minimal
    setattr(StratumSpec, "_level_minimal",
            lambda self, j: not level_minimal(self, j))


def _break_varpi_extension(setattr):
    # A half turn more at pi_F re-solves to a half turn more at pi_E.
    varpi_F = LevelZeroChar.varpi_F_turns
    setattr(LevelZeroChar, "varpi_F_turns",
            lambda self, tower: (varpi_F(self, tower) + 2) % 4)


def _break_rational_b_y(setattr):
    # Times zeta_p, the b_y total is no longer an integer.
    oracle = stratum.by_oracle
    setattr(cli, "by_oracle",
            lambda s, *a, **k: oracle(s, *a, **k) * cyc_root(s.tower.p, 1))


def _break_rational_b_z(setattr):
    # Times zeta_p, the nonzero b_z total is no longer an integer.
    oracle = stratum.bz_oracle
    setattr(cli, "bz_oracle", lambda s, *a, **k: tuple(
        v * cyc_root(s.tower.p, 1) for v in oracle(s, *a, **k)))


BREAKS = {
    "brute-closed": (_break_brute_sum, "sign",
                     "brute and closed Gauss sums disagree"),
    "d-form": (_break_d_form, "sign", "D-form sign disagrees with the Gauss sign"),
    "constancy": (_break_constancy, "reducibility",
                  "integrand is not constant across representatives"),
    "defining-relation": (_break_defining_relation, "reducibility",
                          "assembled Y fails the defining relation"),
    "exchange-identity": (_break_exchange_identity, "reducibility",
                          "determinant exchange identity fails"),
    "path-a-b": (_break_path_a, "reducibility",
                 "direct term value disagrees with its Gauss-sum phase"),
    "walk-domain": (_break_walk_domain, "reducibility",
                    "g - 1 must have positive valuation"),
    "minimality": (_break_minimality, "sign", "minimality check"),
    "varpi-extension": (_break_varpi_extension, "base-change",
                        "varpi-extension check"),
    "rational-b_y": (_break_rational_b_y, "reducibility", "b_y must be rational"),
    "rational-b_z": (_break_rational_b_z, "reducibility", "b_z must be rational"),
}


@pytest.mark.parametrize("name", BREAKS)
def test_cli_names_each_broken_check(name, capsys, tmp_path, monkeypatch):
    install, command, check = BREAKS[name]
    install(monkeypatch.setattr)
    line = run_check_failed([command, "--case", "e1f2"], capsys, tmp_path)
    assert check in line


def test_cli_names_a_broken_check_in_a_fresh_process(tmp_path):
    # The interpreter, not main, prints the traceback of an escaped
    # exception, and exits 1 as a failed check does.
    path = tmp_path / "r.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        SRC, str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]))
    probe = ("import sys, test_cli; from strbc.cli import main; "
             "test_cli.BREAKS['walk-domain'][0](setattr); "
             f"sys.exit(main(['reducibility', '--case', 'e1f2', '--json', {str(path)!r}]))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: check failed: ")
    assert BREAKS["walk-domain"][2] in lines[0]
    assert not path.exists()


# ---------------------------------------------------------------------------
# gauss at the field-order cap finishes: g(psi) is one count of phases, and
# the quadratic character is read from a discrete log.


def test_cli_gauss_at_a_large_field_order(capsys, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, "case": "u1", "run": {
        "grid_q": [10007], "grid_n": 1, "grid_count": 1}}))
    start = time.monotonic()
    code, out, err = run(["gauss", str(cfgp), "--seed", "1"], capsys)
    assert time.monotonic() - start < 3
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "gauss cross-validation: all-match"


# ---------------------------------------------------------------------------
# Malformed config values are bad input: exit 2 with one error line.

GOOD_TOWER = {"q": 3, "e": 1, "f": 1}


@pytest.mark.parametrize("patch", [
    {"tower": {"q": 3, "e": 1}},                     # missing f
    {"tower": {"q": "3", "e": 1, "f": 1}},
    {"tower": [1]},
    {"tower": {"q": 4, "e": 1, "f": 1}},
    {"tower": {"q": 3, "e": 1, "f": 0}},
    {"stratum": {"c": [5]}},
    {"character": {"psi_twist": "a"}},
    {"character": {"psi_twist": 0}},
    {"run": {"seed": "x"}},
])
def test_cli_bad_config_value_exits_2(patch, capsys, tmp_path):
    data = {"schema_version": 1, "tower": GOOD_TOWER,
            "stratum": {"c": [[0, -1]]}, **patch}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(data))
    code, out, err = run(["sign", str(cfgp)], capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# Integers stay small so that no draw builds a tower beyond q = 3, e = 3,
# f = 4 or q = 5, e = 1, f = 4.
_VALUES = st.recursive(
    st.integers(-2, 4) | st.text(max_size=2) | st.none() | st.booleans(),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_KEYS = {None: ["schema_version", "case", "tower", "stratum", "character",
                "run"],
         "tower": ["q", "e", "f", "d", "N", "levels", "u"],
         "stratum": ["c"], "character": ["psi_twist"],
         "run": ["seed", "sample", "grid_q", "grid_n", "grid_count"]}


@st.composite
def _configs(draw):
    """A well-formed config over a small tower, then up to three edits that
    each set or delete one key, known or not, at the top or in a block."""
    data = {"schema_version": 1,
            "tower": {"q": draw(st.sampled_from([3, 5])),
                      "e": draw(st.sampled_from([1, 3])),
                      "f": draw(st.integers(1, 2))},
            "stratum": {"c": draw(st.sampled_from([[[0, -1]], [[1, -1]]])
                                  | st.lists(st.lists(st.integers(-3, 3),
                                                      min_size=2, max_size=2),
                                             min_size=1, max_size=2))}}
    for _ in range(draw(st.integers(0, 3))):
        block = draw(st.sampled_from(list(_KEYS)))
        target = data if block is None else data.setdefault(block, {})
        if not isinstance(target, dict):
            continue
        key = draw(st.sampled_from(_KEYS[block] + ["x"]))
        if key in target and draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(_VALUES)
    return data


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_config_fuzz_builds_or_raises_config_error(data):
    try:
        cfg = ExperimentConfig.from_dict(data)
        s = cfg.build_stratum()
    except ConfigError:
        return
    assert s.tower.n >= 1
