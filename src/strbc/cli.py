"""Config-driven command-line surface.

Four subcommands assemble the library into reproducible experiments:

* ``gauss``        brute-force vs closed-form Gauss sums over a grid;
* ``sign``         the normalized sign of a stratum plus its invariance suite;
* ``reducibility`` oracle coefficients, Hecke data and reducibility points;
* ``base-change``  the tame base-change datum with its covariance checks.

Experiments are selected either with ``--case <name>`` (one of the built-in
desk instances) or with a JSON config file (schema_version 1), never both.
Unknown keys are errors, and so is a run key or block that the subcommand
never reads: ``gauss`` reads no stratum, so it refuses a tower, stratum or
character block.  Every other subcommand needs a case or a tower and
stratum.  ``--json <path>`` writes the machine-readable payload, and a path
that cannot be written is refused before any work.

Exit codes: 0 every internal cross-check passed, 1 a cross-check failed
(or ``gauss`` compared no form; a check that stops the run, CheckFailed or
InconsistentParams, prints one ``error: check failed:`` line), 2 bad input
(arguments, config, or an enumeration past ``--bound``), 3 the experiment
lies outside what the library computes (a one-line ``error:`` message
names the reason).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys

# strbc's arithmetic is exact int64 and never reaches BLAS, yet OpenBLAS
# starts busy-waiting workers on the other cores when numpy loads; the pin
# must precede that first import, and a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# As a program, skip the collections numpy's import sets off; the __main__
# block freezes what the imports left, so the exit collection skips it too.
if __name__ == "__main__":
    gc.disable()

from ._modp import CheckFailed
from .finite_field import _MAX_ORDER, AddChar, MultChar, _is_prime, get_field
from .gauss import (
    DEFAULT_ENUMERATION_BOUND,
    EnumerationTooLarge,
    QuadSpace,
    gauss_sum_brute,
    gauss_sum_closed,
)
from .hecke_bc import (
    IMAG_TOKEN,
    HeckeParams,
    InconsistentParams,
    LevelZeroChar,
    base_change,
    checked_varpi_F_turns,
    normalized_spectrum,
    rechoice_covariance,
    solve_reducibility,
    to_turns,
    turns_sign,
)
from .local_model import TowerConfig, build_tower, build_Wz, iwahori_indices
from .stratum import (
    BUILTIN_CASE_NAMES,
    LinearizationInvalid,
    NonUnitQuotient,
    StratumSpec,
    builtin_case,
    by_oracle,
    bz_oracle,
    default_chars,
    epsilon_z_invariance,
)


class ConfigError(ValueError):
    pass


def _is_int(v, lowest: int | None = None) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)
            and (lowest is None or v >= lowest))


def _or_null(kind: tuple) -> tuple:
    return f"{kind[0]} or null", lambda v: v is None or kind[1](v)


# What each key of a block holds, as (description, check).
_INT = ("an integer", _is_int)
_POS = ("an integer >= 1", lambda v: _is_int(v, 1))
_PRIMES = (f"a non-empty list of odd primes up to {_MAX_ORDER}",
           lambda v: isinstance(v, list) and v != [] and all(
               _is_int(x, 3) and x <= _MAX_ORDER and _is_prime(x) for x in v))
_PAIRS = ("a list of integer pairs", lambda v: isinstance(v, list) and all(
    isinstance(x, list) and len(x) == 2 and all(map(_is_int, x)) for x in v))
_TOP_KEYS = {"schema_version", "case", "tower", "stratum", "character", "run"}
_SCHEMA = {
    "tower": {"q": _POS, "e": _POS, "f": _POS, "N": _or_null(_INT),
              "levels": _or_null(_PAIRS), "u": _INT},
    "stratum": {"c": _PAIRS},
    "character": {"psi_twist": _INT},
    "run": {"seed": _INT, "sample": _or_null(_POS), "grid_q": _PRIMES,
            "grid_n": _POS, "grid_count": _POS},
}


# The run keys each subcommand reads besides seed, which all of them accept.
_RUN_KEYS = {"gauss": {"grid_q", "grid_n", "grid_count"},
             "reducibility": {"sample"}}


def _check_keys(block: dict, allowed, where: str):
    bad = set(block) - set(allowed)
    if bad:
        raise ConfigError(f"unknown keys in {where}: {sorted(bad)}")


def _check_block(data: dict, name: str) -> dict:
    block = data.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be a JSON object")
    _check_keys(block, _SCHEMA[name], f"{name} block")
    for key, v in block.items():
        text, fits = _SCHEMA[name][key]
        if not fits(v):
            raise ConfigError(f"{name}.{key} must be {text}, got {v!r}")
    return dict(block)


class ExperimentConfig:
    """Validated experiment description: tower + stratum + character + run."""

    __slots__ = ("case", "tower", "stratum", "character", "run")

    def __init__(self, case: str | None = None, tower: dict | None = None,
                 stratum: dict | None = None, character: dict | None = None,
                 run: dict | None = None):
        self.case = case
        self.tower, self.stratum = tower or {}, stratum or {}
        self.character, self.run = character or {}, run or {}

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        _check_keys(data, _TOP_KEYS, "config")
        if data.get("schema_version") != 1:
            raise ConfigError("config must declare schema_version: 1")
        cfg = ExperimentConfig(case=data.get("case"),
                               **{name: _check_block(data, name) for name in _SCHEMA})
        if cfg.case is not None and {"tower", "stratum"} & set(data):
            raise ConfigError("config names a case and a tower or stratum "
                              "block; give one of the two")
        if cfg.case is not None and cfg.case not in BUILTIN_CASE_NAMES:
            raise ConfigError(
                f"unknown case {cfg.case!r}; choose from {BUILTIN_CASE_NAMES}"
            )
        return cfg

    @staticmethod
    def load(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return ExperimentConfig.from_dict(data)

    def refuse_unread(self, command: str):
        """A run key or block that the subcommand never reads is a
        ConfigError; gauss reads no stratum and always uses the psi twist 1."""
        unread = set(self.run) - {"seed"} - _RUN_KEYS.get(command, set())
        if unread:
            raise ConfigError(f"{command} does not read run keys {sorted(unread)}")
        blocks = [b for b in ("tower", "stratum", "character") if getattr(self, b)]
        if command == "gauss" and blocks:
            raise ConfigError(f"gauss does not read blocks {blocks}")

    def build_stratum(self) -> StratumSpec:
        """Re-runs every tower, stratum and character constraint on the
        loaded data; a violated one is a ConfigError."""
        if self.case is not None:
            s = builtin_case(self.case)
        elif not self.tower:
            raise ConfigError("config needs either a case or a tower block")
        elif not self.stratum.get("c"):
            raise ConfigError("stratum block needs a nonempty c list")
        elif {"q", "e", "f"} - set(self.tower):
            raise ConfigError("tower block needs q, e and f")
        else:
            t = self.tower
            levels = t.get("levels")
            try:
                tower = build_tower(TowerConfig(
                    q=t["q"], e=t["e"], f=t["f"],
                    N=t.get("N"), u=t.get("u", 1),
                    levels=None if levels is None else tuple(map(tuple, levels)),
                ))
                s = StratumSpec(tower, [
                    tower.e_monomial(expo, tower.kE.exp(zp))
                    for zp, expo in self.stratum["c"]
                ])
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(f"invalid tower or stratum: {exc}") from exc
        if self.character.get("psi_twist", 1) % s.tower.p == 0:
            raise ConfigError("character.psi_twist must be nonzero mod p")
        return s


def _stratum_provenance(s: StratumSpec, psi_twist: int) -> dict:
    """The exact choices a sign depends on, for the results payload."""
    tower = s.tower
    return {
        "uniformizer": "w_E",
        "u": list(tower.u.coeffs),
        "psi_twist": psi_twist,
        "c": [
            {"exponent": c.val(), "coeff": c.row(c.val()).tolist()}
            for c in s.c_elems
        ],
    }


def _table(rows: list[dict], columns: list[str]) -> str:
    widths = {
        c: max([len(c)] + [len(str(r.get(c, ""))) for r in rows])
        for c in columns
    }
    head = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns)
        for r in rows
    ]
    return "\n".join([head, sep] + body)


def _emit(payload: dict, json_path: str | None):
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


# ---------------------------------------------------------------------------
# gauss


def cmd_gauss(cfg: ExperimentConfig, args) -> int:
    run = cfg.run
    grid_q = run.get("grid_q", [3, 5])
    grid_n = run.get("grid_n", 3)
    count = run.get("grid_count", 5)
    seed = args.seed if args.seed is not None else run.get("seed", 0)
    rng = random.Random(seed)
    rows = []
    ok = True
    compared = 0
    for q in grid_q:
        k = get_field(q)
        psi = AddChar(k, 1)
        # n = 0: the empty sum over a point is 1
        rows.append({"q": q, "n": 0, "status": "sum=1 sign=+1"})
        for n in range(1, grid_n + 1):
            for _ in range(count):
                gram = [[rng.randrange(q) for _ in range(n)]
                        for _ in range(n)]
                gram = [[(gram[i][j] + gram[j][i]) % q for j in range(n)]
                        for i in range(n)]
                space = QuadSpace.from_ints(k, gram)
                if not space.is_nondegenerate():
                    rows.append({"q": q, "n": n, "status": "degenerate"})
                    continue
                brute = gauss_sum_brute(space, psi, bound=args.bound,
                                        threads=args.threads)
                closed = gauss_sum_closed(space, psi)
                match = brute == closed
                ok = ok and match
                compared += 1
                rows.append({
                    "q": q, "n": n,
                    "status": "match" if match else "MISMATCH",
                })
    print(_table(rows, ["q", "n", "status"]))
    summary = "all-match" if ok else "MISMATCH"
    if not compared:
        # A grid of degenerate forms cross-validates nothing.
        ok, summary = False, "no form compared (every drawn form is degenerate)"
    print(f"gauss cross-validation: {summary}")
    _emit({"command": "gauss", "seed": seed, "rows": rows, "ok": ok},
          args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sign


def cmd_sign(cfg: ExperimentConfig, args) -> int:
    s = cfg.build_stratum()
    twist = cfg.character.get("psi_twist", 1)
    psi = AddChar(s.tower.k, twist)
    report = epsilon_z_invariance(s, psi, bound=args.bound)
    eps = report["base"]
    # epsilon_z returns +1 or -1 or raises, so this row checks nothing here:
    # perfbench/reference.json gates it, and ROADMAP item 3 replaces it with
    # the routes that agreed.
    rows = [{"check": "base sign", "value": eps, "ok": True}]
    for r in report["psi_twists"]:
        rows.append({"check": f"psi twist {r['twist']}",
                     "value": r["sign"], "ok": r["matches"]})
    for r in report["uniformizer"]:
        rows.append({"check": f"uniformizer unit {r['unit']}",
                     "value": r["sign"], "ok": r["matches"]})
    print(_table(rows, ["check", "value", "ok"]))
    ok = report["ok"]
    print(f"sign suite: {'pass' if ok else 'FAIL'} (epsilon = {eps})")
    payload = {
        "command": "sign",
        "epsilon": eps,
        "fourth_root": f"{eps:+d}",
        "space_size": build_Wz(s.tower, s).size,
        "provenance": _stratum_provenance(s, twist),
        "rows": rows,
        "ok": ok,
    }
    _emit(payload, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# reducibility


def _fmt_points(rep) -> str:
    real = sorted(rep.real_points)
    shifted = sorted(rep.shifted_points)
    parts = [str(x) for x in real]
    parts += [f"{x} + {IMAG_TOKEN}" if x else IMAG_TOKEN
              for x in shifted]
    return "{" + ", ".join(parts) + "}"


def cmd_reducibility(cfg: ExperimentConfig, args) -> int:
    s = cfg.build_stratum()
    tower = s.tower
    qE = tower.kE.q
    seed = args.seed if args.seed is not None else cfg.run.get("seed", 0)
    sample = cfg.run.get("sample")
    twist = cfg.character.get("psi_twist", 1)
    chars = default_chars(s, AddChar(tower.k, twist))
    by_val = by_oracle(s, chars, sample=sample, seed=seed,
                       bound=args.bound)
    half = (qE - 1) // 2
    mu_lo = MultChar(tower.kE, half * (tower.f - 1))
    mu_hi = MultChar(tower.kE, half * tower.f)
    bz_lo, bz_hi = bz_oracle(s, chars, (mu_lo, mu_hi), sample=sample,
                             seed=seed, bound=args.bound)
    c_y, c_z = iwahori_indices(tower, s)
    # HeckeParams refuses a total that is not an integer; past it, each is.
    hp = HeckeParams(qE, 1, c_y, c_z, b_y=by_val, b_z=bz_lo)
    hp0 = HeckeParams(qE, 0, c_y, c_z, b_z=bz_hi)
    by_val, bz_lo, bz_hi = (v.as_int() for v in (by_val, bz_lo, bz_hi))
    eps_z = hp.b["z"].sign
    spec = normalized_spectrum(hp)
    rho_minus_one = MultChar(tower.kE, half).sign(-tower.kE.one())
    rows = []
    reports = {}
    for label, varpi in [("matched", to_turns(rho_minus_one * eps_z)),
                         ("twisted", to_turns(-rho_minus_one * eps_z))]:
        rt = LevelZeroChar(tower.kE, mu_lo, varpi_turns=varpi)
        rep = solve_reducibility(hp, rt, rho_minus_one)
        reports[label] = rep
        rows.append({"candidate": label, "branch": rep.branch,
                     "points": _fmt_points(rep)})
    swap = (reports["matched"].real_points
            == reports["twisted"].shifted_points
            and reports["matched"].shifted_points
            == reports["twisted"].real_points)
    ok = (by_val != 0 and bz_hi == 0 and bz_lo != 0
          and spec == {"y": (-1, qE), "z": (-1, qE)} and swap)
    print(_table(rows, ["candidate", "branch", "points"]))
    print(f"b_y = {by_val}, b_z(chi^(f-1)) = {bz_lo}, "
          f"b_z(chi^f) = {bz_hi}")
    print(f"normalized spectra: {spec}")
    print(f"reducibility suite: {'pass' if ok else 'FAIL'}")
    payload = {
        "command": "reducibility",
        "b_y": by_val, "b_z_low": bz_lo, "b_z_high": bz_hi,
        "c_y": c_y, "c_z": c_z,
        "spectra": {w: list(v) for w, v in spec.items()},
        "spectrum_rank0_z": list(normalized_spectrum(hp0)["z"]),
        "candidates": rows,
        "provenance": _stratum_provenance(s, twist),
        "ok": ok,
    }
    _emit(payload, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# base-change


def cmd_base_change(cfg: ExperimentConfig, args) -> int:
    s = cfg.build_stratum()
    tower = s.tower
    twist = cfg.character.get("psi_twist", 1)
    psi = AddChar(tower.k, twist)
    report = epsilon_z_invariance(s, psi, bound=args.bound)
    eps = report["base"]
    half = (tower.kE.q - 1) // 2
    rows = []
    ok = report["ok"]
    for exp in (0, half):
        rho_minus_one = MultChar(tower.kE, exp).sign(-tower.kE.one())
        rt = base_change(rho_minus_one, eps, tower)
        cov = rechoice_covariance(rt, rho_minus_one, report, tower)
        ok = ok and cov
        rows.append({
            "rho(-1)": rho_minus_one,
            "mu_power": rt.mu_part.exponent,
            "varpi_E": turns_sign(rt.varpi_turns),
            "varpi_F": turns_sign(checked_varpi_F_turns(rt, tower)),
            "rechoice": "ok" if cov else "FAIL",
        })
    print(_table(rows, ["rho(-1)", "mu_power", "varpi_E", "varpi_F",
                        "rechoice"]))
    print(f"base-change suite: {'pass' if ok else 'FAIL'} "
          f"(epsilon = {eps})")
    payload = {
        "command": "base-change",
        "epsilon": eps,
        "rows": rows,
        "provenance": _stratum_provenance(s, twist),
        "ok": ok,
    }
    _emit(payload, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strbc",
        description="Exact Gauss-sum signs, Hecke data and base change "
                    "for strongly ramified towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("gauss", cmd_gauss), ("sign", cmd_sign),
                     ("reducibility", cmd_reducibility),
                     ("base-change", cmd_base_change)]:
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", help="JSON config file")
        p.add_argument("--case", choices=BUILTIN_CASE_NAMES,
                       help="built-in desk instance")
        p.add_argument("--bound", type=_positive_int,
                       default=DEFAULT_ENUMERATION_BOUND,
                       help="enumeration cap")
        if fn is cmd_gauss:
            p.add_argument("--threads", type=_positive_int, default=1)
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized sampling")
        p.add_argument("--json", metavar="PATH",
                       help="write machine-readable results")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.json:
            # An unusable --json path fails before any work.  The check
            # leaves no file behind; the payload is written at the end.
            existed = os.path.lexists(args.json)
            open(args.json, "a").close()
            if not existed:
                os.remove(args.json)
        if args.case is not None and args.config is not None:
            raise ConfigError("give a config file or --case, not both")
        if args.case is not None:
            cfg = ExperimentConfig.from_dict(
                {"schema_version": 1, "case": args.case}
            )
        elif args.config is not None:
            cfg = ExperimentConfig.load(args.config)
        elif args.fn is cmd_gauss:
            cfg = ExperimentConfig()
        else:
            print("error: need a config file or --case", file=sys.stderr)
            return 2
        cfg.refuse_unread(args.command)
        return args.fn(cfg, args)
    except (ConfigError, OSError, EnumerationTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CheckFailed, InconsistentParams) as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1
    except (NonUnitQuotient, LinearizationInvalid) as exc:
        print(f"error: out of scope: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    gc.freeze()
    gc.enable()
    sys.exit(main())
