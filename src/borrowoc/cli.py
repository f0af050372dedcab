"""Command-line front end: flat JSON configs in, CSV/JSON files out.

Subcommands
-----------
``one-arm-fixed`` / ``one-arm-grid`` / ``one-arm-random``
    fixed-external replicate study, deterministic external-mean sweep, and
    random-external Monte Carlo for the one-arm design.
``two-arm-profile`` / ``two-arm-random``
    fixed-external offset profile and random-external profile for the
    two-arm design (``--mc-audit`` switches the latter to Monte Carlo).
``algorithm1`` / ``algorithm2``
    the replicate study / random-external run dispatched by the config's
    ``design`` key.
``region``
    rejection-interval table over a grid of external means, from one
    batch call of the boundary engine.

Every run writes one table and ``summary.json`` under one provenance
(scenario, method, seed, nsim, config hash, version); identical config +
seed reproduce both byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import secrets
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from ._csvtext import csv_rows as _csv_rows
from .borrow import _KINDS, BorrowingMethod, NO_BORROWING
from .oc_twoarm import (oc_random_external_two_arm,
                        oc_random_external_two_arm_mc, power_profile)
# rejection_region is no longer called here; the name stays for
# bench/tracing.py, which wraps cli.rejection_region
from .region import (_region_row, boundary_arrays,  # noqa: F401
                     interval_count, rejection_region)
from .runner import (COLUMNS, DEFAULT_NSIM_FIXED, DEFAULT_NSIM_RANDOM,
                     DEFAULT_TWO_ARM_OFFSETS, run_algorithm1, run_algorithm2,
                     run_grid, scenario_echo)
from .scenarios import ScenarioOneArm, ScenarioTwoArm
from .statmath import (DomainError, NumericsError, RngStream, _blocks,
                       _check_count, _check_finite, _check_positive)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_IO = 4

# subcommand -> (the design it requires, None for either; whether it needs
# thetaE; whether --mc-audit has a route; whether it needs the grid)
_SUBCOMMAND_RULES = {
    "one-arm-fixed": ("one-arm", True, True, False),
    "one-arm-grid": ("one-arm", False, False, True),
    "one-arm-random": ("one-arm", True, True, False),
    "two-arm-profile": ("two-arm", False, False, False),
    "two-arm-random": ("two-arm", True, True, False),
    "algorithm1": (None, True, True, False),
    "algorithm2": (None, True, True, False),
    "region": ("one-arm", False, False, True),
}
SUBCOMMANDS = tuple(_SUBCOMMAND_RULES)

_GRID_KEYS = ("start", "stop", "step")
_NUMBER_KEYS = ("delta", "sigma", "alpha", "theta1", "sigmaE", "c", "thetaE",
                "theta0")
_COUNT_KEYS = ("nE", "nsim", "n", "nc", "nt")
# design -> its scenario record, whose fields with no default are required
_DESIGNS = {"one-arm": ScenarioOneArm, "two-arm": ScenarioTwoArm}
# key -> why a design whose record lacks it refuses it (checked in this order)
_FORBIDDEN = {"nc": "for the one-arm design",
              "nt": "for the one-arm design",
              "n": "for the two-arm design (use nc and nt)",
              "theta0": "for the two-arm design (the null boundary is "
                        "theta_t = theta_c)"}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated flat run configuration (one object per run)."""

    design: str
    method: str
    sigma: float
    alpha: float
    theta1: float
    delta: float | None = None
    n: int | None = None
    nE: int | None = None
    nc: int | None = None
    nt: int | None = None
    sigmaE: float | None = None
    theta0: float | None = None
    thetaE: float | None = None
    c: float | None = None
    nsim: int | None = None
    seed: int | None = None
    grid: tuple | None = None

    def scenario(self):
        """Build the design's scenario record from the fields it declares."""
        cls = _DESIGNS[self.design]
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def borrowing_method(self) -> BorrowingMethod:
        return BorrowingMethod(self.method, self.delta)

    def grid_points(self) -> tuple:
        """Expand the {start, stop, step} grid to explicit values."""
        if self.grid is None:
            raise ConfigError("this run requires the 'grid' key")
        start, stop, step = self.grid
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + k * step for k in range(count))


_ALLOWED_KEYS = tuple(f.name for f in fields(ScenarioConfig))
_TYPE_NAMES = {str: "a string", int: "an integer"}     # anything else: a number


def _want(raw: dict, key: str, kind, required: bool = False,
          what: str = "config key"):
    if key not in raw:
        if required:
            raise ConfigError(f"missing required {what}: {key!r}")
        return None
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, kind):
        raise ConfigError(f"{what} {key!r} must be "
                          f"{_TYPE_NAMES.get(kind, 'a number')}, got {v!r}")
    return v


def _want_number(raw: dict, key: str, required: bool = False,
                 what: str = "config key") -> float | None:
    v = _want(raw, key, (int, float), required, what)
    try:
        return None if v is None else _check_finite(key, v)
    except DomainError as exc:
        raise ConfigError(f"{what} {exc}") from None


def _load(document) -> dict:
    """The config object of ``document``: JSON text or an already-parsed
    value."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("config must be a single flat JSON object")
    return document


def parse_config(document) -> ScenarioConfig:
    """Validate a flat JSON config (text or already-parsed dict).

    Applies defaults: design "one-arm", method "none", sigmaE = sigma,
    c = 1 - alpha (inside the scenario), and a freshly randomized —
    and therefore recorded — seed when none is given.  Checks the document
    here (keys, JSON types, the grid) and each value by building the object
    that owns its rule (the scenario, the borrowing method, the random
    stream); every fault is a :class:`ConfigError` naming the key.
    """
    raw = _load(document)
    for key in raw:
        if key not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")

    design = _want(raw, "design", str)
    design = "one-arm" if design is None else design
    if design not in _DESIGNS:
        raise ConfigError(f"config key 'design' must be 'one-arm' or "
                          f"'two-arm', got {design!r}")
    method = _want(raw, "method", str)
    method = NO_BORROWING if method is None else method
    if method not in _KINDS:
        raise ConfigError(f"config key 'method' must be one of "
                          f"{', '.join(map(repr, _KINDS))}, got {method!r}")

    defaults = {f.name: f.default for f in fields(_DESIGNS[design])}
    for key, why in _FORBIDDEN.items():
        if key in raw and key not in defaults:
            raise ConfigError(f"config key {key!r} is not allowed {why}")
    values = {key: _want_number(raw, key, defaults.get(key) is MISSING)
              for key in _NUMBER_KEYS}
    values.update((key, _want(raw, key, int, defaults.get(key) is MISSING))
                  for key in _COUNT_KEYS)
    seed = _want(raw, "seed", int)
    seed = secrets.randbits(64) if seed is None else seed

    grid = None
    if "grid" in raw:
        g = raw["grid"]
        if not isinstance(g, dict):
            raise ConfigError("config key 'grid' must be an object with "
                              "keys start, stop, step")
        for key in g:
            if key not in _GRID_KEYS:
                raise ConfigError(f"unknown grid key: {key!r}")
        start, stop, step = (_want_number(g, key, True, "grid key")
                             for key in _GRID_KEYS)
        if step <= 0:
            raise ConfigError(f"grid key 'step' must be positive, got {step!r}")
        if stop < start:
            raise ConfigError("grid key 'stop' must be >= 'start'")
        grid = (start, stop, step)
        if design == "one-arm" and values["thetaE"] is not None:
            raise ConfigError("config keys 'grid' and 'thetaE' are mutually "
                              "exclusive for one-arm runs (fixed-external "
                              "sweep vs random-external study)")

    cfg = ScenarioConfig(design=design, method=method, seed=seed, grid=grid,
                         **values)
    try:                    # each value's range is checked by its own type
        cfg.scenario(), cfg.borrowing_method(), RngStream(seed)
        if cfg.nsim is not None:
            _check_count("nsim", cfg.nsim)
    except DomainError as exc:
        raise ConfigError(f"config key {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# serialization


def _config_sha256(cfg: ScenarioConfig) -> str:
    """Hash of the effective config, seed excluded (the seed is reported
    separately and may be freshly randomized for deterministic runs)."""
    d = {k: v for k, v in vars(cfg).items() if k != "seed" and v is not None}
    if "grid" in d:
        d["grid"] = list(d["grid"])
    return hashlib.sha256(
        json.dumps(d, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _provenance(cfg: ScenarioConfig, echo: dict, seed, nsim) -> dict:
    scenario = {k: v for k, v in echo.items() if k not in ("method", "delta")}
    return {"scenario": scenario, "method": cfg.method,
            "seed": seed, "nsim": nsim,
            "config_sha256": _config_sha256(cfg), "version": __version__}


def _provenance_line(prov: dict) -> str:
    scen = json.dumps(prov["scenario"], sort_keys=True, separators=(",", ":"))
    seed = "none" if prov["seed"] is None else str(prov["seed"])
    return (f"# scenario={scen}, method={prov['method']}, seed={seed}, "
            f"nsim={prov['nsim']}, config_sha256={prov['config_sha256']}, "
            f"version={prov['version']}")


def _write_outputs(out_dir: Path, prov: dict, table: str, names, cols,
                   **parts) -> None:
    """Write ``table``, a CSV of the columns ``cols`` (``repr`` text) under
    the provenance line and ``names``, ``statmath._BLOCK_ROWS`` rows at a
    time, and ``summary.json``, ``{"provenance": prov, **parts}``.

    Each goes to a temp file first; both are renamed over their targets only
    once both are complete, and on any failure the temp files are removed.
    The two renames are not atomic as a pair: should the second fail, the
    new table sits beside the previous ``summary.json``.
    """
    def table_chunks():
        yield f"{_provenance_line(prov)}\n{','.join(names)}\n".encode()
        for rows in _blocks(len(cols[0])):
            yield _csv_rows([col[rows] for col in cols])

    summary = (json.dumps({"provenance": prov, **parts}, indent=2)
               + "\n").encode()
    tmps = []
    try:
        for chunks in (table_chunks(), [summary]):
            fd, tmp = tempfile.mkstemp(dir=str(out_dir), suffix=".tmp")
            tmps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
        for tmp, name in zip(tmps, (table, "summary.json")):
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


def _dispatch_inner(subcommand: str, cfg: ScenarioConfig, out_dir: Path,
                    mc_audit: bool, tol: float) -> None:
    if subcommand not in _SUBCOMMAND_RULES:
        raise ConfigError(f"unknown subcommand: {subcommand!r}")
    design, needs_thetaE, audit_route, needs_grid = _SUBCOMMAND_RULES[subcommand]
    if mc_audit and not audit_route:
        raise ConfigError(f"--mc-audit is not allowed for {subcommand!r}")
    if design not in (None, cfg.design):
        raise ConfigError(f"subcommand {subcommand!r} requires design "
                          f"{design!r}")
    if needs_thetaE and cfg.thetaE is None:
        raise ConfigError("this run requires the 'thetaE' key")
    scen, method = cfg.scenario(), cfg.borrowing_method()
    grid = cfg.grid_points() if needs_grid or cfg.grid is not None else None
    _check_positive("tol", tol)
    # every refusal, the region batch's too, comes before --out exists
    bounds = (boundary_arrays(scen, grid, method) if subcommand == "region"
              else None)
    out_dir.mkdir(parents=True, exist_ok=True)
    if subcommand in ("algorithm1", "one-arm-fixed"):
        seed, nsim = cfg.seed, cfg.nsim or DEFAULT_NSIM_FIXED
        report = run_algorithm1(scen, cfg.thetaE, method, nsim, seed,
                                literal=mc_audit)
    elif subcommand in ("algorithm2", "one-arm-random"):
        seed, nsim = cfg.seed, cfg.nsim or DEFAULT_NSIM_RANDOM
        report = run_algorithm2(scen, cfg.thetaE, method, nsim, seed,
                                literal=mc_audit, offsets=grid)
    elif subcommand == "one-arm-grid":
        report = run_grid(scen, grid, method)
        seed, nsim = None, report.nsim
    elif subcommand == "region":
        regions = [_region_row(bounds, j) for j in range(len(grid))]
        rows = [(de, i, iv.lo, iv.hi) for de, reg in zip(grid, regions)
                for i, iv in enumerate(reg.intervals)]
        table = np.array(rows, dtype=np.float64).reshape(-1, 4).T.copy()
        _write_outputs(
            out_dir, _provenance(cfg, scenario_echo(scen, method), None,
                                 len(grid)),
            "region.csv", ("dE_mean", "interval_index", "lo", "hi"),
            [table[0], table[1].astype(np.int64), table[2], table[3]],
            regions=[{"dE_mean": de, "interval_count": interval_count(reg),
                      "flagged": reg.flagged}
                     for de, reg in zip(grid, regions)])
        return
    else:                                   # the two-arm profiles
        offsets = DEFAULT_TWO_ARM_OFFSETS if grid is None else grid
        seed, count = None, len(offsets)
        if subcommand == "two-arm-profile":
            profile = power_profile(scen, 0.0, method, offsets)
        elif mc_audit:
            seed, count = cfg.seed, cfg.nsim or DEFAULT_NSIM_RANDOM
            profile = oc_random_external_two_arm_mc(scen, cfg.thetaE, method,
                                                    offsets, count, seed)
        else:
            profile = oc_random_external_two_arm(scen, cfg.thetaE, method,
                                                 offsets, tol)
        echo = scenario_echo(scen, method,
                             cfg.thetaE if needs_thetaE else None)
        # one row per offset; the comparator's power is the same in each
        cols = np.array([profile.grid, profile.t1e, profile.power_borrow,
                         [profile.power_calibrated] * len(profile.grid),
                         profile.power_diff], dtype=np.float64)
        _write_outputs(
            out_dir, _provenance(cfg, echo, seed, count), "profile.csv",
            ("offset", "t1e", "power_borrow", "power_calibrated",
             "power_diff"), cols,
            profile={k: getattr(profile, k) for k in
                     ("alphaB_max", "argmax_offset", "power_calibrated")})
        return
    _write_outputs(out_dir, _provenance(cfg, report.scenario, seed, nsim),
                   "records.csv", COLUMNS,
                   [getattr(report.records, name) for name in COLUMNS],
                   summary={k: v for k, v in vars(report).items() if k not in
                            ("records", "seed", "nsim", "scenario")},
                   scenario=report.scenario)


def dispatch(subcommand: str, cfg: ScenarioConfig, out_dir, *,
             mc_audit: bool = False, tol: float = 1e-9) -> int:
    """Run one subcommand; returns a process exit status.

    0 success, 2 configuration error, 3 numeric non-convergence, 4 I/O
    error.  A failed run leaves the files in ``out_dir`` as they were,
    unless the second of its two renames fails (:func:`_write_outputs`).
    """
    out_dir = Path(out_dir)
    try:
        _dispatch_inner(subcommand, cfg, out_dir, mc_audit, tol)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borrowoc",
        description="Operating characteristics of borrowing-based tests "
                    "against their calibrated comparators.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    no_audit = [name for name, rule in _SUBCOMMAND_RULES.items()
                if not rule[2]]
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to the flat JSON run configuration")
        p.add_argument("--out", required=True,
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's RNG seed")
        p.add_argument("--nsim", type=int, default=None,
                       help="override the config's replicate count")
        p.add_argument("--mc-audit", action="store_true",
                       help="audit the exact engine by Monte Carlo: one-arm "
                            "runs and two-arm algorithm2 sample raw "
                            "accept/reject decisions; two-arm-random runs "
                            "the conditional Monte Carlo over external "
                            "draws on the u-line kernel's curve; two-arm "
                            "algorithm1 only draws the external mean from "
                            "nE raw observations (not allowed for "
                            + ", ".join(no_audit) + ")")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="tolerance of the quadrature that polishes the "
                            "maximum of an eb-pp two-arm-random profile (its "
                            "t1e and power_borrow and --mc-audit ignore it)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        raw = _load(text)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.nsim is not None:
            raw["nsim"] = args.nsim
        cfg = parse_config(raw)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return dispatch(args.subcommand, cfg, args.out,
                    mc_audit=args.mc_audit, tol=args.tol)


if __name__ == "__main__":
    sys.exit(main())
