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

Every output starts with a provenance line (scenario, method, seed, nsim,
config hash, version) and is written atomically; identical config + seed
reproduce outputs byte for byte.
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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .borrow import _KINDS, BorrowingMethod, NO_BORROWING
from .oc_twoarm import (oc_random_external_two_arm,
                        oc_random_external_two_arm_mc, power_profile)
# rejection_region is no longer called here; the name stays for
# bench/tracing.py, which wraps cli.rejection_region
from .region import (_region_row, boundary_arrays,  # noqa: F401
                     interval_count, rejection_region)
from .runner import (COLUMNS, DEFAULT_NSIM_FIXED, DEFAULT_NSIM_RANDOM,
                     DEFAULT_TWO_ARM_OFFSETS, RunReport, run_algorithm1,
                     run_algorithm2, run_grid, scenario_echo)
from .scenarios import ScenarioOneArm, ScenarioTwoArm
from .statmath import (DomainError, NumericsError, RngStream, _check_count,
                       _check_finite, _check_positive)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_IO = 4

# rows of records.csv formatted and written per chunk; bounds the memory
# the text of a large run takes
CSV_CHUNK_ROWS = 8192

_SUMMARY_FIELDS = ("mean_t1e", "mean_power_diff", "t1e_min", "t1e_max",
                   "t1e_median", "power_diff_min", "power_diff_max",
                   "power_diff_median")

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
# design -> (the keys it requires, {each key it forbids: why})
_DESIGN_KEYS = {
    "one-arm": (("sigma", "alpha", "theta1", "nE", "n", "theta0"),
                {"nc": "for the one-arm design",
                 "nt": "for the one-arm design"}),
    "two-arm": (("sigma", "alpha", "theta1", "nE", "nc", "nt"),
                {"n": "for the two-arm design (use nc and nt)",
                 "theta0": "for the two-arm design (the null boundary is "
                           "theta_t = theta_c)"}),
}


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
        """Build the design's scenario object."""
        if self.design == "one-arm":
            return ScenarioOneArm(n=self.n, sigma=self.sigma,
                                  theta0=self.theta0, alpha=self.alpha,
                                  nE=self.nE, theta1=self.theta1, c=self.c,
                                  sigmaE=self.sigmaE)
        return ScenarioTwoArm(nc=self.nc, nt=self.nt, nE=self.nE,
                              sigma=self.sigma, theta1=self.theta1,
                              alpha=self.alpha, c=self.c, sigmaE=self.sigmaE)

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
    if design not in _DESIGN_KEYS:
        raise ConfigError(f"config key 'design' must be 'one-arm' or "
                          f"'two-arm', got {design!r}")
    method = _want(raw, "method", str)
    method = NO_BORROWING if method is None else method
    if method not in _KINDS:
        raise ConfigError(f"config key 'method' must be one of "
                          f"{', '.join(map(repr, _KINDS))}, got {method!r}")

    required, forbidden = _DESIGN_KEYS[design]
    for key, why in forbidden.items():
        if key in raw:
            raise ConfigError(f"config key {key!r} is not allowed {why}")
    values = {key: _want_number(raw, key, key in required)
              for key in _NUMBER_KEYS}
    values.update((key, _want(raw, key, int, key in required))
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


def _fmt(v) -> str:
    """Shortest round-trip decimal; infinities as inf/-inf."""
    return repr(float(v))


def _fmt17(v) -> str:
    return format(float(v), ".17g")


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


def _atomic_write(path: Path, chunks) -> None:
    """Write the strings of ``chunks`` to a temp file beside ``path``, then
    rename it over ``path``; on any failure the temp file is removed."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _column_fields(col) -> list:
    """``repr`` of every entry of a column chunk; a column whose entries
    are bit-identical is formatted once."""
    bits = col.view(np.uint64)
    if np.all(bits == bits[0]):
        return [repr(col[0].item())] * len(col)
    return list(map(repr, col.tolist()))


def _write_records_csv(path: Path, prov: dict, report: RunReport) -> None:
    """records.csv straight from the report's columns, formatted and
    written CSV_CHUNK_ROWS rows at a time."""
    cols = report.records

    def chunks():
        yield f"{_provenance_line(prov)}\n{','.join(COLUMNS)}\n"
        for lo in range(0, len(cols), CSV_CHUNK_ROWS):
            rows = slice(lo, lo + CSV_CHUNK_ROWS)
            fields = [_column_fields(getattr(cols, name)[rows])
                      for name in COLUMNS]
            yield "\n".join(map(",".join, zip(*fields))) + "\n"

    _atomic_write(path, chunks())


def _write_summary(out_dir: Path, prov: dict, **parts) -> None:
    """summary.json: the provenance object first, then ``parts``."""
    _atomic_write(out_dir / "summary.json",
                  [json.dumps({"provenance": prov, **parts}, indent=2) + "\n"])


def _write_report(out_dir: Path, prov: dict, report: RunReport) -> None:
    _write_records_csv(out_dir / "records.csv", prov, report)
    _write_summary(out_dir, prov,
                   summary={k: getattr(report, k) for k in _SUMMARY_FIELDS},
                   scenario=report.scenario)


def _write_profile(out_dir: Path, prov: dict, profile) -> None:
    lines = [_provenance_line(prov),
             "offset,t1e,power_borrow,power_calibrated,power_diff"]
    for i, x in enumerate(profile.grid):
        lines.append(f"{_fmt17(x)},{_fmt17(profile.t1e[i])},"
                     f"{_fmt17(profile.power_borrow[i])},"
                     f"{_fmt17(profile.power_calibrated)},"
                     f"{_fmt17(profile.power_diff[i])}")
    _atomic_write(out_dir / "profile.csv", ["\n".join(lines) + "\n"])
    _write_summary(out_dir, prov,
                   profile={"alphaB_max": profile.alphaB_max,
                            "argmax_offset": profile.argmax_offset,
                            "power_calibrated": profile.power_calibrated})


def _write_region(out_dir: Path, prov: dict, points, regions) -> None:
    lines = [_provenance_line(prov), "dE_mean,interval_index,lo,hi"]
    for de, reg in zip(points, regions):
        lines.extend(f"{_fmt(de)},{i},{_fmt(iv.lo)},{_fmt(iv.hi)}"
                     for i, iv in enumerate(reg.intervals))
    _atomic_write(out_dir / "region.csv", ["\n".join(lines) + "\n"])
    _write_summary(out_dir, prov, regions=[
        {"dE_mean": de, "interval_count": interval_count(reg),
         "flagged": reg.flagged} for de, reg in zip(points, regions)])


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
        nsim = cfg.nsim or DEFAULT_NSIM_FIXED
        report = run_algorithm1(scen, cfg.thetaE, method, nsim, cfg.seed,
                                literal=mc_audit)
        _write_report(out_dir, _provenance(cfg, report.scenario, cfg.seed,
                                           nsim), report)
    elif subcommand in ("algorithm2", "one-arm-random"):
        nsim = cfg.nsim or DEFAULT_NSIM_RANDOM
        report = run_algorithm2(scen, cfg.thetaE, method, nsim, cfg.seed,
                                literal=mc_audit, offsets=grid)
        _write_report(out_dir, _provenance(cfg, report.scenario, cfg.seed,
                                           nsim), report)
    elif subcommand == "one-arm-grid":
        report = run_grid(scen, grid, method)
        _write_report(out_dir, _provenance(cfg, report.scenario, None,
                                           report.nsim), report)
    elif subcommand == "region":
        regions = [_region_row(bounds, j) for j in range(len(grid))]
        _write_region(out_dir, _provenance(cfg, scenario_echo(scen, method),
                                           None, len(grid)), grid, regions)
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
        _write_profile(out_dir, _provenance(cfg, echo, seed, count), profile)


def dispatch(subcommand: str, cfg: ScenarioConfig, out_dir, *,
             mc_audit: bool = False, tol: float = 1e-9) -> int:
    """Run one subcommand; returns a process exit status.

    0 success, 2 configuration error, 3 numeric non-convergence, 4 I/O
    error.  Output files are written atomically (temp file + rename), so a
    failed run never leaves partial files.
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
                            "draws with the same inner rule; two-arm "
                            "algorithm1 only draws the external mean from "
                            "nE raw observations (not allowed for "
                            + ", ".join(no_audit) + ")")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="quadrature tolerance of the two-arm-random "
                            "profile integrals (no effect elsewhere)")
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
