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
    rejection-interval table over a grid of external means.

Every output starts with a provenance line (scenario, method, seed, nsim,
config hash, version) and is written atomically; identical config + seed
reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .borrow import (BorrowingMethod, EMPIRICAL_BAYES, FIXED_POWER_PRIOR,
                     NO_BORROWING)
from .oc_twoarm import (oc_random_external_two_arm,
                        oc_random_external_two_arm_mc, power_profile)
from .region import interval_count, rejection_region
from .runner import (DEFAULT_NSIM_FIXED, DEFAULT_NSIM_RANDOM,
                     DEFAULT_TWO_ARM_OFFSETS, RunReport, run_algorithm1,
                     run_algorithm2, run_grid, scenario_echo)
from .scenarios import ScenarioOneArm, ScenarioTwoArm
from .statmath import DomainError, NumericsError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_IO = 4

SUBCOMMANDS = ("one-arm-fixed", "one-arm-grid", "one-arm-random",
               "two-arm-profile", "two-arm-random", "algorithm1",
               "algorithm2", "region")

_GRID_KEYS = ("start", "stop", "step")
_ALLOWED_KEYS = ("design", "method", "delta", "n", "nE", "nc", "nt",
                 "sigma", "sigmaE", "theta0", "theta1", "thetaE", "alpha",
                 "c", "nsim", "seed", "grid")


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
        if self.method == FIXED_POWER_PRIOR:
            return BorrowingMethod.fixed_power_prior(self.delta)
        if self.method == EMPIRICAL_BAYES:
            return BorrowingMethod.empirical_bayes()
        return BorrowingMethod.none()

    def grid_points(self) -> tuple:
        """Expand the {start, stop, step} grid to explicit values."""
        if self.grid is None:
            raise ConfigError("this run requires the 'grid' key")
        start, stop, step = self.grid
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + k * step for k in range(count))


def _want(raw: dict, key: str, kind, required: bool = False):
    if key not in raw:
        if required:
            raise ConfigError(f"missing required config key: {key!r}")
        return None
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, kind):
        want = kind[0].__name__ if isinstance(kind, tuple) else kind.__name__
        raise ConfigError(f"config key {key!r} must be a {want}, got {v!r}")
    return v


def _want_number(raw: dict, key: str, required: bool = False) -> float | None:
    v = _want(raw, key, (int, float), required)
    if v is None:
        return None
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"config key {key!r} must be finite, got {v!r}")
    return v


def _want_count(raw: dict, key: str, required: bool = False) -> int | None:
    v = _want(raw, key, int, required)
    if v is not None and v < 1:
        raise ConfigError(f"config key {key!r} must be a positive integer, "
                          f"got {v!r}")
    return v


def _forbid(raw: dict, key: str, why: str) -> None:
    if key in raw:
        raise ConfigError(f"config key {key!r} is not allowed {why}")


def parse_config(document) -> ScenarioConfig:
    """Validate a flat JSON config (text or already-parsed dict).

    Applies defaults: design "one-arm", method "none", sigmaE = sigma,
    c = 1 - alpha (inside the scenario), and a freshly randomized —
    and therefore recorded — seed when none is given.  Unknown keys and
    cross-field inconsistencies are rejected with the offending key named.
    """
    if isinstance(document, str):
        try:
            raw = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raw = document
    if not isinstance(raw, dict):
        raise ConfigError("config must be a single flat JSON object")
    for key in raw:
        if key not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config key: {key!r}")

    design = _want(raw, "design", str)
    design = "one-arm" if design is None else design
    if design not in ("one-arm", "two-arm"):
        raise ConfigError(f"config key 'design' must be 'one-arm' or "
                          f"'two-arm', got {design!r}")
    method = _want(raw, "method", str)
    method = NO_BORROWING if method is None else method
    if method not in (NO_BORROWING, FIXED_POWER_PRIOR, EMPIRICAL_BAYES):
        raise ConfigError(f"config key 'method' must be one of 'none', "
                          f"'fixed-pp', 'eb-pp', got {method!r}")

    delta = _want_number(raw, "delta")
    if method == FIXED_POWER_PRIOR and delta is None:
        raise ConfigError("config key 'delta' is required when method is "
                          "'fixed-pp'")
    if method != FIXED_POWER_PRIOR and delta is not None:
        raise ConfigError("config key 'delta' is only allowed when method "
                          "is 'fixed-pp'")
    if delta is not None and not 0.0 <= delta <= 1.0:
        raise ConfigError(f"config key 'delta' must lie in [0, 1], "
                          f"got {delta!r}")

    sigma = _want_number(raw, "sigma", required=True)
    alpha = _want_number(raw, "alpha", required=True)
    theta1 = _want_number(raw, "theta1", required=True)
    sigmaE = _want_number(raw, "sigmaE")
    c = _want_number(raw, "c")
    thetaE = _want_number(raw, "thetaE")
    nE = _want_count(raw, "nE", required=True)
    nsim = _want_count(raw, "nsim")

    seed = _want(raw, "seed", int)
    if seed is not None and not 0 <= seed < 2**64:
        raise ConfigError(f"config key 'seed' must be a 64-bit unsigned "
                          f"integer, got {seed!r}")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % 2**64)

    grid = None
    if "grid" in raw:
        g = raw["grid"]
        if not isinstance(g, dict):
            raise ConfigError("config key 'grid' must be an object with "
                              "keys start, stop, step")
        for key in g:
            if key not in _GRID_KEYS:
                raise ConfigError(f"unknown grid key: {key!r}")
        vals = []
        for key in _GRID_KEYS:
            if key not in g:
                raise ConfigError(f"missing grid key: {key!r}")
            v = g[key]
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not math.isfinite(float(v)):
                raise ConfigError(f"grid key {key!r} must be a finite "
                                  f"number, got {v!r}")
            vals.append(float(v))
        start, stop, step = vals
        if step <= 0:
            raise ConfigError(f"grid key 'step' must be positive, got {step!r}")
        if stop < start:
            raise ConfigError("grid key 'stop' must be >= 'start'")
        grid = (start, stop, step)

    if design == "one-arm":
        _forbid(raw, "nc", "for the one-arm design")
        _forbid(raw, "nt", "for the one-arm design")
        n = _want_count(raw, "n", required=True)
        nc = nt = None
        theta0 = _want_number(raw, "theta0", required=True)
        if grid is not None and thetaE is not None:
            raise ConfigError("config keys 'grid' and 'thetaE' are mutually "
                              "exclusive for one-arm runs (fixed-external "
                              "sweep vs random-external study)")
    else:
        _forbid(raw, "n", "for the two-arm design (use nc and nt)")
        _forbid(raw, "theta0", "for the two-arm design (the null boundary "
                "is theta_t = theta_c)")
        nc = _want_count(raw, "nc", required=True)
        nt = _want_count(raw, "nt", required=True)
        n = None
        theta0 = None

    return ScenarioConfig(design=design, method=method, sigma=sigma,
                          alpha=alpha, theta1=theta1, delta=delta, n=n,
                          nE=nE, nc=nc, nt=nt, sigmaE=sigmaE, theta0=theta0,
                          thetaE=thetaE, c=c, nsim=nsim, seed=seed, grid=grid)


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


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_records_csv(path: Path, prov: dict, report: RunReport) -> None:
    lines = [_provenance_line(prov),
             "replicate,dE_mean,t1e_borrow,power_borrow,power_calibrated,"
             "power_diff"]
    for r in report.records:
        lines.append(f"{r.replicate},{_fmt(r.dE_mean)},{_fmt(r.t1e_borrow)},"
                     f"{_fmt(r.power_borrow)},{_fmt(r.power_calibrated)},"
                     f"{_fmt(r.power_diff)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_report(out_dir: Path, prov: dict, report: RunReport) -> None:
    _write_records_csv(out_dir / "records.csv", prov, report)
    summary = {"provenance": prov,
               "summary": {"mean_t1e": report.mean_t1e,
                           "mean_power_diff": report.mean_power_diff,
                           "t1e_min": report.t1e_min,
                           "t1e_max": report.t1e_max,
                           "t1e_median": report.t1e_median,
                           "power_diff_min": report.power_diff_min,
                           "power_diff_max": report.power_diff_max,
                           "power_diff_median": report.power_diff_median},
               "scenario": report.scenario}
    _atomic_write(out_dir / "summary.json",
                  json.dumps(summary, indent=2) + "\n")


def _write_profile(out_dir: Path, prov: dict, profile) -> None:
    lines = [_provenance_line(prov),
             "offset,t1e,power_borrow,power_calibrated,power_diff"]
    for i, x in enumerate(profile.grid):
        lines.append(f"{_fmt17(x)},{_fmt17(profile.t1e[i])},"
                     f"{_fmt17(profile.power_borrow[i])},"
                     f"{_fmt17(profile.power_calibrated)},"
                     f"{_fmt17(profile.power_diff[i])}")
    _atomic_write(out_dir / "profile.csv", "\n".join(lines) + "\n")
    summary = {"provenance": prov,
               "profile": {"alphaB_max": profile.alphaB_max,
                           "argmax_offset": profile.argmax_offset,
                           "power_calibrated": profile.power_calibrated}}
    _atomic_write(out_dir / "summary.json",
                  json.dumps(summary, indent=2) + "\n")


def _region_scenario(cfg: ScenarioConfig):
    if cfg.design != "one-arm":
        raise ConfigError("the region table is defined for the one-arm "
                          "design only")
    return cfg.scenario()


def _run_region(cfg: ScenarioConfig, out_dir: Path) -> None:
    scen = _region_scenario(cfg)
    method = cfg.borrowing_method()
    pts = cfg.grid_points()
    echo = scenario_echo(scen, method)
    prov = _provenance(cfg, echo, None, len(pts))
    lines = [_provenance_line(prov), "dE_mean,interval_index,lo,hi"]
    counts = []
    for de in pts:
        reg = rejection_region(scen, de, method)
        counts.append({"dE_mean": de, "interval_count": interval_count(reg),
                       "flagged": reg.flagged})
        for i, iv in enumerate(reg.intervals):
            lines.append(f"{_fmt(de)},{i},{_fmt(iv.lo)},{_fmt(iv.hi)}")
    _atomic_write(out_dir / "region.csv", "\n".join(lines) + "\n")
    summary = {"provenance": prov, "regions": counts}
    _atomic_write(out_dir / "summary.json",
                  json.dumps(summary, indent=2) + "\n")


def _dispatch_inner(subcommand: str, cfg: ScenarioConfig, out_dir: Path,
                    mc_audit: bool, tol: float) -> None:
    if mc_audit and subcommand in ("one-arm-grid", "two-arm-profile",
                                   "region"):
        raise ConfigError(f"--mc-audit is not allowed for {subcommand!r}")
    if subcommand in ("algorithm1", "one-arm-fixed"):
        if subcommand == "one-arm-fixed" and cfg.design != "one-arm":
            raise ConfigError("subcommand 'one-arm-fixed' requires design "
                              "'one-arm'")
        if cfg.thetaE is None:
            raise ConfigError("this run requires the 'thetaE' key")
        nsim = cfg.nsim or DEFAULT_NSIM_FIXED
        report = run_algorithm1(cfg.scenario(), cfg.thetaE,
                                cfg.borrowing_method(), nsim, cfg.seed,
                                literal=mc_audit)
        _write_report(out_dir, _provenance(cfg, report.scenario, cfg.seed,
                                           nsim), report)
    elif subcommand in ("algorithm2", "one-arm-random"):
        if subcommand == "one-arm-random" and cfg.design != "one-arm":
            raise ConfigError("subcommand 'one-arm-random' requires design "
                              "'one-arm'")
        if cfg.thetaE is None:
            raise ConfigError("this run requires the 'thetaE' key")
        nsim = cfg.nsim or DEFAULT_NSIM_RANDOM
        offsets = cfg.grid_points() if (cfg.design == "two-arm"
                                        and cfg.grid is not None) else None
        report = run_algorithm2(cfg.scenario(), cfg.thetaE,
                                cfg.borrowing_method(), nsim, cfg.seed,
                                literal=mc_audit, offsets=offsets)
        _write_report(out_dir, _provenance(cfg, report.scenario, cfg.seed,
                                           nsim), report)
    elif subcommand == "one-arm-grid":
        if cfg.design != "one-arm":
            raise ConfigError("subcommand 'one-arm-grid' requires design "
                              "'one-arm'")
        report = run_grid(cfg.scenario(), cfg.grid_points(),
                          cfg.borrowing_method())
        _write_report(out_dir, _provenance(cfg, report.scenario, None,
                                           report.nsim), report)
    elif subcommand == "two-arm-profile":
        if cfg.design != "two-arm":
            raise ConfigError("subcommand 'two-arm-profile' requires design "
                              "'two-arm'")
        offsets = cfg.grid_points() if cfg.grid is not None \
            else DEFAULT_TWO_ARM_OFFSETS
        profile = power_profile(cfg.scenario(), 0.0, cfg.borrowing_method(),
                                offsets)
        echo = scenario_echo(cfg.scenario(), cfg.borrowing_method())
        _write_profile(out_dir, _provenance(cfg, echo, None, len(offsets)),
                       profile)
    elif subcommand == "two-arm-random":
        if cfg.design != "two-arm":
            raise ConfigError("subcommand 'two-arm-random' requires design "
                              "'two-arm'")
        if cfg.thetaE is None:
            raise ConfigError("this run requires the 'thetaE' key")
        offsets = cfg.grid_points() if cfg.grid is not None \
            else DEFAULT_TWO_ARM_OFFSETS
        scen = cfg.scenario()
        method = cfg.borrowing_method()
        if mc_audit:
            nsim = cfg.nsim or DEFAULT_NSIM_RANDOM
            profile = oc_random_external_two_arm_mc(scen, cfg.thetaE, method,
                                                    offsets, nsim, cfg.seed)
            seed, count = cfg.seed, nsim
        else:
            profile = oc_random_external_two_arm(scen, cfg.thetaE, method,
                                                 offsets, tol)
            seed, count = None, len(offsets)
        echo = scenario_echo(scen, method, cfg.thetaE)
        _write_profile(out_dir, _provenance(cfg, echo, seed, count), profile)
    elif subcommand == "region":
        _run_region(cfg, out_dir)
    else:
        raise ConfigError(f"unknown subcommand: {subcommand!r}")


def dispatch(subcommand: str, cfg: ScenarioConfig, out_dir, *,
             mc_audit: bool = False, tol: float = 1e-9) -> int:
    """Run one subcommand; returns a process exit status.

    0 success, 2 configuration error, 3 numeric non-convergence, 4 I/O
    error.  Output files are written atomically (temp file + rename), so a
    failed run never leaves partial files.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borrowoc",
        description="Operating characteristics of borrowing-based tests "
                    "against their calibrated comparators.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
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
                       help="replace exact engines by literal Monte Carlo "
                            "decision sampling (not allowed for one-arm-grid, "
                            "two-arm-profile and region)")
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
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a single flat JSON object")
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.nsim is not None:
            raw["nsim"] = args.nsim
        cfg = parse_config(raw)
    except json.JSONDecodeError as exc:
        print(f"configuration error: config is not valid JSON: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return dispatch(args.subcommand, cfg, args.out,
                    mc_audit=args.mc_audit, tol=args.tol)


if __name__ == "__main__":
    sys.exit(main())
