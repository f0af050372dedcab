"""Seeded command lists for the benchmark workloads.

A workload is a fixed list of ``borrowoc`` CLI invocations.  The workload
seed only generates the configs (external means drawn from fixed strata,
grid shifts and the runs' RNG seeds); the program sees nothing but the
configs.  This module uses the standard library only, so importing it adds
nothing to the measured set-up time beyond its own generation work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ONE_ARM = {"design": "one-arm", "n": 25, "sigma": 1.0, "theta0": 0.0,
           "theta1": 0.5, "alpha": 0.025}
TWO_ARM = {"design": "two-arm", "nc": 15, "nt": 15, "nE": 10, "sigma": 1.0,
           "theta1": 1.0, "alpha": 0.025}

# external-mean strata of the EB one-arm-random runs.  [0.05, 0.15) is the
# two-interval band at nE=1000; [1, 4] is far from theta0, where the region
# scan grows with the distance.  Each stratum and nE gets an antithetic pair
# of draws, lo + u (hi - lo) and lo + (1 - u) (hi - lo), so the cost of a
# pass stays nearly the same from seed to seed.
ONEARM_RANDOM_STRATA = ((-0.5, 0.05), (0.05, 0.15), (0.15, 1.0), (1.0, 4.0))
ONEARM_RANDOM_NE = (20, 1000)
ONEARM_RANDOM_NSIM = 1500

# centre of the two-interval band at nE=1000: most replicates take the
# multi-interval path.  Across the whole band, [0.06, 0.14], the command's
# cost varied twofold with the draw.
FIXED_NE1000_THETA = (0.09, 0.11)

GRID_POINTS = 601
GRID_STEP = 0.005


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, config document and extra flags."""

    name: str
    subcommand: str
    config: dict
    flags: tuple = field(default=())

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.subcommand, "--config", config_path, "--out", out_dir,
                *self.flags]


def _one_arm(**over) -> dict:
    return {**ONE_ARM, **over}


def _two_arm(**over) -> dict:
    return {**TWO_ARM, **over}


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def onearm_random(rng: random.Random) -> list:
    """EB one-arm-random runs: the vectorized region scan."""
    cmds = []
    for nE in ONEARM_RANDOM_NE:
        for k, (lo, hi) in enumerate(ONEARM_RANDOM_STRATA):
            u = rng.random()
            for half, frac in (("a", u), ("b", 1.0 - u)):
                cfg = _one_arm(method="eb-pp", nE=nE,
                               thetaE=lo + frac * (hi - lo),
                               nsim=ONEARM_RANDOM_NSIM, seed=_seed(rng))
                cmds.append(Command(f"random-eb-nE{nE}-s{k}{half}",
                                    "one-arm-random", cfg))
    return cmds


def onearm_fixed(rng: random.Random) -> list:
    """Fixed-external, grid and region runs: the scalar region path and the
    runner and CLI bookkeeping of 200k records."""
    start = rng.uniform(-1.0, -0.995)
    grid = {"start": start, "stop": start + GRID_STEP * (GRID_POINTS - 1),
            "step": GRID_STEP}
    eb20 = _one_arm(method="eb-pp", nE=20, thetaE=rng.uniform(0.0, 0.5),
                    seed=_seed(rng))
    return [
        Command("fixed-eb-nE1000", "one-arm-fixed",
                _one_arm(method="eb-pp", nE=1000,
                         thetaE=rng.uniform(*FIXED_NE1000_THETA), nsim=300,
                         seed=_seed(rng))),
        Command("fixed-eb-nE20", "one-arm-fixed", {**eb20, "nsim": 500}),
        Command("fixed-eb-nE20-audit", "one-arm-fixed", {**eb20, "nsim": 100},
                ("--mc-audit",)),
        Command("grid-eb-nE20", "one-arm-grid",
                _one_arm(method="eb-pp", nE=20, grid=grid)),
        Command("grid-eb-nE1000", "one-arm-grid",
                _one_arm(method="eb-pp", nE=1000, grid=grid)),
        Command("region-eb-nE1000", "region",
                _one_arm(method="eb-pp", nE=1000, grid=grid)),
        Command("grid-fixedpp-nE20", "one-arm-grid",
                _one_arm(method="fixed-pp", delta=0.5, nE=20, grid=grid)),
        Command("random-fixedpp-nE20", "one-arm-random",
                _one_arm(method="fixed-pp", delta=0.5, nE=20,
                         thetaE=rng.uniform(-0.5, 1.0), nsim=100_000,
                         seed=_seed(rng))),
        Command("random-none-nE20", "one-arm-random",
                _one_arm(method="none", nE=20, thetaE=rng.uniform(-0.5, 1.0),
                         nsim=100_000, seed=_seed(rng))),
    ]


def twoarm(rng: random.Random) -> list:
    start = rng.uniform(-3.0, -2.9)
    offsets = {"start": start, "stop": start + 6.0, "step": 0.25}
    theta_random = rng.uniform(-1.0, 1.0)
    return [
        Command("profile-eb", "two-arm-profile",
                _two_arm(method="eb-pp", grid=offsets)),
        Command("profile-fixedpp", "two-arm-profile",
                _two_arm(method="fixed-pp", delta=0.5, grid=offsets)),
        Command("alg1-eb", "algorithm1",
                _two_arm(method="eb-pp", thetaE=rng.uniform(-1.0, 1.0),
                         nsim=4, seed=_seed(rng))),
        Command("random-eb-quad", "two-arm-random",
                _two_arm(method="eb-pp", thetaE=theta_random)),
        Command("random-fixedpp-quad", "two-arm-random",
                _two_arm(method="fixed-pp", delta=0.5,
                         thetaE=rng.uniform(-1.0, 1.0))),
        Command("random-eb-audit", "two-arm-random",
                _two_arm(method="eb-pp", thetaE=theta_random, nsim=2500,
                         seed=_seed(rng)),
                ("--mc-audit",)),
        Command("alg2-eb", "algorithm2",
                _two_arm(method="eb-pp", thetaE=rng.uniform(-1.0, 1.0),
                         nsim=2500, seed=_seed(rng))),
    ]


def onearm(rng: random.Random) -> list:
    # one workload, not two: a run needs about 50 s to average over the
    # host's slow stretches, and the time limit of all runs allows that
    # for two workloads only
    return onearm_random(rng) + onearm_fixed(rng)


WORKLOADS = {"onearm": onearm, "twoarm": twoarm}


def generate(workload: str, seed: int) -> list:
    """The workload's command list for ``seed``; same seed, same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def write_configs(cmds, directory: Path) -> dict:
    """Write each command's config as JSON; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cmd in cmds:
        path = directory / f"{cmd.name}.json"
        path.write_text(json.dumps(cmd.config), encoding="utf-8")
        paths[cmd.name] = str(path)
    return paths
