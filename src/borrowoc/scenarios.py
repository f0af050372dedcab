"""Trial configuration records for the one-arm and two-arm designs."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .statmath import DomainError, _check_count, _check_finite, _check_positive


def _check_shared(scen) -> None:
    """Validate and normalize the fields both designs share: nE, sigma,
    alpha, c (default 1 - alpha, at least 1/2) and sigmaE (default sigma)."""
    object.__setattr__(scen, "nE", _check_count("nE", scen.nE))
    object.__setattr__(scen, "sigma", _check_positive("sigma", scen.sigma))
    alpha = float(scen.alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"'alpha' must lie in (0, 1), got {scen.alpha!r}")
    object.__setattr__(scen, "alpha", alpha)
    # c >= 1/2 makes the one-arm level exact (oc_onearm.region_oc_arrays)
    c = 1.0 - alpha if scen.c is None else float(scen.c)
    if not 0.5 <= c < 1.0:
        if scen.c is None:
            raise DomainError(f"'alpha' must not exceed 0.5 when 'c' is "
                              f"omitted (c = 1 - alpha), got {scen.alpha!r}")
        raise DomainError(f"'c' must lie in [0.5, 1), got {scen.c!r}")
    object.__setattr__(scen, "c", c)
    sigmaE = scen.sigma if scen.sigmaE is None else _check_positive("sigmaE", scen.sigmaE)
    object.__setattr__(scen, "sigmaE", sigmaE)


@dataclass(frozen=True)
class ScenarioOneArm:
    """One-arm trial testing H0: theta <= theta0 with external borrowing.

    ``c`` is the posterior-probability rejection threshold, in [1/2, 1)
    (default ``1 - alpha``, the calibration-free setting in which borrowing
    shifts the operating characteristics); ``sigmaE`` defaults to ``sigma``;
    ``theta1`` is the fixed alternative at which power is evaluated.
    """

    n: int
    sigma: float
    theta0: float
    alpha: float
    nE: int
    theta1: float
    c: float | None = None
    sigmaE: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_count("n", self.n))
        _check_shared(self)
        object.__setattr__(self, "theta0", _check_finite("theta0", self.theta0))
        object.__setattr__(self, "theta1", _check_finite("theta1", self.theta1))
        if not self.theta1 > self.theta0:
            raise DomainError(f"'theta1' must exceed 'theta0' ({self.theta0!r}), "
                              f"got {self.theta1!r}")

    @property
    def se(self) -> float:
        """Standard error of the current sample mean."""
        return self.sigma / math.sqrt(self.n)

    @property
    def seE(self) -> float:
        """Standard error of the external sample mean."""
        return self.sigmaE / math.sqrt(self.nE)


@dataclass(frozen=True)
class ScenarioTwoArm:
    """Two-arm trial testing H0: theta_t - theta_c <= 0, with external data
    borrowed into the control arm only (the treatment arm always carries a
    flat prior).

    ``theta1`` is the treatment-minus-control effect at which power is
    evaluated; defaults for ``c`` and ``sigmaE`` mirror the one-arm record.
    """

    nc: int
    nt: int
    nE: int
    sigma: float
    theta1: float
    alpha: float
    c: float | None = None
    sigmaE: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nc", _check_count("nc", self.nc))
        object.__setattr__(self, "nt", _check_count("nt", self.nt))
        _check_shared(self)
        theta1 = _check_finite("theta1", self.theta1)
        if not theta1 > 0.0:
            raise DomainError(f"'theta1' must be positive, got {self.theta1!r}")
        object.__setattr__(self, "theta1", theta1)

    @property
    def seE(self) -> float:
        return self.sigmaE / math.sqrt(self.nE)
