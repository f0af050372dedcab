"""Posterior construction under external-data borrowing, and the Bayesian
test decisions built on it.

Everything operates on sufficient statistics: an arm is its sample mean,
sample size, and known observation-level standard deviation.  Raw
observation vectors are reduced at the ingestion boundary
(:meth:`ArmSummary.from_observations`) and never travel further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statmath import (DomainError, Interval, _check_count, _check_finite,
                       _check_positive, maximize_1d, norm_cdf, norm_quantile)

NO_BORROWING = "none"
FIXED_POWER_PRIOR = "fixed-pp"
EMPIRICAL_BAYES = "eb-pp"
_KINDS = (NO_BORROWING, FIXED_POWER_PRIOR, EMPIRICAL_BAYES)


@dataclass(frozen=True)
class ArmSummary:
    """Sufficient statistics of one arm: sample mean, size, observation sd."""

    mean: float
    n: int
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _check_finite("mean", self.mean))
        _check_count("n", self.n)
        object.__setattr__(self, "sigma", _check_positive("sigma", self.sigma))

    @classmethod
    def from_observations(cls, values, sigma: float) -> "ArmSummary":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("observations must form a non-empty 1-D vector")
        return cls(mean=float(arr.mean()), n=int(arr.size), sigma=sigma)

    @property
    def se(self) -> float:
        """Standard error of the sample mean."""
        return self.sigma / math.sqrt(self.n)


@dataclass(frozen=True)
class BorrowingMethod:
    """How external data enter the prior.

    kind is one of ``"none"`` (flat prior, external data discarded),
    ``"fixed-pp"`` (power prior with a fixed weight ``delta``), or
    ``"eb-pp"`` (power prior whose weight is re-estimated from the data by
    marginal-likelihood maximization).  ``delta`` is present exactly for
    ``"fixed-pp"``.
    """

    kind: str
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"'kind' must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == FIXED_POWER_PRIOR:
            if self.delta is None:
                raise DomainError("'delta' is required when method is 'fixed-pp'")
            delta = float(self.delta)
            if not 0.0 <= delta <= 1.0:
                raise DomainError(f"'delta' must lie in [0, 1], got {self.delta!r}")
            object.__setattr__(self, "delta", delta)
        elif self.delta is not None:
            raise DomainError("'delta' is only allowed when method is 'fixed-pp'")

    @classmethod
    def none(cls) -> "BorrowingMethod":
        return cls(NO_BORROWING)

    @classmethod
    def fixed_power_prior(cls, delta: float) -> "BorrowingMethod":
        return cls(FIXED_POWER_PRIOR, delta)

    @classmethod
    def empirical_bayes(cls) -> "BorrowingMethod":
        return cls(EMPIRICAL_BAYES)


@dataclass(frozen=True)
class NormalPosterior:
    """Conjugate normal posterior for a location parameter."""

    mean: float
    sd: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _check_finite("mean", self.mean))
        object.__setattr__(self, "sd", _check_positive("sd", self.sd))


def fixed_pp_posterior(current: ArmSummary, external: ArmSummary,
                       delta: float) -> NormalPosterior:
    """Posterior for the mean under a power prior with fixed weight delta.

    The external likelihood raised to delta acts as a normal prior with
    variance sigmaE^2 / (delta nE); precision weighting then gives

        mean = (delta nE dbarE + n dbar) / (delta nE + n)       (equal sds)
        sd   = sigma / sqrt(delta nE + n)

    delta=0 discards the external data (flat-prior posterior); delta=1 pools
    both samples.
    """
    delta = BorrowingMethod.fixed_power_prior(delta).delta
    a = delta * external.n / external.sigma**2
    b = current.n / current.sigma**2
    return NormalPosterior(mean=(a * external.mean + b * current.mean) / (a + b),
                           sd=1.0 / math.sqrt(a + b))


def eb_delta(current: ArmSummary, external: ArmSummary) -> float:
    """Empirical Bayes power-prior weight.

    Maximizes over delta in (0, 1] the marginal likelihood of the current
    mean, i.e. the N(dbarE, sigma^2/n + sigmaE^2/(delta nE)) density at
    dbar.  Closed form:

        delta_hat = (sigmaE^2/nE) /
                    (max{(dbar-dbarE)^2, sigma^2/n + sigmaE^2/nE} - sigma^2/n)

    which equals 1 exactly when (dbar-dbarE)^2 <= sigma^2/n + sigmaE^2/nE
    (agreement regime: full borrowing), and decays like 1/conflict^2 as the
    means drift apart.
    """
    v_cur = current.sigma**2 / current.n
    v_ext = external.sigma**2 / external.n
    q = (current.mean - external.mean) ** 2
    if q <= v_cur + v_ext:
        return 1.0
    return min(v_ext / (q - v_cur), 1.0)


def eb_delta_numeric(current: ArmSummary, external: ArmSummary,
                     tol: float = 1e-10) -> float:
    """Empirical Bayes weight by direct numeric maximization.

    Independent oracle for :func:`eb_delta`: maximizes the log marginal
    likelihood over delta in [1e-12, 1] with the generic 1-D maximizer
    instead of the closed form.
    """
    v_cur = current.sigma**2 / current.n
    prec_ext = external.n / external.sigma**2
    q = (current.mean - external.mean) ** 2

    def log_marginal(delta: float) -> float:
        v = v_cur + 1.0 / (delta * prec_ext)
        return -0.5 * math.log(v) - 0.5 * q / v

    argmax, _ = maximize_1d(log_marginal, Interval(1e-12, 1.0), tol=tol)
    return argmax


def posterior_tail(post: NormalPosterior, theta0: float) -> float:
    """P(theta > theta0 | data) = Phi((mean - theta0) / sd)."""
    return norm_cdf((post.mean - float(theta0)) / post.sd)


def posterior_for(current: ArmSummary, external: ArmSummary,
                  method: BorrowingMethod) -> NormalPosterior:
    """Posterior for the current mean under the given borrowing method."""
    if method.kind == NO_BORROWING:
        return fixed_pp_posterior(current, external, 0.0)
    if method.kind == FIXED_POWER_PRIOR:
        return fixed_pp_posterior(current, external, method.delta)
    return fixed_pp_posterior(current, external, eb_delta(current, external))


def decide_borrow(current: ArmSummary, external: ArmSummary,
                  method: BorrowingMethod, theta0: float, c: float) -> int:
    """Posterior-probability test decision: 1 iff P(theta > theta0) > c.

    The inequality is strict, so the boundary itself never rejects.
    """
    if not 0.0 <= c < 1.0:
        raise DomainError(f"c must lie in [0, 1), got {c!r}")
    return int(posterior_tail(posterior_for(current, external, method), theta0) > c)


def decide_no_borrow(current: ArmSummary, theta0: float, alpha: float) -> int:
    """One-sided z-test decision at level alpha (the calibration target).

    1 iff (dbar - theta0) sqrt(n)/sigma exceeds the (1-alpha) normal
    quantile.  Degenerate levels behave as limits: alpha=0 never rejects,
    alpha=1 always rejects -- the latter arises when calibrating to a
    borrowing test whose size has saturated at 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    z = (current.mean - float(theta0)) / current.se
    # -quantile(alpha) equals the (1-alpha) quantile without losing the
    # relative precision of a tiny alpha, and yields -inf/+inf at the ends
    return int(z > -norm_quantile(alpha))


def posterior_arrays(dbar, de, n: int, sigma: float, nE: int, sigmaE: float,
                     method: BorrowingMethod):
    """Vectorized posterior (mean, sd) as the data means vary.

    ``dbar`` (current mean) and ``de`` (external mean) broadcast against each
    other; under ``eb-pp`` the weight is re-estimated elementwise, exactly as
    the scalar path does.  Returns ``(mean, sd)`` arrays.
    """
    dbar = np.asarray(dbar, dtype=float)
    de = np.asarray(de, dtype=float)
    b = n / sigma**2
    if method.kind == EMPIRICAL_BAYES:
        v_cur = sigma**2 / n
        v_ext = sigmaE**2 / nE
        q = (dbar - de) ** 2
        delta = np.where(q <= v_cur + v_ext, 1.0,
                         np.minimum(v_ext / np.maximum(q - v_cur, v_ext), 1.0))
    elif method.kind == FIXED_POWER_PRIOR:
        delta = method.delta
    else:
        delta = 0.0
    a = delta * nE / sigmaE**2
    mean = (a * de + b * dbar) / (a + b)
    sd = np.broadcast_to(1.0 / np.sqrt(np.asarray(a + b, dtype=float)), mean.shape)
    return mean, sd


def tail_arrays(dbar, de, n: int, sigma: float, nE: int, sigmaE: float,
                method: BorrowingMethod, theta0: float):
    """Vectorized posterior tail P(theta > theta0 | data) over data means."""
    mean, sd = posterior_arrays(dbar, de, n, sigma, nE, sigmaE, method)
    return norm_cdf((mean - theta0) / sd)
