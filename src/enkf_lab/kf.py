"""The exact Kalman filter for linear-Gaussian models.

kf_run is the forecast/gain/analysis recursion: it propagates the exact
filtering mean and covariance and exposes the exact gain, which doubles as
the reference gain for the ensemble experiments.
All covariance outputs are explicitly symmetrized. The gain's SPD system is
checked by a Cholesky factorization and solved once, never by forming an
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GaussianState, LinearModel, validate_model


def _forecast_cov(A: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """A Q A^T, symmetrized, of Q or of each slice of a (B, m, m) stack of Q."""
    cov = A @ cov @ A.T
    return 0.5 * (cov + cov.mT)


def kf_gain(forecast_cov: np.ndarray, H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Gain Q^f H^T (H Q^f H^T + R)^{-1}, by one solve.

    Solves the SPD system (H Q^f H^T + R) Z = H Q^f once, after a Cholesky
    factorization has checked that it is positive definite, and returns Z^T.
    R must be symmetric positive definite, which keeps the system well-posed
    even when the forecast covariance is rank deficient or zero. A stack of
    forecast covariances, shape (B, m, m), gives the stack of their gains.
    """
    forecast_cov = np.asarray(forecast_cov, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    hq = H @ forecast_cov
    innovation_cov = hq @ H.T + R
    innovation_cov = 0.5 * (innovation_cov + innovation_cov.mT)
    # Reports record this message in metadata.failures, so it stays as it was.
    if not np.all(np.isfinite(innovation_cov)):
        raise ValueError("array must not contain infs or NaNs")
    # The Cholesky factorization only checks positive definiteness. One solve
    # with the innovation covariance gives the gain, returned C-contiguous so
    # that a stack's later products round as a single chain's do.
    try:
        np.linalg.cholesky(innovation_cov)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("innovation covariance is not positive definite") from exc
    gain = np.ascontiguousarray(np.linalg.solve(innovation_cov, hq).mT)
    if not np.all(np.isfinite(gain)):
        raise np.linalg.LinAlgError("Kalman gain has non-finite entries")
    return gain


@dataclass(frozen=True, eq=False)
class KalmanStep:
    forecast: GaussianState
    gain: np.ndarray
    analysis: GaussianState


@dataclass(frozen=True, eq=False)
class KalmanTrajectory:
    """Output of a filter run: the initial state plus one record per step."""

    init: GaussianState
    steps: tuple[KalmanStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def analysis(self, k: int) -> GaussianState:
        """Filtering distribution after step k; k=0 is the initial state."""
        if k == 0:
            return self.init
        return self._step(k).analysis

    def forecast(self, k: int) -> GaussianState:
        return self._step(k).forecast

    def gain(self, k: int) -> np.ndarray:
        return self._step(k).gain

    def _step(self, k: int) -> KalmanStep:
        if not 1 <= k <= len(self.steps):
            raise ValueError(f"step index {k} out of range 1..{len(self.steps)}")
        return self.steps[k - 1]


def kf_run(model: LinearModel, init: GaussianState) -> KalmanTrajectory:
    """Check the problem with validate_model, then run the exact filter over
    all model steps.

    Each step forecasts the exact law of the affine image, mean A u + b and
    covariance A Q A^T (the dynamics carry no process noise), takes the gain
    L of that forecast, and conditions on the data: u + L (d - H u) and
    (I - L H) Q^f.
    """
    validate_model(model, init)
    steps: list[KalmanStep] = []
    state = init
    for step in model.steps:
        forecast = GaussianState(step.A @ state.mean + step.b, _forecast_cov(step.A, state.cov))
        gain = kf_gain(forecast.cov, step.H, step.R)
        mean = forecast.mean + gain @ (step.data - step.H @ forecast.mean)
        cov = (np.eye(forecast.dim) - gain @ step.H) @ forecast.cov
        state = GaussianState(mean, 0.5 * (cov + cov.T))
        steps.append(KalmanStep(forecast=forecast, gain=gain, analysis=state))
    return KalmanTrajectory(init=init, steps=tuple(steps))
