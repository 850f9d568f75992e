"""Perturbed-observation EnKF, the exact-gain reference ensemble, and the
coupled advance of both on shared draws.

The coupled construction runs two ensembles side by side from one initial
ensemble: X is updated with the gain computed from its own forecast sample
covariance, the reference ensemble U with the exact Kalman gain. Each step
draws a single perturbed-data ensemble and feeds it to both updates, so
member-wise differences X_i - U_i isolate the sampling error of the gain.
``replicate_errors`` runs a study replicate at every ensemble size on shared draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import Ensemble, init_ensemble, perturb_data, sample_cov, sample_mean
from .kf import GainMatrix, KalmanTrajectory, kf_gain, kf_run
from .model import GaussianState, LinearModel, apply_model

# Test hook: maps a step index to a replacement for the forecast sample
# covariance used in the gain computation.
CovOverride = Callable[[int], np.ndarray]


@dataclass(frozen=True, eq=False)
class CoupledState:
    """Both ensembles after step ``step``, with the gains of the last analysis.

    At step 0 the ensembles are one and the same object; the gains are None
    because no analysis has happened yet.
    """

    enkf_ensemble: Ensemble
    reference_ensemble: Ensemble
    step: int
    ensemble_gain: GainMatrix | None = None
    exact_gain: GainMatrix | None = None

    def __post_init__(self):
        if self.enkf_ensemble.members.shape != self.reference_ensemble.members.shape:
            raise ValueError(
                "EnKF and reference ensembles must have identical shape, got "
                f"{self.enkf_ensemble.members.shape} and "
                f"{self.reference_ensemble.members.shape}"
            )
        if self.step == 0 and not np.array_equal(
            self.enkf_ensemble.members, self.reference_ensemble.members
        ):
            raise ValueError("at step 0 both ensembles must be bit-identical")


def enkf_forecast(model: LinearModel, k: int, ensemble: Ensemble) -> Ensemble:
    """Push every member through the step-k dynamics."""
    return Ensemble(apply_model(model, k, ensemble.members))


def enkf_analysis(
    forecast: Ensemble, data_ensemble: Ensemble, gain: GainMatrix, H: np.ndarray
) -> Ensemble:
    """Member-wise update x_i + K (d_i - H x_i), applied as one matrix expression."""
    if forecast.size != data_ensemble.size:
        raise ValueError(
            f"forecast has {forecast.size} members but data ensemble has "
            f"{data_ensemble.size}"
        )
    xf = forecast.members
    return Ensemble(xf + gain @ (data_ensemble.members - H @ xf))


def coupled_step(
    state: CoupledState,
    model: LinearModel,
    data_ensemble: Ensemble,
    kf_trajectory: KalmanTrajectory,
    forecast_cov_override: CovOverride | None = None,
) -> CoupledState:
    """Advance both ensembles by one step on one perturbed-data ensemble.

    The caller draws ``data_ensemble`` once for step ``state.step + 1``, and
    this one matrix feeds both analyses. The exact gain comes from the
    precomputed filter trajectory (it does not depend on the ensemble), and
    the ensemble gain from the forecast sample covariance of X, unless the
    ``forecast_cov_override`` test hook substitutes another matrix.
    """
    k = state.step + 1
    step = model.step(k)
    x_forecast = enkf_forecast(model, k, state.enkf_ensemble)
    u_forecast = enkf_forecast(model, k, state.reference_ensemble)
    if forecast_cov_override is not None:
        forecast_cov = forecast_cov_override(k)
    else:
        forecast_cov = sample_cov(x_forecast)
    gain = kf_gain(forecast_cov, step.H, step.R)
    exact = kf_trajectory.gain(k)
    return CoupledState(
        enkf_ensemble=enkf_analysis(x_forecast, data_ensemble, gain, step.H),
        reference_ensemble=enkf_analysis(u_forecast, data_ensemble, exact, step.H),
        step=k, ensemble_gain=gain, exact_gain=exact,
    )


def coupled_run(
    model: LinearModel,
    init: GaussianState,
    seed: int,
    replicate: int,
    n: int,
    kf_trajectory: KalmanTrajectory | None = None,
    forecast_cov_override: CovOverride | None = None,
) -> list[CoupledState]:
    """Run the coupled construction over all model steps.

    Returns one CoupledState per step plus the shared initial state at index
    0, where X and U are the same ensemble. Fully deterministic given
    (seed, replicate, n). Pass a precomputed ``kf_trajectory`` when running
    many replicates; the exact gains are replicate-independent.
    """
    if kf_trajectory is None:
        kf_trajectory = kf_run(model, init)
    initial = init_ensemble(seed, replicate, n, init)
    states = [CoupledState(enkf_ensemble=initial, reference_ensemble=initial, step=0)]
    for k, step in enumerate(model.steps, start=1):
        data = perturb_data(seed, replicate, k, n, step.data, step.R)
        states.append(
            coupled_step(states[-1], model, data, kf_trajectory, forecast_cov_override)
        )
    return states


# Columns of the scalars replicate_errors keeps of each coupled state.
MEMBER_DIFF, MEMBER_NORM, MEAN_ERR, COV_ERR, GAIN_ERR = range(5)


def _state_errors(state: CoupledState, exact: GaussianState) -> list[float]:
    x = state.enkf_ensemble
    member = x.members[:, 0]
    gain_err = (
        np.nan if state.ensemble_gain is None
        else np.linalg.norm(state.ensemble_gain - state.exact_gain, ord="fro")
    )
    return [
        np.linalg.norm(member - state.reference_ensemble.members[:, 0]),
        np.linalg.norm(member),
        np.linalg.norm(sample_mean(x) - exact.mean),
        np.linalg.norm(sample_cov(x) - exact.cov, ord="fro"),
        gain_err,
    ]


def replicate_errors(
    model: LinearModel, init: GaussianState, seed: int, replicate: int,
    n_grid: tuple[int, ...], kf_trajectory: KalmanTrajectory,
) -> tuple[np.ndarray, dict[int, str]]:
    """One replicate of the coupled construction at every N of ``n_grid``.

    Each draw is made once, at the largest N; by the prefix property its
    first n columns are the size-n draw, so the chain at each N is
    bit-identical to ``coupled_run(..., n)``. Each state is reduced at once
    to the five scalars of the column constants above, so one coupled state
    per N is alive at a time.

    Returns the scalars, shape (len(n_grid), steps + 1, 5), NaN where there
    is none (the gain at step 0, a failed chain), and a map from each failed
    N to "ExcType: message". A failure stops that N alone; a failed draw
    stops every N.
    """
    errors = np.full((len(n_grid), len(model.steps) + 1, 5), np.nan)
    failures: dict[int, str] = {}
    states: dict[int, CoupledState] = {}
    for k in range(len(model.steps) + 1):
        try:
            if k == 0:
                drawn = init_ensemble(seed, replicate, max(n_grid), init)
            else:
                step = model.step(k)
                drawn = perturb_data(seed, replicate, k, max(n_grid), step.data, step.R)
        except Exception as exc:  # fails every N still running; reported per N
            for n in n_grid:
                failures.setdefault(n, f"{type(exc).__name__}: {exc}")
            break
        exact = kf_trajectory.analysis(k)
        for j, n in enumerate(n_grid):
            if n in failures:
                continue
            try:
                drawn_n = Ensemble(np.ascontiguousarray(drawn.members[:, :n]))
                state = (CoupledState(drawn_n, drawn_n, step=0) if k == 0
                         else coupled_step(states[n], model, drawn_n, kf_trajectory))
                errors[j, k] = _state_errors(state, exact)
                states[n] = state
            except Exception as exc:  # reported per (replicate, N) by run_study
                failures[n] = f"{type(exc).__name__}: {exc}"
    return errors, failures
