"""Perturbed-observation EnKF, the exact-gain reference ensemble, and the
coupled advance of both on shared draws.

The coupled construction runs two ensembles side by side from one initial
ensemble: X is updated with the gain computed from its own forecast sample
covariance, the reference ensemble U with the exact Kalman gain. Each step
draws a single perturbed-data ensemble and feeds it to both updates, so
member-wise differences X_i - U_i isolate the sampling error of the gain.

The step functions take one ensemble or a stack of ensembles of one size
(see ``Ensemble``) and treat each slice of a stack exactly as they would
treat it alone, bit for bit. ``coupled_run`` advances one chain;
``chunk_errors``, the study kernel, advances the chains of a chunk of
replicates as one stack per ensemble size, and runs a chunk whose stack
raises again one replicate at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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

    The ensembles may be stacks of B chains, with a stack of B ensemble gains
    and the one exact gain of the step. At step 0 the ensembles are one and
    the same object; the gains are None because no analysis has happened yet.
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


# Columns of the scalars chunk_errors keeps of each coupled state.
MEMBER_DIFF, MEMBER_NORM, MEAN_ERR, COV_ERR, GAIN_ERR = range(5)


def _norms(rows: np.ndarray) -> np.ndarray:
    # Euclidean norm of each contiguous row, the square root of a dot
    # product, as np.linalg.norm computes it for one vector (Frobenius norm
    # included), so a stack gives each chain's norms bit for bit.
    return np.sqrt(np.vecdot(rows, rows))


def _errors(state: CoupledState, exact: GaussianState) -> np.ndarray:
    """The five scalars of the column constants above, for every chain of a
    stacked state: shape (B, 5), NaN gain error at step 0."""
    x = state.enkf_ensemble
    batch = x.members.shape[:-2]
    # Member 1 copied to contiguous rows: a strided view rounds differently.
    member = np.ascontiguousarray(x.members[..., 0])
    errors = np.full(batch + (5,), np.nan)
    errors[..., MEMBER_DIFF] = _norms(member - state.reference_ensemble.members[..., 0])
    errors[..., MEMBER_NORM] = _norms(member)
    errors[..., MEAN_ERR] = _norms(sample_mean(x) - exact.mean)
    errors[..., COV_ERR] = _norms((sample_cov(x) - exact.cov).reshape(batch + (-1,)))
    if state.ensemble_gain is not None:
        gain_diff = state.ensemble_gain - state.exact_gain
        errors[..., GAIN_ERR] = _norms(gain_diff.reshape(batch + (-1,)))
    return errors


def chunk_errors(
    model: LinearModel, init: GaussianState, seed: int, replicates: Sequence[int],
    n_grid: tuple[int, ...], kf_trajectory: KalmanTrajectory,
) -> tuple[np.ndarray, dict[int, dict[int, str]]]:
    """A chunk of study replicates of the coupled construction at every N of
    ``n_grid``, as one stack of chains per N.

    Steps are the outer loop and N the inner one. Each step draws once per
    replicate, at the largest N; by the prefix property the first n columns
    are the size-n draw, so every chain is bit-identical to ``coupled_run``
    of its replicate at that n. Each stacked state is reduced at once to the
    five scalars of the column constants above, so one stacked state per N
    and one step's draws are alive at a time.

    Returns the scalars, shape (len(replicates), len(n_grid), steps + 1, 5),
    NaN where there is none (the gain at step 0, a failed chain), and a map
    from each replicate with a failure to {N: "ExcType: message"}. A single
    replicate records the first error at each N: a failed step stops that N,
    a failed draw every N still running. A chunk of several replicates stops
    at its first failed draw or step, and runs this function again on each
    replicate alone. A slice of a stack is computed as it would be alone, so
    the rerun gives the same scalars and errors; but a failing chunk is
    computed about twice, and its rerun is not batched.
    """
    replicates = tuple(replicates)
    n_max = max(n_grid)
    errors = np.full((len(replicates), len(n_grid), len(model.steps) + 1, 5), np.nan)
    stacked = len(replicates) > 1
    failed: dict[int, str] = {}  # the first error at each N
    states: dict[int, CoupledState] = {}
    for k in range(len(model.steps) + 1):
        running = [j for j, n in enumerate(n_grid) if n not in failed]
        if not running or failed and stacked:
            break
        try:
            if k == 0:
                draws = [init_ensemble(seed, r, n_max, init).members for r in replicates]
            else:
                step = model.step(k)
                draws = [perturb_data(seed, r, k, n_max, step.data, step.R).members
                         for r in replicates]
        except Exception as exc:  # reported per (replicate, N) by run_study
            failed.update((n_grid[j], f"{type(exc).__name__}: {exc}") for j in running)
            break
        # One draw is stacked as a view, so the largest-N data are not copied.
        draws = np.stack(draws) if stacked else draws[0][None]
        exact = kf_trajectory.analysis(k)
        for j in running:
            n = n_grid[j]
            data = Ensemble(np.ascontiguousarray(draws[..., :n]))
            try:
                states[n] = (CoupledState(data, data, step=0) if k == 0
                             else coupled_step(states[n], model, data, kf_trajectory))
            except Exception as exc:  # reported per (replicate, N) by run_study
                failed[n] = f"{type(exc).__name__}: {exc}"
                if stacked:
                    break
                continue
            errors[:, j, k] = _errors(states[n], exact)
    if failed and stacked:  # run again one replicate at a time
        parts = [chunk_errors(model, init, seed, (r,), n_grid, kf_trajectory)
                 for r in replicates]
        return (np.concatenate([part for part, _ in parts]),
                {r: errs for _, lost in parts for r, errs in lost.items()})
    return errors, ({replicates[0]: failed} if failed else {})
