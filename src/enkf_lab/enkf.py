"""Perturbed-observation EnKF, the exact-gain reference ensemble, and the
coupled advance of both on shared draws.

The coupled construction runs two ensembles side by side from one initial
ensemble: X is updated with the gain computed from its own forecast sample
covariance, the reference ensemble U with the exact Kalman gain. Each step
draws a single perturbed-data ensemble and feeds it to both updates, so
member-wise differences X_i - U_i isolate the sampling error of the gain.
With affine dynamics and no process noise, the forecast sample covariance of
X is A C A^T of its analysis sample covariance C, which each state carries:
a step forms one sample covariance, of its X analysis.

The step functions take one m x N ensemble array or a (B, m, N) stack of
ensembles of one size and treat each slice of a stack exactly as they would
treat it alone, bit for bit. ``coupled_run`` advances one chain;
``chunk_errors``, the study kernel, advances the chains of a chunk of
replicates as one stack per ensemble size, and runs a chunk whose stack
raises again one replicate at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensemble import init_ensemble, perturb_data, sample_cov, sample_mean
from .kf import KalmanTrajectory, _forecast_cov, kf_gain, kf_run
from .model import GaussianState, LinearModel, apply_model

# Test hook: maps a step index to a replacement for the forecast sample
# covariance used in the gain computation.
CovOverride = Callable[[int], np.ndarray]


@dataclass(frozen=True, eq=False)
class CoupledState:
    """Both ensembles after step ``step``, with ``sample_cov(enkf_ensemble)``
    and the gains of the last analysis.

    The ensembles may be stacks of B chains, with stacks of B covariances and
    B ensemble gains, and the one exact gain of the step. At step 0 the
    ensembles are one and the same array; the gains are None because no
    analysis has happened yet.
    """

    enkf_ensemble: np.ndarray
    reference_ensemble: np.ndarray
    enkf_cov: np.ndarray
    step: int
    ensemble_gain: np.ndarray | None = None
    exact_gain: np.ndarray | None = None


def enkf_analysis(
    forecast: np.ndarray, data_ensemble: np.ndarray, gain: np.ndarray, H: np.ndarray
) -> np.ndarray:
    """Member-wise update x_i + K (d_i - H x_i), applied as one matrix expression."""
    # A one-member data matrix would otherwise broadcast silently.
    if forecast.shape[-1] != data_ensemble.shape[-1]:
        raise ValueError(
            f"forecast has {forecast.shape[-1]} members but data ensemble has "
            f"{data_ensemble.shape[-1]}"
        )
    # forecast + gain @ (data_ensemble - H @ forecast), bit for bit, in product buffers.
    innovation = H @ forecast
    out = gain @ np.subtract(data_ensemble, innovation, out=innovation)
    out += forecast
    return out


def coupled_step(
    state: CoupledState,
    model: LinearModel,
    data_ensemble: np.ndarray,
    kf_trajectory: KalmanTrajectory,
    forecast_cov_override: CovOverride | None = None,
) -> CoupledState:
    """Advance both ensembles by one step on one perturbed-data ensemble.

    The caller draws ``data_ensemble`` once for step ``state.step + 1``, and
    this one matrix feeds both analyses. The exact gain comes from the
    precomputed filter trajectory (it does not depend on the ensemble), and
    the ensemble gain from the forecast sample covariance of X, taken as
    A C A^T of the carried covariance C (equal up to rounding), unless the
    ``forecast_cov_override`` test hook substitutes another matrix. The X
    analysis's sample covariance is formed before U is touched, while X is
    still in cache. At step 1 X and U are one array and share a forecast.
    """
    k = state.step + 1
    step = model.step(k)
    x_forecast = apply_model(model, k, state.enkf_ensemble)
    forecast_cov = (_forecast_cov(step.A, state.enkf_cov) if forecast_cov_override is None
                    else forecast_cov_override(k))
    gain = kf_gain(forecast_cov, step.H, step.R)
    x = enkf_analysis(x_forecast, data_ensemble, gain, step.H)
    x_cov = sample_cov(x)
    u_forecast = (x_forecast if state.reference_ensemble is state.enkf_ensemble
                  else apply_model(model, k, state.reference_ensemble))
    exact = kf_trajectory.gain(k)
    return CoupledState(
        enkf_ensemble=x,
        reference_ensemble=enkf_analysis(u_forecast, data_ensemble, exact, step.H),
        enkf_cov=x_cov, step=k, ensemble_gain=gain, exact_gain=exact,
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
    states = [CoupledState(initial, initial, sample_cov(initial), step=0)]
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
    batch = x.shape[:-2]
    # Member 1 copied to contiguous rows: a strided view rounds differently.
    member = np.ascontiguousarray(x[..., 0])
    rows = {
        MEMBER_DIFF: member - state.reference_ensemble[..., 0],
        MEMBER_NORM: member,
        MEAN_ERR: sample_mean(x) - exact.mean,
        COV_ERR: (state.enkf_cov - exact.cov).reshape(batch + (-1,)),
    }
    if state.ensemble_gain is not None:
        gain_diff = state.ensemble_gain - state.exact_gain
        rows[GAIN_ERR] = gain_diff.reshape(batch + (-1,))
    errors = np.full(batch + (5,), np.nan)
    for column, values in rows.items():
        errors[..., column] = _norms(values)
    # The squares of finite entries beyond about 1e154 overflow: those
    # rows alone are taken again, scaled by their largest |entry|, and
    # every other norm keeps its bits.
    if np.isinf(errors).any():
        for column, values in rows.items():
            norms = errors[..., column]
            over = np.isinf(norms) & np.isfinite(values).all(axis=-1)
            top = np.abs(values[over]).max(axis=-1)
            norms[over] = top * _norms(values[over] / top[:, None])
    return errors


# One overflow rule whatever the caller's error state: an overflowing step
# gives infinities, which the finiteness check of its state records.
@np.errstate(over="ignore")
def chunk_errors(
    model: LinearModel, init: GaussianState, seed: int, replicates: Sequence[int],
    n_grid: tuple[int, ...], kf_trajectory: KalmanTrajectory,
) -> tuple[np.ndarray, dict[int, dict[int, str]]]:
    """A chunk of study replicates of the coupled construction at every N of
    ``n_grid``, as one stack of chains per N.

    Steps are the outer loop and N the inner one. Each step makes one draw
    call for the chunk, at the largest N; by the prefix property the first n
    columns of each replicate's slice are its size-n draw, so every chain is
    bit-identical to ``coupled_run`` of its replicate at that n. Each stacked
    state is reduced at once to the five scalars of the column constants
    above, so one stacked state per N and one step's draws are alive at a
    time.

    Returns the scalars, shape (len(replicates), len(n_grid), steps + 1, 5),
    NaN where there is none (the gain at step 0, a failed chain), and a map
    from each replicate with a failure to {N: "ExcType: message"}. A single
    replicate records the first error at each N: a failed step stops that N,
    a failed draw every N still running. A step fails if it raises or if one
    of its scalars is not finite (the step-0 gain aside): this one check per
    state stands in for checks of every array the step makes. A chunk of several replicates stops
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
        try:  # one (B, m, n_max) draw for the whole chunk
            if k == 0:
                draws = init_ensemble(seed, replicates, n_max, init)
            else:
                step = model.step(k)
                draws = perturb_data(seed, replicates, k, n_max, step.data, step.R)
        except Exception as exc:  # reported per (replicate, N) by run_study
            failed.update((n_grid[j], f"{type(exc).__name__}: {exc}") for j in running)
            break
        exact = kf_trajectory.analysis(k)
        for j in running:
            n = n_grid[j]
            data = np.ascontiguousarray(draws[..., :n])
            try:
                states[n] = (CoupledState(data, data, sample_cov(data), step=0) if k == 0
                             else coupled_step(states[n], model, data, kf_trajectory))
                rows = _errors(states[n], exact)
                # The one finiteness check of a state; no gain at step 0.
                if not np.isfinite(rows if k else rows[..., :GAIN_ERR]).all():
                    raise ValueError("ensemble entries must be finite")
            except Exception as exc:  # reported per (replicate, N) by run_study
                failed[n] = f"{type(exc).__name__}: {exc}"
                if stacked:
                    break
                continue
            errors[:, j, k] = rows
    if failed and stacked:  # run again one replicate at a time
        parts = [chunk_errors(model, init, seed, (r,), n_grid, kf_trajectory)
                 for r in replicates]
        return (np.concatenate([part for part, _ in parts]),
                {r: errs for _, lost in parts for r, errs in lost.items()})
    return errors, ({replicates[0]: failed} if failed else {})
