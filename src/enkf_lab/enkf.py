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

Member i of U depends only on its own draws and the exact gains, not on N.
The member-wise products of both ensembles go through ``_member_product``,
as the draws' G z does, so each member's bits depend on neither N nor the other
members either: U at any N is the prefix of U at a larger N, bit for bit.
``reference_step`` advances U with the exact gain it is handed; ``coupled_step``
advances X and takes U from its caller. Only the drivers and ``_errors`` read
the exact filter's trajectory: its prior, gains and analyses.

The step functions take one m x N ensemble array or a (B, m, N) stack of
ensembles of one size and treat each slice of a stack exactly as they would
treat it alone, bit for bit. ``coupled_run`` advances one chain;
``chunk_errors``, the study kernel, advances the chains of a chunk of
replicates as one stack per ensemble size, and U's member 1 once for them
all; a size that fails in a stack runs again on each half of the stack, down
to single replicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import init_ensemble, perturb_data, sample_cov
from .kf import KalmanTrajectory, _forecast_cov, kf_gain
from .model import LinearModel, _member_product, apply_model


@dataclass(frozen=True, eq=False)
class CoupledState:
    """Both ensembles after step ``step``, with ``sample_cov(enkf_ensemble)``
    and the ensemble gain of the last analysis.

    The ensembles may be stacks of B chains, with stacks of B covariances and
    B ensemble gains. The reference ensemble holds at least member 1 of U:
    ``coupled_run`` keeps N members, the study kernel member 1 alone. At step
    0 the ensembles are one and the same array; the gain is None because no
    analysis has happened yet.
    """

    enkf_ensemble: np.ndarray
    reference_ensemble: np.ndarray
    enkf_cov: np.ndarray
    step: int
    ensemble_gain: np.ndarray | None = None


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
    # forecast + gain @ (data_ensemble - H @ forecast), in product buffers.
    innovation = _member_product(H, forecast)
    out = _member_product(gain, np.subtract(data_ensemble, innovation, out=innovation))
    out += forecast
    return out


def reference_step(
    model: LinearModel, k: int, reference_ensemble: np.ndarray,
    data_ensemble: np.ndarray, exact_gain: np.ndarray,
) -> np.ndarray:
    """U at step k: the step-k forecast of ``reference_ensemble`` updated with
    ``exact_gain`` on ``data_ensemble``, the members' perturbed data."""
    forecast = apply_model(model, k, reference_ensemble)
    return enkf_analysis(forecast, data_ensemble, exact_gain, model.step(k).H)


def coupled_step(
    state: CoupledState,
    model: LinearModel,
    data_ensemble: np.ndarray,
    reference_ensemble: np.ndarray,
) -> CoupledState:
    """Advance X by one step on one perturbed-data ensemble, and pair it with
    ``reference_ensemble``, U at the same step.

    The caller draws ``data_ensemble`` once for step ``state.step + 1`` and
    advances U on the same draws with ``reference_step``. The ensemble gain
    comes from the forecast sample covariance of X, taken as A C A^T of the
    carried covariance C (equal up to rounding).
    """
    k = state.step + 1
    step = model.step(k)
    x_forecast = apply_model(model, k, state.enkf_ensemble)
    gain = kf_gain(_forecast_cov(step.A, state.enkf_cov), step.H, step.R)
    x = enkf_analysis(x_forecast, data_ensemble, gain, step.H)
    return CoupledState(
        enkf_ensemble=x, reference_ensemble=reference_ensemble, enkf_cov=sample_cov(x),
        step=k, ensemble_gain=gain,
    )


def coupled_run(
    model: LinearModel,
    seed: int,
    replicate: int,
    n: int,
    kf_trajectory: KalmanTrajectory,
) -> list[CoupledState]:
    """Run the coupled construction over all model steps from a draw of the
    prior of ``kf_trajectory`` (``kf_run(model, init)``), U with its gains.

    Returns one CoupledState per step plus the shared initial state at index
    0, where X and U are the same ensemble. Fully deterministic given
    (seed, replicate, n); one trajectory serves every replicate.
    """
    initial = init_ensemble(seed, replicate, n, kf_trajectory.init)
    states = [CoupledState(initial, initial, sample_cov(initial), step=0)]
    for k, step in enumerate(model.steps, start=1):
        data = perturb_data(seed, replicate, k, n, step.data, step.R)
        u = reference_step(model, k, states[-1].reference_ensemble, data, kf_trajectory.gain(k))
        states.append(coupled_step(states[-1], model, data, u))
    return states


# Columns of the scalars chunk_errors keeps of each coupled state.
COLUMNS = range(5)
MEMBER_DIFF, MEMBER_NORM, MEAN_ERR, COV_ERR, GAIN_ERR = COLUMNS


def _norms(rows: np.ndarray) -> np.ndarray:
    # Euclidean norm of each contiguous row, the square root of a dot
    # product, as np.linalg.norm computes it for one vector (Frobenius norm
    # included), so a stack gives each chain's norms bit for bit.
    return np.sqrt(np.vecdot(rows, rows))


def _errors(state: CoupledState, kf_trajectory: KalmanTrajectory) -> np.ndarray:
    """The scalars of the column constants above, for every chain of a
    stacked state: shape (B, len(COLUMNS)), NaN gain error at step 0."""
    exact = kf_trajectory.analysis(state.step)
    x = state.enkf_ensemble
    batch = x.shape[:-2]
    # Member 1 copied to contiguous rows: a strided view rounds differently.
    member = np.ascontiguousarray(x[..., 0])
    rows = {
        MEMBER_DIFF: member - state.reference_ensemble[..., 0],
        MEMBER_NORM: member,
        MEAN_ERR: x.mean(axis=-1) - exact.mean,
        COV_ERR: (state.enkf_cov - exact.cov).reshape(batch + (-1,)),
    }
    if state.ensemble_gain is not None:
        gain_diff = state.ensemble_gain - kf_trajectory.gain(state.step)
        rows[GAIN_ERR] = gain_diff.reshape(batch + (-1,))
    errors = np.full(batch + (len(COLUMNS),), np.nan)
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
    model: LinearModel, seed: int, replicates: Sequence[int],
    n_grid: tuple[int, ...], kf_trajectory: KalmanTrajectory,
) -> tuple[np.ndarray, dict[int, dict[int, str]]]:
    """A chunk of study replicates of the coupled construction at every N of
    ``n_grid``, as one stack of chains per N.

    Steps are the outer loop and N the inner one. Each step makes one draw
    call for the chunk, at the largest running N, and advances U's member 1
    alone once for the chunk: the scalars read nothing else of U. By the
    prefix property the first n columns of each replicate's slice are its
    size-n draw, and U's member 1 is that of every larger U, so every chain
    is bit-identical to ``coupled_run`` of its replicate at that n. Each
    stacked state is reduced at once to the scalars of the column constants
    above, so one stacked state per N and one step's draws are alive at a
    time.

    Returns the scalars, shape (len(replicates), len(n_grid), steps + 1,
    len(COLUMNS)), NaN where there is none (the gain at step 0, a failed
    chain), and a map from each replicate with a failure to {N: "ExcType:
    message"}. One rule serves a single replicate and a stack: a failed step
    stops its N, a failed draw or U step every N still running, and the other
    sizes run on. A step fails if it raises or if one of its scalars is not
    finite (the step-0 gain aside): this one check per state stands in for
    checks of every array the step makes. A chunk of several replicates then
    runs only its failed sizes again, once on each half of its replicates,
    down to single replicates, which record their first error at each N. A
    slice of a stack is computed as it would be alone, a stack fails whenever
    one of its slices would, and by the prefix property a rerun at fewer sizes
    draws the same leading columns, so the result does not depend on the
    chunking.
    """
    replicates = tuple(replicates)
    errors = np.full((len(replicates), len(n_grid), len(model.steps) + 1, len(COLUMNS)), np.nan)
    failed: dict[int, str] = {}  # the first error at each N
    states: dict[int, CoupledState] = {}
    for k in range(len(model.steps) + 1):
        running = [j for j, n in enumerate(n_grid) if n not in failed]
        if not running:
            break
        width = max(n_grid[j] for j in running)
        try:  # one (B, m, width) draw and one step of U for the whole chunk
            if k == 0:
                draws = init_ensemble(seed, replicates, width, kf_trajectory.init)
                reference = np.ascontiguousarray(draws[..., :1])
            else:
                step = model.step(k)
                draws = perturb_data(seed, replicates, k, width, step.data, step.R)
                reference = reference_step(model, k, reference, draws[..., :1],
                                           kf_trajectory.gain(k))
        except Exception as exc:  # reported per (replicate, N) by run_study
            failed.update((n_grid[j], f"{type(exc).__name__}: {exc}") for j in running)
            break
        for j in running:
            n = n_grid[j]
            data = np.ascontiguousarray(draws[..., :n])
            try:
                states[n] = (CoupledState(data, data, sample_cov(data), step=0) if k == 0
                             else coupled_step(states[n], model, data, reference))
                rows = _errors(states[n], kf_trajectory)
                # The one finiteness check of a state; no gain at step 0.
                if not np.isfinite(rows if k else rows[..., :GAIN_ERR]).all():
                    raise ValueError("ensemble entries must be finite")
            except Exception as exc:  # reported per (replicate, N) by run_study
                failed[n] = f"{type(exc).__name__}: {exc}"
            else:
                errors[:, j, k] = rows
    if len(replicates) == 1 or not failed:
        return errors, ({replicates[0]: failed} if failed else {})
    states = draws = reference = None  # freed before the failed sizes run again on each half
    columns = [j for j, n in enumerate(n_grid) if n in failed]
    sizes = tuple(n_grid[j] for j in columns)
    half, lost = len(replicates) // 2, {}
    for part in (slice(0, half), slice(half, None)):
        errors[part, columns], part_lost = chunk_errors(
            model, seed, replicates[part], sizes, kf_trajectory)
        lost |= part_lost
    return errors, lost
