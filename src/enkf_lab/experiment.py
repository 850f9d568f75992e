"""Replicated convergence studies over a grid of ensemble sizes.

For each ensemble size N in the grid, the study runs R independent coupled
replicates, estimates per-step error metrics against the exact filter
(member-wise L^p distance to the reference ensemble, mean and covariance
consistency errors, gain error) plus an L^p moment monitor, and fits log-log
convergence rates across the grid.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import time
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

import numpy as np

from .enkf import CoupledState, coupled_run
from .ensemble import DRAW_SCHEME, sample_cov, sample_mean
from .jsonio import canonical_json, format_float, write_canonical_json
from .kf import KalmanTrajectory, kf_run
from .model import (
    GaussianState,
    LinearModel,
    ValidationError,
    model_to_dict,
    validate_gaussian_state,
    validate_model,
)

# Moment estimates across the N-grid exceeding this max/min ratio raise the
# no-explosion flag (an empirical boundedness check, not a proof).
MOMENT_FLAG_RATIO = 3.0


class Metric(Enum):
    MEMBER_LP = "member_lp"
    MEAN_ERR = "mean_err"
    COV_ERR = "cov_err"
    GAIN_ERR = "gain_err"
    MOMENT_MONITOR = "moment"


ALL_METRICS = tuple(Metric)


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its Monte-Carlo standard error.

    stderr is NaN when it cannot be estimated (fewer than 2 replicates).
    """

    value: float
    stderr: float


@dataclass(frozen=True, eq=False)
class StudyConfig:
    model: LinearModel
    init: GaussianState
    seed: int = 0
    n_grid: tuple[int, ...] = (16, 64, 256, 1024, 4096)
    replicates: int = 100
    p_list: tuple[float, ...] = (2.0, 4.0)
    metrics: tuple[Metric, ...] = ALL_METRICS

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "p_list", tuple(float(p) for p in self.p_list))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.n_grid or any(n < 2 for n in self.n_grid):
            raise ValueError("n_grid entries must all be >= 2")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2")
        if any(p < 1 for p in self.p_list):
            raise ValueError("moment orders must all be >= 1")
        if not self.metrics:
            raise ValueError("at least one metric is required")


# ---------------------------------------------------------------------------
# Estimators. `runs` is a list of per-replicate coupled trajectories
# (each a list of CoupledState, index = step).
# ---------------------------------------------------------------------------


def _check_step(runs, k: int) -> None:
    if not runs:
        raise ValueError("no replicate runs given")
    last = len(runs[0]) - 1
    if not 0 <= k <= last:
        raise ValueError(f"step index {k} out of range 0..{last}")


def _member1_diff_norm(state: CoupledState) -> float:
    diff = state.enkf_ensemble.members[:, 0] - state.reference_ensemble.members[:, 0]
    return float(np.linalg.norm(diff))


def _lp_estimate(norms: np.ndarray, p: float) -> Estimate:
    # Estimates (E |v|^p)^(1/p) by the replicate average of |v|^p; the
    # standard error maps through the 1/p power by the delta method.
    powers = norms**p
    mean_power = float(powers.mean())
    value = mean_power ** (1.0 / p)
    if len(powers) < 2:
        stderr = float("nan")
    elif mean_power == 0.0:
        stderr = 0.0
    else:
        se_power = float(powers.std(ddof=1)) / np.sqrt(len(powers))
        stderr = se_power * mean_power ** (1.0 / p - 1.0) / p
    return Estimate(value=value, stderr=stderr)


def _mean_estimate(values: np.ndarray) -> Estimate:
    value = float(values.mean())
    if len(values) < 2:
        stderr = float("nan")
    else:
        stderr = float(values.std(ddof=1)) / np.sqrt(len(values))
    return Estimate(value=value, stderr=stderr)


def member_lp_error(runs, k: int, p: float) -> Estimate:
    """L^p distance of member 1 between the EnKF and reference ensembles.

    Only member 1 of each replicate enters, so the replicate values are
    independent; averaging members within a replicate would correlate terms
    and bias the standard error.
    """
    if len(runs) < 2:
        raise ValueError("member_lp_error needs at least 2 replicates")
    _check_step(runs, k)
    norms = np.array([_member1_diff_norm(run[k]) for run in runs])
    return _lp_estimate(norms, p)


def mean_cov_error(
    runs, kf_trajectory: KalmanTrajectory, k: int
) -> tuple[Estimate, Estimate]:
    """Replicate-averaged distance of the ensemble mean to the exact filtering
    mean (Euclidean) and of the sample covariance to the exact covariance
    (Frobenius)."""
    _check_step(runs, k)
    exact = kf_trajectory.analysis(k)
    mean_errs = np.array(
        [np.linalg.norm(sample_mean(run[k].enkf_ensemble) - exact.mean) for run in runs]
    )
    cov_errs = np.array(
        [
            np.linalg.norm(sample_cov(run[k].enkf_ensemble) - exact.cov, ord="fro")
            for run in runs
        ]
    )
    return _mean_estimate(mean_errs), _mean_estimate(cov_errs)


def gain_error(runs, k: int) -> Estimate:
    """Replicate-averaged Frobenius distance between the ensemble gain and the
    exact gain at step k (k >= 1; there is no gain at initialization)."""
    _check_step(runs, k)
    if k < 1:
        raise ValueError("no gain exists at step 0")
    errs = np.array(
        [
            np.linalg.norm(run[k].ensemble_gain - run[k].exact_gain, ord="fro")
            for run in runs
        ]
    )
    return _mean_estimate(errs)


def member_moment(runs, k: int, p: float) -> Estimate:
    """(E ||X_1||^p)^(1/p) of EnKF member 1 at step k, across replicates."""
    _check_step(runs, k)
    norms = np.array(
        [float(np.linalg.norm(run[k].enkf_ensemble.members[:, 0])) for run in runs]
    )
    return _lp_estimate(norms, p)


@dataclass(frozen=True)
class MomentTable:
    """Per-N moment estimates at one (step, order), with the explosion flag."""

    entries: tuple[tuple[int, Estimate], ...]
    flagged: bool
    max_over_min: float


def _moment_ratio(values) -> float:
    lo, hi = min(values), max(values)
    if lo <= 0.0:
        return float("inf") if hi > 0.0 else 1.0
    return hi / lo


def moment_monitor(runs_by_n, k: int, p: float) -> MomentTable:
    """Tabulate member-1 moment estimates over the N-grid and flag if the max
    exceeds MOMENT_FLAG_RATIO times the min."""
    entries = tuple(
        (n, member_moment(runs_by_n[n], k, p)) for n in sorted(runs_by_n)
    )
    ratio = _moment_ratio([est.value for _, est in entries])
    return MomentTable(
        entries=entries, flagged=ratio > MOMENT_FLAG_RATIO, max_over_min=ratio
    )


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    max_residual: float


def fit_rate(points) -> RateFit:
    """Ordinary least squares of log(error) on log(N).

    Nonpositive errors (a metric that hit exact zero) are dropped with a
    warning; at least 3 positive points must remain.
    """
    points = list(points)
    positive = [(n, e) for n, e in points if e > 0.0]
    dropped = len(points) - len(positive)
    if dropped:
        warnings.warn(
            f"dropped {dropped} nonpositive error value(s) from log-log rate fit",
            stacklevel=2,
        )
    if len(positive) < 3:
        raise ValueError(
            f"rate fit needs at least 3 positive points, got {len(positive)}"
        )
    log_n = np.log([float(n) for n, _ in positive])
    log_e = np.log([e for _, e in positive])
    slope, intercept = np.polyfit(log_n, log_e, 1)
    residuals = np.abs(log_e - (slope * log_n + intercept))
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(residuals.max()),
    )


# ---------------------------------------------------------------------------
# Study driver and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateRow:
    metric: str
    k: int
    n: int
    estimate: float
    stderr: float


@dataclass(frozen=True)
class RateRow:
    metric: str
    k: int
    slope: float
    intercept: float
    max_residual: float
    points_used: int
    dropped_nonpositive: int


@dataclass(frozen=True)
class MomentFlagRow:
    metric: str
    k: int
    flagged: bool
    max_over_min: float


@dataclass
class ConvergenceReport:
    metadata: dict
    estimates: list[EstimateRow] = field(default_factory=list)
    rates: list[RateRow] = field(default_factory=list)
    moment_flags: list[MomentFlagRow] = field(default_factory=list)

    def estimate(self, metric: str, k: int, n: int) -> EstimateRow:
        for row in self.estimates:
            if (row.metric, row.k, row.n) == (metric, k, n):
                return row
        raise KeyError(f"no estimate for ({metric}, k={k}, N={n})")

    def rate(self, metric: str, k: int) -> RateRow:
        for row in self.rates:
            if (row.metric, row.k) == (metric, k):
                return row
        raise KeyError(f"no rate fit for ({metric}, k={k})")

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "estimates": [vars(row) for row in self.estimates],
            "rates": [vars(row) for row in self.rates],
            "moment_flags": [vars(row) for row in self.moment_flags],
        }

    def write_json(self, path) -> None:
        write_canonical_json(path, self.to_dict())

    def write_estimates_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("metric,k,N,estimate,stderr\n")
            for row in self.estimates:
                stderr = "" if np.isnan(row.stderr) else format_float(row.stderr)
                fh.write(
                    f"{row.metric},{row.k},{row.n},{format_float(row.estimate)},{stderr}\n"
                )

    def write_rates_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("metric,k,slope,intercept,max_residual\n")
            for row in self.rates:
                fh.write(
                    f"{row.metric},{row.k},{format_float(row.slope)},"
                    f"{format_float(row.intercept)},{format_float(row.max_residual)}\n"
                )


def _metric_label(metric: Metric, p: float | None = None) -> str:
    if p is None:
        return metric.value
    p_txt = str(int(p)) if float(p).is_integer() else str(p)
    return f"{metric.value}_p{p_txt}"


def config_hash(config: StudyConfig) -> str:
    payload = {
        "model": model_to_dict(config.model, config.init),
        "seed": config.seed,
        "n_grid": list(config.n_grid),
        "replicates": config.replicates,
        "p_list": list(config.p_list),
        "metrics": [m.value for m in config.metrics],
        "draw_scheme": DRAW_SCHEME,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _replicate_task(args):
    model, init, seed, replicate, n, kf_trajectory = args
    try:
        return replicate, coupled_run(model, init, seed, replicate, n, kf_trajectory)
    except Exception as exc:  # preserve partial results; counted in metadata
        return replicate, f"{type(exc).__name__}: {exc}"


def _collect_runs(config, n, kf_trajectory, workers):
    tasks = [
        (config.model, config.init, config.seed, r, n, kf_trajectory)
        for r in range(config.replicates)
    ]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_task, tasks))
    else:
        results = [_replicate_task(task) for task in tasks]
    runs = [traj for _, traj in results if not isinstance(traj, str)]
    failures = [
        {"replicate": r, "error": traj} for r, traj in results if isinstance(traj, str)
    ]
    return runs, failures


def run_study(config: StudyConfig, workers: int = 1) -> ConvergenceReport:
    """Run the full replicated study and assemble the convergence report.

    Deterministic given the config: replicate indices feed the draw keys, so
    the result does not depend on scheduling or on the worker count.
    """
    started = time.perf_counter()
    result = validate_model(config.model)
    if not result.ok:
        raise ValidationError(result.violations)
    validate_gaussian_state(config.init)

    # One exact-filter run serves every replicate; the gains are N-independent.
    kf_trajectory = kf_run(config.model, config.init)
    n_steps = len(config.model.steps)
    want = set(config.metrics)

    estimates: list[EstimateRow] = []
    failures: dict[str, list] = {}
    moment_tables: dict[tuple[float, int], list[tuple[int, Estimate]]] = {}

    def add(metric: Metric, p: float | None, k: int, n: int, est: Estimate):
        estimates.append(
            EstimateRow(
                metric=_metric_label(metric, p), k=k, n=n,
                estimate=est.value, stderr=est.stderr,
            )
        )

    for n in config.n_grid:
        runs, failed = _collect_runs(config, n, kf_trajectory, workers)
        if failed:
            failures[str(n)] = failed
        if len(runs) < 2:
            continue
        for k in range(n_steps + 1):
            if Metric.MEMBER_LP in want:
                for p in config.p_list:
                    add(Metric.MEMBER_LP, p, k, n, member_lp_error(runs, k, p))
            if Metric.MEAN_ERR in want or Metric.COV_ERR in want:
                mean_est, cov_est = mean_cov_error(runs, kf_trajectory, k)
                if Metric.MEAN_ERR in want:
                    add(Metric.MEAN_ERR, None, k, n, mean_est)
                if Metric.COV_ERR in want:
                    add(Metric.COV_ERR, None, k, n, cov_est)
            if Metric.GAIN_ERR in want and k >= 1:
                add(Metric.GAIN_ERR, None, k, n, gain_error(runs, k))
            if Metric.MOMENT_MONITOR in want:
                for p in config.p_list:
                    est = member_moment(runs, k, p)
                    add(Metric.MOMENT_MONITOR, p, k, n, est)
                    moment_tables.setdefault((p, k), []).append((n, est))
        del runs

    estimates.sort(key=lambda row: (row.metric, row.k, row.n))

    # Log-log rate fits for the error metrics; the moment monitor is a
    # boundedness check, not an error, and gets a flag instead.
    rate_metrics = [
        _metric_label(Metric.MEMBER_LP, p)
        for p in config.p_list
        if Metric.MEMBER_LP in want
    ]
    for metric in (Metric.MEAN_ERR, Metric.COV_ERR, Metric.GAIN_ERR):
        if metric in want:
            rate_metrics.append(_metric_label(metric, None))

    by_key: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for row in estimates:
        if row.metric in rate_metrics:
            by_key.setdefault((row.metric, row.k), []).append((row.n, row.estimate))
    rates: list[RateRow] = []
    for (metric, k), points in sorted(by_key.items()):
        positive = [(n, e) for n, e in points if e > 0.0]
        if len(positive) < 3:
            continue
        fit = fit_rate(positive)
        rates.append(
            RateRow(
                metric=metric, k=k, slope=fit.slope, intercept=fit.intercept,
                max_residual=fit.max_residual, points_used=len(positive),
                dropped_nonpositive=len(points) - len(positive),
            )
        )

    moment_flags = [
        MomentFlagRow(
            metric=_metric_label(Metric.MOMENT_MONITOR, p), k=k,
            flagged=_moment_ratio([e.value for _, e in entries]) > MOMENT_FLAG_RATIO,
            max_over_min=_moment_ratio([e.value for _, e in entries]),
        )
        for (p, k), entries in sorted(moment_tables.items())
    ]

    metadata = {
        "seed": config.seed,
        "config_hash": config_hash(config),
        "n_grid": list(config.n_grid),
        "replicates": config.replicates,
        "p_list": list(config.p_list),
        "metrics": [m.value for m in config.metrics],
        "steps": n_steps,
        "state_dim": config.model.state_dim,
        "obs_dim": config.model.obs_dim,
        "draw_scheme": DRAW_SCHEME,
        "failures": failures,
        # Everything volatile between reruns lives under this one key.
        "timestamp": {
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": time.perf_counter() - started,
        },
    }
    return ConvergenceReport(
        metadata=metadata, estimates=estimates, rates=rates, moment_flags=moment_flags
    )
