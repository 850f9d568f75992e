"""Replicated convergence studies over a grid of ensemble sizes.

The study runs R independent coupled replicates in chunks. Each chunk is one
task of ``enkf.chunk_errors``: it advances the chunk's coupled pairs at every
ensemble size N of the grid on shared draws, as one stack of chains per N,
and keeps five scalars per (replicate, N, step). The chunk size comes from
the input alone: as many replicates as fit CHUNK_ELEMENTS state entries at
the largest N, and no more than an even share of the replicates per worker.
Chunking changes no bit of the report. From the scalars the study estimates
per-step error metrics against the exact filter (member-wise L^p distance to
the reference ensemble, mean and covariance consistency errors, gain error)
plus an L^p moment monitor, and fits log-log convergence rates across the
grid. The four public estimators take one ensemble size's scalars, and
``run_study`` estimates through them.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

import numpy as np

from .enkf import COV_ERR, GAIN_ERR, MEAN_ERR, MEMBER_DIFF, MEMBER_NORM
# coupled_run and sample_cov are not called here; bench/spans.py wraps them.
from .enkf import chunk_errors, coupled_run
from .ensemble import DRAW_SCHEME, sample_cov
from .jsonio import canonical_json, format_float, write_canonical_json
from .kf import kf_run
from .model import GaussianState, LinearModel, model_to_dict

# Moment estimates across the N-grid exceeding this max/min ratio raise the
# no-explosion flag (an empirical boundedness check, not a proof).
MOMENT_FLAG_RATIO = 3.0

# State entries (state_dim x largest N) per stacked array of a chunk of
# replicates: 256 KiB of float64. Larger chunks cut per-call overhead but
# raise peak memory; every chunk holds at least one replicate.
CHUNK_ELEMENTS = 32768


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


class StudyFormatError(ValueError):
    """A study field has the wrong type."""


def _checked(name: str, value, kinds, what: str):
    # Checked, not coerced: bool is an int subclass, and int(4.7) or
    # float("2") would silently run another study.
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise StudyFormatError(f"{name} takes {what} only, got {value!r}")
    return value


def _entries(name: str, values, kinds, what: str) -> tuple:
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise StudyFormatError(f"{name} must be a sequence, got {values!r}")
    return tuple(_checked(name, v, kinds, what) for v in values)


_INTEGER = (int, np.integer)
_NUMBER = (int, float, np.integer, np.floating)


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
        # A wrong type raises StudyFormatError; numpy scalars are stored as
        # the Python int or float they equal.
        seed = _checked("seed", self.seed, _INTEGER, "integers")
        n_grid = _entries("n_grid", self.n_grid, _INTEGER, "integers")
        replicates = _checked("replicates", self.replicates, _INTEGER, "integers")
        p_list = _entries("p_list", self.p_list, _NUMBER, "numbers")
        metrics = _entries("metrics", self.metrics, Metric, "Metric members")
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in n_grid))
        object.__setattr__(self, "replicates", int(replicates))
        object.__setattr__(self, "p_list", tuple(float(p) for p in p_list))
        object.__setattr__(self, "metrics", metrics)
        if not self.n_grid or any(n < 2 for n in self.n_grid):
            raise ValueError("n_grid entries must all be >= 2")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2")
        if not all(1 <= p < np.inf for p in self.p_list):
            raise ValueError("moment orders must all be finite and >= 1")
        if len(set(self.p_list)) < len(self.p_list):
            raise ValueError(f"moment orders must be distinct, got {self.p_list}")
        if not self.metrics:
            raise ValueError("at least one metric is required")
        if len(set(self.metrics)) < len(self.metrics):
            raise ValueError("metrics must be distinct")


# ---------------------------------------------------------------------------
# Estimators. `scalars` is one ensemble size's scalars from
# enkf.chunk_errors, shape (replicates, steps + 1, 5): one row per replicate.
# ---------------------------------------------------------------------------


def _at_step(scalars, k: int, column: int) -> np.ndarray:
    if len(scalars) == 0:
        raise ValueError("no replicate runs given")
    last = scalars.shape[1] - 1
    if not 0 <= k <= last:
        raise ValueError(f"step index {k} out of range 0..{last}")
    return scalars[:, k, column]


def _mean_estimate(values: np.ndarray) -> Estimate:
    value = float(values.mean())
    if len(values) < 2:
        stderr = float("nan")
    else:
        stderr = float(values.std(ddof=1)) / np.sqrt(len(values))
    return Estimate(value=value, stderr=stderr)


def _lp_estimate(norms: np.ndarray, p: float) -> Estimate:
    # Estimates (E |v|^p)^(1/p) by the replicate average of |v|^p; the
    # standard error maps through the 1/p power by the delta method.
    power = _mean_estimate(norms**p)
    value = power.value ** (1.0 / p)
    if power.value == 0.0:  # all norms zero: stderr 0 (NaN for one replicate)
        return Estimate(value=value, stderr=power.stderr)
    return Estimate(value=value, stderr=power.stderr * power.value ** (1.0 / p - 1.0) / p)


def member_lp_error(scalars, k: int, p: float) -> Estimate:
    """L^p distance of member 1 between the EnKF and reference ensembles.

    Only member 1 of each replicate enters, so the replicate values are
    independent; averaging members within a replicate would correlate terms
    and bias the standard error.
    """
    if len(scalars) < 2:
        raise ValueError("member_lp_error needs at least 2 replicates")
    return _lp_estimate(_at_step(scalars, k, MEMBER_DIFF), p)


def mean_cov_error(scalars, k: int) -> tuple[Estimate, Estimate]:
    """Replicate-averaged distance of the ensemble mean to the exact filtering
    mean (Euclidean) and of the sample covariance to the exact covariance
    (Frobenius)."""
    return (_mean_estimate(_at_step(scalars, k, MEAN_ERR)),
            _mean_estimate(_at_step(scalars, k, COV_ERR)))


def gain_error(scalars, k: int) -> Estimate:
    """Replicate-averaged Frobenius distance between the ensemble gain and the
    exact gain at step k (k >= 1; there is no gain at initialization)."""
    values = _at_step(scalars, k, GAIN_ERR)
    if k < 1:
        raise ValueError("no gain exists at step 0")
    return _mean_estimate(values)


def member_moment(scalars, k: int, p: float) -> Estimate:
    """(E ||X_1||^p)^(1/p) of EnKF member 1 at step k, across replicates."""
    return _lp_estimate(_at_step(scalars, k, MEMBER_NORM), p)


def _moment_ratio(values) -> float:
    lo, hi = min(values), max(values)
    if lo <= 0.0:
        return float("inf") if hi > 0.0 else 1.0
    return hi / lo


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    max_residual: float
    points_used: int
    dropped_nonpositive: int


def fit_rate(points) -> RateFit:
    """Ordinary least squares of log(error) on log(N).

    Nonpositive errors (a metric that hit exact zero) are dropped and counted
    in ``dropped_nonpositive``; at least 3 positive points must remain.
    """
    points = list(points)
    positive = [(n, e) for n, e in points if e > 0.0]
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
        points_used=len(positive),
        dropped_nonpositive=len(points) - len(positive),
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


def _chunk_task(args):
    return chunk_errors(*args)


def run_study(config: StudyConfig, workers: int = 1) -> ConvergenceReport:
    """Run the full replicated study and assemble the convergence report.

    Deterministic given the config: replicate indices feed the draw keys, so
    the result does not depend on scheduling, on the worker count or on how
    the replicates are chunked.
    """
    started = time.perf_counter()
    # One exact-filter run, which also checks the problem, serves every
    # replicate; the gains are N-independent.
    kf_trajectory = kf_run(config.model, config.init)

    # One task per chunk of replicates; each returns its scalars for every
    # (replicate, N, k).
    chunk = max(1, CHUNK_ELEMENTS // (config.model.state_dim * max(config.n_grid)))
    if workers > 1:
        chunk = min(chunk, -(-config.replicates // workers))
    tasks = [
        (config.model, config.init, config.seed,
         range(start, min(start + chunk, config.replicates)), config.n_grid, kf_trajectory)
        for start in range(0, config.replicates, chunk)
    ]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_task, tasks))
    else:
        results = [_chunk_task(task) for task in tasks]
    # (replicates, N, steps + 1, 5), and each failed replicate's {N: error}
    scalars = np.concatenate([chunk_scalars for chunk_scalars, _ in results])
    lost = {r: errors for _, failed in results for r, errors in failed.items()}

    estimates: list[EstimateRow] = []
    failures: dict[str, list] = {}
    # Per (label, k) the (N, estimate) points of a rate fit; the moment
    # monitor is a boundedness check, not an error, and gets a flag instead.
    rate_points: dict[tuple[str, int], list[tuple[int, float]]] = {}
    moments: dict[tuple[float, int], list[float]] = {}

    def add(metric: Metric, p: float | None, k: int, n: int, est: Estimate):
        label = _metric_label(metric, p)
        estimates.append(EstimateRow(label, k, n, est.value, est.stderr))
        if metric is Metric.MOMENT_MONITOR:
            moments.setdefault((p, k), []).append(est.value)
        else:
            rate_points.setdefault((label, k), []).append((n, est.value))

    with_mean_cov = {Metric.MEAN_ERR, Metric.COV_ERR} & set(config.metrics)
    for j, n in enumerate(config.n_grid):
        failed = [{"replicate": r, "error": lost[r][n]} for r in sorted(lost) if n in lost[r]]
        if failed:
            failures[str(n)] = failed
        done = [r for r in range(config.replicates) if n not in lost.get(r, ())]
        if len(done) < 2:
            continue
        rows = scalars[done, j]  # (replicates, steps + 1, 5)
        for k in range(rows.shape[1]):
            if with_mean_cov:
                mean_cov = dict(zip((Metric.MEAN_ERR, Metric.COV_ERR), mean_cov_error(rows, k)))
            for metric in config.metrics:
                if metric in (Metric.MEMBER_LP, Metric.MOMENT_MONITOR):
                    lp = member_lp_error if metric is Metric.MEMBER_LP else member_moment
                    for p in config.p_list:
                        add(metric, p, k, n, lp(rows, k, p))
                elif metric is not Metric.GAIN_ERR:
                    add(metric, None, k, n, mean_cov[metric])
                elif k >= 1:
                    add(metric, None, k, n, gain_error(rows, k))

    estimates.sort(key=lambda row: (row.metric, row.k, row.n))
    rates: list[RateRow] = []
    for (metric, k), points in sorted(rate_points.items()):
        try:
            fit = fit_rate(points)
        except ValueError:  # fewer than 3 positive points: no rate to fit
            continue
        rates.append(RateRow(metric, k, **vars(fit)))
    moment_flags = []
    for (p, k), values in sorted(moments.items()):
        ratio = _moment_ratio(values)
        label = _metric_label(Metric.MOMENT_MONITOR, p)
        moment_flags.append(MomentFlagRow(label, k, ratio > MOMENT_FLAG_RATIO, ratio))

    metadata = {
        "seed": config.seed,
        "config_hash": config_hash(config),
        "n_grid": list(config.n_grid),
        "replicates": config.replicates,
        "p_list": list(config.p_list),
        "metrics": [m.value for m in config.metrics],
        "steps": len(config.model.steps),
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
