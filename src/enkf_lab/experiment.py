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
grid. The four public estimators take one ensemble size's scalars and
answer for every step at once; ``run_study`` calls each once per N (and p)
and reads the estimate rows, rate fits and moment flags from one table per
metric.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import hashlib
import math
import os
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

import numpy as np

from .enkf import COV_ERR, GAIN_ERR, MEAN_ERR, MEMBER_DIFF, MEMBER_NORM
# coupled_run and sample_cov are not called here; bench/spans.py wraps them.
from .enkf import chunk_errors, coupled_run
from .ensemble import DRAW_SCHEME, _check_seed, sample_cov
from .jsonio import canonical_json, write_canonical_json
from .kf import kf_run
from .model import GaussianState, LinearModel, _cov_factor

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


@dataclass(frozen=True, eq=False)
class Estimate:
    """Point estimates with their Monte-Carlo standard errors, float64 arrays
    indexed by step.

    stderr is NaN when it cannot be estimated (fewer than 2 replicates).
    """

    value: np.ndarray
    stderr: np.ndarray


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
    metrics: tuple[Metric, ...] = tuple(Metric)

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
        _check_seed(self.seed)
        if not self.n_grid or any(n < 2 for n in self.n_grid):
            raise ValueError("n_grid entries must all be >= 2")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2")
        if not self.p_list:
            raise ValueError("at least one moment order is required")
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
# Each estimator answers for every step at once, as an Estimate per step.
# ---------------------------------------------------------------------------


def _by_step(scalars, column: int) -> np.ndarray:
    # (steps + 1, replicates), one contiguous row per step: NumPy sums such
    # a row pairwise, as it sums a 1-D array, so each step keeps its bits.
    return np.ascontiguousarray(scalars[:, :, column].T)


# Natural logs of the bounds of float64's normal range.
_LOG_TINY, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def _scale(values: np.ndarray, p: float) -> np.ndarray:
    # Per step, max|v| where the squares of |v|^p (their sum, at the upper
    # end) would leave float64's normal range, else 1.0. That is decided in
    # log space, before any power is taken, so an errstate of over="raise"
    # cannot fire; dividing and multiplying by 1.0 moves no bit.
    limit = _LOG_MAX - math.log(values.shape[1])
    return np.array([
        top if 0.0 < top < math.inf and not (_LOG_TINY <= 2.0 * p * math.log(top) <= limit)
        else 1.0
        for top in np.abs(values).max(axis=1).tolist()
    ])


def _mean_estimate(values: np.ndarray) -> Estimate:
    # Taken of v / scale and scaled back, so that the squared deviations of
    # the standard error stay finite for values beyond about 1e154.
    scale = _scale(values, 1.0)
    values = values / scale[:, None]
    value = scale * values.mean(axis=1)
    if values.shape[1] < 2:
        stderr = np.full(len(values), np.nan)
    else:
        stderr = scale * values.std(axis=1, ddof=1) / np.sqrt(values.shape[1])
    return Estimate(value=value, stderr=stderr)


def _lp_estimate(norms: np.ndarray, p: float) -> Estimate:
    # Estimates (E |v|^p)^(1/p) by the replicate average of |v|^p; the
    # standard error maps through the 1/p power by the delta method. Where
    # the powers would leave float64's range, the estimate is taken of
    # v / max|v| and scaled back by max|v|. The 1/p powers are taken of
    # Python floats: NumPy's vectorized power can round the last bit apart.
    scale = _scale(norms, p)
    power = _mean_estimate((norms / scale[:, None]) ** p)
    means = power.value.tolist()
    value = scale * np.array([v ** (1.0 / p) for v in means])
    # A zero mean (all norms zero) has no finite slope, but its stderr is 0
    # (NaN for one replicate) times any finite stand-in.
    slope = np.array([v ** (1.0 / p - 1.0) if v else 0.0 for v in means])
    return Estimate(value=value, stderr=scale * power.stderr * slope / p)


def member_lp_error(scalars, p: float) -> Estimate:
    """L^p distance of member 1 between the EnKF and reference ensembles,
    per step.

    Only member 1 of each replicate enters. A replicate's members share its
    gain, so a standard error across members would be biased; one across
    replicates, of member 1 or of a replicate's member average, is valid,
    because replicates are independent.
    """
    return _lp_estimate(_by_step(scalars, MEMBER_DIFF), p)


def mean_cov_error(scalars) -> tuple[Estimate, Estimate]:
    """Replicate-averaged distance of the ensemble mean to the exact filtering
    mean (Euclidean) and of the sample covariance to the exact covariance
    (Frobenius), per step."""
    return (_mean_estimate(_by_step(scalars, MEAN_ERR)),
            _mean_estimate(_by_step(scalars, COV_ERR)))


def gain_error(scalars) -> Estimate:
    """Replicate-averaged Frobenius distance between the ensemble gain and the
    exact gain, per step. Step 0 is NaN: there is no gain at initialization."""
    return _mean_estimate(_by_step(scalars, GAIN_ERR))


def member_moment(scalars, p: float) -> Estimate:
    """(E ||X_1||^p)^(1/p) of EnKF member 1 across replicates, per step."""
    return _lp_estimate(_by_step(scalars, MEMBER_NORM), p)


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
    # The closed form about the centroid, in Python floats.
    log_n = [math.log(n) for n, _ in positive]
    log_e = [math.log(e) for _, e in positive]
    mean_n, mean_e = math.fsum(log_n) / len(log_n), math.fsum(log_e) / len(log_e)
    dev = [x - mean_n for x in log_n]
    slope = math.fsum(d * y for d, y in zip(dev, log_e)) / math.fsum(d * d for d in dev)
    intercept = mean_e - slope * mean_n
    residual = max(abs(y - (slope * x + intercept)) for x, y in zip(log_n, log_e))
    return RateFit(slope, intercept, residual, len(positive), len(points) - len(positive))


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


def _row_dict(row) -> dict:
    # JSON has no NaN or infinity: an undefined stderr or an unbounded
    # moment ratio is written as null.
    return {key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in vars(row).items()}


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
            "estimates": [_row_dict(row) for row in self.estimates],
            "rates": [_row_dict(row) for row in self.rates],
            "moment_flags": [_row_dict(row) for row in self.moment_flags],
        }

    def write_json(self, path) -> None:
        write_canonical_json(path, self.to_dict())

    def write_estimates_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("metric,k,N,estimate,stderr\n")
            for row in self.estimates:
                stderr = "" if np.isnan(row.stderr) else repr(row.stderr)
                fh.write(f"{row.metric},{row.k},{row.n},{row.estimate!r},{stderr}\n")

    def write_rates_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("metric,k,slope,intercept,max_residual\n")
            for row in self.rates:
                fh.write(f"{row.metric},{row.k},{row.slope!r},{row.intercept!r},"
                         f"{row.max_residual!r}\n")


def _metric_label(metric: Metric, p: float) -> str:
    p_txt = str(int(p)) if float(p).is_integer() else str(p)
    return f"{metric.value}_p{p_txt}"


def _scalar_fields(config: StudyConfig) -> dict:
    # The study's scalar fields, as the report's metadata records them.
    return {
        "seed": config.seed,
        "n_grid": list(config.n_grid),
        "replicates": config.replicates,
        "p_list": list(config.p_list),
        "metrics": [m.value for m in config.metrics],
        "steps": len(config.model.steps),
        "state_dim": config.model.state_dim,
        "obs_dim": config.model.obs_dim,
        "draw_scheme": DRAW_SCHEME,
    }


def config_hash(config: StudyConfig) -> str:
    """SHA-256 of the study's scalar fields as canonical JSON, then of the
    little-endian float64 bytes of every model array: init mean and cov,
    then A, b, H, R and data of each step. The scalars fix every shape."""
    digest = hashlib.sha256(canonical_json(_scalar_fields(config)).encode())
    arrays = [config.init.mean, config.init.cov]
    arrays += [getattr(step, name) for step in config.model.steps
               for name in ("A", "b", "H", "R", "data")]
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def _chunk_task(args):
    return chunk_errors(*args)


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory of this process for reuse.

    A study frees and allocates large arrays at every step. By default
    glibc maps the largest afresh each time and gives the top of the heap
    back to the kernel, so every new page faults in again. Raising both
    thresholds keeps those pages in the heap. Where the C library has no
    mallopt, nothing changes. Runs once per process; a forked pool worker
    inherits the setting.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # malloc.h: M_MMAP_THRESHOLD is -3 (32 MiB is glibc's ceiling for its
    # own dynamic threshold), M_TRIM_THRESHOLD is -1.
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


def run_study(config: StudyConfig, workers: int = 1) -> ConvergenceReport:
    """Run the full replicated study and assemble the convergence report.

    Deterministic given the config: replicate indices feed the draw keys, so
    the result does not depend on scheduling, on the worker count or on how
    the replicates are chunked. ``workers`` must be an int (not a bool)
    between 1 and the CPU count; the pool starts no more processes than
    there are chunks.
    """
    # Checked before anything runs: a pool starts all its workers at once.
    max_workers = os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise ValueError(f"workers must be an int, got {workers!r}")
    if not 1 <= workers <= max_workers:
        raise ValueError(f"workers must be between 1 and {max_workers}, got {workers}")
    started = time.perf_counter()
    _keep_freed_memory()
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
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_chunk_task, tasks))
    else:
        results = [_chunk_task(task) for task in tasks]
    # (replicates, N, steps + 1, 5), and each failed replicate's {N: error}
    scalars = np.concatenate([chunk_scalars for chunk_scalars, _ in results])
    lost = {r: errors for _, failed in results for r, errors in failed.items()}

    # One table per metric label: {label: {N: Estimate}}, N in grid order.
    tables: dict[str, dict[int, Estimate]] = {}
    failures: dict[str, list] = {}
    for j, n in enumerate(config.n_grid):
        failed = [{"replicate": r, "error": lost[r][n]} for r in sorted(lost) if n in lost[r]]
        if failed:
            failures[str(n)] = failed
        done = [r for r in range(config.replicates) if n not in lost.get(r, ())]
        if len(done) < 2:
            continue
        rows = scalars[done, j]  # (replicates, steps + 1, 5)
        if {Metric.MEAN_ERR, Metric.COV_ERR} & set(config.metrics):
            mean_cov = mean_cov_error(rows)
        for metric in config.metrics:
            if metric in (Metric.MEMBER_LP, Metric.MOMENT_MONITOR):
                lp = member_lp_error if metric is Metric.MEMBER_LP else member_moment
                for p in config.p_list:
                    tables.setdefault(_metric_label(metric, p), {})[n] = lp(rows, p)
            else:
                tables.setdefault(metric.value, {})[n] = (
                    gain_error(rows) if metric is Metric.GAIN_ERR
                    else mean_cov[metric is Metric.COV_ERR])  # (mean, cov)

    # Rows in (label, k, N) order. Every error gets a rate fit over N per
    # step; the moment monitor is a boundedness check, not an error, and
    # gets a flag per step instead, in numeric order of p.
    steps = range(len(config.model.steps) + 1)
    estimates: list[EstimateRow] = []
    rates: list[RateRow] = []
    for label, table in sorted(tables.items()):
        for k in steps[1:] if label == Metric.GAIN_ERR.value else steps:
            points = [(n, float(est.value[k])) for n, est in table.items()]
            estimates += [EstimateRow(label, k, n, e, float(table[n].stderr[k]))
                          for n, e in points]
            if label.startswith(Metric.MOMENT_MONITOR.value):
                continue
            try:
                fit = fit_rate(points)
            except ValueError:  # fewer than 3 positive points: no rate to fit
                continue
            rates.append(RateRow(label, k, **vars(fit)))
    moment_flags = []
    for p in sorted(config.p_list):
        label = _metric_label(Metric.MOMENT_MONITOR, p)
        if label not in tables:
            continue
        for k in steps:
            ratio = _moment_ratio([float(est.value[k]) for est in tables[label].values()])
            moment_flags.append(MomentFlagRow(label, k, ratio > MOMENT_FLAG_RATIO, ratio))

    metadata = {
        **_scalar_fields(config),
        "config_hash": config_hash(config),
        "failures": failures,
        # Everything volatile between reruns lives under this one key.
        "timestamp": {
            "finished_utc": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": time.perf_counter() - started,
        },
    }
    # validate_model factors every R as the draws do, so only the initial
    # covariance can need jitter; reports without it keep their bytes.
    _, jitter = _cov_factor(config.init.cov)
    if jitter > 0.0:
        metadata["cov_jitter"] = {"init": jitter}
    return ConvergenceReport(
        metadata=metadata, estimates=estimates, rates=rates, moment_flags=moment_flags
    )
