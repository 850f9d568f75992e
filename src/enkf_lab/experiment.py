"""Replicated convergence studies over a grid of ensemble sizes.

The study runs R independent coupled replicates in chunks. Each chunk is one
task of ``enkf.chunk_errors``: it advances the chunk's coupled pairs at every
ensemble size N of the grid on shared draws, as one stack of chains per N,
and keeps one scalar per column of ``enkf.COLUMNS`` for each (replicate, N,
step). The chunk size comes from the input alone: as many replicates as fit
CHUNK_ELEMENTS state entries at the largest N, and no more than an even
share of the replicates per worker. Chunking changes no bit of the report.
Every metric of METRIC_TABLE is an L^p norm over replicates of one kernel
column, at p = 1 or at every p of ``p_list``: the member-wise distance to
the reference ensemble, the mean, covariance and gain errors against the
exact filter, and a moment monitor. ``lp_estimate`` answers for every step
at once; ``run_study`` calls it once per metric label and N, fits log-log
convergence rates across the grid and flags unbounded moments.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import pickle
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

import numpy as np

from .enkf import COV_ERR, GAIN_ERR, MEAN_ERR, MEMBER_DIFF, MEMBER_NORM, chunk_errors
from .ensemble import DRAW_SCHEME, _check_seed
from .jsonio import canonical_json, write_canonical_json
from .kf import kf_run
from .model import GaussianState, LinearModel, _cov_factor

# Bound only for bench/spans.py, which patches or wraps these names; nothing
# here calls them. The four estimators it wraps are lp_estimate now.
concurrent = coupled_run = sample_cov = None
member_lp_error = mean_cov_error = gain_error = member_moment = None

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
# The estimator and the metric table. `scalars` is one ensemble size's scalars
# from enkf.chunk_errors, shape (replicates, steps + 1, len(enkf.COLUMNS)).
# ---------------------------------------------------------------------------


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


def lp_estimate(scalars, column: int, p: float) -> Estimate:
    """(E |v|^p)^(1/p) across replicates of one column of
    ``enkf.chunk_errors``' scalars, all norms, for every step at once: the
    replicate average of v^p to the 1/p, its standard error mapped through
    the 1/p power by the delta method (at p = 1, the plain average). A
    replicate's members share its gain, so the member columns take member 1
    alone: the replicates are independent, the members are not."""
    # (steps + 1, replicates), one contiguous row per step: NumPy sums such
    # a row pairwise, as it sums a 1-D array, so each step keeps its bits.
    values = np.ascontiguousarray(scalars[:, :, column].T)
    # Where v^p (p != 1) or the squared deviations of the standard error
    # would leave float64's range, v / max|v| enters and is scaled back.
    if p != 1.0:
        outer = _scale(values, p)
        values = (values / outer[:, None]) ** p
    scale = _scale(values, 1.0)
    values = values / scale[:, None]
    mean = scale * values.mean(axis=1)
    stderr = (scale * values.std(axis=1, ddof=1) / np.sqrt(values.shape[1])
              if values.shape[1] > 1 else np.full(len(values), np.nan))
    if p == 1.0:
        return Estimate(value=mean, stderr=stderr)
    # The 1/p powers are taken of Python floats: NumPy's vectorized power
    # can round the last bit apart. A zero mean (all norms zero) has no finite
    # slope, but its stderr is 0 (NaN for one replicate) times any stand-in.
    means = mean.tolist()
    value = outer * np.array([v ** (1.0 / p) for v in means])
    slope = np.array([v ** (1.0 / p - 1.0) if v else 0.0 for v in means])
    return Estimate(value=value, stderr=outer * stderr * slope / p)


@dataclass(frozen=True)
class MetricSpec:
    """How the study estimates one metric: by lp_estimate of one column."""

    column: int  # of enkf.chunk_errors' scalars
    of_p_list: bool  # estimated at every p of p_list, else at p = 1 alone
    first_step: int = 0  # there is no gain at initialization
    monitor: bool = False  # a boundedness flag per step instead of a rate fit


# One row per metric: a new metric is one kernel column and one row here.
METRIC_TABLE = {
    Metric.MEMBER_LP: MetricSpec(MEMBER_DIFF, of_p_list=True),
    Metric.MEAN_ERR: MetricSpec(MEAN_ERR, of_p_list=False),
    Metric.COV_ERR: MetricSpec(COV_ERR, of_p_list=False),
    Metric.GAIN_ERR: MetricSpec(GAIN_ERR, of_p_list=False, first_step=1),
    Metric.MOMENT_MONITOR: MetricSpec(MEMBER_NORM, of_p_list=True, monitor=True),
}


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


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory of this process for reuse.

    A study frees and allocates large arrays at every step. By default
    glibc maps the largest afresh each time and gives the top of the heap
    back to the kernel, so every new page faults in again. Raising both
    thresholds keeps those pages in the heap. Where the C library has no
    mallopt, nothing changes. Runs once per process; a forked replicate
    worker inherits the setting.
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


class WorkerError(RuntimeError):
    """A forked replicate worker raised, or died before sending its result."""


@functools.cache
def _blas_threads():
    """The thread-count getter and setter of the OpenBLAS in this process,
    found by name in its memory map; None where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for lib in libs:
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("set")):
                get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.restype, put.argtypes, put.restype = ctypes.c_int, (ctypes.c_int,), None
                return get, put
    return None


def _serve(group: list, pipe: int) -> None:
    # In a forked child: send the share's results, or what it raised, and
    # leave through os._exit, so the parent's finally blocks, atexit hooks
    # and buffered output do not run twice.
    try:
        try:
            share = [chunk_errors(*task) for task in group]
        except BaseException as exc:
            share = WorkerError(f"a replicate worker raised {type(exc).__name__}: {exc}")
        with open(pipe, "wb") as fh:
            pickle.dump(share, fh, pickle.HIGHEST_PROTOCOL)
        os._exit(0)
    finally:
        os._exit(1)


def _run_chunks(tasks: list, workers: int) -> list:
    """chunk_errors of every task, in task order: this process computes the
    first of min(workers, len(tasks)) contiguous groups of tasks, one forked
    child each of the others, and OpenBLAS one thread per process meanwhile.
    A child's error or death raises WorkerError; none outlives the call."""
    count = min(workers, len(tasks))
    groups = [tasks[len(tasks) * g // count:len(tasks) * (g + 1) // count] for g in range(count)]
    get, put = (count > 1 and _blas_threads()) or (None, None)
    threads = get() if get else None
    children = []  # (pid, read end of its pipe), in group order
    try:
        if put:
            put(1)
        for group in groups[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                _serve(group, write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [chunk_errors(*task) for task in groups[0]]
        while children:
            with children[0][1] as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(children[0][0], 0)[1])
            children.pop(0)
            if status:
                how = f"signal {-status}" if status < 0 else f"exit status {status}"
                raise WorkerError(f"a replicate worker died before sending its result ({how})")
            share = pickle.loads(data)
            if isinstance(share, WorkerError):
                raise share
            results += share
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL; importing signal would add 1 ms to start-up
            os.waitpid(pid, 0)
        if put:
            put(threads)


def run_study(config: StudyConfig, workers: int = 1) -> ConvergenceReport:
    """Run the full replicated study and assemble the convergence report.

    Deterministic given the config: replicate indices feed the draw keys, so
    the result does not depend on scheduling, on the worker count or on how
    the replicates are chunked. ``workers`` must be an int (not a bool)
    between 1 and the CPU count. One worker forks nothing; W fork at most
    W - 1 children, and no more than there are chunks after the first.
    """
    # Checked before anything runs, so that a bad count forks nothing.
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
    chunk = min(max(1, CHUNK_ELEMENTS // (config.model.state_dim * max(config.n_grid))),
                -(-config.replicates // workers))
    tasks = [
        (config.model, config.seed, range(start, min(start + chunk, config.replicates)),
         config.n_grid, kf_trajectory)
        for start in range(0, config.replicates, chunk)
    ]
    results = _run_chunks(tasks, workers)
    # (replicates, N, steps + 1, len(enkf.COLUMNS)), and each failed replicate's {N: error}
    scalars = np.concatenate([chunk_scalars for chunk_scalars, _ in results])
    lost = {r: errors for _, failed in results for r, errors in failed.items()}

    # Every estimated quantity, {label: (MetricSpec, p)}, and one table per
    # label that has an estimate: {label: {N: Estimate}}, N in grid order.
    studied: dict[str, tuple[MetricSpec, float]] = {}
    for metric in config.metrics:
        spec = METRIC_TABLE[metric]
        for p in config.p_list if spec.of_p_list else (1.0,):
            studied[_metric_label(metric, p) if spec.of_p_list else metric.value] = spec, p
    tables: dict[str, dict[int, Estimate]] = {}
    failures: dict[str, list] = {}
    for j, n in enumerate(config.n_grid):
        failed = [{"replicate": r, "error": lost[r][n]} for r in sorted(lost) if n in lost[r]]
        if failed:
            failures[str(n)] = failed
        done = [r for r in range(config.replicates) if n not in lost.get(r, ())]
        if len(done) < 2:
            continue
        rows = scalars[done, j]  # (replicates, steps + 1, len(enkf.COLUMNS))
        for label, (spec, p) in studied.items():
            tables.setdefault(label, {})[n] = lp_estimate(rows, spec.column, p)

    # Rows in (label, k, N) order. Every error gets a rate fit over N per
    # step; a monitor is a boundedness check, not an error, and gets a flag
    # per step instead, in numeric order of p.
    steps = range(len(config.model.steps) + 1)
    estimates: list[EstimateRow] = []
    rates: list[RateRow] = []
    flags: list[tuple[float, MomentFlagRow]] = []
    for label, table in sorted(tables.items()):
        spec, p = studied[label]
        for k in steps[spec.first_step:]:
            points = [(n, float(est.value[k])) for n, est in table.items()]
            estimates += [EstimateRow(label, k, n, e, float(table[n].stderr[k]))
                          for n, e in points]
            if spec.monitor:
                ratio = _moment_ratio([e for _, e in points])
                flags.append((p, MomentFlagRow(label, k, ratio > MOMENT_FLAG_RATIO, ratio)))
                continue
            try:
                fit = fit_rate(points)
            except ValueError:  # fewer than 3 positive points: no rate to fit
                continue
            rates.append(RateRow(label, k, **vars(fit)))
    moment_flags = [flag for _, flag in sorted(flags, key=lambda pair: pair[0])]

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
