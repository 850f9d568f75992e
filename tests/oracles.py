"""Independent oracles the tests check the library against.

Everything here is deliberately written from first principles (density
products, element loops, one ``np.linalg.norm`` per value) rather than
reusing the library's linear algebra, so a bug cannot cancel out of both
sides of an assertion. ``coupled_scalars`` borrows only the library's sample
moments, so that it can match the study kernel bit for bit.
``mean_estimate_at_step`` and ``lp_estimate_at_step`` are ``lp_estimate``'s
arithmetic (at p = 1 and at any p) on one step's replicate values alone, the
reference that the every-step estimator must match bit for bit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from enkf_lab import sample_cov, sample_mean


def coupled_scalars(run, trajectory):
    """The study kernel's five scalars per step, recomputed from one
    ``coupled_run``: shape (steps + 1, 5), columns in the order of
    ``enkf_lab.enkf.MEMBER_DIFF, MEMBER_NORM, MEAN_ERR, COV_ERR, GAIN_ERR``,
    NaN gain error at step 0."""
    rows = []
    for k, state in enumerate(run):
        x, u = state.enkf_ensemble, state.reference_ensemble
        exact = trajectory.analysis(k)
        rows.append([
            np.linalg.norm(x[:, 0] - u[:, 0]),
            np.linalg.norm(x[:, 0]),
            np.linalg.norm(sample_mean(x) - exact.mean),
            np.linalg.norm(sample_cov(x) - exact.cov, ord="fro"),
            np.nan if k == 0 else
            np.linalg.norm(state.ensemble_gain - state.exact_gain, ord="fro"),
        ])
    return np.array(rows)


def replicate_scalars(runs, trajectory):
    """``coupled_scalars`` of each run, stacked: shape (replicates, steps + 1,
    5), the input of ``lp_estimate`` for one ensemble size."""
    return np.stack([coupled_scalars(run, trajectory) for run in runs])


# Natural logs of the bounds of float64's normal range.
_LOG_TINY, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def _scale_at_step(values, p):
    top = float(np.abs(values).max())
    if 0.0 < top < math.inf and not (
            _LOG_TINY <= 2.0 * p * math.log(top) <= _LOG_MAX - math.log(len(values))):
        return top
    return 1.0


def mean_estimate_at_step(values):
    """(mean, standard error) of one step's 1-D replicate values, taken of
    v / max|v| where squared deviations could leave float64's range."""
    scale = _scale_at_step(values, 1.0)
    values = values / scale
    value = scale * float(values.mean())
    if len(values) < 2:
        return value, float("nan")
    return value, scale * float(values.std(ddof=1)) / np.sqrt(len(values))


def lp_estimate_at_step(norms, p):
    """((mean |v|^p)^(1/p), delta-method standard error) of one step's 1-D
    replicate norms, taken of v / max|v| where |v|^p could leave float64's
    range. At p = 1 it is the plain mean estimate."""
    if p == 1.0:
        return mean_estimate_at_step(norms)
    scale = _scale_at_step(norms, p)
    value, stderr = mean_estimate_at_step((norms / scale) ** p)
    if value == 0.0:
        return scale * value ** (1.0 / p), stderr
    return (scale * value ** (1.0 / p),
            scale * stderr * value ** (1.0 / p - 1.0) / p)


def conjugate_scalar_chain(model, init):
    """Sequential normal-normal Bayes updates for a scalar model, in
    precision form (density product), independent of any gain formula.

    Returns a list of (forecast_mean, forecast_var, post_mean, post_var)
    per step.
    """
    mean = float(init.mean[0])
    var = float(init.cov[0][0])
    out = []
    for step in model.steps:
        a = float(step.A[0][0])
        b = float(step.b[0])
        h = float(step.H[0][0])
        r = float(step.R[0][0])
        d = float(step.data[0])
        f_mean = a * mean + b
        f_var = a * var * a
        # posterior density ~ exp(-(d-hu)^2/2r) * exp(-(u-f_mean)^2/2f_var)
        precision = 1.0 / f_var + h * h / r
        var = 1.0 / precision
        mean = var * (f_mean / f_var + h * d / r)
        out.append((f_mean, f_var, mean, var))
    return out


def gaussian_draw_blocks(philox_key, n, mean, factor, block=128):
    """Draw scheme 4 on a fresh Generator over the keyed Philox stream:
    member i is normals [i*m, (i+1)*m) of ``standard_normal``, pushed through
    G one block of ``block`` members at a time, each block a (block, m) @
    (m, m) product, and the mean added last. Returns an m x n array."""
    m = len(mean)
    blocks = -(-n // block)
    bits = np.random.Philox(key=philox_key)
    z = np.random.Generator(bits).standard_normal((blocks * block, m))
    gz = np.concatenate([z[j * block:(j + 1) * block] @ factor.T
                         for j in range(blocks)])
    return np.asarray(mean)[:, None] + gz[:n].T


def affine_columns_loop(A, b, X):
    """Element-wise triple loop computing A @ X + b per column."""
    m, n = A.shape[0], X.shape[1]
    out = np.zeros((m, n))
    for j in range(n):
        for i in range(m):
            acc = b[i]
            for l in range(A.shape[1]):
                acc += A[i][l] * X[l][j]
            out[i][j] = acc
    return out


def mean_cov_loops(X):
    """Sample mean and 1/N covariance by naive summation loops."""
    m, n = X.shape
    mean = np.zeros(m)
    for j in range(n):
        for i in range(m):
            mean[i] += X[i][j]
    mean /= n
    cov = np.zeros((m, m))
    for j in range(n):
        for i in range(m):
            for l in range(m):
                cov[i][l] += (X[i][j] - mean[i]) * (X[l][j] - mean[l])
    cov /= n
    return mean, cov
