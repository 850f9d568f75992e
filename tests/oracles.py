"""Independent oracles the tests check the library against.

Everything here is deliberately written from first principles (density
products, element loops, one ``np.linalg.norm`` per value) rather than
reusing the library's linear algebra, so a bug cannot cancel out of both
sides of an assertion. ``coupled_scalars`` borrows only the library's sample
moments, so that it can match the study kernel bit for bit.
``affine_kernel_scalars`` is the study kernel's other reference: it shares
only the keyed normals and the exact filter with the library's step code.
``mean_estimate_at_step`` and ``lp_estimate_at_step`` are ``lp_estimate``'s
arithmetic (at p = 1 and at any p) on one step's replicate values alone, the
reference that the every-step estimator must match bit for bit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from enkf_lab import DrawKey, Role, sample_cov


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
            np.linalg.norm(x.mean(axis=-1) - exact.mean),
            np.linalg.norm(sample_cov(x) - exact.cov, ord="fro"),
            np.nan if k == 0 else
            np.linalg.norm(state.ensemble_gain - trajectory.gain(k), ord="fro"),
        ])
    return np.array(rows)


def replicate_scalars(runs, trajectory):
    """``coupled_scalars`` of each run, stacked: shape (replicates, steps + 1,
    5), the input of ``lp_estimate`` for one ensemble size."""
    return np.stack([coupled_scalars(run, trajectory) for run in runs])


def _keyed_normals(seed, replicate, k, role, n, dim):
    """The n x dim standard normals of one keyed draw: row i is member i."""
    bits = np.random.Philox(key=DrawKey(seed, replicate, k, role).philox_key())
    return np.random.Generator(bits).standard_normal((n, dim))


def _affine_analysis(step, gain, columns, matrix, shift):
    """The map ``matrix`` z + ``shift`` of a member's normals z, pushed through
    the step's forecast and the analysis with ``gain``; the step's data
    normals are the coordinates ``columns``."""
    keep = np.eye(len(shift)) - gain @ step.H
    matrix = keep @ step.A @ matrix
    matrix[:, columns] = gain @ np.linalg.cholesky(step.R)
    return matrix, keep @ (step.A @ shift + step.b) + gain @ step.data


def affine_kernel_scalars(model, init, seed, replicate, n_grid, trajectory):
    """The study kernel's five scalars of one replicate at every N of
    ``n_grid``, shape (len(n_grid), steps + 1, 5) as in ``chunk_errors``,
    computed in the affine-in-the-normals form.

    Member i's normals z_i stack its initial normals and its data normals of
    every step. With affine dynamics each member of X at step k is
    T_k z_i + c_k and member 1 of U is S_k z_1 + u_k, with maps common to
    all members. The sample moments of X are T_k of those of the z_i, which
    come from prefix sums and Grams of the normals, summed segment by
    segment over the grid; so the ensemble gain, and with it T_k, follow
    without forming an ensemble. Gains are plain ``np.linalg.solve`` calls;
    the exact gains and moments come from ``trajectory``. The covariances
    factored, the prior's and each R, must be positive definite.
    """
    m, d, steps = model.state_dim, model.obs_dim, len(model.steps)
    normals = [_keyed_normals(seed, replicate, 0, Role.INIT, max(n_grid), m)]
    normals += [_keyed_normals(seed, replicate, k, Role.DATA_PERTURBATION, max(n_grid), d)
                for k in range(1, steps + 1)]
    z = np.hstack(normals)
    bounds = (0,) + tuple(n_grid)
    sums = np.cumsum([z[a:b].sum(axis=0) for a, b in zip(bounds, bounds[1:])], axis=0)
    grams = np.cumsum([z[a:b].T @ z[a:b] for a, b in zip(bounds, bounds[1:])], axis=0)
    out = np.full((len(n_grid), steps + 1, 5), np.nan)
    for j, n in enumerate(n_grid):
        z_mean = sums[j] / n
        z_cov = grams[j] / n - np.outer(z_mean, z_mean)
        t = np.zeros((m, z.shape[1]))
        t[:, :m] = np.linalg.cholesky(init.cov)
        c = np.array(init.mean, dtype=float)
        s, u = t.copy(), c.copy()
        for k in range(steps + 1):
            if k:
                step = model.step(k)
                cov = step.A @ t @ z_cov @ t.T @ step.A.T
                gain = np.linalg.solve(step.H @ cov @ step.H.T + step.R, step.H @ cov).T
                columns = slice(m + (k - 1) * d, m + k * d)
                t, c = _affine_analysis(step, gain, columns, t, c)
                s, u = _affine_analysis(step, trajectory.gain(k), columns, s, u)
                out[j, k, 4] = np.linalg.norm(gain - trajectory.gain(k))
            exact = trajectory.analysis(k)
            out[j, k, :4] = [
                np.linalg.norm((t - s) @ z[0] + (c - u)),
                np.linalg.norm(t @ z[0] + c),
                np.linalg.norm(t @ z_mean + c - exact.mean),
                np.linalg.norm(t @ z_cov @ t.T - exact.cov),
            ]
    return out


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
