"""Reference values the report checks compare against, computed apart from
the program: an exact Kalman filter on plain NumPy (dense solve, no SciPy,
nothing from ``kf.py``) and moments of Gaussian norms from the benchmark's
own generator.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import expand_steps

# Samples for the Monte-Carlo moments of ||N(0, Q0)||; the relative error of
# the mean is below 1e-3, far inside the checks' tolerance.
NORM_SAMPLES = 200_000
NORM_SEED = 20090117


def filtering_moments(model: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact filtering mean and covariance (u_k, Q_k) for k = 0..K."""
    u = np.asarray(model["init"]["mean"], dtype=float)
    Q = np.asarray(model["init"]["cov"], dtype=float)
    out = [(u, Q)]
    for step in expand_steps(model):
        A, b, H, R, d = step["A"], step["b"], step["H"], step["R"], step["data"]
        u = A @ u + b
        Q = A @ Q @ A.T
        S = H @ Q @ H.T + R
        # K = Q H^T S^-1, from the solve S K^T = H Q (S and Q symmetric).
        K = np.linalg.solve(S, H @ Q).T
        u = u + K @ (d - H @ u)
        Q = Q - K @ H @ Q
        Q = 0.5 * (Q + Q.T)
        out.append((u, Q))
    return out


def moment_target(u: np.ndarray, Q: np.ndarray, replicates: int) -> tuple[float, float]:
    """(E||X||^2)^(1/2) for X ~ N(u, Q), and the exact standard error of its
    estimate from ``replicates`` draws.

    Var ||X||^2 = 2 tr(Q^2) + 4 u^T Q u; the error of the mean of ||X||^2
    maps through the square root by the delta method, as the program's own
    estimate does.
    """
    value = math.sqrt(float(u @ u) + float(np.trace(Q)))
    var = 2.0 * float(np.sum(Q * Q)) + 4.0 * float(u @ Q @ u)
    return value, math.sqrt(max(var, 0.0) / replicates) / (2.0 * value)


def gaussian_norm_moments(cov: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of ||Z|| for Z ~ N(0, cov), by Monte Carlo.

    ||Z|| has the law of ||sqrt(lambda) * z|| with lambda the eigenvalues of
    cov and z standard normal, which needs no factorization of cov.
    """
    lam = np.clip(np.linalg.eigvalsh(0.5 * (cov + cov.T)), 0.0, None)
    rng = np.random.default_rng(NORM_SEED)
    norms = np.empty(NORM_SAMPLES)
    chunk = 50_000
    for start in range(0, NORM_SAMPLES, chunk):
        z = rng.standard_normal((chunk, lam.size))
        norms[start : start + chunk] = np.sqrt((z * z) @ lam)
    return float(norms.mean()), float(norms.std(ddof=1))
