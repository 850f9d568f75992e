"""Built-in example problems: a scalar chain small enough to check by hand,
and the 4-state reference model of the convergence study.
"""

from __future__ import annotations

import numpy as np

from .model import GaussianState, LinearModel, StepSpec


def scalar_model() -> tuple[LinearModel, GaussianState]:
    """Three time-varying scalar steps; small enough to check by hand."""
    steps = (
        StepSpec(A=[[2.0]], b=[1.0], H=[[1.0]], R=[[1.0]], data=[2.0]),
        StepSpec(A=[[0.5]], b=[0.0], H=[[2.0]], R=[[0.5]], data=[1.0]),
        StepSpec(A=[[1.0]], b=[-1.0], H=[[1.0]], R=[[2.0]], data=[0.0]),
    )
    model = LinearModel(steps=steps, state_dim=1, obs_dim=1)
    init = GaussianState(mean=[0.0], cov=[[1.0]])
    return model, init


def _rotation(angle: float, radius: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


def reference_model(steps: int = 5) -> tuple[LinearModel, GaussianState]:
    """4-state / 2-observation model with two damped rotating modes.

    The same dynamics repeat every step; only the data vary. The damping
    keeps member norms bounded over any horizon.
    """
    A = np.zeros((4, 4))
    A[:2, :2] = _rotation(0.35, 0.96)
    A[2:, 2:] = _rotation(0.80, 0.92)
    b = np.array([0.05, -0.02, 0.03, 0.01])
    H = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 0.6, 0.0, 1.0]])
    R = np.array([[0.20, 0.04], [0.04, 0.25]])
    data = [
        [1.2, -0.3],
        [0.9, 0.1],
        [0.4, 0.5],
        [-0.2, 0.8],
        [-0.6, 0.4],
    ]
    specs = tuple(
        StepSpec(A=A, b=b, H=H, R=R, data=data[k % len(data)]) for k in range(steps)
    )
    model = LinearModel(steps=specs, state_dim=4, obs_dim=2)
    init = GaussianState(
        mean=[1.0, 0.0, -0.5, 0.5],
        cov=[
            [0.50, 0.10, 0.00, 0.00],
            [0.10, 0.30, 0.00, 0.00],
            [0.00, 0.00, 0.40, 0.05],
            [0.00, 0.00, 0.05, 0.60],
        ],
    )
    return model, init

