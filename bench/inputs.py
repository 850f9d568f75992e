"""The benchmark's workloads and the input files each one hands to the program.

The program sees only a model file and a study file. Both are made here; the
study seed is the benchmark's ``--seed``, and every other input is fixed, so
the same seed always gives the same files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

P_LIST = (2, 4)
METRICS = ("member_lp", "mean_err", "cov_err", "gain_err", "moment")
# The wide model is drawn once from this fixed seed; the benchmark's seed
# varies only the study's draws.
WIDE_MODEL_SEED = 901_2951


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    n_grid: tuple[int, ...]
    replicates: int
    workers: int
    # The N^-1/2 slope band is checked only where the grid reaches N = 4096.
    slope_band: bool

    def study(self, seed: int) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "p_list": list(P_LIST),
            "seed": seed,
            "metrics": list(METRICS),
        }

    @property
    def steps(self) -> int:
        return len(expand_steps(self.model))

    @property
    def member_steps(self) -> int:
        """Coupled member-steps of one study call: sum of N x replicates x steps."""
        return sum(self.n_grid) * self.replicates * self.steps

    def write(self, directory: Path, seed: int) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        model_path = directory / "model.json"
        study_path = directory / "study.json"
        model_path.write_text(json.dumps(self.model) + "\n", encoding="utf-8")
        study_path.write_text(json.dumps(self.study(seed)) + "\n", encoding="utf-8")
        return model_path, study_path


def _rotation(angle: float, radius: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


def reference_model(steps: int = 5) -> dict:
    """The 4-state / 2-observation reference problem, as a model file.

    Two damped rotating modes, the same dynamics every step, and data that
    cycle through five vectors; the numbers are those of the library's
    ``reference_model``.
    """
    A = np.zeros((4, 4))
    A[:2, :2] = _rotation(0.35, 0.96)
    A[2:, 2:] = _rotation(0.80, 0.92)
    data = [[1.2, -0.3], [0.9, 0.1], [0.4, 0.5], [-0.2, 0.8], [-0.6, 0.4]]
    return {
        "state_dim": 4,
        "obs_dim": 2,
        "init": {
            "mean": [1.0, 0.0, -0.5, 0.5],
            "cov": [
                [0.50, 0.10, 0.00, 0.00],
                [0.10, 0.30, 0.00, 0.00],
                [0.00, 0.00, 0.40, 0.05],
                [0.00, 0.00, 0.05, 0.60],
            ],
        },
        "steps": [
            {
                "A": A.tolist(),
                "b": [0.05, -0.02, 0.03, 0.01],
                "H": [[1.0, 0.0, 0.5, 0.0], [0.0, 0.6, 0.0, 1.0]],
                "R": [[0.20, 0.04], [0.04, 0.25]],
                "repeat": steps,
                "data_sequence": [data[k % len(data)] for k in range(steps)],
            }
        ],
    }


def wide_model(m: int = 48, d: int = 12, steps: int = 3) -> dict:
    """A stable m-state model observed at every (m/d)-th state.

    A is 0.9 times a random orthogonal matrix (spectral radius 0.9), b and the
    data are Gaussian, R is diagonal in [0.2, 0.4], and the initial
    covariance is 0.5 B B^T + 0.1 I with B Gaussian / sqrt(m).
    """
    rng = np.random.default_rng(WIDE_MODEL_SEED)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    A = 0.9 * q
    b = 0.05 * rng.standard_normal(m)
    H = np.zeros((d, m))
    H[np.arange(d), np.arange(d) * (m // d)] = 1.0
    R = np.diag(rng.uniform(0.2, 0.4, d))
    B = rng.standard_normal((m, m)) / math.sqrt(m)
    cov = 0.5 * (B @ B.T) + 0.1 * np.eye(m)
    cov = 0.5 * (cov + cov.T)
    mean = 0.5 * rng.standard_normal(m)
    data = rng.standard_normal((steps, d))
    return {
        "state_dim": m,
        "obs_dim": d,
        "init": {"mean": mean.tolist(), "cov": cov.tolist()},
        "steps": [
            {
                "A": A.tolist(),
                "b": b.tolist(),
                "H": H.tolist(),
                "R": R.tolist(),
                "repeat": steps,
                "data_sequence": data.tolist(),
            }
        ],
    }


def expand_steps(model: dict) -> list[dict]:
    """One dict of arrays per filtering step, with ``repeat`` unrolled."""
    out = []
    for raw in model["steps"]:
        arrays = {name: np.asarray(raw[name], dtype=float) for name in ("A", "b", "H", "R")}
        if "data_sequence" in raw:
            data_list = raw["data_sequence"]
        else:
            data_list = [raw["data"]] * raw.get("repeat", 1)
        for data in data_list:
            out.append({**arrays, "data": np.asarray(data, dtype=float)})
    return out


REFERENCE_GRID = (16, 64, 256, 1024, 4096)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", reference_model(), REFERENCE_GRID, 16, 1, True),
        Workload("reference-w2", reference_model(), REFERENCE_GRID, 16, 2, True),
        Workload("long-horizon", reference_model(steps=40), (8, 16, 32, 64, 128), 32, 1, False),
        Workload("wide", wide_model(), REFERENCE_GRID, 16, 1, True),
    )
}


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write every workload's model and study file.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for workload in WORKLOADS.values():
        for path in workload.write(args.out / workload.name, args.seed):
            print(path)
