"""Linear-Gaussian filtering problems: per-step affine dynamics, observation
operators, data vectors, and the Gaussian initial condition.

Step indices are 1-based throughout the library; index 0 denotes the initial
state before any dynamics or data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Symmetry is checked relative to the matrix max-norm; the tolerance covers
# double-precision round-off from ordinary construction.
SYMMETRY_RTOL = 1e-12
# Jitter scales tried (relative to mean diagonal) when factoring a
# semidefinite covariance; PSD inputs such as a singular prior are legal.
_JITTER_SCALES = (1e-14, 1e-12, 1e-10)
# Members per matrix product: the draws and the member-wise products of the
# filters run on whole blocks of this many members; part of the draw scheme.
_BLOCK = 128


class ModelFormatError(ValueError):
    """A model file or dict cannot be parsed into a LinearModel."""


class ValidationError(ValueError):
    """A structurally well-formed model violates its constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _non_numeric(value):
    """The first string or boolean entry of a nested list, if any:
    np.asarray(..., float64) would read "2.0" as 2.0 and true as 1.0."""
    if not isinstance(value, (list, tuple)):
        return value if isinstance(value, (str, bytes, bool, np.bool_)) else None
    for entry in value:
        if type(entry) not in (float, int):  # bool is not int here
            bad = _non_numeric(entry)
            if bad is not None:
                return bad
    return None


def _as_array(value, name: str, ndim: int) -> np.ndarray:
    bad = _non_numeric(value)
    if bad is not None:
        raise ValueError(f"{name} has a non-numeric entry {bad!r}")
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != ndim:
        kind = "matrix" if ndim == 2 else "vector"
        raise ValueError(f"{name} must be a {kind}, got array of ndim {arr.ndim}")
    return arr


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state estimate with mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_array(self.mean, "mean", 1)
        cov = _as_array(self.cov, "cov", 2)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError(
                f"cov shape {cov.shape} does not match mean dimension {mean.shape[0]}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class StepSpec:
    """One filtering step: dynamics u -> A u + b, observation operator H,
    data-error covariance R, and the observed data vector."""

    A: np.ndarray
    b: np.ndarray
    H: np.ndarray
    R: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_array(self.A, "A", 2))
        object.__setattr__(self, "b", _as_array(self.b, "b", 1))
        object.__setattr__(self, "H", _as_array(self.H, "H", 2))
        object.__setattr__(self, "R", _as_array(self.R, "R", 2))
        object.__setattr__(self, "data", _as_array(self.data, "data", 1))


@dataclass(frozen=True, eq=False)
class LinearModel:
    """A sequence of StepSpec plus the state and observation dimensions.

    Immutable after construction; safe to share across concurrent workers.
    Time-invariant models are represented by repeating one step (the data
    vector may still differ per step).
    """

    steps: tuple[StepSpec, ...]
    state_dim: int
    obs_dim: int

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.state_dim < 1:
            raise ValueError("state_dim must be a positive integer")
        if self.obs_dim < 1:
            raise ValueError("obs_dim must be a positive integer")

    def __len__(self) -> int:
        return len(self.steps)

    def step(self, k: int) -> StepSpec:
        """Return the spec of step k (1-based)."""
        if not 1 <= k <= len(self.steps):
            raise ValueError(f"step index {k} out of range 1..{len(self.steps)}")
        return self.steps[k - 1]


def _is_symmetric(mat: np.ndarray) -> bool:
    scale = np.abs(mat).max()
    return np.abs(mat - mat.T).max() <= SYMMETRY_RTOL * scale


def _is_spd(mat: np.ndarray) -> bool:
    # Strict positive definiteness, probed by whether a symmetric
    # factorization succeeds (cheaper than an eigendecomposition).
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _cov_factor(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower-triangular G with G G^T = cov, and the jitter eps it took.

    A semidefinite cov is factored as cov + eps * mean(diag(cov)) * I with
    the first eps of _JITTER_SCALES that works; eps is 0.0 when none was
    needed.
    """
    if not cov.any():
        return np.zeros_like(cov), 0.0
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    base = np.trace(cov) / cov.shape[0]
    eye = np.eye(cov.shape[0])
    for eps in _JITTER_SCALES:
        try:
            return np.linalg.cholesky(cov + (eps * base) * eye), eps
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "covariance factorization failed even after jitter fallback"
    )


def validate_model(model: LinearModel, init: GaussianState) -> None:
    """Check every constraint of a filtering problem.

    Every array must be finite; every step's arrays must match the state and
    observation dimensions, with R symmetric positive definite; the initial
    state must have the state dimension, with a symmetric covariance that
    ``_cov_factor`` can factor as the draws do: positive semidefinite,
    possibly singular. An array with non-finite entries skips its symmetry
    and definiteness checks.

    Raises ValidationError listing every violation, each naming its field
    and, for step fields, its step index (1-based).
    """
    m, d = model.state_dim, model.obs_dim
    violations: list[str] = []
    for k, step in enumerate(model.steps, start=1):
        bad = [name for name in ("A", "b", "H", "R", "data")
               if not np.isfinite(getattr(step, name)).all()]
        violations += [f"{name} has non-finite entries at step {k}" for name in bad]
        if step.A.shape != (m, m):
            violations.append(f"A has shape {step.A.shape}, expected ({m}, {m}) at step {k}")
        if step.b.shape != (m,):
            violations.append(f"b has length {step.b.shape[0]}, expected {m} at step {k}")
        if step.H.shape != (d, m):
            violations.append(f"H has shape {step.H.shape}, expected ({d}, {m}) at step {k}")
        if step.data.shape != (d,):
            violations.append(f"data has length {step.data.shape[0]}, expected {d} at step {k}")
        if step.R.shape != (d, d):
            violations.append(f"R has shape {step.R.shape}, expected ({d}, {d}) at step {k}")
        elif "R" in bad:
            pass
        elif not _is_symmetric(step.R):
            violations.append(f"R not symmetric at step {k}")
        elif not _is_spd(step.R):
            violations.append(f"R not positive definite at step {k}")
    bad = [name for name in ("mean", "cov") if not np.isfinite(getattr(init, name)).all()]
    violations += [f"init {name} has non-finite entries" for name in bad]
    if init.dim != m:
        violations.append(f"init mean has length {init.dim}, expected {m}")
    elif "cov" in bad:
        pass
    elif not _is_symmetric(init.cov):
        violations.append("init cov: state covariance is not symmetric")
    else:
        # Semidefinite means what the draws can factor, jitter included.
        try:
            _cov_factor(init.cov)
        except np.linalg.LinAlgError:
            eig = np.linalg.eigvalsh(init.cov).min()
            violations.append("init cov: state covariance is not positive "
                              f"semidefinite (min eigenvalue {eig:g})")
    if violations:
        raise ValidationError(violations)


def apply_model(model: LinearModel, k: int, states: np.ndarray) -> np.ndarray:
    """Apply the step-k dynamics column-wise: each column x becomes A x + b.

    ``states`` is m x N or a stack of such matrices, (B, m, N).
    """
    step = model.step(k)
    states = np.asarray(states, dtype=np.float64)
    if states.ndim < 2 or states.shape[-2] != model.state_dim:
        raise ValueError(
            f"states must have {model.state_dim} rows, got shape {states.shape}"
        )
    out = _member_product(step.A, states)
    out += step.b[:, None]
    return out


def _member_product(matrix: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``matrix @ members`` for members as columns, taken at a width of whole
    blocks of ``_BLOCK`` members: zero columns fill the last block and are
    dropped.

    The BLAS may round a column differently at another width of product (a
    48-state product of 2, 33 or 129 columns does); at whole blocks it rounds
    each column alike, so a member's bits depend neither on N nor on the
    other members, and the tests pin that on the BLAS they run with.
    """
    n = members.shape[-1]
    width = -(-n // _BLOCK) * _BLOCK
    if width == n:
        return matrix @ members
    padded = np.zeros(members.shape[:-1] + (width,))
    padded[..., :n] = members
    return np.ascontiguousarray((matrix @ padded)[..., :n])


# ---------------------------------------------------------------------------
# JSON model files
#
# {"state_dim": m, "obs_dim": d,
#  "init": {"mean": [...], "cov": [[...]]},
#  "steps": [{"A": [[...]], "b": [...], "H": [[...]], "R": [[...]],
#             "data": [...]}, ...]}
#
# A step may carry "repeat": n to stand for n consecutive identical steps,
# sharing its "data" unless an explicit "data_sequence" list (one data vector
# per repetition) is given.
# ---------------------------------------------------------------------------


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ModelFormatError(f"missing key {key!r} in {where}")
    return mapping[key]


def _check_keys(mapping: dict, allowed: tuple[str, ...], where: str) -> None:
    # A misspelt optional key would otherwise change the model silently.
    for key in mapping:
        if key not in allowed:
            raise ModelFormatError(f"unknown key {key!r} in {where}")


def _is_int(value) -> bool:
    # bool is an int subclass, but true is not a count
    return isinstance(value, int) and not isinstance(value, bool)


def _expand_step(raw: dict, index: int) -> list[StepSpec]:
    if not isinstance(raw, dict):
        raise ModelFormatError(f"step {index} must be an object")
    where = f"step {index}"
    _check_keys(raw, ("A", "b", "H", "R", "data", "data_sequence", "repeat"), where)
    base = {name: _require(raw, name, where) for name in ("A", "b", "H", "R")}
    data_sequence = raw.get("data_sequence")
    repeat = raw.get("repeat")
    if repeat is not None and (not _is_int(repeat) or repeat < 1):
        raise ModelFormatError(f"repeat must be a positive integer in {where}")
    if data_sequence is not None:
        if not isinstance(data_sequence, list) or not data_sequence:
            raise ModelFormatError(f"data_sequence must be a non-empty list in {where}")
        if repeat is not None and repeat != len(data_sequence):
            raise ModelFormatError(
                f"repeat={repeat} does not match data_sequence length "
                f"{len(data_sequence)} in {where}"
            )
        data_list = data_sequence
    else:
        data_list = [_require(raw, "data", where)] * (repeat or 1)
    try:
        return [StepSpec(data=data, **base) for data in data_list]
    except (ValueError, TypeError, OverflowError) as exc:
        raise ModelFormatError(f"malformed arrays in {where}: {exc}") from exc


def model_from_dict(raw: dict) -> tuple[LinearModel, GaussianState]:
    """Build a (model, initial state) pair from a parsed model dict."""
    if not isinstance(raw, dict):
        raise ModelFormatError("model file must contain a JSON object")
    _check_keys(raw, ("state_dim", "obs_dim", "init", "steps"), "model")
    state_dim = _require(raw, "state_dim", "model")
    obs_dim = _require(raw, "obs_dim", "model")
    if not _is_int(state_dim) or not _is_int(obs_dim):
        raise ModelFormatError("state_dim and obs_dim must be integers")
    raw_steps = _require(raw, "steps", "model")
    if not isinstance(raw_steps, list):
        raise ModelFormatError("steps must be a list")
    steps: list[StepSpec] = []
    for i, raw_step in enumerate(raw_steps):
        steps.extend(_expand_step(raw_step, i))
    raw_init = _require(raw, "init", "model")
    if not isinstance(raw_init, dict):
        raise ModelFormatError("init must be an object with mean and cov")
    _check_keys(raw_init, ("mean", "cov"), "init")
    try:
        init = GaussianState(
            mean=_require(raw_init, "mean", "init"),
            cov=_require(raw_init, "cov", "init"),
        )
        model = LinearModel(steps=tuple(steps), state_dim=state_dim, obs_dim=obs_dim)
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"malformed model: {exc}") from exc
    return model, init


def model_to_dict(model: LinearModel, init: GaussianState) -> dict:
    """Inverse of model_from_dict, without repeat-compression."""
    return {
        "state_dim": model.state_dim,
        "obs_dim": model.obs_dim,
        "init": {"mean": init.mean.tolist(), "cov": init.cov.tolist()},
        "steps": [
            {
                "A": step.A.tolist(),
                "b": step.b.tolist(),
                "H": step.H.tolist(),
                "R": step.R.tolist(),
                "data": step.data.tolist(),
            }
            for step in model.steps
        ],
    }


def load_model(path) -> tuple[LinearModel, GaussianState]:
    """Load a model JSON file and check it with validate_model.

    A constraint violation raises ValidationError (carrying the violation
    list), a parse problem ModelFormatError and an I/O problem OSError.
    """
    with open(Path(path), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    model, init = model_from_dict(raw)
    validate_model(model, init)
    return model, init
