"""Sample statistics and keyed Gaussian sampling.

An ensemble is an m x N float64 array with the members as columns, N >= 2;
a (B, m, N) stack holds B ensembles of one size, and the sample statistics
work slice by slice on it. Single-member ensembles are rejected where
ensembles enter the program, the draws: the 1/N sample covariance is
identically zero there and the size asymptotics are meaningless.

Draw scheme 4, recorded in study reports as draw_scheme: each draw call is
keyed by (seed, replicate, step, role), hashed once into a Philox key (Salmon
et al., SC'11). NumPy's ziggurat (Marsaglia & Tsang, 2000), through
Generator.standard_normal, fills the normals from that stream member by
member: member i of an m-dimensional draw is normals [i*m, (i+1)*m). Then
mean + G z, G the Cholesky factor, takes G z through the filters' own
member-wise product, model._member_product. Draws therefore depend neither on
evaluation order, nor on ensemble size, nor on the other replicates of a call:
the first N members of a larger ensemble are bit-identical to the size-N
ensemble. NEP 19 keeps raw Philox words stable across NumPy versions but not
the normals standard_normal makes of them, and the product's bits rest on
the BLAS; the golden report digest of the tests catches either change,
which then needs a new DRAW_SCHEME.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np
# Imported with the module: numpy loads numpy.random lazily, and otherwise
# every worker child, forked anew for each study, would import it again.
from numpy.random import Generator, Philox

from .model import GaussianState, _cov_factor, _member_product

_KEY_STRUCT = struct.Struct("<Qqqq")

# Recorded in study reports and config hashes; bump whenever the bits change.
DRAW_SCHEME = 4


class Role(IntEnum):
    """Separates the independent draw families of one experiment."""

    INIT = 0
    DATA_PERTURBATION = 1


def _check_seed(seed: int) -> None:
    # Keys pack the seed as a uint64: masking any other seed would alias it.
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class DrawKey:
    """Address of one draw call: all members of one role at one step.

    Step 0 is reserved for the initial ensemble. Distinct keys map to
    statistically independent streams.
    """

    experiment_seed: int
    replicate: int
    step: int
    role: Role

    def philox_key(self) -> np.ndarray:
        # 128-bit Philox key from a SHA-256 of the packed fields; stable
        # across platforms and sessions.
        _check_seed(self.experiment_seed)
        payload = _KEY_STRUCT.pack(
            self.experiment_seed, self.replicate, self.step, int(self.role)
        )
        digest = hashlib.sha256(payload).digest()
        return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def sample_mean(x: np.ndarray) -> np.ndarray:
    """Equally weighted mean of the member columns."""
    return x.mean(axis=-1)


def sample_cov(x: np.ndarray) -> np.ndarray:
    """1/N-normalized sample covariance of the members, symmetrized.

    Note the 1/N (not 1/(N-1)) normalization: this is the second-moment
    covariance mean(x x^T) - mean(x) mean(x)^T, evaluated in centered form.
    """
    centered = x - x.mean(axis=-1, keepdims=True)
    cov = (centered @ centered.mT) / x.shape[-1]
    return 0.5 * (cov + cov.mT)


def _draw_ensemble(
    seed: int, replicates: int | Sequence[int], step: int, role: Role, n: int,
    mean: np.ndarray, cov: np.ndarray,
) -> np.ndarray:
    if n < 2:
        raise ValueError(f"ensemble size must be at least 2, got {n}")
    single = isinstance(replicates, (int, np.integer))
    replicates = (replicates,) if single else tuple(replicates)
    mean = np.asarray(mean, dtype=np.float64)
    factor, _ = _cov_factor(np.asarray(cov, dtype=np.float64))
    dim = mean.shape[0]
    # Member i takes normals [i*dim, (i+1)*dim) of its replicate's stream,
    # which the ziggurat fills member by member (prefix property). A fresh
    # Philox state has a zero counter and an empty buffer, as Philox(key=...)
    # has; setting only its key re-keys one generator per replicate, without
    # the OS entropy Philox(key=...) gathers for a seed it never uses.
    bits = Philox(0)
    normals = Generator(bits)
    state = bits.state
    z = np.empty((len(replicates), n, dim))
    for b, replicate in enumerate(replicates):
        state["state"]["key"] = DrawKey(seed, replicate, step, role).philox_key()
        bits.state = state
        normals.standard_normal(out=z[b])
    # G z through the filters' member-wise product, so a member's bits
    # depend on neither n nor the other replicates.
    members = _member_product(factor, z.mT)
    members += mean[:, None]
    return members[0] if single else members


def init_ensemble(
    seed: int, replicate: int | Sequence[int], n: int, init: GaussianState
) -> np.ndarray:
    """Draw the initial ensemble: column i ~ N(u0, Q0) on its INIT stream.

    An int replicate gives one m x n ensemble, a sequence of B replicates a
    (B, m, n) stack whose slice b is bit-identical to the draw of
    ``replicate[b]`` alone. The first N columns for any larger size N' > N
    are bit-identical to the size-N ensemble.
    """
    return _draw_ensemble(seed, replicate, 0, Role.INIT, n, init.mean, init.cov)


def perturb_data(
    seed: int, replicate: int | Sequence[int], k: int, n: int, data: np.ndarray,
    r_cov: np.ndarray,
) -> np.ndarray:
    """Draw the step-k perturbed-data ensemble: column i ~ N(d, R).

    Streams are separated from the initial-ensemble streams by role; the
    replicate argument and the prefix property work as in ``init_ensemble``.
    """
    if k < 1:
        raise ValueError(f"data perturbations exist only for steps k >= 1, got {k}")
    return _draw_ensemble(seed, replicate, k, Role.DATA_PERTURBATION, n, data, r_cov)
