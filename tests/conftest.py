import numpy as np
import pytest

from enkf_lab import GaussianState, LinearModel, kf_run
from enkf_lab.reference import reference_model, scalar_model


@pytest.fixture(scope="session")
def scalar():
    return scalar_model()


@pytest.fixture(scope="session")
def scalar_kf(scalar):
    model, init = scalar
    return kf_run(model, init)


@pytest.fixture(scope="session")
def reference():
    return reference_model()


@pytest.fixture(scope="session")
def reference_kf(reference):
    model, init = reference
    return kf_run(model, init)


@pytest.fixture(scope="session")
def empty_scalar():
    """A 0-step model: nothing but the initial condition."""
    model = LinearModel(steps=(), state_dim=1, obs_dim=1)
    return model, GaussianState(mean=[0.5], cov=[[2.0]])


def random_spd(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim))
    return scale * (g @ g.T) + 0.1 * scale * np.eye(dim)


@pytest.fixture
def fail_chains(monkeypatch):
    """Arm the study kernel to fail the chains of some replicates at one N.

    ``fail_chains(replicates, n)`` makes ``coupled_step`` raise for those
    replicates at ensemble size n only; the other sizes run on. In-process
    runs only (workers=1).
    """
    import enkf_lab.enkf as enkf

    real_init, real_step = enkf.init_ensemble, enkf.coupled_step
    current = {}

    def init_ensemble(seed, replicate, size, init):
        current["replicate"] = replicate
        return real_init(seed, replicate, size, init)

    def arm(replicates, n):
        def coupled_step(state, *args, **kwargs):
            if current["replicate"] in replicates and state.enkf_ensemble.size == n:
                raise RuntimeError("synthetic failure")
            return real_step(state, *args, **kwargs)

        monkeypatch.setattr(enkf, "init_ensemble", init_ensemble)
        monkeypatch.setattr(enkf, "coupled_step", coupled_step)

    return arm


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
