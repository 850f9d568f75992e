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

    ``fail_chains(replicates, n)`` makes ``coupled_step`` raise on any stack
    of size-n chains that holds one of those replicates, so when the kernel
    runs the chunk again one replicate at a time, exactly those fail at n;
    the other sizes run on. A chain is known by its data: member 1 of every
    perturbed-data draw of the armed replicates is recorded, and a stack
    whose data ensemble starts a row with one of them holds an armed chain.
    In-process runs only (workers=1).
    """
    import enkf_lab.enkf as enkf

    real_draw, real_step = enkf.perturb_data, enkf.coupled_step

    def arm(replicates, n):
        armed = set()

        def perturb_data(seed, replicate, k, size, data, r_cov):
            drawn = real_draw(seed, replicate, k, size, data, r_cov)
            if replicate in replicates:
                armed.add(drawn.members[:, 0].tobytes())
            return drawn

        def coupled_step(state, model, data_ensemble, *args, **kwargs):
            firsts = data_ensemble.members[..., 0].reshape(-1, data_ensemble.state_dim)
            if data_ensemble.size == n and any(row.tobytes() in armed for row in firsts):
                raise RuntimeError("synthetic failure")
            return real_step(state, model, data_ensemble, *args, **kwargs)

        monkeypatch.setattr(enkf, "perturb_data", perturb_data)
        monkeypatch.setattr(enkf, "coupled_step", coupled_step)

    return arm


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
