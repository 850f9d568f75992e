from contextlib import contextmanager

import numpy as np
import pytest

from enkf_lab import GaussianState, LinearModel, StepSpec, kf_run
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


@pytest.fixture(scope="session")
def diverging():
    """One unobserved scalar step with A = 1e153: the exact filter stays
    finite (variance 1e306), and both gains are 0, so the members keep their
    forecast values of about 1e153. The sum of their 4096 squares overflows,
    and with it the N = 4096 analysis sample covariance; at N = 4 and 64 it
    stays finite."""
    step = StepSpec(A=[[1e153]], b=[0.0], H=[[0.0]], R=[[1.0]], data=[0.0])
    model = LinearModel(steps=(step,), state_dim=1, obs_dim=1)
    return model, GaussianState(mean=[0.0], cov=[[1.0]])


@pytest.fixture(scope="session")
def singular_prior():
    """Two states, one observed, with the semidefinite prior diag(1, 0): the
    initial draws factor it with jitter."""
    step = StepSpec(A=np.eye(2), b=[0.0, 0.0], H=[[1.0, 0.0]], R=[[1.0]], data=[0.5])
    model = LinearModel(steps=(step,), state_dim=2, obs_dim=1)
    return model, GaussianState(mean=[0.0, 1.0], cov=np.diag([1.0, 0.0]))


def random_spd(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim))
    return scale * (g @ g.T) + 0.1 * scale * np.eye(dim)


@pytest.fixture
def fail_chains(monkeypatch):
    """Arm the study kernel to fail the chains of some replicates at one N.

    ``fail_chains(replicates, n)`` makes ``coupled_step`` raise on any stack
    of size-n chains that holds one of those replicates. The kernel then
    runs size n again on halves of the chunk, down to single replicates, so
    exactly those replicates fail at n; the other sizes run on, and the
    other replicates at n too. A chain is known by its data: member 1 of every
    perturbed-data draw of the armed replicates is recorded (a draw may serve
    one replicate or a sequence of them), and a stack whose data ensemble
    starts a row with one of them holds an armed chain. Study workers are
    forked children of the caller, so they inherit the arming.
    """
    import enkf_lab.enkf as enkf

    real_draw, real_step = enkf.perturb_data, enkf.coupled_step

    def arm(replicates, n):
        armed = set()

        def perturb_data(seed, replicate, k, size, data, r_cov):
            drawn = real_draw(seed, replicate, k, size, data, r_cov)
            slices = drawn[None] if np.ndim(replicate) == 0 else drawn
            for r, ensemble in zip(np.atleast_1d(replicate), slices):
                if r in replicates:
                    armed.add(ensemble[:, 0].tobytes())
            return drawn

        def coupled_step(state, model, data_ensemble, *args, **kwargs):
            firsts = data_ensemble[..., 0].reshape(-1, data_ensemble.shape[-2])
            if data_ensemble.shape[-1] == n and any(row.tobytes() in armed for row in firsts):
                raise RuntimeError("synthetic failure")
            return real_step(state, model, data_ensemble, *args, **kwargs)

        monkeypatch.setattr(enkf, "perturb_data", perturb_data)
        monkeypatch.setattr(enkf, "coupled_step", coupled_step)

    return arm


@contextmanager
def substituted_forecast_cov(cov_of_step):
    """Feed ``cov_of_step(k)`` to the step-k ensemble gain in place of X's
    forecast sample covariance, within the ``with`` block.

    Every ``coupled_step`` the library makes, ``coupled_run``'s included,
    runs with ``enkf._forecast_cov`` replaced for its one call; both names
    are restored on exit. A context manager, not a fixture, so that
    hypothesis tests can use it too.
    """
    import enkf_lab.enkf as enkf

    real_step, real_cov = enkf.coupled_step, enkf._forecast_cov

    def coupled_step(state, *args, **kwargs):
        enkf._forecast_cov = lambda A, cov: cov_of_step(state.step + 1)
        try:
            return real_step(state, *args, **kwargs)
        finally:
            enkf._forecast_cov = real_cov

    enkf.coupled_step = coupled_step
    try:
        yield
    finally:
        enkf.coupled_step = real_step


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
