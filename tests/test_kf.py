import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkf_lab import (
    GaussianState,
    LinearModel,
    StepSpec,
    kf_gain,
    kf_run,
)

from conftest import random_spd
from oracles import conjugate_scalar_chain


class TestForecast:
    def test_identity_dynamics_keeps_state(self):
        step = StepSpec(A=np.eye(2), b=np.zeros(2), H=np.eye(2), R=np.eye(2),
                        data=np.zeros(2))
        model = LinearModel(steps=(step,), state_dim=2, obs_dim=2)
        prior = GaussianState(mean=[1.0, -2.0], cov=[[2.0, 0.5], [0.5, 1.0]])
        out = kf_run(model, prior).forecast(1)
        assert np.array_equal(out.mean, prior.mean)
        assert np.abs(out.cov - prior.cov).max() < 1e-15

    def test_scalar_affine(self):
        step = StepSpec(A=[[2.0]], b=[1.0], H=[[1.0]], R=[[1.0]], data=[0.0])
        model = LinearModel(steps=(step,), state_dim=1, obs_dim=1)
        out = kf_run(model, GaussianState([3.0], [[1.0]])).forecast(1)
        assert out.mean[0] == 7.0
        assert out.cov[0, 0] == 4.0

    def test_matches_monte_carlo_of_affine_image(self, rng):
        # the forecast covariance is the covariance of A s + b, s ~ N(u, Q)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal(4)
        u = rng.standard_normal(4)
        q = random_spd(rng, 4)
        step = StepSpec(A=a, b=b, H=np.eye(4), R=np.eye(4), data=np.zeros(4))
        model = LinearModel(steps=(step,), state_dim=4, obs_dim=4)
        out = kf_run(model, GaussianState(u, q)).forecast(1)

        n = 10**6
        samples = rng.multivariate_normal(u, q, size=n).T
        images = a @ samples + b[:, None]
        mc_cov = np.cov(images, bias=True)
        # per-entry standard error of a Gaussian sample covariance
        diag = np.diag(out.cov)
        se = np.sqrt((np.outer(diag, diag) + out.cov**2) / n)
        assert np.all(np.abs(mc_cov - out.cov) <= 3.0 * se)

    def test_output_cov_exactly_symmetric(self, rng):
        a = rng.standard_normal((3, 3))
        step = StepSpec(A=a, b=np.zeros(3), H=np.eye(3), R=np.eye(3), data=np.zeros(3))
        model = LinearModel(steps=(step,), state_dim=3, obs_dim=3)
        out = kf_run(model, GaussianState(np.zeros(3), random_spd(rng, 3))).forecast(1)
        assert np.array_equal(out.cov, out.cov.T)


class TestGain:
    def test_scalar_half(self):
        gain = kf_gain(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert gain.shape == (1, 1)
        assert abs(gain[0, 0] - 0.5) < 1e-15

    def test_zero_forecast_cov_gives_zero_gain(self):
        gain = kf_gain(np.zeros((3, 3)), np.ones((2, 3)), np.eye(2))
        assert np.array_equal(gain, np.zeros((3, 2)))

    def test_residual_identity(self, rng):
        qf = random_spd(rng, 3)
        h = rng.standard_normal((2, 3))
        r = random_spd(rng, 2)
        gain = kf_gain(qf, h, r)
        residual = gain @ (h @ qf @ h.T + r) - qf @ h.T
        assert np.linalg.norm(residual, "fro") <= 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_residual_bound_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        qf = random_spd(rng, m, scale=float(rng.uniform(0.01, 10)))
        h = rng.standard_normal((d, m))
        r = random_spd(rng, d, scale=float(rng.uniform(0.1, 5)))
        gain = kf_gain(qf, h, r)
        residual = np.linalg.norm(gain @ (h @ qf @ h.T + r) - qf @ h.T, "fro")
        assert residual <= 1e-10 * (1 + np.linalg.norm(qf, "fro"))

    def test_non_spd_innovation_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            kf_gain(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))

    def test_overflowing_solve_raises(self):
        # the innovation covariance 1e-312 is finite and positive definite;
        # only the solve, 1e-302 / 1e-312, overflows
        with pytest.raises(np.linalg.LinAlgError,
                           match="^Kalman gain has non-finite entries$"):
            kf_gain([[1e308]], [[1e-310]], [[1e-312]])

    @pytest.mark.parametrize("m, d", [(1, 1), (3, 1), (4, 2), (5, 5)])
    def test_stack_is_each_slice_alone(self, rng, m, d):
        covs = np.stack([random_spd(rng, m) for _ in range(3)])
        h = rng.standard_normal((d, m))
        r = random_spd(rng, d)
        gains = kf_gain(covs, h, r)
        assert gains.shape == (3, m, d)
        for cov, gain in zip(covs, gains):
            assert np.array_equal(gain, kf_gain(cov, h, r))
            # gain S = Q^f H^T, checked without the solver
            s = h @ cov @ h.T + r
            s = 0.5 * (s + s.T)
            target = (h @ cov).T
            assert np.abs(gain @ s - target).max() <= 1e-12 * np.abs(target).max()

    def test_non_spd_slice_of_a_stack_raises(self, rng):
        covs = np.stack([random_spd(rng, 2), -10.0 * np.eye(2)])
        with pytest.raises(np.linalg.LinAlgError,
                           match="^innovation covariance is not positive definite$"):
            kf_gain(covs, np.eye(2), np.eye(2))

    def test_nan_slice_of_a_stack_raises(self, rng):
        covs = np.stack([random_spd(rng, 2), np.full((2, 2), np.nan)])
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            kf_gain(covs, np.eye(2), np.eye(2))


def _analysis(prior: GaussianState, h, r, data) -> GaussianState:
    # One step with identity dynamics, so the forecast is the prior itself.
    m = prior.dim
    step = StepSpec(A=np.eye(m), b=np.zeros(m), H=h, R=r, data=data)
    model = LinearModel(steps=(step,), state_dim=m, obs_dim=len(data))
    return kf_run(model, prior).analysis(1)


class TestAnalysis:
    def test_zero_innovation_keeps_mean(self, rng):
        prior = GaussianState([1.0, 2.0], random_spd(rng, 2))
        h = np.array([[1.0, 0.0]])
        out = _analysis(prior, h, [[1.0]], h @ prior.mean)
        assert np.array_equal(out.mean, prior.mean)

    def test_conjugate_scalar_posterior(self):
        # posterior of N(0,1) prior under d=2, h=1, r=1 is N(1, 1/2)
        out = _analysis(GaussianState([0.0], [[1.0]]), [[1.0]], [[1.0]], [2.0])
        assert abs(out.mean[0] - 1.0) < 1e-15
        assert abs(out.cov[0, 0] - 0.5) < 1e-15

    def test_zero_gain_keeps_forecast(self, rng):
        # an unobserved state takes a zero gain
        prior = GaussianState([1.0, 2.0], random_spd(rng, 2))
        out = _analysis(prior, np.zeros((1, 2)), [[1.0]], [5.0])
        assert np.array_equal(out.mean, prior.mean)
        assert np.abs(out.cov - prior.cov).max() < 1e-15


class TestRun:
    def test_empty_model_returns_initial_state_only(self, empty_scalar):
        model, init = empty_scalar
        trajectory = kf_run(model, init)
        assert len(trajectory) == 0
        assert trajectory.analysis(0) is init

    def test_one_step_conjugate(self):
        step = StepSpec(A=[[1.0]], b=[0.0], H=[[1.0]], R=[[1.0]], data=[2.0])
        model = LinearModel(steps=(step,), state_dim=1, obs_dim=1)
        trajectory = kf_run(model, GaussianState([0.0], [[1.0]]))
        analysis = trajectory.analysis(1)
        assert abs(analysis.mean[0] - 1.0) < 1e-15
        assert abs(analysis.cov[0, 0] - 0.5) < 1e-15

    def test_scalar_chain_matches_density_product_oracle(self, scalar):
        model, init = scalar
        trajectory = kf_run(model, init)
        for k, (f_mean, f_var, mean, var) in enumerate(
            conjugate_scalar_chain(model, init), start=1
        ):
            assert abs(trajectory.forecast(k).mean[0] - f_mean) < 1e-12
            assert abs(trajectory.forecast(k).cov[0, 0] - f_var) < 1e-12
            assert abs(trajectory.analysis(k).mean[0] - mean) < 1e-12
            assert abs(trajectory.analysis(k).cov[0, 0] - var) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                # a nonzero A keeps every forecast variance positive, which
                # the precision-form oracle divides by
                st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)),  # A
                st.floats(-5.0, 5.0),  # b
                st.floats(-3.0, 3.0),  # H
                st.floats(0.01, 10.0),  # R
                st.floats(-10.0, 10.0),  # data
            ),
            min_size=1, max_size=8,
        ),
        mean=st.floats(-10.0, 10.0),
        var=st.floats(0.01, 10.0),
    )
    def test_random_scalar_chain_matches_density_product_oracle(self, steps, mean, var):
        model = LinearModel(
            steps=tuple(StepSpec(A=[[a]], b=[b], H=[[h]], R=[[r]], data=[d])
                        for a, b, h, r, d in steps),
            state_dim=1, obs_dim=1,
        )
        init = GaussianState([mean], [[var]])
        trajectory = kf_run(model, init)
        for k, expected in enumerate(conjugate_scalar_chain(model, init), start=1):
            forecast, analysis = trajectory.forecast(k), trajectory.analysis(k)
            actual = (forecast.mean[0], forecast.cov[0, 0], analysis.mean[0],
                      analysis.cov[0, 0])
            for got, want in zip(actual, expected):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_posterior_never_exceeds_forecast_loewner(self, reference, reference_kf, rng):
        for k in range(1, len(reference_kf) + 1):
            q_f = reference_kf.forecast(k).cov
            q_a = reference_kf.analysis(k).cov
            for _ in range(100):
                x = rng.standard_normal(4)
                x /= np.linalg.norm(x)
                assert x @ q_a @ x <= x @ q_f @ x + 1e-10

    def test_covariances_symmetric_and_psd(self, reference_kf):
        for k in range(1, len(reference_kf) + 1):
            for cov in (reference_kf.forecast(k).cov, reference_kf.analysis(k).cov):
                assert np.array_equal(cov, cov.T)
                eigs = np.linalg.eigvalsh(cov)
                assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)

    def test_step_accessors_range_checked(self, scalar_kf):
        with pytest.raises(ValueError, match="out of range"):
            scalar_kf.gain(0)
        with pytest.raises(ValueError, match="out of range"):
            scalar_kf.analysis(4)
