import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_spd
from oracles import coupled_scalars

from enkf_lab import (
    CoupledState,
    Ensemble,
    GaussianState,
    LinearModel,
    StepSpec,
    coupled_run,
    coupled_step,
    enkf_analysis,
    enkf_forecast,
    kf_gain,
    kf_run,
    perturb_data,
    sample_cov,
    sample_mean,
)
from enkf_lab.enkf import chunk_errors


class TestForecastAndGain:
    def test_identity_dynamics(self, rng):
        step = StepSpec(A=np.eye(3), b=np.zeros(3), H=np.eye(3), R=np.eye(3),
                        data=np.zeros(3))
        model = LinearModel(steps=(step,), state_dim=3, obs_dim=3)
        ens = Ensemble(rng.standard_normal((3, 6)))
        assert np.array_equal(enkf_forecast(model, 1, ens).members, ens.members)

    def test_duplicated_member_stays_duplicated(self, scalar):
        model, _ = scalar
        ens = Ensemble(np.full((1, 5), 3.0))
        out = enkf_forecast(model, 1, ens)
        assert np.array_equal(out.members, np.full((1, 5), 7.0))

    def test_gain_is_kf_gain_on_same_input(self, reference, reference_kf):
        # the ensemble gain is the exact-gain formula and solver applied to
        # the forecast sample covariance, entry for entry
        model, init = reference
        run = coupled_run(model, init, 2, 1, 12, kf_trajectory=reference_kf)
        for k in range(1, len(run)):
            step = model.step(k)
            xf = enkf_forecast(model, k, run[k - 1].enkf_ensemble)
            expected = kf_gain(sample_cov(xf), step.H, step.R)
            assert np.array_equal(run[k].ensemble_gain, expected)

    def test_scalar_gain_value(self, scalar, scalar_kf):
        # forecast variance 3 against R = 1 gives the gain 3 / (3 + 1)
        model, init = scalar
        run = coupled_run(model, init, 0, 0, 8, kf_trajectory=scalar_kf,
                          forecast_cov_override=lambda k: np.array([[3.0]]))
        assert run[1].ensemble_gain[0, 0] == 0.75

    def test_zero_cov_zero_gain(self, reference, reference_kf):
        model, init = reference
        run = coupled_run(model, init, 0, 0, 8, kf_trajectory=reference_kf,
                          forecast_cov_override=lambda k: np.zeros((4, 4)))
        for state in run[1:]:
            assert np.array_equal(state.ensemble_gain, np.zeros((4, 2)))

    def test_forecast_is_apply_model_on_the_matrix(self, reference, rng):
        from enkf_lab import apply_model

        model, _ = reference
        ens = Ensemble(rng.standard_normal((4, 5)))
        assert np.array_equal(
            enkf_forecast(model, 2, ens).members, apply_model(model, 2, ens.members)
        )


class TestAnalysis:
    def test_zero_gain_keeps_forecast(self, rng):
        xf = Ensemble(rng.standard_normal((2, 4)))
        d = Ensemble(rng.standard_normal((1, 4)))
        out = enkf_analysis(xf, d, np.zeros((2, 1)), np.ones((1, 2)))
        assert np.array_equal(out.members, xf.members)

    def test_zero_innovation_keeps_forecast(self, rng):
        xf = Ensemble(rng.standard_normal((2, 5)))
        h = rng.standard_normal((1, 2))
        d = Ensemble(h @ xf.members)
        gain = rng.standard_normal((2, 1))
        out = enkf_analysis(xf, d, gain, h)
        assert np.abs(out.members - xf.members).max() < 1e-15

    def test_hand_worked_update(self):
        xf = Ensemble([[0.0, 2.0]])
        d = Ensemble([[1.0, 1.0]])
        out = enkf_analysis(xf, d, np.array([[0.5]]), np.array([[1.0]]))
        # members 0 + 0.5*(1-0) and 2 + 0.5*(1-2)
        assert np.array_equal(out.members, [[0.5, 1.5]])

    def test_member_count_mismatch(self, rng):
        xf = Ensemble(rng.standard_normal((2, 4)))
        d = Ensemble(rng.standard_normal((1, 5)))
        with pytest.raises(ValueError, match="members"):
            enkf_analysis(xf, d, np.zeros((2, 1)), np.ones((1, 2)))

    def test_reference_analysis_same_formula(self, reference, reference_kf):
        # U is updated by the EnKF formula with the exact gain, on the same
        # data ensemble as X, bit for bit
        model, init = reference
        seed, rep, n = 6, 2, 10
        run = coupled_run(model, init, seed, rep, n, kf_trajectory=reference_kf)
        for k in range(1, len(run)):
            step = model.step(k)
            uf = enkf_forecast(model, k, run[k - 1].reference_ensemble)
            d = perturb_data(seed, rep, k, n, step.data, step.R)
            assert np.array_equal(
                run[k].reference_ensemble.members,
                enkf_analysis(uf, d, reference_kf.gain(k), step.H).members,
            )

    def test_reference_members_follow_filtering_law(self, scalar, scalar_kf):
        # advancing one member chain with the exact gain yields samples of
        # the filtering distribution
        model, init = scalar
        n = 10**4
        run = coupled_run(model, init, seed=21, replicate=0, n=n,
                          kf_trajectory=scalar_kf)
        for k in range(1, 4):
            exact = scalar_kf.analysis(k)
            u = run[k].reference_ensemble
            tol = 4 * np.sqrt(exact.cov[0, 0] / n)
            assert abs(sample_mean(u)[0] - exact.mean[0]) <= tol


class TestCoupledStep:
    def test_first_step_difference_identity(self, reference, reference_kf):
        model, init = reference
        seed, rep, n = 3, 2, 32
        run = coupled_run(model, init, seed, rep, n, kf_trajectory=reference_kf)
        state = run[1]
        # X - U after the first analysis is (K - L)(D - H X^f), since X^f = U^f
        xf = enkf_forecast(model, 1, run[0].enkf_ensemble)
        d = perturb_data(seed, rep, 1, n, model.step(1).data, model.step(1).R)
        expected = (state.ensemble_gain - state.exact_gain) @ (
            d.members - model.step(1).H @ xf.members
        )
        actual = state.enkf_ensemble.members - state.reference_ensemble.members
        assert np.abs(actual - expected).max() < 1e-12

    def test_degenerate_prior_gives_zero_ensemble_gain(self, scalar, ):
        model, _ = scalar
        init = GaussianState(mean=[1.0], cov=[[0.0]])
        trajectory = kf_run(model, init)
        seed, rep, n = 0, 0, 16
        run = coupled_run(model, init, seed, rep, n, kf_trajectory=trajectory)
        state = run[1]
        assert np.array_equal(state.ensemble_gain, np.zeros((1, 1)))
        # divergence is (0 - L)(D - H X^f)
        xf = enkf_forecast(model, 1, run[0].enkf_ensemble)
        d = perturb_data(seed, rep, 1, n, model.step(1).data, model.step(1).R)
        expected = -state.exact_gain @ (d.members - model.step(1).H @ xf.members)
        actual = state.enkf_ensemble.members - state.reference_ensemble.members
        assert np.abs(actual - expected).max() < 1e-12

    def test_scalar_gain_close_at_large_n(self, scalar, scalar_kf):
        model, init = scalar
        run = coupled_run(model, init, seed=0, replicate=0, n=4096,
                          kf_trajectory=scalar_kf)
        assert abs(run[1].ensemble_gain[0, 0] - run[1].exact_gain[0, 0]) < 0.1

    def test_step_beyond_model_rejected(self, scalar, scalar_kf):
        model, init = scalar
        run = coupled_run(model, init, 0, 0, 8, kf_trajectory=scalar_kf)
        with pytest.raises(ValueError, match="out of range"):
            coupled_step(run[3], model, run[3].enkf_ensemble, scalar_kf)


class TestCoupledRun:
    def test_empty_model_single_state(self, empty_scalar):
        model, init = empty_scalar
        run = coupled_run(model, init, 0, 0, 8)
        assert len(run) == 1
        assert run[0].step == 0
        assert run[0].enkf_ensemble is run[0].reference_ensemble

    def test_initial_ensembles_bit_identical(self, reference, reference_kf):
        model, init = reference
        run = coupled_run(model, init, 0, 0, 16, kf_trajectory=reference_kf)
        assert np.array_equal(
            run[0].enkf_ensemble.members, run[0].reference_ensemble.members
        )

    def test_deterministic_reruns(self, reference, reference_kf):
        model, init = reference
        a = coupled_run(model, init, 5, 7, 32, kf_trajectory=reference_kf)
        b = coupled_run(model, init, 5, 7, 32, kf_trajectory=reference_kf)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.enkf_ensemble.members, sb.enkf_ensemble.members)
            assert np.array_equal(
                sa.reference_ensemble.members, sb.reference_ensemble.members
            )

    def test_reference_trajectory_prefix_stable_in_n(self, reference, reference_kf):
        # the exact gain does not depend on N and the data draws share
        # prefixes, so the U chain of the first members is size-independent;
        # the X chain is not (its gain sees every member)
        model, init = reference
        small = coupled_run(model, init, 0, 3, 8, kf_trajectory=reference_kf)
        big = coupled_run(model, init, 0, 3, 512, kf_trajectory=reference_kf)
        for k in range(len(small)):
            assert np.array_equal(
                big[k].reference_ensemble.members[:, :8],
                small[k].reference_ensemble.members,
            )

    def test_coupling_identity_every_step(self, reference, reference_kf):
        model, init = reference
        run = coupled_run(model, init, 1, 0, 24, kf_trajectory=reference_kf)
        for k in range(1, len(run)):
            a = model.step(k).A
            xf = enkf_forecast(model, k, run[k - 1].enkf_ensemble).members
            uf = enkf_forecast(model, k, run[k - 1].reference_ensemble).members
            prev_diff = (
                run[k - 1].enkf_ensemble.members
                - run[k - 1].reference_ensemble.members
            )
            assert np.abs((xf - uf) - a @ prev_diff).max() < 1e-12

    def test_relabeling_members_permutes_trajectories(self, reference, reference_kf):
        # the update map treats members symmetrically: permuting the initial
        # members and the data-perturbation draws identically permutes every
        # later ensemble and leaves the statistics and gains unchanged
        model, init = reference
        seed, rep, n = 11, 0, 10
        run = coupled_run(model, init, seed, rep, n, kf_trajectory=reference_kf)
        perm = np.random.default_rng(0).permutation(n)

        x = Ensemble(run[0].enkf_ensemble.members[:, perm])
        u = x
        for k in range(1, len(run)):
            step = model.step(k)
            xf = enkf_forecast(model, k, x)
            uf = enkf_forecast(model, k, u)
            d = perturb_data(seed, rep, k, n, step.data, step.R)
            d = Ensemble(d.members[:, perm])
            gain = kf_gain(sample_cov(xf), step.H, step.R)
            x = enkf_analysis(xf, d, gain, step.H)
            u = enkf_analysis(uf, d, reference_kf.gain(k), step.H)

            orig = run[k]
            assert np.abs(x.members - orig.enkf_ensemble.members[:, perm]).max() < 1e-12
            assert np.abs(
                u.members - orig.reference_ensemble.members[:, perm]
            ).max() < 1e-12
            assert np.abs(gain - orig.ensemble_gain).max() < 1e-12
            assert np.abs(
                sample_mean(x) - sample_mean(orig.enkf_ensemble)
            ).max() < 1e-12
            assert np.abs(sample_cov(x) - sample_cov(orig.enkf_ensemble)).max() < 1e-12

    def test_exact_cov_hook_collapses_both_chains(self, reference, reference_kf):
        model, init = reference
        run = coupled_run(
            model, init, 0, 0, 16, kf_trajectory=reference_kf,
            forecast_cov_override=lambda k: reference_kf.forecast(k).cov,
        )
        for state in run[1:]:
            assert np.array_equal(state.ensemble_gain, state.exact_gain)
            assert np.array_equal(
                state.enkf_ensemble.members, state.reference_ensemble.members
            )

    def test_reference_law_pooled_over_replicates(self, scalar, scalar_kf):
        # pooled members of U across replicates behave as exact filtering
        # samples: mean within 4 sigma / sqrt(R*N), variance within 10%
        model, init = scalar
        reps, n, k = 50, 50, 3
        pooled = np.hstack(
            [
                coupled_run(model, init, 4, r, n, kf_trajectory=scalar_kf)[k]
                .reference_ensemble.members
                for r in range(reps)
            ]
        )
        exact = scalar_kf.analysis(k)
        sigma = np.sqrt(exact.cov[0, 0])
        assert abs(pooled.mean() - exact.mean[0]) <= 4 * sigma / np.sqrt(reps * n)
        assert abs(pooled.var() - exact.cov[0, 0]) <= 0.1 * exact.cov[0, 0]


def _odd_model():
    """3 states, 1 observation: odd dimensions in both draw roles."""
    a = np.array([[0.9, 0.1, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 0.7]])
    steps = tuple(
        StepSpec(A=a, b=[0.1, 0.0, -0.1], H=[[1.0, 0.5, 0.0]], R=[[0.3]], data=[d])
        for d in (0.4, -0.2, 0.9)
    )
    init = GaussianState(mean=[0.5, 0.0, -0.5],
                         cov=[[0.4, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.5]])
    return LinearModel(steps=steps, state_dim=3, obs_dim=1), init


class TestReplicateErrors:
    @pytest.mark.parametrize("problem", ["scalar", "reference", "odd"])
    def test_matches_coupled_run_at_every_n(self, request, problem):
        # slices of the largest draw give bit-identical chains at every N
        if problem == "odd":
            model, init = _odd_model()
        else:
            model, init = request.getfixturevalue(problem)
        trajectory = kf_run(model, init)
        n_grid = (2, 5, 16, 33)
        replicates = (0, 3)
        scalars, failures = chunk_errors(model, init, 7, replicates, n_grid, trajectory)
        assert failures == {}
        assert scalars.shape == (2, len(n_grid), len(model.steps) + 1, 5)
        for row, replicate in enumerate(replicates):
            for j, n in enumerate(n_grid):
                run = coupled_run(model, init, 7, replicate, n, kf_trajectory=trajectory)
                assert np.array_equal(scalars[row, j], coupled_scalars(run, trajectory),
                                      equal_nan=True)

    def test_chain_failure_stops_that_n_only(self, scalar, scalar_kf, fail_chains):
        model, init = scalar
        n_grid = (4, 8, 16)
        clean, _ = chunk_errors(model, init, 0, (0, 1, 2), n_grid, scalar_kf)
        fail_chains({1}, 8)
        scalars, failures = chunk_errors(model, init, 0, (0, 1, 2), n_grid, scalar_kf)
        assert failures == {1: {8: "RuntimeError: synthetic failure"}}
        assert np.array_equal(scalars[1, [0, 2]], clean[1, [0, 2]], equal_nan=True)
        assert np.isnan(scalars[1, 1, 1:]).all()
        # the other replicates of the stack run on, bit for bit
        assert np.array_equal(scalars[[0, 2]], clean[[0, 2]], equal_nan=True)

    def test_failed_draw_fails_every_n(self, scalar, scalar_kf, monkeypatch):
        import enkf_lab.enkf as enkf

        model, init = scalar
        clean, _ = chunk_errors(model, init, 0, (0, 1), (4, 8), scalar_kf)
        real = enkf.perturb_data

        def broken(seed, replicate, k, n, data, r_cov):
            if replicate == 0:
                raise RuntimeError(f"no draw at step {k}")
            return real(seed, replicate, k, n, data, r_cov)

        monkeypatch.setattr(enkf, "perturb_data", broken)
        scalars, failures = chunk_errors(model, init, 0, (0, 1), (4, 8), scalar_kf)
        assert failures == {0: {4: "RuntimeError: no draw at step 1",
                                8: "RuntimeError: no draw at step 1"}}
        assert np.array_equal(scalars[1], clean[1], equal_nan=True)

    def test_first_failure_per_n_wins(self, scalar, scalar_kf, fail_chains, monkeypatch):
        # replicate 0 fails its step at N = 4, then its step-2 draw: N = 4
        # keeps the step's error and only N = 8 gets the draw's
        import enkf_lab.enkf as enkf

        model, init = scalar
        clean, _ = chunk_errors(model, init, 0, (0, 1), (4, 8), scalar_kf)
        fail_chains({0}, 4)
        armed = enkf.perturb_data

        def broken(seed, replicate, k, n, data, r_cov):
            if replicate == 0 and k == 2:
                raise RuntimeError(f"no draw at step {k}")
            return armed(seed, replicate, k, n, data, r_cov)

        monkeypatch.setattr(enkf, "perturb_data", broken)
        scalars, failures = chunk_errors(model, init, 0, (0, 1), (4, 8), scalar_kf)
        assert failures == {0: {4: "RuntimeError: synthetic failure",
                                8: "RuntimeError: no draw at step 2"}}
        assert np.array_equal(scalars[0, 0, :1], clean[0, 0, :1], equal_nan=True)
        assert np.isnan(scalars[0, 0, 1:]).all()
        assert np.array_equal(scalars[0, 1, :2], clean[0, 1, :2], equal_nan=True)
        assert np.isnan(scalars[0, 1, 2:]).all()
        assert np.array_equal(scalars[1], clean[1], equal_nan=True)


@st.composite
def problems(draw):
    """Random models: 1 to 6 states, 1 to m observations, 1 to 3 steps."""
    m = draw(st.integers(1, 6))
    d = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = tuple(
        StepSpec(A=rng.standard_normal((m, m)) / np.sqrt(m), b=rng.standard_normal(m),
                 H=rng.standard_normal((d, m)), R=random_spd(rng, d),
                 data=rng.standard_normal(d))
        for _ in range(draw(st.integers(1, 3)))
    )
    init = GaussianState(mean=rng.standard_normal(m), cov=random_spd(rng, m))
    return LinearModel(steps=steps, state_dim=m, obs_dim=d), init


GRIDS = st.lists(st.integers(2, 64), min_size=1, max_size=4, unique=True).map(
    lambda grid: tuple(sorted(grid)))
SEEDS = st.integers(0, 2**32 - 1)


class TestStackedChains:
    @settings(max_examples=40, deadline=None)
    @given(problem=problems(), n_grid=GRIDS, seed=SEEDS, chunk=st.integers(1, 4),
           replicates=st.lists(st.integers(0, 99), min_size=1, max_size=6, unique=True))
    @example(problem=_odd_model(), n_grid=(2, 5, 16), seed=3, chunk=2,
             replicates=[0, 3, 4, 9, 11])  # chunks of 2, 2 and 1
    def test_kernel_matches_one_coupled_run_per_replicate(self, problem, n_grid, seed,
                                                          chunk, replicates):
        model, init = problem
        trajectory = kf_run(model, init)
        for start in range(0, len(replicates), chunk):
            part = replicates[start:start + chunk]
            scalars, failures = chunk_errors(model, init, seed, part, n_grid, trajectory)
            assert failures == {}
            for row, replicate in enumerate(part):
                for j, n in enumerate(n_grid):
                    run = coupled_run(model, init, seed, replicate, n,
                                      kf_trajectory=trajectory)
                    assert np.array_equal(scalars[row, j], coupled_scalars(run, trajectory),
                                          equal_nan=True)

    @settings(max_examples=40, deadline=None)
    @given(problem=problems(), n=st.integers(2, 64), seed=SEEDS,
           replicate=st.integers(0, 99))
    def test_exact_covariance_chains_coincide(self, problem, n, seed, replicate):
        # with the exact forecast covariance the ensemble gain is the exact
        # gain, so X and U are one chain, bit for bit
        model, init = problem
        trajectory = kf_run(model, init)
        run = coupled_run(model, init, seed, replicate, n, kf_trajectory=trajectory,
                          forecast_cov_override=lambda k: trajectory.forecast(k).cov)
        for state in run[1:]:
            assert np.array_equal(state.ensemble_gain, state.exact_gain)
            assert np.array_equal(state.enkf_ensemble.members,
                                  state.reference_ensemble.members)


class TestCoupledState:
    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="identical shape"):
            CoupledState(
                enkf_ensemble=Ensemble(rng.standard_normal((2, 4))),
                reference_ensemble=Ensemble(rng.standard_normal((2, 5))),
                step=0,
            )

    def test_initial_state_requires_identical_ensembles(self, rng):
        x = rng.standard_normal((2, 4))
        with pytest.raises(ValueError, match="bit-identical"):
            CoupledState(
                enkf_ensemble=Ensemble(x),
                reference_ensemble=Ensemble(x + 1e-12),
                step=0,
            )
