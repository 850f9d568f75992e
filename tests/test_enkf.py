from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_spd, substituted_forecast_cov
from oracles import affine_kernel_scalars, coupled_scalars

from enkf_lab import (
    CoupledState,
    GaussianState,
    LinearModel,
    StepSpec,
    StudyConfig,
    apply_model,
    coupled_run,
    coupled_step,
    enkf_analysis,
    init_ensemble,
    kf_gain,
    kf_run,
    perturb_data,
    run_study,
    sample_cov,
    sample_mean,
)
from enkf_lab.enkf import _errors, chunk_errors, reference_step


class TestForecastAndGain:
    def test_identity_dynamics(self, rng):
        step = StepSpec(A=np.eye(3), b=np.zeros(3), H=np.eye(3), R=np.eye(3),
                        data=np.zeros(3))
        model = LinearModel(steps=(step,), state_dim=3, obs_dim=3)
        ens = rng.standard_normal((3, 6))
        assert np.array_equal(apply_model(model, 1, ens), ens)

    def test_duplicated_member_stays_duplicated(self, scalar):
        model, _ = scalar
        ens = np.full((1, 5), 3.0)
        out = apply_model(model, 1, ens)
        assert np.array_equal(out, np.full((1, 5), 7.0))

    def test_gain_is_kf_gain_on_same_input(self, reference, reference_kf):
        # the ensemble gain is the exact-gain formula and solver applied to
        # the forecast sample covariance, taken as A C A^T (symmetrized) of
        # the previous analysis sample covariance C, entry for entry
        model, init = reference
        run = coupled_run(model, init, 2, 1, 12, kf_trajectory=reference_kf)
        for k in range(1, len(run)):
            step = model.step(k)
            forecast_cov = step.A @ sample_cov(run[k - 1].enkf_ensemble) @ step.A.T
            expected = kf_gain(0.5 * (forecast_cov + forecast_cov.T), step.H, step.R)
            assert np.array_equal(run[k].ensemble_gain, expected)

    def test_scalar_gain_value(self, scalar, scalar_kf):
        # forecast variance 3 against R = 1 gives the gain 3 / (3 + 1)
        model, init = scalar
        with substituted_forecast_cov(lambda k: np.array([[3.0]])):
            run = coupled_run(model, init, 0, 0, 8, kf_trajectory=scalar_kf)
        assert run[1].ensemble_gain[0, 0] == 0.75

    def test_zero_cov_zero_gain(self, reference, reference_kf):
        model, init = reference
        with substituted_forecast_cov(lambda k: np.zeros((4, 4))):
            run = coupled_run(model, init, 0, 0, 8, kf_trajectory=reference_kf)
        for state in run[1:]:
            assert np.array_equal(state.ensemble_gain, np.zeros((4, 2)))


class TestAnalysis:
    def test_zero_gain_keeps_forecast(self, rng):
        xf = rng.standard_normal((2, 4))
        d = rng.standard_normal((1, 4))
        out = enkf_analysis(xf, d, np.zeros((2, 1)), np.ones((1, 2)))
        assert np.array_equal(out, xf)

    def test_zero_innovation_keeps_forecast(self, rng):
        xf = rng.standard_normal((2, 5))
        h = rng.standard_normal((1, 2))
        d = h @ xf
        gain = rng.standard_normal((2, 1))
        out = enkf_analysis(xf, d, gain, h)
        assert np.abs(out - xf).max() < 1e-15

    def test_hand_worked_update(self):
        xf = np.array([[0.0, 2.0]])
        d = np.array([[1.0, 1.0]])
        out = enkf_analysis(xf, d, np.array([[0.5]]), np.array([[1.0]]))
        # members 0 + 0.5*(1-0) and 2 + 0.5*(1-2)
        assert np.array_equal(out, [[0.5, 1.5]])

    def test_member_count_mismatch(self, rng):
        xf = rng.standard_normal((2, 4))
        d = rng.standard_normal((1, 5))
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
            uf = apply_model(model, k, run[k - 1].reference_ensemble)
            d = perturb_data(seed, rep, k, n, step.data, step.R)
            assert np.array_equal(
                run[k].reference_ensemble,
                enkf_analysis(uf, d, reference_kf.gain(k), step.H),
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
        xf = apply_model(model, 1, run[0].enkf_ensemble)
        d = perturb_data(seed, rep, 1, n, model.step(1).data, model.step(1).R)
        expected = (state.ensemble_gain - state.exact_gain) @ (
            d - model.step(1).H @ xf
        )
        actual = state.enkf_ensemble - state.reference_ensemble
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
        xf = apply_model(model, 1, run[0].enkf_ensemble)
        d = perturb_data(seed, rep, 1, n, model.step(1).data, model.step(1).R)
        expected = -state.exact_gain @ (d - model.step(1).H @ xf)
        actual = state.enkf_ensemble - state.reference_ensemble
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
            coupled_step(run[3], model, run[3].enkf_ensemble, run[3].reference_ensemble,
                         scalar_kf)


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
            run[0].enkf_ensemble, run[0].reference_ensemble
        )

    def test_deterministic_reruns(self, reference, reference_kf):
        model, init = reference
        a = coupled_run(model, init, 5, 7, 32, kf_trajectory=reference_kf)
        b = coupled_run(model, init, 5, 7, 32, kf_trajectory=reference_kf)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.enkf_ensemble, sb.enkf_ensemble)
            assert np.array_equal(
                sa.reference_ensemble, sb.reference_ensemble
            )

    def test_reference_trajectory_prefix_stable_in_n(self, reference):
        # the exact gain does not depend on N, the data draws share prefixes
        # and the member-wise products run on whole blocks of members, so the
        # U chain of the first members is size-independent, bit for bit, also
        # at the widths 2, 33 and 129, whose 48-state products the BLAS rounds
        # differently; the X chain is not (its gain sees every member)
        for (model, init), big_n, sizes in ((reference, 512, (8,)),
                                            (_random_model(48, 12, 3), 300, (2, 33, 129))):
            trajectory = kf_run(model, init)
            big = coupled_run(model, init, 0, 3, big_n, kf_trajectory=trajectory)
            for n in sizes:
                small = coupled_run(model, init, 0, 3, n, kf_trajectory=trajectory)
                for k in range(len(small)):
                    assert np.array_equal(
                        big[k].reference_ensemble[:, :n],
                        small[k].reference_ensemble,
                    )

    def test_coupling_identity_every_step(self, reference, reference_kf):
        model, init = reference
        run = coupled_run(model, init, 1, 0, 24, kf_trajectory=reference_kf)
        for k in range(1, len(run)):
            a = model.step(k).A
            xf = apply_model(model, k, run[k - 1].enkf_ensemble)
            uf = apply_model(model, k, run[k - 1].reference_ensemble)
            prev_diff = (
                run[k - 1].enkf_ensemble
                - run[k - 1].reference_ensemble
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

        x = run[0].enkf_ensemble[:, perm]
        u = x
        for k in range(1, len(run)):
            step = model.step(k)
            xf = apply_model(model, k, x)
            uf = apply_model(model, k, u)
            d = perturb_data(seed, rep, k, n, step.data, step.R)
            d = d[:, perm]
            gain = kf_gain(sample_cov(xf), step.H, step.R)
            x = enkf_analysis(xf, d, gain, step.H)
            u = enkf_analysis(uf, d, reference_kf.gain(k), step.H)

            orig = run[k]
            assert np.abs(x - orig.enkf_ensemble[:, perm]).max() < 1e-12
            assert np.abs(
                u - orig.reference_ensemble[:, perm]
            ).max() < 1e-12
            assert np.abs(gain - orig.ensemble_gain).max() < 1e-12
            assert np.abs(
                sample_mean(x) - sample_mean(orig.enkf_ensemble)
            ).max() < 1e-12
            assert np.abs(sample_cov(x) - sample_cov(orig.enkf_ensemble)).max() < 1e-12

    def test_exact_cov_hook_collapses_both_chains(self, reference, reference_kf):
        model, init = reference
        with substituted_forecast_cov(lambda k: reference_kf.forecast(k).cov):
            run = coupled_run(model, init, 0, 0, 16, kf_trajectory=reference_kf)
        for state in run[1:]:
            assert np.array_equal(state.ensemble_gain, state.exact_gain)
            assert np.array_equal(
                state.enkf_ensemble, state.reference_ensemble
            )

    def test_reference_law_pooled_over_replicates(self, scalar, scalar_kf):
        # pooled members of U across replicates behave as exact filtering
        # samples: mean within 4 sigma / sqrt(R*N), variance within 10%
        model, init = scalar
        reps, n, k = 50, 50, 3
        pooled = np.hstack(
            [
                coupled_run(model, init, 4, r, n, kf_trajectory=scalar_kf)[k]
                .reference_ensemble
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
    @pytest.mark.parametrize("problem", ["scalar", "reference", "odd", "random48"])
    def test_matches_coupled_run_at_every_n(self, request, problem):
        # slices of the largest draw give bit-identical chains at every N
        if problem == "odd":
            model, init = _odd_model()
        elif problem == "random48":
            model, init = _random_model(48, 12, 3)
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
            if 0 in np.atleast_1d(replicate):
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
            if 0 in np.atleast_1d(replicate) and k == 2:
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

    def test_only_failed_sizes_run_again(self, scalar, scalar_kf, fail_chains, monkeypatch):
        # One failing replicate of a chunk of 8 at N = 8: the other sizes
        # advance once as one stack, and N = 8 runs again on halves of the
        # chunk, at most twice per level of the 3 halvings plus the first run.
        import enkf_lab.enkf as enkf

        model, init = scalar
        steps = len(model.steps)
        replicates, n_grid = tuple(range(8)), (4, 8, 16)
        alone = [chunk_errors(model, init, 0, (r,), n_grid, scalar_kf)[0] for r in replicates]
        fail_chains({5}, 8)
        armed, calls = enkf.coupled_step, Counter()

        def coupled_step(state, model, data_ensemble, *args, **kwargs):
            calls[data_ensemble.shape[-1]] += 1
            return armed(state, model, data_ensemble, *args, **kwargs)

        monkeypatch.setattr(enkf, "coupled_step", coupled_step)
        scalars, failures = chunk_errors(model, init, 0, replicates, n_grid, scalar_kf)
        assert failures == {5: {8: "RuntimeError: synthetic failure"}}
        assert calls[4] == calls[16] == steps
        assert calls[8] <= (2 * 3 + 1) * steps
        for r in replicates:
            expected = alone[r].copy()
            if r == 5:
                expected[0, 1, 1:] = np.nan
            assert np.array_equal(scalars[r], expected[0], equal_nan=True)

    def test_draws_at_the_largest_running_n(self, scalar, scalar_kf, fail_chains,
                                           monkeypatch):
        # once N = 256 fails at step 1, the later draws serve N = 4 and 8
        # only, 8 wide
        import enkf_lab.enkf as enkf

        model, init = scalar  # 3 steps
        n_grid = (4, 8, 256)
        clean, _ = chunk_errors(model, init, 0, (0,), n_grid, scalar_kf)
        fail_chains({0}, 256)
        armed, widths = enkf.perturb_data, []

        def perturb_data(seed, replicate, k, n, data, r_cov):
            widths.append(n)
            return armed(seed, replicate, k, n, data, r_cov)

        monkeypatch.setattr(enkf, "perturb_data", perturb_data)
        scalars, failures = chunk_errors(model, init, 0, (0,), n_grid, scalar_kf)
        assert failures == {0: {256: "RuntimeError: synthetic failure"}}
        assert widths == [256, 8, 8]
        assert np.array_equal(scalars[0, :2], clean[0, :2], equal_nan=True)

    def test_scalars_read_member_one_of_u_only(self, reference, reference_kf):
        # the kernel carries U's member 1 alone, and the scalars read nothing
        # else of U
        model, init = reference
        run = coupled_run(model, init, 3, 0, 16, kf_trajectory=reference_kf)
        for k, state in enumerate(run):
            blanked = state.reference_ensemble.copy()
            blanked[:, 1:] = np.nan
            exact = reference_kf.analysis(k)
            assert np.array_equal(_errors(replace(state, reference_ensemble=blanked), exact),
                                  _errors(state, exact), equal_nan=True)


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

    @settings(max_examples=30, deadline=None)
    @given(problem=problems(), n_grid=st.builds(lambda grid, n: grid + (n,), GRIDS,
                                                  st.integers(129, 300)),
           seed=SEEDS, chunk=st.integers(1, 4),
           replicates=st.lists(st.integers(0, 99), min_size=1, max_size=6, unique=True))
    @example(problem=_odd_model(), n_grid=(2, 5, 127, 128, 129, 300), seed=3, chunk=2,
             replicates=[0, 3, 4])
    def test_kernel_matches_the_affine_oracle(self, problem, n_grid, seed, chunk, replicates):
        # The oracle shares no step code with the kernel, so the two agree to
        # rounding only: within 1e-10 of each scalar's scale, the scalar plus
        # the exact filter's size of what it measures. Grids reach past 128
        # members, where the member-wise products take more than one block.
        model, init = problem
        trajectory = kf_run(model, init)
        exact = [trajectory.analysis(k) for k in range(len(model.steps) + 1)]
        scale = np.empty((len(model.steps) + 1, 5))
        scale[:, :3] = [[np.linalg.norm(a.mean) + np.sqrt(np.trace(a.cov))] for a in exact]
        scale[:, 3] = [np.linalg.norm(a.cov) for a in exact]
        scale[:, 4] = [0.0] + [np.linalg.norm(trajectory.gain(k))
                               for k in range(1, len(model.steps) + 1)]
        for start in range(0, len(replicates), chunk):
            part = replicates[start:start + chunk]
            scalars, failures = chunk_errors(model, init, seed, part, n_grid, trajectory)
            assert failures == {}
            for row, replicate in enumerate(part):
                oracle = affine_kernel_scalars(model, init, seed, replicate, n_grid, trajectory)
                assert np.array_equal(np.isnan(scalars[row]), np.isnan(oracle))
                assert np.array_equal(scalars[row] == 0, oracle == 0)
                finite = ~np.isnan(oracle)
                deviation = np.abs(scalars[row] - oracle)[finite]
                assert (deviation <= 1e-10 * (oracle + scale)[finite]).all()

    @settings(max_examples=40, deadline=None)
    @given(problem=problems(), n=st.integers(2, 64), seed=SEEDS,
           replicate=st.integers(0, 99))
    def test_exact_covariance_chains_coincide(self, problem, n, seed, replicate):
        # with the exact forecast covariance the ensemble gain is the exact
        # gain, so X and U are one chain, bit for bit
        model, init = problem
        trajectory = kf_run(model, init)
        with substituted_forecast_cov(lambda k: trajectory.forecast(k).cov):
            run = coupled_run(model, init, seed, replicate, n, kf_trajectory=trajectory)
        for state in run[1:]:
            assert np.array_equal(state.ensemble_gain, state.exact_gain)
            assert np.array_equal(state.enkf_ensemble,
                                  state.reference_ensemble)


def _random_model(m=6, d=3, steps=4, seed=23):
    """m states, d observations, contracting dynamics."""
    rng = np.random.default_rng(seed)
    specs = tuple(
        StepSpec(A=0.9 * rng.standard_normal((m, m)) / np.sqrt(m), b=rng.standard_normal(m),
                 H=rng.standard_normal((d, m)), R=random_spd(rng, d),
                 data=rng.standard_normal(d))
        for _ in range(steps)
    )
    init = GaussianState(mean=rng.standard_normal(m), cov=random_spd(rng, m))
    return LinearModel(steps=specs, state_dim=m, obs_dim=d), init


class TestCarriedCovariance:
    """Each state carries the sample covariance C of its X ensemble, and the
    step takes the forecast sample covariance as A C A^T."""

    def test_one_sample_covariance_per_coupled_state(self, scalar, monkeypatch):
        import enkf_lab.enkf as enkf

        calls = Counter()

        def counted(name):
            real = getattr(enkf, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("sample_cov", "apply_model"):
            monkeypatch.setattr(enkf, name, counted(name))
        model, init = scalar  # 3 steps
        run_study(StudyConfig(model=model, init=init, n_grid=(4, 8, 16), replicates=3,
                              p_list=(2.0,)))
        # One chunk: per N, 4 states with one sample covariance each; per
        # step, one X forecast per N and one forecast of U's block 0.
        assert calls == {"sample_cov": 3 * 4, "apply_model": 3 * (3 + 1)}

    @pytest.mark.parametrize("problem", ["reference", "random"])
    @pytest.mark.parametrize("replicate", [4, (0, 1, 2)])
    def test_forecast_of_carried_cov_is_forecast_sample_cov(self, request, problem,
                                                            replicate):
        # single chains and stacks: up to rounding, at every step
        model, init = _random_model() if problem == "random" else request.getfixturevalue(problem)
        trajectory = kf_run(model, init)
        x = init_ensemble(5, replicate, 32, init)
        state = CoupledState(x, x, sample_cov(x), step=0)
        for k, step in enumerate(model.steps, start=1):
            assert np.array_equal(state.enkf_cov, sample_cov(state.enkf_ensemble))
            carried = step.A @ state.enkf_cov @ step.A.T
            direct = sample_cov(apply_model(model, k, state.enkf_ensemble))
            error = np.linalg.norm(carried - direct, axis=(-2, -1))
            assert (error <= 1e-12 * np.linalg.norm(direct, axis=(-2, -1))).all()
            data = perturb_data(5, replicate, k, 32, step.data, step.R)
            u = reference_step(model, k, state.reference_ensemble, data, trajectory)
            state = coupled_step(state, model, data, u, trajectory)
        assert np.array_equal(state.enkf_cov, sample_cov(state.enkf_ensemble))


class TestReferenceEnsembleLaw:
    # With the exact gain and perturbed data, the members of U at step k are
    # exactly i.i.d. N(u_k, Q_k): the Joseph form equals (I - L H) Q^f at the
    # optimal gain L. Their 1/N sample mean and covariance then have the
    # closed-form mean squared errors below (the second of them from the
    # Wishart second moments). Each replicate mean of a squared error must lie
    # within Z_BOUND of its standard errors of the closed form. At |z| <= 4.5
    # a check fails with chance about 7e-6 for a correct U, so the 12 checks
    # fail together with chance below 1e-4 for a fresh seed.
    Z_BOUND = 4.5
    REPLICATES = 2000

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_sample_moments_match_closed_forms(self, reference, reference_kf, n):
        model, init = reference
        seed, replicates = 11, range(self.REPLICATES)
        u = init_ensemble(seed, replicates, n, init)
        for k in range(1, 6):
            step = model.step(k)
            data = perturb_data(seed, replicates, k, n, step.data, step.R)
            u = reference_step(model, k, u, data, reference_kf)
            if k not in (1, 5):
                continue
            exact = reference_kf.analysis(k)
            q_fro2, q_trace = (exact.cov ** 2).sum(), np.trace(exact.cov)
            closed = {
                "mean": q_trace / n,
                "cov": (n - 1) / n**2 * (q_fro2 + q_trace**2) + q_fro2 / n**2,
            }
            errors = {
                "mean": ((sample_mean(u) - exact.mean) ** 2).sum(axis=-1),
                "cov": ((sample_cov(u) - exact.cov) ** 2).sum(axis=(-2, -1)),
            }
            for name, sq in errors.items():
                z = (sq.mean() - closed[name]) / (sq.std(ddof=1) / np.sqrt(len(sq)))
                assert abs(z) <= self.Z_BOUND, (name, n, k, z)
