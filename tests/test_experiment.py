import dataclasses
import functools
import json
import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from enkf_lab import (
    GaussianState,
    Metric,
    StudyConfig,
    coupled_run,
    experiment,
    fit_rate,
    kf_run,
    lp_estimate,
    run_study,
)
from enkf_lab.enkf import COLUMNS, COV_ERR, GAIN_ERR, MEAN_ERR, MEMBER_DIFF, MEMBER_NORM
from enkf_lab.experiment import (
    ConvergenceReport,
    EstimateRow,
    MomentFlagRow,
    StudyFormatError,
    _moment_ratio,
    config_hash,
)

from conftest import substituted_forecast_cov
from oracles import lp_estimate_at_step, mean_estimate_at_step, replicate_scalars


@pytest.fixture(scope="module")
def scalar_runs(scalar, scalar_kf):
    """R=100 coupled replicates of the scalar model at N=16 and N=4096."""
    model, init = scalar
    out = {}
    for n in (16, 4096):
        out[n] = [
            coupled_run(model, init, 0, r, n, kf_trajectory=scalar_kf)
            for r in range(100)
        ]
    return out


@pytest.fixture(scope="module")
def scalar_rows(scalar_runs, scalar_kf):
    """The estimator's input for ``scalar_runs``: per N, the kernel scalars
    of each replicate, recomputed from its trajectory."""
    return {n: replicate_scalars(runs, scalar_kf) for n, runs in scalar_runs.items()}


def lp_log_space(norms, p):
    """(mean |v|^p)^(1/p) and its delta-method standard error, computed from
    logarithms: se = value * std(|v|^p / mean |v|^p) / (p sqrt(R))."""
    logs = p * np.log(norms)
    log_mean = np.logaddexp.reduce(logs) - np.log(len(norms))
    value = np.exp(log_mean / p)
    ratios = np.exp(logs - log_mean)
    return value, value * ratios.std(ddof=1) / (p * np.sqrt(len(norms)))


class TestMemberLpError:
    def test_zero_at_initialization(self, scalar_rows):
        est = lp_estimate(scalar_rows[16], MEMBER_DIFF, 2)
        assert est.value[0] == 0.0
        assert est.stderr[0] == 0.0

    def test_two_replicate_formula(self):
        # with member-1 error norms {0, 2}: ((0 + 2^2)/2)^(1/2) = sqrt(2)
        scalars = np.zeros((2, 1, 5))
        scalars[1, 0, MEMBER_DIFF] = 2.0
        est = lp_estimate(scalars, MEMBER_DIFF, 2)
        assert abs(est.value[0] - np.sqrt(2.0)) < 1e-15

    def test_error_decreases_with_ensemble_size(self, scalar_rows):
        small = lp_estimate(scalar_rows[16], MEMBER_DIFF, 2)
        big = lp_estimate(scalar_rows[4096], MEMBER_DIFF, 2)
        assert big.value[3] < small.value[3]

    def test_p2_equals_root_mean_square_recomputation(self, scalar_runs, scalar_rows):
        runs = scalar_runs[16]
        est = lp_estimate(scalar_rows[16], MEMBER_DIFF, 2)
        sq = [
            float(
                np.sum(
                    (
                        run[2].enkf_ensemble[:, 0]
                        - run[2].reference_ensemble[:, 0]
                    )
                    ** 2
                )
            )
            for run in runs
        ]
        assert abs(est.value[2] - np.sqrt(np.mean(sq))) <= 1e-14

    @pytest.mark.parametrize("p", [300.0, 1000.0])
    def test_large_order_matches_log_space_reference(self, scalar, scalar_kf, p):
        # |v|^p leaves float64's range at these orders (underflow at
        # p = 300, zero at p = 1000); the estimate must not
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(4, 8, 16), replicates=10,
                             p_list=(p,), metrics=(Metric.MEMBER_LP,))
        with np.errstate(over="raise"):
            report = run_study(config)
        label = f"member_lp_p{int(p)}"
        for n in config.n_grid:
            runs = [coupled_run(model, init, 0, r, n, kf_trajectory=scalar_kf)
                    for r in range(10)]
            rows = replicate_scalars(runs, scalar_kf)
            for k in range(1, 4):
                row = report.estimate(label, k, n)
                value, stderr = lp_log_space(rows[:, k, MEMBER_DIFF], p)
                assert row.estimate > 0 and row.stderr > 0
                assert row.estimate == pytest.approx(value, rel=1e-12)
                assert row.stderr == pytest.approx(stderr, rel=1e-9)

    def test_one_replicate_has_a_nan_stderr(self, scalar_rows):
        # one rule for every column and order, as Estimate documents it
        one = scalar_rows[16][:1]
        for column, p in ((MEMBER_DIFF, 2), (MEMBER_NORM, 2), (MEAN_ERR, 1),
                          (COV_ERR, 1), (GAIN_ERR, 1)):
            est = lp_estimate(one, column, p)
            assert np.isfinite(est.value[1:]).all()
            assert np.isnan(est.stderr).all()


class TestMeanCovError:
    def test_degenerate_prior_exact_at_k0(self, scalar):
        model, _ = scalar
        init = GaussianState(mean=[1.0], cov=[[0.0]])
        trajectory = kf_run(model, init)
        runs = [
            coupled_run(model, init, 0, r, 8, kf_trajectory=trajectory)
            for r in range(3)
        ]
        scalars = replicate_scalars(runs, trajectory)
        mean_est, cov_est = (lp_estimate(scalars, c, 1) for c in (MEAN_ERR, COV_ERR))
        assert mean_est.value[0] == 0.0
        assert cov_est.value[0] == 0.0

    def test_single_replicate_stderr_undefined(self, scalar_rows):
        one = scalar_rows[16][:1]
        mean_est, cov_est = (lp_estimate(one, c, 1) for c in (MEAN_ERR, COV_ERR))
        assert np.isnan(mean_est.stderr).all()
        assert np.isnan(cov_est.stderr).all()

    def test_cov_error_shrinks_with_exact_gain_hook(self, scalar, scalar_kf):
        # with the exact forecast covariance the members stay i.i.d. samples,
        # so the covariance error follows the 1/sqrt(N) sampling law
        model, init = scalar
        errs = []
        for n in (16, 256, 4096):
            with substituted_forecast_cov(lambda k: scalar_kf.forecast(k).cov):
                runs = [coupled_run(model, init, 0, r, n, kf_trajectory=scalar_kf)
                        for r in range(30)]
            cov_est = lp_estimate(replicate_scalars(runs, scalar_kf), COV_ERR, 1)
            errs.append(cov_est.value[3])
        fit = fit_rate(list(zip((16, 256, 4096), errs)))
        assert -0.75 < fit.slope < -0.25


class TestGainError:
    def test_zero_with_exact_cov_hook(self, scalar, scalar_kf):
        model, init = scalar
        with substituted_forecast_cov(lambda k: scalar_kf.forecast(k).cov):
            runs = [coupled_run(model, init, 0, r, 8, kf_trajectory=scalar_kf)
                    for r in range(3)]
        scalars = replicate_scalars(runs, scalar_kf)
        assert (lp_estimate(scalars, GAIN_ERR, 1).value[1:] == 0.0).all()

    def test_decreasing_in_n(self, scalar_rows):
        big, small = (lp_estimate(scalar_rows[n], GAIN_ERR, 1) for n in (4096, 16))
        assert (big.value[1:] < small.value[1:]).all()

    def test_no_gain_at_step_zero(self, scalar_rows):
        # the kernel's step-0 gain scalar is NaN, and so is the estimate
        est = lp_estimate(scalar_rows[16], GAIN_ERR, 1)
        assert np.isnan(est.value[0]) and np.isnan(est.stderr[0])
        assert np.isfinite(est.value[1:]).all()


class TestMomentMonitor:
    def test_initial_moment_is_size_independent(self, scalar_rows):
        # member 1 at k=0 is literally the same draw at every N
        a = lp_estimate(scalar_rows[16], MEMBER_NORM, 4)
        b = lp_estimate(scalar_rows[4096], MEMBER_NORM, 4)
        assert a.value[0] == b.value[0]

    def test_standard_normal_second_moment(self, empty_scalar):
        # E|N(0,1)|^2 = 1
        model, _ = empty_scalar
        init = GaussianState(mean=[0.0], cov=[[1.0]])
        trajectory = kf_run(model, init)
        runs = [
            coupled_run(model, init, 3, r, 2, kf_trajectory=trajectory)
            for r in range(200)
        ]
        est = lp_estimate(replicate_scalars(runs, trajectory), MEMBER_NORM, 2)
        assert abs(est.value[0] - 1.0) <= 3 * est.stderr[0]

    def test_monitor_table_and_flag(self, scalar, scalar_rows):
        # the study tabulates the member-1 moment over the grid and flags a
        # max/min ratio above MOMENT_FLAG_RATIO
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(16, 4096),
                             replicates=100, p_list=(4.0,),
                             metrics=(Metric.MOMENT_MONITOR,))
        report = run_study(config)
        table = [lp_estimate(scalar_rows[n], MEMBER_NORM, 4).value[3] for n in (16, 4096)]
        assert [report.estimate("moment_p4", 3, n).estimate for n in (16, 4096)] == table
        (flag,) = [row for row in report.moment_flags if row.k == 3]
        assert flag.max_over_min == max(table) / min(table)
        assert not flag.flagged
        assert flag.max_over_min < 3.0


def synthetic_scalars(rng):
    """Six replicates whose steps take each path of the estimator: all zero,
    about 1e-200 and about 1e200 (scaled by max|v|), plain, and plain with
    zeros; the gain column is NaN at step 0, as the kernel's is."""
    base = rng.uniform(0.5, 2.0, size=(6, 5, 5))
    scalars = base * np.array([0.0, 1e-200, 1e200, 1.0, 1.0])[None, :, None]
    scalars[::2, 4] = 0.0
    scalars[:, 0, GAIN_ERR] = np.nan
    return scalars


class TestEveryStepMatchesOneStep:
    # Each step of an every-step estimate equals the one-step arithmetic on
    # that step's replicate values alone, bit for bit (NaN included).

    @staticmethod
    def assert_bits(est, per_step):
        assert [float(v).hex() for v in est.value] == [float(v).hex() for v, _ in per_step]
        assert [float(s).hex() for s in est.stderr] == [float(s).hex() for _, s in per_step]

    @staticmethod
    def cases(source, scalar_rows, rng):
        if source == "scalar_rows":
            return list(scalar_rows.values())
        return [synthetic_scalars(rng)]

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 7.5])
    @pytest.mark.parametrize("source", ["scalar_rows", "synthetic"])
    def test_lp_estimators(self, source, p, scalar_rows, rng):
        for scalars in self.cases(source, scalar_rows, rng):
            for column in (MEMBER_DIFF, MEMBER_NORM):
                self.assert_bits(lp_estimate(scalars, column, p), [
                    lp_estimate_at_step(scalars[:, k, column], p)
                    for k in range(scalars.shape[1])])

    @pytest.mark.parametrize("source", ["scalar_rows", "synthetic"])
    def test_mean_estimators(self, source, scalar_rows, rng):
        for scalars in self.cases(source, scalar_rows, rng):
            for column in (MEAN_ERR, COV_ERR, GAIN_ERR):
                self.assert_bits(lp_estimate(scalars, column, 1), [
                    mean_estimate_at_step(scalars[:, k, column])
                    for k in range(scalars.shape[1])])


class TestFitRate:
    def test_exact_power_law(self):
        points = [(n, 3.0 * n**-0.5) for n in (10, 100, 1000, 10000)]
        fit = fit_rate(points)
        assert abs(fit.slope + 0.5) < 1e-12
        assert fit.max_residual < 1e-12

    def test_constant_errors_zero_slope(self):
        fit = fit_rate([(10, 2.0), (100, 2.0), (1000, 2.0)])
        assert abs(fit.slope) < 1e-14

    def test_two_points_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_rate([(10, 1.0), (100, 0.5)])

    def test_nonpositive_dropped_and_counted(self):
        points = [(10, 0.0), (100, 1.0), (1000, 0.5), (10000, 0.25)]
        fit = fit_rate(points)
        assert np.isfinite(fit.slope)
        assert fit.dropped_nonpositive == 1
        assert fit.points_used == 3

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_rate([(10, 0.0), (100, 0.0), (1000, 0.0)])

    def test_matches_polyfit(self, rng):
        # the closed form agrees with NumPy's least-squares line fit
        for size in (3, 5, 8):
            grid = np.cumsum(rng.integers(1, 500, size)) + 1
            points = [(int(n), float(e)) for n, e in zip(grid, rng.lognormal(-3.0, 2.0, size))]
            fit = fit_rate(points)
            log_n, log_e = np.log(grid), np.log([e for _, e in points])
            slope, intercept = np.polyfit(log_n, log_e, 1)
            assert abs(fit.slope - slope) <= 1e-12 and abs(fit.intercept - intercept) <= 1e-12
            residual = np.abs(log_e - (slope * log_n + intercept)).max()
            assert abs(fit.max_residual - residual) <= 1e-12


class TestStudyConfig:
    def test_grid_must_increase(self, scalar):
        model, init = scalar
        with pytest.raises(ValueError, match="increasing"):
            StudyConfig(model=model, init=init, n_grid=(16, 16), replicates=2)

    def test_grid_minimum_size(self, scalar):
        model, init = scalar
        with pytest.raises(ValueError, match=">= 2"):
            StudyConfig(model=model, init=init, n_grid=(1, 4), replicates=2)

    def test_moment_order_at_least_one(self, scalar):
        model, init = scalar
        with pytest.raises(ValueError, match=">= 1"):
            StudyConfig(model=model, init=init, n_grid=(2, 4), replicates=2,
                        p_list=(0.5,))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("n_grid", (4.7, 8, 16), "integers"),
            ("n_grid", (4, True, 16), "integers"),
            ("replicates", 2.5, "integers"),
            ("replicates", True, "integers"),
            ("p_list", (2, 2.0), "distinct"),
            ("p_list", (float("nan"),), "finite"),
            ("p_list", (2.0, float("inf")), "finite"),
            ("metrics", (Metric.GAIN_ERR, Metric.MEAN_ERR, Metric.GAIN_ERR), "distinct"),
            ("seed", 2**64, r"seed must be in \[0, 2\*\*64\)"),
            ("seed", -1, r"seed must be in \[0, 2\*\*64\)"),
        ],
    )
    def test_rejected_not_coerced(self, scalar, field, value, match):
        model, init = scalar
        fields = {"n_grid": (4, 8, 16), "replicates": 2, field: value}
        with pytest.raises(ValueError, match=match):
            StudyConfig(model=model, init=init, **fields)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5),
            ("seed", "7"),
            ("p_list", ("2",)),
            ("p_list", (True,)),
            ("metrics", ("mean_err",)),
            ("n_grid", 16),
            ("n_grid", "4,8,16"),
        ],
    )
    def test_wrong_type_is_study_format_error(self, scalar, field, value):
        model, init = scalar
        fields = {"n_grid": (4, 8, 16), "replicates": 2, field: value}
        with pytest.raises(StudyFormatError, match=field):
            StudyConfig(model=model, init=init, **fields)

    def test_numpy_integers_accepted_as_int(self, scalar):
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=np.array([4, 8]),
                             replicates=np.int64(3))
        assert config.n_grid == (4, 8) and config.replicates == 3
        assert all(type(v) is int for v in (*config.n_grid, config.replicates))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_in_share():
    raise RuntimeError("the child's share failed")


def die_in_share():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def deadline():
    """Fails a test that would hang with TimeoutError after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the study hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestRunStudy:
    def small_config(self, scalar, seed=0):
        model, init = scalar
        return StudyConfig(
            model=model, init=init, seed=seed, n_grid=(4, 8), replicates=2,
            p_list=(2.0,),
        )

    def test_structure(self, scalar):
        report = run_study(self.small_config(scalar))
        for metric in ("member_lp_p2", "mean_err", "cov_err", "moment_p2"):
            for k in range(4):
                rows = [r for r in report.estimates if r.metric == metric and r.k == k]
                assert [r.n for r in rows] == [4, 8]
        gain_rows = [r for r in report.estimates if r.metric == "gain_err"]
        assert {r.k for r in gain_rows} == {1, 2, 3}
        # 2-point grid cannot support rate fits
        assert report.rates == []

    def test_deterministic(self, scalar):
        a = run_study(self.small_config(scalar)).to_dict()
        b = run_study(self.small_config(scalar)).to_dict()
        a["metadata"].pop("timestamp")
        b["metadata"].pop("timestamp")
        assert a == b

    def test_seed_changes_numbers(self, scalar):
        a = run_study(self.small_config(scalar, seed=0))
        b = run_study(self.small_config(scalar, seed=1))
        assert a.estimate("member_lp_p2", 1, 4).estimate != b.estimate(
            "member_lp_p2", 1, 4
        ).estimate

    def test_workers_do_not_change_results(self, scalar):
        sequential = run_study(self.small_config(scalar)).to_dict()
        parallel = run_study(self.small_config(scalar), workers=2).to_dict()
        sequential["metadata"].pop("timestamp")
        parallel["metadata"].pop("timestamp")
        assert sequential == parallel

    def test_malloc_thresholds_set_once_per_process(self, scalar, monkeypatch):
        lookups, calls = [], []

        def fake_cdll(name):
            lookups.append(name)
            return SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))

        monkeypatch.setattr(experiment.ctypes, "CDLL", fake_cdll)
        # A fresh run-once wrapper, as in a process that has run no study yet.
        monkeypatch.setattr(experiment, "_keep_freed_memory",
                            functools.cache(experiment._keep_freed_memory.__wrapped__))
        run_study(self.small_config(scalar))
        run_study(self.small_config(scalar))
        assert lookups == [None]
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_metric_subset_respected(self, scalar):
        model, init = scalar
        config = StudyConfig(
            model=model, init=init, n_grid=(4, 8), replicates=2,
            p_list=(2.0,), metrics=(Metric.GAIN_ERR,),
        )
        report = run_study(config)
        assert {r.metric for r in report.estimates} == {"gain_err"}
        assert report.moment_flags == []

    def test_member_lp_zero_rows_have_zero_error(self, scalar):
        report = run_study(self.small_config(scalar))
        for n in (4, 8):
            assert report.estimate("member_lp_p2", 0, n).estimate == 0.0

    def test_config_hash_tracks_content(self, scalar):
        assert config_hash(self.small_config(scalar, seed=0)) != config_hash(
            self.small_config(scalar, seed=1)
        )

    def test_config_hash_reads_every_array_entry(self, reference):
        # the hash sees each entry's value, not the array's layout, and a
        # change of one entry of any array changes it
        model, init = reference
        config = StudyConfig(model=model, init=init, n_grid=(4, 8), replicates=2)
        base = config_hash(config)
        fortran = GaussianState(mean=init.mean, cov=np.asfortranarray(init.cov + 0.0))
        assert config_hash(dataclasses.replace(config, init=fortran)) == base
        for k in range(len(model.steps)):
            for name in ("A", "b", "H", "R", "data"):
                changed = getattr(model.steps[k], name).copy()
                changed.flat[-1] += 1e-9
                steps = list(model.steps)
                steps[k] = dataclasses.replace(steps[k], **{name: changed})
                other = dataclasses.replace(model, steps=tuple(steps))
                assert config_hash(dataclasses.replace(config, model=other)) != base, (k, name)

    def test_chunking_does_not_change_the_report(self, scalar, monkeypatch, tmp_path,
                                                 fail_chains):
        # chunks of 1, uneven chunks of 2, one chunk, and two workers' even
        # shares (3 + 2) write the same files, byte for byte; so do they all
        # when replicates fail, since forked workers inherit the failures
        import enkf_lab.enkf as enkf
        import enkf_lab.experiment as experiment

        model, init = scalar
        config = StudyConfig(model=model, init=init, seed=2, n_grid=(4, 8, 16),
                             replicates=5, p_list=(2.0, 3.0))
        real = experiment.chunk_errors
        sizes = []

        def recording(model, init, seed, replicates, *rest):
            sizes.append(len(replicates))
            return real(model, init, seed, replicates, *rest)

        monkeypatch.setattr(experiment, "chunk_errors", recording)

        def written(elements, workers=1, case="clean"):
            monkeypatch.setattr(experiment, "CHUNK_ELEMENTS", elements)
            report = run_study(config, workers=workers)
            report.metadata.pop("timestamp")
            out = tmp_path / f"{case}-{elements}-{workers}"
            out.mkdir()
            report.write_json(out / "report.json")
            report.write_estimates_csv(out / "estimates.csv")
            report.write_rates_csv(out / "rates.csv")
            return {path.name: path.read_bytes() for path in out.iterdir()}

        # state_dim 1 and largest N 16: 16 entries per replicate
        one_each = written(1)
        assert sizes == [1] * 5
        uneven = written(32)
        assert sizes[5:] == [2, 2, 1]
        whole = written(10**9)
        assert sizes[8:] == [5]
        assert one_each == uneven == whole == written(10**9, workers=2)

        # replicates 1 and 3 fail at N = 8, and replicate 4's step-2 draw
        fail_chains({1, 3}, 8)
        armed = enkf.perturb_data

        def broken(seed, replicate, k, n, data, r_cov):
            if 4 in np.atleast_1d(replicate) and k == 2:
                raise RuntimeError("no draw")
            return armed(seed, replicate, k, n, data, r_cov)

        monkeypatch.setattr(enkf, "perturb_data", broken)
        failing = [written(elements, case="failing") for elements in (1, 32, 10**9)]
        failing.append(written(10**9, workers=2, case="failing"))
        assert failing[0] == failing[1] == failing[2] == failing[3] != one_each
        failures = json.loads(failing[0]["report.json"])["metadata"]["failures"]
        assert {n: [f["replicate"] for f in failed] for n, failed in failures.items()} == {
            "4": [4], "8": [1, 3, 4], "16": [4]}

    def test_partial_replicate_failure_preserved(self, scalar, monkeypatch):
        # a failed draw of replicate 1 fails it at every N
        import enkf_lab.enkf as enkf

        real = enkf.perturb_data

        def flaky(seed, replicate, k, n, data, r_cov):
            if 1 in np.atleast_1d(replicate):
                raise RuntimeError("synthetic failure")
            return real(seed, replicate, k, n, data, r_cov)

        monkeypatch.setattr(enkf, "perturb_data", flaky)
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(4, 8), replicates=3,
                             p_list=(2.0,))
        report = run_study(config)
        for n in ("4", "8"):
            (entry,) = report.metadata["failures"][n]
            assert entry["replicate"] == 1
            assert "synthetic failure" in entry["error"]
        # surviving replicates still produce estimates
        assert report.estimate("member_lp_p2", 1, 4).estimate > 0

    def test_diverging_chain_fails_loudly(self, diverging):
        # Every chain at N = 4096 fails at the finiteness check of its
        # state, since its analysis sample covariance overflows. At N = 4
        # and 64 that covariance and its error (about 4e305 and 2e305) are
        # finite, so those chains run on and count in the estimates.
        # No non-finite number reaches the estimates.
        model, init = diverging
        config = StudyConfig(model=model, init=init, n_grid=(4, 64, 4096), replicates=4)
        with np.errstate(over="ignore"):
            report = run_study(config)
        failures = report.metadata["failures"]
        assert failures["4096"] == [
            {"replicate": r, "error": "ValueError: ensemble entries must be finite"}
            for r in range(4)]
        assert set(failures) == {"4096"}
        assert {row.n for row in report.estimates} == {4, 64}
        assert np.isfinite([(row.estimate, row.stderr) for row in report.estimates]).all()
        for n in (4, 64):
            cov_err = report.estimate("cov_err", 1, n)
            assert np.isfinite(cov_err.estimate) and cov_err.estimate > 0.0

    def test_cov_jitter_recorded(self, singular_prior, reference):
        # only a prior that needs jitter adds the key, so every other report
        # keeps its bytes
        model, init = singular_prior
        config = StudyConfig(model=model, init=init, n_grid=(4, 8), replicates=2)
        assert run_study(config).metadata["cov_jitter"] == {"init": 1e-14}
        model, init = reference
        config = StudyConfig(model=model, init=init, n_grid=(4, 8), replicates=2)
        assert "cov_jitter" not in run_study(config).metadata

    def test_matches_public_estimators(self, scalar, scalar_kf):
        # the study's estimates equal lp_estimate applied to the scalars
        # recomputed from coupled_run trajectories, bit for bit
        model, init = scalar
        config = StudyConfig(model=model, init=init, seed=4, n_grid=(4, 8, 16),
                             replicates=5, p_list=(2.0, 3.5))
        report = run_study(config)

        def check(metric, n, est, first=0):
            for k in range(first, len(model.steps) + 1):
                row = report.estimate(metric, k, n)
                assert (row.estimate, row.stderr) == (est.value[k], est.stderr[k])

        for n in config.n_grid:
            runs = [coupled_run(model, init, 4, r, n, kf_trajectory=scalar_kf)
                    for r in range(config.replicates)]
            scalars = replicate_scalars(runs, scalar_kf)
            for p, label in ((2.0, "p2"), (3.5, "p3.5")):
                check(f"member_lp_{label}", n, lp_estimate(scalars, MEMBER_DIFF, p))
                check(f"moment_{label}", n, lp_estimate(scalars, MEMBER_NORM, p))
            check("mean_err", n, lp_estimate(scalars, MEAN_ERR, 1))
            check("cov_err", n, lp_estimate(scalars, COV_ERR, 1))
            check("gain_err", n, lp_estimate(scalars, GAIN_ERR, 1), first=1)
        assert len(report.estimates) == 3 * (4 * 6 + 3)

    def test_one_estimator_call_per_size(self, scalar, monkeypatch):
        # the estimator answers for all steps, so the study calls it once
        # per N and label, not once per step: 3 sizes x 7 labels
        calls = []
        real = experiment.lp_estimate

        def counted(scalars, column, p):
            calls.append((column, p))
            return real(scalars, column, p)

        monkeypatch.setattr(experiment, "lp_estimate", counted)
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(4, 8, 16),
                             replicates=3, p_list=(2.0, 4.0))
        run_study(config)
        assert len(calls) == 21
        assert sorted(set(calls)) == sorted(
            [(MEMBER_DIFF, 2.0), (MEMBER_DIFF, 4.0), (MEMBER_NORM, 2.0), (MEMBER_NORM, 4.0),
             (MEAN_ERR, 1.0), (COV_ERR, 1.0), (GAIN_ERR, 1.0)])

    def test_row_order(self, scalar):
        # estimates and rates in label order, so p10 before p2; moment flags
        # in numeric order of p
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(4, 8, 16),
                             replicates=3, p_list=(2.0, 10.0))
        report = run_study(config)
        keys = [(row.metric, row.k, row.n) for row in report.estimates]
        assert keys == sorted(keys)
        assert len(keys) == 3 * (4 * 6 + 3)
        labels = list(dict.fromkeys(metric for metric, _, _ in keys))
        assert labels == ["cov_err", "gain_err", "mean_err", "member_lp_p10",
                          "member_lp_p2", "moment_p10", "moment_p2"]
        rate_keys = [(row.metric, row.k) for row in report.rates]
        assert rate_keys == sorted(rate_keys)
        assert {metric for metric, _ in rate_keys} == set(labels[:5])
        assert [(row.metric, row.k) for row in report.moment_flags] == [
            (f"moment_p{p}", k) for p in (2, 10) for k in range(4)]

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1, 1.5, True])
    def test_workers_out_of_range_rejected(self, scalar, monkeypatch, workers):
        # Checked before any study work: nothing forks, and a bool or a
        # non-integer is no worker count.
        def no_fork():
            raise AssertionError("a worker was forked despite a bad workers count")

        def no_work(*args, **kwargs):
            raise AssertionError("the study ran despite a bad workers count")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(experiment, "kf_run", no_work)
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(4, 8, 16), replicates=3)
        bound = ("an int" if isinstance(workers, (bool, float))
                 else f"between 1 and {os.cpu_count() or 1}")
        with pytest.raises(ValueError, match=f"workers must be {bound}, got {workers}"):
            run_study(config, workers=workers)

    def test_one_fork_per_extra_worker(self, scalar, monkeypatch):
        # The caller computes the first share: W workers fork W - 1
        # children per study, and one worker forks none.
        real_fork, forks = os.fork, []

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(4, 8, 16),
                             replicates=3, p_list=(2.0,))
        for workers, expected in ((2, 1), (3, 3), (1, 3)):
            run_study(config, workers=workers)
            assert len(forks) == expected, workers
        assert_no_child_left()

    def test_all_zero_metric_gets_no_rate_fit(self, scalar):
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(4, 8, 16),
                             replicates=2, p_list=(2.0,))
        report = run_study(config)
        fitted = {(r.metric, r.k) for r in report.rates}
        assert ("member_lp_p2", 0) not in fitted  # identically zero at k=0
        assert ("member_lp_p2", 1) in fitted
        row = report.rate("member_lp_p2", 1)
        assert row.points_used == 3
        assert row.dropped_nonpositive == 0


class TestMetricTable:
    # Every metric is lp_estimate of one kernel column, read from one table.

    def test_one_row_per_metric(self):
        assert list(experiment.METRIC_TABLE) == list(Metric)
        for spec in experiment.METRIC_TABLE.values():
            assert spec.column in COLUMNS

    @pytest.fixture(scope="class")
    def studies(self, scalar):
        # p = 1 sits in p_list too, so the orders of p_list take the p = 1
        # path of the estimator as well.
        model, init = scalar
        config = StudyConfig(model=model, init=init, seed=4, n_grid=(4, 8, 16),
                             replicates=5, p_list=(3.5, 1.0, 2.0))
        alone = {metric: run_study(dataclasses.replace(config, metrics=(metric,))).to_dict()
                 for metric in Metric}
        return run_study(config).to_dict(), alone

    @pytest.mark.parametrize("metric", list(Metric), ids=lambda metric: metric.value)
    def test_one_metric_alone_matches_the_full_study(self, studies, metric):
        # a study of one metric gives the full study's rows for that metric's
        # labels, bit for bit (JSON writes each float's repr), and no other
        full, alone = studies[0], studies[1][metric]
        spec = experiment.METRIC_TABLE[metric]
        of_p_list = metric in (Metric.MEMBER_LP, Metric.MOMENT_MONITOR)
        labels = ({f"{metric.value}_p{p}" for p in ("1", "2", "3.5")} if of_p_list
                  else {metric.value})
        assert spec.of_p_list == of_p_list
        assert {r["metric"] for r in alone["estimates"]} == labels
        for key in ("estimates", "rates", "moment_flags"):
            mine = [r for r in full[key] if r["metric"] in labels]
            assert json.dumps(alone[key]) == json.dumps(mine), key
        monitor = metric is Metric.MOMENT_MONITOR
        assert spec.monitor == monitor
        assert bool(alone["moment_flags"]) == monitor and bool(alone["rates"]) != monitor
        first = min(r["k"] for r in alone["estimates"])
        assert first == spec.first_step == (1 if metric is Metric.GAIN_ERR else 0)


class TestForkedWorkers:
    """run_study(config, workers=2) computes the first share of the chunks
    itself and forks one child for the second; no child outlives the call."""

    @staticmethod
    def config(scalar):
        model, init = scalar
        # two chunks of 2 replicates: one for the caller, one for the child
        return StudyConfig(model=model, init=init, n_grid=(4, 8, 16), replicates=4,
                           p_list=(2.0,))

    def test_no_child_survives(self, scalar, deadline):
        run_study(self.config(scalar), workers=2)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_callers_error_kills_the_child(self, scalar, monkeypatch, deadline, error):
        # The child would sleep for minutes; the caller's error kills it.
        caller = os.getpid()

        def share(*args):
            if os.getpid() == caller:
                raise error("the caller's share failed")
            time.sleep(300)

        monkeypatch.setattr(experiment, "chunk_errors", share)
        with pytest.raises(error, match="the caller's share failed"):
            run_study(self.config(scalar), workers=2)
        assert_no_child_left()

    @pytest.mark.parametrize("fault, message", [
        (raise_in_share, "a replicate worker raised RuntimeError: the child's share failed"),
        (die_in_share, r"a replicate worker died before sending its result \(signal 9\)"),
    ], ids=["raises", "killed"])
    def test_childs_fault_raises_worker_error(self, scalar, monkeypatch, deadline,
                                              fault, message):
        caller, real = os.getpid(), experiment.chunk_errors

        def share(*args):
            if os.getpid() != caller:
                fault()
            return real(*args)

        monkeypatch.setattr(experiment, "chunk_errors", share)
        with pytest.raises(experiment.WorkerError, match=message):
            run_study(self.config(scalar), workers=2)
        assert_no_child_left()

    def test_blas_threads_pinned_while_children_run(self, scalar, monkeypatch, deadline):
        # One OpenBLAS thread in the caller's share at two workers, none
        # pinned at one worker, and the count before the study comes back.
        blas = experiment._blas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS thread setter in this process")
        get, put = blas
        before, seen, real = get(), [], experiment.chunk_errors

        def share(*args):
            seen.append(get())
            return real(*args)

        monkeypatch.setattr(experiment, "chunk_errors", share)
        try:
            put(2)
            if get() != 2:
                pytest.skip("OpenBLAS runs at most one thread here")
            run_study(self.config(scalar), workers=2)
            assert (seen, get()) == ([1], 2)
            run_study(self.config(scalar), workers=1)
            assert (seen, get()) == ([1, 2], 2)  # one chunk of 4
        finally:
            put(before)
        assert_no_child_left()

    def test_workers_do_not_change_written_reports(self, reference, fail_chains, tmp_path,
                                                   deadline):
        # A 4-state model's stacked scalars and a failure map cross the pipe:
        # replicate 4, in the child's chunk, fails at N = 64.
        fail_chains({4}, 64)
        model, init = reference
        config = StudyConfig(model=model, init=init, seed=3, n_grid=(4, 16, 64, 256),
                             replicates=6)
        written = []
        for workers in (1, 2):
            report = run_study(config, workers=workers)
            report.metadata.pop("timestamp")
            out = tmp_path / str(workers)
            out.mkdir()
            report.write_json(out / "report.json")
            report.write_estimates_csv(out / "estimates.csv")
            report.write_rates_csv(out / "rates.csv")
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0] == written[1]
        assert json.loads(written[0]["report.json"])["metadata"]["failures"] == {
            "64": [{"replicate": 4, "error": "RuntimeError: synthetic failure"}]}
        assert_no_child_left()


class TestReportSerialization:
    def test_json_round_trip_and_canonical_floats(self, scalar, tmp_path):
        report = run_study(
            StudyConfig(
                model=scalar[0], init=scalar[1], n_grid=(4, 8), replicates=2,
                p_list=(2.0,),
            )
        )
        path = tmp_path / "report.json"
        report.write_json(path)
        parsed = json.loads(path.read_text())
        row = report.estimate("member_lp_p2", 1, 4)
        found = [
            r
            for r in parsed["estimates"]
            if r["metric"] == "member_lp_p2" and r["k"] == 1 and r["n"] == 4
        ]
        assert found[0]["estimate"] == row.estimate  # repr round-trips exactly

    def test_non_finite_row_fields_written_as_null(self, tmp_path):
        # JSON has no NaN or infinity: an undefined standard error and an
        # unbounded moment ratio become null, and the CSV keeps "" for NaN
        report = ConvergenceReport(
            metadata={"seed": 0},
            estimates=[EstimateRow("mean_err", 0, 4, 0.5, float("nan"))],
            moment_flags=[MomentFlagRow("moment_p2", 1, True, float("inf"))],
        )
        report.write_json(tmp_path / "report.json")
        parsed = json.loads((tmp_path / "report.json").read_text())
        assert parsed["estimates"] == [
            {"metric": "mean_err", "k": 0, "n": 4, "estimate": 0.5, "stderr": None}
        ]
        assert parsed["moment_flags"] == [
            {"metric": "moment_p2", "k": 1, "flagged": True, "max_over_min": None}
        ]
        report.write_estimates_csv(tmp_path / "estimates.csv")
        assert (tmp_path / "estimates.csv").read_text().splitlines()[1] == "mean_err,0,4,0.5,"

    def test_moment_ratio_of_a_zero_minimum(self, tmp_path):
        # a zero moment next to a positive one is unbounded, written as null
        assert _moment_ratio([0.0, 0.0]) == 1.0
        ratio = _moment_ratio([0.0, 2.0])
        assert ratio == float("inf")
        report = ConvergenceReport(metadata={},
                                   moment_flags=[MomentFlagRow("moment_p2", 1, True, ratio)])
        report.write_json(tmp_path / "report.json")
        (row,) = json.loads((tmp_path / "report.json").read_text())["moment_flags"]
        assert row["max_over_min"] is None

    def test_non_finite_metadata_raises(self, tmp_path):
        # only row fields are mapped to null; anything else non-finite is a
        # fault that must not pass silently
        report = ConvergenceReport(metadata={"wall_time_s": float("nan")})
        with pytest.raises(ValueError):
            report.write_json(tmp_path / "report.json")

    def test_csv_layout(self, scalar, tmp_path):
        report = run_study(
            StudyConfig(
                model=scalar[0], init=scalar[1], n_grid=(4, 8, 16), replicates=2,
                p_list=(2.0,),
            )
        )
        est_path = tmp_path / "estimates.csv"
        rates_path = tmp_path / "rates.csv"
        report.write_estimates_csv(est_path)
        report.write_rates_csv(rates_path)
        lines = est_path.read_text().splitlines()
        assert lines[0] == "metric,k,N,estimate,stderr"
        assert all(len(line.split(",")) == 5 for line in lines[1:])
        assert rates_path.read_text().splitlines()[0] == (
            "metric,k,slope,intercept,max_residual"
        )
