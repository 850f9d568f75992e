import json

import numpy as np
import pytest

from enkf_lab import (
    GaussianState,
    Metric,
    StudyConfig,
    coupled_run,
    fit_rate,
    gain_error,
    kf_run,
    mean_cov_error,
    member_lp_error,
    member_moment,
    run_study,
)
from enkf_lab.enkf import MEMBER_DIFF
from enkf_lab.experiment import StudyFormatError, config_hash

from oracles import replicate_scalars


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
    """The estimators' input for ``scalar_runs``: per N, the kernel scalars
    of each replicate, recomputed from its trajectory."""
    return {n: replicate_scalars(runs, scalar_kf) for n, runs in scalar_runs.items()}


class TestMemberLpError:
    def test_zero_at_initialization(self, scalar_rows):
        est = member_lp_error(scalar_rows[16], 0, 2)
        assert est.value == 0.0
        assert est.stderr == 0.0

    def test_two_replicate_formula(self):
        # with member-1 error norms {0, 2}: ((0 + 2^2)/2)^(1/2) = sqrt(2)
        scalars = np.zeros((2, 1, 5))
        scalars[1, 0, MEMBER_DIFF] = 2.0
        est = member_lp_error(scalars, 0, 2)
        assert abs(est.value - np.sqrt(2.0)) < 1e-15

    def test_error_decreases_with_ensemble_size(self, scalar_rows):
        small = member_lp_error(scalar_rows[16], 3, 2)
        big = member_lp_error(scalar_rows[4096], 3, 2)
        assert big.value < small.value

    def test_p2_equals_root_mean_square_recomputation(self, scalar_runs, scalar_rows):
        runs = scalar_runs[16]
        est = member_lp_error(scalar_rows[16], 2, 2)
        sq = [
            float(
                np.sum(
                    (
                        run[2].enkf_ensemble.members[:, 0]
                        - run[2].reference_ensemble.members[:, 0]
                    )
                    ** 2
                )
            )
            for run in runs
        ]
        assert abs(est.value - np.sqrt(np.mean(sq))) <= 1e-14

    def test_needs_two_replicates(self, scalar_rows):
        with pytest.raises(ValueError, match="2 replicates"):
            member_lp_error(scalar_rows[16][:1], 1, 2)

    def test_step_out_of_range(self, scalar_rows):
        with pytest.raises(ValueError, match="out of range"):
            member_lp_error(scalar_rows[16], 9, 2)


class TestMeanCovError:
    def test_degenerate_prior_exact_at_k0(self, scalar):
        model, _ = scalar
        init = GaussianState(mean=[1.0], cov=[[0.0]])
        trajectory = kf_run(model, init)
        runs = [
            coupled_run(model, init, 0, r, 8, kf_trajectory=trajectory)
            for r in range(3)
        ]
        mean_est, cov_est = mean_cov_error(replicate_scalars(runs, trajectory), 0)
        assert mean_est.value == 0.0
        assert cov_est.value == 0.0

    def test_single_replicate_stderr_undefined(self, scalar_rows):
        mean_est, cov_est = mean_cov_error(scalar_rows[16][:1], 1)
        assert np.isnan(mean_est.stderr)
        assert np.isnan(cov_est.stderr)

    def test_cov_error_shrinks_with_exact_gain_hook(self, scalar, scalar_kf):
        # with the exact-gain hook the members stay i.i.d. samples, so the
        # covariance error follows the 1/sqrt(N) sampling law
        model, init = scalar
        errs = []
        for n in (16, 256, 4096):
            runs = [
                coupled_run(
                    model, init, 0, r, n, kf_trajectory=scalar_kf,
                    forecast_cov_override=lambda k: scalar_kf.forecast(k).cov,
                )
                for r in range(30)
            ]
            _, cov_est = mean_cov_error(replicate_scalars(runs, scalar_kf), 3)
            errs.append(cov_est.value)
        fit = fit_rate(list(zip((16, 256, 4096), errs)))
        assert -0.75 < fit.slope < -0.25


class TestGainError:
    def test_zero_with_exact_cov_hook(self, scalar, scalar_kf):
        model, init = scalar
        runs = [
            coupled_run(
                model, init, 0, r, 8, kf_trajectory=scalar_kf,
                forecast_cov_override=lambda k: scalar_kf.forecast(k).cov,
            )
            for r in range(3)
        ]
        scalars = replicate_scalars(runs, scalar_kf)
        for k in range(1, 4):
            assert gain_error(scalars, k).value == 0.0

    def test_decreasing_in_n(self, scalar_rows):
        for k in range(1, 4):
            assert gain_error(scalar_rows[4096], k).value < gain_error(
                scalar_rows[16], k
            ).value

    def test_no_gain_at_step_zero(self, scalar_rows):
        with pytest.raises(ValueError, match="step 0"):
            gain_error(scalar_rows[16], 0)


class TestMomentMonitor:
    def test_initial_moment_is_size_independent(self, scalar_rows):
        # member 1 at k=0 is literally the same draw at every N
        a = member_moment(scalar_rows[16], 0, 4)
        b = member_moment(scalar_rows[4096], 0, 4)
        assert a.value == b.value

    def test_standard_normal_second_moment(self, empty_scalar):
        # E|N(0,1)|^2 = 1
        model, _ = empty_scalar
        init = GaussianState(mean=[0.0], cov=[[1.0]])
        trajectory = kf_run(model, init)
        runs = [
            coupled_run(model, init, 3, r, 2, kf_trajectory=trajectory)
            for r in range(200)
        ]
        est = member_moment(replicate_scalars(runs, trajectory), 0, 2)
        assert abs(est.value - 1.0) <= 3 * est.stderr

    def test_monitor_table_and_flag(self, scalar, scalar_rows):
        # the study tabulates member_moment over the grid and flags a
        # max/min ratio above MOMENT_FLAG_RATIO
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(16, 4096),
                             replicates=100, p_list=(4.0,),
                             metrics=(Metric.MOMENT_MONITOR,))
        report = run_study(config)
        table = [member_moment(scalar_rows[n], 3, 4).value for n in (16, 4096)]
        assert [report.estimate("moment_p4", 3, n).estimate for n in (16, 4096)] == table
        (flag,) = [row for row in report.moment_flags if row.k == 3]
        assert flag.max_over_min == max(table) / min(table)
        assert not flag.flagged
        assert flag.max_over_min < 3.0


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

    def test_chunking_does_not_change_the_report(self, scalar, monkeypatch, tmp_path,
                                                 fail_chains):
        # chunks of 1, uneven chunks of 2, one chunk, and two workers' even
        # shares (3 + 2) write the same files, byte for byte; so do the
        # in-process chunkings when replicates fail
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
            if replicate == 4 and k == 2:
                raise RuntimeError("no draw")
            return armed(seed, replicate, k, n, data, r_cov)

        monkeypatch.setattr(enkf, "perturb_data", broken)
        failing = [written(elements, case="failing") for elements in (1, 32, 10**9)]
        assert failing[0] == failing[1] == failing[2] != one_each
        failures = json.loads(failing[0]["report.json"])["metadata"]["failures"]
        assert {n: [f["replicate"] for f in failed] for n, failed in failures.items()} == {
            "4": [4], "8": [1, 3, 4], "16": [4]}

    def test_partial_replicate_failure_preserved(self, scalar, monkeypatch):
        # a failed draw of replicate 1 fails it at every N
        import enkf_lab.enkf as enkf

        real = enkf.perturb_data

        def flaky(seed, replicate, k, n, data, r_cov):
            if replicate == 1:
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

    def test_matches_public_estimators(self, scalar, scalar_kf):
        # the study's estimates equal the public estimators applied to the
        # scalars recomputed from coupled_run trajectories, bit for bit
        model, init = scalar
        config = StudyConfig(model=model, init=init, seed=4, n_grid=(4, 8, 16),
                             replicates=5, p_list=(2.0, 3.5))
        report = run_study(config)

        def check(metric, k, n, est):
            row = report.estimate(metric, k, n)
            assert (row.estimate, row.stderr) == (est.value, est.stderr)

        for n in config.n_grid:
            runs = [coupled_run(model, init, 4, r, n, kf_trajectory=scalar_kf)
                    for r in range(config.replicates)]
            scalars = replicate_scalars(runs, scalar_kf)
            for k in range(len(model.steps) + 1):
                for p, label in ((2.0, "p2"), (3.5, "p3.5")):
                    check(f"member_lp_{label}", k, n, member_lp_error(scalars, k, p))
                    check(f"moment_{label}", k, n, member_moment(scalars, k, p))
                mean_est, cov_est = mean_cov_error(scalars, k)
                check("mean_err", k, n, mean_est)
                check("cov_err", k, n, cov_est)
                if k >= 1:
                    check("gain_err", k, n, gain_error(scalars, k))
        assert len(report.estimates) == 3 * (4 * 6 + 3)

    def test_one_pool_per_study(self, scalar, monkeypatch):
        import concurrent.futures

        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        model, init = scalar
        config = StudyConfig(model=model, init=init, n_grid=(4, 8, 16),
                             replicates=3, p_list=(2.0,))
        run_study(config, workers=2)
        assert started == [{"max_workers": 2}]
        run_study(config)
        assert len(started) == 1

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
        assert found[0]["estimate"] == row.estimate  # 17 digits round-trip exactly

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
