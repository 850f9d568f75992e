"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest -s`` or on failure). The long-running
criteria share one reference-study execution through a module fixture.
"""

import json
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from enkf_lab import (
    coupled_run,
    init_ensemble,
    kf_run,
    lp_estimate,
    model_to_dict,
    perturb_data,
    sample_cov,
    sample_mean,
)
from enkf_lab.cli import main
from enkf_lab.enkf import GAIN_ERR
from enkf_lab.model import apply_model
from enkf_lab.reference import reference_model, scalar_model

from oracles import conjugate_scalar_chain, replicate_scalars

SLOPE_BAND = (-0.65, -0.35)

REFERENCE_STUDY = {
    "n_grid": [16, 64, 256, 1024, 4096],
    "replicates": 100,
    "p_list": [2, 4],
    "seed": 0,
}


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def rate_row(report, metric, k):
    for row in report["rates"]:
        if row["metric"] == metric and row["k"] == k:
            return row
    raise KeyError((metric, k))


def estimate_value(report, metric, k, n):
    for row in report["estimates"]:
        if (row["metric"], row["k"], row["n"]) == (metric, k, n):
            return row["estimate"]
    raise KeyError((metric, k, n))


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """One CLI execution of the reference study, shared by criteria 3-6 and 8."""
    root = tmp_path_factory.mktemp("acceptance")
    model, init = reference_model()
    model_path = root / "model.json"
    model_path.write_text(json.dumps(model_to_dict(model, init)))
    study_path = root / "study.json"
    study_path.write_text(json.dumps(REFERENCE_STUDY))
    out = root / "run1"
    started = time.perf_counter()
    assert main(["study", str(model_path), str(study_path), "-o", str(out)]) == 0
    elapsed = time.perf_counter() - started
    report = json.loads((out / "report.json").read_text())
    return SimpleNamespace(
        root=root, model_path=model_path, study_path=study_path, out=out,
        report=report, elapsed=elapsed,
    )


def test_criterion_1_kf_matches_conjugate_bayes_chain():
    with criterion(1, "KF equals the sequential conjugate Bayes oracle to 1e-12"):
        started = time.perf_counter()
        model, init = scalar_model()
        trajectory = kf_run(model, init)
        for k, (f_mean, f_var, mean, var) in enumerate(
            conjugate_scalar_chain(model, init), start=1
        ):
            assert abs(trajectory.forecast(k).mean[0] - f_mean) <= 1e-12
            assert abs(trajectory.forecast(k).cov[0, 0] - f_var) <= 1e-12
            assert abs(trajectory.analysis(k).mean[0] - mean) <= 1e-12
            assert abs(trajectory.analysis(k).cov[0, 0] - var) <= 1e-12
        assert time.perf_counter() - started < 1.0


def test_criterion_2_reference_ensemble_has_filtering_law():
    with criterion(2, "exact-gain ensemble members sample the filtering law"):
        started = time.perf_counter()
        model, init = reference_model()
        trajectory = kf_run(model, init)
        k, n, reps = 5, 100, 200
        exact = trajectory.analysis(k)
        pooled = np.hstack(
            [
                coupled_run(model, init, 0, r, n, kf_trajectory=trajectory)[k]
                .reference_ensemble
                for r in range(reps)
            ]
        )
        sigma_max = np.sqrt(np.diag(exact.cov).max())
        mean = pooled.mean(axis=1)
        assert np.all(np.abs(mean - exact.mean) <= 4 * sigma_max / np.sqrt(reps))
        centered = pooled - mean[:, None]
        cov = (centered @ centered.T) / pooled.shape[1]
        assert np.linalg.norm(cov - exact.cov, "fro") <= 0.10 * np.linalg.norm(
            exact.cov, "fro"
        )
        assert time.perf_counter() - started < 60.0


def test_criterion_3_member_lp_convergence(reference_run):
    with criterion(3, "member L^p errors decrease with slope near -1/2"):
        assert reference_run.elapsed < 300.0
        report = reference_run.report
        n_lo, n_hi = REFERENCE_STUDY["n_grid"][0], REFERENCE_STUDY["n_grid"][-1]
        for k in range(1, 6):
            lo = estimate_value(report, "member_lp_p2", k, n_lo)
            hi = estimate_value(report, "member_lp_p2", k, n_hi)
            assert hi < lo
            slope = rate_row(report, "member_lp_p2", k)["slope"]
            assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
        for k in range(1, 6):
            lo = estimate_value(report, "member_lp_p4", k, n_lo)
            hi = estimate_value(report, "member_lp_p4", k, n_hi)
            assert hi < lo


def test_criterion_4_gain_convergence(reference_run):
    with criterion(4, "ensemble gain converges to the exact gain at every step"):
        report = reference_run.report
        for k in range(1, 6):
            slope = rate_row(report, "gain_err", k)["slope"]
            assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]


def test_criterion_5_mean_cov_consistency(reference_run):
    with criterion(5, "ensemble mean and covariance are consistent estimators"):
        report = reference_run.report
        for metric in ("mean_err", "cov_err"):
            slope = rate_row(report, metric, 5)["slope"]
            assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]


def test_criterion_6_moment_monitor_never_flags(reference_run):
    with criterion(6, "4th-moment estimates stay within a factor 3 over the grid"):
        report = reference_run.report
        rows = [r for r in report["moment_flags"] if r["metric"] == "moment_p4"]
        assert {r["k"] for r in rows} == set(range(6))
        for row in rows:
            assert not row["flagged"]
            assert row["max_over_min"] <= 3.0


def test_criterion_7_deterministic_invariants():
    with criterion(7, "deterministic invariants (permutation, coupling, prefix, gains)"):
        started = time.perf_counter()
        rng = np.random.default_rng(123)
        model, init = reference_model()
        trajectory = kf_run(model, init)

        # sample statistics are member-order invariant to 1e-14
        x = rng.standard_normal((4, 11))
        perm = rng.permutation(11)
        assert np.abs(
            sample_mean(x) - sample_mean(x[:, perm])
        ).max() <= 1e-14
        assert np.abs(
            sample_cov(x) - sample_cov(x[:, perm])
        ).max() <= 1e-14

        # coupled initialization is bit-identical and the forecast-difference
        # identity holds at every step to 1e-12
        run = coupled_run(model, init, 0, 0, 32, kf_trajectory=trajectory)
        assert np.array_equal(
            run[0].enkf_ensemble, run[0].reference_ensemble
        )
        for k in range(1, len(run)):
            a = model.step(k).A
            xf = apply_model(model, k, run[k - 1].enkf_ensemble)
            uf = apply_model(model, k, run[k - 1].reference_ensemble)
            prev = (
                run[k - 1].enkf_ensemble
                - run[k - 1].reference_ensemble
            )
            assert np.abs((xf - uf) - a @ prev).max() <= 1e-12

        # prefix properties are bit-exact
        assert np.array_equal(
            init_ensemble(0, 0, 64, init)[:, :8],
            init_ensemble(0, 0, 8, init),
        )
        step1 = model.step(1)
        assert np.array_equal(
            perturb_data(0, 0, 1, 64, step1.data, step1.R)[:, :8],
            perturb_data(0, 0, 1, 8, step1.data, step1.R),
        )

        # exact-gain residual bound
        for k in range(1, 6):
            step = model.step(k)
            q_f = trajectory.forecast(k).cov
            gain = trajectory.gain(k)
            residual = np.linalg.norm(
                gain @ (step.H @ q_f @ step.H.T + step.R) - q_f @ step.H.T, "fro"
            )
            assert residual <= 1e-10 * (1 + np.linalg.norm(q_f, "fro"))

        # covariance override hook makes the gain error identically zero
        hooked = [
            coupled_run(
                model, init, 0, r, 16, kf_trajectory=trajectory,
                forecast_cov_override=lambda k: trajectory.forecast(k).cov,
            )
            for r in range(3)
        ]
        hooked_scalars = replicate_scalars(hooked, trajectory)
        assert (lp_estimate(hooked_scalars, GAIN_ERR, 1).value[1:] == 0.0).all()
        assert time.perf_counter() - started < 10.0


def test_every_fitted_metric_decreases_between_endpoints(reference_run):
    # supporting invariant, not a numbered criterion: whatever earned a rate
    # fit must at least have shrunk from the smallest to the largest N
    report = reference_run.report
    n_lo, n_hi = REFERENCE_STUDY["n_grid"][0], REFERENCE_STUDY["n_grid"][-1]
    for row in report["rates"]:
        lo = estimate_value(report, row["metric"], row["k"], n_lo)
        hi = estimate_value(report, row["metric"], row["k"], n_hi)
        assert hi < lo


def test_criterion_8_reproducible_reports(reference_run):
    with criterion(8, "identical study configs produce identical reports"):
        out2 = reference_run.root / "run2"
        assert main(
            ["study", str(reference_run.model_path), str(reference_run.study_path),
             "-o", str(out2)]
        ) == 0
        first = json.loads((reference_run.out / "report.json").read_text())
        second = json.loads((out2 / "report.json").read_text())
        first["metadata"].pop("timestamp")
        second["metadata"].pop("timestamp")
        assert first == second
        for name in ("estimates.csv", "rates.csv"):
            assert (reference_run.out / name).read_bytes() == (out2 / name).read_bytes()
