"""Tests of the benchmark's own checks and tracer.

Run from the repository root: PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

import enkf_lab
from enkf_lab.cli import main
from enkf_lab.model import model_to_dict

import checks
from exact import filtering_moments
from inputs import WORKLOADS, expand_steps, reference_model
from spans import Tracer


def conjugate_chain(steps, mean, var):
    """Scalar filter in precision form: forecast, then a product of normal
    densities; no gain appears."""
    out = [(mean, var)]
    for a, b, h, r, d in steps:
        f_mean, f_var = a * mean + b, a * a * var
        precision = 1.0 / f_var + h * h / r
        var = 1.0 / precision
        mean = var * (f_mean / f_var + h * d / r)
        out.append((mean, var))
    return out


def test_exact_filter_matches_conjugate_scalar_chain():
    steps = [
        (2.0, 1.0, 1.0, 1.0, 2.0),
        (0.5, 0.0, 2.0, 0.5, 1.0),
        (1.0, -1.0, 1.0, 2.0, 0.0),
        (0.9, 0.3, 1.5, 0.2, -0.7),
        (0.9, 0.3, 1.5, 0.2, 0.4),
    ]
    model = {
        "state_dim": 1,
        "obs_dim": 1,
        "init": {"mean": [0.3], "cov": [[1.7]]},
        "steps": [
            {"A": [[a]], "b": [b], "H": [[h]], "R": [[r]], "data": [d]}
            for a, b, h, r, d in steps[:3]
        ]
        + [
            {"A": [[0.9]], "b": [0.3], "H": [[1.5]], "R": [[0.2]], "repeat": 2,
             "data_sequence": [[-0.7], [0.4]]}
        ],
    }
    exact = filtering_moments(model)
    oracle = conjugate_chain(steps, 0.3, 1.7)
    assert len(exact) == len(oracle) == 6
    for (u, q), (mean, var) in zip(exact, oracle):
        assert u[0] == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert q[0, 0] == pytest.approx(var, rel=1e-12, abs=1e-12)


def test_reference_inputs_are_the_library_reference_model():
    for steps in (5, 40):
        ours = expand_steps(reference_model(steps))
        theirs = expand_steps(model_to_dict(*enkf_lab.reference_model(steps=steps)))
        assert len(ours) == len(theirs) == steps
        for a, b in zip(ours, theirs):
            for name in ("A", "b", "H", "R", "data"):
                np.testing.assert_array_equal(a[name], b[name])
    model, init = enkf_lab.reference_model()
    raw = reference_model()
    np.testing.assert_array_equal(raw["init"]["mean"], init.mean)
    np.testing.assert_array_equal(raw["init"]["cov"], init.cov)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A report of the wide workload, made by the program through its CLI."""
    workload = WORKLOADS["wide"]
    directory = tmp_path_factory.mktemp("wide")
    model_path, study_path = workload.write(directory, seed=0)
    assert main(["study", str(model_path), str(study_path), "-o", str(directory / "out")]) == 0
    report = json.loads((directory / "out" / "report.json").read_text())
    return report, workload.model, workload.study(0)


def test_clean_report_passes_every_check(clean):
    assert checks.check_report(*clean, slope_band=True) == []


def _rows(report, metric, k=None, n=None):
    return [
        row for row in report["estimates"]
        if row["metric"] == metric and (k is None or row["k"] == k) and (n is None or row["n"] == n)
    ]


def drop_row(report, steps, n_max):
    report["estimates"].remove(_rows(report, "cov_err", 1, 64)[0])


def non_finite(report, steps, n_max):
    _rows(report, "gain_err", steps, n_max)[0]["estimate"] = None  # NaN is written as null


def non_finite_moment(report, steps, n_max):
    _rows(report, "moment_p2", steps, n_max)[0]["estimate"] = None


def nonzero_member_lp(report, steps, n_max):
    _rows(report, "member_lp_p4", 0, 256)[0]["estimate"] = 1e-15


def raised_flag(report, steps, n_max):
    report["moment_flags"][0]["flagged"] = True


def shifted_k0_moment(report, steps, n_max):
    for row in _rows(report, "moment_p2", 0):
        row["estimate"] *= 1.5


def shifted_k0_mean(report, steps, n_max):
    _rows(report, "mean_err", 0, 1024)[0]["estimate"] *= 3.0


def shifted_last_moment(report, steps, n_max):
    _rows(report, "moment_p2", steps, n_max)[0]["estimate"] *= 2.0


def growing_error(report, steps, n_max):
    first = _rows(report, "cov_err", 2, 16)[0]["estimate"]
    _rows(report, "cov_err", 2, n_max)[0]["estimate"] = 2.0 * first


def flat_slope(report, steps, n_max):
    for row in report["rates"]:
        if (row["metric"], row["k"]) == ("mean_err", steps):
            row["slope"] = -0.2


@pytest.mark.parametrize(
    "check, corrupt",
    [
        (checks.check_rows, drop_row),
        (checks.check_rows, non_finite),
        (checks.check_rows, raised_flag),
        (checks.check_k0_member_lp, nonzero_member_lp),
        (checks.check_k0_moment, shifted_k0_moment),
        (checks.check_k0_mean_err, shifted_k0_mean),
        (checks.check_large_n_moment, shifted_last_moment),
        (checks.check_large_n_moment, non_finite_moment),
        (checks.check_decreasing, growing_error),
        (checks.check_decreasing, non_finite),
        (checks.check_slopes, flat_slope),
    ],
)
def test_each_check_rejects_a_corrupted_report(clean, check, corrupt):
    report, model, study = clean
    assert check(checks.Case(report, model, study)) == []
    bad = copy.deepcopy(report)
    corrupt(bad, len(expand_steps(model)), max(study["n_grid"]))
    assert check(checks.Case(bad, model, study)) != []
    assert checks.check_report(bad, model, study, slope_band=True) != []


def test_tracer_accounts_for_the_whole_study_and_restores_the_program(tmp_path):
    model = reference_model(steps=3)
    study = {"n_grid": [4, 8, 16], "replicates": 2, "seed": 3}
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "study.json").write_text(json.dumps(study))
    originals = {name: getattr(enkf_lab.enkf, name) for name in ("coupled_step", "perturb_data")}
    tracer = Tracer(enkf_lab)
    tracer.install()
    try:
        span = tracer.open("cli.main")
        rc = main(["study", str(tmp_path / "model.json"), str(tmp_path / "study.json"),
                   "-o", str(tmp_path / "out")])
        tracer.close(span)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert {name: getattr(enkf_lab.enkf, name) for name in originals} == originals
    layers = tracer.layers()
    assert layers["enkf.coupled_steps"] == 2 * 3 * 3
    assert layers["ensemble.draw_calls"] == 2 * 3 * (1 + 3)
    assert layers["ensemble.members_drawn"] == 2 * (4 + 8 + 16) * (1 + 3)
    assert layers["ensemble.streams_keyed"] == layers["ensemble.members_drawn"]
    assert layers["experiment.tasks"] == 6
    assert layers["kf.gain_calls"] == 2 * 3 * 3 + 3
    assert layers["experiment.held_bytes"] > 0
    assert layers["jsonio.bytes_written"] == sum(
        (tmp_path / "out" / name).stat().st_size
        for name in ("report.json", "estimates.csv", "rates.csv")
    )
    assert abs(layers["trace.unattributed_s"]) < 1e-6 * layers["experiment.run_study_s"]
