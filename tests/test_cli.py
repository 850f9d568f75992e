import functools
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import enkf_lab
from enkf_lab import StudyConfig, coupled_run, experiment, kf_run, model_to_dict, run_study
from enkf_lab.cli import main
from enkf_lab.reference import scalar_model

from oracles import conjugate_scalar_chain


def strict_json(path):
    """Parse an output file, rejecting the NaN and Infinity that JSON lacks."""
    def reject(constant):
        raise ValueError(f"{path} holds the non-JSON constant {constant}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


@pytest.fixture
def scalar_model_file(tmp_path):
    model, init = scalar_model()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model, init)))
    return path


@pytest.fixture
def study_file(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(
        json.dumps({"n_grid": [4, 8, 16], "replicates": 3, "p_list": [2], "seed": 5})
    )
    return path


class TestValidateCommand:
    def test_valid_model_exit_zero(self, scalar_model_file, capsys):
        assert main(["validate", str(scalar_model_file)]) == 0
        assert "model ok" in capsys.readouterr().out

    def test_invalid_r_exit_one_with_diagnostic(self, tmp_path, capsys):
        model, init = scalar_model()
        raw = model_to_dict(model, init)
        raw["steps"][1]["R"] = [[0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 1
        assert "R not positive definite at step 2" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_schema_violation_exit_two(self, tmp_path):
        path = tmp_path / "noschema.json"
        path.write_text(json.dumps({"state_dim": 1}))
        assert main(["validate", str(path)]) == 2

    def test_unknown_model_key_exit_two(self, tmp_path, capsys):
        # "repaet": 40 used to be ignored, leaving a 1-step model.
        raw = model_to_dict(*scalar_model())
        raw["steps"][0]["repaet"] = 40
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown key 'repaet' in step 0\n"

    def test_zero_obs_dim_exit_two(self, tmp_path, capsys):
        raw = model_to_dict(*scalar_model())
        raw["obs_dim"] = 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: malformed model: obs_dim must be a positive integer\n")


class TestKfCommand:
    def test_matches_conjugate_oracle(self, scalar_model_file, tmp_path):
        out = tmp_path / "out"
        assert main(["kf", str(scalar_model_file), "-o", str(out)]) == 0
        payload = strict_json(out / "kf.json")
        model, init = scalar_model()
        oracle = conjugate_scalar_chain(model, init)
        assert len(payload["steps"]) == 3
        for entry, (f_mean, f_var, mean, var) in zip(payload["steps"], oracle):
            assert abs(entry["forecast"]["mean"][0] - f_mean) < 1e-12
            assert abs(entry["forecast"]["cov"][0][0] - f_var) < 1e-12
            assert abs(entry["analysis"]["mean"][0] - mean) < 1e-12
            assert abs(entry["analysis"]["cov"][0][0] - var) < 1e-12

    def test_rerun_byte_identical(self, scalar_model_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["kf", str(scalar_model_file), "-o", str(out1)])
        main(["kf", str(scalar_model_file), "-o", str(out2)])
        assert (out1 / "kf.json").read_bytes() == (out2 / "kf.json").read_bytes()

    def test_empty_model_initial_state_only(self, tmp_path):
        raw = {
            "state_dim": 1, "obs_dim": 1, "steps": [],
            "init": {"mean": [0.5], "cov": [[2.0]]},
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["kf", str(path), "-o", str(out)]) == 0
        payload = json.loads((out / "kf.json").read_text())
        assert payload["steps"] == []
        assert payload["init"]["mean"] == [0.5]

    def test_invalid_model_exit_one(self, tmp_path):
        model, init = scalar_model()
        raw = model_to_dict(model, init)
        raw["steps"][0]["R"] = [[-1.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["kf", str(path), "-o", str(tmp_path / "out")]) == 1


# Blocks every import of scipy, then runs kf and study as the command line does.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from enkf_lab.cli import main
model, study, out = sys.argv[1:]
assert main(["kf", model, "-o", out + "/kf"]) == 0
assert main(["study", model, study, "-o", out + "/study"]) == 0
loaded = [name for name, module in sys.modules.items()
          if name.startswith("scipy") and module is not None]
assert not loaded, loaded
# Start-up stays lean: no pool, process or signal machinery is imported.
heavy = [name for name in ("concurrent", "multiprocessing", "signal", "subprocess")
         if name in sys.modules]
assert not heavy, heavy
"""


def test_runs_without_scipy(scalar_model_file, study_file, tmp_path):
    src = str(Path(enkf_lab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(scalar_model_file), str(study_file),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "kf" / "kf.json").exists()
    assert (tmp_path / "study" / "report.json").exists()


class TestStudyCommand:
    def test_outputs_and_summary(self, scalar_model_file, study_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study_file),
                     "-o", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "estimates.csv").exists()
        assert (out / "rates.csv").exists()
        stdout = capsys.readouterr().out
        assert "member_lp_p2" in stdout
        assert "slope=" in stdout

        report = strict_json(out / "report.json")
        assert report["metadata"]["seed"] == 5
        lines = (out / "estimates.csv").read_text().splitlines()
        # per metric and step, one row per grid size
        member_rows = [l for l in lines if l.startswith("member_lp_p2,1,")]
        assert [int(l.split(",")[2]) for l in member_rows] == [4, 8, 16]

    def test_report_carries_the_study_rows_bit_for_bit(self, scalar_model_file,
                                                       study_file, tmp_path):
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study_file),
                     "-o", str(out)]) == 0
        model, init = scalar_model()
        report = run_study(StudyConfig(model=model, init=init, seed=5, n_grid=(4, 8, 16),
                                       replicates=3, p_list=(2.0,)))

        def bits(rows):
            return [{key: value.hex() if isinstance(value, float) else value
                     for key, value in row.items()} for row in rows]

        parsed = strict_json(out / "report.json")
        for table in ("estimates", "rates", "moment_flags"):
            assert bits(parsed[table]) == bits(vars(row) for row in getattr(report, table))
        lines = (out / "estimates.csv").read_text().splitlines()[1:]
        assert [[float(v).hex() for v in line.split(",")[3:]] for line in lines] == [
            [row.estimate.hex(), row.stderr.hex()] for row in report.estimates
        ]
        lines = (out / "rates.csv").read_text().splitlines()[1:]
        assert [[float(v).hex() for v in line.split(",")[2:]] for line in lines] == [
            [row.slope.hex(), row.intercept.hex(), row.max_residual.hex()]
            for row in report.rates
        ]

    def test_cov_jitter_noted(self, singular_prior, scalar_model_file, study_file,
                              tmp_path, capsys):
        model = tmp_path / "singular.json"
        model.write_text(json.dumps(model_to_dict(*singular_prior)))
        out = tmp_path / "out"
        assert main(["study", str(model), str(study_file), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["cov_jitter"] == {"init": 1e-14}
        err = capsys.readouterr().err
        assert "note: the init covariance is only semidefinite" in err
        assert "1e-14" in err
        assert main(["study", str(scalar_model_file), str(study_file),
                     "-o", str(tmp_path / "plain")]) == 0
        assert "note:" not in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["libc", "mallopt"])
    def test_same_report_without_mallopt(self, missing, scalar_model_file, study_file,
                                         tmp_path, monkeypatch):
        def report(out):
            args = ["study", str(scalar_model_file), str(study_file), "-o", str(out)]
            assert main(args) == 0
            payload = json.loads((out / "report.json").read_text())
            del payload["metadata"]["timestamp"]
            return payload

        tuned = report(tmp_path / "tuned")
        lookups = []

        def no_mallopt(name):
            lookups.append(name)
            if missing == "libc":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(experiment.ctypes, "CDLL", no_mallopt)
        # A fresh run-once wrapper, so that this process looks mallopt up again.
        monkeypatch.setattr(experiment, "_keep_freed_memory",
                            functools.cache(experiment._keep_freed_memory.__wrapped__))
        assert report(tmp_path / "untuned") == tuned
        assert lookups == [None]

    def test_seed_precedence(self, scalar_model_file, study_file, tmp_path,
                             monkeypatch):
        # The seed is the study file's, default 0; the environment plays no part.
        def seed_of(study, name):
            main(["study", str(scalar_model_file), str(study), "-o", str(tmp_path / name)])
            return json.loads((tmp_path / name / "report.json").read_text())["metadata"]["seed"]

        assert seed_of(study_file, "file_seed") == 5
        study_no_seed = tmp_path / "study_no_seed.json"
        study_no_seed.write_text(json.dumps({"n_grid": [4, 8], "replicates": 2}))
        assert seed_of(study_no_seed, "no_seed") == 0
        monkeypatch.setenv("ENKF_LAB_SEED", "77")
        assert seed_of(study_no_seed, "env_set") == 0

        def outputs(name):  # every byte but the timestamp's
            out = tmp_path / name
            report = re.sub(r'"timestamp": {[^}]*}', "", (out / "report.json").read_text())
            return report, (out / "estimates.csv").read_text(), (out / "rates.csv").read_text()

        assert outputs("env_set") == outputs("no_seed")

    @pytest.mark.parametrize("file_seed", [2**64, -1], ids=["file-2**64", "file-minus-1"])
    def test_seed_outside_64_bits_exit_one(self, scalar_model_file, tmp_path, capsys,
                                           file_seed):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [4, 8], "replicates": 2, "seed": file_seed}))
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study), "-o", str(out)]) == 1
        assert "error: seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--seed", "9"], ["--format", "json"]],
                             ids=["seed", "format"])
    def test_removed_options_exit_two(self, scalar_model_file, study_file, tmp_path,
                                      capsys, option):
        # The files are the whole study: no flag sets its seed or its outputs.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["study", str(scalar_model_file), str(study_file), "-o", str(out), *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_numbers_not_schema(
        self, scalar_model_file, study_file, tmp_path
    ):
        other_seed = tmp_path / "study_seed_123.json"
        other_seed.write_text(json.dumps({**json.loads(study_file.read_text()), "seed": 123}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["study", str(scalar_model_file), str(study_file), "-o", str(out_a)])
        main(["study", str(scalar_model_file), str(other_seed), "-o", str(out_b)])
        rep_a = json.loads((out_a / "report.json").read_text())
        rep_b = json.loads((out_b / "report.json").read_text())
        key_a = [(r["metric"], r["k"], r["n"]) for r in rep_a["estimates"]]
        key_b = [(r["metric"], r["k"], r["n"]) for r in rep_b["estimates"]]
        assert key_a == key_b
        assert rep_a["estimates"] != rep_b["estimates"]

    def test_dump_trajectories_round_trip(self, scalar_model_file, study_file,
                                          tmp_path):
        # Every slice is replicate 0's coupled run at N, bit for bit, and a
        # rerun writes the same bytes.
        model, init = scalar_model()
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["study", str(scalar_model_file), str(study_file), "-o", str(out),
                         "--dump-trajectories"]) == 0
        names = ["ensemble_gain.npy", "exact_gain.npy", "u.npy", "x.npy"]
        for n in (4, 8, 16):
            dirs = [out / "trajectories" / f"n{n}" for out in outs]
            assert sorted(p.name for p in dirs[0].iterdir()) == names
            for name in names:
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            dump = {name[:-4]: np.load(dirs[0] / name) for name in names}
            assert dump["x"].shape == dump["u"].shape == (4, 1, n)
            assert dump["ensemble_gain"].shape == dump["exact_gain"].shape == (3, 1, 1)
            trajectory = kf_run(model, init)
            run = coupled_run(model, 5, 0, n, trajectory)
            for state in run:
                k = state.step
                assert dump["x"][k].tobytes() == state.enkf_ensemble.tobytes()
                assert dump["u"][k].tobytes() == state.reference_ensemble.tobytes()
                if k:
                    assert dump["ensemble_gain"][k - 1].tobytes() == state.ensemble_gain.tobytes()
                    assert dump["exact_gain"][k - 1].tobytes() == trajectory.gain(k).tobytes()

    def test_dump_of_a_zero_step_model(self, empty_scalar, tmp_path):
        # No step, no gain: the gains are empty stacks of the gain's shape.
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_dict(*empty_scalar)))
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [4, 8], "replicates": 2}))
        out = tmp_path / "out"
        assert main(["study", str(model), str(study), "-o", str(out),
                     "--dump-trajectories"]) == 0
        n_dir = out / "trajectories" / "n4"
        assert np.load(n_dir / "x.npy").shape == np.load(n_dir / "u.npy").shape == (1, 1, 4)
        for name in ("ensemble_gain.npy", "exact_gain.npy"):
            gain = np.load(n_dir / name)
            assert gain.shape == (0, 1, 1) and gain.dtype == np.float64

    def test_dump_skips_the_sizes_where_replicate_0_failed(self, diverging, tmp_path,
                                                           capsys):
        # Every replicate fails at N = 4096 only: the other sizes are dumped,
        # and the summary and failure lines are those of a run without dumps.
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_dict(*diverging)))
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [4, 64, 4096], "replicates": 3}))
        assert main(["study", str(model), str(study), "-o", str(tmp_path / "plain")]) == 1
        plain = capsys.readouterr()
        out = tmp_path / "out"
        assert main(["study", str(model), str(study), "-o", str(out),
                     "--dump-trajectories"]) == 1
        dumped = capsys.readouterr()
        assert dumped.out == plain.out
        assert dumped.err.splitlines() == [
            "error: N=4096: replicate 0 failed, so its trajectories are not dumped",
            *plain.err.splitlines(),
        ]
        assert "error: N=4096: 3 of 3 replicates failed" in plain.err
        assert sorted(p.name for p in (out / "trajectories").iterdir()) == ["n4", "n64"]
        for n in (4, 64):
            assert np.load(out / "trajectories" / f"n{n}" / "x.npy").shape == (2, 1, n)

    def test_unknown_metric_exit_two(self, scalar_model_file, tmp_path):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [4, 8], "replicates": 2,
                                     "metrics": ["bogus"]}))
        assert main(["study", str(scalar_model_file), str(study),
                     "-o", str(tmp_path / "out")]) == 2

    def test_bad_grid_exit_one(self, scalar_model_file, tmp_path):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [8, 4], "replicates": 2}))
        assert main(["study", str(scalar_model_file), str(study),
                     "-o", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize(
        "override",
        [
            {"replicates": "3"},
            {"replicates": 3.0},
            {"replicates": True},
            {"n_grid": [4.7, 8, 16]},
            {"n_grid": [4, True, 16]},
            {"n_grid": "4,8,16"},
            {"metrics": "member_lp"},
            {"p_list": ["2"]},
            {"seed": 1.5},
            {"seeed": 5},
            {"p_lists": [3]},
            {"metrics": None},
        ],
        ids=lambda override: json.dumps(override),
    )
    def test_mistyped_study_field_exit_two(self, scalar_model_file, tmp_path,
                                           capsys, override):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [4, 8, 16], "replicates": 3,
                                     **override}))
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study),
                     "-o", str(out)]) == 2
        (field,) = override
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        ({"n_grid": [4, 8, 16]}, "study file needs n_grid and replicates"),
        ([{"n_grid": [4, 8, 16], "replicates": 3}], "study file must contain a JSON object"),
    ], ids=["no-replicates", "list"])
    def test_malformed_study_file_exit_two(self, scalar_model_file, tmp_path, capsys,
                                           raw, message):
        study = tmp_path / "study.json"
        study.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study), "-o", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_explosion_flag_printed(self, scalar_model_file, study_file, tmp_path,
                                    capsys, monkeypatch):
        # at ratio 1.0 every step whose moments differ across N is flagged
        monkeypatch.setattr("enkf_lab.experiment.MOMENT_FLAG_RATIO", 1.0)
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study_file), "-o", str(out)]) == 0
        flagged = [row for row in strict_json(out / "report.json")["moment_flags"]
                   if row["flagged"]]
        assert flagged
        stdout = capsys.readouterr().out
        for row in flagged:
            assert f"{row['metric']} k={row['k']}: explosion flag RAISED" in stdout

    def test_replicate_failure_reported_and_exit_one(
        self, scalar_model_file, study_file, tmp_path, capsys, fail_chains
    ):
        fail_chains({1}, 8)
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study_file),
                     "-o", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert list(report["metadata"]["failures"]) == ["8"]
        err = capsys.readouterr().err
        assert "N=8: 1 of 3 replicates failed" in err
        assert "dropped" not in err
        assert "N=4" not in err and "N=16" not in err
        # the two surviving replicates still estimate N=8
        assert {row["n"] for row in report["estimates"]} == {4, 8, 16}

    def test_diverging_chain_reported_and_exit_one(self, diverging, tmp_path, capsys):
        # the N = 4096 sample covariance overflows: every replicate fails
        # there, and the report is still written
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_dict(*diverging)))
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [4, 64, 4096], "replicates": 4}))
        out = tmp_path / "out"
        assert main(["study", str(model), str(study), "-o", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert [f["replicate"] for f in report["metadata"]["failures"]["4096"]] == [0, 1, 2, 3]
        err = capsys.readouterr().err
        assert "error: N=4096: 4 of 4 replicates failed" in err
        assert "N=4096 is dropped from the estimates" in err

    def test_diverging_failures_match_the_library(self, diverging, tmp_path):
        # The kernel has one overflow rule, so main's over="raise" records the
        # same failures as a library call under NumPy's default error state.
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_dict(*diverging)))
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [4, 64, 4096], "replicates": 4}))
        main(["study", str(model), str(study), "-o", str(tmp_path / "out")])
        cli_failures = json.loads((tmp_path / "out" / "report.json").read_text())[
            "metadata"]["failures"]
        config = StudyConfig(*diverging, n_grid=(4, 64, 4096), replicates=4)
        assert cli_failures == run_study(config).metadata["failures"]
        assert {f["error"] for f in cli_failures["4096"]} == {
            "ValueError: ensemble entries must be finite"}

    def test_dropped_n_reported_and_exit_one(
        self, scalar_model_file, study_file, tmp_path, capsys, fail_chains
    ):
        fail_chains({0, 2}, 16)
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study_file),
                     "-o", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert {row["n"] for row in report["estimates"]} == {4, 8}
        err = capsys.readouterr().err
        assert "N=16: 2 of 3 replicates failed" in err
        assert "N=16 is dropped from the estimates and rate fits" in err
        assert "N=4" not in err and "N=8" not in err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"p_list": [2, 2]}, "moment orders must be distinct"),
            ({"p_list": []}, "at least one moment order is required"),
            ({"p_list": [float("nan")]}, "moment orders must all be finite"),
            ({"metrics": ["mean_err", "mean_err"]}, "metrics must be distinct"),
            ({"replicates": 1}, "replicates must be >= 2"),
            ({"metrics": []}, "at least one metric is required"),
        ],
        ids=["duplicate-p", "empty-p", "nan-p", "duplicate-metric", "one-replicate",
             "no-metric"],
    )
    def test_invalid_study_value_exit_one(self, scalar_model_file, tmp_path,
                                          capsys, override, message):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [4, 8, 16], "replicates": 3,
                                     **override}))
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study),
                     "-o", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("p", [700.0, 1000.0, 1e300], ids=["p700", "p1000", "p1e300"])
    def test_large_moment_order_exit_zero(self, scalar_model_file, tmp_path, p):
        # p-th powers beyond float64's range are taken of the norms divided
        # by their largest, so every L^p estimate stays finite
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [2, 4, 8], "replicates": 2,
                                     "p_list": [p], "metrics": ["member_lp", "moment"]}))
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study), "-o", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["estimates"]
        assert len(rows) == 2 * 3 * 4
        for row in rows:
            assert row["stderr"] is not None and row["stderr"] >= 0
            assert row["estimate"] > 0 or row["metric"].startswith("member_lp") and row["k"] == 0

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
    def test_workers_out_of_range_exit_one(self, scalar_model_file, study_file,
                                           tmp_path, capsys, monkeypatch, workers):
        # run_study checks the bound before any study work; fail loudly
        # otherwise rather than fork a worker.
        def no_fork():
            raise AssertionError("a worker was forked despite a bad --workers")

        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study_file),
                     "-o", str(out), "--workers", str(workers)]) == 1
        assert f"workers must be between 1 and {os.cpu_count() or 1}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("fault", ["raise", "kill"])
    def test_failed_worker_exit_one(self, scalar_model_file, study_file, tmp_path,
                                    capsys, monkeypatch, fault):
        # A child that raises or dies ends the study with one error line.
        caller, real = os.getpid(), experiment.chunk_errors

        def share(*args):
            if os.getpid() != caller:
                if fault == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError("no room")
            return real(*args)

        monkeypatch.setattr(experiment, "chunk_errors", share)
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study_file),
                     "-o", str(out), "--workers", "2"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("error: a replicate worker raised MemoryError: no room" if fault == "raise"
                        else "error: a replicate worker died before sending its result "
                             "(signal 9)")
        assert not out.exists()

    def test_note_without_blas_thread_setter(self, scalar_model_file, study_file, tmp_path,
                                             capsys, monkeypatch):
        # Where no OpenBLAS setter is found, two workers say so once; one
        # worker pins nothing and says nothing.
        monkeypatch.setattr(enkf_lab.cli, "_blas_threads", lambda: None)
        args = ["study", str(scalar_model_file), str(study_file), "-o", str(tmp_path / "out")]
        assert main(args + ["--workers", "2"]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
        assert notes == ["note: no OpenBLAS thread setter was found, so each worker runs "
                         "BLAS with its default thread count"]
        assert main(args) == 0
        assert capsys.readouterr().err == ""


def test_two_workers_in_the_default_environment(scalar_model_file, tmp_path):
    # The command line as a user runs it, with OpenBLAS's own thread count
    # (every *_NUM_THREADS variable removed): two workers exit 0 within the
    # timeout, write the one-worker outputs byte for byte and leave no
    # process of their session behind.
    study = tmp_path / "study.json"
    study.write_text(json.dumps({"n_grid": [4, 16, 64, 256], "replicates": 8, "seed": 3}))
    src = str(Path(enkf_lab.__file__).parents[1])
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        proc = subprocess.Popen(
            [sys.executable, "-m", "enkf_lab.cli", "study", str(scalar_model_file), str(study),
             "-o", str(out), "--workers", workers],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 0, err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        report = json.loads((out / "report.json").read_text())
        report["metadata"].pop("timestamp")
        written.append([report] + [(out / name).read_bytes()
                                   for name in ("estimates.csv", "rates.csv")])
    assert written[0] == written[1]

# Arbitrary JSON: small integers keep any size or repeat count a model or
# study file might take from it small.
NUMBERS = st.one_of(st.integers(-3, 5), st.floats())
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


def _shaped(**fields):
    """Dicts with any subset of ``fields``, each value of its field's shape
    or arbitrary JSON."""
    return st.fixed_dictionaries(
        {}, optional={key: st.one_of(value, JSON) for key, value in fields.items()})


VECTORS = st.lists(NUMBERS, max_size=3)
MATRICES = st.lists(VECTORS, max_size=3)
MODEL_SHAPED = _shaped(
    state_dim=st.integers(0, 3),
    obs_dim=st.integers(0, 3),
    init=_shaped(mean=VECTORS, cov=MATRICES),
    steps=st.lists(_shaped(A=MATRICES, b=VECTORS, H=MATRICES, R=MATRICES, data=VECTORS,
                           repeat=st.integers(-1, 3), data_sequence=MATRICES),
                   max_size=3),
)
STUDY_SHAPED = _shaped(
    n_grid=st.one_of(st.lists(st.integers(-1, 16), max_size=3),
                     st.lists(st.integers(2, 16), max_size=3, unique=True).map(sorted)),
    replicates=st.integers(-1, 3),
    p_list=st.one_of(st.lists(NUMBERS, max_size=3),
                     st.lists(st.floats(1.0), max_size=3, unique=True)),
    seed=st.integers(-(2**70), 2**70),
    metrics=st.lists(st.sampled_from(["member_lp", "mean_err", "cov_err", "gain_err",
                                      "moment", "x"]), max_size=3),
)
VALID_MODEL = model_to_dict(*scalar_model())
VALID_STUDY = {"n_grid": [2, 4, 8], "replicates": 2}


def _over(valid: dict, shaped):
    """``valid`` with some of its fields replaced, or new ones added."""
    return shaped.map(lambda fields: {**valid, **fields})


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["validate", "kf", "study"]),
       model=st.one_of(st.just(VALID_MODEL), _over(VALID_MODEL, MODEL_SHAPED),
                       MODEL_SHAPED, JSON),
       study=st.one_of(st.just(VALID_STUDY), _over(VALID_STUDY, STUDY_SHAPED),
                       STUDY_SHAPED, JSON))
# Valid files with extreme numbers: a large moment order, an overflowing filter mean.
@example(command="study", model=VALID_MODEL, study={**VALID_STUDY, "p_list": [700.0]})
@example(command="kf", model={**VALID_MODEL, "init": {"mean": [1e308], "cov": [[1.0]]}},
         study=VALID_STUDY)
def test_arbitrary_json_never_escapes_main(command, model, study):
    # Every input file, valid or not, ends in an exit code, never a traceback.
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, content in (("model.json", model), ("study.json", study)):
            paths.append(Path(tmp) / name)
            paths[-1].write_text(json.dumps(content))
        args = [command, str(paths[0])]
        if command == "study":
            args.append(str(paths[1]))
        if command != "validate":
            args += ["-o", str(Path(tmp) / "out")]
        assert main(args) in (0, 1, 2)
