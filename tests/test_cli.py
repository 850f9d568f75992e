import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from enkf_lab import model_to_dict, read_ensemble
from enkf_lab.cli import main
from enkf_lab.reference import scalar_model

from oracles import conjugate_scalar_chain


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


class TestKfCommand:
    def test_matches_conjugate_oracle(self, scalar_model_file, tmp_path):
        out = tmp_path / "out"
        assert main(["kf", str(scalar_model_file), "-o", str(out)]) == 0
        payload = json.loads((out / "kf.json").read_text())
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

        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["seed"] == 5
        lines = (out / "estimates.csv").read_text().splitlines()
        # per metric and step, one row per grid size
        member_rows = [l for l in lines if l.startswith("member_lp_p2,1,")]
        assert [int(l.split(",")[2]) for l in member_rows] == [4, 8, 16]

    def test_format_selection(self, scalar_model_file, study_file, tmp_path):
        out = tmp_path / "json_only"
        main(["study", str(scalar_model_file), str(study_file), "-o", str(out),
              "--format", "json"])
        assert (out / "report.json").exists()
        assert not (out / "estimates.csv").exists()
        out = tmp_path / "csv_only"
        main(["study", str(scalar_model_file), str(study_file), "-o", str(out),
              "--format", "csv"])
        assert not (out / "report.json").exists()
        assert (out / "estimates.csv").exists()

    def test_seed_precedence(self, scalar_model_file, study_file, tmp_path,
                             monkeypatch):
        out_file = tmp_path / "file_seed"
        main(["study", str(scalar_model_file), str(study_file), "-o", str(out_file)])
        assert json.loads((out_file / "report.json").read_text())["metadata"]["seed"] == 5

        out_flag = tmp_path / "flag_seed"
        main(["study", str(scalar_model_file), str(study_file), "-o", str(out_flag),
              "--seed", "9"])
        assert json.loads((out_flag / "report.json").read_text())["metadata"]["seed"] == 9

        # env var applies only when neither flag nor file give a seed
        study_no_seed = tmp_path / "study_no_seed.json"
        study_no_seed.write_text(json.dumps({"n_grid": [4, 8], "replicates": 2}))
        monkeypatch.setenv("ENKF_LAB_SEED", "77")
        out_env = tmp_path / "env_seed"
        main(["study", str(scalar_model_file), str(study_no_seed), "-o", str(out_env)])
        assert json.loads((out_env / "report.json").read_text())["metadata"]["seed"] == 77

    def test_seed_override_changes_numbers_not_schema(
        self, scalar_model_file, study_file, tmp_path
    ):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["study", str(scalar_model_file), str(study_file), "-o", str(out_a)])
        main(["study", str(scalar_model_file), str(study_file), "-o", str(out_b),
              "--seed", "123"])
        rep_a = json.loads((out_a / "report.json").read_text())
        rep_b = json.loads((out_b / "report.json").read_text())
        key_a = [(r["metric"], r["k"], r["n"]) for r in rep_a["estimates"]]
        key_b = [(r["metric"], r["k"], r["n"]) for r in rep_b["estimates"]]
        assert key_a == key_b
        assert rep_a["estimates"] != rep_b["estimates"]

    def test_dump_trajectories_round_trip(self, scalar_model_file, study_file,
                                          tmp_path):
        out = tmp_path / "out"
        main(["study", str(scalar_model_file), str(study_file), "-o", str(out),
              "--dump-trajectories"])
        for n in (4, 8, 16):
            n_dir = out / "trajectories" / f"n{n}"
            index = json.loads((n_dir / "index.json").read_text())
            assert index["n"] == n
            assert [s["k"] for s in index["steps"]] == [0, 1, 2, 3]
            for entry in index["steps"]:
                x = read_ensemble(n_dir / entry["x"])
                u = read_ensemble(n_dir / entry["u"])
                assert x.size == n and u.size == n
                if entry["k"] == 0:
                    assert np.array_equal(x.members, u.members)
                    assert entry["ensemble_gain"] is None
                else:
                    assert entry["ensemble_gain"] is not None
                    assert entry["exact_gain"] is not None

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

    def test_mistyped_file_seed_exit_two_under_seed_flag(self, scalar_model_file,
                                                         tmp_path, capsys):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [4, 8], "replicates": 2, "seed": "5"}))
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study), "-o", str(out),
                     "--seed", "9"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

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
            ({"p_list": [float("nan")]}, "moment orders must all be finite"),
            ({"metrics": ["mean_err", "mean_err"]}, "metrics must be distinct"),
        ],
        ids=["duplicate-p", "nan-p", "duplicate-metric"],
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

    @pytest.mark.parametrize("p_list", [[700.0], [1e300]])
    def test_overflowing_moment_order_exit_one(self, scalar_model_file, tmp_path, capsys,
                                               p_list):
        # p-th powers beyond float64's range end the study with exit 1
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"n_grid": [2, 4, 8], "replicates": 2,
                                     "p_list": p_list}))
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study), "-o", str(out)]) == 1
        assert "error: overflow encountered in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
    def test_workers_out_of_range_exit_one(self, scalar_model_file, study_file,
                                           tmp_path, capsys, monkeypatch, workers):
        # The bound is checked before any study work; fail loudly otherwise
        # rather than start a pool of the requested size.
        def no_study(*args, **kwargs):
            raise AssertionError("run_study reached despite a bad --workers")

        monkeypatch.setattr("enkf_lab.cli.run_study", no_study)
        out = tmp_path / "out"
        assert main(["study", str(scalar_model_file), str(study_file),
                     "-o", str(out), "--workers", str(workers)]) == 1
        assert "--workers must be between 1 and" in capsys.readouterr().err
        assert not out.exists()


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
# Valid files whose numbers overflow: a moment order's powers, the filter's mean.
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
