import json
import re

import numpy as np
import pytest

from enkf_lab import (
    GaussianState,
    LinearModel,
    ModelFormatError,
    StepSpec,
    ValidationError,
    apply_model,
    load_model,
    model_from_dict,
    model_to_dict,
    validate_model,
)

from oracles import affine_columns_loop


def make_model(**overrides):
    fields = dict(A=[[2.0]], b=[1.0], H=[[1.0]], R=[[1.0]], data=[2.0])
    fields.update(overrides)
    step = StepSpec(**fields)
    return LinearModel(steps=(step,), state_dim=1, obs_dim=1)


def violations(model, init=None):
    """What validate_model reports; [] when it accepts the problem. The
    default initial state is standard normal of the model's dimension."""
    if init is None:
        init = GaussianState(mean=np.zeros(model.state_dim), cov=np.eye(model.state_dim))
    try:
        validate_model(model, init)
    except ValidationError as exc:
        return exc.violations
    return []


class TestValidateModel:
    def test_scalar_model_valid(self):
        assert violations(make_model()) == []

    def test_semidefinite_r_rejected(self):
        step = StepSpec(
            A=[[1.0]], b=[0.0], H=[[1.0], [0.5]], R=[[1.0, 0.0], [0.0, 0.0]],
            data=[0.0, 0.0],
        )
        model = LinearModel(steps=(step,), state_dim=1, obs_dim=2)
        assert "R not positive definite at step 1" in violations(model)

    def test_asymmetric_r_rejected(self):
        step = StepSpec(
            A=[[1.0]], b=[0.0], H=[[1.0], [0.5]], R=[[1.0, 0.3], [0.0, 1.0]],
            data=[0.0, 0.0],
        )
        model = LinearModel(steps=(step,), state_dim=1, obs_dim=2)
        assert violations(model) == ["R not symmetric at step 1"]

    def test_dimension_mismatch_reported_with_step(self):
        step = StepSpec(
            A=np.eye(2), b=np.zeros(2), H=np.ones((2, 3)), R=np.eye(2),
            data=np.zeros(2),
        )
        model = LinearModel(steps=(step,), state_dim=2, obs_dim=2)
        found = violations(model)
        assert any("H has shape (2, 3)" in v and "step 1" in v for v in found)

    @pytest.mark.parametrize("seed", range(10))
    def test_factor_built_r_always_accepted(self, seed):
        # R = G G^T + eps I is symmetric positive definite by construction
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((3, 3))
        r = g @ g.T + 1e-8 * np.eye(3)
        step = StepSpec(A=np.eye(2), b=np.zeros(2), H=np.zeros((3, 2)), R=r,
                        data=np.zeros(3))
        model = LinearModel(steps=(step,), state_dim=2, obs_dim=3)
        assert violations(model) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["A", "b", "H", "R", "data"])
    def test_non_finite_step_field_named_alone(self, field, bad):
        # a non-finite R is not also called asymmetric or indefinite
        (good,) = make_model().steps
        value = getattr(good, field).copy()
        value.flat[0] = bad
        (broken,) = make_model(**{field: value}).steps
        model = LinearModel(steps=(good, broken), state_dim=1, obs_dim=1)
        assert violations(model) == [f"{field} has non-finite entries at step 2"]

    @pytest.mark.parametrize(
        "mean, cov, expected",
        [
            ([0.0, 0.0], np.eye(2), ["init mean has length 2, expected 1"]),
            ([np.nan], [[1.0]], ["init mean has non-finite entries"]),
            ([0.0], [[np.inf]], ["init cov has non-finite entries"]),
            ([0.0], [[-1.0]], ["init cov: state covariance is not positive "
                               "semidefinite (min eigenvalue -1)"]),
            ([0.0], [[0.0]], []),  # a degenerate prior is legal
        ],
        ids=["length", "nan-mean", "inf-cov", "indefinite", "singular"],
    )
    def test_init_checks(self, mean, cov, expected):
        init = GaussianState(mean=mean, cov=cov)
        assert violations(make_model(), init) == expected

    def test_asymmetric_init_cov_rejected(self):
        step = StepSpec(A=np.eye(2), b=np.zeros(2), H=np.eye(2), R=np.eye(2),
                        data=np.zeros(2))
        model = LinearModel(steps=(step,), state_dim=2, obs_dim=2)
        init = GaussianState(mean=np.zeros(2), cov=[[1.0, 0.5], [0.0, 1.0]])
        assert violations(model, init) == ["init cov: state covariance is not symmetric"]

    def test_every_violation_reported(self):
        model = make_model(R=[[0.0]], data=[np.nan])
        init = GaussianState(mean=[np.inf], cov=[[1.0]])
        assert violations(model, init) == [
            "data has non-finite entries at step 1",
            "R not positive definite at step 1",
            "init mean has non-finite entries",
        ]


class TestApplyModel:
    def test_identity_dynamics(self, rng):
        model = make_model(A=[[1.0]], b=[0.0])
        x = rng.standard_normal((1, 5))
        assert np.array_equal(apply_model(model, 1, x), x)

    def test_scalar_affine(self):
        model = make_model()
        assert apply_model(model, 1, [[3.0]])[0, 0] == 7.0

    def test_matches_element_loop_oracle(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        x = rng.standard_normal((3, 5))
        step = StepSpec(A=a, b=b, H=np.eye(3), R=np.eye(3), data=np.zeros(3))
        model = LinearModel(steps=(step,), state_dim=3, obs_dim=3)
        expected = affine_columns_loop(a, b, x)
        assert np.abs(apply_model(model, 1, x) - expected).max() < 1e-14

    def test_affine_in_the_ensemble(self, rng):
        # alpha X + (1-alpha) Y maps to the same combination of the images
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        step = StepSpec(A=a, b=b, H=np.eye(3), R=np.eye(3), data=np.zeros(3))
        model = LinearModel(steps=(step,), state_dim=3, obs_dim=3)
        x = rng.standard_normal((3, 6))
        y = rng.standard_normal((3, 6))
        for alpha in rng.uniform(0, 1, size=5):
            combined = apply_model(model, 1, alpha * x + (1 - alpha) * y)
            split = alpha * apply_model(model, 1, x) + (1 - alpha) * apply_model(model, 1, y)
            assert np.abs(combined - split).max() < 1e-12

    def test_commutes_with_column_permutation(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal(4)
        step = StepSpec(A=a, b=b, H=np.eye(4), R=np.eye(4), data=np.zeros(4))
        model = LinearModel(steps=(step,), state_dim=4, obs_dim=4)
        x = rng.standard_normal((4, 7))
        perm = rng.permutation(7)
        assert np.array_equal(
            apply_model(model, 1, x[:, perm]), apply_model(model, 1, x)[:, perm]
        )

    def test_bad_step_index(self):
        model = make_model()
        with pytest.raises(ValueError, match="out of range"):
            apply_model(model, 2, [[1.0]])
        with pytest.raises(ValueError, match="out of range"):
            apply_model(model, 0, [[1.0]])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            apply_model(make_model(), 1, np.zeros((2, 3)))


class TestGaussianState:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(mean=[0.0, 1.0], cov=[[1.0]])

    def test_dim(self):
        assert GaussianState(mean=np.zeros(3), cov=np.eye(3)).dim == 3


class TestModelFiles:
    def model_dict(self):
        model = make_model()
        return model_to_dict(model, GaussianState(mean=[0.0], cov=[[1.0]]))

    def test_round_trip(self, tmp_path):
        raw = self.model_dict()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        model, init = load_model(path)
        assert len(model.steps) == 1
        assert model.steps[0].A[0, 0] == 2.0
        assert init.cov[0, 0] == 1.0

    def test_repeat_expands_with_shared_data(self):
        raw = self.model_dict()
        raw["steps"][0]["repeat"] = 3
        model, _ = model_from_dict(raw)
        assert len(model.steps) == 3
        assert all(step.data[0] == 2.0 for step in model.steps)

    def test_data_sequence_overrides_data(self):
        raw = self.model_dict()
        raw["steps"][0]["repeat"] = 2
        raw["steps"][0]["data_sequence"] = [[5.0], [6.0]]
        model, _ = model_from_dict(raw)
        assert [step.data[0] for step in model.steps] == [5.0, 6.0]

    def test_data_sequence_length_must_match_repeat(self):
        raw = self.model_dict()
        raw["steps"][0]["repeat"] = 3
        raw["steps"][0]["data_sequence"] = [[5.0], [6.0]]
        with pytest.raises(ModelFormatError, match="repeat"):
            model_from_dict(raw)

    def test_missing_key_is_format_error(self):
        raw = self.model_dict()
        del raw["steps"][0]["H"]
        with pytest.raises(ModelFormatError, match="'H'"):
            model_from_dict(raw)

    def test_load_validates(self, tmp_path):
        raw = self.model_dict()
        raw["steps"][0]["R"] = [[0.0]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="positive definite"):
            load_model(path)
        # parsing alone does not check the constraints
        model, init = model_from_dict(raw)
        assert violations(model, init) == ["R not positive definite at step 1"]

    @pytest.mark.parametrize("field", ["state_dim", "obs_dim", "repeat"])
    def test_boolean_count_is_format_error(self, field):
        raw = self.model_dict()
        if field == "repeat":
            raw["steps"][0]["repeat"] = True
        else:
            raw[field] = True
        with pytest.raises(ModelFormatError, match=field):
            model_from_dict(raw)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["steps"][0].update(data_sequence=[]),
         "data_sequence must be a non-empty list in step 0"),
        (lambda raw: raw.update(init=[0.0]), "init must be an object with mean and cov"),
        (lambda raw: raw["init"].pop("mean"), "missing key 'mean' in init"),
        (lambda raw: raw.update(state_dim=0), "state_dim must be a positive integer"),
        (lambda raw: raw.update(obs_dim=0), "obs_dim must be a positive integer"),
    ], ids=["empty-data-sequence", "init-not-object", "init-without-mean", "zero-state-dim",
            "zero-obs-dim"])
    def test_malformed_model_is_format_error(self, edit, message):
        raw = self.model_dict()
        edit(raw)
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            model_from_dict(raw)

    @pytest.mark.parametrize("place, key, where", [
        ("model", "stpes", "model"),
        ("init", "covariance", "init"),
        ("step", "repaet", "step 0"),
    ])
    def test_unknown_key_is_format_error(self, place, key, where):
        # A misspelt key would otherwise be ignored: "repaet": 40 gave a
        # 1-step model.
        raw = self.model_dict()
        target = {"model": raw, "init": raw["init"], "step": raw["steps"][0]}[place]
        target[key] = 40
        with pytest.raises(ModelFormatError, match=f"unknown key '{key}' in {where}$"):
            model_from_dict(raw)
