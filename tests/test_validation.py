"""One check per problem: every command and every library entry point rejects
the same models, through ``validate_model``."""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from enkf_lab import (
    ModelFormatError,
    StudyConfig,
    ValidationError,
    kf_run,
    model_from_dict,
    model_to_dict,
    run_study,
)
from enkf_lab.cli import main
from enkf_lab.reference import scalar_model

TWO_STATE = {
    "state_dim": 2,
    "obs_dim": 1,
    "init": {"mean": [0.0, 1.0], "cov": [[1.0, 0.2], [0.2, 0.5]]},
    "steps": [
        {"A": [[0.9, 0.1], [0.0, 0.8]], "b": [0.0, 0.1], "H": [[1.0, 0.0]],
         "R": [[0.5]], "data": [1.2]},
        {"A": [[0.9, 0.1], [0.0, 0.8]], "b": [0.0, 0.1], "H": [[1.0, 0.0]],
         "R": [[0.5]], "data": [0.7]},
    ],
}


def mutated(raw: dict, path: tuple, value) -> dict:
    """A deep copy of ``raw`` with the node at ``path`` replaced by ``value``."""
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


# (path, value, the violation reported)
INVALID = {
    "indefinite-init-cov": (
        ("init", "cov"), [[1.0, 2.0], [2.0, 1.0]],
        "init cov: state covariance is not positive semidefinite",
    ),
    # the draws' jitter cannot make this factorable
    "beyond-jitter-init-cov": (
        ("init", "cov"), [[1.0, 0.0], [0.0, -9e-11]],
        "init cov: state covariance is not positive semidefinite (min eigenvalue -9e-11)",
    ),
    "asymmetric-init-cov": (
        ("init", "cov"), [[1.0, 0.5], [0.0, 1.0]],
        "init cov: state covariance is not symmetric",
    ),
    "short-init-mean": (
        ("init",), {"mean": [0.0], "cov": [[1.0]]}, "init mean has length 1, expected 2",
    ),
    "short-b": (("steps", 0, "b"), [0.0], "b has length 1, expected 2 at step 1"),
    "nan-data": (("steps", 1, "data", 0), math.nan, "data has non-finite entries at step 2"),
    "long-data": (("steps", 1, "data"), [0.7, 0.1], "data has length 2, expected 1 at step 2"),
    "nan-b": (("steps", 0, "b", 1), math.nan, "b has non-finite entries at step 1"),
    "nan-init-mean": (("init", "mean", 0), math.nan, "init mean has non-finite entries"),
    "null-A": (("steps", 1, "A", 0, 1), None, "A has non-finite entries at step 2"),
    "inf-A": (("steps", 0, "A", 1, 0), math.inf, "A has non-finite entries at step 1"),
}


@pytest.mark.parametrize("case", INVALID)
def test_every_command_rejects(case, tmp_path, capsys):
    path, value, message = INVALID[case]
    model = tmp_path / "model.json"
    # json writes NaN and Infinity, which Python's json reads back
    model.write_text(json.dumps(mutated(TWO_STATE, path, value)))
    study = tmp_path / "study.json"
    study.write_text(json.dumps({"n_grid": [4, 8, 16], "replicates": 3}))
    out = tmp_path / "out"
    commands = {
        "validate": ["validate", str(model)],
        "kf": ["kf", str(model), "-o", str(out)],
        "study": ["study", str(model), str(study), "-o", str(out)],
    }
    for name, argv in commands.items():
        assert main(argv) == 1, name
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err.splitlines()[0], name
        assert captured.out == "", name
        assert not out.exists(), name


@pytest.mark.parametrize("case", INVALID)
def test_every_entry_point_rejects(case):
    path, value, message = INVALID[case]
    model, init = model_from_dict(mutated(TWO_STATE, path, value))
    with pytest.raises(ValidationError, match=re.escape(message)):
        kf_run(model, init)
    config = StudyConfig(model=model, init=init, n_grid=(4, 8), replicates=2)
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_study(config)


# (path, value): a string or boolean array entry, which np.asarray would read
# as a number ("2.0" as 2.0, true as 1.0)
NON_NUMERIC = {
    "string-A": (("steps", 0, "A", 0, 1), "2.0"),
    "bool-b": (("steps", 0, "b", 1), True),
    "string-H": (("steps", 1, "H", 0, 0), "1"),
    "bool-R": (("steps", 0, "R", 0, 0), True),
    "string-data": (("steps", 1, "data", 0), "0.7"),
    "bool-data-sequence": (("steps", 1), {
        "A": [[0.9, 0.1], [0.0, 0.8]], "b": [0.0, 0.1], "H": [[1.0, 0.0]],
        "R": [[0.5]], "repeat": 2, "data_sequence": [[0.7], [False]]}),
    "bool-init-mean": (("init", "mean", 0), False),
    "string-init-cov": (("init", "cov", 1, 1), "0.5"),
}


@pytest.mark.parametrize("case", NON_NUMERIC)
def test_non_numeric_entry_is_format_error(case, tmp_path, capsys):
    path, value = NON_NUMERIC[case]
    raw = mutated(TWO_STATE, path, value)
    with pytest.raises(ModelFormatError, match="non-numeric entry"):
        model_from_dict(raw)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(raw))
    study = tmp_path / "study.json"
    study.write_text(json.dumps({"n_grid": [4, 8, 16], "replicates": 3}))
    out = tmp_path / "out"
    for argv in (["validate", str(model)], ["kf", str(model), "-o", str(out)],
                 ["study", str(model), str(study), "-o", str(out)]):
        assert main(argv) == 2, argv[0]
        assert "non-numeric entry" in capsys.readouterr().err, argv[0]
        assert not out.exists(), argv[0]


def test_each_violation_on_its_own_line(tmp_path, capsys):
    raw = mutated(mutated(TWO_STATE, ("steps", 0, "R"), [[-1.0]]), ("init", "mean", 1), math.inf)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(raw))
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: R not positive definite at step 1",
        "error: init mean has non-finite entries",
    ]


# -- every mutation of one field: validate and kf agree ------------------------

SCALAR = model_to_dict(*scalar_model())


def _paths(node, prefix=()):
    """The path of every node below ``node``: fields, rows and entries."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


FINITE = st.floats(-10.0, 10.0, allow_nan=False)


def _symmetric(n: int):
    # Random symmetric matrices; most of them are indefinite.
    return st.lists(FINITE, min_size=n * n, max_size=n * n).map(
        lambda v: [[v[max(i, j) * n + min(i, j)] for j in range(n)] for i in range(n)]
    )


REPLACEMENTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, None, True, False, "x", {}, []]),
    FINITE,
    st.integers(-10, 10),
    st.lists(FINITE, max_size=3),
    st.lists(st.lists(FINITE, min_size=1, max_size=3), min_size=1, max_size=3),
    st.integers(1, 3).flatmap(_symmetric),
)
MUTATIONS = st.sampled_from([SCALAR, TWO_STATE]).flatmap(
    lambda raw: st.tuples(st.just(raw), st.sampled_from(list(_paths(raw))), REPLACEMENTS)
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(MUTATIONS)
def test_validate_and_kf_agree_on_any_one_field_mutation(mutation):
    raw, path, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(mutated(raw, path, value)))
        validated = main(["validate", str(model)])
        ran = main(["kf", str(model), "-o", str(Path(tmp) / "out")])
    assert validated in (0, 1, 2)
    assert ran == validated
