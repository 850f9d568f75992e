import json
import math

import numpy as np
import pytest

from enkf_lab.jsonio import canonical_json, write_canonical_json


def test_sorted_keys_two_space_indent():
    text = canonical_json({"b": [1, 2.5], "a": {"d": None, "c": True}, "e": [], "f": {}})
    assert text == (
        '{\n'
        '  "a": {\n'
        '    "c": true,\n'
        '    "d": null\n'
        '  },\n'
        '  "b": [\n'
        '    1,\n'
        '    2.5\n'
        '  ],\n'
        '  "e": [],\n'
        '  "f": {}\n'
        '}\n'
    )


def test_floats_round_trip_bit_for_bit():
    values = [0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308, 2.0, 1e-05]
    parsed = json.loads(canonical_json(values))
    assert [v.hex() for v in parsed] == [v.hex() for v in values]
    # the shortest repr, not a fixed digit count
    assert canonical_json([0.1]) == "[\n  0.1\n]\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_float_raises(value):
    with pytest.raises(ValueError):
        canonical_json({"x": [value]})


def test_ndarray_raises():
    with pytest.raises(TypeError):
        canonical_json({"gain": np.eye(2)})


@pytest.mark.parametrize("value", [math.nan, np.eye(2)], ids=["nan", "ndarray"])
def test_failed_write_keeps_the_old_file(tmp_path, value):
    path = tmp_path / "report.json"
    path.write_text("old report\n")
    with pytest.raises((ValueError, TypeError)):
        write_canonical_json(path, {"metadata": {"x": value}})
    assert path.read_bytes() == b"old report\n"
