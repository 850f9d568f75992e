"""The benchmark's tracer finds every name it wraps.

``bench/spans.py`` replaces functions at the names each module of the
program imports them under, and ``Tracer.install()`` raises AttributeError
on a missing name, which makes every traced benchmark run exit 2. A rename
in ``src/`` therefore has to keep those names bound.
"""

import importlib.util
import json
from pathlib import Path

import enkf_lab
from enkf_lab import cli, model_to_dict
from enkf_lab.reference import scalar_model

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_study_runs_and_restores_every_name(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_dict(*scalar_model())))  # 3 steps
    study = tmp_path / "study.json"
    study.write_text(json.dumps({"n_grid": [4, 8, 16], "replicates": 3, "seed": 1}))
    tracer = load_tracer_class()(enkf_lab)
    tracer.install()
    # The original of every name the tracer replaced: the first value saved,
    # since some names are wrapped twice.
    patched = {}
    for owner, attr, original in tracer._saved:
        patched.setdefault((owner, attr), original)
    try:
        rc = cli.main(["study", str(model), str(study), "-o", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    layers = tracer.layers()
    assert layers["experiment.run_study_s"] > 0
    # run_study estimates through the four public estimators the tracer wraps
    assert layers["experiment.estimate_s"] > 0
    assert patched
    for (owner, attr), original in patched.items():
        assert getattr(owner, attr) is original, attr
