"""The benchmark's tracer finds every name it wraps.

``bench/spans.py`` replaces functions at the names each module of the
program imports them under, and ``Tracer.install()`` raises AttributeError
on a missing name, which makes every traced benchmark run exit 2. A rename
in ``src/`` therefore has to keep those names bound, and the study has to
keep calling each layer through them.
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
    # Every layer of the step is still called through the name the tracer
    # patches: inlining one (say enkf_analysis into coupled_step) would
    # leave its calls or self time at zero.
    for layer in ("ensemble.draw_calls", "enkf.coupled_steps", "kf.gain_calls"):
        assert layers[layer] > 0, layer
    for layer in ("enkf.analysis_s", "model.apply_s", "ensemble.sample_cov_s"):
        assert layers[layer] > 0, layer
    assert patched
    for (owner, attr), original in patched.items():
        assert getattr(owner, attr) is original, attr


def test_traced_failing_study_records_its_failures(tmp_path, fail_chains):
    # Armed before the tracer installs, so the tracer wraps the armed names
    # and gives them back on uninstall.
    fail_chains({5}, 8)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_to_dict(*scalar_model())))
    study = tmp_path / "study.json"
    study.write_text(json.dumps({"n_grid": [4, 8, 16], "replicates": 8, "seed": 1}))
    tracer = load_tracer_class()(enkf_lab)
    tracer.install()
    patched = {}
    for owner, attr, original in tracer._saved:
        patched.setdefault((owner, attr), original)
    try:
        rc = cli.main(["study", str(model), str(study), "-o", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metadata"]["failures"] == {
        "8": [{"replicate": 5, "error": "RuntimeError: synthetic failure"}]}
    layers = tracer.layers()
    for layer in ("ensemble.draw_calls", "enkf.coupled_steps"):
        assert layers[layer] > 0, layer
    for (owner, attr), original in patched.items():
        assert getattr(owner, attr) is original, attr
