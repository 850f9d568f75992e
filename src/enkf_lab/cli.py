"""Command-line front end.

Commands:
    enkf-lab validate <model.json>
    enkf-lab kf <model.json> -o DIR
    enkf-lab study <model.json> <study.json> -o DIR
        [--dump-trajectories] [--workers W]

Exit codes: 0 success, 1 domain-invalid input, float64 overflow or failed
study replicates (the report is still written), 2 I/O or parse failure.
A study's inputs are its two files alone: the seed is the study file's
``seed``, default 0. ``study`` always writes all three report files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .enkf import coupled_run
from .experiment import (Metric, StudyConfig, StudyFormatError, WorkerError, _blas_threads,
                         run_study)
from .jsonio import write_canonical_json
from .kf import kf_run
from .model import GaussianState, LinearModel, ModelFormatError, ValidationError, load_model

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enkf-lab",
        description="Linear-Gaussian filtering lab: exact Kalman filter, "
        "perturbed-observation EnKF, and convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a model file")
    p_validate.add_argument("model", help="model JSON file")

    p_kf = sub.add_parser("kf", help="run the exact Kalman filter")
    p_kf.add_argument("model", help="model JSON file")
    p_kf.add_argument("-o", "--out", required=True, help="output directory")

    p_study = sub.add_parser("study", help="run a replicated convergence study")
    p_study.add_argument("model", help="model JSON file")
    p_study.add_argument("study", help="study JSON file")
    p_study.add_argument("-o", "--out", required=True, help="output directory")
    p_study.add_argument(
        "--dump-trajectories", action="store_true",
        help="write replicate 0's ensembles and gains per N as .npy arrays",
    )
    p_study.add_argument(
        "--workers", type=int, default=1, help="processes that share the replicates"
    )
    return parser


def cmd_validate(model_path: str) -> int:
    model, _ = load_model(model_path)
    print(
        f"model ok: state_dim={model.state_dim} obs_dim={model.obs_dim} "
        f"steps={len(model.steps)}"
    )
    return EXIT_OK


def _state_dict(state: GaussianState) -> dict:
    return {"mean": state.mean.tolist(), "cov": state.cov.tolist()}


def cmd_kf(model_path: str, out_dir: str) -> int:
    model, init = load_model(model_path)
    trajectory = kf_run(model, init)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "init": _state_dict(trajectory.init),
        "steps": [
            {
                "k": k,
                "forecast": _state_dict(step.forecast),
                "gain": step.gain.tolist(),
                "analysis": _state_dict(step.analysis),
            }
            for k, step in enumerate(trajectory.steps, start=1)
        ],
    }
    write_canonical_json(out / "kf.json", payload)
    print(f"wrote {out / 'kf.json'}")
    return EXIT_OK


def _build_study_config(raw: dict, model: LinearModel, init: GaussianState) -> StudyConfig:
    # StudyConfig checks the types of the fields it is given.
    for key in raw:
        if key not in ("n_grid", "replicates", "p_list", "seed", "metrics"):
            raise StudyFormatError(f"unknown key {key!r} in study file")
    if "n_grid" not in raw or "replicates" not in raw:
        raise StudyFormatError("study file needs n_grid and replicates")
    metric_names = raw.get("metrics")
    if "metrics" not in raw:
        metrics = tuple(Metric)
    elif not isinstance(metric_names, list):
        raise StudyFormatError(f"metrics must be a list, got {metric_names!r}")
    else:
        try:
            metrics = tuple(Metric(name) for name in metric_names)
        except ValueError as exc:
            raise StudyFormatError(f"unknown metric in study file: {exc}") from exc
    fields = {key: value for key, value in raw.items() if key != "metrics"}
    return StudyConfig(model=model, init=init, metrics=metrics, **fields)


def _dump_trajectories(out: Path, config: StudyConfig, failures: dict) -> None:
    # Replicate 0 stands in for the whole study; every replicate is
    # regenerable from (seed, replicate, N) anyway. Its chain at N is the
    # study's, so an N where the study saw it fail is skipped. Index k of x
    # and u is step k, index k - 1 of the gains step k; a 0-step model has
    # gains of shape (0, m, d).
    trajectory = kf_run(config.model, config.init)
    gain_shape = (-1, config.model.state_dim, config.model.obs_dim)
    for n in config.n_grid:
        if any(row["replicate"] == 0 for row in failures.get(str(n), ())):
            print(f"error: N={n}: replicate 0 failed, so its trajectories are not "
                  "dumped", file=sys.stderr)
            continue
        run = coupled_run(config.model, config.seed, 0, n, trajectory)
        arrays = {
            "x": np.stack([state.enkf_ensemble for state in run]),
            "u": np.stack([state.reference_ensemble for state in run]),
            "ensemble_gain": np.reshape([state.ensemble_gain for state in run[1:]], gain_shape),
            "exact_gain": np.reshape([step.gain for step in trajectory.steps], gain_shape),
        }
        n_dir = out / "trajectories" / f"n{n}"
        n_dir.mkdir(parents=True, exist_ok=True)
        for name, array in arrays.items():
            np.save(n_dir / f"{name}.npy", array)


def cmd_study(model_path: str, study_path: str, out_dir: str,
              dump_trajectories: bool = False, workers: int = 1) -> int:
    model, init = load_model(model_path)
    with open(Path(study_path), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise StudyFormatError("study file must contain a JSON object")
    config = _build_study_config(raw, model, init)

    report = run_study(config, workers=workers)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.write_json(out / "report.json")
    report.write_estimates_csv(out / "estimates.csv")
    report.write_rates_csv(out / "rates.csv")
    if dump_trajectories:
        _dump_trajectories(out, config, report.metadata["failures"])

    # Rates are sorted by (metric, k): keep each metric's last step.
    last_fit = {row.metric: row for row in report.rates}
    for metric in sorted(last_fit):
        row = last_fit[metric]
        print(
            f"{metric} k={row.k}: slope={row.slope:+.3f} "
            f"intercept={row.intercept:+.3f} max_residual={row.max_residual:.3f}"
        )
    for row in report.moment_flags:
        if row.flagged:
            print(f"{row.metric} k={row.k}: explosion flag RAISED "
                  f"(max/min={row.max_over_min:.2f})")
    if workers > 1 and _blas_threads() is None:
        print("note: no OpenBLAS thread setter was found, so each worker runs BLAS "
              "with its default thread count", file=sys.stderr)
    for role, eps in report.metadata.get("cov_jitter", {}).items():
        print(f"note: the {role} covariance is only semidefinite; its draws factor it "
              f"with {eps:g} x its mean diagonal added", file=sys.stderr)
    failures = report.metadata["failures"]
    estimated = {row.n for row in report.estimates}
    for n, failed in failures.items():
        print(f"error: N={n}: {len(failed)} of {config.replicates} replicates failed",
              file=sys.stderr)
        if int(n) not in estimated:
            print(f"error: N={n}: fewer than 2 replicates succeeded; N={n} is "
                  "dropped from the estimates and rate fits", file=sys.stderr)
    return EXIT_INVALID if failures else EXIT_OK


# Overflow raises: numbers beyond float64's range exit 1, not infinities.
@np.errstate(over="raise")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.model)
        if args.command == "kf":
            return cmd_kf(args.model, args.out)
        if args.command == "study":
            return cmd_study(args.model, args.study, args.out,
                             args.dump_trajectories, args.workers)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ModelFormatError, StudyFormatError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, FloatingPointError, OverflowError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
