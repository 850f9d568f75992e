"""Benchmark of the enkf-lab convergence study, run through the CLI.

Usage (from the root of a checkout):
    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

One run writes the workload's model and study files from the seed, times a
fresh interpreter's set-up several times, then calls ``enkf-lab study`` in
one host process until T seconds are used, checks the report, and prints
every metric with its unit. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are its per-layer ones, from traced calls that alternate
with untraced ones. The program is the ``src/`` tree of the checkout; the
run stops with exit code 2, before measuring anything, when it is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_report
from inputs import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

# Set-up is timed this many times, spread over the run, after one untimed
# warm-up; the median is reported, because one interpreter start varies by
# tens of percent with the machine's speed of the moment.
SETUP_PROBES = 8
# Every run makes at least this many study calls, however long they take.
MIN_CALLS = 3
MIN_TRACE_CALLS = 4  # two untraced, two traced
# Whole run, set-up and checks included, stays inside this many seconds.
RUN_BUDGET_S = 170.0
# Layer self times under experiment.run_study must add up to its span.
SELF_TIME_RTOL = 1e-6


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    # Bytecode is cached as after an install, whatever the caller's setting.
    unset = ("PYTHONPATH", "ENKF_LAB_SEED", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    # One BLAS thread: two pool workers then use no more threads than the
    # machine's 2 cores, and the m^2 N algebra of `wide` does not vary with
    # BLAS threading.
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(cmd: list[str], log: Path, deadline: float) -> None:
    """Run one child in its own process group, output to ``log``; a child
    still running at the deadline is killed with all its processes."""
    with open(log, "ab") as out:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited with {proc.returncode}; see {log}")


def run_host(paths, out: Path, records: Path, log: Path, deadline: float, workers: int,
             seconds: float, min_calls: int, trace: int, probes: int) -> tuple[list, list, dict]:
    """Run one host; return its call records, its set-up probes and its final record."""
    model_path, study_path = paths
    cmd = [
        sys.executable, str(BENCH / "host.py"),
        "--model", str(model_path), "--study", str(study_path), "--out", str(out),
        "--records", str(records), "--workers", str(workers),
        "--seconds", repr(seconds), "--min-calls", str(min_calls), "--trace", str(trace),
        "--probes", str(probes), "--spans", str(out / "spans.json"),
    ]
    run_child(cmd, log, deadline)
    lines = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    final = lines[-1]
    if not final.get("final"):
        raise BenchError(f"host records end without a final record: {records}")
    if not Path(final["package"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"host imported enkf_lab from {final['package']}, not from {SRC}")
    calls = [line for line in lines[:-1] if "study_s" in line]
    setup = [line["setup_s"] for line in lines[:-1] if "setup_s" in line]
    return calls, setup, final


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "enkf_lab" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'enkf_lab'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    paths = workload.write(run_dir / "inputs", args.seed)
    log = run_dir / "host.log"

    calls, setup, final = run_host(
        paths, run_dir / "out", run_dir / "records.jsonl", log, deadline, workload.workers,
        args.seconds, MIN_TRACE_CALLS if args.trace else MIN_CALLS, args.trace,
        0 if args.trace else SETUP_PROBES,
    )

    problems: list[str] = []
    attempted = sum(c["tasks"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    digests = {c.get("digest") for c in calls if c["rc"] == 0}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different reports from identical calls")
    report_path = run_dir / "out" / "report.json"
    if digests and report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        problems += check_report(report, workload.model, workload.study(args.seed), workload.slope_band)
    else:
        problems.append("no study call produced a report")
    if workload.workers > 1:
        # The pool must not change a single bit of the report.
        one, _, _ = run_host(
            paths, run_dir / "one-worker", run_dir / "one-worker.jsonl", log, deadline,
            1, 0.0, 1, 0, 0,
        )
        if {one[0].get("digest")} != digests:
            problems.append(f"the {workload.workers}-worker report differs from the one-worker report")

    values: dict[str, float] = {}
    untraced = [c["study_s"] for c in calls if not c["traced"]]
    if args.trace:
        traced = [c for c in calls if c["traced"]]
        for name in traced[0]["layers"]:
            values[name] = statistics.median_low(c["layers"][name] for c in traced)
        values["trace.study_s"] = statistics.median(c["study_s"] for c in traced)
        values["trace.overhead_s"] = values["trace.study_s"] - statistics.median(untraced)
        values["experiment.worker_rss_mib"] = final["peak_rss_worker_kib"] / 1024
        for c in traced:
            layers = c["layers"]
            if abs(layers["trace.unattributed_s"]) > SELF_TIME_RTOL * layers["experiment.run_study_s"]:
                problems.append(f"layer self times miss run_study by {layers['trace.unattributed_s']} s")
    else:
        values["study_s"] = statistics.median(untraced)
        values["cpu_s"] = statistics.median(c["cpu_s"] for c in calls)
        values["member_steps_per_s"] = workload.member_steps / values["study_s"]
        # The study process alone: a pool worker's peak depends on what its
        # parent held when it was forked, and varies by 25% between runs of
        # the same inputs; it is the per-layer experiment.worker_rss_mib.
        values["peak_rss_mib"] = final["peak_rss_kib"] / 1024
        values["setup_s"] = statistics.median(setup)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("env " + json.dumps(final["env"], sort_keys=True))
    print(
        f"workload {workload.name} seed {args.seed}: {len(calls)} study calls "
        f"({len(calls) - len(untraced)} traced), {attempted} operations attempted, {failed} failed"
    )
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"checks: {'ok' if not problems else f'{len(problems)} failed'}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
