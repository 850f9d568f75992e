"""Study host: one interpreter that imports enkf_lab once, then calls the CLI's
``study`` command again and again until its time is up.

Each call is timed from argument parsing to the last report file written;
interpreter start and imports stay outside. With ``--trace 1`` calls
alternate between untraced and traced, so one run gives both the layer
figures and the tracing overhead. Between calls the host runs the set-up
probe ``--probes`` times in all, spread evenly over the run, so that set-up
is measured under the same machine conditions as the calls; probe time does
not count against ``--seconds``. One JSON record per call or probe, and a
final record with peak memory and the environment, go to ``--records``.

Usage: python3 host.py --model M --study S --out DIR --records FILE
       --workers W --seconds T --min-calls C --trace 0|1 --probes P
       [--spans FILE]
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import enkf_lab
from enkf_lab import cli

from spans import Tracer


def blas_info() -> dict:
    """The BLAS NumPy was built against, and the thread count it runs with."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }


def read_outputs(out: Path) -> tuple[int, str]:
    """Failed tasks listed in the report, and a SHA-256 of the outputs with
    the report's one volatile entry removed."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    failed = sum(len(entries) for entries in report["metadata"]["failures"].values())
    report["metadata"].pop("timestamp", None)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    for name in ("estimates.csv", "rates.csv"):
        digest.update((out / name).read_bytes())
    return failed, digest.hexdigest()


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def study_call(argv: list[str], tracer: Tracer | None) -> tuple[int, float, float]:
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    if tracer is not None:
        tracer.reset()
        tracer.install()
        span = tracer.open("cli.main")
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = -1
    finally:
        if tracer is not None:
            tracer.close(span)
            tracer.uninstall()
    wall = time.perf_counter() - started
    return rc, wall, cpu_seconds() - cpu0


def setup_probe(model: str) -> float:
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), model]
    return float(subprocess.run(probe, check=True, capture_output=True, text=True).stdout)


def run_probes(records, model: str, done: int, target: int) -> int:
    """Run set-up probes until ``target`` have been recorded."""
    while done < target:
        records.write(json.dumps({"setup_s": setup_probe(model)}) + "\n")
        done += 1
    return done


def main() -> int:
    parser = argparse.ArgumentParser()
    for name in ("--model", "--study", "--out", "--records"):
        parser.add_argument(name, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-calls", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    if args.workers == 1:
        # One CPU throughout: unpinned, a one-worker study moved between the
        # two CPUs and its calls varied by up to 11%; pinned, by 2 to 4%.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out = Path(args.out)
    study = json.loads(Path(args.study).read_text(encoding="utf-8"))
    tasks = int(study["replicates"]) * len(study["n_grid"])
    argv = ["study", args.model, args.study, "-o", str(out), "--workers", str(args.workers)]
    tracer = Tracer(enkf_lab) if args.trace else None

    records = open(args.records, "w", encoding="utf-8")
    with records:
        if args.probes:
            setup_probe(args.model)  # warm-up: bytecode and file caches
        started = time.perf_counter()
        probing = 0.0  # probe time, which does not count against --seconds
        calls = probes = 0
        while calls < args.min_calls or time.perf_counter() - probing - started < args.seconds:
            traced = tracer is not None and calls % 2 == 1
            rc, wall, cpu = study_call(argv, tracer if traced else None)
            record = {"traced": traced, "rc": rc, "study_s": wall, "cpu_s": cpu, "tasks": tasks}
            if rc == 0:
                record["failed"], record["digest"] = read_outputs(out)
            else:
                record["failed"] = tasks
            if traced:
                record["layers"] = tracer.layers()
                spans = tracer.span_records()
            records.write(json.dumps(record) + "\n")
            calls += 1
            if args.probes:
                probe_started = time.perf_counter()
                elapsed = probe_started - probing - started
                share = min(1.0, elapsed / args.seconds) if args.seconds > 0 else 1.0
                probes = run_probes(records, args.model, probes, math.ceil(args.probes * share))
                probing += time.perf_counter() - probe_started
        run_probes(records, args.model, probes, args.probes)
        if tracer is not None and args.spans:
            # The spans of the last traced call, kept in memory until now.
            Path(args.spans).write_text(json.dumps(spans), encoding="utf-8")
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        records.write(
            json.dumps(
                {
                    "final": True,
                    "package": enkf_lab.__file__,
                    "peak_rss_kib": own,
                    "peak_rss_worker_kib": workers,
                    "env": environment(),
                }
            )
            + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
