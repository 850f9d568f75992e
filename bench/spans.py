"""Spans and counts around the program's layers, recorded from outside it.

``Tracer.install()`` replaces the public functions each calling module
imports (``enkf.perturb_data``, ``experiment.coupled_run``, ...) with
wrappers that record a span (name, start, end, parent) in memory, and
``Tracer.uninstall()`` puts the originals back. Nothing in the program is
changed on disk. A layer's self time is its spans' time minus the time of
their child spans.

Worker processes of a pool are forked with the wrappers in place, but their
spans stay in the worker; the parent sees only the pool itself: pools
started, time spent in the pool, and the pickled size of the results.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

# (module, attribute, span) for every function the study path calls across
# a module boundary, at the name the calling module imported it under.
WRAPPED = (
    ("cli", "load_model", "model.load"),
    ("cli", "run_study", "experiment.run_study"),
    ("experiment", "kf_run", "kf.run"),
    ("experiment", "coupled_run", "enkf.coupled_run"),
    ("experiment", "sample_cov", "ensemble.sample_cov"),
    ("experiment", "config_hash", "experiment.config_hash"),
    ("experiment", "fit_rate", "experiment.fit"),
    ("experiment", "member_lp_error", "experiment.estimate"),
    ("experiment", "mean_cov_error", "experiment.estimate"),
    ("experiment", "gain_error", "experiment.estimate"),
    ("experiment", "member_moment", "experiment.estimate"),
    ("kf", "kf_gain", "kf.gain"),
    ("enkf", "coupled_step", "enkf.coupled_step"),
    ("enkf", "init_ensemble", "ensemble.draw"),
    ("enkf", "perturb_data", "ensemble.draw"),
    ("enkf", "sample_cov", "ensemble.sample_cov"),
    ("enkf", "apply_model", "model.apply"),
    ("enkf", "kf_gain", "kf.gain"),
    ("enkf", "enkf_analysis", "enkf.analysis"),
)
REPORT_WRITERS = ("write_json", "write_estimates_csv", "write_rates_csv")

# Self-time layers under experiment.run_study; on a run with one worker
# they add up to its span.
RUN_STUDY_LAYERS = (
    "ensemble.draw",
    "ensemble.sample_cov",
    "enkf.coupled_run",
    "enkf.coupled_step",
    "enkf.analysis",
    "model.apply",
    "kf.run",
    "kf.gain",
    "experiment.estimate",
    "experiment.fit",
    "experiment.config_hash",
    "experiment.pool",
    "experiment.run_study",
    "trace.measure",
)


def _trajectory_bytes(states, seen: set) -> int:
    """Bytes of the arrays a replicate's trajectory holds, each array once."""
    total = 0
    for state in states:
        for array in (
            state.enkf_ensemble.members,
            state.reference_ensemble.members,
            state.ensemble_gain,
            state.exact_gain,
        ):
            if array is not None and id(array) not in seen:
                seen.add(id(array))
                total += array.nbytes
    return total


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.held: Counter = Counter()  # N -> trajectory bytes held
        # N -> ids of the arrays counted in held[N]; all of them are alive
        # together while run_study holds that N's trajectories.
        self._seen: dict[int, set] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.held.clear()
        self._seen.clear()

    # -- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = self.package
        for module, attr, name in WRAPPED:
            owner = getattr(pkg, module)
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        self._patch(pkg.enkf, "init_ensemble", self._draw(pkg.enkf.init_ensemble))
        self._patch(pkg.enkf, "perturb_data", self._draw(pkg.enkf.perturb_data))
        self._patch(pkg.experiment, "coupled_run", self._replicate(pkg.experiment.coupled_run))
        key_fn = pkg.ensemble.DrawKey.philox_key
        counts = self.counts

        def philox_key(key):
            counts["streams_keyed"] += 1
            return key_fn(key)

        self._patch(pkg.ensemble.DrawKey, "philox_key", philox_key)
        report = pkg.experiment.ConvergenceReport
        for attr in REPORT_WRITERS:
            self._patch(report, attr, self._writer(getattr(report, attr)))
        pool = self._pool_class()
        self._patch(pkg.experiment, "concurrent", SimpleNamespace(futures=SimpleNamespace(ProcessPoolExecutor=pool)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- counters that ride on a wrapper ----------------------------------------

    def _draw(self, traced):
        counts = self.counts

        @functools.wraps(traced)
        def draw(*args, **kwargs):
            ensemble = traced(*args, **kwargs)
            counts["members_drawn"] += ensemble.size
            return ensemble

        return draw

    def _replicate(self, traced):
        tracer = self

        @functools.wraps(traced)
        def replicate(model, init, seed, replicate, n, *rest, **kwargs):
            states = traced(model, init, seed, replicate, n, *rest, **kwargs)
            tracer.counts["tasks"] += 1
            tracer.held[n] += _trajectory_bytes(states, tracer._seen.setdefault(n, set()))
            return states

        return replicate

    def _writer(self, write):
        tracer = self
        traced = self.wrap(write, "jsonio.write")

        @functools.wraps(write)
        def writer(report, path, *args, **kwargs):
            traced(report, path, *args, **kwargs)
            tracer.counts["bytes_written"] += os.path.getsize(path)

        return writer

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.counts["pools_started"] += 1
                super().__init__(*args, **kwargs)

            def __enter__(self):
                self._span = tracer.open("experiment.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                tasks = list(zip(*iterables))
                results = list(super().map(fn, *iterables, **kwargs))
                index = tracer.open("trace.measure")
                for task, result in zip(tasks, results):
                    tracer.counts["tasks"] += 1
                    tracer.counts["result_bytes"] += len(pickle.dumps(result))
                    _, states = result
                    if not isinstance(states, str):
                        n = task[0][4]
                        tracer.held[n] += _trajectory_bytes(states, tracer._seen.setdefault(n, set()))
                tracer.close(index)
                return iter(results)

        return TracedPool

    # -- per-call layer figures -----------------------------------------------

    def layers(self) -> dict[str, float]:
        """Layer metrics of the spans recorded since the last reset."""
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            own[name] += duration
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= duration
        c = self.counts
        members = c["members_drawn"]
        run_study = total["experiment.run_study"]
        return {
            "ensemble.draw_s": own["ensemble.draw"],
            "ensemble.draw_calls": calls["ensemble.draw"],
            "ensemble.members_drawn": members,
            "ensemble.streams_keyed": c["streams_keyed"],
            "ensemble.draw_ns_per_member": own["ensemble.draw"] * 1e9 / members if members else 0.0,
            "ensemble.sample_cov_s": own["ensemble.sample_cov"],
            "enkf.coupled_steps": calls["enkf.coupled_step"],
            "enkf.step_self_s": own["enkf.coupled_step"],
            "enkf.analysis_s": own["enkf.analysis"],
            "enkf.run_self_s": own["enkf.coupled_run"],
            "model.apply_s": own["model.apply"],
            "model.load_s": total["model.load"],
            "kf.run_s": own["kf.run"],
            "kf.gain_calls": calls["kf.gain"],
            "kf.gain_s": own["kf.gain"],
            "experiment.run_study_s": run_study,
            "experiment.replicates_s": total["enkf.coupled_run"],
            "experiment.other_s": own["experiment.run_study"],
            "experiment.estimate_s": own["experiment.estimate"],
            "experiment.fit_s": own["experiment.fit"],
            "experiment.config_hash_s": own["experiment.config_hash"],
            "experiment.pool_s": own["experiment.pool"],
            "experiment.pools_started": c["pools_started"],
            "experiment.tasks": c["tasks"],
            "experiment.result_bytes": c["result_bytes"],
            "experiment.held_bytes": max(self.held.values(), default=0),
            "jsonio.write_s": own["jsonio.write"],
            "jsonio.bytes_written": c["bytes_written"],
            "cli.self_s": own["cli.main"],
            "trace.measure_s": own["trace.measure"],
            "trace.unattributed_s": run_study - sum(own[name] for name in RUN_STUDY_LAYERS),
        }

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
