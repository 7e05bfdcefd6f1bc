"""Outside-in span/counter tracing of the sweep's layers.

The tracer wraps public functions and methods of each layer module from
here, never from inside the program: a span records the wall time of one
call, its self time (duration minus the spans it caused) and a call
count, and optional hooks turn return values into work counters.

A module-level function is replaced in its defining module *and* in every
``repro.*`` module that bound it by name (``from .x import f``), so no call
path keeps the unwrapped original.  A target that no longer exists raises
:class:`TraceError` at install time: a tracer that silently misses a layer
would report zeros that look like a speed-up.

Pool workers inherit the wrappers when the pool forks.  A worker resets the
state it inherited on its first traced call and, after every
``execute_job``, writes its cumulative stats to ``<dump_dir>/worker-<pid>.json``
so the supervising process can merge them once the sweep returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref
from collections import Counter
from pathlib import Path


class TraceError(RuntimeError):
    """A layer function the tracer must wrap no longer exists."""


class Tracer:
    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self._root_pid = os.getpid()
        self._pid = self._root_pid
        self._reset()

    def _reset(self) -> None:
        self._stack: list[list[float]] = []
        #: name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        self.counts: Counter[str] = Counter()
        #: id -> (binner, its last BinningResult); the golden ratio uses the final one
        self._binnings: dict[int, tuple[object, object]] = {}
        self._sessions: weakref.WeakSet = weakref.WeakSet()

    def _own(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # A forked worker: drop the parent's half-open spans and totals.
            self._pid = pid
            self._reset()

    @property
    def in_worker(self) -> bool:
        return self._pid != self._root_pid

    # ------------------------------------------------------------------ #
    def wrap(self, name, fn, before=None, after=None, flush=False):
        """``fn`` wrapped in a span; hooks run outside the timed interval."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._own()
            if before is not None:
                before(tracer, args, kwargs)
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                record = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(tracer, result, args, kwargs)
            if flush and tracer.in_worker:
                tracer.dump()
            return result

        return traced

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        counts = Counter(self.counts)
        for _, result in self._binnings.values():
            counts["binning.golden_selected"] += result.num_selected
            counts["binning.golden_values"] += len(result.values_s)
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": dict(counts)}

    def dump(self) -> None:
        path = self.dump_dir / f"worker-{self._pid}.json"
        staging = path.with_suffix(".tmp")
        staging.write_text(json.dumps(self.snapshot()))
        os.replace(staging, path)

    def merged(self) -> dict:
        """This process's stats plus every worker dump."""
        total = self.snapshot()
        spans, counts = total["spans"], Counter(total["counts"])
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            worker = json.loads(path.read_text())
            for name, (calls, seconds, own) in worker["spans"].items():
                record = spans.setdefault(name, [0, 0.0, 0.0])
                record[0] += calls
                record[1] += seconds
                record[2] += own
            counts.update(worker["counts"])
        return {"spans": spans, "counts": dict(counts)}


# --------------------------------------------------------------------------- #
# Counter hooks.
# --------------------------------------------------------------------------- #
def _count_jobs(tracer, args, kwargs):
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    tracer.counts["sweep.jobs"] += len({job.job_id for job in jobs})


def _count_backend_run(tracer, record, args, kwargs):
    tracer.counts["backend.runs"] += 1
    tracer.counts["backend.executions"] += (
        len(record.executions) + len(record.preceding_executions)
    )


def _count_readings(tracer, columns, args, kwargs):
    tracer.counts["telemetry.readings"] += len(columns[1])


def _count_lois_batch(tracer, batch, args, kwargs):
    runs = args[0] if args else kwargs["runs"]
    if batch is None:
        return  # the per-run fallback extracts these runs; counted there
    tracer.counts["timesync.runs"] += len(runs)
    tracer.counts["timesync.lois"] += sum(len(lois) for lois, _ in batch)


def _count_lois_single(tracer, lois, args, kwargs):
    tracer.counts["timesync.runs"] += 1
    tracer.counts["timesync.lois"] += len(lois)


def _keep_binning(tracer, result, args, kwargs):
    binner = args[0]
    tracer._binnings[id(binner)] = (binner, result)


def _count_session(tracer, session, args, kwargs):
    tracer.counts["session.count"] += 1


def _count_collection(tracer, result, args, kwargs):
    session = args[0]
    if session in tracer._sessions:
        return  # result() is memoised; count each session once
    tracer._sessions.add(session)
    collection = result.metadata["collection"]
    counts = tracer.counts
    counts["session.batches"] += collection["batches"]
    counts["session.checkpoints"] += collection["checkpoints"]
    counts["session.runs_saved"] += collection["runs_saved"]
    counts["session.runs_planned"] += collection["runs_planned"]


def _count_execute(tracer, result, args, kwargs):
    tracer.counts["sweep.executed"] += 1


# --------------------------------------------------------------------------- #
# Targets: (module, attribute path, span name, hooks).
# --------------------------------------------------------------------------- #
TARGETS: tuple[tuple[str, str, str, dict], ...] = (
    ("repro.experiments.sweep", "run_sweep", "sweep.run_sweep", {}),
    ("repro.experiments.sweep", "SweepRunner.run", "sweep.run", {"before": _count_jobs}),
    ("repro.experiments.sweep", "execute_job", "sweep.execute_job",
     {"after": _count_execute, "flush": True}),
    ("repro.experiments.fig5", "fig5_from_results", "assemble.fig5", {}),
    ("repro.experiments.fig6", "fig6_from_results", "assemble.fig6", {}),
    ("repro.experiments.fig7", "fig7_from_results", "assemble.fig7", {}),
    ("repro.experiments.fig8", "fig8_from_results", "assemble.fig8", {}),
    ("repro.experiments.fig9", "fig9_from_results", "assemble.fig9", {}),
    ("repro.experiments.fig10", "fig10_from_results", "assemble.fig10", {}),
    ("repro.experiments.table1", "table1_from_results", "assemble.table1", {}),
    ("repro.experiments.table2", "run_table2", "assemble.table2", {}),
    ("repro.experiments.ablations", "sampler_ablation_from_results", "assemble.sampler", {}),
    ("repro.experiments.ablations", "binning_margin_from_results", "assemble.margins", {}),
    ("repro.experiments.ablations", "run_coarse_coverage", "ablations.coarse_coverage", {}),
    ("repro.experiments.ablations", "run_drift_sensitivity", "ablations.drift", {}),
    ("repro.core.session", "ProfileSession.__init__", "session.setup",
     {"after": _count_session}),
    ("repro.core.session", "ProfileSession.result", "session.result",
     {"after": _count_collection}),
    ("repro.gpu.backend", "SimulatedDeviceBackend.time_kernel", "backend.time_kernel", {}),
    ("repro.gpu.backend", "SimulatedDeviceBackend.calibrate_read_delay",
     "backend.calibrate_read_delay", {}),
    ("repro.gpu.backend", "SimulatedDeviceBackend.run", "backend.run",
     {"after": _count_backend_run}),
    ("repro.core.differentiation", "build_plan", "differentiation.build_plan", {}),
    ("repro.gpu.telemetry", "AveragingPowerLogger.sample_columns", "telemetry.sample_columns",
     {"after": _count_readings}),
    ("repro.gpu.telemetry", "InstantaneousPowerSampler.sample_columns",
     "telemetry.sample_columns", {"after": _count_readings}),
    ("repro.core.timesync", "extract_lois_batch", "timesync.extract_lois_batch",
     {"after": _count_lois_batch}),
    ("repro.core.timesync", "extract_lois", "timesync.extract_lois",
     {"after": _count_lois_single}),
    ("repro.core.timesync", "extract_lois_unsynchronized", "timesync.extract_lois",
     {"after": _count_lois_single}),
    ("repro.core.binning", "ExecutionTimeBinner.extend", "binning.extend",
     {"after": _keep_binning}),
    ("repro.core.stitching", "ProfileStitcher.collect", "stitching.collect", {}),
    ("repro.core.stitching", "ProfileStitcher.extend", "stitching.extend", {}),
    ("repro.core.stitching", "ProfileStitcher.section_profiles",
     "stitching.section_profiles", {}),
    ("repro.analysis.errors", "evaluate_profile_convergence",
     "errors.evaluate_profile_convergence", {}),
    ("repro.analysis.interleaving", "InterleavingStudy.interleaved_profile",
     "interleaving.interleaved_profile", {}),
)


def install(tracer: Tracer) -> None:
    """Wrap every target; raise :class:`TraceError` naming any that is missing."""
    for module_name, path, span, hooks in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__.get(attr) if owner_name else getattr(module, attr, None)
        if original is None or not callable(original):
            raise TraceError(f"trace target {module_name}.{path} no longer exists")
        wrapped = tracer.wrap(span, original, **hooks)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def _total(spans: dict, *names: str, column: int = 1) -> float:
    return sum(spans[name][column] for name in names if name in spans)


def _calls(spans: dict, name: str) -> int:
    return int(spans[name][0]) if name in spans else 0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: dict, manifest: dict, workers: int, sweep_s: float,
                  result_bytes: int, cache_bytes: int) -> dict[str, float]:
    """Per-layer metrics from merged tracer stats plus the run manifest."""
    spans, counts = stats["spans"], stats["counts"]
    ledger = manifest["jobs"].values()
    job_seconds = [entry["seconds"] for entry in ledger]
    jobs = counts.get("sweep.jobs", 0)
    hits = jobs - counts.get("sweep.executed", 0)
    assemble = [name for name in spans if name.startswith("assemble.")]
    planned = counts.get("session.runs_planned", 0)
    return {
        "sweep.run.self_s": _total(spans, "sweep.run", column=2),
        "sweep.job_s.sum": sum(job_seconds),
        "sweep.job_s.max": max(job_seconds, default=0.0),
        "sweep.parallel_efficiency": _ratio(sum(job_seconds), workers * sweep_s),
        "sweep.result_bytes": result_bytes,
        "sweep.cache_bytes": cache_bytes,
        "sweep.jobs": jobs,
        "sweep.cache_hits": hits,
        "sweep.jobs_failed": manifest["counts"]["failed"],
        "sweep.retries": manifest["counts"]["retried"],
        "sweep.cache_hit_ratio": _ratio(hits, jobs),
        "experiments.assemble_s": _total(spans, *assemble),
        "ablations.inline_s": _total(spans, "ablations.coarse_coverage", "ablations.drift"),
        "session.setup_s": _total(spans, "session.setup"),
        "backend.time_kernel_s": _total(spans, "backend.time_kernel"),
        "backend.calibrate_read_delay_s": _total(spans, "backend.calibrate_read_delay"),
        "differentiation.build_plan_s": _total(spans, "differentiation.build_plan"),
        "session.result_s": _total(spans, "session.result"),
        "session.count": counts.get("session.count", 0),
        "session.batches": counts.get("session.batches", 0),
        "session.checkpoints": counts.get("session.checkpoints", 0),
        "session.runs_saved": counts.get("session.runs_saved", 0),
        "session.runs_saved_ratio": _ratio(counts.get("session.runs_saved", 0), planned),
        "errors.evaluate_profile_convergence_s": _total(
            spans, "errors.evaluate_profile_convergence"),
        "errors.evaluate_profile_convergence.calls": _calls(
            spans, "errors.evaluate_profile_convergence"),
        "backend.run.self_s": _total(spans, "backend.run", column=2),
        "backend.runs": counts.get("backend.runs", 0),
        "backend.executions": counts.get("backend.executions", 0),
        "telemetry.sample_columns_s": _total(spans, "telemetry.sample_columns"),
        "telemetry.readings": counts.get("telemetry.readings", 0),
        "timesync.extract_lois_batch_s": _total(spans, "timesync.extract_lois_batch"),
        "timesync.extract_lois_batch.calls": _calls(spans, "timesync.extract_lois_batch"),
        "timesync.lois": counts.get("timesync.lois", 0),
        "timesync.lois_per_run": _ratio(counts.get("timesync.lois", 0),
                                        counts.get("timesync.runs", 0)),
        "binning.extend_s": _total(spans, "binning.extend"),
        "binning.extend.calls": _calls(spans, "binning.extend"),
        "binning.golden_ratio": _ratio(counts.get("binning.golden_selected", 0),
                                       counts.get("binning.golden_values", 0)),
        "stitching.extend.self_s": _total(spans, "stitching.extend", column=2),
        "stitching.collect.self_s": _total(spans, "stitching.collect", column=2),
        "stitching.section_profiles_s": _total(spans, "stitching.section_profiles"),
        "interleaving.interleaved_profile_s": _total(spans, "interleaving.interleaved_profile"),
    }


def consistency_errors(stats: dict, manifest: dict) -> list[str]:
    """Traced counters that disagree with the program's own manifest."""
    counts = stats["counts"]
    ledger = manifest["counts"]
    jobs = counts.get("sweep.jobs", 0)
    traced = {
        "jobs": jobs,
        "hits": jobs - counts.get("sweep.executed", 0),
        "runs_saved": counts.get("session.runs_saved", 0),
    }
    errors = [
        f"traced {name} = {value} but the manifest records {ledger[name]}"
        for name, value in traced.items()
        if value != ledger[name]
    ]
    if ledger["recomputed"]:
        for name in ("backend.runs", "telemetry.readings", "timesync.lois", "session.count"):
            if not counts.get(name):
                errors.append(f"jobs were recomputed but no {name} was traced")
    return errors
