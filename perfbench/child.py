"""One benchmark sample: a fresh process that sets up and runs one sweep.

Usage: ``python3 perfbench/child.py SPEC_JSON OUT_JSON`` (``run.py`` starts
it with ``PYTHONPATH=src``).  The spec selects the mode:

- ``setup``: import ``repro.experiments.sweep`` and resolve the compiled
  provider, then stop -- one ``setup_s`` sample;
- ``sweep``: the same set-up, then one paper-scale ``run_sweep`` over all
  nine experiments through a :class:`SeededRunner`; with ``"trace": true``
  the layers are wrapped by :mod:`layertrace` first.

The result (timings, resources, summary digest, takeaways, manifest counts,
provenance and, when traced, per-layer metrics) is written to OUT_JSON.
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Seeds of the benchmark's ``--seed n`` are the drivers' own plus n * SEED_STRIDE.
SEED_STRIDE = 1000


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN is the largest single
    # reaped worker, so this is max(process, largest worker), not a sum.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def summarize(name: str, result: object) -> object:
    """JSON-friendly summary of one experiment (the sweep CLI's ``--json`` form)."""
    if name == "ablations":
        return {
            "sampler": result["sampler"].to_row(),
            "margins": result["margins"].rows(),
            "coarse_coverage": result["coarse_coverage"].to_row(),
            "drift": result["drift"].rows(),
        }
    if hasattr(result, "summary"):
        return result.summary()
    if hasattr(result, "rows"):
        return result.rows()
    return repr(result)


def digest(summaries: dict) -> str:
    """Content digest of the summary document, without its ``seconds`` field."""
    document = {"scale": "paper", "summaries": summaries}
    text = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def takeaways(summaries: dict) -> dict[str, bool]:
    """The paper's takeaway booleans, by name."""
    checks = {"table2.all_hold": summaries["table2"]["all_hold"]}
    for key, value in summaries["fig7"].items():
        if isinstance(value, bool):
            checks[f"fig7.{key}"] = value
    checks["ablations.sampler.split_caused_by_averaging"] = (
        summaries["ablations"]["sampler"]["split_caused_by_averaging"]
    )
    return checks


def provenance() -> dict:
    import numpy
    from repro.experiments.common import execution_provenance

    stamp = dict(execution_provenance())
    stamp.update(
        numpy=numpy.__version__,
        python=platform.python_version(),
        cpus=os.cpu_count(),
    )
    return stamp


def make_runner(sweep, offset: int, **kwargs):
    """A SweepRunner that shifts every job's seeds by ``offset``."""

    class SeededRunner(sweep.SweepRunner):
        def __init__(self) -> None:
            super().__init__(**kwargs)
            self.seeds: dict[str, list] = {}
            self.results: dict = {}

        def run(self, jobs):
            shifted = [self.shift(job) for job in jobs]
            for job in shifted:
                self.seeds[job.job_id] = [
                    job.backend_seed, job.profiler_seed, job.interleave_seed
                ]
            self.results = super().run(shifted)
            return self.results

        @staticmethod
        def shift(job):
            if not offset:
                return job
            interleave = job.interleave_seed
            return dataclasses.replace(
                job,
                backend_seed=job.backend_seed + offset,
                profiler_seed=job.profiler_seed + offset,
                interleave_seed=None if interleave is None else interleave + offset,
            )

    return SeededRunner()


def _cache_bytes(cache: Path) -> int:
    return sum(
        path.stat().st_size for path in cache.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    )


def main(spec_text: str, out_path: str) -> int:
    spec = json.loads(spec_text)
    import repro.experiments.sweep as sweep
    from repro.experiments.common import scale_by_name
    from repro.gpu import fastcore

    imported = time.perf_counter()
    fastcore.kernels()
    ready = time.perf_counter()
    out: dict = {
        "setup_s": ready - T0,
        "resolve_s": ready - imported,
        "provenance": provenance(),
    }
    if spec["mode"] == "setup":
        Path(out_path).write_text(json.dumps(out))
        return 0

    tracer = None
    if spec["trace"]:
        import layertrace

        dump_dir = Path(spec["cache"]).with_name(Path(spec["cache"]).name + "-trace")
        shutil.rmtree(dump_dir, ignore_errors=True)
        dump_dir.mkdir(parents=True)
        tracer = layertrace.Tracer(dump_dir)
        layertrace.install(tracer)

    workers = spec["workers"]
    offset = spec["seed"] * SEED_STRIDE
    runner = make_runner(sweep, offset, workers=workers, cache_dir=spec["cache"])
    failed_jobs = 0
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        results = sweep.run_sweep(list(sweep.EXPERIMENT_NAMES), scale_by_name("paper"),
                                  runner=runner)
    except sweep.SweepJobError as error:
        results = error.assembled
        failed_jobs = len(error.failures)
    sweep_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0

    summaries = {name: summarize(name, result) for name, result in results.items()}
    complete = sorted(summaries) == sorted(sweep.EXPERIMENT_NAMES)
    manifest = runner.last_manifest
    out.update(
        sweep_s=sweep_s,
        cpu_s=cpu_s,
        peak_rss_mb=_peak_rss_mb(),
        jobs=manifest["counts"]["jobs"],
        failed_jobs=max(failed_jobs, manifest["counts"]["failed"]),
        counts=manifest["counts"],
        complete=complete,
        digest=digest(summaries),
        takeaways=takeaways(summaries) if complete else {},
        seed_offset=offset,
        seeds=runner.seeds,
    )
    if tracer is not None:
        stats = tracer.merged()
        out["trace_errors"] = layertrace.consistency_errors(stats, manifest)
        out["layers"] = layertrace.layer_metrics(
            stats, manifest, workers, sweep_s,
            result_bytes=len(pickle.dumps(runner.results)),
            cache_bytes=_cache_bytes(Path(spec["cache"])),
        )
        out["layers"]["gpu.fastcore.resolve_s"] = out["resolve_s"]
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
