"""End-to-end benchmark of the paper-suite sweep.

Runs ``repro.experiments.sweep.run_sweep`` over all nine experiments at paper
scale, with the on-disk cache on, one fresh process per sample (closed loop:
one sweep at a time), and prints every metric by name with its unit and
sample count.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold-serial --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, cross-checked
    python3 perfbench/run.py --record-digests 0-63     # refresh perfbench/digests.json

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
and traced samples in pairs and reports the per-layer metrics, tracing
overhead included.  See ``perfbench/NOTES.md`` for the workloads and how the
per-layer metrics map onto the end-to-end ones.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
SOURCE = ROOT / "src" / "repro" / "experiments" / "sweep.py"

#: name -> (pool workers, cache state, extra child environment)
WORKLOADS: dict[str, tuple[int, str, dict[str, str]]] = {
    "paper-cold-serial": (1, "cold", {}),
    "paper-cold-2w": (2, "cold", {}),
    "paper-warm-replay": (1, "warm", {}),
    "paper-adaptive": (1, "cold", {"FINGRAV_ADAPTIVE": "1"}),
}
#: Fixed-collection workloads: their summaries must equal the recorded digest
#: and one another (worker count and cache must not change results).
FIXED = ("paper-cold-serial", "paper-cold-2w", "paper-warm-replay")

END_TO_END = {"setup_s": "s", "sweep_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
IMPORT_GROUPS = ("numpy", "networkx", "repro.gpu", "repro.core", "repro.analysis",
                 "repro.experiments")
#: Every per-layer metric --trace 1 reports, with its unit.
PER_LAYER = {
    **{f"import.{group}_s": "s" for group in IMPORT_GROUPS},
    "gpu.fastcore.resolve_s": "s",
    "sweep.run.self_s": "s",
    "sweep.job_s.sum": "s",
    "sweep.job_s.max": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.result_bytes": "bytes",
    "sweep.cache_bytes": "bytes",
    "sweep.jobs": "count",
    "sweep.cache_hits": "count",
    "sweep.jobs_failed": "count",
    "sweep.retries": "count",
    "sweep.cache_hit_ratio": "ratio",
    "experiments.assemble_s": "s",
    "ablations.inline_s": "s",
    "session.setup_s": "s",
    "backend.time_kernel_s": "s",
    "backend.calibrate_read_delay_s": "s",
    "differentiation.build_plan_s": "s",
    "session.result_s": "s",
    "session.count": "count",
    "session.batches": "count",
    "session.checkpoints": "count",
    "session.runs_saved": "count",
    "session.runs_saved_ratio": "ratio",
    "errors.evaluate_profile_convergence_s": "s",
    "errors.evaluate_profile_convergence.calls": "count",
    "backend.run.self_s": "s",
    "backend.runs": "count",
    "backend.executions": "count",
    "telemetry.sample_columns_s": "s",
    "telemetry.readings": "count",
    "timesync.extract_lois_batch_s": "s",
    "timesync.extract_lois_batch.calls": "count",
    "timesync.lois": "count",
    "timesync.lois_per_run": "ratio",
    "binning.extend_s": "s",
    "binning.extend.calls": "count",
    "binning.golden_ratio": "ratio",
    "stitching.extend.self_s": "s",
    "stitching.collect.self_s": "s",
    "stitching.section_profiles_s": "s",
    "interleaving.interleaved_profile_s": "s",
    "trace.untraced_sweep_s": "s",
    "trace.traced_sweep_s": "s",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 3  # extra set-up-only processes per run, beside each sample's own
IMPORT_PROBES = 3  # -X importtime processes per traced run
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (a sample crashed, provenance drifted)."""


# --------------------------------------------------------------------------- #
# Child processes.
# --------------------------------------------------------------------------- #
def child_env(extra: dict[str, str]) -> dict[str, str]:
    """The caller's environment minus stray program overrides, plus the workload's."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("FINGRAV_", "REPRO_"))
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # Keep the compiled provider's .so cache and the compiler's scratch
        # files inside the checkout.
        REPRO_FASTCORE_CACHE=str(WORK / "fastcore"),
        NUMBA_CACHE_DIR=str(WORK / "numba"),
        TMPDIR=str(WORK / "tmp"),
    )
    env.update(extra)
    return env


def _run(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    """Run one child in its own process group; kill the whole group on timeout."""
    process = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return subprocess.CompletedProcess(argv, process.returncode, stdout, stderr)


def sample(env: dict[str, str], mode: str, *, seed: int = 0, workers: int = 1,
           cache: Path | None = None, trace: bool = False) -> dict:
    out = WORK / "tmp" / f"sample-{os.getpid()}.json"
    spec = {"mode": mode, "seed": seed, "workers": workers,
            "cache": str(cache) if cache else None, "trace": trace}
    done = _run([sys.executable, str(CHILD), json.dumps(spec), str(out)], env)
    if done.returncode != 0 or not out.exists():
        raise BenchError(
            f"{mode} sample exited with {done.returncode}:\n{done.stderr[-3000:]}"
        )
    result = json.loads(out.read_text())
    out.unlink()
    return result


def import_profile(env: dict[str, str]) -> dict[str, float]:
    """Self import time per package group, from ``-X importtime``."""
    done = _run([sys.executable, "-X", "importtime", "-c", "import repro.experiments.sweep"],
                env)
    if done.returncode != 0:
        raise BenchError(f"import probe exited with {done.returncode}:\n{done.stderr[-3000:]}")
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line.split(":", 1)[1].split("|")
        name = name.strip()
        for group in IMPORT_GROUPS:
            if name == group or name.startswith(group + "."):
                totals[group] += int(self_us) / 1e6
    return {f"import.{group}_s": value for group, value in totals.items()}


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


# --------------------------------------------------------------------------- #
# One workload.
# --------------------------------------------------------------------------- #
def reference(seed: int) -> dict | None:
    """The recorded fixed-collection outcome of ``seed``: digest and failing takeaways."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text())["seeds"].get(str(seed))


def check_outputs(workload: str, samples: list[dict], expected: str,
                  allowed: set[str] | None, problems: list[str]) -> int:
    """Count failed output checks (and describe each in ``problems``).

    Fixed-collection samples must reproduce ``expected`` exactly.  Adaptive
    samples must keep every takeaway that fixed collection keeps at this
    seed: ``allowed`` names the ones fixed collection itself fails (``None``
    when the seed has no recorded reference, so every takeaway must hold).
    Takeaways failing at the seed are reported either way.
    """
    failed = 0
    for index, result in enumerate(samples):
        label = f"sample {index}"
        if not result["complete"]:
            failed += 1
            problems.append(f"{label}: not every experiment assembled")
        broken = {name for name, ok in result["takeaways"].items() if not ok}
        if workload in FIXED:
            if result["digest"] != expected:
                failed += 1
                problems.append(f"{label}: summary digest {result['digest'][:16]} "
                                f"!= expected {expected[:16]}")
        elif broken - (allowed or set()):
            failed += 1
            problems.append(f"{label}: adaptive collection breaks takeaways "
                            f"{sorted(broken - (allowed or set()))}")
    return failed


def pooled(name: str, values: list[float], unit: str) -> str:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (f"  {name:<42} median {statistics.median(values):.6g} {unit}  "
            f"(n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}, "
            f"min {values[0]:.6g}, max {values[-1]:.6g})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workers, cache_state, extra = WORKLOADS[workload]
    env = child_env(extra)
    scratch = WORK / f"run-{os.getpid()}"
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(workload, seed, seconds, trace, workers, cache_state, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(workload, seed, seconds, trace, workers, cache_state, env, scratch) -> dict:
    # Set-up, not measured: build the provider's .so cache and the bytecode
    # cache, and fill the warm workload's result cache.
    sample(env, "setup")
    recorded = reference(seed)
    expected = recorded["digest"] if recorded and workload in FIXED else None
    warm = scratch / "warm"
    fills = []
    if cache_state == "warm":
        # Its outputs are checked like a sample's; its time is not measured.
        fills.append(sample(env, "sweep", seed=seed, workers=2, cache=warm))

    def one(traced: bool) -> dict:
        cache = warm if cache_state == "warm" else fresh(scratch / "cold")
        return sample(env, "sweep", seed=seed, workers=workers, cache=cache, trace=traced)

    setups = [] if trace else [sample(env, "setup") for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(plain) < (1 if trace else MIN_SAMPLES) or time.perf_counter() < deadline:
        plain.append(one(False))
        if trace:
            traced.append(one(True))
    imports = [import_profile(env) for _ in range(IMPORT_PROBES)] if trace else []

    everything = setups + fills + plain + traced
    stamps = {json.dumps(result["provenance"], sort_keys=True) for result in everything}
    if len(stamps) != 1:
        raise BenchError(f"provenance differs between samples; not pooling: {sorted(stamps)}")
    provenance = everything[0]["provenance"]

    problems: list[str] = []
    checked = fills + plain + traced
    expected = expected or checked[0]["digest"]
    allowed = set(recorded["failing_takeaways"]) if recorded else None
    failed = check_outputs(workload, checked, expected, allowed, problems)
    for index, result in enumerate(traced):
        if result["digest"] != plain[0]["digest"]:
            failed += 1
            problems.append(f"traced sample {index}: summaries differ from the untraced run")
        for error in result["trace_errors"]:
            failed += 1
            problems.append(f"traced sample {index}: {error}")
    failed += sum(result["failed_jobs"] for result in checked)
    attempted = sum(result["jobs"] for result in checked)

    if trace:
        values = {
            name: [result["layers"][name] for result in traced]
            for name in traced[0]["layers"]
        }
        for name in imports[0]:
            values[name] = [probe[name] for probe in imports]
        values["trace.untraced_sweep_s"] = [result["sweep_s"] for result in plain]
        values["trace.traced_sweep_s"] = [result["sweep_s"] for result in traced]
        units = PER_LAYER
    else:
        values = {
            "setup_s": [result["setup_s"] for result in setups + plain],
            "sweep_s": [result["sweep_s"] for result in plain],
            "cpu_s": [result["cpu_s"] for result in plain],
            "peak_rss_mb": [result["peak_rss_mb"] for result in plain],
        }
        units = END_TO_END
    metrics = {
        name: {"value": statistics.median(values[name]), "unit": units[name]}
        for name in units if name in values
    }
    if trace:
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.traced_sweep_s"]["value"]
            - metrics["trace.untraced_sweep_s"]["value"],
            "unit": "s",
        }
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"samples={len(plain)}+{len(traced)} traced  workers={workers}")
    print(f"  provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"  seeds: drivers' own + {plain[0]['seed_offset']} "
          f"over {len(plain[0]['seeds'])} jobs")
    print(f"  summaries digest {plain[0]['digest']}; fixed-collection reference for this "
          f"seed {'recorded' if recorded else 'not recorded'}")
    broken = sorted(name for name, ok in plain[0]["takeaways"].items() if not ok)
    if broken:
        print(f"  NOTE takeaways that fail at this seed: {broken}")
    for name in units:
        if name in values:
            print(pooled(name, values[name], units[name]))
    if trace:
        print(f"  {'trace.overhead_s':<42} {metrics['trace.overhead_s']['value']:.6g} s")
    print(f"  checks: {attempted} jobs attempted, {failed} failed")
    for problem in problems:
        print(f"  FAILED CHECK {problem}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance, "digest": plain[0]["digest"],
        "seeds": plain[0]["seeds"], "problems": problems,
        "samples": [{k: v for k, v in result.items() if k != "seeds"}
                    for result in everything],
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json").write_text(
        json.dumps(record, indent=1)
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "digest": plain[0]["digest"]}


# --------------------------------------------------------------------------- #
# Digest recording.
# --------------------------------------------------------------------------- #
def record_digests(spec: str) -> int:
    low, _, high = spec.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    env = child_env({})
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sample(env, "setup")
    known = json.loads(DIGESTS.read_text())["seeds"] if DIGESTS.exists() else {}
    scratch = WORK / f"record-{os.getpid()}"
    try:
        for seed in seeds:
            result = sample(env, "sweep", seed=seed, cache=fresh(scratch / "cold"))
            if result["failed_jobs"] or not result["complete"]:
                raise BenchError(f"seed {seed}: the sweep did not complete cleanly")
            broken = sorted(name for name, ok in result["takeaways"].items() if not ok)
            print(f"seed {seed}: {result['digest']}"
                  + (f"  takeaways failing: {broken}" if broken else ""), flush=True)
            known[str(seed)] = {"digest": result["digest"], "failing_takeaways": broken}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ordered = dict(sorted(known.items(), key=lambda item: int(item[0])))
    DIGESTS.write_text(json.dumps({"scale": "paper", "seeds": ordered}, indent=1) + "\n")
    return 0


# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="A-B",
                        help="record the summary digests of seeds A..B and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not SOURCE.is_file():
        print(f"perfbench: {SOURCE.relative_to(ROOT)} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            return record_digests(args.record_digests)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        outcomes = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                    for name in names}
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    attempted = sum(outcome["attempted"] for outcome in outcomes.values())
    failed = sum(outcome["failed"] for outcome in outcomes.values())
    fixed = {outcome["digest"] for name, outcome in outcomes.items() if name in FIXED}
    if len(fixed) > 1:
        failed += 1
        print("FAILED CHECK the fixed-collection workloads' summaries differ: "
              f"{sorted(fixed)}")
    if len(outcomes) == 1:
        metrics = next(iter(outcomes.values()))["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, outcome in outcomes.items()
                   for metric, value in outcome["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
