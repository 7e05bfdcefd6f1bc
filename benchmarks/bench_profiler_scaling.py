"""Benchmark: scaling of ``FinGraVProfiler.profile()`` in the number of runs.

The paper's methodology profiles sub-millisecond kernels by collecting
hundreds of runs (Table I), so the profiler's run->LOI->profile pipeline must
scale linearly in runs.  This benchmark isolates that pipeline with a
*replay* backend -- records are simulated once, then served instantly -- so
``profile()`` wall time is dominated by the methodology (LOI extraction,
binning, stitching), not by the simulated GPU:

* ``test_profiler_scaling_near_linear`` profiles the same short kernel at
  increasing run counts and asserts that per-run cost does not blow up.
* ``test_incremental_speedup_over_recollect`` reproduces the paper's
  hardest case -- a ~13 us kernel whose SSE LOI scarcity drags the step-8
  top-up loop through many batches -- and compares the incremental
  ``profile()`` (``ExecutionTimeBinner.extend`` + ``ProfileStitcher.extend``
  per batch) against a full re-collect: the same binner and stitcher re-run
  from scratch over every batch's whole record prefix.  The final profiles
  must also be bit-identical to a rebuild by the retained scalar oracles
  (``extract_lois_reference``, ``ExecutionTimeBinner.bin``,
  ``profile_from_lois_reference``).  ``profile()`` must be at least
  ``MIN_RECOLLECT_SPEEDUP`` faster, a floor below the ratio measured on a
  2-CPU x86-64 container (Python 3.11).  The replayed backend makes the
  ratio independent of the device engine and its kernel provider.

Results are written to ``BENCH_profiler.json`` in the repository root.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.binning import ExecutionTimeBinner
from repro.core.differentiation import build_plan
from repro.core.profile import ProfileKind
from repro.core.profiler import FinGraVProfiler, ProfilerConfig
from repro.core.records import DelayCalibration, RunRecord
from repro.core.stitching import ProfileStitcher, mean_duration_or_zero
from repro.core.timesync import synchronizer_for_run
from repro.gpu.backend import SimulatedDeviceBackend
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm

from loi_oracles import extract_lois_reference, profile_from_lois_reference

KERNEL_SIZE = 1024
POOL_SEED = 404
POOL_SIZE = 700
INITIAL_RUNS = 40
TOPUP_BUDGET = 600
BENCH_CONFIG = ProfilerConfig(
    seed=909, refine_ssp_with_power_search=False, max_additional_runs=TOPUP_BUDGET
)
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_profiler.json"
#: Floor below the measured incremental-vs-re-collect ratio (see module doc).
MIN_RECOLLECT_SPEEDUP = 1.5


class RecordPool:
    """Pre-simulated runs plus replayed timing/calibration probes."""

    def __init__(self, kernel, size: int, seed: int = POOL_SEED) -> None:
        backend = SimulatedDeviceBackend(spec=mi300x_spec(), seed=seed)
        self.kernel = kernel
        self.timings = {
            executions: backend.time_kernel(kernel, executions)
            for executions in (BENCH_CONFIG.timing_executions, 8)
        }
        self.calibration = backend.calibrate_read_delay(BENCH_CONFIG.calibration_samples)
        self.execution_time_s = float(
            np.median(self.timings[BENCH_CONFIG.timing_executions][2:])
        )
        plan = build_plan(
            backend, kernel, self.execution_time_s, refine_with_power_search=False
        )
        window_fill = backend.power_sample_period_s / self.execution_time_s
        tail = int(np.ceil(window_fill * BENCH_CONFIG.ssp_tail_fraction))
        tail = min(
            max(tail, BENCH_CONFIG.min_ssp_tail_executions),
            BENCH_CONFIG.max_ssp_tail_executions,
        )
        self.executions_per_run = plan.ssp_executions + tail
        rng = np.random.default_rng(seed + 1)
        max_delay = (
            BENCH_CONFIG.max_random_delay_periods * backend.power_sample_period_s
        )
        self.records: list[RunRecord] = [
            backend.run(
                kernel,
                executions=self.executions_per_run,
                pre_delay_s=float(rng.uniform(0.0, max_delay)),
                run_index=i,
            )
            for i in range(size)
        ]
        self.power_sample_period_s = backend.power_sample_period_s
        self.counter_frequency_hz = backend.counter_frequency_hz
        self.kernel_name = backend.kernel_name(kernel)


class ReplayBackend:
    """A ProfilingBackend that serves pre-simulated records instantly.

    Every ``profile()`` call against a fresh ReplayBackend sees the same
    deterministic sequence of records and probe results, so repeated
    measurements traverse identical inputs.
    """

    def __init__(self, pool: RecordPool) -> None:
        self._pool = pool
        self._cursor = 0

    @property
    def power_sample_period_s(self) -> float:
        return self._pool.power_sample_period_s

    @property
    def counter_frequency_hz(self) -> float:
        return self._pool.counter_frequency_hz

    def kernel_name(self, kernel) -> str:
        return self._pool.kernel_name

    def time_kernel(self, kernel, executions: int) -> list[float]:
        try:
            return list(self._pool.timings[executions])
        except KeyError as exc:
            raise ValueError(f"no replayed timing probe for {executions} executions") from exc

    def calibrate_read_delay(self, samples: int = 32) -> DelayCalibration:
        return self._pool.calibration

    def run(self, kernel, executions, pre_delay_s, run_index=0, preceding=()):
        if self._cursor >= len(self._pool.records):
            raise RuntimeError("replay pool exhausted; enlarge POOL_SIZE")
        record = self._pool.records[self._cursor]
        self._cursor += 1
        if record.run_index == run_index:
            return record
        return replace(record, run_index=run_index)

    def run_batch(self, kernel, executions, pre_delays, start_index=0, preceding=()):
        return tuple(
            self.run(kernel, executions, pre_delay_s, start_index + offset, preceding)
            for offset, pre_delay_s in enumerate(pre_delays)
        )


@pytest.fixture(scope="module")
def pool():
    return RecordPool(cb_gemm(KERNEL_SIZE), POOL_SIZE)


def profile_seconds(pool: RecordPool, runs: int,
                    max_additional_runs: int | None = None, repetitions: int = 3):
    """Best-of-N wall time of one full profile() call (plus the result)."""
    config = BENCH_CONFIG
    if max_additional_runs is not None:
        config = config.with_overrides(max_additional_runs=max_additional_runs)
    best = float("inf")
    result = None
    for _ in range(repetitions):
        profiler = FinGraVProfiler(ReplayBackend(pool), config)
        begin = time.perf_counter()
        result = profiler.profile(pool.kernel, runs=runs)
        best = min(best, time.perf_counter() - begin)
    return result, best


def oracle_profiles(result) -> dict:
    """SSP/SSE profiles rebuilt from ``result.runs`` by the scalar oracles."""
    runs = result.runs
    binning = ExecutionTimeBinner(result.binning.margin).bin(
        [run.ssp_execution.duration_s for run in runs]
    )
    golden = {runs[i].run_index for i in binning.selected_indices}
    golden_runs = [run for run in runs if run.run_index in golden]
    lois = [
        loi
        for run in golden_runs
        for loi in extract_lois_reference(run, synchronizer_for_run(run, result.calibration))
    ]

    def build(kind, keep, execution_index):
        execution_time = mean_duration_or_zero(
            [run.execution(execution_index).duration_s for run in golden_runs]
        )
        return profile_from_lois_reference(
            result.kernel_name, kind, [loi for loi in lois if keep(loi)], execution_time,
            components=result.config.components,
        )

    ssp_start, sse_index = result.plan.ssp_index, result.plan.sse_index
    return {
        "ssp_profile": build(
            ProfileKind.SSP, lambda loi: loi.execution_index >= ssp_start, ssp_start
        ),
        "sse_profile": build(
            ProfileKind.SSE, lambda loi: loi.execution_index == sse_index, sse_index
        ),
    }


def _profiles_identical(result, oracle: dict) -> bool:
    for name, b in oracle.items():
        a = getattr(result, name)
        if len(a) != len(b) or a.execution_time_s != b.execution_time_s:
            return False
        if not np.array_equal(a.times(), b.times()):
            return False
        if a.components != b.components:
            return False
        if any(not np.array_equal(a.series(c), b.series(c)) for c in a.components):
            return False
    return True


def _write_results(update: dict) -> None:
    payload = {}
    if RESULT_PATH.exists():
        try:
            payload = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.bench
def test_profiler_scaling_near_linear(pool):
    """profile() wall time grows near-linearly in the number of runs."""
    counts = (60, 120, 240, 480)
    rows = []
    for runs in counts:
        _, seconds = profile_seconds(pool, runs=runs, max_additional_runs=0)
        rows.append({"runs": runs, "seconds": seconds,
                     "us_per_run": seconds / runs * 1e6})
    print("\n=== profile() scaling (replayed backend) ===")
    for row in rows:
        print(f"  {row['runs']:>4} runs: {row['seconds']*1e3:7.2f} ms "
              f"({row['us_per_run']:6.1f} us/run)")
    _write_results({"kernel": pool.kernel_name,
                    "execution_time_s": pool.execution_time_s,
                    "scaling": rows})
    # An 8x run increase may cost at most ~2.5x the per-run time (generous
    # slack over timer noise); O(n^2) behaviour would blow well past this.
    first, last = rows[0], rows[-1]
    ratio = last["seconds"] / first["seconds"]
    assert ratio < (last["runs"] / first["runs"]) * 2.5, (
        f"super-linear scaling: {ratio:.1f}x time for "
        f"{last['runs'] / first['runs']:.0f}x runs"
    )


def batch_prefixes(pool: RecordPool, runs: int) -> list[int]:
    """Record count after every collection batch of one profile() call."""
    session = FinGraVProfiler(ReplayBackend(pool), BENCH_CONFIG).session(
        pool.kernel, runs=runs
    )
    prefixes = []
    while session.step():
        prefixes.append(session.runs_collected)
    return prefixes


def recollect_seconds(result, prefixes: list[int], repetitions: int = 3) -> float:
    """Best-of-N time of re-binning and re-stitching every batch prefix."""
    runs = result.runs
    durations = [run.ssp_execution.duration_s for run in runs]
    ssp_start = result.plan.ssp_index
    best = float("inf")
    for _ in range(repetitions):
        begin = time.perf_counter()
        for count in prefixes:
            binning = ExecutionTimeBinner(result.binning.margin).bin(durations[:count])
            golden = [runs[i].run_index for i in binning.selected_indices]
            series = ProfileStitcher(calibration=result.calibration).collect(runs[:count])
            series.count_lois(min_execution_index=ssp_start, golden_runs=golden)
            series.count_lois(execution_index=result.plan.sse_index, golden_runs=golden)
        ProfileStitcher(calibration=result.calibration).section_profiles(
            series, ("ssp", "sse", "run"), golden_runs=golden,
            sse_index=result.plan.sse_index, min_execution_index=ssp_start,
        )
        best = min(best, time.perf_counter() - begin)
    return best


@pytest.mark.bench
def test_incremental_speedup_over_recollect(pool):
    """Incremental profile() beats a per-batch full re-collect, bit-identically."""
    result, profile_s = profile_seconds(pool, runs=INITIAL_RUNS)
    prefixes = batch_prefixes(pool, INITIAL_RUNS)
    assert prefixes[-1] == result.num_runs
    baseline_s = recollect_seconds(result, prefixes)
    speedup = baseline_s / profile_s
    topup_runs = result.num_runs - INITIAL_RUNS
    print("\n=== incremental profile() vs per-batch re-collect (replayed backend) ===")
    print(f"  kernel {pool.kernel_name}: {pool.execution_time_s*1e6:.1f} us, "
          f"{result.num_runs} total runs ({topup_runs} top-up, {len(prefixes)} batches)")
    print(f"  incremental: {profile_s*1e3:7.2f} ms")
    print(f"  re-collect:  {baseline_s*1e3:7.2f} ms")
    print(f"  speedup:     {speedup:.2f}x")
    _write_results({"topup": {
        "kernel": pool.kernel_name,
        "execution_time_s": pool.execution_time_s,
        "total_runs": result.num_runs,
        "topup_runs": topup_runs,
        "batches": len(prefixes),
        "incremental_seconds": profile_s,
        "recollect_seconds": baseline_s,
        "speedup": speedup,
    }})
    assert _profiles_identical(result, oracle_profiles(result))
    assert topup_runs >= 200, f"scenario lost its top-up ({topup_runs} runs)"
    assert speedup >= MIN_RECOLLECT_SPEEDUP, (
        f"incremental profile() only {speedup:.2f}x over the per-batch re-collect"
    )
