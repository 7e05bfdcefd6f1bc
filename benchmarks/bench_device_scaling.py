"""Benchmark: end-to-end live-backend ``profile()`` on the compiled device.

Unlike ``bench_profiler_scaling`` (which replays pre-simulated records to
isolate the methodology), these benchmarks drive the *live* simulated
backend, so wall time is dominated by the device:

* ``test_device_compiled_speedup_live`` reproduces the paper's hardest
  scenario -- a ~13 us kernel whose SSE LOI scarcity forces a large top-up
  (600-run budget) -- end to end through ``FinGraVProfiler.profile()``, and
  compares the compiled engine against the per-slice reference engine
  (``BackendConfig(engine="reference")``).  The profiles must agree
  (bit-equal run structure and golden selection; powers within the
  documented 1e-9 relative tolerance from closed-form idle-span warmth) and
  the compiled engine must be at least ``MIN_LIVE_SPEEDUP`` faster.
* ``test_device_run_cost_by_exec_count`` times single instrumented runs at
  growing execution counts, showing that per-execution device cost is what
  the compiled engine compresses.

The floors sit below the ratios measured on the bundled-C provider (2-CPU
x86-64 container, Python 3.11); the un-jitted ``python`` provider
(``REPRO_FASTCORE_PROVIDER=python``) fails them by design.  Results are
appended to ``BENCH_profiler.json`` in the repository root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.profiler import FinGraVProfiler, ProfilerConfig
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm

KERNEL_SIZE = 1024
INITIAL_RUNS = 40
TOPUP_BUDGET = 600
BENCH_CONFIG = ProfilerConfig(
    seed=909, refine_ssp_with_power_search=False, max_additional_runs=TOPUP_BUDGET
)
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_profiler.json"
#: Floors below the measured compiled-vs-reference ratios (see module doc).
MIN_LIVE_SPEEDUP = 8.0
MIN_RUN_COST_SPEEDUP = 10.0


def _write_results(update: dict) -> None:
    payload = {}
    if RESULT_PATH.exists():
        try:
            payload = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _live_profile(engine: str, repetitions: int = 3):
    """Median-of-N wall time of profile() against a freshly seeded live backend.

    The median (rather than best-of) keeps the measured ratio stable against
    one-off scheduler noise on either side.
    """
    kernel = cb_gemm(KERNEL_SIZE)
    seconds = []
    result = None
    for _ in range(repetitions):
        backend = SimulatedDeviceBackend(
            spec=mi300x_spec(), seed=404, config=BackendConfig(engine=engine)
        )
        profiler = FinGraVProfiler(backend, BENCH_CONFIG)
        begin = time.perf_counter()
        result = profiler.profile(kernel, runs=INITIAL_RUNS)
        seconds.append(time.perf_counter() - begin)
    return result, float(np.median(seconds))


def _profiles_close(left, right) -> bool:
    for name in ("ssp_profile", "sse_profile", "run_profile"):
        a, b = getattr(left, name), getattr(right, name)
        if len(a) != len(b) or a.execution_time_s != b.execution_time_s:
            return False
        if not np.array_equal(a.times(), b.times()):
            return False
        if a.components != b.components:
            return False
        if any(
            not np.allclose(a.series(c), b.series(c), rtol=1e-9, atol=1e-9)
            for c in a.components
        ):
            return False
    return True


@pytest.mark.bench
def test_device_compiled_speedup_live():
    """Compiled device beats the per-slice reference on a live top-up."""
    compiled_result, compiled_seconds = _live_profile("compiled")
    ref_result, ref_seconds = _live_profile("reference")
    speedup = ref_seconds / compiled_seconds
    topup_runs = compiled_result.num_runs - INITIAL_RUNS
    print("\n=== compiled device vs per-slice reference (live profile()) ===")
    print(f"  kernel CB-{KERNEL_SIZE}-GEMM: {compiled_result.execution_time_s*1e6:.1f} us, "
          f"{compiled_result.num_runs} total runs ({topup_runs} top-up)")
    print(f"  compiled device:  {compiled_seconds:7.3f} s")
    print(f"  per-slice device: {ref_seconds:7.3f} s")
    print(f"  speedup:          {speedup:.2f}x")
    _write_results({"device_topup": {
        "kernel": f"CB-{KERNEL_SIZE}-GEMM",
        "execution_time_s": compiled_result.execution_time_s,
        "total_runs": compiled_result.num_runs,
        "topup_runs": topup_runs,
        "compiled_seconds": compiled_seconds,
        "reference_seconds": ref_seconds,
        "speedup": speedup,
    }})
    assert compiled_result.num_runs == ref_result.num_runs
    assert compiled_result.golden_run_indices == ref_result.golden_run_indices
    assert _profiles_close(compiled_result, ref_result)
    assert topup_runs >= 100, f"scenario lost its top-up ({topup_runs} runs)"
    assert speedup >= MIN_LIVE_SPEEDUP, (
        f"compiled device speedup {speedup:.2f}x below {MIN_LIVE_SPEEDUP}x"
    )


@pytest.mark.bench
def test_device_run_cost_by_exec_count():
    """Per-run device cost at growing execution counts, both engines."""
    kernel = cb_gemm(KERNEL_SIZE)
    rows = []
    for executions in (20, 40, 80, 160):
        per_engine = {}
        for engine in ("compiled", "reference"):
            backend = SimulatedDeviceBackend(
                spec=mi300x_spec(), seed=7, config=BackendConfig(engine=engine)
            )
            rng = np.random.default_rng(1)
            backend.run(kernel, executions=executions, pre_delay_s=0.0, run_index=0)
            repeats = 20
            begin = time.perf_counter()
            for i in range(repeats):
                backend.run(
                    kernel,
                    executions=executions,
                    pre_delay_s=float(rng.uniform(0.0, 2e-3)),
                    run_index=i,
                )
            per_engine[engine] = (time.perf_counter() - begin) / repeats
        rows.append({
            "executions": executions,
            "compiled_ms": per_engine["compiled"] * 1e3,
            "reference_ms": per_engine["reference"] * 1e3,
            "speedup": per_engine["reference"] / per_engine["compiled"],
        })
    print("\n=== backend.run() cost by execution count ===")
    for row in rows:
        print(f"  {row['executions']:>4} executions: compiled {row['compiled_ms']:6.2f} ms, "
              f"per-slice {row['reference_ms']:6.2f} ms ({row['speedup']:.2f}x)")
    _write_results({"device_run_cost": rows})
    # Device cost dominates at high execution counts, where the compiled
    # engine must hold a solid advantage.
    assert rows[-1]["speedup"] >= MIN_RUN_COST_SPEEDUP, (
        f"compiled device only {rows[-1]['speedup']:.2f}x at {rows[-1]['executions']} "
        "executions"
    )
