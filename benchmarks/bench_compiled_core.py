"""Benchmark: the compiled slice/boundary core vs the per-slice reference.

The device's hot loops -- the per-execution slice loop, the firmware
control boundary and the thermal span relaxation -- run as one compiled
kernel call per idle span / execution sequence (``repro.gpu.fastcore``).
This benchmark measures what that buys over the per-slice reference engine
(the executable specification) on the ``backend.run()`` shape of the
execution-arena benchmark, plus a short (8 control period) idle span.

Acceptance: at 640 executions the compiled engine must beat the reference
by at least ``MIN_RUN_SPEEDUP``, every smaller row by at least
``MIN_ROW_SPEEDUP``, and the short idle span by at least
``MIN_IDLE_SPEEDUP``.  The floors sit below the ratios measured on the
bundled-C provider (2-CPU x86-64 container, Python 3.11: ~48x at 640
executions, >=5x per row, ~4x on the short span); the un-jitted ``python``
provider (``REPRO_FASTCORE_PROVIDER=python``: ~2x, ~0.7x) fails them by
design.

Results land in ``BENCH_profiler.json`` under ``compiled_core``, stamped
with the active provider name and Numba version (``null`` unless the Numba
provider carried the run).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.gpu import fastcore
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.device import SimulatedGPU
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_profiler.json"

pytestmark = pytest.mark.bench

ENGINES = ("compiled", "reference")
#: Floors below the measured compiled-vs-reference ratios (see module doc).
MIN_RUN_SPEEDUP = 30.0
MIN_ROW_SPEEDUP = 3.0
MIN_IDLE_SPEEDUP = 2.0


def _write_results(update: dict) -> None:
    payload = {}
    if RESULT_PATH.exists():
        try:
            payload = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _merge_section(update: dict) -> None:
    payload = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    section = payload.get("compiled_core", {})
    section.update(update)
    section["engines"] = {
        "compiled_provider": fastcore.provider_name(),
        "numba_version": fastcore.numba_version(),
    }
    _write_results({"compiled_core": section})


def _make_backend(engine: str, seed: int = 3) -> SimulatedDeviceBackend:
    return SimulatedDeviceBackend(
        spec=mi300x_spec(), seed=seed, config=BackendConfig(engine=engine)
    )


def test_compiled_core_run_cost():
    """Compiled engine >= MIN_RUN_SPEEDUP x the reference at the largest N.

    Same shape as ``arena_run_cost`` (zero pre-delay, CB-2K-GEMM), extended
    up to 640 executions: the reference engine pays Python-level per-slice
    work for every execution, so its cost grows linearly with N while the
    compiled sequence kernel's stays nearly flat.
    """
    kernel = cb_gemm(2048)
    rows = []
    for executions in (20, 80, 160, 320, 640):
        backends = {engine: _make_backend(engine) for engine in ENGINES}
        repetitions = 12 if executions <= 160 else 6
        for backend in backends.values():  # warm caches / kernels
            backend.run(kernel, executions=executions, pre_delay_s=0.0)
        # Interleave best-of rounds across the engines so a transient load
        # spike degrades one round of each, not one engine's whole sample.
        seconds = {engine: float("inf") for engine in ENGINES}
        for _ in range(3):
            for engine, backend in backends.items():
                begin = time.perf_counter()
                for i in range(repetitions):
                    backend.run(
                        kernel, executions=executions, pre_delay_s=0.0, run_index=i
                    )
                seconds[engine] = min(
                    seconds[engine], (time.perf_counter() - begin) / repetitions
                )
        rows.append({
            "executions": executions,
            "compiled_ms": seconds["compiled"] * 1e3,
            "compiled_us_per_execution": seconds["compiled"] / executions * 1e6,
            "reference_ms": seconds["reference"] * 1e3,
            "speedup_vs_reference": seconds["reference"] / seconds["compiled"],
        })
    print("\n=== per-execution backend.run() cost: compiled vs reference ===")
    print(f"  provider: {fastcore.provider_name()}, "
          f"numba: {fastcore.numba_version() or 'absent'}")
    for row in rows:
        print(f"  {row['executions']:>4} executions: compiled {row['compiled_ms']:7.3f} ms "
              f"({row['compiled_us_per_execution']:5.2f} us/exec), "
              f"reference {row['reference_ms']:8.3f} ms "
              f"({row['speedup_vs_reference']:.1f}x)")
    _merge_section({"arena_run_cost": rows})
    largest = rows[-1]
    assert largest["speedup_vs_reference"] >= MIN_RUN_SPEEDUP, (
        f"compiled engine only {largest['speedup_vs_reference']:.2f}x over the "
        f"reference at {largest['executions']} executions"
    )
    for row in rows:
        assert row["speedup_vs_reference"] >= MIN_ROW_SPEEDUP, (
            f"compiled engine only {row['speedup_vs_reference']:.2f}x over the "
            f"reference at {row['executions']} executions"
        )


def test_compiled_core_short_idle_span():
    """A short idle span (2 ms = 8 control periods) in one kernel call.

    The reference engine walks the span slice by slice in Python; the
    compiled engine takes one kernel call, so even a span this short must
    come out at least ``MIN_IDLE_SPEEDUP`` ahead.
    """
    duration_s = 2e-3
    devices = {
        engine: SimulatedGPU(mi300x_spec(), seed=1, engine=engine) for engine in ENGINES
    }
    for device in devices.values():
        device.start_recording()
        device.idle(duration_s)  # warm
    seconds = {engine: float("inf") for engine in devices}
    calls = 50
    for _ in range(4):
        for engine, device in devices.items():
            begin = time.perf_counter()
            for _ in range(calls):
                device.idle(duration_s)
            seconds[engine] = min(
                seconds[engine], (time.perf_counter() - begin) / calls
            )
    ratio = seconds["reference"] / seconds["compiled"]
    print("\n=== short idle span (2 ms = 8 control periods) ===")
    print(f"  compiled  {seconds['compiled'] * 1e6:7.1f} us")
    print(f"  reference {seconds['reference'] * 1e6:7.1f} us "
          f"(compiled is {ratio:.2f}x)")
    _merge_section({"short_idle_span": {
        "idle_ms": duration_s * 1e3,
        "control_periods": duration_s / mi300x_spec().dvfs.control_period_s,
        "compiled_us": seconds["compiled"] * 1e6,
        "reference_us": seconds["reference"] * 1e6,
        "compiled_speedup": ratio,
    }})
    assert ratio >= MIN_IDLE_SPEEDUP, (
        f"compiled engine only {ratio:.2f}x over the reference on a short idle span"
    )
