"""Benchmark: idle-span cost of the compiled engine vs the per-slice reference.

Fig5-style padding, interleaving gaps and park/boost studies spend most of
their simulated time idle, one slice per 250 us firmware control period.
The compiled engine advances a whole idle span in one kernel call (the
per-period loop, the firmware control steps and one closed-form warmth
relaxation); the reference engine walks it slice by slice in Python.

Two engines are timed on an idle-heavy instrumented run (a park/boost-study
shape: few executions separated by tens of milliseconds of idle):

* ``compiled`` -- the compiled slice/boundary core, on whichever provider
  ``repro.gpu.fastcore`` resolved,
* ``reference`` -- the pinned per-slice specification
  (``BackendConfig(engine="reference")``).

The run records must agree (the device equivalence suite pins the full
contract); the compiled engine must beat the reference by at least
``MIN_RUN_SPEEDUP`` on the idle-heavy shape.  A raw ``device.idle()``
scaling table shows the reference's linear per-slice cost against the
compiled kernel; the long spans must clear ``MIN_LONG_SPAN_SPEEDUP``.  The
floors sit below the ratios measured on the bundled-C provider (2-CPU
x86-64 container, Python 3.11); the un-jitted ``python`` provider
(``REPRO_FASTCORE_PROVIDER=python``) fails them by design.

Results are appended to ``BENCH_profiler.json`` (section ``idle_span``),
stamped with the active provider name and Numba version.
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

KERNEL_SIZE = 1024
EXECUTIONS = 4
PRE_DELAY_S = 50e-3  # ~200 control periods of idle between anchor and kernels
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_profiler.json"
ENGINES = ("compiled", "reference")
#: Floors below the measured compiled-vs-reference ratios (see module doc).
MIN_RUN_SPEEDUP = 3.0
MIN_LONG_SPAN_SPEEDUP = 20.0


def _provenance() -> dict:
    """Provider stamp recorded next to every timing section."""
    return {
        "compiled_provider": fastcore.provider_name(),
        "numba_version": fastcore.numba_version(),
    }


def _write_results(update: dict) -> None:
    payload = {}
    if RESULT_PATH.exists():
        try:
            payload = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _make_backend(engine: str, seed: int = 31) -> SimulatedDeviceBackend:
    return SimulatedDeviceBackend(
        spec=mi300x_spec(), seed=seed, config=BackendConfig(engine=engine)
    )


def _run_costs(repeats: int = 25, rounds: int = 4) -> tuple[dict, dict]:
    """Best-of-N mean wall time of one idle-heavy instrumented run per engine.

    Rounds are interleaved across the engines so a transient load spike on
    the machine degrades every engine's round rather than one engine's whole
    measurement -- the reported ratios stay stable under contention.
    """
    kernel = cb_gemm(KERNEL_SIZE)
    backends = {engine: _make_backend(engine) for engine in ENGINES}
    records = {
        engine: backend.run(kernel, executions=EXECUTIONS, pre_delay_s=PRE_DELAY_S, run_index=0)
        for engine, backend in backends.items()
    }
    seconds = {engine: float("inf") for engine in backends}
    for _ in range(rounds):
        for engine, backend in backends.items():
            begin = time.perf_counter()
            for i in range(repeats):
                backend.run(
                    kernel, executions=EXECUTIONS, pre_delay_s=PRE_DELAY_S, run_index=i
                )
            seconds[engine] = min(seconds[engine], (time.perf_counter() - begin) / repeats)
    return seconds, records


@pytest.mark.bench
def test_idle_span_backend_run_speedup():
    """The compiled engine beats the reference on idle-heavy runs."""
    seconds, records = _run_costs()

    # The first run of both engines must agree record-for-record (the device
    # equivalence suite pins the full contract; this is the smoke check).
    record, reference_record = records["compiled"], records["reference"]
    assert len(record.executions) == len(reference_record.executions)
    for ours, theirs in zip(record.executions, reference_record.executions):
        assert ours == theirs
    assert len(record.readings) == len(reference_record.readings)
    for ours, theirs in zip(record.readings, reference_record.readings):
        assert ours.gpu_timestamp_ticks == theirs.gpu_timestamp_ticks
        assert ours.total_w == pytest.approx(theirs.total_w, rel=1e-9)

    speedup = seconds["reference"] / seconds["compiled"]
    idle_periods = (PRE_DELAY_S + 8e-3 + 2.8e-3) / mi300x_spec().dvfs.control_period_s
    print("\n=== idle-span engines: idle-heavy backend.run() ===")
    print(f"  shape: {EXECUTIONS} x CB-{KERNEL_SIZE}-GEMM, pre-delay "
          f"{PRE_DELAY_S * 1e3:.0f} ms (~{idle_periods:.0f} idle control periods/run)")
    for engine in ENGINES:
        print(f"  {engine:>9}: {seconds[engine] * 1e6:8.1f} us/run")
    print(f"  compiled vs reference: {speedup:.2f}x")
    _write_results({"idle_span": {
        "workload": {
            "kernel": f"CB-{KERNEL_SIZE}-GEMM",
            "executions": EXECUTIONS,
            "pre_delay_s": PRE_DELAY_S,
        },
        "engines": _provenance(),
        "run_seconds": dict(seconds),
        "compiled_speedup_vs_reference": speedup,
    }})
    assert speedup >= MIN_RUN_SPEEDUP, (
        f"compiled engine only {speedup:.2f}x over the reference on idle-heavy runs"
    )


@pytest.mark.bench
def test_idle_span_raw_scaling():
    """Raw device.idle() cost: per-slice reference loop vs one kernel call."""
    rows = []
    for duration_s in (2e-3, 8e-3, 50e-3, 200e-3):
        devices = {}
        for engine in ENGINES:
            device = SimulatedGPU(mi300x_spec(), seed=1, engine=engine)
            device.start_recording()
            device.idle(duration_s)  # warm caches / kernels
            devices[engine] = device
        # Interleave best-of rounds across the engines so a transient load
        # spike degrades one round of each, not one engine's whole sample.
        per_engine = {engine: float("inf") for engine in devices}
        calls = max(5, int(0.1 / duration_s))
        for _ in range(4):
            for engine, device in devices.items():
                begin = time.perf_counter()
                for _ in range(calls):
                    device.idle(duration_s)
                per_engine[engine] = min(
                    per_engine[engine], (time.perf_counter() - begin) / calls
                )
        for device in devices.values():
            device.stop_recording()
        rows.append({
            "idle_ms": duration_s * 1e3,
            "compiled_us": per_engine["compiled"] * 1e6,
            "reference_us": per_engine["reference"] * 1e6,
            "speedup": per_engine["reference"] / per_engine["compiled"],
        })
    print("\n=== raw device.idle() cost by span length ===")
    for row in rows:
        print(f"  idle({row['idle_ms']:6.1f} ms): compiled {row['compiled_us']:8.1f} us, "
              f"per-slice {row['reference_us']:8.1f} us ({row['speedup']:.2f}x)")
    results = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    section = results.get("idle_span", {})
    section["engines"] = _provenance()
    section["raw_idle_scaling"] = rows
    _write_results({"idle_span": section})
    # The long spans must show the step change.
    assert rows[-1]["speedup"] >= MIN_LONG_SPAN_SPEEDUP
    assert rows[-2]["speedup"] >= MIN_LONG_SPAN_SPEEDUP
