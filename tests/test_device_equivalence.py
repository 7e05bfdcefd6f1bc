"""Engine equivalence harness: compiled vs reference, for every provider.

The contract is that the compiled engine reproduces the retained per-slice
reference path: identical slice boundaries, RNG stream, executions and
firmware events.  Power values may differ from the *reference* by ~1 ulp
because idle-span warmth is relaxed once per span instead of once per slice
-- the tolerances below document that bound.  Every compiled-kernel
provider available in this process (``numba``, ``cc`` and the always
present ``python`` kernel bodies) must agree with the others **bit for
bit**, with no tolerance at all.

Scenarios mirror the paper's workloads: pure idle, a short (single-slice)
kernel, a power-limited GEMM that throttles mid-execution, an interleaved
mix with a mid-recording timestamp read, and a long-idle park/unpark cycle
spanning hundreds of firmware control periods.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import fastcore
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.device import PowerSegment, SegmentArray, SimulatedGPU
from repro.gpu.dvfs import FirmwareState
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm, mb_gemv

POWER_RTOL = 1e-9
POWER_ATOL = 1e-9


def _usable_providers() -> dict[str, fastcore.KernelBundle]:
    """Every provider that loads and passes its self-check in this process."""
    bundles = {}
    for name in fastcore.PROVIDER_CHAINS["auto"]:
        bundle, _error = fastcore._load_provider(name)
        if bundle is not None and fastcore.self_check(bundle) is None:
            bundles[name] = bundle
    return bundles


PROVIDERS = _usable_providers()

SPEC = mi300x_spec()
SHORT = cb_gemm(1024).activity_descriptor(SPEC)
BIG = cb_gemm(8192).activity_descriptor(SPEC)
GEMV = mb_gemv(4096).activity_descriptor(SPEC)


def compiled_device(seed=123, provider=None):
    """A compiled-engine device, optionally pinned to one kernel provider."""
    device = SimulatedGPU(SPEC, seed=seed, engine="compiled")
    if provider is not None:
        device._fc = PROVIDERS[provider]
    return device


def device_pair(seed=123):
    """The compiled engine on the active provider, and the reference."""
    return (
        compiled_device(seed),
        SimulatedGPU(SPEC, seed=seed, engine="reference"),
    )


def scenario_idle(device):
    device.park(12e-3)
    device.start_recording()
    device.idle(1.7e-3)
    device.idle(3e-6)
    device.idle(4.3e-3)


def scenario_short_kernel(device):
    device.park()
    device.start_recording()
    device.idle(1.5e-3)
    variation = device.draw_run_variation(SHORT)
    for _ in range(30):
        device.idle(1e-6)
        device.execute_kernel(SHORT, run_variation=variation)
    device.idle(1.3e-3)


def scenario_throttling_gemm(device):
    device.park()
    device.start_recording()
    device.idle(0.5e-3)
    for _ in range(6):
        device.execute_kernel(BIG)
    device.idle(1e-3)


def scenario_interleaved(device):
    device.park()
    device.start_recording()
    device.idle(1.5e-3)
    device.read_timestamp()
    for i in range(8):
        device.idle(2e-6)
        device.execute_kernel(GEMV if i % 2 else SHORT)
    device.idle(2.5e-3)
    device.execute_kernel(BIG)
    device.idle(0.7e-3)


def scenario_long_idle_park(device):
    """Hundreds of control periods idle: park mid-span, boost on arrival.

    The 80 ms span covers 320 control periods with the IDLE-park transition
    ~2 ms in; the following kernel exercises ``notify_kernel_arrival`` boost
    out of the parked state, and the second long span parks again.
    """
    device.park()
    device.start_recording()
    variation = device.draw_run_variation(SHORT)
    device.execute_kernel(SHORT, run_variation=variation)
    device.idle(80e-3)
    device.execute_kernel(SHORT, run_variation=variation)
    device.idle(45e-3)
    device.execute_kernel(SHORT, run_variation=variation)
    device.idle(2.2e-3)


SCENARIOS = {
    "idle": scenario_idle,
    "short_kernel": scenario_short_kernel,
    "throttling_gemm": scenario_throttling_gemm,
    "interleaved": scenario_interleaved,
    "long_idle_park": scenario_long_idle_park,
}


def segment_columns(segments):
    return (
        np.asarray([s.start_s for s in segments], dtype=float),
        np.asarray([s.end_s for s in segments], dtype=float),
        np.asarray(
            [[s.power.xcd_w, s.power.iod_w, s.power.hbm_w] for s in segments], dtype=float
        ),
    )


def assert_devices_equivalent(fast, reference, fast_segments, reference_segments):
    # Slice boundaries are bit-identical; powers agree to the documented
    # tolerance (closed-form idle-span warmth).
    assert isinstance(fast_segments, SegmentArray)
    ref_starts, ref_ends, ref_powers = segment_columns(reference_segments)
    assert len(fast_segments) == len(reference_segments)
    assert np.array_equal(fast_segments.starts_s, ref_starts)
    assert np.array_equal(fast_segments.ends_s, ref_ends)
    assert np.allclose(fast_segments.powers, ref_powers, rtol=POWER_RTOL, atol=POWER_ATOL)

    fast_executions = fast.executions()
    reference_executions = reference.executions()
    assert len(fast_executions) == len(reference_executions)
    for a, b in zip(fast_executions, reference_executions):
        assert a.kernel_name == b.kernel_name
        assert a.start_s == b.start_s
        assert a.end_s == b.end_s
        assert a.cold_caches == b.cold_caches
        assert a.mean_frequency_ghz == pytest.approx(b.mean_frequency_ghz, rel=1e-12)
        assert a.energy_j == pytest.approx(b.energy_j, rel=POWER_RTOL)
        assert a.mean_power.total_w == pytest.approx(b.mean_power.total_w, rel=POWER_RTOL)

    fast_events = fast.firmware_events()
    reference_events = reference.firmware_events()
    assert len(fast_events) == len(reference_events)
    for a, b in zip(fast_events, reference_events):
        assert a.time_s == b.time_s
        assert a.state is b.state
        assert a.frequency_ghz == b.frequency_ghz
        assert a.power_w == pytest.approx(b.power_w, rel=POWER_RTOL, abs=POWER_ATOL)
        assert np.isfinite(a.power_w)

    assert fast.now_s() == reference.now_s()
    assert fast.thermal.warmth == pytest.approx(reference.thermal.warmth, abs=1e-12)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_equivalence(name):
    scenario = SCENARIOS[name]
    fast, reference = device_pair()
    scenario(fast)
    scenario(reference)
    fast_segments = fast.stop_recording()
    reference_segments = reference.stop_recording()
    assert_devices_equivalent(fast, reference, fast_segments, reference_segments)


def assert_devices_bitwise_identical(left, right, left_segments, right_segments):
    """Provider vs provider: no tolerance -- every float must match exactly."""
    assert np.array_equal(left_segments.starts_s, right_segments.starts_s)
    assert np.array_equal(left_segments.ends_s, right_segments.ends_s)
    assert np.array_equal(left_segments.powers, right_segments.powers)
    assert left.executions() == right.executions()
    left_events = left.firmware_events()
    right_events = right.firmware_events()
    assert len(left_events) == len(right_events)
    for a, b in zip(left_events, right_events):
        assert (a.time_s, a.state, a.frequency_ghz, a.power_w) == (
            b.time_s, b.state, b.frequency_ghz, b.power_w,
        )
    assert left.now_s() == right.now_s()
    assert left.thermal.warmth == right.thermal.warmth
    assert left._next_control_s == right._next_control_s
    assert left.firmware.state is right.firmware.state
    assert left.firmware.frequency_ghz == right.firmware.frequency_ghz


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_equivalence_compiled(name):
    """Every available provider is bit-identical to the python kernel bodies
    and tolerance-equal to the reference, on every scenario (including the
    long-idle park cycle)."""
    scenario = SCENARIOS[name]
    devices = {provider: compiled_device(provider=provider) for provider in PROVIDERS}
    reference = SimulatedGPU(SPEC, seed=123, engine="reference")
    for device in (*devices.values(), reference):
        scenario(device)
    segments = {provider: device.stop_recording() for provider, device in devices.items()}
    reference_segments = reference.stop_recording()
    for provider, device in devices.items():
        assert_devices_bitwise_identical(
            device, devices["python"], segments[provider], segments["python"]
        )
        assert_devices_equivalent(device, reference, segments[provider], reference_segments)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_equivalence_scalar_inline(name):
    """The un-jitted per-period kernel loop (the ``python`` provider, the
    path a host without Numba or a C compiler runs) stays in lockstep with
    the per-slice reference."""
    scenario = SCENARIOS[name]
    inline = compiled_device(provider="python")
    reference = SimulatedGPU(SPEC, seed=123, engine="reference")
    scenario(inline)
    scenario(reference)
    inline_segments = inline.stop_recording()
    reference_segments = reference.stop_recording()
    assert_devices_equivalent(inline, reference, inline_segments, reference_segments)


def engine_matrix(seed=123):
    """One compiled device per available provider, then the reference."""
    engines: dict[str, SimulatedGPU] = {
        provider: compiled_device(seed, provider) for provider in PROVIDERS
    }
    engines["reference"] = SimulatedGPU(SPEC, seed=seed, engine="reference")
    return engines


class TestLongIdleParkUnpark:
    """Every compiled provider and the reference loop must agree across a
    park/unpark/boost cycle spanning hundreds of control periods."""

    @pytest.fixture(scope="class")
    def driven(self):
        engines = engine_matrix()
        segments = {}
        for name, device in engines.items():
            scenario_long_idle_park(device)
            segments[name] = device.stop_recording()
        return engines, segments

    def test_park_and_boost_events_bitwise_identical(self, driven):
        engines, _ = driven
        reference_events = engines["reference"].firmware_events()
        # The cycle must actually exercise park -> boost -> park.
        states = [event.state for event in reference_events]
        assert states.count(FirmwareState.IDLE) >= 2
        assert FirmwareState.BOOST in states
        for name, device in engines.items():
            if name == "reference":
                continue
            events = device.firmware_events()
            assert len(events) == len(reference_events)
            for ours, refevent in zip(events, reference_events):
                assert ours.time_s == refevent.time_s
                assert ours.state is refevent.state
                assert ours.frequency_ghz == refevent.frequency_ghz
                assert ours.power_w == pytest.approx(
                    refevent.power_w, rel=POWER_RTOL, abs=POWER_ATOL
                )

    def test_segments_clock_and_warmth_pinned(self, driven):
        engines, segments = driven
        ref_segments = segments["reference"]
        assert len(segments["python"]) > 500  # hundreds of control periods
        for name in engines:
            if name == "reference":
                continue
            assert_devices_equivalent(
                engines[name], engines["reference"], segments[name], ref_segments
            )
            # Provider vs provider: everything identical, powers included.
            assert_devices_bitwise_identical(
                engines[name], engines["python"], segments[name], segments["python"]
            )

    def test_firmware_bookkeeping_identical(self, driven):
        engines, _ = driven
        reference = engines["reference"]
        for name, device in engines.items():
            if name == "reference":
                continue
            assert device.firmware._idle_accum_s == reference.firmware._idle_accum_s
            assert device.firmware._overdraw_accum_s == reference.firmware._overdraw_accum_s
            assert device.firmware._last_power_w == pytest.approx(
                reference.firmware._last_power_w, rel=POWER_RTOL
            )


class TestExactBoundarySpans:
    """Audit pin for the 1e-12 boundary slack: a span ending exactly on (or
    within the slack of) a control boundary fires the firmware on the same
    boundary in every compiled provider and the reference loop, and the park
    transition lands on an identical boundary float."""

    @pytest.mark.parametrize("perturb_s", [0.0, 1e-12, -1e-12, 5e-13, -5e-13])
    def test_park_lands_on_same_boundary(self, perturb_s):
        engines = engine_matrix(seed=21)
        for device in engines.values():
            device.start_recording()
            device.execute_kernel(SHORT)
            # Idle exactly to a control boundary eleven periods out (plus a
            # sub-slack perturbation), then across the park threshold.
            period = device.spec.dvfs.control_period_s
            span = device._next_control_s + 10 * period - device.now_s() + perturb_s
            device.idle(span)
            device.idle(9 * period)
        reference = engines["reference"]
        reference_events = reference.firmware_events()
        park_times = [
            event.time_s for event in reference_events if event.state is FirmwareState.IDLE
        ]
        assert park_times, "scenario must park"
        for name, device in engines.items():
            if name == "reference":
                continue
            events = device.firmware_events()
            assert [
                (event.time_s, event.state, event.frequency_ghz) for event in events
            ] == [
                (event.time_s, event.state, event.frequency_ghz)
                for event in reference_events
            ]
            assert device.now_s() == reference.now_s()
            assert device._next_control_s == reference._next_control_s
        for device in engines.values():
            device.stop_recording()

    def test_span_ending_on_boundary_steps_firmware_once(self):
        # A span that ends bit-exactly on a boundary must consume that
        # boundary (next_control advances past it) in every engine, leaving
        # an empty control accumulator.
        engines = engine_matrix(seed=4)
        for device in engines.values():
            device.execute_kernel(SHORT)
            span = device._next_control_s - device.now_s()
            device.idle(span)
            assert device.now_s() + 1e-12 >= device._next_control_s - \
                device.spec.dvfs.control_period_s
            assert device._next_control_s > device.now_s() + 1e-12
            assert device._control.time_s == 0.0
            assert device._control.energy_j == 0.0


class TestBackendEquivalence:
    """Full instrumented runs must agree record-for-record across engines."""

    @pytest.fixture(scope="class")
    def record_matrix(self):
        def one(engine, provider=None):
            backend = SimulatedDeviceBackend(
                spec=SPEC, seed=11, config=BackendConfig(engine=engine)
            )
            assert backend.device.engine == engine
            if provider is not None:
                backend.device._fc = PROVIDERS[provider]
            kernel = cb_gemm(1024)
            records = [
                backend.run(kernel, executions=30, pre_delay_s=i * 0.7e-3, run_index=i)
                for i in range(3)
            ]
            records.append(
                backend.run(
                    kernel,
                    executions=10,
                    pre_delay_s=0.3e-3,
                    run_index=3,
                    preceding=[(mb_gemv(4096), 4)],
                )
            )
            return records

        matrix = {f"compiled-{provider}": one("compiled", provider) for provider in PROVIDERS}
        matrix["reference"] = one("reference")
        return matrix

    @staticmethod
    def pairs(record_matrix):
        reference = record_matrix["reference"]
        for engine, records in record_matrix.items():
            if engine != "reference":
                yield from zip(records, reference)

    def test_execution_timings_identical(self, record_matrix):
        for fast, reference in self.pairs(record_matrix):
            assert len(fast.executions) == len(reference.executions)
            for a, b in zip(fast.executions, reference.executions):
                assert a == b
            for a, b in zip(fast.preceding_executions, reference.preceding_executions):
                assert a == b

    def test_readings_match(self, record_matrix):
        for fast, reference in self.pairs(record_matrix):
            assert len(fast.readings) == len(reference.readings)
            for a, b in zip(fast.readings, reference.readings):
                assert a.gpu_timestamp_ticks == b.gpu_timestamp_ticks
                assert a.window_s == b.window_s
                assert a.total_w == pytest.approx(b.total_w, rel=POWER_RTOL)
                for component in ("xcd", "iod", "hbm"):
                    assert a.components[component] == pytest.approx(
                        b.components[component], rel=POWER_RTOL
                    )

    def test_anchor_and_metadata_identical(self, record_matrix):
        for fast, reference in self.pairs(record_matrix):
            assert fast.anchor == reference.anchor
            assert fast.pre_delay_s == reference.pre_delay_s
            assert fast.metadata["logger_start_cpu_s"] == reference.metadata["logger_start_cpu_s"]
            assert fast.metadata["logger_stop_cpu_s"] == reference.metadata["logger_stop_cpu_s"]
            assert (
                fast.metadata["run_variation_outlier"]
                == reference.metadata["run_variation_outlier"]
            )

    def test_compiled_readings_bitwise_equal_across_providers(self, record_matrix):
        python = record_matrix["compiled-python"]
        for provider in PROVIDERS:
            for ours, theirs in zip(record_matrix[f"compiled-{provider}"], python):
                assert list(ours.executions) == list(theirs.executions)
                for a, b in zip(ours.readings, theirs.readings):
                    assert a.gpu_timestamp_ticks == b.gpu_timestamp_ticks
                    assert a.total_w == b.total_w
                    assert a.components == b.components


class TestDescriptorProfileCache:
    def test_cache_is_not_poisoned_across_specs(self):
        # Regression: the per-descriptor power-profile cache must be keyed by
        # the device's power model, or a descriptor first run on one spec
        # would replay that spec's utilisations on every later device.
        import dataclasses

        descriptor = cb_gemm(2048).activity_descriptor(SPEC)
        first = SimulatedGPU(SPEC, seed=1, engine="compiled")
        first.execute_kernel(descriptor)

        other_spec = dataclasses.replace(
            SPEC, power=dataclasses.replace(SPEC.power, xcd_stalled_floor=0.44,
                                            xcd_activity_floor=0.9)
        )
        fast = SimulatedGPU(other_spec, seed=2, engine="compiled")
        reference = SimulatedGPU(other_spec, seed=2, engine="reference")
        fast_result = fast.execute_kernel(descriptor)
        reference_result = reference.execute_kernel(descriptor)
        assert fast_result.mean_power.total_w == pytest.approx(
            reference_result.mean_power.total_w, rel=POWER_RTOL
        )


class TestSegmentArray:
    def test_behaves_like_a_sequence_of_segments(self):
        fast, _ = device_pair()
        fast.start_recording()
        fast.idle(0.9e-3)
        fast.execute_kernel(SHORT)
        segments = fast.stop_recording()
        assert isinstance(segments, SegmentArray)
        assert len(segments) > 0
        first = segments[0]
        assert isinstance(first, PowerSegment)
        assert first.duration_s > 0
        assert [s.start_s for s in segments] == list(segments.starts_s)
        tail = segments[1:]
        assert isinstance(tail, SegmentArray)
        assert len(tail) == len(segments) - 1

    def test_equality_with_plain_segment_lists(self):
        fast, _ = device_pair()
        fast.start_recording()
        fast.idle(0.4e-3)
        segments = fast.stop_recording()
        assert segments == list(segments)
        assert segments == SegmentArray.from_segments(list(segments))
        assert not (segments == list(segments)[:-1])

    def test_empty_recording_equals_empty_list(self):
        fast, _ = device_pair()
        assert fast.stop_recording() == []

    def test_from_segments_round_trip(self):
        fast, _ = device_pair()
        fast.start_recording()
        fast.idle(0.6e-3)
        segments = fast.stop_recording()
        rebuilt = SegmentArray.from_segments([segments[i] for i in range(len(segments))])
        assert rebuilt == segments
