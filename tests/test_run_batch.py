"""``SimulatedDeviceBackend.run_batch``: one call, the same runs as ``run``.

A batch of N runs must be bit-identical to N sequential ``run`` calls with
the same pre-delays: every record, the device state it leaves behind
(clock, warmth, firmware state and events, control accumulator, cache
states, the last run's execution log) and both RNG streams (the device's
and the backend's reading-noise stream).  The compiled engine runs the
whole batch as one ``batch`` kernel call, so this is pinned for every
kernel provider loadable in the process, every sampler, batch sizes 1, 2
and 17, preceding sequences, the unfusable-config object branch and
buffer overflows inside a batch.  Rejected calls leave the device as it
was.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.gpu import fastcore
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.scheduler import LaunchConfig
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm, mb_gemv

SPEC = mi300x_spec()
KERNEL = cb_gemm(1024)
PRECEDING = ((mb_gemv(4096), 2), (KERNEL, 1))


def _usable_providers() -> dict[str, fastcore.KernelBundle]:
    bundles = {}
    for name in fastcore.PROVIDER_CHAINS["auto"]:
        bundle, _error = fastcore._load_provider(name)
        if bundle is not None and fastcore.self_check(bundle) is None:
            bundles[name] = bundle
    return bundles


PROVIDERS = _usable_providers()


def make_backend(sampler="averaging", provider=None, engine="compiled", launch=None):
    backend = SimulatedDeviceBackend(
        spec=SPEC, seed=31, config=BackendConfig(sampler=sampler, engine=engine),
        launch_config=launch,
    )
    if provider is not None:
        backend.device._fc = PROVIDERS[provider]
        backend._sampler._fc = PROVIDERS[provider]
    return backend


def state(backend):
    """Everything the runs leave behind, comparable with ``==``."""
    device = backend.device
    firmware = device.firmware
    control = device._control
    return (
        device.now_s(),
        device.thermal.warmth,
        firmware._state,
        firmware._frequency_ghz,
        firmware._overdraw_accum_s,
        firmware._throttle_until_s,
        firmware._idle_accum_s,
        firmware._last_power_w,
        (control.energy_j, control.time_s, control.active_time_s),
        device._next_control_s,
        {
            name: (cache.consecutive_executions, cache.last_end_s)
            for name, cache in device._cache_states.items()
        },
        device.executions(),
        list(device.firmware_events()),
        device.is_recording,
        device.rng.bit_generator.state,
        backend._noise_rng.bit_generator.state,
    )


def sequential(backend, kernel, executions, delays, start, preceding):
    return tuple(
        backend.run(kernel, executions, delay, start + offset, preceding)
        for offset, delay in enumerate(delays)
    )


def delays_for(count, seed):
    return np.random.default_rng(seed).uniform(0.0, 2.2e-3, size=count)


@pytest.mark.parametrize("sampler", ["averaging", "coarse", "instantaneous"])
@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_batch_equals_sequential_runs(provider, sampler):
    batched = make_backend(sampler, provider)
    stepped = make_backend(sampler, provider)
    start = 0
    # 17, 2 and 1 runs back to back, with and without preceding work; the
    # zero delay takes the skipped pre-delay idle of the kernels.
    for count, executions, preceding in ((17, 5, PRECEDING), (2, 7, ()), (1, 4, PRECEDING[:1])):
        delays = delays_for(count, seed=count)
        delays[0] = 0.0
        got = batched.run_batch(KERNEL, executions, delays, start, preceding)
        want = sequential(stepped, KERNEL, executions, delays.tolist(), start, preceding)
        assert len(got) == count
        assert got == want
        assert [r.run_index for r in got] == list(range(start, start + count))
        assert state(batched) == state(stepped)
        start += count


def test_records_are_views_into_the_batch_arrays():
    records = make_backend().run_batch(KERNEL, 6, delays_for(3, seed=5), 0, PRECEDING)
    for column in (
        lambda r: r.readings.total_w,
        lambda r: r.readings.gpu_timestamp_ticks,
        lambda r: r.executions.starts_s,
        lambda r: r.preceding_executions.ends_s,
    ):
        arrays = [column(record) for record in records]
        assert arrays[0].base is not None
        assert all(array.base is arrays[0].base for array in arrays)


@pytest.mark.parametrize("case", ["no-execution-jitter", "exact-event-timestamps", "reference"])
def test_unfusable_batches_equal_sequential_runs(case):
    kernel = KERNEL.activity_descriptor(SPEC)
    launch = None
    engine = "compiled"
    if case == "no-execution-jitter":
        kernel = dataclasses.replace(
            kernel, variation=dataclasses.replace(kernel.variation, execution_cv=0.0)
        )
    elif case == "exact-event-timestamps":
        launch = LaunchConfig(event_timestamp_error_s=0.0)
    else:
        engine = "reference"
    batched = make_backend(engine=engine, launch=launch)
    stepped = make_backend(engine=engine, launch=launch)
    delays = delays_for(4, seed=9)
    got = batched.run_batch(kernel, 5, delays, 3, PRECEDING)
    want = sequential(stepped, kernel, 5, delays.tolist(), 3, PRECEDING)
    assert got == want
    assert all(isinstance(record.readings, tuple) for record in got)
    assert state(batched) == state(stepped)


@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_overflow_inside_a_batch_resumes_bit_identically(provider):
    small = make_backend(provider=provider)
    device = small.device
    device._fc_seg = np.empty((3, 5))
    device._fc_ev = np.empty((1, 4))
    device._fc_cum = np.empty((2, 3))
    device._fc_times = np.empty(2)
    device._fc_powers = np.empty((2, 3))
    stepped = make_backend(provider=provider)
    delays = delays_for(6, seed=4)
    got = small.run_batch(cb_gemm(8192), 3, delays, 0, PRECEDING[:1])
    want = sequential(stepped, cb_gemm(8192), 3, delays.tolist(), 0, PRECEDING[:1])
    assert device._fc_seg.shape[0] > 3
    assert device._fc_ev.shape[0] > 1
    assert device._fc_cum.shape[0] > 2
    assert device._fc_times.shape[0] > 2
    assert got == want
    assert state(small) == state(stepped)


class TestRejectedBatches:
    """Bad input raises before the device or either RNG stream moves."""

    @pytest.fixture()
    def backend(self):
        backend = make_backend()
        backend.run_batch(KERNEL, 4, [0.3e-3, 0.0], 0)
        return backend

    @pytest.mark.parametrize(
        "executions, delays, preceding, error",
        [
            (0, [0.1e-3], (), ValueError),
            (True, [0.1e-3], (), TypeError),
            (2.5, [0.1e-3], (), TypeError),
            (4, [0.1e-3], ((mb_gemv(4096), 0),), ValueError),
            (4, [0.1e-3, -1e-6], (), ValueError),
            (4, [0.1e-3, float("inf")], (), ValueError),
            (4, [float("nan")], (), ValueError),
            (4, [[0.1e-3]], (), ValueError),
            (4, [0.1e-3], ((object(), 2),), TypeError),
        ],
    )
    def test_rejected_batch_leaves_the_device_unchanged(
        self, backend, executions, delays, preceding, error
    ):
        before = state(backend)
        with pytest.raises(error):
            backend.run_batch(KERNEL, executions, delays, 5, preceding)
        assert state(backend) == before

    def test_empty_batch_is_a_no_op(self, backend):
        before = state(backend)
        assert backend.run_batch(KERNEL, 4, [], 5) == ()
        assert state(backend) == before


class TestNonFiniteDelays:
    """Regression: an infinite pre-delay grew the kernel buffers without
    bound, and a NaN one was recorded as the run's pre-delay."""

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    @pytest.mark.parametrize("delay", [float("inf"), float("nan")])
    def test_run_rejects_non_finite_pre_delay(self, engine, delay):
        backend = make_backend(engine=engine)
        before = state(backend)
        with pytest.raises(ValueError, match="finite"):
            backend.run(KERNEL, executions=3, pre_delay_s=delay)
        assert state(backend) == before

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    @pytest.mark.parametrize("duration", [float("inf"), float("nan")])
    def test_idle_rejects_non_finite_duration(self, engine, duration):
        backend = make_backend(engine=engine)
        before = state(backend)
        with pytest.raises(ValueError, match="finite"):
            backend.device.idle(duration)
        assert state(backend) == before
