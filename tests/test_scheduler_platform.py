"""Unit tests for the CPU-side launch path and the multi-GPU platform."""

import numpy as np
import pytest

from repro.gpu.activity import KernelActivityDescriptor, flat_profile_phases
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.device import SimulatedGPU
from repro.gpu.platform import InfinityPlatform
from repro.gpu.scheduler import KernelLauncher, LaunchConfig
from repro.gpu.spec import mi300x_platform_spec, mi300x_spec
from repro.kernels.workloads import cb_gemm


@pytest.fixture()
def launcher(device):
    return KernelLauncher(device, LaunchConfig())


@pytest.fixture()
def descriptor(spec):
    return cb_gemm(4096).activity_descriptor(spec)


class TestKernelLauncher:
    def test_launch_returns_observed_times(self, launcher, descriptor):
        observed = launcher.launch(descriptor)
        assert observed.cpu_end_s > observed.cpu_start_s
        assert observed.kernel_name == descriptor.name

    def test_observed_duration_close_to_ground_truth(self, launcher, descriptor):
        observed = launcher.launch(descriptor)
        assert observed.cpu_duration_s == pytest.approx(
            observed.ground_truth.duration_s, rel=0.05
        )

    def test_launch_latency_delays_start(self, launcher, descriptor):
        submit = launcher.device.now_s()
        observed = launcher.launch(descriptor)
        assert observed.ground_truth.start_s > submit

    def test_launch_sequence_indices_and_ordering(self, launcher, descriptor):
        observed = launcher.launch_sequence(descriptor, executions=4)
        assert [o.execution_index for o in observed] == [0, 1, 2, 3]
        for a, b in zip(observed, observed[1:]):
            assert b.cpu_start_s > a.cpu_end_s

    def test_launch_sequence_start_index(self, launcher, descriptor):
        observed = launcher.launch_sequence(descriptor, executions=2, start_index=5)
        assert [o.execution_index for o in observed] == [5, 6]

    def test_launch_sequence_rejects_zero(self, launcher, descriptor):
        with pytest.raises(ValueError):
            launcher.launch_sequence(descriptor, executions=0)

    def test_invalid_launch_config_rejected(self):
        with pytest.raises(ValueError):
            LaunchConfig(launch_latency_s=-1.0).validate()

    def test_sequence_timings_match_launch_sequence(self, spec, descriptor):
        # The fused instrumented run observes the same host timings as the
        # step-by-step launch loop over the same timeline and RNG stream.
        fused = SimulatedGPU(spec, seed=77, engine="compiled")
        stepped = KernelLauncher(SimulatedGPU(spec, seed=77, engine="compiled"))
        run = fused.instrumented_runs(
            [(descriptor, 6)], LaunchConfig(), 8e-3, 1.5e-3, np.array([0.4e-3]), 1.3e-3
        )
        device = stepped.device
        device.park(8e-3)
        device.start_recording()
        device.idle(1.5e-3)
        anchor = device.read_timestamp()
        device.idle(0.4e-3)
        variation = device.draw_run_variation(descriptor)
        reference = stepped.launch_sequence(descriptor, executions=6, run_variation=variation)
        device.idle(1.3e-3)
        assert run.segments == device.stop_recording()
        assert run.anchor_ticks.tolist() == [anchor.gpu_ticks]
        assert run.marks[0, 2] == anchor.cpu_time_after_s
        assert run.round_trips.tolist() == [anchor.round_trip_s]
        assert run.variations == [[variation]]
        assert run.cpu_starts.tolist() == [[o.cpu_start_s for o in reference]]
        assert run.cpu_ends.tolist() == [[o.cpu_end_s for o in reference]]
        assert fused.executions() == [o.ground_truth for o in reference]
        assert fused.now_s() == device.now_s()


def submicrosecond_descriptor(duration_s=0.5e-6):
    """A ~0.5 us kernel: shorter than the host timestamp-error spread."""
    return KernelActivityDescriptor(
        name="tiny-kernel",
        base_duration_s=duration_s,
        compute_utilization=0.3,
        cold_executions=0,
        phases=flat_profile_phases(),
    )


class TestObservedDurationClamp:
    """Regression: independent start/end timestamp errors used to let
    sub-microsecond kernels report ``cpu_end_s < cpu_start_s``."""

    @pytest.mark.parametrize("compiled", [True, False])
    def test_observed_duration_never_negative(self, spec, compiled):
        device = SimulatedGPU(spec, seed=5, engine="compiled" if compiled else "reference")
        launcher = KernelLauncher(device, LaunchConfig())
        descriptor = submicrosecond_descriptor()
        observed = launcher.launch_sequence(descriptor, executions=300)
        durations = [o.cpu_duration_s for o in observed]
        assert min(durations) >= 0.0
        # The scenario actually exercises the clamp: with a 0.6 us error on
        # each timestamp, a 0.5 us kernel inverts frequently.
        assert durations.count(0.0) > 0
        for o in observed:
            assert o.ground_truth.duration_s > 0

    @pytest.mark.parametrize("compiled", [True, False])
    def test_backend_run_accepts_submicrosecond_kernel(self, spec, compiled):
        # Before the clamp, ExecutionTiming's validation made this raise.
        engine = "compiled" if compiled else "reference"
        backend = SimulatedDeviceBackend(
            spec=mi300x_spec(), seed=5, config=BackendConfig(engine=engine)
        )
        record = backend.run(
            submicrosecond_descriptor(), executions=120, pre_delay_s=0.0, run_index=0
        )
        assert all(t.duration_s >= 0 for t in record.executions)


class TestInfinityPlatform:
    @pytest.fixture()
    def platform(self):
        return InfinityPlatform(mi300x_platform_spec())

    def test_fully_connected(self, platform):
        assert platform.is_fully_connected()
        assert len(platform.links) == 8 * 7 // 2
        assert len(set(platform.links)) == len(platform.links)

    def test_links_are_every_rank_pair_with_uniform_fabric(self, platform):
        links = platform.links
        assert links == tuple(sorted(links))
        assert all(src < dst for src, dst in links)
        for src, dst in links:
            assert platform.link_bandwidth(src, dst) == platform.link_bandwidth(dst, src)
            assert platform.link_latency(src, dst) == platform.link_latency(0, 1)
        for rank in range(platform.num_gpus):
            assert sorted(
                {dst for src, dst in links if src == rank}
                | {src for src, dst in links if dst == rank}
            ) == platform.peers_of(rank)

    def test_peers_of_each_rank(self, platform):
        for rank in range(platform.num_gpus):
            peers = platform.peers_of(rank)
            assert len(peers) == 7
            assert rank not in peers

    def test_link_bandwidth_and_latency(self, platform):
        assert platform.link_bandwidth(0, 1) == pytest.approx(64e9)
        assert platform.link_latency(0, 1) > 0

    def test_no_self_link(self, platform):
        with pytest.raises(ValueError):
            platform.link_bandwidth(0, 0)

    def test_invalid_rank_rejected(self, platform):
        with pytest.raises(ValueError):
            platform.peers_of(99)

    def test_parallel_transfer_scaling(self, platform):
        small = platform.parallel_peer_transfer(8 * 1024)
        large = platform.parallel_peer_transfer(128 * 1024 ** 2)
        assert small.latency_bound
        assert not large.latency_bound
        assert large.duration_s > small.duration_s

    def test_parallel_transfer_bandwidth_bounded_by_link(self, platform):
        estimate = platform.parallel_peer_transfer(128 * 1024 ** 2)
        # Effective bandwidth cannot exceed aggregate link bandwidth.
        assert estimate.effective_bandwidth_bytes_per_s <= platform.aggregate_fabric_bandwidth(0)

    def test_negative_transfer_rejected(self, platform):
        with pytest.raises(ValueError):
            platform.parallel_peer_transfer(-1.0)

    def test_profiled_gpu_available(self, platform):
        assert platform.profiled_gpu.spec.num_xcds == 8
