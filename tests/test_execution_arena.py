"""Tests for the execution-record arena and the lazy record views.

The compiled-engine backend stages launch-sequence timings in an
:class:`ExecutionArena` and ships power readings as a columnar
:class:`PowerReadings` view; both must be drop-in replacements for the
reference path's tuples of frozen record objects -- same values, equality,
iteration, pickling -- while exposing their arrays to columnar consumers.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.records import (
    ExecutionArena,
    ExecutionColumns,
    ExecutionTiming,
    ExecutionTimings,
    PowerReading,
    PowerReadings,
    ReadingColumns,
)
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm, mb_gemv


def make_view(n: int = 4) -> ExecutionTimings:
    starts = 1e-3 + np.arange(n) * 50e-6
    return ExecutionTimings(
        indices=np.arange(n),
        starts_s=starts,
        ends_s=starts + 30e-6,
        kernel_names=["K"] * n,
    )


def make_readings(n: int = 5) -> PowerReadings:
    return PowerReadings(
        gpu_timestamp_ticks=np.arange(n) * 1000 + 17,
        window_s=1e-3,
        total_w=100.0 + np.arange(n, dtype=float),
        component_names=("xcd", "iod", "hbm"),
        components_w=np.arange(3 * n, dtype=float).reshape(n, 3),
    )


class TestExecutionTimingsView:
    def test_materialises_reference_objects(self):
        view = make_view(3)
        reference = tuple(
            ExecutionTiming(
                index=i,
                cpu_start_s=float(view.starts_s[i]),
                cpu_end_s=float(view.ends_s[i]),
                kernel_name="K",
            )
            for i in range(3)
        )
        assert len(view) == 3
        assert tuple(view) == reference
        assert view == reference  # and against a plain tuple
        assert view[1] == reference[1]
        assert view[-1] == reference[-1]
        assert view[1:] == reference[1:]

    def test_repeated_indexing_returns_same_object(self):
        view = make_view()
        assert view[2] is view[2]
        materialised = tuple(view)
        assert view[2] is materialised[2]

    def test_durations_match_object_path(self):
        view = make_view()
        assert view.durations_s().tolist() == [t.duration_s for t in view]

    def test_pickle_round_trip(self):
        view = make_view()
        _ = view[0]  # populate the per-item cache; it must not be pickled
        clone = pickle.loads(pickle.dumps(view))
        assert clone == view
        assert clone._items is None

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            ExecutionTimings([0, 1], [0.0], [1.0], ["K"])


class TestPowerReadingsView:
    def test_materialises_reference_objects(self):
        view = make_readings(4)
        reference = tuple(
            PowerReading(
                gpu_timestamp_ticks=int(view.gpu_timestamp_ticks[i]),
                window_s=1e-3,
                total_w=float(view.total_w[i]),
                components={
                    "xcd": float(view.components_w[i, 0]),
                    "iod": float(view.components_w[i, 1]),
                    "hbm": float(view.components_w[i, 2]),
                },
            )
            for i in range(4)
        )
        assert tuple(view) == reference
        assert view == reference
        assert view[2] == reference[2]
        assert view[2] is view[2]

    def test_pickle_round_trip(self):
        view = make_readings()
        clone = pickle.loads(pickle.dumps(view))
        assert clone == view

    def test_reading_columns_adoption_matches_object_build(self):
        view = make_readings(6)
        adopted = ReadingColumns.from_readings(view)
        rebuilt = ReadingColumns(tuple(view))
        assert adopted.uniform_components and rebuilt.uniform_components
        assert np.array_equal(adopted.gpu_timestamp_ticks, rebuilt.gpu_timestamp_ticks)
        assert np.array_equal(adopted.window_s, rebuilt.window_s)
        assert list(adopted.powers_w) == list(rebuilt.powers_w)
        for name, values in rebuilt.powers_w.items():
            assert np.array_equal(adopted.powers_w[name], values)

    def test_execution_columns_adoption_matches_object_build(self):
        view = make_view(5)
        adopted = ExecutionColumns.from_executions(view)
        rebuilt = ExecutionColumns.from_executions(tuple(view))
        for attribute in ("indices", "starts_s", "ends_s", "positions"):
            assert np.array_equal(
                getattr(adopted, attribute), getattr(rebuilt, attribute)
            )


class TestExecutionArena:
    def test_take_snapshots_and_resets(self):
        arena = ExecutionArena()
        append_start, append_end = arena.stage("A", 0, 2)
        append_start(1.0), append_end(2.0)
        append_start(3.0), append_end(4.0)
        append_start, append_end = arena.stage("B", 7, 1)
        append_start(5.0), append_end(6.0)
        view = arena.take()
        assert view.kernel_names == ("A", "A", "B")
        assert view.indices.tolist() == [0, 1, 7]
        assert view.starts_s.tolist() == [1.0, 3.0, 5.0]
        assert arena.take() == ()  # reset after the snapshot

    def test_mismatched_staging_detected(self):
        arena = ExecutionArena()
        append_start, append_end = arena.stage("A", 0, 2)
        append_start(1.0), append_end(2.0)
        with pytest.raises(ValueError):
            arena.take()

    def test_snapshot_survives_arena_reuse(self):
        arena = ExecutionArena()
        append_start, append_end = arena.stage("A", 0, 1)
        append_start(1.0), append_end(2.0)
        first = arena.take()
        append_start, append_end = arena.stage("B", 0, 1)
        append_start(9.0), append_end(10.0)
        arena.take()
        assert first.starts_s.tolist() == [1.0]


class TestBackendRecordViews:
    """The arena path's records must be indistinguishable from the reference."""

    @pytest.fixture(scope="class")
    def record_pair(self):
        kernel = cb_gemm(2048)
        preceding = [(mb_gemv(4096), 3)]
        fast = SimulatedDeviceBackend(spec=mi300x_spec(), seed=11)
        reference = SimulatedDeviceBackend(
            spec=mi300x_spec(), seed=11, config=BackendConfig(engine="reference")
        )
        return (
            fast.run(kernel, executions=12, pre_delay_s=0.3e-3, run_index=2,
                     preceding=preceding),
            reference.run(kernel, executions=12, pre_delay_s=0.3e-3, run_index=2,
                          preceding=preceding),
        )

    def test_records_equal(self, record_pair):
        fast, reference = record_pair
        assert isinstance(fast.executions, ExecutionTimings)
        assert isinstance(fast.readings, PowerReadings)
        assert isinstance(fast.preceding_executions, ExecutionTimings)
        assert fast == reference

    def test_fast_accessors_match_reference(self, record_pair):
        fast, reference = record_pair
        assert fast.execution_durations() == reference.execution_durations()
        assert fast.execution(5) == reference.execution(5)
        with pytest.raises(KeyError):
            fast.execution(99)
        assert fast.ssp_execution == reference.ssp_execution

    def test_record_pickle_round_trip_drops_caches(self, record_pair):
        fast, _ = record_pair
        fast.reading_columns()
        fast.execution_columns()
        clone = pickle.loads(pickle.dumps(fast, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == fast
        assert "_reading_columns" not in clone.__dict__
        assert "_execution_columns" not in clone.__dict__
        # and the clone can rebuild its columns
        assert np.array_equal(
            clone.reading_columns().gpu_timestamp_ticks,
            fast.reading_columns().gpu_timestamp_ticks,
        )

    def test_ground_truth_execution_log_matches_reference(self, record_pair):
        kernel = cb_gemm(2048)
        fast = SimulatedDeviceBackend(spec=mi300x_spec(), seed=13)
        reference = SimulatedDeviceBackend(
            spec=mi300x_spec(), seed=13, config=BackendConfig(engine="reference")
        )
        fast.run(kernel, executions=6, pre_delay_s=0.0)
        reference.run(kernel, executions=6, pre_delay_s=0.0)
        fast_truth = fast.device.executions()
        reference_truth = reference.device.executions()
        assert len(fast_truth) == len(reference_truth) == 6
        for a, b in zip(fast_truth, reference_truth):
            assert a.kernel_name == b.kernel_name
            assert a.start_s == b.start_s
            assert a.end_s == b.end_s
            assert a.cold_caches == b.cold_caches
            # Engine tolerances mirror tests/test_device_equivalence.py (the
            # closed-form idle-span warmth bounds the power divergence).
            assert a.energy_j == pytest.approx(b.energy_j, rel=1e-9)
            assert a.mean_frequency_ghz == pytest.approx(b.mean_frequency_ghz, rel=1e-12)

    def test_execution_log_materialisation_matches_returned_result(self):
        device = SimulatedDeviceBackend(spec=mi300x_spec(), seed=17).device
        kernel = cb_gemm(2048).activity_descriptor(device.spec)
        device.start_recording()
        returned = [device.execute_kernel(kernel) for _ in range(3)]
        logged = device.executions()
        device.stop_recording()
        assert logged == returned  # exact float round trip through the log
