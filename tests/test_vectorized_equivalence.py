"""Equivalence tests: the array-based LOI/profile pipeline vs its oracles.

LOI extraction, profile stitching and the full nine-step profiler must
produce bit-identical results to the retained scalar oracles
(:func:`~repro.core.timesync.extract_lois_reference`,
:func:`~repro.core.timesync.extract_lois_unsynchronized_reference`,
:func:`~repro.core.profile.profile_from_lois_reference`) and to a
from-scratch :meth:`ExecutionTimeBinner.bin` over the same run records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.binning import ExecutionTimeBinner
from repro.core.profile import (
    FineGrainProfile,
    ProfileKind,
    ProfilePoint,
    profile_from_lois_reference,
)
from repro.core.profiler import FinGraVProfiler, ProfilerConfig
from repro.core.records import ExecutionTiming, PowerReading, RunRecord, TimestampAnchor
from repro.core.stitching import mean_duration_or_zero
from repro.core.timesync import (
    extract_lois,
    extract_lois_reference,
    extract_lois_unsynchronized,
    extract_lois_unsynchronized_reference,
    match_execution,
    match_execution_positions,
    synchronizer_for_run,
)
from repro.gpu.backend import SimulatedDeviceBackend
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm

COUNTER_HZ = 100e6
EPOCH_OFFSET = 7.25


def ticks(cpu_time_s: float) -> int:
    return int(round((cpu_time_s + EPOCH_OFFSET) * COUNTER_HZ))


def synthetic_run(readings_at, executions_spec, run_index=0, gapless=False):
    """Build a run with readings at chosen CPU times and explicit executions.

    ``executions_spec`` is a list of (start, end) tuples; ``gapless`` asserts
    they are back-to-back so boundary ties are exercised.
    """
    timing = tuple(
        ExecutionTiming(index=i, cpu_start_s=start, cpu_end_s=end)
        for i, (start, end) in enumerate(executions_spec)
    )
    if gapless:
        for before, after in zip(timing, timing[1:]):
            assert before.cpu_end_s == after.cpu_start_s
    readings = tuple(
        PowerReading(
            gpu_timestamp_ticks=ticks(t),
            window_s=1e-3,
            total_w=300.0 + i,
            components={"xcd": 200.0 + i, "iod": 60.0, "hbm": 40.0},
        )
        for i, t in enumerate(readings_at)
    )
    first_start = timing[0].cpu_start_s
    anchor = TimestampAnchor(
        gpu_ticks=ticks(first_start - 1e-3),
        cpu_time_after_s=first_start - 1e-3 + 10e-6,
        round_trip_s=20e-6,
    )
    return RunRecord(
        run_index=run_index,
        kernel_name="synthetic",
        readings=readings,
        executions=timing,
        anchor=anchor,
        logger_period_s=1e-3,
        counter_frequency_hz=COUNTER_HZ,
        pre_delay_s=0.0,
        metadata={"logger_start_cpu_s": first_start - 3e-3},
    )


def assert_identical_lois(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.run_index == b.run_index
        assert a.execution_index == b.execution_index
        assert a.window_end_cpu_s == b.window_end_cpu_s
        assert a.toi_s == b.toi_s
        assert a.toi_fraction == b.toi_fraction
        assert a.reading is b.reading


class TestExtractionEquivalence:
    def test_synthetic_run_synchronized(self):
        run = synthetic_run(
            readings_at=(1.99990, 2.00003, 2.00017, 2.00032, 2.00055, 2.00081),
            executions_spec=[(2.0, 2.0002), (2.00025, 2.00045), (2.0005, 2.0007)],
        )
        sync = synchronizer_for_run(run)
        assert_identical_lois(
            extract_lois(run, sync), extract_lois_reference(run, sync)
        )

    def test_synthetic_run_with_execution_filter(self):
        run = synthetic_run(
            readings_at=(2.00003, 2.00032, 2.00055),
            executions_spec=[(2.0, 2.0002), (2.00025, 2.00045), (2.0005, 2.0007)],
        )
        sync = synchronizer_for_run(run)
        assert_identical_lois(
            extract_lois(run, sync, execution_indices=[1, 2]),
            extract_lois_reference(run, sync, execution_indices=[1, 2]),
        )

    def test_synthetic_run_unsynchronized(self):
        run = synthetic_run(
            readings_at=(2.0001, 2.0003, 2.0006),
            executions_spec=[(2.0, 2.001), (2.0015, 2.0025), (2.003, 2.004)],
        )
        start = float(run.metadata["logger_start_cpu_s"])
        assert_identical_lois(
            extract_lois_unsynchronized(run, start),
            extract_lois_unsynchronized_reference(run, start),
        )

    def test_empty_readings(self):
        run = synthetic_run(readings_at=(), executions_spec=[(2.0, 2.0002)])
        sync = synchronizer_for_run(run)
        assert extract_lois(run, sync) == []
        assert extract_lois_unsynchronized(run, 1.0) == []

    def test_simulated_records(self, backend):
        kernel = cb_gemm(2048)
        for i in range(6):
            run = backend.run(kernel, executions=25, pre_delay_s=i * 2.3e-4, run_index=i)
            sync = synchronizer_for_run(run)
            assert_identical_lois(
                extract_lois(run, sync), extract_lois_reference(run, sync)
            )
            start = float(run.metadata["logger_start_cpu_s"])
            assert_identical_lois(
                extract_lois_unsynchronized(run, start),
                extract_lois_unsynchronized_reference(run, start),
            )


class TestBoundaryMatching:
    def test_shared_boundary_attributed_to_earlier_execution(self):
        # Back-to-back executions: a time exactly on the shared boundary is
        # contained by both; the scalar first-match picks the earlier one.
        run = synthetic_run(
            readings_at=(),
            executions_spec=[(2.0, 2.0002), (2.0002, 2.0004)],
            gapless=True,
        )
        boundary = 2.0002
        scalar = match_execution(run.executions, boundary)
        positions = match_execution_positions(run, np.asarray([boundary]))
        assert scalar is run.executions[positions[0]]
        assert positions[0] == 0

    def test_exact_start_and_end_included(self):
        run = synthetic_run(readings_at=(), executions_spec=[(2.0, 2.0002)])
        positions = match_execution_positions(
            run, np.asarray([2.0, 2.0002, 1.9999, 2.00021])
        )
        assert positions.tolist() == [0, 0, -1, -1]

    def test_idle_times_marked_minus_one(self):
        run = synthetic_run(
            readings_at=(),
            executions_spec=[(2.0, 2.0002), (2.0005, 2.0007)],
        )
        positions = match_execution_positions(run, np.asarray([2.0003, 2.00045]))
        assert positions.tolist() == [-1, -1]

    def test_matches_scalar_on_dense_grid(self):
        run = synthetic_run(
            readings_at=(),
            executions_spec=[(2.0, 2.0002), (2.0002, 2.00045), (2.0005, 2.0007)],
        )
        grid = np.linspace(1.9995, 2.00085, 400)
        positions = match_execution_positions(run, grid)
        for t, position in zip(grid, positions):
            scalar = match_execution(run.executions, float(t))
            if scalar is None:
                assert position == -1
            else:
                assert run.executions[position] is scalar


class TestBatchExtraction:
    def test_batch_matches_per_run_on_sequential_runs(self):
        from repro.core.timesync import extract_lois_batch

        runs = [
            synthetic_run(
                readings_at=(base + 0.00003, base + 0.00017, base + 0.0005),
                executions_spec=[(base, base + 0.0002), (base + 0.00025, base + 0.00045)],
                run_index=i,
            )
            for i, base in enumerate((2.0, 3.0, 4.0))
        ]
        batch = extract_lois_batch(runs)
        assert batch is not None
        for run, (lois, (times, positions)) in zip(runs, batch):
            sync = synchronizer_for_run(run)
            assert_identical_lois(lois, extract_lois(run, sync))
            assert times.shape[0] == len(run.readings)
            assert positions.shape[0] == len(run.readings)

    def test_overlapping_run_spans_rejected(self):
        # Run 0's execution span covers run 1's entirely; concatenated starts
        # and ends are still sorted, but batched matching cannot reproduce
        # per-run semantics, so the batch extractor must decline.
        from repro.core.timesync import extract_lois_batch

        overlapping = [
            synthetic_run(readings_at=(2.007,), executions_spec=[(2.0, 2.010)], run_index=0),
            synthetic_run(readings_at=(), executions_spec=[(2.002, 2.0105)], run_index=1),
            synthetic_run(readings_at=(), executions_spec=[(2.005, 2.012)], run_index=2),
        ]
        assert extract_lois_batch(overlapping) is None

    def test_stitcher_falls_back_for_overlapping_runs(self):
        from repro.core.stitching import ProfileStitcher

        overlapping = [
            synthetic_run(readings_at=(2.007,), executions_spec=[(2.0, 2.010)], run_index=0),
            synthetic_run(readings_at=(), executions_spec=[(2.002, 2.0105)], run_index=1),
        ]
        series = ProfileStitcher().collect(overlapping)
        sync = synchronizer_for_run(overlapping[0])
        assert_identical_lois(
            list(series.lois_by_run[0]), extract_lois_reference(overlapping[0], sync)
        )


def run_profile_oracle(result, golden):
    """Whole-run profile, one scalar point per reading (no batched matching)."""
    points = []
    durations = []
    for run in result.runs:
        if run.run_index not in golden:
            continue
        synchronizer = synchronizer_for_run(run, result.calibration)
        origin = run.first_execution.cpu_start_s
        durations.append(run.last_execution.cpu_end_s - origin)
        for reading in run.readings:
            window_end = synchronizer.cpu_time_of(reading.gpu_timestamp_ticks)
            execution = match_execution(run.executions, window_end)
            points.append(
                ProfilePoint(
                    time_s=window_end - origin,
                    powers_w={
                        component: reading.component(component)
                        for component in result.config.components
                        if reading.has_component(component)
                    },
                    run_index=run.run_index,
                    execution_index=-1 if execution is None else execution.index,
                )
            )
    return FineGrainProfile(
        kernel_name=result.kernel_name,
        kind=ProfileKind.RUN,
        points=tuple(points),
        execution_time_s=mean_duration_or_zero(durations),
    )


def oracle_result(result):
    """Golden runs and SSP/SSE/run profiles rebuilt from ``result.runs``."""
    runs = result.runs
    binning = ExecutionTimeBinner(result.binning.margin).bin(
        [run.ssp_execution.duration_s for run in runs]
    )
    golden_order = tuple(runs[i].run_index for i in binning.selected_indices)
    golden = set(golden_order)
    lois = [
        loi
        for run in runs
        if run.run_index in golden
        for loi in extract_lois_reference(run, synchronizer_for_run(run, result.calibration))
    ]

    def profile(kind, keep, execution_index):
        execution_time = mean_duration_or_zero(
            [run.execution(execution_index).duration_s for run in runs if run.run_index in golden]
        )
        return profile_from_lois_reference(
            result.kernel_name, kind, [loi for loi in lois if keep(loi)], execution_time,
            components=result.config.components,
        )

    ssp_start = result.plan.ssp_index
    sse_index = result.plan.sse_index
    return {
        "golden_run_indices": golden_order,
        "ssp_profile": profile(
            ProfileKind.SSP, lambda loi: loi.execution_index >= ssp_start, ssp_start
        ),
        "sse_profile": profile(
            ProfileKind.SSE, lambda loi: loi.execution_index == sse_index, sse_index
        ),
        "run_profile": run_profile_oracle(result, golden),
    }


class TestProfilerEquivalence:
    @pytest.fixture(scope="class")
    def results(self):
        backend = SimulatedDeviceBackend(spec=mi300x_spec(), seed=31)
        profiler = FinGraVProfiler(
            backend, ProfilerConfig(seed=311, max_additional_runs=80)
        )
        result = profiler.profile(cb_gemm(2048), runs=12)
        return result, oracle_result(result)

    @pytest.mark.parametrize("attribute", ["ssp_profile", "sse_profile", "run_profile"])
    def test_profiles_bit_identical(self, results, attribute):
        result, oracle = results
        pv, pl = getattr(result, attribute), oracle[attribute]
        assert len(pv) > 0
        assert len(pv) == len(pl)
        assert pv.execution_time_s == pl.execution_time_s
        assert np.array_equal(pv.times(), pl.times())
        assert pv.components == pl.components
        for component in pv.components:
            assert np.array_equal(pv.series(component), pl.series(component))
        assert pv.run_indices() == pl.run_indices()
        assert np.array_equal(pv.columns().execution_index, pl.columns().execution_index)

    def test_same_runs_and_golden_selection(self, results):
        result, oracle = results
        # The top-up loop really ran, so the incremental binner was extended.
        assert result.num_runs > 12
        assert result.golden_run_indices == oracle["golden_run_indices"]
        assert result.num_golden_runs < result.num_runs
        assert result.ssp_loi_count == len(oracle["ssp_profile"])


class TestConfigOverrides:
    def test_zero_adjacent_margin_override_not_ignored(self, backend):
        # A tiny but explicit binning margin must not fall back to guidance.
        profiler = FinGraVProfiler(
            backend,
            ProfilerConfig(
                seed=3,
                binning_margin=1e-9,
                max_additional_runs=0,
                refine_ssp_with_power_search=False,
            ),
        )
        result = profiler.profile(cb_gemm(4096), runs=8)
        assert result.binning is not None
        assert result.binning.margin == 1e-9
