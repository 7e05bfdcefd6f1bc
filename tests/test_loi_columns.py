"""Columnar LOI extraction and stitching vs the scalar oracles.

Hypothesis draws multi-run record sets -- shared execution boundaries that
readings land on exactly, zero-duration executions, jittered back-to-back
overlap, runs without readings or without LOIs, tuple-backed and columnar
records -- and checks that the LOIs materialised from the batch extractor and
from the stitched series, and the profiles built from the series, equal the
scalar oracles in ``loi_oracles.py`` bit for bit, in stitch order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import ProfileKind
from repro.core.records import (
    DelayCalibration,
    ExecutionTiming,
    ExecutionTimings,
    PowerReading,
    PowerReadings,
    RunRecord,
    TimestampAnchor,
)
from repro.core.stitching import ProfileStitcher, StitchedRunSeries, mean_duration_or_zero
from repro.core.timesync import (
    _loi_columns,
    _offsets,
    extract_lois,
    extract_lois_batch,
    extract_lois_unsynchronized,
    synchronizer_for_run,
)
from repro.kernels.workloads import cb_gemm

from loi_oracles import (
    extract_lois_reference,
    extract_lois_unsynchronized_reference,
    profile_from_lois_reference,
    run_profile_reference,
)

COUNTER_HZ = 100e6
EPOCH_OFFSET = 7.25
COMPONENTS = ("xcd", "iod", "hbm")
RUN_SPACING_S = 5e-3


@st.composite
def run_sets(draw):
    """(runs, calibration): consecutive runs whose boundaries readings hit."""
    calibration = draw(st.sampled_from([None, DelayCalibration(18e-6, 1e-6, 8)]))
    columnar = draw(st.booleans())
    runs = []
    origin = 2.0
    for run_index in range(draw(st.integers(1, 4))):
        anchor = TimestampAnchor(
            gpu_ticks=int(round((origin + EPOCH_OFFSET) * COUNTER_HZ)),
            cpu_time_after_s=origin + 10e-6,
            round_trip_s=draw(st.sampled_from([0.0, 13e-6, 20e-6])),
        )
        offsets = sorted(
            draw(st.lists(st.integers(0, 250_000), max_size=10, unique=True))
        )
        ticks = [anchor.gpu_ticks + offset for offset in offsets]
        probe = RunRecord(
            run_index=run_index, kernel_name="k", readings=(), executions=(),
            anchor=anchor, logger_period_s=1e-3, counter_frequency_hz=COUNTER_HZ,
            pre_delay_s=0.0,
        )
        window_ends = [
            synchronizer_for_run(probe, calibration).cpu_time_of(tick) for tick in ticks
        ]
        executions = _draw_executions(draw, origin, window_ends)
        readings = _draw_readings(draw, ticks, columnar)
        if columnar:
            executions = ExecutionTimings(
                [e.index for e in executions],
                [e.cpu_start_s for e in executions],
                [e.cpu_end_s for e in executions],
                ["k"] * len(executions),
            )
        runs.append(
            RunRecord(
                run_index=run_index * 3 + 1,
                kernel_name="k",
                readings=readings,
                executions=executions,
                anchor=anchor,
                logger_period_s=draw(st.sampled_from([1e-4, 2.5e-4, 1e-3])),
                counter_frequency_hz=COUNTER_HZ,
                pre_delay_s=0.0,
                metadata={"logger_start_cpu_s": origin - draw(st.sampled_from([0.0, 3e-4]))},
            )
        )
        # Mostly disjoint runs; a short spacing may overlap them, which the
        # batch extractor must decline (the series then extracts per run).
        origin += draw(st.sampled_from([RUN_SPACING_S] * 5 + [1e-3]))
    return runs, calibration


def _draw_executions(draw, origin, window_ends):
    first_index = draw(st.sampled_from([0, 3]))
    executions = []
    cursor = origin + draw(st.sampled_from([0.0, 1e-4, 4e-4]))
    for i in range(draw(st.sampled_from([0] + [1, 2, 3, 4, 5] * 3))):
        link = draw(st.sampled_from(["shared", "gap", "overlap", "snap"]))
        if executions and link == "overlap":
            start = cursor - draw(st.sampled_from([1e-7, 2e-6]))
        elif link == "gap":
            start = cursor + draw(st.sampled_from([5e-5, 3e-4]))
        elif link == "snap" and window_ends:
            start = max(cursor, draw(st.sampled_from(window_ends)))
        else:
            start = cursor
        duration = draw(st.sampled_from([0.0, 5e-5, 2e-4, 6e-4]))
        end = start + duration
        if window_ends and draw(st.booleans()):
            # End exactly on a later reading's window end (a shared boundary).
            later = [t for t in window_ends if t >= start]
            if later:
                end = draw(st.sampled_from(later))
        executions.append(ExecutionTiming(first_index + i, start, end, "k"))
        cursor = end
    return tuple(executions)


def _draw_readings(draw, ticks, columnar):
    total = [300.0 + i * 1.5 for i in range(len(ticks))]
    rows = [[200.0 + i, 60.0, 40.0 - i] for i in range(len(ticks))]
    if columnar:
        return PowerReadings(ticks, 1e-3, total, COMPONENTS, np.asarray(rows).reshape(-1, 3))
    drop_hbm = draw(st.sets(st.integers(0, 9), max_size=3))
    return tuple(
        PowerReading(
            gpu_timestamp_ticks=tick,
            window_s=1e-3,
            total_w=total[i],
            components={
                name: value for name, value in zip(COMPONENTS, rows[i])
                if not (name == "hbm" and i in drop_hbm)
            },
        )
        for i, tick in enumerate(ticks)
    )


def oracle_lois(run, calibration, synchronize):
    if synchronize:
        return extract_lois_reference(run, synchronizer_for_run(run, calibration))
    start = float(run.metadata.get("logger_start_cpu_s", run.anchor.cpu_time_after_s))
    return extract_lois_unsynchronized_reference(run, start)


def assert_identical_lois(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.run_index, a.execution_index) == (b.run_index, b.execution_index)
        assert a.window_end_cpu_s == b.window_end_cpu_s
        assert a.toi_s == b.toi_s
        assert a.toi_fraction == b.toi_fraction
        assert a.reading is b.reading
        assert a == b


def assert_same_profile(built, reference):
    assert built.kind == reference.kind
    assert built.execution_time_s == reference.execution_time_s
    assert len(built) == len(reference)
    if len(reference):
        # (An empty point tuple carries no component keys to compare.)
        assert built.columns().equals(reference.columns())


def last_index(run):
    return run.executions[-1].index


class TestColumnarExtractionProperties:
    @given(data=run_sets(), synchronize=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_batch_and_series_match_oracle(self, data, synchronize):
        runs, calibration = data
        expected = {run.run_index: oracle_lois(run, calibration, synchronize) for run in runs}
        in_order = [loi for run in runs for loi in expected[run.run_index]]

        batch = extract_lois_batch(
            runs, calibration=calibration if synchronize else None, synchronize=synchronize
        )
        if batch is not None:
            assert len(batch) == len(runs)
            for run, (rows, (times, positions)) in zip(runs, batch):
                assert rows.columns.runs[rows.ordinal] is run
                assert len(rows) == len(expected[run.run_index])
                assert_identical_lois(rows.lois(), expected[run.run_index])
                assert times.shape == positions.shape == (len(run.readings),)

        stitcher = ProfileStitcher(calibration=calibration, synchronize=synchronize)
        series = stitcher.collect(runs)
        assert series.num_lois == len(in_order)
        assert_identical_lois(series.all_lois(), in_order)
        assert list(series.lois_by_run) == [run.run_index for run in runs]
        for run in runs:
            assert_identical_lois(series.lois_by_run[run.run_index], expected[run.run_index])
        last = [
            loi for run in runs for loi in expected[run.run_index]
            if loi.execution_index == last_index(run)
        ]
        assert_identical_lois(series.lois_for_last_execution(), last)
        assert series.count_last_execution_lois() == len(last)
        golden = [runs[0].run_index]
        assert series.count_last_execution_lois(golden) == sum(
            1 for loi in last if loi.run_index in golden
        )

        # Grown a run at a time, the series holds the same LOIs.
        grown = stitcher.collect(runs[:1])
        for run in runs[1:]:
            stitcher.extend(grown, [run])
        assert_identical_lois(grown.all_lois(), in_order)
        assert grown.count_last_execution_lois() == len(last)

        ssp_time = mean_duration_or_zero(
            [run.executions[-1].duration_s for run in runs if run.executions]
        )
        for built in (stitcher.ssp_profile(series), stitcher.ssp_profile(grown)):
            assert_same_profile(
                built, profile_from_lois_reference("k", ProfileKind.SSP, last, ssp_time)
            )
        for index in (0, 3, 4):
            durations = [
                run.execution(index).duration_s for run in runs
                if any(e.index == index for e in run.executions)
            ]
            selected = [loi for loi in in_order if loi.execution_index == index]
            assert_same_profile(
                stitcher.sse_profile(series, index),
                profile_from_lois_reference(
                    "k", ProfileKind.SSE, selected, mean_duration_or_zero(durations)
                ),
            )

    @given(data=run_sets(), synchronize=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_run_profile_matches_oracle(self, data, synchronize):
        # Tuple-backed readings may disagree on their component sets, which
        # takes the per-reading presence-mask path.
        runs, calibration = data
        stitcher = ProfileStitcher(calibration=calibration, synchronize=synchronize)
        series = stitcher.collect(runs)
        for golden in (None, [runs[-1].run_index]):
            assert_same_profile(
                stitcher.run_profile(series, golden),
                run_profile_reference("k", runs, calibration, synchronize, golden=golden),
            )

    @given(data=run_sets(), wanted=st.sets(st.integers(0, 8), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_per_run_extraction_with_filter_matches_oracle(self, data, wanted):
        runs, calibration = data
        for run in runs:
            sync = synchronizer_for_run(run, calibration)
            assert_identical_lois(
                extract_lois(run, sync, execution_indices=wanted),
                extract_lois_reference(run, sync, execution_indices=wanted),
            )
            start = float(run.metadata["logger_start_cpu_s"])
            assert_identical_lois(
                extract_lois_unsynchronized(run, start, execution_indices=wanted),
                extract_lois_unsynchronized_reference(run, start, execution_indices=wanted),
            )


class TestLoiChecks:
    def _run(self):
        executions = (ExecutionTiming(0, 2.0, 2.001, "k"),)
        reading = PowerReading(gpu_timestamp_ticks=5, window_s=1e-3, total_w=300.0)
        return RunRecord(
            run_index=0, kernel_name="k", readings=(reading,), executions=executions,
            anchor=TimestampAnchor(0, 2.0, 0.0), logger_period_s=1e-3,
            counter_frequency_hz=COUNTER_HZ, pre_delay_s=0.0,
        )

    def _columns(self, window_end):
        run = self._run()
        executions = (np.array([0]), np.array([2.0]), np.array([2.001]))
        return _loi_columns(
            (run,), executions, _offsets([1]), _offsets([1]),
            np.array([window_end]), np.array([0]),
        )

    def test_forced_negative_toi_raises(self):
        # A reading forced onto an execution that starts after its window end.
        with pytest.raises(ValueError, match="cannot be negative"):
            self._columns(1.9995)

    def test_non_finite_fraction_raises(self):
        with pytest.raises(ValueError, match="finite"):
            self._columns(float("nan"))

    def test_valid_match_is_kept(self):
        columns = self._columns(2.0005)
        assert len(columns) == 1
        assert columns.toi_fraction.tolist() == [pytest.approx(0.5)]


class TestSeriesCounting:
    def test_unfiltered_last_execution_count_does_not_rebuild_arrays(
        self, backend, monkeypatch
    ):
        # CB-8K executions outlast the logger period, so every run's last
        # execution carries LOIs.
        kernel = cb_gemm(8192)
        records = [
            backend.run(kernel, executions=4, pre_delay_s=i * 2.3e-4, run_index=i)
            for i in range(6)
        ]
        stitcher = ProfileStitcher()
        series = stitcher.collect(records[:3])
        series.lois_for_last_execution()  # builds (and caches) the series arrays
        stitcher.extend(series, records[3:])
        expected = len(stitcher.collect(records).lois_for_last_execution())
        assert expected > 0

        def no_rebuild(self, name):
            raise AssertionError(f"series array {name!r} rebuilt for an unfiltered count")

        monkeypatch.setattr(StitchedRunSeries, "_column", no_rebuild)
        assert series.count_last_execution_lois() == expected
