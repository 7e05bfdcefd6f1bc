"""CPU-GPU time synchronisation and LOI/TOI identification (paper S2).

The on-GPU power logger tags samples with GPU timestamp-counter values and is
agnostic of kernel start/end events, which the host observes in its own clock
domain.  FinGraV bridges the two domains with a single anchor per run -- a GPU
timestamp read from the CPU just before the executions -- plus a separately
benchmarked read delay:

    capture_cpu_time ~= cpu_time_after_read - round_trip + one_way_delay
    cpu_time(ticks)  = capture_cpu_time + (ticks - anchor_ticks) / counter_hz

With the mapping in hand, each power reading's averaging window can be placed
on the CPU timeline, matched to the execution it overlaps (the log of
interest, LOI) and to the position within that execution where the window
ended (the time of interest, TOI).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .records import (
    DelayCalibration,
    ExecutionTiming,
    ExecutionTimings,
    LogOfInterest,
    PowerReading,
    RunRecord,
    TimestampAnchor,
)


@dataclass(frozen=True)
class ClockSynchronizer:
    """Maps GPU timestamp-counter ticks to CPU time for one run."""

    anchor: TimestampAnchor
    counter_frequency_hz: float
    calibration: DelayCalibration | None = None

    def __post_init__(self) -> None:
        if self.counter_frequency_hz <= 0:
            raise ValueError("counter frequency must be positive")

    @property
    def anchor_capture_cpu_s(self) -> float:
        """Estimated CPU time at which the anchor ticks were captured on the GPU.

        The host observed the read *returning* at ``cpu_time_after_s`` after a
        measured ``round_trip_s``; the capture happened roughly one calibrated
        one-way delay after the read was issued.  Without a calibration we
        fall back to the midpoint of the round trip.
        """
        issue_time = self.anchor.cpu_time_after_s - self.anchor.round_trip_s
        if self.calibration is not None:
            return issue_time + self.calibration.one_way_delay_s
        return issue_time + self.anchor.round_trip_s / 2.0

    def cpu_time_of(self, gpu_ticks: int) -> float:
        """CPU time corresponding to a GPU timestamp-counter value."""
        delta_ticks = gpu_ticks - self.anchor.gpu_ticks
        return self.anchor_capture_cpu_s + delta_ticks / self.counter_frequency_hz

    def cpu_times_of(self, gpu_ticks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cpu_time_of` over an array of counter values.

        Performs the same float64 operations element-wise, so results are
        bit-identical to the scalar mapping.
        """
        ticks = np.asarray(gpu_ticks, dtype=np.int64)
        delta_ticks = ticks - self.anchor.gpu_ticks
        return self.anchor_capture_cpu_s + delta_ticks / self.counter_frequency_hz

    def gpu_ticks_of(self, cpu_time_s: float) -> int:
        """Inverse mapping (useful for tests and for window placement)."""
        delta_s = cpu_time_s - self.anchor_capture_cpu_s
        return self.anchor.gpu_ticks + int(round(delta_s * self.counter_frequency_hz))


@dataclass(frozen=True)
class NaiveIndexSynchronizer:
    """The *unsynchronised* baseline mapping (paper Figure 5, red profile).

    A common shortcut is to ignore the GPU timestamps entirely and assume the
    k-th sample in the collected buffer was taken k sampling periods after the
    host started the logger.  Because the logger free-runs on its own grid
    (and because of the CPU-GPU launch path), this mis-places samples by up to
    a full sampling period, attributing power to the wrong executions.
    """

    logger_start_cpu_s: float
    period_s: float

    def cpu_time_of_index(self, sample_index: int) -> float:
        if sample_index < 0:
            raise ValueError("sample index must be non-negative")
        return self.logger_start_cpu_s + (sample_index + 1) * self.period_s

    def cpu_times_of_indices(self, num_samples: int) -> np.ndarray:
        """Vectorized window-end times of samples ``0..num_samples-1``."""
        if num_samples < 0:
            raise ValueError("sample count must be non-negative")
        return self.logger_start_cpu_s + np.arange(1, num_samples + 1) * self.period_s


def match_execution(
    executions: Sequence[ExecutionTiming], cpu_time_s: float
) -> ExecutionTiming | None:
    """Return the execution whose span contains ``cpu_time_s`` (None if idle)."""
    for execution in executions:
        if execution.contains(cpu_time_s):
            return execution
    return None


def match_execution_positions(run: RunRecord, cpu_times_s: np.ndarray) -> np.ndarray:
    """Vectorized :func:`match_execution` over an array of CPU times.

    Returns, for every time, the position into ``run.executions`` of the
    execution whose (inclusive) span contains it, or ``-1`` when the time
    falls into idle.  Each time is matched against the sorted execution
    start/end arrays with one :func:`np.searchsorted`; a time landing exactly
    on a boundary shared by two back-to-back executions is attributed to the
    earlier one, matching the scalar first-match semantics for chronologically
    ordered executions.
    """
    times = np.asarray(cpu_times_s, dtype=float)
    result = np.full(times.shape, -1, dtype=np.int64)
    if not run.executions or times.size == 0:
        return result
    cols = run.execution_columns()
    starts, ends = cols.starts_s, cols.ends_s
    if cols.num_executions > 1 and bool(
        np.any(np.diff(ends) < 0)
        or np.any(cols.positions != np.arange(cols.num_executions))
    ):
        # Nested executions or a non-chronological tuple: binary search cannot
        # reproduce first-match semantics, fall back to the scalar scan.
        for i, t in enumerate(times):
            execution = match_execution(run.executions, float(t))
            if execution is not None:
                result[i] = run.executions.index(execution)
        return result
    pos = _first_containing_positions(starts, ends, times)
    valid = pos >= 0
    result[valid] = cols.positions[pos[valid]]
    return result


def _first_containing_positions(
    starts: np.ndarray, ends: np.ndarray, times: np.ndarray,
    same_group: np.ndarray | None = None, group_of_time: np.ndarray | None = None,
) -> np.ndarray:
    """Index of the first execution containing each time (-1 when none).

    ``starts`` and ``ends`` must both be non-decreasing (host-observed
    back-to-back executions may *slightly* overlap because of observation
    jitter, but their ends stay ordered).  A binary search finds the latest
    start at or before each time; a vectorized back-walk then shifts to the
    earliest execution still containing the time, which reproduces the scalar
    first-match exactly -- including shared-boundary and small-overlap cases.
    ``same_group``/``group_of_time`` optionally restrict matches to executions
    belonging to the same group (run) as the time being matched.
    """
    pos = np.searchsorted(starts, times, side="right") - 1
    if starts.shape[0] > 1:
        while True:
            prev = np.maximum(pos - 1, 0)
            can_shift = (pos > 0) & (times <= ends[prev])
            if same_group is not None:
                can_shift &= same_group[prev] == group_of_time
            if not bool(np.any(can_shift)):
                break
            pos = np.where(can_shift, pos - 1, pos)
    clipped = np.maximum(pos, 0)
    valid = (pos >= 0) & (times >= starts[clipped]) & (times <= ends[clipped])
    if same_group is not None:
        valid &= same_group[clipped] == group_of_time
    return np.where(valid, pos, -1)


def _lois_from_window_ends(
    run: RunRecord, window_ends: np.ndarray, wanted: set[int] | None
) -> list[LogOfInterest]:
    """Turn matched window-end times into :class:`LogOfInterest` objects."""
    positions = match_execution_positions(run, window_ends)
    lois: list[LogOfInterest] = []
    for i in np.nonzero(positions >= 0)[0]:
        execution = run.executions[positions[i]]
        if wanted is not None and execution.index not in wanted:
            continue
        lois.append(_loi_from(run.run_index, run.readings[i], float(window_ends[i]), execution))
    return lois


def _loi_from(
    run_index: int,
    reading: PowerReading,
    window_end_cpu_s: float,
    execution: ExecutionTiming,
) -> LogOfInterest:
    toi = window_end_cpu_s - execution.cpu_start_s
    duration = execution.duration_s
    fraction = toi / duration if duration > 0 else 0.0
    return LogOfInterest(
        run_index=run_index,
        execution_index=execution.index,
        reading=reading,
        window_end_cpu_s=window_end_cpu_s,
        toi_s=toi,
        toi_fraction=min(max(fraction, 0.0), 1.0),
    )


def _execution_starts(run: RunRecord) -> np.ndarray:
    """Execution start times in record order, without materialising objects."""
    executions = run.executions
    if isinstance(executions, ExecutionTimings):
        return executions.starts_s
    return np.fromiter(
        map(attrgetter("cpu_start_s"), executions), dtype=float, count=len(executions)
    )


def _execution_ends(run: RunRecord) -> np.ndarray:
    """Execution end times in record order, without materialising objects."""
    executions = run.executions
    if isinstance(executions, ExecutionTimings):
        return executions.ends_s
    return np.fromiter(
        map(attrgetter("cpu_end_s"), executions), dtype=float, count=len(executions)
    )


#: Per-run result of a batched extraction: the LOIs plus the reading-match
#: cache (window-end CPU times and matched execution positions, -1 for idle)
#: that profile builders reuse to avoid re-matching readings.
BatchExtraction = tuple[list[LogOfInterest], tuple[np.ndarray, np.ndarray]]


def extract_lois_batch(
    runs: Sequence[RunRecord],
    calibration: DelayCalibration | None = None,
    synchronize: bool = True,
) -> list[BatchExtraction] | None:
    """Extract the LOIs of many runs in one vectorized pass.

    All runs' readings are mapped to CPU time and matched against a single
    concatenated execution table with one binary search; a run-ownership check
    keeps a reading from ever matching another run's execution, so results
    are bit-identical to per-run extraction.  Requires every run to have
    executions, the concatenated execution starts *and* ends to be
    non-decreasing (true for records produced by a backend even when
    host-observation jitter makes back-to-back executions overlap slightly),
    and the runs' overall execution spans to be disjoint.  Returns ``None``
    when a precondition fails so callers can fall back to the per-run path.
    """
    if not runs:
        return []
    exec_counts = [run.num_executions for run in runs]
    if min(exec_counts) == 0:
        return None
    starts = np.concatenate([_execution_starts(run) for run in runs])
    ends = np.concatenate([_execution_ends(run) for run in runs])
    if starts.shape[0] > 1 and bool(
        np.any(np.diff(starts) < 0) or np.any(np.diff(ends) < 0)
    ):
        return None
    reading_counts = [len(run.readings) for run in runs]
    reading_offsets = np.concatenate([[0], np.cumsum(reading_counts)])
    exec_offsets = np.concatenate([[0], np.cumsum(exec_counts)])
    if len(runs) > 1:
        # Runs' execution spans must be disjoint: an execution of one run
        # overlapping another run's span would block the same-group back-walk
        # and silently diverge from per-run extraction.
        run_first_starts = starts[exec_offsets[:-1]]
        run_last_ends = ends[exec_offsets[1:] - 1]
        if bool(np.any(run_last_ends[:-1] > run_first_starts[1:])):
            return None
    run_ordinals = np.arange(len(runs))
    reading_owner = np.repeat(run_ordinals, reading_counts)
    exec_owner = np.repeat(run_ordinals, exec_counts)

    # The per-run columnar views (cached on the records and reused by every
    # later profile build) supply the ticks; reading *objects* are touched
    # only for the few matched LOIs below.
    ticks = np.concatenate(
        [run.reading_columns().gpu_timestamp_ticks for run in runs]
    )
    if synchronize:
        capture = np.asarray(
            [
                synchronizer_for_run(run, calibration).anchor_capture_cpu_s
                for run in runs
            ],
            dtype=float,
        )
        anchor_ticks = np.asarray([run.anchor.gpu_ticks for run in runs], dtype=np.int64)
        frequency = np.asarray([run.counter_frequency_hz for run in runs], dtype=float)
        delta = ticks - np.repeat(anchor_ticks, reading_counts)
        times = np.repeat(capture, reading_counts) + delta / np.repeat(
            frequency, reading_counts
        )
    else:
        logger_start = np.asarray(
            [
                float(run.metadata.get("logger_start_cpu_s", run.anchor.cpu_time_after_s))
                for run in runs
            ],
            dtype=float,
        )
        period = np.asarray([run.logger_period_s for run in runs], dtype=float)
        sample_index = np.arange(ticks.shape[0]) - np.repeat(
            reading_offsets[:-1], reading_counts
        )
        times = np.repeat(logger_start, reading_counts) + (
            sample_index + 1
        ) * np.repeat(period, reading_counts)

    pos = _first_containing_positions(
        starts, ends, times, same_group=exec_owner, group_of_time=reading_owner
    )
    local_positions = np.where(pos >= 0, pos - exec_offsets[reading_owner], -1)

    # Build the (few) LOI objects in one global pass, then slice the
    # reading-match arrays per run.
    lois_per_run: list[list[LogOfInterest]] = [[] for _ in runs]
    for i in np.nonzero(pos >= 0)[0]:
        ordinal = reading_owner[i]
        run = runs[ordinal]
        lois_per_run[ordinal].append(
            _loi_from(
                run.run_index,
                run.readings[i - reading_offsets[ordinal]],
                float(times[i]),
                run.executions[local_positions[i]],
            )
        )
    return [
        (
            lois_per_run[ordinal],
            (
                times[reading_offsets[ordinal]:reading_offsets[ordinal + 1]],
                local_positions[reading_offsets[ordinal]:reading_offsets[ordinal + 1]],
            ),
        )
        for ordinal in range(len(runs))
    ]


def extract_lois(
    run: RunRecord,
    synchronizer: ClockSynchronizer,
    execution_indices: Iterable[int] | None = None,
) -> list[LogOfInterest]:
    """Identify the logs of interest of one run (methodology step 7).

    A reading becomes an LOI when, after mapping its GPU timestamp into CPU
    time, its averaging-window end falls inside one of the run's executions.
    ``execution_indices`` optionally restricts the match to specific
    executions (e.g. only the SSP execution).

    All readings are mapped to CPU time in one array operation and matched
    against the sorted execution spans with a single binary search; the result
    is bit-identical to :func:`extract_lois_reference`.
    """
    wanted = set(execution_indices) if execution_indices is not None else None
    columns = run.reading_columns()
    if columns.num_readings == 0:
        return []
    window_ends = synchronizer.cpu_times_of(columns.gpu_timestamp_ticks)
    return _lois_from_window_ends(run, window_ends, wanted)


def extract_lois_reference(
    run: RunRecord,
    synchronizer: ClockSynchronizer,
    execution_indices: Iterable[int] | None = None,
) -> list[LogOfInterest]:
    """Pure-Python reference implementation of :func:`extract_lois`.

    One reading at a time, one linear execution scan per reading.  Kept as
    the oracle the equivalence tests and benchmarks pin the array-based path
    against; no configuration selects it.
    """
    wanted = set(execution_indices) if execution_indices is not None else None
    lois: list[LogOfInterest] = []
    for reading in run.readings:
        window_end = synchronizer.cpu_time_of(reading.gpu_timestamp_ticks)
        execution = match_execution(run.executions, window_end)
        if execution is None:
            continue
        if wanted is not None and execution.index not in wanted:
            continue
        lois.append(_loi_from(run.run_index, reading, window_end, execution))
    return lois


def extract_lois_unsynchronized(
    run: RunRecord,
    logger_start_cpu_s: float,
    execution_indices: Iterable[int] | None = None,
) -> list[LogOfInterest]:
    """LOI extraction using the naive index-based mapping (baseline)."""
    wanted = set(execution_indices) if execution_indices is not None else None
    if not run.readings:
        return []
    naive = NaiveIndexSynchronizer(
        logger_start_cpu_s=logger_start_cpu_s, period_s=run.logger_period_s
    )
    window_ends = naive.cpu_times_of_indices(len(run.readings))
    return _lois_from_window_ends(run, window_ends, wanted)


def extract_lois_unsynchronized_reference(
    run: RunRecord,
    logger_start_cpu_s: float,
    execution_indices: Iterable[int] | None = None,
) -> list[LogOfInterest]:
    """Pure-Python reference implementation of :func:`extract_lois_unsynchronized`."""
    naive = NaiveIndexSynchronizer(
        logger_start_cpu_s=logger_start_cpu_s, period_s=run.logger_period_s
    )
    wanted = set(execution_indices) if execution_indices is not None else None
    lois: list[LogOfInterest] = []
    for sample_index, reading in enumerate(run.readings):
        window_end = naive.cpu_time_of_index(sample_index)
        execution = match_execution(run.executions, window_end)
        if execution is None:
            continue
        if wanted is not None and execution.index not in wanted:
            continue
        lois.append(_loi_from(run.run_index, reading, window_end, execution))
    return lois


def synchronizer_for_run(
    run: RunRecord, calibration: DelayCalibration | None = None
) -> ClockSynchronizer:
    """Build the per-run synchroniser from the run's anchor."""
    return ClockSynchronizer(
        anchor=run.anchor,
        counter_frequency_hz=run.counter_frequency_hz,
        calibration=calibration,
    )


__all__ = [
    "ClockSynchronizer",
    "NaiveIndexSynchronizer",
    "match_execution",
    "match_execution_positions",
    "extract_lois",
    "extract_lois_batch",
    "extract_lois_reference",
    "extract_lois_unsynchronized",
    "extract_lois_unsynchronized_reference",
    "synchronizer_for_run",
]
