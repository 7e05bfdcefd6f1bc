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

Extraction is columnar: :func:`extract_lois_batch` (many runs, one pass) and
:func:`run_loi_columns` (one run) return :class:`~repro.core.records.LoiColumns`
through one helper; :func:`extract_lois` and :func:`extract_lois_unsynchronized`
materialise :class:`~repro.core.records.LogOfInterest` objects from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .records import (
    DelayCalibration,
    ExecutionTiming,
    LogOfInterest,
    LoiColumns,
    LoiRows,
    PowerReadings,
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
    falls into idle.  Each time is matched against the execution start/end
    arrays with one :func:`np.searchsorted`; a time landing exactly on a
    boundary shared by two back-to-back executions is attributed to the
    earlier one, matching the scalar first-match semantics for chronologically
    ordered executions.
    """
    times = np.asarray(cpu_times_s, dtype=float)
    if not run.executions or times.size == 0:
        return np.full(times.shape, -1, dtype=np.int64)
    _, starts, ends = run.execution_arrays()
    if _chronological(starts, ends):
        return _first_containing_positions(starts, ends, times)
    # Nested executions or a non-chronological tuple: binary search cannot
    # reproduce first-match semantics, fall back to the scalar scan.
    result = np.full(times.shape, -1, dtype=np.int64)
    for i, t in enumerate(times):
        execution = match_execution(run.executions, float(t))
        if execution is not None:
            result[i] = run.executions.index(execution)
    return result


def _chronological(starts: np.ndarray, ends: np.ndarray) -> bool:
    """Whether execution starts *and* ends are both non-decreasing."""
    return starts.shape[0] < 2 or not bool(
        np.any(np.diff(starts) < 0) or np.any(np.diff(ends) < 0)
    )


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


def _reading_ticks(run: RunRecord) -> np.ndarray:
    """The readings' timestamp ticks, straight from a :class:`PowerReadings` view."""
    readings = run.readings
    if isinstance(readings, PowerReadings):
        return readings.gpu_timestamp_ticks
    return np.fromiter(
        (reading.gpu_timestamp_ticks for reading in readings), dtype=np.int64, count=len(readings)
    )


def _offsets(counts: Sequence[int]) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _loi_columns(
    runs: Sequence[RunRecord],
    executions: tuple[np.ndarray, np.ndarray, np.ndarray],
    exec_offsets: np.ndarray,
    reading_offsets: np.ndarray,
    times: np.ndarray,
    positions: np.ndarray,
    wanted: set[int] | None = None,
) -> LoiColumns:
    """The LOI columns of ``runs`` -- the one place TOIs are computed.

    ``executions`` holds the runs' execution (indices, starts, ends), run
    after run (``exec_offsets`` bound each run); ``times`` holds every
    reading's window-end CPU time, run after run (``reading_offsets``), and
    ``positions`` its matched execution as an index into ``executions`` (-1
    for idle).  ``wanted`` keeps only LOIs of those execution indices.  Per
    LOI: ``toi = end - start`` and ``fraction = toi / duration`` (0 for a
    zero-length execution) clipped to [0, 1]; a negative TOI or a non-finite
    fraction raises :class:`ValueError`.
    """
    indices, starts, ends = executions
    rows = np.flatnonzero(positions >= 0)
    matched = positions[rows]
    execution_index = indices[matched]
    if wanted is not None:
        keep = np.isin(execution_index, np.fromiter(wanted, dtype=np.int64, count=len(wanted)))
        rows, matched, execution_index = rows[keep], matched[keep], execution_index[keep]
    start = starts[matched]
    duration = ends[matched] - start
    toi = times[rows] - start
    fraction = np.divide(toi, duration, out=np.zeros_like(toi), where=duration > 0)
    np.clip(fraction, 0.0, 1.0, out=fraction)
    if np.any(toi < 0):
        raise ValueError("time of interest cannot be negative")
    if not np.isfinite(fraction).all():
        raise ValueError("toi_fraction must be finite")
    owner = np.searchsorted(reading_offsets, rows, side="right") - 1
    run_index = np.fromiter((run.run_index for run in runs), dtype=np.int64, count=len(runs))
    return LoiColumns(
        runs=tuple(runs),
        offsets=_offsets(np.bincount(owner, minlength=len(runs))).tolist(),
        run_index=run_index[owner],
        execution_index=execution_index,
        last_execution_index=indices[exec_offsets[owner + 1] - 1],
        reading_pos=rows - reading_offsets[owner],
        window_end_s=times[rows],
        toi_s=toi,
        toi_fraction=fraction,
    )


def run_loi_columns(
    run: RunRecord,
    window_ends_s: np.ndarray,
    execution_indices: Iterable[int] | None = None,
) -> LoiColumns:
    """One run's LOI columns, given its readings' window-end CPU times.

    Matches through :func:`match_execution_positions`, so nested or
    non-chronological executions keep the scalar first-match semantics.
    """
    wanted = set(execution_indices) if execution_indices is not None else None
    times = np.asarray(window_ends_s, dtype=float)
    executions = run.execution_arrays()
    return _loi_columns(
        (run,),
        executions,
        _offsets([executions[0].shape[0]]),
        _offsets([times.shape[0]]),
        times,
        match_execution_positions(run, times),
        wanted,
    )


#: Per-run result of a batched extraction: the run's LOI rows (``len`` is its
#: LOI count; every run's rows share the call's one :class:`LoiColumns`
#: chunk) plus the reading-match cache (window-end CPU times and matched
#: execution positions, -1 for idle) that profile builders reuse to avoid
#: re-matching readings.
BatchExtraction = tuple[LoiRows, tuple[np.ndarray, np.ndarray]]


def extract_lois_batch(
    runs: Sequence[RunRecord],
    calibration: DelayCalibration | None = None,
    synchronize: bool = True,
) -> list[BatchExtraction] | None:
    """Extract the LOIs of many runs in one vectorized pass.

    All runs' readings are mapped to CPU time and matched against a single
    concatenated execution table with one binary search; a run-ownership check
    keeps a reading from ever matching another run's execution, so results
    are bit-identical to per-run extraction.  The LOIs come back as one
    :class:`LoiColumns` chunk; no per-LOI object is built.  Requires every run
    to have executions, the concatenated execution starts *and* ends to be
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
    per_run = [run.execution_arrays() for run in runs]
    executions = tuple(np.concatenate(column) for column in zip(*per_run))
    _, starts, ends = executions
    if not _chronological(starts, ends):
        return None
    reading_counts = [len(run.readings) for run in runs]
    reading_offsets = _offsets(reading_counts)
    exec_offsets = _offsets(exec_counts)
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

    if synchronize:
        # ClockSynchronizer.anchor_capture_cpu_s and cpu_times_of, per run.
        round_trip = np.array([run.anchor.round_trip_s for run in runs])
        read_start = np.array([run.anchor.cpu_time_after_s for run in runs]) - round_trip
        if calibration is not None:
            capture = read_start + calibration.one_way_delay_s
        else:
            capture = read_start + round_trip / 2.0
        anchor_ticks = np.array([run.anchor.gpu_ticks for run in runs], dtype=np.int64)
        frequency = np.array([run.counter_frequency_hz for run in runs], dtype=float)
        ticks = np.concatenate([_reading_ticks(run) for run in runs])
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
        sample_index = np.arange(reading_offsets[-1]) - np.repeat(
            reading_offsets[:-1], reading_counts
        )
        times = np.repeat(logger_start, reading_counts) + (
            sample_index + 1
        ) * np.repeat(period, reading_counts)

    pos = _first_containing_positions(
        starts, ends, times, same_group=exec_owner, group_of_time=reading_owner
    )
    columns = _loi_columns(runs, executions, exec_offsets, reading_offsets, times, pos)
    local_positions = np.where(pos >= 0, pos - exec_offsets[reading_owner], -1)
    bounds = reading_offsets.tolist()
    return [
        (LoiRows(columns, ordinal), (times[lo:hi], local_positions[lo:hi]))
        for ordinal, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
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
    against the sorted execution spans with a single binary search; the
    objects are materialised from :func:`run_loi_columns`.
    """
    window_ends = synchronizer.cpu_times_of(_reading_ticks(run))
    return run_loi_columns(run, window_ends, execution_indices).lois(0)


def extract_lois_unsynchronized(
    run: RunRecord,
    logger_start_cpu_s: float,
    execution_indices: Iterable[int] | None = None,
) -> list[LogOfInterest]:
    """LOI extraction using the naive index-based mapping (baseline)."""
    naive = NaiveIndexSynchronizer(
        logger_start_cpu_s=logger_start_cpu_s, period_s=run.logger_period_s
    )
    window_ends = naive.cpu_times_of_indices(len(run.readings))
    return run_loi_columns(run, window_ends, execution_indices).lois(0)


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
    "extract_lois_unsynchronized",
    "run_loi_columns",
    "synchronizer_for_run",
]
