"""Scalar oracles for LOI extraction and profile construction.

One reading at a time, one linear execution scan per reading, one frozen
point per LOI or reading.  The columnar pipeline in :mod:`repro.core.timesync` /
:mod:`repro.core.stitching` must match these bit for bit; the equivalence
tests and the profiler-scaling benchmarks import them from here.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.profile import FineGrainProfile, ProfileKind, ProfilePoint
from repro.core.records import (
    COMPONENT_KEYS,
    ExecutionTiming,
    LogOfInterest,
    PowerReading,
    RunRecord,
)
from repro.core.stitching import mean_duration_or_zero
from repro.core.timesync import ClockSynchronizer, match_execution, synchronizer_for_run


def loi_from(
    run_index: int,
    reading: PowerReading,
    window_end_cpu_s: float,
    execution: ExecutionTiming,
) -> LogOfInterest:
    """One validated LOI, with the TOI arithmetic written out per reading."""
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


def extract_lois_reference(
    run: RunRecord,
    synchronizer: ClockSynchronizer,
    execution_indices: Iterable[int] | None = None,
) -> list[LogOfInterest]:
    """Scalar oracle of :func:`repro.core.timesync.extract_lois`."""
    wanted = set(execution_indices) if execution_indices is not None else None
    lois: list[LogOfInterest] = []
    for reading in run.readings:
        window_end = synchronizer.cpu_time_of(reading.gpu_timestamp_ticks)
        execution = match_execution(run.executions, window_end)
        if execution is None:
            continue
        if wanted is not None and execution.index not in wanted:
            continue
        lois.append(loi_from(run.run_index, reading, window_end, execution))
    return lois


def extract_lois_unsynchronized_reference(
    run: RunRecord,
    logger_start_cpu_s: float,
    execution_indices: Iterable[int] | None = None,
) -> list[LogOfInterest]:
    """Scalar oracle of :func:`repro.core.timesync.extract_lois_unsynchronized`."""
    wanted = set(execution_indices) if execution_indices is not None else None
    lois: list[LogOfInterest] = []
    for sample_index, reading in enumerate(run.readings):
        # The k-th sample is assumed taken k + 1 logger periods after start.
        window_end = logger_start_cpu_s + (sample_index + 1) * run.logger_period_s
        execution = match_execution(run.executions, window_end)
        if execution is None:
            continue
        if wanted is not None and execution.index not in wanted:
            continue
        lois.append(loi_from(run.run_index, reading, window_end, execution))
    return lois


def point_from_loi(
    loi: LogOfInterest, components: Sequence[str] = COMPONENT_KEYS
) -> ProfilePoint:
    """Convert a log of interest into a profile point keyed by TOI."""
    powers = {}
    for component in components:
        if loi.reading.has_component(component):
            powers[component] = loi.reading.component(component)
    return ProfilePoint(
        time_s=loi.toi_s,
        powers_w=powers,
        run_index=loi.run_index,
        execution_index=loi.execution_index,
    )


def profile_from_lois_reference(
    kernel_name: str,
    kind: ProfileKind,
    lois: Sequence[LogOfInterest],
    execution_time_s: float,
    components: Sequence[str] = COMPONENT_KEYS,
    metadata: Mapping[str, object] | None = None,
) -> FineGrainProfile:
    """Object-based oracle of :func:`repro.core.profile.profile_from_lois`."""
    points = tuple(point_from_loi(loi, components) for loi in lois)
    return FineGrainProfile(
        kernel_name=kernel_name,
        kind=kind,
        points=points,
        execution_time_s=execution_time_s,
        metadata=dict(metadata or {}),
    )


def run_profile_reference(
    kernel_name: str,
    runs: Sequence[RunRecord],
    calibration=None,
    synchronize: bool = True,
    components: Sequence[str] = COMPONENT_KEYS,
    golden: Iterable[int] | None = None,
) -> FineGrainProfile:
    """Scalar oracle of ``ProfileStitcher.run_profile``: one point per reading."""
    selected = set(golden) if golden is not None else None
    points = []
    durations = []
    for run in runs:
        if (selected is not None and run.run_index not in selected) or not run.executions:
            continue
        if synchronize:
            synchronizer = synchronizer_for_run(run, calibration)
            window_ends = [
                synchronizer.cpu_time_of(reading.gpu_timestamp_ticks) for reading in run.readings
            ]
        else:
            start = float(run.metadata.get("logger_start_cpu_s", run.anchor.cpu_time_after_s))
            window_ends = [
                start + (k + 1) * run.logger_period_s for k in range(len(run.readings))
            ]
        origin = run.first_execution.cpu_start_s
        durations.append(run.last_execution.cpu_end_s - origin)
        for reading, window_end in zip(run.readings, window_ends):
            execution = match_execution(run.executions, window_end)
            points.append(
                ProfilePoint(
                    time_s=window_end - origin,
                    powers_w={
                        component: reading.component(component)
                        for component in components
                        if reading.has_component(component)
                    },
                    run_index=run.run_index,
                    execution_index=-1 if execution is None else execution.index,
                )
            )
    return FineGrainProfile(
        kernel_name=kernel_name,
        kind=ProfileKind.RUN,
        points=tuple(points),
        execution_time_s=mean_duration_or_zero(durations),
    )
