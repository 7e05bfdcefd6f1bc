"""Stitching logs of interest from many runs into fine-grain profiles (step 9).

With a 1 ms averaging logger and sub-millisecond kernels, each run contributes
at best a single power log for the execution of interest.  The fine-grain view
only appears when the logs of interest of many runs -- each taken at a
different time of interest thanks to the per-run random delays -- are plotted
together.  This module performs that stitching for the SSP/SSE profiles (TOI
on the x-axis) and for the whole-run profiles used by the methodology figures
(time since the first execution of the run on the x-axis).

A :class:`StitchedRunSeries` keeps one :class:`~repro.core.records.LoiColumns`
chunk per extraction call; profiles are masks and slices over their columns,
and :class:`~repro.core.records.LogOfInterest` objects are built only by the
object views (:meth:`StitchedRunSeries.all_lois` and friends).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .profile import FineGrainProfile, ProfileColumns, ProfileKind, component_column
from .records import (
    COMPONENT_KEYS,
    DelayCalibration,
    LogOfInterest,
    LoiColumns,
    LoiRows,
    RunRecord,
)
from .timesync import (
    extract_lois_batch,
    match_execution_positions,
    run_loi_columns,
    synchronizer_for_run,
)


class StitchedRunSeries:
    """All per-run LOI collections needed to assemble the standard profiles.

    The series grows incrementally: :meth:`ProfileStitcher.extend` adds the
    LOIs of newly collected runs without touching previously extracted ones.
    LOIs are stored as the :class:`LoiColumns` chunks the extractor returned
    (one per extraction call); the stitch-order arrays the profile builds and
    the profiler's top-up counts read are concatenated once per growth step.
    :class:`LogOfInterest` objects are materialised only by the object views
    (:meth:`all_lois`, :attr:`lois_by_run`, ...), memoised per run.
    """

    def __init__(self, kernel_name: str) -> None:
        self.kernel_name = kernel_name
        self._runs: dict[int, RunRecord] = {}
        self._rows: dict[int, LoiRows] = {}
        self._reading_match: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._chunks: list[LoiColumns] = []
        self._num_lois = 0
        self._num_last = 0
        self._lois: dict[int, tuple[LogOfInterest, ...]] = {}
        self._arrays: dict[str, np.ndarray] = {}
        self._power_columns: dict[str, tuple[np.ndarray, np.ndarray | None] | None] = {}

    @property
    def lois_by_run(self) -> Mapping[int, tuple[LogOfInterest, ...]]:
        return {run_index: self._lois_of(run_index) for run_index in self._runs}

    @property
    def runs(self) -> Mapping[int, RunRecord]:
        return self._runs

    @property
    def num_lois(self) -> int:
        return self._num_lois

    # ------------------------------------------------------------------ #
    # Incremental growth.
    # ------------------------------------------------------------------ #
    def add_chunk(
        self,
        columns: LoiColumns,
        reading_matches: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> None:
        """Stitch in the runs of one extraction and their LOI columns.

        ``reading_matches`` optionally carries each run's (window-end times,
        matched execution positions) arrays from the batched extractor, which
        profile builders reuse instead of re-matching every reading.
        """
        new_indices = [run.run_index for run in columns.runs]
        seen: set[int] = set()
        for run_index in new_indices:
            if run_index in self._runs or run_index in seen:
                raise ValueError(f"run {run_index} already stitched into this series")
            seen.add(run_index)
        for ordinal, run in enumerate(columns.runs):
            self._runs[run.run_index] = run
            self._rows[run.run_index] = LoiRows(columns, ordinal)
        if reading_matches is not None:
            self._reading_match.update(zip(new_indices, reading_matches))
        self._chunks.append(columns)
        if len(columns):
            self._num_lois += len(columns)
            self._num_last += int(
                np.count_nonzero(columns.execution_index == columns.last_execution_index)
            )
            self._arrays.clear()
            self._power_columns.clear()

    def reading_match(self, run_index: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Cached (window-end times, execution positions) for one run, if any."""
        return self._reading_match.get(run_index)

    # ------------------------------------------------------------------ #
    # LOI object views.
    # ------------------------------------------------------------------ #
    def _lois_of(self, run_index: int) -> tuple[LogOfInterest, ...]:
        lois = self._lois.get(run_index)
        if lois is None:
            lois = self._lois[run_index] = tuple(self._rows[run_index].lois())
        return lois

    def all_lois(self) -> list[LogOfInterest]:
        return [loi for run_index in self._runs for loi in self._lois_of(run_index)]

    def _select(self, mask: np.ndarray) -> list[LogOfInterest]:
        return [loi for loi, keep in zip(self.all_lois(), mask.tolist()) if keep]

    def lois_for_execution(self, execution_index: int) -> list[LogOfInterest]:
        return self._select(self._column("execution_index") == execution_index)

    def lois_for_last_execution(self) -> list[LogOfInterest]:
        return self._select(self._last_execution_mask())

    def lois_from_execution(self, min_execution_index: int) -> list[LogOfInterest]:
        """All LOIs whose execution index is at or past ``min_execution_index``."""
        return self._select(self._column("execution_index") >= min_execution_index)

    # ------------------------------------------------------------------ #
    # Columnar views and counts (profile builds, the profiler's top-up).
    # ------------------------------------------------------------------ #
    def _column(self, name: str) -> np.ndarray:
        """One LOI column over the whole series, in stitch order (cached)."""
        column = self._arrays.get(name)
        if column is None:
            parts = [getattr(chunk, name) for chunk in self._chunks if len(chunk)]
            if not parts:
                dtype = float if name == "toi_s" else np.int64
                column = np.zeros(0, dtype=dtype)
            else:
                column = parts[0] if len(parts) == 1 else np.concatenate(parts)
            self._arrays[name] = column
        return column

    def _last_execution_mask(self) -> np.ndarray:
        return self._column("execution_index") == self._column("last_execution_index")

    def loi_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(run_index, execution_index) arrays over all LOIs, in stitch order."""
        return self._column("run_index"), self._column("execution_index")

    def loi_toi_array(self) -> np.ndarray:
        """Times of interest over all LOIs, in stitch order."""
        return self._column("toi_s")

    def loi_last_execution_array(self) -> np.ndarray:
        """Per-LOI last-execution index of the LOI's own run, in stitch order."""
        return self._column("last_execution_index")

    def loi_power_column(
        self, component: str
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """(values, presence-mask) of one component across all LOIs.

        The mask is ``None`` when the component is present in every LOI's
        reading; the whole return is ``None`` when it is present in none.
        Columnar readings are gathered by index; otherwise the LOIs' reading
        objects go through :func:`component_column`.  Columns are built once
        per component and invalidated when runs are added.
        """
        if component not in self._power_columns:
            parts = [chunk.power_column(component) for chunk in self._chunks if len(chunk)]
            if all(part is not None for part in parts):
                values = np.concatenate(parts) if parts else np.zeros(0, dtype=float)
                column = (values, None)
            else:
                readings = [loi.reading for loi in self.all_lois()]
                column = component_column(readings, component)
            self._power_columns[component] = column
        return self._power_columns[component]

    def count_lois(
        self,
        min_execution_index: int | None = None,
        execution_index: int | None = None,
        golden_runs: Iterable[int] | None = None,
    ) -> int:
        """Count LOIs matching the given execution/run filters without
        materialising intermediate lists."""
        run_idx, exec_idx = self.loi_index_arrays()
        mask = np.ones(run_idx.shape, dtype=bool)
        if min_execution_index is not None:
            mask &= exec_idx >= min_execution_index
        if execution_index is not None:
            mask &= exec_idx == execution_index
        if golden_runs is not None:
            mask &= _in_runs(run_idx, golden_runs)
        return int(np.count_nonzero(mask))

    def count_last_execution_lois(self, golden_runs: Iterable[int] | None = None) -> int:
        """Count LOIs of each run's last execution, optionally golden-only.

        Unfiltered, this is a running total kept as chunks are added (O(1)).
        """
        if golden_runs is None:
            return self._num_last
        mask = self._last_execution_mask() & _in_runs(self._column("run_index"), golden_runs)
        return int(np.count_nonzero(mask))


def _in_runs(run_idx: np.ndarray, runs: Iterable[int]) -> np.ndarray:
    wanted = np.fromiter((int(i) for i in runs), dtype=np.int64)
    return np.isin(run_idx, wanted)


class ProfileStitcher:
    """Builds fine-grain profiles from run records.

    LOIs of all runs are extracted in one batched pass where possible
    (:func:`~repro.core.timesync.extract_lois_batch`), and profiles are
    assembled directly from the series' columnar LOI views -- one boolean
    mask plus array slices per profile, no intermediate
    :class:`ProfilePoint` objects.
    """

    def __init__(
        self,
        components: Sequence[str] = COMPONENT_KEYS,
        calibration: DelayCalibration | None = None,
        synchronize: bool = True,
    ) -> None:
        self._components = tuple(components)
        self._calibration = calibration
        self._synchronize = synchronize

    @property
    def synchronize(self) -> bool:
        return self._synchronize

    # ------------------------------------------------------------------ #
    # LOI extraction across runs.
    # ------------------------------------------------------------------ #
    def collect(self, runs: Sequence[RunRecord]) -> StitchedRunSeries:
        """Extract LOIs for every execution of every run."""
        if not runs:
            raise ValueError("need at least one run to stitch")
        series = StitchedRunSeries(kernel_name=runs[0].kernel_name)
        self._stitch_into(series, runs)
        return series

    def extend(
        self, series: StitchedRunSeries, new_records: Sequence[RunRecord]
    ) -> StitchedRunSeries:
        """Stitch newly collected runs into an existing series.

        Only the new records are extracted; everything already in the series
        is reused untouched.  This keeps the profiler's step-8 top-up loop
        linear in the total number of runs instead of re-extracting the whole
        record list every batch.
        """
        self._stitch_into(series, new_records)
        return series

    def _stitch_into(self, series: StitchedRunSeries, runs: Sequence[RunRecord]) -> None:
        batch = extract_lois_batch(
            list(runs),
            calibration=self._calibration if self._synchronize else None,
            synchronize=self._synchronize,
        )
        if batch is not None:
            if batch:
                # Every run's rows share the call's one LoiColumns chunk.
                series.add_chunk(batch[0][0].columns, [match for _, match in batch])
            return
        for run in runs:
            series.add_chunk(self._extract(run))

    def _extract(self, run: RunRecord) -> LoiColumns:
        return run_loi_columns(run, self._window_end_times(run))

    # ------------------------------------------------------------------ #
    # Execution-level (SSP/SSE) profiles.
    # ------------------------------------------------------------------ #
    def ssp_profile(
        self,
        series: StitchedRunSeries,
        golden_runs: Sequence[int] | None = None,
        min_execution_index: int | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> FineGrainProfile:
        """Profile of the steady-state-power executions across the selected runs.

        By default only the last execution of each run contributes.  When
        ``min_execution_index`` is given, every execution at or past that index
        contributes -- power is stable from the SSP execution onward, so the
        extra (tail) executions legitimately belong to the same profile and
        multiply the LOI yield of very short kernels.
        """
        which: int | str = "last" if min_execution_index is None else min_execution_index
        execution_time = self._execution_time(series, golden_runs, which=which)
        run_idx, exec_idx = series.loi_index_arrays()
        if min_execution_index is None:
            mask = exec_idx == series.loi_last_execution_array()
        else:
            mask = exec_idx >= min_execution_index
        return self._profile_from_series(
            series, self._golden_mask(mask, run_idx, golden_runs),
            ProfileKind.SSP, execution_time, metadata,
        )

    def sse_profile(
        self,
        series: StitchedRunSeries,
        sse_index: int,
        golden_runs: Sequence[int] | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> FineGrainProfile:
        """Profile of the SSE execution (first post-warm-up) across runs."""
        execution_time = self._execution_time(series, golden_runs, which=sse_index)
        run_idx, exec_idx = series.loi_index_arrays()
        mask = self._golden_mask(exec_idx == sse_index, run_idx, golden_runs)
        return self._profile_from_series(
            series, mask, ProfileKind.SSE, execution_time, metadata
        )

    def execution_profile(
        self,
        series: StitchedRunSeries,
        execution_index: int,
        golden_runs: Sequence[int] | None = None,
    ) -> FineGrainProfile:
        """Profile of an arbitrary execution index (used for outlier studies)."""
        execution_time = self._execution_time(series, golden_runs, which=execution_index)
        run_idx, exec_idx = series.loi_index_arrays()
        mask = self._golden_mask(exec_idx == execution_index, run_idx, golden_runs)
        return self._profile_from_series(
            series, mask, ProfileKind.CUSTOM, execution_time, None
        )

    # ------------------------------------------------------------------ #
    # Whole-run profile (Figures 5, 6 and 8).
    # ------------------------------------------------------------------ #
    def run_profile(
        self,
        series: StitchedRunSeries,
        golden_runs: Sequence[int] | None = None,
        include_non_execution_readings: bool = True,
        metadata: Mapping[str, object] | None = None,
    ) -> FineGrainProfile:
        """Power over the whole run, time measured from the first execution start.

        Readings that do not overlap any execution (idle lead-in / the random
        delay) are included by default so the warm-up ramp from idle is
        visible, exactly as in the paper's figures.
        """
        selected = set(golden_runs) if golden_runs is not None else None
        durations: list[float] = []
        chunks: list[ProfileColumns] = []
        for run_index, run in series.runs.items():
            if selected is not None and run_index not in selected:
                continue
            if not run.executions:
                continue
            origin = run.first_execution.cpu_start_s
            durations.append(run.last_execution.cpu_end_s - origin)
            chunks.append(
                self._run_columns(
                    run,
                    origin,
                    include_non_execution_readings,
                    cached_match=series.reading_match(run_index),
                )
            )
        return FineGrainProfile(
            kernel_name=series.kernel_name,
            kind=ProfileKind.RUN,
            execution_time_s=mean_duration_or_zero(durations),
            metadata=dict(metadata or {}),
            columns=ProfileColumns.concatenate(chunks),
        )

    def section_profiles(
        self,
        series: StitchedRunSeries,
        sections: Sequence[str],
        *,
        golden_runs: Sequence[int] | None = None,
        sse_index: int = 0,
        min_execution_index: int | None = None,
        metadata: Mapping[str, object] | None = None,
    ) -> dict[str, FineGrainProfile]:
        """Build only the requested profile sections in one call.

        ``sections`` is any subset of ``("ssp", "sse", "run")``; the profiler
        uses this to skip stitching the whole-run profile entirely when a
        driver-declared subset excludes it (the run profile is the bulk of a
        long kernel's payload and the costliest section to assemble).
        """
        profiles: dict[str, FineGrainProfile] = {}
        for section in sections:
            if section == "ssp":
                profiles[section] = self.ssp_profile(
                    series,
                    golden_runs,
                    min_execution_index=min_execution_index,
                    metadata=metadata,
                )
            elif section == "sse":
                profiles[section] = self.sse_profile(
                    series, sse_index, golden_runs, metadata=metadata
                )
            elif section == "run":
                profiles[section] = self.run_profile(
                    series, golden_runs, metadata=metadata
                )
            else:
                raise ValueError(
                    f"unknown profile section {section!r}; pick from ('ssp', 'sse', 'run')"
                )
        return profiles

    def _run_columns(
        self,
        run: RunRecord,
        origin_cpu_s: float,
        include_idle: bool,
        cached_match: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> ProfileColumns:
        """One run's whole-run profile rows as a column bundle (no points)."""
        if cached_match is not None:
            times, positions = cached_match
        else:
            times = self._window_end_times(run)
            positions = match_execution_positions(run, times)
        times = np.asarray(times, dtype=float)
        if include_idle:
            keep = np.arange(times.shape[0])
        else:
            span_start = run.first_execution.cpu_start_s
            span_end = run.last_execution.cpu_end_s
            keep = np.nonzero((times >= span_start) & (times <= span_end))[0]
        reading_columns = run.reading_columns()
        powers: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray] = {}
        if reading_columns.uniform_components:
            available = reading_columns.powers_w
            for component in self._components:
                if component in available:
                    powers[component] = available[component][keep]
        elif keep.size:
            # Readings disagree on their component sets: per-reading presence.
            readings = [run.readings[i] for i in keep.tolist()]
            for component in self._components:
                column = component_column(readings, component)
                if column is not None:
                    powers[component], mask = column
                    if mask is not None:
                        masks[component] = mask
        exec_index_by_pos = run.execution_arrays()[0]
        kept_positions = np.asarray(positions, dtype=np.int64)[keep]
        execution_index = np.where(
            kept_positions >= 0,
            exec_index_by_pos[np.clip(kept_positions, 0, None)],
            -1,
        )
        return ProfileColumns(
            time_s=times[keep] - origin_cpu_s,
            run_index=np.full(keep.shape[0], run.run_index, dtype=np.int64),
            execution_index=execution_index,
            powers_w=powers,
            masks=masks,
        )

    def _window_end_times(self, run: RunRecord) -> np.ndarray:
        if self._synchronize:
            synchronizer = synchronizer_for_run(run, self._calibration)
            return synchronizer.cpu_times_of(run.reading_columns().gpu_timestamp_ticks)
        logger_start = float(
            run.metadata.get("logger_start_cpu_s", run.anchor.cpu_time_after_s)
        )
        return logger_start + np.arange(1, len(run.readings) + 1) * run.logger_period_s

    # ------------------------------------------------------------------ #
    # Helpers.
    # ------------------------------------------------------------------ #
    def _profile_from_series(
        self,
        series: StitchedRunSeries,
        mask: np.ndarray,
        kind: ProfileKind,
        execution_time: float,
        metadata: Mapping[str, object] | None,
    ) -> FineGrainProfile:
        """Slice the series' columnar LOI views into a profile (no points)."""
        keep = np.nonzero(mask)[0]
        run_idx, exec_idx = series.loi_index_arrays()
        powers: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray] = {}
        if keep.size:
            for component in self._components:
                column = series.loi_power_column(component)
                if column is None:
                    continue
                values, presence = column
                powers[component] = values[keep]
                if presence is not None:
                    masks[component] = presence[keep]
        columns = ProfileColumns(
            time_s=series.loi_toi_array()[keep],
            run_index=run_idx[keep],
            execution_index=exec_idx[keep],
            powers_w=powers,
            masks=masks,
        )
        return FineGrainProfile(
            kernel_name=series.kernel_name,
            kind=kind,
            execution_time_s=execution_time,
            metadata=dict(metadata or {}),
            columns=columns,
        )

    @staticmethod
    def _golden_mask(
        mask: np.ndarray, run_idx: np.ndarray, golden_runs: Sequence[int] | None
    ) -> np.ndarray:
        if golden_runs is None:
            return mask
        wanted = np.fromiter((int(i) for i in golden_runs), dtype=np.int64)
        return mask & np.isin(run_idx, wanted)

    @staticmethod
    def _execution_time(
        series: StitchedRunSeries, golden_runs: Sequence[int] | None, which: int | str
    ) -> float:
        selected = set(golden_runs) if golden_runs is not None else None
        index = None if which == "last" else int(which)
        durations: list[float] = []
        for run_index, run in series.runs.items():
            if selected is not None and run_index not in selected:
                continue
            if not run.executions:
                continue
            try:
                durations.append(run.execution_duration_s(index))
            except KeyError:
                continue
        return mean_duration_or_zero(durations)


def mean_duration_or_zero(durations: Sequence[float]) -> float:
    if not durations:
        return 0.0
    return float(sum(durations) / len(durations))


__all__ = ["StitchedRunSeries", "ProfileStitcher", "mean_duration_or_zero"]
