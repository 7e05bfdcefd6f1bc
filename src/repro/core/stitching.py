"""Stitching logs of interest from many runs into fine-grain profiles (step 9).

With a 1 ms averaging logger and sub-millisecond kernels, each run contributes
at best a single power log for the execution of interest.  The fine-grain view
only appears when the logs of interest of many runs -- each taken at a
different time of interest thanks to the per-run random delays -- are plotted
together.  This module performs that stitching for the SSP/SSE profiles (TOI
on the x-axis) and for the whole-run profiles used by the methodology figures
(time since the first execution of the run on the x-axis).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .profile import (
    FineGrainProfile,
    ProfileColumns,
    ProfileKind,
    ProfilePoint,
    component_column,
)
from .records import (
    COMPONENT_KEYS,
    DelayCalibration,
    ExecutionTimings,
    LogOfInterest,
    PowerReading,
    RunRecord,
)
from .timesync import (
    extract_lois,
    extract_lois_batch,
    extract_lois_unsynchronized,
    match_execution_positions,
    synchronizer_for_run,
)


class StitchedRunSeries:
    """All per-run LOI collections needed to assemble the standard profiles.

    The series grows incrementally: :meth:`ProfileStitcher.extend` adds the
    LOIs of newly collected runs without touching previously extracted ones.
    Flat and per-execution views are maintained as runs are added, and a
    columnar (run-index / execution-index array) view backs the O(1)-ish LOI
    counting the profiler's top-up loop performs after every batch.
    """

    def __init__(
        self,
        kernel_name: str,
        lois_by_run: Mapping[int, tuple[LogOfInterest, ...]] | None = None,
        runs: Mapping[int, RunRecord] | None = None,
    ) -> None:
        self.kernel_name = kernel_name
        self._lois_by_run: dict[int, tuple[LogOfInterest, ...]] = {}
        self._runs: dict[int, RunRecord] = {}
        self._flat: list[LogOfInterest] = []
        self._by_execution: dict[int, list[LogOfInterest]] = {}
        self._last_execution: list[LogOfInterest] = []
        self._reading_match: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Plain-int mirrors of the LOIs' run/execution indices, appended as
        # runs are added so the count arrays rebuild via a C-speed conversion
        # instead of re-reading attributes of every LOI object.
        self._run_index_list: list[int] = []
        self._exec_index_list: list[int] = []
        self._run_index_arr: np.ndarray | None = None
        self._exec_index_arr: np.ndarray | None = None
        # Columnar LOI storage backing the array-native profile builds: TOI
        # per LOI, the reading behind each LOI, and the owning run's last
        # execution index (so "SSP = last execution" masks are one compare).
        self._toi_list: list[float] = []
        self._flat_readings: list[PowerReading] = []
        self._last_exec_list: list[int] = []
        self._toi_arr: np.ndarray | None = None
        self._last_exec_arr: np.ndarray | None = None
        self._power_columns: dict[str, tuple[np.ndarray, np.ndarray | None] | None] = {}
        for run_index, run in dict(runs or {}).items():
            self.add_run(run, (lois_by_run or {}).get(run_index, ()))

    # ------------------------------------------------------------------ #
    # Mapping-style views (kept for API compatibility).
    # ------------------------------------------------------------------ #
    @property
    def lois_by_run(self) -> Mapping[int, tuple[LogOfInterest, ...]]:
        return self._lois_by_run

    @property
    def runs(self) -> Mapping[int, RunRecord]:
        return self._runs

    @property
    def num_lois(self) -> int:
        return len(self._flat)

    # ------------------------------------------------------------------ #
    # Incremental growth.
    # ------------------------------------------------------------------ #
    def add_run(
        self,
        run: RunRecord,
        lois: Iterable[LogOfInterest],
        reading_match: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Record one run's LOIs, updating every cached view incrementally.

        ``reading_match`` optionally carries the (window-end times, matched
        execution positions) arrays produced by the batched extractor, which
        profile builders reuse instead of re-matching every reading.
        """
        if run.run_index in self._runs:
            raise ValueError(f"run {run.run_index} already stitched into this series")
        lois = tuple(lois)
        self._runs[run.run_index] = run
        self._lois_by_run[run.run_index] = lois
        if reading_match is not None:
            self._reading_match[run.run_index] = reading_match
        self._flat.extend(lois)
        last_index = run.last_execution.index if run.executions else None
        for loi in lois:
            self._run_index_list.append(loi.run_index)
            self._exec_index_list.append(loi.execution_index)
            self._toi_list.append(loi.toi_s)
            self._flat_readings.append(loi.reading)
            self._last_exec_list.append(last_index if last_index is not None else -1)
            self._by_execution.setdefault(loi.execution_index, []).append(loi)
            if last_index is not None and loi.execution_index == last_index:
                self._last_execution.append(loi)
        if lois:
            self._run_index_arr = None
            self._exec_index_arr = None
            self._toi_arr = None
            self._last_exec_arr = None
            self._power_columns.clear()

    def reading_match(self, run_index: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Cached (window-end times, execution positions) for one run, if any."""
        return self._reading_match.get(run_index)

    # ------------------------------------------------------------------ #
    # LOI views.
    # ------------------------------------------------------------------ #
    def all_lois(self) -> list[LogOfInterest]:
        return list(self._flat)

    def lois_for_execution(self, execution_index: int) -> list[LogOfInterest]:
        return list(self._by_execution.get(execution_index, ()))

    def lois_for_last_execution(self) -> list[LogOfInterest]:
        return list(self._last_execution)

    def lois_from_execution(self, min_execution_index: int) -> list[LogOfInterest]:
        """All LOIs whose execution index is at or past ``min_execution_index``."""
        return [loi for loi in self._flat if loi.execution_index >= min_execution_index]

    # ------------------------------------------------------------------ #
    # Columnar counting (the profiler's shortfall checks).
    # ------------------------------------------------------------------ #
    def _loi_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._run_index_arr is None or self._exec_index_arr is None:
            self._run_index_arr = np.asarray(self._run_index_list, dtype=np.int64)
            self._exec_index_arr = np.asarray(self._exec_index_list, dtype=np.int64)
        return self._run_index_arr, self._exec_index_arr

    def loi_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(run_index, execution_index) arrays over all LOIs, in stitch order."""
        return self._loi_arrays()

    def loi_toi_array(self) -> np.ndarray:
        """Times of interest over all LOIs, in stitch order."""
        if self._toi_arr is None:
            self._toi_arr = np.asarray(self._toi_list, dtype=float)
        return self._toi_arr

    def loi_last_execution_array(self) -> np.ndarray:
        """Per-LOI last-execution index of the LOI's own run, in stitch order."""
        if self._last_exec_arr is None:
            self._last_exec_arr = np.asarray(self._last_exec_list, dtype=np.int64)
        return self._last_exec_arr

    def loi_power_column(
        self, component: str
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """(values, presence-mask) of one component across all LOIs.

        The mask is ``None`` when the component is present in every LOI's
        reading; the whole return is ``None`` when it is present in none.
        Columns are built once per component and invalidated when runs are
        added, so repeated profile builds over the same series are array
        slices, not per-LOI attribute walks.
        """
        if component in self._power_columns:
            return self._power_columns[component]
        column = component_column(self._flat_readings, component)
        self._power_columns[component] = column
        return column

    def count_lois(
        self,
        min_execution_index: int | None = None,
        execution_index: int | None = None,
        golden_runs: Iterable[int] | None = None,
    ) -> int:
        """Count LOIs matching the given execution/run filters without
        materialising intermediate lists."""
        run_idx, exec_idx = self._loi_arrays()
        mask = np.ones(run_idx.shape, dtype=bool)
        if min_execution_index is not None:
            mask &= exec_idx >= min_execution_index
        if execution_index is not None:
            mask &= exec_idx == execution_index
        if golden_runs is not None:
            wanted = np.fromiter((int(i) for i in golden_runs), dtype=np.int64)
            mask &= np.isin(run_idx, wanted)
        return int(np.count_nonzero(mask))

    def count_last_execution_lois(self, golden_runs: Iterable[int] | None = None) -> int:
        """Count LOIs of each run's last execution, optionally golden-only."""
        if golden_runs is None:
            return len(self._last_execution)
        wanted = set(golden_runs)
        return sum(1 for loi in self._last_execution if loi.run_index in wanted)


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
            for run, (lois, match) in zip(runs, batch):
                series.add_run(run, lois, reading_match=match)
            return
        for run in runs:
            series.add_run(run, self._extract(run))

    def _extract(self, run: RunRecord) -> list[LogOfInterest]:
        if self._synchronize:
            return extract_lois(run, synchronizer_for_run(run, self._calibration))
        logger_start = float(run.metadata.get("logger_start_cpu_s", run.anchor.cpu_time_after_s))
        return extract_lois_unsynchronized(run, logger_start)

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
        reading_columns = run.reading_columns()
        if not reading_columns.uniform_components:
            # Readings disagree on their component sets; per-reading presence
            # needs the scalar path.  Columnise its points.
            return ProfileColumns.from_points(
                self._run_points(run, origin_cpu_s, include_idle, cached_match)
            )
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
        available = reading_columns.powers_w
        powers = {
            component: available[component][keep]
            for component in self._components
            if component in available
        }
        if isinstance(run.executions, ExecutionTimings):
            exec_index_by_pos = run.executions.indices
        else:
            exec_index_by_pos = np.fromiter(
                (execution.index for execution in run.executions),
                dtype=np.int64,
                count=len(run.executions),
            )
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
        )

    def _window_end_times(self, run: RunRecord) -> np.ndarray:
        if self._synchronize:
            synchronizer = synchronizer_for_run(run, self._calibration)
            return synchronizer.cpu_times_of(run.reading_columns().gpu_timestamp_ticks)
        logger_start = float(
            run.metadata.get("logger_start_cpu_s", run.anchor.cpu_time_after_s)
        )
        return logger_start + np.arange(1, len(run.readings) + 1) * run.logger_period_s

    def _run_points(
        self,
        run: RunRecord,
        origin_cpu_s: float,
        include_idle: bool,
        cached_match: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[ProfilePoint]:
        if cached_match is not None:
            # Window-end times and execution matches were already computed by
            # the batched extractor; reuse them.
            times, positions = cached_match
        else:
            times = self._window_end_times(run)
            positions = match_execution_positions(run, times)
        span_start = run.first_execution.cpu_start_s
        span_end = run.last_execution.cpu_end_s
        # Fast path for the common case where every reading carries exactly
        # the configured components: one dict copy instead of per-component
        # lookups, with values equal to the slow path's.
        wanted_nontotal = None
        if run.readings and "total" in self._components:
            first = run.readings[0].components
            if (len(first) == len(self._components) - 1
                    and all(c == "total" or c in first for c in self._components)):
                wanted_nontotal = set(self._components) - {"total"}
        points: list[ProfilePoint] = []
        for i, reading in enumerate(run.readings):
            window_end = float(times[i])
            inside = span_start <= window_end <= span_end
            if not inside and not include_idle:
                continue
            if wanted_nontotal is not None and reading.components.keys() == wanted_nontotal:
                powers: dict[str, float] = {"total": reading.total_w, **reading.components}
            else:
                powers = {}
                for component in self._components:
                    if reading.has_component(component):
                        powers[component] = reading.component(component)
            position = int(positions[i])
            execution_index = run.executions[position].index if position >= 0 else -1
            points.append(
                ProfilePoint(
                    time_s=window_end - origin_cpu_s,
                    powers_w=powers,
                    run_index=run.run_index,
                    execution_index=execution_index,
                )
            )
        return points

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
        durations: list[float] = []
        for run_index, run in series.runs.items():
            if selected is not None and run_index not in selected:
                continue
            if not run.executions:
                continue
            if which == "last":
                durations.append(run.last_execution.duration_s)
            else:
                try:
                    durations.append(run.execution(int(which)).duration_s)
                except KeyError:
                    continue
        return mean_duration_or_zero(durations)


def mean_duration_or_zero(durations: Sequence[float]) -> float:
    if not durations:
        return 0.0
    return float(sum(durations) / len(durations))


__all__ = ["StitchedRunSeries", "ProfileStitcher", "mean_duration_or_zero"]
