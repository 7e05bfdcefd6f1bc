"""Resumable profiling sessions: streaming, convergence-driven collection.

:class:`ProfileSession` decomposes the monolithic nine-step ``profile()`` into
an explicit state machine.  Construction runs the setup phase eagerly (steps
1-4: kernel timing, guidance lookup, read-delay calibration and the
differentiation plan); run collection then advances batch by batch through
:meth:`ProfileSession.step`, feeding every batch through the incremental
:class:`~repro.core.stitching.ProfileStitcher` /
:class:`~repro.core.binning.ExecutionTimeBinner` machinery and re-evaluating
per-bin confidence intervals on the golden-run SSP/SSE estimates at each
checkpoint (:func:`repro.analysis.errors.evaluate_profile_convergence`).

Two collection policies share the machine:

* ``adaptive=False`` (the default) reproduces the paper's fixed-count
  methodology exactly -- one batch of the planned runs, then the step-8
  yield-scaled top-up loop -- and is pinned bit-identical to the pre-session
  monolithic ``profile()`` by ``tests/test_profile_session.py``.
* ``adaptive=True`` collects in ``checkpoint_every``-run batches and stops
  early once every section's 95 % confidence intervals (overall and per TOI
  bin) fall within ``convergence_rtol`` of the section mean, converting
  worst-case run counts into expected-case ones.

:meth:`ProfileSession.iter_profiles` streams one :class:`ProfileSnapshot` per
batch -- progressively refined SSP/SSE profiles plus the convergence
diagnostics backing the stopping decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from ..analysis.errors import (
    CONVERGENCE_BINS,
    ConvergenceDiagnostics,
    evaluate_profile_convergence,
)
from .backend import PrecedingWork
from .binning import BinningResult, ExecutionTimeBinner
from .differentiation import build_plan
from .profile import FineGrainProfile
from .profiler import (
    PROFILE_SECTIONS,
    FinGraVResult,
    SlimFinGraVResult,
    normalize_profile_sections,
)
from .records import RunRecord
from .stitching import ProfileStitcher, StitchedRunSeries

if TYPE_CHECKING:
    from .profiler import FinGraVProfiler

#: Stop reasons a finished session can report.
STOP_REASONS: tuple[str, ...] = ("converged", "target", "budget")


@dataclass(frozen=True)
class ProfileSnapshot:
    """One checkpoint's view of a session: partial profiles + diagnostics."""

    #: 0-based index of the collection batch this snapshot follows.
    index: int
    runs_collected: int
    planned_runs: int
    #: Whether every evaluated section met the convergence rule here.
    converged: bool
    #: Set on the final snapshot only (one of :data:`STOP_REASONS`).
    stop_reason: str | None
    #: True when collection is finished and this is the last snapshot.
    final: bool
    #: SSP/SSE profiles stitched from the runs collected so far.
    profiles: Mapping[str, FineGrainProfile]
    #: Per-section convergence diagnostics backing ``converged``.
    diagnostics: tuple[ConvergenceDiagnostics, ...]

    @property
    def ssp_profile(self) -> FineGrainProfile:
        return self.profiles["ssp"]

    @property
    def sse_profile(self) -> FineGrainProfile:
        return self.profiles["sse"]


class ProfileSession:
    """Resumable collection state for one kernel's fine-grain profiles."""

    def __init__(
        self,
        profiler: "FinGraVProfiler",
        kernel: object,
        runs: int | None = None,
        preceding: Sequence[PrecedingWork] = (),
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        self._profiler = profiler
        self._backend = profiler.backend
        self._config = config = profiler.config
        self._kernel = kernel
        self._preceding = tuple(preceding)

        # ------------------------------------------------------------------
        # Setup phase (steps 1-4).
        # ------------------------------------------------------------------
        # Step 1: execution time and guidance.
        self._execution_time = profiler.time_kernel(kernel)
        self._guidance = profiler.guidance_table.lookup(self._execution_time)
        self._planned_runs = runs if runs is not None else (
            config.runs if config.runs is not None else self._guidance.runs
        )
        if self._planned_runs <= 0:
            raise ValueError("run count must be positive")
        self._margin = (
            config.binning_margin if config.binning_margin is not None
            else self._guidance.binning_margin
        )

        # Step 2: instrumentation calibration.
        self._calibration = self._backend.calibrate_read_delay(
            config.calibration_samples
        )

        # Steps 3-4: differentiation plan (warm-ups, SSE, SSP executions).
        self._plan = build_plan(
            self._backend,
            kernel,
            self._execution_time,
            warmup_tolerance=config.warmup_tolerance,
            refine_with_power_search=(
                config.differentiate and config.refine_ssp_with_power_search
            ),
        )
        if config.differentiate:
            window_fill = (
                self._backend.power_sample_period_s / max(self._execution_time, 1e-9)
            )
            tail = int(np.ceil(window_fill * config.ssp_tail_fraction))
            tail = min(
                max(tail, config.min_ssp_tail_executions),
                config.max_ssp_tail_executions,
            )
            self._executions_per_run = self._plan.ssp_executions + tail
        else:
            self._executions_per_run = self._plan.sse_executions

        # Step-8 targets: recommended SSP LOIs plus an SSE floor for the
        # SSE/SSP comparison (the SSE profile draws one execution per run).
        self._target_lois = self._guidance.recommended_lois(self._execution_time)
        self._sse_target = min(4, self._target_lois) if config.differentiate else 0
        self._extra_budget = config.max_additional_runs
        self._ssp_start = (
            profiler._ssp_start_index(self._plan) if config.differentiate else None
        )

        # ------------------------------------------------------------------
        # Collection state (steps 5-8, advanced by step()).
        # ------------------------------------------------------------------
        self._records: tuple[RunRecord, ...] = ()
        self._binner = ExecutionTimeBinner(self._margin) if config.apply_binning else None
        self._binning: BinningResult | None = None
        self._golden_indices: list[int] | None = None
        self._stitcher = ProfileStitcher(
            components=config.components,
            calibration=self._calibration if config.synchronize else None,
            synchronize=config.synchronize,
        )
        self._series: StitchedRunSeries | None = None
        self._base_metadata = dict(metadata or {})
        self._base_metadata.setdefault(
            "preceding", [profiler._describe_preceding(p) for p in self._preceding]
        )
        self._batches = 0
        self._checkpoints = 0
        self._stop_reason: str | None = None
        self._diagnostics: tuple[ConvergenceDiagnostics, ...] = ()
        self._diagnostics_at = -1
        self._result: FinGraVResult | SlimFinGraVResult | None = None

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    @property
    def config(self):
        return self._config

    @property
    def kernel(self) -> object:
        return self._kernel

    @property
    def execution_time_s(self) -> float:
        return self._execution_time

    @property
    def guidance(self):
        return self._guidance

    @property
    def plan(self):
        return self._plan

    @property
    def planned_runs(self) -> int:
        return self._planned_runs

    @property
    def runs_collected(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[RunRecord, ...]:
        return self._records

    @property
    def series(self) -> StitchedRunSeries | None:
        return self._series

    @property
    def golden_run_indices(self) -> tuple[int, ...] | None:
        if self._golden_indices is None:
            return None
        return tuple(self._golden_indices)

    @property
    def finished(self) -> bool:
        return self._stop_reason is not None

    @property
    def stop_reason(self) -> str | None:
        return self._stop_reason

    @property
    def diagnostics(self) -> tuple[ConvergenceDiagnostics, ...]:
        return self._diagnostics

    # ------------------------------------------------------------------ #
    # Collection (steps 5-8).
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Advance collection by one batch.

        Returns True while the session keeps collecting; False once it has
        finished (the stopping decision is recorded in :attr:`stop_reason`).
        Calling :meth:`step` on a finished session is a no-op returning False.
        """
        if self.finished:
            return False
        config = self._config
        if len(self._records) < self._planned_runs:
            # Step 5: the planned runs -- one batch in fixed mode, exactly as
            # the monolithic profile() collected them; checkpoint-sized
            # batches in adaptive mode so convergence can stop collection
            # before the plan completes.
            if config.adaptive:
                batch = min(
                    config.checkpoint_every, self._planned_runs - len(self._records)
                )
            else:
                batch = self._planned_runs - len(self._records)
            self._ingest(self._collect(batch))
            if config.adaptive and self._check_convergence():
                self._finish("converged")
                return False
            return True
        # Step 8: top up runs until the LOI target is met.  The batch size is
        # scaled to the observed LOI yield per run so that short kernels
        # (which yield an LOI only every few dozen runs) converge in few
        # batches.
        if self._shortfall() > 0 and self._extra_budget > 0:
            missing = self._shortfall()
            have_total = max(self._ssp_have(), 1)
            observed_yield = max(have_total / max(len(self._records), 1), 0.01)
            needed = int(np.ceil(missing / observed_yield))
            batch = min(max(needed, 16), self._extra_budget)
            if config.adaptive:
                # Cap top-up batches so convergence checkpoints happen while
                # topping up -- short kernels converge well before the full
                # yield-scaled batch completes.
                batch = min(batch, max(2 * config.checkpoint_every, 16))
            self._ingest(self._collect(batch))
            self._extra_budget -= batch
            if config.adaptive and self._check_convergence():
                self._finish("converged")
                return False
            return True
        self._finish("target" if self._shortfall() <= 0 else "budget")
        return False

    def run_to_completion(self) -> "ProfileSession":
        """Collect until the session's stopping rule fires."""
        while self.step():
            pass
        return self

    def iter_profiles(self) -> Iterator[ProfileSnapshot]:
        """Yield a :class:`ProfileSnapshot` after every collection batch.

        The last yielded snapshot has ``final=True`` and carries the stopping
        decision; :meth:`result` is then ready.  Iterating a finished session
        yields its final snapshot once.
        """
        if self.finished:
            yield self.snapshot()
            return
        while True:
            live = self.step()
            yield self.snapshot()
            if not live:
                return

    def snapshot(self) -> ProfileSnapshot:
        """Profiles and diagnostics for the runs collected so far."""
        if self._series is None:
            raise ValueError("no runs collected yet; call step() first")
        profiles = self._stitcher.section_profiles(
            self._series,
            ("ssp", "sse"),
            golden_runs=self._golden_indices,
            sse_index=self._plan.sse_index,
            min_execution_index=self._profiler._ssp_start_index(self._plan),
            metadata=self._base_metadata,
        )
        diagnostics = self._evaluate_diagnostics()
        return ProfileSnapshot(
            index=self._batches - 1,
            runs_collected=len(self._records),
            planned_runs=self._planned_runs,
            converged=bool(diagnostics) and all(d.converged for d in diagnostics),
            stop_reason=self._stop_reason,
            final=self.finished,
            profiles=profiles,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------ #
    # Result assembly (step 9).
    # ------------------------------------------------------------------ #
    def result(self) -> FinGraVResult | SlimFinGraVResult:
        """The final profiling result (step 9).

        SSP and SSE are always built (the summary snapshot needs their means
        and the SSE-vs-SSP error); the whole-run profile -- typically the
        bulk of a payload -- is only stitched when the result actually
        carries it: full mode, or a slim section declaration that includes
        ``"run"``.  The collection audit (stop reason, runs saved, final CI)
        rides ``result.metadata["collection"]`` and the summary.
        """
        if not self.finished:
            raise ValueError(
                "session still collecting; call run_to_completion() "
                "or drain iter_profiles() before result()"
            )
        if self._result is not None:
            return self._result
        config = self._config
        assert self._series is not None
        sections = PROFILE_SECTIONS
        if config.result_mode == "slim":
            sections = normalize_profile_sections(config.profile_sections)
        build = tuple(
            name for name in PROFILE_SECTIONS
            if name in ("ssp", "sse") or name in sections
        )
        built = self._stitcher.section_profiles(
            self._series,
            build,
            golden_runs=self._golden_indices,
            sse_index=self._plan.sse_index,
            min_execution_index=self._profiler._ssp_start_index(self._plan),
            metadata=self._base_metadata,
        )
        result_metadata = dict(self._base_metadata)
        result_metadata["collection"] = self.collection_audit()
        result = FinGraVResult(
            kernel_name=self._backend.kernel_name(self._kernel),
            execution_time_s=self._execution_time,
            guidance=self._guidance,
            plan=self._plan,
            calibration=self._calibration,
            runs=self._records,
            binning=self._binning,
            ssp_profile=built["ssp"],
            sse_profile=built["sse"],
            run_profile=built.get("run"),
            config=config,
            metadata=result_metadata,
        )
        if config.result_mode == "slim":
            self._result = result.slim(sections)
        else:
            self._result = result
        return self._result

    def collection_audit(self) -> dict[str, object]:
        """JSON-friendly record of the stopping decision (summary/manifest)."""
        diagnostics = self._evaluate_diagnostics()
        widths = [
            d.relative_half_width for d in diagnostics
            if np.isfinite(d.relative_half_width)
        ]
        return {
            "adaptive": self._config.adaptive,
            "stop_reason": self._stop_reason,
            "runs_collected": len(self._records),
            "runs_planned": self._planned_runs,
            "runs_saved": max(self._planned_runs - len(self._records), 0),
            "extra_budget_left": self._extra_budget,
            "batches": self._batches,
            "checkpoints": self._checkpoints,
            "converged": bool(diagnostics) and all(d.converged for d in diagnostics),
            "final_relative_ci": max(widths) if widths else None,
            "sections": [d.to_dict() for d in diagnostics],
        }

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    def _collect(self, count: int) -> tuple[RunRecord, ...]:
        return self._profiler._collect_runs(
            self._kernel,
            count,
            self._executions_per_run,
            self._preceding,
            start_index=len(self._records),
        )

    def _ingest(self, new_records: tuple[RunRecord, ...]) -> None:
        """Step 6-7 for one batch: re-bin golden runs, stitch the new LOIs.

        The binner keeps its sorted state and the stitcher extracts only the
        new records (ExecutionTimeBinner.extend / ProfileStitcher.extend).
        """
        self._records = self._records + new_records
        self._batches += 1
        if self._binner is not None and new_records:
            self._binning = self._binner.extend(
                record.ssp_execution.duration_s for record in new_records
            )
            self._golden_indices = [
                self._records[i].run_index for i in self._binning.selected_indices
            ]
        if self._series is None:
            self._series = self._stitcher.collect(self._records)
        else:
            self._series = self._stitcher.extend(self._series, new_records)

    def _ssp_have(self) -> int:
        series = self._series
        assert series is not None
        if self._ssp_start is None:
            return series.count_last_execution_lois(self._golden_indices)
        return series.count_lois(
            min_execution_index=self._ssp_start, golden_runs=self._golden_indices
        )

    def _shortfall(self) -> int:
        series = self._series
        assert series is not None
        sse_have = series.count_lois(
            execution_index=self._plan.sse_index, golden_runs=self._golden_indices
        )
        return max(self._target_lois - self._ssp_have(), self._sse_target - sse_have)

    def _section_samples(self, section: str) -> tuple[np.ndarray, np.ndarray]:
        """(total-power values, TOIs) of one section's golden LOIs."""
        series = self._series
        assert series is not None
        run_idx, exec_idx = series.loi_index_arrays()
        column = series.loi_power_column("total")
        if column is None:
            empty = np.zeros(0, dtype=float)
            return empty, empty
        values, presence = column
        if section == "ssp":
            if self._ssp_start is None:
                mask = exec_idx == series.loi_last_execution_array()
            else:
                mask = exec_idx >= self._ssp_start
        else:
            mask = exec_idx == self._plan.sse_index
        if self._golden_indices is not None:
            wanted = np.fromiter(
                (int(i) for i in self._golden_indices), dtype=np.int64
            )
            mask = mask & np.isin(run_idx, wanted)
        if presence is not None:
            mask = mask & presence
        return values[mask], series.loi_toi_array()[mask]

    def _evaluate_diagnostics(self) -> tuple[ConvergenceDiagnostics, ...]:
        """Per-section convergence diagnostics for the current record set.

        Recomputed from the full columnar arrays (not accumulated) because
        golden-run re-selection can remove previously counted runs between
        checkpoints; cached per record count so repeated snapshot/audit
        calls cost one evaluation.
        """
        if self._series is None:
            return ()
        if self._diagnostics_at == len(self._records):
            return self._diagnostics
        sections = ("ssp", "sse") if self._config.differentiate else ("ssp",)
        diagnostics = []
        for section in sections:
            values, times = self._section_samples(section)
            # SSE draws a single execution per run, so per-TOI-bin CIs are
            # unattainable at realistic budgets: gate it on the overall CI
            # plus the methodology's own SSE LOI floor instead.
            bins = CONVERGENCE_BINS if section == "ssp" else 1
            min_samples = 2 if section == "ssp" else max(2, self._sse_target)
            diagnostics.append(
                evaluate_profile_convergence(
                    section,
                    values,
                    times,
                    self._execution_time,
                    self._config.convergence_rtol,
                    bins=bins,
                    min_samples=min_samples,
                )
            )
        self._diagnostics = tuple(diagnostics)
        self._diagnostics_at = len(self._records)
        return self._diagnostics

    def _check_convergence(self) -> bool:
        """The adaptive stopping rule, evaluated at one checkpoint."""
        self._checkpoints += 1
        if len(self._records) < self._config.min_runs:
            return False
        diagnostics = self._evaluate_diagnostics()
        return bool(diagnostics) and all(d.converged for d in diagnostics)

    def _finish(self, reason: str) -> None:
        self._stop_reason = reason


__all__ = ["ProfileSession", "ProfileSnapshot", "STOP_REASONS"]
