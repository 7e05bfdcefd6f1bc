"""The FinGraV profiler: the nine-step methodology of paper Section IV-B.

:class:`FinGraVProfiler` drives a :class:`~repro.core.backend.ProfilingBackend`
through the full methodology:

1.  Time the kernel a few times and look up the guidance table (Table I) for
    the recommended #runs, binning margin and LOI target.
2.  Calibrate the GPU-timestamp read delay (the CPU-side instrumentation).
3.  Deduce the warm-up count empirically; SSE needs warm-ups + 1 executions.
4.  Compute the SSP execution count with ``max(ceil(window / exec), SSE)``,
    refining with a binary search when throttling is detected.
5.  Execute the runs, each with a random delay before the executions so the
    power-logger windows land at different times of interest.
6.  Discard all but the golden runs via execution-time binning.
7.  Synchronise CPU and GPU time per run and identify the LOIs/TOIs.
8.  Execute additional runs if fewer LOIs than recommended were obtained.
9.  Stitch the LOIs into the SSE/SSP/run fine-grain profiles.

Baseline behaviours (no sync, no binning, SSE-only, coarse sampler) are
expressed as configuration flags so that the methodology-evaluation figures
compare like for like; see :mod:`repro.core.baselines` for ready-made presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .backend import PrecedingWork, ProfilingBackend
from .binning import BinningResult
from .differentiation import DifferentiationPlan
from .guidance import GuidanceEntry, GuidanceTable, paper_guidance_table
from .profile import FineGrainProfile, measurement_error
from .records import COMPONENT_KEYS, DelayCalibration, RunRecord


@dataclass(frozen=True)
class ProfilerConfig:
    """Knobs of the FinGraV profiler.

    The defaults implement the full methodology; the baseline profilers in
    :mod:`repro.core.baselines` flip individual switches off to show what each
    ingredient contributes (paper Section V-B).
    """

    #: Override the guidance table's #runs (None = follow Table I).
    runs: int | None = None
    #: Override the guidance table's binning margin (None = follow Table I).
    binning_margin: float | None = None
    #: Apply CPU-GPU time synchronisation when placing power logs.
    synchronize: bool = True
    #: Apply execution-time binning / golden-run selection.
    apply_binning: bool = True
    #: Differentiate SSE and SSP profiles (False = SSE-only, the naive view).
    differentiate: bool = True
    #: Upper bound on the random pre-execution delay, in power-logger periods.
    max_random_delay_periods: float = 2.0
    #: Number of timestamp reads used for delay calibration.
    calibration_samples: int = 32
    #: How many times step 1 times the kernel.
    timing_executions: int = 5
    #: Cap on additional runs collected by step 8.
    max_additional_runs: int = 600
    #: Components to carry through to the stitched profiles.
    components: tuple[str, ...] = COMPONENT_KEYS
    #: Seed of the profiler's own randomness (random delays).
    seed: int = 2024
    #: Tolerance used when deducing warm-ups from execution times.
    warmup_tolerance: float = 0.05
    #: Refine the SSP execution count with the power-stability binary search.
    refine_ssp_with_power_search: bool = True
    #: Extra executions appended after the SSP execution in every run.  Power
    #: is stable from the SSP execution onward (that is its definition), so
    #: LOIs from any of these tail executions belong to the SSP profile; the
    #: tail multiplies the LOI yield of kernels much shorter than the
    #: averaging window.  Sized as a fraction of the window-fill count.
    ssp_tail_fraction: float = 0.25
    min_ssp_tail_executions: int = 2
    max_ssp_tail_executions: int = 12
    #: Which sections :meth:`FinGraVProfiler.profile` returns: any subset of
    #: :data:`SECTIONS` (the SSP, SSE and whole-run profiles, and ``"runs"``
    #: -- the raw run records plus their binning), or ``None`` for all four.
    #: The run bookkeeping and summary snapshot are kept regardless, so
    #: summary-only consumers can declare ``()``.  When ``"run"`` is excluded
    #: the whole-run profile is never even stitched.  Stored deduplicated
    #: and in canonical order.
    sections: tuple[str, ...] | None = None
    #: Stop run collection early once the golden-run SSP/SSE estimates have
    #: converged (per-bin 95 % confidence intervals within
    #: ``convergence_rtol`` of the section mean).  ``False`` reproduces the
    #: paper's fixed-count collection exactly -- the session path is pinned
    #: bit-identical to the pre-session ``profile()``.
    adaptive: bool = False
    #: Relative CI half-width below which a profile section counts as
    #: converged (adaptive mode only).
    convergence_rtol: float = 0.05
    #: Never stop adaptively before this many runs were collected.
    min_runs: int = 12
    #: Runs collected between convergence checkpoints in adaptive mode.
    checkpoint_every: int = 8

    def __post_init__(self) -> None:
        if self.runs is not None and self.runs <= 0:
            raise ValueError(f"runs must be positive, got {self.runs}")
        if self.max_additional_runs < 0:
            raise ValueError(
                f"max_additional_runs must be non-negative, got {self.max_additional_runs}"
            )
        if not (
            math.isfinite(self.max_random_delay_periods) and self.max_random_delay_periods >= 0
        ):
            raise ValueError(
                "max_random_delay_periods must be finite and non-negative, "
                f"got {self.max_random_delay_periods}"
            )
        if self.calibration_samples <= 0:
            raise ValueError(
                f"calibration_samples must be positive, got {self.calibration_samples}"
            )
        if self.timing_executions <= 0:
            raise ValueError(
                f"timing_executions must be positive, got {self.timing_executions}"
            )
        if self.convergence_rtol <= 0.0:
            raise ValueError(
                f"convergence_rtol must be positive, got {self.convergence_rtol}"
            )
        if self.min_runs <= 0:
            raise ValueError(f"min_runs must be positive, got {self.min_runs}")
        if self.checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )
        if self.sections is not None:
            object.__setattr__(self, "sections", normalize_sections(self.sections))

    def with_overrides(self, **kwargs: object) -> "ProfilerConfig":
        return replace(self, **kwargs)


#: The sections a result can hold, in canonical order: the SSP, SSE and
#: whole-run profiles, and ``"runs"`` (the raw run records and their binning).
SECTIONS: tuple[str, ...] = ("ssp", "sse", "run", "runs")

#: Result attribute -> the section that holds it.
_SECTION_OF: dict[str, str] = {
    "ssp_profile": "ssp",
    "sse_profile": "sse",
    "run_profile": "run",
    "runs": "runs",
    "binning": "runs",
}


def normalize_sections(sections: Sequence[str] | None) -> tuple[str, ...]:
    """Validate and canonicalise a section declaration.

    ``None`` means every section; anything else is deduplicated and reordered
    to :data:`SECTIONS` order.  Unknown names raise ``ValueError``.
    """
    if sections is None:
        return SECTIONS
    requested = {str(section) for section in sections}
    unknown = requested - set(SECTIONS)
    if unknown:
        raise ValueError(f"unknown sections {sorted(unknown)}; pick from {SECTIONS}")
    return tuple(name for name in SECTIONS if name in requested)


@dataclass(frozen=True)
class FinGraVResult:
    """Everything the profiler produced for one kernel, cut to its sections.

    Every result carries the plan/guidance/calibration, the run bookkeeping
    (run count, golden-run indices, executions per run, SSP LOI count), the
    summary snapshot and ``metadata["collection"]``.  The profiles and the
    raw runs are held only for the declared ``sections``
    (``ProfilerConfig(sections=...)``); reading an undeclared one raises
    ``AttributeError``.
    """

    kernel_name: str
    execution_time_s: float
    guidance: GuidanceEntry
    plan: DifferentiationPlan
    calibration: DelayCalibration | None
    num_runs: int
    golden_run_indices: tuple[int, ...]
    executions_per_run: int
    ssp_loi_count: int
    #: The sections this result holds (canonical order).
    sections: tuple[str, ...]
    #: The held objects, keyed by attribute name (``ssp_profile``, ``runs``...).
    payload: Mapping[str, object]
    #: Summary snapshot taken before undeclared sections were dropped; keeps
    #: ``summary()`` and the total-power SSE-vs-SSP error available for any
    #: section subset.
    summary_data: Mapping[str, object]
    config: ProfilerConfig
    metadata: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def assemble(
        cls,
        kernel_name: str,
        execution_time_s: float,
        guidance: GuidanceEntry,
        plan: DifferentiationPlan,
        calibration: DelayCalibration | None,
        runs: tuple[RunRecord, ...],
        binning: BinningResult | None,
        profiles: Mapping[str, FineGrainProfile],
        config: ProfilerConfig,
        metadata: Mapping[str, object],
    ) -> "FinGraVResult":
        """The result ``config.sections`` declares, from a finished collection.

        ``profiles`` maps section name to stitched profile; it needs
        ``"ssp"`` and ``"sse"`` (the summary reads both) and ``"run"`` when
        that section is declared.
        """
        sections = normalize_sections(config.sections)
        ssp, sse = profiles["ssp"], profiles["sse"]
        if binning is None:
            golden = tuple(run.run_index for run in runs)
        else:
            golden = tuple(runs[i].run_index for i in binning.selected_indices)
        summary: dict[str, object] = {
            "kernel": kernel_name,
            "execution_time_s": execution_time_s,
            "runs": len(runs),
            "golden_runs": len(golden),
            "warmup_executions": plan.warmup_executions,
            "sse_executions": plan.sse_executions,
            "ssp_executions": plan.ssp_executions,
            "throttling_detected": plan.throttling_detected,
            "ssp_lois": len(ssp),
        }
        if not ssp.is_empty:
            summary["ssp_mean_total_w"] = ssp.mean_power_w("total")
        if not sse.is_empty:
            summary["sse_mean_total_w"] = sse.mean_power_w("total")
        if not ssp.is_empty and not sse.is_empty:
            summary["sse_vs_ssp_error"] = measurement_error(sse, ssp, "total")
        collection = metadata.get("collection")
        if collection is not None:
            summary["collection"] = dict(collection)
        # Raw runs first: they hold most of the pickle's repeated references,
        # which stay short while the pickler's memo is still small.
        available = {
            "runs": runs,
            "binning": binning,
            "ssp_profile": ssp,
            "sse_profile": sse,
            "run_profile": profiles.get("run"),
        }
        return cls(
            kernel_name=kernel_name,
            execution_time_s=execution_time_s,
            guidance=guidance,
            plan=plan,
            calibration=calibration,
            num_runs=len(runs),
            golden_run_indices=golden,
            executions_per_run=runs[0].num_executions if runs else 1,
            ssp_loi_count=len(ssp),
            sections=sections,
            payload={
                name: value for name, value in available.items()
                if _SECTION_OF[name] in sections
            },
            summary_data=summary,
            config=config,
            metadata=dict(metadata),
        )

    # ------------------------------------------------------------------ #
    def _held(self, name: str):
        section = _SECTION_OF[name]
        if section not in self.sections:
            raise AttributeError(
                f"result holds sections {self.sections!r}, not {section!r} "
                f"(which carries {name!r}); declare it via sections=..."
            )
        return self.payload[name]

    @property
    def ssp_profile(self) -> FineGrainProfile:
        return self._held("ssp_profile")

    @property
    def sse_profile(self) -> FineGrainProfile:
        return self._held("sse_profile")

    @property
    def run_profile(self) -> FineGrainProfile:
        return self._held("run_profile")

    @property
    def runs(self) -> tuple[RunRecord, ...]:
        return self._held("runs")

    @property
    def binning(self) -> BinningResult | None:
        return self._held("binning")

    @property
    def num_golden_runs(self) -> int:
        return len(self.golden_run_indices)

    def sse_vs_ssp_error(self, component: str = "total") -> float:
        """Relative measurement error of reporting SSE instead of SSP power.

        Computed live when both profiles are held; otherwise answered from
        the summary snapshot (total power only).  Raises ``ValueError`` --
        never ``AttributeError`` -- when the error is unavailable, so
        consumers that tolerate missing errors work on any section subset.
        """
        if "ssp" in self.sections and "sse" in self.sections:
            if self.sse_profile.is_empty or self.ssp_profile.is_empty:
                raise ValueError("both SSE and SSP profiles are needed for the error")
            return measurement_error(self.sse_profile, self.ssp_profile, component)
        if component == "total" and "sse_vs_ssp_error" in self.summary_data:
            return float(self.summary_data["sse_vs_ssp_error"])
        raise ValueError(
            f"sections {self.sections!r} hold no SSE/SSP profiles and the "
            f"summary snapshot carries no {component!r} error"
        )

    def summary(self) -> dict[str, object]:
        """Compact summary used by reports and the experiment drivers."""
        return dict(self.summary_data)


class FinGraVProfiler:
    """Drives a profiling backend through the FinGraV methodology."""

    def __init__(
        self,
        backend: ProfilingBackend,
        config: ProfilerConfig | None = None,
        guidance: GuidanceTable | None = None,
    ) -> None:
        self._backend = backend
        self._config = config or ProfilerConfig()
        self._guidance = guidance or paper_guidance_table()
        self._rng = np.random.default_rng(self._config.seed)

    @property
    def backend(self) -> ProfilingBackend:
        return self._backend

    @property
    def config(self) -> ProfilerConfig:
        return self._config

    @property
    def guidance_table(self) -> GuidanceTable:
        return self._guidance

    # ------------------------------------------------------------------ #
    # Step 1: kernel timing and guidance lookup.
    # ------------------------------------------------------------------ #
    def time_kernel(self, kernel: object) -> float:
        """Median steady execution time from a short timing probe."""
        durations = self._backend.time_kernel(kernel, self._config.timing_executions)
        if not durations:
            raise ValueError("backend returned no timing samples")
        steady = durations[len(durations) // 2:]
        return float(np.median(steady))

    # ------------------------------------------------------------------ #
    # The full methodology.
    # ------------------------------------------------------------------ #
    def profile(
        self,
        kernel: object,
        runs: int | None = None,
        preceding: Sequence[PrecedingWork] = (),
        metadata: Mapping[str, object] | None = None,
    ) -> FinGraVResult:
        """Collect the fine-grain power profiles of ``kernel``.

        ``preceding`` optionally schedules other kernels inside every run just
        before the kernel of interest (the interleaved-execution studies of
        paper Section V-C3).  The result holds the sections declared by
        ``config.sections``.

        This is a thin driver over :class:`~repro.core.session.ProfileSession`:
        the session is set up (steps 1-4), collected to completion (steps 5-8,
        fixed-count or adaptive per ``config.adaptive``), and its final result
        (step 9) returned.  With ``adaptive=False`` the output is bit-identical
        to the pre-session monolithic implementation.
        """
        session = self.session(kernel, runs=runs, preceding=preceding, metadata=metadata)
        session.run_to_completion()
        return session.result()

    def session(
        self,
        kernel: object,
        runs: int | None = None,
        preceding: Sequence[PrecedingWork] = (),
        metadata: Mapping[str, object] | None = None,
    ) -> "ProfileSession":
        """Open a resumable profiling session for ``kernel``.

        The setup phase (steps 1-4: timing, guidance, calibration and the
        differentiation plan) runs eagerly; run collection is then advanced
        batch by batch via :meth:`~repro.core.session.ProfileSession.step`,
        :meth:`~repro.core.session.ProfileSession.iter_profiles` or
        :meth:`~repro.core.session.ProfileSession.run_to_completion`.
        """
        from .session import ProfileSession

        return ProfileSession(
            self, kernel, runs=runs, preceding=preceding, metadata=metadata
        )

    def iter_profiles(
        self,
        kernel: object,
        runs: int | None = None,
        preceding: Sequence[PrecedingWork] = (),
        metadata: Mapping[str, object] | None = None,
    ):
        """Stream progressively refined profile snapshots for ``kernel``.

        Yields one :class:`~repro.core.session.ProfileSnapshot` per collection
        batch -- each carrying the SSP/SSE profiles stitched from the runs so
        far plus convergence diagnostics -- ending with the final snapshot
        (``snapshot.final`` is True).  Equivalent to iterating
        ``self.session(...).iter_profiles()``.
        """
        return self.session(
            kernel, runs=runs, preceding=preceding, metadata=metadata
        ).iter_profiles()

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    def _collect_runs(
        self,
        kernel: object,
        count: int,
        executions_per_run: int,
        preceding: Sequence[PrecedingWork],
        start_index: int,
    ) -> tuple[RunRecord, ...]:
        if count <= 0:
            raise ValueError("run count must be positive")
        period = self._backend.power_sample_period_s
        max_delay = self._config.max_random_delay_periods * period
        # One batched draw is stream-identical to per-run scalar draws.
        pre_delays = self._rng.uniform(0.0, max_delay, size=count)
        return self._backend.run_batch(
            kernel, executions_per_run, pre_delays, start_index, preceding
        )

    def _ssp_start_index(self, plan: DifferentiationPlan) -> int:
        """First execution index whose LOIs belong to the SSP profile."""
        return plan.ssp_index if self._config.differentiate else plan.sse_index

    def _describe_preceding(self, work: PrecedingWork) -> str:
        kernel, executions = work
        return f"{self._backend.kernel_name(kernel)} x{executions}"


__all__ = [
    "ProfilerConfig",
    "SECTIONS",
    "normalize_sections",
    "FinGraVResult",
    "FinGraVProfiler",
]
