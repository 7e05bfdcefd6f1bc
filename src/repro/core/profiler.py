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
    #: What :meth:`FinGraVProfiler.profile` returns.  ``"full"`` is the
    #: complete :class:`FinGraVResult` (raw run records included);
    #: ``"slim"`` is its :class:`SlimFinGraVResult` projection -- bit-identical
    #: profiles plus the summary/golden-run metadata, but no raw runs -- which
    #: shrinks worker-IPC and cache payloads for consumers that never
    #: re-stitch the runs.
    result_mode: str = "full"
    #: Which profile sections a slim result retains, declared by the consumer
    #: (the experiment drivers): any subset of ``("ssp", "sse", "run")``, or
    #: ``None`` for all three.  The summary snapshot is captured regardless,
    #: so summary-only consumers can declare ``()``.  When ``"run"`` is
    #: excluded the whole-run profile is never even stitched.  Ignored with
    #: ``result_mode="full"`` (e.g. when ``FINGRAV_RESULT_MODE=full``
    #: overrides a driver's default at job-construction time).
    profile_sections: tuple[str, ...] | None = None
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

    def with_overrides(self, **kwargs: object) -> "ProfilerConfig":
        return replace(self, **kwargs)


#: The three profile sections a result can carry, in canonical order.
PROFILE_SECTIONS: tuple[str, ...] = ("ssp", "sse", "run")


def normalize_profile_sections(sections: Sequence[str] | None) -> tuple[str, ...]:
    """Validate and canonicalise a profile-section declaration.

    ``None`` means every section; anything else is deduplicated and reordered
    to :data:`PROFILE_SECTIONS` order.  Unknown names raise ``ValueError``.
    """
    if sections is None:
        return PROFILE_SECTIONS
    requested = {str(section) for section in sections}
    unknown = requested - set(PROFILE_SECTIONS)
    if unknown:
        raise ValueError(
            f"unknown profile sections {sorted(unknown)}; pick from {PROFILE_SECTIONS}"
        )
    return tuple(name for name in PROFILE_SECTIONS if name in requested)


@dataclass(frozen=True)
class FinGraVResult:
    """Everything the profiler produced for one kernel."""

    kernel_name: str
    execution_time_s: float
    guidance: GuidanceEntry
    plan: DifferentiationPlan
    calibration: DelayCalibration | None
    runs: tuple[RunRecord, ...]
    binning: BinningResult | None
    ssp_profile: FineGrainProfile
    sse_profile: FineGrainProfile
    #: ``None`` only transiently, inside the profiler, when a slim section
    #: subset excludes ``"run"`` (the result is projected before it escapes);
    #: a full result handed to callers always carries it.
    run_profile: FineGrainProfile | None
    config: ProfilerConfig
    metadata: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def golden_run_indices(self) -> tuple[int, ...]:
        if self.binning is None:
            return tuple(run.run_index for run in self.runs)
        ordered = [run.run_index for run in self.runs]
        return tuple(ordered[i] for i in self.binning.selected_indices)

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    @property
    def num_golden_runs(self) -> int:
        return len(self.golden_run_indices)

    @property
    def ssp_loi_count(self) -> int:
        return len(self.ssp_profile)

    @property
    def executions_per_run(self) -> int:
        """Kernel executions in each run (1 when no runs were recorded)."""
        return self.runs[0].num_executions if self.runs else 1

    @property
    def is_slim(self) -> bool:
        return False

    def sse_vs_ssp_error(self, component: str = "total") -> float:
        """Relative measurement error of reporting SSE instead of SSP power."""
        if self.sse_profile.is_empty or self.ssp_profile.is_empty:
            raise ValueError("both SSE and SSP profiles are needed for the error")
        return measurement_error(self.sse_profile, self.ssp_profile, component)

    def summary(self) -> dict[str, object]:
        """Compact summary used by reports and the experiment drivers."""
        return _result_summary(self)

    def slim(self, sections: Sequence[str] | None = None) -> "SlimFinGraVResult":
        """Project this result to its slim form (no raw run records).

        ``sections`` declares which profiles to retain (any subset of
        :data:`PROFILE_SECTIONS`; ``None`` keeps all three).  Retained
        profiles are carried over as-is (bit-identical); the summary is
        snapshotted at projection time, so it -- including the SSE-vs-SSP
        error -- stays available for any subset, even ``()``.  Use it to cut
        serialisation cost wherever the consumer never re-stitches the raw
        runs (worker IPC, the sweep's on-disk cache).
        """
        sections = normalize_profile_sections(sections)
        profiles: dict[str, FineGrainProfile] = {}
        for name in sections:
            profile = getattr(self, f"{name}_profile")
            if profile is None:
                raise ValueError(f"cannot retain section {name!r}: it was never built")
            profiles[name] = profile
        return SlimFinGraVResult(
            kernel_name=self.kernel_name,
            execution_time_s=self.execution_time_s,
            guidance=self.guidance,
            plan=self.plan,
            calibration=self.calibration,
            num_runs=self.num_runs,
            golden_run_indices=self.golden_run_indices,
            executions_per_run=self.executions_per_run,
            ssp_loi_count=self.ssp_loi_count,
            sections=sections,
            profiles=profiles,
            summary_data=_result_summary(self),
            config=self.config,
            metadata=dict(self.metadata),
        )


@dataclass(frozen=True)
class SlimFinGraVResult:
    """A :class:`FinGraVResult` without the raw run records.

    Everything a consumer needs *unless* it re-stitches the raw runs: the
    retained profile ``sections`` (the same objects the full result holds --
    bit-identical), the summary snapshot captured at projection time, the
    plan/guidance/calibration, and the run bookkeeping (total run count,
    golden-run indices, executions per run, SSP LOI count) that the full
    result derives from ``runs``/``binning``.  Accessing ``runs`` or
    ``binning`` raises with a pointer at ``result_mode="full"``; accessing a
    profile section that was not declared raises with a pointer at
    ``ProfilerConfig(profile_sections=...)``.
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
    #: Which profile sections this result retains (canonical order).
    sections: tuple[str, ...]
    #: The retained profiles, keyed by section name.
    profiles: Mapping[str, FineGrainProfile]
    #: Summary snapshot captured at projection time; keeps ``summary()`` and
    #: the total-power SSE-vs-SSP error available for any section subset.
    summary_data: Mapping[str, object]
    config: ProfilerConfig
    metadata: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def num_golden_runs(self) -> int:
        return len(self.golden_run_indices)

    @property
    def is_slim(self) -> bool:
        return True

    def _section(self, name: str) -> FineGrainProfile:
        try:
            return self.profiles[name]
        except KeyError:
            raise AttributeError(
                f"slim result retains profile sections {self.sections!r}, not "
                f"{name!r}; declare it via ProfilerConfig(profile_sections=...) "
                "or profile with result_mode='full'"
            ) from None

    @property
    def ssp_profile(self) -> FineGrainProfile:
        return self._section("ssp")

    @property
    def sse_profile(self) -> FineGrainProfile:
        return self._section("sse")

    @property
    def run_profile(self) -> FineGrainProfile:
        return self._section("run")

    @property
    def runs(self) -> tuple[RunRecord, ...]:
        raise AttributeError(
            "slim results carry no raw runs; profile with "
            "ProfilerConfig(result_mode='full') to re-stitch run records"
        )

    @property
    def binning(self) -> BinningResult:
        raise AttributeError(
            "slim results carry no binning detail; profile with "
            "ProfilerConfig(result_mode='full') for the full BinningResult"
        )

    def sse_vs_ssp_error(self, component: str = "total") -> float:
        """Relative measurement error of reporting SSE instead of SSP power.

        Computed live when both profiles are retained; otherwise answered
        from the summary snapshot (total power only).  Raises ``ValueError``
        -- never ``AttributeError`` -- when the error is unavailable, so
        consumers that tolerate missing errors keep working on any subset.
        """
        ssp = self.profiles.get("ssp")
        sse = self.profiles.get("sse")
        if ssp is not None and sse is not None:
            if sse.is_empty or ssp.is_empty:
                raise ValueError("both SSE and SSP profiles are needed for the error")
            return measurement_error(sse, ssp, component)
        if component == "total" and "sse_vs_ssp_error" in self.summary_data:
            return float(self.summary_data["sse_vs_ssp_error"])
        raise ValueError(
            f"sections {self.sections!r} retain no SSE/SSP profiles and the "
            f"summary snapshot carries no {component!r} error"
        )

    def summary(self) -> dict[str, object]:
        """Compact summary -- the snapshot captured at projection time."""
        return dict(self.summary_data)

    def slim(self, sections: Sequence[str] | None = None) -> "SlimFinGraVResult":
        """This result, optionally narrowed to fewer sections."""
        if sections is None:
            return self
        sections = normalize_profile_sections(sections)
        missing = [name for name in sections if name not in self.profiles]
        if missing:
            raise ValueError(
                f"cannot narrow to sections {sections!r}: {missing} were already "
                f"dropped (retained: {self.sections!r})"
            )
        return replace(
            self,
            sections=sections,
            profiles={name: self.profiles[name] for name in sections},
        )


def _result_summary(result: "FinGraVResult | SlimFinGraVResult") -> dict[str, object]:
    """The summary dictionary shared by the full and slim result forms."""
    summary: dict[str, object] = {
        "kernel": result.kernel_name,
        "execution_time_s": result.execution_time_s,
        "runs": result.num_runs,
        "golden_runs": result.num_golden_runs,
        "warmup_executions": result.plan.warmup_executions,
        "sse_executions": result.plan.sse_executions,
        "ssp_executions": result.plan.ssp_executions,
        "throttling_detected": result.plan.throttling_detected,
        "ssp_lois": result.ssp_loi_count,
    }
    if not result.ssp_profile.is_empty:
        summary["ssp_mean_total_w"] = result.ssp_profile.mean_power_w("total")
    if not result.sse_profile.is_empty:
        summary["sse_mean_total_w"] = result.sse_profile.mean_power_w("total")
    if not result.ssp_profile.is_empty and not result.sse_profile.is_empty:
        summary["sse_vs_ssp_error"] = result.sse_vs_ssp_error()
    collection = result.metadata.get("collection")
    if collection is not None:
        summary["collection"] = dict(collection)
    return summary


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
        if self._config.result_mode not in ("full", "slim"):
            raise ValueError(
                f"unknown result_mode {self._config.result_mode!r}; "
                "pick 'full' or 'slim'"
            )
        # Fail fast on typos in the section declaration, even though the
        # declaration only takes effect in slim mode.
        normalize_profile_sections(self._config.profile_sections)
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
    ) -> "FinGraVResult | SlimFinGraVResult":
        """Collect the fine-grain power profiles of ``kernel``.

        ``preceding`` optionally schedules other kernels inside every run just
        before the kernel of interest (the interleaved-execution studies of
        paper Section V-C3).  With ``config.result_mode == "slim"`` the
        returned result is the slim projection (same profiles, no raw runs).

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
        records: list[RunRecord] = []
        for offset in range(count):
            records.append(
                self._backend.run(
                    kernel,
                    executions=executions_per_run,
                    pre_delay_s=float(pre_delays[offset]),
                    run_index=start_index + offset,
                    preceding=preceding,
                )
            )
        return tuple(records)

    def _ssp_start_index(self, plan: DifferentiationPlan) -> int:
        """First execution index whose LOIs belong to the SSP profile."""
        return plan.ssp_index if self._config.differentiate else plan.sse_index

    def _describe_preceding(self, work: PrecedingWork) -> str:
        kernel, executions = work
        return f"{self._backend.kernel_name(kernel)} x{executions}"


__all__ = [
    "ProfilerConfig",
    "PROFILE_SECTIONS",
    "normalize_profile_sections",
    "FinGraVResult",
    "SlimFinGraVResult",
    "FinGraVProfiler",
]
