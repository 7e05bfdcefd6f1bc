"""Figure 7: component-level comparison of CB GEMMs vs MB GEMVs.

The paper plots relative total / XCD / IOD / HBM power of the three
compute-bound GEMMs and the three memory-bound GEMVs, using their SSP
profiles.  The expected relationships are:

* CB GEMMs draw considerably higher total and XCD power than MB GEMVs;
* among CB GEMMs, CB-8K-GEMM is slightly higher in total/XCD power;
* total power drops from MB-8K-GEMV to MB-2K-GEMV;
* MB-8K-GEMV stresses IOD power more than any CB GEMM;
* CB-8K-GEMM has the highest HBM power of the six kernels;
* CB-2K-GEMM has roughly half the compute utilisation of CB-8K yet similar
  XCD power (the power-proportionality gap of takeaway #4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..analysis.comparative import ComponentComparison, comparison_from_results
from ..analysis.errors import ErrorSummary, summarize_errors
from ..analysis.proportionality import ProportionalityAssessment, assess_proportionality
from ..core.profiler import FinGraVResult
from ..gpu.spec import mi300x_spec
from ..kernels.workloads import GEMM_SIZES, cb_gemms, mb_gemvs
from .common import ExperimentScale, default_scale, power_sample_period_s
from .sweep import ProfileJob, SweepRunner, configured_adaptive, kernel_spec, run_jobs


@dataclass(frozen=True)
class Fig7Result:
    """Everything the Figure-7 reproduction reports."""

    comparison: ComponentComparison
    results: tuple[FinGraVResult, ...]
    errors: ErrorSummary
    proportionality: ProportionalityAssessment
    cb_names: tuple[str, ...]
    mb_names: tuple[str, ...]

    # ------------------------------------------------------------------ #
    # The paper's claims as individual checks.
    # ------------------------------------------------------------------ #
    def cb_above_mb_total(self) -> bool:
        cb = [self.comparison.summary_for(n).component("total") for n in self.cb_names]
        mb = [self.comparison.summary_for(n).component("total") for n in self.mb_names]
        return min(cb) > max(mb)

    def cb_above_mb_xcd(self) -> bool:
        cb = [self.comparison.summary_for(n).component("xcd") for n in self.cb_names]
        mb = [self.comparison.summary_for(n).component("xcd") for n in self.mb_names]
        return min(cb) > max(mb)

    def cb8k_highest_cb_total(self) -> bool:
        totals = {n: self.comparison.summary_for(n).component("total") for n in self.cb_names}
        return max(totals, key=totals.get) == "CB-8K-GEMM"

    def gemv_total_drops_with_size(self) -> bool:
        ordered = [self.comparison.summary_for(n).component("total") for n in self.mb_names]
        return ordered[0] > ordered[-1]

    def mb8k_stresses_iod(self) -> bool:
        mb8k_iod = self.comparison.summary_for("MB-8K-GEMV").component("iod")
        cb_iods = [self.comparison.summary_for(n).component("iod") for n in self.cb_names]
        return mb8k_iod > max(cb_iods)

    def cb8k_highest_hbm(self) -> bool:
        hbm = self.comparison.series("hbm")
        return max(hbm, key=hbm.get) == "CB-8K-GEMM"

    def xcd_similar_across_cb(self, tolerance: float = 0.35) -> bool:
        xcd = [self.comparison.summary_for(n).component("xcd") for n in self.cb_names]
        return (max(xcd) - min(xcd)) / max(xcd) <= tolerance

    def all_claims(self) -> dict[str, bool]:
        return {
            "cb_above_mb_total": self.cb_above_mb_total(),
            "cb_above_mb_xcd": self.cb_above_mb_xcd(),
            "cb8k_highest_cb_total": self.cb8k_highest_cb_total(),
            "gemv_total_drops_with_size": self.gemv_total_drops_with_size(),
            "mb8k_stresses_iod": self.mb8k_stresses_iod(),
            "cb8k_highest_hbm": self.cb8k_highest_hbm(),
            "xcd_similar_across_cb": self.xcd_similar_across_cb(),
        }

    def rows(self) -> list[dict[str, object]]:
        return self.comparison.to_rows()

    def summary(self) -> dict[str, object]:
        summary: dict[str, object] = {"kernels": len(self.comparison.summaries)}
        summary.update(self.all_claims())
        summary["max_sse_vs_ssp_error_pct"] = round(self.errors.max_error() * 100, 1)
        return summary


def fig7_jobs(
    scale: ExperimentScale | None = None,
    seed: int = 7,
    gemm_runs: int | None = None,
    gemv_runs: int | None = None,
) -> list[ProfileJob]:
    """Per-kernel profile jobs for Figure 7 (one independent job per kernel)."""
    scale = scale or default_scale()
    gemm_runs = gemm_runs or scale.gemm_runs
    gemv_runs = gemv_runs or scale.gemv_runs
    jobs: list[ProfileJob] = []
    offset = 0
    # Assembly only reads the SSP/SSE profiles (component comparison + error
    # summary) and scalar summaries, never the raw runs or the whole-run
    # profile: ship SSP and SSE only (the run profile is never stitched).
    for key, runs in (("cb_gemm", gemm_runs), ("mb_gemv", gemv_runs)):
        for size in GEMM_SIZES:
            spec = kernel_spec(key, size)
            jobs.append(
                ProfileJob(
                    job_id=f"fig7/{spec.build().name}",
                    kernel=spec,
                    runs=runs,
                    backend_seed=seed + offset,
                    profiler_seed=seed + 100 + offset,
                    sections=("ssp", "sse"),
                    adaptive=configured_adaptive(),
                )
            )
            offset += 1
    return jobs


def fig7_from_results(
    results: Mapping[str, object],
    scale: ExperimentScale | None = None,
    seed: int = 7,
) -> Fig7Result:
    """Assemble the Figure-7 result from executed sweep jobs."""
    del scale, seed  # assembly depends only on the job results
    gemms = cb_gemms()
    gemvs = mb_gemvs()
    ordered: tuple[FinGraVResult, ...] = tuple(
        results[f"fig7/{kernel.name}"] for kernel in (*gemms, *gemvs)
    )
    comparison = comparison_from_results(ordered)
    errors = summarize_errors(ordered, power_sample_period_s())
    proportionality = assess_proportionality(
        kernels=[*gemms, *gemvs],
        summaries=comparison.summaries,
        spec=mi300x_spec(),
    )
    return Fig7Result(
        comparison=comparison,
        results=ordered,
        errors=errors,
        proportionality=proportionality,
        cb_names=tuple(k.name for k in gemms),
        mb_names=tuple(k.name for k in gemvs),
    )


def run_fig7(
    scale: ExperimentScale | None = None,
    seed: int = 7,
    gemm_runs: int | None = None,
    gemv_runs: int | None = None,
    runner: SweepRunner | None = None,
) -> Fig7Result:
    """Reproduce Figure 7 (component comparison of the six GEMM/GEMV kernels)."""
    jobs = fig7_jobs(scale=scale, seed=seed, gemm_runs=gemm_runs, gemv_runs=gemv_runs)
    return fig7_from_results(run_jobs(jobs, runner), scale=scale, seed=seed)


__all__ = ["Fig7Result", "fig7_jobs", "fig7_from_results", "run_fig7"]
