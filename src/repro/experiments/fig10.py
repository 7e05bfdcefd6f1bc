"""Figure 10: component-level comparison of communication kernels vs CB-8K-GEMM.

The paper profiles eight collectives -- all-gather and all-reduce at 64 KB,
128 KB (latency-bound) and 512 MB, 1 GB (bandwidth-bound) -- and plots their
total / XCD / IOD / HBM power next to CB-8K-GEMM.  Expected relationships:

* CB-8K-GEMM has much higher XCD power than any communication kernel;
* bandwidth-bound collectives sit between latency-bound collectives and the
  GEMM in total power;
* bandwidth-bound collectives incur considerably higher IOD and HBM power than
  latency-bound ones (and higher IOD than the GEMM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..analysis.comparative import ComponentComparison, comparison_from_results
from ..core.profiler import FinGraVResult
from ..kernels.collectives import TransferRegime
from ..kernels.workloads import cb_gemm, collective_suite
from .common import ExperimentScale, default_scale
from .sweep import ProfileJob, SweepRunner, configured_adaptive, kernel_spec, run_jobs


@dataclass(frozen=True)
class Fig10Result:
    """Everything the Figure-10 reproduction reports."""

    comparison: ComponentComparison
    results: tuple[FinGraVResult, ...]
    latency_bound_names: tuple[str, ...]
    bandwidth_bound_names: tuple[str, ...]
    gemm_name: str

    # ------------------------------------------------------------------ #
    def _mean(self, names: tuple[str, ...], component: str) -> float:
        values = [self.comparison.summary_for(n).component(component) for n in names]
        return sum(values) / len(values)

    def gemm_has_highest_xcd(self) -> bool:
        gemm_xcd = self.comparison.summary_for(self.gemm_name).component("xcd")
        comm_xcd = [
            self.comparison.summary_for(n).component("xcd")
            for n in (*self.latency_bound_names, *self.bandwidth_bound_names)
        ]
        return gemm_xcd > max(comm_xcd) * 1.5

    def bb_total_between_lb_and_gemm(self) -> bool:
        lb_total = self._mean(self.latency_bound_names, "total")
        bb_total = self._mean(self.bandwidth_bound_names, "total")
        gemm_total = self.comparison.summary_for(self.gemm_name).component("total")
        return lb_total < bb_total < gemm_total

    def bb_has_higher_iod_and_hbm(self) -> bool:
        lb_iod = self._mean(self.latency_bound_names, "iod")
        bb_iod = self._mean(self.bandwidth_bound_names, "iod")
        lb_hbm = self._mean(self.latency_bound_names, "hbm")
        bb_hbm = self._mean(self.bandwidth_bound_names, "hbm")
        return bb_iod > lb_iod * 1.5 and bb_hbm > lb_hbm

    def bb_iod_exceeds_gemm_iod(self) -> bool:
        bb_iod = self._mean(self.bandwidth_bound_names, "iod")
        gemm_iod = self.comparison.summary_for(self.gemm_name).component("iod")
        return bb_iod > gemm_iod

    def all_claims(self) -> dict[str, bool]:
        return {
            "gemm_has_highest_xcd": self.gemm_has_highest_xcd(),
            "bb_total_between_lb_and_gemm": self.bb_total_between_lb_and_gemm(),
            "bb_has_higher_iod_and_hbm": self.bb_has_higher_iod_and_hbm(),
            "bb_iod_exceeds_gemm_iod": self.bb_iod_exceeds_gemm_iod(),
        }

    def rows(self) -> list[dict[str, object]]:
        return self.comparison.to_rows()

    def summary(self) -> dict[str, object]:
        summary: dict[str, object] = {
            "latency_bound": list(self.latency_bound_names),
            "bandwidth_bound": list(self.bandwidth_bound_names),
        }
        summary.update(self.all_claims())
        return summary


def fig10_jobs(
    scale: ExperimentScale | None = None,
    seed: int = 10,
    collective_runs: int | None = None,
    gemm_runs: int | None = None,
) -> list[ProfileJob]:
    """Per-kernel profile jobs for Figure 10 (8 collectives + CB-8K-GEMM)."""
    scale = scale or default_scale()
    collective_runs = collective_runs or scale.collective_runs
    gemm_runs = gemm_runs or scale.gemm_runs
    jobs: list[ProfileJob] = []
    # Assembly reads the SSP component summaries (the SSE-vs-SSP error comes
    # from the summary snapshot), never the raw runs or the other profiles:
    # ship SSP only.
    for offset, kernel in enumerate(collective_suite()):
        jobs.append(
            ProfileJob(
                job_id=f"fig10/{kernel.name}",
                kernel=kernel_spec("collective", kernel.name),
                runs=collective_runs,
                backend_seed=seed + offset,
                profiler_seed=seed + 100 + offset,
                sections=("ssp",),
                adaptive=configured_adaptive(),
            )
        )
    gemm = cb_gemm(8192)
    jobs.append(
        ProfileJob(
            job_id=f"fig10/{gemm.name}",
            kernel=kernel_spec("cb_gemm", 8192),
            runs=gemm_runs,
            backend_seed=seed + len(jobs),
            profiler_seed=seed + 100 + len(jobs),
            sections=("ssp",),
            adaptive=configured_adaptive(),
        )
    )
    return jobs


def fig10_from_results(
    results: Mapping[str, object],
    scale: ExperimentScale | None = None,
    seed: int = 10,
) -> Fig10Result:
    """Assemble the Figure-10 result from executed sweep jobs."""
    del scale, seed
    collectives = collective_suite()
    gemm = cb_gemm(8192)
    ordered: tuple[FinGraVResult, ...] = tuple(
        results[f"fig10/{kernel.name}"] for kernel in (*collectives, gemm)
    )
    latency_bound = tuple(
        kernel.name for kernel in collectives
        if kernel.regime() is TransferRegime.LATENCY_BOUND
    )
    bandwidth_bound = tuple(
        kernel.name for kernel in collectives
        if kernel.regime() is TransferRegime.BANDWIDTH_BOUND
    )
    return Fig10Result(
        comparison=comparison_from_results(ordered),
        results=ordered,
        latency_bound_names=latency_bound,
        bandwidth_bound_names=bandwidth_bound,
        gemm_name=gemm.name,
    )


def run_fig10(
    scale: ExperimentScale | None = None,
    seed: int = 10,
    collective_runs: int | None = None,
    gemm_runs: int | None = None,
    runner: SweepRunner | None = None,
) -> Fig10Result:
    """Reproduce Figure 10 (collectives vs CB-8K-GEMM component comparison)."""
    jobs = fig10_jobs(
        scale=scale, seed=seed, collective_runs=collective_runs, gemm_runs=gemm_runs
    )
    return fig10_from_results(run_jobs(jobs, runner), scale=scale, seed=seed)


__all__ = ["Fig10Result", "fig10_jobs", "fig10_from_results", "run_fig10"]
