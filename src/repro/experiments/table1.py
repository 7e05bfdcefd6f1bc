"""Table I: FinGraV profiling guidance, re-derived empirically.

The paper's Table I recommends, per kernel-execution-time range, how many runs
to execute, how many logs of interest (LOIs) to target, and what binning
margin to allow.  This driver re-derives the empirical basis of that table:
for one representative kernel per range it measures

* the LOI yield per run (how often a 1 ms sample lands inside the execution of
  interest), which determines the #runs needed to hit the LOI target, and
* the fraction of runs surviving golden-run selection at the recommended
  binning margin,

and places the paper's recommendation next to the measured requirement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..core.guidance import GuidanceEntry, paper_guidance_table
from ..core.profiler import FinGraVResult
from .common import ExperimentScale, default_scale
from .sweep import KernelSpec, ProfileJob, SweepRunner, configured_adaptive, kernel_spec, run_jobs


@dataclass(frozen=True)
class GuidanceRowMeasurement:
    """Measured LOI economics for one execution-time range."""

    entry: GuidanceEntry
    kernel_name: str
    execution_time_s: float
    runs_executed: int
    golden_runs: int
    ssp_lois: int
    target_lois: int
    #: Executions per run whose LOIs count toward the SSP profile (the SSP
    #: execution plus the stability tail appended by the profiler).
    qualifying_executions_per_run: int = 1

    @property
    def loi_yield_per_run(self) -> float:
        """Average SSP LOIs obtained per executed run (tail executions included)."""
        return self.ssp_lois / self.runs_executed if self.runs_executed else 0.0

    @property
    def per_execution_yield(self) -> float:
        """Probability that one specific execution of a run yields an LOI.

        This is the paper's framing (at best a single power log per run for a
        sub-millisecond kernel), independent of how many stability-tail
        executions the profiler appends.
        """
        if self.runs_executed <= 0 or self.qualifying_executions_per_run <= 0:
            return 0.0
        return self.ssp_lois / (self.runs_executed * self.qualifying_executions_per_run)

    @property
    def runs_needed_for_target(self) -> int:
        """Runs required for the LOI target at one qualifying execution per run."""
        if self.per_execution_yield <= 0:
            return 0
        return int(math.ceil(self.target_lois / min(self.per_execution_yield, 1.0)))

    @property
    def golden_fraction(self) -> float:
        return self.golden_runs / self.runs_executed if self.runs_executed else 0.0

    def to_row(self) -> dict[str, object]:
        return {
            "range": self.entry.describe().split(":")[0],
            "kernel": self.kernel_name,
            "execution_time_us": round(self.execution_time_s * 1e6, 1),
            "paper_runs": self.entry.runs,
            "paper_margin_pct": round(self.entry.binning_margin * 100, 1),
            "target_lois": self.target_lois,
            "per_execution_loi_yield": round(self.per_execution_yield, 3),
            "runs_needed_for_target": self.runs_needed_for_target,
            "runs_executed": self.runs_executed,
            "golden_fraction": round(self.golden_fraction, 2),
        }


@dataclass(frozen=True)
class Table1Result:
    """The regenerated guidance table."""

    measurements: tuple[GuidanceRowMeasurement, ...]

    def rows(self) -> list[dict[str, object]]:
        return [measurement.to_row() for measurement in self.measurements]

    def paper_rows(self) -> list[dict[str, object]]:
        """Table I exactly as printed in the paper."""
        return paper_guidance_table().rows()

    def shorter_kernels_need_more_runs(self) -> bool:
        """The paper's rationale: smaller kernels yield fewer LOIs per execution.

        Checked on the per-execution LOI yield: the shortest kernel's yield is
        the lowest and the longest kernel's the highest, which is why Table I
        recommends more runs at the short end.
        """
        ordered = sorted(self.measurements, key=lambda m: m.execution_time_s)
        yields = [m.per_execution_yield for m in ordered]
        if len(yields) < 2:
            return False
        return yields[0] <= min(yields) + 1e-9 and yields[-1] >= max(yields) - 1e-9

    def recommendations_are_sufficient(self, slack: float = 1.5) -> bool:
        """Paper-recommended #runs roughly cover the measured requirement.

        The paper treats its #runs as guidance plus an optional top-up
        (methodology step 8), so a modest slack factor is allowed.
        """
        return all(
            m.runs_needed_for_target <= m.entry.runs * slack
            for m in self.measurements
            if m.runs_needed_for_target > 0
        )


#: Representative kernel per guidance range: (range upper bound tag, spec).
_REPRESENTATIVES: tuple[tuple[str, KernelSpec], ...] = (
    ("25-50us", kernel_spec("cb_gemm", 2048)),
    ("50-200us", kernel_spec("cb_gemm", 4096)),
    ("200us-1ms", kernel_spec("square_gemm", 6144, name="CB-6K-GEMM")),
    (">1ms", kernel_spec("cb_gemm", 8192)),
)


def _measure_row(entry: GuidanceEntry, result: FinGraVResult) -> GuidanceRowMeasurement:
    # executions_per_run is carried by every result, so the measurement
    # never needs the raw run records.
    qualifying = max(result.executions_per_run - result.plan.ssp_executions + 1, 1)
    return GuidanceRowMeasurement(
        entry=entry,
        kernel_name=result.kernel_name,
        execution_time_s=result.execution_time_s,
        runs_executed=result.num_runs,
        golden_runs=result.num_golden_runs,
        ssp_lois=result.ssp_loi_count,
        target_lois=entry.recommended_lois(result.execution_time_s),
        qualifying_executions_per_run=qualifying,
    )


def table1_jobs(
    scale: ExperimentScale | None = None,
    seed: int = 1,
    runs: int | None = None,
) -> list[ProfileJob]:
    """One profile job per guidance range's representative kernel."""
    scale = scale or default_scale()
    # The measurements read scalar bookkeeping only (run counts, LOI counts,
    # the plan): ship no sections at all.
    return [
        ProfileJob(
            job_id=f"table1/{tag}",
            kernel=spec,
            runs=runs or scale.gemm_runs,
            backend_seed=seed + offset,
            profiler_seed=seed + 100 + offset,
            sections=(),
            adaptive=configured_adaptive(),
        )
        for offset, (tag, spec) in enumerate(_REPRESENTATIVES)
    ]


def table1_from_results(
    results: Mapping[str, object],
    scale: ExperimentScale | None = None,
    seed: int = 1,
) -> Table1Result:
    """Assemble the regenerated Table I from executed sweep jobs."""
    del scale, seed
    table = paper_guidance_table()
    measurements: list[GuidanceRowMeasurement] = []
    for tag, _ in _REPRESENTATIVES:
        result: FinGraVResult = results[f"table1/{tag}"]
        entry = table.lookup(result.execution_time_s)
        measurements.append(_measure_row(entry, result))
    return Table1Result(measurements=tuple(measurements))


def run_table1(
    scale: ExperimentScale | None = None,
    seed: int = 1,
    runs: int | None = None,
    runner: SweepRunner | None = None,
) -> Table1Result:
    """Regenerate Table I by measuring LOI economics per execution-time range."""
    jobs = table1_jobs(scale=scale, seed=seed, runs=runs)
    return table1_from_results(run_jobs(jobs, runner), scale=scale, seed=seed)


__all__ = [
    "GuidanceRowMeasurement",
    "Table1Result",
    "table1_jobs",
    "table1_from_results",
    "run_table1",
]
