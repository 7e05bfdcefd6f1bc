"""Tests for result sections: one result class, cut to the declared sections."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.profiler import (
    SECTIONS,
    FinGraVProfiler,
    FinGraVResult,
    ProfilerConfig,
    normalize_sections,
)
from repro.experiments.common import make_backend, make_profiler
from repro.experiments.sweep import ProfileJob, execute_job, job_key, kernel_spec
from repro.kernels.workloads import cb_gemm


SMALL_JOB = ProfileJob(
    job_id="sections-test/CB-2K-GEMM",
    kernel=kernel_spec("cb_gemm", 2048),
    runs=10,
    backend_seed=71,
    profiler_seed=171,
    max_additional_runs=40,
)

#: Every profile section, no raw runs.
PROFILES_ONLY = ("ssp", "sse", "run")


def sectioned(sections) -> FinGraVResult:
    return execute_job(dataclasses.replace(SMALL_JOB, sections=sections))


def assert_profiles_equal(a, b) -> None:
    assert len(a) == len(b)
    assert np.array_equal(a.times(), b.times())
    assert a.components == b.components
    for component in a.components:
        assert np.array_equal(a.series(component), b.series(component))


@pytest.fixture(scope="module")
def everything_and_declared() -> tuple[FinGraVResult, FinGraVResult]:
    return execute_job(SMALL_JOB), sectioned(PROFILES_ONLY)


class TestSectionEquivalence:
    def test_one_result_class(self, everything_and_declared):
        everything, declared = everything_and_declared
        assert type(everything) is type(declared) is FinGraVResult
        assert everything.sections == SECTIONS
        assert declared.sections == PROFILES_ONLY

    def test_profiles_bit_identical(self, everything_and_declared):
        everything, declared = everything_and_declared
        for attribute in ("ssp_profile", "sse_profile", "run_profile"):
            assert_profiles_equal(
                getattr(everything, attribute), getattr(declared, attribute)
            )

    def test_summary_and_metadata_identical(self, everything_and_declared):
        everything, declared = everything_and_declared
        assert everything.summary() == declared.summary()
        assert everything.metadata == declared.metadata
        assert "collection" in declared.metadata
        assert everything.num_runs == declared.num_runs
        assert everything.num_golden_runs == declared.num_golden_runs
        assert everything.golden_run_indices == declared.golden_run_indices
        assert everything.executions_per_run == declared.executions_per_run
        assert everything.ssp_loi_count == declared.ssp_loi_count
        if "sse_vs_ssp_error" in everything.summary():
            assert everything.sse_vs_ssp_error() == declared.sse_vs_ssp_error()
        else:
            with pytest.raises(ValueError):
                declared.sse_vs_ssp_error()

    def test_bookkeeping_matches_raw_runs(self, everything_and_declared):
        everything, _ = everything_and_declared
        runs = everything.runs
        assert everything.num_runs == len(runs)
        assert everything.executions_per_run == runs[0].num_executions
        selected = everything.binning.selected_indices
        assert everything.golden_run_indices == tuple(
            runs[i].run_index for i in selected
        )
        assert everything.ssp_loi_count == len(everything.ssp_profile)

    def test_payload_without_runs_smaller(self, everything_and_declared):
        everything, declared = everything_and_declared
        protocol = pickle.HIGHEST_PROTOCOL
        assert len(pickle.dumps(declared, protocol)) < len(pickle.dumps(everything, protocol))
        clone = pickle.loads(pickle.dumps(declared, protocol))
        assert clone.summary() == declared.summary()
        assert clone.sections == declared.sections

    def test_raw_run_access_raises(self, everything_and_declared):
        everything, declared = everything_and_declared
        assert everything.runs and everything.binning is not None
        with pytest.raises(AttributeError, match="sections="):
            _ = declared.runs
        with pytest.raises(AttributeError, match="sections="):
            _ = declared.binning


class TestDriverOutputsUnchanged:
    def test_table1_measurement_identical(self, everything_and_declared):
        from repro.core.guidance import paper_guidance_table
        from repro.experiments.table1 import _measure_row

        everything, _ = everything_and_declared
        entry = paper_guidance_table().lookup(everything.execution_time_s)
        assert (
            _measure_row(entry, everything).to_row()
            == _measure_row(entry, sectioned(())).to_row()
        )

    def test_fig8_style_assembly_identical(self, everything_and_declared):
        everything, _ = everything_and_declared
        run_only = sectioned(("run",))
        for pair in zip(
            everything.run_profile.binned_mean("total", bins=10),
            run_only.run_profile.binned_mean("total", bins=10),
        ):
            assert np.array_equal(*pair)
        assert everything.summary() == run_only.summary()


class TestSectionDeclaration:
    def test_unknown_section_rejected_early(self):
        with pytest.raises(ValueError, match="unknown sections"):
            ProfilerConfig(sections=("ssp", "golden"))
        with pytest.raises(ValueError, match="unknown sections"):
            normalize_sections(["bogus"])

    def test_sections_deduplicated_and_canonically_ordered(self):
        assert normalize_sections(None) == ("ssp", "sse", "run", "runs")
        assert normalize_sections(("runs", "run", "ssp", "run")) == ("ssp", "run", "runs")
        assert normalize_sections(()) == ()
        assert ProfilerConfig(sections=["run", "ssp", "run"]).sections == ("ssp", "run")
        assert ProfilerConfig().sections is None

    def test_declared_sections_retained_others_raise(self, everything_and_declared):
        everything, _ = everything_and_declared
        result = sectioned(("ssp", "sse"))
        assert result.sections == ("ssp", "sse")
        assert_profiles_equal(result.ssp_profile, everything.ssp_profile)
        assert_profiles_equal(result.sse_profile, everything.sse_profile)
        with pytest.raises(AttributeError, match="sections="):
            _ = result.run_profile
        with pytest.raises(AttributeError, match="sections="):
            _ = result.runs

    def test_empty_sections_keep_summary_and_error(self, everything_and_declared):
        everything, _ = everything_and_declared
        result = sectioned(())
        assert result.sections == ()
        assert result.payload == {}
        assert result.summary() == everything.summary()
        assert result.ssp_loi_count == everything.ssp_loi_count
        if "sse_vs_ssp_error" in everything.summary():
            # The error is answered from the snapshot -- same value as live.
            assert result.sse_vs_ssp_error() == everything.sse_vs_ssp_error()
        else:
            with pytest.raises(ValueError):
                result.sse_vs_ssp_error()
        # Non-total components have no snapshot: ValueError, not
        # AttributeError (summary_from_result and friends tolerate exactly
        # ValueError).
        with pytest.raises(ValueError, match="snapshot"):
            result.sse_vs_ssp_error("xcd")
        with pytest.raises(AttributeError, match="sections="):
            _ = result.ssp_profile

    def test_run_only_sections_skip_ssp_sse_payload(self, everything_and_declared):
        everything, _ = everything_and_declared
        result = sectioned(("run",))
        assert result.sections == ("run",)
        assert set(result.payload) == {"run_profile"}
        assert_profiles_equal(result.run_profile, everything.run_profile)
        # Summary (built from ssp/sse before they were dropped) is intact.
        assert result.summary() == everything.summary()

    def test_run_exclusion_skips_run_stitching(self, monkeypatch):
        # When "run" is not declared, the profiler never builds it.
        from repro.core import stitching as stitching_module

        calls: list[tuple[str, ...]] = []
        real = stitching_module.ProfileStitcher.section_profiles

        def recording(self, series, sections, **kwargs):
            calls.append(tuple(sections))
            return real(self, series, sections, **kwargs)

        monkeypatch.setattr(
            stitching_module.ProfileStitcher, "section_profiles", recording
        )
        sectioned(("ssp", "runs"))
        assert calls == [("ssp", "sse")]  # sse rides along for the summary
        calls.clear()
        execute_job(SMALL_JOB)
        assert calls == [("ssp", "sse", "run")]

    def test_sections_change_cache_key(self):
        assert job_key(SMALL_JOB) != job_key(
            dataclasses.replace(SMALL_JOB, sections=PROFILES_ONLY)
        )
        assert job_key(dataclasses.replace(SMALL_JOB, sections=("ssp",))) != job_key(
            dataclasses.replace(SMALL_JOB, sections=("ssp", "sse"))
        )

    def test_make_profiler_sections_end_to_end(self):
        backend = make_backend(seed=5)
        profiler = make_profiler(backend, seed=105, max_additional_runs=20, sections=("ssp",))
        assert isinstance(profiler, FinGraVProfiler)
        assert profiler.config.sections == ("ssp",)
        result = profiler.profile(cb_gemm(2048), runs=6)
        assert result.sections == ("ssp",)
        assert not result.ssp_profile.is_empty
        assert result.metadata["collection"]["adaptive"] is False

    def test_driver_jobs_declare_expected_sections(self):
        from repro.experiments import ablations, fig5, fig6, fig7, fig8, fig9, fig10, table1

        assert all(j.sections == ("ssp", "sse") for j in fig7.fig7_jobs())
        assert all(j.sections == () for j in table1.table1_jobs())
        assert all(j.sections == ("run",) for j in fig6.fig6_jobs())
        assert all(j.sections == ("run",) for j in fig8.fig8_jobs())
        assert all(j.sections == ("ssp",) for j in fig10.fig10_jobs())
        assert all(j.sections == () for j in ablations.sampler_ablation_jobs())
        fig9_jobs = fig9.fig9_jobs()
        isolated = [j for j in fig9_jobs if j.job_id.startswith("fig9/isolated/")]
        assert isolated and all(j.sections == ("ssp",) for j in isolated)
        # The re-stitching drivers keep every section, raw runs included.
        assert all(j.sections is None for j in fig5.fig5_jobs())
        assert all(j.sections is None for j in ablations.binning_margin_jobs())
