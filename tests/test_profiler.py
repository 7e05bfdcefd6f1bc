"""Integration tests for the nine-step FinGraV profiler and the baselines."""

import pytest

from repro.core.baselines import (
    CoarseSamplerEstimator,
    reduced_runs_profiler,
    sse_only_profiler,
    unsynchronized_profiler,
)
from repro.core.profiler import FinGraVProfiler, ProfilerConfig
from repro.core.report import guidance_report, result_report
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.kernels.workloads import cb_gemm, mb_gemv


class TestProfilerOnShortKernel:
    def test_result_structure(self, cb2k_result):
        result = cb2k_result
        assert result.kernel_name == "CB-2K-GEMM"
        assert 25e-6 <= result.execution_time_s <= 50e-6
        assert result.guidance.runs == 400
        assert result.plan.warmup_executions == 3
        assert result.plan.sse_executions == 4
        # SSP executions follow the window-fill rule for a ~35 us kernel.
        assert result.plan.ssp_executions >= 25
        assert result.num_golden_runs <= result.num_runs
        assert result.ssp_loi_count >= 4

    def test_ssp_power_between_idle_and_board_limit(self, cb2k_result, spec):
        ssp = cb2k_result.ssp_profile.mean_power_w("total")
        assert spec.power.idle_total_w < ssp < spec.power.board_limit_w

    def test_sse_much_lower_than_ssp_for_short_kernel(self, cb2k_result):
        # Paper: up to ~80% error for CB-2K-GEMM; the reproduction lands well
        # above 40%.
        assert cb2k_result.sse_vs_ssp_error() > 0.4

    def test_component_breakdown_present(self, cb2k_result):
        summary = cb2k_result.ssp_profile.component_summary()
        assert set(summary) >= {"total", "xcd", "iod", "hbm"}
        assert summary["xcd"] > summary["iod"] > 0

    def test_summary_keys(self, cb2k_result):
        summary = cb2k_result.summary()
        assert summary["kernel"] == "CB-2K-GEMM"
        assert "sse_vs_ssp_error" in summary

    def test_report_rendering(self, cb2k_result):
        from repro.core.guidance import paper_guidance_table

        text = result_report(cb2k_result)
        assert "CB-2K-GEMM" in text
        assert "SSE vs SSP" in text
        assert "400" in guidance_report(paper_guidance_table())


class TestProfilerOnThrottledKernel:
    def test_throttling_detected_and_ssp_extended(self, cb8k_result):
        assert cb8k_result.plan.throttling_detected
        assert cb8k_result.plan.ssp_executions > cb8k_result.plan.sse_executions

    def test_moderate_sse_vs_ssp_spread(self, cb8k_result):
        # Paper: ~20% for CB-8K-GEMM; error must be far below the CB-2K error.
        assert 0.05 < cb8k_result.sse_vs_ssp_error() < 0.35

    def test_ssp_power_near_board_limit(self, cb8k_result, spec):
        ssp = cb8k_result.ssp_profile.mean_power_w("total")
        assert ssp > 0.8 * spec.power.board_limit_w

    def test_many_lois_for_long_kernel(self, cb8k_result):
        # A >1 ms kernel yields at least one LOI per golden run.
        assert cb8k_result.ssp_loi_count >= 0.8 * cb8k_result.num_golden_runs


class TestProfilerOnMemoryBoundKernel:
    def test_gemv_profile(self, gemv8k_result, spec):
        assert gemv8k_result.kernel_name == "MB-8K-GEMV"
        total = gemv8k_result.ssp_profile.mean_power_w("total")
        assert spec.power.idle_total_w < total < 0.7 * spec.power.board_limit_w

    def test_gemv_iod_heavier_than_hbm(self, gemv8k_result):
        summary = gemv8k_result.ssp_profile.component_summary()
        assert summary["iod"] > summary["hbm"]


class TestProfilerConfiguration:
    def test_explicit_runs_override_guidance(self, backend):
        profiler = FinGraVProfiler(
            backend, ProfilerConfig(seed=3, max_additional_runs=0, refine_ssp_with_power_search=False)
        )
        result = profiler.profile(cb_gemm(4096), runs=12)
        assert result.num_runs == 12

    def test_config_with_overrides(self):
        config = ProfilerConfig().with_overrides(runs=10, synchronize=False)
        assert config.runs == 10
        assert not config.synchronize

    def test_invalid_run_count_rejected(self, backend):
        profiler = FinGraVProfiler(backend, ProfilerConfig(max_additional_runs=0))
        with pytest.raises(ValueError):
            profiler.profile(cb_gemm(4096), runs=0)

    @pytest.mark.parametrize("periods", [float("inf"), float("nan"), -0.5])
    def test_unbounded_or_negative_random_delay_rejected(self, periods):
        # An infinite bound would hand the device an infinite idle span.
        with pytest.raises(ValueError, match="max_random_delay_periods"):
            ProfilerConfig(max_random_delay_periods=periods)

    def test_interleaved_preceding_passed_through(self, backend):
        profiler = FinGraVProfiler(
            backend,
            ProfilerConfig(seed=3, max_additional_runs=0, refine_ssp_with_power_search=False,
                           differentiate=False),
        )
        result = profiler.profile(cb_gemm(4096), runs=6, preceding=[(mb_gemv(4096), 2)])
        assert all(len(run.preceding_executions) == 2 for run in result.runs)
        assert result.metadata["preceding"] == ["MB-4K-GEMV x2"]


class TestBaselines:
    def test_sse_only_profiler_runs_four_executions(self, spec):
        backend = SimulatedDeviceBackend(spec=spec, seed=21)
        profiler = sse_only_profiler(backend, runs=20)
        result = profiler.profile(cb_gemm(4096), runs=20)
        assert all(run.num_executions == result.plan.sse_executions for run in result.runs)

    def test_unsynchronized_profiler_differs_from_synchronized(self, spec):
        seed = 22
        kernel = cb_gemm(4096)
        sync_backend = SimulatedDeviceBackend(spec=spec, seed=seed)
        sync_result = FinGraVProfiler(
            sync_backend, ProfilerConfig(seed=5, max_additional_runs=60)
        ).profile(kernel, runs=30)
        unsync_backend = SimulatedDeviceBackend(spec=spec, seed=seed)
        unsync_result = unsynchronized_profiler(unsync_backend, seed=5).profile(kernel, runs=30)
        # Identical simulated runs, different log placement -> different profiles.
        sync_swing = sync_result.run_profile.max_power_w() - sync_result.run_profile.min_power_w()
        unsync_swing = (
            unsync_result.run_profile.max_power_w() - unsync_result.run_profile.min_power_w()
        )
        assert sync_swing > 0
        assert sync_result.ssp_profile.mean_power_w() != pytest.approx(
            unsync_result.ssp_profile.mean_power_w(), rel=1e-3
        ) or unsync_swing != pytest.approx(sync_swing, rel=1e-3)

    def test_reduced_runs_profiler_caps_runs(self, spec):
        backend = SimulatedDeviceBackend(spec=spec, seed=23)
        result = reduced_runs_profiler(backend, runs=15).profile(cb_gemm(4096), runs=15)
        assert result.num_runs == 15

    def test_coarse_estimator_reports_poor_coverage(self, spec):
        kernel = cb_gemm(2048)
        coarse_backend = SimulatedDeviceBackend(
            spec=spec, seed=24, config=BackendConfig(sampler="coarse")
        )
        records = [
            coarse_backend.run(kernel, executions=6, pre_delay_s=0.0, run_index=i)
            for i in range(8)
        ]
        report = CoarseSamplerEstimator().coverage(records)
        assert report.execution_coverage < 0.5
        assert report.total_readings > 0
