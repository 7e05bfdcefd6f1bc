"""Tests for the resumable profiling session (streaming adaptive collection).

The bit-identity half of this module pins the refactored ``profile()`` (a thin
driver over :class:`ProfileSession`) against ``legacy_profile`` below -- a
faithful transcription of the pre-session monolithic nine-step body.  With
``adaptive=False`` the session must reproduce it byte for byte: same RNG
stream, same batch sizes, same golden-run selection, same stitched profiles.
The adaptive half covers the streaming snapshot API and the convergence
stopping rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.errors import (
    StreamingCIEstimator,
    evaluate_profile_convergence,
)
from repro.core.binning import ExecutionTimeBinner
from repro.core.differentiation import build_plan
from repro.core.profiler import (
    PROFILE_SECTIONS,
    FinGraVProfiler,
    FinGraVResult,
    ProfilerConfig,
    normalize_profile_sections,
)
from repro.core.session import STOP_REASONS, ProfileSession
from repro.core.stitching import ProfileStitcher
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm, mb_gemv


# --------------------------------------------------------------------------- #
# The pre-refactor reference implementation.
# --------------------------------------------------------------------------- #
def legacy_profile(profiler: FinGraVProfiler, kernel, runs=None):
    """The monolithic nine-step ``profile()`` body before ProfileSession.

    Kept verbatim (modulo ``self`` -> ``profiler``, and minus the branches
    of the since-removed legacy stitching pipeline) as the bit-identity
    reference for the fixed-count collection policy.
    """
    config = profiler.config
    backend = profiler.backend

    # Step 1: execution time and guidance.
    execution_time = profiler.time_kernel(kernel)
    guidance = profiler.guidance_table.lookup(execution_time)
    planned_runs = runs if runs is not None else (
        config.runs if config.runs is not None else guidance.runs
    )
    margin = (
        config.binning_margin if config.binning_margin is not None
        else guidance.binning_margin
    )

    # Step 2: instrumentation calibration.
    calibration = backend.calibrate_read_delay(config.calibration_samples)

    # Steps 3-4: differentiation plan.
    plan = build_plan(
        backend,
        kernel,
        execution_time,
        warmup_tolerance=config.warmup_tolerance,
        refine_with_power_search=(
            config.differentiate and config.refine_ssp_with_power_search
        ),
    )
    if config.differentiate:
        window_fill = backend.power_sample_period_s / max(execution_time, 1e-9)
        tail = int(np.ceil(window_fill * config.ssp_tail_fraction))
        tail = min(
            max(tail, config.min_ssp_tail_executions),
            config.max_ssp_tail_executions,
        )
        executions_per_run = plan.ssp_executions + tail
    else:
        executions_per_run = plan.sse_executions

    # Step 5: execute the runs with random delays.
    records = profiler._collect_runs(kernel, planned_runs, executions_per_run, (), 0)

    # Step 6: golden-run selection by execution-time binning.
    binning = None
    golden_indices = None
    binner = ExecutionTimeBinner(margin) if config.apply_binning else None
    ssp_durations = [record.ssp_execution.duration_s for record in records]
    if binner is not None:
        binning = binner.extend(ssp_durations)
        golden_indices = [records[i].run_index for i in binning.selected_indices]

    # Step 7: sync and LOI extraction (via the stitcher).
    stitcher = ProfileStitcher(
        components=config.components,
        calibration=calibration if config.synchronize else None,
        synchronize=config.synchronize,
    )
    series = stitcher.collect(records)

    # Step 8: top up runs until the LOI target is met.
    target_lois = guidance.recommended_lois(execution_time)
    sse_target = min(4, target_lois) if config.differentiate else 0
    extra_budget = config.max_additional_runs
    ssp_start = profiler._ssp_start_index(plan) if config.differentiate else None

    def ssp_have():
        if ssp_start is None:
            return series.count_last_execution_lois(golden_indices)
        return series.count_lois(
            min_execution_index=ssp_start, golden_runs=golden_indices
        )

    def shortfall():
        sse_have = series.count_lois(
            execution_index=plan.sse_index, golden_runs=golden_indices
        )
        return max(target_lois - ssp_have(), sse_target - sse_have)

    while shortfall() > 0 and extra_budget > 0:
        missing = shortfall()
        have_total = max(ssp_have(), 1)
        observed_yield = max(have_total / max(len(records), 1), 0.01)
        needed = int(np.ceil(missing / observed_yield))
        batch = min(max(needed, 16), extra_budget)
        extra_records = profiler._collect_runs(
            kernel, batch, executions_per_run, (), start_index=len(records)
        )
        records = records + extra_records
        extra_budget -= batch
        if binner is not None and extra_records:
            binning = binner.extend(
                record.ssp_execution.duration_s for record in extra_records
            )
            golden_indices = [records[i].run_index for i in binning.selected_indices]
        series = stitcher.extend(series, extra_records)

    # Step 9: stitch the profiles.
    base_metadata = {"preceding": []}
    sections = PROFILE_SECTIONS
    if config.result_mode == "slim":
        sections = normalize_profile_sections(config.profile_sections)
    build = tuple(
        name for name in PROFILE_SECTIONS
        if name in ("ssp", "sse") or name in sections
    )
    built = stitcher.section_profiles(
        series,
        build,
        golden_runs=golden_indices,
        sse_index=plan.sse_index,
        min_execution_index=profiler._ssp_start_index(plan),
        metadata=base_metadata,
    )
    result = FinGraVResult(
        kernel_name=backend.kernel_name(kernel),
        execution_time_s=execution_time,
        guidance=guidance,
        plan=plan,
        calibration=calibration,
        runs=tuple(records),
        binning=binning,
        ssp_profile=built["ssp"],
        sse_profile=built["sse"],
        run_profile=built.get("run"),
        config=config,
        metadata=base_metadata,
    )
    if config.result_mode == "slim":
        return result.slim(sections)
    return result


# --------------------------------------------------------------------------- #
# Comparison helpers.
# --------------------------------------------------------------------------- #
def make_profiler(backend_seed: int, engine=None, **config_overrides) -> FinGraVProfiler:
    backend = SimulatedDeviceBackend(
        spec=mi300x_spec(), seed=backend_seed, config=BackendConfig(engine=engine)
    )
    return FinGraVProfiler(backend, ProfilerConfig(**config_overrides))


def assert_profiles_equal(a, b) -> None:
    assert len(a) == len(b)
    assert np.array_equal(a.times(), b.times())
    assert a.components == b.components
    for component in a.components:
        assert np.array_equal(a.series(component), b.series(component))


def assert_bit_identical(new, old) -> None:
    """``new`` (session path) must match ``old`` (legacy path) byte for byte,
    except for the purely additive ``collection`` audit in the metadata."""
    assert new.kernel_name == old.kernel_name
    assert new.execution_time_s == old.execution_time_s
    assert new.num_runs == old.num_runs
    assert new.golden_run_indices == old.golden_run_indices
    for attribute in ("ssp_profile", "sse_profile"):
        assert_profiles_equal(getattr(new, attribute), getattr(old, attribute))
    if old.run_profile is not None:
        assert_profiles_equal(new.run_profile, old.run_profile)
    else:
        assert new.run_profile is None
    for new_run, old_run in zip(new.runs, old.runs):
        assert new_run.run_index == old_run.run_index
        assert new_run.pre_delay_s == old_run.pre_delay_s
        assert new_run.ssp_execution.duration_s == old_run.ssp_execution.duration_s
    metadata = dict(new.metadata)
    collection = metadata.pop("collection")
    assert metadata == dict(old.metadata)
    assert collection["adaptive"] is False
    assert collection["runs_saved"] == 0


# --------------------------------------------------------------------------- #
# Fixed-count policy: bit-identity with the pre-refactor monolith.
# --------------------------------------------------------------------------- #
SCENARIOS = {
    # The test_profiler.py fixture configurations (reduced top-up budgets
    # where the full budget only adds wall time, not code-path coverage).
    "cb2k": dict(kernel_size=2048, backend_seed=11,
                 config=dict(seed=211, max_additional_runs=300), runs=40),
    "cb8k": dict(kernel_size=8192, backend_seed=12,
                 config=dict(seed=212, max_additional_runs=100), runs=30),
    "gemv8k": dict(kernel="gemv", kernel_size=8192, backend_seed=13,
                   config=dict(seed=213, max_additional_runs=60), runs=20),
    "unsynchronized": dict(kernel_size=2048, backend_seed=21,
                           config=dict(seed=221, synchronize=False,
                                       max_additional_runs=80), runs=20),
    "no-binning": dict(kernel_size=2048, backend_seed=22,
                       config=dict(seed=222, apply_binning=False,
                                   max_additional_runs=80), runs=20),
    "sse-only": dict(kernel_size=2048, backend_seed=23,
                     config=dict(seed=223, differentiate=False,
                                 max_additional_runs=80), runs=20),
    # The per-slice reference device engine under the whole session.
    "reference-engine": dict(kernel_size=2048, backend_seed=24, engine="reference",
                             config=dict(seed=224, max_additional_runs=80), runs=20),
    "slim": dict(kernel_size=2048, backend_seed=25,
                 config=dict(seed=225, result_mode="slim",
                             max_additional_runs=80), runs=20),
}


def build_scenario(name: str):
    spec = SCENARIOS[name]
    kernel = (
        mb_gemv(spec["kernel_size"]) if spec.get("kernel") == "gemv"
        else cb_gemm(spec["kernel_size"])
    )
    return kernel, spec["backend_seed"], spec["config"], spec["runs"]


class TestFixedModeBitIdentity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_profile_matches_legacy(self, name):
        kernel, backend_seed, config, runs = build_scenario(name)
        engine = SCENARIOS[name].get("engine")
        old = legacy_profile(make_profiler(backend_seed, engine, **config), kernel, runs=runs)
        new = make_profiler(backend_seed, engine, **config).profile(kernel, runs=runs)
        if SCENARIOS[name]["config"].get("result_mode") == "slim":
            # Slim results drop the raw runs; compare the retained payload.
            assert new.kernel_name == old.kernel_name
            assert new.num_runs == old.num_runs
            assert new.golden_run_indices == old.golden_run_indices
            for section in new.sections:
                assert_profiles_equal(new.profiles[section], old.profiles[section])
            summary = dict(new.summary_data)
            assert summary.pop("collection")["adaptive"] is False
            assert summary == dict(old.summary_data)
        else:
            assert_bit_identical(new, old)

    def test_session_final_snapshot_matches_result(self):
        kernel, backend_seed, config, runs = build_scenario("cb2k")
        session = make_profiler(backend_seed, **config).session(kernel, runs=runs)
        snapshots = list(session.iter_profiles())
        assert snapshots[-1].final
        result = session.result()
        assert_profiles_equal(snapshots[-1].ssp_profile, result.ssp_profile)
        assert_profiles_equal(snapshots[-1].sse_profile, result.sse_profile)

    def test_fixed_mode_collects_one_initial_batch(self):
        kernel, backend_seed, config, runs = build_scenario("gemv8k")
        session = make_profiler(backend_seed, **config).session(kernel, runs=runs)
        assert session.step()
        assert session.runs_collected == runs
        session.run_to_completion()
        assert session.stop_reason in STOP_REASONS
        audit = session.collection_audit()
        assert audit["adaptive"] is False
        assert audit["runs_saved"] == 0
        assert audit["runs_collected"] == session.runs_collected


# --------------------------------------------------------------------------- #
# Streaming snapshots and the adaptive stopping rule.
# --------------------------------------------------------------------------- #
def adaptive_profiler(**overrides) -> FinGraVProfiler:
    config = dict(seed=212, adaptive=True, max_additional_runs=300)
    config.update(overrides)
    return make_profiler(12, **config)


class TestAdaptiveSession:
    @pytest.fixture(scope="class")
    def adaptive_snapshots(self):
        session = adaptive_profiler().session(cb_gemm(8192), runs=40)
        return list(session.iter_profiles()), session

    def test_snapshot_stream_shape(self, adaptive_snapshots):
        snapshots, session = adaptive_snapshots
        counts = [snapshot.runs_collected for snapshot in snapshots]
        assert counts == sorted(counts) and len(set(counts)) == len(counts)
        assert [s.final for s in snapshots] == [False] * (len(snapshots) - 1) + [True]
        assert all(s.stop_reason is None for s in snapshots[:-1])
        assert snapshots[-1].stop_reason in STOP_REASONS
        assert session.finished

    def test_adaptive_converges_early_on_long_kernel(self, adaptive_snapshots):
        # CB-8K-GEMM's SSP estimate tightens well inside the planned 40 runs.
        snapshots, session = adaptive_snapshots
        final = snapshots[-1]
        assert final.stop_reason == "converged"
        assert final.runs_collected < final.planned_runs
        audit = session.collection_audit()
        assert audit["runs_saved"] == final.planned_runs - final.runs_collected
        assert audit["final_relative_ci"] <= session.config.convergence_rtol

    def test_diagnostics_cover_both_sections(self, adaptive_snapshots):
        snapshots, _ = adaptive_snapshots
        for snapshot in snapshots:
            assert [d.section for d in snapshot.diagnostics] == ["ssp", "sse"]
            for diagnostics in snapshot.diagnostics:
                payload = diagnostics.to_dict()
                assert payload["section"] in ("ssp", "sse")
                assert isinstance(payload["converged"], bool)

    def test_snapshot_prefix_property(self, adaptive_snapshots):
        """Every snapshot equals a fixed-count profile of its run prefix.

        The batched pre-delay draws are stream-identical to one large draw,
        so an adaptive session that has collected k runs must hold exactly
        the state a fixed profiler reaches with ``runs=k`` and no top-up.
        """
        snapshots, _ = adaptive_snapshots
        for snapshot in snapshots:
            reference = make_profiler(
                12, seed=212, max_additional_runs=0
            ).profile(cb_gemm(8192), runs=snapshot.runs_collected)
            assert_profiles_equal(snapshot.ssp_profile, reference.ssp_profile)
            assert_profiles_equal(snapshot.sse_profile, reference.sse_profile)

    def test_finished_session_yields_final_snapshot_once(self, adaptive_snapshots):
        _, session = adaptive_snapshots
        replay = list(session.iter_profiles())
        assert len(replay) == 1 and replay[0].final
        assert not session.step()

    def test_result_before_finish_raises(self):
        session = adaptive_profiler().session(cb_gemm(8192), runs=40)
        with pytest.raises(ValueError, match="still collecting"):
            session.result()
        with pytest.raises(ValueError, match="no runs collected"):
            session.snapshot()

    def test_adaptive_result_records_stop_decision(self, adaptive_snapshots):
        _, session = adaptive_snapshots
        result = session.result()
        collection = result.metadata["collection"]
        assert collection["adaptive"] is True
        assert collection["stop_reason"] == "converged"
        assert collection["runs_saved"] > 0
        assert result.summary()["collection"] == collection

    def test_adaptive_stays_close_to_fixed_estimate(self, adaptive_snapshots):
        _, session = adaptive_snapshots
        adaptive_result = session.result()
        fixed_result = make_profiler(
            12, seed=212, max_additional_runs=300
        ).profile(cb_gemm(8192), runs=40)
        rtol = session.config.convergence_rtol
        adaptive_ssp = adaptive_result.ssp_profile.mean_power_w("total")
        fixed_ssp = fixed_result.ssp_profile.mean_power_w("total")
        assert abs(adaptive_ssp - fixed_ssp) / fixed_ssp <= rtol

    def test_invalid_run_count_rejected_at_session_setup(self):
        with pytest.raises(ValueError, match="run count"):
            adaptive_profiler().session(cb_gemm(2048), runs=0)


# --------------------------------------------------------------------------- #
# ProfilerConfig numeric validation.
# --------------------------------------------------------------------------- #
class TestProfilerConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("runs", 0),
            ("runs", -3),
            ("max_additional_runs", -1),
            ("calibration_samples", 0),
            ("timing_executions", 0),
            ("convergence_rtol", 0.0),
            ("convergence_rtol", -0.1),
            ("min_runs", 0),
            ("checkpoint_every", 0),
            ("checkpoint_every", -8),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProfilerConfig(**{field: value})

    def test_valid_edges_accepted(self):
        ProfilerConfig(runs=None)
        ProfilerConfig(max_additional_runs=0)
        ProfilerConfig(adaptive=True, convergence_rtol=0.2,
                       min_runs=1, checkpoint_every=1)


# --------------------------------------------------------------------------- #
# The streaming CI estimator backing the stopping rule.
# --------------------------------------------------------------------------- #
class TestStreamingCIEstimator:
    def test_batched_updates_match_direct_computation(self):
        rng = np.random.default_rng(99)
        values = rng.normal(700.0, 25.0, size=257)
        streamed = StreamingCIEstimator()
        for chunk in np.array_split(values, 7):
            streamed.update(chunk)
        direct = StreamingCIEstimator.from_values(values)
        assert streamed.count == direct.count == values.size
        assert streamed.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert streamed.variance == pytest.approx(
            float(values.var(ddof=1)), rel=1e-9
        )
        assert direct.variance == pytest.approx(
            float(values.var(ddof=1)), rel=1e-9
        )

    def test_no_interval_below_two_samples(self):
        estimator = StreamingCIEstimator()
        assert estimator.half_width == float("inf")
        estimator.update(np.array([5.0]))
        assert estimator.half_width == float("inf")
        estimator.update(np.array([6.0]))
        assert np.isfinite(estimator.half_width)

    def test_relative_width_needs_positive_scale(self):
        estimator = StreamingCIEstimator.from_values(np.array([-1.0, 1.0]))
        assert estimator.relative_half_width() == float("inf")
        assert np.isfinite(estimator.relative_half_width(reference=10.0))

    def test_empty_update_is_a_noop(self):
        estimator = StreamingCIEstimator.from_values(np.array([1.0, 2.0]))
        estimator.update(np.zeros(0))
        assert estimator.count == 2


class TestConvergenceRule:
    def test_tight_samples_converge(self):
        rng = np.random.default_rng(3)
        values = rng.normal(700.0, 1.0, size=400)
        times = rng.uniform(0.0, 1e-4, size=400)
        verdict = evaluate_profile_convergence(
            "ssp", values, times, 1e-4, rtol=0.05
        )
        assert verdict.converged
        assert verdict.relative_half_width <= 0.05

    def test_noisy_or_sparse_samples_do_not_converge(self):
        rng = np.random.default_rng(4)
        noisy = evaluate_profile_convergence(
            "ssp",
            rng.normal(700.0, 400.0, size=8),
            rng.uniform(0.0, 1e-4, size=8),
            1e-4,
            rtol=0.01,
        )
        assert not noisy.converged
        empty = evaluate_profile_convergence(
            "sse", np.zeros(0), np.zeros(0), 1e-4, rtol=0.05
        )
        assert not empty.converged
        assert empty.relative_half_width == float("inf")

    def test_single_sample_bin_blocks_convergence(self):
        # Three tight samples in bin 0, one lone sample in the last bin:
        # the lone bin cannot carry a CI, so the section must not converge.
        values = np.array([700.0, 700.1, 699.9, 700.0])
        times = np.array([1e-6, 2e-6, 3e-6, 9.9e-5])
        verdict = evaluate_profile_convergence(
            "ssp", values, times, 1e-4, rtol=0.05, bins=4
        )
        assert not verdict.converged
        assert verdict.worst_relative_half_width == float("inf")

    def test_parameter_validation(self):
        values = np.array([1.0, 2.0])
        times = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="rtol"):
            evaluate_profile_convergence("ssp", values, times, 1.0, rtol=0.0)
        with pytest.raises(ValueError, match="bin"):
            evaluate_profile_convergence("ssp", values, times, 1.0, rtol=0.1, bins=0)
        with pytest.raises(ValueError, match="two samples"):
            evaluate_profile_convergence(
                "ssp", values, times, 1.0, rtol=0.1, min_samples=1
            )
