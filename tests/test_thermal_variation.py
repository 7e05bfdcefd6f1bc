"""Unit tests for the thermal (warmth) model and execution-time variation."""

import math

import numpy as np
import pytest

from repro.gpu.activity import VariationSpec
from repro.gpu.thermal import ThermalModel, ThermalSpec
from repro.gpu.variation import ExecutionTimeVariationModel


class TestThermalModel:
    def test_starts_cold(self):
        assert ThermalModel().warmth == pytest.approx(0.0)

    @pytest.mark.parametrize("active", [True, False])
    def test_relax_span_composes_per_slice_steps(self, active):
        # The analytic basis of the compiled device's idle handling: one
        # closed-form relaxation over a span equals stepping its slices one
        # by one, up to float rounding.
        rng = np.random.default_rng(42)
        for _ in range(25):
            sliced = ThermalModel()
            spanned = ThermalModel()
            sliced.step(1.3e-3, active=True)
            spanned.step(1.3e-3, active=True)
            slices = rng.uniform(1e-7, 8e-4, size=rng.integers(1, 40))
            for dt in slices:
                sliced.step(float(dt), active=active)
            spanned.relax_span(float(np.sum(slices)), active=active)
            assert spanned.warmth == pytest.approx(sliced.warmth, abs=1e-12)

    def test_relax_span_equals_step_for_a_single_slice(self):
        stepped = ThermalModel()
        relaxed = ThermalModel()
        stepped.step(2.2e-3, active=True)
        relaxed.relax_span(2.2e-3, active=True)
        assert relaxed.warmth == stepped.warmth

    def test_heats_under_load(self):
        model = ThermalModel()
        model.step(10e-3, active=True)
        assert model.warmth > 0.9

    def test_cools_when_idle(self):
        model = ThermalModel()
        model.step(10e-3, active=True)
        warm = model.warmth
        model.step(5e-3, active=False)
        assert model.warmth < warm

    def test_heating_faster_than_cooling(self):
        spec = ThermalSpec()
        assert spec.heat_tau_s < spec.cool_tau_s

    def test_warmth_bounded(self):
        model = ThermalModel()
        model.step(1.0, active=True)
        assert model.warmth <= 1.0
        model.step(10.0, active=False)
        assert model.warmth >= 0.0

    def test_zero_step_is_noop(self):
        model = ThermalModel()
        model.step(5e-3, active=True)
        warmth = model.warmth
        model.step(0.0, active=True)
        assert model.warmth == pytest.approx(warmth)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel().step(-1e-3, active=True)

    def test_reset(self):
        model = ThermalModel()
        model.step(5e-3, active=True)
        model.reset(0.25)
        assert model.warmth == pytest.approx(0.25)

    def test_time_to_warmth_matches_step(self):
        model = ThermalModel()
        target = 0.5
        needed = model.time_to_warmth(target, active=True)
        model.step(needed, active=True)
        assert model.warmth == pytest.approx(target, abs=1e-6)

    def test_time_to_warmth_unreachable(self):
        model = ThermalModel()
        model.step(1.0, active=True)  # essentially 1.0
        assert math.isinf(model.time_to_warmth(0.5, active=True)) or model.time_to_warmth(
            0.5, active=True
        ) == 0.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ThermalSpec(heat_tau_s=0.0).validate()


class TestVariationModel:
    @pytest.fixture()
    def model(self):
        return ExecutionTimeVariationModel(np.random.default_rng(42))

    def test_run_factor_near_one_on_average(self, model):
        spec = VariationSpec(run_cv=0.02, outlier_probability=0.0)
        factors = [model.draw_run(spec).run_factor for _ in range(500)]
        assert np.mean(factors) == pytest.approx(1.0, abs=0.01)

    def test_outliers_marked_and_slow(self, model):
        spec = VariationSpec(run_cv=0.0, outlier_probability=1.0, outlier_scale=1.3)
        variation = model.draw_run(spec)
        assert variation.is_outlier
        assert variation.run_factor > 1.1

    def test_outlier_rate_matches_probability(self, model):
        spec = VariationSpec(outlier_probability=0.2)
        outliers = sum(model.draw_run(spec).is_outlier for _ in range(1000))
        assert 120 <= outliers <= 280

    def test_zero_cv_gives_unity_jitter(self, model):
        spec = VariationSpec(run_cv=0.0, execution_cv=0.0, outlier_probability=0.0)
        assert model.draw_execution_jitter(spec) == pytest.approx(1.0)
        assert model.draw_run(spec).run_factor == pytest.approx(1.0)

    def test_factors_never_too_small(self, model):
        spec = VariationSpec(run_cv=0.5, execution_cv=0.5)
        for _ in range(200):
            assert model.draw_execution_jitter(spec) >= model.MIN_FACTOR
            assert model.draw_run(spec).run_factor >= model.MIN_FACTOR

    def test_execution_factor_combines_run_and_jitter(self, model):
        spec = VariationSpec(run_cv=0.0, outlier_probability=1.0, outlier_scale=1.5)
        variation = model.draw_run(spec)
        assert variation.execution_factor(1.1) == pytest.approx(variation.run_factor * 1.1)

    def test_launch_delay_positive(self, model):
        delays = [model.draw_launch_delay(3e-6, 1e-6) for _ in range(200)]
        assert all(d > 0 for d in delays)

    def test_launch_delay_rejects_negative_params(self, model):
        with pytest.raises(ValueError):
            model.draw_launch_delay(-1e-6, 1e-6)
