"""Engine selection, the provider chain and compiled-core plumbing.

Covers the fastcore resolution rules (explicit argument > ``REPRO_ENGINE``
env var > auto), the ``numba`` -> ``cc`` -> ``python`` provider chain and
its fallbacks (a pinned provider that cannot load, a provider that fails
its one-time self-check -- single warning, the ``python`` kernel bodies
take over), rejection of unknown ``REPRO_FASTCORE_PROVIDER`` values, the
``BackendConfig`` engine validation, and the ``relax_span``
zero/negative-duration contract.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.gpu import fastcore
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.device import SimulatedGPU
from repro.gpu.spec import mi300x_spec
from repro.gpu.thermal import ThermalModel, ThermalSpec
from repro.kernels.workloads import cb_gemm

SPEC = mi300x_spec()


@pytest.fixture()
def clean_fastcore(monkeypatch):
    """Reset the cached provider resolution around each test."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_FASTCORE_PROVIDER", raising=False)
    fastcore._reset_for_tests()
    yield monkeypatch
    fastcore._reset_for_tests()


# --------------------------------------------------------------------- #
# Engine resolution precedence.
# --------------------------------------------------------------------- #
class TestResolveEngine:
    def test_explicit_engine_wins(self, clean_fastcore):
        assert fastcore.resolve_engine("compiled") == "compiled"
        assert fastcore.resolve_engine("reference") == "reference"

    def test_engine_and_vectorized_together_raise(self, clean_fastcore):
        # The deprecated boolean is gone: passing it is a TypeError.
        with pytest.raises(TypeError):
            fastcore.resolve_engine("compiled", True)

    def test_unknown_engine_lists_valid_engines(self, clean_fastcore):
        with pytest.raises(ValueError, match="compiled.*reference"):
            fastcore.resolve_engine("turbo")

    def test_vectorized_is_no_longer_an_engine(self, clean_fastcore):
        assert fastcore.VALID_ENGINES == ("compiled", "reference")
        with pytest.raises(ValueError, match="vectorized"):
            fastcore.resolve_engine("vectorized")

    def test_env_var_overrides_auto(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_ENGINE", "reference")
        assert fastcore.resolve_engine() == "reference"
        clean_fastcore.setenv("REPRO_ENGINE", "compiled")
        assert fastcore.resolve_engine() == "compiled"

    def test_env_var_invalid_value_raises(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_ENGINE", "warp-speed")
        with pytest.raises(ValueError, match="warp-speed"):
            fastcore.resolve_engine()

    def test_explicit_argument_beats_env_var(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_ENGINE", "reference")
        assert fastcore.resolve_engine("compiled") == "compiled"

    def test_auto_prefers_compiled_when_available(self, clean_fastcore):
        assert fastcore.resolve_engine() == "compiled"
        assert fastcore.resolve_engine("auto") == "compiled"
        assert fastcore.provider_name() in ("numba", "cc", "python")


# --------------------------------------------------------------------- #
# Provider chain and fallbacks.
# --------------------------------------------------------------------- #
class TestProviderFallback:
    @pytest.mark.parametrize("value", ["cc_typo", "none", "jit"])
    def test_unknown_provider_request_raises(self, clean_fastcore, value):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", value)
        with pytest.raises(ValueError, match=r"auto\|numba\|cc\|python") as error:
            fastcore.kernels()
        assert repr(value) in str(error.value)
        # Engine resolution and device construction surface the same error.
        with pytest.raises(ValueError, match=repr(value)):
            SimulatedGPU(SPEC, seed=1)

    def test_python_provider_always_resolves(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "python")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.resolve_engine() == "compiled"
            assert fastcore.provider_name() == "python"
        assert fastcore.numba_version() is None

    def test_numba_absent_auto_skips_to_next_provider(self, clean_fastcore):
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        # Auto selection skips a merely absent provider silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.provider_name() in ("cc", "python")

    def test_numba_provider_requested_but_absent(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "numba")
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        with pytest.warns(RuntimeWarning, match="'numba' is unavailable"):
            assert fastcore.kernels().name == "python"
        assert fastcore.resolve_engine() == "compiled"

    def test_explicit_compiled_unavailable_warns_once(self, clean_fastcore):
        # A pinned compiled provider that cannot load warns once, then the
        # cached resolution stays silent.
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "cc")
        clean_fastcore.setattr(
            fastcore, "_load_provider",
            lambda name, load=fastcore._load_provider: (
                (None, "cc: no compiler") if name == "cc" else load(name)
            ),
        )
        with pytest.warns(RuntimeWarning, match="'cc' is unavailable"):
            assert fastcore.resolve_engine("compiled") == "compiled"
        assert fastcore.provider_name() == "python"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.resolve_engine("compiled") == "compiled"

    def test_device_construction_survives_missing_provider(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "numba")
        clean_fastcore.setattr(fastcore, "_numba_importable", lambda: False)
        with pytest.warns(RuntimeWarning):
            device = SimulatedGPU(SPEC, seed=1, engine="compiled")
        assert device.engine == "compiled"
        assert device._fc.name == "python"
        device.idle(1e-3)
        assert device.now_s() == pytest.approx(1e-3)

    def test_backend_and_device_auto_resolve_alike(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "python")
        backend = SimulatedDeviceBackend(spec=SPEC, seed=2, config=BackendConfig())
        assert backend.device.engine == "compiled"
        assert SimulatedGPU(SPEC, seed=2).engine == "compiled"
        clean_fastcore.setenv("REPRO_ENGINE", "reference")
        assert SimulatedGPU(SPEC, seed=2).engine == "reference"
        assert BackendConfig().resolved_engine() == "reference"


# --------------------------------------------------------------------- #
# Self-check failure path.
# --------------------------------------------------------------------- #
class TestSelfCheckFailure:
    def test_failed_self_check_warns_once_and_falls_back(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "cc")
        clean_fastcore.setattr(
            fastcore, "self_check", lambda bundle: "injected mismatch"
        )
        with pytest.warns(RuntimeWarning, match="failed its self-check") as caught:
            assert fastcore.kernels().name == "python"
        assert len(caught) == 1
        assert fastcore.resolve_engine() == "compiled"
        # The resolution is cached: no second warning, no second self-check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fastcore.kernels().name == "python"

    def test_failed_numba_self_check_falls_back_to_python_bodies(self, clean_fastcore):
        # A Numba provider that loads but fails its self-check must hand over
        # to the un-jitted python bodies with exactly one warning.
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "numba")
        python, _ = fastcore._load_provider("python")
        fake_numba = fastcore.KernelBundle(
            "numba", python.idle, python.execute, python.batch, python.window,
            numba_version="0",
        )
        clean_fastcore.setattr(
            fastcore, "_load_provider",
            lambda name, load=fastcore._load_provider: (
                (fake_numba, None) if name == "numba" else load(name)
            ),
        )
        clean_fastcore.setattr(
            fastcore, "self_check",
            lambda bundle: "injected mismatch" if bundle.name == "numba" else None,
        )
        with pytest.warns(RuntimeWarning, match="'numba' failed its self-check") as caught:
            assert fastcore.provider_name() == "python"
        assert len(caught) == 1
        assert fastcore.numba_version() is None

    def test_self_check_catches_a_corrupted_provider(self, clean_fastcore):
        bundle = fastcore.kernels()

        def corrupted_idle(st, pp, duration, record, seg, ev, lens):
            rc = bundle.idle(st, pp, duration, record, seg, ev, lens)
            st[1] += 1e-9  # a one-ulp-scale warmth nudge must be caught
            return rc

        corrupted = fastcore.KernelBundle(
            "corrupted", corrupted_idle, bundle.execute, bundle.batch, bundle.window
        )
        failure = fastcore.self_check(corrupted)
        assert failure is not None and "mismatch" in failure

    def test_self_check_passes_for_active_provider(self, clean_fastcore):
        assert fastcore.self_check(fastcore.kernels()) is None


class TestSelfCheckScenario:
    def test_scenario_reaches_run_and_window_branches(self):
        from repro.gpu import _fastcore_kernels as K

        got = fastcore._run_scenario_pure()
        # The first batch hit every overflow code and resumed; both batches
        # then finished.
        rcs = got["batch_rcs"].tolist()
        assert {1, 2, 3, 4} <= set(rcs) and rcs[-2:] == [0, 0]
        # Window calls: scratch overflow, nine clean grids, unsorted input.
        rcs = got["window_rcs"].tolist()
        assert rcs[0] == 1 and rcs[-1] == 2 and set(rcs[1:-1]) == {0}
        # Slot 0 is shared by the preceding and the final short sequence;
        # the long park before the last run expired it.
        assert got["caches"][0, 0] == 7.0
        # Runs follow one another; no park is recorded: nothing starts
        # between the previous step's end and the last run's logger start.
        marks = got["marks"]
        assert (marks[1:, 0] > marks[:-1, 3]).all()
        before_batch = got["states"][-2][K.S_NOW]
        logger_start = marks[-1, 0]
        starts = got["segments"][:, 0]
        assert logger_start > before_batch
        assert not ((starts >= marks[-2, 3]) & (starts < logger_start)).any()

    def test_batch_resumes_bit_identical_to_an_unbroken_batch(self):
        # Resuming after every overflow must equal one call with room to
        # spare: same state, caches, timings, marks and samples.
        from repro.gpu import _fastcore_kernels as K

        st, pp, desc_long, desc_short = fastcore._scenario_params()
        period = pp[K.P_PERIOD]
        descs = np.concatenate([desc_short, desc_long])
        seqs = np.array([[0, 0, 2], [desc_short.shape[0], 1, 1]], dtype=np.int64)
        seqf = np.array([[1.01, 0.006], [0.98, 0.004]] * 4)
        spans = np.array([[12.0 * period, 1.5 * period, 4e-6, 0.4 * period, 1.3 * period]] * 4)
        variates = np.linspace(-1.0, 1.1, 4 * 3 * 4)
        fill = pp[K.P_IDLE_X : K.P_IDLE_H + 1].copy()
        grid = np.array([0.2 * period, 4.0 * period, 4.0 * period])

        def drive(seg_rows, ev_rows, cum_rows, sample_rows):
            state = st.copy()
            caches = np.array([[0.0, -1.0], [0.0, -1.0]])
            buffers = [
                np.zeros((seg_rows, 5)), np.zeros((ev_rows, 4)), np.zeros((cum_rows, 3)),
                np.zeros(sample_rows), np.zeros((sample_rows, 3)),
            ]
            out = [np.zeros((3, 8)), np.zeros(12), np.zeros(12), np.zeros((4, 4)),
                   np.zeros(4, dtype=np.int64)]
            lens = np.zeros(2, dtype=np.int64)
            progress = np.zeros(2, dtype=np.int64)
            snap = np.zeros(K.STATE_LEN + 4)
            calls = 0
            while True:
                calls += 1
                seg, ev, cum, times, powers = buffers
                rc = K.k_batch(
                    state, pp, descs, seqs, seqf, caches, variates, spans,
                    2.5e-6, 0.5e-6, 0.6e-6, 1.0e-6, grid, fill, seg, ev, cum, lens,
                    snap, progress, out[0], out[1], out[2], out[3], times, powers, out[4],
                )
                if rc == 0:
                    break
                if rc == 2:
                    buffers[1] = np.vstack([ev, np.zeros_like(ev)])
                elif rc == 4:
                    buffers[3] = np.concatenate([times, np.zeros_like(times)])
                    buffers[4] = np.vstack([powers, np.zeros_like(powers)])
                else:
                    index = {1: 0, 3: 2}[rc]
                    old = buffers[index]
                    buffers[index] = np.zeros((2 * old.shape[0],) + old.shape[1:])
            total = int(progress[1])
            events = buffers[1][: int(lens[1])]
            return calls, state, caches, out, buffers[3][:total], buffers[4][:total], events

        calls, *small = drive(3, 1, 2, 1)
        one_call, *wide = drive(512, 64, 512, 256)
        assert calls > 4 and one_call == 1
        for a, b in zip(small, wide):
            if isinstance(a, list):
                assert all(np.array_equal(x, y) for x, y in zip(a, b))
            else:
                assert np.array_equal(a, b)


# --------------------------------------------------------------------- #
# The python provider (uncompiled kernel bodies) stays in lockstep.
# --------------------------------------------------------------------- #
class TestPythonProvider:
    def test_python_provider_runs_the_device(self, clean_fastcore):
        clean_fastcore.setenv("REPRO_FASTCORE_PROVIDER", "python")
        bundle = fastcore.kernels()
        assert bundle.name == "python"
        python = SimulatedGPU(SPEC, seed=7, engine="compiled")
        reference = SimulatedGPU(SPEC, seed=7, engine="reference")
        short = cb_gemm(1024).activity_descriptor(SPEC)
        for device in (python, reference):
            device.start_recording()
            device.idle(1.2e-3)
            device.execute_kernel(short)
            device.idle(9e-3)
            device.execute_kernel(short)
        a = python.stop_recording()
        b = reference.stop_recording()
        assert np.array_equal(a.starts_s, [s.start_s for s in b])
        assert np.allclose(a.powers, [[s.power.xcd_w, s.power.iod_w, s.power.hbm_w] for s in b],
                           rtol=1e-9, atol=1e-9)
        assert [(e.start_s, e.end_s) for e in python.executions()] == [
            (e.start_s, e.end_s) for e in reference.executions()
        ]
        assert python.now_s() == reference.now_s()


    def test_python_bundle_bypasses_jitted_dispatchers(self, clean_fastcore):
        # With Numba active the module-level kernels are dispatchers; the
        # python provider must swap their ``py_func`` bodies in for the call
        # and restore the dispatchers afterwards.
        from repro.gpu import _fastcore_kernels as K

        class Dispatcher:
            def __init__(self, func):
                self.py_func = func

            def __call__(self, *args):
                raise AssertionError("jitted dispatcher called")

        originals = {name: getattr(K, name) for name in fastcore._KERNEL_CHAIN}
        for name, func in originals.items():
            clean_fastcore.setattr(K, name, Dispatcher(func))
        clean_fastcore.setattr(K, "HAVE_NUMBA", True)
        python, _ = fastcore._load_provider("python")
        st, pp, _, _ = fastcore._scenario_params()
        seg = np.zeros((64, 5))
        ev = np.zeros((8, 4))
        lens = np.zeros(2, dtype=np.int64)
        assert python.idle(st, pp, 3.3 * pp[K.P_PERIOD], 1, seg, ev, lens) == 0
        assert int(lens[0]) > 1
        for name in fastcore._KERNEL_CHAIN:
            assert isinstance(getattr(K, name), Dispatcher)


# --------------------------------------------------------------------- #
# BackendConfig engine validation.
# --------------------------------------------------------------------- #
class TestBackendConfigEngine:
    def test_unknown_engine_rejected_with_valid_list(self, clean_fastcore):
        with pytest.raises(ValueError, match="compiled.*reference"):
            BackendConfig(engine="hyperspeed").validate()
        with pytest.raises(ValueError, match="vectorized"):
            BackendConfig(engine="vectorized").validate()

    def test_engine_and_vectorized_both_set_rejected(self, clean_fastcore):
        # The deprecated field is gone: passing it is a TypeError.
        with pytest.raises(TypeError):
            BackendConfig(engine="compiled", vectorized=True)

    def test_auto_accepted_as_explicit_engine_string(self, clean_fastcore):
        config = BackendConfig(engine="auto")
        config.validate()
        assert config.resolved_engine() == "compiled"


# --------------------------------------------------------------------- #
# relax_span contract (satellite bugfix).
# --------------------------------------------------------------------- #
class TestRelaxSpan:
    def test_negative_duration_raises(self):
        model = ThermalModel(ThermalSpec(initial_warmth=0.4))
        with pytest.raises(ValueError, match="negative"):
            model.relax_span(-1e-9, active=False)

    def test_zero_duration_is_a_noop(self):
        model = ThermalModel(ThermalSpec(initial_warmth=0.4))
        assert model.relax_span(0.0, active=True) == 0.4
        assert model.warmth == 0.4
        assert model.relax_span(0.0, active=False) == 0.4
        assert model.warmth == 0.4

    def test_matches_step_for_positive_durations(self):
        spanned = ThermalModel(ThermalSpec(initial_warmth=0.25))
        stepped = ThermalModel(ThermalSpec(initial_warmth=0.25))
        for duration, active in ((1e-4, True), (3.7e-3, False), (0.5e-3, True)):
            assert spanned.relax_span(duration, active) == stepped.step(duration, active)

    def test_compiled_idle_kernel_treats_zero_span_as_noop(self, clean_fastcore):
        bundle = fastcore.kernels()
        from repro.gpu import _fastcore_kernels as K

        st, pp, _, _ = fastcore._scenario_params()
        st[K.S_WARMTH] = 0.37
        seg = np.zeros((8, 5))
        ev = np.zeros((8, 4))
        lens = np.zeros(2, dtype=np.int64)
        rc = bundle.idle(st, pp, 0.0, 1, seg, ev, lens)
        assert rc == 0
        assert st[K.S_WARMTH] == 0.37
        assert st[K.S_NOW] == 0.0
        assert int(lens[0]) == 0 and int(lens[1]) == 0
