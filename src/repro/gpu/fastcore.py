"""Compiled slice/boundary core: providers, self-check and engine selection.

The device offers two engines:

``compiled``
    The fast path.  The hot loops (idle per-period loop, execution slice
    loop, firmware control boundary, closed-form thermal relaxation) run as
    the kernels of :mod:`repro.gpu._fastcore_kernels`, served by the first
    provider of the chain ``numba`` -> ``cc`` -> ``python`` that loads and
    passes its self-check:

    * ``numba`` -- ``@njit(cache=True)`` over the kernel bodies (installed
      via the ``fast`` extra);
    * ``cc`` -- the same kernels hand-mirrored in C, compiled once with the
      system C compiler and bound through ctypes
      (:mod:`repro.gpu._fastcore_cc`);
    * ``python`` -- the un-jitted kernel bodies themselves.  Slow, but it
      needs nothing beyond NumPy, so it always resolves.

    A one-time self-check replays a fixed scenario through a candidate
    provider and through the pure-Python kernel bodies and requires
    bit-for-bit agreement before the provider is selected.
``reference``
    The per-slice object path -- the executable specification.

Selection
---------
:func:`resolve_engine` implements the precedence *explicit argument* >
``REPRO_ENGINE`` environment variable > auto; ``auto`` always picks
``compiled``.  The provider can be pinned with ``REPRO_FASTCORE_PROVIDER``
(``auto`` | ``numba`` | ``cc`` | ``python``; any other value raises
``ValueError``).  A pinned ``numba``/``cc`` provider that cannot load, or
any provider that fails its self-check, falls back to the ``python`` bodies
with a single warning; under ``auto`` a merely absent provider is skipped
silently.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

import numpy as np

from . import _fastcore_kernels as _K

#: Engines accepted by BackendConfig.engine / SimulatedGPU(engine=...).
VALID_ENGINES = ("compiled", "reference")

#: Provider candidates per ``REPRO_FASTCORE_PROVIDER`` value, tried in order;
#: ``python`` closes every chain because it always resolves.
PROVIDER_CHAINS = {
    "auto": ("numba", "cc", "python"),
    "numba": ("numba", "python"),
    "cc": ("cc", "python"),
    "python": ("python",),
}

#: Kernel functions swapped to their pure-Python bodies for the self-check
#: reference run (outermost last, so nested calls resolve pure as well).
_KERNEL_CHAIN = (
    "fw_transition",
    "fw_step",
    "fw_arrival",
    "control_boundary",
    "idle_core",
    "execute_core",
    "sequence_core",
)


class KernelBundle:
    """One provider's uniform kernel API (idle / execute / sequence)."""

    __slots__ = ("name", "idle", "execute", "sequence", "numba_version", "lib_path")

    def __init__(self, name, idle, execute, sequence, numba_version=None, lib_path=None):
        self.name = name
        self.idle = idle
        self.execute = execute
        self.sequence = sequence
        self.numba_version = numba_version
        self.lib_path = lib_path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelBundle({self.name!r})"


# --------------------------------------------------------------------- #
# Provider loading.
# --------------------------------------------------------------------- #
def _numba_importable() -> bool:
    """Whether the Numba provider can be used (patched by fallback tests)."""
    return _K.HAVE_NUMBA


@contextmanager
def _pure_kernels():
    """Run the kernel chain as its pure-Python bodies for the duration.

    When Numba is active the module-level kernels are dispatchers; their
    original bodies are temporarily swapped back in (nested calls resolve
    through the module globals at call time, so the whole chain runs pure).
    Without Numba the bodies already are plain Python and nothing changes.
    """
    swapped: dict[str, object] = {}
    for name in _KERNEL_CHAIN:
        func = getattr(_K, name)
        py_func = getattr(func, "py_func", None)
        if py_func is not None:
            swapped[name] = func
            setattr(_K, name, py_func)
    try:
        yield
    finally:
        for name, func in swapped.items():
            setattr(_K, name, func)


def _unjitted(entry):
    """An entry point that always runs the pure-Python kernel bodies."""
    if not _K.HAVE_NUMBA:
        return entry

    def call(*args):
        with _pure_kernels():
            return entry(*args)

    return call


def _load_provider(name: str) -> tuple[KernelBundle | None, str | None]:
    if name == "numba":
        if not _numba_importable():
            return None, "numba: not importable"
        import numba

        return (
            KernelBundle(
                "numba",
                _K.k_idle,
                _K.k_execute,
                _K.k_sequence,
                numba_version=numba.__version__,
            ),
            None,
        )
    if name == "python":
        return (
            KernelBundle(
                "python",
                _unjitted(_K.k_idle),
                _unjitted(_K.k_execute),
                _unjitted(_K.k_sequence),
            ),
            None,
        )
    if name == "cc":
        try:
            from . import _fastcore_cc

            cc = _fastcore_cc.load()
        except Exception as exc:
            return None, f"cc: {exc}"
        return (
            KernelBundle("cc", cc.idle, cc.execute, cc.sequence, lib_path=cc.lib_path),
            None,
        )
    return None, f"unknown provider {name!r}"


# --------------------------------------------------------------------- #
# Self-check: candidate provider vs the pure-Python kernel bodies.
# --------------------------------------------------------------------- #
def _scenario_params() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fixed state/parameters/descriptors exercising every kernel branch."""
    pp = np.empty(_K.PARAM_LEN)
    pp[_K.P_PERIOD] = 250e-6
    pp[_K.P_IDLE_X] = 88.0
    pp[_K.P_IDLE_I] = 52.0
    pp[_K.P_IDLE_H] = 41.0
    pp[_K.P_IDLE_TOT] = 88.0 + 52.0 + 41.0
    pp[_K.P_NOM] = 2.1
    pp[_K.P_PEXP] = 2.4
    pp[_K.P_XIDLE] = 88.0
    pp[_K.P_XDYN] = 310.0
    pp[_K.P_IIDLE] = 52.0
    pp[_K.P_IDYN] = 128.0
    pp[_K.P_HIDLE] = 41.0
    pp[_K.P_HDYN] = 104.0
    pp[_K.P_SWING] = 0.06
    pp[_K.P_COUPLE] = 0.5
    pp[_K.P_HEAT_TAU] = 2.2e-3
    pp[_K.P_COOL_TAU] = 9.0e-3
    pp[_K.P_LIMIT] = 620.0
    pp[_K.P_EXC_THRESH] = 1.0
    pp[_K.P_EXC_WIN] = 800e-6
    pp[_K.P_T_HOLD] = 1.6e-3
    pp[_K.P_REC_STEP] = 0.010
    pp[_K.P_RAMP_STEP] = 0.5
    pp[_K.P_CAP_TGT] = 0.985
    pp[_K.P_CAP_HYST] = 0.03
    pp[_K.P_IDLE_PARK] = 2.0e-3
    pp[_K.P_F_IDLE] = 0.8
    pp[_K.P_F_BOOST] = 2.25
    pp[_K.P_F_SUST] = 1.9
    pp[_K.P_RETENTION] = 4e-3
    pp[_K.P_MINFACT] = 0.85

    st = np.zeros(_K.STATE_LEN)
    st[_K.S_NEXT] = pp[_K.P_PERIOD]
    st[_K.S_FREQ] = pp[_K.P_F_IDLE]

    def pack(base, sens, cold_mult, cold_execs, rows):
        desc = np.empty(5 + 5 * len(rows))
        desc[0] = base
        desc[1] = sens
        desc[2] = cold_mult
        desc[3] = float(cold_execs)
        desc[4] = float(len(rows))
        for i, row in enumerate(rows):
            desc[5 + 5 * i : 10 + 5 * i] = row
        return desc

    # Long power-hungry kernel: crosses many control boundaries, ramps,
    # overdraws and throttles (then recovers / caps on later executions).
    desc_long = pack(
        1.1e-3,
        0.9,
        1.15,
        2,
        [
            (0.1, 0.82, 0.95, 0.97, 1.0),
            (0.9, 1.0, 0.96, 0.94, 0.98),
            (1.0, 0.8, 1.0, 1.0, 1.0),
        ],
    )
    # Short kernel: the single-slice shortcut inside a fused sequence.
    desc_short = pack(
        42e-6,
        1.0,
        1.08,
        2,
        [
            (0.15, 0.7, 1.1, 1.2, 1.25),
            (1.0, 0.95, 0.97, 0.95, 0.96),
        ],
    )
    return st, pp, desc_long, desc_short


def _run_scenario(idle, execute, sequence) -> dict[str, np.ndarray]:
    """Drive the three entry points through a fixed multi-branch scenario."""
    st, pp, desc_long, desc_short = _scenario_params()
    period = pp[_K.P_PERIOD]
    seg = np.zeros((512, 5))
    ev = np.zeros((64, 4))
    lens = np.zeros(2, dtype=np.int64)
    segs: list[np.ndarray] = []
    evs: list[np.ndarray] = []
    states: list[np.ndarray] = []

    def drain() -> None:
        segs.append(seg[: int(lens[0])].copy())
        evs.append(ev[: int(lens[1])].copy())
        states.append(st.copy())

    def check(rc) -> None:
        if rc != 0:
            raise RuntimeError(f"scenario kernel returned rc={rc}")

    out8_a = np.zeros(8)
    out8_b = np.zeros(8)
    check(idle(st, pp, 0.9 * period, 1, seg, ev, lens))
    drain()
    check(execute(st, pp, desc_long, 1.0, 1, 1, seg, ev, lens, out8_a))
    drain()
    check(idle(st, pp, 3.3 * period, 1, seg, ev, lens))
    drain()
    check(execute(st, pp, desc_long, 0.97, 0, 1, seg, ev, lens, out8_b))
    drain()
    check(idle(st, pp, 10.0 * period, 1, seg, ev, lens))
    drain()

    executions = 5
    cache = np.array([0.0, -1.0])
    variates = np.linspace(-1.2, 1.3, 4 * executions)
    exec_rows = np.zeros((executions, 8))
    cpu_starts = np.zeros(executions)
    cpu_ends = np.zeros(executions)
    check(
        sequence(
            st, pp, desc_short, cache, executions, variates, 1, 1.02,
            0.006, 2.5e-6, 0.5e-6, 0.6e-6, 1.0e-6, 1,
            seg, ev, lens, exec_rows, cpu_starts, cpu_ends,
        )
    )
    drain()
    return {
        "segments": np.vstack(segs),
        "events": np.vstack(evs),
        "states": np.vstack(states),
        "out8_a": out8_a,
        "out8_b": out8_b,
        "exec_rows": exec_rows,
        "cpu_starts": cpu_starts,
        "cpu_ends": cpu_ends,
        "cache": cache,
    }


def _run_scenario_pure() -> dict[str, np.ndarray]:
    """Reference run over the pure-Python kernel bodies."""
    with _pure_kernels():
        return _run_scenario(_K.k_idle, _K.k_execute, _K.k_sequence)


def self_check(bundle: KernelBundle) -> str | None:
    """Bit-for-bit comparison of a provider against the Python kernel bodies.

    Returns ``None`` when every recorded slice, firmware event, state vector
    and execution row agrees exactly, else a short failure description.
    """
    try:
        got = _run_scenario(bundle.idle, bundle.execute, bundle.sequence)
        want = _run_scenario_pure()
    except Exception as exc:
        return f"self-check scenario failed: {exc!r}"
    for key, expected in want.items():
        actual = got[key]
        if expected.shape != actual.shape or not np.array_equal(expected, actual):
            return f"self-check mismatch in {key!r}"
    return None


# --------------------------------------------------------------------- #
# Resolution (cached once per process).
# --------------------------------------------------------------------- #
_BUNDLE: KernelBundle | None = None
_WARNED: set[str] = set()


def _warn_once(key: str, message: str) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _reset_for_tests() -> None:
    """Drop the cached provider resolution (test helper)."""
    global _BUNDLE
    _BUNDLE = None
    _WARNED.clear()


def provider_request() -> str:
    """The ``REPRO_FASTCORE_PROVIDER`` value (``auto`` when unset), validated."""
    request = os.environ.get("REPRO_FASTCORE_PROVIDER", "").strip().lower() or "auto"
    if request not in PROVIDER_CHAINS:
        raise ValueError(
            f"unknown REPRO_FASTCORE_PROVIDER {request!r}: valid providers are "
            f"{'|'.join(PROVIDER_CHAINS)}"
        )
    return request


def kernels() -> KernelBundle:
    """The active compiled-kernel provider.

    Resolution runs once per process: the candidates of the requested chain
    (``numba``, ``cc``, ``python`` under ``auto``) are loaded and
    self-checked in order and the first that passes wins.  A candidate that
    loaded but failed its self-check warns once, and so does a pinned
    provider that did not load; ``python`` (the kernel bodies themselves)
    always resolves, so a bundle is always returned.
    """
    global _BUNDLE
    if _BUNDLE is not None:
        return _BUNDLE
    request = provider_request()
    bundle: KernelBundle | None = None
    for name in PROVIDER_CHAINS[request]:
        loaded, error = _load_provider(name)
        if loaded is None:
            if request == name:
                _warn_once(
                    f"unavailable:{name}",
                    f"fastcore provider {name!r} is unavailable ({error}); "
                    "falling back to the python kernel bodies",
                )
            continue
        error = None if name == "python" else self_check(loaded)
        if error is None:
            bundle = loaded
            break
        _warn_once(
            f"self-check:{name}",
            f"fastcore provider {name!r} failed its self-check ({error}); "
            "falling back to the next provider",
        )
    if bundle is None:  # pragma: no cover - python always loads
        raise RuntimeError("no fastcore provider resolved")
    _BUNDLE = bundle
    return _BUNDLE


def provider_name() -> str:
    return kernels().name


def numba_version() -> str | None:
    return kernels().numba_version


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an engine request to one of :data:`VALID_ENGINES`.

    Precedence: explicit ``engine`` argument > ``REPRO_ENGINE`` environment
    variable > auto selection, which always picks ``compiled`` (its provider
    chain ends in the always-available ``python`` bodies).
    """
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE", "").strip().lower() or "auto"
    if engine == "auto":
        engine = "compiled"
    if engine not in VALID_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}: valid engines are 'compiled' and "
            "'reference' (or 'auto'/None for auto-selection)"
        )
    if engine == "compiled":
        kernels()
    return engine


__all__ = [
    "VALID_ENGINES",
    "PROVIDER_CHAINS",
    "KernelBundle",
    "kernels",
    "provider_name",
    "numba_version",
    "provider_request",
    "resolve_engine",
    "self_check",
]
