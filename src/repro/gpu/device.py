"""The simulated GPU device.

:class:`SimulatedGPU` is the stand-in for the MI300X used by the paper.  It
executes kernels described by :class:`~repro.gpu.activity.KernelActivityDescriptor`
objects against simulated time, while:

* stepping the DVFS / power-cap firmware every control period,
* stepping the thermal (warmth) model,
* tracking per-kernel cache warmth (cold first executions),
* applying run-to-run and execution-to-execution time variation, and
* recording an instantaneous power timeline that the telemetry layer averages
  into the 1 ms power-logger samples the FinGraV methodology consumes.

The device deliberately exposes *two* views of time: the CPU clock (what the
host observes, used for kernel start/end instrumentation) and the GPU
timestamp counter (what tags power-logger samples).  Only the simulator knows
the exact relationship between them -- the methodology has to reconstruct it,
exactly as on real hardware (paper challenge C2).

Two execution engines
---------------------
Time advance comes in two engines selected by the ``engine`` constructor
argument (``"compiled"`` | ``"reference"``; ``None``/``"auto"`` resolves
through :func:`repro.gpu.fastcore.resolve_engine` exactly like
:class:`~repro.gpu.backend.BackendConfig`, which means ``compiled`` unless
``REPRO_ENGINE`` says otherwise):

* ``engine="compiled"`` -- the fast path.  The per-period/per-slice hot
  loops run as the kernels of :mod:`repro.gpu.fastcore` (Numba ``@njit``
  when the ``fast`` extra is installed, a ctypes-bound C mirror when a C
  compiler is present, the un-jitted kernel bodies otherwise); a one-time
  self-check pins every provider bit for bit against the pure-Python kernel
  bodies.  Simulation state (clock, warmth, control accumulator, firmware)
  is packed into a flat float vector around each call and recorded slices /
  firmware events are drained from preallocated buffers afterwards.
  :meth:`instrumented_runs` simulates a whole collection batch of
  instrumented runs -- per run park, logger start, anchor read, pre-delay,
  every launch sequence, logger stop and, given a sampler, the run's logger
  windows -- in one kernel call, with every RNG value drawn in Python
  beforehand; single idle spans and executions are one call each.  Slices
  are recorded columnar, idle-span warmth is advanced with one closed-form
  relaxation per span, and a recording comes back as a
  :class:`SegmentArray` whose storage is the kernels' ``(n, 5)`` ``(start,
  end, xcd, iod, hbm)`` rows, which the telemetry window kernel reads as
  is.
* ``engine="reference"`` -- the original per-slice path, retained as the
  executable specification.  It materialises one :class:`PowerSegment` per
  slice and steps the thermal model slice by slice.

Both engines evolve the firmware with exactly one control update per control
period (never per slice), consume the same RNG stream, and produce identical
slice boundaries; recorded powers agree to ~1 ulp (the only divergence is
the closed-form idle-span warmth).  The equivalence suite in
``tests/test_device_equivalence.py`` pins segments, executions, firmware
events and final warmth across idle, short-kernel, throttling-GEMM,
interleaved and long-idle park/unpark scenarios for every kernel provider
available in the process.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import exp, isfinite
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import _fastcore_kernels as _FK
from . import fastcore as _fastcore
from .activity import KernelActivityDescriptor
from .clocks import CPUClock, GPUTimestampCounter, SimulationClock, TimestampReadResult
from .dvfs import KERNEL_STATES, FirmwareConfig, FirmwareEvent, PowerManagementFirmware
from .power_model import IOD_FREQUENCY_COUPLING, ComponentPower, OperatingPoint, PowerModel
from .spec import GPUSpec, mi300x_spec
from .thermal import ThermalModel, ThermalSpec
from .variation import ExecutionTimeVariationModel, RunVariation

if TYPE_CHECKING:
    from .scheduler import LaunchConfig


# Firmware state -> compiled-kernel code (the FW_* codes).
_FC_CODES = {state: float(code) for code, state in enumerate(KERNEL_STATES)}


@dataclass(frozen=True)
class PowerSegment:
    """A span of simulated time with constant per-component power."""

    start_s: float
    end_s: float
    power: ComponentPower

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def energy_j(self) -> float:
        return self.power.total_w * self.duration_s


class SegmentArray(Sequence):
    """Columnar view of a recorded power timeline.

    Behaves like an immutable sequence of :class:`PowerSegment` (elements are
    materialised lazily on access).  Its storage is one C-contiguous ``(n, 5)``
    float array of ``(start, end, xcd, iod, hbm)`` rows -- the compiled
    kernels' segment layout, which the telemetry window kernel reads as is;
    ``starts_s``, ``ends_s`` and ``powers`` (columns xcd/iod/hbm) are views.
    """

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        self.rows = np.ascontiguousarray(rows, dtype=float).reshape(-1, 5)

    @classmethod
    def from_segments(cls, segments: Sequence[PowerSegment]) -> "SegmentArray":
        return cls(
            [(s.start_s, s.end_s, s.power.xcd_w, s.power.iod_w, s.power.hbm_w) for s in segments]
        )

    @property
    def starts_s(self) -> np.ndarray:
        return self.rows[:, 0]

    @property
    def ends_s(self) -> np.ndarray:
        return self.rows[:, 1]

    @property
    def powers(self) -> np.ndarray:
        return self.rows[:, 2:5]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SegmentArray(self.rows[index])
        row = self.rows[index]
        return PowerSegment(
            start_s=float(row[0]),
            end_s=float(row[1]),
            power=ComponentPower(xcd_w=float(row[2]), iod_w=float(row[3]), hbm_w=float(row[4])),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, SegmentArray):
            return np.array_equal(self.rows, other.rows)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self):  # pragma: no cover - mutable arrays are not hashable
        raise TypeError("SegmentArray is not hashable")

    def __repr__(self) -> str:
        return f"SegmentArray(n={len(self)})"


class _SegmentBuffer:
    """Growable columnar store the compiled engine records slices into.

    Single slices arrive as plain floats interleaved ``(start, end, xcd,
    iod, hbm)`` in one flat list, so recording one is a single
    ``list.extend``; kernel calls instead hand over whole ``(n, 5)`` row
    blocks (:meth:`append_block` is one list append; the block is spliced
    into the scalar stream at its recorded position).  Everything is packed
    into a :class:`SegmentArray` once, when the recording stops.
    """

    __slots__ = ("data", "blocks")

    def __init__(self) -> None:
        self.data = array("d")
        self.blocks: list[tuple[int, np.ndarray]] = []

    def append_block(self, rows: np.ndarray) -> None:
        """Bulk-append ``(start, end, xcd, iod, hbm)`` rows in one call.

        ``rows`` must be a float64 ``(n, 5)`` array the caller hands over
        (it is kept by reference, not copied, until the recording stops).
        """
        self.blocks.append((len(self.data), rows))

    def clear(self) -> None:
        # A fresh array keeps any SegmentArray built from the old buffer valid
        # (to_segment_array wraps the buffer zero-copy when block-free).
        self.data = array("d")
        self.blocks = []

    def to_segment_array(self) -> SegmentArray:
        flat = np.frombuffer(self.data, dtype=float).reshape(-1, 5)
        if self.blocks:
            pieces = []
            cursor = 0
            for offset, block in self.blocks:
                row_offset = offset // 5
                if row_offset > cursor:
                    pieces.append(flat[cursor:row_offset])
                    cursor = row_offset
                pieces.append(block)
            if cursor < flat.shape[0]:
                pieces.append(flat[cursor:])
            flat = np.concatenate(pieces)
        return SegmentArray(flat)


@dataclass(frozen=True)
class KernelExecutionResult:
    """Ground-truth outcome of one kernel execution on the device."""

    kernel_name: str
    start_s: float
    end_s: float
    cold_caches: bool
    mean_frequency_ghz: float
    energy_j: float
    mean_power: ComponentPower

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class InstrumentedRuns(NamedTuple):
    """What :meth:`SimulatedGPU.instrumented_runs` hands back to the backend.

    Row ``r`` of every per-run array belongs to run ``r``: ``marks`` holds
    the logger start, the anchor read's issue time, the time after the read
    and the logger stop; ``anchor_ticks`` / ``round_trips`` the anchor read;
    ``cpu_starts`` / ``cpu_ends`` the host-observed times of the run's
    executions, every sequence in order; ``variations`` one run variation
    per sequence.  With a sampler, the ``counts[r]`` samples of run ``r``
    follow those of run ``r - 1`` in ``times`` / ``powers`` (xcd/iod/hbm
    window rows) and ``segments`` is ``None``; without one, the sample
    arrays are empty and ``segments`` is the last run's recording.
    """

    marks: np.ndarray
    anchor_ticks: np.ndarray
    round_trips: np.ndarray
    variations: list[list[RunVariation]]
    cpu_starts: np.ndarray
    cpu_ends: np.ndarray
    counts: np.ndarray
    times: np.ndarray
    powers: np.ndarray
    segments: SegmentArray | None


class _ExecutionLog:
    """Columnar ground-truth execution history (the compiled engine's).

    Each execution appends one flat row of floats -- ``(start, end, cold,
    mean_frequency, energy, xcd_w, iod_w, hbm_w)``, the kernels' ``out8``
    layout -- plus the kernel name, instead of constructing a
    :class:`KernelExecutionResult` (and its :class:`ComponentPower`) per
    execution; :meth:`SimulatedGPU.executions` materialises the result
    objects only when the history is actually read (tests / validation).
    """

    __slots__ = ("data", "names")

    _ROW = 8

    def __init__(self) -> None:
        self.data = array("d")
        self.names: list[str] = []

    def clear(self) -> None:
        del self.data[:]
        self.names.clear()

    def materialize(self) -> list[KernelExecutionResult]:
        data = self.data
        results: list[KernelExecutionResult] = []
        for i, name in enumerate(self.names):
            row = i * self._ROW
            mean_power = ComponentPower.__new__(ComponentPower)
            fields = mean_power.__dict__
            fields["xcd_w"] = data[row + 5]
            fields["iod_w"] = data[row + 6]
            fields["hbm_w"] = data[row + 7]
            result = KernelExecutionResult.__new__(KernelExecutionResult)
            fields = result.__dict__
            fields["kernel_name"] = name
            fields["start_s"] = data[row]
            fields["end_s"] = data[row + 1]
            fields["cold_caches"] = bool(data[row + 2])
            fields["mean_frequency_ghz"] = data[row + 3]
            fields["energy_j"] = data[row + 4]
            fields["mean_power"] = mean_power
            results.append(result)
        return results


@dataclass(slots=True)
class _CacheState:
    """Per-kernel cache warm-up bookkeeping."""

    consecutive_executions: int = 0
    last_end_s: float = -1.0


@dataclass(slots=True)
class _ControlAccumulator:
    """Energy/time accumulated since the last firmware control step."""

    energy_j: float = 0.0
    time_s: float = 0.0
    active_time_s: float = 0.0

    def add(self, power_w: float, dt_s: float, active: bool) -> None:
        self.energy_j += power_w * dt_s
        self.time_s += dt_s
        if active:
            self.active_time_s += dt_s

    def mean_power_w(self, idle_power_w: float) -> float:
        if self.time_s <= 0:
            return idle_power_w
        return self.energy_j / self.time_s

    def mostly_active(self) -> bool:
        return self.time_s > 0 and self.active_time_s >= 0.5 * self.time_s

    def reset(self) -> None:
        self.energy_j = 0.0
        self.time_s = 0.0
        self.active_time_s = 0.0


class SimulatedGPU:
    """A single simulated MI300X-class GPU."""

    #: Idle time after which a kernel's working set is considered evicted
    #: from the on-chip caches (seconds).
    CACHE_RETENTION_S = 4e-3

    def __init__(
        self,
        spec: GPUSpec | None = None,
        seed: int = 0,
        thermal_spec: ThermalSpec | None = None,
        firmware_config: FirmwareConfig | None = None,
        engine: str | None = None,
    ) -> None:
        self._spec = spec or mi300x_spec()
        self._spec.validate()
        self._rng = np.random.default_rng(seed)
        self._sim_clock = SimulationClock()
        self._cpu_clock = CPUClock(self._sim_clock)
        self._timestamp_counter = GPUTimestampCounter(self._spec.clocks, self._sim_clock, self._rng)
        self._power_model = PowerModel(self._spec)
        self._firmware = PowerManagementFirmware(
            self._spec.dvfs, self._spec.power, firmware_config
        )
        self._thermal = ThermalModel(thermal_spec)
        self._variation = ExecutionTimeVariationModel(self._rng)
        self._engine = _fastcore.resolve_engine(engine)
        self._compiled = self._engine == "compiled"

        # Idle power is constant for the lifetime of the device; cache it so
        # the hot paths (and the firmware fallback) skip re-synthesising it.
        idle_power = self._power_model.idle_power()
        self._idle_power = idle_power
        self._idle_power_xih = (idle_power.xcd_w, idle_power.iod_w, idle_power.hbm_w)
        self._idle_total_w = idle_power.total_w
        thermal_spec = self._thermal.spec
        self._heat_tau_s = thermal_spec.heat_tau_s
        self._cool_tau_s = thermal_spec.cool_tau_s

        self._recording = False
        self._segments: list[PowerSegment] = []
        self._buffer = _SegmentBuffer()
        # Bound extend of the buffer's flat storage, re-grabbed whenever the
        # storage is swapped -- the hot paths append through this.
        self._record_extend = self._buffer.data.extend
        self._cache_states: dict[str, _CacheState] = {}
        self._control = _ControlAccumulator()
        self._next_control_s = self._spec.dvfs.control_period_s
        self._executions: list[KernelExecutionResult] = []
        # Columnar ground-truth log the compiled engine appends to (the
        # reference engine keeps appending result objects to _executions).
        self._exec_log = _ExecutionLog()
        self._exec_log_extend = self._exec_log.data.extend

        if self._compiled:
            self._fc_setup()

        # Host-side timestamp reads must go through the device so the round
        # trip is visible to telemetry, thermal state and the firmware alike.
        self._timestamp_counter.attach_host_read_path(self.read_timestamp)

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> GPUSpec:
        return self._spec

    @property
    def power_model(self) -> PowerModel:
        return self._power_model

    @property
    def cpu_clock(self) -> CPUClock:
        return self._cpu_clock

    @property
    def timestamp_counter(self) -> GPUTimestampCounter:
        return self._timestamp_counter

    @property
    def firmware(self) -> PowerManagementFirmware:
        return self._firmware

    @property
    def thermal(self) -> ThermalModel:
        return self._thermal

    @property
    def variation_model(self) -> ExecutionTimeVariationModel:
        return self._variation

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    @property
    def engine(self) -> str:
        """The active time-advance engine (compiled/reference)."""
        return self._engine

    def now_s(self) -> float:
        """Current CPU/simulated time in seconds."""
        return self._sim_clock.now_s

    def firmware_events(self) -> list[FirmwareEvent]:
        return self._firmware.events

    def executions(self) -> list[KernelExecutionResult]:
        """Ground-truth execution history since recording started."""
        if self._compiled:
            return self._exec_log.materialize()
        return list(self._executions)

    # ------------------------------------------------------------------ #
    # Power-trace recording.
    # ------------------------------------------------------------------ #
    def start_recording(self) -> float:
        """Begin recording the instantaneous power timeline; returns start time."""
        self._recording = True
        self._segments = []
        self._buffer.clear()
        self._record_extend = self._buffer.data.extend
        self._executions = []
        self._exec_log.clear()
        return self._sim_clock.now_s

    def stop_recording(self) -> Sequence[PowerSegment]:
        """Stop recording and return the captured power segments.

        The compiled engine returns a columnar :class:`SegmentArray`; the
        reference engine returns a plain list of :class:`PowerSegment`.  Both
        compare equal element-wise and support the same sequence protocol.
        """
        self._recording = False
        if self._compiled:
            segments_array = self._buffer.to_segment_array()
            self._buffer = _SegmentBuffer()
            self._record_extend = self._buffer.data.extend
            return segments_array
        segments = self._segments
        self._segments = []
        return segments

    @property
    def is_recording(self) -> bool:
        return self._recording

    def _record(self, start_s: float, end_s: float, power: ComponentPower) -> None:
        if self._recording and end_s > start_s:
            self._segments.append(PowerSegment(start_s=start_s, end_s=end_s, power=power))

    # ------------------------------------------------------------------ #
    # Host-visible operations.
    # ------------------------------------------------------------------ #
    def read_timestamp(self) -> TimestampReadResult:
        """Read the GPU timestamp counter from the host (advances CPU time).

        The counter value captured corresponds to the moment the read reaches
        the GPU (about one way into the round trip); the elapsed round trip is
        spent at idle power so telemetry, thermal state and the firmware all
        see the elapsed time consistently.
        """
        one_way = self._timestamp_counter.sample_read_delay_s()
        return_way = self._timestamp_counter.sample_read_delay_s()
        capture_time_s = self._sim_clock.now_s + one_way
        ticks = self._timestamp_counter.ticks_at(capture_time_s)
        self.idle(one_way + return_way)
        return TimestampReadResult(
            gpu_ticks=ticks,
            cpu_time_after_s=self._sim_clock.now_s,
            round_trip_s=one_way + return_way,
        )

    def idle(self, duration_s: float) -> None:
        """Let the device sit idle for ``duration_s`` seconds."""
        if not isfinite(duration_s):
            raise ValueError(f"idle duration must be finite, got {duration_s!r}")
        if duration_s < 0:
            raise ValueError("idle duration cannot be negative")
        if self._compiled:
            self._idle_compiled(duration_s)
        else:
            self._idle_reference(duration_s)

    def park(self, duration_s: float = 12e-3) -> None:
        """Idle long enough for clocks to drop, caches to expire and the die to cool."""
        self.idle(duration_s)

    def execute_kernel(
        self,
        descriptor: KernelActivityDescriptor,
        run_variation: RunVariation | None = None,
    ) -> KernelExecutionResult:
        """Execute one kernel to completion and return its ground-truth timing.

        The execution is advanced in slices bounded by the firmware control
        period so that clock changes take effect mid-execution for kernels
        longer than the control period (the mechanism behind the power
        excursions and throttling of the largest GEMMs).
        """
        if self._compiled:
            return self._execute_compiled(descriptor, run_variation)
        return self._execute_reference(descriptor, run_variation)

    def draw_run_variation(self, descriptor: KernelActivityDescriptor) -> RunVariation:
        """Draw the per-run variation factors for ``descriptor``."""
        return self._variation.draw_run(descriptor.variation)

    # ------------------------------------------------------------------ #
    # Time-advance engines.
    # ------------------------------------------------------------------ #
    def _idle_reference(self, duration_s: float) -> None:
        """Per-slice reference idle path (the executable specification)."""
        remaining = duration_s
        idle_power = self._idle_power
        while remaining > 1e-12:
            now = self._sim_clock.now_s
            dt = min(remaining, max(self._next_control_s - now, 1e-9))
            self._record(now, now + dt, idle_power)
            self._control.add(idle_power.total_w, dt, active=False)
            self._thermal.step(dt, active=False)
            self._sim_clock.advance(dt)
            remaining -= dt
            self._maybe_step_firmware()

    def _execute_reference(
        self,
        descriptor: KernelActivityDescriptor,
        run_variation: RunVariation | None,
    ) -> KernelExecutionResult:
        """Per-slice reference execution path (the executable specification)."""
        cold = self._consume_cache_state(descriptor)
        jitter = self._variation.draw_execution_jitter(descriptor.variation)
        time_factor = jitter if run_variation is None else run_variation.execution_factor(jitter)

        start_s = self._sim_clock.now_s
        self._firmware.notify_kernel_arrival(start_s)
        work_remaining = 1.0
        energy_j = 0.0
        component_energy = np.zeros(3)
        freq_time_weighted = 0.0

        while work_remaining > 1e-9:
            now = self._sim_clock.now_s
            frequency = self._firmware.frequency_ghz
            duration_full = (
                descriptor.duration_at(
                    frequency, self._spec.dvfs.nominal_frequency_ghz, cold=cold
                )
                * time_factor
            )
            dt_to_control = max(self._next_control_s - now, 1e-9)
            dt = min(dt_to_control, work_remaining * duration_full)
            frac_done = 1.0 - work_remaining
            frac_mid = frac_done + 0.5 * dt / duration_full
            phase = descriptor.phase_at(frac_mid)
            point = OperatingPoint(
                frequency_ghz=frequency, warmth=self._thermal.warmth, cold_caches=cold
            )
            power = self._power_model.kernel_power(descriptor, point, phase)

            self._record(now, now + dt, power)
            self._control.add(power.total_w, dt, active=True)
            self._thermal.step(dt, active=True)
            self._sim_clock.advance(dt)
            energy_j += power.total_w * dt
            component_energy += np.array([power.xcd_w, power.iod_w, power.hbm_w]) * dt
            freq_time_weighted += frequency * dt
            work_remaining -= dt / duration_full
            self._maybe_step_firmware()

        end_s = self._sim_clock.now_s
        duration = end_s - start_s
        self._update_cache_state(descriptor, end_s)
        mean_power = ComponentPower(
            xcd_w=float(component_energy[0] / duration),
            iod_w=float(component_energy[1] / duration),
            hbm_w=float(component_energy[2] / duration),
        )
        result = KernelExecutionResult(
            kernel_name=descriptor.name,
            start_s=start_s,
            end_s=end_s,
            cold_caches=cold,
            mean_frequency_ghz=freq_time_weighted / duration,
            energy_j=energy_j,
            mean_power=mean_power,
        )
        if self._recording:
            self._executions.append(result)
        return result

    # ------------------------------------------------------------------ #
    # Compiled engine.
    # ------------------------------------------------------------------ #
    def _fc_setup(self) -> None:
        """Bind the compiled-kernel bundle and preallocate its buffers.

        The parameter vector packs everything the kernels read that is
        constant for the device's lifetime (spec frequencies and powers,
        firmware tunables, thermal taus, cache retention) in the ``P_*``
        layout of :mod:`repro.gpu._fastcore_kernels`.
        """
        bundle = _fastcore.kernels()
        if bundle is None:  # pragma: no cover - resolve_engine guards this
            raise RuntimeError("compiled engine selected but no provider is available")
        self._fc = bundle
        dvfs = self._spec.dvfs
        budget = self._spec.power
        cfg = self._firmware.config
        idle_x, idle_i, idle_h = self._idle_power_xih
        pp = np.empty(_FK.PARAM_LEN)
        pp[_FK.P_PERIOD] = dvfs.control_period_s
        pp[_FK.P_IDLE_X] = idle_x
        pp[_FK.P_IDLE_I] = idle_i
        pp[_FK.P_IDLE_H] = idle_h
        pp[_FK.P_IDLE_TOT] = self._idle_total_w
        pp[_FK.P_NOM] = dvfs.nominal_frequency_ghz
        pp[_FK.P_PEXP] = dvfs.power_exponent
        pp[_FK.P_XIDLE] = budget.xcd_idle_w
        pp[_FK.P_XDYN] = budget.xcd_dynamic_w
        pp[_FK.P_IIDLE] = budget.iod_idle_w
        pp[_FK.P_IDYN] = budget.iod_dynamic_w
        pp[_FK.P_HIDLE] = budget.hbm_idle_w
        pp[_FK.P_HDYN] = budget.hbm_dynamic_w
        pp[_FK.P_SWING] = PowerModel.WARMTH_DYNAMIC_SWING
        pp[_FK.P_COUPLE] = IOD_FREQUENCY_COUPLING
        pp[_FK.P_HEAT_TAU] = self._heat_tau_s
        pp[_FK.P_COOL_TAU] = self._cool_tau_s
        pp[_FK.P_LIMIT] = budget.board_limit_w
        pp[_FK.P_EXC_THRESH] = cfg.excursion_threshold
        pp[_FK.P_EXC_WIN] = cfg.excursion_window_s
        pp[_FK.P_T_HOLD] = cfg.throttle_hold_s
        pp[_FK.P_REC_STEP] = cfg.recovery_step_ghz
        pp[_FK.P_RAMP_STEP] = cfg.ramp_step_ghz
        pp[_FK.P_CAP_TGT] = cfg.cap_target
        pp[_FK.P_CAP_HYST] = cfg.cap_release_hysteresis
        pp[_FK.P_IDLE_PARK] = cfg.idle_park_s
        pp[_FK.P_F_IDLE] = dvfs.idle_frequency_ghz
        pp[_FK.P_F_BOOST] = dvfs.boost_frequency_ghz
        pp[_FK.P_F_SUST] = dvfs.sustained_frequency_ghz
        pp[_FK.P_RETENTION] = self.CACHE_RETENTION_S
        pp[_FK.P_MINFACT] = ExecutionTimeVariationModel.MIN_FACTOR
        self._fc_params = pp
        self._fc_state = np.empty(_FK.STATE_LEN)
        self._fc_lens = np.zeros(2, dtype=np.int64)
        self._fc_seg = np.empty((4096, 5))
        self._fc_ev = np.empty((256, 4))
        self._fc_cum = np.empty((1024, 3))
        self._fc_times = np.empty(4096)
        self._fc_powers = np.empty((4096, 3))
        #: A zero sample grid: the batch kernel takes no samples (nor reads a fill).
        self._fc_no_grid = np.zeros(3)
        # Batch-kernel scratch: a run's starting state and caches, progress.
        self._fc_snap = np.empty(_FK.STATE_LEN + 8)
        self._fc_progress = np.zeros(2, dtype=np.int64)
        self._fc_out8 = np.empty(8)

    def _fc_pack(self) -> np.ndarray:
        """Mirror live simulation state into the kernel state vector."""
        st = self._fc_state
        firmware = self._firmware
        control = self._control
        st[_FK.S_NOW] = self._sim_clock._now_s
        st[_FK.S_WARMTH] = self._thermal._warmth
        st[_FK.S_CEN] = control.energy_j
        st[_FK.S_CTM] = control.time_s
        st[_FK.S_CAC] = control.active_time_s
        st[_FK.S_NEXT] = self._next_control_s
        st[_FK.S_FWST] = _FC_CODES[firmware._state]
        st[_FK.S_FREQ] = firmware._frequency_ghz
        st[_FK.S_OVER] = firmware._overdraw_accum_s
        st[_FK.S_THROT] = firmware._throttle_until_s
        st[_FK.S_IDLEAC] = firmware._idle_accum_s
        st[_FK.S_LASTP] = firmware._last_power_w
        return st

    def _fc_unpack(self) -> None:
        """Write the kernel state vector back into the live objects."""
        st = self._fc_state
        firmware = self._firmware
        control = self._control
        self._sim_clock._now_s = st[_FK.S_NOW]
        self._thermal._warmth = st[_FK.S_WARMTH]
        control.energy_j = st[_FK.S_CEN]
        control.time_s = st[_FK.S_CTM]
        control.active_time_s = st[_FK.S_CAC]
        self._next_control_s = st[_FK.S_NEXT]
        firmware._state = KERNEL_STATES[int(st[_FK.S_FWST])]
        firmware._frequency_ghz = st[_FK.S_FREQ]
        firmware._overdraw_accum_s = st[_FK.S_OVER]
        firmware._throttle_until_s = st[_FK.S_THROT]
        firmware._idle_accum_s = st[_FK.S_IDLEAC]
        firmware._last_power_w = st[_FK.S_LASTP]

    def _fc_drain(self) -> None:
        """Flush recorded slices and firmware events out of the kernel buffers."""
        lens = self._fc_lens
        n_seg = int(lens[0])
        if n_seg and self._recording:
            self._buffer.append_block(self._fc_seg[:n_seg].copy())
        n_ev = int(lens[1])
        if n_ev:
            self._firmware.record_kernel_events(self._fc_ev[:n_ev])

    def _fc_grow(self, rc: int) -> None:
        """Double the overflowed buffer.

        rc 1: segments, 2: firmware events, 3: window scratch, 4: samples.
        Events and samples keep their rows, so a batch resumes where it
        stopped; the idle/execute wrappers re-pack fresh state and retry the
        whole call.  The kernels carry no RNG, so either retry is
        deterministic.
        """
        if rc == 1:
            self._fc_seg = np.empty((2 * self._fc_seg.shape[0], 5))
        elif rc == 2:
            self._fc_ev = np.concatenate([self._fc_ev, np.empty_like(self._fc_ev)])
        elif rc == 3:
            self._fc_cum = np.empty((2 * self._fc_cum.shape[0], 3))
        elif rc == 4:
            self._fc_times = np.concatenate([self._fc_times, np.empty_like(self._fc_times)])
            self._fc_powers = np.concatenate([self._fc_powers, np.empty_like(self._fc_powers)])
        else:  # pragma: no cover - unknown code would be a kernel bug
            raise RuntimeError(f"compiled kernel returned rc={rc}")

    def _fc_descriptor(self, descriptor: KernelActivityDescriptor) -> np.ndarray:
        """The descriptor flattened into the kernel ``desc`` layout, cached.

        ``[base_duration, sensitivity, cold_mult, cold_executions, n_phases,
        then (cumulative_fraction, xcd_act, iod_util, hbm_warm, hbm_cold) per
        phase]``, with the phase scaling and the ``min(..., 1.0)`` clamps of
        :meth:`PowerModel.kernel_power` already applied -- everything that
        depends only on the (frozen) descriptor and this device's power
        model.  The array is stashed in the descriptor's ``__dict__``
        (``object.__setattr__`` bypasses the frozen guard, which is safe
        because the value is a pure function of the descriptor's own fields
        and the recorded power model); the entry carries the power model it
        was derived from and is recomputed when the same descriptor runs on
        a device with a different one.  The cumulative fractions accumulate
        exactly as :meth:`KernelActivityDescriptor.phase_at` does, so the
        kernels' phase lookup reproduces its boundaries bit for bit.
        """
        cached = descriptor.__dict__.get("_device_fc_profile")
        if cached is not None and cached[0] is self._power_model:
            return cached[1]
        power_model = self._power_model
        xcd_activity = power_model.xcd_activity(descriptor)
        iod_utilization = power_model.iod_utilization(descriptor)
        hbm_warm = power_model.hbm_utilization(descriptor, False)
        hbm_cold = power_model.hbm_utilization(descriptor, True)
        n = len(descriptor.phases)
        desc = np.empty(5 + 5 * n)
        desc[0] = descriptor.base_duration_s
        desc[1] = descriptor.frequency_sensitivity
        desc[2] = descriptor.cold_duration_multiplier
        desc[3] = float(descriptor.cold_executions)
        desc[4] = float(n)
        cursor = 0.0
        for i, phase in enumerate(descriptor.phases):
            cursor += phase.duration_fraction
            desc[5 + 5 * i : 10 + 5 * i] = (
                cursor,
                min(xcd_activity * phase.xcd_scale, 1.0),
                min(iod_utilization * phase.iod_scale, 1.0),
                min(hbm_warm * phase.hbm_scale, 1.0),
                min(hbm_cold * phase.hbm_scale, 1.0),
            )
        object.__setattr__(descriptor, "_device_fc_profile", (power_model, desc))
        return desc

    def _idle_compiled(self, duration_s: float) -> None:
        """Compiled idle path: one kernel call per span.

        The single-slice shortcut (span entirely before the next control
        boundary -- launch latencies, inter-execution gaps, timestamp round
        trips) stays in Python: it is a handful of float operations, cheaper
        than packing state across the call boundary.  Everything else -- the
        per-period loop, firmware control steps, park transitions and the
        closed-form span relaxation -- runs inside the kernel.
        """
        if duration_s <= 1e-12:
            return
        thermal = self._thermal
        clock = self._sim_clock
        now = clock._now_s
        end = now + duration_s
        if end + 1e-12 < self._next_control_s:
            # One slice, no firmware callback: the kernel's per-period loop
            # would run exactly once with this arithmetic.
            control = self._control
            if self._recording:
                idle_x, idle_i, idle_h = self._idle_power_xih
                self._record_extend((now, end, idle_x, idle_i, idle_h))
            control.energy_j += self._idle_total_w * duration_s
            control.time_s += duration_s
            clock._now_s = end
            alpha = 1.0 - exp(-duration_s / self._cool_tau_s)
            warmth = thermal._warmth
            warmth += (0.0 - warmth) * alpha
            thermal._warmth = min(max(warmth, 0.0), 1.0)
            return
        fc_idle = self._fc.idle
        record = 1 if self._recording else 0
        while True:
            st = self._fc_pack()
            rc = fc_idle(
                st, self._fc_params, duration_s, record,
                self._fc_seg, self._fc_ev, self._fc_lens,
            )
            if rc == 0:
                break
            self._fc_grow(rc)
        self._fc_unpack()
        self._fc_drain()

    def _execute_compiled(
        self,
        descriptor: KernelActivityDescriptor,
        run_variation: RunVariation | None,
    ) -> KernelExecutionResult:
        """Compiled execution path: same RNG draws, slice loop in the kernel."""
        now = self._sim_clock._now_s

        # _consume_cache_state, inlined (the state object is reused below).
        state = self._cache_states.get(descriptor.name)
        if state is None or (now - state.last_end_s) > self.CACHE_RETENTION_S:
            state = _CacheState()
            self._cache_states[descriptor.name] = state
        cold = state.consecutive_executions < descriptor.cold_executions

        # ExecutionTimeVariationModel.draw_execution_jitter, inlined.
        execution_cv = descriptor.variation.execution_cv
        if execution_cv <= 0:
            jitter = 1.0
        else:
            jitter = float(self._rng.lognormal(mean=0.0, sigma=execution_cv))
            if jitter < ExecutionTimeVariationModel.MIN_FACTOR:
                jitter = ExecutionTimeVariationModel.MIN_FACTOR
        time_factor = jitter if run_variation is None else run_variation.run_factor * jitter

        desc = self._fc_descriptor(descriptor)
        fc_execute = self._fc.execute
        record = 1 if self._recording else 0
        out8 = self._fc_out8
        while True:
            st = self._fc_pack()
            rc = fc_execute(
                st, self._fc_params, desc, time_factor, 1 if cold else 0,
                record, self._fc_seg, self._fc_ev, self._fc_lens, out8,
            )
            if rc == 0:
                break
            self._fc_grow(rc)
        self._fc_unpack()
        self._fc_drain()

        start_s = float(out8[0])
        end_s = float(out8[1])
        # _update_cache_state, inlined on the state fetched above.
        state.consecutive_executions += 1
        state.last_end_s = end_s
        if record:
            self._exec_log_extend(
                (start_s, end_s, out8[2], out8[3], out8[4], out8[5], out8[6], out8[7])
            )
            self._exec_log.names.append(descriptor.name)
        # Frozen-dataclass __init__ routes every field through
        # object.__setattr__; the hot path builds the identical objects
        # directly through __dict__ (same values, same equality).
        mean_power = ComponentPower.__new__(ComponentPower)
        fields = mean_power.__dict__
        fields["xcd_w"] = float(out8[5])
        fields["iod_w"] = float(out8[6])
        fields["hbm_w"] = float(out8[7])
        result = KernelExecutionResult.__new__(KernelExecutionResult)
        fields = result.__dict__
        fields["kernel_name"] = descriptor.name
        fields["start_s"] = start_s
        fields["end_s"] = end_s
        fields["cold_caches"] = cold
        fields["mean_frequency_ghz"] = float(out8[3])
        fields["energy_j"] = float(out8[4])
        fields["mean_power"] = mean_power
        return result

    def instrumented_runs(
        self,
        sequences: Sequence[tuple[KernelActivityDescriptor, int]],
        launch: "LaunchConfig",
        park_s: float,
        pre_padding_s: float,
        pre_delays: np.ndarray,
        post_padding_s: float,
        sampler=None,
    ) -> InstrumentedRuns:
        """A batch of instrumented runs, one per pre-delay, in one kernel call.

        Replays, on the compiled engine, what the backend's step-by-step
        path does per run: park (unrecorded), start recording, pre-padding
        idle, the timestamp-anchor read, the pre-delay, every ``(descriptor,
        executions)`` launch sequence back to back (the main one last),
        post-padding idle and stop recording.  All RNG values are drawn here
        first, run by run in the step-by-step order: the two read delays,
        then per sequence its run variation and ``standard_normal(4 * n)``
        (launch latency, execution jitter, two timestamp errors per
        execution).  With ``sampler`` (a telemetry sampler: its ``grid`` and
        idle ``fill``) each run's logger windows are averaged in the same
        call.  The device is left exactly as the step-by-step runs leave it,
        the last run's executions in the ground-truth log.  Requires
        ``launch.event_timestamp_error_s > 0`` and a positive execution cv on
        every descriptor (the four-variates draw).
        """
        counter = self._timestamp_counter
        draw_run = self._variation.draw_run
        standard_normal = self._rng.standard_normal
        n_runs = pre_delays.shape[0]
        n_seqs = len(sequences)
        slots: dict[str, int] = {}
        descs: list[np.ndarray] = []
        seq_rows: list[tuple[int, int, int]] = []
        offset = total = 0
        for descriptor, executions in sequences:
            desc = self._fc_descriptor(descriptor)
            descs.append(desc)
            seq_rows.append((offset, slots.setdefault(descriptor.name, len(slots)), executions))
            offset += desc.shape[0]
            total += executions
        draws = [(descriptor.variation, 4 * executions) for descriptor, executions in sequences]
        one_ways: list[float] = []
        round_trips: list[float] = []
        factors: list[float] = []
        variates = np.empty(4 * total * n_runs)
        variations: list[list[RunVariation]] = []
        cursor = 0
        for _ in range(n_runs):
            one_way = counter.sample_read_delay_s()
            return_way = counter.sample_read_delay_s()
            one_ways.append(one_way)
            round_trips.append(one_way + return_way)
            run_variations = []
            for spec, count in draws:
                variation = draw_run(spec)
                run_variations.append(variation)
                factors.append(variation.run_factor)
                standard_normal(out=variates[cursor : cursor + count])
                cursor += count
            variations.append(run_variations)
        spans = np.array(
            [
                (park_s, pre_padding_s, round_trip, pre_delay_s, post_padding_s)
                for round_trip, pre_delay_s in zip(round_trips, pre_delays.tolist())
            ]
        )
        cvs = [spec.execution_cv for spec, _ in draws] * n_runs
        seqf = np.array([factors, cvs]).T.copy()
        states = []
        for name in slots:
            state = self._cache_states.get(name)
            if state is None:
                state = self._cache_states[name] = _CacheState()
            states.append(state)
        caches = np.array(
            [(float(state.consecutive_executions), state.last_end_s) for state in states]
        )
        seqs = np.array(seq_rows, dtype=np.int64)
        descs_flat = descs[0] if len(descs) == 1 else np.concatenate(descs)
        exec_rows = np.empty((total, 8))
        cpu = np.empty((2, n_runs * total))
        marks = np.empty((n_runs, 4))
        counts = np.zeros(n_runs, dtype=np.int64)
        if self._fc_snap.shape[0] < _FK.STATE_LEN + caches.size:
            self._fc_snap = np.empty(_FK.STATE_LEN + caches.size)
        progress = self._fc_progress
        progress[:] = 0
        grid, fill = (self._fc_no_grid,) * 2 if sampler is None else (sampler.grid, sampler.fill)
        lens = self._fc_lens
        lens[:] = 0
        st = self._fc_pack()
        fc_batch = self._fc.batch
        while True:
            rc = fc_batch(
                st, self._fc_params, descs_flat, seqs, seqf, caches, variates, spans,
                launch.launch_latency_s, launch.launch_jitter_s,
                launch.event_timestamp_error_s, launch.inter_execution_gap_s,
                grid, fill, self._fc_seg, self._fc_ev, self._fc_cum, lens, self._fc_snap, progress,
                exec_rows, cpu[0], cpu[1], marks, self._fc_times, self._fc_powers, counts,
            )
            if rc == 0:
                break
            # The kernel restored the failed run's start: grow and resume.
            self._fc_grow(rc)
        self._fc_unpack()
        # Recording is over: the drain below only flushes firmware events.
        self._recording = False
        self._segments = []
        self._executions = []
        self._buffer = _SegmentBuffer()
        self._record_extend = self._buffer.data.extend
        self._fc_drain()
        segments = None
        samples = int(progress[1])
        if sampler is None:
            segments = SegmentArray(self._fc_seg[: int(lens[0])].copy())
        for slot, state in enumerate(states):
            state.consecutive_executions = int(caches[slot, 0])
            state.last_end_s = float(caches[slot, 1])
        log = self._exec_log
        log.clear()
        log.data.frombytes(exec_rows.tobytes())
        for descriptor, executions in sequences:
            log.names.extend([descriptor.name] * executions)
        return InstrumentedRuns(
            marks,
            counter.ticks_at_many(marks[:, 1] + np.array(one_ways)),
            spans[:, 2],
            variations,
            cpu[0].reshape(n_runs, total),
            cpu[1].reshape(n_runs, total),
            counts,
            self._fc_times[:samples].copy(),
            self._fc_powers[:samples].copy(),
            segments,
        )

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    def _maybe_step_firmware(self) -> None:
        now = self._sim_clock.now_s
        if now + 1e-12 < self._next_control_s:
            return
        mean_power = self._control.mean_power_w(self._idle_total_w)
        kernel_resident = self._control.mostly_active()
        self._firmware.step(now, self._control.time_s, mean_power, kernel_resident)
        self._control.reset()
        period = self._spec.dvfs.control_period_s
        while self._next_control_s <= now + 1e-12:
            self._next_control_s += period

    def _consume_cache_state(self, descriptor: KernelActivityDescriptor) -> bool:
        """Return whether this execution sees cold caches, updating bookkeeping."""
        state = self._cache_states.get(descriptor.name)
        now = self._sim_clock.now_s
        if state is None or (now - state.last_end_s) > self.CACHE_RETENTION_S:
            state = _CacheState()
            self._cache_states[descriptor.name] = state
        return state.consecutive_executions < descriptor.cold_executions

    def _update_cache_state(self, descriptor: KernelActivityDescriptor, end_s: float) -> None:
        state = self._cache_states.setdefault(descriptor.name, _CacheState())
        state.consecutive_executions += 1
        state.last_end_s = end_s

    def reset_cache_state(self) -> None:
        """Forget all cache warm-up state (as after a long idle period)."""
        self._cache_states.clear()


__all__ = [
    "PowerSegment",
    "SegmentArray",
    "KernelExecutionResult",
    "InstrumentedRuns",
    "SimulatedGPU",
]
