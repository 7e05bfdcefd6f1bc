"""Simulated-MI300X implementation of the FinGraV profiling backend.

:class:`SimulatedDeviceBackend` is the glue between the methodology
(:mod:`repro.core`, written against the :class:`~repro.core.backend.ProfilingBackend`
protocol) and the simulator (:mod:`repro.gpu`).  It accepts kernel handles of
two kinds -- an :class:`~repro.kernels.base.AIKernel` or a raw
:class:`~repro.gpu.activity.KernelActivityDescriptor` -- and performs the
CPU-side instrumentation the paper describes (Section IV-B step 2): starting
and stopping the power logger around the run, reading the GPU timestamp before
the executions, timing kernel start/end from the host, and injecting the
caller-requested random delay before the executions.

:meth:`SimulatedDeviceBackend.run_batch` collects a whole batch of runs --
one per pre-delay -- and is bit-identical to that many :meth:`run` calls.
On the compiled engine the batch is one device call
(:meth:`~repro.gpu.device.SimulatedGPU.instrumented_runs`, one kernel call
covering every run's timeline and logger windows) and its records are views
into the batch's arrays; reading noise is one draw per batch.  A single
:meth:`run` is a batch of one whose readings come from the sampler's
``sample_columns``.  The reference engine and configurations the kernels
cannot fuse step every run through the device's object API.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import isfinite
from numbers import Integral

import numpy as np

from ..core.records import (
    DelayCalibration,
    ExecutionTiming,
    ExecutionTimings,
    PowerReading,
    PowerReadings,
    RunRecord,
    TimestampAnchor,
)
from . import fastcore
from .activity import KernelActivityDescriptor
from .device import SimulatedGPU
from .power_model import ComponentPower
from .scheduler import KernelLauncher, LaunchConfig, ObservedExecution
from .spec import GPUSpec, mi300x_spec
from .telemetry import (
    AveragingPowerLogger,
    CoarsePowerSampler,
    InstantaneousPowerSampler,
    TelemetrySample,
)

#: Component columns of the compiled engine's readings.
_COMPONENTS = ("xcd", "iod", "hbm")


@dataclass(frozen=True)
class BackendConfig:
    """Tunables of the simulated backend's run structure."""

    #: Which sampler feeds the power readings: the 1 ms averaging logger
    #: ("averaging"), the amd-smi-like coarse sampler ("coarse") or the
    #: idealised instantaneous sampler ("instantaneous").
    sampler: str = "averaging"
    #: Idle time at the start of every run before the timestamp anchor read,
    #: expressed in sampler periods (gives the logger a clean idle baseline).
    pre_padding_periods: float = 1.5
    #: Idle time appended after the last execution, in sampler periods.
    post_padding_periods: float = 1.3
    #: Idle time between runs, long enough for clocks to park, caches to
    #: expire and the die to cool (the paper starts each run from idle).
    park_s: float = 8e-3
    #: Relative (multiplicative) noise on reported power readings.
    reading_noise: float = 0.003
    #: Period of the instantaneous sampler when selected.
    instantaneous_period_s: float = 100e-6
    #: Time-advance engine for a backend-constructed device: ``"compiled"``,
    #: ``"reference"`` or ``"auto"``/``None`` (compiled; overridable via the
    #: ``REPRO_ENGINE`` environment variable -- see docs/engines.md).  An
    #: explicitly passed device keeps its own engine.
    engine: str | None = None

    def validate(self) -> None:
        if self.sampler not in ("averaging", "coarse", "instantaneous"):
            raise ValueError(f"unknown sampler kind {self.sampler!r}")
        if self.pre_padding_periods < 0 or self.post_padding_periods < 0:
            raise ValueError("padding cannot be negative")
        if self.park_s < 0:
            raise ValueError("park time cannot be negative")
        if not 0 <= self.reading_noise < 0.2:
            raise ValueError("reading noise must be a small non-negative fraction")
        if self.instantaneous_period_s <= 0:
            raise ValueError("instantaneous sampler period must be positive")
        if self.engine is not None and self.engine not in ("auto", *fastcore.VALID_ENGINES):
            raise ValueError(
                f"unknown engine {self.engine!r}: valid engines are "
                "'compiled' and 'reference' (or 'auto'/None for auto-selection)"
            )

    def resolved_engine(self) -> str:
        """The concrete engine a backend-constructed device will run."""
        return fastcore.resolve_engine(self.engine)


class SimulatedDeviceBackend:
    """A :class:`~repro.core.backend.ProfilingBackend` over the simulated GPU."""

    #: Distinct kernel handles cached before the descriptor cache is dropped.
    _DESCRIPTOR_CACHE_LIMIT = 128

    def __init__(
        self,
        device: SimulatedGPU | None = None,
        spec: GPUSpec | None = None,
        seed: int = 0,
        config: BackendConfig | None = None,
        launch_config: LaunchConfig | None = None,
    ) -> None:
        self._config = config or BackendConfig()
        self._config.validate()
        self._device = device or SimulatedGPU(
            spec or mi300x_spec(), seed=seed, engine=self._config.resolved_engine()
        )
        self._descriptor_cache: dict[int, tuple[object, KernelActivityDescriptor]] = {}
        self._launcher = KernelLauncher(self._device, launch_config)
        self._noise_rng = np.random.default_rng(seed + 7919)
        idle_power = self._device.power_model.idle_power()
        counter = self._device.timestamp_counter
        telemetry = self._device.spec.telemetry
        if self._config.sampler == "averaging":
            self._sampler = AveragingPowerLogger(
                counter, telemetry.averaging_period_s, idle_power
            )
        elif self._config.sampler == "coarse":
            self._sampler = CoarsePowerSampler(
                counter, idle_power, period_s=telemetry.coarse_period_s
            )
        else:
            self._sampler = InstantaneousPowerSampler(
                counter, self._config.instantaneous_period_s, idle_power
            )

    # ------------------------------------------------------------------ #
    # Protocol properties.
    # ------------------------------------------------------------------ #
    @property
    def device(self) -> SimulatedGPU:
        return self._device

    @property
    def config(self) -> BackendConfig:
        return self._config

    @property
    def power_sample_period_s(self) -> float:
        return self._sampler.period_s

    @property
    def counter_frequency_hz(self) -> float:
        return self._device.timestamp_counter.frequency_hz

    # ------------------------------------------------------------------ #
    # Kernel handles.
    # ------------------------------------------------------------------ #
    def _descriptor_of(self, kernel: object) -> KernelActivityDescriptor:
        if isinstance(kernel, KernelActivityDescriptor):
            return kernel
        # activity_descriptor() is a pure function of the kernel and the
        # device spec, but deriving it redoes the roofline/memory-traffic
        # math; cache it per kernel handle for the run loop.  The cached
        # strong reference keeps the id stable; the cache is bounded so a
        # long-lived backend profiling many kernels cannot grow (or pin
        # handles) without limit.
        cached = self._descriptor_cache.get(id(kernel))  # statics: allow[identity-hash] -- in-process cache; the pinned strong ref keeps the id stable
        if cached is not None and cached[0] is kernel:
            return cached[1]
        descriptor = getattr(kernel, "activity_descriptor", None)
        if callable(descriptor):
            derived = descriptor(self._device.spec)
            if len(self._descriptor_cache) >= self._DESCRIPTOR_CACHE_LIMIT:
                self._descriptor_cache.clear()
            self._descriptor_cache[id(kernel)] = (kernel, derived)  # statics: allow[identity-hash] -- cache key never escapes the process
            return derived
        raise TypeError(
            "kernel handle must be a KernelActivityDescriptor or provide "
            f"an activity_descriptor() method, got {type(kernel)!r}"
        )

    def kernel_name(self, kernel: object) -> str:
        return self._descriptor_of(kernel).name

    # ------------------------------------------------------------------ #
    # Protocol operations.
    # ------------------------------------------------------------------ #
    def time_kernel(self, kernel: object, executions: int) -> list[float]:
        """Host-timed back-to-back executions from an idle device (step 1)."""
        if executions <= 0:
            raise ValueError("need at least one execution")
        descriptor = self._descriptor_of(kernel)
        self._device.park(self._config.park_s)
        observed = self._launcher.launch_sequence(
            descriptor, executions, run_variation=self._device.draw_run_variation(descriptor)
        )
        return [execution.cpu_duration_s for execution in observed]

    def calibrate_read_delay(self, samples: int = 32) -> DelayCalibration:
        """Benchmark the GPU timestamp read round trip (step 2)."""
        if samples <= 0:
            raise ValueError("need at least one calibration sample")
        round_trips = [self._device.read_timestamp().round_trip_s for _ in range(samples)]
        return DelayCalibration(
            mean_round_trip_s=float(np.mean(round_trips)),
            std_round_trip_s=float(np.std(round_trips)),
            samples=samples,
        )

    def run(
        self,
        kernel: object,
        executions: int,
        pre_delay_s: float,
        run_index: int = 0,
        preceding: tuple[tuple[object, int], ...] | list[tuple[object, int]] = (),
    ) -> RunRecord:
        """One instrumented run (steps 2 and 5 of the methodology).

        A batch of one on the device; on the compiled engine its readings
        come from the sampler's ``sample_columns`` over the run's recording
        (:meth:`run_batch` averages the windows inside the batch kernel
        instead -- the records are identical).  Every count, delay and
        kernel handle is validated before the device is touched, so a
        rejected call leaves the device unchanged.
        """
        return self._runs(kernel, executions, (pre_delay_s,), run_index, preceding, False)[0]

    def run_batch(
        self,
        kernel: object,
        executions: int,
        pre_delays: Sequence[float] | np.ndarray,
        start_index: int = 0,
        preceding: tuple[tuple[object, int], ...] | list[tuple[object, int]] = (),
    ) -> tuple[RunRecord, ...]:
        """Runs ``start_index, start_index + 1, ...``, one per pre-delay.

        Bit-identical to one :meth:`run` call per pre-delay in order --
        records, device state and both RNG streams.  On the compiled engine
        the whole batch is one kernel call (every run's timeline and logger
        windows) and the records are views into the batch's arrays.  A
        rejected batch (bad count, negative or non-finite delay, unknown
        kernel handle) leaves the device unchanged.
        """
        return self._runs(kernel, executions, pre_delays, start_index, preceding, True)

    def _runs(self, kernel, executions, pre_delays, start_index, preceding, kernel_windows):
        executions = _positive_count(executions, "executions")
        delays = np.asarray(pre_delays, dtype=float)
        if delays.ndim != 1:
            raise ValueError("pre-delays must be a flat sequence of seconds")
        # Scalar checks: a ufunc reduction costs more than a short batch.
        delay_list = delays.tolist()
        if not all(map(isfinite, delay_list)):
            raise ValueError("the random pre-delay must be finite")
        if delay_list and min(delay_list) < 0:
            raise ValueError("the random pre-delay cannot be negative")
        descriptor = self._descriptor_of(kernel)
        sequences = [
            (self._descriptor_of(handle), _positive_count(count, "preceding executions"))
            for handle, count in preceding
        ]
        sequences.append((descriptor, executions))
        if not delay_list:
            return ()
        device = self._device
        config = self._config
        period = self._sampler.period_s
        launch = self._launcher.config
        if not (
            device.engine == "compiled"
            and launch.event_timestamp_error_s > 0
            and all(d.variation.execution_cv > 0 for d, _ in sequences)
        ):
            return tuple(
                self._run_objects(sequences, pre_delay_s, start_index + offset)
                for offset, pre_delay_s in enumerate(delay_list)
            )

        # Hot path: one kernel call for the batch's timelines (and windows).
        runs = device.instrumented_runs(
            sequences, launch, config.park_s, config.pre_padding_periods * period,
            delays, config.post_padding_periods * period, self._sampler if kernel_windows else None,
        )
        marks = runs.marks.tolist()
        if kernel_windows:
            ticks = device.timestamp_counter.ticks_at_many(runs.times)
            powers, counts, window_s = runs.powers, runs.counts.tolist(), self._sampler.window_s
        else:
            ticks, _, powers, window_s = self._sampler.sample_columns(
                runs.segments, marks[0][0], marks[0][3]
            )
            counts = [ticks.shape[0]]
        totals, components = self._noisy(powers)
        split = runs.cpu_starts.shape[1] - executions
        main = _timing_columns(sequences[-1:])
        before = _timing_columns(sequences[:-1])
        starts, ends = runs.cpu_starts, runs.cpu_ends
        frequency_hz = self.counter_frequency_hz
        anchor_ticks = runs.anchor_ticks.tolist()
        round_trips = runs.round_trips.tolist()
        records = []
        cursor = 0
        for r, pre_delay_s in enumerate(delay_list):
            end = cursor + counts[r]
            logger_start_s, _, after_read_s, logger_stop_s = marks[r]
            records.append(
                RunRecord(
                    run_index=start_index + r,
                    kernel_name=descriptor.name,
                    readings=PowerReadings(
                        ticks[cursor:end], window_s, totals[cursor:end],
                        _COMPONENTS, components[cursor:end],
                    ),
                    executions=ExecutionTimings(
                        main[0], starts[r, split:], ends[r, split:], main[1]
                    ),
                    anchor=TimestampAnchor(anchor_ticks[r], after_read_s, round_trips[r]),
                    logger_period_s=period,
                    counter_frequency_hz=frequency_hz,
                    pre_delay_s=pre_delay_s,
                    preceding_executions=(
                        ExecutionTimings(before[0], starts[r, :split], ends[r, :split], before[1])
                        if split else ()
                    ),
                    metadata={
                        "logger_start_cpu_s": logger_start_s,
                        "logger_stop_cpu_s": logger_stop_s,
                        "sampler": config.sampler,
                        "run_variation_outlier": runs.variations[r][-1].is_outlier,
                    },
                )
            )
            cursor = end
        return tuple(records)

    def _run_objects(self, sequences, pre_delay_s: float, run_index: int) -> RunRecord:
        """One run stepped through the device's object API (any engine)."""
        device = self._device
        config = self._config
        period = self._sampler.period_s
        device.park(config.park_s)
        logger_start_s = device.start_recording()
        device.idle(config.pre_padding_periods * period)
        anchor_read = device.read_timestamp()
        if pre_delay_s > 0:
            device.idle(pre_delay_s)
        preceding_observed: list[ObservedExecution] = []
        for preceding_descriptor, preceding_count in sequences[:-1]:
            variation = device.draw_run_variation(preceding_descriptor)
            preceding_observed.extend(
                self._launcher.launch_sequence(
                    preceding_descriptor, preceding_count, run_variation=variation
                )
            )
        descriptor, executions = sequences[-1]
        run_variation = device.draw_run_variation(descriptor)
        observed = self._launcher.launch_sequence(
            descriptor, executions, run_variation=run_variation
        )
        device.idle(config.post_padding_periods * period)
        segments = device.stop_recording()
        logger_stop_s = device.now_s()
        samples = self._sampler.samples(segments, logger_start_s, logger_stop_s)
        return RunRecord(
            run_index=run_index,
            kernel_name=descriptor.name,
            readings=tuple(self._reading_from(sample) for sample in samples),
            executions=tuple(self._timing_from(obs) for obs in observed),
            anchor=TimestampAnchor(
                gpu_ticks=anchor_read.gpu_ticks,
                cpu_time_after_s=anchor_read.cpu_time_after_s,
                round_trip_s=anchor_read.round_trip_s,
            ),
            logger_period_s=period,
            counter_frequency_hz=self.counter_frequency_hz,
            pre_delay_s=pre_delay_s,
            preceding_executions=tuple(self._timing_from(obs) for obs in preceding_observed),
            metadata={
                "logger_start_cpu_s": logger_start_s,
                "logger_stop_cpu_s": logger_stop_s,
                "sampler": config.sampler,
                "run_variation_outlier": run_variation.is_outlier,
            },
        )

    # ------------------------------------------------------------------ #
    # Conversions.
    # ------------------------------------------------------------------ #
    def _noise(self) -> float:
        if self._config.reading_noise <= 0:
            return 1.0
        return float(self._noise_rng.normal(1.0, self._config.reading_noise))

    def _noisy(self, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Totals and components of columnar samples, with reading noise.

        Values are identical to :meth:`_reading_from` over
        :meth:`~repro.gpu.telemetry.AveragingPowerLogger.samples`: one
        batched ``normal`` draw consumes the noise stream exactly as one
        draw per reading does, and the same float arithmetic is applied
        element-wise.
        """
        n = powers.shape[0]
        noise_std = self._config.reading_noise
        totals = powers[:, 0] + powers[:, 1] + powers[:, 2]
        if noise_std > 0 and n:
            noise = self._noise_rng.normal(1.0, noise_std, size=n)
            return totals * noise, powers * noise[:, None]
        return totals, powers

    def _reading_from(self, sample: TelemetrySample) -> PowerReading:
        noise = self._noise()
        power: ComponentPower = sample.power
        return PowerReading(
            gpu_timestamp_ticks=sample.gpu_timestamp_ticks,
            window_s=sample.window_s,
            total_w=power.total_w * noise,
            components={
                "xcd": power.xcd_w * noise,
                "iod": power.iod_w * noise,
                "hbm": power.hbm_w * noise,
            },
        )

    @staticmethod
    def _timing_from(observed: ObservedExecution) -> ExecutionTiming:
        return ExecutionTiming(
            index=observed.execution_index,
            cpu_start_s=observed.cpu_start_s,
            cpu_end_s=observed.cpu_end_s,
            kernel_name=observed.kernel_name,
        )


def _positive_count(count: object, what: str) -> int:
    """``count`` as an int, rejecting non-integers and counts below one."""
    if isinstance(count, bool) or not isinstance(count, Integral):
        raise TypeError(f"{what} must be a positive int, got {count!r}")
    if count <= 0:
        raise ValueError(f"need at least one execution per run ({what} = {count})")
    return int(count)


def _timing_columns(sequences) -> tuple[np.ndarray, tuple[str, ...]]:
    """Execution indices and kernel names of back-to-back sequences.

    Each sequence is indexed from zero; every run of a batch shares them.
    """
    names: list[str] = []
    indices: list[int] = []
    for descriptor, executions in sequences:
        names.extend([descriptor.name] * executions)
        indices.extend(range(executions))
    return np.array(indices, dtype=np.int64), tuple(names)


__all__ = ["BackendConfig", "SimulatedDeviceBackend"]
