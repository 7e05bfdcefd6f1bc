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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.records import (
    DelayCalibration,
    ExecutionArena,
    ExecutionTiming,
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
        self._arena = ExecutionArena()
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
        """One instrumented run (steps 2 and 5 of the methodology)."""
        if executions <= 0:
            raise ValueError("need at least one execution per run")
        if pre_delay_s < 0:
            raise ValueError("the random pre-delay cannot be negative")
        descriptor = self._descriptor_of(kernel)
        device = self._device
        period = self._sampler.period_s

        device.park(self._config.park_s)
        logger_start_s = device.start_recording()
        device.idle(self._config.pre_padding_periods * period)

        anchor_read = device.read_timestamp()
        anchor = TimestampAnchor(
            gpu_ticks=anchor_read.gpu_ticks,
            cpu_time_after_s=anchor_read.cpu_time_after_s,
            round_trip_s=anchor_read.round_trip_s,
        )

        if pre_delay_s > 0:
            device.idle(pre_delay_s)

        if device.engine == "compiled":
            # Hot path: launch sequences stage their timings in the backend's
            # execution arena (no per-execution objects) and readings come
            # straight from columnar samples -- identical values to the
            # branch below; the record adopts both as lazy views.
            arena = self._arena
            arena.begin()
            for preceding_kernel, preceding_count in preceding:
                preceding_descriptor = self._descriptor_of(preceding_kernel)
                variation = device.draw_run_variation(preceding_descriptor)
                self._launcher.sequence_into(
                    arena, preceding_descriptor, preceding_count, run_variation=variation
                )
            preceding_timing = arena.take()

            run_variation = device.draw_run_variation(descriptor)
            self._launcher.sequence_into(
                arena, descriptor, executions, run_variation=run_variation
            )
            executions_timing = arena.take()

            device.idle(self._config.post_padding_periods * period)
            segments = device.stop_recording()
            logger_stop_s = device.now_s()
            readings = self._readings_fast(
                *self._sampler.sample_columns(segments, logger_start_s, logger_stop_s)
            )
        else:
            preceding_observed: list[ObservedExecution] = []
            for preceding_kernel, preceding_count in preceding:
                preceding_descriptor = self._descriptor_of(preceding_kernel)
                variation = device.draw_run_variation(preceding_descriptor)
                preceding_observed.extend(
                    self._launcher.launch_sequence(
                        preceding_descriptor, preceding_count, run_variation=variation
                    )
                )

            run_variation = device.draw_run_variation(descriptor)
            observed = self._launcher.launch_sequence(
                descriptor, executions, run_variation=run_variation
            )

            device.idle(self._config.post_padding_periods * period)
            segments = device.stop_recording()
            logger_stop_s = device.now_s()
            samples = self._sampler.samples(segments, logger_start_s, logger_stop_s)
            readings = tuple(self._reading_from(sample) for sample in samples)
            executions_timing = tuple(self._timing_from(obs) for obs in observed)
            preceding_timing = tuple(self._timing_from(obs) for obs in preceding_observed)
        return RunRecord(
            run_index=run_index,
            kernel_name=descriptor.name,
            readings=readings,
            executions=executions_timing,
            anchor=anchor,
            logger_period_s=period,
            counter_frequency_hz=self.counter_frequency_hz,
            pre_delay_s=pre_delay_s,
            preceding_executions=preceding_timing,
            metadata={
                "logger_start_cpu_s": logger_start_s,
                "logger_stop_cpu_s": logger_stop_s,
                "sampler": self._config.sampler,
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

    def _readings_fast(self, ticks, times, powers, window_s) -> PowerReadings:
        """Build the readings of a run straight from columnar samples.

        Values are identical to :meth:`_reading_from` over
        :meth:`~repro.gpu.telemetry.AveragingPowerLogger.samples` -- the noise
        draws consume the same RNG stream (a batched ``normal`` draw is
        bit-identical to per-reading draws) and the same float arithmetic is
        applied element-wise -- but the whole run's readings are four array
        operations wrapped in a lazy :class:`PowerReadings` view: no
        ``TelemetrySample`` and no per-reading ``PowerReading`` objects.
        """
        del times  # window-end CPU times are reconstructed by the profiler
        n = ticks.shape[0]
        powers = np.asarray(powers, dtype=float)
        noise_std = self._config.reading_noise
        totals = powers[:, 0] + powers[:, 1] + powers[:, 2]
        if noise_std > 0 and n:
            noise = self._noise_rng.normal(1.0, noise_std, size=n)
            components = powers * noise[:, None]
            totals = totals * noise
        else:
            components = powers
        return PowerReadings(
            gpu_timestamp_ticks=ticks,
            window_s=window_s,
            total_w=totals,
            component_names=("xcd", "iod", "hbm"),
            components_w=components,
        )

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



__all__ = ["BackendConfig", "SimulatedDeviceBackend"]
