"""Power telemetry of the simulated GPU.

Three samplers are modelled, mirroring the tooling landscape the paper
describes:

* :class:`AveragingPowerLogger` -- the on-GPU 1 ms logger the paper harnesses
  (solution S1).  Every sample is the average of instantaneous power over the
  trailing averaging window and is tagged with a GPU timestamp-counter value.
  The averaging semantics are what create the SSE/SSP power-profile split and
  the sensitivity of short kernels to whatever ran just before them.
* :class:`CoarsePowerSampler` -- an amd-smi-like external sampler with a
  period of tens of milliseconds (challenge C1 baseline).
* :class:`InstantaneousPowerSampler` -- an idealised point sampler used for
  ablations (paper Section V-C3 notes that with an instantaneous sampler the
  interleaving caveat disappears).

All samplers are *post-processing* views over the instantaneous power timeline
recorded by the device -- either a :class:`~repro.gpu.device.PowerSegment`
list (reference engine) or a columnar
:class:`~repro.gpu.device.SegmentArray` (compiled engine) -- which keeps the
simulation simple while preserving the observable behaviour.

Data layout: a recording reaches the samplers as the ``(n, 5)`` rows
``(start, end, xcd, iod, hbm)`` of a :class:`SegmentArray` (a segment list
is packed into one first).  A run's whole sample batch is one call of the
fastcore ``window`` kernel (:func:`repro.gpu._fastcore_kernels.window_core`)
over those rows, the float64 sample times and the idle ``fill`` power,
writing one xcd/iod/hbm row per sample; its ``(max(2n, 1), 3)``
cumulative-energy scratch table lives on the sampler.  Unsorted or
overlapping segments take the scalar ``_average_power_over`` /
``_instantaneous_power_at`` helpers instead.  A collection batch of runs
is sampled inside the device's batch kernel: it reads the sampler's
``grid`` (phase, period, window) and ``fill`` and reproduces
:meth:`AveragingPowerLogger.sample_columns` /
:meth:`InstantaneousPowerSampler.sample_columns` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fastcore
from .clocks import GPUTimestampCounter
from .device import PowerSegment, SegmentArray
from .power_model import ComponentPower


@dataclass(frozen=True)
class TelemetrySample:
    """One sample emitted by a power sampler.

    ``gpu_timestamp_ticks`` is what a real logger exposes; ``window_end_s`` is
    the ground-truth simulated time of the sample and is retained only for
    validation in tests -- the FinGraV methodology never reads it.
    """

    gpu_timestamp_ticks: int
    window_end_s: float
    window_s: float
    power: ComponentPower

    @property
    def total_w(self) -> float:
        return self.power.total_w


def _average_power_over(
    segments: Sequence[PowerSegment],
    window_start_s: float,
    window_end_s: float,
    fill_power: ComponentPower,
) -> ComponentPower:
    """Time-weighted average power over a window, filling gaps with ``fill_power``."""
    window = window_end_s - window_start_s
    if window <= 0:
        raise ValueError("averaging window must have positive length")
    xcd = iod = hbm = 0.0
    covered = 0.0
    for segment in segments:
        overlap_start = max(segment.start_s, window_start_s)
        overlap_end = min(segment.end_s, window_end_s)
        overlap = overlap_end - overlap_start
        if overlap <= 0:
            continue
        xcd += segment.power.xcd_w * overlap
        iod += segment.power.iod_w * overlap
        hbm += segment.power.hbm_w * overlap
        covered += overlap
    uncovered = max(window - covered, 0.0)
    if uncovered > 0:
        xcd += fill_power.xcd_w * uncovered
        iod += fill_power.iod_w * uncovered
        hbm += fill_power.hbm_w * uncovered
    return ComponentPower(xcd_w=xcd / window, iod_w=iod / window, hbm_w=hbm / window)


def _instantaneous_power_at(
    segments: Sequence[PowerSegment], time_s: float, fill_power: ComponentPower
) -> ComponentPower:
    """Instantaneous power at ``time_s`` (the segment covering it, else idle)."""
    for segment in segments:
        if segment.start_s <= time_s < segment.end_s:
            return segment.power
    return fill_power


class _WindowSampler:
    """Sample evaluation shared by the samplers: one ``window`` kernel call.

    Every sample batch of a recording -- trailing-window averages or point
    samples -- is one call of the active fastcore provider's ``window``
    kernel over the recording's ``(n, 5)`` segment rows; its cumulative
    energy scratch table lives here, grown (and the call retried) when a
    recording outgrows it.  Unsorted or overlapping segments fall back to
    the scalar helpers, which also handle overlap.
    """

    def __init__(self, counter: GPUTimestampCounter, period_s: float,
                 idle_power: ComponentPower, phase_offset_s: float,
                 window_s: float) -> None:
        self._counter = counter
        self._period_s = period_s
        self._idle_power = idle_power
        self._phase_offset_s = phase_offset_s % period_s
        #: Averaging window of every sample (0.0: point samples).
        self.window_s = window_s
        #: The sample grid as the fastcore batch kernel reads it: samples at
        #: ``phase + i * period``; a positive window also drops a sample
        #: within 1e-12 of the logger start (:meth:`sample_columns`).
        self.grid = np.array([self._phase_offset_s, period_s, window_s])
        #: Idle xcd/iod/hbm power, the window kernel's gap fill.
        self.fill = np.array([idle_power.xcd_w, idle_power.iod_w, idle_power.hbm_w])
        self._cum = np.empty((1024, 3))
        #: Kernel provider; resolved on first use (tests may pin one).
        self._fc = None

    @property
    def period_s(self) -> float:
        return self._period_s

    def _window_powers(
        self, segments: Sequence[PowerSegment], times: np.ndarray, window_s: float
    ) -> np.ndarray:
        """Per-sample xcd/iod/hbm rows: averages over ``window_s``, or points at 0."""
        if self._fc is None:
            self._fc = fastcore.kernels()
        if not isinstance(segments, SegmentArray):
            segments = SegmentArray.from_segments(segments)
        rows = segments.rows
        powers = np.empty((times.shape[0], 3))
        rc = self._fc.window(rows, self.fill, times, window_s, self._cum, powers)
        if rc == 1:
            self._cum = np.empty((max(2 * self._cum.shape[0], 2 * rows.shape[0], 1), 3))
            rc = self._fc.window(rows, self.fill, times, window_s, self._cum, powers)
        if rc == 0:
            return powers
        if window_s > 0:
            scalar = [
                _average_power_over(segments, t - window_s, t, self._idle_power)
                for t in times
            ]
        else:
            scalar = [_instantaneous_power_at(segments, t, self._idle_power) for t in times]
        return np.asarray([[p.xcd_w, p.iod_w, p.hbm_w] for p in scalar], dtype=float)

    def _columns(self, segments, times: np.ndarray, window_s: float):
        if times.shape[0] == 0:
            return times.astype(np.int64), times, np.empty((0, 3)), window_s
        powers = self._window_powers(segments, times, window_s)
        return self._counter.ticks_at_many(times), times, powers, window_s

    def samples(
        self,
        segments: Sequence[PowerSegment],
        start_s: float,
        stop_s: float,
    ) -> list[TelemetrySample]:
        """Compute the samples the sampler would have reported for a recording."""
        ticks, times, powers, window_s = self.sample_columns(segments, start_s, stop_s)
        return [
            TelemetrySample(
                gpu_timestamp_ticks=int(ticks[i]),
                window_end_s=float(times[i]),
                window_s=window_s,
                power=ComponentPower(
                    xcd_w=float(powers[i, 0]),
                    iod_w=float(powers[i, 1]),
                    hbm_w=float(powers[i, 2]),
                ),
            )
            for i in range(times.shape[0])
        ]


class AveragingPowerLogger(_WindowSampler):
    """The on-GPU trailing-window averaging power logger (paper S1).

    The logger free-runs: sample boundaries sit on a fixed absolute grid of
    the simulated timeline (``phase_offset_s`` sets the grid phase), so the
    position of a kernel execution relative to sample boundaries depends on
    when the host happened to launch it -- which is precisely why FinGraV adds
    random delays before kernel executions to cover different times of
    interest (methodology step 5).
    """

    def __init__(
        self,
        counter: GPUTimestampCounter,
        period_s: float,
        idle_power: ComponentPower,
        phase_offset_s: float = 0.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("logger period must be positive")
        super().__init__(counter, period_s, idle_power, phase_offset_s, period_s)

    def sample_times_between(self, start_s: float, end_s: float) -> list[float]:
        """Absolute times of the sample boundaries within ``(start_s, end_s]``.

        A boundary coinciding exactly with the logger start is excluded: its
        averaging window would lie entirely before the logger was running.
        """
        return [float(t) for t in self._sample_times_array(start_s, end_s)]

    def _sample_times_array(self, start_s: float, end_s: float) -> np.ndarray:
        if end_s < start_s:
            raise ValueError("end time must not precede start time")
        first_index = math.ceil((start_s - self._phase_offset_s) / self._period_s)
        # One extra candidate on each side absorbs floor/ceil float rounding;
        # the filters reproduce the boundary conditions of the scalar loop.
        last_index = math.floor((end_s + 1e-12 - self._phase_offset_s) / self._period_s) + 1
        indices = np.arange(first_index, max(last_index, first_index) + 1)
        times = self._phase_offset_s + indices * self._period_s
        return times[(times > start_s + 1e-12) & (times <= end_s + 1e-12)]

    def sample_columns(
        self,
        segments: Sequence[PowerSegment],
        logger_start_s: float,
        logger_stop_s: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Columnar samples: ``(gpu_ticks, window_end_s, powers, window_s)``.

        ``powers`` has one xcd/iod/hbm row per sample: the average over the
        trailing window, all windows in one ``window`` kernel call.  This is
        the raw form the compiled-engine backend consumes directly;
        :meth:`samples` wraps the same columns into
        :class:`TelemetrySample` objects.
        """
        times = self._sample_times_array(logger_start_s, logger_stop_s)
        return self._columns(segments, times, self.window_s)


class CoarsePowerSampler(AveragingPowerLogger):
    """An external, amd-smi-like sampler with a period of tens of milliseconds.

    Functionally identical to the averaging logger but with a much longer
    period; used as the challenge-C1 baseline showing that coarse sampling can
    miss sub-millisecond kernels entirely.
    """

    DEFAULT_PERIOD_S = 20e-3

    def __init__(
        self,
        counter: GPUTimestampCounter,
        idle_power: ComponentPower,
        period_s: float = DEFAULT_PERIOD_S,
        phase_offset_s: float = 0.0,
    ) -> None:
        super().__init__(counter, period_s, idle_power, phase_offset_s)


class InstantaneousPowerSampler(_WindowSampler):
    """An idealised point sampler (no averaging), used for ablations."""

    def __init__(
        self,
        counter: GPUTimestampCounter,
        period_s: float,
        idle_power: ComponentPower,
        phase_offset_s: float = 0.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("sampler period must be positive")
        super().__init__(counter, period_s, idle_power, phase_offset_s, 0.0)

    def sample_columns(
        self,
        segments: Sequence[PowerSegment],
        start_s: float,
        stop_s: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Columnar samples ``(gpu_ticks, sample_time_s, powers, window_s=0.0)``."""
        first_index = math.ceil((start_s - self._phase_offset_s) / self._period_s)
        last_index = math.floor((stop_s + 1e-12 - self._phase_offset_s) / self._period_s) + 1
        indices = np.arange(first_index, max(last_index, first_index) + 1)
        times = self._phase_offset_s + indices * self._period_s
        return self._columns(segments, times[times <= stop_s + 1e-12], self.window_s)


__all__ = [
    "TelemetrySample",
    "AveragingPowerLogger",
    "CoarsePowerSampler",
    "InstantaneousPowerSampler",
]
