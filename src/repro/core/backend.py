"""Profiling backend protocol.

FinGraV is a methodology, not a tool bound to one GPU: the paper applies it
through an AMD-internal 1 ms power logger but discusses applying the same
steps through amd-smi or other loggers (Section VI).  The core package is
therefore written against this small protocol; the simulated MI300X implements
it in :mod:`repro.gpu.backend`, and nothing in :mod:`repro.core` imports the
simulator.

The kernel handle is intentionally opaque to the core (``object``): the
backend decides what a kernel is (an activity descriptor for the simulator, a
callable launching a rocBLAS call on real hardware).
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from .records import DelayCalibration, RunRecord

#: A (kernel, executions) pair describing work to run *before* the kernel of
#: interest within the same run -- used for the interleaved-kernel studies.
PrecedingWork = tuple[object, int]


@runtime_checkable
class ProfilingBackend(Protocol):
    """What the FinGraV methodology needs from a platform."""

    @property
    def power_sample_period_s(self) -> float:
        """Averaging window / reporting period of the power logger (seconds)."""

    @property
    def counter_frequency_hz(self) -> float:
        """Frequency of the GPU timestamp counter (Hz)."""

    def kernel_name(self, kernel: object) -> str:
        """Stable display name for a kernel handle."""

    def time_kernel(self, kernel: object, executions: int) -> list[float]:
        """Execute ``kernel`` ``executions`` times and return host-timed durations.

        Used by methodology step 1 (identify the kernel execution time) and by
        the warm-up-count search; power is not collected.
        """

    def calibrate_read_delay(self, samples: int = 32) -> DelayCalibration:
        """Benchmark the GPU-timestamp read delay (methodology step 2)."""

    def run(
        self,
        kernel: object,
        executions: int,
        pre_delay_s: float,
        run_index: int = 0,
        preceding: Sequence[PrecedingWork] = (),
    ) -> RunRecord:
        """Execute one instrumented run and return everything it produced.

        The backend is responsible for: resetting the device to an idle state,
        starting the power logger, reading the CPU/GPU timestamp anchor,
        waiting ``pre_delay_s``, running any ``preceding`` work, executing the
        kernel ``executions`` times back-to-back, and stopping the logger.
        """

    def run_batch(
        self,
        kernel: object,
        executions: int,
        pre_delays: Sequence[float],
        start_index: int = 0,
        preceding: Sequence[PrecedingWork] = (),
    ) -> tuple[RunRecord, ...]:
        """Runs ``start_index, start_index + 1, ...``, one per pre-delay.

        Must return exactly what one :meth:`run` call per pre-delay, in
        order, would; a backend may execute the batch in one go.  The
        profiler collects every run count it plans (steps 5 and 8) through
        this call.
        """


__all__ = ["ProfilingBackend", "PrecedingWork"]
