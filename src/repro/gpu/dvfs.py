"""Power-management firmware: DVFS control loop with power-cap throttling.

The paper observes (Section V-C1, Figure 6) that the first executions of a
compute-heavy GEMM "considerably stress power, invoking the power management
firmware to throttle frequency in order to manage power excursions", after
which power drops to the steady-state-execution (SSE) level and then slowly
rises again to the steady-state-power (SSP) level.  This module reproduces
that behaviour with a small control loop:

* the clock ramps from the idle frequency toward boost when work arrives;
* if total board power stays above the limit for a sustained interval
  (an *excursion*), the firmware throttles hard to the sustained frequency;
* after a hold-off it recovers the clock in small steps until power reaches a
  target just below the limit, then holds.

The asymmetric throttle-hard / recover-slowly policy is what creates the
visible SSE-to-SSP power spread for kernels that are power-limited, while
kernels that never exceed the limit simply sit at boost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .spec import DVFSSpec, PowerBudget


class FirmwareState(str, enum.Enum):
    """Discrete states of the power-management control loop."""

    IDLE = "idle"
    RAMPING = "ramping"
    BOOST = "boost"
    THROTTLED = "throttled"
    RECOVERING = "recovering"
    CAPPED = "capped"


@dataclass
class FirmwareEvent:
    """A state transition of the firmware, recorded for analysis and tests.

    All fields are finite: transitions that happen between control steps
    (kernel-arrival boosts) record the last-known mean power rather than NaN,
    so aggregations over the event history are always well-defined.
    """

    time_s: float
    state: FirmwareState
    frequency_ghz: float
    power_w: float


@dataclass
class FirmwareConfig:
    """Tunables of the power-management loop."""

    #: Fraction of the board limit that must be exceeded to count as overdraw.
    excursion_threshold: float = 1.0
    #: Continuous overdraw duration that triggers a hard throttle (seconds).
    excursion_window_s: float = 800e-6
    #: Time the firmware holds the sustained clock after a hard throttle.
    throttle_hold_s: float = 1.6e-3
    #: Clock increase per control period while recovering (GHz).
    recovery_step_ghz: float = 0.010
    #: Clock increase per control period while ramping out of idle (GHz).
    ramp_step_ghz: float = 0.5
    #: Power target after a throttle event, as a fraction of the board limit.
    #: The firmware recovers conservatively (with a small hysteresis margin)
    #: rather than riding the limit, so the post-throttle steady state sits
    #: just below the board limit.
    cap_target: float = 0.985
    #: Hysteresis below ``cap_target`` (as a fraction of the board limit) that
    #: power must clear before a capped controller releases the cap and starts
    #: recovering the clock.  Keeps the cap from chattering when power hovers
    #: around the target.
    cap_release_hysteresis: float = 0.03
    #: Time with no resident kernel after which the clock parks at idle.
    idle_park_s: float = 2.0e-3

    def __post_init__(self) -> None:
        if self.cap_release_hysteresis < 0:
            raise ValueError("cap-release hysteresis cannot be negative")


class PowerManagementFirmware:
    """Stateful DVFS controller stepped by the device every control period."""

    def __init__(
        self,
        dvfs: DVFSSpec,
        budget: PowerBudget,
        config: FirmwareConfig | None = None,
    ) -> None:
        self._dvfs = dvfs
        self._budget = budget
        self._config = config or FirmwareConfig()
        self._state = FirmwareState.IDLE
        self._frequency_ghz = dvfs.idle_frequency_ghz
        self._overdraw_accum_s = 0.0
        self._throttle_until_s = 0.0
        self._idle_accum_s = 0.0
        self._last_power_w = 0.0
        self._events: list[FirmwareEvent] = []

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> FirmwareState:
        return self._state

    @property
    def frequency_ghz(self) -> float:
        return self._frequency_ghz

    @property
    def config(self) -> FirmwareConfig:
        return self._config

    @property
    def events(self) -> list[FirmwareEvent]:
        """State-transition history (oldest first)."""
        return list(self._events)

    def reset(self) -> None:
        """Return the controller to the parked/idle state."""
        self._state = FirmwareState.IDLE
        self._frequency_ghz = self._dvfs.idle_frequency_ghz
        self._overdraw_accum_s = 0.0
        self._throttle_until_s = 0.0
        self._idle_accum_s = 0.0
        self._last_power_w = 0.0
        self._events.clear()

    # ------------------------------------------------------------------ #
    # Control loop.
    # ------------------------------------------------------------------ #
    def notify_kernel_arrival(self, now_s: float) -> float:
        """Raise clocks immediately when work arrives on an idle device.

        Real firmware ramps clocks within tens of microseconds of a kernel
        launch -- much faster than the power-management control period -- so
        the device calls this hook at kernel start instead of waiting for the
        next control step.  Returns the (possibly boosted) clock.

        The boost happens between control steps, so no power measurement is
        available for the transition event; the last-known mean power (0.0
        before the first control step) is recorded instead so that every
        :class:`FirmwareEvent` field stays finite and aggregations over
        :meth:`events` are never NaN-poisoned.
        """
        self._idle_accum_s = 0.0
        if self._state in (FirmwareState.IDLE, FirmwareState.RAMPING):
            self._transition(
                now_s, FirmwareState.BOOST, self._dvfs.boost_frequency_ghz, self._last_power_w
            )
        return self._frequency_ghz

    def step(self, now_s: float, dt_s: float, total_power_w: float, kernel_resident: bool) -> float:
        """Advance the controller by ``dt_s`` and return the new core clock.

        Parameters
        ----------
        now_s:
            Current simulated time.
        dt_s:
            Duration of the elapsed control interval.
        total_power_w:
            Average total board power over the elapsed interval.
        kernel_resident:
            Whether a kernel was executing during the interval.

        Note: the compiled kernels transcribe this method (``fw_step`` in
        :mod:`repro.gpu._fastcore_kernels` and its C mirror); if its
        behaviour changes here, keep them in lockstep -- the device
        equivalence suite pins the compiled engine against the per-slice
        reference that calls this method.

        A zero-length interval is a no-op: no time elapsed, so there is no
        power measurement to ingest.  (Acting on it used to overwrite
        ``_last_power_w`` with whatever the caller passed and could drive
        recover/hold-cap transitions on no elapsed time.)
        """
        if dt_s < 0:
            raise ValueError("control interval cannot be negative")
        if dt_s == 0:
            return self._frequency_ghz
        self._last_power_w = float(total_power_w)
        cfg = self._config
        dvfs = self._dvfs
        limit = self._budget.board_limit_w

        if not kernel_resident:
            self._idle_accum_s += dt_s
            self._overdraw_accum_s = 0.0
            if self._idle_accum_s >= cfg.idle_park_s and self._state is not FirmwareState.IDLE:
                self._transition(now_s, FirmwareState.IDLE, dvfs.idle_frequency_ghz, total_power_w)
            return self._frequency_ghz

        self._idle_accum_s = 0.0

        # Track sustained overdraw regardless of state.
        if total_power_w > limit * cfg.excursion_threshold:
            self._overdraw_accum_s += dt_s
        else:
            self._overdraw_accum_s = 0.0

        if self._state in (FirmwareState.IDLE, FirmwareState.RAMPING):
            self._ramp(now_s, total_power_w)
        elif self._state is FirmwareState.BOOST:
            if self._overdraw_accum_s >= cfg.excursion_window_s:
                self._throttle(now_s, total_power_w)
        elif self._state is FirmwareState.THROTTLED:
            if now_s >= self._throttle_until_s:
                self._transition(now_s, FirmwareState.RECOVERING, self._frequency_ghz, total_power_w)
        elif self._state is FirmwareState.RECOVERING:
            self._recover(now_s, total_power_w)
        elif self._state is FirmwareState.CAPPED:
            self._hold_cap(now_s, total_power_w)
        return self._frequency_ghz

    # ------------------------------------------------------------------ #
    # State handlers.
    # ------------------------------------------------------------------ #
    def _ramp(self, now_s: float, power_w: float) -> None:
        dvfs = self._dvfs
        target = dvfs.boost_frequency_ghz
        new_frequency = min(self._frequency_ghz + self._config.ramp_step_ghz, target)
        state = FirmwareState.BOOST if new_frequency >= target else FirmwareState.RAMPING
        self._transition(now_s, state, new_frequency, power_w)

    def _throttle(self, now_s: float, power_w: float) -> None:
        dvfs = self._dvfs
        self._throttle_until_s = now_s + self._config.throttle_hold_s
        self._overdraw_accum_s = 0.0
        self._transition(now_s, FirmwareState.THROTTLED, dvfs.sustained_frequency_ghz, power_w)

    def _recover(self, now_s: float, power_w: float) -> None:
        cfg = self._config
        dvfs = self._dvfs
        limit = self._budget.board_limit_w
        if power_w >= limit * cfg.cap_target:
            self._transition(now_s, FirmwareState.CAPPED, self._frequency_ghz, power_w)
            return
        new_frequency = min(self._frequency_ghz + cfg.recovery_step_ghz, dvfs.boost_frequency_ghz)
        if new_frequency >= dvfs.boost_frequency_ghz:
            self._transition(now_s, FirmwareState.BOOST, new_frequency, power_w)
        else:
            self._transition(now_s, FirmwareState.RECOVERING, new_frequency, power_w)

    def _hold_cap(self, now_s: float, power_w: float) -> None:
        cfg = self._config
        dvfs = self._dvfs
        limit = self._budget.board_limit_w
        if power_w > limit:
            new_frequency = max(self._frequency_ghz - cfg.recovery_step_ghz, dvfs.sustained_frequency_ghz)
            self._transition(now_s, FirmwareState.CAPPED, new_frequency, power_w)
        elif power_w < limit * (cfg.cap_target - cfg.cap_release_hysteresis):
            # The workload got lighter; allow the clock to creep back up.
            self._transition(now_s, FirmwareState.RECOVERING, self._frequency_ghz, power_w)

    def _transition(
        self, now_s: float, state: FirmwareState, frequency_ghz: float, power_w: float
    ) -> None:
        changed = state is not self._state or frequency_ghz != self._frequency_ghz
        self._state = state
        self._frequency_ghz = float(
            min(max(frequency_ghz, self._dvfs.idle_frequency_ghz), self._dvfs.boost_frequency_ghz)
        )
        if changed:
            self._events.append(
                FirmwareEvent(
                    time_s=now_s,
                    state=state,
                    frequency_ghz=self._frequency_ghz,
                    power_w=power_w,
                )
            )

    # ------------------------------------------------------------------ #
    # Analysis helpers.
    # ------------------------------------------------------------------ #
    def throttle_count(self) -> int:
        """Number of hard-throttle events recorded so far."""
        return sum(1 for event in self._events if event.state is FirmwareState.THROTTLED)

    def was_power_limited(self) -> bool:
        """True when the controller hard-throttled or is holding the cap."""
        return self.throttle_count() > 0 or self._state is FirmwareState.CAPPED


__all__ = [
    "FirmwareState",
    "FirmwareEvent",
    "FirmwareConfig",
    "PowerManagementFirmware",
]
