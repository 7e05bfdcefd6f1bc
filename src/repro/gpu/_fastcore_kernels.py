"""Kernel bodies of the compiled slice/boundary core, in njit-able Python.

This module is the *single transcription* of the device's measured hot loops
-- the idle per-period loop, the execution slice loop, the firmware control
boundary of :meth:`SimulatedGPU._maybe_step_firmware` /
:meth:`PowerManagementFirmware.step`, and the closed-form thermal relaxation
of :meth:`ThermalModel.relax_span` -- into a form Numba can ``@njit`` and a C
compiler can mirror line for line (``_fastcore_cc``).  Every expression
mirrors the corresponding statement of the per-slice reference engine (same
operand order, same comparisons, same clamps); the only intended divergence
is the once-per-span idle warmth relaxation, which agrees with the
reference's per-slice stepping to ~1 ulp.  The equivalence suite pins that
contract.  When editing the device physics, keep this file and the C source
in ``_fastcore_cc`` in lockstep.

When Numba is importable every function below is compiled with
``@njit(cache=True)`` at import time; otherwise the plain Python definitions
remain.  Either way :mod:`repro.gpu.fastcore` can run the plain bodies as
the ``python`` provider, the last link of the provider chain.

Data layout (shared with the C core)
------------------------------------
``st`` -- float64[12] mutable simulation state:
  [0] clock now_s            [1] thermal warmth
  [2] control energy_j       [3] control time_s       [4] control active_time_s
  [5] next_control_s         [6] firmware state code  [7] firmware frequency_ghz
  [8] overdraw_accum_s       [9] throttle_until_s     [10] idle_accum_s
  [11] last_power_w

``pp`` -- float64[31] immutable device parameters (see ``P_*`` below).

``desc`` -- float64[5 + 5 * n_phases] descriptor profile:
  [0] base_duration_s  [1] frequency_sensitivity  [2] cold_duration_multiplier
  [3] cold_executions  [4] n_phases, then per phase
  (cumulative_fraction, xcd_act, iod_util, hbm_warm, hbm_cold) -- the exact
  rows of ``SimulatedGPU._fc_descriptor``.

``seg`` -- float64[cap, 5] output power slices (start, end, xcd, iod, hbm).
``ev``  -- float64[cap, 4] output firmware events (time, state code, freq, power).
``lens`` -- int64[2] output row counts (segments, events).
``out8`` -- float64[8] one execution's ground truth row
  (start, end, cold, mean_freq, energy, xcd_w, iod_w, hbm_w) -- the exact
  ``_ExecutionLog`` row layout.

Kernels return 0 on success, 1 on segment-buffer overflow and 2 on
event-buffer overflow; on overflow the caller restores its state snapshot,
grows the buffer and retries (no RNG is consumed inside the kernels, so a
retry is deterministic).
"""

from __future__ import annotations

from math import exp

try:  # pragma: no cover - exercised only when Numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the in-repo CI container path
    HAVE_NUMBA = False

    def _njit(*args, **kwargs):
        def decorate(func):
            return func

        return decorate


# --------------------------------------------------------------------- #
# State indices.
# --------------------------------------------------------------------- #
S_NOW = 0
S_WARMTH = 1
S_CEN = 2
S_CTM = 3
S_CAC = 4
S_NEXT = 5
S_FWST = 6
S_FREQ = 7
S_OVER = 8
S_THROT = 9
S_IDLEAC = 10
S_LASTP = 11
STATE_LEN = 12

# Parameter indices.
P_PERIOD = 0
P_IDLE_X = 1
P_IDLE_I = 2
P_IDLE_H = 3
P_IDLE_TOT = 4
P_NOM = 5
P_PEXP = 6
P_XIDLE = 7
P_XDYN = 8
P_IIDLE = 9
P_IDYN = 10
P_HIDLE = 11
P_HDYN = 12
P_SWING = 13
P_COUPLE = 14
P_HEAT_TAU = 15
P_COOL_TAU = 16
P_LIMIT = 17
P_EXC_THRESH = 18
P_EXC_WIN = 19
P_T_HOLD = 20
P_REC_STEP = 21
P_RAMP_STEP = 22
P_CAP_TGT = 23
P_CAP_HYST = 24
P_IDLE_PARK = 25
P_F_IDLE = 26
P_F_BOOST = 27
P_F_SUST = 28
P_RETENTION = 29
P_MINFACT = 30
PARAM_LEN = 31

# Firmware state codes -- indices into SimulatedGPU._FC_STATES.
FW_IDLE = 0
FW_RAMPING = 1
FW_BOOST = 2
FW_THROTTLED = 3
FW_RECOVERING = 4
FW_CAPPED = 5


# --------------------------------------------------------------------- #
# Firmware (PowerManagementFirmware, transcribed).
# --------------------------------------------------------------------- #
@_njit(cache=True)
def fw_transition(st, pp, ev, lens, now, state, freq, power):
    """``PowerManagementFirmware._transition``: clamp, record on change."""
    changed = state != int(st[S_FWST]) or freq != st[S_FREQ]
    st[S_FWST] = float(state)
    # min(max(freq, idle), boost), written as two clamps.
    clamped = freq
    if clamped < pp[P_F_IDLE]:
        clamped = pp[P_F_IDLE]
    if clamped > pp[P_F_BOOST]:
        clamped = pp[P_F_BOOST]
    st[S_FREQ] = clamped
    if changed:
        k = lens[1]
        if k >= ev.shape[0]:
            return 2
        ev[k, 0] = now
        ev[k, 1] = float(state)
        ev[k, 2] = clamped
        ev[k, 3] = power
        lens[1] = k + 1
    return 0


@_njit(cache=True)
def fw_step(st, pp, ev, lens, now, dt, power, resident):
    """``PowerManagementFirmware.step``: one control update."""
    if dt == 0.0:
        return 0
    st[S_LASTP] = power
    if resident == 0:
        st[S_IDLEAC] += dt
        st[S_OVER] = 0.0
        if st[S_IDLEAC] >= pp[P_IDLE_PARK] and int(st[S_FWST]) != FW_IDLE:
            return fw_transition(st, pp, ev, lens, now, FW_IDLE, pp[P_F_IDLE], power)
        return 0
    st[S_IDLEAC] = 0.0
    limit = pp[P_LIMIT]
    if power > limit * pp[P_EXC_THRESH]:
        st[S_OVER] += dt
    else:
        st[S_OVER] = 0.0
    s = int(st[S_FWST])
    if s == FW_IDLE or s == FW_RAMPING:
        # _ramp: min(freq + ramp_step, boost).
        target = pp[P_F_BOOST]
        new_frequency = st[S_FREQ] + pp[P_RAMP_STEP]
        if new_frequency > target:
            new_frequency = target
        next_state = FW_BOOST if new_frequency >= target else FW_RAMPING
        return fw_transition(st, pp, ev, lens, now, next_state, new_frequency, power)
    if s == FW_BOOST:
        if st[S_OVER] >= pp[P_EXC_WIN]:
            # _throttle.
            st[S_THROT] = now + pp[P_T_HOLD]
            st[S_OVER] = 0.0
            return fw_transition(st, pp, ev, lens, now, FW_THROTTLED, pp[P_F_SUST], power)
        return 0
    if s == FW_THROTTLED:
        if now >= st[S_THROT]:
            return fw_transition(st, pp, ev, lens, now, FW_RECOVERING, st[S_FREQ], power)
        return 0
    if s == FW_RECOVERING:
        # _recover: cap check, then min(freq + recovery_step, boost).
        if power >= limit * pp[P_CAP_TGT]:
            return fw_transition(st, pp, ev, lens, now, FW_CAPPED, st[S_FREQ], power)
        boost = pp[P_F_BOOST]
        new_frequency = st[S_FREQ] + pp[P_REC_STEP]
        if new_frequency > boost:
            new_frequency = boost
        if new_frequency >= boost:
            return fw_transition(st, pp, ev, lens, now, FW_BOOST, new_frequency, power)
        return fw_transition(st, pp, ev, lens, now, FW_RECOVERING, new_frequency, power)
    if s == FW_CAPPED:
        # _hold_cap: max(freq - recovery_step, sustained) on overdraw.
        if power > limit:
            new_frequency = st[S_FREQ] - pp[P_REC_STEP]
            if new_frequency < pp[P_F_SUST]:
                new_frequency = pp[P_F_SUST]
            return fw_transition(st, pp, ev, lens, now, FW_CAPPED, new_frequency, power)
        if power < limit * (pp[P_CAP_TGT] - pp[P_CAP_HYST]):
            return fw_transition(st, pp, ev, lens, now, FW_RECOVERING, st[S_FREQ], power)
        return 0
    return 0


@_njit(cache=True)
def fw_arrival(st, pp, ev, lens, now):
    """The execution arrival hook (notify_kernel_arrival, inlined)."""
    st[S_IDLEAC] = 0.0
    s = int(st[S_FWST])
    if s == FW_IDLE or s == FW_RAMPING:
        return fw_transition(st, pp, ev, lens, now, FW_BOOST, pp[P_F_BOOST], st[S_LASTP])
    return 0


@_njit(cache=True)
def control_boundary(st, pp, ev, lens):
    """``SimulatedGPU._maybe_step_firmware`` past its early-out guard."""
    now = st[S_NOW]
    c_time = st[S_CTM]
    if c_time > 0:
        mean_power = st[S_CEN] / c_time
    else:
        mean_power = pp[P_IDLE_TOT]
    resident = 1 if (c_time > 0 and st[S_CAC] >= 0.5 * c_time) else 0
    rc = fw_step(st, pp, ev, lens, now, c_time, mean_power, resident)
    if rc != 0:
        return rc
    st[S_CEN] = 0.0
    st[S_CTM] = 0.0
    st[S_CAC] = 0.0
    period = pp[P_PERIOD]
    next_control = st[S_NEXT]
    while next_control <= now + 1e-12:
        next_control += period
    st[S_NEXT] = next_control
    return 0


# --------------------------------------------------------------------- #
# Idle span (SimulatedGPU._idle_reference's per-slice loop, transcribed).
# --------------------------------------------------------------------- #
@_njit(cache=True)
def idle_core(st, pp, duration, record, seg, ev, lens):
    """One idle span: per-period loop + one closed-form cool relaxation.

    Identical slice boundaries, accumulator arithmetic and firmware updates
    as ``SimulatedGPU._idle_reference``; warmth is relaxed once for the whole
    span instead of once per slice.
    """
    if duration <= 1e-12:
        return 0
    now = st[S_NOW]
    end = now + duration
    idle_x = pp[P_IDLE_X]
    idle_i = pp[P_IDLE_I]
    idle_h = pp[P_IDLE_H]
    total_w = pp[P_IDLE_TOT]
    cool_tau = pp[P_COOL_TAU]
    if end + 1e-12 < st[S_NEXT]:
        # Whole span before the next control step: one slice, no firmware.
        if record != 0:
            k = lens[0]
            if k >= seg.shape[0]:
                return 1
            seg[k, 0] = now
            seg[k, 1] = end
            seg[k, 2] = idle_x
            seg[k, 3] = idle_i
            seg[k, 4] = idle_h
            lens[0] = k + 1
        st[S_CEN] += total_w * duration
        st[S_CTM] += duration
        st[S_NOW] = end
        alpha = 1.0 - exp(-duration / cool_tau)
        warmth = st[S_WARMTH]
        warmth += (0.0 - warmth) * alpha
        st[S_WARMTH] = min(max(warmth, 0.0), 1.0)
        return 0
    remaining = duration
    while remaining > 1e-12:
        dt = st[S_NEXT] - now
        if dt < 1e-9:
            dt = 1e-9
        if remaining < dt:
            dt = remaining
        end = now + dt
        if record != 0 and end > now:
            k = lens[0]
            if k >= seg.shape[0]:
                return 1
            seg[k, 0] = now
            seg[k, 1] = end
            seg[k, 2] = idle_x
            seg[k, 3] = idle_i
            seg[k, 4] = idle_h
            lens[0] = k + 1
        st[S_CEN] += total_w * dt
        st[S_CTM] += dt
        st[S_NOW] = end
        remaining -= dt
        now = end
        if now + 1e-12 >= st[S_NEXT]:
            rc = control_boundary(st, pp, ev, lens)
            if rc != 0:
                return rc
    # ThermalModel.relax_span(duration, active=False): one closed-form
    # relaxation for the whole span (zero-duration spans returned above).
    alpha = 1.0 - exp(-duration / cool_tau)
    warmth = st[S_WARMTH]
    warmth += (0.0 - warmth) * alpha
    st[S_WARMTH] = min(max(warmth, 0.0), 1.0)
    return 0


# --------------------------------------------------------------------- #
# Kernel execution (SimulatedGPU._execute_reference's slice loop, transcribed).
# --------------------------------------------------------------------- #
@_njit(cache=True)
def execute_core(st, pp, desc, time_factor, cold, record, seg, ev, lens, out8):
    """One kernel execution from arrival hook to the ground-truth row.

    The caller owns the RNG draws (jitter / run factor arrive folded into
    ``time_factor``) and the cache-state bookkeeping (``cold`` arrives
    resolved); everything between -- firmware arrival, the slice loop, power,
    thermal and control accumulation -- replays
    ``SimulatedGPU._execute_reference`` with hoisted per-phase utilisations.
    """
    now = st[S_NOW]
    start_s = now
    rc = fw_arrival(st, pp, ev, lens, start_s)
    if rc != 0:
        return rc
    nominal = pp[P_NOM]
    power_exponent = pp[P_PEXP]
    xcd_idle_w = pp[P_XIDLE]
    xcd_dynamic_w = pp[P_XDYN]
    iod_idle_w = pp[P_IIDLE]
    iod_dynamic_w = pp[P_IDYN]
    hbm_idle_w = pp[P_HIDLE]
    hbm_dynamic_w = pp[P_HDYN]
    warmth_swing = pp[P_SWING]
    iod_coupling = pp[P_COUPLE]
    heat_tau = pp[P_HEAT_TAU]
    base_duration = desc[0]
    sensitivity = desc[1]
    n_phases = int(desc[4])

    frequency = st[S_FREQ]
    duration_full = base_duration * (nominal / frequency) ** sensitivity
    if cold != 0:
        duration_full *= desc[2]
    duration_full *= time_factor
    end = now + duration_full
    if end + 1e-12 < st[S_NEXT]:
        # Single-slice shortcut: frac_mid is exactly 0.5 (the mid row).
        row = 5 + 5 * (n_phases - 1)
        for p in range(n_phases):
            if 0.5 < desc[5 + 5 * p]:
                row = 5 + 5 * p
                break
        dt = duration_full
        freq_scale = (frequency / nominal) ** power_exponent
        warmth = st[S_WARMTH]
        clamped = min(max(warmth, 0.0), 1.0)
        warm_scale = 1.0 - warmth_swing * (1.0 - clamped)
        iod_freq_scale = 1.0 + iod_coupling * (freq_scale - 1.0)
        x_w = xcd_idle_w + xcd_dynamic_w * desc[row + 1] * freq_scale * warm_scale
        i_w = iod_idle_w + iod_dynamic_w * desc[row + 2] * iod_freq_scale * warm_scale
        h_w = hbm_idle_w + hbm_dynamic_w * (desc[row + 4] if cold != 0 else desc[row + 3])
        if record != 0 and end > now:
            k = lens[0]
            if k >= seg.shape[0]:
                return 1
            seg[k, 0] = now
            seg[k, 1] = end
            seg[k, 2] = x_w
            seg[k, 3] = i_w
            seg[k, 4] = h_w
            lens[0] = k + 1
        total_w = x_w + i_w + h_w
        total_j = total_w * dt
        st[S_CEN] += total_j
        st[S_CTM] += dt
        st[S_CAC] += dt
        alpha = 1.0 - exp(-dt / heat_tau)
        warmth += (1.0 - warmth) * alpha
        st[S_WARMTH] = min(max(warmth, 0.0), 1.0)
        st[S_NOW] = end
        energy_j = total_j
        xcd_j = x_w * dt
        iod_j = i_w * dt
        hbm_j = h_w * dt
        freq_time_weighted = frequency * dt
        now = end
    else:
        work_remaining = 1.0
        energy_j = 0.0
        xcd_j = 0.0
        iod_j = 0.0
        hbm_j = 0.0
        freq_time_weighted = 0.0
        while work_remaining > 1e-9:
            frequency = st[S_FREQ]
            duration_full = base_duration * (nominal / frequency) ** sensitivity
            if cold != 0:
                duration_full *= desc[2]
            duration_full *= time_factor
            dt = st[S_NEXT] - now
            if dt < 1e-9:
                dt = 1e-9
            work_dt = work_remaining * duration_full
            if work_dt < dt:
                dt = work_dt
            frac_mid = (1.0 - work_remaining) + 0.5 * dt / duration_full
            # phase_at over the profile rows: falls through to the last.
            row = 5 + 5 * (n_phases - 1)
            for p in range(n_phases):
                if frac_mid < desc[5 + 5 * p]:
                    row = 5 + 5 * p
                    break
            freq_scale = (frequency / nominal) ** power_exponent
            warmth = st[S_WARMTH]
            clamped = min(max(warmth, 0.0), 1.0)
            warm_scale = 1.0 - warmth_swing * (1.0 - clamped)
            iod_freq_scale = 1.0 + iod_coupling * (freq_scale - 1.0)
            x_w = xcd_idle_w + xcd_dynamic_w * desc[row + 1] * freq_scale * warm_scale
            i_w = iod_idle_w + iod_dynamic_w * desc[row + 2] * iod_freq_scale * warm_scale
            h_w = hbm_idle_w + hbm_dynamic_w * (desc[row + 4] if cold != 0 else desc[row + 3])
            end = now + dt
            if record != 0 and end > now:
                k = lens[0]
                if k >= seg.shape[0]:
                    return 1
                seg[k, 0] = now
                seg[k, 1] = end
                seg[k, 2] = x_w
                seg[k, 3] = i_w
                seg[k, 4] = h_w
                lens[0] = k + 1
            total_w = x_w + i_w + h_w
            total_j = total_w * dt
            st[S_CEN] += total_j
            st[S_CTM] += dt
            st[S_CAC] += dt
            alpha = 1.0 - exp(-dt / heat_tau)
            warmth += (1.0 - warmth) * alpha
            st[S_WARMTH] = min(max(warmth, 0.0), 1.0)
            st[S_NOW] = end
            energy_j += total_j
            xcd_j += x_w * dt
            iod_j += i_w * dt
            hbm_j += h_w * dt
            freq_time_weighted += frequency * dt
            work_remaining -= dt / duration_full
            now = end
            if now + 1e-12 >= st[S_NEXT]:
                rc = control_boundary(st, pp, ev, lens)
                if rc != 0:
                    return rc
    end_s = now
    duration = end_s - start_s
    out8[0] = start_s
    out8[1] = end_s
    out8[2] = 1.0 if cold != 0 else 0.0
    out8[3] = freq_time_weighted / duration
    out8[4] = energy_j
    out8[5] = xcd_j / duration
    out8[6] = iod_j / duration
    out8[7] = hbm_j / duration
    return 0


# --------------------------------------------------------------------- #
# Fused launch sequence (KernelLauncher.sequence_into's loop, transcribed).
# --------------------------------------------------------------------- #
@_njit(cache=True)
def sequence_core(
    st,
    pp,
    desc,
    cache,
    executions,
    variates,
    has_rv,
    run_factor,
    execution_cv,
    latency_mean,
    latency_jitter,
    error_std,
    gap_s,
    record,
    seg,
    ev,
    lens,
    exec_rows,
    cpu_starts,
    cpu_ends,
):
    """A whole back-to-back sequence in one call.

    Consumes the pre-drawn variates exactly as ``sequence_into`` does (four
    standard normals per execution: launch latency, execution jitter, start
    error, end error); ``cache`` is the kernel's (consecutive_executions,
    last_end_s) pair, mirrored back to the device's ``_CacheState`` by the
    caller.
    """
    min_factor = pp[P_MINFACT]
    retention = pp[P_RETENTION]
    cold_executions = desc[3]
    cursor = 0
    for i in range(executions):
        if i > 0 and gap_s > 0.0:
            rc = idle_core(st, pp, gap_s, record, seg, ev, lens)
            if rc != 0:
                return rc
        launch_latency = latency_mean + latency_jitter * variates[cursor]
        if launch_latency < 0.2e-6:
            launch_latency = 0.2e-6
        jitter = exp(0.0 + execution_cv * variates[cursor + 1])
        if jitter < min_factor:
            jitter = min_factor
        rc = idle_core(st, pp, launch_latency, record, seg, ev, lens)
        if rc != 0:
            return rc
        # _consume_cache_state, on the mirrored (consecutive, last_end) pair.
        if st[S_NOW] - cache[1] > retention:
            cache[0] = 0.0
        cold = 1 if cache[0] < cold_executions else 0
        if has_rv == 0:
            time_factor = jitter
        else:
            time_factor = run_factor * jitter
        rc = execute_core(
            st, pp, desc, time_factor, cold, record, seg, ev, lens, exec_rows[i]
        )
        if rc != 0:
            return rc
        cache[0] += 1.0
        cache[1] = exec_rows[i, 1]
        cpu_start = exec_rows[i, 0] + error_std * variates[cursor + 2]
        cpu_end = exec_rows[i, 1] + error_std * variates[cursor + 3]
        if cpu_end < cpu_start:
            cpu_end = cpu_start
        cpu_starts[i] = cpu_start
        cpu_ends[i] = cpu_end
        cursor += 4
    return 0


# --------------------------------------------------------------------- #
# Public entry points (reset the output counters, then run the cores).
# --------------------------------------------------------------------- #
def k_idle(st, pp, duration, record, seg, ev, lens):
    lens[0] = 0
    lens[1] = 0
    return idle_core(st, pp, duration, record, seg, ev, lens)


def k_execute(st, pp, desc, time_factor, cold, record, seg, ev, lens, out8):
    lens[0] = 0
    lens[1] = 0
    return execute_core(st, pp, desc, time_factor, cold, record, seg, ev, lens, out8)


def k_sequence(
    st,
    pp,
    desc,
    cache,
    executions,
    variates,
    has_rv,
    run_factor,
    execution_cv,
    latency_mean,
    latency_jitter,
    error_std,
    gap_s,
    record,
    seg,
    ev,
    lens,
    exec_rows,
    cpu_starts,
    cpu_ends,
):
    lens[0] = 0
    lens[1] = 0
    return sequence_core(
        st,
        pp,
        desc,
        cache,
        executions,
        variates,
        has_rv,
        run_factor,
        execution_cv,
        latency_mean,
        latency_jitter,
        error_std,
        gap_s,
        record,
        seg,
        ev,
        lens,
        exec_rows,
        cpu_starts,
        cpu_ends,
    )


__all__ = [
    "HAVE_NUMBA",
    "k_idle",
    "k_execute",
    "k_sequence",
    "STATE_LEN",
    "PARAM_LEN",
]
