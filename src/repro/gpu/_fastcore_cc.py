"""C provider of the compiled slice/boundary core.

Mirrors ``_fastcore_kernels`` line for line in C, compiles it once with the
system C compiler (``$CC``, ``gcc`` or ``cc``) into a shared library cached
by source hash, and binds it through :mod:`ctypes`.  This is the fallback
compiled tier for environments without Numba (the repo's own CI container,
for one): same data layout, same return-code protocol, and -- because the
build pins ``-fno-fast-math -ffp-contract=off`` -- the same IEEE-754 doubles
as the Python engines (libm ``pow``/``exp`` are exactly what CPython floats
use; contraction off keeps the compiler from fusing the multiply-adds the
Python engine evaluates separately).  The fastcore self-check verifies the
bit-for-bit contract against the Python kernel bodies before the provider is
ever selected.

The compiled library is cached under ``$REPRO_FASTCORE_CACHE`` (default: a
``repro-fastcore`` directory in the system temp dir) keyed by the source
digest, so concurrent processes -- e.g. a sweep worker pool -- compile at
most once and land on the same file via an atomic rename.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_C_SOURCE = r"""
#include <math.h>

/* State indices -- see _fastcore_kernels for the layout contract. */
#define S_NOW 0
#define S_WARMTH 1
#define S_CEN 2
#define S_CTM 3
#define S_CAC 4
#define S_NEXT 5
#define S_FWST 6
#define S_FREQ 7
#define S_OVER 8
#define S_THROT 9
#define S_IDLEAC 10
#define S_LASTP 11

#define P_PERIOD 0
#define P_IDLE_X 1
#define P_IDLE_I 2
#define P_IDLE_H 3
#define P_IDLE_TOT 4
#define P_NOM 5
#define P_PEXP 6
#define P_XIDLE 7
#define P_XDYN 8
#define P_IIDLE 9
#define P_IDYN 10
#define P_HIDLE 11
#define P_HDYN 12
#define P_SWING 13
#define P_COUPLE 14
#define P_HEAT_TAU 15
#define P_COOL_TAU 16
#define P_LIMIT 17
#define P_EXC_THRESH 18
#define P_EXC_WIN 19
#define P_T_HOLD 20
#define P_REC_STEP 21
#define P_RAMP_STEP 22
#define P_CAP_TGT 23
#define P_CAP_HYST 24
#define P_IDLE_PARK 25
#define P_F_IDLE 26
#define P_F_BOOST 27
#define P_F_SUST 28
#define P_RETENTION 29
#define P_MINFACT 30

#define FW_IDLE 0
#define FW_RAMPING 1
#define FW_BOOST 2
#define FW_THROTTLED 3
#define FW_RECOVERING 4
#define FW_CAPPED 5

static int fw_transition(double *st, const double *pp, double *ev, long ev_cap,
                         long *lens, double now, int state, double freq,
                         double power) {
    int changed = (state != (int)st[S_FWST]) || (freq != st[S_FREQ]);
    double clamped = freq;
    st[S_FWST] = (double)state;
    if (clamped < pp[P_F_IDLE]) clamped = pp[P_F_IDLE];
    if (clamped > pp[P_F_BOOST]) clamped = pp[P_F_BOOST];
    st[S_FREQ] = clamped;
    if (changed) {
        long k = lens[1];
        if (k >= ev_cap) return 2;
        ev[k * 4 + 0] = now;
        ev[k * 4 + 1] = (double)state;
        ev[k * 4 + 2] = clamped;
        ev[k * 4 + 3] = power;
        lens[1] = k + 1;
    }
    return 0;
}

static int fw_step(double *st, const double *pp, double *ev, long ev_cap,
                   long *lens, double now, double dt, double power,
                   int resident) {
    double limit, new_frequency, target, boost;
    int s;
    if (dt == 0.0) return 0;
    st[S_LASTP] = power;
    if (resident == 0) {
        st[S_IDLEAC] += dt;
        st[S_OVER] = 0.0;
        if (st[S_IDLEAC] >= pp[P_IDLE_PARK] && (int)st[S_FWST] != FW_IDLE)
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_IDLE,
                                 pp[P_F_IDLE], power);
        return 0;
    }
    st[S_IDLEAC] = 0.0;
    limit = pp[P_LIMIT];
    if (power > limit * pp[P_EXC_THRESH])
        st[S_OVER] += dt;
    else
        st[S_OVER] = 0.0;
    s = (int)st[S_FWST];
    if (s == FW_IDLE || s == FW_RAMPING) {
        target = pp[P_F_BOOST];
        new_frequency = st[S_FREQ] + pp[P_RAMP_STEP];
        if (new_frequency > target) new_frequency = target;
        return fw_transition(st, pp, ev, ev_cap, lens, now,
                             new_frequency >= target ? FW_BOOST : FW_RAMPING,
                             new_frequency, power);
    }
    if (s == FW_BOOST) {
        if (st[S_OVER] >= pp[P_EXC_WIN]) {
            st[S_THROT] = now + pp[P_T_HOLD];
            st[S_OVER] = 0.0;
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_THROTTLED,
                                 pp[P_F_SUST], power);
        }
        return 0;
    }
    if (s == FW_THROTTLED) {
        if (now >= st[S_THROT])
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_RECOVERING,
                                 st[S_FREQ], power);
        return 0;
    }
    if (s == FW_RECOVERING) {
        if (power >= limit * pp[P_CAP_TGT])
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_CAPPED,
                                 st[S_FREQ], power);
        boost = pp[P_F_BOOST];
        new_frequency = st[S_FREQ] + pp[P_REC_STEP];
        if (new_frequency > boost) new_frequency = boost;
        if (new_frequency >= boost)
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_BOOST,
                                 new_frequency, power);
        return fw_transition(st, pp, ev, ev_cap, lens, now, FW_RECOVERING,
                             new_frequency, power);
    }
    if (s == FW_CAPPED) {
        if (power > limit) {
            new_frequency = st[S_FREQ] - pp[P_REC_STEP];
            if (new_frequency < pp[P_F_SUST]) new_frequency = pp[P_F_SUST];
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_CAPPED,
                                 new_frequency, power);
        }
        if (power < limit * (pp[P_CAP_TGT] - pp[P_CAP_HYST]))
            return fw_transition(st, pp, ev, ev_cap, lens, now, FW_RECOVERING,
                                 st[S_FREQ], power);
        return 0;
    }
    return 0;
}

static int fw_arrival(double *st, const double *pp, double *ev, long ev_cap,
                      long *lens, double now) {
    int s;
    st[S_IDLEAC] = 0.0;
    s = (int)st[S_FWST];
    if (s == FW_IDLE || s == FW_RAMPING)
        return fw_transition(st, pp, ev, ev_cap, lens, now, FW_BOOST,
                             pp[P_F_BOOST], st[S_LASTP]);
    return 0;
}

static int control_boundary(double *st, const double *pp, double *ev,
                            long ev_cap, long *lens) {
    double now = st[S_NOW];
    double c_time = st[S_CTM];
    double mean_power, period, next_control;
    int resident, rc;
    mean_power = c_time > 0 ? st[S_CEN] / c_time : pp[P_IDLE_TOT];
    resident = (c_time > 0 && st[S_CAC] >= 0.5 * c_time) ? 1 : 0;
    rc = fw_step(st, pp, ev, ev_cap, lens, now, c_time, mean_power, resident);
    if (rc != 0) return rc;
    st[S_CEN] = 0.0;
    st[S_CTM] = 0.0;
    st[S_CAC] = 0.0;
    period = pp[P_PERIOD];
    next_control = st[S_NEXT];
    while (next_control <= now + 1e-12) next_control += period;
    st[S_NEXT] = next_control;
    return 0;
}

static int idle_core(double *st, const double *pp, double duration, int record,
                     double *seg, long seg_cap, double *ev, long ev_cap,
                     long *lens) {
    double now, end, idle_x, idle_i, idle_h, total_w, cool_tau;
    double remaining, dt, alpha, warmth;
    long k;
    int rc;
    if (duration <= 1e-12) return 0;
    now = st[S_NOW];
    end = now + duration;
    idle_x = pp[P_IDLE_X];
    idle_i = pp[P_IDLE_I];
    idle_h = pp[P_IDLE_H];
    total_w = pp[P_IDLE_TOT];
    cool_tau = pp[P_COOL_TAU];
    if (end + 1e-12 < st[S_NEXT]) {
        if (record != 0) {
            k = lens[0];
            if (k >= seg_cap) return 1;
            seg[k * 5 + 0] = now;
            seg[k * 5 + 1] = end;
            seg[k * 5 + 2] = idle_x;
            seg[k * 5 + 3] = idle_i;
            seg[k * 5 + 4] = idle_h;
            lens[0] = k + 1;
        }
        st[S_CEN] += total_w * duration;
        st[S_CTM] += duration;
        st[S_NOW] = end;
        alpha = 1.0 - exp(-duration / cool_tau);
        warmth = st[S_WARMTH];
        warmth += (0.0 - warmth) * alpha;
        if (warmth < 0.0) warmth = 0.0;
        if (warmth > 1.0) warmth = 1.0;
        st[S_WARMTH] = warmth;
        return 0;
    }
    remaining = duration;
    while (remaining > 1e-12) {
        dt = st[S_NEXT] - now;
        if (dt < 1e-9) dt = 1e-9;
        if (remaining < dt) dt = remaining;
        end = now + dt;
        if (record != 0 && end > now) {
            k = lens[0];
            if (k >= seg_cap) return 1;
            seg[k * 5 + 0] = now;
            seg[k * 5 + 1] = end;
            seg[k * 5 + 2] = idle_x;
            seg[k * 5 + 3] = idle_i;
            seg[k * 5 + 4] = idle_h;
            lens[0] = k + 1;
        }
        st[S_CEN] += total_w * dt;
        st[S_CTM] += dt;
        st[S_NOW] = end;
        remaining -= dt;
        now = end;
        if (now + 1e-12 >= st[S_NEXT]) {
            rc = control_boundary(st, pp, ev, ev_cap, lens);
            if (rc != 0) return rc;
        }
    }
    alpha = 1.0 - exp(-duration / cool_tau);
    warmth = st[S_WARMTH];
    warmth += (0.0 - warmth) * alpha;
    if (warmth < 0.0) warmth = 0.0;
    if (warmth > 1.0) warmth = 1.0;
    st[S_WARMTH] = warmth;
    return 0;
}

static int execute_core(double *st, const double *pp, const double *desc,
                        double time_factor, int cold, int record, double *seg,
                        long seg_cap, double *ev, long ev_cap, long *lens,
                        double *out8) {
    double now, start_s, end, dt, work_dt, frac_mid;
    double nominal, power_exponent, xcd_idle_w, xcd_dynamic_w, iod_idle_w;
    double iod_dynamic_w, hbm_idle_w, hbm_dynamic_w, warmth_swing, iod_coupling;
    double heat_tau, base_duration, sensitivity, frequency, duration_full;
    double freq_scale, warmth, clamped, warm_scale, iod_freq_scale;
    double x_w, i_w, h_w, total_w, total_j, alpha;
    double energy_j, xcd_j, iod_j, hbm_j, freq_time_weighted;
    double work_remaining, end_s, duration;
    long row, k;
    int n_phases, p, rc;
    now = st[S_NOW];
    start_s = now;
    rc = fw_arrival(st, pp, ev, ev_cap, lens, start_s);
    if (rc != 0) return rc;
    nominal = pp[P_NOM];
    power_exponent = pp[P_PEXP];
    xcd_idle_w = pp[P_XIDLE];
    xcd_dynamic_w = pp[P_XDYN];
    iod_idle_w = pp[P_IIDLE];
    iod_dynamic_w = pp[P_IDYN];
    hbm_idle_w = pp[P_HIDLE];
    hbm_dynamic_w = pp[P_HDYN];
    warmth_swing = pp[P_SWING];
    iod_coupling = pp[P_COUPLE];
    heat_tau = pp[P_HEAT_TAU];
    base_duration = desc[0];
    sensitivity = desc[1];
    n_phases = (int)desc[4];

    frequency = st[S_FREQ];
    duration_full = base_duration * pow(nominal / frequency, sensitivity);
    if (cold != 0) duration_full *= desc[2];
    duration_full *= time_factor;
    end = now + duration_full;
    if (end + 1e-12 < st[S_NEXT]) {
        row = 5 + 5 * (long)(n_phases - 1);
        for (p = 0; p < n_phases; p++) {
            if (0.5 < desc[5 + 5 * p]) {
                row = 5 + 5 * (long)p;
                break;
            }
        }
        dt = duration_full;
        freq_scale = pow(frequency / nominal, power_exponent);
        warmth = st[S_WARMTH];
        clamped = warmth;
        if (clamped < 0.0) clamped = 0.0;
        if (clamped > 1.0) clamped = 1.0;
        warm_scale = 1.0 - warmth_swing * (1.0 - clamped);
        iod_freq_scale = 1.0 + iod_coupling * (freq_scale - 1.0);
        x_w = xcd_idle_w + xcd_dynamic_w * desc[row + 1] * freq_scale * warm_scale;
        i_w = iod_idle_w + iod_dynamic_w * desc[row + 2] * iod_freq_scale * warm_scale;
        h_w = hbm_idle_w + hbm_dynamic_w * (cold != 0 ? desc[row + 4] : desc[row + 3]);
        if (record != 0 && end > now) {
            k = lens[0];
            if (k >= seg_cap) return 1;
            seg[k * 5 + 0] = now;
            seg[k * 5 + 1] = end;
            seg[k * 5 + 2] = x_w;
            seg[k * 5 + 3] = i_w;
            seg[k * 5 + 4] = h_w;
            lens[0] = k + 1;
        }
        total_w = x_w + i_w + h_w;
        total_j = total_w * dt;
        st[S_CEN] += total_j;
        st[S_CTM] += dt;
        st[S_CAC] += dt;
        alpha = 1.0 - exp(-dt / heat_tau);
        warmth += (1.0 - warmth) * alpha;
        if (warmth < 0.0) warmth = 0.0;
        if (warmth > 1.0) warmth = 1.0;
        st[S_WARMTH] = warmth;
        st[S_NOW] = end;
        energy_j = total_j;
        xcd_j = x_w * dt;
        iod_j = i_w * dt;
        hbm_j = h_w * dt;
        freq_time_weighted = frequency * dt;
        now = end;
    } else {
        work_remaining = 1.0;
        energy_j = 0.0;
        xcd_j = 0.0;
        iod_j = 0.0;
        hbm_j = 0.0;
        freq_time_weighted = 0.0;
        while (work_remaining > 1e-9) {
            frequency = st[S_FREQ];
            duration_full = base_duration * pow(nominal / frequency, sensitivity);
            if (cold != 0) duration_full *= desc[2];
            duration_full *= time_factor;
            dt = st[S_NEXT] - now;
            if (dt < 1e-9) dt = 1e-9;
            work_dt = work_remaining * duration_full;
            if (work_dt < dt) dt = work_dt;
            frac_mid = (1.0 - work_remaining) + 0.5 * dt / duration_full;
            row = 5 + 5 * (long)(n_phases - 1);
            for (p = 0; p < n_phases; p++) {
                if (frac_mid < desc[5 + 5 * p]) {
                    row = 5 + 5 * (long)p;
                    break;
                }
            }
            freq_scale = pow(frequency / nominal, power_exponent);
            warmth = st[S_WARMTH];
            clamped = warmth;
            if (clamped < 0.0) clamped = 0.0;
            if (clamped > 1.0) clamped = 1.0;
            warm_scale = 1.0 - warmth_swing * (1.0 - clamped);
            iod_freq_scale = 1.0 + iod_coupling * (freq_scale - 1.0);
            x_w = xcd_idle_w + xcd_dynamic_w * desc[row + 1] * freq_scale * warm_scale;
            i_w = iod_idle_w + iod_dynamic_w * desc[row + 2] * iod_freq_scale * warm_scale;
            h_w = hbm_idle_w + hbm_dynamic_w * (cold != 0 ? desc[row + 4] : desc[row + 3]);
            end = now + dt;
            if (record != 0 && end > now) {
                k = lens[0];
                if (k >= seg_cap) return 1;
                seg[k * 5 + 0] = now;
                seg[k * 5 + 1] = end;
                seg[k * 5 + 2] = x_w;
                seg[k * 5 + 3] = i_w;
                seg[k * 5 + 4] = h_w;
                lens[0] = k + 1;
            }
            total_w = x_w + i_w + h_w;
            total_j = total_w * dt;
            st[S_CEN] += total_j;
            st[S_CTM] += dt;
            st[S_CAC] += dt;
            alpha = 1.0 - exp(-dt / heat_tau);
            warmth += (1.0 - warmth) * alpha;
            if (warmth < 0.0) warmth = 0.0;
            if (warmth > 1.0) warmth = 1.0;
            st[S_WARMTH] = warmth;
            st[S_NOW] = end;
            energy_j += total_j;
            xcd_j += x_w * dt;
            iod_j += i_w * dt;
            hbm_j += h_w * dt;
            freq_time_weighted += frequency * dt;
            work_remaining -= dt / duration_full;
            now = end;
            if (now + 1e-12 >= st[S_NEXT]) {
                rc = control_boundary(st, pp, ev, ev_cap, lens);
                if (rc != 0) return rc;
            }
        }
    }
    end_s = now;
    duration = end_s - start_s;
    out8[0] = start_s;
    out8[1] = end_s;
    out8[2] = cold != 0 ? 1.0 : 0.0;
    out8[3] = freq_time_weighted / duration;
    out8[4] = energy_j;
    out8[5] = xcd_j / duration;
    out8[6] = iod_j / duration;
    out8[7] = hbm_j / duration;
    return 0;
}

int fc_idle(double *st, const double *pp, double duration, int record,
            double *seg, long seg_cap, double *ev, long ev_cap, long *lens) {
    lens[0] = 0;
    lens[1] = 0;
    return idle_core(st, pp, duration, record, seg, seg_cap, ev, ev_cap, lens);
}

int fc_execute(double *st, const double *pp, const double *desc,
               double time_factor, int cold, int record, double *seg,
               long seg_cap, double *ev, long ev_cap, long *lens,
               double *out8) {
    lens[0] = 0;
    lens[1] = 0;
    return execute_core(st, pp, desc, time_factor, cold, record, seg, seg_cap,
                        ev, ev_cap, lens, out8);
}

static int sequence_core(double *st, const double *pp, const double *desc,
                         double *cache, long executions, const double *variates,
                         int has_rv, double run_factor, double execution_cv,
                         double latency_mean, double latency_jitter,
                         double error_std, double gap_s, int record, double *seg,
                         long seg_cap, double *ev, long ev_cap, long *lens,
                         double *exec_rows, double *cpu_starts, double *cpu_ends) {
    double min_factor = pp[P_MINFACT];
    double retention = pp[P_RETENTION];
    double cold_executions = desc[3];
    double launch_latency, jitter, time_factor, cpu_start, cpu_end;
    double *row8;
    long i, cursor = 0;
    int cold, rc;
    for (i = 0; i < executions; i++) {
        if (i > 0 && gap_s > 0.0) {
            rc = idle_core(st, pp, gap_s, record, seg, seg_cap, ev, ev_cap, lens);
            if (rc != 0) return rc;
        }
        launch_latency = latency_mean + latency_jitter * variates[cursor];
        if (launch_latency < 0.2e-6) launch_latency = 0.2e-6;
        jitter = exp(0.0 + execution_cv * variates[cursor + 1]);
        if (jitter < min_factor) jitter = min_factor;
        rc = idle_core(st, pp, launch_latency, record, seg, seg_cap, ev, ev_cap, lens);
        if (rc != 0) return rc;
        if (st[S_NOW] - cache[1] > retention) cache[0] = 0.0;
        cold = cache[0] < cold_executions ? 1 : 0;
        time_factor = has_rv == 0 ? jitter : run_factor * jitter;
        row8 = exec_rows + i * 8;
        rc = execute_core(st, pp, desc, time_factor, cold, record, seg, seg_cap,
                          ev, ev_cap, lens, row8);
        if (rc != 0) return rc;
        cache[0] += 1.0;
        cache[1] = row8[1];
        cpu_start = row8[0] + error_std * variates[cursor + 2];
        cpu_end = row8[1] + error_std * variates[cursor + 3];
        if (cpu_end < cpu_start) cpu_end = cpu_start;
        cpu_starts[i] = cpu_start;
        cpu_ends[i] = cpu_end;
        cursor += 4;
    }
    return 0;
}

static int run_core(double *st, const double *pp, const double *descs,
                    const long *seqs, long n_seqs, const double *seqf,
                    double *caches, const double *variates, const double *spans,
                    double latency_mean, double latency_jitter, double error_std,
                    double gap_s, double *seg, long seg_cap, double *ev,
                    long ev_cap, long *lens, double *exec_rows,
                    double *cpu_starts, double *cpu_ends, double *marks) {
    long k, executions, offset = 0;
    int rc;
    rc = idle_core(st, pp, spans[0], 0, seg, seg_cap, ev, ev_cap, lens);
    if (rc != 0) return rc;
    marks[0] = st[S_NOW];
    rc = idle_core(st, pp, spans[1], 1, seg, seg_cap, ev, ev_cap, lens);
    if (rc != 0) return rc;
    marks[1] = st[S_NOW];
    rc = idle_core(st, pp, spans[2], 1, seg, seg_cap, ev, ev_cap, lens);
    if (rc != 0) return rc;
    marks[2] = st[S_NOW];
    if (spans[3] > 0.0) {
        rc = idle_core(st, pp, spans[3], 1, seg, seg_cap, ev, ev_cap, lens);
        if (rc != 0) return rc;
    }
    for (k = 0; k < n_seqs; k++) {
        executions = seqs[k * 3 + 2];
        rc = sequence_core(st, pp, descs + seqs[k * 3 + 0],
                           caches + 2 * seqs[k * 3 + 1], executions,
                           variates + 4 * offset, 1, seqf[k * 2 + 0],
                           seqf[k * 2 + 1], latency_mean, latency_jitter,
                           error_std, gap_s, 1, seg, seg_cap, ev, ev_cap, lens,
                           exec_rows + 8 * offset, cpu_starts + offset,
                           cpu_ends + offset);
        if (rc != 0) return rc;
        offset += executions;
    }
    rc = idle_core(st, pp, spans[4], 1, seg, seg_cap, ev, ev_cap, lens);
    if (rc != 0) return rc;
    marks[3] = st[S_NOW];
    return 0;
}

/* seg is (seg_n, 5) rows, cum (cum_cap, 3), out (times_n, 3). */
static int window_core(const double *seg, long seg_n, const double *fill,
                       const double *times, long times_n, double period,
                       double *cum, long cum_cap, double *out) {
    long n = seg_n, i, j, k, w, lo, hi, mid, n_bounds, last;
    int c, side, sides = 1;
    double t, bound, dt, p, e, first_bound = 0.0, last_bound = 0.0;
    for (i = 0; i < n; i++)
        if (!(seg[i * 5 + 1] >= seg[i * 5 + 0]) ||
            (i > 0 && !(seg[i * 5 + 0] >= seg[(i - 1) * 5 + 1])))
            return 2;
    n_bounds = 2 * n > 1 ? 2 * n : 1;
    last = n_bounds - 1;
    if (n > 0) {
        first_bound = seg[0];
        last_bound = seg[(n - 1) * 5 + 1];
    }
    if (period > 0.0) {
        sides = 2;
        if (cum_cap < n_bounds) return 1;
        for (c = 0; c < 3; c++) cum[c] = 0.0;
        for (j = 0; j < last; j++) {
            i = j / 2;
            if (j % 2 == 0)
                dt = seg[i * 5 + 1] - seg[i * 5 + 0];
            else
                dt = seg[(i + 1) * 5 + 0] - seg[i * 5 + 1];
            for (c = 0; c < 3; c++) {
                p = fill[c];
                if (j % 2 == 0) p = seg[i * 5 + 2 + c];
                cum[(j + 1) * 3 + c] = cum[j * 3 + c] + p * dt;
            }
        }
    }
    for (w = 0; w < times_n; w++) {
        for (side = 0; side < sides; side++) {
            t = times[w];
            if (side == 0 && sides == 2) t = t - period;
            lo = 0;
            hi = n_bounds;
            while (lo < hi) {
                mid = (lo + hi) / 2;
                bound = 0.0;
                if (n > 0) bound = seg[(mid / 2) * 5 + mid % 2];
                if (bound <= t)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            k = lo - 1;
            for (c = 0; c < 3; c++) {
                if (sides == 1) {
                    if (k >= 0 && k < last && k % 2 == 0)
                        out[w * 3 + c] = seg[(k / 2) * 5 + 2 + c];
                    else
                        out[w * 3 + c] = fill[c];
                    continue;
                }
                if (k < 0)
                    e = (t - first_bound) * fill[c];
                else if (k >= last)
                    e = cum[last * 3 + c] + (t - last_bound) * fill[c];
                else if (k % 2 == 0)
                    e = cum[k * 3 + c] + seg[(k / 2) * 5 + 2 + c] * (t - seg[(k / 2) * 5 + 0]);
                else
                    e = cum[k * 3 + c] + fill[c] * (t - seg[(k / 2) * 5 + 1]);
                if (side == 0)
                    out[w * 3 + c] = e;
                else
                    out[w * 3 + c] = (e - out[w * 3 + c]) / period;
            }
        }
    }
    return 0;
}

int fc_window(const double *seg, long seg_n, const double *fill,
              const double *times, long times_n, double period, double *cum,
              long cum_cap, double *out) {
    return window_core(seg, seg_n, fill, times, times_n, period, cum, cum_cap,
                       out);
}

/* batch_core; caches is (n_slots, 2), snap holds at least
   S_LASTP + 1 + 2 * n_slots doubles, times / powers (smp_cap) / (smp_cap, 3). */
int fc_batch(double *st, const double *pp, const double *descs, const long *seqs,
             long n_seqs, const double *seqf, double *caches, long n_slots,
             const double *variates, const double *spans, long n_runs,
             double latency_mean, double latency_jitter, double error_std,
             double gap_s, const double *grid, const double *fill, double *seg,
             long seg_cap, double *ev, long ev_cap, double *cum, long cum_cap,
             long *lens, double *snap, long *progress, double *exec_rows,
             long n_exec, double *cpu_starts, double *cpu_ends, double *marks,
             double *times, double *powers, long smp_cap, long *counts) {
    long n_state = S_LASTP + 1;
    long r, i, j, m, first, last, events, total = progress[1];
    double phase = grid[0], period = grid[1], window = grid[2];
    double start, stop, t;
    int rc;
    for (r = progress[0]; r < n_runs; r++) {
        for (j = 0; j < n_state; j++) snap[j] = st[j];
        for (j = 0; j < 2 * n_slots; j++) snap[n_state + j] = caches[j];
        events = lens[1];
        lens[0] = 0;
        rc = run_core(st, pp, descs, seqs, n_seqs, seqf + 2 * r * n_seqs, caches,
                      variates + 4 * n_exec * r, spans + 5 * r, latency_mean,
                      latency_jitter, error_std, gap_s, seg, seg_cap, ev, ev_cap,
                      lens, exec_rows, cpu_starts + r * n_exec,
                      cpu_ends + r * n_exec, marks + 4 * r);
        m = 0;
        if (rc == 0 && period > 0.0) {
            start = marks[4 * r + 0];
            stop = marks[4 * r + 3];
            first = (long)ceil((start - phase) / period);
            last = (long)floor((stop + 1e-12 - phase) / period) + 1;
            if (last < first) last = first;
            for (i = first; i <= last; i++) {
                t = phase + (double)i * period;
                if ((window <= 0.0 || t > start + 1e-12) && t <= stop + 1e-12) {
                    if (total + m >= smp_cap) {
                        rc = 4;
                        break;
                    }
                    times[total + m] = t;
                    m++;
                }
            }
            if (rc == 0 && m > 0) {
                rc = window_core(seg, lens[0], fill, times + total, m, window, cum,
                                 cum_cap, powers + 3 * total);
                if (rc == 1)
                    rc = 3;
                else if (rc != 0)
                    rc = 5;
            }
        }
        if (rc != 0) {
            for (j = 0; j < n_state; j++) st[j] = snap[j];
            for (j = 0; j < 2 * n_slots; j++) caches[j] = snap[n_state + j];
            lens[1] = events;
            progress[0] = r;
            progress[1] = total;
            return rc;
        }
        counts[r] = m;
        total += m;
    }
    progress[0] = n_runs;
    progress[1] = total;
    return 0;
}
"""

#: Compile flags that keep the C core bit-identical to the Python engines:
#: no fast-math value substitutions, no FMA contraction of separate ops.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")


def source_digest() -> str:
    """Hash of the C source; keys the compiled-library cache."""
    return hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]


def find_compiler() -> str | None:
    """Locate a C compiler (``$CC``, then ``gcc``, then ``cc``)."""
    for candidate in (os.environ.get("CC"), "gcc", "cc"):
        if candidate:
            path = shutil.which(candidate)
            if path:
                return path
    return None


def cache_dir() -> Path:
    configured = os.environ.get("REPRO_FASTCORE_CACHE")
    if configured:
        return Path(configured)
    return Path(tempfile.gettempdir()) / "repro-fastcore"


def build_library(compiler: str | None = None) -> Path:
    """Compile (or reuse) the shared library; returns its path.

    The library lands at a digest-keyed path via an atomic rename, so
    concurrent builders (sweep worker pools) race benignly.
    """
    compiler = compiler or find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (set $CC, or install gcc/cc)")
    directory = cache_dir()
    lib_path = directory / f"fastcore-{source_digest()}.so"
    if lib_path.exists():
        return lib_path
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_src = tempfile.mkstemp(suffix=".c", dir=directory)
    tmp_lib = tmp_src[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_C_SOURCE)
        result = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_lib, tmp_src],
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"fastcore C build failed ({compiler}): {result.stderr.strip()}"
            )
        os.replace(tmp_lib, lib_path)
    finally:
        for leftover in (tmp_src, tmp_lib):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return lib_path


class CcKernels:
    """ctypes binding presenting the uniform fastcore kernel API.

    ``idle`` / ``execute`` / ``batch`` / ``window`` take the same numpy-array
    arguments as the ``_fastcore_kernels`` entry points (capacities are read off the
    array shapes here and passed explicitly to C).

    Arrays are passed as raw data pointers cached per array identity: the
    device reuses the same state/param/scratch buffers for the lifetime of a
    run, and ``ndpointer`` (or even ``arr.ctypes.data``) conversion on every
    call costs an order of magnitude more than the short-span kernels
    themselves.  The cache pins each array it has seen, so a recycled ``id``
    can never alias a stale pointer; it is cleared when it outgrows the
    handful of long-lived buffers it exists for.
    """

    name = "cc"

    def __init__(self, lib_path: Path) -> None:
        self.lib_path = lib_path
        lib = ctypes.CDLL(str(lib_path))
        ptr = ctypes.c_void_p
        lib.fc_idle.restype = ctypes.c_int
        lib.fc_idle.argtypes = [
            ptr, ptr, ctypes.c_double, ctypes.c_int,
            ptr, ctypes.c_long, ptr, ctypes.c_long, ptr,
        ]
        lib.fc_execute.restype = ctypes.c_int
        lib.fc_execute.argtypes = [
            ptr, ptr, ptr, ctypes.c_double, ctypes.c_int, ctypes.c_int,
            ptr, ctypes.c_long, ptr, ctypes.c_long, ptr, ptr,
        ]
        lib.fc_batch.restype = ctypes.c_int
        lib.fc_batch.argtypes = [
            ptr, ptr, ptr, ptr, ctypes.c_long, ptr, ptr, ctypes.c_long,
            ptr, ptr, ctypes.c_long,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            ptr, ptr, ptr, ctypes.c_long, ptr, ctypes.c_long, ptr, ctypes.c_long,
            ptr, ptr, ptr, ptr, ctypes.c_long, ptr, ptr, ptr,
            ptr, ptr, ctypes.c_long, ptr,
        ]
        lib.fc_window.restype = ctypes.c_int
        lib.fc_window.argtypes = [
            ptr, ctypes.c_long, ptr, ptr, ctypes.c_long, ctypes.c_double,
            ptr, ctypes.c_long, ptr,
        ]
        self._lib = lib
        self._ptrs: dict[int, tuple] = {}

    def _ptr(self, arr) -> int:
        cached = self._ptrs.get(id(arr))  # statics: allow[identity-hash] -- pointer cache; the pinned array reference keeps the id stable
        if cached is not None and cached[0] is arr:
            return cached[1]
        if len(self._ptrs) > 64:  # scratch arrays from tests/self-checks
            self._ptrs.clear()
        address = self._addr(arr)
        self._ptrs[id(arr)] = (arr, address)  # statics: allow[identity-hash] -- cached address is per-process by nature and never persisted
        return address

    @staticmethod
    def _addr(arr) -> int:
        """Data address of an array, uncached (the per-call arrays of a run).

        A ctypes view of the buffer is several times cheaper than
        ``arr.ctypes``; empty and read-only arrays take the latter.
        """
        if not arr.flags.c_contiguous:
            raise ValueError("fastcore kernel arrays must be C-contiguous")
        if arr.nbytes and arr.flags.writeable:
            return ctypes.addressof(ctypes.c_char.from_buffer(arr))
        return arr.ctypes.data

    def idle(self, st, pp, duration, record, seg, ev, lens):
        p = self._ptr
        return self._lib.fc_idle(
            p(st), p(pp), duration, record,
            p(seg), seg.shape[0], p(ev), ev.shape[0], p(lens),
        )

    def execute(self, st, pp, desc, time_factor, cold, record, seg, ev, lens, out8):
        p = self._ptr
        return self._lib.fc_execute(
            p(st), p(pp), p(desc), time_factor, cold, record,
            p(seg), seg.shape[0], p(ev), ev.shape[0], p(lens), p(out8),
        )

    def batch(
        self, st, pp, descs, seqs, seqf, caches, variates, spans,
        latency_mean, latency_jitter, error_std, gap_s,
        grid, fill, seg, ev, cum, lens, snap, progress,
        exec_rows, cpu_starts, cpu_ends, marks, times, powers, counts,
    ):
        p = self._ptr
        a = self._addr
        return self._lib.fc_batch(
            p(st), p(pp), a(descs), a(seqs), seqs.shape[0], a(seqf),
            a(caches), caches.shape[0], a(variates), a(spans), spans.shape[0],
            latency_mean, latency_jitter, error_std, gap_s,
            p(grid), p(fill), p(seg), seg.shape[0], p(ev), ev.shape[0],
            p(cum), cum.shape[0], p(lens), p(snap), p(progress),
            a(exec_rows), exec_rows.shape[0], a(cpu_starts), a(cpu_ends), a(marks),
            p(times), p(powers), times.shape[0], a(counts),
        )

    def window(self, seg, fill, times, period, cum, out):
        p = self._ptr
        a = self._addr
        return self._lib.fc_window(
            a(seg), seg.shape[0], p(fill), a(times), times.shape[0], period,
            p(cum), cum.shape[0], a(out),
        )

def load() -> CcKernels:
    """Build (if needed) and bind the C core."""
    return CcKernels(build_library())


__all__ = ["CcKernels", "load", "build_library", "find_compiler", "source_digest"]
