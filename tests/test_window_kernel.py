"""The logger window kernel against a NumPy oracle and the scalar helpers.

``SegmentTimeline`` below is an independent NumPy transcription of the
cumulative-energy timeline (searchsorted lookups, ``np.cumsum`` prefix
sums, a gapless layout beside the interleaved one).  For sorted segment sets
(gapless, gapped, single, empty) and sample grids that start before, fall
inside or end after the recording, every available provider's ``window``
kernel must equal the oracle bit for bit and the scalar
``_average_power_over`` / ``_instantaneous_power_at`` helpers within 1e-9
relative; overlapping segments must route to the scalar fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import fastcore
from repro.gpu.clocks import GPUTimestampCounter, SimulationClock
from repro.gpu.device import PowerSegment, SegmentArray
from repro.gpu.power_model import ComponentPower
from repro.gpu.spec import mi300x_spec
from repro.gpu.telemetry import (
    AveragingPowerLogger,
    InstantaneousPowerSampler,
    _average_power_over,
    _instantaneous_power_at,
)

FILL = ComponentPower(xcd_w=88.0, iod_w=52.0, hbm_w=41.0)
FILL_ROW = np.array([FILL.xcd_w, FILL.iod_w, FILL.hbm_w])

PROVIDERS = {}
for _name in fastcore.PROVIDER_CHAINS["auto"]:
    _bundle, _error = fastcore._load_provider(_name)
    if _bundle is not None and fastcore.self_check(_bundle) is None:
        PROVIDERS[_name] = _bundle


class SegmentTimeline:
    """Piecewise-constant power timeline with a cumulative-energy table.

    Segment power inside segments, ``fill_power`` in the gaps and outside the
    recorded span.  Window averages are the difference of two
    cumulative-energy lookups.  Requires chronologically sorted,
    non-overlapping segments (``usable`` is False otherwise).
    """

    def __init__(self, segments, fill_power: ComponentPower) -> None:
        self._fill = np.array(
            [fill_power.xcd_w, fill_power.iod_w, fill_power.hbm_w], dtype=float
        )
        n = len(segments)
        self._gapless = False
        if n == 0:
            self.usable = True
            self._bounds = np.zeros(1, dtype=float)
            self._powers = np.empty((0, 3), dtype=float)
            self._cumulative = np.zeros((1, 3), dtype=float)
            return
        starts = segments.starts_s
        ends = segments.ends_s
        segment_powers = segments.powers
        self.usable = bool((ends >= starts).all() and (starts[1:] >= ends[:-1]).all())
        if not self.usable:
            return
        if n > 1 and (starts[1:] == ends[:-1]).all():
            # Gapless: every interval is a segment.
            bounds = np.empty(n + 1, dtype=float)
            bounds[:n] = starts
            bounds[n] = ends[n - 1]
            powers = segment_powers
            self._gapless = True
        else:
            # Interval 2i is segment i, odd intervals are the gaps in between.
            bounds = np.empty(2 * n, dtype=float)
            bounds[0::2] = starts
            bounds[1::2] = ends
            powers = np.empty((2 * n - 1, 3), dtype=float)
            powers[0::2] = segment_powers
            powers[1::2] = self._fill
        m = powers.shape[0]
        cumulative = np.zeros((m + 1, 3), dtype=float)
        np.cumsum(powers * np.diff(bounds)[:, None], axis=0, out=cumulative[1:])
        self._bounds = bounds
        self._powers = powers
        self._cumulative = cumulative

    def energy_between(self, starts_s: np.ndarray, ends_s: np.ndarray) -> np.ndarray:
        return self._energy_at(ends_s) - self._energy_at(starts_s)

    def _energy_at(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        bounds = self._bounds
        last = bounds.shape[0] - 1
        interval = bounds.searchsorted(times, side="right") - 1
        clipped = np.minimum(np.maximum(interval, 0), last - 1 if last > 1 else 0)
        if self._powers.shape[0]:
            energy = (
                self._cumulative[clipped]
                + self._powers[clipped] * (times - bounds[clipped])[:, None]
            )
        else:
            energy = np.zeros((times.shape[0], 3), dtype=float)
        if times.shape[0]:
            if interval[0] < 0:
                before = interval < 0
                energy[before] = (times[before] - bounds[0])[:, None] * self._fill
            if interval[-1] >= last:
                after = interval >= last
                energy[after] = (
                    self._cumulative[last]
                    + (times[after] - bounds[last])[:, None] * self._fill
                )
        return energy

    def power_at(self, times_s: np.ndarray) -> np.ndarray:
        times = np.asarray(times_s, dtype=float)
        interval = np.searchsorted(self._bounds, times, side="right") - 1
        inside = (interval >= 0) & (interval < self._powers.shape[0])
        if not self._gapless:
            inside &= interval % 2 == 0
        power = np.broadcast_to(self._fill, (times.shape[0], 3)).copy()
        if self._powers.shape[0]:
            power[inside] = self._powers[interval[inside]]
        return power


@st.composite
def recordings(draw) -> SegmentArray:
    """Sorted, non-overlapping segment rows of one of four shapes."""
    kind = draw(st.sampled_from(["gapless", "gapped", "single", "empty"]))
    n = {"empty": 0, "single": 1}.get(kind) or draw(st.integers(2, 12))
    durations = draw(st.lists(st.floats(1e-7, 1e-3), min_size=n, max_size=n))
    if kind == "gapped":
        gaps = draw(st.lists(
            st.one_of(st.just(0.0), st.floats(1e-7, 1e-3)), min_size=n - 1, max_size=n - 1
        ))
        gaps[0] = max(gaps[0], 1e-6)
    else:
        gaps = [0.0] * max(n - 1, 0)
    powers = draw(st.lists(st.floats(10.0, 700.0), min_size=3 * n, max_size=3 * n))
    rows = np.empty((n, 5))
    cursor = draw(st.floats(0.0, 5e-3))
    for i in range(n):
        rows[i, 0] = cursor
        rows[i, 1] = cursor + durations[i]
        rows[i, 2:5] = powers[3 * i : 3 * i + 3]
        cursor = rows[i, 1] + (gaps[i] if i < n - 1 else 0.0)
    return SegmentArray(rows)


@st.composite
def grids(draw, segments: SegmentArray) -> np.ndarray:
    """An ascending sample grid starting before or inside, possibly ending after."""
    first = segments.starts_s[0] if len(segments) else 0.0
    last = segments.ends_s[-1] if len(segments) else 0.0
    start = draw(st.floats(first - 3e-3, last))
    step = draw(st.floats(1e-6, 2e-3))
    count = draw(st.integers(1, 12))
    return start + step * np.arange(count)


windows = st.one_of(st.just(0.0), st.floats(1e-5, 3e-3))


def kernel_powers(bundle, segments: SegmentArray, times: np.ndarray, window_s: float):
    out = np.empty((times.shape[0], 3))
    cum = np.empty((max(2 * len(segments), 1), 3))
    rc = bundle.window(segments.rows, FILL_ROW, times, window_s, cum, out)
    assert rc == 0
    return out


@pytest.mark.parametrize("provider", sorted(PROVIDERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data(), window_s=windows)
def test_window_kernel_matches_oracle_and_scalar(provider, data, window_s):
    segments = data.draw(recordings())
    times = data.draw(grids(segments))
    got = kernel_powers(PROVIDERS[provider], segments, times, window_s)
    oracle = SegmentTimeline(segments, FILL)
    assert oracle.usable
    listed = list(segments)
    if window_s > 0:
        want = oracle.energy_between(times - window_s, times) / window_s
        scalar = [_average_power_over(listed, t - window_s, t, FILL) for t in times]
    else:
        want = oracle.power_at(times)
        scalar = [_instantaneous_power_at(listed, t, FILL) for t in times]
    assert np.array_equal(got, want)
    scalar_rows = np.array([[p.xcd_w, p.iod_w, p.hbm_w] for p in scalar])
    np.testing.assert_allclose(got, scalar_rows, rtol=1e-9, atol=0.0)


def overlapping() -> list[PowerSegment]:
    busy = ComponentPower(xcd_w=400.0, iod_w=150.0, hbm_w=120.0)
    return [
        PowerSegment(0.0, 1.5e-3, busy),
        PowerSegment(1.0e-3, 2.5e-3, FILL),
        PowerSegment(2.4e-3, 4.0e-3, busy),
    ]


@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_overlapping_segments_are_rejected_by_the_kernel(provider):
    rows = SegmentArray.from_segments(overlapping()).rows
    out = np.empty((3, 3))
    assert PROVIDERS[provider].window(
        rows, FILL_ROW, np.array([1e-3, 2e-3, 3e-3]), 1e-3, np.empty((8, 3)), out
    ) == 2
    assert PROVIDERS[provider].window(
        rows, FILL_ROW, np.array([1e-3, 2e-3, 3e-3]), 0.0, np.empty((8, 3)), out
    ) == 2


@pytest.mark.parametrize("sampler_kind", ["averaging", "instantaneous"])
def test_overlapping_segments_route_to_the_scalar_fallback(sampler_kind):
    spec = mi300x_spec()
    counter = GPUTimestampCounter(spec.clocks, SimulationClock(), np.random.default_rng(0))
    segments = overlapping()
    if sampler_kind == "averaging":
        sampler = AveragingPowerLogger(counter, 1e-3, FILL)
        _, times, powers, _ = sampler.sample_columns(segments, 0.0, 4.0e-3)
        scalar = [_average_power_over(segments, t - 1e-3, t, FILL) for t in times]
    else:
        sampler = InstantaneousPowerSampler(counter, 0.5e-3, FILL)
        _, times, powers, _ = sampler.sample_columns(segments, 0.0, 4.0e-3)
        scalar = [_instantaneous_power_at(segments, t, FILL) for t in times]
    assert times.shape[0] >= 4
    assert np.array_equal(powers, [[p.xcd_w, p.iod_w, p.hbm_w] for p in scalar])
