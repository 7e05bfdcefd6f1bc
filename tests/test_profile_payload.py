"""Tests for the canonical columnar payload: NPZ/pickle codecs and spill.

Covers the ProfileColumns codec (`to_payload`/`from_payload`, `to_npz`/
`from_npz` with memory-mapped loads), the columnar `FineGrainProfile`
pickle/equality fast paths, the viz `profile_to_npz`/`profile_from_npz`
pair, and the sweep cache's sidecar spill.
"""

from __future__ import annotations

import dataclasses
import io
import pickle

import numpy as np
import pytest

from repro.core.profile import (
    FineGrainProfile,
    ProfileColumns,
    ProfileKind,
    ProfilePoint,
    load_npz_payload,
)
from repro.experiments import sweep as sweep_module
from repro.experiments.sweep import ProfileJob, SweepRunner, job_key, kernel_spec
from repro.viz.export import profile_from_npz, profile_to_npz


# --------------------------------------------------------------------------- #
# Column fixtures.
# --------------------------------------------------------------------------- #
def plain_columns(n: int = 16, seed: int = 0) -> ProfileColumns:
    rng = np.random.default_rng(seed)
    return ProfileColumns(
        time_s=np.sort(rng.uniform(0.0, 1.0, n)),
        run_index=rng.integers(0, 8, n),
        execution_index=rng.integers(0, 40, n),
        powers_w={
            "total": rng.uniform(300.0, 700.0, n),
            "xcd": rng.uniform(100.0, 400.0, n),
        },
    ).freeze()


def masked_columns(n: int = 24, seed: int = 1) -> ProfileColumns:
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=n) < 0.6
    mask[0] = True
    mask[1] = False
    values = rng.uniform(10.0, 90.0, n)
    values[~mask] = np.nan
    return ProfileColumns(
        time_s=np.sort(rng.uniform(0.0, 1.0, n)),
        run_index=rng.integers(0, 4, n),
        execution_index=rng.integers(0, 10, n),
        powers_w={"total": rng.uniform(300.0, 700.0, n), "hbm": values},
        masks={"hbm": mask},
    ).freeze()


def single_component_columns(n: int = 5) -> ProfileColumns:
    return ProfileColumns(
        time_s=np.linspace(0.0, 1.0, n),
        run_index=np.arange(n),
        execution_index=np.zeros(n, dtype=np.int64),
        powers_w={"total": np.linspace(400.0, 500.0, n)},
    ).freeze()


def large_columns(n: int = 100_000, seed: int = 7) -> ProfileColumns:
    rng = np.random.default_rng(seed)
    return ProfileColumns(
        time_s=np.sort(rng.uniform(0.0, 60.0, n)),
        run_index=rng.integers(0, 200, n),
        execution_index=rng.integers(0, 100, n),
        powers_w={
            "total": rng.uniform(300.0, 700.0, n),
            "xcd": rng.uniform(100.0, 400.0, n),
            "iod": rng.uniform(50.0, 120.0, n),
            "hbm": rng.uniform(40.0, 90.0, n),
        },
    ).freeze()


ALL_FIXTURES = {
    "empty": lambda: ProfileColumns.empty(),
    "single": single_component_columns,
    "plain": plain_columns,
    "masked": masked_columns,
    "large": large_columns,
}


def assert_columns_identical(a: ProfileColumns, b: ProfileColumns) -> None:
    """Bit-identity: equals() plus dtype and mask-structure checks."""
    assert a.equals(b) and b.equals(a)
    assert list(a.powers_w) == list(b.powers_w)  # order preserved, not just set
    assert set(a.masks) == set(b.masks)
    for mine, theirs in zip(a._arrays(), b._arrays()):
        assert mine.dtype == theirs.dtype
        # Raw bit-identity including NaN at masked-out positions.
        equal_nan = mine.dtype.kind == "f"
        assert np.array_equal(mine, theirs, equal_nan=equal_nan)


# --------------------------------------------------------------------------- #
# NPZ round trips.
# --------------------------------------------------------------------------- #
class TestNpzRoundTrip:
    @pytest.mark.parametrize("fixture", sorted(ALL_FIXTURES))
    @pytest.mark.parametrize("compressed", [False, True])
    def test_bit_identical(self, tmp_path, fixture, compressed):
        columns = ALL_FIXTURES[fixture]()
        path = columns.to_npz(tmp_path / f"{fixture}.npz", compressed=compressed)
        assert_columns_identical(columns, ProfileColumns.from_npz(path))

    @pytest.mark.parametrize("fixture", ["plain", "masked", "large"])
    def test_mmap_load_bit_identical_and_mapped(self, tmp_path, fixture):
        columns = ALL_FIXTURES[fixture]()
        path = columns.to_npz(tmp_path / "cols.npz", compressed=False)
        loaded = ProfileColumns.from_npz(path, mmap_mode="r")
        assert_columns_identical(columns, loaded)
        # Uncompressed (ZIP_STORED) members really map, copy nothing.
        assert isinstance(loaded.time_s, np.memmap)
        assert all(isinstance(v, np.memmap) for v in loaded.powers_w.values())

    def test_mmap_falls_back_on_compressed(self, tmp_path):
        columns = plain_columns()
        path = columns.to_npz(tmp_path / "cols.npz", compressed=True)
        loaded = ProfileColumns.from_npz(path, mmap_mode="r")
        assert_columns_identical(columns, loaded)
        assert not isinstance(loaded.time_s, np.memmap)

    def test_unknown_mmap_mode_rejected(self, tmp_path):
        path = plain_columns().to_npz(tmp_path / "cols.npz")
        with pytest.raises(ValueError, match="mmap_mode"):
            load_npz_payload(path, mmap_mode="r+")

    def test_payload_without_components_key_still_loads(self):
        # PR3-era exports carry no "components" member; the loader falls back
        # to scanning power_*_w keys.
        columns = masked_columns()
        payload = columns.to_payload()
        payload.pop("components")
        assert_columns_identical(columns, ProfileColumns.from_payload(payload))


class TestPickleRoundTrip:
    @pytest.mark.parametrize("fixture", sorted(ALL_FIXTURES))
    def test_bit_identical(self, fixture):
        columns = ALL_FIXTURES[fixture]()
        clone = pickle.loads(pickle.dumps(columns, protocol=pickle.HIGHEST_PROTOCOL))
        assert_columns_identical(columns, clone)


# --------------------------------------------------------------------------- #
# FineGrainProfile: pickle drops the points cache; __eq__ stays columnar.
# --------------------------------------------------------------------------- #
def profile_from(columns: ProfileColumns, kind=ProfileKind.SSP) -> FineGrainProfile:
    return FineGrainProfile(
        kernel_name="payload-test",
        kind=kind,
        execution_time_s=42e-6,
        metadata={"origin": "test"},
        columns=columns,
    )


class TestProfilePickle:
    def test_points_cache_not_pickled(self):
        profile = profile_from(plain_columns())
        _ = profile.points  # materialise (and cache) the legacy view
        assert profile._points is not None
        clone = pickle.loads(pickle.dumps(profile))
        assert clone._points is None  # cache dropped, columns only
        assert clone == profile
        assert clone.metadata == profile.metadata
        assert clone.kind is ProfileKind.SSP

    def test_pickle_size_unaffected_by_points_access(self):
        cold = profile_from(large_columns())
        warm = profile_from(large_columns())
        _ = warm.points
        assert len(pickle.dumps(warm)) == len(pickle.dumps(cold))

    def test_points_built_profile_round_trips_columnar(self):
        points = [
            ProfilePoint(time_s=0.1 * i, powers_w={"total": 400.0 + i}, run_index=i)
            for i in range(5)
        ]
        profile = FineGrainProfile(
            kernel_name="obj", kind=ProfileKind.SSE,
            points=points, execution_time_s=1e-5,
        )
        clone = pickle.loads(pickle.dumps(profile))
        assert clone == profile
        assert clone.points == profile.points


class TestProfileEquality:
    def test_columnar_eq_does_not_materialise_points(self):
        a = profile_from(plain_columns())
        b = profile_from(plain_columns())
        assert a == b
        assert a._points is None and b._points is None

    def test_columnar_eq_detects_differences(self):
        a = profile_from(plain_columns(seed=0))
        assert a != profile_from(plain_columns(seed=3))
        assert a != profile_from(masked_columns())
        assert profile_from(masked_columns()) == profile_from(masked_columns())

    def test_columnar_vs_points_built_falls_back_to_points(self):
        columns = plain_columns()
        columnar = profile_from(columns)
        object_based = FineGrainProfile(
            kernel_name="payload-test", kind=ProfileKind.SSP,
            points=columns.to_points(), execution_time_s=42e-6,
            metadata={"origin": "test"},
        )
        assert columnar == object_based

    def test_nan_at_present_position_unequal(self):
        n = 4
        base = dict(
            time_s=np.linspace(0, 1, n), run_index=np.arange(n),
            execution_index=np.zeros(n, dtype=np.int64),
        )
        values = np.array([1.0, np.nan, 3.0, 4.0])
        a = profile_from(ProfileColumns(powers_w={"total": values}, **base))
        b = profile_from(ProfileColumns(powers_w={"total": values.copy()}, **base))
        assert a != b  # NaN != NaN, matching the per-point dict semantics


# --------------------------------------------------------------------------- #
# viz export/import pair.
# --------------------------------------------------------------------------- #
class TestVizNpz:
    @pytest.mark.parametrize("compressed", [False, True])
    def test_round_trip(self, tmp_path, compressed):
        profile = profile_from(masked_columns(), kind=ProfileKind.RUN)
        path = profile_to_npz(profile, tmp_path / "p.npz", compressed=compressed)
        loaded = profile_from_npz(path, metadata={"origin": "test"})
        assert loaded == profile
        assert loaded.kernel_name == profile.kernel_name
        assert loaded.kind is ProfileKind.RUN
        assert loaded.execution_time_s == profile.execution_time_s

    def test_mmap_round_trip(self, tmp_path):
        profile = profile_from(large_columns())
        path = profile_to_npz(profile, tmp_path / "p.npz", compressed=False)
        loaded = profile_from_npz(path, mmap_mode="r", metadata={"origin": "test"})
        assert loaded == profile
        assert isinstance(loaded.columns().time_s, np.memmap)

    def test_legacy_export_without_components_key(self, tmp_path):
        # Pre-PR7 exports: same members minus the "components" ordering array.
        profile = profile_from(plain_columns())
        payload = profile.columns().to_payload()
        payload.pop("components")
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            kernel=np.asarray(profile.kernel_name),
            kind=np.asarray(profile.kind.value),
            execution_time_s=np.asarray(profile.execution_time_s),
            **payload,
        )
        loaded = profile_from_npz(path, metadata={"origin": "test"})
        assert loaded == profile

    def test_non_profile_archive_rejected(self, tmp_path):
        path = plain_columns().to_npz(tmp_path / "bare.npz")
        with pytest.raises(ValueError, match="missing"):
            profile_from_npz(path)

    def test_empty_profile_rejected(self, tmp_path):
        profile = profile_from(ProfileColumns.empty())
        with pytest.raises(ValueError, match="empty"):
            profile_to_npz(profile, tmp_path / "empty.npz")


# --------------------------------------------------------------------------- #
# The sweep cache's sidecar spill.
# --------------------------------------------------------------------------- #
SPILL_JOB = ProfileJob(
    job_id="payload-test/spill",
    kernel=kernel_spec("cb_gemm", 2048),
    runs=4,
    backend_seed=5,
    profiler_seed=105,
)


class TestCacheSpill:
    def entry(self, points: int) -> dict[str, object]:
        return {
            "big": profile_from(large_columns(points)),
            "small": profile_from(plain_columns()),
            "scalar": 7,
        }

    def test_round_trip_with_spill(self, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=tmp_path, spill_points=1000)
        entry = self.entry(5000)
        runner._cache_store(SPILL_JOB, entry)
        sidecar = (tmp_path / f"{job_key(SPILL_JOB)}.pkl").with_suffix(".npz")
        assert sidecar.exists()  # the big profile left the pickle
        loaded = runner._cache_load(SPILL_JOB)
        assert loaded["big"] == entry["big"]
        assert loaded["small"] == entry["small"]
        assert loaded["scalar"] == 7
        # Spilled columns come back memory-mapped.
        assert isinstance(loaded["big"].columns().time_s, np.memmap)
        assert not isinstance(loaded["small"].columns().time_s, np.memmap)

    def test_pickle_shrinks_and_shared_columns_spill_once(self, tmp_path):
        profile = profile_from(large_columns(5000))
        entry = {"a": profile, "b": profile}  # shared object
        buffer = io.BytesIO()
        spilled = sweep_module._write_entry(entry, buffer, spill_points=1000)
        assert len(spilled) == 1  # deduplicated by identity
        plain = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        assert buffer.tell() < len(plain) / 10
        # And both references resolve to the same reloaded object.
        sidecar = tmp_path / "side.npz"
        with sidecar.open("wb") as handle:
            sweep_module._write_sidecar(spilled, handle)
        buffer.seek(0)
        loaded = sweep_module._ColumnSpillUnpickler(buffer, sidecar).load()
        assert loaded["a"] is loaded["b"]
        assert loaded["a"] == profile

    def test_no_sidecar_below_threshold(self, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=tmp_path, spill_points=10**9)
        runner._cache_store(SPILL_JOB, self.entry(5000))
        assert not list(tmp_path.glob("*.npz"))
        assert runner._cache_load(SPILL_JOB)["scalar"] == 7

    def test_corrupt_sidecar_recomputes_not_crashes(self, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=tmp_path, spill_points=1000)
        runner._cache_store(SPILL_JOB, self.entry(5000))
        sidecar = (tmp_path / f"{job_key(SPILL_JOB)}.pkl").with_suffix(".npz")
        sidecar.write_bytes(b"garbage")
        assert runner._cache_load(SPILL_JOB) is None  # falls through to recompute

    def test_missing_sidecar_recomputes_not_crashes(self, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=tmp_path, spill_points=1000)
        runner._cache_store(SPILL_JOB, self.entry(5000))
        (tmp_path / f"{job_key(SPILL_JOB)}.pkl").with_suffix(".npz").unlink()
        assert runner._cache_load(SPILL_JOB) is None

    def test_spill_points_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FINGRAV_SPILL_POINTS", "123")
        assert SweepRunner(workers=1).spill_points == 123
        monkeypatch.setenv("FINGRAV_SPILL_POINTS", "not-a-number")
        assert SweepRunner(workers=1).spill_points == sweep_module._SPILL_POINTS_DEFAULT
        monkeypatch.delenv("FINGRAV_SPILL_POINTS")
        assert SweepRunner(workers=1, spill_points=5).spill_points == 5

    def test_schema2_entry_ignored_cleanly(self, tmp_path):
        # A schema-2 cache wrote plain pickles under the schema-2 key; the
        # schema-3 key differs, so the old entry is simply never looked up.
        old_key_payload = dataclasses.asdict(SPILL_JOB)
        old_key_payload.pop("job_id")
        old_key_payload.pop("sections")  # field did not exist then
        import hashlib

        old_digest = hashlib.sha256(
            f"2:{sorted(old_key_payload.items())!r}".encode()
        ).hexdigest()
        (tmp_path / f"{old_digest}.pkl").write_bytes(
            pickle.dumps("schema-2 payload")
        )
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        assert old_digest != job_key(SPILL_JOB)
        assert runner._cache_load(SPILL_JOB) is None  # recompute, no crash

    def test_profile_sections_part_of_cache_key(self):
        assert job_key(SPILL_JOB) != job_key(
            dataclasses.replace(SPILL_JOB, sections=("ssp",))
        )
