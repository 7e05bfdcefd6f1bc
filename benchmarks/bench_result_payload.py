"""Benchmark: section-aware result payloads + the NPZ spill deserializer.

Two measurements, both extending ``BENCH_profiler.json`` under ``payload_v2``:

* ``test_sectioned_payload_vs_pr4_baseline`` executes every fast-scale
  Figure-7 and Table-I job exactly as the drivers declare them (fig7 retains
  ``("ssp", "sse")``, table1 retains nothing) and records the pickled payload
  bytes.  The fig7 total must shrink at least a further 2x against the PR 4
  ``slim_payload`` baseline, which pickled all three stitched profiles
  without the raw runs.
* ``test_npz_spill_rss`` round-trips a 100k-point profile through the sweep
  cache's spill codec (pickle envelope + memory-mapped ``.npz`` sidecar),
  asserts the reload is bit-identical, and measures the peak RSS of a fresh
  deserializer subprocess for the spill path against the plain in-memory
  pickle path.  The spill path must deserialize with strictly lower peak RSS.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.profile import FineGrainProfile, ProfileColumns, ProfileKind
from repro.experiments.common import FAST_SCALE
from repro.experiments.fig7 import fig7_jobs
from repro.experiments.sweep import (
    _ColumnSpillUnpickler,
    _write_entry,
    _write_sidecar,
    execute_job,
)
from repro.experiments.table1 import table1_jobs

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_profiler.json"


def _read_results() -> dict:
    if RESULT_PATH.exists():
        try:
            return json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            return {}
    return {}


def _merge_payload_v2(update: dict) -> None:
    """Merge ``update`` into the ``payload_v2`` section (both tests write it)."""
    payload = _read_results()
    section = dict(payload.get("payload_v2") or {})
    section.update(update)
    payload["payload_v2"] = section
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _pickled_bytes(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# --------------------------------------------------------------------------- #
# Driver-declared section subsets vs the PR 4 all-sections slim baseline.
# --------------------------------------------------------------------------- #
@pytest.mark.bench
def test_sectioned_payload_vs_pr4_baseline():
    """fig7+table1 payloads shrink >=2x further than the PR 4 slim baseline."""
    baseline = _read_results().get("slim_payload")
    assert baseline, (
        "no 'slim_payload' baseline in BENCH_profiler.json; run "
        "bench_experiment_sweep.py::test_slim_vs_full_payload first"
    )
    baseline_bytes = {row["job"]: row["slim_bytes"] for row in baseline["jobs"]}

    rows = []
    for job in fig7_jobs(scale=FAST_SCALE) + table1_jobs(scale=FAST_SCALE):
        result = execute_job(job)  # driver-declared sections, untouched
        row = {
            "job": job.job_id,
            "sections": list(job.sections or ()),
            "bytes": _pickled_bytes(result),
        }
        before = baseline_bytes.get(job.job_id)
        if before is not None:
            row["pr4_slim_bytes"] = before
            row["shrink_vs_pr4"] = before / row["bytes"]
        rows.append(row)

    fig7_rows = [row for row in rows if "pr4_slim_bytes" in row]
    assert fig7_rows, "no fig7 jobs overlapped the PR 4 baseline"
    total_now = sum(row["bytes"] for row in fig7_rows)
    total_before = sum(row["pr4_slim_bytes"] for row in fig7_rows)
    shrink = total_before / total_now

    print("\n=== driver-declared section payloads vs PR 4 slim baseline ===")
    for row in rows:
        extra = ""
        if "shrink_vs_pr4" in row:
            extra = (f"  pr4 {row['pr4_slim_bytes']:>8,} B "
                     f"({row['shrink_vs_pr4']:.1f}x smaller)")
        print(f"  {row['job']:<22} sections={','.join(row['sections']) or '-':<9} "
              f"{row['bytes']:>8,} B{extra}")
    print(f"  fig7 total: {total_before:,} B -> {total_now:,} B ({shrink:.1f}x)")

    _merge_payload_v2({
        "scale": FAST_SCALE.name,
        "jobs": rows,
        "fig7_total_bytes": total_now,
        "fig7_pr4_slim_bytes": total_before,
        "fig7_shrink_vs_pr4": shrink,
    })
    assert shrink >= 2.0, (
        f"sectioned fig7 payloads only {shrink:.2f}x below the PR 4 slim "
        f"baseline, expected >=2x"
    )


# --------------------------------------------------------------------------- #
# NPZ spill: bit-identical 100k-point round trip, lower deserializer RSS.
# --------------------------------------------------------------------------- #
def _large_profile(n: int = 100_000, seed: int = 23) -> FineGrainProfile:
    rng = np.random.default_rng(seed)
    columns = ProfileColumns(
        time_s=np.sort(rng.uniform(0.0, 60.0, n)),
        run_index=rng.integers(0, 400, n),
        execution_index=rng.integers(0, 100, n),
        powers_w={
            "total": rng.uniform(300.0, 700.0, n),
            "xcd": rng.uniform(100.0, 400.0, n),
            "iod": rng.uniform(50.0, 120.0, n),
            "hbm": rng.uniform(40.0, 90.0, n),
        },
    ).freeze()
    return FineGrainProfile(
        kernel_name="bench-100k",
        kind=ProfileKind.RUN,
        execution_time_s=1e-4,
        columns=columns,
    )


_CHILD_SCRIPT = """\
import pickle, sys
from pathlib import Path

# Imported in both modes so the interpreter footprint is identical.
from repro.experiments.sweep import _ColumnSpillUnpickler


def peak_rss_kb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


mode, path = sys.argv[1], Path(sys.argv[2])
# Imports dominate the process-lifetime peak, so reset the kernel's
# peak-RSS watermark: VmHWM then covers only the deserialization window.
with open("/proc/self/clear_refs", "w") as handle:
    handle.write("5\\n")
with path.open("rb") as handle:
    if mode == "plain":
        entry = pickle.load(handle)
    else:
        entry = _ColumnSpillUnpickler(handle, path.with_suffix(".npz")).load()
profile = entry["profile"]
assert profile.columns().time_s.shape[0] == 100_000
print(peak_rss_kb())
"""


def _deserializer_rss_kb(mode: str, path: Path) -> int:
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, mode, str(path)],
        capture_output=True,
        text=True,
        check=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    return int(completed.stdout.strip())


@pytest.mark.bench
def test_npz_spill_rss(tmp_path):
    """100k-point spill round trip is bit-identical and leaner to load."""
    profile = _large_profile()
    entry = {"profile": profile}

    plain_path = tmp_path / "entry-plain.pkl"
    with plain_path.open("wb") as handle:
        pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)

    spill_path = tmp_path / "entry-spill.pkl"
    with spill_path.open("wb") as handle:
        spilled = _write_entry(entry, handle, spill_points=4096)
    assert len(spilled) == 1, "the 100k-point columns never spilled"
    sidecar = spill_path.with_suffix(".npz")
    with sidecar.open("wb") as handle:
        _write_sidecar(spilled, handle)

    # Bit-identity: every array of the reloaded columns matches exactly.
    with spill_path.open("rb") as handle:
        reloaded = _ColumnSpillUnpickler(handle, sidecar).load()["profile"]
    mine, theirs = profile.columns(), reloaded.columns()
    assert mine.equals(theirs) and theirs.equals(mine)
    for name in ("time_s", "run_index", "execution_index"):
        assert getattr(mine, name).dtype == getattr(theirs, name).dtype
        assert np.array_equal(getattr(mine, name), getattr(theirs, name))
    for component in mine.powers_w:
        assert mine.powers_w[component].dtype == theirs.powers_w[component].dtype
        assert np.array_equal(mine.powers_w[component], theirs.powers_w[component])
    assert reloaded == profile

    plain_rss_kb = _deserializer_rss_kb("plain", plain_path)
    spill_rss_kb = _deserializer_rss_kb("spill", spill_path)

    plain_bytes = plain_path.stat().st_size
    spill_bytes = spill_path.stat().st_size + sidecar.stat().st_size
    print("\n=== 100k-point deserializer peak RSS: plain pickle vs NPZ spill ===")
    print(f"  plain pickle: {plain_bytes:>9,} B on disk, "
          f"peak RSS {plain_rss_kb:>7,} KB")
    print(f"  NPZ spill:    {spill_bytes:>9,} B on disk "
          f"(pickle {spill_path.stat().st_size:,} B + "
          f"sidecar {sidecar.stat().st_size:,} B), "
          f"peak RSS {spill_rss_kb:>7,} KB")
    print(f"  RSS saved:    {plain_rss_kb - spill_rss_kb:,} KB")

    _merge_payload_v2({"spill_100k": {
        "points": 100_000,
        "plain_pickle_bytes": plain_bytes,
        "spill_total_bytes": spill_bytes,
        "plain_peak_rss_kb": plain_rss_kb,
        "spill_peak_rss_kb": spill_rss_kb,
        "rss_saved_kb": plain_rss_kb - spill_rss_kb,
    }})
    assert spill_rss_kb < plain_rss_kb, (
        f"spill deserializer peak RSS {spill_rss_kb} KB not below the "
        f"in-memory pickle path {plain_rss_kb} KB"
    )
