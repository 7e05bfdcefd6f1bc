"""Shared configuration for the benchmark harnesses.

Each benchmark regenerates one paper table or figure: it runs the matching
experiment driver (at the scale selected by ``FINGRAV_SCALE``, default
``fast``), prints the regenerated rows/series so they can be compared against
the paper, asserts the paper's qualitative claims, and uses pytest-benchmark
to time a representative step.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The scalar oracles (tests/loi_oracles.py) that the profiler benchmarks pin
# the columnar pipeline against live with the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.core.report import comparative_report
from repro.experiments import default_scale


@pytest.fixture(scope="session")
def scale():
    """Experiment scale shared by every benchmark (env: FINGRAV_SCALE)."""
    selected = default_scale()
    print(f"\n[fingrav] benchmark scale: {selected.name}")
    return selected


def print_rows(title: str, rows) -> None:
    """Print a regenerated table with a recognisable banner."""
    print(f"\n=== {title} ===")
    if rows:
        print(comparative_report(rows))
    else:
        print("(no rows)")
