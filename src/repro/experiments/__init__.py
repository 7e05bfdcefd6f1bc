"""One driver per paper table/figure, plus ablations and the sweep engine.

Each module exposes ``run_<experiment>()`` returning a result object with the
rows/series the paper reports and boolean checks for the paper's qualitative
claims.  Drivers register their per-kernel profiling work as
:class:`~repro.experiments.sweep.ProfileJob` specs, so a
:class:`~repro.experiments.sweep.SweepRunner` can fan the whole suite out
across a process pool (``python -m repro.experiments.sweep --all``); the
matching benchmark under ``benchmarks/`` calls the driver and prints the
regenerated table/figure data.

The exported names load on first access (PEP 562), so importing one driver
or running ``python -m repro.experiments.sweep`` does not import the rest.
"""

import importlib

#: Submodule -> the names this package re-exports from it.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "ablations": (
        "BinningMarginSweep",
        "CoarseCoverageResult",
        "DriftSensitivityResult",
        "SamplerAblationResult",
        "run_binning_margin_sweep",
        "run_coarse_coverage",
        "run_drift_sensitivity",
        "run_sampler_ablation",
    ),
    "common": (
        "FAST_SCALE",
        "PAPER_SCALE",
        "TINY_SCALE",
        "ExperimentScale",
        "default_scale",
        "scale_by_name",
        "power_sample_period_s",
        "make_backend",
        "make_profiler",
    ),
    "fig5": ("Fig5Result", "run_fig5"),
    "fig6": ("Fig6Result", "run_fig6"),
    "fig7": ("Fig7Result", "run_fig7"),
    "fig8": ("Fig8Result", "run_fig8"),
    "fig9": ("Fig9Result", "run_fig9"),
    "fig10": ("Fig10Result", "run_fig10"),
    "sweep": (
        "EXPERIMENT_NAMES",
        "JobFailure",
        "KernelSpec",
        "ProfileJob",
        "SweepConfig",
        "SweepJobError",
        "SweepManifest",
        "SweepRunner",
        "configured_adaptive",
        "default_runner",
        "execute_job",
        "kernel_spec",
        "run_jobs",
        "run_sweep",
    ),
    "table1": ("Table1Result", "run_table1"),
    "table2": ("Table2Result", "run_table2"),
}

_SOURCE: dict[str, str] = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = list(_SOURCE)


def __getattr__(name: str) -> object:
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
