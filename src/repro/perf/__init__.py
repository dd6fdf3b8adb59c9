"""Performance modeling: work profiles, porting specs, prediction, reports."""

from .. import _compat

__all__ = [
    "AppProfile", "CommPhase", "PaperTable", "PerfResult",
    "PerformanceModel", "PhasePort", "PhaseTime", "PortingSpec",
    "WorkPhase", "default_porting", "parallel_efficiency", "pct_of_peak",
    "per_proc_speedup", "perturbed", "predict_on",
    "render_speedup_table", "sweep", "Finding",
]

__getattr__, __dir__ = _compat.lazy_exports(__name__, {
    "metrics": ("parallel_efficiency", "pct_of_peak", "per_proc_speedup"),
    "model": ("PerformanceModel", "PerfResult", "PhaseTime", "predict_on"),
    "porting": ("PhasePort", "PortingSpec", "default_porting"),
    "report": ("PaperTable", "render_speedup_table"),
    "sensitivity": ("Finding", "perturbed", "sweep"),
    "work": ("AppProfile", "CommPhase", "WorkPhase"),
})
