"""Coherence analysis and core extraction for finite unit-norm frames.

The public names are resolved on first access (PEP 562), so importing the
package, or one of its submodules, executes only the submodules that are
used.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_HOMES = {
    "constructions": (
        "AngleCatalogEntry",
        "angle_catalog",
        "catalog_consistency",
        "circular_frame",
        "double",
        "mub_r2",
        "naimark_complement",
        "simplex_etf",
        "six_in_r4",
        "tight_completion",
    ),
    "coreanalysis": (
        "CoreTrace",
        "VectorVerdict",
        "classify_n_plus_2",
        "classify_vector",
        "core",
        "eigen_span_diagnostic",
        "isolable_set",
        "neighbor_count_report",
        "perturb_replace",
        "tight_grassmannian_diagnostic",
        "validate_core",
    ),
    "frames": (
        "BoundsCard",
        "GramMatrix",
        "NeighborSet",
        "UnitVectorSystem",
        "bounds_card",
        "drop_one_spanning",
        "frame_operator",
        "gram",
        "is_equiangular",
        "is_etf",
        "neighbors",
        "reconstruct",
        "spans",
        "spectral_data",
        "tightness",
        "welch_bound",
    ),
    "frameio": ("emit_frame", "parse_frame"),
    "numerics": (
        "ConeResult",
        "SpectralData",
        "Tolerances",
        "min_norm_point",
        "nnls_cone_feasible",
        "orthonormal_complement",
        "rank_of",
        "row_space",
        "sym_eig",
    ),
    "report": ("build_analysis_report", "build_check_report", "emit_report"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
