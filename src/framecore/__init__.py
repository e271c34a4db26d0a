"""Coherence analysis and core extraction for finite unit-norm frames.

Importing the package registers every submodule but ``cli`` in
``sys.modules`` and on the package, each executed on its first attribute
access (``LazyLoader``), and resolves public names through them on first
access (PEP 562): only the submodules that are used execute.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# public name -> submodule that defines it
_HOMES = {
    "angles": ("AngleCatalogEntry", "angle_catalog", "catalog_consistency"),
    "constructions": (
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
        "classify_vector",
        "core",
        "isolable_set",
        "perturb_replace",
    ),
    "diagnostics": (
        "classify_n_plus_2",
        "eigen_span_diagnostic",
        "neighbor_count_report",
        "tight_grassmannian_diagnostic",
        "validate_core",
    ),
    "frames": (
        "BoundsCard",
        "GramMatrix",
        "NeighborSet",
        "UnitVectorSystem",
        "bounds_card",
        "coherence",
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
    "frameio": ("emit_frame", "parse_frame", "write_frame"),
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


def _register_lazily(names) -> None:
    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


# ``cli`` stays a plain module: ``python -m framecore.cli`` warns when the
# module it runs is already in ``sys.modules``.
_register_lazily((*_HOMES, "errors", "text"))


def __getattr__(name: str):
    try:
        module = globals()[_HOME[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
