"""Analysis report assembly and rendering.

``build_analysis_report`` runs the whole pipeline on one system and packs
the results into a plain dict with a fixed key order; ``emit_report``
renders it as JSON (15 significant digits, byte-stable across runs) or as
human-readable text.  Every decided quantity carries the tolerance it was
decided under so a reader can reproduce the verdict.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .coreanalysis import (
    EIGEN_SPAN_ABS,
    CoreTrace,
    core,
    eigen_span_diagnostic,
    neighbor_count_report,
    tight_grassmannian_diagnostic,
    validate_core,
)
from .errors import InconsistentVerdict
from .frames import (
    WELCH_EQ_ABS,
    UnitVectorSystem,
    bounds_card,
    drop_one_spanning,
    gram,
    is_equiangular,
    is_etf,
    spectral_data,
    tightness,
)
from .frameio import emit_json, round15
from .numerics import DEFAULT_TOL, Tolerances


def _num(x):
    if x is None:
        return None
    return round15(float(x))


def _vec(arr):
    if arr is None:
        return None
    return [round15(float(v)) for v in np.asarray(arr).ravel()]


def _checks(checks) -> list[dict]:
    return [{"name": n, "status": s, "detail": d} for n, s, d in checks]


def tolerances_dict(tol: Tolerances) -> dict:
    return {name: _num(value) for name, value in asdict(tol).items()}


def core_trace_dict(trace: CoreTrace) -> dict:
    return {
        "levels": [
            {
                "members": list(level.members),
                "removed": list(level.removed),
                "coherence": _num(level.coherence),
            }
            for level in trace.levels
        ],
        "core": list(trace.core),
        "warnings": list(trace.warnings),
    }


def verdict_dict(verdict) -> dict:
    return {
        "index": verdict.index,
        "status": verdict.status,
        "neighbor_count": verdict.neighbor_count,
        "neighbor_rank": verdict.neighbor_rank,
        "neighbors": list(verdict.neighbors),
        "signs": [int(s) for s in verdict.signs],
        "witness": _vec(verdict.witness),
        "certificate": _vec(verdict.certificate),
        "warnings": list(verdict.warnings),
    }


def build_analysis_report(
    system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL
) -> dict:
    """Full machine-readable analysis of one system (fixed key order).

    Each stage runs once: the Gram matrix, the frame operator and its
    spectrum are computed once and kept on the system, and ``core`` runs
    once.  Its level 0 supplies ``vectors``, and the neighbor-count,
    eigen-span and core-validation diagnostics read the neighbor sets and
    ranks of its verdicts instead of recomputing them.  When the two ETF
    routes disagree, ``etf`` is null and the disagreement is a warning.

    The report holds O(m n) numbers, not the m x m Gram matrix (that is
    ``gram(system)``): each entry of ``vectors`` lists its level-alpha
    ``neighbors`` with their ``signs`` in the order the certificate
    weights use, so every certificate and witness can be checked from the
    input rows and the report alone.
    """
    m, n = system.size, system.dim
    warnings = list(system.warnings)

    card = bounds_card(system, tol)
    tight = tightness(system, tol)
    spec = spectral_data(system)

    if m >= 2:
        equi_flag, equi_angle = is_equiangular(system, tol)
        try:
            etf_flag = is_etf(system, tol)
        except InconsistentVerdict as exc:
            etf_flag = None
            warnings.append(f"etf undecided: {exc}")
    else:
        equi_flag, equi_angle, etf_flag = None, None, None

    trace = core(system, tol)
    level0 = trace.levels[0].isolable
    core_checks = validate_core(system, trace, tol)

    if m > n:
        drop_one = list(drop_one_spanning(system, tol))
        drop_status = "PASS" if all(drop_one) else "FAIL"
        drop_detail = (
            "every single-vector deletion leaves a spanning set"
            if all(drop_one)
            else "some deletion breaks spanning; evidence input is not Grassmannian"
        )
    else:
        drop_one = None
        drop_status = "SKIP"
        drop_detail = "needs m > n"

    counts = neighbor_count_report(system, trace, tol)
    eig_span = eigen_span_diagnostic(system, trace, tol)
    tight_diag = tight_grassmannian_diagnostic(system, tol)

    report = {
        "input": {
            "m": m,
            "n": n,
            "labels": list(system.labels) if system.labels else None,
        },
        "tolerances": tolerances_dict(tol),
        "coherence": _num(gram(system).coherence),
        "bounds": {
            "welch": _num(card.welch),
            "orthoplex": _num(card.orthoplex),
            "gerzon_max_m": card.gerzon_max_m,
            "meets_welch": card.meets_welch,
            "exceeds_gerzon": card.exceeds_gerzon,
            "welch_check_abs": _num(WELCH_EQ_ABS),
        },
        "tightness": {
            "kind": tight.kind,
            "bound": _num(tight.bound),
            "max_deviation": _num(tight.deviation),
            "tolerance": _num(tol.eq_abs),
        },
        "equiangular": {
            "equiangular": equi_flag,
            "angle": _num(equi_angle),
            "tolerance": _num(tol.neighbor_abs),
        },
        "etf": etf_flag,
        "spectrum": {
            "eigenvalues": _vec(spec.eigenvalues),
            "top_multiplicity": spec.top_multiplicity(tol.eq_abs),
        },
        "vectors": [verdict_dict(v) for v in level0.verdicts],
        "core": core_trace_dict(trace),
        "diagnostics": {
            "drop_one_spanning": {
                "status": drop_status,
                "spans_after_single_removal": drop_one,
                "detail": drop_detail,
                "tolerance": _num(tol.rank_rel),
            },
            "neighbor_counts": {
                "level": _num(counts.level),
                "counts": list(counts.counts),
                "checks": _checks(counts.checks),
                "tolerance": _num(tol.neighbor_abs),
            },
            "eigen_span": {
                "status": eig_span.status,
                "multiplicity": eig_span.multiplicity,
                "distances": [list(map(round15, d)) for d in eig_span.distances],
                "detail": eig_span.detail,
                "tolerance": _num(EIGEN_SPAN_ABS),
            },
            "tight_grassmannian": asdict(tight_diag),
            "core_validation": {"checks": _checks(core_checks.checks)},
        },
        "warnings": warnings + list(level0.warnings),
    }
    return report


def emit_report(report: dict, fmt: str = "json") -> str:
    """Render a report dict as JSON (stable) or readable text."""
    if fmt == "json":
        return emit_json(report)
    if fmt == "text":
        return render_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def render_text(report: dict) -> str:
    """Human-readable rendering of an analysis report.

    Summary lines for each block of the report and one line per vector
    verdict (status, neighbor count and rank); neighbor lists, witnesses
    and certificates are left to the JSON report.
    """
    lines = []
    inp = report["input"]
    lines.append(f"system: {inp['m']} unit vectors in R^{inp['n']}")
    lines.append(f"coherence: {_fmt_value(report['coherence'])}")
    b = report["bounds"]
    lines.append(
        "bounds: welch=" + _fmt_value(b["welch"])
        + " orthoplex=" + _fmt_value(b["orthoplex"])
        + " gerzon_max_m=" + _fmt_value(b["gerzon_max_m"])
        + " meets_welch=" + _fmt_value(b["meets_welch"])
    )
    t = report["tightness"]
    lines.append(
        f"tightness: {t['kind']} (bound={_fmt_value(t['bound'])}, "
        f"max deviation={_fmt_value(t['max_deviation'])})"
    )
    e = report["equiangular"]
    lines.append(
        f"equiangular: {_fmt_value(e['equiangular'])} (angle={_fmt_value(e['angle'])})"
    )
    lines.append(f"etf: {_fmt_value(report['etf'])}")
    s = report["spectrum"]
    eigs = " ".join(_fmt_value(x) for x in s["eigenvalues"])
    lines.append(f"spectrum: [{eigs}] top multiplicity {s['top_multiplicity']}")
    lines.append("vectors:")
    for v in report["vectors"]:
        lines.append(
            f"  [{v['index']}] {v['status']} "
            f"(neighbors={v['neighbor_count']}, neighbor_rank={v['neighbor_rank']})"
        )
        for w in v["warnings"]:
            lines.append(f"      warning: {w}")
    c = report["core"]
    lines.append("core trace:")
    for k, level in enumerate(c["levels"]):
        lines.append(
            f"  level {k}: members={level['members']} removed={level['removed']} "
            f"coherence={_fmt_value(level['coherence'])}"
        )
    lines.append(f"core: {c['core']}")
    lines.append("diagnostics:")
    d = report["diagnostics"]
    lines.append(
        f"  drop_one_spanning: {d['drop_one_spanning']['status']} "
        f"({d['drop_one_spanning']['detail']})"
    )
    nc = d["neighbor_counts"]
    lines.append(f"  neighbor_counts at {_fmt_value(nc['level'])}: {nc['counts']}")
    for chk in nc["checks"]:
        lines.append(f"      {chk['name']}: {chk['status']} ({chk['detail']})")
    lines.append(
        f"  eigen_span: {d['eigen_span']['status']} ({d['eigen_span']['detail']})"
    )
    tg = d["tight_grassmannian"]
    lines.append(f"  tight_grassmannian: {tg['status']} ({tg['detail']})")
    for chk in d["core_validation"]["checks"]:
        lines.append(f"  core_validation {chk['name']}: {chk['status']} ({chk['detail']})")
    if report["warnings"]:
        lines.append("warnings:")
        for w in report["warnings"]:
            lines.append(f"  {w}")
    return "\n".join(lines) + "\n"
