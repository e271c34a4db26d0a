"""Analysis report assembly: the payload of every analysis command.

``analysis`` decides the facts that ``analyze`` and ``check`` share once
per system; ``build_analysis_report`` and ``build_check_report`` render
them, each next to the few facts only its command reads, and
``build_core_report`` and ``build_classify_report`` give the core trace
and the per-vector verdicts of ``core`` and ``classify``, all as plain
dicts with a fixed key order.  ``emit_report`` renders a dict as JSON (15
significant digits, byte-stable across runs); the ``text`` module holds
the human-readable views.  Every decided quantity carries the tolerance
it was decided under so a reader can reproduce the verdict.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import diagnostics  # executed by ``analysis`` alone: ``core`` and ``classify`` never run it
from .coreanalysis import CoreTrace, classify_vector, core, isolable_set
from .errors import InconsistentVerdict
from .frames import (
    WELCH_EQ_ABS,
    BoundsCard,
    TightnessVerdict,
    UnitVectorSystem,
    bounds_card,
    drop_one_spanning,
    etf_verdict,
    frame_operator,
    is_equiangular,
    reconstruct,
    spans,
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
    return {name: _num(value) for name, value in tol._asdict().items()}


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


class Analysis(NamedTuple):
    """The facts ``analyze`` and ``check`` both render, decided once per system.

    ``equiangular`` is (None, None) and ``etf`` None when m < 2.  ``etf`` is
    also None when the tight+equiangular and Welch-equality routes disagree;
    ``etf_disagreement`` then holds the disagreement message.
    """

    tightness: TightnessVerdict
    equiangular: tuple[bool | None, float | None]
    bounds: BoundsCard
    etf: bool | None
    etf_disagreement: str | None
    trace: CoreTrace
    neighbor_counts: tuple[tuple[str, str, str], ...]
    eigen_span: diagnostics.EigenSpanReport
    tight_n_plus_2: tuple[str, str, str]
    core_validation: diagnostics.CoreValidation


def analysis(system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL) -> Analysis:
    """Decide the shared facts of one system.

    Tightness, equiangularity, the bounds card and ``core`` run once; the
    ETF flag and the diagnostics read their verdicts (the neighbor sets and
    ranks of the core's) instead of deciding them again.  The coherence,
    the frame operator and its spectrum are computed once and kept on the
    system.
    """
    tight, card = tightness(system, tol), bounds_card(system)
    equiangular, etf, disagreement = (None, None), None, None
    if system.size >= 2:
        equiangular = is_equiangular(system, tol)
        try:
            etf = etf_verdict(tight, equiangular[0], card)
        except InconsistentVerdict as exc:
            disagreement = str(exc)
    trace = core(system, tol)
    return Analysis(
        tight, equiangular, card, etf, disagreement, trace,
        diagnostics.neighbor_count_report(trace, tight.tight, equiangular[0]),
        diagnostics.eigen_span_diagnostic(system, trace, tol),
        diagnostics.tight_grassmannian_diagnostic(system, tight),
        diagnostics.validate_core(system, trace, tol),
    )


def build_analysis_report(system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Full machine-readable analysis of one system (fixed key order).

    Renders ``analysis(system, tol)`` with the bounds, equiangularity,
    spectrum and drop-one spanning flags.  Level 0 of the core trace
    supplies ``vectors``.  When the two ETF routes disagree, ``etf`` is
    null and the disagreement is a warning.

    The report holds O(m n) numbers, and building it holds no m x m array:
    each vector's neighbor band is read from its own row V x_i.  Each entry
    of ``vectors`` lists its level-alpha ``neighbors`` with their ``signs``
    in the order the certificate weights use, so every certificate and
    witness can be checked from the input rows and the report alone.
    """
    m, n = system.size, system.dim
    facts = analysis(system, tol)
    warnings = list(system.warnings)
    if facts.etf_disagreement is not None:
        warnings.append(f"etf undecided: {facts.etf_disagreement}")

    card = facts.bounds
    spec = spectral_data(system)
    level0 = facts.trace.levels[0]

    drop_one, drop = None, ("drop_one_spanning", "SKIP", "needs m > n")
    if m > n:
        drop_one = list(drop_one_spanning(system, tol))
        ok = all(drop_one)
        detail = ("every single-vector deletion leaves a spanning set" if ok
                  else "some deletion breaks spanning")
        drop = diagnostics.check_row("drop_one_spanning", ok, detail)

    eig_span = facts.eigen_span
    return {
        "input": {
            "m": m,
            "n": n,
            "labels": list(system.labels) if system.labels else None,
        },
        "tolerances": tolerances_dict(tol),
        "coherence": _num(card.coherence),
        "bounds": {
            "welch": _num(card.welch),
            "orthoplex": _num(card.orthoplex),
            "gerzon_max_m": card.gerzon_max_m,
            "meets_welch": card.meets_welch,
            "exceeds_gerzon": card.exceeds_gerzon,
            "welch_check_abs": _num(WELCH_EQ_ABS),
        },
        "tightness": {
            "kind": facts.tightness.kind,
            "bound": _num(facts.tightness.bound),
            "max_deviation": _num(facts.tightness.deviation),
            "tolerance": _num(tol.eq_abs),
        },
        "equiangular": {
            "equiangular": facts.equiangular[0],
            "angle": _num(facts.equiangular[1]),
            "tolerance": _num(tol.neighbor_abs),
        },
        "etf": facts.etf,
        "spectrum": {
            "eigenvalues": _vec(spec.eigenvalues),
            "top_multiplicity": spec.top_multiplicity(tol.eq_abs),
        },
        "vectors": [verdict_dict(v) for v in level0.verdicts],
        "core": core_trace_dict(facts.trace),
        "diagnostics": {
            "drop_one_spanning": {
                "status": drop[1],
                "spans_after_single_removal": drop_one,
                "detail": drop[2],
                "tolerance": _num(tol.rank_rel),
            },
            "neighbor_counts": {
                "level": _num(level0.coherence),
                "counts": [v.neighbor_count for v in level0.verdicts],
                "checks": _checks(facts.neighbor_counts),
                "tolerance": _num(tol.neighbor_abs),
            },
            "eigen_span": {
                "status": eig_span.status,
                "multiplicity": eig_span.multiplicity,
                "distances": [list(map(round15, d)) for d in eig_span.distances],
                "detail": eig_span.detail,
                "tolerance": _num(diagnostics.EIGEN_SPAN_ABS),
            },
            "tight_grassmannian": _checks([facts.tight_n_plus_2])[0],
            "core_validation": {"checks": _checks(facts.core_validation.checks)},
        },
        "warnings": warnings + list(level0.warnings),
    }


def build_check_report(system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL) -> dict:
    """Invariant suite for one system; FAIL entries make ``check`` exit 4.

    Renders ``analysis(system, tol)`` as checks, next to the ones only
    ``check`` runs: unit norms, the trace of S, and the Welch inequality
    and reconstruction identity on spanning systems.
    """
    m, n = system.size, system.dim
    facts = analysis(system, tol)
    spanning = spans(system, tol=tol)
    checks: list[tuple[str, str, str]] = []
    add, row = checks.append, diagnostics.check_row

    warned = f" ({'; '.join(system.warnings)})" if system.warnings else ""
    add(("unit_norms", "PASS", "validated on load" + warned))
    trace_val = float(np.trace(frame_operator(system)))
    detail = f"trace = {trace_val!r}, expected m = {m} within 1e-8*m"
    add(row("frame_operator_trace", abs(trace_val - m) <= 1e-8 * m, detail, None))
    if m > n and spanning:
        alpha, w = facts.bounds.coherence, facts.bounds.welch
        detail = f"coherence {alpha!r} vs welch {w!r} (slack 1e-9)"
        add(row("welch_inequality", alpha >= w - 1e-9, detail, None))
    else:
        add(("welch_inequality", "SKIP", "needs m > n and a spanning system"))
    tight = facts.tightness
    add(("tightness", "PASS", f"{tight.kind}; max deviation from (m/n) I is {tight.deviation!r}"))
    if m < 2:
        add(("etf_route_consistency", "SKIP", "needs m >= 2"))
    else:
        agree = facts.etf_disagreement is None
        detail = f"both routes agree: etf = {facts.etf}" if agree else facts.etf_disagreement
        add(row("etf_route_consistency", agree, detail, None))
    checks += [(f"neighbor_counts.{c[0]}", *c[1:]) for c in facts.neighbor_counts]
    if spanning:
        target = np.zeros(n)
        target[0] = 1.0
        err = float(np.linalg.norm(reconstruct(system, target, tol) - target))
        detail = f"||reconstruct(e1) - e1|| = {err:.3e} (tolerance 1e-7)"
        add(row("reconstruction_identity", err <= 1e-7, detail, None))
    else:
        add(("reconstruction_identity", "SKIP", "system does not span"))
    add(("eigen_span", facts.eigen_span.status, facts.eigen_span.detail))
    add(facts.tight_n_plus_2)
    checks += [(f"core_validation.{c[0]}", *c[1:]) for c in facts.core_validation.checks]

    return {
        "tolerances": tolerances_dict(tol),
        "checks": _checks(checks),
        "failed": sum(status == "FAIL" for _, status, _ in checks),
    }


def build_core_report(system: UnitVectorSystem, tol: Tolerances) -> dict:
    """The core trace of ``core(system, tol)``, after the tolerances it ran under."""
    return {"tolerances": tolerances_dict(tol), **core_trace_dict(core(system, tol))}


def build_classify_report(system: UnitVectorSystem, tol: Tolerances, index=None) -> dict:
    """The verdicts of level 0 of the core trace, or of vector ``index`` alone."""
    verdicts = (isolable_set(system, tol).verdicts if index is None
                else [classify_vector(system, index, tol)])
    return {"tolerances": tolerances_dict(tol), "verdicts": [verdict_dict(v) for v in verdicts]}


def emit_report(report: dict) -> str:
    """Render a report dict as stable JSON; the ``text`` module renders the text views."""
    return emit_json(report)
