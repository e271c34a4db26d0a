"""Diagnostics of a core trace: what a coherence minimizer's core must satisfy.

``core`` peels the isolable vectors off at the packing angle.  Every check
here is a function of the trace it returns plus the frame-level verdicts
the trace cannot supply (tightness, the spectrum); none classifies again or
reads a row V x_i.  ``validate_core`` checks the core's size and spanning
neighbor sets, ``classify_n_plus_2`` the n+2 dichotomy,
``tight_grassmannian_diagnostic`` that no tight minimizer of n + 2 vectors
exists for n > 2, ``eigen_span_diagnostic`` where the top frame-operator
eigenvector lies, and ``neighbor_count_report`` the parity of the neighbor
counts of tight frames.  Every PASS/FAIL row comes from ``check_row``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coreanalysis import NOT_GRASSMANNIAN, CoreTrace
from .frames import TightnessVerdict, UnitVectorSystem, spectral_data
from .numerics import DEFAULT_TOL, Tolerances, row_space

# eigen_span_diagnostic passes when every distance is at or below this.
EIGEN_SPAN_ABS = 1e-7


def check_row(
    name: str, ok: bool, detail: str, failure: str | None = NOT_GRASSMANNIAN
) -> tuple[str, str, str]:
    """One ``(name, status, detail)`` check row: PASS, or FAIL with ``failure``.

    A failed row's detail is ``f"{detail}; {failure}"``, or ``detail``
    alone when ``failure`` is None.
    """
    if ok:
        return (name, "PASS", detail)
    return (name, "FAIL", detail if failure is None else f"{detail}; {failure}")


def validate_core(
    system: UnitVectorSystem, trace: CoreTrace, tol: Tolerances = DEFAULT_TOL
) -> tuple[tuple[str, str, str], ...]:
    """The ``(name, status, detail)`` rows of the core of a genuine minimizer.

    At coherence zero the core must be the whole system and the spanning
    check is skipped.  Otherwise the core must have at least n + 1 members
    and each member's neighbors *within the core* must span R^n.  Those
    neighbor sets and ranks are read from the verdicts of the trace's last
    level, which classified the core's own subsystem at the core's
    coherence and name input rows, so ``trace`` must come from
    ``core(system, tol)``.  When that coherence is more than
    ``neighbor_abs`` below level 0's, the system's packing angle, the
    passing spanning row names both values instead of claiming it.
    Failures are labeled ``NOT_GRASSMANNIAN`` (an empty core fails the
    spanning row unlabeled); they never raise.
    """
    n, alpha0 = system.dim, trace.levels[0].coherence
    if alpha0 <= tol.neighbor_abs:
        full = trace.core == tuple(range(system.size))
        return (
            check_row("orthogonal_case_full_core", full,
                      "coherence is zero, so the core must be the whole system"),
            ("core_neighbors_span", "SKIP", "spanning check skipped at coherence zero"),
        )
    size = check_row("core_size_at_least_n_plus_1", len(trace.core) >= n + 1,
                     f"|core| = {len(trace.core)}, n + 1 = {n + 1}")
    if not trace.core:
        span = check_row("core_neighbors_span", False, "core is empty", failure=None)
        return (size, span)
    final = trace.levels[-1]
    failures = [v.index for v in final.verdicts if v.neighbor_rank < n]
    at = "at the packing angle"
    if abs(final.coherence - alpha0) > tol.neighbor_abs:
        at = f"at the core's coherence {final.coherence:.15g}, below the packing angle {alpha0:.15g}"
    detail = (f"core vectors {failures} lack spanning neighbor sets" if failures
              else f"every core vector meets a spanning family {at}")
    return (size, check_row("core_neighbors_span", not failures, detail))


FULL_CORE = "full_core"
EQUIANGULAR_SUBSET = "equiangular_subset"
INAPPLICABLE = "inapplicable"
INCONCLUSIVE = "inconclusive"


class DichotomyVerdict(NamedTuple):
    """Outcome of the n+2 dichotomy: full core or an equiangular n+1 subset."""

    kind: str
    indices: tuple[int, ...] | None
    warnings: tuple[str, ...]


def classify_n_plus_2(system: UnitVectorSystem, trace: CoreTrace) -> DichotomyVerdict:
    """For m = n + 2: either the core is everything or an equiangular n+1 set.

    Inapplicable unless m = n + 2.  ``trace`` is ``core(system, tol)``: an
    n + 1 core is equiangular when each member's neighbors in
    ``trace.levels[0]`` hold the other n.  Any other outcome is
    inconclusive with a not-a-minimizer warning.
    """
    m, n = system.size, system.dim
    if m != n + 2:
        return DichotomyVerdict(INAPPLICABLE, None, (f"m = {m} is not n + 2 = {n + 2}",))
    if trace.core == tuple(range(m)):
        return DichotomyVerdict(FULL_CORE, trace.core, trace.warnings)
    if len(trace.core) == n + 1:
        members, verdicts = set(trace.core), trace.levels[0].verdicts
        if all(members - {j} <= set(verdicts[j].neighbors) for j in trace.core):
            return DichotomyVerdict(EQUIANGULAR_SUBSET, trace.core, trace.warnings)
        reason = "core has n + 1 vectors but is not equiangular at the coherence"
    else:
        reason = f"core size {len(trace.core)} matches neither branch"
    warning = f"{reason}; {NOT_GRASSMANNIAN}"
    return DichotomyVerdict(INCONCLUSIVE, trace.core, trace.warnings + (warning,))


def tight_grassmannian_diagnostic(
    system: UnitVectorSystem, tightness_verdict: TightnessVerdict
) -> tuple[str, str, str]:
    """No tight coherence minimizer of n + 2 vectors exists for n > 2.

    Returns one ``(name, status, detail)`` check row: PASS when
    ``tightness_verdict`` (``tightness(system, tol)``) is tight with
    m = n + 2 and n > 2 (so the input is certainly not a minimizer), SKIP
    otherwise.
    """
    name = "tight_n_plus_2_forbidden"
    m, n = system.size, system.dim
    if m != n + 2:
        return (name, "SKIP", f"m = {m} is not n + 2")
    if n <= 2:
        return (name, "SKIP", "only applies for n > 2")
    if not tightness_verdict.tight:
        return (name, "SKIP", "system is not tight")
    return (
        name,
        "PASS",
        "tight with m = n + 2 and n > 2, hence certainly not a coherence minimizer",
    )


class EigenSpanReport(NamedTuple):
    """Distances from top frame-operator eigenvectors to span({x} u neighbors)."""

    status: str
    multiplicity: int
    distances: tuple[tuple[float, ...], ...]
    detail: str


def eigen_span_diagnostic(
    system: UnitVectorSystem, trace: CoreTrace, tol: Tolerances = DEFAULT_TOL
) -> EigenSpanReport:
    """Check that the top eigenvector lies in span({x} union neighbors of x).

    Holds for coherence minimizers whose top eigenvalue is extremal; with a
    degenerate top eigenvalue the statement picks one particular
    eigenvector, so the check reports distances for each candidate and is
    labeled AMBIGUOUS instead of pass/fail.  Each vector's neighbors and
    their rank are read from level 0 of ``trace`` (``core(system, tol)``):
    when the neighbors span R^n the distance is exactly 0.0, a vector with
    no neighbors is at distance ||e - <x, e> x||, computed for all such
    vectors at once, and only the other vectors get an SVD of {x} union
    neighbors.
    """
    m, n = system.size, system.dim
    if m <= n:
        return EigenSpanReport("SKIP", 0, (), "needs m > n")
    spec = spectral_data(system)
    k = spec.top_multiplicity(tol.eq_abs)
    top = spec.eigenvectors[:, :k]
    verdicts = trace.levels[0].verdicts
    lone = [v.index for v in verdicts if not v.neighbors]
    X = system.vectors[lone]
    # (vectors, k, n): each top eigenvector minus its projection onto each x
    lone_distances = np.linalg.norm(top.T - (X @ top)[:, :, None] * X[:, None, :], axis=2)
    lone_rows = iter(lone_distances.tolist())
    per_vector: list[tuple[float, ...]] = []
    for v in verdicts:
        if v.neighbor_rank == n:
            per_vector.append((0.0,) * k)
        elif not v.neighbors:
            per_vector.append(tuple(next(lone_rows)))
        else:
            basis = row_space(system.vectors[[v.index] + list(v.neighbors)], tol)[0]
            per_vector.append(tuple(np.linalg.norm(top - basis.T @ (basis @ top), axis=0).tolist()))
    if k > 1:
        why = "top eigenvalue is degenerate; the property is stated for one specific eigenvector"
        return EigenSpanReport("AMBIGUOUS", k, tuple(per_vector), why)
    worst = max(d[0] for d in per_vector)
    row = check_row("eigen_span", worst <= EIGEN_SPAN_ABS, f"max distance {worst:.3e}")
    return EigenSpanReport(row[1], k, tuple(per_vector), row[2])


def neighbor_count_report(trace: CoreTrace, tight: bool) -> tuple[tuple[str, str, str], ...]:
    """Parity checks on the counts |x_X^alpha| at alpha = coherence.

    Level 0 of ``trace`` (``core(system, tol)``) supplies m and the counts,
    its verdicts' ``neighbor_count``s; ``tight`` is the system's decided
    flag.  The system is equiangular when the least count is m - 1.  Unless
    it is tight and not equiangular (with m >= 2) the one row is a SKIP.  Otherwise every count
    must be <= m - 2, and for odd m some count must be <= m - 3; those facts
    hold for any tight unit-norm frame, so a FAIL says the input or the
    tolerances are inconsistent, not that the input is not Grassmannian.
    """
    level0 = trace.levels[0]
    m = len(level0.members)
    counts = [v.neighbor_count for v in level0.verdicts]
    if m < 2 or not tight or min(counts) == m - 1:
        return (("tight_nonequiangular_counts", "SKIP", "applies to tight non-ETF systems only"),)
    top, low = max(counts), min(counts)
    fits, parity = top <= m - 2, low <= m - 3
    rows = (check_row(
        "max_count_le_m_minus_2", fits,
        f"max count {top} <= {m - 2}" if fits else f"max count {top} > {m - 2}: "
        "tight non-equiangular systems cannot have a full neighbor set",
        "input or tolerances are inconsistent",
    ),)
    if m % 2 == 1:
        rows += (check_row(
            "odd_m_some_count_le_m_minus_3", parity,
            f"min count {low} <= {m - 3}" if parity else f"all counts exceed {m - 3} with odd m",
            "Gram parity is violated",
        ),)
    return rows
