"""Per-vector isolability classification and core extraction.

A vector x of a system with coherence alpha is *isolated* when it meets
every other vector strictly below alpha, *isolable* when arbitrarily small
unit perturbations can make it isolated, and *deficient* when its
level-alpha neighbors fail to span R^n (deficient implies isolable).  The
decision procedure used here works in the tangent space at x: with
u_y = Proj_{x-perp}(sign(<x,y>) y) for each neighbor y, x is isolable
exactly when some nonzero w orthogonal to x has <w, u_y> <= 0 for all y,
i.e. when the u_y fail to positively span the tangent space.  When the
neighbors span R^n the u_y span x-perp, and then they positively span it
iff -sum_y u_y lies in their cone (Regis 2016), so one NNLS query decides:
a feasible query gives strictly positive weights with sum_y lambda_y u_y = 0
(not isolable), and an infeasible one gives its residual as w.  Every
isolable verdict is validated constructively by actually building the
perturbed vector and checking that the coherence level strictly drops.

Iterating "remove all isolable vectors" until nothing changes yields the
core: a subsystem with no isolable vectors that, for inputs that truly
minimize coherence, has at least n + 1 vectors each meeting a spanning
family at the packing angle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    IterationLimit,
    NonFinite,
    SearchFailed,
    ShapeError,
    ValidationError,
    VerificationError,
)
from .frames import (
    NeighborSet,
    TightnessVerdict,
    UnitVectorSystem,
    _band,
    coherence,
    neighbors,
    spectral_data,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    nnls_cone_feasible,
    row_space,
)

ISOLATED = "isolated"
DEFICIENT_ISOLABLE = "deficient_isolable"
ISOLABLE = "isolable"
NOT_ISOLABLE = "not_isolable"
INDETERMINATE = "indeterminate"

ISOLABLE_STATUSES = (ISOLATED, DEFICIENT_ISOLABLE, ISOLABLE)

# eigen_span_diagnostic passes when every distance is at or below this.
EIGEN_SPAN_ABS = 1e-7

# What a failed necessary condition of a coherence minimizer is evidence of.
NOT_GRASSMANNIAN = "evidence input is not Grassmannian"


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


class VectorVerdict(NamedTuple):
    """Classification of one vector with its witness or certificate.

    ``neighbors`` are the indices y of the vector's level-alpha neighbors
    and ``signs`` the signs s_y of <x, y>, in the order of
    ``frames.neighbors``; u_y = s_y y - s_y <x, y> x is the projected
    signed neighbor.  ``witness`` (isolable statuses) is a unit direction
    orthogonal to the vector along which perturbation strictly lowers all
    its inner products below the coherence.  ``certificate`` (not-isolable,
    cone stage) holds one weight lambda_y >= 1 per neighbor, indexed like
    ``neighbors``, with ||sum_y lambda_y u_y|| <= hull_abs, i.e. a
    positive-spanning certificate.
    """

    index: int
    status: str
    witness: np.ndarray | None = None
    certificate: np.ndarray | None = None
    neighbors: tuple[int, ...] = ()
    signs: tuple[float, ...] = ()
    neighbor_rank: int = 0
    warnings: tuple[str, ...] = ()

    @property
    def isolable(self) -> bool:
        return self.status in ISOLABLE_STATUSES

    @property
    def neighbor_count(self) -> int:
        return len(self.neighbors)


def _perturb_search(
    system: UnitVectorSystem, nb: NeighborSet, witness: np.ndarray
) -> np.ndarray:
    """Halving search for eps with |<x', y>| < alpha - margin for every other y.

    alpha and x are ``nb.level`` and row ``nb.owner``; x' = (x + eps w)/||x + eps w||,
    margin = max(1e-12, 1e-6 alpha).  Starts at eps0 = min(1/2, (alpha -
    ``nb.below_band``)/2) and halves at most 60 times; x's own row counts as -inf.
    """
    alpha, x = nb.level, system.vectors[nb.owner]
    margin = max(1e-12, 1e-6 * alpha)
    eps = min(0.5, (alpha - nb.below_band) / 2.0)
    for _ in range(60):
        cand = x + eps * witness
        cand = cand / np.linalg.norm(cand)
        prods = np.abs(system.vectors @ cand)
        prods[nb.owner] = -np.inf
        if float(prods.max()) < alpha - margin:
            return cand
        eps *= 0.5
    raise SearchFailed(
        f"no eps in 60 halvings gave all inner products below {alpha} - {margin}"
    )


def _tangent_neighbors(system: UnitVectorSystem, i: int, nb: NeighborSet, row) -> np.ndarray:
    """Projected signed neighbors u_y = Proj_{x-perp}(s_y y), one row each.

    <x, y> is read from ``row``, the row V x_i that the band ``nb`` was read from.
    """
    V, idx = system.vectors, list(nb.indices)
    s = np.asarray(nb.signs, dtype=float)
    return s[:, None] * V[idx] - (s * row[idx])[:, None] * V[i]


def _deficiency_witness(x: np.ndarray, complement: np.ndarray) -> np.ndarray:
    """Isolating direction for a deficient vector x, projected to x-perp.

    ``complement`` is an orthonormal basis of the complement of the
    neighbor span.  Picks z in it with <x, z> >= 0 (the component of x
    outside the span when present, otherwise the first complement row) and
    returns the normalized tangent part of z.  The tangent part satisfies
    <w, u_y> = -alpha <x, z> <= 0 for every neighbor, so it is a valid
    isolating direction.
    """
    coeffs = complement @ x
    outside = complement.T @ coeffs
    if float(np.linalg.norm(outside)) > 1e-9:
        z = outside / np.linalg.norm(outside)
    else:
        z = complement[0]
    if float(z @ x) < 0.0:
        z = -z
    w = z - (z @ x) * x
    norm = float(np.linalg.norm(w))
    if norm <= 1e-12:
        # Unreachable: z is orthogonal to each neighbor y, so ||w|| >= |<x, y>|,
        # which is within neighbor_abs of alpha > neighbor_abs.
        raise VerificationError("no tangent deficiency direction found")
    return w / norm


def classify_vector(
    system: UnitVectorSystem, i: int, tol: Tolerances = DEFAULT_TOL
) -> VectorVerdict:
    """Classify vector i as isolated / deficient / isolable / not isolable.

    Reads vector i's ``neighbors`` record at the coherence alpha; its near
    ties become tolerance-sensitivity warnings.  At alpha <= neighbor_abs
    nothing is isolable (orthonormal systems and singletons stay put).
    Otherwise: an empty neighbor set means isolated; neighbors that fail to
    span R^n mean deficient (witnessed by a direction orthogonal to them);
    else one cone query decides whether -sum_y u_y lies in the cone of the
    projected signed neighbors u_y: feasible means not isolable (the weights
    plus one are the certificate), infeasible means isolable (the NNLS
    residual is the witness).  Isolable verdicts are validated by actually
    constructing the perturbed vector; a failed construction or an
    iteration cap yields ``indeterminate`` rather than a guess.
    """
    alpha = coherence(system)
    if not 0 <= i < system.size:
        raise ShapeError(f"index {i} out of range")
    row = system.vectors @ system.vectors[i]  # read by the band and the tangent vectors
    nb = _band(i, row, alpha, tol)
    warnings = tuple(f"|G[{i},{j}]| is within 2x neighbor_abs of the coherence; "
                     "classification is tolerance-sensitive here" for j in nb.near_ties)
    span_basis, complement = (
        row_space(system.vectors[list(nb.indices)], tol) if nb.indices else ((), None)
    )
    nb_rank = len(span_basis)
    witness = certificate = None

    if alpha <= tol.neighbor_abs:
        # Coherence-zero convention: replacement cannot strictly beat an
        # already orthogonal system.  Every other vector is a neighbor.
        status = NOT_ISOLABLE
        warnings += ("coherence is zero within tolerance; nothing is isolable",)
    elif not nb.indices:
        status = ISOLATED
    elif nb_rank < system.dim:
        status = DEFICIENT_ISOLABLE
        witness = _deficiency_witness(system.vectors[i], complement)
    else:
        tangent = _tangent_neighbors(system, i, nb, row)
        try:
            result = nnls_cone_feasible(tangent, -np.sum(tangent, axis=0), tol)
        except IterationLimit as exc:
            status = INDETERMINATE
            warnings += (f"iteration limit during cone analysis: {exc}",)
        else:
            if result.feasible:
                status = NOT_ISOLABLE
                certificate = 1.0 + result.weights
            else:
                status = ISOLABLE
                witness = result.certificate / np.linalg.norm(result.certificate)

    if status in (ISOLABLE, DEFICIENT_ISOLABLE):
        try:
            _perturb_search(system, nb, witness)
        except SearchFailed as exc:
            status, witness = INDETERMINATE, None
            warnings += (f"constructive validation failed: {exc}",)

    return VectorVerdict(
        i, status, witness=witness, certificate=certificate, neighbors=nb.indices,
        signs=nb.signs, neighbor_rank=nb_rank, warnings=warnings,
    )


def perturb_replace(
    system: UnitVectorSystem, i: int, witness, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Unit vector x' = (x_i + eps w)/||x_i + eps w|| strictly under coherence.

    Reads vector i's ``neighbors`` record at coh(X), then halves eps until
    |<x', y>| < coh(X) - max(1e-12, 1e-6 coh(X)) for every other y.  The
    normalized witness must be finite and orthogonal to x_i (within 1e-8);
    raises SearchFailed when 60 halvings give no strict improvement.
    """
    nb = neighbors(system, i, coherence(system), tol)
    w = np.asarray(witness, dtype=float).ravel()
    if w.size != system.dim:
        raise ShapeError(f"witness has dimension {w.size}, expected {system.dim}")
    if not np.all(np.isfinite(w)):
        raise NonFinite("witness contains NaN or Inf")
    norm = float(np.linalg.norm(w))
    if norm <= 1e-12:
        raise ValidationError("witness must be a nonzero direction")
    w = w / norm
    if abs(float(w @ system.vectors[i])) > 1e-8:
        raise ValidationError("witness is not orthogonal to the replaced vector")
    return _perturb_search(system, nb, w)


class CoreLevel(NamedTuple):
    """One step of the peeling iteration.

    ``members`` and ``removed`` index the input system; ``coherence`` is the
    level's own.  ``verdicts`` classify the level's subsystem and decided
    the removals; their indices are positions in ``members``.  They are
    evidence, not identity: a level compares (``==`` and ``!=``) and hashes
    by its first three fields only, and equals only another ``CoreLevel``.
    """

    members: tuple[int, ...]
    removed: tuple[int, ...]
    coherence: float
    verdicts: tuple[VectorVerdict, ...]

    def __eq__(self, other) -> bool:
        return isinstance(other, CoreLevel) and self[:3] == other[:3]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])

    @property
    def warnings(self) -> tuple[str, ...]:
        """The kept indeterminate vectors, named by input row."""
        kept = [self.members[v.index] for v in self.verdicts if v.status == INDETERMINATE]
        return (f"vectors {kept} are indeterminate and were kept (not removed)",) if kept else ()


def isolable_set(system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL) -> CoreLevel:
    """Level 0 of the peeling: every vector classified, the isolable ones removed.

    ``removed`` lists the isolated, deficient and otherwise isolable rows.
    Indeterminate vectors are kept (and named in ``warnings``); removing a
    vector on uncertain evidence could empty a genuine core.
    """
    verdicts = tuple(classify_vector(system, i, tol) for i in range(system.size))
    removed = tuple(v.index for v in verdicts if v.isolable)
    return CoreLevel(tuple(range(system.size)), removed, coherence(system), verdicts)


class CoreTrace(NamedTuple):
    levels: tuple[CoreLevel, ...]
    core: tuple[int, ...]
    warnings: tuple[str, ...]


def core(system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL) -> CoreTrace:
    """Iteratively strip isolable vectors until a fixed point remains.

    Each level is ``isolable_set`` of the current subsystem with its
    positions mapped to input rows: the members, the isolable vectors
    removed from them, the level's own coherence (recomputed per level; a
    change from the original coherence is flagged, since for
    coherence-minimizing input the level coherences all agree) and the
    verdicts that decided the removals.  Level 0 is the whole system, so
    ``levels[0]`` is ``isolable_set(system)``; when the core is nonempty the
    last level's verdicts are those of the core's own vectors.  An emptied
    chain returns an empty core with a warning: genuine minimizers always
    stop at >= n + 1 vectors.
    """
    current = tuple(range(system.size))
    levels: list[CoreLevel] = []
    warnings: list[str] = []
    while current:
        level = isolable_set(system.restrict(current) if levels else system, tol)
        if levels:
            removed = tuple(current[j] for j in level.removed)
            level = CoreLevel(current, removed, level.coherence, level.verdicts)
            if abs(level.coherence - levels[0].coherence) > tol.neighbor_abs:
                warnings.append(
                    f"coherence changed from {levels[0].coherence!r} to "
                    f"{level.coherence!r} at level {len(levels)}"
                )
        warnings.extend(level.warnings)
        levels.append(level)
        if not level.removed:
            break
        current = tuple(sorted(set(current).difference(level.removed)))
    if not current:
        warnings.append(f"core iteration emptied the set; {NOT_GRASSMANNIAN}")
    return CoreTrace(tuple(levels), current, tuple(warnings))


class CoreValidation(NamedTuple):
    checks: tuple[tuple[str, str, str], ...]

    @property
    def passed(self) -> bool:
        return all(status != "FAIL" for _, status, _ in self.checks)


def validate_core(
    system: UnitVectorSystem, trace: CoreTrace, tol: Tolerances = DEFAULT_TOL
) -> CoreValidation:
    """Check the structural guarantees of the core of a genuine minimizer.

    At coherence zero the core must be the whole system and the spanning
    check is skipped.  Otherwise the core must have at least n + 1 members
    and each member's neighbors *within the core* must span R^n.  Those
    neighbor sets and ranks are read from the verdicts of the trace's last
    level, which classified the core's own subsystem at the core's
    coherence, so ``trace`` must come from ``core(system, tol)``.  When that
    coherence is more than ``neighbor_abs`` below the system's, the passing
    spanning row names both values instead of claiming the packing angle.
    Failures are labeled ``NOT_GRASSMANNIAN`` (an empty core fails the
    spanning row unlabeled); they never raise.
    """
    n, alpha0 = system.dim, coherence(system)
    if alpha0 <= tol.neighbor_abs:
        full = trace.core == tuple(range(system.size))
        return CoreValidation((
            check_row("orthogonal_case_full_core", full,
                      "coherence is zero, so the core must be the whole system"),
            ("core_neighbors_span", "SKIP", "spanning check skipped at coherence zero"),
        ))
    size = check_row("core_size_at_least_n_plus_1", len(trace.core) >= n + 1,
                     f"|core| = {len(trace.core)}, n + 1 = {n + 1}")
    if not trace.core:
        span = check_row("core_neighbors_span", False, "core is empty", failure=None)
        return CoreValidation((size, span))
    final = trace.levels[-1]
    failures = [final.members[v.index] for v in final.verdicts if v.neighbor_rank < n]
    at = "at the packing angle"
    if abs(final.coherence - alpha0) > tol.neighbor_abs:
        at = f"at the core's coherence {final.coherence:.15g}, below the packing angle {alpha0:.15g}"
    detail = (f"core vectors {failures} lack spanning neighbor sets" if failures
              else f"every core vector meets a spanning family {at}")
    return CoreValidation((size, check_row("core_neighbors_span", not failures, detail)))


FULL_CORE = "full_core"
EQUIANGULAR_SUBSET = "equiangular_subset"
INAPPLICABLE = "inapplicable"
INCONCLUSIVE = "inconclusive"


class DichotomyVerdict(NamedTuple):
    """Outcome of the n+2 dichotomy: full core or an equiangular n+1 subset."""

    kind: str
    indices: tuple[int, ...] | None
    warnings: tuple[str, ...]


def classify_n_plus_2(
    system: UnitVectorSystem,
    tol: Tolerances = DEFAULT_TOL,
    trace: CoreTrace | None = None,
) -> DichotomyVerdict:
    """For m = n + 2: either the core is everything or an equiangular n+1 set.

    Inapplicable unless m = n + 2.  An n + 1 core is equiangular when each
    member's neighbors in ``trace.levels[0]`` hold the other n.  Any other
    outcome is inconclusive with a not-a-minimizer warning.  A precomputed
    ``trace`` (``core(system, tol)``) is reused when given.
    """
    m, n = system.size, system.dim
    if m != n + 2:
        return DichotomyVerdict(INAPPLICABLE, None, (f"m = {m} is not n + 2 = {n + 2}",))
    if trace is None:
        trace = core(system, tol)
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
            per_vector.append(
                tuple(float(np.linalg.norm(e - basis.T @ (basis @ e))) for e in top.T)
            )
    if k > 1:
        why = "top eigenvalue is degenerate; the property is stated for one specific eigenvector"
        return EigenSpanReport("AMBIGUOUS", k, tuple(per_vector), why)
    worst = max(d[0] for d in per_vector)
    row = check_row("eigen_span", worst <= EIGEN_SPAN_ABS, f"max distance {worst:.3e}")
    return EigenSpanReport(row[1], k, tuple(per_vector), row[2])


def neighbor_count_report(
    trace: CoreTrace, tight: bool, equiangular: bool | None
) -> tuple[tuple[str, str, str], ...]:
    """Parity checks on the counts |x_X^alpha| at alpha = coherence.

    Level 0 of ``trace`` (``core(system, tol)``) supplies m and the counts,
    its verdicts' ``neighbor_count``s; ``tight`` and ``equiangular`` (None
    when m < 2) are the system's decided flags.  Unless the system is tight
    and not equiangular (with m >= 2) the one row is a SKIP.  Otherwise
    every count must be <= m - 2, and for odd m some count must be
    <= m - 3; those facts hold for any tight unit-norm frame, so a FAIL
    says the input or the tolerances are inconsistent, not that the input
    is not Grassmannian.
    """
    level0 = trace.levels[0]
    m = len(level0.members)
    if m < 2 or not tight or equiangular:
        return (("tight_nonequiangular_counts", "SKIP", "applies to tight non-ETF systems only"),)
    counts = [v.neighbor_count for v in level0.verdicts]
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
