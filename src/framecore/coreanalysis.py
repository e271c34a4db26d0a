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
family at the packing angle.  The ``diagnostics`` module checks those
properties on the trace that ``core`` returns.
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
from .frames import NeighborSet, UnitVectorSystem, _band, coherence, neighbors
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

# What a failed necessary condition of a coherence minimizer is evidence of.
NOT_GRASSMANNIAN = "evidence input is not Grassmannian"


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

    Reads vector i's band at the coherence alpha with ``frames._band`` from
    its row V x_i, which also gives the tangent vectors; the band's near
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
    the removals; they name input rows too: ``verdicts[j].index ==
    members[j]``, and so do their ``neighbors``.  The verdicts are
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
        kept = [v.index for v in self.verdicts if v.status == INDETERMINATE]
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
    verdicts that decided the removals, their ``index`` and ``neighbors``
    mapped too; no other code sees a subsystem position.  Level 0 is the
    whole system, so ``levels[0]`` is ``isolable_set(system)``; when the
    core is nonempty the last level's verdicts are those of the core's own
    vectors.  An emptied chain returns an empty core with a warning:
    genuine minimizers always stop at >= n + 1 vectors.
    """
    current = tuple(range(system.size))
    levels: list[CoreLevel] = []
    warnings: list[str] = []
    while current:
        level = isolable_set(system.restrict(current) if levels else system, tol)
        if levels:
            rows = current.__getitem__  # a position in the subsystem -> its input row
            verdicts = tuple(v._replace(index=rows(v.index), neighbors=tuple(map(rows, v.neighbors)))
                             for v in level.verdicts)
            level = CoreLevel(current, tuple(map(rows, level.removed)), level.coherence, verdicts)
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
