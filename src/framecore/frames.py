"""Unit-norm vector systems and their packing structure.

The central object is :class:`UnitVectorSystem`: m unit vectors in R^n,
stored one per row.  On top of it live the Gram matrix and coherence, the
level-alpha neighbor sets, the frame operator with its spectrum, tightness
and equiangularity predicates, the Welch/orthoplex/Gerzon bound card, and
frame reconstruction.  The Gram matrix, the frame operator and its
spectrum are computed once per system, on first use, and kept on it, so
every stage that reads them through ``gram``, ``frame_operator`` and
``spectral_data`` shares the same read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InconsistentVerdict,
    NonFinite,
    NormError,
    NotAFrame,
    ShapeError,
)
from .numerics import DEFAULT_TOL, SpectralData, Tolerances, rank_of, sym_eig

# Rows farther than this from unit norm are rejected; closer ones are
# renormalized with a warning (file round-tripping loses digits).
RENORM_LIMIT = 1e-6

# |coherence - welch| at or below this is Welch equality (bounds_card).
WELCH_EQ_ABS = 1e-7


@dataclass(frozen=True)
class UnitVectorSystem:
    """An ordered system of m unit vectors in R^n (rows of ``vectors``).

    ``from_vectors`` and ``restrict`` make ``vectors`` read-only, so the
    data derived from it never goes stale: the Gram matrix, the frame
    operator and its spectrum are computed on first use and kept on the
    system (read them through ``gram``, ``frame_operator`` and
    ``spectral_data``).  A restricted subsystem computes its own.
    """

    vectors: np.ndarray
    labels: tuple[str, ...] | None = None
    warnings: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def from_vectors(cls, rows, labels=None) -> "UnitVectorSystem":
        """Validate and build a system, renormalizing rows within 1e-6 of unit."""
        arr = np.asarray(rows, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"need an m x n array with m, n >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("vector entries contain NaN or Inf")
        norms = np.linalg.norm(arr, axis=1)
        off = np.abs(norms - 1.0)
        bad = np.flatnonzero(off > RENORM_LIMIT)
        if bad.size:
            i = int(bad[0])
            raise NormError(f"row {i} has norm {norms[i]:.9g}, more than {RENORM_LIMIT} from 1")
        warnings = []
        to_fix = np.flatnonzero(off > 10 * np.finfo(float).eps)
        if to_fix.size:
            arr = arr / norms[:, None]
            warnings.append(
                f"renormalized {to_fix.size} row(s) within {RENORM_LIMIT} of unit norm"
            )
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != arr.shape[0]:
                raise ShapeError(f"{len(labels)} labels for {arr.shape[0]} vectors")
        arr = arr.copy()
        arr.flags.writeable = False
        return cls(arr, labels, tuple(warnings))

    def restrict(self, indices) -> "UnitVectorSystem":
        """Subsystem on the given row indices, preserving order and labels."""
        idx = [int(i) for i in indices]
        if not idx:
            raise ShapeError("cannot restrict to an empty index set")
        if any(i < 0 or i >= self.size for i in idx):
            raise ShapeError(f"index out of range for a system of {self.size} vectors")
        sub = self.vectors[idx].copy()
        sub.flags.writeable = False
        labels = tuple(self.labels[i] for i in idx) if self.labels else None
        return UnitVectorSystem(sub, labels, ())

    @cached_property
    def _gram(self) -> GramMatrix:
        V = self.vectors
        G = V @ V.T
        G += G.T  # numpy buffers the overlapping operand
        G *= 0.5
        if self.size == 1:
            coherence = 0.0
        else:
            off = np.abs(G)
            np.fill_diagonal(off, 0.0)
            # Rounding can push |<x, y>| of (near-)parallel unit vectors past 1.
            coherence = min(float(off.max()), 1.0)
        G.flags.writeable = False
        return GramMatrix(G, coherence)

    @cached_property
    def _frame_operator(self) -> np.ndarray:
        V = self.vectors
        S = V.T @ V
        S = 0.5 * (S + S.T)
        S.flags.writeable = False
        return S

    @cached_property
    def _spectrum(self) -> SpectralData:
        # S is exactly symmetric, so sym_eig's symmetry check cannot fail
        # and the result does not depend on the tolerances.
        return sym_eig(self._frame_operator)


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise inner products with the coherence max_{i!=j} |G_ij|."""

    entries: np.ndarray
    coherence: float


@dataclass(frozen=True)
class NeighborSet:
    """Indices meeting vector ``owner`` at |inner product| = level, with signs."""

    owner: int
    level: float
    indices: tuple[int, ...]
    signs: tuple[float, ...]


@dataclass(frozen=True)
class TightnessVerdict:
    """Whether the frame operator is (m/n) I within eq_abs."""

    tight: bool
    parseval: bool
    bound: float | None
    deviation: float

    @property
    def kind(self) -> str:
        if self.parseval:
            return "parseval"
        return "tight" if self.tight else "not_tight"


@dataclass(frozen=True)
class BoundsCard:
    """Welch, orthoplex, and Gerzon reference values next to the coherence."""

    m: int
    n: int
    coherence: float
    welch: float | None
    orthoplex: float
    gerzon_max_m: int
    meets_welch: bool | None
    exceeds_gerzon: bool


def welch_bound(m: int, n: int) -> float:
    """sqrt((m - n) / (n (m - 1))); requires m > n."""
    if m <= n:
        raise ValueError(f"Welch bound needs m > n, got m={m}, n={n}")
    return math.sqrt((m - n) / (n * (m - 1.0)))


def gram(system: UnitVectorSystem) -> GramMatrix:
    """Gram matrix and coherence of the system (computed once per system)."""
    return system._gram


def neighbors(
    system: UnitVectorSystem,
    i: int,
    level: float,
    tol: Tolerances = DEFAULT_TOL,
    gram_matrix: GramMatrix | None = None,
) -> NeighborSet:
    """Indices j != i with | |G_ij| - level | <= neighbor_abs, with signs."""
    if not 0 <= i < system.size:
        raise ShapeError(f"index {i} out of range")
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level must lie in [0, 1], got {level}")
    row = (gram_matrix or gram(system)).entries[i]
    hit = np.abs(np.abs(row) - level) <= tol.neighbor_abs
    hit[i] = False
    hits = np.flatnonzero(hit)
    signs = np.where(row[hits] >= 0.0, 1.0, -1.0)
    return NeighborSet(i, level, tuple(hits.tolist()), tuple(signs.tolist()))


def frame_operator(system: UnitVectorSystem) -> np.ndarray:
    """S = sum_i x_i x_i^T, n x n positive semidefinite; computed once per system."""
    return system._frame_operator


def spectral_data(system: UnitVectorSystem) -> SpectralData:
    """Spectrum of S (descending, orthonormal columns); computed once per system."""
    return system._spectrum


def _rank_band(spec: SpectralData, n: int, tol: Tolerances) -> tuple[float, float]:
    """``rank_of``'s spanning threshold rank_rel * lambda_max(S) on lambda_min(S), and
    the rounding slack 64 n eps lambda_max(S) around it (see ``drop_one_spanning``)."""
    top = float(spec.eigenvalues[0])
    return tol.rank_rel * top, 64.0 * n * np.finfo(float).eps * top


def spans(system: UnitVectorSystem, omit=None, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the vectors outside ``omit`` span R^n.

    Without ``omit``, fewer than n vectors never span, and otherwise the
    cached spectrum of S decides when lambda_min(S) clears the threshold of
    ``_rank_band`` by more than its slack, either way; inside the band, and
    for every ``omit``, ``rank_of`` decides.
    """
    n = system.dim
    if omit:
        omitted = {int(i) for i in omit}
        keep = [i for i in range(system.size) if i not in omitted]
        if not keep:
            raise ShapeError("omission leaves no vectors")
        return rank_of(system.vectors[keep], tol) == n
    if system.size < n:
        return False
    spec = spectral_data(system)
    threshold, slack = _rank_band(spec, n, tol)
    low = float(spec.eigenvalues[-1])
    if low > threshold + slack:
        return True
    if low < threshold - slack:
        return False
    return rank_of(system.vectors, tol) == n


def drop_one_spanning(
    system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, ...]:
    """``spans(system, omit={j})`` for every j, from the spectrum of S.

    Removing x_j leaves S_j = S - x_j x_j^T, and ``rank_of`` calls that
    spanning iff sigma_min^2 > rank_rel * sigma_max^2 over the singular
    values of the remaining rows, whose squares are the eigenvalues of
    S_j, i.e. iff lambda_min(S_j) > rank_rel * lambda_max(S_j).  With the
    leverage score h_j = x_j^T S^-1 x_j = sum_k (v_k^T x_j)^2 / lambda_k
    over the eigenpairs (lambda_k, v_k) of S, both sides are bracketed
    exactly for a unit x_j:

        (1 - h_j) lambda_min(S) <= lambda_min(S_j) <= (1 - h_j) / h_j
        lambda_max(S) - 1       <= lambda_max(S_j) <= lambda_max(S)

    (S_j = S^1/2 (I - S^-1/2 x_j x_j^T S^-1/2) S^1/2 gives the lower
    bound, the Rayleigh quotient of S_j at S^-1 x_j the upper one, and
    Weyl's inequality the second line; det S_j = (1 - h_j) det S is the
    matrix determinant lemma).  x_j is decided True when the lower bound
    clears the threshold and False when the upper bound cannot reach it,
    each by the slack of ``_rank_band``, 64 n eps lambda_max(S), for the
    eigenvalue errors of both spectra (it also covers the SVD, whose sigma
    errors of order n eps sigma_max move each sigma^2 by at most a few
    n eps lambda_max), with h_j widened by the relative
    error 64 n eps lambda_max(S) / lambda_min(S) that such a backward error
    in S induces in S^-1.  A vector whose bounds straddle the threshold,
    and every vector when S itself is not clearly spanning (so no leverage
    score divides by a vanishing eigenvalue), is decided by ``spans``.
    """
    m, n = system.size, system.dim
    if m < 2:
        raise ShapeError("omission leaves no vectors")
    spec = spectral_data(system)
    top, low = float(spec.eigenvalues[0]), float(spec.eigenvalues[-1])
    threshold, slack = _rank_band(spec, n, tol)
    if low <= threshold + slack:
        return tuple(spans(system, omit={j}, tol=tol) for j in range(m))
    coeffs = spec.eigenvectors.T @ system.vectors.T
    h = np.sum(coeffs**2 / spec.eigenvalues[:, None], axis=0)
    h_hi = h * (1.0 + slack / low)
    h_lo = h * (1.0 - slack / low)
    keeps = (1.0 - h_hi) * low > threshold + slack
    breaks = (1.0 - h_lo) < h_lo * (tol.rank_rel * (top - 1.0) - slack)
    return tuple(
        keep or (not brk and spans(system, omit={j}, tol=tol))
        for j, (keep, brk) in enumerate(zip(keeps.tolist(), breaks.tolist()))
    )


def tightness(system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL) -> TightnessVerdict:
    """Tight iff S = (m/n) I within eq_abs entrywise; Parseval iff m/n = 1 too."""
    S = frame_operator(system)
    bound = system.size / system.dim
    deviation = float(np.max(np.abs(S - bound * np.eye(system.dim))))
    tight = deviation <= tol.eq_abs
    parseval = tight and abs(bound - 1.0) <= tol.eq_abs
    return TightnessVerdict(tight, parseval, bound if tight else None, deviation)


def is_equiangular(
    system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float | None]:
    """Whether all off-diagonal |G_ij| agree within neighbor_abs.

    Returns (flag, angle); the angle reported is the coherence.
    """
    if system.size < 2:
        raise ShapeError("equiangularity needs at least two vectors")
    gm = gram(system)
    m = system.size
    mask = ~np.eye(m, dtype=bool)
    off = np.abs(gm.entries[mask])
    spread = float(off.max() - off.min())
    if spread <= tol.neighbor_abs:
        return True, gm.coherence
    return False, None


def etf_verdict(tight: TightnessVerdict, equiangular: bool, card: BoundsCard) -> bool:
    """Tight and equiangular, cross-checked against ``card.meets_welch`` when m > n.

    Raises InconsistentVerdict if the two routes disagree (numerical trouble).
    """
    structural = tight.tight and equiangular
    if card.meets_welch is not None and card.meets_welch != structural:
        raise InconsistentVerdict(
            "tight+equiangular and Welch-equality routes disagree "
            f"(coherence={card.coherence!r}, welch={card.welch!r})"
        )
    return structural


def is_etf(system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Tight and equiangular; cross-checked against Welch equality when m > n.

    ``etf_verdict`` of the verdicts it decides, so it raises
    InconsistentVerdict when the routes disagree.  An orthonormal basis
    (m = n, coherence 0) counts as a degenerate ETF.
    """
    if system.size < 2:
        raise ShapeError("ETF test needs at least two vectors")
    return etf_verdict(tightness(system, tol), is_equiangular(system, tol)[0], bounds_card(system))


def bounds_card(system: UnitVectorSystem) -> BoundsCard:
    """Welch / orthoplex / Gerzon values next to the measured coherence.

    The Welch field is None (inapplicable) when m <= n rather than a
    misleading zero.
    """
    m, n = system.size, system.dim
    alpha = gram(system).coherence
    if m > n:
        w = welch_bound(m, n)
        meets = abs(alpha - w) <= WELCH_EQ_ABS
    else:
        w = None
        meets = None
    gerzon = n * (n + 1) // 2
    return BoundsCard(
        m=m,
        n=n,
        coherence=alpha,
        welch=w,
        orthoplex=1.0 / math.sqrt(n),
        gerzon_max_m=gerzon,
        meets_welch=meets,
        exceeds_gerzon=m > gerzon,
    )


def reconstruct(
    system: UnitVectorSystem, target, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Reconstruct target as sum_i <target, x_i> S^{-1} x_i.

    S^{-1} is applied through the cached spectrum of S, on tight frames too,
    where it equals division by the frame bound m/n.  Raises NotAFrame if
    the system does not span.
    """
    t = np.asarray(target, dtype=float).ravel()
    if t.size != system.dim:
        raise ShapeError(f"target has dimension {t.size}, expected {system.dim}")
    if not np.all(np.isfinite(t)):
        raise NonFinite("target contains NaN or Inf")
    if not spans(system, tol=tol):
        raise NotAFrame("system does not span R^n; frame operator is singular")
    V = system.vectors
    coeffs = V @ t
    synthesized = coeffs @ V  # = S t
    spec = spectral_data(system)
    comps = spec.eigenvectors.T @ synthesized
    return spec.eigenvectors @ (comps / spec.eigenvalues)
