"""Unit-norm vector systems and their packing structure.

The central object is :class:`UnitVectorSystem`: m unit vectors in R^n,
stored one per row.  On top of it live the coherence and the Gram matrix,
the level-alpha neighbor sets, the frame operator with its spectrum,
tightness and equiangularity predicates, the Welch/orthoplex/Gerzon bound
card, and frame reconstruction.  The coherence, the frame operator and its
spectrum are computed once per system, on first use, and kept on it, so
every stage shares the same values and read-only arrays; S = V^T V is
exactly symmetric as computed (one symmetric rank-k update), so it is not
re-symmetrized.  Nothing m x m is kept: the coherence reads the row blocks
of ``gram_blocks``, and vector i's neighbor band, which is all that
equiangularity and the isolability analysis need of G, is read from its
own row V x_i, computed where it is read.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    InconsistentVerdict,
    NonFinite,
    NormError,
    NotAFrame,
    ShapeError,
)
from .numerics import (
    DEFAULT_TOL,
    SpectralData,
    Tolerances,
    gram_blocks,
    off_diagonal_max,
    rank_of,
    sym_eig,
)
# after numerics, whose larger compile leaves memory that frameio's compile reuses
from .frameio import welch_bound

# Rows farther than this from unit norm are rejected; closer ones are
# renormalized with a warning (file round-tripping loses digits).
RENORM_LIMIT = 1e-6

# |coherence - welch| at or below this is Welch equality (bounds_card).
WELCH_EQ_ABS = 1e-7


class UnitVectorSystem:
    """An ordered system of m unit vectors in R^n (rows of ``vectors``).

    ``from_vectors`` and ``restrict`` make ``vectors`` read-only, and no
    attribute can be rebound, so the data derived from them never goes
    stale: the coherence, the frame operator and its spectrum are computed
    on first use and kept on the system (read them through ``coherence``,
    ``frame_operator`` and ``spectral_data``).  A restricted subsystem
    computes its own.  No m x m array is kept.
    """

    def __init__(self, vectors: np.ndarray, labels: tuple[str, ...] | None = None, warnings=()):
        self.__dict__.update(vectors=vectors, labels=labels, warnings=warnings)

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"{name!r} of a UnitVectorSystem is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"UnitVectorSystem(vectors={self.vectors!r}, labels={self.labels!r}, warnings={self.warnings!r})"

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
        with np.errstate(over="ignore"):  # a row whose squares overflow is scaled first
            norms = np.linalg.norm(arr, axis=1)
            for i in np.flatnonzero(np.isinf(norms)):
                peak = np.abs(arr[i]).max()
                norms[i] = peak * np.linalg.norm(arr[i] / peak)  # inf only past the largest float
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
        sub = self.vectors[idx]  # fancy indexing copies
        sub.flags.writeable = False
        labels = tuple(self.labels[i] for i in idx) if self.labels else None
        return UnitVectorSystem(sub, labels, ())

    @cached_property
    def _coherence(self) -> float:
        # Rounding can push |<x, y>| of (near-)parallel unit vectors past 1.
        return min(max(map(off_diagonal_max, gram_blocks(self.vectors))), 1.0)

    def _keep_coherence(self, block_max: float) -> None:
        """Keep ``block_max``, max ``off_diagonal_max`` over ``gram_blocks``, as the coherence."""
        self.__dict__.setdefault("_coherence", min(block_max, 1.0))

    @cached_property
    def _frame_operator(self) -> np.ndarray:
        S = self.vectors.T @ self.vectors
        S.flags.writeable = False
        return S

    @cached_property
    def _spectrum(self) -> SpectralData:
        # V^T V comes out exactly symmetric, so sym_eig's symmetry check
        # cannot fail and the result does not depend on the tolerances.
        return sym_eig(self._frame_operator)


class GramMatrix(NamedTuple):
    """Pairwise inner products with the coherence max_{i!=j} |G_ij|."""

    entries: np.ndarray
    coherence: float


class NeighborSet(NamedTuple):
    """Vector ``owner``'s band at |inner product| = level, read from its row V x_owner.

    ``indices`` are the j != owner with | |G_ij| - level | <= neighbor_abs, with
    ``signs`` of their G_ij; ``near_ties`` the j != owner one to two neighbor_abs
    outside the band; ``below_band`` the largest |G_ij| below it (0.0 if none).
    """

    owner: int
    level: float
    indices: tuple[int, ...]
    signs: tuple[float, ...]
    near_ties: tuple[int, ...]
    below_band: float


class TightnessVerdict(NamedTuple):
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


class BoundsCard(NamedTuple):
    """Welch, orthoplex, and Gerzon reference values next to the coherence."""

    m: int
    n: int
    coherence: float
    welch: float | None
    orthoplex: float
    gerzon_max_m: int
    meets_welch: bool | None
    exceeds_gerzon: bool


def gram(system: UnitVectorSystem) -> GramMatrix:
    """Gram matrix V V^T and the coherence, computed on each call and kept nowhere.

    No command calls it; it is the reference product the neighbor rows agree
    with.  The coherence is read first, so its row block is freed before G
    is formed.
    """
    alpha = coherence(system)
    G = system.vectors @ system.vectors.T
    G.flags.writeable = False
    return GramMatrix(G, alpha)


def coherence(system: UnitVectorSystem) -> float:
    """max_{i!=j} |<x_i, x_j>|, capped at 1 (0.0 for one vector); computed once per system.

    The one definition of the packing angle: read from the row blocks of
    ``gram_blocks``, so no m x m array is formed, and kept on the system.
    ``gram(system).coherence`` is this float.
    """
    return system._coherence


def neighbors(
    system: UnitVectorSystem, i: int, level: float, tol: Tolerances = DEFAULT_TOL
) -> NeighborSet:
    """Vector i's whole ``NeighborSet`` from one | |G_ij| - level | pass over its row V x_i."""
    if not 0 <= i < system.size:
        raise ShapeError(f"index {i} out of range")
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level must lie in [0, 1], got {level}")
    return _band(i, system.vectors @ system.vectors[i], level, tol)


def _band(i: int, row: np.ndarray, level: float, tol: Tolerances) -> NeighborSet:
    """The ``NeighborSet`` of owner i read from ``row``, its inner products with every vector."""
    size = np.abs(row)
    size[i] = -np.inf  # outside every band, and below none of the others
    gap = np.abs(size - level)
    hit = gap <= tol.neighbor_abs
    hits = np.flatnonzero(hit)
    near = np.flatnonzero(~hit & (gap <= 2.0 * tol.neighbor_abs))
    below = float(np.max(size, where=~hit & (size < level), initial=0.0))
    signs = np.where(row[hits] >= 0.0, 1.0, -1.0)
    return NeighborSet(i, level, tuple(hits.tolist()), tuple(signs.tolist()),
                       tuple(near.tolist()), below)


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
    for every ``omit``, ``rank_of`` decides.  An omitted index outside
    0..m-1, or an omission of every vector, raises ShapeError.
    """
    n = system.dim
    if omit:
        omitted = {int(i) for i in omit}
        if any(i < 0 or i >= system.size for i in omitted):
            raise ShapeError(f"index out of range for a system of {system.size} vectors")
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
    """``spans(system, omit={j})`` for every j; the spectrum of S proves the True ones.

    Removing x_j leaves S_j = S - x_j x_j^T, and ``rank_of`` calls that
    spanning iff sigma_min^2 > rank_rel * sigma_max^2 over the singular
    values of the remaining rows, whose squares are the eigenvalues of
    S_j, i.e. iff lambda_min(S_j) > rank_rel * lambda_max(S_j).  With the
    leverage score h_j = x_j^T S^-1 x_j = sum_k (v_k^T x_j)^2 / lambda_k
    over the eigenpairs (lambda_k, v_k) of S,

        lambda_min(S_j) >= (1 - h_j) lambda_min(S),   lambda_max(S_j) <= lambda_max(S)

    (S_j = S^1/2 (I - S^-1/2 x_j x_j^T S^-1/2) S^1/2).  x_j is decided True
    when that lower bound clears the threshold by the slack of
    ``_rank_band``, 64 n eps lambda_max(S), for the eigenvalue errors of
    both spectra (it also covers the SVD, whose sigma errors of order
    n eps sigma_max move each sigma^2 by at most a few n eps lambda_max),
    with h_j widened by the relative error 64 n eps lambda_max(S) /
    lambda_min(S) that such a backward error in S induces in S^-1.  Every
    other vector, and every vector when S itself is not clearly spanning
    (so no leverage score divides by a vanishing eigenvalue), is decided
    by ``spans(system, omit={j})``.
    """
    m, n = system.size, system.dim
    if m < 2:
        raise ShapeError("omission leaves no vectors")
    spec = spectral_data(system)
    low = float(spec.eigenvalues[-1])
    threshold, slack = _rank_band(spec, n, tol)
    keeps = [False] * m
    if low > threshold + slack:
        coeffs = spec.eigenvectors.T @ system.vectors.T
        h = np.sum(coeffs**2 / spec.eigenvalues[:, None], axis=0) * (1.0 + slack / low)
        keeps = ((1.0 - h) * low > threshold + slack).tolist()
    return tuple(keep or spans(system, omit={j}, tol=tol) for j, keep in enumerate(keeps))


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
    """Whether every neighbor set at the coherence holds the other m - 1 vectors.

    Returns (flag, angle); the angle reported is the coherence.  Each set is
    ``neighbors(system, i, alpha, tol)``, the band level 0 of ``core``
    reads, and the first set short of m - 1 decides False.
    """
    m = system.size
    if m < 2:
        raise ShapeError("equiangularity needs at least two vectors")
    alpha = coherence(system)
    full = all(len(neighbors(system, i, alpha, tol).indices) == m - 1 for i in range(m))
    return (True, alpha) if full else (False, None)


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
    alpha = coherence(system)
    if m > n:
        w = welch_bound(m, n)
        meets = abs(alpha - w) <= WELCH_EQ_ABS
    else:
        w = None
        meets = None
    gerzon = n * (n + 1) // 2
    return BoundsCard(
        m=m, n=n, coherence=alpha, welch=w, orthoplex=1.0 / math.sqrt(n),
        gerzon_max_m=gerzon, meets_welch=meets, exceeds_gerzon=m > gerzon,
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
