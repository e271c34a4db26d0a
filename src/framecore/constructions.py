"""Catalog frames and explicit constructions.

Circular frames in the plane, the equiangular six-vector frame in R^4, the
union of two mutually unbiased bases of R^2, regular-simplex equiangular
tight frames, completion to a tight frame, the Naimark-style complement
that rescales the Gram matrix by 1/(1-lambda), and frame doubling into
R^{2n}.  The catalog of exactly known packing angles is in ``angles``.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .errors import DegenerateComplement, NotScalable, VerificationError
from .frames import UnitVectorSystem, spectral_data
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    gram_blocks,
    off_diagonal_max,
    orthonormal_complement,
)


def circular_frame(m: int) -> UnitVectorSystem:
    """m unit vectors (cos k pi/m, sin k pi/m), k = 1..m, in R^2.

    Tight with bound m/2 and coherence cos(pi/m): consecutive vectors meet
    at angle pi/m and the first/last pair contributes the same magnitude
    with opposite sign.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    ks = np.arange(1, m + 1)
    angles = ks * math.pi / m
    rows = np.column_stack([np.cos(angles), np.sin(angles)])
    return UnitVectorSystem.from_vectors(rows, labels=[f"phi{k}" for k in ks])


def six_in_r4() -> UnitVectorSystem:
    """The equiangular six-vector frame in R^4 at angle 1/3.

    Attains the optimal packing angle for (m, n) = (6, 4) but is not tight;
    its frame-operator spectrum is (2, 4/3, 4/3, 4/3), and dropping the
    first two vectors leaves a non-spanning set.
    """
    r = math.sqrt(2.0)
    cols = [
        [1.0, r, 0.0, 0.0],
        [1.0, -r, 0.0, 0.0],
        [1.0, 0.0, r, 0.0],
        [1.0, 0.0, -r, 0.0],
        [1.0, 0.0, 0.0, r],
        [1.0, 0.0, 0.0, -r],
    ]
    rows = np.array(cols) / math.sqrt(3.0)
    return UnitVectorSystem.from_vectors(rows, labels=[f"x{i+1}" for i in range(6)])


def mub_r2() -> UnitVectorSystem:
    """Union of two mutually unbiased bases of R^2.

    Coherence 1/sqrt(2), tight with bound 2; every cross-basis pair meets
    at exactly 1/sqrt(2).
    """
    s = 1.0 / math.sqrt(2.0)
    rows = [[1.0, 0.0], [0.0, 1.0], [s, s], [s, -s]]
    return UnitVectorSystem.from_vectors(rows, labels=["e1", "e2", "f1", "f2"])


def simplex_etf(n: int) -> UnitVectorSystem:
    """Regular-simplex equiangular tight frame: n + 1 vectors in R^n.

    Projects the standard basis of R^{n+1} onto the hyperplane orthogonal
    to the all-ones vector and renormalizes, giving constant pairwise inner
    product -1/n.  Coordinates are taken in a deterministic orthonormal
    basis of that hyperplane.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    ones = np.full(n + 1, 1.0 / math.sqrt(n + 1.0))
    basis = orthonormal_complement(ones.reshape(1, -1))  # n x (n+1)
    raw = np.eye(n + 1) - np.full((n + 1, n + 1), 1.0 / (n + 1.0))
    coords = raw @ basis.T  # (n+1) x n, rows have norm sqrt(n/(n+1))
    rows = coords * math.sqrt((n + 1.0) / n)
    return UnitVectorSystem.from_vectors(rows, labels=[f"s{i+1}" for i in range(n + 1)])


def tight_completion(
    system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """Vectors that complete the system to a lambda-tight frame.

    lambda is the largest frame-operator eigenvalue and k its multiplicity
    (``SpectralData.top_multiplicity``); for each of the other n - k
    eigenpairs (lambda_j, e_j) one vector sqrt(lambda - lambda_j) e_j is
    added.  The added vectors are generally not unit norm.  Returns
    (Z, lambda) with Z of shape (n - k, n).
    """
    spec = spectral_data(system)
    lam = float(spec.eigenvalues[0])
    k = spec.top_multiplicity(tol.eq_abs)
    Z = (np.sqrt(lam - spec.eigenvalues[k:]) * spec.eigenvectors[:, k:]).T
    return Z, lam


def naimark_complement(
    system: UnitVectorSystem, tol: Tolerances = DEFAULT_TOL
) -> tuple[UnitVectorSystem, float, int]:
    """Complementary unit-norm system with Gram scaled by 1/(1 - lambda).

    Pipeline: complete to a lambda-tight frame, scale by 1/sqrt(lambda) to
    a Parseval system, complete its orthonormal synthesis rows to a basis,
    and renormalize the first m columns of the complementary block.  The
    result Y = {y_i} in R^{m-k} (k = multiplicity of lambda) satisfies
    <y_i, y_j> = <x_i, x_j> / (1 - lambda) for i != j, hence
    coh(Y) = coh(X) / (lambda - 1).  Both identities are verified to 1e-8
    on the returned vectors before returning, from one pass over the
    ``gram_blocks`` of X X^T and Y Y^T, which also gives both coherences to
    ``coherence``: no m x m array is formed, and the (m + n - k)^2 completed
    basis is freed once Y is cut from it.

    Raises NotScalable when lambda <= 1 + eq_abs (e.g. an orthonormal
    basis) and DegenerateComplement when m = k.
    """
    m, n = system.size, system.dim
    Z, lam = tight_completion(system, tol)
    k = n - len(Z)
    if lam <= 1.0 + tol.eq_abs:
        raise NotScalable(f"largest eigenvalue {lam!r} leaves no complement mass")
    if m <= k:
        raise DegenerateComplement(f"complement dimension m - k = {m - k} is not positive")

    full = np.vstack([system.vectors, Z]) / math.sqrt(lam)  # Parseval rows
    synthesis_rows = full.T  # n x (m + n - k), orthonormal rows
    extra = orthonormal_complement(synthesis_rows, tol)  # (m - k) x (m + n - k)
    scale = 1.0 / math.sqrt(1.0 - 1.0 / lam)
    Y = scale * extra[:, :m].T  # m rows in R^{m-k}
    del extra  # frees the (m + n - k)^2 completed basis it is a view of

    norms = np.linalg.norm(Y, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > 1e-8:
        raise VerificationError("complement vectors failed the unit-norm check")
    out = UnitVectorSystem.from_vectors(Y, labels=[f"y{i+1}" for i in range(m)])
    del Y
    blocks = map(_relation_block, gram_blocks(system.vectors), gram_blocks(out.vectors), repeat(lam))
    coh_in, coh_out, relation = (max(part) for part in zip(*blocks))
    system._keep_coherence(coh_in)
    out._keep_coherence(coh_out)
    if relation > 1e-8:
        raise VerificationError(f"Gram relation violated by {relation:.3e}")
    if abs(min(coh_out, 1.0) - min(coh_in, 1.0) / (lam - 1.0)) > 1e-8:
        raise VerificationError("coherence relation violated")
    return out, lam, k


def _relation_block(gx: np.ndarray, gy: np.ndarray, lam: float) -> tuple[float, float, float]:
    """Over one pair of ``gram_blocks`` blocks of G_X and G_Y: their largest
    |entries| off the diagonal, and that of G_Y (1 - lambda) - G_X, in place."""
    coh_x, coh_y = off_diagonal_max(gx), off_diagonal_max(gy)
    gy *= 1.0 - lam
    gy -= gx
    return coh_x, coh_y, float(np.abs(gy, out=gy).max())


def double(system: UnitVectorSystem) -> UnitVectorSystem:
    """2m vectors in R^{2n}: (x_i, x_i)/sqrt(2) then (x_i, -x_i)/sqrt(2).

    Cross-block inner products vanish and same-block ones equal the
    originals, so tightness (with the same bound) and, for m >= 2, the
    coherence are preserved.
    """
    V = system.vectors
    s = 1.0 / math.sqrt(2.0)
    plus = np.hstack([V, V]) * s
    minus = np.hstack([V, -V]) * s
    names = system.labels or [f"v{i+1}" for i in range(system.size)]
    labels = [f"{name}+" for name in names] + [f"{name}-" for name in names]
    return UnitVectorSystem.from_vectors(np.vstack([plus, minus]), labels=labels)
