"""Small dense linear algebra with explicit tolerances.

Everything here is deterministic and pure.  The symmetric eigendecomposition
is LAPACK's ``eigh`` with a fixed order and sign convention.  One SVD,
``row_space``, is the single orthonormalization primitive: it splits R^N
into the row space of a matrix and its complement at the ``rank_rel``
cutoff, which gives the tolerance-aware rank, span bases and the completion
of an orthonormal row set to a full basis.  Nonnegative least squares with
a feasibility certificate is the one convex solver; the minimum-norm point
of a convex hull is a single query to it.  These are the decision engines
behind the vector classification and the complement pipeline.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    IterationLimit,
    NonFinite,
    NotOrthonormal,
    NotSymmetric,
    VerificationError,
)

_MACHINE_EPS = float(np.finfo(float).eps)


class _ToleranceFields(NamedTuple):
    eq_abs: float = 1e-9
    neighbor_abs: float = 1e-8
    hull_abs: float = 1e-9
    rank_rel: float = 1e-10


class Tolerances(_ToleranceFields):
    """Thresholds threaded through every comparison in the package.

    eq_abs        absolute tolerance for scalar equality
    neighbor_abs  tolerance on | |<x,y>| - alpha | for neighbor membership
    hull_abs      NNLS residual norm at or below which a cone query is feasible
    rank_rel      relative cutoff on squared singular values for numerical rank

    Construction and ``_replace`` raise ValueError outside (0, 1e-2).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return cls._make(_ToleranceFields(*args, **kwargs))

    @classmethod
    def _make(cls, iterable):
        tol = super()._make(iterable)
        for name, value in zip(tol._fields, tol):
            if not (0.0 < value < 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value!r}")
        return tol


DEFAULT_TOL = Tolerances()


class SpectralData(NamedTuple):
    """Eigenvalues (descending) and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def top_multiplicity(self, eq_abs: float) -> int:
        """Number of eigenvalues within eq_abs of the largest one."""
        top = self.eigenvalues[0]
        return int(np.sum(top - self.eigenvalues <= eq_abs))


def _as_matrix(values, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be 2-d and nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{name} contains NaN or Inf")
    return arr


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first non-negligible entry is positive.

    The pivot is the first entry above 1e-12 in magnitude, or the largest
    one in a column without such an entry.  The result is one C-ordered
    copy, flipped in place: downstream products round differently on other
    memory layouts.
    """
    big = vectors > 1e-12
    big |= vectors < -1e-12
    pivot = np.argmax(big, axis=0)
    small = ~big.any(axis=0)
    del big  # so that beside ``vectors`` only the copy below is as large
    if small.any():
        pivot[small] = np.argmax(np.abs(vectors[:, small]), axis=0)
    flip = vectors[pivot, np.arange(vectors.shape[1])] < 0.0
    out = np.array(vectors, order="C")
    np.negative(out, out=out, where=flip)
    return out


def sym_eig(S, tol: Tolerances = DEFAULT_TOL) -> SpectralData:
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns eigenvalues in descending order with orthonormal eigenvector
    columns; each column's first non-negligible entry is made positive so
    repeated runs agree bit for bit.

    Raises NotSymmetric if max |S_ij - S_ji| exceeds tol.eq_abs, NonFinite
    on NaN/Inf.
    """
    A = _as_matrix(S, "S")
    n, m = A.shape
    if n != m:
        raise NotSymmetric(f"expected a square matrix, got {A.shape}")
    if float(np.max(np.abs(A - A.T))) > tol.eq_abs:
        raise NotSymmetric("matrix is not symmetric within eq_abs")

    eigenvalues, vectors = np.linalg.eigh(0.5 * (A + A.T))
    eigenvalues = eigenvalues[::-1].copy()
    vectors = _fix_column_signs(vectors[:, ::-1])
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralData(eigenvalues, vectors)


def row_space(M, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the row space of M and of its complement in R^N.

    From one SVD M = U diag(sigma) V^T: the right singular vectors with
    sigma_i^2 > rank_rel * sigma_1^2 form the (r x N) basis, the remaining
    N - r the complement, so the two stack to an orthonormal basis of R^N.
    The sigma_i^2 are the eigenvalues of M^T M, and the zero matrix has
    r = 0.  Each row's first non-negligible entry is made positive.
    """
    A = _as_matrix(M, "M")
    # Only V is used; U need not be square unless V would come out short.
    _, sigma, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    r = int(np.sum(sigma**2 > tol.rank_rel * sigma[0] ** 2))
    rows = _fix_column_signs(vt.T).T
    rows.flags.writeable = False
    return rows[:r], rows[r:]


# Height of the row blocks in which an m x m product is read, never held whole:
# a block is at most 64 m doubles, 0.5 MiB per 1000 vectors.
BLOCK_ROWS = 64


def gram_blocks(V: np.ndarray):
    """Yield V[k:k + BLOCK_ROWS] V[k:]^T for k = 0, BLOCK_ROWS, ..., each a new array.

    Entry (i, j) of V V^T sits at [i - k, j - k] of block k, so a block's
    diagonal is that of V V^T.  The blocks cover every pair i < j once, at the
    flops of one symmetric rank update; for m <= BLOCK_ROWS the one block is
    V V^T itself.  Reduce them with ``map``: a loop variable keeps two alive.
    """
    for k in range(0, len(V), BLOCK_ROWS):
        yield V[k:k + BLOCK_ROWS] @ V[k:].T


def off_diagonal_max(block: np.ndarray) -> float:
    """max |block_ij| off the diagonal of a ``gram_blocks`` block, whose diagonal it zeroes."""
    np.fill_diagonal(block, 0.0)
    return max(float(block.max()), float(-block.min()))


def _identity_error(block: np.ndarray) -> float:
    """max |block - I| of a ``gram_blocks`` block, computed in place."""
    block.flat[:: block.shape[1] + 1] -= 1.0
    return float(np.abs(block, out=block).max())


def rank_of(M, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank: the row count of ``row_space(M, tol)``'s basis."""
    return row_space(M, tol)[0].shape[0]


def orthonormal_complement(rows, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Complete orthonormal rows to a full orthonormal basis of R^N.

    Input is an r x N matrix with pairwise orthonormal rows (r <= N); the
    result is the (N - r) x N block of new rows, the complement half of
    ``row_space`` (an empty input completes to the identity).
    """
    R = np.asarray(rows, dtype=float)
    if R.ndim != 2:
        raise DimensionMismatch(f"rows must be 2-d, got shape {R.shape}")
    r, n = R.shape
    if r > n:
        raise NotOrthonormal(f"cannot have {r} orthonormal rows in R^{n}")
    if r and not np.all(np.isfinite(R)):
        raise NonFinite("rows contain NaN or Inf")
    error = float(np.max(np.abs(R @ R.T - np.eye(r)))) if r else 0.0
    if error > tol.eq_abs:
        raise NotOrthonormal("input rows are not orthonormal within eq_abs")

    out = row_space(R, tol)[1] if r else np.eye(n)
    # |[R; out] [R; out]^T - I| by parts: R R^T - I above, R out^T, and
    # out out^T - I in row blocks, none of them n x n.
    blocks = map(_identity_error, gram_blocks(out))
    error = max(error, float(np.abs(R @ out.T).max(initial=0.0)), *blocks)
    if r + len(out) != n or error > 1e-8:
        raise VerificationError("completed basis failed the orthonormality check")
    out.flags.writeable = False
    return out


class ConeResult(NamedTuple):
    """Outcome of a conic-feasibility query.

    ``weights`` are the NNLS solution lam >= 0 on both outcomes.
    Feasible: || sum_i lam_i u_i - target || <= hull_abs.  Infeasible:
    ``certificate`` is the least-squares residual r = target - sum_i lam_i u_i,
    which satisfies <r, u_i> <= hull_abs for every generator and
    <r, target> > hull_abs (a separating direction).
    """

    feasible: bool
    weights: np.ndarray
    certificate: np.ndarray | None
    residual_norm: float


def nnls_cone_feasible(generators, target, tol: Tolerances = DEFAULT_TOL) -> ConeResult:
    """Decide whether target lies in the closed conic hull of the generators.

    Lawson-Hanson active-set iteration on min ||A w - b|| s.t. w >= 0 with
    A's columns the generators; capped at 100 times the generator count,
    raising IterationLimit on the cap.
    """
    gens = [np.asarray(g, dtype=float).ravel() for g in generators]
    if not gens:
        raise DimensionMismatch("need at least one generator")
    b = np.asarray(target, dtype=float).ravel()
    n = b.size
    if any(g.size != n for g in gens):
        raise DimensionMismatch("generators and target must share one dimension")
    A = np.column_stack(gens)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise NonFinite("generators or target contain NaN or Inf")

    k = A.shape[1]
    max_iter = 100 * k
    passive = np.zeros(k, dtype=bool)
    x = np.zeros(k)
    w = A.T @ b
    kkt_tol = 1e3 * _MACHINE_EPS * max(1.0, float(np.abs(A).max()), float(np.abs(b).max()))

    iters = 0
    while not passive.all():
        w_free = np.where(passive, -np.inf, w)
        if w_free.max() <= kkt_tol:
            break
        passive[int(np.argmax(w_free))] = True
        while True:
            iters += 1
            if iters > max_iter:
                raise IterationLimit(f"NNLS exceeded {max_iter} iterations")
            if not passive.any():
                x = np.zeros(k)
                break
            z = np.zeros(k)
            z[passive], *_ = np.linalg.lstsq(A[:, passive], b, rcond=None)
            if z[passive].min() > 0.0:
                x = z
                break
            # Backtrack along x -> z to the first weight that hits zero.
            blocking = passive & (z <= 0.0)
            denom = x[blocking] - z[blocking]
            steps = np.where(denom > 0.0, x[blocking] / denom, 0.0)
            alpha = float(steps.min())
            x = x + alpha * (z - x)
            passive &= x > kkt_tol
            x[~passive] = 0.0
        residual = b - A @ x
        w = A.T @ residual

    residual = b - A @ x
    rnorm = float(np.linalg.norm(residual))
    if rnorm <= tol.hull_abs:
        return ConeResult(True, x, None, rnorm)
    return ConeResult(False, x, residual, rnorm)


def min_norm_point(points, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm point p of conv{points} with its convex weights.

    One NNLS query, the least-distance reduction of Lawson & Hanson
    (*Solving Least Squares Problems*, 1974, ch. 23).  With c the largest
    point norm (1 if all are 0), the generators are (u_i / c, 1) and the
    target is e_{n+1}; the scaling keeps the last coordinate comparable to
    the others, so the result does not degrade with the points' scale.
    The NNLS weights lam give the residual r = (-q, 1 - s) with
    q = sum_i lam_i u_i / c and s = sum_i lam_i > 0 (at lam = 0 every
    generator still reduces the residual).  The KKT conditions read
    <u_i / c, q> >= 1 - s for every i, with equality where lam_i > 0;
    summed against lam they give s (1 - s) = ||q||^2.  Dividing by s^2,
    p = (lam / s) @ U satisfies <u_i, p> >= ||p||^2 for every i, with
    equality on the support: the optimality condition of the minimum-norm
    point.  ``tol`` is accepted for signature compatibility; the result
    does not depend on it.
    """
    U = [np.asarray(p, dtype=float).ravel() for p in points]
    if not U:
        raise DimensionMismatch("need at least one point")
    n = U[0].size
    if any(u.size != n for u in U):
        raise DimensionMismatch("points must share one dimension")
    U = np.array(U)
    if not np.all(np.isfinite(U)):
        raise NonFinite("points contain NaN or Inf")

    scale = float(np.linalg.norm(U, axis=1).max()) or 1.0
    generators = np.hstack([U / scale, np.ones((U.shape[0], 1))])
    target = np.zeros(n + 1)
    target[n] = 1.0
    lam = nnls_cone_feasible(generators, target, tol).weights
    lam = lam / lam.sum()
    return lam @ U, lam
