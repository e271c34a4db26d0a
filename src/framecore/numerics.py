"""Small dense linear algebra with explicit tolerances.

Everything here is deterministic and pure: symmetric eigendecomposition by
cyclic Jacobi rotations, tolerance-aware rank, completion of an orthonormal
row set to a full basis, nonnegative least squares with a feasibility
certificate, and the minimum-norm point of a convex hull.  These are the
decision engines behind the vector classification and the complement
pipeline; matrices stay small (a few dozen rows at most), so clarity and
reproducibility win over BLAS-level speed.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Tolerances:
    """Thresholds threaded through every comparison in the package.

    eq_abs        absolute tolerance for scalar equality
    neighbor_abs  tolerance on | |<x,y>| - alpha | for neighbor membership
    hull_abs      NNLS residual norm at or below which a cone query is feasible
    rank_rel      relative eigenvalue cutoff for numerical rank
    """

    eq_abs: float = 1e-9
    neighbor_abs: float = 1e-8
    hull_abs: float = 1e-9
    rank_rel: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("eq_abs", "neighbor_abs", "hull_abs", "rank_rel"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value!r}")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class SpectralData:
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
    """Flip each column so its first non-negligible entry is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        pivot = nz[0] if nz.size else int(np.argmax(np.abs(col)))
        if col[pivot] < 0.0:
            out[:, j] = -col
    return out


def sym_eig(S, tol: Tolerances = DEFAULT_TOL) -> SpectralData:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

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

    A = 0.5 * (A + A.T)
    V = np.eye(n)
    scale = float(np.linalg.norm(A))
    if scale == 0.0:
        return SpectralData(np.zeros(n), V)

    # Cyclic sweeps; quadratic convergence makes 50 sweeps far more than
    # enough for the sizes seen here.  The off-diagonal norm is summed
    # directly from the off-diagonal entries: the difference
    # ||A||_F^2 - ||diag||^2 cancels catastrophically and would hide
    # residuals near sqrt(eps)*scale, stopping the sweeps too early.
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(50):
        off = float(np.sqrt(np.sum(A[off_mask] ** 2)))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0.0 else 1.0
                t = t / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = A[q, p] = 0.0
                rows = np.r_[0:p, p + 1:q, q + 1:n]
                akp = A[rows, p].copy()
                akq = A[rows, q].copy()
                A[rows, p] = A[p, rows] = c * akp - s * akq
                A[rows, q] = A[q, rows] = s * akp + c * akq
                vp = V[:, p].copy()
                V[:, p] = c * vp - s * V[:, q]
                V[:, q] = s * vp + c * V[:, q]

    eigenvalues = np.diag(A).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = _fix_column_signs(V[:, order])
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralData(eigenvalues, vectors)


def rank_of(M, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank: eigenvalues of MtM above rank_rel times the largest.

    The zero matrix has rank 0; otherwise at least one eigenvalue survives
    the relative cutoff.
    """
    A = _as_matrix(M, "M")
    # Work with the smaller Gram matrix; both share the nonzero spectrum.
    G = A.T @ A if A.shape[1] <= A.shape[0] else A @ A.T
    eigs = sym_eig(G, tol).eigenvalues
    top = float(eigs[0])
    if top <= 0.0:
        return 0
    return int(np.sum(eigs > tol.rank_rel * top))


def orthonormal_complement(rows, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Complete orthonormal rows to a full orthonormal basis of R^N.

    Input is an r x N matrix with pairwise orthonormal rows (r <= N); the
    result is the (N - r) x N block of new rows, chosen by pivoted
    Gram-Schmidt against the standard basis (largest residual first, ties
    to the lowest index) so the completion is deterministic.
    """
    R = np.asarray(rows, dtype=float)
    if R.ndim != 2:
        raise DimensionMismatch(f"rows must be 2-d, got shape {R.shape}")
    r, n = R.shape
    if r > n:
        raise NotOrthonormal(f"cannot have {r} orthonormal rows in R^{n}")
    if r and not np.all(np.isfinite(R)):
        raise NonFinite("rows contain NaN or Inf")
    if r and float(np.max(np.abs(R @ R.T - np.eye(r)))) > tol.eq_abs:
        raise NotOrthonormal("input rows are not orthonormal within eq_abs")

    basis = [R[i] for i in range(r)]
    added = []
    remaining = list(range(n))
    for _ in range(n - r):
        B = np.array(basis) if basis else np.zeros((0, n))
        cands = np.eye(n)[remaining]
        residuals = cands - (cands @ B.T) @ B if len(basis) else cands
        norms = np.linalg.norm(residuals, axis=1)
        pick = int(np.argmax(norms))
        if norms[pick] <= 1e-8:
            raise NotOrthonormal("could not complete basis; input nearly rank-deficient")
        v = residuals[pick]
        # Second orthogonalization pass keeps the basis orthonormal to
        # machine precision even for nearly parallel residuals.
        if len(basis):
            v = v - (v @ B.T) @ B
        v = v / np.linalg.norm(v)
        basis.append(v)
        added.append(v)
        remaining.pop(pick)
    out = np.array(added) if added else np.zeros((0, n))
    full = np.vstack([R, out]) if out.size else R
    if full.size and float(np.max(np.abs(full @ full.T - np.eye(n)))) > 1e-8:
        raise VerificationError("completed basis failed the orthonormality check")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ConeResult:
    """Outcome of a conic-feasibility query.

    Feasible: ``weights`` >= 0 with || sum_i weights_i u_i - target || <=
    hull_abs.  Infeasible: ``certificate`` is the least-squares residual r,
    which satisfies <r, u_i> <= hull_abs for every generator and
    <r, target> > hull_abs (a separating direction).
    """

    feasible: bool
    weights: np.ndarray | None
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
    return ConeResult(False, None, residual, rnorm)


def min_norm_point(points, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm point of conv{points} with its convex weights.

    Frank-Wolfe with away steps and exact line search, starting from the
    centroid; stops once the dual gap certifies ||p|| within 1e-7 of the
    minimum, i.e. <p, u_i> >= ||p||^2 - 1e-7 for every point u_i.  Capped
    at 10000 iterations (IterationLimit beyond that).
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

    k = U.shape[0]
    lam = np.full(k, 1.0 / k)
    for _ in range(10_000):
        # Recompute from the weights each round so the iterate cannot
        # drift away from conv{points}.
        x = lam @ U
        f = float(x @ x)
        scores = U @ x
        gap = f - float(scores.min())
        if np.sqrt(f) <= 1e-12 or gap <= max(1e-20, 1e-9 * f):
            lam = np.clip(lam, 0.0, None)
            lam = lam / lam.sum()
            return lam @ U, lam
        s = int(np.argmin(scores))
        active = lam > 1e-15
        away_scores = np.where(active, scores, -np.inf)
        a = int(np.argmax(away_scores))
        gap_fw = f - scores[s]
        gap_away = scores[a] - f
        if gap_fw >= gap_away:
            d = U[s] - x
            gamma_max = 1.0
        else:
            d = x - U[a]
            gamma_max = lam[a] / (1.0 - lam[a]) if lam[a] < 1.0 - 1e-15 else 0.0
        dd = float(d @ d)
        if dd <= 0.0 or gamma_max <= 0.0:
            # Degenerate direction with a positive gap cannot occur for a
            # genuine simplex iterate; treat as converged-by-stall.
            lam = np.clip(lam, 0.0, None)
            lam = lam / lam.sum()
            return lam @ U, lam
        gamma = min(gamma_max, max(0.0, -float(x @ d) / dd))
        if gap_fw >= gap_away:
            lam = (1.0 - gamma) * lam
            lam[s] += gamma
        else:
            lam = (1.0 + gamma) * lam
            lam[a] -= gamma
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
    raise IterationLimit("minimum-norm search exceeded 10000 iterations")
