"""Catalog frames and explicit constructions.

Circular frames in the plane, the equiangular six-vector frame in R^4, the
union of two mutually unbiased bases of R^2, regular-simplex equiangular
tight frames, completion to a tight frame, the Naimark-style complement
that rescales the Gram matrix by 1/(1-lambda), frame doubling into R^{2n},
and the catalog of exactly known packing angles with its consistency
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateComplement, NotScalable, VerificationError
from .frames import UnitVectorSystem, gram, spectral_data, welch_bound
from .numerics import DEFAULT_TOL, Tolerances, orthonormal_complement


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

    lambda is the largest frame-operator eigenvalue; for every eigenvalue
    strictly below it (counted with multiplicity) one vector
    sqrt(lambda - lambda_j) e_j is added.  The added vectors are generally
    not unit norm.  Returns (Z, lambda) with Z of shape (n - k, n).
    """
    spec = spectral_data(system)
    lam = float(spec.eigenvalues[0])
    rows = []
    for j in range(system.dim):
        lam_j = float(spec.eigenvalues[j])
        if lam_j < lam - tol.eq_abs:
            rows.append(math.sqrt(lam - lam_j) * spec.eigenvectors[:, j])
    Z = np.array(rows) if rows else np.zeros((0, system.dim))
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
    before returning.

    Raises NotScalable when lambda <= 1 + eq_abs (e.g. an orthonormal
    basis) and DegenerateComplement when m = k.
    """
    m, n = system.size, system.dim
    spec = spectral_data(system)
    lam = float(spec.eigenvalues[0])
    k = spec.top_multiplicity(tol.eq_abs)
    if lam <= 1.0 + tol.eq_abs:
        raise NotScalable(f"largest eigenvalue {lam!r} leaves no complement mass")
    if m <= k:
        raise DegenerateComplement(f"complement dimension m - k = {m - k} is not positive")

    Z, _ = tight_completion(system, tol)
    full = np.vstack([system.vectors, Z]) / math.sqrt(lam)  # Parseval rows
    synthesis_rows = full.T  # n x (m + n - k), orthonormal rows
    extra = orthonormal_complement(synthesis_rows, tol)  # (m - k) x (m + n - k)
    scale = 1.0 / math.sqrt(1.0 - 1.0 / lam)
    Y = scale * extra[:, :m].T  # m rows in R^{m-k}

    norms = np.linalg.norm(Y, axis=1)
    if float(np.max(np.abs(norms - 1.0))) > 1e-8:
        raise VerificationError("complement vectors failed the unit-norm check")
    residual = Y @ Y.T  # G_Y (1 - lambda) - G_X off the diagonal, in place
    residual *= 1.0 - lam
    residual -= gram(system).entries
    np.fill_diagonal(residual, 0.0)
    relation = float(np.abs(residual, out=residual).max())
    del residual
    if relation > 1e-8:
        raise VerificationError(f"Gram relation violated by {relation:.3e}")
    labels = [f"y{i+1}" for i in range(m)]
    out = UnitVectorSystem.from_vectors(Y, labels=labels)
    coh_out = gram(out).coherence
    coh_in = gram(system).coherence
    if abs(coh_out - coh_in / (lam - 1.0)) > 1e-8:
        raise VerificationError("coherence relation violated")
    return out, lam, k


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
    if system.labels:
        labels = [f"{name}+" for name in system.labels] + [f"{name}-" for name in system.labels]
    else:
        labels = [f"v{i+1}+" for i in range(system.size)] + [
            f"v{i+1}-" for i in range(system.size)
        ]
    return UnitVectorSystem.from_vectors(np.vstack([plus, minus]), labels=labels)


GRASSMANNIAN_ALPHA = "grassmannian_alpha"
ONE_GRASSMANNIAN_MU = "one_grassmannian_mu"


@dataclass(frozen=True)
class AngleCatalogEntry:
    """An exactly known optimal packing angle for (m, n)."""

    m: int
    n: int
    kind: str
    value: float
    rule: str

    def __post_init__(self) -> None:
        if not 0.0 < self.value < 1.0:
            raise VerificationError(f"catalog value {self.value!r} outside (0, 1)")
        if self.m > self.n and self.value < welch_bound(self.m, self.n) - 1e-12:
            raise VerificationError(
                f"catalog value {self.value!r} below the Welch bound for ({self.m}, {self.n})"
            )


def angle_catalog(m: int, n: int) -> tuple[AngleCatalogEntry, ...]:
    """Exactly known packing angles for (m, n); empty when no rule applies.

    Four congruence rules give the optimal angle alpha for small offsets
    m - n, and for m = n + 2 the optimal angle over tight frames is
    (2/n) cos(pi/(n+2)).  Both kinds are returned when both apply.
    """
    if n < 2 or m <= n:
        return ()
    entries = []
    if n % 3 == 1 and m == n + 2:  # n = -2 (mod 3)
        entries.append(
            AngleCatalogEntry(m, n, GRASSMANNIAN_ALPHA, 3.0 / (2.0 * n + 1.0), "n+2_mod3")
        )
    if n % 6 == 3 and m == n + 3:  # n = -3 (mod 6)
        r5 = math.sqrt(5.0)
        value = 6.0 / ((r5 + 1.0) * n + 3.0 * (r5 - 1.0))
        entries.append(AngleCatalogEntry(m, n, GRASSMANNIAN_ALPHA, value, "n+3_mod6"))
    if n % 28 == 21 and m == n + 7:  # n = -7 (mod 28)
        entries.append(
            AngleCatalogEntry(m, n, GRASSMANNIAN_ALPHA, 14.0 / (5.0 * n + 21.0), "n+7_mod28")
        )
    if n % 276 == 253 and m == n + 23:  # n = -23 (mod 276)
        entries.append(
            AngleCatalogEntry(m, n, GRASSMANNIAN_ALPHA, 69.0 / (14.0 * n + 253.0), "n+23_mod276")
        )
    if m == n + 2:
        value = (2.0 / n) * math.cos(math.pi / (n + 2.0))
        entries.append(AngleCatalogEntry(m, n, ONE_GRASSMANNIAN_MU, value, "tight_n+2"))
    return tuple(entries)


@dataclass(frozen=True)
class CatalogComparison:
    description: str
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class CatalogReport:
    comparisons: tuple[CatalogComparison, ...]

    @property
    def violations(self) -> tuple[CatalogComparison, ...]:
        return tuple(c for c in self.comparisons if not c.ok)


def catalog_consistency(max_m: int, max_n: int) -> CatalogReport:
    """Cross-check all catalog entries with m <= max_m, n <= max_n.

    Asserted relations between known optimal angles: alpha is nondecreasing
    in m, strictly decreasing along the diagonal (m+1, n+1), and strictly
    decreasing in n; whenever n' > n and m' - m <= n' - n the primed angle
    is strictly smaller (chained applications).  Additionally mu >= alpha
    for the same pair and every value is at least the Welch bound.
    """
    alphas: dict[tuple[int, int], float] = {}
    mus: dict[tuple[int, int], float] = {}
    for n in range(2, max_n + 1):
        for m in range(n + 1, max_m + 1):
            for entry in angle_catalog(m, n):
                if entry.kind == GRASSMANNIAN_ALPHA:
                    alphas[(m, n)] = entry.value
                else:
                    mus[(m, n)] = entry.value

    slack = 1e-12
    comparisons = []

    def record(description: str, lhs: float, rhs: float, ok: bool) -> None:
        comparisons.append(CatalogComparison(description, lhs, rhs, ok))

    keys = sorted(alphas)
    for (m1, n1) in keys:
        for (m2, n2) in keys:
            if (m1, n1) == (m2, n2):
                continue
            a1, a2 = alphas[(m1, n1)], alphas[(m2, n2)]
            if n1 == n2 and m1 < m2:
                record(
                    f"alpha({m1},{n1}) <= alpha({m2},{n2})", a1, a2, a1 <= a2 + slack
                )
            elif n2 > n1 and (m2 - m1) <= (n2 - n1):
                record(
                    f"alpha({m2},{n2}) < alpha({m1},{n1})", a2, a1, a2 < a1 + slack
                )
    for (m, n), mu in sorted(mus.items()):
        if (m, n) in alphas:
            record(f"mu({m},{n}) >= alpha({m},{n})", mu, alphas[(m, n)], mu >= alphas[(m, n)] - slack)
        w = welch_bound(m, n)
        record(f"mu({m},{n}) >= welch({m},{n})", mu, w, mu >= w - slack)
    for (m, n), a in sorted(alphas.items()):
        w = welch_bound(m, n)
        record(f"alpha({m},{n}) >= welch({m},{n})", a, w, a >= w - slack)
    return CatalogReport(tuple(comparisons))
