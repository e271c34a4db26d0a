"""Shared test fixtures: seeded generators and independent oracles.

The oracles here deliberately avoid the library's own decision paths:
isolability is checked by a dense sweep of actual sphere perturbations, and
the minimum-norm point is checked by refined grid search over the weight
simplex.
"""

from __future__ import annotations

import sys

import numpy as np

from framecore import UnitVectorSystem, circular_frame, gram, mub_r2, simplex_etf


def random_unit_system(rng: np.random.Generator, m: int, n: int) -> UnitVectorSystem:
    rows = rng.standard_normal((m, n))
    rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    return UnitVectorSystem.from_vectors(rows)


def tripod_example(alpha: float) -> UnitVectorSystem:
    """x = e3 plus three vectors meeting it at |ip| = alpha (not deficient)."""
    r = np.sqrt(1.0 - alpha * alpha)
    return UnitVectorSystem.from_vectors(
        [[0.0, 0.0, 1.0], [r, 0.0, alpha], [0.0, r, alpha], [0.0, -r, alpha]]
    )


def basis_plus_diagonal() -> UnitVectorSystem:
    t = np.ones(3) / np.sqrt(3.0)
    return UnitVectorSystem.from_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1], list(t)])


def near_tie(d: float = 1e-7) -> UnitVectorSystem:
    """x0 = e1 with neighbors at +1 and -(1 + d) rad.

    The core is {x0} alone, so its neighbors within the core are empty.
    """
    return UnitVectorSystem.from_vectors(
        [[1.0, 0.0], [np.cos(1.0), np.sin(1.0)], [np.cos(1.0 + d), -np.sin(1.0 + d)]]
    )


def nudged_simplex() -> UnitVectorSystem:
    """simplex_etf(3) with x0 moved by 1e-7: the two ETF routes disagree.

    It is not tight at eq_abs, yet its coherence is at the Welch value
    within 1e-7.
    """
    V = simplex_etf(3).vectors.copy()
    V[0] = V[0] + 1e-7 * np.array([0.3, 0.5, -0.8])
    V[0] = V[0] / np.linalg.norm(V[0])
    return UnitVectorSystem.from_vectors(V)


def simplex_with_midpoints(n: int) -> UnitVectorSystem:
    """simplex_etf(n) plus the normalized midpoint of every vertex pair.

    The midpoints are deficient and peel off at level 0; the simplex is the
    level-1 core (n >= 5 keeps disjoint midpoint pairs below the coherence).
    """
    S = simplex_etf(n).vectors
    mids = [S[i] + S[j] for i in range(n + 1) for j in range(i + 1, n + 1)]
    mids = np.array(mids) / np.linalg.norm(mids, axis=1)[:, None]
    return UnitVectorSystem.from_vectors(np.vstack([S, mids]))


def patch_everywhere(mp, original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every framecore module that imports it."""
    for name, module in list(sys.modules.items()):
        if name == "framecore" or name.startswith("framecore."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    mp.setattr(module, attr, replacement)


def count_calls(mp, original) -> list:
    """Wrap ``original`` everywhere (see ``patch_everywhere``); returns the list of call args."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch_everywhere(mp, original, counted)
    return calls


def structured_family() -> list[UnitVectorSystem]:
    """Small systems with known not-isolable vectors (n <= 3, m <= 6)."""
    out = [
        simplex_etf(2),
        simplex_etf(3),
        mub_r2(),
        basis_plus_diagonal(),
        UnitVectorSystem.from_vectors(np.eye(3)),
        tripod_example(0.3),
        tripod_example(0.5),
        tripod_example(0.7),
    ]
    out.extend(circular_frame(m) for m in range(3, 7))
    return out


def sweep_finds_isolation(
    system: UnitVectorSystem,
    i: int,
    n_dirs: int = 10_000,
    radii: tuple[float, ...] = (1e-2, 1e-3),
    margin: float = 1e-9,
    seed: int = 20240,
) -> bool:
    """Brute-force oracle: does any sampled perturbation isolate vector i?

    Tries x' = normalize(x + r d) over n_dirs random unit directions d at
    each radius and reports whether some x' meets every other vector
    strictly below coherence - margin.
    """
    rng = np.random.default_rng(seed + 101 * i)
    x = system.vectors[i]
    others = np.delete(system.vectors, i, axis=0)
    alpha = gram(system).coherence
    dirs = rng.standard_normal((n_dirs, system.dim))
    dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    for r in radii:
        cands = x[None, :] + r * dirs
        cands = cands / np.linalg.norm(cands, axis=1)[:, None]
        worst = np.abs(cands @ others.T).max(axis=1)
        if bool((worst < alpha - margin).any()):
            return True
    return False


def grid_min_norm(points: list[np.ndarray]) -> float:
    """Refined grid search for min ||sum_i w_i u_i|| over the simplex.

    Supports up to three points; each stage shrinks the step tenfold around
    the best weights found so far, ending at step 1e-6.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    k = len(pts)
    if k == 1:
        return float(np.linalg.norm(pts[0]))
    if k > 3:
        raise ValueError("grid oracle supports at most 3 points")
    U = np.array(pts)

    def norm_at(weights: np.ndarray) -> np.ndarray:
        return np.linalg.norm(weights @ U, axis=1)

    best_w = np.full(k, 1.0 / k)
    best_v = float(np.linalg.norm(best_w @ U))
    step = 1e-2
    span = 1.0
    for _ in range(5):
        if k == 2:
            a = np.clip(
                np.arange(best_w[0] - span, best_w[0] + span + step / 2, step), 0.0, 1.0
            )
            W = np.column_stack([a, 1.0 - a])
        else:
            a = np.clip(
                np.arange(best_w[0] - span, best_w[0] + span + step / 2, step), 0.0, 1.0
            )
            b = np.clip(
                np.arange(best_w[1] - span, best_w[1] + span + step / 2, step), 0.0, 1.0
            )
            A, B = np.meshgrid(a, b, indexing="ij")
            A, B = A.ravel(), B.ravel()
            keep = A + B <= 1.0 + 1e-15
            A, B = A[keep], B[keep]
            W = np.column_stack([A, B, np.clip(1.0 - A - B, 0.0, None)])
        values = norm_at(W)
        at = int(np.argmin(values))
        if values[at] < best_v:
            best_v = float(values[at])
            best_w = W[at]
        span = 3.0 * step
        step = step / 10.0
    return best_v
