"""Frame corpora for the three benchmark workloads.

Every workload is a fixed list of *base frames*, built here with plain
numpy so the inputs never depend on the code under test.  The workload
seed draws, for each base frame, an orthogonal change of basis, a row
order and a sign per row.  Isolability verdicts, the core, the check
statuses and the coherence are all invariant under these maps, so one
expected fingerprint per base frame (``expected.json``) covers every seed,
while the bytes the program reads differ from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class BaseFrame:
    name: str
    build: Callable[[], np.ndarray]
    fmt: str = "json"  # "json" (structured) or "plain" (whitespace text)
    rotate: bool = True  # False: the seed only reorders rows and flips their signs


@dataclass(frozen=True)
class CorpusFrame:
    """One generated input file and how its rows map back to the base frame."""

    name: str
    path: Path
    perm: tuple[int, ...]  # row k of the file is row perm[k] of the base frame


def _unit_rows(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr / np.linalg.norm(arr, axis=1)[:, None]


def simplex(n: int) -> np.ndarray:
    """n + 1 unit vectors in R^n with pairwise inner product -1/n (Helmert basis)."""
    H = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        H[k - 1, :k] = 1.0
        H[k - 1, k] = -float(k)
        H[k - 1] /= math.sqrt(k * (k + 1.0))
    return _unit_rows((np.eye(n + 1) - 1.0 / (n + 1)) @ H.T)


def six_in_r4() -> np.ndarray:
    """(1, +-sqrt 2 e_j)/sqrt 3: six equiangular vectors in R^4 at angle 1/3."""
    r = math.sqrt(2.0)
    return _unit_rows(
        [[1.0] + [s * r if j == i else 0.0 for j in range(3)] for i in range(3) for s in (1, -1)]
    )


def simplex_with_midpoints(k: int) -> np.ndarray:
    """simplex(k) plus the normalized midpoint of every vertex pair.

    Each midpoint meets its two vertices at an angle strictly below the
    simplex angle, so it sets the coherence, is deficient and peels off at
    level 0; each vertex meets k midpoints that positively span its
    tangent space (a cone-stage not-isolable verdict), and the simplex
    survives as the level-1 core.  Needs k >= 5 so that disjoint midpoint
    pairs stay below the coherence.
    """
    S = simplex(k)
    mids = [S[i] + S[j] for i in range(k + 1) for j in range(i + 1, k + 1)]
    return np.vstack([S, _unit_rows(mids)])


def doubled(rows: np.ndarray) -> np.ndarray:
    """(x, x)/sqrt 2 and (x, -x)/sqrt 2: every vector deficient in R^{2n}."""
    s = 1.0 / math.sqrt(2.0)
    return np.vstack([np.hstack([rows, rows]) * s, np.hstack([rows, -rows]) * s])


def circular(m: int) -> np.ndarray:
    angles = np.arange(1, m + 1) * math.pi / m
    return np.column_stack([np.cos(angles), np.sin(angles)])


def mub_r2() -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    return np.array([[1.0, 0.0], [0.0, 1.0], [s, s], [s, -s]])


def tripod(alpha: float) -> np.ndarray:
    """e3 plus three vectors meeting it at alpha.

    Two tangent directions are opposite, so the minimum-norm point is 0 and
    the positive-spanning stage decides that e3 is isolable.
    """
    r = math.sqrt(1.0 - alpha * alpha)
    return np.array([[0.0, 0.0, 1.0], [r, 0.0, alpha], [0.0, r, alpha], [0.0, -r, alpha]])


def fan(alpha: float = 0.5) -> np.ndarray:
    """e3 plus three vectors meeting it at alpha, tangent directions 0, 75 and 150 degrees.

    The directions lie in an open half-plane, so the minimum-norm screen
    decides that e3 is isolable; 75 degrees apart keeps the three below alpha.
    """
    r = math.sqrt(1.0 - alpha * alpha)
    phis = np.radians([0.0, 75.0, 150.0])
    rim = np.column_stack([r * np.cos(phis), r * np.sin(phis), np.full(3, alpha)])
    return np.vstack([[0.0, 0.0, 1.0], rim])


def basis_plus_diagonal() -> np.ndarray:
    return np.vstack([np.eye(3), np.full((1, 3), 1.0 / math.sqrt(3.0))])


def near_tie(d: float = 1e-7) -> np.ndarray:
    """x0 = e1 with neighbors at +1 and -(1 + d) rad: truly isolable, reported indeterminate."""
    return np.array([[1.0, 0.0], [math.cos(1.0), math.sin(1.0)], [math.cos(1.0 + d), -math.sin(1.0 + d)]])


def gaussian(m: int, n: int) -> np.ndarray:
    """A fixed Gaussian frame per shape; the workload seed only rotates and reorders it."""
    return _unit_rows(np.random.default_rng([m, n]).standard_normal((m, n)))


WORKLOADS: dict[str, tuple[BaseFrame, ...]] = {
    # Nearly every vector reaches the tangent-cone stage: 2(n - 1) NNLS
    # queries per vector, the repeated isolable_set and mid-size Jacobi.
    "etf-cone": (
        BaseFrame("simplex-8", lambda: simplex(8)),
        BaseFrame("simplex-13", lambda: simplex(13)),
        BaseFrame("simplex-18", lambda: simplex(18)),
        BaseFrame("six-in-r4", six_in_r4),
        BaseFrame("simplex-6-midpoints", lambda: simplex_with_midpoints(6)),
        BaseFrame("double-simplex-7", lambda: doubled(simplex(7))),
    ),
    # m >> n: one pair sets the coherence, nearly everything is isolated,
    # no cone query runs; time goes to drop-one rank checks and, in
    # naimark, to a wide orthonormal completion.
    "random-span": (
        BaseFrame("gauss-40x6", lambda: gaussian(40, 6)),
        BaseFrame("gauss-60x7", lambda: gaussian(60, 7)),
        BaseFrame("gauss-80x8", lambda: gaussian(80, 8)),
        BaseFrame("gauss-110x9", lambda: gaussian(110, 9)),
        BaseFrame("gauss-140x10", lambda: gaussian(140, 10)),
        BaseFrame("gauss-200x12", lambda: gaussian(200, 12)),
    ),
    # Tiny frames: start-up, parsing, report building and emission
    # dominate.  Covers every verdict kind and the exit-2 / exit-4 paths;
    # half the files use the plain text format.
    "small-batch": (
        BaseFrame("circular-3", lambda: circular(3)),
        BaseFrame("circular-8", lambda: circular(8), "plain"),
        BaseFrame("mub-r2", mub_r2),
        BaseFrame("tripod-0.5", lambda: tripod(0.5), "plain"),
        BaseFrame("fan-0.5", fan),
        BaseFrame("basis-plus-diagonal", basis_plus_diagonal),
        BaseFrame("orthonormal-r4", lambda: np.eye(4), "plain"),
        BaseFrame("n1-three", lambda: np.array([[1.0], [-1.0], [1.0]])),
        BaseFrame("m1-r3", lambda: np.array([[0.6, 0.8, 0.0]]), "plain"),
        # Not rotated: rotated duplicates land within an ulp of unit norm,
        # where the program aborts on a coherence just above 1 (a known
        # defect, see bench/README.md); reordering and sign flips are exact.
        BaseFrame(
            "duplicates-r3",
            lambda: np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]),
            rotate=False,
        ),
        BaseFrame("near-tie", near_tie, "plain"),
        BaseFrame("gauss-6x3", lambda: gaussian(6, 3)),
        BaseFrame("gauss-8x4", lambda: gaussian(8, 4), "plain"),
    ),
}


def base_frames() -> dict[str, BaseFrame]:
    return {f.name: f for frames in WORKLOADS.values() for f in frames}


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def transform(
    base: np.ndarray, seed: int, index: int, rotate: bool = True
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Rotate, reorder and sign-flip the rows of a base frame, reproducibly.

    Rows are mapped one at a time, so equal base rows stay bit-equal.
    """
    rng = np.random.default_rng([seed, index])
    m, n = base.shape
    Q = random_orthogonal(rng, n) if rotate else np.eye(n)
    perm = rng.permutation(m)
    signs = rng.choice((-1.0, 1.0), size=m)
    rows = []
    for k in range(m):
        row = signs[k] * (base[perm[k]] @ Q)
        rows.append(row / np.linalg.norm(row) if rotate else row)
    return np.array(rows), tuple(int(p) for p in perm)


def frame_text(rows: np.ndarray, fmt: str) -> str:
    if fmt == "plain":
        return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows)
    payload = {"dim": int(rows.shape[1]), "vectors": [[float(v) for v in row] for row in rows]}
    return json.dumps(payload) + "\n"


def write_corpus(workload: str, seed: int, directory: Path) -> list[CorpusFrame]:
    """Write the seeded corpus of one workload as frame files under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for index, frame in enumerate(WORKLOADS[workload]):
        rows, perm = transform(frame.build(), seed, index, frame.rotate)
        suffix = ".txt" if frame.fmt == "plain" else ".json"
        path = directory / f"{index:02d}-{frame.name}{suffix}"
        path.write_text(frame_text(rows, frame.fmt), encoding="utf-8")
        out.append(CorpusFrame(frame.name, path, perm))
    return out
