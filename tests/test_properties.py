"""Property tests: verdicts follow row permutations and sign flips, ignore
orthogonal rotations, and the core is a fixed point."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from framecore import (  # noqa: E402
    UnitVectorSystem,
    circular_frame,
    core,
    drop_one_spanning,
    isolable_set,
    mub_r2,
    simplex_etf,
    six_in_r4,
)
from helpers import basis_plus_diagonal, tripod_example  # noqa: E402

# Derandomized so the suite is deterministic; no example database is written.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _lines(k):
    """k lines 0.3 rad apart: each level peels the two outer ones, so the core
    is the middle line after (k + 1) / 2 levels."""
    angles = 0.3 * np.arange(k)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _structured(n):
    """Frames in R^n with cone-stage, deficient and not-isolable vectors."""
    out = [simplex_etf(n).vectors, np.vstack([np.eye(n), np.eye(n)[-1:]])]
    if n == 2:
        out += [circular_frame(m).vectors for m in (3, 4, 7)] + [mub_r2().vectors]
        out += [_lines(5), _lines(7)]
    if n == 3:
        out += [basis_plus_diagonal().vectors, tripod_example(0.3).vectors, tripod_example(0.5).vectors]
    if n == 4:
        out.append(six_in_r4().vectors)
    return out


@st.composite
def small_frames(draw):
    """Up to 12 unit vectors in R^n, n <= 5: a structured frame or Gaussian rows, plus extras."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    options = _structured(n)
    pick = draw(st.integers(0, len(options)))
    rows = options[pick] if pick < len(options) else rng.standard_normal((draw(st.integers(2, 12)), n))
    extra = draw(st.integers(0, 12 - len(rows))) if draw(st.booleans()) else 0
    rows = np.vstack([rows, rng.standard_normal((extra, n))])
    return UnitVectorSystem.from_vectors(rows / np.linalg.norm(rows, axis=1)[:, None])


@st.composite
def frames_with_signed_permutation(draw):
    system = draw(small_frames())
    perm = draw(st.permutations(range(system.size)))
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=system.size, max_size=system.size))
    moved = UnitVectorSystem.from_vectors(np.array(signs)[:, None] * system.vectors[list(perm)])
    return system, moved, perm


@PROPERTY
@given(frames_with_signed_permutation())
def test_verdicts_follow_permutation_and_sign_flips(case):
    system, moved, perm = case
    statuses = [v.status for v in isolable_set(system).verdicts]
    assert [v.status for v in isolable_set(moved).verdicts] == [statuses[p] for p in perm]
    drop_one = drop_one_spanning(system)
    assert drop_one_spanning(moved) == tuple(drop_one[p] for p in perm)


@st.composite
def frames_with_rotation(draw):
    system = draw(small_frames())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, _ = np.linalg.qr(rng.standard_normal((system.dim, system.dim)))
    return system, UnitVectorSystem.from_vectors(system.vectors @ Q)


@PROPERTY
@given(frames_with_rotation())
def test_verdicts_and_core_ignore_rotation(case):
    system, rotated = case
    assert [v.status for v in isolable_set(rotated).verdicts] == [
        v.status for v in isolable_set(system).verdicts
    ]
    assert drop_one_spanning(rotated) == drop_one_spanning(system)
    assert core(rotated).core == core(system).core


@PROPERTY
@given(small_frames())
@example(UnitVectorSystem.from_vectors(_lines(7)))
def test_core_is_idempotent(system):
    members = core(system).core
    if members:
        inner = core(system.restrict(members))
        assert inner.core == tuple(range(len(members)))
        assert len(inner.levels) == 1
