"""Property tests: verdicts follow row permutations and sign flips, ignore
orthogonal rotations, and the core is a fixed point; frame files are
written byte for byte as the JSON encoder writes them and read back exactly."""

import io
import json

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
    emit_frame,
    isolable_set,
    mub_r2,
    parse_frame,
    simplex_etf,
    six_in_r4,
    write_frame,
)
from framecore.frameio import round15  # noqa: E402
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


def _reference_emit_frame(system):
    """The frame emitter before it formatted coordinates itself: round15 + json.dumps."""
    payload = {"dim": system.dim, "vectors": [[round15(v) for v in row] for row in system.vectors]}
    if system.labels:
        payload["labels"] = list(system.labels)
    return json.dumps(payload, indent=2) + "\n"


# Signed zeros, subnormals, the smallest normal, and values on both sides of
# 1e-4 and 1e-5, where %g switches between fixed and exponent form.
_SMALL = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 9.99999999999999e-6,
          9.999999999999999e-6, 1.00000000000001e-5, 1e-4, 9.99999999999999e-5,
          9.999999999999999e-5, 1.00000000000001e-4, 0.1, 0.25)
_LABEL_TEXT = st.text(st.sampled_from('a"\\/\n\té日\u2028 '), max_size=6) | st.text(max_size=4)


@st.composite
def unit_rows(draw, n):
    """One unit row: +-e_i padded with tiny entries, or small entries plus a slack coordinate."""
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n))
    at = draw(st.integers(0, n - 1))
    if draw(st.booleans()):  # the squares of zeros and subnormals vanish: norm exactly 1
        row = [s * draw(st.sampled_from(_SMALL[:4])) for s in signs]
        row[at] = signs[at]
    else:  # at most 4 entries of at most 0.4 leave the slack coordinate real
        small = st.sampled_from(_SMALL) | st.floats(9e-6, 2e-4) | st.floats(0.0, 0.4)
        row = [s * draw(small) for s in signs]
        row[at] = 0.0
        row[at] = signs[at] * np.sqrt(1.0 - sum(v * v for v in row))
    return row


@st.composite
def emitted_systems(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    rows = [draw(unit_rows(n)) for _ in range(m)]
    labels = draw(st.none() | st.lists(_LABEL_TEXT, min_size=m, max_size=m))
    return UnitVectorSystem.from_vectors(np.array(rows), labels=labels)


@PROPERTY
@given(emitted_systems())
def test_emit_frame_matches_the_json_encoder_and_parses_back_exactly(system):
    text = emit_frame(system)
    assert text == _reference_emit_frame(system)
    streamed = io.StringIO()
    write_frame(system, streamed)
    assert streamed.getvalue() == text
    back = parse_frame(text)
    rounded = UnitVectorSystem.from_vectors(
        [[round15(v) for v in row] for row in system.vectors], labels=system.labels
    )
    assert back.labels == rounded.labels == system.labels
    assert back.vectors.tobytes() == rounded.vectors.tobytes()  # signed zeros included
