"""Tests for the dense linear-algebra and certificate engines."""

import numpy as np
import pytest

from framecore import frame_operator, numerics, simplex_etf, six_in_r4
from framecore.errors import (
    DimensionMismatch,
    NonFinite,
    NotOrthonormal,
    NotSymmetric,
    VerificationError,
)
from framecore.numerics import (
    DEFAULT_TOL,
    Tolerances,
    _fix_column_signs,
    min_norm_point,
    nnls_cone_feasible,
    orthonormal_complement,
    rank_of,
    row_space,
    sym_eig,
)
from helpers import grid_min_norm


def test_tolerances_validation():
    Tolerances()  # defaults are valid
    with pytest.raises(ValueError):
        Tolerances(eq_abs=0.0)
    with pytest.raises(ValueError):
        Tolerances(neighbor_abs=0.5)


class TestSymEig:
    def test_identity(self):
        spec = sym_eig(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        spec = sym_eig(np.diag([2.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [2.0, 1.0], atol=1e-14)
        # sign convention: first nonzero entry positive => exactly e1, e2
        assert np.allclose(spec.eigenvectors, np.eye(2), atol=1e-14)

    def test_six_vector_frame_operator_spectrum(self):
        # Build S by explicit rank-one summation from the frame rows; the
        # rows of the synthesis matrix are orthogonal, giving eigenvalues
        # 6/3 = 2 and 2*(2/3) = 4/3 three times.
        V = six_in_r4().vectors
        S = np.zeros((4, 4))
        for row in V:
            S += np.outer(row, row)
        spec = sym_eig(S)
        assert np.allclose(spec.eigenvalues, [2.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetric):
            sym_eig(np.ones((2, 3)))

    def test_zero_matrix(self):
        spec = sym_eig(np.zeros((3, 3)))
        assert np.array_equal(spec.eigenvalues, np.zeros(3))
        assert np.max(np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(3))) <= 1e-15

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_symmetric_properties(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(10):
            A = rng.standard_normal((n, n))
            S = 0.5 * (A + A.T)
            spec = sym_eig(S)
            scale = np.linalg.norm(S)
            assert abs(spec.eigenvalues.sum() - np.trace(S)) <= 1e-8 * max(scale, 1.0)
            V = spec.eigenvectors
            assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-8
            recon = V @ np.diag(spec.eigenvalues) @ V.T
            assert np.max(np.abs(recon - S)) <= 1e-8 * max(scale, 1.0)
            for j in range(n):
                resid = S @ V[:, j] - spec.eigenvalues[j] * V[:, j]
                assert np.linalg.norm(resid) <= 1e-8 * max(scale, 1.0)

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 6))
        spec = sym_eig(0.5 * (A + A.T))
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)


def _first_entries_positive(rows):
    """Each row's first entry above 1e-12 in magnitude is positive."""
    for row in rows:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        assert nz.size and row[nz[0]] > 0.0


class TestSymEigOracle:
    """sym_eig against scipy.linalg.eigh.

    Both run LAPACK, so beyond agreement these pin what sym_eig adds on
    top: descending order and the sign convention (the input checks are in
    TestSymEig).
    """

    @staticmethod
    def _compare(S):
        linalg = pytest.importorskip("scipy.linalg")
        spec = sym_eig(S)
        assert np.all(np.diff(spec.eigenvalues) <= 0.0)
        _first_entries_positive(spec.eigenvectors.T)
        ref_values, ref_vectors = linalg.eigh(S)
        ref_values, ref_vectors = ref_values[::-1], ref_vectors[:, ::-1]
        scale = float(np.max(np.abs(ref_values)))
        assert np.max(np.abs(spec.eigenvalues - ref_values)) <= 1e-10 * scale
        # Eigenvectors of a repeated eigenvalue are not unique, so compare the
        # projector onto each eigenspace (eigenvalues closer than 1e-8 * scale
        # form one); its error is bounded by the backward error over the gap.
        cut = np.flatnonzero(np.diff(ref_values) < -1e-8 * scale) + 1
        bounds = [0, *cut.tolist(), len(ref_values)]
        for lo, hi in zip(bounds, bounds[1:]):
            gaps = [ref_values[lo - 1] - ref_values[lo]] if lo else []
            gaps += [ref_values[hi - 1] - ref_values[hi]] if hi < len(ref_values) else []
            V, R = spec.eigenvectors[:, lo:hi], ref_vectors[:, lo:hi]
            err = np.linalg.norm(V @ V.T - R @ R.T, 2)
            assert err <= 1e-10 * scale / min(gaps, default=scale)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_seeded_symmetric(self, n):
        rng = np.random.default_rng(900 + n)
        A = rng.standard_normal((n, n))
        self._compare(0.5 * (A + A.T))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        repeated = np.repeat(rng.standard_normal((n + 2) // 3), 3)[:n]
        self._compare(0.5 * (Q * repeated @ Q.T + (Q * repeated @ Q.T).T))

    def test_frame_operators_with_repeated_eigenvalues(self):
        for system in (six_in_r4(), *(simplex_etf(n) for n in (2, 5, 12, 20))):
            self._compare(frame_operator(system))


class TestRank:
    def test_identity(self):
        assert rank_of(np.eye(4)) == 4

    def test_zero(self):
        assert rank_of(np.zeros((3, 5))) == 0

    def test_six_vector_frame_with_two_columns_deleted(self):
        V = six_in_r4().vectors
        assert rank_of(V[2:]) == 3

    def test_invariance_under_permutation_and_rotation(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, min(m, n) + 1))
            M = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            base = rank_of(M)
            assert base == r
            perm = rng.permutation(m)
            assert rank_of(M[perm]) == base
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            assert rank_of(M @ Q) == base


class TestRowSpace:
    @staticmethod
    def _low_rank(rng, m, n, r):
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))

    @pytest.mark.parametrize("seed", range(10))
    def test_projectors_match_scipy(self, seed):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(1300 + seed)
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        for r in range(min(m, n) + 1):  # r = 0 is the zero matrix
            M = self._low_rank(rng, m, n, r)
            basis, complement = row_space(M)
            assert basis.shape == (r, n) and complement.shape == (n - r, n)
            span, null = linalg.orth(M.T), linalg.null_space(M)
            assert np.max(np.abs(basis.T @ basis - span @ span.T)) <= 1e-9
            assert np.max(np.abs(complement.T @ complement - null @ null.T)) <= 1e-9
            full = np.vstack([basis, complement])
            assert np.max(np.abs(full @ full.T - np.eye(n))) <= 1e-12
            _first_entries_positive(full)

    def test_threshold_is_on_squared_singular_values(self):
        # sigma^2 = 1, 1e-8, 1e-12 against rank_rel = 1e-10: only the last drops
        basis, complement = row_space(np.diag([1.0, 1e-4, 1e-6]))
        assert basis.shape[0] == 2 and rank_of(np.diag([1.0, 1e-4, 1e-6])) == 2
        assert np.allclose(np.abs(complement), [[0.0, 0.0, 1.0]], atol=1e-15)

    def test_repeat_calls_are_bit_identical_and_read_only(self):
        rng = np.random.default_rng(77)
        M = self._low_rank(rng, 7, 5, 3)
        S = M.T @ M
        first, second = sym_eig(S), sym_eig(S)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        (b1, c1), (b2, c2) = row_space(M), row_space(M)
        assert np.array_equal(b1, b2) and np.array_equal(c1, c2)
        for arr in (first.eigenvalues, first.eigenvectors, b1, c1):
            assert not arr.flags.writeable


def _fix_column_signs_loop(vectors):
    """The per-column reference: flip so the first entry above 1e-12 is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        pivot = nz[0] if nz.size else int(np.argmax(np.abs(col)))
        if col[pivot] < 0.0:
            out[:, j] = -col
    return out


def _fix_column_signs_before(vectors):
    """The formulation before the in-place flip: ``np.where`` and a C-ordered copy."""
    mag = np.abs(vectors)
    big = mag > 1e-12
    pivot = np.where(big.any(axis=0), np.argmax(big, axis=0), np.argmax(mag, axis=0))
    flip = vectors[pivot, np.arange(vectors.shape[1])] < 0.0
    return np.where(flip, -vectors, vectors).copy(order="C")


def _same_bytes_and_layout(got, ref):
    """Equal bytes (signed zeros too), shape, strides and C/F flags."""
    assert got.tobytes() == ref.tobytes()
    assert (got.shape, got.strides) == (ref.shape, ref.strides)
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (ref.flags.c_contiguous, ref.flags.f_contiguous)


class TestFixColumnSigns:
    @staticmethod
    def _cases():
        rng = np.random.default_rng(2024)
        for shape in ((1, 1), (3, 3), (5, 2), (2, 7), (12, 12), (40, 9)):
            yield rng.standard_normal(shape)
        M = rng.standard_normal((6, 5))
        M[:, 1] = 0.0  # all-zero column
        M[:2, 2] = [1e-13, -5e-13]  # leading entries below 1e-12
        M[:, 3] = [0.0, -1e-14, 3e-13, -7e-13, 0.0, 2e-13]  # nothing above 1e-12
        M[:4, 4] = [-0.0, 0.0, -1e-12, 0.5]  # exactly 1e-12 is not above it
        yield M
        yield M[:, ::-1]  # reversed views, as sym_eig passes them
        yield M[::-1]
        yield np.asfortranarray(M)
        yield M.T

    def test_matches_the_loop_and_is_c_ordered(self):
        for M in self._cases():
            before = M.copy()
            got = _fix_column_signs(M)
            ref = _fix_column_signs_loop(M)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))  # -0.0 too
            assert got.flags.c_contiguous
            assert np.array_equal(M, before)
            _same_bytes_and_layout(got, _fix_column_signs_before(M))

    @staticmethod
    def _matrices():
        """Seeded matrices with a zero column and a column below 1e-12, so that
        singular vectors and eigenvectors have zero and sub-1e-12 leading entries."""
        rng = np.random.default_rng(31)
        for shape in ((1, 6), (3, 7), (7, 3), (5, 5), (12, 40), (40, 12)):
            M = rng.standard_normal(shape)
            M[:, 0] = 0.0
            M[:, -1] *= 1e-13
            yield M

    def test_row_space_and_sym_eig_match_the_where_formulation(self):
        for M in self._matrices():
            _, sigma, vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
            r = int(np.sum(sigma**2 > DEFAULT_TOL.rank_rel * sigma[0] ** 2))
            rows = _fix_column_signs_before(vt.T).T
            basis, complement = row_space(M)
            _same_bytes_and_layout(basis, rows[:r])
            _same_bytes_and_layout(complement, rows[r:])
            S = M.T @ M
            vectors = np.linalg.eigh(0.5 * (S + S.T))[1]
            _same_bytes_and_layout(sym_eig(S).eigenvectors, _fix_column_signs_before(vectors[:, ::-1]))


class TestOrthonormalComplement:
    def test_single_basis_vector(self):
        comp = orthonormal_complement(np.array([[1.0, 0.0]]))
        assert comp.shape == (1, 2)
        assert abs(abs(comp[0, 1]) - 1.0) <= 1e-12

    def test_full_basis_gives_empty(self):
        comp = orthonormal_complement(np.eye(3))
        assert comp.shape == (0, 3)

    def test_diagonal_direction(self):
        row = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        comp = orthonormal_complement(row)
        target = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(comp[0] @ target) - 1.0) <= 1e-12

    def test_rejects_nonorthonormal(self):
        with pytest.raises(NotOrthonormal):
            orthonormal_complement(np.array([[1.0, 1.0]]))
        with pytest.raises(NotOrthonormal):
            orthonormal_complement(np.eye(3)[:2] + 0.5)

    def test_unnormalized_completion_fails_verification(self, monkeypatch):
        def scaled_row_space(M, tol=DEFAULT_TOL):
            basis, complement = row_space(M, tol)
            complement = complement.copy()
            complement[0] *= 1.0 + 1e-6
            return basis, complement

        monkeypatch.setattr(numerics, "row_space", scaled_row_space)
        with pytest.raises(VerificationError):
            orthonormal_complement(np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0))

    def test_completion_is_orthonormal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(0, n + 1))
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            rows = Q[:r]
            comp = orthonormal_complement(rows)
            assert comp.shape == (n - r, n)
            full = np.vstack([rows, comp])
            assert np.max(np.abs(full @ full.T - np.eye(n))) <= 1e-8


class TestConeFeasibility:
    def test_symmetric_average(self):
        res = nnls_cone_feasible([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0])
        assert res.feasible
        assert np.allclose(res.weights, [0.5, 0.5], atol=1e-10)

    def test_orthogonal_generator(self):
        res = nnls_cone_feasible([[0.0, 1.0]], [1.0, 0.0])
        assert not res.feasible
        cert = res.certificate / np.linalg.norm(res.certificate)
        assert np.allclose(cert, [1.0, 0.0], atol=1e-10)

    def test_negative_quadrant_target(self):
        res = nnls_cone_feasible([[1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0])
        assert not res.feasible
        cert = res.certificate / np.linalg.norm(res.certificate)
        assert np.allclose(cert, np.array([-1.0, -1.0]) / np.sqrt(2.0), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nnls_cone_feasible([[1.0, 0.0]], [1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            nnls_cone_feasible([], [1.0])

    def test_certificate_inequalities_on_seeded_instances(self):
        tol = DEFAULT_TOL
        rng = np.random.default_rng(321)
        feasible_seen = infeasible_seen = 0
        for _ in range(200):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            gens = [rng.standard_normal(n) for _ in range(k)]
            if rng.random() < 0.5:
                weights = rng.uniform(0.0, 2.0, size=k)
                target = np.sum([w * g for w, g in zip(weights, gens)], axis=0)
            else:
                target = rng.standard_normal(n) * 2.0
            res = nnls_cone_feasible(gens, target, tol)
            if res.feasible:
                feasible_seen += 1
                assert np.all(res.weights >= 0.0)
                combo = np.sum([w * g for w, g in zip(res.weights, gens)], axis=0)
                assert np.linalg.norm(combo - target) <= tol.hull_abs
            else:
                infeasible_seen += 1
                r = res.certificate
                assert max(float(r @ g) for g in gens) <= tol.hull_abs
                assert float(r @ target) > tol.hull_abs
        assert feasible_seen > 20 and infeasible_seen > 20

    def test_infeasible_result_carries_its_weights(self):
        rng = np.random.default_rng(322)
        seen = 0
        for _ in range(200):
            n = int(rng.integers(1, 6))
            gens = rng.standard_normal((int(rng.integers(1, 8)), n))
            target = rng.standard_normal(n)
            res = nnls_cone_feasible(gens, target)
            assert res.weights.shape == (len(gens),) and res.weights.min() >= 0.0
            if not res.feasible:
                seen += 1
                assert np.array_equal(res.certificate, target - np.column_stack(gens) @ res.weights)
        assert seen > 20


class TestMinNormPoint:
    def test_singleton(self):
        p, lam = min_norm_point([[1.0, 0.0]])
        assert np.allclose(p, [1.0, 0.0])
        assert np.allclose(lam, [1.0])

    def test_symmetric_pair(self):
        p, lam = min_norm_point([[1.0, 0.0], [-1.0, 0.0]])
        assert np.linalg.norm(p) <= 1e-9
        assert np.allclose(lam, [0.5, 0.5], atol=1e-7)

    def test_segment(self):
        p, lam = min_norm_point([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(p, [0.5, 0.5], atol=1e-8)
        assert abs(np.linalg.norm(p) - 1.0 / np.sqrt(2.0)) <= 1e-8

    def test_weights_reproduce_point(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 5))
            pts = [rng.standard_normal(n) for _ in range(k)]
            p, lam = min_norm_point(pts)
            assert lam.min() >= -1e-15
            assert abs(lam.sum() - 1.0) <= 1e-12
            assert np.linalg.norm(lam @ np.array(pts) - p) <= DEFAULT_TOL.hull_abs
            # optimality certificate
            scores = np.array(pts) @ p
            assert scores.min() >= float(p @ p) - 1e-7

    def test_agrees_with_grid_search(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            pts = [rng.standard_normal(n) for _ in range(k)]
            p, _ = min_norm_point(pts)
            assert abs(np.linalg.norm(p) - grid_min_norm(pts)) <= 1e-6

    def test_certificate_on_seeded_hulls_at_every_scale(self):
        # Up to 59 points in up to R^19, some shifted away from the origin;
        # the corpus includes hulls on which a Frank-Wolfe iteration capped
        # at 10,000 steps does not converge.
        rng = np.random.default_rng(9)
        for _ in range(60):
            k, n = int(rng.integers(1, 60)), int(rng.integers(1, 20))
            base = rng.standard_normal((k, n))
            if rng.random() < 0.5:
                base += rng.standard_normal(n) * rng.uniform(0.0, 3.0)
            for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                pts = scale * base
                p, lam = min_norm_point(pts)
                assert lam.shape == (k,) and lam.min() >= 0.0
                assert abs(lam.sum() - 1.0) <= 1e-12
                assert np.linalg.norm(lam @ pts - p) <= 1e-12 * scale
                assert float((pts @ p).min()) >= float(p @ p) - 1e-12 * scale**2

    def test_result_does_not_depend_on_tol(self):
        pts = np.random.default_rng(10).standard_normal((12, 5)) + 0.5
        p, lam = min_norm_point(pts)
        for tol in (Tolerances(hull_abs=1e-3), Tolerances(hull_abs=1e-15, eq_abs=1e-3)):
            q, mu = min_norm_point(pts, tol)
            assert np.array_equal(p, q) and np.array_equal(lam, mu)

    def test_input_checks(self):
        with pytest.raises(DimensionMismatch):
            min_norm_point([])
        with pytest.raises(DimensionMismatch):
            min_norm_point([[1.0, 0.0], [1.0]])
        with pytest.raises(NonFinite):
            min_norm_point([[1.0, np.nan]])
        with pytest.raises(NonFinite):
            min_norm_point([[np.inf, 0.0]])

    def test_zero_in_interior(self):
        # three planar directions whose hull strictly contains the origin
        pts = [[1.0, 0.1], [-0.5, 1.0], [-0.5, -1.0]]
        p, _ = min_norm_point(pts)
        assert np.linalg.norm(p) <= 1e-9
