"""Tests for catalog frames, completion, complement, doubling, and angles."""

import math

import numpy as np
import pytest

from framecore import (
    UnitVectorSystem,
    angle_catalog,
    catalog_consistency,
    circular_frame,
    double,
    frame_operator,
    gram,
    is_etf,
    mub_r2,
    naimark_complement,
    simplex_etf,
    six_in_r4,
    spectral_data,
    tight_completion,
    tightness,
    welch_bound,
)
from framecore.angles import GRASSMANNIAN_ALPHA, ONE_GRASSMANNIAN_MU
from framecore.errors import NotScalable
from framecore.numerics import DEFAULT_TOL, SpectralData
from helpers import random_unit_system


class TestCircularFrame:
    def test_m5_coherence_and_tightness(self):
        c5 = circular_frame(5)
        assert abs(gram(c5).coherence - math.cos(math.pi / 5.0)) <= 1e-12
        v = tightness(c5)
        assert v.tight and abs(v.bound - 2.5) <= 1e-12

    def test_m2_is_orthonormal(self):
        c2 = circular_frame(2)
        assert gram(c2).coherence <= 1e-15
        assert tightness(c2).kind == "parseval"

    def test_m3_is_cube_roots_etf(self):
        c3 = circular_frame(3)
        assert abs(gram(c3).coherence - 0.5) <= 1e-12
        assert is_etf(c3)

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            circular_frame(1)


class TestSixInR4:
    def test_coherence(self):
        assert abs(gram(six_in_r4()).coherence - 1.0 / 3.0) <= 1e-12

    def test_not_tight_with_known_spectrum(self):
        six = six_in_r4()
        assert tightness(six).kind == "not_tight"
        eigs = np.sort(np.linalg.eigvalsh(frame_operator(six)))[::-1]
        assert np.allclose(eigs, [2.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-12)

    def test_attains_catalog_angle(self):
        entries = {e.kind: e.value for e in angle_catalog(6, 4)}
        assert abs(entries[GRASSMANNIAN_ALPHA] - gram(six_in_r4()).coherence) <= 1e-12


class TestMub:
    def test_coherence_and_tightness(self):
        mm = mub_r2()
        assert abs(gram(mm).coherence - 1.0 / math.sqrt(2.0)) <= 1e-12
        v = tightness(mm)
        assert v.tight and abs(v.bound - 2.0) <= 1e-12

    def test_cross_basis_products(self):
        G = gram(mub_r2()).entries
        cross = np.abs(G[:2, 2:])
        assert np.max(np.abs(cross - 1.0 / math.sqrt(2.0))) <= 1e-12


class TestSimplex:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_pairwise_products_and_etf(self, n):
        sys_ = simplex_etf(n)
        assert sys_.size == n + 1 and sys_.dim == n
        G = gram(sys_).entries
        off = G[~np.eye(n + 1, dtype=bool)]
        assert np.max(np.abs(off + 1.0 / n)) <= 1e-12
        assert is_etf(sys_)

    def test_n1_degenerate(self):
        sys_ = simplex_etf(1)
        assert sorted(float(v) for v in sys_.vectors.ravel()) == [-1.0, 1.0]
        assert abs(gram(sys_).coherence - 1.0) <= 1e-12

    def test_n2_matches_cube_roots_gram(self):
        G2 = gram(simplex_etf(2)).entries
        G3 = gram(circular_frame(3)).entries
        # same Gram up to sign flips of individual vectors
        assert np.max(np.abs(np.abs(G2) - np.abs(G3))) <= 1e-12


class TestTightCompletion:
    def test_six_vector_frame(self):
        six = six_in_r4()
        Z, lam = tight_completion(six)
        assert abs(lam - 2.0) <= 1e-12
        assert Z.shape == (3, 4)
        assert np.allclose(np.linalg.norm(Z, axis=1), math.sqrt(2.0 / 3.0), atol=1e-12)
        S = frame_operator(six) + Z.T @ Z
        assert np.max(np.abs(S - 2.0 * np.eye(4))) <= 1e-8 * 2.0

    def test_orthonormal_basis_needs_nothing(self):
        Z, lam = tight_completion(UnitVectorSystem.from_vectors(np.eye(3)))
        assert Z.shape == (0, 3)
        assert abs(lam - 1.0) <= 1e-12

    def test_single_vector_completes_to_identity(self):
        sys_ = UnitVectorSystem.from_vectors([[1.0, 0.0]])
        Z, lam = tight_completion(sys_)
        assert abs(lam - 1.0) <= 1e-12
        assert Z.shape == (1, 2)
        assert np.allclose(np.abs(Z), [[0.0, 1.0]], atol=1e-12)

    def test_split_follows_top_multiplicity_at_the_band_edge(self):
        # lambda_2 = fl(lambda - eq_abs) sits on the edge of the top block;
        # every eigenvalue outside that block gets one completion row.
        X = UnitVectorSystem.from_vectors(np.eye(2))
        edge = np.array([1.5, 1.5 - DEFAULT_TOL.eq_abs])
        X.__dict__["_spectrum"] = SpectralData(edge, np.eye(2))
        k = spectral_data(X).top_multiplicity(DEFAULT_TOL.eq_abs)
        Z, lam = tight_completion(X)
        assert lam == 1.5
        assert Z.shape == (X.dim - k, X.dim) == (1, 2)
        assert np.array_equal(Z, [[0.0, math.sqrt(1.5 - edge[1])]])

    def test_completion_is_tight_on_seeded_systems(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 9))
            sys_ = random_unit_system(rng, m, n)
            Z, lam = tight_completion(sys_)
            S = frame_operator(sys_) + (Z.T @ Z if Z.size else 0.0)
            assert np.max(np.abs(S - lam * np.eye(n))) <= 1e-8 * lam


class TestNaimarkComplement:
    def test_circular_five(self):
        Y, lam, k = naimark_complement(circular_frame(5))
        assert abs(lam - 2.5) <= 1e-12
        assert k == 2
        assert Y.dim == 3 and Y.size == 5
        expected = (2.0 / 3.0) * math.cos(math.pi / 5.0)
        assert abs(gram(Y).coherence - expected) <= 1e-9

    def test_simplex_collapses_to_line(self):
        Y, lam, k = naimark_complement(simplex_etf(3))
        assert abs(lam - 4.0 / 3.0) <= 1e-9
        assert k == 3
        assert Y.dim == 1
        G = gram(Y).entries
        assert np.max(np.abs(G - 1.0)) <= 1e-8

    def test_orthonormal_basis_not_scalable(self):
        with pytest.raises(NotScalable):
            naimark_complement(UnitVectorSystem.from_vectors(np.eye(4)))

    def test_gram_relation_on_seeded_systems(self):
        rng = np.random.default_rng(909)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(n + 1, 11))
            sys_ = random_unit_system(rng, m, n)
            Y, lam, k = naimark_complement(sys_)
            assert lam > 1.0 + 1e-6
            assert Y.size == m and Y.dim == m - k
            GX = sys_.vectors @ sys_.vectors.T
            GY = Y.vectors @ Y.vectors.T
            mask = ~np.eye(m, dtype=bool)
            assert np.max(np.abs(GY[mask] * (1.0 - lam) - GX[mask])) <= 1e-8
            assert np.max(np.abs(np.linalg.norm(Y.vectors, axis=1) - 1.0)) <= 1e-8


class TestDouble:
    def test_mub(self):
        d = double(mub_r2())
        assert d.size == 8 and d.dim == 4
        v = tightness(d)
        assert v.tight and abs(v.bound - 2.0) <= 1e-12
        assert abs(gram(d).coherence - 1.0 / math.sqrt(2.0)) <= 1e-12
        cross = d.vectors[:4] @ d.vectors[4:].T
        assert np.max(np.abs(cross)) <= 1e-12

    def test_orthonormal_basis_doubles_to_basis(self):
        d = double(UnitVectorSystem.from_vectors(np.eye(3)))
        assert d.size == 6 and d.dim == 6
        assert gram(d).coherence <= 1e-12

    def test_single_vector_gives_orthonormal_pair(self):
        d = double(UnitVectorSystem.from_vectors([[0.0, 1.0]]))
        assert d.size == 2 and d.dim == 4
        assert abs(float(d.vectors[0] @ d.vectors[1])) <= 1e-15

    def test_preserves_coherence_and_tightness_on_seeded_systems(self):
        rng = np.random.default_rng(414)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, 6))
            sys_ = random_unit_system(rng, m, n)
            d = double(sys_)
            assert abs(gram(d).coherence - gram(sys_).coherence) <= 1e-12
            assert tightness(d).tight == tightness(sys_).tight
            same_block = d.vectors[:m] @ d.vectors[:m].T
            assert np.max(np.abs(same_block - sys_.vectors @ sys_.vectors.T)) <= 1e-12

    def test_preserves_tightness_on_tight_systems(self):
        for sys_ in (circular_frame(6), mub_r2(), simplex_etf(4)):
            d = double(sys_)
            vin, vout = tightness(sys_), tightness(d)
            assert vin.tight and vout.tight
            assert abs(vin.bound - vout.bound) <= 1e-12


class TestAngleCatalog:
    def test_six_four(self):
        values = {e.kind: e.value for e in angle_catalog(6, 4)}
        assert abs(values[GRASSMANNIAN_ALPHA] - 1.0 / 3.0) <= 1e-12

    def test_six_three(self):
        (entry,) = angle_catalog(6, 3)
        assert entry.kind == GRASSMANNIAN_ALPHA
        assert abs(entry.value - 1.0 / math.sqrt(5.0)) <= 1e-12

    def test_nine_seven(self):
        values = {e.kind: e.value for e in angle_catalog(9, 7)}
        assert abs(values[GRASSMANNIAN_ALPHA] - 0.2) <= 1e-12

    def test_five_three_mu(self):
        (entry,) = angle_catalog(5, 3)
        assert entry.kind == ONE_GRASSMANNIAN_MU
        assert abs(entry.value - (2.0 / 3.0) * math.cos(math.pi / 5.0)) <= 1e-12

    def test_large_offset_rules(self):
        (entry, ) = angle_catalog(28, 21)
        assert abs(entry.value - 14.0 / (5.0 * 21 + 21.0)) <= 1e-12
        (entry, ) = angle_catalog(276, 253)
        assert abs(entry.value - 69.0 / (14.0 * 253 + 253.0)) <= 1e-12

    def test_no_rule_applies(self):
        assert angle_catalog(9, 4) == ()
        assert angle_catalog(4, 4) == ()

    def test_catalog_consistency_has_no_violations(self):
        report = catalog_consistency(300, 280)
        assert len(report.comparisons) > 100
        assert report.violations == ()

    def test_monotone_chain_nine_seven_vs_six_four(self):
        a97 = {e.kind: e.value for e in angle_catalog(9, 7)}[GRASSMANNIAN_ALPHA]
        a64 = {e.kind: e.value for e in angle_catalog(6, 4)}[GRASSMANNIAN_ALPHA]
        assert a97 < a64

    def test_mu_above_welch_excludes_etf(self):
        (entry,) = angle_catalog(5, 3)
        assert entry.value > welch_bound(5, 3)
