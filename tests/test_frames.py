"""Tests for the frame model: Gram, neighbors, tightness, bounds, reconstruction."""

import math
import sys
import warnings

import numpy as np
import pytest

from framecore import (
    UnitVectorSystem,
    bounds_card,
    build_analysis_report,
    coherence,
    circular_frame,
    core,
    double,
    drop_one_spanning,
    frame_operator,
    gram,
    is_equiangular,
    is_etf,
    isolable_set,
    mub_r2,
    naimark_complement,
    neighbor_count_report,
    neighbors,
    reconstruct,
    simplex_etf,
    six_in_r4,
    spans,
    spectral_data,
    tightness,
    welch_bound,
)
from framecore import frames
from framecore.report import build_check_report
from framecore.errors import NonFinite, NormError, NotAFrame, ShapeError
from framecore.numerics import BLOCK_ROWS, gram_blocks, row_space
from helpers import count_calls, random_unit_system, tripod_example


class TestUnitVectorSystem:
    def test_rejects_far_from_unit(self):
        with pytest.raises(NormError):
            UnitVectorSystem.from_vectors([[2.0, 0.0]])

    def test_renormalizes_close_rows_with_warning(self):
        sys_ = UnitVectorSystem.from_vectors([[1.0 + 5e-7, 0.0], [0.0, 1.0]])
        assert sys_.warnings
        assert np.allclose(np.linalg.norm(sys_.vectors, axis=1), 1.0, atol=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            UnitVectorSystem.from_vectors(np.zeros((0, 3)))

    def test_one_dimensional_row_is_one_vector(self):
        sys_ = UnitVectorSystem.from_vectors([0.6, 0.8])
        assert sys_.vectors.tolist() == [[0.6, 0.8]]

    def test_restrict_keeps_labels(self):
        sys_ = six_in_r4().restrict([1, 3])
        assert sys_.labels == ("x2", "x4")
        assert sys_.size == 2

    def test_immutability(self):
        sys_ = mub_r2()
        with pytest.raises(ValueError):
            sys_.vectors[0, 0] = 5.0

    def test_restrict_rejects_bad_indices(self):
        with pytest.raises(ShapeError):
            mub_r2().restrict([0, 9])
        with pytest.raises(ShapeError):
            mub_r2().restrict([])

    def test_neighbors_rejects_bad_level(self):
        with pytest.raises(ValueError):
            neighbors(mub_r2(), 0, 1.5)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_neighbors_rejects_bad_index(self, i):
        with pytest.raises(ShapeError, match=f"^index {i} out of range$"):
            neighbors(mub_r2(), i, 0.5)


class TestGram:
    def test_orthonormal_basis(self):
        gm = gram(UnitVectorSystem.from_vectors(np.eye(3)))
        assert np.allclose(gm.entries, np.eye(3))
        assert gm.coherence == 0.0

    def test_six_vector_frame(self):
        gm = gram(six_in_r4())
        off = np.abs(gm.entries[~np.eye(6, dtype=bool)])
        assert np.max(np.abs(off - 1.0 / 3.0)) <= 1e-12
        assert abs(gm.coherence - 1.0 / 3.0) <= 1e-12

    def test_circular_five(self):
        gm = gram(circular_frame(5))
        assert abs(gm.coherence - math.cos(math.pi / 5.0)) <= 1e-12

    @pytest.mark.parametrize("m, n", [(1, 5), (7, 1), (7, 300), (121, 120), (1000, 20)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_products_are_exactly_symmetric(self, m, n, seed):
        # Neither G nor S is re-symmetrized, so numpy's product of a matrix with its own
        # transpose must come out symmetric.
        sys_ = random_unit_system(np.random.default_rng(seed), m, n)
        V, G, S = sys_.vectors, gram(sys_).entries, frame_operator(sys_)
        assert np.array_equal(G, G.T) and np.array_equal(S, S.T)
        assert np.array_equal(G, V @ V.T)  # G is the one product, untouched


def _over_one() -> np.ndarray:
    """A seeded unit row whose product with itself rounds to 1 + 2^-52."""
    return random_unit_system(np.random.default_rng(3), 1, 5).vectors[0]


def _coherence_cases() -> dict[str, np.ndarray]:
    x = _over_one()
    cases = {
        f"gauss-{m}x{n}": random_unit_system(np.random.default_rng(seed), m, n).vectors
        for seed, (m, n) in enumerate([(2, 2), (7, 3), (40, 6), (256, 4), (300, 12), (600, 5)])
    }
    # One block either side of each of the first two block edges (BLOCK_ROWS = 64).
    cases.update(
        (f"gauss-{m}x5", random_unit_system(np.random.default_rng(m), m, 5).vectors)
        for m in (63, 64, 65, 128, 129)
    )
    cases["simplex-8"] = simplex_etf(8).vectors
    cases["duplicate"] = np.vstack([x, x, random_unit_system(np.random.default_rng(4), 3, 5).vectors])
    cases["antipodal"] = np.vstack([x, -x])
    cases["m=1"] = x.reshape(1, -1)
    cases["m=n=1"] = np.array([[1.0]])
    return cases


class TestCoherence:
    """``coherence(X)`` is the one packing angle; every reader of the system gets that float."""

    CASES = _coherence_cases()

    @pytest.mark.parametrize("rows", CASES.values(), ids=CASES.keys())
    def test_equals_the_gram_coherence_in_both_call_orders(self, rows):
        first = UnitVectorSystem.from_vectors(rows)
        alone = coherence(first)
        assert "_gram" not in first.__dict__  # no Gram matrix was formed
        assert gram(first).coherence == alone
        second = UnitVectorSystem.from_vectors(rows)
        kept = gram(second).coherence
        assert coherence(second) == kept == alone
        G = rows @ rows.T
        np.fill_diagonal(G, 0.0)
        assert abs(alone - min(float(np.abs(G).max()), 1.0)) <= 1e-15

    @pytest.mark.parametrize("rows", CASES.values(), ids=CASES.keys())
    def test_gram_blocks_reach_every_pair_once(self, rows):
        m = len(rows)
        G = rows @ rows.T
        seen = np.zeros((m, m), dtype=int)
        block_max = 0.0
        for b, block in enumerate(gram_blocks(rows)):
            k = b * BLOCK_ROWS
            h = min(BLOCK_ROWS, m - k)
            assert block.shape == (h, m - k)
            assert np.allclose(block, G[k:k + h, k:], rtol=0.0, atol=1e-15)
            upper = np.triu_indices(h, 1, m - k)  # pairs i < j, at [i - k, j - k]
            seen[upper[0] + k, upper[1] + k] += 1
            off = ~np.eye(h, m - k, dtype=bool)
            block_max = max(block_max, float(np.abs(block[off]).max(initial=0.0)))
        assert np.array_equal(seen, np.triu(np.ones((m, m), dtype=int), 1))
        assert coherence(UnitVectorSystem(rows)) == min(block_max, 1.0)

    def test_duplicate_and_antipodal_rows_are_capped_at_one(self):
        x = _over_one()
        assert (np.vstack([x, x]) @ np.vstack([x, x]).T)[0, 1] > 1.0  # the cap has work
        for rows in (np.vstack([x, x]), np.vstack([x, -x])):
            for read in (coherence, lambda X: gram(X).coherence):
                assert read(UnitVectorSystem.from_vectors(rows)) == 1.0

    def test_one_value_whichever_stage_reads_it_first(self):
        # Two row blocks, whose gemm maximum can differ in the last bits from that of
        # the one syrk product V V^T held in G: every reader must get the blocks' value.
        rows = random_unit_system(np.random.default_rng(0), 260, 398).vectors
        alone = coherence(UnitVectorSystem.from_vectors(rows))
        for read in (gram, bounds_card, isolable_set):
            assert read(UnitVectorSystem.from_vectors(rows)).coherence == alone

    def test_one_vector_has_coherence_zero(self):
        assert coherence(UnitVectorSystem.from_vectors([[0.6, 0.8]])) == 0.0


class TestNeighbors:
    def test_tripod_example(self):
        nb = neighbors(tripod_example(0.5), 0, 0.5)
        assert nb.indices == (1, 2, 3)
        assert nb.signs == (1.0, 1.0, 1.0)

    def test_orthonormal_basis_at_zero(self):
        onb = UnitVectorSystem.from_vectors(np.eye(4))
        for i in range(4):
            nb = neighbors(onb, i, 0.0)
            assert set(nb.indices) == set(range(4)) - {i}

    def test_six_vector_equiangular_full_sets(self):
        six = six_in_r4()
        nb = neighbors(six, 0, 1.0 / 3.0)
        assert nb.indices == (1, 2, 3, 4, 5)

    def test_matches_loop_reference(self):
        # the scalar loop neighbors() replaced, kept as the reference
        def reference(G, i, level, tol):
            hits, signs = [], []
            for j in range(G.shape[0]):
                if j != i and abs(abs(G[i, j]) - level) <= tol.neighbor_abs:
                    hits.append(j)
                    signs.append(1.0 if G[i, j] >= 0.0 else -1.0)
            return tuple(hits), tuple(signs)

        rng = np.random.default_rng(8)
        level, tol = 0.4, frames.DEFAULT_TOL
        offsets = tol.neighbor_abs * np.array([0.0, 0.5, 1.0, 1.5, -0.5, -1.0, -2.0])
        for _ in range(20):
            m = int(rng.integers(2, 12))
            G = rng.uniform(-1.0, 1.0, (m, m))
            picks = rng.random((m, m)) < 0.5
            G[picks] = rng.choice((-1.0, 1.0), picks.sum()) * (level + rng.choice(offsets, picks.sum()))
            random_unit_system(rng, m, 3)  # keeps the draws of the synthetic rows
            for i in range(m):
                nb = frames._band(i, G[i], level, tol)
                assert (nb.indices, nb.signs) == reference(G, i, level, tol)
                assert all(type(j) is int for j in nb.indices)
                assert all(type(x) is float for x in nb.signs)


    def test_below_band_matches_loop_reference(self):
        # the largest |G_ij| below the band, 0.0 when none (the first step
        # of the perturbation search is read from it)
        def reference(G, i, level, tol):
            below = [
                abs(G[i, j]) for j in range(G.shape[0])
                if j != i and abs(G[i, j]) < level and abs(abs(G[i, j]) - level) > tol.neighbor_abs
            ]
            return max(below, default=0.0)

        rng = np.random.default_rng(10)
        level, tol = 0.4, frames.DEFAULT_TOL
        offsets = tol.neighbor_abs * np.array([0.0, 0.5, 1.0, 1.5, -0.5, -1.0, -2.0, -300.0])
        for _ in range(20):
            m = int(rng.integers(1, 8))
            G = rng.choice((-1.0, 1.0), (m, m)) * (level + rng.choice(offsets, (m, m)))
            random_unit_system(rng, m, 3)  # keeps the draws of the synthetic rows
            for i in range(m):
                nb = frames._band(i, G[i], level, tol)
                assert nb.below_band == reference(G, i, level, tol)


class TestFrameOperator:
    def test_orthonormal_basis(self):
        S = frame_operator(UnitVectorSystem.from_vectors(np.eye(5)))
        assert np.allclose(S, np.eye(5))

    def test_six_vector_frame(self):
        # direct summation of rank-one terms as the reference
        V = six_in_r4().vectors
        ref = sum(np.outer(r, r) for r in V)
        S = frame_operator(six_in_r4())
        assert np.allclose(S, ref, atol=1e-15)
        assert np.allclose(S, np.diag([2.0, 4 / 3, 4 / 3, 4 / 3]), atol=1e-12)

    def test_circular_five_is_multiple_of_identity(self):
        S = frame_operator(circular_frame(5))
        assert np.max(np.abs(S - 2.5 * np.eye(2))) <= 1e-12

    def test_trace_equals_m(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(1, 12))
            n = int(rng.integers(1, 7))
            sys_ = random_unit_system(rng, m, n)
            assert abs(np.trace(frame_operator(sys_)) - m) <= 1e-8 * m


class TestDerivedData:
    """Frame operator and spectrum are computed once per system; no Gram matrix is kept."""

    @staticmethod
    def _systems():
        return [six_in_r4(), random_unit_system(np.random.default_rng(30), 30, 5)]

    def test_cached_per_system(self):
        for X in self._systems():
            assert frame_operator(X) is frame_operator(X)
            assert spectral_data(X) is spectral_data(X)
            idx = [4, 0, 2]
            sub = X.restrict(idx)
            ref = gram(X).entries[np.ix_(idx, idx)]
            assert np.max(np.abs(gram(sub).entries - ref)) <= 1e-15

    def test_cached_arrays_are_read_only(self):
        X = six_in_r4()
        spec = spectral_data(X)
        for arr in (gram(X).entries, frame_operator(X), spec.eigenvalues, spec.eigenvectors):
            with pytest.raises(ValueError):
                arr[0, ...] = 0.0

    @staticmethod
    def _count(monkeypatch):
        """Counters of ``frames.gram`` calls, through every binding in the package, and of eigh calls."""
        grams, eighs = [], []
        compute = frames.gram

        def counted_gram(system):
            grams.append(1)
            return compute(system)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "framecore":
                for attr, value in list(vars(module).items()):
                    if value is compute:
                        monkeypatch.setattr(module, attr, counted_gram)
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            eighs.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        return grams, eighs

    @pytest.mark.parametrize(
        "run", [build_analysis_report, build_check_report, naimark_complement],
        ids=["analyze", "check", "naimark"],
    )
    def test_one_computation_per_stage(self, monkeypatch, run):
        # no stage forms the Gram matrix: neighbor bands read their own rows
        # and naimark checks its Gram relation in row blocks
        for X in self._systems():
            with monkeypatch.context() as mp:
                grams, eighs = self._count(mp)
                run(X, frames.DEFAULT_TOL)
            assert (len(grams), len(eighs)) == (0, 1)


class TestSpans:
    def test_six_vector_drop_each_single(self):
        six = six_in_r4()
        for j in range(6):
            assert spans(six, omit={j})

    def test_six_vector_drop_first_two(self):
        assert not spans(six_in_r4(), omit={0, 1})

    def test_orthonormal_basis_drop_one(self):
        onb = UnitVectorSystem.from_vectors(np.eye(3))
        assert spans(onb)
        assert not spans(onb, omit={0})
        for out_of_range in ({99}, {-1}, {0, 3}):
            with pytest.raises(ShapeError):
                spans(onb, omit=out_of_range)

    @staticmethod
    def _weak_third(delta2: float) -> UnitVectorSystem:
        """e1, e2 and (sqrt(1 - delta^2), 0, delta): lambda_min(S) is about delta^2 / 2."""
        return UnitVectorSystem.from_vectors(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.sqrt(1.0 - delta2), 0.0, math.sqrt(delta2)]]
        )

    def test_spectrum_route_equals_rank_route(self, monkeypatch):
        rank_rel = frames.DEFAULT_TOL.rank_rel

        def margin(delta2):  # lambda_min(S) - rank_rel lambda_max(S)
            eigs = spectral_data(self._weak_third(delta2)).eigenvalues
            return eigs[-1] - rank_rel * eigs[0]

        lo, hi = rank_rel, 10.0 * rank_rel
        for _ in range(80):  # bisect for the delta^2 at which rank_of flips
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if margin(mid) < 0.0 else (lo, mid)
        rng = np.random.default_rng(12)
        systems = [self._weak_third(lo * (1.0 + t)) for t in np.linspace(-3e-3, 3e-3, 61)]
        systems += [
            UnitVectorSystem.from_vectors(np.eye(3)[:2]),  # m < n
            random_unit_system(rng, 2, 5),
            UnitVectorSystem.from_vectors([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, -1, 0]]),
            double(mub_r2()).restrict(range(4)),  # rank 2 in R^4
            UnitVectorSystem.from_vectors(np.eye(4)),
            random_unit_system(rng, 40, 6),
            six_in_r4(),
        ]
        expected = [frames.rank_of(X.vectors) == X.dim for X in systems]
        banded = 0
        for X, want in zip(systems, expected):
            with monkeypatch.context() as mp:
                calls = count_calls(mp, frames.rank_of)
                assert spans(X) == want
            banded += len(calls)
        assert 0 < banded < 61  # both routes decide some of the near-threshold frames
        assert True in expected[:61] and False in expected[:61]

    @pytest.mark.parametrize(
        "system",
        [six_in_r4(), random_unit_system(np.random.default_rng(13), 200, 12)],
        ids=["six_in_r4", "gauss-200x12"],
    )
    def test_check_makes_no_svd_of_all_rows(self, monkeypatch, system):
        with monkeypatch.context() as mp:
            calls = count_calls(mp, row_space)
            build_check_report(system, frames.DEFAULT_TOL)
        assert calls
        assert all(np.shape(args[0])[0] < system.size for args in calls)


class TestDropOneSpanning:
    """The leverage-score decision against the rank route, vector by vector."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        rank_route = frames.spans

        def counting(system, omit=None, tol=frames.DEFAULT_TOL):
            calls.append(omit)
            return rank_route(system, omit=omit, tol=tol)

        monkeypatch.setattr(frames, "spans", counting)
        return calls

    @staticmethod
    def _oracle(system):
        return tuple(spans(system, omit={j}) for j in range(system.size))

    def test_matches_rank_route_without_fallback(self, monkeypatch):
        rng = np.random.default_rng(11)
        systems = [random_unit_system(rng, m, n) for m, n in ((4, 3), (13, 12), (40, 6), (200, 12))]
        systems += [simplex_etf(n) for n in range(2, 16)] + [six_in_r4(), circular_frame(7)]
        expected = [self._oracle(s) for s in systems]
        calls = self._counted(monkeypatch)
        for system, want in zip(systems, expected):
            assert drop_one_spanning(system) == want
        assert calls == []

    def test_single_removal_breaks_spanning(self, monkeypatch):
        system = UnitVectorSystem.from_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])
        calls = self._counted(monkeypatch)
        assert drop_one_spanning(system) == (False, False, True, True)
        assert calls == [{0}, {1}]

    @pytest.mark.parametrize(
        "system",
        [
            UnitVectorSystem.from_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]),
            tripod_example(0.5),
            UnitVectorSystem.from_vectors(np.vstack([np.eye(4), np.eye(4)[3]])),
        ],
        ids=["duplicate-e3", "tripod-0.5", "basis-r4-duplicate-e4"],
    )
    def test_breaking_vectors_match_the_oracle(self, monkeypatch, system):
        want = self._oracle(system)
        assert False in want
        calls = self._counted(monkeypatch)
        assert drop_one_spanning(system) == want
        assert all({j} in calls for j, keep in enumerate(want) if not keep)

    def test_nonspanning_frame_takes_rank_route(self, monkeypatch):
        # lambda_min(S) = 0: no leverage score exists, and none is divided out
        system = UnitVectorSystem.from_vectors([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0]])
        calls = self._counted(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert drop_one_spanning(system) == (False,) * 4
        assert calls == [{0}, {1}, {2}, {3}]

    @pytest.mark.parametrize(
        "weak, want",
        [
            # x2 = (c, s), s^2 = 1.5e-9, next to a doubled e1: lambda_min(S)
            # ~ 1e-9 is so small that the rounding allowance on h_2 leaves
            # its bounds straddling the threshold; x0 and x1 stay decided
            ([math.sqrt(1.5e-9)], (True, True, False)),
            # (c, +-s) next to a tripled e1 with lambda_min(S) = 1.5 rank_rel
            # lambda_max(S): dropping either weak vector halves lambda_min
            # while h stays near 1/2, so only the rank route can say no
            ([math.sqrt(3.75e-10), -math.sqrt(3.75e-10)], (True, True, True, False, False)),
        ],
    )
    def test_near_band_vectors_take_rank_route(self, monkeypatch, weak, want):
        base = [[1.0, 0.0]] * (len(want) - len(weak))
        system = UnitVectorSystem.from_vectors(base + [[math.sqrt(1 - s * s), s] for s in weak])
        assert self._oracle(system) == want
        calls = self._counted(monkeypatch)
        assert drop_one_spanning(system) == want
        assert calls == [{j} for j in range(len(base), len(want))]

    def test_spectrum_argument_and_size_check(self):
        six = six_in_r4()
        spec = spectral_data(six)
        assert drop_one_spanning(six) == (True,) * 6
        assert spectral_data(six) is spec
        with pytest.raises(ShapeError):
            drop_one_spanning(UnitVectorSystem.from_vectors([[1.0, 0.0]]))


class TestTightness:
    def test_orthonormal_basis_is_parseval(self):
        v = tightness(UnitVectorSystem.from_vectors(np.eye(3)))
        assert v.kind == "parseval"
        assert v.bound == 1.0

    def test_circular_five(self):
        v = tightness(circular_frame(5))
        assert v.kind == "tight"
        assert abs(v.bound - 2.5) <= 1e-12

    def test_six_vector_frame_not_tight(self):
        assert tightness(six_in_r4()).kind == "not_tight"

    def test_tight_bound_is_m_over_n(self):
        for sys_ in (circular_frame(7), mub_r2(), simplex_etf(4), double(mub_r2())):
            v = tightness(sys_)
            assert v.tight
            assert abs(v.bound - sys_.size / sys_.dim) <= 1e-8


class TestEquiangular:
    def test_six_vector_frame(self):
        flag, angle = is_equiangular(six_in_r4())
        assert flag and abs(angle - 1.0 / 3.0) <= 1e-12

    def test_orthonormal_basis(self):
        flag, angle = is_equiangular(UnitVectorSystem.from_vectors(np.eye(3)))
        assert flag and angle == 0.0

    def test_basis_plus_diagonal_is_not(self):
        t = np.ones(3) / np.sqrt(3.0)
        sys_ = UnitVectorSystem.from_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1], list(t)])
        flag, angle = is_equiangular(sys_)
        assert not flag and angle is None

    def test_one_vector_is_rejected(self):
        with pytest.raises(ShapeError, match="at least two vectors"):
            is_equiangular(UnitVectorSystem.from_vectors([[1.0, 0.0]]))

    def test_every_band_is_read_by_band_and_the_first_short_one_stops(self, monkeypatch):
        # The band rule | |G_ij| - alpha | <= neighbor_abs is written once, in
        # frames._band: an equiangular frame reads all m bands in order; with the
        # diagonal first, basis-plus-diagonal's band 0 is full and band 1 is short.
        t = np.ones(3) / np.sqrt(3.0)
        diagonal_first = UnitVectorSystem.from_vectors([list(t), [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        cases = [(simplex_etf(3), True, 4), (six_in_r4(), True, 6), (diagonal_first, False, 2),
                 (circular_frame(5), False, 1)]
        for system, equiangular, reads in cases:
            with monkeypatch.context() as mp:
                bands = count_calls(mp, frames._band)
                assert is_equiangular(system)[0] is equiangular
            assert [args[0] for args in bands] == list(range(reads))

    def test_flag_is_every_neighbor_set_full_at_the_band_edge(self):
        # neighbor_abs is put a few ulps either side of coherence - min |G_ij| of a
        # nudged simplex, so the smallest |G_ij| sits at the edge of the band.
        # The examples at n = 30 and 120 have rows V x_i that are not symmetric
        # to the ulp, and a band edge that V V^T would put elsewhere.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(1e-10, 1e-4), st.integers(-4, 4))
        @hypothesis.example(30, 1, 1e-8, -1)
        @hypothesis.example(30, 1, 1e-8, 0)
        @hypothesis.example(120, 0, 1e-6, -1)
        @hypothesis.example(120, 0, 1e-6, 0)
        def check(n, seed, scale, ulps):
            rows = simplex_etf(n).vectors + scale * np.random.default_rng(seed).standard_normal((n + 1, n))
            sys_ = UnitVectorSystem.from_vectors(rows / np.linalg.norm(rows, axis=1)[:, None])
            alpha, V, m = coherence(sys_), sys_.vectors, sys_.size
            R = np.array([V @ x for x in V])  # the rows neighbors() reads, not V V^T
            band = alpha - np.abs(R[~np.eye(m, dtype=bool)]).min()
            for _ in range(abs(ulps)):
                band = np.nextafter(band, math.copysign(np.inf, ulps))
            hypothesis.assume(0.0 < band < 1e-2)
            tol = frames.DEFAULT_TOL._replace(neighbor_abs=float(band))
            full = all(len(neighbors(sys_, i, alpha, tol).indices) == m - 1 for i in range(m))
            assert is_equiangular(sys_, tol)[0] == full == (ulps >= 0)

        check()


class TestEtf:
    def test_simplex(self):
        assert is_etf(simplex_etf(3))

    def test_route_disagreement_raises(self):
        # nudge x0 by 5e-9 along (x1 - x2)/||x1 - x2||, which is orthogonal
        # to x0: |<x0, x1>| and |<x0, x2>| move apart by about 8e-9, inside
        # neighbor_abs, while S moves by about 4e-9, beyond eq_abs.  The system
        # stays equiangular and at the Welch value within 1e-7 but is not
        # tight, so the structural and Welch-equality routes disagree
        from framecore.errors import InconsistentVerdict

        V = simplex_etf(3).vectors.copy()
        w = (V[1] - V[2]) / np.linalg.norm(V[1] - V[2])
        V[0] = V[0] + 5e-9 * w
        V[0] = V[0] / np.linalg.norm(V[0])
        boundary = UnitVectorSystem.from_vectors(V)
        assert not tightness(boundary).tight
        assert is_equiangular(boundary)[0]
        with pytest.raises(InconsistentVerdict):
            is_etf(boundary)

    def test_six_vector_frame_is_not(self):
        assert not is_etf(six_in_r4())

    def test_orthonormal_basis_degenerate_case(self):
        assert is_etf(UnitVectorSystem.from_vectors(np.eye(4)))

    def test_one_vector_is_rejected(self):
        with pytest.raises(ShapeError, match="at least two vectors"):
            is_etf(UnitVectorSystem.from_vectors([[1.0, 0.0]]))


class TestBoundsCard:
    def test_welch_six_four(self):
        card = bounds_card(six_in_r4())
        assert abs(card.welch - math.sqrt(2.0 / 20.0)) <= 1e-12
        assert not card.meets_welch

    def test_welch_four_three(self):
        card = bounds_card(simplex_etf(3))
        assert abs(card.welch - 1.0 / 3.0) <= 1e-12
        assert card.meets_welch

    def test_dimension_three_constants(self):
        card = bounds_card(random_unit_system(np.random.default_rng(0), 7, 3))
        assert card.gerzon_max_m == 6
        assert abs(card.orthoplex - 0.5773502691896258) <= 1e-12
        assert card.exceeds_gerzon

    def test_welch_inapplicable_when_m_le_n(self):
        card = bounds_card(UnitVectorSystem.from_vectors(np.eye(3)))
        assert card.welch is None and card.meets_welch is None


class TestReconstruct:
    def test_orthonormal_basis(self):
        onb = UnitVectorSystem.from_vectors(np.eye(3))
        t = np.array([1.0, -2.0, 0.5])
        assert np.allclose(reconstruct(onb, t), t, atol=1e-12)

    def test_circular_five_tight_route(self):
        c5 = circular_frame(5)
        t = np.array([1.0, 0.0])
        rec = reconstruct(c5, t)
        assert np.linalg.norm(rec - t) <= 1e-7
        # the tight route is (2/5) sum <t, x_i> x_i
        V = c5.vectors
        manual = (2.0 / 5.0) * (V @ t) @ V
        assert np.allclose(rec, manual, atol=1e-12)

    def test_six_vector_frame_random_target(self):
        rng = np.random.default_rng(123)
        t = rng.standard_normal(4)
        rec = reconstruct(six_in_r4(), t)
        assert np.linalg.norm(rec - t) <= 1e-7 * np.linalg.norm(t)

    def test_rejects_nonspanning(self):
        pair = UnitVectorSystem.from_vectors(np.eye(3)[:2])
        with pytest.raises(NotAFrame):
            reconstruct(pair, np.ones(3))

    def test_rejects_bad_targets(self):
        onb = UnitVectorSystem.from_vectors(np.eye(3))
        with pytest.raises(ShapeError, match="target has dimension 2, expected 3"):
            reconstruct(onb, [1.0, 0.0])
        with pytest.raises(NonFinite):
            reconstruct(onb, [1.0, np.nan, 0.0])

    def test_identity_on_seeded_spanning_systems(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(n, n + 6))
            sys_ = random_unit_system(rng, m, n)
            if not spans(sys_):
                continue
            t = rng.standard_normal(n)
            rec = reconstruct(sys_, t)
            assert np.linalg.norm(rec - t) <= 1e-7 * max(np.linalg.norm(t), 1.0)

    def test_spectral_route_equals_tight_formula(self):
        """On tight frames S^-1 is division by the frame bound: (n/m) sum <t, x_i> x_i."""
        frames = [circular_frame(m) for m in range(2, 11)]
        frames += [simplex_etf(n) for n in range(1, 7)]
        frames += [mub_r2(), double(mub_r2()), double(simplex_etf(3))]
        rng = np.random.default_rng(2718)
        for X in frames:
            m, n = X.size, X.dim
            assert tightness(X).tight
            for t in rng.standard_normal((3, n)):
                tight_route = (n / m) * (X.vectors @ t) @ X.vectors
                assert np.max(np.abs(reconstruct(X, t) - tight_route)) <= 1e-12


def _neighbor_counts(X):
    """Level-0 neighbor counts of X and ``neighbor_count_report``'s checks on them."""
    trace = core(X)
    counts = tuple(v.neighbor_count for v in trace.levels[0].verdicts)
    return counts, neighbor_count_report(trace, tightness(X).tight)


class TestNeighborCountReport:
    def test_six_vector_frame(self):
        X = six_in_r4()
        counts, checks = _neighbor_counts(X)
        assert counts == (5, 5, 5, 5, 5, 5)
        assert all(status == "SKIP" for _, status, _ in checks)

    def test_orthonormal_basis(self):
        X = UnitVectorSystem.from_vectors(np.eye(3))
        counts, _ = _neighbor_counts(X)
        assert counts == (2, 2, 2)

    def test_mub_counts_and_parity(self):
        X = mub_r2()
        counts, checks = _neighbor_counts(X)
        assert counts == (2, 2, 2, 2)
        names = {name: status for name, status, _ in checks}
        assert names["max_count_le_m_minus_2"] == "PASS"

    def test_circular_seven_odd_parity(self):
        X = circular_frame(7)
        _, checks = _neighbor_counts(X)
        names = {name: status for name, status, _ in checks}
        assert names["max_count_le_m_minus_2"] == "PASS"
        assert names["odd_m_some_count_le_m_minus_3"] == "PASS"


class TestInvariants:
    def test_coherence_range_and_invariance(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, 6))
            sys_ = random_unit_system(rng, m, n)
            alpha = gram(sys_).coherence
            assert 0.0 <= alpha <= 1.0 + 1e-15
            perm = rng.permutation(m)
            assert abs(gram(UnitVectorSystem.from_vectors(sys_.vectors[perm])).coherence - alpha) <= 1e-9
            flips = np.where(rng.random(m) < 0.5, -1.0, 1.0)
            flipped = UnitVectorSystem.from_vectors(sys_.vectors * flips[:, None])
            assert abs(gram(flipped).coherence - alpha) <= 1e-9
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            rotated = UnitVectorSystem.from_vectors(sys_.vectors @ Q)
            assert abs(gram(rotated).coherence - alpha) <= 1e-9

    def test_welch_inequality_on_spanning_systems(self):
        rng = np.random.default_rng(555)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n + 1, n + 7))
            sys_ = random_unit_system(rng, m, n)
            if not spans(sys_):
                continue
            checked += 1
            assert gram(sys_).coherence >= welch_bound(m, n) - 1e-9
        assert checked >= 50

    def test_full_neighbor_count_on_tight_system_implies_etf(self):
        tight_family = [circular_frame(m) for m in range(2, 11)]
        tight_family += [mub_r2(), double(mub_r2())]
        tight_family += [simplex_etf(n) for n in range(1, 7)]
        tight_family += [double(simplex_etf(3)), double(circular_frame(5))]
        for sys_ in tight_family:
            assert tightness(sys_).tight
            counts, _ = _neighbor_counts(sys_)
            if max(counts) == sys_.size - 1:
                assert is_etf(sys_)

    def test_spectral_trace(self):
        spec = spectral_data(six_in_r4())
        assert abs(spec.eigenvalues.sum() - 6.0) <= 1e-8 * 6.0
        assert spec.top_multiplicity(1e-9) == 1
