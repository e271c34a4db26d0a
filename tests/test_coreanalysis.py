"""Tests for vector classification, perturbation replacement, and the core."""

import numpy as np
import pytest

from framecore import (
    UnitVectorSystem,
    bounds_card,
    build_analysis_report,
    circular_frame,
    classify_n_plus_2,
    classify_vector,
    core,
    double,
    eigen_span_diagnostic,
    gram,
    is_equiangular,
    is_etf,
    isolable_set,
    mub_r2,
    naimark_complement,
    neighbor_count_report,
    perturb_replace,
    simplex_etf,
    six_in_r4,
    spectral_data,
    tight_grassmannian_diagnostic,
    tightness,
    validate_core,
    welch_bound,
)
from framecore import coreanalysis, diagnostics
from framecore.report import build_check_report
from framecore.coreanalysis import (
    DEFICIENT_ISOLABLE,
    INDETERMINATE,
    ISOLABLE,
    ISOLATED,
    NOT_ISOLABLE,
    CoreLevel,
    CoreTrace,
    _tangent_neighbors,
)
from framecore.diagnostics import EQUIANGULAR_SUBSET, FULL_CORE, INAPPLICABLE, INCONCLUSIVE
from framecore.errors import NonFinite, SearchFailed, ShapeError, ValidationError
from framecore.frames import _band, coherence, neighbors
from framecore.numerics import (
    DEFAULT_TOL,
    min_norm_point,
    nnls_cone_feasible,
    orthonormal_complement,
    rank_of,
    row_space,
)
from helpers import (
    basis_plus_diagonal,
    count_calls,
    near_tie,
    patch_everywhere,
    random_unit_system,
    simplex_with_midpoints,
    tripod_example,
    structured_family,
    sweep_finds_isolation,
)


class TestClassifyTripodExample:
    """The boundary case: min-norm point is zero yet the vector is isolable."""

    def test_verdict_and_witness(self):
        X = tripod_example(0.5)
        v = classify_vector(X, 0)
        assert v.status == ISOLABLE
        assert v.neighbor_count == 3
        assert v.neighbor_rank == 3  # not deficient
        w = v.witness / np.linalg.norm(v.witness)
        assert np.allclose(np.abs(w), [1.0, 0.0, 0.0], atol=1e-9)
        assert w[0] < 0.0

    def test_stage_decomposition(self):
        # First stage: the projected signed neighbors have 0 in their hull.
        X = tripod_example(0.5)
        nb = neighbors(X, 0, coherence(X), DEFAULT_TOL)
        tangent = _tangent_neighbors(X, 0, nb, X.vectors @ X.vectors[0])
        point, _ = min_norm_point(tangent)
        assert np.linalg.norm(point) <= DEFAULT_TOL.hull_abs
        # Second stage: the positive-spanning test fails at target -e1 and
        # its infeasibility certificate is the isolating direction.
        basis = orthonormal_complement(X.vectors[0].reshape(1, -1))
        outcomes = {}
        for b in basis:
            for sign in (1.0, -1.0):
                res = nnls_cone_feasible(tangent, sign * b)
                outcomes[(tuple(np.round(b, 6)), sign)] = res
        infeasible = [r for r in outcomes.values() if not r.feasible]
        assert len(infeasible) == 1
        cert = infeasible[0].certificate
        cert = cert / np.linalg.norm(cert)
        assert np.allclose(cert, [-1.0, 0.0, 0.0], atol=1e-9)

    def test_perturbation_beats_level(self):
        X = tripod_example(0.5)
        v = classify_vector(X, 0)
        xp = perturb_replace(X, 0, v.witness)
        assert abs(np.linalg.norm(xp) - 1.0) <= 1e-12
        assert np.max(np.abs(X.vectors[1:] @ xp)) < 0.5 - 1e-9

    def test_paper_epsilon_construction(self):
        # x' = (-0.1, 0, sqrt(0.99)) is the printed perturbation; it must
        # meet every y_i strictly below 1/2.
        X = tripod_example(0.5)
        xp = np.array([-0.1, 0.0, np.sqrt(0.99)])
        assert np.max(np.abs(X.vectors[1:] @ xp)) < 0.5

    # alpha >= 1/2 keeps the coherence at alpha (below that the pair
    # (y2, y3) exceeds it and x becomes genuinely isolated)
    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7])
    def test_various_levels(self, alpha):
        X = tripod_example(alpha)
        v = classify_vector(X, 0)
        assert v.status == ISOLABLE
        xp = perturb_replace(X, 0, v.witness)
        assert np.max(np.abs(X.vectors[1:] @ xp)) < alpha


class TestClassifyBasisPlusDiagonal:
    def test_basis_vectors_are_deficient(self):
        X = basis_plus_diagonal()
        for i in range(3):
            v = classify_vector(X, i)
            assert v.status == DEFICIENT_ISOLABLE
            assert v.neighbor_count == 1
            assert v.neighbor_rank == 1
            assert abs(float(v.witness @ X.vectors[i])) <= 1e-8

    def test_diagonal_vector_is_not_isolable(self):
        X = basis_plus_diagonal()
        v = classify_vector(X, 3)
        assert v.status == NOT_ISOLABLE
        assert v.neighbor_count == 3
        assert v.certificate is not None
        # one strictly positive weight per neighbor cancels the projected
        # signed neighbors: they positively span the tangent space
        assert v.certificate.shape == (3,)
        assert v.certificate.min() > 0.0
        nb = neighbors(X, 3, coherence(X), DEFAULT_TOL)
        tangent = np.array(_tangent_neighbors(X, 3, nb, X.vectors @ X.vectors[3]))
        assert np.linalg.norm(v.certificate @ tangent) <= DEFAULT_TOL.hull_abs

    def test_deficient_perturbation_beats_level(self):
        X = basis_plus_diagonal()
        alpha = gram(X).coherence
        v = classify_vector(X, 0)
        xp = perturb_replace(X, 0, v.witness)
        assert np.max(np.abs(X.vectors[1:] @ xp)) < alpha


class TestClassifyEdgeCases:
    def test_orthonormal_basis_nothing_isolable(self):
        X = UnitVectorSystem.from_vectors(np.eye(3))
        for i in range(3):
            assert classify_vector(X, i).status == NOT_ISOLABLE

    def test_singleton(self):
        X = UnitVectorSystem.from_vectors([[0.0, 1.0]])
        assert classify_vector(X, 0).status == NOT_ISOLABLE

    def test_isolated_vector(self):
        # coherence attained between rows 1 and 2; row 0 is strictly below
        X = UnitVectorSystem.from_vectors(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, np.sqrt(3.0) / 2.0, 0.5],
            ]
        )
        v = classify_vector(X, 0)
        assert v.status == ISOLATED
        assert v.neighbor_count == 0

    def test_line_system_not_isolable(self):
        # in R^1 the sphere is two points; no strict improvement exists
        X = UnitVectorSystem.from_vectors([[1.0], [1.0], [-1.0]])
        for i in range(3):
            assert classify_vector(X, i).status == NOT_ISOLABLE

    def test_near_tie_warning(self):
        h = 0.5 - 1.5e-8
        c = np.array([h, 0.0, np.sqrt(1.0 - h * h)])
        X = UnitVectorSystem.from_vectors(
            [[1.0, 0.0, 0.0], [0.5, np.sqrt(0.75), 0.0], list(c)]
        )
        v = classify_vector(X, 0)
        assert any("tolerance-sensitive" in w for w in v.warnings)

    def test_near_tie_warnings_match_loop_reference(self):
        # the scalar loop the near-tie warnings once ran, kept as the
        # reference for the near ties that neighbors() returns
        def reference(row, i, alpha, tol):
            return tuple(
                j
                for j in range(row.size)
                if j != i and tol.neighbor_abs < abs(abs(row[j]) - alpha) <= 2.0 * tol.neighbor_abs
            )

        rng = np.random.default_rng(9)
        alpha, tol = 0.3, DEFAULT_TOL
        gaps = tol.neighbor_abs * np.array([0.5, 1.0, 1.5, 2.0, 2.5, -1.5, -2.0, -3.0])
        for _ in range(20):
            row = rng.choice((-1.0, 1.0), 12) * (alpha + rng.choice(gaps, 12))
            i = int(rng.integers(12))
            nb = _band(i, row, alpha, tol)
            assert nb.near_ties == reference(row, i, alpha, tol)


class TestIndeterminatePolicy:
    def test_iteration_limit_becomes_indeterminate(self, monkeypatch):
        from framecore import coreanalysis
        from framecore.errors import IterationLimit

        def exhausted(generators, target, tol):
            raise IterationLimit("forced for the test")

        monkeypatch.setattr(coreanalysis, "nnls_cone_feasible", exhausted)
        X = tripod_example(0.5)
        verdict = classify_vector(X, 0)
        assert verdict.status == INDETERMINATE
        assert any("iteration limit" in w for w in verdict.warnings)
        level = isolable_set(X)
        assert level.verdicts[0].status == INDETERMINATE
        assert 0 not in level.removed
        assert any("kept" in w for w in level.warnings)

    def test_failed_constructive_validation_becomes_indeterminate(self, monkeypatch):
        from framecore import coreanalysis

        def hopeless(system, nb, witness):
            raise SearchFailed("forced for the test")

        monkeypatch.setattr(coreanalysis, "_perturb_search", hopeless)
        X = tripod_example(0.5)
        verdict = classify_vector(X, 0)
        assert verdict.status == INDETERMINATE
        assert any("constructive validation failed" in w for w in verdict.warnings)


class TestPerturbReplace:
    def test_rejects_non_orthogonal_witness(self):
        X = tripod_example(0.5)
        with pytest.raises(ValidationError):
            perturb_replace(X, 0, X.vectors[0])

    def test_rejects_zero_witness(self):
        X = tripod_example(0.5)
        with pytest.raises(ValidationError):
            perturb_replace(X, 0, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_witness(self, bad):
        # rejected as input before the search, not 60 halvings later as SearchFailed
        with pytest.raises(NonFinite):
            perturb_replace(six_in_r4(), 0, [bad, 0.0, 0.0, 0.0])

    def test_bad_direction_fails_search(self):
        # pushing straight toward a neighbor can never drop below level
        X = tripod_example(0.5)
        with pytest.raises(SearchFailed):
            perturb_replace(X, 0, np.array([1.0, 0.0, 0.0]))

    def test_one_vector_system_is_returned_unchanged(self):
        # coherence 0 gives a first step of 0, and no other row can block it
        X = UnitVectorSystem.from_vectors([[0.6, 0.8, 0.0]])
        xp = perturb_replace(X, 0, np.array([0.8, -0.6, 0.0]))
        assert xp.tolist() == [0.6, 0.8, 0.0]
        assert classify_vector(X, 0).status == NOT_ISOLABLE


class TestIsolableSet:
    def test_orthonormal_basis_empty(self):
        X = UnitVectorSystem.from_vectors(np.eye(4))
        assert isolable_set(X).removed == ()

    def test_basis_plus_diagonal(self):
        assert isolable_set(basis_plus_diagonal()).removed == (0, 1, 2)

    def test_simplex_empty(self):
        assert isolable_set(simplex_etf(3)).removed == ()

    def test_six_vector_frame_empty(self):
        assert isolable_set(six_in_r4()).removed == ()


class TestCore:
    def test_orthonormal_basis_is_its_own_core(self):
        X = UnitVectorSystem.from_vectors(np.eye(4))
        trace = core(X)
        assert trace.core == (0, 1, 2, 3)
        assert len(trace.levels) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_simplex_full_core(self, n):
        trace = core(simplex_etf(n))
        assert trace.core == tuple(range(n + 1))

    def test_six_vector_frame_single_level(self):
        trace = core(six_in_r4())
        assert trace.core == (0, 1, 2, 3, 4, 5)
        assert len(trace.levels) == 1
        assert trace.levels[0].removed == ()

    def test_basis_plus_diagonal_trace(self):
        trace = core(basis_plus_diagonal())
        assert trace.core == (3,)
        assert [lvl.members for lvl in trace.levels] == [(0, 1, 2, 3), (3,)]
        assert trace.levels[0].removed == (0, 1, 2)
        assert trace.levels[1].removed == ()
        assert abs(trace.levels[0].coherence - 1.0 / np.sqrt(3.0)) <= 1e-12
        assert trace.levels[1].coherence == 0.0

    def test_emptying_chain_warns(self):
        X = UnitVectorSystem.from_vectors(
            [[1.0, 0.0], [0.5, np.sqrt(0.75)]]
        )
        trace = core(X)
        assert trace.core == ()
        assert any("not Grassmannian" in w for w in trace.warnings)

    def test_level_warnings_name_input_rows(self, monkeypatch):
        # Reversed, the 21 midpoints come first and peel at level 0; the
        # simplex is level 1 with members 21..27.  Position 0 of level 1 is
        # input row 21, and the warning must say so.
        X = UnitVectorSystem.from_vectors(simplex_with_midpoints(6).vectors[::-1])
        classify = coreanalysis.classify_vector

        def forced(system, i, tol=DEFAULT_TOL):
            verdict = classify(system, i, tol)
            if system.size == 7 and i == 0:
                return verdict._replace(status=INDETERMINATE, certificate=None)
            return verdict

        monkeypatch.setattr(coreanalysis, "classify_vector", forced)
        trace = core(X)
        assert trace.levels[1].members == tuple(range(21, 28))
        assert trace.levels[1].verdicts[0].status == INDETERMINATE
        kept = "vectors [21] are indeterminate and were kept (not removed)"
        assert trace.levels[1].warnings == (kept,)
        assert kept in trace.warnings
        assert not any("vectors [0]" in w for w in trace.warnings)

    def test_doubled_mub_core_empties(self):
        # doubling preserves coherence only within the tight class: every
        # doubled vector has two packing neighbors spanning a plane inside
        # R^4, so all are deficient and the chain empties, which is the
        # correct evidence that the double is not an unrestricted minimizer
        from framecore import double

        X = double(mub_r2())
        verdicts = isolable_set(X).verdicts
        assert all(v.status == DEFICIENT_ISOLABLE for v in verdicts)
        trace = core(X)
        assert trace.core == ()
        assert any("not Grassmannian" in w for w in trace.warnings)

    def test_monotone_chain(self):
        for system in structured_family():
            trace = core(system)
            members = [lvl.members for lvl in trace.levels]
            for a, b in zip(members, members[1:]):
                assert set(b) < set(a)
            assert len(trace.levels) <= system.size

    def test_idempotence_on_core(self):
        for system in structured_family():
            trace = core(system)
            if not trace.core:
                continue
            sub = system.restrict(trace.core)
            again = core(sub)
            assert again.core == tuple(range(len(trace.core)))


class TestValidateCore:
    def test_six_vector_frame_passes(self):
        X = six_in_r4()
        checks = validate_core(X, core(X))
        assert all(status != "FAIL" for _, status, _ in checks)
        statuses = {name: status for name, status, _ in checks}
        assert statuses["core_size_at_least_n_plus_1"] == "PASS"
        assert statuses["core_neighbors_span"] == "PASS"

    def test_circular_four_passes(self):
        X = circular_frame(4)
        assert all(status != "FAIL" for _, status, _ in validate_core(X, core(X)))

    def test_basis_plus_diagonal_fails_size(self):
        X = basis_plus_diagonal()
        checks = validate_core(X, core(X))
        statuses = {name: status for name, status, _ in checks}
        assert statuses["core_size_at_least_n_plus_1"] == "FAIL"
        assert any(status == "FAIL" for _, status, _ in checks)

    def test_core_below_the_packing_angle_is_named(self):
        # The midpoints peel at level 0 and leave the simplex, whose own
        # coherence 1/6 is far below the system's; the passing spanning row
        # must name both values instead of claiming the packing angle.
        X = simplex_with_midpoints(6)
        trace = core(X)
        alpha, core_alpha = gram(X).coherence, trace.levels[-1].coherence
        assert abs(core_alpha - 1.0 / 6.0) <= 1e-12 and alpha > 0.6
        rows = {name: (status, detail) for name, status, detail in validate_core(X, trace)}
        status, detail = rows["core_neighbors_span"]
        assert status == "PASS"
        assert "at the packing angle" not in detail
        assert detail == (
            f"every core vector meets a spanning family at the core's coherence "
            f"{core_alpha:.15g}, below the packing angle {alpha:.15g}"
        )
        assert "0.166666666666667" in detail and "0.645497224367903" in detail

    def test_orthonormal_basis_zero_branch(self):
        X = UnitVectorSystem.from_vectors(np.eye(3))
        statuses = {name: status for name, status, _ in validate_core(X, core(X))}
        assert statuses["orthogonal_case_full_core"] == "PASS"
        assert statuses["core_neighbors_span"] == "SKIP"


class TestDichotomy:
    def test_six_vector_frame_full_core(self):
        X = six_in_r4()
        verdict = classify_n_plus_2(X, core(X))
        assert verdict.kind == FULL_CORE
        assert verdict.indices == (0, 1, 2, 3, 4, 5)

    def test_circular_four_full_core(self):
        X = circular_frame(4)
        assert classify_n_plus_2(X, core(X)).kind == FULL_CORE

    def test_wrong_size_inapplicable(self):
        X = circular_frame(5)
        assert classify_n_plus_2(X, core(X)).kind == INAPPLICABLE

    def test_equiangular_subset_branch_with_given_trace(self):
        # No coherence minimizer with a strict core is known (that is the
        # open isolability problem), so drive the n+1 branch with an
        # explicit trace: five of the six R^4 frame vectors are pairwise
        # equiangular at the full coherence 1/3.
        six = six_in_r4()
        members = (0, 1, 2, 3, 4)
        trace = CoreTrace(
            (
                CoreLevel((0, 1, 2, 3, 4, 5), (5,), 1.0 / 3.0, isolable_set(six).verdicts),
                CoreLevel(members, (), 1.0 / 3.0, isolable_set(six.restrict(members)).verdicts),
            ),
            members,
            (),
        )
        verdict = classify_n_plus_2(six, trace=trace)
        assert verdict.kind == EQUIANGULAR_SUBSET
        assert verdict.indices == members

    def test_inconclusive_branch_with_given_trace(self):
        # mub subsystem {0, 2, 3} contains an orthogonal pair, so the
        # pairwise-angle check must reject it.
        mm = mub_r2()
        members = (0, 2, 3)
        alpha = 1.0 / np.sqrt(2.0)
        trace = CoreTrace(
            (
                CoreLevel((0, 1, 2, 3), (1,), alpha, isolable_set(mm).verdicts),
                CoreLevel(members, (), alpha, isolable_set(mm.restrict(members)).verdicts),
            ),
            members,
            (),
        )
        verdict = classify_n_plus_2(mm, trace=trace)
        assert verdict.kind == INCONCLUSIVE


class TestTightGrassmannianDiagnostic:
    def test_six_vector_frame_skipped_not_tight(self):
        X = six_in_r4()
        assert tight_grassmannian_diagnostic(X, tightness(X))[1] == "SKIP"

    def test_mub_skipped_small_dimension(self):
        # tight with m = n + 2 but n = 2; the obstruction needs n > 2
        X = mub_r2()
        assert tight_grassmannian_diagnostic(X, tightness(X))[1] == "SKIP"

    def test_synthetic_tight_unflagged_passes(self):
        Y, _, _ = naimark_complement(circular_frame(5))  # tight, 5 vectors in R^3
        assert tight_grassmannian_diagnostic(Y, tightness(Y))[1] == "PASS"


class TestEigenSpanDiagnostic:
    def test_six_vector_frame_passes_with_zero_distances(self):
        X = six_in_r4()
        rep = eigen_span_diagnostic(X, core(X))
        assert rep.status == "PASS"
        assert rep.multiplicity == 1
        assert max(d[0] for d in rep.distances) <= 1e-12

    def test_circular_five_ambiguous(self):
        X = circular_frame(5)
        rep = eigen_span_diagnostic(X, core(X))
        assert rep.status == "AMBIGUOUS"
        assert rep.multiplicity == 2

    def test_orthonormal_basis_skipped(self):
        X = UnitVectorSystem.from_vectors(np.eye(3))
        rep = eigen_span_diagnostic(X, core(X))
        assert rep.status == "SKIP"


class TestClassificationProperties:
    def test_constructive_soundness_on_seeded_systems(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, 7))
            X = random_unit_system(rng, m, n)
            alpha = gram(X).coherence
            for v in isolable_set(X).verdicts:
                if v.status in (ISOLABLE, DEFICIENT_ISOLABLE):
                    xp = perturb_replace(X, v.index, v.witness)
                    others = np.delete(X.vectors, v.index, axis=0)
                    assert np.max(np.abs(others @ xp)) < alpha

    def test_not_isolable_confirmed_by_sweep_on_structured_systems(self):
        for X in structured_family():
            for v in isolable_set(X).verdicts:
                if v.status == NOT_ISOLABLE:
                    assert not sweep_finds_isolation(X, v.index, n_dirs=4000)

    def test_empty_neighbor_set_is_never_not_isolable(self):
        rng = np.random.default_rng(1618)
        tol = DEFAULT_TOL
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 8))
            X = random_unit_system(rng, m, n)
            gm = gram(X)
            if gm.coherence <= tol.neighbor_abs:
                continue
            for i in range(m):
                nb = neighbors(X, i, gm.coherence, tol)
                verdict = classify_vector(X, i, tol)
                if not nb.indices:
                    assert verdict.status == ISOLATED
                assert verdict.status != NOT_ISOLABLE or nb.indices

    def test_deficient_vectors_pass_general_machinery(self):
        # Force stage (c) for deficient vectors: the tangent-cone analysis
        # must also find them isolable, and the deficiency witness must
        # satisfy the tangent inequalities <w, u_y> <= 0.
        tol = DEFAULT_TOL
        cases = [basis_plus_diagonal()]
        rng = np.random.default_rng(31)
        cases += [random_unit_system(rng, int(rng.integers(3, 7)), 3) for _ in range(10)]
        seen = 0
        for X in cases:
            gm = gram(X)
            if gm.coherence <= tol.neighbor_abs:
                continue
            for v in isolable_set(X, tol).verdicts:
                if v.status != DEFICIENT_ISOLABLE:
                    continue
                seen += 1
                nb = neighbors(X, v.index, gm.coherence, tol)
                tangent = _tangent_neighbors(X, v.index, nb, X.vectors @ X.vectors[v.index])
                assert max(float(v.witness @ u) for u in tangent) <= 1e-10
                point, _ = min_norm_point(tangent, tol)
                if np.linalg.norm(point) > tol.hull_abs:
                    continue  # strict separation: stage (c) says isolable
                x = X.vectors[v.index]
                basis = orthonormal_complement(x.reshape(1, -1), tol)
                infeasible = False
                for b in basis:
                    for sign in (1.0, -1.0):
                        if not nnls_cone_feasible(tangent, sign * b, tol).feasible:
                            infeasible = True
                assert infeasible
        assert seen >= 3

    def test_subset_without_isolable_vectors_lies_in_core(self):
        import itertools

        tol = DEFAULT_TOL
        systems = [six_in_r4(), mub_r2(), simplex_etf(3), basis_plus_diagonal()]
        rng = np.random.default_rng(97)
        systems += [random_unit_system(rng, 5, 3) for _ in range(5)]
        for X in systems:
            alpha = gram(X).coherence
            trace = core(X, tol)
            core_set = set(trace.core)
            for size in range(2, X.size):
                for subset in itertools.combinations(range(X.size), size):
                    sub = X.restrict(subset)
                    if abs(gram(sub).coherence - alpha) > 1e-12:
                        continue
                    if isolable_set(sub, tol).removed:
                        continue
                    assert set(subset) <= core_set


def _random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _scrambled(rng, rows):
    """Rows under a random rotation, row order and sign per row."""
    rows = np.asarray(rows, dtype=float)
    rows = rows @ _random_orthogonal(rng, rows.shape[1])
    signs = rng.choice([-1.0, 1.0], size=rows.shape[0])
    return UnitVectorSystem.from_vectors(rows[rng.permutation(rows.shape[0])] * signs[:, None])


def _rim_frame(alpha, dirs):
    """e_n plus one vector meeting it at alpha per unit tangent direction."""
    dirs = np.asarray(dirs, dtype=float)
    r = np.sqrt(1.0 - alpha * alpha)
    rim = np.column_stack([r * dirs, np.full(len(dirs), alpha)])
    return np.vstack([np.eye(dirs.shape[1] + 1)[-1], rim])


def _spread_rim_frame(rng, n, k, alpha):
    """e_n plus up to k rim vectors at alpha with random, spread-out directions.

    Of 200 drawn tangent directions, those whose rim inner products with
    the ones already kept stay below alpha are kept, so e_n meets exactly
    the rim at the coherence.  Fans, tripods and positively spanning rims
    all arise.
    """
    r2 = 1.0 - alpha * alpha
    dirs = []
    for _ in range(200):
        if len(dirs) == k:
            break
        d = rng.standard_normal(n - 1)
        d /= np.linalg.norm(d)
        if all(abs(alpha * alpha + r2 * float(d @ e)) < alpha - 1e-3 for e in dirs):
            dirs.append(d)
    return _rim_frame(alpha, dirs)


def _near_boundary_frame(tilt, mirrored):
    """e_4 plus rim vectors at 0.9 whose tangent directions barely leave a plane.

    Three directions positively span the e1-e2 plane; a fourth tilts out
    of it by ``tilt``, so the rim is isolable with an NNLS residual of
    order tilt.  The mirrored fifth direction tilts the other way and
    makes the rim positively span the tangent space.
    """
    angles = np.radians([0.0, 90.0, 225.0, 157.5, 292.5])
    z = np.array([0.0, 0.0, 0.0, tilt, -tilt])
    dirs = np.column_stack([np.cos(z) * np.cos(angles), np.cos(z) * np.sin(angles), np.sin(z)])
    return _rim_frame(0.9, dirs if mirrored else dirs[:4])


def _oracle_systems():
    import itertools

    rng = np.random.default_rng(4242)
    out = []
    for n in range(2, 9):
        base = simplex_etf(n).vectors
        for extra in range(3):
            rows = np.vstack([base, rng.standard_normal((extra, n))])
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            out.append(_scrambled(rng, rows))
    for alpha in (0.5, 0.6, 0.7):
        out.append(_scrambled(rng, tripod_example(alpha).vectors))
    fan = np.radians([0.0, 75.0, 150.0])
    out.append(_scrambled(rng, _rim_frame(0.5, np.column_stack([np.cos(fan), np.sin(fan)]))))
    for _ in range(40):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(n, 2 * n + 1))
        alpha = float(rng.choice([0.6, 0.75, 0.9]))
        out.append(_scrambled(rng, _spread_rim_frame(rng, n, k, alpha)))
    for tilt in (1e-2, 1e-3):
        for mirrored in (False, True):
            out.append(_scrambled(rng, _near_boundary_frame(tilt, mirrored)))
    six = six_in_r4().vectors
    for size in (4, 5, 6):
        for subset in itertools.combinations(range(6), size):
            out.append(_scrambled(rng, six[list(subset)]))
    return out


class TestConeStageOracle:
    """Cone-stage verdicts against an LP decided by scipy's HiGHS solver.

    For a vector whose neighbors span R^n, the projected signed neighbors
    u_y positively span x-perp iff sum_y lambda_y u_y = 0 has a solution
    with every lambda_y >= 1; that is exactly the not-isolable verdict.
    """

    def test_verdicts_certificates_and_witnesses(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        tol = DEFAULT_TOL
        outcomes = {ISOLABLE: 0, NOT_ISOLABLE: 0}
        for X in _oracle_systems():
            gm = gram(X)
            alpha = gm.coherence
            n = X.dim
            for i in range(X.size):
                v = classify_vector(X, i, tol)
                assert v.status != INDETERMINATE
                if v.status not in outcomes:
                    continue
                assert v.neighbor_rank == n
                x = X.vectors[i]
                row = gm.entries[i]
                U = np.array(
                    [
                        np.sign(row[j]) * (X.vectors[j] - row[j] * x)
                        for j in range(X.size)
                        if j != i and abs(abs(row[j]) - alpha) <= tol.neighbor_abs
                    ]
                )
                assert U.shape[0] == v.neighbor_count
                # coordinates of the u_y in an orthonormal basis of x-perp
                tangent_basis = np.linalg.svd(x.reshape(1, -1))[2][1:]
                C = U @ tangent_basis.T
                lp = linprog(
                    np.ones(len(U)),
                    A_eq=C.T,
                    b_eq=np.zeros(n - 1),
                    bounds=[(1.0, None)] * len(U),
                    method="highs",
                )
                assert lp.status in (0, 2), lp.message
                assert (lp.status == 0) == (v.status == NOT_ISOLABLE), (X.vectors, i)
                outcomes[v.status] += 1
                if v.status == NOT_ISOLABLE:
                    assert v.certificate.shape == (len(U),)
                    assert v.certificate.min() > 0.0
                    assert np.linalg.norm(v.certificate @ U) <= tol.hull_abs
                else:
                    assert abs(float(v.witness @ x)) <= 1e-10
                    assert float(np.max(U @ v.witness)) <= 1e-10
        assert outcomes[ISOLABLE] >= 20 and outcomes[NOT_ISOLABLE] >= 20, outcomes


def _level0_corpus():
    out = [simplex_etf(n) for n in range(2, 11)]
    out += [circular_frame(m) for m in range(3, 10)]
    out += [six_in_r4(), double(simplex_etf(7))]
    out.append(random_unit_system(np.random.default_rng(40), 40, 6))
    return out


def _eigen_span_reference(X, tol):
    """The per-vector loop the diagnostic used before it read the level-0 verdicts."""
    m = X.size
    spec = spectral_data(X)
    k = spec.top_multiplicity(tol.eq_abs)
    alpha = gram(X).coherence
    top = spec.eigenvectors[:, :k]
    per_vector = []
    for i in range(m):
        nb = neighbors(X, i, alpha, tol)
        basis = row_space(X.vectors[[i] + list(nb.indices)], tol)[0]
        per_vector.append(tuple(np.linalg.norm(top - basis.T @ (basis @ top), axis=0).tolist()))
    if k > 1:
        return "AMBIGUOUS", per_vector
    return ("PASS" if max(d[0] for d in per_vector) <= 1e-7 else "FAIL"), per_vector


def _core_span_reference(X, trace, tol):
    """The restrict / neighbors / rank_of loop validate_core used before."""
    n = X.dim
    sub = X.restrict(trace.core)
    alpha = gram(sub).coherence
    failures = []
    for local in range(sub.size):
        nb = neighbors(sub, local, alpha, tol)
        if not nb.indices or rank_of(sub.vectors[list(nb.indices)], tol) < n:
            failures.append(trace.core[local])
    if not failures:
        alpha0 = gram(X).coherence
        at = "at the packing angle"
        if abs(alpha - alpha0) > tol.neighbor_abs:
            at = f"at the core's coherence {alpha:.15g}, below the packing angle {alpha0:.15g}"
        return ("core_neighbors_span", "PASS", f"every core vector meets a spanning family {at}")
    return (
        "core_neighbors_span",
        "FAIL",
        f"core vectors {failures} lack spanning neighbor sets; evidence input is not Grassmannian",
    )


def _forbid_recomputation(mp):
    def forbidden(*args, **kwargs):
        raise AssertionError("neighbor sets and ranks must be read from the trace")

    patch_everywhere(mp, neighbors, forbidden)
    patch_everywhere(mp, rank_of, forbidden)
    mp.setattr(UnitVectorSystem, "restrict", forbidden)


class TestLevelVerdictsAreReused:
    """The core trace's verdicts serve the diagnostics; nothing is classified twice."""

    @pytest.mark.parametrize(
        "run", [build_analysis_report, build_check_report], ids=["analyze", "check"]
    )
    def test_one_level0_classification(self, monkeypatch, run):
        for X, n_levels in ((six_in_r4(), 1), (simplex_with_midpoints(6), 2)):
            trace = core(X)
            assert len(trace.levels) == n_levels
            calls = []
            classify = coreanalysis.classify_vector

            def counted(system, i, tol=DEFAULT_TOL):
                calls.append(system)
                return classify(system, i, tol)

            with monkeypatch.context() as mp:
                mp.setattr(coreanalysis, "classify_vector", counted)
                run(X, DEFAULT_TOL)
            assert sum(system is X for system in calls) == X.size
            assert len(calls) == sum(len(level.members) for level in trace.levels)

    def test_eigen_span_skips_full_rank_vectors(self, monkeypatch):
        # An SVD only for vectors whose neighbors exist but do not span R^n:
        # spanning neighbors give 0.0, no neighbors give ||e - <x, e> x||.
        tol = DEFAULT_TOL
        seen_full = seen_deficient = seen_lone = 0
        for X in _level0_corpus():
            n = X.dim
            trace = core(X, tol)
            status, expected = _eigen_span_reference(X, tol)
            verdicts = trace.levels[0].verdicts
            calls = []

            def recorded(rows, tol=DEFAULT_TOL):
                calls.append(np.array(rows))
                return row_space(rows, tol)

            with monkeypatch.context() as mp:
                _forbid_recomputation(mp)
                mp.setattr(diagnostics, "row_space", recorded)
                rep = eigen_span_diagnostic(X, trace, tol)
            assert rep.status == status
            assert rep.multiplicity == len(expected[0])
            deficient = [v for v in verdicts if v.neighbors and v.neighbor_rank < n]
            assert len(calls) == len(deficient)
            for rows, v in zip(calls, deficient):
                assert np.array_equal(rows, X.vectors[[v.index] + list(v.neighbors)])
            for v, got, ref in zip(verdicts, rep.distances, expected):
                if v.neighbor_rank == n:
                    seen_full += 1
                    assert got == (0.0,) * len(ref)
                    assert max(ref) <= 1e-12
                elif not v.neighbors:
                    seen_lone += 1
                    x = X.vectors[v.index]
                    top = spectral_data(X).eigenvectors[:, : len(ref)]
                    direct = [np.linalg.norm(e - (x @ e) * x) for e in top.T]
                    assert np.allclose(got, direct, rtol=0, atol=1e-15)
                    assert np.allclose(got, ref, rtol=0, atol=1e-14)
                else:
                    seen_deficient += 1
                    assert got == ref
                    # One product per vector; each eigenvector alone agrees to rounding.
                    basis = row_space(X.vectors[[v.index] + list(v.neighbors)], tol)[0]
                    top = spectral_data(X).eigenvectors[:, : len(ref)]
                    direct = [np.linalg.norm(e - basis.T @ (basis @ e)) for e in top.T]
                    assert np.allclose(got, direct, rtol=0, atol=1e-14)
        assert seen_full and seen_deficient and seen_lone

    def test_validate_core_reads_the_final_level(self, monkeypatch):
        tol = DEFAULT_TOL
        lacking = 0
        for X in _level0_corpus() + [simplex_with_midpoints(6), basis_plus_diagonal(), near_tie()]:
            trace = core(X, tol)
            if not trace.core:
                continue
            expected = _core_span_reference(X, trace, tol)
            with monkeypatch.context() as mp:
                _forbid_recomputation(mp)
                checks = validate_core(X, trace, tol)
            assert [c for c in checks if c[0] == "core_neighbors_span"] == [expected]
            lacking += "lack spanning neighbor sets" in expected[2]
        assert lacking == 2  # basis-plus-diagonal and near-tie

    def test_coherence_zero_rank_is_computed(self):
        cases = [
            (UnitVectorSystem.from_vectors(np.eye(4)), 3),
            (UnitVectorSystem.from_vectors([[0.6, 0.8]]), 0),
            (UnitVectorSystem.from_vectors(np.eye(3)[:2]), 1),
        ]
        for X, rank in cases:
            for v in isolable_set(X).verdicts:
                assert v.status == NOT_ISOLABLE
                rows = X.vectors[list(v.neighbors)]
                assert v.neighbor_rank == (rank_of(rows) if v.neighbors else 0) == rank


class TestEachFactDecidedOnce:
    """Neighbor sets, ranks and the frame verdicts are decided once per command."""

    @staticmethod
    def _frames():
        return [
            six_in_r4(),
            simplex_with_midpoints(6),
            UnitVectorSystem.from_vectors(np.eye(4)),  # coherence zero
            UnitVectorSystem.from_vectors([[0.6, 0.8]]),  # m = 1
            circular_frame(5),  # tight, not equiangular, odd m
            mub_r2(),
        ]

    @pytest.mark.parametrize(
        "run", [build_analysis_report, build_check_report], ids=["analyze", "check"]
    )
    def test_one_neighbors_query_per_classification(self, monkeypatch, run):
        for X in self._frames():
            with monkeypatch.context() as mp:
                # Every band is read by frames._band, through ``neighbors`` or directly.
                queries = count_calls(mp, _band)
                classified = count_calls(mp, coreanalysis.classify_vector)
                etf = count_calls(mp, is_etf)
                run(X, DEFAULT_TOL)
            assert len(queries) == len(classified) >= X.size
            assert len(etf) <= 1

    @pytest.mark.parametrize(
        "run", [build_analysis_report, build_check_report], ids=["analyze", "check"]
    )
    def test_frame_verdicts_decided_once(self, monkeypatch, run):
        deciders = (tightness, bounds_card, is_equiangular, welch_bound, is_etf)
        for X in self._frames():
            m, n = X.size, X.dim
            with monkeypatch.context() as mp:
                calls = {f.__name__: count_calls(mp, f) for f in deciders}
                run(X, DEFAULT_TOL)
            assert {name: len(args) for name, args in calls.items()} == {
                "tightness": 1,
                "bounds_card": 1,
                "is_equiangular": 0,
                "welch_bound": int(m > n),
                "is_etf": 0,
            }
        assert not hasattr(coreanalysis, "tightness")
        assert not hasattr(coreanalysis, "is_equiangular")

    def test_classify_vector_makes_one_row_space_call_and_no_rank_of_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("classify_vector must take the rank from row_space")

        frames = self._frames() + [simplex_etf(4), basis_plus_diagonal(), tripod_example(0.5)]
        frames.append(UnitVectorSystem.from_vectors(np.eye(3)[:2]))
        for X in frames:
            with monkeypatch.context() as mp:
                patch_everywhere(mp, rank_of, forbidden)
                svds = count_calls(mp, row_space)
                verdicts = isolable_set(X).verdicts
            assert len(svds) == sum(1 for v in verdicts if v.neighbors)

    def test_neighbor_counts_equal_the_per_vector_loop(self, monkeypatch):
        tol = DEFAULT_TOL
        frames = [simplex_etf(n) for n in range(2, 11)]
        frames += [circular_frame(m) for m in range(3, 10)]
        frames += [six_in_r4(), mub_r2(), double(simplex_etf(3))]
        frames.append(random_unit_system(np.random.default_rng(40), 40, 6))
        gated = 0
        for X in frames:
            alpha = gram(X).coherence
            counts = tuple(len(neighbors(X, i, alpha, tol).indices) for i in range(X.size))
            trace = core(X, tol)
            tight = tightness(X, tol).tight
            with monkeypatch.context() as mp:
                _forbid_recomputation(mp)
                checks = neighbor_count_report(trace, tight)
            level0 = trace.levels[0]
            assert level0.coherence == alpha
            assert tuple(v.neighbor_count for v in level0.verdicts) == counts
            names = [name for name, _, _ in checks]
            if tight and not is_etf(X, tol):
                gated += 1
                assert names[0] == "max_count_le_m_minus_2"
                assert ("odd_m_some_count_le_m_minus_3" in names) == (X.size % 2 == 1)
            else:
                assert names == ["tight_nonequiangular_counts"]
        assert gated == 8  # circular m = 4..9, mub_r2 and double(simplex_etf(3))


def test_tangent_neighbors_equal_the_per_neighbor_loop():
    """The array expression gives the loop's rows bit for bit."""
    rng = np.random.default_rng(71)
    systems = [tripod_example(0.5), six_in_r4(), simplex_etf(6), double(simplex_etf(4))]
    systems += [random_unit_system(rng, 12, 3) for _ in range(3)]
    checked = 0
    for X in systems:
        for i in range(X.size):
            nb = neighbors(X, i, coherence(X), DEFAULT_TOL)
            x = X.vectors[i]
            loop = [
                s * X.vectors[j] - (s * (X.vectors @ x)[j]) * x
                for j, s in zip(nb.indices, nb.signs)
            ]
            got = _tangent_neighbors(X, i, nb, X.vectors @ x)
            assert got.shape == (len(nb.indices), X.dim)
            assert np.array_equal(got, np.array(loop).reshape(got.shape))
            checked += len(loop)
    assert checked > 100


def test_classify_vector_rejects_an_index_outside_the_system():
    X = six_in_r4()
    for i in (-1, X.size):
        with pytest.raises(ShapeError):
            classify_vector(X, i)
