"""Acceptance suite: the ten primary criteria at their stated tolerances.

Each test prints one `[ACCEPTANCE nn] PASS` line on success (run pytest
with -s to see them; a failure shows up as a failed test either way).
"""

import io
import json
import math

import numpy as np

from framecore import (
    UnitVectorSystem,
    angle_catalog,
    catalog_consistency,
    circular_frame,
    classify_vector,
    core,
    emit_frame,
    gram,
    is_equiangular,
    is_etf,
    isolable_set,
    mub_r2,
    naimark_complement,
    perturb_replace,
    simplex_etf,
    six_in_r4,
    spans,
    tightness,
    validate_core,
    welch_bound,
)
from framecore.cli import run
from framecore.angles import GRASSMANNIAN_ALPHA, ONE_GRASSMANNIAN_MU
from framecore.coreanalysis import (
    DEFICIENT_ISOLABLE,
    INDETERMINATE,
    ISOLABLE,
    ISOLATED,
    NOT_ISOLABLE,
    _tangent_neighbors,
)
from framecore.frames import neighbors
from framecore.numerics import (
    DEFAULT_TOL,
    min_norm_point,
    nnls_cone_feasible,
    orthonormal_complement,
)
from helpers import (
    random_unit_system,
    tripod_example,
    structured_family,
    sweep_finds_isolation,
)


def _ok(num: int, message: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] PASS - {message}")


def test_01_coherence_golden_values():
    assert abs(gram(six_in_r4()).coherence - 1.0 / 3.0) <= 1e-12
    assert abs(gram(circular_frame(5)).coherence - math.cos(math.pi / 5.0)) <= 1e-12
    assert abs(gram(mub_r2()).coherence - 1.0 / math.sqrt(2.0)) <= 1e-12
    _ok(1, "six_in_r4 -> 1/3, circular(5) -> cos(pi/5), mub_r2 -> 1/sqrt(2), all +/-1e-12")


def test_02_welch_etf_classification():
    s3 = simplex_etf(3)
    assert is_etf(s3)
    assert abs(gram(s3).coherence - welch_bound(4, 3)) <= 1e-9
    assert abs(welch_bound(4, 3) - 1.0 / 3.0) <= 1e-12
    six = six_in_r4()
    equi, angle = is_equiangular(six)
    assert equi and abs(angle - 1.0 / 3.0) <= 1e-12
    assert not is_etf(six)
    _ok(2, "simplex(3) is an ETF at the Welch bound 1/3; six_in_r4 equiangular but not ETF")


def test_03_tripod_regression_pins_second_stage():
    tol = DEFAULT_TOL
    X = tripod_example(0.5)
    verdict = classify_vector(X, 0, tol)
    assert verdict.status == ISOLABLE
    assert verdict.neighbor_rank == X.dim  # not deficient

    gm = gram(X)
    nb = neighbors(X, 0, gm.coherence, tol)
    tangent = _tangent_neighbors(X, 0, nb, X.vectors @ X.vectors[0])
    point, _ = min_norm_point(tangent, tol)
    assert float(np.linalg.norm(point)) <= tol.hull_abs  # min-norm stage returns 0

    witness = None
    for b in orthonormal_complement(X.vectors[0].reshape(1, -1), tol):
        for sign in (1.0, -1.0):
            res = nnls_cone_feasible(tangent, sign * b, tol)
            if not res.feasible:
                witness = res.certificate / np.linalg.norm(res.certificate)
                break
        if witness is not None:
            break
    assert witness is not None  # positive-spanning stage supplies the witness
    assert np.allclose(np.abs(witness), [1.0, 0.0, 0.0], atol=1e-9)

    xp = perturb_replace(X, 0, verdict.witness, tol)
    assert float(np.max(np.abs(X.vectors[1:] @ xp))) < 0.5 - 1e-9
    _ok(3, "alpha=1/2 example: isolable, not deficient, zero min-norm point, "
           "cone witness, perturbation strictly below 1/2 - 1e-9")


def test_04_core_structure():
    onb = UnitVectorSystem.from_vectors(np.eye(4))
    assert core(onb).core == (0, 1, 2, 3)
    for n in range(2, 7):
        assert core(simplex_etf(n)).core == tuple(range(n + 1))
    for system in (six_in_r4(), circular_frame(4)):
        report = validate_core(system, core(system))
        statuses = {name: status for name, status, _ in report.checks}
        assert statuses["core_size_at_least_n_plus_1"] == "PASS"
        assert statuses["core_neighbors_span"] == "PASS"
    _ok(4, "core(ONB) = ONB; simplex cores full for n = 2..6; "
           "size and neighbor-span checks pass on six_in_r4 and circular(4)")


def test_05_drop_one_spanning():
    six = six_in_r4()
    for j in range(6):
        assert spans(six, omit={j})
    assert not spans(six, omit={0, 1})
    from framecore import rank_of

    assert rank_of(six.vectors[2:]) == 3
    _ok(5, "six_in_r4 spans after any single removal; removing vectors 1 and 2 leaves rank 3")


def test_06_naimark_pipeline():
    rng = np.random.default_rng(606)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(max(n + 1, 4), 11))
        X = random_unit_system(rng, m, n)
        Y, lam, k = naimark_complement(X)
        assert lam > 1.0 + 1e-6
        GX = X.vectors @ X.vectors.T
        GY = Y.vectors @ Y.vectors.T
        mask = ~np.eye(m, dtype=bool)
        assert float(np.max(np.abs(GY[mask] * (1.0 - lam) - GX[mask]))) <= 1e-8
        assert float(np.max(np.abs(np.linalg.norm(Y.vectors, axis=1) - 1.0))) <= 1e-8
    Yc, _, _ = naimark_complement(circular_frame(5))
    expected = (2.0 / 3.0) * math.cos(math.pi / 5.0)
    assert abs(gram(Yc).coherence - expected) <= 1e-9
    _ok(6, "Gram relation and unit norms hold within 1e-8 on 200 seeded systems; "
           "coh of circular(5) complement = (2/3) cos(pi/5) +/- 1e-9")


def test_07_doubling():
    from framecore import double

    d = double(mub_r2())
    v = tightness(d)
    assert v.tight and abs(v.bound - 2.0) <= 1e-12
    assert abs(gram(d).coherence - 1.0 / math.sqrt(2.0)) <= 1e-12
    cross = d.vectors[:4] @ d.vectors[4:].T
    assert float(np.max(np.abs(cross))) <= 1e-12
    rng = np.random.default_rng(707)
    for _ in range(100):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 6))
        X = random_unit_system(rng, m, n)
        dd = double(X)
        assert abs(gram(dd).coherence - gram(X).coherence) <= 1e-12
        assert tightness(dd).tight == tightness(X).tight
    for X in (circular_frame(5), simplex_etf(3), mub_r2()):
        dd = double(X)
        assert tightness(dd).tight
        assert abs(tightness(dd).bound - tightness(X).bound) <= 1e-12
    _ok(7, "double(mub_r2) tight with A = 2, coherence 1/sqrt(2), zero cross products; "
           "coherence and tightness preserved on 100 seeded systems")


def test_08_angle_catalog():
    def value(m, n, kind):
        return {e.kind: e.value for e in angle_catalog(m, n)}[kind]

    assert abs(value(6, 4, GRASSMANNIAN_ALPHA) - 1.0 / 3.0) <= 1e-12
    assert abs(value(9, 7, GRASSMANNIAN_ALPHA) - 1.0 / 5.0) <= 1e-12
    assert abs(value(6, 3, GRASSMANNIAN_ALPHA) - 1.0 / math.sqrt(5.0)) <= 1e-12
    assert abs(value(5, 3, ONE_GRASSMANNIAN_MU) - (2.0 / 3.0) * math.cos(math.pi / 5.0)) <= 1e-12
    report = catalog_consistency(300, 280)
    assert report.violations == ()
    _ok(8, "catalog values (6,4), (9,7), (6,3), (5,3) match closed forms +/-1e-12; "
           f"{len(report.comparisons)} consistency comparisons, zero violations")


def test_09_isolability_oracle_equivalence():
    structured = structured_family()
    rng = np.random.default_rng(909)
    systems = list(structured)
    while len(systems) < 100:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 7))
        systems.append(random_unit_system(rng, m, n))
    confirmed_not_isolable = confirmed_isolable = 0
    for sys_index, X in enumerate(systems):
        alpha = gram(X).coherence
        for verdict in isolable_set(X).verdicts:
            assert verdict.status != INDETERMINATE
            if verdict.status == NOT_ISOLABLE:
                assert not sweep_finds_isolation(
                    X, verdict.index, n_dirs=10_000, radii=(1e-2, 1e-3),
                    margin=1e-9, seed=1000 + sys_index,
                )
                confirmed_not_isolable += 1
            elif verdict.status in (ISOLABLE, DEFICIENT_ISOLABLE):
                xp = perturb_replace(X, verdict.index, verdict.witness)
                others = np.delete(X.vectors, verdict.index, axis=0)
                assert float(np.max(np.abs(others @ xp))) < alpha
                confirmed_isolable += 1
            elif verdict.status == ISOLATED:
                others = np.delete(X.vectors, verdict.index, axis=0)
                assert float(np.max(np.abs(others @ X.vectors[verdict.index]))) < alpha
    assert confirmed_not_isolable >= 20
    assert confirmed_isolable >= 20
    _ok(9, f"100 systems: {confirmed_not_isolable} not-isolable verdicts survived a "
           f"10^4-direction sweep; {confirmed_isolable} isolable verdicts confirmed constructively")


def test_10_determinism(monkeypatch, capsys):
    frame = emit_frame(six_in_r4())

    def analyze_once() -> str:
        monkeypatch.setattr("sys.stdin", io.StringIO(frame))
        assert run(["analyze", "-"]) == 0
        return capsys.readouterr().out

    first = analyze_once()
    second = analyze_once()
    assert first == second
    json.loads(first)  # well-formed JSON
    _ok(10, "two analyze runs on the same input emit byte-identical JSON")
