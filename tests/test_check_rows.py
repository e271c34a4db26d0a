"""The PASS/FAIL row policy: one constructor, one "not Grassmannian" label.

Every diagnostic that can fail a necessary condition of a coherence
minimizer appends ``NOT_GRASSMANNIAN`` to its detail exactly once; the
neighbor-count parity rows and ``check``'s own rows fail with their own
wording and never carry the label.
"""

import numpy as np
import pytest

from framecore import (
    UnitVectorSystem,
    build_analysis_report,
    core,
    eigen_span_diagnostic,
    neighbor_count_report,
    six_in_r4,
    validate_core,
)
from framecore import report
from framecore.coreanalysis import (
    NOT_GRASSMANNIAN,
    NOT_ISOLABLE,
    CoreLevel,
    CoreTrace,
    VectorVerdict,
)
from framecore.diagnostics import check_row
from framecore.report import build_check_report
from helpers import basis_plus_diagonal, near_tie, nudged_simplex, tripod_example

LABEL = "; " + NOT_GRASSMANNIAN


def _labeled_once(detail: str) -> bool:
    return detail.endswith(LABEL) and detail.count(NOT_GRASSMANNIAN) == 1


class TestCheckRow:
    def test_pass_keeps_the_detail(self):
        assert check_row("c", True, "all good") == ("c", "PASS", "all good")

    def test_fail_appends_the_default_label(self):
        row = check_row("c", False, "|core| = 1")
        assert row == ("c", "FAIL", "|core| = 1; evidence input is not Grassmannian")

    def test_fail_appends_its_own_failure_text(self):
        row = check_row("c", False, "max count 4 > 3", "input or tolerances are inconsistent")
        assert row == ("c", "FAIL", "max count 4 > 3; input or tolerances are inconsistent")

    def test_fail_without_failure_text_is_the_detail(self):
        assert check_row("c", False, "trace = 3.5", None) == ("c", "FAIL", "trace = 3.5")

    def test_pass_ignores_the_failure_text(self):
        for failure in (None, "input or tolerances are inconsistent"):
            assert check_row("c", True, "ok", failure) == ("c", "PASS", "ok")


def _rows(checks) -> dict:
    return {name: (status, detail) for name, status, detail in checks}


def _check_rows(system) -> dict:
    return {c["name"]: (c["status"], c["detail"]) for c in build_check_report(system)["checks"]}


class TestLabeledFailures:
    def test_core_size_and_span(self):
        # The core is the diagonal alone: one vector, no neighbors.
        X = basis_plus_diagonal()
        rows = _rows(validate_core(X, core(X)))
        for name in ("core_size_at_least_n_plus_1", "core_neighbors_span"):
            status, detail = rows[name]
            assert status == "FAIL" and _labeled_once(detail)
        lacking = f"core vectors [3] lack spanning neighbor sets{LABEL}"
        assert rows["core_neighbors_span"][1] == lacking

    def test_orthogonal_full_core(self):
        # At coherence zero the core must be everything; a trace that
        # dropped a vector fails the check.
        X = UnitVectorSystem.from_vectors(np.eye(3))
        verdicts = core(X).levels[0].verdicts
        trace = CoreTrace((CoreLevel((0, 1, 2), (2,), 0.0, verdicts),), (0, 1), ())
        status, detail = _rows(validate_core(X, trace))["orthogonal_case_full_core"]
        assert status == "FAIL" and _labeled_once(detail)
        assert detail == f"coherence is zero, so the core must be the whole system{LABEL}"

    def test_drop_one(self):
        d = build_analysis_report(tripod_example(0.5))["diagnostics"]["drop_one_spanning"]
        assert d["status"] == "FAIL" and _labeled_once(d["detail"])
        assert d["detail"] == f"some deletion breaks spanning{LABEL}"

    def test_eigen_span(self):
        X = near_tie()
        rep = eigen_span_diagnostic(X, core(X))
        assert rep.status == "FAIL" and _labeled_once(rep.detail)
        assert rep.detail.startswith("max distance ")

    def test_empty_core_span_row_is_unlabeled(self):
        # The size row already carries the evidence; "core is empty" stays bare.
        X = tripod_example(0.5)
        trace = core(X)
        assert trace.core == ()
        rows = _rows(validate_core(X, trace))
        assert _labeled_once(rows["core_size_at_least_n_plus_1"][1])
        assert rows["core_neighbors_span"] == ("FAIL", "core is empty")


class TestUnlabeledFailures:
    @pytest.mark.parametrize("m", [3, 4])
    def test_neighbor_counts_keep_their_own_wording(self, m):
        # Vector 0 meets m - 2 others and every other vector meets all m - 1:
        # a full neighbor set is impossible for a tight, non-equiangular
        # frame, so both parity rows fail.
        verdicts = tuple(
            VectorVerdict(i, NOT_ISOLABLE, neighbors=tuple(j for j in range(m) if j != i))
            for i in range(m)
        )
        verdicts = (verdicts[0]._replace(neighbors=tuple(range(1, m - 1))),) + verdicts[1:]
        trace = CoreTrace((CoreLevel(tuple(range(m)), (), 0.5, verdicts),), tuple(range(m)), ())
        rows = _rows(neighbor_count_report(trace, True))
        assert rows["max_count_le_m_minus_2"] == (
            "FAIL",
            f"max count {m - 1} > {m - 2}: tight non-equiangular systems cannot have a full "
            "neighbor set; input or tolerances are inconsistent",
        )
        if m % 2:
            assert rows["odd_m_some_count_le_m_minus_3"] == (
                "FAIL",
                f"all counts exceed {m - 3} with odd m; Gram parity is violated",
            )
        assert all(NOT_GRASSMANNIAN not in detail for _, detail in rows.values())

    def test_etf_route_disagreement(self):
        rows = _check_rows(nudged_simplex())
        status, detail = rows["etf_route_consistency"]
        assert status == "FAIL" and NOT_GRASSMANNIAN not in detail

    def test_checks_own_rows(self, monkeypatch):
        # Force the three identities only check computes to fail.
        frame_operator, bounds_card = report.frame_operator, report.bounds_card
        monkeypatch.setattr(report, "frame_operator", lambda s: 2.0 * frame_operator(s))
        monkeypatch.setattr(report, "bounds_card", lambda s: bounds_card(s)._replace(welch=2.0))
        monkeypatch.setattr(report, "reconstruct", lambda s, x, tol: x + 1.0)
        rows = _check_rows(six_in_r4())
        for name in ("frame_operator_trace", "welch_inequality", "reconstruction_identity"):
            status, detail = rows[name]
            assert status == "FAIL" and NOT_GRASSMANNIAN not in detail
