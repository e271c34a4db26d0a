"""Tests for file formats, the command surface, and report emission."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framecore
from framecore import (
    Tolerances,
    UnitVectorSystem,
    build_analysis_report,
    circular_frame,
    emit_frame,
    emit_report,
    mub_r2,
    neighbors,
    parse_frame,
    simplex_etf,
    six_in_r4,
)
from framecore.cli import run
from framecore.coreanalysis import EIGEN_SPAN_ABS
from framecore.errors import NormError, ParseError, ShapeError
from framecore.frameio import parse_frame_with_overrides, round15
from framecore.frames import WELCH_EQ_ABS
from framecore.report import build_check_report, render_text
from helpers import (
    basis_plus_diagonal,
    near_tie,
    nudged_simplex,
    random_unit_system,
    simplex_with_midpoints,
    tripod_example,
)

SRC = str(Path(framecore.__file__).resolve().parents[1])


class TestParseFrame:
    def test_plain_text(self):
        system = parse_frame("1 0\n0 1\n")
        assert system.size == 2 and system.dim == 2
        assert np.allclose(system.vectors, np.eye(2))

    def test_plain_text_with_comments(self):
        system = parse_frame("# an orthonormal basis\n1 0  # first\n0 1\n\n")
        assert system.size == 2

    def test_structured(self):
        six = six_in_r4()
        text = emit_frame(six)
        parsed = parse_frame(text)
        assert parsed.size == 6 and parsed.dim == 4
        assert parsed.labels == six.labels

    def test_norm_error(self):
        with pytest.raises(NormError):
            parse_frame("2 0\n")

    def test_ragged_rows(self):
        with pytest.raises(ShapeError):
            parse_frame("1 0\n0 1 0\n")

    def test_malformed_number(self):
        with pytest.raises(ParseError):
            parse_frame("1 zero\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_frame("# nothing\n")

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_frame('{"dim": 2, "vectors": [[1, 0]')

    def test_structured_shape_error(self):
        with pytest.raises(ShapeError):
            parse_frame('{"dim": 3, "vectors": [[1.0, 0.0]]}')

    def test_tolerance_overrides(self):
        text = '{"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]], "tolerances": {"neighbor_abs": 1e-7}}'
        system, overrides = parse_frame_with_overrides(text)
        assert system.size == 2
        assert overrides == {"neighbor_abs": 1e-7}

    def test_round_trip_precision(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((5, 3))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        system = UnitVectorSystem.from_vectors(rows)
        back = parse_frame(emit_frame(system))
        assert np.max(np.abs(back.vectors - system.vectors)) <= 1e-12

    def test_label_count_mismatch(self):
        with pytest.raises(ShapeError):
            parse_frame('{"dim": 2, "vectors": [[1.0, 0.0]], "labels": ["a", "b"]}')

    def test_unknown_tolerance_key(self):
        with pytest.raises(ParseError):
            parse_frame('{"dim": 2, "vectors": [[1.0, 0.0]], "tolerances": {"foo": 1e-9}}')

    def test_non_integer_dim(self):
        with pytest.raises(ParseError):
            parse_frame('{"dim": 2.0, "vectors": [[1.0, 0.0]]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 2, "vectors": [[true, false], [false, true]]}',
            '{"dim": true, "vectors": [[1.0]]}',
            '{"dim": 2, "vectors": [[1, 0], [0, 1]], "tolerances": {"eq_abs": false}}',
            '{"dim": 2, "vectors": [["1", "0"], ["0", "1"]]}',
            '{"dim": 2, "vectors": [[1, 0], [0, 1]], "tolerances": {"eq_abs": "1e-9"}}',
            '{"dim": 1, "vectors": [[1%s]]}' % ("0" * 400),
        ],
        ids=[
            "boolean-entries",
            "boolean-dim",
            "boolean-tolerance",
            "string-entries",
            "string-tolerance",
            "integer-beyond-float-range",
        ],
    )
    def test_json_non_numbers_are_parse_errors(self, monkeypatch, capsys, text):
        with pytest.raises(ParseError):
            parse_frame(text)
        code, out, err = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=text)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "labels",
        ['[1, "b"]', '["a", 2.5]', '["a", null]', '[true, "b"]', '["a", ["b"]]', '[{}, "b"]'],
        ids=["integer", "float", "null", "boolean", "nested-list", "object"],
    )
    def test_non_string_labels_are_parse_errors(self, monkeypatch, capsys, labels):
        text = '{"dim": 2, "vectors": [[1, 0], [0, 1]], "labels": %s}' % labels
        with pytest.raises(ParseError):
            parse_frame(text)
        code, out, err = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=text)
        assert (code, out) == (2, "")
        assert err.startswith("error: label ") and "Traceback" not in err


class TestReport:
    def test_json_round_trip(self):
        report = build_analysis_report(six_in_r4())
        text = emit_report(report, "json")
        assert json.loads(text) == report

    def test_onb_report_values(self):
        report = build_analysis_report(UnitVectorSystem.from_vectors(np.eye(3)))
        assert report["coherence"] == 0.0
        assert report["etf"] is True
        assert report["tightness"]["kind"] == "parseval"
        assert report["bounds"]["welch"] is None
        assert report["core"]["core"] == [0, 1, 2]

    def test_core_trace_of_six(self):
        report = build_analysis_report(six_in_r4())
        assert len(report["core"]["levels"]) == 1
        assert report["core"]["core"] == [0, 1, 2, 3, 4, 5]

    def test_text_mode_renders_coherence_of_mub(self):
        report = build_analysis_report(mub_r2())
        text = render_text(report)
        assert "0.7071067812" in text
        assert "coherence: 0.7071067812" in text

    def test_every_block_carries_tolerances(self):
        report = build_analysis_report(circular_frame(5))
        assert set(report["tolerances"]) == {"eq_abs", "neighbor_abs", "hull_abs", "rank_rel"}
        assert "tolerance" in report["tightness"]
        assert "tolerance" in report["equiangular"]
        assert "tolerance" in report["diagnostics"]["drop_one_spanning"]

    def test_fixed_bounds_are_echoed_from_their_constants(self):
        report = build_analysis_report(simplex_etf(4))
        assert report["bounds"]["welch_check_abs"] == WELCH_EQ_ABS
        assert report["diagnostics"]["eigen_span"]["tolerance"] == EIGEN_SPAN_ABS

    def test_singleton_report(self):
        report = build_analysis_report(UnitVectorSystem.from_vectors([[1.0, 0.0]]))
        assert report["etf"] is None
        assert report["equiangular"]["equiangular"] is None


def _json_report(system: UnitVectorSystem) -> dict:
    return json.loads(emit_report(build_analysis_report(system)))


class TestReportCertificates:
    """Every certificate and witness checks out from the input rows and the report."""

    @staticmethod
    def _frames():
        yield six_in_r4()
        for n in range(2, 9):
            yield simplex_etf(n)
        yield basis_plus_diagonal()
        yield tripod_example(0.5)
        yield random_unit_system(np.random.default_rng(40), 40, 6)

    def test_certificates_and_witnesses_from_the_report_alone(self):
        statuses = set()
        for system in self._frames():
            rows = system.vectors
            report = _json_report(system)
            tol = Tolerances(**report["tolerances"])
            for v in report["vectors"]:
                i = v["index"]
                statuses.add(v["status"])
                nb = neighbors(system, i, report["coherence"], tol)
                assert v["neighbors"] == list(nb.indices)
                assert v["signs"] == list(nb.signs)
                assert all(type(sign) is int and sign in (1, -1) for sign in v["signs"])
                x, s = rows[i], np.array(v["signs"], dtype=float)
                Y = rows[v["neighbors"]]
                U = s[:, None] * Y - (s * (Y @ x))[:, None] * x  # u_y = s y - s<x,y> x
                if v["status"] == "not_isolable":
                    lam = np.array(v["certificate"])
                    assert len(lam) == len(v["neighbors"])
                    assert lam.min() >= 1.0
                    assert np.linalg.norm(lam @ U) <= tol.hull_abs
                if v["witness"] is not None:
                    w = np.array(v["witness"])
                    assert abs(w @ x) <= 1e-10
                    assert np.all(U @ w <= 1e-10)
                else:
                    assert v["status"] not in ("isolable", "deficient_isolable")
        assert statuses == {"isolated", "deficient_isolable", "isolable", "not_isolable"}


class TestReportSchema:
    def test_no_gram_matrix_in_json_or_text(self):
        for system in (six_in_r4(), mub_r2(), circular_frame(5)):
            report = build_analysis_report(system)
            assert '"gram"' not in emit_report(report)
            assert "gram matrix:" not in emit_report(report, "text")

    def test_neighbor_count_is_the_length_of_neighbors(self):
        orthonormal_r4 = UnitVectorSystem.from_vectors(np.eye(4))
        singleton = UnitVectorSystem.from_vectors([[0.6, 0.8]])
        cases = [
            (orthonormal_r4, [3] * 4),
            (singleton, [0]),
            (six_in_r4(), [5] * 6),
            (basis_plus_diagonal(), [1, 1, 1, 3]),
        ]
        for system, counts in cases:
            verdicts = _json_report(system)["vectors"]
            assert [v["neighbor_count"] for v in verdicts] == counts
            for v in verdicts:
                assert v["neighbor_count"] == len(v["neighbors"]) == len(v["signs"])

    def test_report_size_is_linear_in_m(self):
        system = random_unit_system(np.random.default_rng(12), 200, 12)
        assert len(emit_report(build_analysis_report(system)).encode()) < 250_000

    def test_classify_emits_the_report_verdicts(self, monkeypatch, capsys):
        frame = emit_frame(six_in_r4())
        code, out, _ = run_cli(monkeypatch, capsys, ["classify", "-"], stdin=frame)
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert [v["neighbors"] for v in verdicts] == [
            [j for j in range(6) if j != i] for i in range(6)
        ]
        assert verdicts == _json_report(parse_frame(frame))["vectors"]


def run_cli(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_analyze_stdin(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin="1 0\n0 1\n")
        assert code == 0
        report = json.loads(out)
        assert report["coherence"] == 0.0

    def test_analyze_file_and_out(self, monkeypatch, capsys, tmp_path):
        frame = tmp_path / "frame.txt"
        frame.write_text("1 0\n0 1\n")
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            monkeypatch, capsys, ["analyze", str(frame), "--out", str(out_path)]
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["input"]["m"] == 2

    def test_construct_pipe_analyze(self, monkeypatch, capsys):
        code, frame_text, _ = run_cli(monkeypatch, capsys, ["construct", "circular", "--m", "5"])
        assert code == 0
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=frame_text)
        assert code == 0
        report = json.loads(out)
        assert abs(report["coherence"] - math.cos(math.pi / 5.0)) <= 1e-12
        assert report["tightness"]["kind"] == "tight"
        assert abs(report["tightness"]["bound"] - 2.5) <= 1e-12

    def test_catalog_values(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["catalog", "--m", "6", "--n", "4"])
        assert code == 0
        payload = json.loads(out)
        values = {e["kind"]: e["value"] for e in payload["entries"]}
        assert abs(values["grassmannian_alpha"] - 1.0 / 3.0) <= 1e-12

    def test_catalog_unknown(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["catalog", "--m", "9", "--n", "4", "--format", "text"]
        )
        assert code == 0
        assert out.strip() == "unknown"

    def test_core_command(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["core", "-"], stdin="1 0 0\n0 1 0\n0 0 1\n"
        )
        assert code == 0
        assert json.loads(out)["core"] == [0, 1, 2]

    def test_classify_single_index(self, monkeypatch, capsys):
        frame = emit_frame(six_in_r4())
        code, out, _ = run_cli(
            monkeypatch, capsys, ["classify", "-", "--index", "2"], stdin=frame
        )
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert len(verdicts) == 1
        assert verdicts[0]["status"] == "not_isolable"

    def test_classify_index_out_of_range(self, monkeypatch, capsys):
        code, _, err = run_cli(
            monkeypatch, capsys, ["classify", "-", "--index", "5"], stdin="1 0\n0 1\n"
        )
        assert code == 2
        assert "out of range" in err

    def test_naimark_pipe(self, monkeypatch, capsys):
        frame = emit_frame(circular_frame(5))
        code, out, err = run_cli(monkeypatch, capsys, ["naimark", "-"], stdin=frame)
        assert code == 0
        complement = parse_frame(out)
        assert complement.size == 5 and complement.dim == 3
        assert "Gram relation" in err

    def test_naimark_of_basis_fails_validation(self, monkeypatch, capsys):
        code, _, err = run_cli(monkeypatch, capsys, ["naimark", "-"], stdin="1 0\n0 1\n")
        assert code == 2
        assert "complement" in err or "eigenvalue" in err

    def test_failed_transform_writes_nothing(self, monkeypatch, capsysbinary, tmp_path):
        path = tmp_path / "out.json"
        for argv in (["naimark", "-"], ["naimark", "-", "--out", str(path)]):
            monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n0 1\n"))
            assert run(argv) == 2
            captured = capsysbinary.readouterr()
            assert captured.out == b"" and b"eigenvalue" in captured.err
        assert not path.exists()

    def test_double_pipe(self, monkeypatch, capsys):
        frame = emit_frame(mub_r2())
        code, out, _ = run_cli(monkeypatch, capsys, ["double", "-"], stdin=frame)
        assert code == 0
        doubled = parse_frame(out)
        assert doubled.size == 8 and doubled.dim == 4

    def test_construct_simplex(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, ["construct", "simplex", "--n", "3"])
        assert code == 0
        system = parse_frame(out)
        assert system.size == 4 and system.dim == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["circular", "--m", "1"],
            ["circular", "--m", "0"],
            ["simplex", "--n", "0"],
            ["simplex", "--n", "-3"],
        ],
    )
    def test_construct_out_of_range_is_a_validation_error(self, monkeypatch, capsys, argv):
        code, out, err = run_cli(monkeypatch, capsys, ["construct", *argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_file_can_set_every_tolerance(self, monkeypatch, capsys):
        values = {f.name: round15(3.0 * f.default) for f in dataclasses.fields(Tolerances)}
        frame = json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1]], "tolerances": values})
        for command in ("analyze", "core", "classify", "check"):
            code, out, _ = run_cli(monkeypatch, capsys, [command, "-"], stdin=frame)
            assert code == 0
            assert json.loads(out)["tolerances"] == values
        unknown = json.dumps({"dim": 1, "vectors": [[1]], "tolerances": {"margin_abs": 1e-9}})
        code, out, err = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=unknown)
        assert (code, out) == (2, "")
        assert "unknown tolerance 'margin_abs'" in err

    def test_construct_circular_requires_m(self, monkeypatch, capsys):
        code, _, err = run_cli(monkeypatch, capsys, ["construct", "circular"])
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_is_usage_error(self, monkeypatch, capsys):
        code, _, _ = run_cli(monkeypatch, capsys, ["analyze", "--bogus"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "six_in_r4", "--format", "text"],
            ["construct", "six_in_r4", "--tol-eq", "1e-3"],
            ["construct", "six_in_r4", "--tol-neighbor", "1e-3"],
            ["construct", "six_in_r4", "--tol-hull", "1e-3"],
            ["catalog", "--m", "6", "--n", "4", "--tol-eq", "1e-3"],
            ["catalog", "--m", "6", "--n", "4", "--tol-neighbor", "1e-3"],
            ["catalog", "--m", "6", "--n", "4", "--tol-hull", "1e-3"],
            ["naimark", "-", "--format", "text"],
            ["double", "-", "--format", "text"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, monkeypatch, capsys, argv):
        code, out, err = run_cli(monkeypatch, capsys, argv, stdin=emit_frame(six_in_r4()))
        assert (code, out) == (1, "")
        assert err.startswith("usage error: unrecognized arguments: " + argv[-2])

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "six_in_r4"],
            ["catalog", "--m", "6", "--n", "4", "--format", "text"],
            ["naimark", "-", "--tol-eq", "1e-9", "--tol-neighbor", "1e-8"],
            ["double", "-", "--tol-hull", "1e-9"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_flags_a_command_reads_are_accepted(self, monkeypatch, capsys, tmp_path, argv):
        path = tmp_path / "out.txt"
        argv = [*argv, "--out", str(path)]
        code, out, _ = run_cli(monkeypatch, capsys, argv, stdin=emit_frame(six_in_r4()))
        assert (code, out) == (0, "")
        assert path.read_text()

    def test_parse_error_exit_code(self, monkeypatch, capsys):
        code, _, _ = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin="2 0\n")
        assert code == 2

    def test_tolerance_flags(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch,
            capsys,
            ["analyze", "-", "--tol-neighbor", "1e-6"],
            stdin="1 0\n0 1\n",
        )
        assert code == 0
        assert json.loads(out)["tolerances"]["neighbor_abs"] == 1e-6

    @pytest.mark.parametrize("value", ["null", '"abc"', "[1]"])
    def test_non_numeric_file_tolerance_is_a_parse_error(self, monkeypatch, capsys, value):
        frame = '{"dim": 2, "vectors": [[1, 0], [0, 1]], "tolerances": {"eq_abs": %s}}' % value
        with pytest.raises(ParseError):
            parse_frame(frame)
        code, out, err = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=frame)
        assert (code, out) == (2, "")
        assert "eq_abs" in err and "Traceback" not in err

    def test_invalid_tolerance_rejected(self, monkeypatch, capsys):
        code, _, _ = run_cli(
            monkeypatch, capsys, ["analyze", "-", "--tol-eq", "0.5"], stdin="1 0\n0 1\n"
        )
        assert code == 2

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        # a numerical error escaping a command maps to exit 3
        from framecore import report
        from framecore.errors import VerificationError

        def fail(*args, **kwargs):
            raise VerificationError("simulated verification failure")

        monkeypatch.setattr(report, "build_analysis_report", fail)
        code, out, err = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin="1 0\n0 1\n")
        assert code == 3 and out == ""
        assert "numerical failure: simulated verification failure" in err

    def test_etf_route_disagreement_is_reported(self, monkeypatch, capsys):
        # the two ETF routes disagree; analyze still emits the whole report
        # and check reports the disagreement as a FAIL
        frame = emit_frame(nudged_simplex())
        code, out, _ = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=frame)
        assert code == 0
        report = json.loads(out)
        assert report["etf"] is None
        assert any("routes disagree" in w for w in report["warnings"])
        assert len(report["vectors"]) == 4 and report["core"]["levels"]
        assert report["diagnostics"]["drop_one_spanning"]["status"] == "PASS"
        code, out, _ = run_cli(monkeypatch, capsys, ["check", "-"], stdin=frame)
        assert code == 4
        failed = {c["name"] for c in json.loads(out)["checks"] if c["status"] == "FAIL"}
        assert "etf_route_consistency" in failed


class TestOneAnalysisTwoViews:
    """``analyze`` and ``check`` render the same decided facts."""

    @staticmethod
    def _frames():
        frames = [six_in_r4(), mub_r2(), simplex_with_midpoints(6), basis_plus_diagonal()]
        frames += [simplex_etf(n) for n in range(2, 7)]
        frames += [circular_frame(m) for m in range(3, 9)]
        return frames + [near_tie(), nudged_simplex()]

    @staticmethod
    def _analyze_entries(report: dict) -> dict:
        d = report["diagnostics"]
        entries = {f"neighbor_counts.{c['name']}": c for c in d["neighbor_counts"]["checks"]}
        entries["eigen_span"] = d["eigen_span"]
        entries[d["tight_grassmannian"]["name"]] = d["tight_grassmannian"]
        for c in d["core_validation"]["checks"]:
            entries[f"core_validation.{c['name']}"] = c
        return {name: (e["status"], e["detail"]) for name, e in entries.items()}

    def test_shared_entries_agree(self):
        disagreements = 0
        for X in self._frames():
            analyzed = build_analysis_report(X)
            checks = build_check_report(X)["checks"]
            checked = {c["name"]: (c["status"], c["detail"]) for c in checks}
            shared = self._analyze_entries(analyzed)
            assert "tight_n_plus_2_forbidden" in shared
            assert shared == {name: checked[name] for name in shared}
            etf_failed = checked["etf_route_consistency"][0] == "FAIL"
            assert (analyzed["etf"] is None) == etf_failed
            disagreements += etf_failed
        assert disagreements == 1  # the nudged simplex


class TestCheckCommand:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_circular_frames_pass(self, monkeypatch, capsys, m):
        frame = emit_frame(circular_frame(m))
        code, _, _ = run_cli(monkeypatch, capsys, ["check", "-"], stdin=frame)
        assert code == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_simplex_frames_pass(self, monkeypatch, capsys, n):
        frame = emit_frame(simplex_etf(n))
        code, _, _ = run_cli(monkeypatch, capsys, ["check", "-"], stdin=frame)
        assert code == 0

    def test_six_and_mub_pass(self, monkeypatch, capsys):
        for system in (six_in_r4(), mub_r2()):
            code, _, _ = run_cli(monkeypatch, capsys, ["check", "-"], stdin=emit_frame(system))
            assert code == 0

    def test_non_grassmannian_input_fails_core_checks(self, monkeypatch, capsys):
        # three basis vectors plus the diagonal have a one-element core, so
        # the core-size invariant fails and check exits 4
        s = 1.0 / math.sqrt(3.0)
        frame = f"1 0 0\n0 1 0\n0 0 1\n{s} {s} {s}\n"
        code, out, _ = run_cli(
            monkeypatch, capsys, ["check", "-", "--format", "json"], stdin=frame
        )
        assert code == 4
        payload = json.loads(out)
        failed = {c["name"] for c in payload["checks"] if c["status"] == "FAIL"}
        assert "core_validation.core_size_at_least_n_plus_1" in failed


class TestTextRenderers:
    def test_core_text_mode(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["core", "-", "--format", "text"], stdin="1 0\n0 1\n"
        )
        assert code == 0
        assert "core: [0, 1]" in out

    def test_classify_text_mode(self, monkeypatch, capsys):
        frame = emit_frame(mub_r2())
        code, out, _ = run_cli(
            monkeypatch, capsys, ["classify", "-", "--format", "text"], stdin=frame
        )
        assert code == 0
        assert out.count("not_isolable") == 4

    def test_check_text_mode(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["check", "-", "--format", "text"], stdin="1 0\n0 1\n"
        )
        assert code == 0
        assert "failed: 0" in out

    def test_emit_report_rejects_unknown_format(self):
        from framecore import build_analysis_report, emit_report

        report = build_analysis_report(mub_r2())
        with pytest.raises(ValueError):
            emit_report(report, "yaml")


class TestDeterminism:
    def test_analyze_twice_is_byte_identical(self, monkeypatch, capsys):
        frame = emit_frame(six_in_r4())
        _, out1, _ = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=frame)
        _, out2, _ = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=frame)
        assert out1 == out2

    def test_emit_parse_emit_fixed_point(self):
        text1 = emit_frame(circular_frame(7))
        text2 = emit_frame(parse_frame(text1))
        assert text1 == text2


class TestRotatedDuplicates:
    """Duplicate rows under a rotation can round to |<x, y>| just above 1."""

    ROWS = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])

    @staticmethod
    def _frame(rows):
        return "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows)

    def _outcomes(self, monkeypatch, capsys, rows):
        frame = self._frame(rows)
        out = {}
        for cmd in ("analyze", "core", "check", "classify"):
            code, text, _ = run_cli(
                monkeypatch, capsys, [cmd, "-", "--format", "json"], stdin=frame
            )
            out[cmd] = (code, json.loads(text))
        return out

    def test_same_exit_codes_and_statuses_as_unrotated(self, monkeypatch, capsys):
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = self.ROWS @ Q
        V = parse_frame(self._frame(rotated)).vectors
        assert abs(float(V[0] @ V[1])) > 1.0  # the rounding this test is about
        plain = self._outcomes(monkeypatch, capsys, self.ROWS)
        turned = self._outcomes(monkeypatch, capsys, rotated)
        codes = {cmd: code for cmd, (code, _) in turned.items()}
        assert codes == {"analyze": 0, "core": 0, "check": 4, "classify": 0}
        assert codes == {cmd: code for cmd, (code, _) in plain.items()}
        for rep in (plain, turned):
            rep["core"][1].pop("tolerances")
            rep["core"][1]["levels"] = [
                (lv["members"], lv["removed"]) for lv in rep["core"][1]["levels"]
            ]
        assert turned["core"][1] == plain["core"][1]
        assert [v["status"] for v in turned["classify"][1]["verdicts"]] == [
            v["status"] for v in plain["classify"][1]["verdicts"]
        ]
        assert [(c["name"], c["status"]) for c in turned["check"][1]["checks"]] == [
            (c["name"], c["status"]) for c in plain["check"][1]["checks"]
        ]


@pytest.mark.parametrize("command", ["construct", "naimark", "double"])
def test_stdout_and_out_file_get_the_same_bytes(capsysbinary, tmp_path, command):
    if command == "construct":
        argv = ["construct", "simplex", "--n", "120"]
    else:
        frame = tmp_path / "gauss.json"
        system = random_unit_system(np.random.default_rng(5), 100, 10)
        frame.write_text(emit_frame(system), encoding="utf-8")
        argv = [command, str(frame)]
    assert run(argv) == 0
    streamed = capsysbinary.readouterr().out
    path = tmp_path / "out.json"
    assert run(argv + ["--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert len(streamed) > 64 * 1024
    assert path.read_bytes() == streamed


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["construct", "simplex", "--n", "5"], ["construct", "simplex", "--n", "120"], ["analyze"]],
    ids=["construct-5", "construct-120", "analyze"],
)
def test_closed_stdout_exits_2_with_one_error_line(argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-m", "framecore", *argv],
            input=emit_frame(six_in_r4()).encode(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Broken pipe" in err
