"""Tests for file formats, the command surface, and report emission."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
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
    mub_r2,
    neighbors,
    parse_frame,
    simplex_etf,
    six_in_r4,
)
from framecore import cli
from framecore.cli import run
from framecore.diagnostics import EIGEN_SPAN_ABS
from framecore.errors import NormError, ParseError, ShapeError
from framecore.frameio import JSON_BATCH, emit_json, parse_frame_with_overrides, round15, write_json
from framecore.frames import WELCH_EQ_ABS
from framecore.report import build_check_report, build_classify_report, build_core_report
from framecore.text import render_text
from helpers import (
    basis_plus_diagonal,
    near_tie,
    nudged_simplex,
    random_unit_system,
    simplex_with_midpoints,
    structured_family,
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
        for text in ("# nothing\n", "", "  \n\n"):
            with pytest.raises(ParseError, match="^empty frame file$"):
                parse_frame(text)

    def test_structured_after_blank_lines(self):
        system = parse_frame('\n\n  {"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}')
        assert system.size == 2 and np.array_equal(system.vectors, np.eye(2))

    def test_hash_in_a_label_is_not_a_comment(self):
        text = '{"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]], "labels": ["a#b", "c"]}'
        assert parse_frame(text).labels == ("a#b", "c")

    def test_integer_entries_read_as_floats(self):
        ints = parse_frame('{"dim": 3, "vectors": [[1, 0, 0], [0, -1, 0], [0, 0.6, 0.8]]}')
        floats = parse_frame('{"dim": 3, "vectors": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.6, 0.8]]}')
        assert ints.vectors.dtype == floats.vectors.dtype == np.float64
        assert np.array_equal(ints.vectors, floats.vectors)

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
        with pytest.raises(ShapeError, match="^2 labels for 1 vectors$"):
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

    @pytest.mark.parametrize("route", ["file", "stdin"])
    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_leading_byte_order_mark_is_ignored(self, monkeypatch, capsys, tmp_path, fmt, route):
        text = "1 0\n0 1\n" if fmt == "plain" else '{"dim": 2, "vectors": [[1, 0], [0, 1]]}\n'
        assert parse_frame("\ufeff" + text).size == 2
        plain = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=text)
        if route == "file":
            frame = tmp_path / "frame"
            frame.write_bytes(b"\xef\xbb\xbf" + text.encode())
            got = run_cli(monkeypatch, capsys, ["analyze", str(frame)])
        else:
            got = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin="\ufeff" + text)
        assert got == plain and got[0] == 0


    def test_non_utf8_file_is_one_error_line(self, monkeypatch, capsys, tmp_path):
        frame = tmp_path / "frame"
        frame.write_bytes(b"1 0\n0 1\xff\n")
        code, out, err = run_cli(monkeypatch, capsys, ["core", str(frame)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {frame}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "core", "check", "classify", "naimark", "double"])
    @pytest.mark.parametrize(
        "text", ['{"dim": 2, "vectors": [[1e308, 0.0], [0.0, 1.0]]}', "1e308 0\n0 1\n"],
        ids=["json", "plain"],
    )
    def test_huge_finite_entry_is_one_error_line(self, monkeypatch, capsys, text, command):
        # Squaring 1e308 overflows; the norm check must neither warn nor name inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(monkeypatch, capsys, [command, "-"], stdin=text)
        assert (code, out) == (2, "")
        assert err == "error: row 0 has norm 1e+308, more than 1e-06 from 1\n"


class TestReport:
    def test_json_round_trip(self):
        report = build_analysis_report(six_in_r4())
        text = emit_json(report)
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


class TestWriteJson:
    """``write_json`` writes the bytes of ``json.dumps(indent=2)`` in batches of chunks."""

    @staticmethod
    def _payloads():
        systems = structured_family() + [
            six_in_r4(), near_tie(), simplex_with_midpoints(6),
            random_unit_system(np.random.default_rng(0), 200, 12),
        ]
        for system in systems:
            yield build_analysis_report(system)
            yield build_check_report(system)
            yield build_core_report(system, Tolerances())
            yield build_classify_report(system, Tolerances())

    def test_bytes_are_those_of_json_dumps(self):
        for payload in self._payloads():
            expected = json.dumps(payload, indent=2) + "\n"
            streamed = io.StringIO()
            write_json(payload, streamed)
            assert streamed.getvalue() == emit_json(payload) == expected

    def test_one_write_per_batch_of_chunks(self):
        class Sink(list):
            def write(self, text):
                self.append(text)

        payload = build_analysis_report(random_unit_system(np.random.default_rng(0), 200, 12))
        chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload))
        assert chunks > 2 * JSON_BATCH
        sink = Sink()
        write_json(payload, sink)
        # Every full batch, the last partial one, then the newline: never one write per chunk.
        assert len(sink) == -(-chunks // JSON_BATCH) + 1
        assert sink[-1] == "\n"

    def test_scalars_and_empty_payloads(self):
        for payload in ({}, [], "é", 1.5, None, {"a": []}):
            assert emit_json(payload) == json.dumps(payload, indent=2) + "\n"


def _json_report(system: UnitVectorSystem) -> dict:
    return json.loads(emit_json(build_analysis_report(system)))


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
            assert '"gram"' not in emit_json(report)
            assert "gram matrix:" not in render_text(report)

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
        assert len(emit_json(build_analysis_report(system)).encode()) < 250_000

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
        # (name and flags, m, coherence); both are tight frames in R^2 with bound m / 2
        cases = [(["circular", "--m", "5"], 5, math.cos(math.pi / 5.0)), (["mub_r2"], 4, 1.0 / math.sqrt(2.0))]
        for argv, m, mu in cases:
            code, frame_text, _ = run_cli(monkeypatch, capsys, ["construct", *argv])
            assert code == 0
            system = parse_frame(frame_text)
            assert (system.size, system.dim) == (m, 2)
            code, out, _ = run_cli(monkeypatch, capsys, ["analyze", "-"], stdin=frame_text)
            assert code == 0
            report = json.loads(out)
            assert abs(report["coherence"] - mu) <= 1e-12
            assert report["tightness"]["kind"] == "tight"
            assert abs(report["tightness"]["bound"] - m / 2) <= 1e-12

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

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 1.46 TiB"), "Unable to allocate 1.46 TiB"),
            (MemoryError(), "out of memory"),
        ],
    )
    def test_allocation_failure_is_one_error_line(self, monkeypatch, capsys, tmp_path, exc, message):
        # Stands in for an oversized allocation, whose outcome would depend
        # on the host's memory overcommit policy.
        def oversized(m):
            raise exc

        monkeypatch.setattr(framecore.constructions, "circular_frame", oversized)
        path = tmp_path / "out.json"
        argv = ["construct", "circular", "--m", "100000000000", "--out", str(path)]
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not path.exists()

    def test_file_can_set_every_tolerance(self, monkeypatch, capsys):
        values = {name: round15(3.0 * default) for name, default in Tolerances._field_defaults.items()}
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
    # Every vector of this R^2 frame peels at level 0.
    EMPTIED = "1 0\n0.766044443118978 0.642787609686539\n-0.17364817766693 0.984807753012208\n"

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

    def test_analyze_text_shows_core_trace_warnings(self, monkeypatch, capsys):
        # The JSON lists the emptied-set warning only under "core", so the
        # text view must print it under "core trace:".
        code, out, _ = run_cli(
            monkeypatch, capsys, ["analyze", "-", "--format", "text"], stdin=self.EMPTIED
        )
        assert code == 0
        trace_block = out.split("core trace:\n")[1].split("core: ")[0]
        assert "  warning: core iteration emptied the set" in trace_block

    def test_core_text_bytes_with_two_levels(self, monkeypatch, capsys):
        frame = emit_frame(simplex_with_midpoints(6))
        got = run_cli(monkeypatch, capsys, ["core", "-", "--format", "text"], stdin=frame)
        assert got == (0, (
            "level 0: members=%s removed=%s coherence=0.645497224367904\n"
            "level 1: members=%s removed=[] coherence=0.166666666666667\n"
            "core: %s\n"
            "warning: coherence changed from 0.6454972243679041 to 0.16666666666666705 at level 1\n"
        ) % (list(range(28)), list(range(7, 28)), list(range(7)), list(range(7))), "")

    def test_core_text_bytes_of_an_emptied_core(self, monkeypatch, capsys):
        got = run_cli(monkeypatch, capsys, ["core", "-", "--format", "text"], stdin=self.EMPTIED)
        assert got == (0, (
            "level 0: members=[0, 1, 2] removed=[0, 1, 2] coherence=0.766044443118978\n"
            "core: []\n"
            "warning: core iteration emptied the set; evidence input is not Grassmannian\n"
        ), "")

    NEAR_TIE_VERDICTS = (
        "[0] indeterminate (neighbors=1, neighbor_rank=1)\n"
        "    warning: constructive validation failed: no eps in 60 halvings gave all inner"
        " products below 0.54030230586814 - 5.4030230586814e-07\n",
        "[1] deficient_isolable (neighbors=1, neighbor_rank=1)\n",
        "[2] isolated (neighbors=0, neighbor_rank=0)\n",
    )

    @pytest.mark.parametrize("index", [None, 0, 1, 2])
    def test_classify_text_bytes_with_verdict_warnings(self, monkeypatch, capsys, index):
        argv = ["classify", "-", "--format", "text"]
        if index is not None:
            argv += ["--index", str(index)]
        got = run_cli(monkeypatch, capsys, argv, stdin=emit_frame(near_tie()))
        lines = self.NEAR_TIE_VERDICTS if index is None else [self.NEAR_TIE_VERDICTS[index]]
        assert got == (0, "".join(lines), "")

    def test_each_warning_is_listed_and_printed_once(self):
        # The level-0 indeterminate warning belongs to the core trace alone:
        # the report's own warnings repeat none of the trace's, and the text
        # prints each warning once, the trace's under "core trace:".
        report = build_analysis_report(near_tie())
        assert any("indeterminate" in w for w in report["core"]["warnings"])
        assert not set(report["core"]["warnings"]) & set(report["warnings"])
        text = render_text(report)
        for w in report["core"]["warnings"] + report["warnings"]:
            assert text.count(w) == 1
        trace_block = text.split("core trace:\n")[1].split("\ncore: ")[0]
        assert all(f"  warning: {w}" in trace_block for w in report["core"]["warnings"])

    def test_check_text_mode(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            monkeypatch, capsys, ["check", "-", "--format", "text"], stdin="1 0\n0 1\n"
        )
        assert code == 0
        assert "failed: 0" in out


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


@pytest.mark.parametrize("command", ["construct", "naimark", "double", "analyze"])
def test_stdout_and_out_file_get_the_same_bytes(capsysbinary, tmp_path, command):
    if command == "construct":
        argv = ["construct", "simplex", "--n", "120"]
    else:
        frame = tmp_path / "gauss.json"
        m = 400 if command == "analyze" else 100  # each output over 64 KiB
        frame.write_text(emit_frame(random_unit_system(np.random.default_rng(5), m, 10)), encoding="utf-8")
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


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_non_utf8_stdin_exits_2_with_one_error_line(errors):
    # The in-process stdin is a StringIO, which cannot carry undecodable bytes.
    # Stdin's bytes are decoded as strict UTF-8 whatever its error handler,
    # so a surrogateescape stdin (the C locale's) gives the strict message.
    env = dict(os.environ, PYTHONIOENCODING=f"utf-8:{errors}")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "framecore", "core"],
        input=b"1 0\n0 1\xff\n",
        capture_output=True,
        env=env,
        timeout=120,
    )
    err = done.stderr.decode()
    assert (done.returncode, done.stdout) == (2, b""), err
    assert err.startswith("error: cannot read stdin: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, stdin, code, message",
    [
        (["analyze"], '{"vectors": [[1, 0]]}', 2, 'needs "dim" and "vectors" keys'),
        (["analyze"], '{"dim": 2, "vectors": []}', 2, '"vectors" must be a nonempty list'),
        (["analyze"], '{"dim": 2, "vectors": [1]}', 2, "row 0 is not a list"),
        (["analyze"], '{"dim": 2, "vectors": [[1, 0]], "labels": "a"}', 2, '"labels" must be a list'),
        (["analyze"], '{"dim": 2, "vectors": [[1, 0]], "tolerances": 3}', 2, "must be an object"),
        (["analyze"], "[1, 2]\n", 2, "structured frame file must be a JSON object"),
        (["analyze"], "1 nan\n", 2, "contain NaN or Inf"),
        (["catalog", "--m", "3", "--n", "4"], "", 2, "catalog needs m > n >= 2"),
        (["construct", "simplex"], "", 1, "construct simplex requires --n"),
    ],
    ids=[
        "no-dim", "empty-vectors", "row-not-a-list", "string-labels", "number-tolerances",
        "json-array", "plain-nan", "catalog-m-not-above-n", "simplex-without-n",
    ],
)
def test_rejected_input_is_one_error_line(monkeypatch, capsys, argv, stdin, code, message):
    got, out, err = run_cli(monkeypatch, capsys, argv, stdin=stdin)
    assert (got, out) == (code, "")
    assert message in err and err.count("\n") == 1 and "Traceback" not in err


def _sh_framecore(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` through sh with "$0" the interpreter and "$1"... ``args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        ["sh", "-c", script, sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_stdin_closed_at_start_up_exits_2_with_one_error_line():
    # With file descriptor 0 closed, Python sets sys.stdin to None.
    done = _sh_framecore('"$0" -m framecore core <&-')
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == "error: cannot read stdin: file descriptor 0 is closed\n"


@pytest.mark.parametrize("argv", ["construct six_in_r4", "--help", "double"], ids=["construct", "help", "double"])
def test_stdout_closed_at_start_up_exits_2_with_one_error_line(argv):
    # With file descriptor 1 closed, Python sets sys.stdout to None.
    done = _sh_framecore(f'printf "1 0\\n0 1\\n" | "$0" -m framecore {argv} >&-')
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == "error: cannot write stdout: file descriptor 1 is closed\n"


def test_stdout_closed_at_start_up_leaves_out_runs_alone(tmp_path):
    out = tmp_path / "six.json"
    done = _sh_framecore('"$0" -m framecore construct six_in_r4 --out "$1" >&-', str(out))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert parse_frame_with_overrides(out.read_text())[0].size == 6


def test_stderr_closed_at_start_up_drops_the_message_and_keeps_the_exit_code(monkeypatch, capsys, tmp_path):
    frame = tmp_path / "six.json"
    frame.write_text(run_cli(monkeypatch, capsys, ["construct", "six_in_r4"])[1])
    done = _sh_framecore('"$0" -m framecore double "$1" 2>&-', str(frame))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run_cli(monkeypatch, capsys, ["double", str(frame)])[1]
    done = _sh_framecore('"$0" -m framecore analyze "$1" 2>&-', str(tmp_path / "missing.json"))
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "")


@pytest.mark.parametrize(
    "stdin",
    ["[" * 3000, '{"dim": 1, "vectors": ' + "[" * 3000 + "]" * 3000 + "}"],
    ids=["array", "vectors"],
)
def test_deeply_nested_json_is_one_error_line(monkeypatch, capsys, stdin):
    code, out, err = run_cli(monkeypatch, capsys, ["core"], stdin=stdin)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "stdin, line, token",
    [
        ("1 0\n0 1_0\n", 2, "'1_0'"),
        ("\u0661 0\n0 1\n", 1, "'\u0661'"),
        ("1 0\n0 \uff11\n", 2, "'\uff11'"),
    ],
    ids=["underscore", "arabic-indic-digit", "fullwidth-digit"],
)
def test_plain_numbers_are_ascii_decimals_without_underscores(monkeypatch, capsys, stdin, line, token):
    # float() reads all three tokens; the plain format does not.
    code, out, err = run_cli(monkeypatch, capsys, ["core"], stdin=stdin)
    assert (code, out) == (2, "")
    assert err == f"error: line {line}: {token} is not an ASCII decimal number\n"


def test_plain_numbers_may_be_separated_by_any_whitespace(monkeypatch, capsys):
    # A no-break space and an em space split numbers, as str.split() does.
    code, out, _ = run_cli(monkeypatch, capsys, ["core"], stdin="1\u00a00\n0\u20031\n")
    assert code == 0 and json.loads(out)["core"] == [0, 1]


class TestHelp:
    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--help", "analyze"], ["-x", "-h"]])
    def test_program_help_names_every_command(self, monkeypatch, capsys, argv):
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: framecore <command>")
        for command in cli._COMMANDS:
            assert f"\n  {command} " in out

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_command_help_names_every_flag(self, monkeypatch, capsys, command):
        positional = "circular" if command == "construct" else "frame.txt"
        for argv in ([command, "-h"], [command, positional, "--help"]):
            code, out, err = run_cli(monkeypatch, capsys, argv)
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: framecore {command} [-h] ")
            flags = [name for name in cli._COMMANDS[command][2] if name.startswith("--")]
            assert all(f"{flag} " in out for flag in flags)

    def test_help_after_the_flags_end_is_a_file(self, monkeypatch, capsys):
        code, _, err = run_cli(monkeypatch, capsys, ["core", "--", "-h"])
        assert code == 2 and err.startswith("error: cannot read -h:")


class TestArgv:
    """The command table reads argv as argparse read it, except where listed."""

    @pytest.mark.parametrize(
        "argv, attrs",
        [
            (["core", "--format=text", "--format", "json"], {"format": "json"}),
            (["core", "--out=", "--tol-eq=1e-3"], {"out": "", "tol_eq": 1e-3}),
            (["core", "--out=a=b c"], {"out": "a=b c"}),
            (["core", "--", "-x"], {"file": "-x"}),
            (["core", "-1"], {"file": "-1"}),
            (["classify", "--index", "-2"], {"index": -2}),
            (["catalog", "--n", "4", "--m=6"], {"m": 6, "n": 4, "format": "json"}),
            (["construct", "--m", "3", "circular"], {"name": "circular", "m": 3, "n": None}),
        ],
    )
    def test_accepted(self, argv, attrs):
        args = vars(cli._parse_args(argv))
        assert {key: args[key] for key in attrs} == attrs
        assert args == vars(_reference_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["--", "core"], "argument command: invalid choice: '--'"),
            (["--", "-h"], "argument command: invalid choice: '--'"),
            (["core", "--format", "xml"], "argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
            (["core", "--tol-eq", "abc"], "argument --tol-eq: invalid float value: 'abc'"),
            (["core", "--tol-eq"], "argument --tol-eq: expected one argument"),
            (["core", "--out", "-x"], "argument --out: expected one argument"),
            (["core", "--tol-eq", "-1e-3"], "argument --tol-eq: expected one argument"),
            (["core", "a", "b", "--bogus=1"], "unrecognized arguments: b --bogus=1"),
            (["core", "--form", "text"], "unrecognized arguments: --form"),
            (["catalog", "--m", "6"], "the following arguments are required: --n"),
            (["construct"], "the following arguments are required: name"),
        ],
    )
    def test_rejected(self, monkeypatch, capsys, argv, message):
        code, out, err = run_cli(monkeypatch, capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: {message}") and err.count("\n") == 1


# The argparse parser that the command table replaced, kept as the reference
# that the table's reading of argv is compared with.
class _ReferenceUsageError(Exception):
    pass


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise _ReferenceUsageError(message)


def _reference_parser() -> _ReferenceParser:
    tols = argparse.ArgumentParser(add_help=False)
    tols.add_argument("--tol-eq", type=float, default=None)
    tols.add_argument("--tol-neighbor", type=float, default=None)
    tols.add_argument("--tol-hull", type=float, default=None)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    analysis, transform = [tols, fmt, out], [tols, out]
    parser = _ReferenceParser(prog="framecore")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "core", "classify", "check"):
        p = sub.add_parser(name, parents=analysis)
        p.add_argument("file", nargs="?", default="-")
        if name == "classify":
            p.add_argument("--index", type=int, default=None)
    for name in ("naimark", "double"):
        sub.add_parser(name, parents=transform).add_argument("file", nargs="?", default="-")
    p = sub.add_parser("construct", parents=[out])
    p.add_argument("name", choices=("circular", "six_in_r4", "mub_r2", "simplex"))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p = sub.add_parser("catalog", parents=[fmt, out])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return parser


def _reference_reading(argv):
    """("ok", attributes), ("help",) or ("usage",) as argparse read ``argv``."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return ("ok", vars(_reference_parser().parse_args(argv)))
    except _ReferenceUsageError:
        return ("usage",)
    except SystemExit as exc:
        assert exc.code == 0
        return ("help",)


def _table_reading(argv):
    try:
        args = cli._parse_args(argv)
    except cli._UsageError:
        return ("usage",)
    return ("help",) if isinstance(args, str) else ("ok", vars(args))


_NAN = object()


def _same_reading(reference, table) -> bool:
    """``reference == table``, except that a NaN value equals a NaN value: both
    parsers read ``--tol-eq nan`` as ``float("nan")``, which ``==`` calls unequal."""

    def key(reading):
        if reading[0] != "ok":
            return reading
        return ("ok", {k: _NAN if isinstance(v, float) and math.isnan(v) else v for k, v in reading[1].items()})

    return key(reference) == key(table)


_FLAGS = ("--tol-eq", "--tol-neighbor", "--tol-hull", "--format", "--out", "--index", "--m", "--n")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _listed_disagreement(argv) -> bool:
    """Whether ``argv`` holds a token on which the table and argparse knowingly differ.

    - A prefix of a flag (``--form``, ``--he``): argparse expands a unique
      one; the table reads it as an unknown flag.
    - "--" right after a flag that takes a value: argparse 3.11 skips it and
      takes the next token as the value; the table reports "expected one argument".
    - A token that starts with "-", holds a space and is no negative number:
      argparse reads it as a value or the file; the table as an unknown flag.
    """
    for token, after in zip(argv, [*argv[1:], None]):
        name = token.partition("=")[0]
        if name.startswith("--") and any(f != name and f.startswith(name) for f in (*_FLAGS, "--help")):
            return True
        if token in _FLAGS and after == "--":
            return True
        if token.startswith("-") and " " in token and not _NEGATIVE_NUMBER.match(token):
            return True
    return False


_ANALYSIS_FLAGS = ("--tol-eq", "--tol-neighbor", "--tol-hull", "--format", "--out")
_OWN_FLAGS = {  # the flags argparse gave each command
    **dict.fromkeys(("analyze", "core", "check"), _ANALYSIS_FLAGS),
    "classify": (*_ANALYSIS_FLAGS, "--index"),
    **dict.fromkeys(("naimark", "double"), ("--tol-eq", "--tol-neighbor", "--tol-hull", "--out")),
    "construct": ("--m", "--n", "--out"),
    "catalog": ("--m", "--n", "--format", "--out"),
}


def _argv_strategy(st, numbers):
    """Argv drawn from command names, flags (mostly the command's own) in both
    spellings with values of their kind, ``numbers`` (negative ones included),
    "-", "--", paths and junk tokens."""
    junk = st.one_of(
        st.sampled_from(["-", "--", "-h", "--help", "-x", "-x y", "-1e-3", "-.5", "1_0", "", "=", "a=b"]),
        st.text(alphabet="-=.a1 _h", max_size=5),
        st.floats().map(repr),
    )
    paths = st.sampled_from(["frame.txt", "out dir/f.json", "-", "-5", "a=b"])
    kinds = {
        "--format": st.sampled_from(["json", "text", "json", "text", "xml"]),
        "--out": paths,
        **dict.fromkeys(("--tol-eq", "--tol-neighbor", "--tol-hull"), st.one_of(numbers, st.floats().map(repr))),
    }
    any_flag = st.sampled_from([*_FLAGS, "-h", "--help", "--form", "--tol", "--in", "--bogus"])

    def spelled(flags):
        return st.tuples(flags, st.integers(0, 9), st.booleans()).flatmap(
            lambda t: (junk if t[1] == 0 else kinds.get(t[0], numbers)).map(
                lambda v: [f"{t[0]}={v}"] if t[2] else [t[0], v]
            )
        )

    def after(command):
        own = spelled(st.sampled_from(_OWN_FLAGS.get(command, _FLAGS)))
        positional = st.sampled_from(["circular", "six_in_r4", "simplex", "bogus"]) if command == "construct" else paths
        other = st.one_of(
            positional.map(lambda v: [v]), spelled(any_flag), any_flag.map(lambda f: [f]),
            st.one_of(numbers, junk).map(lambda v: [v]),
        )
        group = st.integers(0, 3).flatmap(lambda i: other if i == 0 else own)
        sizes = st.sampled_from([[], ["--m", "6", "--n", "4"]] if command == "catalog" else [[]])
        return st.tuples(sizes, st.lists(group, max_size=4)).map(
            lambda t: [command, *t[0], *(token for g in t[1] for token in g)]
        )

    commands = st.sampled_from(sorted(_OWN_FLAGS))
    before = st.sampled_from([[], [], [], [], ["-h"], ["--"], ["-x"], ["-1"]])
    command = st.integers(0, 9).flatmap(lambda i: junk if i == 0 else commands)
    return st.tuples(before, command.flatmap(after)).map(
        lambda t: [*t[0], *t[1]]
    )


def test_table_reads_argv_as_argparse_did(monkeypatch, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_argv_strategy(st, st.integers(-10**6, 10**6).map(str)))
    @hypothesis.example(["analyze", "--tol-eq", "nan"])
    def check(argv):
        reference, table = _reference_reading(argv), _table_reading(argv)
        if not _same_reading(reference, table):
            assert _listed_disagreement(argv), (argv, reference, table)
        elif reference == ("usage",):
            code, out, err = run_cli(monkeypatch, capsys, argv)
            assert (code, out) == (1, "") and err.startswith("usage error: ") and err.count("\n") == 1

    check()


def test_same_reading_equates_nan_and_nothing_else():
    nan, one = ("ok", {"tol_eq": math.nan, "file": "-"}), ("ok", {"tol_eq": 1e-3, "file": "-"})
    assert _same_reading(nan, ("ok", {"tol_eq": float("nan"), "file": "-"}))
    assert not _same_reading(nan, one) and not _same_reading(nan, ("ok", {"tol_eq": math.nan, "file": "x"}))
    assert _same_reading(("usage",), ("usage",)) and not _same_reading(("usage",), ("help",))


def test_run_never_raises_on_drawn_argv(monkeypatch, capsys, tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.chdir(tmp_path)  # drawn --out paths land here

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_argv_strategy(st, st.integers(-3, 9).map(str)))
    def check(argv):
        code, _, _ = run_cli(monkeypatch, capsys, argv, stdin="1 0\n0 1\n")
        assert code in (0, 1, 2, 3, 4)

    check()
