"""Memory regression tests: frame emission holds one row of text at a time,
the Gram matrix is computed with no m x m temporary beside it, and the
coherence, the equiangularity test, the bound card, the analysis, check
and core reports, the Naimark complement and the ``double`` command form no
m x m array at all: the largest transient is one block of ``gram_blocks``,
BLOCK_ROWS x m, and the bounds follow that constant.

Peaks are read with tracemalloc, which numpy reports its buffers to, so they
repeat exactly from run to run.
"""

import contextlib
import io
import os
import sys
import tracemalloc

import numpy as np
import pytest

from framecore import (
    UnitVectorSystem,
    bounds_card,
    coherence,
    emit_frame,
    gram,
    is_equiangular,
    naimark_complement,
    parse_frame,
    simplex_etf,
    write_frame,
)
from framecore.cli import run
from framecore.frameio import emit_json, round15, write_json
from framecore.numerics import BLOCK_ROWS, DEFAULT_TOL, gram_blocks
from framecore.report import build_analysis_report, build_check_report, build_core_report
from helpers import random_unit_system

KIB = 1024


class _Discard:
    def write(self, text):
        pass


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_frame_holds_one_row_of_text():
    system = simplex_etf(300)  # 2.3 MiB of frame text
    assert _peak_bytes(lambda: write_frame(system, _Discard())) <= 64 * KIB


def test_write_json_holds_one_batch_of_text():
    report = build_analysis_report(random_unit_system(np.random.default_rng(0), 2000, 12))
    assert len(emit_json(report)) > 640 * KIB
    # One batch of JSON_BATCH encoder chunks and their joined text, 0.38 MiB;
    # json.dumps holds every chunk and the whole text, 3.9 MiB.
    assert _peak_bytes(lambda: write_json(report, _Discard())) <= 512 * KIB


def test_gram_holds_no_m_by_m_temporary():
    system = random_unit_system(np.random.default_rng(0), 400, 24)
    peak = _peak_bytes(lambda: gram(system))
    # The Gram matrix itself is 400 * 400 * 8 bytes = 1.22 MiB; beside it only O(m).
    assert peak <= 400 * 400 * 8 + 64 * KIB


def test_is_equiangular_holds_no_m_by_m_temporary():
    system = random_unit_system(np.random.default_rng(0), 2000, 12)
    gram(system)  # 30.5 MiB, computed and dropped before the measurement; the coherence stays
    peak = _peak_bytes(lambda: is_equiangular(system))
    # One row V x_i at a time and its band arithmetic, a few arrays of m doubles
    # (2000 * 8 bytes = 15.6 KiB each); no block of V V^T is read.
    assert peak <= 8 * 2000 * 8 + 64 * KIB


def test_coherence_without_a_kept_gram_holds_one_block():
    system = random_unit_system(np.random.default_rng(0), 2000, 12)
    peak = _peak_bytes(lambda: coherence(system))
    # One block of BLOCK_ROWS rows of V V^T: 64 * 2000 * 8 bytes = 0.98 MiB; the
    # whole Gram matrix would be 30.5 MiB.
    assert peak <= BLOCK_ROWS * 2000 * 8 + 64 * KIB
    # At m = 8000 a block is at most 4 MB, where V V^T is 512 MB.
    assert BLOCK_ROWS * 8000 * 8 <= 4_096_000


@pytest.mark.parametrize("reduction", [is_equiangular, bounds_card])
def test_frame_wide_reductions_form_no_gram(reduction):
    system = random_unit_system(np.random.default_rng(0), 2000, 12)
    peak = _peak_bytes(lambda: reduction(system))
    # One block of BLOCK_ROWS rows of V V^T at a time: 64 * 2000 * 8 bytes =
    # 0.98 MiB, where the Gram matrix would be 30.5 MiB.
    assert peak <= BLOCK_ROWS * 2000 * 8 + 64 * KIB
    assert "_gram" not in system.__dict__


@pytest.mark.parametrize("build", [build_analysis_report, build_check_report, build_core_report])
def test_reports_hold_no_gram(build):
    m = 2000
    system = random_unit_system(np.random.default_rng(0), m, 12)
    peak = _peak_bytes(lambda: build(system, DEFAULT_TOL))
    # One BLOCK_ROWS-row block of V V^T for the coherence, 64 * 2000 * 8 bytes =
    # 0.98 MiB, and the report's own objects, under 1 KiB per vector (1.6 MiB
    # for the analysis report); each neighbor band reads one row V x_i.  A kept
    # Gram matrix would be 30.5 MiB.
    assert peak <= BLOCK_ROWS * m * 8 + m * KIB


def test_naimark_holds_one_completion_basis_and_row_blocks():
    m, n = 400, 12
    system = random_unit_system(np.random.default_rng(0), m, n)
    big = m + n - 1  # the completed basis is N x N, N = m + n - k, with k = 1 here
    peak = _peak_bytes(lambda: naimark_complement(system))
    # At most two N x N arrays at once (the SVD's V^T and its sign-fixed C-ordered
    # copy), or later the m x (m - k) output next to the basis (N^2 > m (m - k))
    # or beside one BLOCK_ROWS-row block pair of the Gram check; no m x m Gram
    # matrix.  Here the two bases, 2.58 MiB, set the peak.
    assert peak <= max(2 * big * big, m * (m - 1) + 2 * BLOCK_ROWS * m) * 8 + 128 * KIB


def test_double_command_forms_no_gram_of_its_output(tmp_path):
    m, n = 1000, 12
    path = tmp_path / "frame.json"
    path.write_text(emit_frame(random_unit_system(np.random.default_rng(0), m, n)))

    def double():
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(["double", str(path), "--out", os.devnull]) == 0

    double()  # loads the modules the command executes
    peak = _peak_bytes(double)
    # The (2m)^2 Gram matrix of the output would be 2000 * 2000 * 8 bytes =
    # 30.5 MiB.  The summary's coherence reads one BLOCK_ROWS-row block of it,
    # 64 * 2000 * 8 bytes = 0.98 MiB, beside the 2m x 2n output (0.37 MiB) and
    # at most 1 MiB of frame text and parsed rows.
    assert peak <= BLOCK_ROWS * 2 * m * 8 + 2 * m * 2 * n * 8 + 1024 * KIB


def test_naimark_command_reads_three_gram_block_streams(tmp_path, monkeypatch):
    # The completion's orthonormality check reads one stream and the Gram-relation
    # check one each of X X^T and Y Y^T; the summary's two coherences come from
    # the relation check, not from two more streams.
    system = random_unit_system(np.random.default_rng(0), 200, 12)
    path = tmp_path / "frame.json"
    path.write_text(emit_frame(system))
    streams = []

    def counted(V):
        streams.append(len(V))
        return gram_blocks(V)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "framecore" and getattr(module, "gram_blocks", None) is gram_blocks:
            monkeypatch.setattr(module, "gram_blocks", counted)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run(["naimark", str(path), "--out", os.devnull]) == 0
    assert len(streams) == 3
    monkeypatch.undo()
    # The kept values are those ``coherence`` computes on fresh systems.
    X = parse_frame(path.read_text())
    Y = naimark_complement(parse_frame(path.read_text()))[0]
    fresh = [coherence(UnitVectorSystem(S.vectors)) for S in (X, Y)]
    assert f"coherence {round15(fresh[0])} -> {round15(fresh[1])}\n" in err.getvalue()
