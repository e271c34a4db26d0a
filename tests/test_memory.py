"""Memory regression tests: frame emission holds one row of text at a time,
the Gram matrix is computed with no m x m temporary beside it, and the
coherence, the equiangularity test, the bound card, the analysis, check
and core reports, the Naimark complement and the ``double`` command form no
m x m array at all.

Peaks are read with tracemalloc, which numpy reports its buffers to, so they
repeat exactly from run to run.
"""

import contextlib
import io
import os
import tracemalloc

import numpy as np
import pytest

from framecore import (
    bounds_card,
    coherence,
    emit_frame,
    gram,
    is_equiangular,
    naimark_complement,
    simplex_etf,
    write_frame,
)
from framecore.cli import run
from framecore.numerics import DEFAULT_TOL
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


def test_gram_holds_no_m_by_m_temporary():
    system = random_unit_system(np.random.default_rng(0), 400, 24)
    peak = _peak_bytes(lambda: gram(system))
    # The Gram matrix itself is 400 * 400 * 8 bytes = 1.22 MiB; beside it only O(m).
    assert peak <= 400 * 400 * 8 + 64 * KIB


def test_is_equiangular_holds_no_m_by_m_temporary():
    system = random_unit_system(np.random.default_rng(0), 2000, 12)
    gram(system)  # 30.5 MiB, computed and dropped before the measurement; the coherence stays
    peak = _peak_bytes(lambda: is_equiangular(system))
    # One row V x_i at a time, well inside one block of 256 rows: 256 * 2000 * 8 bytes = 3.91 MiB.
    assert peak <= 256 * 2000 * 8 + 64 * KIB


def test_coherence_without_a_kept_gram_holds_one_block():
    system = random_unit_system(np.random.default_rng(0), 2000, 12)
    peak = _peak_bytes(lambda: coherence(system))
    # One block of 256 rows of V V^T: 256 * 2000 * 8 bytes = 3.91 MiB; the
    # whole Gram matrix would be 30.5 MiB.
    assert peak <= 256 * 2000 * 8 + 64 * KIB


@pytest.mark.parametrize("reduction", [is_equiangular, bounds_card])
def test_frame_wide_reductions_form_no_gram(reduction):
    system = random_unit_system(np.random.default_rng(0), 2000, 12)
    peak = _peak_bytes(lambda: reduction(system))
    # One block of 256 rows of V V^T at a time: 256 * 2000 * 8 bytes = 3.91 MiB,
    # where the Gram matrix would be 30.5 MiB.
    assert peak <= 256 * 2000 * 8 + 64 * KIB
    assert "_gram" not in system.__dict__


@pytest.mark.parametrize("build", [build_analysis_report, build_check_report, build_core_report])
def test_reports_hold_no_gram(build):
    m = 2000
    system = random_unit_system(np.random.default_rng(0), m, 12)
    peak = _peak_bytes(lambda: build(system, DEFAULT_TOL))
    # One 256-row block of V V^T for the coherence, 256 * 2000 * 8 bytes =
    # 3.91 MiB; each neighbor band reads one row V x_i.  A kept Gram matrix
    # would be 30.5 MiB.
    assert peak <= 256 * m * 8 + 256 * KIB


def test_naimark_holds_one_completion_basis_and_row_blocks():
    m, n = 400, 12
    system = random_unit_system(np.random.default_rng(0), m, n)
    big = m + n - 1  # the completed basis is N x N, N = m + n - k, with k = 1 here
    peak = _peak_bytes(lambda: naimark_complement(system))
    # At most two N x N arrays at once (the SVD's V^T and its sign-fixed C-ordered
    # copy), or later the m x (m - k) output next to the basis or beside one
    # 256-row block pair of the Gram check; no m x m Gram matrix.
    assert peak <= 2 * big * big * 8 + m * (m - 1) * 8 + 256 * m * 8


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
    # 30.5 MiB.  The summary's coherence reads one 256-row block of it,
    # 256 * 2000 * 8 bytes = 3.91 MiB, beside the 2m x 2n output (0.37 MiB) and
    # at most 2 MiB of frame text and parsed rows.
    assert peak <= 256 * 2 * m * 8 + 2 * m * 2 * n * 8 + 2048 * KIB
