"""Memory regression tests: frame emission holds one row of text at a time,
and the Gram matrix is computed, and read for equiangularity, with no m x m
temporary beside it.

Peaks are read with tracemalloc, which numpy reports its buffers to, so they
repeat exactly from run to run.
"""

import tracemalloc

import numpy as np

from framecore import gram, is_equiangular, simplex_etf, write_frame
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
    gram(system)  # 30.5 MiB, computed before the measurement
    peak = _peak_bytes(lambda: is_equiangular(system))
    # One block of 256 rows of |G|: 256 * 2000 * 8 bytes = 3.91 MiB.
    assert peak <= 256 * 2000 * 8 + 64 * KIB
