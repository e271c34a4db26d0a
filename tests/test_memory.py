"""Memory regression tests: frame emission holds one row of text at a time,
and the Gram matrix is computed with at most one m x m temporary.

Peaks are read with tracemalloc, which numpy reports its buffers to, so they
repeat exactly from run to run.
"""

import tracemalloc

import numpy as np

from framecore import gram, simplex_etf, write_frame
from helpers import random_unit_system

KIB = 1024
MIB = 1024 * KIB


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


def test_gram_holds_one_temporary_next_to_the_matrix():
    system = random_unit_system(np.random.default_rng(0), 400, 24)
    peak = _peak_bytes(lambda: gram(system))
    # The Gram matrix itself is 400 * 400 * 8 bytes = 1.22 MiB.
    assert peak <= 2.6 * MIB
