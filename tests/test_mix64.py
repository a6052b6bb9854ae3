"""The splitmix64 finalizer against its Python-integer form."""

import numpy as np

from helpers import reference_mix64
from wise._rng import MASK64, mix64, mix64_array

GOLDEN = 0x9E3779B97F4A7C15


def test_mix64_bits_equal_the_integer_form():
    rng = np.random.default_rng(64)
    wrap = (1 << 64) - GOLDEN      # the first input whose golden-ratio step wraps
    edges = [0, 1, MASK64, wrap - 1, wrap]
    xs = edges + [int(x) for x in rng.integers(0, MASK64, 4000, dtype=np.uint64, endpoint=True)]
    assert len(xs) == 4005
    want = [reference_mix64(x) for x in xs]
    assert [mix64(x) for x in xs] == want
    assert mix64_array(np.array(xs, dtype=np.uint64)).tolist() == want
    # inputs outside [0, 2**64) are taken mod 2**64, as the integer form does
    assert mix64(-1) == reference_mix64(-1) == reference_mix64(MASK64)
    assert mix64(1 << 64) == reference_mix64(1 << 64) == reference_mix64(0)
