"""Deterministic hashing and counter-based uniforms."""

import warnings

import numpy as np
import pytest

from helpers import reference_mix64
from wise._rng import (
    MASK64,
    derive_seed,
    derive_seeds,
    fnv1a64,
    keyed_uniform_grid,
    mix64,
    mix64_array,
    unit_from_bits,
)


def test_mix64_range_and_dispersion():
    seen = {mix64(x) for x in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= z <= MASK64 for z in seen)


def test_mix64_array_matches_scalar():
    xs = np.arange(2048, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    vec = mix64_array(xs)
    for i in (0, 1, 17, 2047):
        assert int(vec[i]) == mix64(int(xs[i]))


def test_mix64_array_leaves_its_input_and_takes_any_layout():
    """Bits of the integer form on wrapping words, a read-only input left as
    it is, 2-d and strided inputs mixed elementwise, and no overflow warning."""
    rng = np.random.default_rng(27)
    words = rng.integers(0, MASK64, 48, dtype=np.uint64, endpoint=True)
    words[:2] = 0, MASK64
    want = np.array([reference_mix64(int(x)) for x in words], dtype=np.uint64)
    frozen = words.copy()
    frozen.flags.writeable = False
    grid = np.ascontiguousarray(words.reshape(6, 8).T)  # 8 x 6 over the same words
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mix64_array(frozen)
        assert got.dtype == np.uint64 and got.flags.writeable
        assert got.tolist() == want.tolist() and frozen.tolist() == words.tolist()
        assert mix64_array(words.reshape(6, 8)).tolist() == want.reshape(6, 8).tolist()
        assert mix64_array(grid.T).tolist() == want.reshape(6, 8).tolist()  # not contiguous
        assert mix64_array(words[::3]).tolist() == want[::3].tolist()


def test_fnv1a64_known_distinct():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") != fnv1a64(b"b")


def test_derive_seed_is_path_sensitive():
    master = 42
    assert derive_seed(master, "lofo", 3) == derive_seed(master, "lofo", 3)
    assert derive_seed(master, "lofo", 3) != derive_seed(master, "tree", 3)
    assert derive_seed(master, "a", "b") != derive_seed(master, "b", "a")
    assert derive_seed(master) != derive_seed(master + 1)
    assert 0 <= derive_seed(master, "x") <= MASK64


def test_derive_seeds_match_per_lane_derive_seed():
    lanes = [0, 1, 2**63, 2**64 - 1]
    for master, tokens in ((0, ()), (42, ("tree",)), (2**64 - 5, ("a", 7))):
        got = derive_seeds(master, *tokens, lanes=np.array(lanes, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(master, *tokens, lane) for lane in lanes]
    # a signed lane is taken mod 2**64, as derive_seed takes an int token
    assert derive_seeds(3, "x", lanes=np.array([-1, 5])).tolist() == \
        [derive_seed(3, "x", 2**64 - 1), derive_seed(3, "x", 5)]


def test_derive_seed_rejects_bad_tokens():
    with pytest.raises(TypeError):
        derive_seed(1, 2.5)


def test_unit_from_bits_open_interval():
    z = np.array([0, 1, MASK64], dtype=np.uint64)
    u = unit_from_bits(z)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_keyed_uniform_grid_shape_and_range():
    hash_ids = np.arange(7, dtype=np.int64)
    coords = np.arange(11, dtype=np.int64)
    grid = keyed_uniform_grid(123, 0, hash_ids, coords)
    assert grid.shape == (7, 11)
    assert np.all(grid > 0.0) and np.all(grid < 1.0)


def test_keyed_uniform_grid_is_order_free():
    # entries depend only on (seed, lane, hash_id, coord), not on the
    # shape of the request
    hash_ids = np.array([3, 9, 120], dtype=np.int64)
    coords = np.array([0, 5, 77, 1000], dtype=np.int64)
    full = keyed_uniform_grid(9, 2, hash_ids, coords)
    single = keyed_uniform_grid(9, 2, hash_ids[1:2], coords[2:3])
    assert single[0, 0] == full[1, 2]
    shuffled = keyed_uniform_grid(9, 2, hash_ids[::-1].copy(), coords[::-1].copy())
    assert np.array_equal(shuffled[::-1, ::-1], full)


def test_keyed_uniform_grid_separates_seed_and_lane():
    hash_ids = np.arange(4, dtype=np.int64)
    coords = np.arange(4, dtype=np.int64)
    base = keyed_uniform_grid(1, 0, hash_ids, coords)
    assert not np.array_equal(base, keyed_uniform_grid(2, 0, hash_ids, coords))
    assert not np.array_equal(base, keyed_uniform_grid(1, 1, hash_ids, coords))


def test_keyed_uniform_grid_looks_uniform():
    grid = keyed_uniform_grid(7, 0, np.arange(100, dtype=np.int64), np.arange(100, dtype=np.int64))
    # mean of 10k iid U(0,1) has sd ~0.0029; 5 sigma band
    assert abs(grid.mean() - 0.5) < 0.015
    assert abs((grid < 0.25).mean() - 0.25) < 0.025
