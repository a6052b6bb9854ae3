"""Deterministic hashing and seed derivation.

Every random decision in the package flows through the splitmix64
finalizer below, either directly (counter-based uniform draws for the
sampling hashes) or indirectly (derived integer seeds handed to
``numpy.random.default_rng``).  Keeping this in one place is what makes
runs byte-identical across platforms and worker-pool sizes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# mix64_array's constants and shifts, in the order it applies them
_MIX_WORDS = tuple(np.uint64(c) for c in (_GOLDEN, 30, _MIX_A, 27, _MIX_B, 31))

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3


def mix64(x: int) -> int:
    """splitmix64 finalizer on a python int, taken mod 2**64 first."""
    return int(mix64_array(np.array([x & MASK64], dtype=np.uint64))[0])


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer over a uint64 array, computed in place
    on a copy: ``x`` is never written, and uint64 arrays wrap silently."""
    golden, s30, a, s27, b, s31 = _MIX_WORDS
    z = np.array(x, dtype=np.uint64)
    z += golden
    z ^= z >> s30
    z *= a
    z ^= z >> s27
    z *= b
    z ^= z >> s31
    return z


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def _token_int(token) -> int:
    if isinstance(token, str):
        return fnv1a64(token.encode("utf-8"))
    if isinstance(token, (int, np.integer)):
        return int(token) & MASK64
    raise TypeError(f"seed tokens must be str or int, got {type(token).__name__}")


def derive_seed(master: int, *tokens) -> int:
    """Derive a child seed from a master seed and a token path.

    Children for distinct token paths are statistically independent, and
    the derivation is order-sensitive, so ("lofo", 3) and ("tree", 3)
    land in unrelated streams.
    """
    state = mix64(int(master) & MASK64)
    for token in tokens:
        state = mix64(state ^ _token_int(token))
    return state


def derive_seeds(master: int, *tokens, lanes: np.ndarray) -> np.ndarray:
    """``derive_seed(master, *tokens, lane)`` for every integer lane, as uint64.

    The lane is the last token, so one ``mix64_array`` over the lanes
    finishes every derivation at once.
    """
    lanes = np.asarray(lanes).astype(np.uint64)
    return mix64_array(np.uint64(derive_seed(master, *tokens)) ^ lanes)


def unit_from_bits(z: np.ndarray) -> np.ndarray:
    """Map uint64 words to floats in the open interval (0, 1).

    52 bits, not 53: with 53 the top word rounds to exactly 1.0, which
    would break the -log(u) transforms downstream.
    """
    return ((z >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


@lru_cache(maxsize=64)
def _lane_keys(seed: int, lanes: tuple) -> np.ndarray:
    """The mixed key of each lane under ``seed``, read-only.  Cached: a
    forest's grower draws one grid per step under the same seed and lane."""
    keys = mix64_array(derive_seeds(seed, "lane", lanes=np.array(lanes, dtype=np.int64)))
    keys.flags.writeable = False
    return keys


def keyed_uniform_grid(seed: int, lane: int | Sequence[int], hash_ids: np.ndarray,
                       coords: np.ndarray) -> np.ndarray:
    """Counter-based uniforms over a (lane, hash, coordinate) grid.

    Entries depend only on ``(seed, lane, hash_id, coord)``, never on
    evaluation order.  ``lane`` separates the independent draws a single
    hash needs; for an int lane the result has shape
    ``(len(hash_ids), len(coords))``, for a sequence of lanes one such
    grid per lane, stacked.
    """
    lanes = np.atleast_1d(np.asarray(lane, dtype=np.int64))
    inner = _lane_keys(int(seed), tuple(lanes.tolist()))
    with np.errstate(over="ignore"):
        hkey = mix64_array(
            ((hash_ids.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN))[None, :]
            ^ inner[:, None]
        )
        ckey = (coords.astype(np.uint64) + np.uint64(1)) * np.uint64(_MIX_A)
        z = mix64_array(ckey[None, None, :] ^ hkey[:, :, None])
    u = unit_from_bits(z)
    return u if np.ndim(lane) else u[0]
