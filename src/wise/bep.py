"""Sparse binary encoding of mixed-type tables.

Each numeric or ordinal column gets a 2B-bit window holding a contiguous
block of B ones whose offset tracks the normalized value, so nearby
values share bits and the Jaccard distance between codes brackets the
value gap.  Nominal columns get an indicator bit: a one-hot block, a
hashed bucket, or a width-c one-hot block depending on the mode.  A row
is thus one run of bits per column, kept as one offset each (``GroupCodes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from ._rng import fnv1a64, mix64
from .data_model import ColumnSchema, MixedTable, unit_column
from .errors import ConfigError, DataError

NOMINAL_MODES = ("one_hot", "hash", "expand")


@dataclass(frozen=True)
class BepConfig:
    B: int = 8
    nominal_mode: str = "one_hot"
    hash_seed: int = 0

    def __post_init__(self):
        if self.B < 2:
            raise ConfigError(f"B must be >= 2, got {self.B}")
        if self.nominal_mode not in NOMINAL_MODES:
            raise ConfigError(f"nominal_mode must be one of {NOMINAL_MODES}")


@dataclass(frozen=True)
class GroupCodes:
    """Binary rows as one run of set bits per group: row i sets ``width[g]``
    bits of group g's window ``start[g]:start[g + 1]``, from ``start[g] +
    offsets[i, g]`` on, or none where that offset is -1.  Offsets are kept
    in the smallest signed integer type that holds them."""

    offsets: np.ndarray     # (n, d)
    start: np.ndarray       # (d + 1,) int64, from 0 up to p
    width: np.ndarray       # (d,) int64

    def __post_init__(self):
        last = np.diff(self.start) - self.width
        bad = (self.offsets < -1) | (self.offsets > last)
        if np.any(bad):
            raise DataError(f"group offset {self.offsets[bad][0]} outside its bit window")
        dtype = np.min_scalar_type(-int(last.max(initial=1)) - 1)
        object.__setattr__(self, "offsets", self.offsets.astype(dtype, copy=False))

    @property
    def n(self) -> int:
        return self.offsets.shape[0]

    @property
    def p(self) -> int:
        return int(self.start[-1])

    @property
    def bit_groups(self) -> list[tuple[int, int]]:
        """Per group, its [start, stop) bit range."""
        start = self.start.tolist()
        return list(zip(start[:-1], start[1:]))

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """The rows' bits as an n x p uint8 CSR, each row's bits ascending."""
        present = self.offsets >= 0
        runs = np.where(present, self.width, 0)
        indptr = np.r_[0, np.cumsum(runs.sum(axis=1))]
        first = (self.start[:-1] + self.offsets)[present]
        runs = runs[present]
        # bit e is bit e - (its run's place in the row list) of the run's first
        indices = np.repeat(first - (np.cumsum(runs) - runs), runs) + np.arange(indptr[-1])
        return sparse.csr_matrix((np.ones(indices.size, dtype=np.uint8), indices, indptr),
                                 shape=(self.n, self.p))


@dataclass(frozen=True)
class BepMatrix(GroupCodes):
    """Encoded table: one group per feature, with the features' kinds and
    the encoding's settings."""

    group_kinds: list[str]
    config: BepConfig


def block_offset(x, B: int):
    """Quantize x in [0,1] (scalar or array) to offsets in {0..B}, rounding half up."""
    x = np.asarray(x, dtype=np.float64)
    outside = ~((x >= 0) & (x <= 1))
    if np.any(outside):
        raise DataError(f"value {x[outside].flat[0]} outside [0,1]")
    offsets = np.floor(B * x + 0.5).astype(np.int64)
    return int(offsets) if offsets.ndim == 0 else offsets


def nominal_bit(label: str, B: int, hash_seed: int) -> int:
    """Hashed bit of a category label: FNV-1a 64-bit folded with the seed, mod B."""
    return mix64(fnv1a64(label.encode("utf-8")) ^ (hash_seed & (1 << 64) - 1)) % B


def _group_width(col: ColumnSchema, cfg: BepConfig) -> int:
    if col.kind in ("numeric", "ordinal"):
        return 2 * cfg.B
    if cfg.nominal_mode == "expand":
        return col.n_levels()
    if cfg.nominal_mode == "one_hot" and col.n_levels() > cfg.B:
        raise ConfigError(
            f"column {col.name!r} has {col.n_levels()} categories but B={cfg.B}; "
            "use nominal_mode='hash' or 'expand'"
        )
    return cfg.B


def encode_table(table: MixedTable, cfg: BepConfig) -> BepMatrix:
    """Encode every column of the table as one group of bits: a numeric or
    ordinal value's block of B bits, or a nominal level's bit, per row."""
    B = cfg.B
    start = np.cumsum([0] + [_group_width(col, cfg) for col in table.schema])
    offsets = []
    for j, col in enumerate(table.schema):
        if col.kind != "nominal":
            offsets.append(block_offset(unit_column(table, j), B))
            continue
        if cfg.nominal_mode == "hash":
            level_bits = np.array(
                [nominal_bit(lab, B, cfg.hash_seed) for lab in col.levels], dtype=np.int64
            )
        else:
            level_bits = np.arange(col.n_levels(), dtype=np.int64)
        offsets.append(level_bits[table.column(j)])
    width = np.array([1 if col.kind == "nominal" else B for col in table.schema], dtype=np.int64)
    return BepMatrix(np.stack(offsets, axis=1), start, width, [c.kind for c in table.schema], cfg)


def jaccard_distance(a, b) -> float:
    """1 − |A∩B|/|A∪B| over sorted index sets; two empty sets → 0."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    if union == 0:
        return 0.0
    return (union - inter) / union


def quantization_bounds(t: float, B: int) -> tuple[float, float]:
    """Bracket on the code distance induced by a value gap t under B bits.

    Shifting the gap by the rounding granularity 1/B in each direction
    and pushing it through the exact distance curve 2u/(1+u) gives a
    lower and upper bound on jaccard_distance of the two codes.
    """
    if not (0.0 <= t <= 1.0):
        raise DataError(f"gap {t} outside [0,1]")
    t_lo = max(0.0, t - 1.0 / B)
    t_hi = min(1.0, t + 1.0 / B)
    return 2.0 * t_lo / (1.0 + t_lo), 2.0 * t_hi / (1.0 + t_hi)


def dump_bep(bepm: BepMatrix, path):
    """Write the sparse encoding: a JSON header line, then one row per line."""
    import json

    header = {
        "n": bepm.n,
        "p": bepm.p,
        "bit_groups": [list(g) for g in bepm.bit_groups],
        "group_kinds": bepm.group_kinds,
        "B": bepm.config.B,
        "nominal_mode": bepm.config.nominal_mode,
        "hash_seed": bepm.config.hash_seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        m = bepm.matrix
        for i in range(bepm.n):
            bits = m.indices[m.indptr[i]:m.indptr[i + 1]]
            fh.write(f"{i}: " + " ".join(str(b) for b in bits) + "\n")

