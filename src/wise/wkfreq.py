"""Weighted k-FreqItems clustering over binary rows given as group codes.

Rows are group codes (``bep.GroupCodes``): one run of set bits per group,
as a BEP column (B bits in a 2B-bit window, or one nominal bit) and a
stage-two record (one width-1 run per round) are; a binary CSR is p
width-1 groups.  A round's rows share one weight vector omega, all zero
or all positive over each group's bits.  Centers are one k x p CSR block
of retained coordinates valued by their average contribution; omega = 1
(``weights=None``) is plain k-FreqItems with integer-exact Jaccard sums.

``cluster_rounds`` runs one table's rounds in batches of ``BATCH_ROWS``
rows x rounds, each step one array pass over the batch keyed by round,
while each round keeps its order-sensitive steps, so a result is the one
its round gets alone (``cluster``).  Seeding is two-level MinHash on the
distinct effective codes (rows equal on every kept group, with integer
multiplicities, in any order): bands bucket codes, bucket FreqItems are
sketched again to merge buckets into bins, and bin FreqItems are the
candidates, reduced to k by distance-weighted sampling.  Each hash ranks
a round's positive-weight coordinates once, and a sketch is the least
rank: of one window minimum per group for codes, of the coordinates for
FreqItems, whose values are omega up to one rounding and so sketch as
omega does.  Every FreqItem count is a per-group multiplicity histogram
plus a box sum, the exact integers of row-level counting.  Lloyd measures
each code once as a CSR row of its bits, adding in ascending coordinate
order, and assigns, repairs and stops on rows.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse

from ._rng import derive_seed, keyed_uniform_grid
from .bep import GroupCodes
from .errors import ConfigError, DataError, InvariantError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClusterParams:
    k: int
    alpha: float = 0.5
    beta: float = 0.5
    max_iter: int = 50
    seed: int = 0
    # SILK's fixed layout, not settable: lsh_tables * lsh_bands level-1 bands of
    # lsh_rows hashes each, and the similarity at which seeding merges candidates
    lsh_tables: ClassVar[int] = 4
    lsh_bands: ClassVar[int] = 8
    lsh_rows: ClassVar[int] = 2
    dedup_sim: ClassVar[float] = 0.95

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ConfigError("alpha and beta must lie in [0,1]")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")


@dataclass
class ClusterResult:
    labels: np.ndarray
    # k x p CSR block: row c is the FreqItem center of the rows labelled c;
    # cluster sizes are bincount(labels, minlength=k)
    centers: sparse.csr_matrix
    n_iter: int
    mean_distance: float
    # one entry per assignment step: (mean distance of previous labels under
    # the current centers or None on the first step, mean after reassignment)
    history: list[tuple[float | None, float]]


# pairs x union-coordinates cells per block of pairwise_weighted_jaccard
PAIR_BLOCK_CELLS = 1 << 18
# groups x coordinates dense cells per block of FreqItem counts
COUNT_BLOCK_CELLS = 1 << 16
# bands x live codes signature entries per sort of _band_buckets
BAND_BLOCK_ENTRIES = 1 << 16
# groups or stored positions x rows x hashes rank cells per gather of _sketch
SKETCH_BLOCK_CELLS = 1 << 19
# rows x rounds per batch of cluster_rounds; a larger table runs one round
# per batch
BATCH_ROWS = 1 << 13


def _row_totals(C: sparse.csr_matrix) -> np.ndarray:
    """Each row's sum, as one 1-D ``sum`` of its stored values."""
    bounds = zip(C.indptr[:-1].tolist(), C.indptr[1:].tolist())
    return np.array([C.data[lo:hi].sum() for lo, hi in bounds], dtype=np.float64)


def pairwise_weighted_jaccard(C: sparse.csr_matrix) -> np.ndarray:
    """The (m, m) weighted Jaccard similarities sum(min)/sum(max) of C's rows."""
    return _block_jaccard(C, [0, C.shape[0]])[0]


def _block_jaccard(C: sparse.csr_matrix, cuts) -> list[np.ndarray]:
    """``pairwise_weighted_jaccard`` of each block of rows ``cuts[b]:cuts[b + 1]``.

    Two empty rows are identical (1).  Each pair's minima are taken over
    its common coordinates in ascending order.  Pairs with the same number
    c of common coordinates are summed together as one contiguous (pairs,
    c) block, row by row, which adds in the same order as a 1-D ``sum``
    of length c; padding rows to a common length would not.  Pairs are
    taken in blocks of at most ``PAIR_BLOCK_CELLS`` dense cells.
    """
    m = C.shape[0]
    pairs = [np.triu_indices(hi - lo, 1) for lo, hi in zip(cuts[:-1], cuts[1:])]
    # the pairs of all blocks, each as rows of C
    a = np.concatenate([i + lo for (i, _), lo in zip(pairs, cuts)]).astype(np.intp)
    b = np.concatenate([j + lo for (_, j), lo in zip(pairs, cuts)]).astype(np.intp)
    cols, pos = np.unique(C.indices, return_inverse=True)
    owner = np.repeat(np.arange(m), np.diff(C.indptr))
    val = np.zeros((m, cols.size))
    val[owner, pos] = C.data
    has = np.zeros((m, cols.size), dtype=bool)
    has[owner, pos] = True

    smin = np.zeros(a.size)
    step = max(1, PAIR_BLOCK_CELLS // max(1, cols.size))
    for lo in range(0, a.size, step):
        i, j = a[lo:lo + step], b[lo:lo + step]
        common = has[i]
        common &= has[j]
        # each pair's common minima, contiguous and in ascending coordinate order
        mins = val[i]
        np.minimum(mins, val[j], out=mins)
        mins = mins[common]
        counts = common.sum(axis=1)
        start = np.cumsum(counts) - counts
        order = np.argsort(counts, kind="stable")
        edges = np.flatnonzero(np.diff(counts[order], prepend=0, append=-1))
        block = smin[lo:lo + step]
        for first, last in zip(edges[:-1].tolist(), edges[1:].tolist()):
            rows = order[first:last]
            c = int(counts[rows[0]])
            block[rows] = mins[start[rows, None] + np.arange(c)].sum(axis=1)
    totals = _row_totals(C)
    smax = totals[a] + totals[b] - smin
    pair = np.ones(a.size)
    np.divide(smin, smax, out=pair, where=smax != 0.0)
    sims, at = [], 0
    for (i, j), lo, hi in zip(pairs, cuts[:-1], cuts[1:]):
        sim = np.eye(hi - lo)
        sim[i, j] = sim[j, i] = pair[at:at + i.size]
        sims.append(sim)
        at += i.size
    return sims


def _padded(C: sparse.csr_matrix) -> np.ndarray:
    """Each row's stored positions as one (n, W >= 1) block, padded with C.nnz,
    so ``np.append(values, pad)[_padded(C)]`` lays per-entry values out by row."""
    lens = np.diff(C.indptr)
    width = np.arange(max(int(lens.max(initial=0)), 1), dtype=C.indptr.dtype)
    pos = C.indptr[:-1, None] + width
    pos[width >= lens[:, None]] = C.nnz
    return pos


def _distinct_rows(key: np.ndarray, size: int, columns, return_index: bool = False):
    """np.unique's ([first,] inverse, counts) of the rows of an int64 key below
    ``size`` and (values, radix) columns, packed into the key while it fits
    in int64 and rank-compressed before a column that would overflow it."""
    for values, radix in columns:
        if size * int(radix) > np.iinfo(np.int64).max:
            _, key = np.unique(key, return_inverse=True)
            size = int(key.max(initial=0)) + 1
        key = key * radix + values
        size *= int(radix)
    return np.unique(key, return_index=return_index, return_inverse=True, return_counts=True)[1:]


def _as_groups(X) -> GroupCodes:
    """X as group codes: itself, or a binary matrix as p width-1 groups.
    Duplicate entries are summed; a stored 0 is an unset bit, and any other
    value than 0 or 1 raises DataError."""
    if isinstance(X, GroupCodes):
        return X
    X = sparse.csr_matrix(X, copy=True)
    X.sum_duplicates()
    bad = X.data[(X.data != 0) & (X.data != 1)]
    if bad.size:
        raise DataError(f"binary rows hold only 0 and 1, got {bad[0]}")
    n, p = X.shape
    offsets = np.full((n, p), -1, dtype=np.int8)
    offsets[np.repeat(np.arange(n), np.diff(X.indptr)), X.indices] = X.data - 1
    return GroupCodes(offsets, np.arange(p + 1), np.ones(p, dtype=np.int64))


# --- Consistent Weighted Sampling -------------------------------------------
#
# Ioffe's ICWS with counter-based randomness: the Gamma(2,1) and Uniform
# draws for coordinate t under hash h are produced from keyed uniforms,
# so no sampling tables are stored and any (t, h) pair can be evaluated
# independently.  A hash collision has probability equal to the weighted
# Jaccard similarity of the two vectors.


def _icws_parts(seed: int, hash_ids: np.ndarray, coords: np.ndarray):
    u = keyed_uniform_grid(seed, range(5), hash_ids, coords)
    ln_u = np.log(u[:4])
    r = -(ln_u[0] + ln_u[1])              # Gamma(2,1)
    ln_c = np.log(-(ln_u[2] + ln_u[3]))
    return r, ln_c, u[4]


def _icws_keys(values: np.ndarray, r, ln_c, beta):
    """ICWS key (smaller wins) and companion integer per (hash, coordinate)."""
    ln_v = np.log(values)
    t_k = np.floor(ln_v / r + beta)
    ln_y = r * (t_k - beta)
    ln_a = ln_c - ln_y - r
    return ln_a, t_k.astype(np.int64)


def _rank_tables(omega: np.ndarray, hash_ids: np.ndarray, seeds):
    """Every round's ICWS tables for ``hash_ids``: (rank, column, coords, comps).

    Round r's keys come from ``seeds[r]``.  Per hash, its positive-weight
    coordinates are ranked by key, ties toward the lower coordinate, and
    a pad ranks after them: it stands for zero-weight coordinates and row
    padding, with coordinate -1 and companion 0.  Rounds are padded to
    one width A with +inf keys after the pad, so one stable argsort ranks
    every round and hash.  ``rank`` is (rounds * A, hashes): row r * A + j
    holds the ranks of round r's j-th positive-weight coordinate, or of
    its pad, and ``column[r, t]`` is the row of coordinate t (p: the pad).
    ``coords[r, h, i]`` and ``comps[r, h, i]`` are the coordinate and
    companion of rank i under hash h.
    """
    B, p = omega.shape
    hashes = np.arange(len(hash_ids))
    active = omega > 0
    size = active.sum(axis=1)
    A = int(size.max(initial=0)) + 1
    keys = np.full((B, hashes.size, A), np.inf)
    comps = np.zeros((B, hashes.size, A), dtype=np.int64)
    coord = np.full((B, A), -1, dtype=np.intp)
    column = np.empty((B, p + 1), dtype=np.int32 if B * A <= np.iinfo(np.int32).max else np.int64)
    for r in range(B):
        t = np.flatnonzero(active[r])
        u, ln_c, beta = _icws_parts(seeds[r], hash_ids, t)
        keys[r, :, :t.size], comps[r, :, :t.size] = _icws_keys(omega[r, t][None, :], u, ln_c, beta)
        coord[r, :t.size] = t
        column[r] = r * A + t.size
        column[r, t] = r * A + np.arange(t.size)
    order = np.argsort(keys, axis=2, kind="stable")
    dtype = np.int16 if A - 1 <= np.iinfo(np.int16).max else np.int32
    rank = np.empty((B, A, hashes.size), dtype=dtype)
    rank[np.arange(B)[:, None, None], order, hashes[:, None]] = np.arange(A, dtype=dtype)
    return (rank.reshape(B * A, hashes.size), column,
            np.take_along_axis(coord[:, None, :], order, axis=2),
            np.take_along_axis(comps, order, axis=2))


def _sketch(X: GroupCodes | sparse.csr_matrix, rounds: np.ndarray, tables, hashes: np.ndarray,
            companions: bool = False):
    """Sketch row i of X with the ``hashes`` entries of ``tables`` of its round
    ``rounds[i]``: its coordinates, (n, hashes.size), and with ``companions``
    also theirs.  A row's coordinate is its least rank's, read per group of
    group codes from each run's window minimum, or per stored coordinate
    of a CSR block, for at most ``SKETCH_BLOCK_CELLS`` cells at a time."""
    rank, column, coords, comps = tables
    B, H, A = coords.shape
    table = rank[:, hashes]
    if isinstance(X, GroupCodes):
        # every run, group by group and offset by offset, and each row's runs
        count = np.diff(X.start) - X.width + 1
        base = np.cumsum(count) - count
        first = np.repeat(X.start[:-1] - base, count) + np.arange(count.sum())
        width = np.repeat(X.width, count)
        run = np.where(X.offsets >= 0, base + X.offsets, first.size)
        ranks = table[column]             # (rounds, p + 1, hashes), the pad's last
        least = ranks[:, first]
        for i in range(1, int(width.max(initial=1))):   # a narrower run rereads its last bit
            np.minimum(least, ranks[:, first + np.minimum(i, width - 1)], out=least)
        table = np.concatenate([least, ranks[:, -1:]], axis=1).reshape(-1, hashes.size)
        block = (run + rounds[:, None] * (first.size + 1)).T
    else:
        # the rank-table row of each stored coordinate, position-major
        block = column[rounds[None, :], np.append(X.indices, X.shape[1])[_padded(X).T]]
    n = block.shape[1]
    least = np.empty((n, hashes.size), dtype=np.intp)
    step = max(1, SKETCH_BLOCK_CELLS // (block.shape[0] * max(1, hashes.size)))
    for lo in range(0, n, step):
        # round r's hash h rank i is entry (r * H + h) * A + i of the raveled tables
        least[lo:lo + step] = (table[block[:, lo:lo + step]].min(axis=0)
                               + (rounds[lo:lo + step, None] * H + hashes) * A)
    if not companions:
        return coords.ravel()[least]
    return coords.ravel()[least], comps.ravel()[least]


def cws_signatures(X, omega, hash_ids: np.ndarray, seed: int):
    """Sketch every row of X, group codes or a binary matrix: (coords,
    companions), each (n, len(hash_ids)); a row with an empty effective
    support gets coordinate -1 and companion 0.  It is the one-round case
    of ``_sketch``, with which ``silk_seed`` sketches a round's codes.
    Seeding reads only the coordinates; the companions serve the sketch
    oracles and the benchmark's bucket tracer."""
    X = _as_groups(X)
    tables = _rank_tables(np.asarray(omega, dtype=np.float64)[None, :], hash_ids, [seed])
    return _sketch(X, np.zeros(X.n, dtype=np.intp), tables, np.arange(len(hash_ids)),
                   companions=True)


# --- FreqItem centers ---------------------------------------------------------


def _freqitems(F: np.ndarray, omega: np.ndarray, alpha: float) -> sparse.csr_matrix:
    """Row-wise FreqItem centers from a dense block of column activation counts.

    Row g of ``F`` counts, per coordinate, the binary members of one group;
    ``omega`` is the weights of every row, or one row of weights per row.
    Row g of the result keeps the coordinates carrying at least alpha of
    that row's peak mass, each valued by its average contribution.
    """
    s = F * omega
    keep = (s > 0) & (s >= alpha * s.max(axis=1, initial=0.0)[:, None])
    cells = np.flatnonzero(keep)
    rows, cols = np.divmod(cells, F.shape[1])
    indptr = np.zeros(F.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=F.shape[0]), out=indptr[1:])
    val = s.ravel()[cells] / np.maximum(1, F.ravel()[cells])
    return sparse.csr_matrix((val, cols, indptr), shape=F.shape)


def _bit_counts(indptr: np.ndarray, members: np.ndarray, weight: np.ndarray, codes: _Codes,
                live: np.ndarray) -> np.ndarray:
    """Dense (groups, p) bit counts of the CSR rows ``(indptr, members,
    weight)``: group g stands for ``weight[e]`` rows of code ``members[e]``.
    Per bit group in ``live`` (the others must hold no member's bit), a
    histogram counts each group's rows per offset, and its box sum over
    each run's bits (times ``_Codes.box``) gives the exact ``M @ X``."""
    G = codes.groups
    # a histogram row: no bit, then each offset
    stride = int((np.diff(G.start) - G.width).max(initial=0)) + 2
    m = indptr.size - 1
    row = np.repeat(np.arange(m) * stride, np.diff(indptr))
    weight = weight.astype(np.float64)    # once, not per bincount
    F = np.zeros((m, G.p))
    for g in live:
        at = codes.held[g][members]
        at += row
        hist = np.bincount(at, weight, m * stride).reshape(m, stride)
        F[:, G.start[g]:G.start[g + 1]] = hist[:, 1:codes.box[g].shape[0] + 1] @ codes.box[g]
    return F


def _group_freqitems(M: sparse.csr_matrix, codes: _Codes, omega: np.ndarray, alpha: float,
                     rounds: np.ndarray) -> sparse.csr_matrix:
    """FreqItem centers of the groups of ``M``, one CSR row each: row g of
    ``M`` says how many rows of group g each code stands for, valued under
    ``omega[rounds[g]]``.  Groups are counted (``_bit_counts``) over the
    bit groups their rounds keep, for at most ``COUNT_BLOCK_CELLS`` dense
    cells at a time, and each block is reduced to FreqItems."""
    step = max(1, COUNT_BLOCK_CELLS // max(1, codes.groups.p))
    blocks = []
    for lo in range(0, max(1, M.shape[0]), step):
        hi = min(lo + step, M.shape[0])
        a, b = M.indptr[lo], M.indptr[hi]
        w = omega[rounds[lo:hi]]
        live = np.flatnonzero((w[:, codes.groups.start[:-1]] > 0).any(axis=0))
        F = _bit_counts(M.indptr[lo:hi + 1] - a, M.indices[a:b], M.data[a:b], codes, live)
        blocks.append(_freqitems(F, w, alpha))
    return blocks[0] if len(blocks) == 1 else sparse.vstack(blocks, format="csr")


# --- Distance kernel ----------------------------------------------------------


def _distances(X, tot, omega, C, running, slot) -> np.ndarray:
    """1 - sum(min)/sum(max) between omega-weighted codes and their round's centers.

    ``X`` holds codes of a batch as float64, round r's coordinates shifted
    into column block r, and ``tot`` their totals ``X @ omega``.  ``C``
    stacks the centers of the rounds ``running``, k rows each, and code i
    is measured against block ``slot[i]`` of them.  Each intersection is
    one CSR-by-dense product against the (rounds * p) x k block of
    min(omega, center) values: a code's row meets only its own round's
    rows of the block, so it adds the terms it adds alone, in its stored
    order, and the zeros of coordinates a center lacks add +0.0.
    """
    p = omega.shape[1]
    k = C.shape[0] // len(running)
    row = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    owner = running[row // k]
    block = np.zeros((X.shape[1], k))
    block[owner * p + C.indices, row % k] = np.minimum(omega[owner, C.indices], C.data)
    smin = X @ block
    union = tot[:, None] + _row_totals(C).reshape(-1, k)[slot] - smin
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(union > 0, smin / np.where(union > 0, union, 1.0), 1.0)
    return 1.0 - sim


# --- SILK-style seeding -------------------------------------------------------


@dataclass
class _Codes:
    """The distinct effective codes of a batch of rounds: a row's offsets with
    the round's zero-weight groups masked to -1, rounds in order and a
    round's codes in any order, as ``groups``, as bits (``rows``) and as
    offsets + 1 per group (``held``, 0: no bit); ``box[g]`` marks the bits
    of bit group g that a run at each offset sets.  Round r's codes are
    ``bounds[r]:bounds[r + 1]``, row i's code in it is ``inverse[r, i]``,
    and code c has ``mult[c]`` rows."""

    groups: GroupCodes
    rows: sparse.csr_matrix
    held: np.ndarray
    box: list
    bounds: np.ndarray
    inverse: np.ndarray
    mult: np.ndarray

    @property
    def round(self) -> np.ndarray:
        return np.repeat(np.arange(self.bounds.size - 1), np.diff(self.bounds))


def _effective_codes(G: GroupCodes, omega: np.ndarray) -> _Codes:
    """Distinct rows of G under each round's weights (one round's per row of
    ``omega``, all zero or all positive over each group's bits), keyed by
    the round, then each group's offset + 1 (0 where masked or no bit)."""
    held = np.add.reduceat(omega > 0, G.start[:-1], axis=1, dtype=np.int64)
    if np.any((held > 0) & (held < np.diff(G.start))):
        raise ConfigError("weights must be all zero or all positive over each group's bits")
    B, n, kept = omega.shape[0], G.n, held > 0
    radix = np.diff(G.start) - G.width + 2
    inverse, mult = _distinct_rows(np.repeat(np.arange(B, dtype=np.int64), n), B, (
        (((G.offsets[:, g].astype(np.int64) + 1) * kept[:, g, None]).ravel(), radix[g])
        for g in np.flatnonzero(kept.any(axis=0))))
    row = np.empty(mult.size, dtype=np.intp)   # any row-round of each code
    row[inverse] = np.arange(inverse.size)
    rounds = row // n
    codes = GroupCodes(np.where(kept[rounds], G.offsets[row % n], -1), G.start, G.width)
    box = [sum(np.eye(span - w + 1, span, k) for k in range(w))
           for span, w in zip(np.diff(G.start).tolist(), G.width.tolist())]
    return _Codes(codes, codes.matrix, codes.offsets.T.astype(np.intp) + 1, box,
                  np.searchsorted(rounds, np.arange(B + 1)), inverse.reshape(B, n), mult)


def _band_buckets(coords: np.ndarray, live: np.ndarray, mult: np.ndarray,
                  params: ClusterParams, bounds: np.ndarray | None = None):
    """Group live codes by identical band signatures, per round and table.

    Returns the bucket membership matrix (buckets x codes) holding the
    members' multiplicities: one row per group of at least two rows (a
    lone code of multiplicity two is a bucket), in (round, table, band,
    signature) order, members ascending.  Round r's codes are rows
    ``bounds[r]:bounds[r + 1]`` (one round when ``bounds`` is None).  A
    signature is the band's coordinates, ordered as their little-endian
    bytes compare.  Under one omega a companion is a function of its hash
    and coordinate, so equal coordinates are equal sketches.
    Each entry is one int64 key: its round, then its band, then the rank
    of each coordinate in little-endian byte order, then its code.  One
    sort of the keys groups a block of bands of every round, of at most
    ``BAND_BLOCK_ENTRIES`` entries or one band; the buckets of several
    blocks are then put in round order, stably.
    """
    n = coords.shape[0]
    bounds = np.array([0, n]) if bounds is None else bounds
    rows, bands = params.lsh_rows, params.lsh_tables * params.lsh_bands
    live = np.flatnonzero(live)
    size = live.size
    weight = mult[live]
    first_unit = np.repeat(np.arange(bounds.size - 1) * bands, np.diff(bounds))[live]
    # every coordinate held, ranked by its little-endian bytes; coordinates
    # are column indices, so the table spans at most p + 1 entries
    low = int(coords.min(initial=0))
    held = np.zeros(int(coords.max(initial=0)) - low + 1, dtype=bool)
    step = max(1, BAND_BLOCK_ENTRIES // (bands * rows))
    for lo in range(0, n, step):
        held[coords[lo:lo + step] - low] = True
    held = np.flatnonzero(held) + low
    order = np.argsort(held.astype(np.int64).byteswap().view(np.uint64), kind="stable")
    le_rank = np.empty(held[-1] - low + 1 if held.size else 0, dtype=np.int64)
    le_rank[held[order] - low] = np.arange(held.size)
    span = held.size ** rows
    if (bounds.size - 1) * bands * span * max(size, 1) > np.iinfo(np.int64).max:
        raise InvariantError("band keys overflow int64")
    members, sizes, units = [], [], []
    step = max(1, BAND_BLOCK_ENTRIES // max(1, size))
    for lo in range(0, bands, step):
        count = min(step, bands - lo)
        # entry e of the block is code e // count at band lo + e % count
        key = first_unit[:, None] + np.arange(lo, lo + count)
        for r in range(rows):
            key *= held.size
            key += le_rank[coords[live, lo * rows + r:(lo + count) * rows:rows] - low]
        # each entry's code last, so that one sort puts a key's codes in order
        key *= size
        key += np.arange(size)[:, None]
        key = np.sort(key, axis=None)
        code = key % size
        key //= size
        start = np.ones(key.size, dtype=bool)
        start[1:] = key[1:] != key[:-1]
        group = np.cumsum(start)
        group -= 1
        shared = np.bincount(group, weights=weight[code]) >= 2
        members.append(live[code[shared[group]]])
        sizes.append(np.bincount(group)[shared])
        units.append(key[start][shared] // span)
    indices = np.concatenate(members)
    indptr = np.zeros(sum(c.size for c in sizes) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    buckets = sparse.csr_matrix((mult[indices], indices, indptr), shape=(indptr.size - 1, n))
    if bounds.size > 2 and len(units) > 1:
        buckets = buckets[np.argsort(np.concatenate(units), kind="stable")]
    return buckets


def _bin_candidates(
    codes: _Codes,
    omega: np.ndarray,
    buckets: sparse.csr_matrix,
    rounds: np.ndarray,
    beta: float,
    tables,
    hashes: np.ndarray,
    cap: int,
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """FreqItem candidates of each round's ``cap`` largest level-2 bins, one
    CSR row each, their row counts and their rounds.

    Bucket b belongs to round ``rounds[b]`` (buckets come in round order).
    Each bucket's FreqItem is sketched with the ``hashes`` band of its
    round's ``tables`` under its round's omega, which its values equal up to
    one rounding: every key keeps its floor, and so the sketch, unless the
    floor sits within a rounding of an integer.  A round's buckets whose
    sketch coordinates agree merge into one bin holding the union of their
    members.  ``buckets`` holds the members' multiplicities, so every
    count and size is over rows.  A round's bins are ordered by first
    occurrence, then stably by decreasing size.
    """
    C = _group_freqitems(buckets, codes, omega, beta, rounds)
    if buckets.shape[0] == 0:
        return C, np.zeros(0, dtype=np.int64), rounds
    coords = _sketch(C, rounds, tables, hashes)
    first, inverse, _ = _distinct_rows(rounds.astype(np.int64), int(rounds.max()) + 1, (
        (c + 1, tables[1].shape[1]) for c in coords.T), return_index=True)   # c + 1 in 0..p
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    # each bin's buckets as a bins x buckets 0/1 matrix, times their members
    size = inverse.size
    union = sparse.csr_matrix((np.ones(size, dtype=np.int64), (rank[inverse], np.arange(size))),
                              shape=(first.size, size)) @ buckets
    union.data = codes.mult[union.indices]
    sizes = np.asarray(union.sum(axis=1)).ravel()
    owner = rounds[np.sort(first)]
    order = np.lexsort((-sizes, owner))
    top = order[np.arange(order.size) - np.searchsorted(owner, owner) < cap]
    return _group_freqitems(union[top], codes, omega, beta, owner[top]), sizes[top], owner[top]


def _seed_from_candidates(C, sizes, X, omega, nonempty, params: ClusterParams, rng,
                          sim=None) -> sparse.csr_matrix:
    """Merge near-duplicate candidate rows of C, reduce them to k, pad with rows.

    One pairwise similarity matrix ``sim`` (computed here when not given)
    serves both the merge and the reduction.
    """
    sim = pairwise_weighted_jaccard(C) if sim is None else sim
    kept: list[int] = []
    merged_counts: list[int] = []
    for c, size in enumerate(sizes.tolist()):
        for slot, i in enumerate(kept):
            if sim[c, i] >= params.dedup_sim:
                merged_counts[slot] += size
                break
        else:
            kept.append(c)
            merged_counts.append(size)

    picks = _reduce_candidates(merged_counts, sim[np.ix_(kept, kept)], params.k, rng)
    centers = C[np.array(kept, dtype=np.int64)[picks]]
    if centers.shape[0] < params.k:
        centers = _pad_with_rows(centers, X, omega, nonempty, params.k, rng)
    return centers


# SILK's hash ids: the level-1 bands' hashes, then the level-2 band
_LEVEL1 = np.arange(ClusterParams.lsh_tables * ClusterParams.lsh_bands * ClusterParams.lsh_rows)
_LEVEL2 = _LEVEL1.size + np.arange(4)


def _silk_seeds(X, omega, params: list[ClusterParams], codes: _Codes, coords, tables,
                level2: np.ndarray) -> list:
    """k initial centers (k x p CSR) for each round of a batch, from the
    level-1 sketches ``coords`` of its codes; ``level2`` is where the
    level-2 hashes sit in the rounds' ``tables``."""
    bounds, mult = codes.bounds, codes.mult
    k = params[0].k
    live = coords[:, 0] >= 0
    buckets = _band_buckets(coords, live, mult, params[0], bounds)
    del coords  # only the buckets read them; free them before the level-2 counts
    bucket_round = codes.round[buckets.indices[buckets.indptr[:-1]]]

    # Level 2: sketch each bucket's FreqItem with a short hash band and
    # merge a round's buckets whose signatures agree.  A band, not a single
    # hash: one hash collides with probability J_w, which would glue
    # together buckets that are only mildly similar.
    C, sizes, owner = _bin_candidates(codes, omega, buckets, bucket_round, params[0].beta,
                                      tables, level2, cap=max(4 * k, 32))
    n_buckets = np.bincount(bucket_round, minlength=len(params))
    del buckets
    cuts = np.searchsorted(owner, np.arange(len(params) + 1))
    sims = _block_jaccard(C, cuts)
    seeds = []
    for r, q in enumerate(params):
        if not np.any(live[bounds[r]:bounds[r + 1]]):
            raise DataError("all rows have empty effective support")
        rng = np.random.default_rng(derive_seed(q.seed, "silk"))
        lo, hi = cuts[r], cuts[r + 1]
        log.debug("silk_seed: %d rows, %d distinct codes, %d buckets, %d candidates",
                  X.n, bounds[r + 1] - bounds[r], n_buckets[r], hi - lo)
        seeds.append(_seed_from_candidates(C[lo:hi], sizes[lo:hi], X, omega[r],
                                           live[codes.inverse[r]], q, rng, sims[r]))
    return seeds


def silk_seed(
    X,
    omega: np.ndarray,
    params: ClusterParams,
    effective=None,
) -> sparse.csr_matrix:
    """Two-level MinHash overseeding reduced to k initial centers (k x p CSR),
    the one-round case of a batch's seeding; ``effective`` is
    ``_effective_codes(X, omega[None, :])`` when the caller has it."""
    X = _as_groups(X)
    k = params.k
    if X.n < k:
        raise DataError(f"need at least k={k} rows, got {X.n}")
    omega = np.asarray(omega, dtype=np.float64)[None, :]
    effective = _effective_codes(X, omega) if effective is None else effective
    tables = _rank_tables(omega, _LEVEL2, [params.seed])
    return _silk_seeds(X, omega, [params], effective,
                       cws_signatures(effective.groups, omega[0], _LEVEL1, params.seed)[0],
                       tables, np.arange(_LEVEL2.size))[0]


def _reduce_candidates(weights, sim, k, rng) -> list[int]:
    """Indices of k candidates picked by weight*distance^2 sampling, best of
    8 restarts under the weighted quantization cost over the candidate set.
    ``sim`` holds the candidates' pairwise weighted Jaccard similarities.

    The first restart anchors on the heaviest candidate; later restarts
    sample the first pick by weight, so a misleadingly heavy blended
    candidate cannot dominate every restart.
    """
    m = len(weights)
    if m <= k:
        return list(range(m))
    weights = np.asarray(weights, dtype=np.float64)
    dmat = 1.0 - sim

    def sample(score) -> int:
        total = score.sum()
        if total <= 0:
            return int(np.flatnonzero(score >= 0)[0])
        # Generator.choice(m, p=score / total), without its per-call checks
        cdf = (score / total).cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))

    best_choice, best_cost = None, np.inf
    for restart in range(8):
        first = int(np.argmax(weights)) if restart == 0 else sample(weights.copy())
        chosen = [first]
        dist = dmat[first].copy()
        while len(chosen) < k:
            score = weights * dist**2
            score[chosen] = 0.0
            nxt = sample(score)
            if nxt in chosen:  # all mass on chosen: pick any unchosen
                nxt = int(next(i for i in range(m) if i not in chosen))
            chosen.append(nxt)
            dist = np.minimum(dist, dmat[nxt])
        cost = float((weights * dist**2).sum())
        if cost < best_cost:
            best_choice, best_cost = chosen, cost
    return best_choice


def _pad_with_rows(C, X, omega, nonempty, k, rng) -> sparse.csr_matrix:
    """Append omega-valued supports of distinct rows of X (group codes or a
    binary CSR) to C; duplicates only as a last resort."""
    X = X.matrix if isinstance(X, GroupCodes) else X
    seen = {C.indices[lo:hi].astype(np.int64).tobytes()
            for lo, hi in zip(C.indptr[:-1], C.indptr[1:])}
    candidates = np.flatnonzero(nonempty)
    order = candidates[rng.permutation(candidates.size)]
    need = k - C.shape[0]
    fresh, spare = [], []
    for i in order:
        if len(fresh) >= need:
            break
        support = X.indices[X.indptr[i]:X.indptr[i + 1]].astype(np.int64)
        support = support[omega[support] > 0]
        key = support.tobytes()
        (spare if key in seen else fresh).append(support)
        seen.add(key)
    rows = (fresh + spare)[:need]
    if len(rows) < need:
        raise DataError(f"could not seed k={k} centers from {C.shape[0] + len(rows)} distinct rows")
    idx = np.concatenate(rows)
    indptr = np.r_[C.indptr, C.indptr[-1] + np.cumsum([r.size for r in rows])]
    return sparse.csr_matrix((np.r_[C.data, omega[idx]], np.r_[C.indices, idx], indptr),
                             shape=(k, X.shape[1]))


# --- Lloyd-style iteration ----------------------------------------------------


def _round_weights(weights, p: int) -> np.ndarray:
    """A round's omega: all ones for None, else ``weights`` scaled to max 1."""
    if weights is None:
        return np.ones(p)
    omega = np.asarray(weights, dtype=np.float64)
    if omega.shape != (p,):
        raise ConfigError(f"weights must have shape ({p},)")
    if np.any(omega < 0) or not np.all(np.isfinite(omega)):
        raise ConfigError("weights must be finite and non-negative")
    peak = omega.max()
    if peak <= 0:
        raise ConfigError("weights are all zero")
    return omega / peak


def _recenter(codes: _Codes, omega, alpha, k, rounds, labels) -> sparse.csr_matrix:
    """FreqItem centers of the clusters of ``rounds``, k rows each, stacked.

    ``labels[s]`` labels the rows of round ``rounds[s]``.  One bincount
    counts each cluster's rows per code, in one (k, codes) block per
    round, and its nonzero cells are the members matrix of every cluster.
    """
    bounds = codes.bounds
    n_codes = np.diff(bounds)[rounds]
    start = np.zeros(len(rounds) + 1, dtype=np.int64)
    np.cumsum(k * n_codes, out=start[1:])
    cell = (start[:-1, None] + labels * n_codes[:, None]
            + (codes.inverse[rounds] - bounds[rounds, None]))
    counts = np.bincount(cell.ravel(), minlength=start[-1])
    cell = np.flatnonzero(counts)
    slot = np.searchsorted(start, cell, side="right") - 1
    row, col = np.divmod(cell - start[slot], n_codes[slot])
    row += slot * k
    indptr = np.zeros(len(rounds) * k + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=len(rounds) * k), out=indptr[1:])
    members = sparse.csr_matrix((counts[cell], col + bounds[rounds][slot], indptr),
                                shape=(len(rounds) * k, codes.rows.shape[0]))
    return _group_freqitems(members, codes, omega, alpha, np.repeat(rounds, k))


def _lloyd(omega, params: list[ClusterParams], codes: _Codes, seeds) -> list[ClusterResult]:
    """Lloyd iterations of every round of a batch, in lockstep from its seeds.

    Each iteration measures the codes of every round still running in one
    distance pass and recenters every round that goes on in one count
    pass.  A round leaves the batch when it stops: at a fixed point, on a
    cycle or at max_iter.
    """
    bounds, inverse = codes.bounds, codes.inverse
    B, p = omega.shape
    k, alpha, max_iter = params[0].k, params[0].alpha, params[0].max_iter
    # codes as float64, round r's coordinates shifted into column block r
    rows = codes.rows
    X = sparse.csr_matrix((rows.data.astype(np.float64),
                           rows.indices + np.repeat(codes.round * p, np.diff(rows.indptr)),
                           rows.indptr), shape=(rows.shape[0], B * p))
    tot = X @ omega.ravel()

    results: list = [None] * B
    seen: list[dict[bytes, int]] = [{} for _ in range(B)]  # labelling digest -> first iteration
    trail: list[list] = [[] for _ in range(B)]               # (labels, mean distance) per iteration
    history: list[list] = [[] for _ in range(B)]
    running = np.arange(B)
    centers = sparse.vstack(seeds, format="csr")
    prev = None   # the labels each running round was last recentered on
    X_run = None
    for n_iter in range(1, max_iter + 1):
        if X_run is None:
            # the running rounds' codes, and each of their rows' code among them
            lo, hi = bounds[running], bounds[running + 1]
            X_run, tot_run = X, tot
            if running.size < B:
                run = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
                X_run, tot_run = X[run], tot[run]
            slot = np.repeat(np.arange(running.size), hi - lo)
            first = np.cumsum(hi - lo) - (hi - lo)
            at = inverse[running] + (first - lo)[:, None]
        D = _distances(X_run, tot_run, omega, centers, running, slot)
        labels = D.argmin(axis=1)[at]
        assigned = D[at, labels]
        pre = None if prev is None else D[at, prev]
        counts = np.bincount((labels + k * np.arange(running.size)[:, None]).ravel(),
                             minlength=k * running.size).reshape(-1, k)
        goes = []   # (slot, labels to recenter on, mean distance, last iteration)
        for s, r in enumerate(running.tolist()):
            lab, dist = labels[s], assigned[s]
            history[r].append((None if pre is None else float(pre[s].mean()), float(dist.mean())))
            if np.any(counts[s] == 0):
                spare = dist.copy()
                for cid in np.flatnonzero(counts[s] == 0):
                    worst = int(np.argmax(spare))
                    lab[worst] = cid
                    dist[worst] = D[at[s, worst], cid]
                    spare[worst] = -np.inf
            final_mean = float(dist.mean())
            trail[r].append((lab, final_mean))
            first = seen[r].setdefault(hashlib.blake2b(lab.tobytes()).digest(), n_iter)
            if first == n_iter - 1:   # fixed point: keep the centers of these labels
                results[r] = ClusterResult(lab.copy(), centers[s * k:(s + 1) * k], n_iter,
                                           final_mean, history[r])
                continue
            # An iteration is a function of the labels it recentered on, so from a
            # repeated labelling on, the round cycles with period n_iter - first
            # until max_iter.  Stop now with the state iteration max_iter would reach.
            if first < n_iter:
                period = n_iter - first
                log.warning("cluster: labels alternate among %d labellings from iteration %d; "
                            "returning the state of iteration max_iter=%d",
                            period, first, max_iter)
                # iteration max_iter lies whole periods after iteration n_iter - back,
                # which is inside the cycle, so it ends in the same state
                back = (n_iter - max_iter) % period
                lab, final_mean = trail[r][n_iter - 1 - back]
            elif n_iter == max_iter:
                log.warning("cluster: stopped at max_iter=%d without label fixed point", max_iter)
            goes.append((s, lab, final_mean, first < n_iter or n_iter == max_iter))
        if not goes:
            break
        # recenter on these labels; a fixed-point stop keeps these centers
        new = _recenter(codes, omega, alpha, k,
                        running[[s for s, *_ in goes]], np.stack([lab for _, lab, *_ in goes]))
        kept = []
        for j, (s, lab, final_mean, last) in enumerate(goes):
            if last:
                results[running[s]] = ClusterResult(lab.copy(), new[j * k:(j + 1) * k], n_iter,
                                                    final_mean, history[running[s]])
            else:
                kept.append(j)
        if len(kept) < running.size:
            X_run = None
        running = running[[goes[j][0] for j in kept]]
        if not kept:
            break
        prev = np.stack([goes[j][1] for j in kept])
        centers = new if len(kept) == len(goes) else \
            new[np.concatenate([np.arange(j * k, (j + 1) * k) for j in kept])]
    return results


def cluster_rounds(
    X,
    params: list[ClusterParams],
    weights: list,
) -> list[ClusterResult]:
    """``[cluster(X, params[r], weights[r]) for r in ...]``, in batches of rounds.

    The rounds share k, alpha, beta and max_iter; each has its own seed.
    Consecutive rounds run in lockstep, as many at a time as fit
    ``BATCH_ROWS`` rows x rounds, and each round's result is the one
    ``cluster`` gives it alone.
    """
    X = _as_groups(X)
    n, p = X.n, X.p
    if len({(q.k, q.alpha, q.beta, q.max_iter) for q in params}) > 1:
        raise ConfigError("the rounds of one call must share k, alpha, beta and max_iter")
    if params and n < params[0].k:
        raise DataError(f"need at least k={params[0].k} rows, got {n}")
    omega = np.array([_round_weights(w, p) for w in weights]).reshape(len(weights), p)
    step = max(1, BATCH_ROWS // max(1, n))
    results = []
    for lo in range(0, len(params), step):
        part, w = params[lo:lo + step], omega[lo:lo + step]
        codes = _effective_codes(X, w)
        # both levels' tables at once: a round's ranks of one hash ignore the others
        tables = _rank_tables(w, np.r_[_LEVEL1, _LEVEL2], [q.seed for q in part])
        seeds = _silk_seeds(X, w, part, codes, _sketch(codes.groups, codes.round, tables, _LEVEL1),
                            tables, _LEVEL2)
        del tables  # Lloyd reads only the codes
        results += _lloyd(w, part, codes, seeds)
    return results


def cluster(
    X,
    params: ClusterParams,
    weights: np.ndarray | None = None,
) -> ClusterResult:
    """Weighted k-FreqItems on group codes or a binary matrix: assign to the
    nearest center, recompute FreqItems.  ``weights`` is the shared
    per-coordinate weight vector (None: all ones, plain k-FreqItems),
    scale-normalized to max 1.  It is the one-round case of
    ``cluster_rounds``, seeded through ``silk_seed``."""
    X = _as_groups(X)
    if X.n < params.k:
        raise DataError(f"need at least k={params.k} rows, got {X.n}")
    omega = _round_weights(weights, X.p)[None, :]
    codes = _effective_codes(X, omega)
    return _lloyd(omega, [params], codes, [silk_seed(X, omega[0], params, codes)])[0]
