"""Weighted k-FreqItems clustering over sparse binary supports.

The engine's data model mirrors the weighting construction upstream:
rows are binary supports (a CSR matrix) and a single non-negative weight
vector over coordinates is shared by all rows of a round, so row i's
weighted vector is omega * x_i.  A set of centers is one k x p CSR
block: row c keeps center c's retained coordinates, each valued by its
average contribution, and a center's total is its row's 1-D sum.  Passing
``weights=None`` means omega = 1, which is plain k-FreqItems: every
FreqItem value is 1.0 and every row total, intersection and union is an
exact small integer in float64, so each weighted Jaccard distance is the
same IEEE division as the integer plain-Jaccard one.

Seeding is a two-level MinHash scheme run on distinct effective codes:
rows that agree on every coordinate of positive weight are one point
to the kernel, so X is first mapped to its distinct rows under omega
(zero-weight coordinates dropped), each with an integer multiplicity.
Band signatures group codes into buckets (a group whose multiplicities
sum to at least two), bucket sketches are hashed again to merge
near-duplicate buckets into bins, and each bin contributes one FreqItem
candidate; candidates are deduplicated and reduced to k by a
distance-weighted sampling pass.  The work is batched: ``_padded`` lays
a CSR block's rows out as one (n, W) block.  Both levels sketch under
the round's omega with ``cws_signatures``: the keys of each hash are
ranked once over the positive-weight coordinates, and a row's sketch is
its least rank, read through the block from one integer rank table.  A
bucket FreqItem's value at a kept coordinate is (F * omega_t) / F,
omega_t up to one rounding, and an ICWS key depends on its value only
through floor(ln v / r + beta), so its sketch under omega is its sketch
under its own values.  For the same reason a companion is a function of
its hash and coordinate, and both levels group sketches by their
coordinates alone.  ``_distinct_rows`` groups equal codes and level-2
coordinates, and one lexsort groups the band coordinates of all bands;
buckets form one membership matrix M of the members' multiplicities,
so ``M @ X_codes`` gives every bucket's integer column counts over
rows; bins are unions of buckets with equal sketches, numbered by first
occurrence, counted by one more product.  Counts are taken as dense
blocks of bounded size and reduced to FreqItems there.  Every count is
the exact integer the rows give, so the candidates are those of
row-level seeding.

Lloyd shares the distinct codes with seeding.  Distances are measured
once per code, against a dense block of the centers' min(omega, c)
values, and every row reads its code's distances: a zero-weight
coordinate adds nothing to any sum.  Padding, assignment, empty-cluster
repair and the cycle stop run on rows; recentering counts each
cluster's rows through their codes.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse

from ._rng import derive_seed, keyed_uniform_grid
from .errors import ConfigError, DataError

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
COUNT_BLOCK_CELLS = 1 << 18
# bands x live codes signature entries per sort of _band_buckets
BAND_BLOCK_ENTRIES = 1 << 16
# stored positions x rows x hashes rank cells per gather of cws_signatures
SKETCH_BLOCK_CELLS = 1 << 19


def _row_totals(C: sparse.csr_matrix) -> np.ndarray:
    """Each row's sum, as one 1-D ``sum`` of its stored values."""
    bounds = zip(C.indptr[:-1].tolist(), C.indptr[1:].tolist())
    return np.array([C.data[lo:hi].sum() for lo, hi in bounds], dtype=np.float64)


def pairwise_weighted_jaccard(C: sparse.csr_matrix) -> np.ndarray:
    """The (m, m) weighted Jaccard similarities sum(min)/sum(max) of C's rows.

    Two empty rows are identical (1).  Each pair's minima are taken over
    its common coordinates in ascending order.  Pairs with the same number
    c of common coordinates are summed together as one contiguous (pairs,
    c) block, row by row, which adds in the same order as a 1-D ``sum``
    of length c; padding rows to a common length would not.  Pairs are
    taken in blocks of at most ``PAIR_BLOCK_CELLS`` dense cells.
    """
    m = C.shape[0]
    sim = np.eye(m)
    if m < 2:
        return sim
    cols, pos = np.unique(C.indices, return_inverse=True)
    owner = np.repeat(np.arange(m), np.diff(C.indptr))
    val = np.zeros((m, cols.size))
    val[owner, pos] = C.data
    has = np.zeros((m, cols.size), dtype=bool)
    has[owner, pos] = True

    a, b = np.triu_indices(m, 1)
    smin = np.zeros(a.size)
    step = max(1, PAIR_BLOCK_CELLS // max(1, cols.size))
    for lo in range(0, a.size, step):
        i, j = a[lo:lo + step], b[lo:lo + step]
        common = has[i] & has[j]
        mins = np.minimum(val[i], val[j])
        counts = common.sum(axis=1)
        block = smin[lo:lo + step]
        for c in np.unique(counts[counts > 0]):
            rows = counts == c
            block[rows] = mins[rows][common[rows]].reshape(-1, c).sum(axis=1)
    totals = _row_totals(C)
    smax = totals[a] + totals[b] - smin
    pair = np.ones(a.size)
    np.divide(smin, smax, out=pair, where=smax != 0.0)
    sim[a, b] = sim[b, a] = pair
    return sim


def _padded(C: sparse.csr_matrix) -> np.ndarray:
    """Each row's stored positions as one (n, W >= 1) block, padded with C.nnz,
    so ``np.append(values, pad)[_padded(C)]`` lays per-entry values out by row."""
    lens = np.diff(C.indptr)
    width = np.arange(max(int(lens.max(initial=0)), 1), dtype=C.indptr.dtype)
    pos = C.indptr[:-1, None] + width
    pos[width >= lens[:, None]] = C.nnz
    return pos


def _distinct_rows(A: np.ndarray):
    """Distinct rows of A in byte order: (first row, inverse, row count) per group."""
    A = np.ascontiguousarray(A)
    view = A.view(np.dtype((np.void, A.itemsize * A.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(view, return_index=True, return_inverse=True,
                                          return_counts=True)
    return first, inverse, counts


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


def cws_signatures(X: sparse.csr_matrix, omega, hash_ids: np.ndarray, seed: int):
    """Sketch every row: (coords, companions), each (n, len(hash_ids)).

    Rows share omega, so each hash's keys are ranked once over the
    positive-weight coordinates, by a stable argsort that breaks ties
    toward the lower coordinate, and a row's coordinate is the one with
    its least rank: its first minimum key.  A pad column ranks last under
    every hash and stands for zero-weight coordinates and row padding, so
    rows whose effective support is empty get coordinate -1 and
    companion 0.  Ranks are gathered for at most ``SKETCH_BLOCK_CELLS``
    (stored position, row, hash) cells at a time.

    It sketches both seeding levels: the codes, and the bucket FreqItems,
    whose values are omega up to one rounding.  Seeding reads only the
    coordinates, since a companion is a function of its hash and
    coordinate under one omega; the companions are returned for the
    sketch oracles in the tests and the benchmark's bucket tracer.
    """
    active = np.flatnonzero(omega > 0)
    hashes = np.arange(len(hash_ids))
    r, ln_c, beta = _icws_parts(seed, hash_ids, active)
    ln_a, t_k = _icws_keys(omega[active][None, :], r, ln_c, beta)
    # column active.size is the pad: +inf keys, coordinate -1, companion 0
    order = np.argsort(np.pad(ln_a, ((0, 0), (0, 1)), constant_values=np.inf),
                       axis=1, kind="stable")
    dtype = np.int16 if active.size <= np.iinfo(np.int16).max else np.int32
    rank = np.empty(order.shape[::-1], dtype=dtype)
    rank[order, hashes[:, None]] = np.arange(order.shape[1], dtype=dtype)
    # the rank-table row of each stored coordinate, position-major
    column = np.full(X.shape[1] + 1, active.size, dtype=X.indices.dtype)
    column[active] = np.arange(active.size)
    block = column[np.append(X.indices, X.shape[1])[_padded(X).T]]
    least = np.empty((X.shape[0], hashes.size), dtype=np.intp)
    step = max(1, SKETCH_BLOCK_CELLS // (block.shape[0] * max(1, hashes.size)))
    for lo in range(0, X.shape[0], step):
        least[lo:lo + step] = rank[block[:, lo:lo + step]].min(axis=0)
    # hash h's rank i is entry h * order.shape[1] + i of the raveled (hash, rank)
    # tables of coordinates and companions
    least += hashes * order.shape[1]
    coords = np.append(active, -1)[order]
    comps = np.take_along_axis(np.pad(t_k, ((0, 0), (0, 1))), order, axis=1)
    return coords.ravel()[least], comps.ravel()[least]


# --- FreqItem centers ---------------------------------------------------------


def _indicator(groups: np.ndarray, n_groups: int) -> sparse.csr_matrix:
    """Groups x items 0/1 matrix marking the group of each item."""
    items = np.arange(groups.size)
    data = np.ones(groups.size, dtype=np.int64)
    return sparse.csr_matrix((data, (groups, items)), shape=(n_groups, groups.size))


def _freqitems(F: np.ndarray, omega: np.ndarray, alpha: float) -> sparse.csr_matrix:
    """Row-wise FreqItem centers from a dense block of column activation counts.

    Row g of ``F`` counts, per coordinate, the binary members of one group.
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


def _group_freqitems(M: sparse.csr_matrix, X: sparse.csr_matrix, omega: np.ndarray,
                     alpha: float) -> sparse.csr_matrix:
    """FreqItem centers of the groups of ``M``, one CSR row each.

    Row g of ``M`` says how many binary rows of group g each row of ``X``
    stands for (1, or a code's multiplicity), so ``M @ X`` counts each
    group's rows per coordinate.  The counts are taken for at most
    ``COUNT_BLOCK_CELLS`` dense cells of groups at a time.
    """
    step = max(1, COUNT_BLOCK_CELLS // max(1, X.shape[1]))
    if M.shape[0] <= step:
        return _freqitems((M @ X).toarray(), omega, alpha)
    return sparse.vstack([_freqitems((M[lo:lo + step] @ X).toarray(), omega, alpha)
                          for lo in range(0, M.shape[0], step)], format="csr")


# --- Distance kernel ----------------------------------------------------------


def _distances(X, row_tot, omega, C) -> np.ndarray:
    """1 - sum(min)/sum(max) between omega-weighted rows and the centers C.

    ``X`` is binary rows (``cluster`` passes its distinct codes) as
    float64 and ``row_tot`` their totals ``X @ omega``.  Each
    intersection is one CSR-by-dense product against the p x k block of
    min(omega, center) values, which adds a row's terms in its stored
    order; the zeros of coordinates a center lacks add +0.0.
    """
    block = np.zeros((C.shape[1], C.shape[0]))
    block[C.indices, np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))] = \
        np.minimum(omega[C.indices], C.data)
    smin = X @ block
    union = row_tot[:, None] + _row_totals(C)[None, :] - smin
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(union > 0, smin / np.where(union > 0, union, 1.0), 1.0)
    return 1.0 - sim


# --- SILK-style seeding -------------------------------------------------------


def _effective_codes(X: sparse.csr_matrix, omega: np.ndarray):
    """Distinct rows of X under omega: (codes, inverse, mult).

    A row's code is its support without zero-weight coordinates.  ``codes``
    holds each distinct code once, as a copy of its first row with those
    coordinates dropped; row i has code ``inverse[i]``, and code c has
    ``mult[c]`` rows.  Rows with no positive-weight coordinate share one
    empty code.
    """
    n = X.shape[0]
    keep = omega[X.indices] > 0
    row = np.repeat(np.arange(n), np.diff(X.indptr))[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    eff = sparse.csr_matrix((X.data[keep], X.indices[keep], indptr), shape=X.shape)
    pad = np.array([-1], dtype=eff.indices.dtype)
    first, inverse, mult = _distinct_rows(np.concatenate([eff.indices, pad])[_padded(eff)])
    return eff[first], inverse, mult


def _band_buckets(coords: np.ndarray, live: np.ndarray, mult: np.ndarray,
                  params: ClusterParams):
    """Group live codes by identical band signatures, per table.

    Returns the bucket membership matrix (buckets x codes) holding the
    members' multiplicities: one row per group of at least two rows (a
    lone code of multiplicity two is a bucket), in (table, band,
    signature) order, members ascending.  A signature is the band's
    coordinates, ordered as their little-endian bytes compare: each value
    is byte-swapped and read as a uint64.  Under one omega a companion is
    a function of its hash and coordinate, so equal coordinates are equal
    sketches.
    Bands are sorted together, by one stable lexsort over band-major
    entries, in groups of at most ``BAND_BLOCK_ENTRIES`` entries.
    """
    n = coords.shape[0]
    live = np.flatnonzero(live)
    size = live.size
    rows, bands = params.lsh_rows, params.lsh_tables * params.lsh_bands
    weight = mult[live]
    step = max(1, BAND_BLOCK_ENTRIES // max(1, size))
    members, sizes = [], []
    for lo in range(0, bands, step):
        count = min(step, bands - lo)
        hashes = slice(lo * rows, (lo + count) * rows)
        # each signature column as one band-major key array, in signature order
        part = np.asarray(coords[live, hashes], dtype=np.int64).byteswap().view(np.uint64).T
        block = [part[r::rows].ravel() for r in range(rows)]
        band = np.repeat(np.arange(count), size)
        order = np.lexsort(block[::-1] + [band])
        # every band holds `size` entries, so bands start at multiples of it
        start = np.zeros(order.size, dtype=bool)
        start[::max(1, size)] = True
        for key in block:
            key = key[order]
            start[1:] |= key[1:] != key[:-1]
        group = np.cumsum(start) - 1
        code = order % size
        shared = np.bincount(group, weights=weight[code]) >= 2
        members.append(live[code[shared[group]]])
        sizes.append(np.bincount(group)[shared])
    indices = np.concatenate(members)
    indptr = np.zeros(sum(c.size for c in sizes) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    return sparse.csr_matrix((mult[indices], indices, indptr), shape=(indptr.size - 1, n))


def _bin_candidates(
    X: sparse.csr_matrix,
    omega: np.ndarray,
    buckets: sparse.csr_matrix,
    mult: np.ndarray,
    beta: float,
    hash_ids: np.ndarray,
    seed: int,
    cap: int,
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """FreqItem candidates of the ``cap`` largest level-2 bins, one CSR row
    each, and their row counts.

    Each bucket's FreqItem is sketched with the ``hash_ids`` band by
    ``cws_signatures`` under omega: its values are omega up to one
    rounding, which leaves every key's floor, and so the sketch, as under
    its own values unless that floor sits within a rounding of an
    integer.  Buckets whose sketch coordinates agree merge into one bin
    holding the union of their members.  ``X`` holds the codes, ``mult`` their multiplicities
    and ``buckets`` the members' multiplicities, so every count and size
    is over rows.  Bins are ordered by first occurrence, then stably by
    decreasing size.
    """
    C = _group_freqitems(buckets, X, omega, beta)
    if buckets.shape[0] == 0:
        return C, np.zeros(0, dtype=np.int64)
    coords, _ = cws_signatures(C, omega, hash_ids, seed)
    first, inverse, _ = _distinct_rows(coords)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    union = _indicator(rank[inverse], first.size) @ buckets
    union.data = mult[union.indices]
    sizes = np.asarray(union.sum(axis=1)).ravel()
    top = np.argsort(-sizes, kind="stable")[:cap]
    return _group_freqitems(union[top], X, omega, beta), sizes[top]


def _seed_from_candidates(C, sizes, X, omega, nonempty, params: ClusterParams, rng) -> sparse.csr_matrix:
    """Merge near-duplicate candidate rows of C, reduce them to k, pad with rows.

    One pairwise similarity matrix serves both the merge and the reduction.
    """
    sim = pairwise_weighted_jaccard(C)
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


def silk_seed(
    X: sparse.csr_matrix,
    omega: np.ndarray,
    params: ClusterParams,
    effective=None,
) -> sparse.csr_matrix:
    """Two-level MinHash overseeding reduced to k initial centers (k x p CSR).

    ``effective`` is ``_effective_codes(X, omega)`` when the caller has it.
    """
    n = X.shape[0]
    k = params.k
    if n < k:
        raise DataError(f"need at least k={k} rows, got {n}")
    rng = np.random.default_rng(derive_seed(params.seed, "silk"))
    codes, inverse, mult = _effective_codes(X, omega) if effective is None else effective
    level1 = params.lsh_tables * params.lsh_bands * params.lsh_rows
    coords, _ = cws_signatures(codes, omega, np.arange(level1, dtype=np.int64), params.seed)
    live = coords[:, 0] >= 0
    if not np.any(live):
        raise DataError("all rows have empty effective support")

    buckets = _band_buckets(coords, live, mult, params)
    del coords  # only the buckets read them; free them before the level-2 counts

    # Level 2: sketch each bucket's FreqItem with a short hash band and
    # merge buckets whose signatures agree.  A band, not a single hash:
    # one hash collides with probability J_w, which would glue together
    # buckets that are only mildly similar.
    level2_ids = level1 + np.arange(4, dtype=np.int64)
    C, sizes = _bin_candidates(codes, omega, buckets, mult, params.beta, level2_ids,
                               params.seed, cap=max(4 * k, 32))
    log.debug("silk_seed: %d rows, %d distinct codes, %d buckets, %d candidates",
              n, mult.size, buckets.shape[0], C.shape[0])
    return _seed_from_candidates(C, sizes, X, omega, live[inverse], params, rng)


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
    """Append omega-valued supports of distinct rows to C; duplicates only as a last resort."""
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


def cluster(
    X: sparse.csr_matrix,
    params: ClusterParams,
    weights: np.ndarray | None = None,
) -> ClusterResult:
    """Weighted k-FreqItems: assign to nearest center, recompute FreqItems.

    ``weights`` is the shared per-coordinate weight vector; None means all
    ones, plain k-FreqItems.  Weights are scale-normalized to max 1,
    which leaves every weighted Jaccard distance unchanged.
    """
    X = X.tocsr()
    n, p = X.shape
    if n < params.k:
        raise DataError(f"need at least k={params.k} rows, got {n}")
    omega = np.ones(p)
    if weights is not None:
        omega = np.asarray(weights, dtype=np.float64)
        if omega.shape != (p,):
            raise ConfigError(f"weights must have shape ({p},)")
        if np.any(omega < 0) or not np.all(np.isfinite(omega)):
            raise ConfigError("weights must be finite and non-negative")
        peak = omega.max()
        if peak <= 0:
            raise ConfigError("weights are all zero")
        omega = omega / peak

    codes, inverse, mult = effective = _effective_codes(X, omega)
    centers = silk_seed(X, omega, params, effective)
    # Distances are a function of a row's code: zero-weight coordinates add
    # nothing to any sum.  Each row reads its code's row of D.
    X_codes = codes.astype(np.float64)
    code_tot = X_codes @ omega

    labels_prev = None
    seen: dict[bytes, int] = {}                 # digest of each labelling -> first iteration
    trail: list[tuple[np.ndarray, float]] = []  # (labels, mean distance) of each iteration
    history: list[tuple[float | None, float]] = []
    for n_iter in range(1, params.max_iter + 1):
        D = _distances(X_codes, code_tot, omega, centers)
        labels = D.argmin(axis=1)[inverse]
        assigned = D[inverse, labels]
        pre_mean = float(D[inverse, labels_prev].mean()) if labels_prev is not None else None
        history.append((pre_mean, float(assigned.mean())))

        counts = np.bincount(labels, minlength=params.k)
        if np.any(counts == 0):
            spare = assigned.copy()
            for cid in np.flatnonzero(counts == 0):
                worst = int(np.argmax(spare))
                labels[worst] = cid
                assigned[worst] = D[inverse[worst], cid]
                spare[worst] = -np.inf
        final_mean = float(assigned.mean())
        trail.append((labels, final_mean))

        first = seen.setdefault(hashlib.blake2b(labels.tobytes()).digest(), n_iter)
        if first == n_iter - 1:
            break   # fixed point
        # An iteration is a function of the labels it recentered on, so from a
        # repeated labelling on, the loop cycles with period n_iter - first until
        # max_iter.  Stop now with the state iteration max_iter would reach.
        if first < n_iter:
            period = n_iter - first
            log.warning("cluster: labels alternate among %d labellings from iteration %d; "
                        "returning the state of iteration max_iter=%d",
                        period, first, params.max_iter)
            # iteration max_iter lies whole periods after iteration n_iter - back,
            # which is inside the cycle, so it ends in the same state
            back = (n_iter - params.max_iter) % period
            labels, final_mean = trail[n_iter - 1 - back]
        labels_prev = labels
        # recenter on these labels; a fixed-point break returns these centers
        members = sparse.csr_matrix((np.ones(n, dtype=np.int64), (labels, inverse)),
                                    shape=(params.k, mult.size))
        centers = _group_freqitems(members, codes, omega, params.alpha)
        if first < n_iter:
            break
    else:
        log.warning("cluster: stopped at max_iter=%d without label fixed point", params.max_iter)

    return ClusterResult(
        labels=labels,
        centers=centers,
        n_iter=n_iter,
        mean_distance=final_mean,
        history=history,
    )
