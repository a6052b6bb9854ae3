"""Weighted k-FreqItems clustering over sparse binary supports.

The engine's data model mirrors the weighting construction upstream:
rows are binary supports (a CSR matrix) and a single non-negative weight
vector over coordinates is shared by all rows of a round, so row i's
weighted vector is omega * x_i.  Centers are general sparse weighted
vectors (retained coordinates with average contributions).  Passing
``weights=None`` means omega = 1, which is plain k-FreqItems: every
FreqItem value is 1.0 and every row total, intersection and union is an
exact small integer in float64, so each weighted Jaccard distance is the
same IEEE division as the integer plain-Jaccard one.

Seeding is a two-level MinHash scheme: band signatures group rows into
buckets, bucket sketches are hashed again to merge near-duplicate
buckets into bins, and each bin contributes one FreqItem candidate;
candidates are deduplicated and reduced to k by a distance-weighted
sampling pass.  The level-2 work is batched: buckets form one sparse
membership matrix M, so ``M @ X`` yields every bucket's integer column
counts at once; one ICWS grid over all coordinates supplies every bucket
sketch; bins are unions of buckets with equal sketches, numbered by
first occurrence, and their counts come from one more product.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ._rng import derive_seed, keyed_uniform_grid
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SparseWeightedVector:
    """Sorted sparse vector with strictly positive values."""

    idx: np.ndarray
    val: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "idx", np.asarray(self.idx, dtype=np.int64))
        object.__setattr__(self, "val", np.asarray(self.val, dtype=np.float64))
        if self.idx.shape != self.val.shape:
            raise ConfigError("idx and val must have equal length")
        if self.idx.size and np.any(np.diff(self.idx) <= 0):
            raise ConfigError("coordinates must be strictly increasing")
        if np.any(~np.isfinite(self.val)) or np.any(self.val <= 0):
            raise ConfigError("values must be finite and positive")

    @property
    def total(self) -> float:
        return float(self.val.sum())


@dataclass(frozen=True)
class FreqItemCenter:
    """Sparse weighted center: retained coordinates with average contributions."""

    idx: np.ndarray
    val: np.ndarray
    size: int

    def __post_init__(self):
        object.__setattr__(self, "idx", np.asarray(self.idx, dtype=np.int64))
        object.__setattr__(self, "val", np.asarray(self.val, dtype=np.float64))

    @property
    def total(self) -> float:
        return float(self.val.sum())


@dataclass(frozen=True)
class ClusterParams:
    k: int
    alpha: float = 0.5
    beta: float = 0.5
    max_iter: int = 50
    seed: int = 0
    lsh_tables: int = 4
    lsh_bands: int = 8
    lsh_rows: int = 2
    dedup_sim: float = 0.95

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
    centers: list[FreqItemCenter]
    n_iter: int
    mean_distance: float
    # one entry per assignment step: (mean distance of previous labels under
    # the current centers or None on the first step, mean after reassignment)
    history: list[tuple[float | None, float]]


def weighted_jaccard(v, u) -> float:
    """Similarity sum(min)/sum(max); two empty vectors are identical (1).

    Reads only ``idx``, ``val`` and ``total``, so a SparseWeightedVector
    and a FreqItemCenter compare alike.
    """
    common, ia, ib = np.intersect1d(v.idx, u.idx, assume_unique=True, return_indices=True)
    smin = float(np.minimum(v.val[ia], u.val[ib]).sum())
    smax = v.total + u.total - smin
    if smax == 0.0:
        return 1.0
    return smin / smax


# --- Consistent Weighted Sampling -------------------------------------------
#
# Ioffe's ICWS with counter-based randomness: the Gamma(2,1) and Uniform
# draws for coordinate t under hash h are produced from keyed uniforms,
# so no sampling tables are stored and any (t, h) pair can be evaluated
# independently.  A hash collision has probability equal to the weighted
# Jaccard similarity of the two vectors.


def _icws_parts(seed: int, hash_ids: np.ndarray, coords: np.ndarray):
    u1 = keyed_uniform_grid(seed, 0, hash_ids, coords)
    u2 = keyed_uniform_grid(seed, 1, hash_ids, coords)
    u3 = keyed_uniform_grid(seed, 2, hash_ids, coords)
    u4 = keyed_uniform_grid(seed, 3, hash_ids, coords)
    beta = keyed_uniform_grid(seed, 4, hash_ids, coords)
    r = -(np.log(u1) + np.log(u2))        # Gamma(2,1)
    ln_c = np.log(-(np.log(u3) + np.log(u4)))
    return r, ln_c, beta


def _icws_keys(values: np.ndarray, r, ln_c, beta):
    """ICWS key (smaller wins) and companion integer per (hash, coordinate)."""
    ln_v = np.log(values)
    t_k = np.floor(ln_v / r + beta)
    ln_y = r * (t_k - beta)
    ln_a = ln_c - ln_y - r
    return ln_a, t_k.astype(np.int64)


def cws_sketch(v: SparseWeightedVector, hash_ids: np.ndarray, seed: int):
    """All requested hashes of one vector: (coords, companions) arrays."""
    if v.idx.size == 0:
        raise DataError("cannot hash an empty vector")
    hash_ids = np.asarray(hash_ids, dtype=np.int64)
    r, ln_c, beta = _icws_parts(seed, hash_ids, v.idx)
    ln_a, t_k = _icws_keys(v.val[None, :], r, ln_c, beta)
    j = np.argmin(ln_a, axis=1)
    rows = np.arange(len(hash_ids))
    return v.idx[j], t_k[rows, j]


def _key_grid(omega: np.ndarray, hash_ids: np.ndarray, seed: int):
    """Precomputed ICWS keys for every coordinate (rows share weights).

    Coordinates with zero weight get +inf keys so they never win.
    Returns (keys, companions), each of shape (len(hash_ids), omega.size).
    """
    coords = np.arange(omega.size, dtype=np.int64)
    r, ln_c, beta = _icws_parts(seed, hash_ids, coords)
    active = omega > 0
    safe = np.where(active, omega, 1.0)
    ln_a, t_k = _icws_keys(safe[None, :], r, ln_c, beta)
    ln_a[:, ~active] = np.inf
    return ln_a, t_k


def _segment_argmin(kv: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Position of each row segment's first minimum within kv (-1 if empty)."""
    counts = np.diff(indptr)
    if counts.size and np.all(counts == counts[0]) and counts[0] > 0:
        width = counts[0]
        return indptr[:-1] + np.argmin(kv.reshape(-1, width), axis=1)
    out = np.full(counts.size, -1, dtype=np.int64)
    live = counts > 0
    if np.any(live):
        starts = indptr[:-1][live]
        low = np.repeat(np.minimum.reduceat(kv, starts), counts[live])
        pos = np.where(kv == low, np.arange(kv.size), kv.size)
        out[live] = np.minimum.reduceat(pos, starts)
    return out


def cws_signatures(X: sparse.csr_matrix, omega, hash_ids: np.ndarray, seed: int):
    """Sketch every row: (coords, companions), each (n, len(hash_ids)).

    Rows whose effective support is empty get coordinate -1.
    """
    n = X.shape[0]
    keys, tks = _key_grid(omega, hash_ids, seed)
    coords_out = np.full((n, len(hash_ids)), -1, dtype=np.int64)
    comp_out = np.zeros((n, len(hash_ids)), dtype=np.int64)
    cols = X.indices
    for hi in range(len(hash_ids)):
        kv = keys[hi][cols]
        pos = _segment_argmin(kv, X.indptr)
        ok = (pos >= 0) & np.isfinite(kv[np.maximum(pos, 0)])
        coords_out[ok, hi] = cols[pos[ok]]
        comp_out[ok, hi] = tks[hi][cols[pos[ok]]]
    return coords_out, comp_out


# --- FreqItem centers ---------------------------------------------------------


def _indicator(groups: np.ndarray, n_groups: int) -> sparse.csr_matrix:
    """Groups x items 0/1 matrix marking the group of each item."""
    items = np.arange(groups.size)
    data = np.ones(groups.size, dtype=np.int64)
    return sparse.csr_matrix((data, (groups, items)), shape=(n_groups, groups.size))


def _freqitems(F: sparse.csr_matrix, omega: np.ndarray, alpha: float) -> sparse.csr_matrix:
    """Row-wise FreqItem centers from column activation counts.

    Row g of ``F`` counts, per coordinate, the binary members of one group
    (``M @ X`` for a membership matrix ``M``).  Row g of the result keeps
    the coordinates carrying at least alpha of that row's peak mass, each
    valued by its average contribution.
    """
    F.sort_indices()
    f = F.data.astype(np.int64)
    s = f * omega[F.indices]
    lens = np.diff(F.indptr)
    rows = np.repeat(np.arange(F.shape[0]), lens)
    s_max = np.zeros(F.shape[0])
    live = lens > 0
    if np.any(live):
        s_max[live] = np.maximum.reduceat(s, F.indptr[:-1][live])
    keep = (s > 0) & (s >= alpha * s_max[rows])
    indptr = np.zeros(F.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=F.shape[0]), out=indptr[1:])
    val = s[keep] / np.maximum(1, f[keep])
    return sparse.csr_matrix((val, F.indices[keep], indptr), shape=F.shape)


def _as_centers(C: sparse.csr_matrix, sizes: np.ndarray) -> list[FreqItemCenter]:
    """Split a block of row-wise centers into FreqItemCenter objects."""
    bounds = zip(C.indptr[:-1].tolist(), C.indptr[1:].tolist(), sizes.tolist())
    return [FreqItemCenter(C.indices[lo:hi], C.data[lo:hi], size) for lo, hi, size in bounds]


# --- Distance kernel ----------------------------------------------------------


def _distances(X, row_tot, omega, centers) -> np.ndarray:
    """1 - sum(min)/sum(max) between omega-weighted rows and centers.

    ``X`` is the binary data as float64 and ``row_tot`` its row totals
    ``X @ omega``; both are loop invariants of ``cluster``.
    """
    indptr = np.zeros(len(centers) + 1, dtype=np.int64)
    np.cumsum([c.idx.size for c in centers], out=indptr[1:])
    indices = np.concatenate([c.idx for c in centers])
    data = np.concatenate([np.minimum(omega[c.idx], c.val) for c in centers])
    M = sparse.csr_matrix((data, indices, indptr), shape=(len(centers), X.shape[1]))
    smin = (X @ M.T).toarray()
    cen_tot = np.array([c.total for c in centers])
    union = row_tot[:, None] + cen_tot[None, :] - smin
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(union > 0, smin / np.where(union > 0, union, 1.0), 1.0)
    return 1.0 - sim


# --- SILK-style seeding -------------------------------------------------------


def _band_buckets(coords: np.ndarray, comps: np.ndarray, nonempty: np.ndarray, params: ClusterParams):
    """Group nonempty rows by identical band signatures, per table.

    Returns the bucket membership matrix (buckets x n): one row per group
    of at least two rows, in (table, band, signature) order.
    """
    n = coords.shape[0]
    live = np.flatnonzero(nonempty)
    coords, comps = coords[live], comps[live]
    members, sizes = [], []
    for h in range(0, params.lsh_tables * params.lsh_bands * params.lsh_rows, params.lsh_rows):
        sig = np.concatenate(
            [coords[:, h:h + params.lsh_rows], comps[:, h:h + params.lsh_rows]],
            axis=1,
        )
        view = np.ascontiguousarray(sig).view(
            np.dtype((np.void, sig.dtype.itemsize * sig.shape[1]))
        ).ravel()
        _, inverse, counts = np.unique(view, return_inverse=True, return_counts=True)
        order = np.argsort(inverse, kind="stable")
        shared = counts >= 2
        members.append(live[order[shared[inverse[order]]]])
        sizes.append(counts[shared])
    indices = np.concatenate(members)
    indptr = np.zeros(sum(c.size for c in sizes) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    data = np.ones(indices.size, dtype=np.int64)
    return sparse.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n))


def _bin_candidates(
    X: sparse.csr_matrix,
    omega: np.ndarray,
    buckets: sparse.csr_matrix,
    beta: float,
    hash_ids: np.ndarray,
    seed: int,
    cap: int,
) -> list[FreqItemCenter]:
    """FreqItem candidates of the ``cap`` largest level-2 bins.

    Each bucket's FreqItem is sketched with the ``hash_ids`` band, and
    buckets whose sketches agree merge into one bin holding the union of
    their members.  Bins are ordered by first occurrence, then stably by
    decreasing size.
    """
    if buckets.shape[0] == 0:
        return []
    C = _freqitems(buckets @ X, omega, beta)
    live = np.diff(C.indptr) > 0
    buckets, C = buckets[live], C[live]
    if buckets.shape[0] == 0:
        return []
    if not np.all(np.isfinite(C.data) & (C.data > 0)):
        raise ConfigError("values must be finite and positive")

    # One ICWS grid over all coordinates serves every bucket sketch; keys
    # of each bucket's retained coordinates are its own ICWS keys.
    r, ln_c, shift = _icws_parts(seed, hash_ids, np.arange(X.shape[1], dtype=np.int64))
    cols = C.indices
    ln_a, t_k = _icws_keys(C.data[None, :], r[:, cols], ln_c[:, cols], shift[:, cols])
    pos = np.stack([_segment_argmin(keys, C.indptr) for keys in ln_a])
    sig = np.concatenate([cols[pos], np.take_along_axis(t_k, pos, axis=1)]).T

    _, first, inverse = np.unique(sig, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    union = _indicator(rank[inverse.ravel()], first.size) @ buckets
    union.data[:] = 1
    sizes = np.diff(union.indptr)
    top = np.argsort(-sizes, kind="stable")[:cap]
    return _as_centers(_freqitems(union[top] @ X, omega, beta), sizes[top])


def _seed_from_candidates(candidates, X, omega, nonempty, params: ClusterParams, rng) -> list[FreqItemCenter]:
    """Merge near-duplicate candidates, reduce them to k, pad with rows.

    One pairwise similarity matrix serves both the merge and the reduction.
    """
    m = len(candidates)
    sim = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            sim[i, j] = sim[j, i] = weighted_jaccard(candidates[i], candidates[j])
    kept: list[int] = []
    merged_counts: list[int] = []
    for c, cand in enumerate(candidates):
        for slot, i in enumerate(kept):
            if sim[c, i] >= params.dedup_sim:
                merged_counts[slot] += cand.size
                break
        else:
            kept.append(c)
            merged_counts.append(cand.size)

    centers = _reduce_candidates(
        [candidates[i] for i in kept], merged_counts, sim[np.ix_(kept, kept)], params.k, rng
    )
    if len(centers) < params.k:
        centers = _pad_with_rows(centers, X, omega, nonempty, params.k, rng)
    return centers


def silk_seed(
    X: sparse.csr_matrix,
    omega: np.ndarray,
    params: ClusterParams,
    seed: int,
) -> list[FreqItemCenter]:
    """Two-level MinHash overseeding reduced to k initial centers."""
    n, p = X.shape
    k = params.k
    if n < k:
        raise DataError(f"need at least k={k} rows, got {n}")
    rng = np.random.default_rng(derive_seed(seed, "silk"))
    level1 = params.lsh_tables * params.lsh_bands * params.lsh_rows
    coords, comps = cws_signatures(X, omega, np.arange(level1, dtype=np.int64), seed)
    nonempty = coords[:, 0] >= 0
    if not np.any(nonempty):
        raise DataError("all rows have empty effective support")

    buckets = _band_buckets(coords, comps, nonempty, params)

    # Level 2: sketch each bucket's FreqItem with a short hash band and
    # merge buckets whose signatures agree.  A band, not a single hash:
    # one hash collides with probability J_w, which would glue together
    # buckets that are only mildly similar.
    level2_ids = level1 + np.arange(4, dtype=np.int64)
    candidates = _bin_candidates(X, omega, buckets, params.beta, level2_ids, seed, cap=max(4 * k, 32))
    return _seed_from_candidates(candidates, X, omega, nonempty, params, rng)


def _reduce_candidates(cands, weights, sim, k, rng, restarts: int = 8) -> list[FreqItemCenter]:
    """Pick k candidates by weight*distance^2 sampling, best of several
    restarts under the weighted quantization cost over the candidate set.
    ``sim`` holds the candidates' pairwise weighted Jaccard similarities.

    The first restart anchors on the heaviest candidate; later restarts
    sample the first pick by weight, so a misleadingly heavy blended
    candidate cannot dominate every restart.
    """
    if len(cands) <= k:
        return list(cands)
    weights = np.asarray(weights, dtype=np.float64)
    m = len(cands)
    dmat = 1.0 - sim

    def sample(score) -> int:
        total = score.sum()
        if total <= 0:
            return int(np.flatnonzero(score >= 0)[0])
        return int(rng.choice(m, p=score / total))

    best_choice, best_cost = None, np.inf
    for restart in range(restarts):
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
    return [cands[i] for i in best_choice]


def _row_center(X, omega, i) -> FreqItemCenter:
    support = X.indices[X.indptr[i]:X.indptr[i + 1]].astype(np.int64)
    support = support[omega[support] > 0]
    return FreqItemCenter(idx=support, val=omega[support], size=1)


def _pad_with_rows(centers, X, omega, nonempty, k, rng) -> list[FreqItemCenter]:
    """Top up with distinct data rows; duplicates allowed only as a last resort."""
    centers = list(centers)
    supports = {c.idx.tobytes() for c in centers}
    candidates = np.flatnonzero(nonempty)
    order = candidates[rng.permutation(candidates.size)]
    spare = []
    for i in order:
        if len(centers) >= k:
            break
        center = _row_center(X, omega, int(i))
        key = center.idx.tobytes()
        if key in supports:
            spare.append(center)
            continue
        supports.add(key)
        centers.append(center)
    for center in spare:
        if len(centers) >= k:
            break
        centers.append(center)
    if len(centers) < k:
        raise DataError(f"could not seed k={k} centers from {len(centers)} distinct rows")
    return centers


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

    centers = silk_seed(X, omega, params, params.seed)
    X_float = X.astype(np.float64)
    row_tot = X_float @ omega

    rows = np.arange(n)
    labels_prev = labels_prev2 = None   # labels of the last two iterations
    prev_mean = 0.0
    history: list[tuple[float | None, float]] = []
    labels = np.zeros(n, dtype=np.int64)
    final_mean = 0.0
    n_iter = 0
    for _ in range(params.max_iter):
        D = _distances(X_float, row_tot, omega, centers)
        labels = D.argmin(axis=1)
        assigned = D[rows, labels]
        pre_mean = float(D[rows, labels_prev].mean()) if labels_prev is not None else None
        history.append((pre_mean, float(assigned.mean())))

        counts = np.bincount(labels, minlength=params.k)
        if np.any(counts == 0):
            spare = assigned.copy()
            for cid in np.flatnonzero(counts == 0):
                worst = int(np.argmax(spare))
                labels[worst] = cid
                assigned[worst] = D[worst, cid]
                spare[worst] = -np.inf
        final_mean = float(assigned.mean())
        n_iter += 1

        if labels_prev is not None and np.array_equal(labels, labels_prev):
            break
        # An iteration is a function of the labels it recentered on, so labels
        # equal to those of two iterations back alternate until max_iter.
        # Stop now with what iteration max_iter would return.
        cycle = labels_prev2 is not None and np.array_equal(labels, labels_prev2)
        if cycle:
            log.warning("cluster: labels alternate between two labellings from iteration %d; "
                        "returning the state of iteration max_iter=%d", n_iter, params.max_iter)
            if (params.max_iter - n_iter) % 2:
                # iteration max_iter ends on the previous labels, whose centers these are
                labels, final_mean = labels_prev, prev_mean
                break
        labels_prev2, labels_prev, prev_mean = labels_prev, labels, final_mean
        # recenter on these labels; a fixed-point break returns these centers
        counts = _indicator(labels, params.k) @ X
        sizes = np.bincount(labels, minlength=params.k)
        centers = _as_centers(_freqitems(counts, omega, params.alpha), sizes)
        if cycle:
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
