"""Weighted k-FreqItems: similarity kernels, sketches, seeding, Lloyd loop."""

import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from wise.errors import ConfigError, DataError
from wise.wkfreq import (
    ClusterParams,
    FreqItemCenter,
    SparseWeightedVector,
    cluster,
    _freqitems,
    cws_signatures,
    cws_sketch,
    silk_seed,
    weighted_jaccard,
)
from wise._rng import derive_seed
from wise.bep import encode_table
from wise.cli import build_config
from wise.pipeline import lift_weights, make_views, one_hot_records
from wise.synth import SynthParams, synth_table
from test_acceptance import GATE_SEED
from helpers import (
    assert_same_centers,
    random_sparse_binary,
    reference_centers,
    reference_lloyd,
    reference_silk_seed,
)


def vec(idx, val=None):
    idx = np.asarray(idx, dtype=np.int64)
    return SparseWeightedVector(idx, np.ones(idx.size) if val is None else np.asarray(val, float))


def repeated_disjoint(k, copies, width=5):
    """k disjoint supports, `copies` identical rows each."""
    rows = []
    for c in range(k):
        support = list(range(c * width, (c + 1) * width))
        rows.extend([support] * copies)
    indices = np.concatenate([np.array(r) for r in rows])
    indptr = np.arange(len(rows) + 1) * width
    X = sparse.csr_matrix(
        (np.ones(indices.size, dtype=np.uint8), indices, indptr),
        shape=(len(rows), k * width),
    )
    truth = np.repeat(np.arange(k), copies)
    return X, truth


def test_sparse_vector_validation():
    with pytest.raises(ConfigError, match="equal length"):
        SparseWeightedVector(np.array([0, 1]), np.array([1.0]))
    with pytest.raises(ConfigError, match="strictly increasing"):
        SparseWeightedVector(np.array([1, 0]), np.array([1.0, 1.0]))
    with pytest.raises(ConfigError, match="finite and positive"):
        SparseWeightedVector(np.array([0]), np.array([0.0]))
    assert vec([2, 5], [1.5, 2.5]).total == 4.0


def test_weighted_jaccard_examples():
    # unit weights reduce to plain Jaccard
    assert weighted_jaccard(vec([0, 1, 2, 3]), vec([2, 3, 4, 5])) == pytest.approx(2 / 6)
    assert weighted_jaccard(vec([0, 1]), vec([2, 3])) == 0.0
    assert weighted_jaccard(vec([4, 9], [1, 2]), vec([4, 9], [2, 1])) == pytest.approx(0.5)
    assert weighted_jaccard(vec([]), vec([])) == 1.0
    # seeding compares FreqItem centers directly
    a = FreqItemCenter(np.array([4, 9]), np.array([1.0, 2.0]), 3)
    b = FreqItemCenter(np.array([4, 9]), np.array([2.0, 1.0]), 1)
    assert weighted_jaccard(a, b) == weighted_jaccard(vec([4, 9], [1, 2]), vec([4, 9], [2, 1]))


def one_hash(v, h, seed):
    coords, comps = cws_sketch(v, [h], seed)
    return int(coords[0]), int(comps[0])


def test_cws_hash_basics():
    v = vec([3, 17, 41], [0.5, 2.0, 1.0])
    assert one_hash(v, 0, seed=9) == one_hash(v, 0, seed=9)
    assert one_hash(v, 0, seed=9) != one_hash(v, 0, seed=10) or one_hash(v, 1, seed=9) != one_hash(v, 1, seed=10)
    single = vec([7], [3.0])
    for h in range(5):
        assert one_hash(single, h, seed=1)[0] == 7
    with pytest.raises(DataError, match="empty vector"):
        cws_sketch(vec([]), np.arange(3), seed=0)


def test_cws_sketch_matches_single_hashes():
    v = vec([1, 4, 6, 30], [1.0, 0.25, 4.0, 2.0])
    hash_ids = np.arange(8, dtype=np.int64)
    coords, comps = cws_sketch(v, hash_ids, seed=5)
    for h in range(8):
        assert (int(coords[h]), int(comps[h])) == one_hash(v, h, seed=5)


def test_cws_collision_rate_tracks_weighted_jaccard():
    rng = np.random.default_rng(2)
    hash_ids = np.arange(2000, dtype=np.int64)
    for _ in range(3):
        idx = np.sort(rng.choice(60, size=10, replace=False))
        u = SparseWeightedVector(idx, rng.uniform(0.5, 3.0, 10))
        keep = np.sort(rng.choice(60, size=10, replace=False))
        w = SparseWeightedVector(keep, rng.uniform(0.5, 3.0, 10))
        cu, tu = cws_sketch(u, hash_ids, seed=77)
        cw, tw = cws_sketch(w, hash_ids, seed=77)
        rate = float(np.mean((cu == cw) & (tu == tw)))
        assert abs(rate - weighted_jaccard(u, w)) < 0.05


def test_cws_signatures_match_per_row_sketches():
    rng = np.random.default_rng(4)
    X = random_sparse_binary(rng, n=12, p=40)
    omega = rng.uniform(0.1, 2.0, 40)
    hash_ids = np.arange(6, dtype=np.int64)
    coords, comps = cws_signatures(X, omega, hash_ids, seed=3)
    for i in range(12):
        support = X.indices[X.indptr[i]:X.indptr[i + 1]].astype(np.int64)
        v = SparseWeightedVector(support, omega[support])
        c, t = cws_sketch(v, hash_ids, seed=3)
        assert np.array_equal(coords[i], c)
        assert np.array_equal(comps[i], t)


def test_cws_signatures_skip_zero_weight_support():
    X = sparse.csr_matrix(np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8))
    omega = np.array([1.0, 1.0, 0.0])
    coords, _ = cws_signatures(X, omega, np.arange(4, dtype=np.int64), seed=0)
    assert np.all(coords[0] >= 0)
    assert np.all(coords[1] == -1)   # support entirely zero-weighted


def test_freqitem_center_examples():
    # members {0,1} and {1,2}: counts (1,2,1), alpha=0.6 keeps only coordinate 1
    pair = sparse.csr_matrix(np.array([[1, 2, 1]]))
    center = _freqitems(pair, np.ones(3), alpha=0.6)
    assert center.indices.tolist() == [1]
    assert center.data.tolist() == [1.0]
    # one member {3,8} under weights 2 and 1
    single = sparse.csr_matrix(([1, 1], [3, 8], [0, 2]), shape=(1, 10))
    omega = np.zeros(10)
    omega[[3, 8]] = [2.0, 1.0]
    every = _freqitems(single, omega, alpha=0.0)
    assert every.indices.tolist() == [3, 8]
    assert every.data.tolist() == [2.0, 1.0]
    peak = _freqitems(single, omega, alpha=1.0)
    assert peak.indices.tolist() == [3]
    # rows are independent centers; an empty row stays empty
    both = _freqitems(sparse.vstack([pair, sparse.csr_matrix((1, 3))]).tocsr(), np.ones(3), alpha=0.6)
    assert np.diff(both.indptr).tolist() == [1, 0]


def test_cluster_params_validation():
    with pytest.raises(ConfigError, match="k must be"):
        ClusterParams(k=0)
    with pytest.raises(ConfigError, match="alpha and beta"):
        ClusterParams(k=2, alpha=1.5)
    with pytest.raises(ConfigError, match="max_iter"):
        ClusterParams(k=2, max_iter=0)


def test_silk_seed_recovers_disjoint_supports():
    X, _ = repeated_disjoint(k=4, copies=6)
    params = ClusterParams(k=4, seed=13)
    centers = silk_seed(X, np.ones(X.shape[1]), params, seed=13)
    got = sorted(tuple(c.idx.tolist()) for c in centers)
    want = sorted(tuple(range(c * 5, c * 5 + 5)) for c in range(4))
    assert got == want


def test_silk_seed_pads_when_no_buckets_form():
    # one copy of each support: every LSH bucket is a singleton, so the
    # candidate list is empty and distinct rows pad the seed set
    X, _ = repeated_disjoint(k=3, copies=1)
    centers = silk_seed(X, np.ones(X.shape[1]), ClusterParams(k=3, seed=5), seed=5)
    got = sorted(tuple(c.idx.tolist()) for c in centers)
    want = sorted(tuple(range(c * 5, c * 5 + 5)) for c in range(3))
    assert got == want


def test_silk_seed_k1_and_too_few_rows():
    X, _ = repeated_disjoint(k=1, copies=4)
    ones = np.ones(X.shape[1])
    centers = silk_seed(X, ones, ClusterParams(k=1, seed=0), seed=0)
    assert len(centers) == 1
    assert centers[0].idx.tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(DataError, match="need at least"):
        silk_seed(X[:0], ones, ClusterParams(k=1, seed=0), seed=0)


def _silk_inputs():
    rng = np.random.default_rng(12)
    X = random_sparse_binary(rng, n=150, p=40, min_nnz=4, max_nnz=8)
    omega = rng.uniform(0.1, 1.0, 40)
    omega[rng.choice(40, size=8, replace=False)] = 0.0
    yield "weighted, zero weights", X, omega, ClusterParams(k=5, beta=0.4, seed=3)
    truth = rng.integers(0, 3, 200)
    L = np.where(rng.random((200, 8)) < 0.85, truth[:, None] * 2, rng.integers(0, 6, (200, 8)))
    yield "one-hot records", one_hot_records(L, 6), np.ones(48), ClusterParams(k=3, beta=0.4, seed=8)
    base = random_sparse_binary(rng, n=12, p=30)
    dup = base[rng.integers(0, 12, 120)]
    yield "duplicate rows", dup, rng.uniform(0.2, 1.0, 30), ClusterParams(k=4, beta=0.5, seed=1)
    yield "duplicate rows, unweighted", dup, np.ones(30), ClusterParams(k=6, seed=2)
    single, _ = repeated_disjoint(k=3, copies=1)
    yield "no buckets", single, np.ones(15), ClusterParams(k=3, seed=5)


def test_silk_seed_matches_per_bucket_reference():
    for name, X, omega, params in _silk_inputs():
        got = silk_seed(X, omega, params, seed=params.seed)
        want = reference_silk_seed(X, omega, params, seed=params.seed)
        assert len(got) == params.k, name
        assert_same_centers(got, want)


def test_cluster_perfect_partition():
    X, truth = repeated_disjoint(k=3, copies=7)
    res = cluster(X, ClusterParams(k=3, seed=21))
    assert res.mean_distance == 0.0
    # copies always share a label
    for c in range(3):
        block = res.labels[truth == c]
        assert np.all(block == block[0])
    assert np.unique(res.labels).size == 3


def test_cluster_k1_center_is_global_freqitem():
    rng = np.random.default_rng(8)
    X = random_sparse_binary(rng, n=30, p=25)
    res = cluster(X, ClusterParams(k=1, alpha=0.3, seed=2))
    assert np.all(res.labels == 0)
    counts = np.asarray(X.sum(axis=0)).ravel()
    keep = (counts > 0) & (counts >= 0.3 * counts.max())
    assert res.centers[0].idx.tolist() == np.flatnonzero(keep).tolist()


def test_cluster_converged_labels_are_a_fixed_point():
    rng = np.random.default_rng(31)
    X = random_sparse_binary(rng, n=80, p=40)
    params = ClusterParams(k=4, seed=7)
    first = cluster(X, params)
    assert first.n_iter < params.max_iter
    assert_same_centers(first.centers, reference_centers(X, first.labels, None, params.alpha, 4))
    again, centers, _, _ = reference_lloyd(X, params, None, first.centers)
    assert np.array_equal(first.labels, again)
    assert_same_centers(centers, first.centers)
    # stopped by max_iter: the centers still belong to the returned labels
    capped = cluster(X, ClusterParams(k=4, seed=7, max_iter=1))
    assert capped.n_iter == 1
    assert_same_centers(capped.centers, reference_centers(X, capped.labels, None, params.alpha, 4))


def test_cluster_two_cycle_stops_early_with_the_max_iter_state(caplog):
    # stage-one round 2 of a planted table (m=1) alternates between two
    # labellings from iteration 5 on
    table, _ = synth_table(SynthParams(n=2000, seed=3))
    cfg = build_config({"m": 1})
    bep = encode_table(table, cfg.bep)
    view = make_views(table, cfg)[2]
    omega = lift_weights(view.w, bep.bit_groups)
    params = ClusterParams(k=cfg.k0, alpha=cfg.alpha0, beta=cfg.beta0, max_iter=cfg.max_iter,
                           seed=derive_seed(cfg.seed, "stage1", 2))
    seeds = silk_seed(bep.matrix, omega / omega.max(), params, params.seed)
    # both parities of the iterations left after the cycle shows
    for max_iter in (params.max_iter, params.max_iter + 1):
        p = replace(params, max_iter=max_iter)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="wise.wkfreq"):
            got = cluster(bep.matrix, p, weights=omega)
        labels, centers, mean, n_iter = reference_lloyd(bep.matrix, p, omega, seeds)
        assert n_iter == max_iter
        assert got.n_iter < max_iter
        assert "alternate" in caplog.text
        assert np.array_equal(got.labels, labels)
        assert_same_centers(got.centers, centers)
        assert got.mean_distance == mean


def test_cluster_assignment_step_never_increases_cost():
    rng = np.random.default_rng(5)
    X = random_sparse_binary(rng, n=150, p=60)
    res = cluster(X, ClusterParams(k=5, seed=3), weights=rng.uniform(0.1, 1.0, 60))
    for pre, post in res.history[1:]:
        assert post <= pre + 1e-12


def test_cluster_weight_validation_and_scale_invariance():
    rng = np.random.default_rng(6)
    X = random_sparse_binary(rng, n=60, p=30)
    params = ClusterParams(k=3, seed=4)
    with pytest.raises(ConfigError, match="shape"):
        cluster(X, params, weights=np.ones(7))
    with pytest.raises(ConfigError, match="non-negative"):
        cluster(X, params, weights=np.full(30, -1.0))
    with pytest.raises(ConfigError, match="all zero"):
        cluster(X, params, weights=np.zeros(30))
    w = rng.uniform(0.2, 1.0, 30)
    assert np.array_equal(
        cluster(X, params, weights=w).labels,
        cluster(X, params, weights=5.0 * w).labels,
    )


def test_cluster_unweighted_reduction_quick():
    # explicit all-equal weights go through validation and scaling, yet must
    # match weights=None; the integer plain-Jaccard check is the oracle test below
    rng = np.random.default_rng(9)
    for trial in range(3):
        X = random_sparse_binary(rng, n=120, p=50)
        params = ClusterParams(k=4, seed=100 + trial)
        plain = cluster(X, params, weights=None)
        weighted = cluster(X, params, weights=np.ones(50))
        assert np.array_equal(plain.labels, weighted.labels)


def test_unweighted_cluster_matches_integer_jaccard_oracle():
    # gate 6's 20 draws: weights=None runs the weighted kernel at omega = 1,
    # so it is checked here against plain k-FreqItems in integer arithmetic
    rng = np.random.default_rng(GATE_SEED)
    for _ in range(20):
        n = int(rng.integers(50, 501))
        p = int(rng.integers(20, 61))
        X = random_sparse_binary(rng, n, p)
        params = ClusterParams(k=int(rng.integers(2, 7)), seed=int(rng.integers(2**31)))
        got = cluster(X, params)
        labels, centers, mean, n_iter = reference_lloyd(
            X, params, None, silk_seed(X, np.ones(p), params, params.seed))
        assert np.array_equal(got.labels, labels)
        assert_same_centers(got.centers, centers)
        assert got.mean_distance == mean
        assert got.n_iter == n_iter


def test_cluster_repairs_empty_clusters():
    # only 2 distinct rows but k=3: the third cluster must be refilled
    X, _ = repeated_disjoint(k=2, copies=5)
    res = cluster(X, ClusterParams(k=3, seed=11))
    assert np.bincount(res.labels, minlength=3).min() >= 1

