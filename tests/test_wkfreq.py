"""Weighted k-FreqItems: similarity kernels, sketches, seeding, Lloyd loop."""

import logging
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import helpers
from wise import wkfreq
from wise.errors import ConfigError, DataError
from wise.wkfreq import (
    ClusterParams,
    cluster,
    _freqitems,
    _seed_from_candidates,
    cws_signatures,
    pairwise_weighted_jaccard,
    silk_seed,
)
from wise._rng import derive_seed
from wise.bep import BepConfig, GroupCodes, encode_table, nominal_bit
from wise.cli import build_config
from wise.data_model import ColumnSchema, table_from_columns
from wise.pipeline import PipelineConfig, lift_weights, make_views, stage_one, stage_two
from wise.synth import SynthParams, synth_table
from test_acceptance import GATE_SEED
from test_golden import DEEP_SENSE_SETS
from helpers import (
    SparseWeightedVector,
    assert_same_centers,
    center_block,
    cws_sketch,
    one_hot_records,
    random_mixed_table,
    random_sparse_binary,
    reference_band_buckets,
    reference_centers,
    reference_counts,
    reference_effective_codes,
    reference_lloyd,
    reference_reduce_candidates,
    reference_silk_seed,
    weighted_jaccard,
)


def vec(idx, val=None):
    idx = np.asarray(idx, dtype=np.int64)
    return SparseWeightedVector(idx, np.ones(idx.size) if val is None else np.asarray(val, float))


def supports(C):
    """Each center row's coordinates, as a tuple."""
    return [tuple(row.tolist()) for row in np.split(C.indices, C.indptr[1:-1])]


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
    # seeding compares the rows of a center block
    block = center_block([(np.array([4, 9]), np.array([1.0, 2.0])),
                          (np.array([4, 9]), np.array([2.0, 1.0]))], 10)
    sim = pairwise_weighted_jaccard(block)
    assert sim[0, 1] == weighted_jaccard(vec([4, 9], [1, 2]), vec([4, 9], [2, 1]))


@pytest.mark.parametrize("block_cells", [wkfreq.PAIR_BLOCK_CELLS, 997])
def test_pairwise_weighted_jaccard_matches_pairwise_calls_bit_for_bit(monkeypatch, block_cells):
    monkeypatch.setattr(wkfreq, "PAIR_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(23)

    def center(idx):
        idx = rng.permutation(np.asarray(idx, dtype=np.int64))   # any coordinate order
        return idx, rng.random(idx.size) * 10.0 ** rng.integers(-3, 4)

    def row(C, i):
        lo, hi = C.indptr[i], C.indptr[i + 1]
        return SimpleNamespace(idx=C.indices[lo:hi], val=C.data[lo:hi],
                               total=float(C.data[lo:hi].sum()))

    planted = [center(range(0, 300)), center(range(100, 400)), center(range(290, 310)),
               center([295, 296, 297, 298, 299, 350]), center(range(300, 305)),
               center([]), center([])]   # two empty candidates are identical (1.0)
    planted.append(planted[0])   # identical to the first
    cases = [planted, planted[:1], []]
    for _ in range(20):
        p = int(rng.integers(1, 500))
        sizes = rng.integers(0, p + 1, size=int(rng.integers(2, 30)))
        cases.append([center(rng.choice(p, size=size, replace=False)) for size in sizes])

    common_sizes = set()
    for rows in cases:
        C = center_block(rows, 500)
        cands = [row(C, i) for i in range(C.shape[0])]
        sim = pairwise_weighted_jaccard(C)
        assert sim.shape == (len(cands), len(cands))
        for i, a in enumerate(cands):
            assert sim[i, i] == 1.0
            for j, b in enumerate(cands[:i]):
                want = np.float64(weighted_jaccard(a, b)).tobytes()
                assert sim[i, j].tobytes() == sim[j, i].tobytes() == want
                common_sizes.add(np.intersect1d(a.idx, b.idx).size)
    sizes = np.array(sorted(common_sizes))
    assert 0 in common_sizes
    assert np.any((sizes > 0) & (sizes < 8))
    assert np.any((sizes >= 8) & (sizes <= 128))
    assert np.any(sizes > 128)


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
    # equal-width rows, as every BEP code has d stored bits
    equal = random_sparse_binary(rng, n=10, p=40, min_nnz=5, max_nnz=5)
    zeroed = omega.copy()
    zeroed[::3] = 0.0
    # an empty row, then rows whose coordinates are all or partly zero under `zeroed`
    mixed = sparse.csr_matrix(np.array([[0] * 40, [1 if j in (0, 3) else 0 for j in range(40)],
                                        [1 if j in (0, 1, 6, 7) else 0 for j in range(40)]],
                                       dtype=np.uint8))
    mixed = sparse.vstack([X[:3], mixed, X[3:6]], format="csr")
    cases = [(X, omega), (equal, omega), (mixed, omega), (mixed, zeroed), (X, zeroed),
             (equal, zeroed), (sparse.csr_matrix((3, 40), dtype=np.uint8), omega)]
    sketched = {"empty": 0, "partly zero": 0, "wholly zero": 0}
    for X, w in cases:
        coords, comps = cws_signatures(X, w, hash_ids, seed=3)
        assert coords.shape == comps.shape == (X.shape[0], hash_ids.size)
        for i in range(X.shape[0]):
            support = X.indices[X.indptr[i]:X.indptr[i + 1]].astype(np.int64)
            live = support[w[support] > 0]
            if support.size == 0:
                sketched["empty"] += 1
            elif live.size == 0:
                sketched["wholly zero"] += 1
            elif live.size < support.size:
                sketched["partly zero"] += 1
            if live.size == 0:
                assert np.all(coords[i] == -1) and np.all(comps[i] == 0)
                continue
            c, t = cws_sketch(SparseWeightedVector(live, w[live]), hash_ids, seed=3)
            assert np.array_equal(coords[i], c)
            assert np.array_equal(comps[i], t)
    assert min(sketched.values()) > 0, sketched


@pytest.mark.parametrize("block_cells", [wkfreq.SKETCH_BLOCK_CELLS, 1])
def test_rank_sketches_match_per_row_sketches(monkeypatch, block_cells):
    # Seeded inputs with many zero-weight coordinates (some rows hold nothing
    # else) and weights over six decades; the first has more positive-weight
    # coordinates than an int16 rank holds, so its rank table is int32.
    monkeypatch.setattr(wkfreq, "SKETCH_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(24)
    seen = {"zero weight": 0, "wholly zero": 0, "decades": 0, "int32 table": 0}
    for trial in range(25):
        p = 40_000 if trial == 0 else int(rng.integers(1, 150))
        X = random_sparse_binary(rng, int(rng.integers(1, 40)), p, 0, min(p, 12))
        omega = 10.0 ** rng.uniform(-6.0, 0.0, p)
        if trial > 0:
            omega[rng.random(p) < rng.uniform(0.0, 0.9)] = 0.0
        hash_ids = int(rng.integers(0, 100)) + np.arange(rng.integers(1, 9), dtype=np.int64)
        coords, comps = cws_signatures(X, omega, hash_ids, seed=trial)
        assert coords.shape == comps.shape == (X.shape[0], hash_ids.size)
        positive = omega[omega > 0]
        seen["int32 table"] += positive.size > np.iinfo(np.int16).max + 1
        seen["decades"] += positive.size > 0 and positive.max() / positive.min() > 1e4
        for i in range(X.shape[0]):
            support = X.indices[X.indptr[i]:X.indptr[i + 1]].astype(np.int64)
            live = support[omega[support] > 0]
            seen["zero weight"] += live.size < support.size
            if live.size == 0:
                seen["wholly zero"] += support.size > 0
                assert np.all(coords[i] == -1) and np.all(comps[i] == 0)
                continue
            c, t = cws_sketch(SparseWeightedVector(live, omega[live]), hash_ids, seed=trial)
            assert np.array_equal(coords[i], c)
            assert np.array_equal(comps[i], t)
    assert min(seen.values()) > 0, seen


def test_cws_signatures_skip_zero_weight_support():
    X = sparse.csr_matrix(np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8))
    omega = np.array([1.0, 1.0, 0.0])
    coords, _ = cws_signatures(X, omega, np.arange(4, dtype=np.int64), seed=0)
    assert np.all(coords[0] >= 0)
    assert np.all(coords[1] == -1)   # support entirely zero-weighted


def test_freqitem_center_examples():
    # members {0,1} and {1,2}: counts (1,2,1), alpha=0.6 keeps only coordinate 1
    pair = np.array([[1, 2, 1]])
    center = _freqitems(pair, np.ones(3), alpha=0.6)
    assert center.indices.tolist() == [1]
    assert center.data.tolist() == [1.0]
    # one member {3,8} under weights 2 and 1
    single = np.zeros((1, 10), dtype=np.int64)
    single[0, [3, 8]] = 1
    omega = np.zeros(10)
    omega[[3, 8]] = [2.0, 1.0]
    every = _freqitems(single, omega, alpha=0.0)
    assert every.indices.tolist() == [3, 8]
    assert every.data.tolist() == [2.0, 1.0]
    peak = _freqitems(single, omega, alpha=1.0)
    assert peak.indices.tolist() == [3]
    # rows are independent centers; an empty row stays empty
    both = _freqitems(np.vstack([pair, np.zeros((1, 3), dtype=np.int64)]), np.ones(3), alpha=0.6)
    assert np.diff(both.indptr).tolist() == [1, 0]
    first = _freqitems(np.vstack([np.zeros((1, 3), dtype=np.int64), pair]), np.ones(3), alpha=0.6)
    assert np.diff(first.indptr).tolist() == [0, 1]
    assert first.indices.tolist() == [1]
    none = _freqitems(np.zeros((2, 3), dtype=np.int64), np.ones(3), alpha=0.6)
    assert none.shape == (2, 3) and none.nnz == 0


def test_reduce_candidates_matches_choice_reference():
    # the inverse-CDF picks are Generator.choice's: same picks, same final state
    rng = np.random.default_rng(43)
    seen = {"m <= k": 0, "m > k": 0, "k = 1": 0, "zero weights": 0, "all-zero scores": 0}
    for trial in range(300):
        m, k = int(rng.integers(1, 25)), int(rng.integers(1, 8))
        weights = rng.uniform(0.0, 5.0, m) * (rng.random(m) < rng.uniform(0.3, 1.0))
        sim = rng.random((m, m)) if trial % 4 else np.ones((m, m))
        sim = np.maximum(sim, sim.T)
        np.fill_diagonal(sim, 1.0)
        seed = derive_seed(trial, "reduce")
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = wkfreq._reduce_candidates(weights.tolist(), sim, k, got_rng)
        assert got == reference_reduce_candidates(weights.tolist(), sim, k, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        seen["m <= k"] += m <= k
        seen["m > k"] += m > k
        seen["k = 1"] += k == 1 < m
        seen["zero weights"] += m > k and bool(np.any(weights == 0))
        # every candidate the same: each restart's scores after its first pick are 0
        seen["all-zero scores"] += m > k > 1 and trial % 4 == 0
    assert min(seen.values()) > 0, seen


def test_cluster_params_validation():
    with pytest.raises(ConfigError, match="k must be"):
        ClusterParams(k=0)
    with pytest.raises(ConfigError, match="alpha and beta"):
        ClusterParams(k=2, alpha=1.5)
    with pytest.raises(ConfigError, match="max_iter"):
        ClusterParams(k=2, max_iter=0)


def test_silk_seed_recovers_disjoint_supports(caplog):
    X, _ = repeated_disjoint(k=4, copies=6)
    params = ClusterParams(k=4, seed=13)
    with caplog.at_level(logging.DEBUG, logger="wise.wkfreq"):
        centers = silk_seed(X, np.ones(X.shape[1]), params)
    # each code is alone in all 32 of its band groups; equal bucket sketches merge
    assert "24 rows, 4 distinct codes, 128 buckets, 4 candidates" in caplog.text
    got = sorted(supports(centers))
    want = sorted(tuple(range(c * 5, c * 5 + 5)) for c in range(4))
    assert got == want


def test_silk_seed_pads_when_no_buckets_form():
    # one copy of each support: every LSH bucket is a singleton, so the
    # candidate list is empty and distinct rows pad the seed set
    X, _ = repeated_disjoint(k=3, copies=1)
    centers = silk_seed(X, np.ones(X.shape[1]), ClusterParams(k=3, seed=5))
    got = sorted(supports(centers))
    want = sorted(tuple(range(c * 5, c * 5 + 5)) for c in range(3))
    assert got == want


def test_silk_seed_k1_and_too_few_rows():
    X, _ = repeated_disjoint(k=1, copies=4)
    ones = np.ones(X.shape[1])
    centers = silk_seed(X, ones, ClusterParams(k=1, seed=0))
    assert supports(centers) == [(0, 1, 2, 3, 4)]
    with pytest.raises(DataError, match="need at least"):
        silk_seed(X[:0], ones, ClusterParams(k=1, seed=0))
    with pytest.raises(DataError, match="empty effective support"):
        silk_seed(X, np.zeros(X.shape[1]), ClusterParams(k=1, seed=0))


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
    # seeding runs on distinct effective codes; the row-level oracle sees rows
    codes = random_sparse_binary(rng, n=6, p=20)
    noise = random_sparse_binary(rng, n=90, p=10, min_nnz=0, max_nnz=4)
    X = sparse.hstack([codes[rng.integers(0, 6, 90)], noise], format="csr")
    omega = np.concatenate([rng.uniform(0.2, 1.0, 20), np.zeros(10)])
    yield "rows differing only in zero-weight bits", X, omega, ClusterParams(k=4, seed=6)
    # disjoint codes never share a band signature, so every bucket is one
    # code whose two rows differ in a zero-weight bit
    pair, _ = repeated_disjoint(k=3, copies=2)
    X = sparse.hstack([pair, sparse.csr_matrix(np.arange(6)[:, None] % 2)], format="csr")
    yield "lone codes of multiplicity two", X, np.r_[np.ones(15), 0.0], ClusterParams(k=3, seed=5)
    # 10 rows of one code and 4 with empty effective support: padding must
    # skip the empty ones
    code = sparse.csr_matrix(np.repeat([[1], [0]], [10, 4], axis=0) * np.ones((14, 4)))
    X = sparse.hstack([code, random_sparse_binary(rng, 14, 6, 1, 3)], format="csr")
    omega = np.r_[np.full(4, 0.5), np.zeros(6)]
    yield "one effective code, k=3", X, omega, ClusterParams(k=3, seed=4)
    # 30 rows carry only the 6 zero-weight bits
    empty = sparse.hstack([random_sparse_binary(rng, 30, 6, 1, 4), sparse.csr_matrix((30, 6))])
    X = sparse.vstack([empty, random_sparse_binary(rng, 60, 12)], format="csr")[rng.permutation(90)]
    omega = np.r_[np.zeros(6), rng.uniform(0.3, 1.0, 6)]
    yield "empty and non-empty effective supports", X, omega, ClusterParams(k=4, seed=9)
    # coordinates past 255 and weights over four decades, so that signatures
    # differ in a coordinate's high byte and companions reach -20 and below
    base = random_sparse_binary(rng, n=20, p=300, min_nnz=4, max_nnz=8)
    omega = 10.0 ** rng.uniform(-4.0, 0.0, 300)
    yield "wide, weights over decades", base[rng.integers(0, 20, 150)], omega, \
        ClusterParams(k=5, beta=0.4, seed=10)


@pytest.mark.parametrize("block_entries", [wkfreq.BAND_BLOCK_ENTRIES, 1, 997])
def test_band_buckets_match_per_band_reference(monkeypatch, block_entries):
    # Signatures are drawn from a few shared values per band, so buckets
    # form; coordinates reach 70,000 and companions are negative or beyond
    # 2^20, where the order of little-endian bytes is not numeric order.
    # Each companion comes from a per-(hash, coordinate) table, as under one
    # round's weights, so _band_buckets sees the coordinates alone.
    monkeypatch.setattr(wkfreq, "BAND_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(29)
    params = ClusterParams(k=2)
    bands, rows = params.lsh_tables * params.lsh_bands, params.lsh_rows
    edge_coords = np.array([0, 1, 255, 256, 257, 511, 65535, 65536, 70000])
    edge_comps = np.array([-1, 0, 1, -256, 255, 256, 2**20 + 1, -(2**20) - 3, 2**33 + 5])
    seen = {"dead": 0, "lone pair": 0, "wide": 0, "negative": 0, "large": 0}
    for _ in range(40):
        n = int(rng.integers(1, 120))
        pool = int(rng.integers(1, 6))
        shared_c = rng.choice(np.r_[edge_coords, rng.integers(0, 70001, 8)], (bands, pool, rows))
        pick = rng.integers(0, pool, (n, bands))
        coords = shared_c[np.arange(bands), pick].reshape(n, bands * rows)
        own = rng.random((n, bands)) < 0.3
        coords[np.repeat(own, rows, axis=1)] = rng.integers(0, 70001, own.sum() * rows)
        held, at = np.unique(coords, return_inverse=True)
        table = rng.choice(np.r_[edge_comps, rng.integers(-2**21, 2**21, 8)],
                           (bands * rows, held.size))
        comps = table[np.arange(bands * rows), at.reshape(coords.shape)]
        live = rng.random(n) < 0.85
        coords[~live], comps[~live] = -1, 0
        mult = rng.choice([1, 1, 1, 2, 5], n)
        got = wkfreq._band_buckets(coords, live, mult, params)
        want = reference_band_buckets(coords, comps, live, mult, params)
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        sizes = np.diff(got.indptr)
        seen["dead"] += int(np.sum(~live))
        seen["lone pair"] += int(np.sum(got.data[got.indptr[:-1][sizes == 1]] == 2))
        seen["wide"] += int(np.sum(coords[live] >= 256))
        seen["negative"] += int(np.sum(comps[live] < 0))
        seen["large"] += int(np.sum(np.abs(comps[live]) > 2**20))
    assert min(seen.values()) > 0, seen


def test_round_sketches_depend_on_coordinates_alone(monkeypatch):
    # Every round of the deep-sense golden table (synth n=400, seed 4) and of
    # the default n=1500 seed-6 table.  A round's codes share one omega, so a
    # level-1 companion is a function of its hash and coordinate, and a bucket
    # FreqItem's value (F * omega_t) / F is omega_t up to one rounding: its
    # sketch under omega is its sketch under its own values.  Stage one
    # sketches a batch of rounds per call, so every sketch is recorded with
    # the weights, hash ids and seeds of the rank tables it read.
    made, calls = {}, []
    rank_tables, sketch = wkfreq._rank_tables, wkfreq._sketch

    def recording_tables(omega, hash_ids, seeds):
        tables = rank_tables(omega, hash_ids, seeds)
        made[id(tables)] = (tables, omega, hash_ids, seeds)
        return tables

    def recording(X, rounds, tables, hashes, companions=False):
        coords, comps = sketch(X, rounds, tables, hashes, companions=True)
        _, omega, hash_ids, seeds = made[id(tables)]
        for r in np.unique(rounds):
            rows = rounds == r
            # level-1 codes come as group codes; the checks read center blocks alone
            calls.append((X[rows] if sparse.issparse(X) else None, omega[r], hash_ids[hashes],
                          seeds[r], (coords[rows], comps[rows])))
        return (coords, comps) if companions else coords

    monkeypatch.setattr(wkfreq, "_rank_tables", recording_tables)
    monkeypatch.setattr(wkfreq, "_sketch", recording)
    for n, seed, config in [(400, 4, build_config(DEEP_SENSE_SETS)), (1500, 6, PipelineConfig())]:
        table, _ = synth_table(SynthParams(n=n, seed=seed))
        views = make_views(table, config, workers=1)
        stage_two(stage_one(encode_table(table, config.bep), views, config, workers=1), config)
    level1 = ClusterParams.lsh_tables * ClusterParams.lsh_bands * ClusterParams.lsh_rows
    seen = {"rounds": 0, "centers": 0, "values off omega": 0}
    for X, omega, hash_ids, seed, (coords, comps) in calls:
        if hash_ids.size == level1:
            seen["rounds"] += 1
            live = coords[:, 0] >= 0
            hashes = np.broadcast_to(np.arange(level1), coords.shape)[live]
            pairs = np.unique(np.stack([hashes, coords[live]], axis=-1).reshape(-1, 2), axis=0)
            triples = np.unique(np.stack([hashes, coords[live], comps[live]], axis=-1)
                                .reshape(-1, 3), axis=0)
            assert len(pairs) == len(triples)
            continue
        seen["centers"] += X.shape[0]
        # every bucket member is a live code, so every bucket FreqItem
        # keeps at least its peak coordinate
        assert np.all(np.diff(X.indptr) > 0)
        seen["values off omega"] += int(np.sum(X.data != omega[X.indices]))
        for i in range(X.shape[0]):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            c, t = cws_sketch(SparseWeightedVector(X.indices[lo:hi].astype(np.int64),
                                                   X.data[lo:hi]), hash_ids, seed)
            assert np.array_equal(coords[i], c)
            assert np.array_equal(comps[i], t)
    assert seen["rounds"] == 8 + 24 + 2
    assert min(seen.values()) > 0, seen


def test_cluster_rounds_match_each_round_alone(monkeypatch):
    # Seeded batches of rounds over one matrix: weights with zero coordinates
    # (some rows keep nothing, some rounds keep one coordinate), duplicated
    # rows, and tables of fewer distinct rows than k, which pad and repair.
    # Each round's result, centers and history included, is the one cluster
    # gives it alone, for one batch and for one round per batch.
    rng = np.random.default_rng(53)
    budgets = (wkfreq.BATCH_ROWS, 1)
    seen = {"zero weights": 0, "one coordinate": 0, "padded": 0, "batches": 0}
    pad_with_rows = wkfreq._pad_with_rows

    def counting(C, *args):
        seen["padded"] += 1
        return pad_with_rows(C, *args)

    monkeypatch.setattr(wkfreq, "_pad_with_rows", counting)
    for trial in range(12):
        n, p = int(rng.integers(6, 60)), int(rng.integers(4, 30))
        X = random_sparse_binary(rng, int(rng.integers(3, n + 1)), p, 1, min(p, 6))
        X = X[rng.integers(0, X.shape[0], n)]
        k = int(rng.integers(1, 6))
        weights = []
        for _ in range(int(rng.integers(1, 6))):
            w = rng.random(p)
            w[rng.random(p) < rng.uniform(0.0, 0.7)] = 0.0
            if rng.random() < 0.2:
                w = np.eye(p)[int(rng.integers(0, p))]
                seen["one coordinate"] += 1
            w[int(rng.integers(0, p))] = 0.5 + rng.random()   # never all zero
            seen["zero weights"] += int(np.any(w == 0))
            weights.append(w)
        params = [ClusterParams(k=k, alpha=0.4, beta=0.4, max_iter=20, seed=int(s))
                  for s in rng.integers(0, 2**31, len(weights))]
        alone = []
        for q, w in zip(params, weights):
            try:
                alone.append(cluster(X, q, w))
            except DataError as exc:
                alone.append(str(exc))
        for budget in budgets:
            monkeypatch.setattr(wkfreq, "BATCH_ROWS", budget)
            if any(isinstance(a, str) for a in alone):
                with pytest.raises(DataError):
                    wkfreq.cluster_rounds(X, params, weights)
                continue
            seen["batches"] += 1
            for got, want in zip(wkfreq.cluster_rounds(X, params, weights), alone):
                assert got.labels.dtype == want.labels.dtype
                assert got.labels.tobytes() == want.labels.tobytes()
                assert_same_centers(got.centers, want.centers)
                assert (got.n_iter, got.mean_distance, got.history) == \
                    (want.n_iter, want.mean_distance, want.history)
    assert min(seen.values()) > 0, seen


def test_silk_seed_matches_per_bucket_reference(monkeypatch):
    candidates = []

    def recording(C, sizes, *args):
        candidates.append((C, sizes))
        return _seed_from_candidates(C, sizes, *args)

    monkeypatch.setattr(wkfreq, "_seed_from_candidates", recording)
    monkeypatch.setattr(helpers, "_seed_from_candidates", recording)
    for name, X, omega, params in _silk_inputs():
        candidates.clear()
        got = silk_seed(X, omega, params)
        want = reference_silk_seed(X, omega, params)
        (got_C, got_sizes), (want_C, want_sizes) = candidates
        assert_same_centers(got_C, want_C)
        assert np.array_equal(got_sizes, want_sizes), name
        assert got.shape[0] == params.k, name
        assert_same_centers(got, want)


def test_count_and_band_budgets_are_invisible(monkeypatch):
    # one group per count block, one band per sort and one row per sketch
    # gather give the same seeds and the same Lloyd runs as the default budgets
    rng = np.random.default_rng(41)
    truth = rng.integers(0, 4, 300)
    L = np.where(rng.random((300, 8)) < 0.8, truth[:, None], rng.integers(0, 6, (300, 8)))
    stage_two = ("stage-two records", one_hot_records(L, 6), None, ClusterParams(k=4, seed=12))
    cases = list(_silk_inputs()) + [stage_two]

    def run_all():
        out = []
        for _, X, omega, params in cases:
            seed_omega = np.ones(X.shape[1]) if omega is None else omega / omega.max()
            out.append((silk_seed(X, seed_omega, params), cluster(X, params, omega)))
        return out

    want = run_all()
    monkeypatch.setattr(wkfreq, "COUNT_BLOCK_CELLS", 1)
    monkeypatch.setattr(wkfreq, "BAND_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(wkfreq, "SKETCH_BLOCK_CELLS", 1)
    got = run_all()
    for (name, *_), (seeds, res), (want_seeds, want_res) in zip(cases, got, want):
        assert_same_centers(seeds, want_seeds)
        assert np.array_equal(res.labels, want_res.labels), name
        assert_same_centers(res.centers, want_res.centers)
        assert res.mean_distance == want_res.mean_distance, name
        assert res.n_iter == want_res.n_iter, name


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
    assert supports(res.centers) == [tuple(np.flatnonzero(keep).tolist())]


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


def assert_cycle_stop_matches_max_iter_state(caplog, synth_seed, r, period):
    """Stage-one round r of a planted n=2000 table, default config, stops on its
    label cycle with the state the uncut loop reaches at max_iter, for every
    residue of the iterations left modulo the period.  The round's view is a
    gaussian ablation view, which no change to the forests moves."""
    table, _ = synth_table(SynthParams(n=2000, seed=synth_seed))
    cfg = PipelineConfig()
    bep = encode_table(table, cfg.bep)
    view = make_views(table, cfg, ablation="gaussian")[r]
    omega = lift_weights(view.w, bep.bit_groups)
    params = ClusterParams(k=cfg.k0, alpha=cfg.alpha0, beta=cfg.beta0, max_iter=cfg.max_iter,
                           seed=derive_seed(cfg.seed, "stage1", r))
    seeds = silk_seed(bep.matrix, omega / omega.max(), params)
    for max_iter in range(params.max_iter, params.max_iter + period):
        p = replace(params, max_iter=max_iter)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="wise.wkfreq"):
            got = cluster(bep.matrix, p, weights=omega)
        labels, centers, mean, n_iter = reference_lloyd(bep.matrix, p, omega, seeds)
        assert n_iter == max_iter
        assert got.n_iter < max_iter
        assert f"alternate among {period} labellings" in caplog.text
        assert np.array_equal(got.labels, labels)
        assert_same_centers(got.centers, centers)
        assert got.mean_distance == mean


def test_cluster_two_cycle_stops_early_with_the_max_iter_state(caplog):
    # stage-one round 0 of synth seed 81 alternates between two labellings
    # from iteration 5 on
    assert_cycle_stop_matches_max_iter_state(caplog, synth_seed=81, r=0, period=2)


def test_cluster_four_cycle_stops_early_with_the_max_iter_state(caplog):
    # stage-one round 16 of synth seed 19 repeats the labels of iteration 8
    # at iteration 12, which a two-cycle check never sees
    assert_cycle_stop_matches_max_iter_state(caplog, synth_seed=19, r=16, period=4)


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
            X, params, None, silk_seed(X, np.ones(p), params))
        assert np.array_equal(got.labels, labels)
        assert_same_centers(got.centers, centers)
        assert got.mean_distance == mean
        assert got.n_iter == n_iter


def test_cluster_repairs_empty_clusters():
    # only 2 distinct rows but k=3: the third cluster must be refilled
    X, _ = repeated_disjoint(k=2, copies=5)
    res = cluster(X, ClusterParams(k=3, seed=11))
    assert np.bincount(res.labels, minlength=3).min() >= 1


def test_cluster_on_duplicate_codes_matches_row_level_oracle():
    # disjoint effective codes, copied into rows that differ only in
    # zero-weight bits, with k above the code count: every candidate is a
    # whole code, so seeding pads with a duplicate row; a duplicated center
    # never wins an argmin, so the first assignment leaves a cluster empty
    # and repair refills it
    rng = np.random.default_rng(17)
    for n_codes, k in [(2, 4), (3, 5), (4, 6)]:
        bounds = np.r_[0, np.cumsum(rng.integers(2, 6, n_codes))]
        base = sparse.csr_matrix(
            (np.ones(bounds[-1], dtype=np.uint8), np.arange(bounds[-1]), bounds))
        noise = random_sparse_binary(rng, n=120, p=8, min_nnz=0, max_nnz=3)
        X = sparse.hstack([base[rng.integers(0, n_codes, 120)], noise], format="csr")
        # one weight per code, so each candidate is its whole code
        weights = np.r_[np.repeat(rng.uniform(0.2, 2.0, n_codes), np.diff(bounds)), np.zeros(8)]
        params = ClusterParams(k=k, seed=int(rng.integers(2**31)))
        seeds = reference_silk_seed(X, weights / weights.max(), params)
        assert len(set(supports(seeds))) == n_codes
        got = cluster(X, params, weights)
        labels, centers, mean, n_iter = reference_lloyd(X, params, weights, seeds)
        assert np.array_equal(got.labels, labels)
        assert_same_centers(got.centers, centers)
        assert got.mean_distance == mean
        assert got.n_iter == n_iter


def test_icws_parts_match_the_per_lane_formula():
    """The five ICWS lanes drawn in one grid have the bits of five one-lane draws."""
    for seed in (0, 12345678901234567, 2 ** 64 - 5):
        for hashes, coords in ((64, 105), (4, 104), (64, 49)):
            args = (seed, np.arange(hashes, dtype=np.int64), np.arange(coords, dtype=np.int64))
            got, want = wkfreq._icws_parts(*args), helpers.reference_icws_parts(*args)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


# --- group codes ----------------------------------------------------------------


def _colliding_labels(B, seed, count):
    """``count`` labels, the first two of which share their hashed bit."""
    seen = {}
    for t in range(10_000):
        bit = nominal_bit(f"l{t}", B, seed)
        if bit in seen:
            rest = [f"m{u}" for u in range(count - 2)]
            return [seen[bit], f"l{t}"] + rest
        seen[bit] = f"l{t}"
    raise AssertionError("no collision")


def _feature_weights(rng, d, rounds):
    """Per-round feature weights, some zero; the last round keeps one feature."""
    out = []
    for r in range(rounds):
        w = rng.random(d)
        w[rng.random(d) < 0.35] = 0.0
        if r == rounds - 1:
            w = np.eye(d)[int(rng.integers(0, d))] * 0.7
        w[int(rng.integers(0, d))] += 0.1
        out.append(w)
    return out


def _group_code_inputs():
    """(name, group codes, one round's bit weights per row): BEP tables in
    every nominal mode, hash with colliding labels and expand with p > 256,
    each with an ordinal column and zero-weight groups, and stage-two
    records with R * k0 > 256."""
    rng = np.random.default_rng(67)
    ords = ["lo", "mid", "hi"]
    for mode, B, levels, n in [("hash", 4, _colliding_labels(4, 9, 6), 300),
                               ("expand", 8, [f"v{t}" for t in range(300)], 400),
                               ("one_hot", 4, ["a", "b", "c", "d"], 200)]:
        schema = [ColumnSchema("x", "numeric"), ColumnSchema("y", "numeric"),
                  ColumnSchema("o", "ordinal", ordered_levels=ords), ColumnSchema("c", "nominal")]
        cols = [np.round(rng.random(n), 1), rng.random(n), rng.choice(ords, n),
                rng.choice(levels[:4] if mode == "hash" else levels, n)]
        bep = encode_table(table_from_columns(schema, cols), BepConfig(B=B, nominal_mode=mode,
                                                                      hash_seed=9))
        omega = np.array([lift_weights(w, bep.bit_groups)
                          for w in _feature_weights(rng, len(schema), 4)])
        yield f"BEP {mode}, p={bep.p}", bep, omega / omega.max(axis=1, keepdims=True)
    truth = rng.integers(0, 5, 300)
    L = np.where(rng.random((300, 30)) < 0.7, truth[:, None], rng.integers(0, 10, (300, 30)))
    records = GroupCodes(L, np.arange(31) * 10, np.ones(30, dtype=np.int64))
    omega = np.repeat(_feature_weights(rng, 30, 3), 10, axis=1)
    yield "stage-two records, p=300", records, np.vstack([np.ones(300), omega > 0])


def _oracle_codes(codes, G, omega):
    """The CSR kernel's codes of the same rows, and each group code's oracle code."""
    rows, bounds, inverse, mult = reference_effective_codes(G.matrix, omega)
    to_oracle = np.full(codes.mult.size, -1)
    to_oracle[codes.inverse.ravel()] = inverse.ravel()
    return rows, bounds, mult, to_oracle


def test_group_codes_match_the_csr_kernel_codes():
    # per round, the same partition of the rows, the same multiplicities and
    # the same bits per code; the order of a round's codes may differ
    for name, G, omega in _group_code_inputs():
        codes = wkfreq._effective_codes(G, omega)
        rows, bounds, mult, to_oracle = _oracle_codes(codes, G, omega)
        assert np.array_equal(codes.bounds, bounds), name
        for r in range(omega.shape[0]):
            got = codes.inverse[r]
            assert np.all((got >= codes.bounds[r]) & (got < codes.bounds[r + 1])), name
            # a bijection between the round's codes and the oracle's
            assert len(set(zip(got.tolist(), to_oracle[got].tolist()))) == np.unique(got).size
        assert np.array_equal(codes.mult, mult[to_oracle]), name
        oracle = rows[to_oracle]
        assert np.array_equal(codes.rows.indptr, oracle.indptr), name
        assert np.array_equal(codes.rows.indices, oracle.indices), name
        # zero-weight groups are masked to "no bit"
        kept = omega[:, G.start[:-1]] > 0
        assert np.all((codes.groups.offsets >= 0) <= kept[codes.round]), name


def test_bit_counts_match_csr_products():
    # random groups of a round's codes with integer multiplicities, counted
    # over all bit groups and over the groups a block's rounds keep
    rng = np.random.default_rng(71)
    for name, G, omega in _group_code_inputs():
        codes = wkfreq._effective_codes(G, omega)
        rows, _, _, to_oracle = _oracle_codes(codes, G, omega)
        owner = np.sort(rng.integers(0, omega.shape[0], 40))
        members = [rng.choice(np.arange(codes.bounds[r], codes.bounds[r + 1]),
                              int(rng.integers(1, 30)), replace=True) for r in owner]
        members = [np.unique(m) for m in members]
        indptr = np.r_[0, np.cumsum([m.size for m in members])]
        indices = np.concatenate(members)
        data = rng.integers(1, 6, indices.size)
        M = sparse.csr_matrix((data, to_oracle[indices], indptr), shape=(40, rows.shape[0]))
        want = reference_counts(M, rows)
        kept = np.flatnonzero((omega[owner][:, G.start[:-1]] > 0).any(axis=0))
        for live in (np.arange(G.start.size - 1), kept):
            got = wkfreq._bit_counts(indptr, indices, data, codes, live)
            assert np.array_equal(got, want), name


def test_window_min_sketches_match_per_code_sketches():
    # each group code's level-1 sketch, read from the table of window minima,
    # is the per-vector ICWS sketch of its support under its round's weights
    rng = np.random.default_rng(73)
    hash_ids = np.arange(5, 13)
    for name, G, omega in _group_code_inputs():
        codes = wkfreq._effective_codes(G, omega)
        seeds = rng.integers(0, 2**31, omega.shape[0]).tolist()
        tables = wkfreq._rank_tables(omega, hash_ids, seeds)
        coords, comps = wkfreq._sketch(codes.groups, codes.round, tables,
                                       np.arange(hash_ids.size), companions=True)
        for c in rng.choice(codes.mult.size, min(codes.mult.size, 150), replace=False):
            r = codes.round[c]
            support = codes.rows.indices[codes.rows.indptr[c]:codes.rows.indptr[c + 1]]
            if support.size == 0:
                assert np.all(coords[c] == -1) and np.all(comps[c] == 0), name
                continue
            want = cws_sketch(SparseWeightedVector(support, omega[r, support]), hash_ids, seeds[r])
            assert np.array_equal(coords[c], want[0]), name
            assert np.array_equal(comps[c], want[1]), name


def test_code_order_reaches_no_output(monkeypatch):
    # Permuting each round's distinct codes (and remapping the row-to-code map)
    # leaves every result bit for bit: each use of the order is an exact
    # integer sum or a value computed per code.
    effective_codes = wkfreq._effective_codes
    rng = np.random.default_rng(79)

    def permuted(G, omega):
        codes = effective_codes(G, omega)
        order = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi
                                in zip(codes.bounds[:-1], codes.bounds[1:])]).astype(np.intp)
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        groups = GroupCodes(codes.groups.offsets[order], G.start, G.width)
        return replace(codes, groups=groups, rows=codes.rows[order], held=codes.held[:, order],
                       inverse=place[codes.inverse], mult=codes.mult[order])

    table = random_mixed_table(np.random.default_rng(5), n=150, numeric=3, nominal=2, levels=4)
    bep = encode_table(table, BepConfig(B=4))
    w = _feature_weights(np.random.default_rng(6), table.d, 4)
    bep_case = (bep, [lift_weights(v, bep.bit_groups) for v in w],
                [ClusterParams(k=4, alpha=0.4, beta=0.4, seed=s) for s in range(4)])
    L = np.where(rng.random((200, 6)) < 0.8, rng.integers(0, 3, 200)[:, None],
                 rng.integers(0, 4, (200, 6)))
    records = GroupCodes(L, np.arange(7) * 4, np.ones(6, dtype=np.int64))
    records_case = (records, [None], [ClusterParams(k=3, seed=8)])
    # 3 disjoint codes plus noise bits of zero weight for k=5: seeding pads
    # and Lloyd repairs empty clusters
    X, _ = repeated_disjoint(k=3, copies=12)
    X = sparse.hstack([X, random_sparse_binary(np.random.default_rng(7), 36, 6, 1, 3)],
                      format="csr")
    csr_case = (X, [np.r_[np.ones(15), np.zeros(6)], np.r_[np.full(15, 0.5), np.zeros(6)]],
                [ClusterParams(k=5, seed=s) for s in (3, 4)])
    padded = []
    pad_with_rows = wkfreq._pad_with_rows

    def counting(C, *args):
        padded.append(C.shape[0])
        return pad_with_rows(C, *args)

    monkeypatch.setattr(wkfreq, "_pad_with_rows", counting)
    for X, weights, params in (bep_case, records_case, csr_case):
        want = [wkfreq.cluster_rounds(X, params, weights)]
        want.append([cluster(X, q, w) for q, w in zip(params, weights)])
        monkeypatch.setattr(wkfreq, "_effective_codes", permuted)
        got = [wkfreq.cluster_rounds(X, params, weights)]
        got.append([cluster(X, q, w) for q, w in zip(params, weights)])
        monkeypatch.setattr(wkfreq, "_effective_codes", effective_codes)
        for g, h in zip(sum(got, []), sum(want, [])):
            assert g.labels.dtype == h.labels.dtype and g.labels.tobytes() == h.labels.tobytes()
            assert_same_centers(g.centers, h.centers)
            assert (g.n_iter, g.mean_distance, g.history) == (h.n_iter, h.mean_distance, h.history)
    assert padded


def test_cluster_reads_stored_zeros_as_absent_and_rejects_other_values():
    rng = np.random.default_rng(83)
    for t in range(20):
        X = random_sparse_binary(rng, 200, 30)
        X.data[rng.random(X.nnz) < 0.1] = 0
        clean = X.copy()
        clean.eliminate_zeros()
        assert clean.nnz < X.nnz
        params = ClusterParams(k=4, seed=t)
        got, want = cluster(X, params), cluster(clean, params)
        assert got.labels.tobytes() == want.labels.tobytes()
        assert_same_centers(got.centers, want.centers)
    twos = random_sparse_binary(rng, 50, 30)
    twos.data[:] = 2
    with pytest.raises(DataError, match="got 2"):
        cluster(twos, ClusterParams(k=3))
    half = random_sparse_binary(rng, 50, 30).astype(np.float64)
    half.data[7] = 0.5
    with pytest.raises(DataError, match="got 0.5"):
        cws_signatures(half, np.ones(30), np.arange(4), seed=0)
