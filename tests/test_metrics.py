"""Clustering metrics against hand values and small brute-force oracles."""

import math
from itertools import permutations

import numpy as np
import pytest

from helpers import numeric_table, reference_swc_scores
from wise.data_model import ColumnSchema, table_from_raw
from wise.errors import DataError
from wise.metrics import (
    acc_hungarian,
    ari,
    contingency,
    evaluate,
    nmi,
    purity,
    _swc_scores,
    swc_gower,
)


def pair_counts(y_pred, y_true):
    """Brute force over all point pairs."""
    n = len(y_pred)
    same_both = same_pred = same_true = 0
    for i in range(n):
        for j in range(i + 1, n):
            p = y_pred[i] == y_pred[j]
            t = y_true[i] == y_true[j]
            same_pred += p
            same_true += t
            same_both += p and t
    return same_both, same_pred, same_true, n * (n - 1) // 2


def ari_oracle(y_pred, y_true):
    I, A, B, N2 = pair_counts(y_pred, y_true)
    den = N2 * (A + B) - 2 * A * B
    return 1.0 if den == 0 else 2 * (N2 * I - A * B) / den


def acc_oracle(y_pred, y_true):
    counts = contingency(y_pred, y_true)
    r, c = counts.shape
    if r <= c:
        best = max(
            sum(counts[i, p[i]] for i in range(r)) for p in permutations(range(c), r)
        )
    else:
        best = max(
            sum(counts[p[j], j] for j in range(c)) for p in permutations(range(r), c)
        )
    return best / counts.sum()


def test_contingency_small_path_counts_and_string_labels():
    counts = contingency(["a", "b", "a", "b", "a"], [1, 1, 2, 2, 1])
    assert counts.tolist() == [[2, 1], [1, 1]]

    counts = contingency(["b", "a", "b", "a", "b"], [2, 1, 1, 2, 2])
    # rows/cols indexed in sorted label order, not first occurrence: a, b / 1, 2
    assert counts.tolist() == [[1, 1], [1, 2]]


def contingency_oracle(y_pred, y_true):
    """Counts via dicts keyed by label, rows and columns in sorted label order."""
    rows = {a: i for i, a in enumerate(sorted(set(y_pred)))}
    cols = {b: j for j, b in enumerate(sorted(set(y_true)))}
    counts = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for a, b in zip(y_pred, y_true):
        counts[rows[a], cols[b]] += 1
    return counts


def test_contingency_large_path_matches_manual_counts():
    rng = np.random.default_rng(2)
    y_pred = rng.integers(0, 4, 200)
    y_true = rng.integers(0, 3, 200)
    counts = contingency(y_pred, y_true)
    expected = np.zeros((4, 3), dtype=np.int64)
    for a, b in zip(y_pred, y_true):
        expected[a, b] += 1
    assert np.array_equal(counts, expected)

    sparse_ids = np.array([-7, 3, 40, 1000])        # not contiguous, one negative
    words = np.array(["zeta", "alpha", "mid", "b"], dtype=object)
    for _ in range(20):
        n = int(rng.integers(1, 200))
        cases = [
            (sparse_ids[rng.integers(0, 4, n)], rng.integers(0, 6, n)),
            (words[rng.integers(0, 4, n)], sparse_ids[rng.integers(0, 4, n)]),
        ]
        for y_pred, y_true in cases:
            counts = contingency(y_pred, y_true)
            assert counts.dtype.kind == "i"
            assert np.array_equal(counts, contingency_oracle(y_pred.tolist(), y_true.tolist()))


def test_contingency_rejects_bad_shapes():
    with pytest.raises(DataError, match="shapes differ"):
        contingency([0, 1], [0, 1, 2])
    with pytest.raises(DataError, match="empty"):
        contingency([], [])


def test_ari_identical_partitions():
    y = [0, 0, 1, 1, 2, 2]
    assert ari(y, y) == 1.0
    assert ari([1, 1, 0, 0, 5, 5], y) == 1.0  # relabeling invariance


def test_ari_constant_prediction_is_chance_level():
    assert ari([0] * 8, [0, 0, 0, 0, 1, 1, 1, 1]) == 0.0


def test_ari_degenerate_denominators():
    assert ari([0, 1, 2], [0, 1, 2]) == 1.0  # all singletons both sides
    assert ari([0], [0]) == 1.0
    assert ari([0, 0, 0], [1, 1, 1]) == 1.0  # both trivial


def test_ari_matches_pair_counting_oracle():
    rng = np.random.default_rng(5)
    fixed = [
        ([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1]),
        ([0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 2, 2]),
        ([0, 0, 0, 1, 1, 2], [2, 2, 1, 1, 0, 0]),
    ]
    for y_pred, y_true in fixed:
        assert ari(y_pred, y_true) == ari_oracle(y_pred, y_true)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        y_pred = rng.integers(0, 4, n).tolist()
        y_true = rng.integers(0, 4, n).tolist()
        assert ari(y_pred, y_true) == ari_oracle(y_pred, y_true)


def test_nmi_identical_partitions():
    y = [0, 0, 1, 1, 2]
    assert nmi(y, y) == pytest.approx(1.0)
    assert nmi([4, 4, 0, 0, 9], y) == pytest.approx(1.0)


def test_nmi_four_point_hand_entropy():
    y_pred = [0, 0, 1, 1]
    y_true = [0, 0, 0, 1]
    hu = math.log(2)
    hv = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    mi = 0.5 * math.log(4 * 2 / (2 * 3)) + 0.25 * math.log(4 * 1 / (2 * 3)) + 0.25 * math.log(4 * 1 / (2 * 1))
    assert nmi(y_pred, y_true) == pytest.approx(mi / math.sqrt(hu * hv), abs=1e-15)


def test_nmi_independent_split_is_zero():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)


def test_nmi_zero_entropy_conventions():
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 1]) == 0.0
    assert nmi([0, 1, 1], [2, 2, 2]) == 0.0


def test_nmi_symmetry_and_random_independence():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 3, 50).tolist()
    b = rng.integers(0, 4, 50).tolist()
    assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
    big_a = rng.integers(0, 2, 10000)
    big_b = rng.integers(0, 2, 10000)
    assert nmi(big_a, big_b) < 0.01


def test_purity_values():
    y = [0, 0, 1, 1]
    assert purity(y, y) == 1.0
    assert purity([0] * 10, [0] * 6 + [1] * 4) == 0.6
    assert purity(list(range(6)), [0, 0, 0, 1, 1, 1]) == 1.0


def test_acc_hungarian_permuted_labels():
    rng = np.random.default_rng(11)
    y = rng.integers(0, 4, 30)
    perm = rng.permutation(4)
    assert acc_hungarian(perm[y], y) == 1.0


def test_acc_hungarian_hand_contingency():
    y_pred = [0, 0, 0, 0, 1, 1, 1, 1]
    y_true = [0, 0, 0, 1, 1, 1, 1, 1]
    assert acc_hungarian(y_pred, y_true) == 0.875


def test_acc_hungarian_matches_injection_oracle():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(4, 25))
        y_pred = rng.integers(0, int(rng.integers(2, 6)), n)
        y_true = rng.integers(0, int(rng.integers(2, 6)), n)
        assert acc_hungarian(y_pred, y_true) == acc_oracle(y_pred, y_true)


def test_swc_separated_blobs_near_one():
    rng = np.random.default_rng(17)
    values = np.concatenate([rng.random(20) * 0.1, 5.0 + rng.random(20) * 0.1])
    table = numeric_table(values)
    y = np.array([0] * 20 + [1] * 20)
    assert swc_gower(table, y) > 0.9


def test_swc_identical_points_zero_by_convention():
    schema = [
        ColumnSchema("num", "numeric"),
        ColumnSchema("cat", "nominal"),
        ColumnSchema("ord", "ordinal", ordered_levels=["lo", "hi"]),
    ]
    table = table_from_raw(schema, [(1.0, "x", "lo")] * 6)
    assert swc_gower(table, [0, 0, 0, 1, 1, 1]) == 0.0


def test_swc_singleton_cluster_contributes_zero():
    table = numeric_table([0.0, 0.1, 5.0])
    # normalized column is [0, 0.02, 1]
    s0 = (1.0 - 0.02) / 1.0
    s1 = (0.98 - 0.02) / 0.98
    expected = (s0 + s1 + 0.0) / 3
    assert swc_gower(table, [0, 0, 1]) == pytest.approx(expected)


def test_swc_needs_two_clusters_and_matching_length():
    table = numeric_table([0.0, 1.0, 2.0])
    with pytest.raises(DataError, match="2 clusters"):
        swc_gower(table, [0, 0, 0])
    with pytest.raises(DataError, match="labels for"):
        swc_gower(table, [0, 1])


def test_swc_subsample_deterministic_per_seed():
    rng = np.random.default_rng(19)
    values = np.concatenate([rng.random(40), 3.0 + rng.random(40)])
    table = numeric_table(values)
    y = np.array([0] * 40 + [1] * 40)
    a = swc_gower(table, y, subsample_size=30, seed=4)
    b = swc_gower(table, y, subsample_size=30, seed=4)
    assert a == b
    full = swc_gower(table, y)
    assert abs(full - a) < 0.3  # subsample estimates the same quantity


def random_gower_case(rng):
    """Schema, raw rows and labels of a mixed table with tied, constant and
    ordinal-like columns, 1-3-level nominals and duplicated rows; K=2..5
    clusters, one of them a singleton."""
    n = int(rng.integers(4, 70))
    schema, cols = [], []
    for a in range(int(rng.integers(1, 4))):
        shape = int(rng.integers(3))
        if shape == 0:
            col = rng.normal(size=n) * 10.0 ** int(rng.integers(-3, 4))
        elif shape == 1:
            col = 3.0 + 0.25 * rng.integers(0, 4, n)    # heavy ties
        else:
            col = np.full(n, 2.5)                          # constant
        schema.append(ColumnSchema(f"num_{a}", "numeric"))
        cols.append(col.tolist())
    for a in range(int(rng.integers(0, 3))):
        levels = [f"l{t}" for t in range(int(rng.integers(1, 5)))]
        schema.append(ColumnSchema(f"ord_{a}", "ordinal", ordered_levels=levels))
        cols.append([levels[t] for t in rng.integers(0, len(levels), n)])
    for a in range(int(rng.integers(0, 3))):
        schema.append(ColumnSchema(f"cat_{a}", "nominal"))
        cols.append([f"v{t}" for t in rng.integers(0, int(rng.integers(1, 4)), n)])
    rows = list(zip(*cols))
    rows += [rows[i] for i in rng.integers(0, n, int(rng.integers(0, n)))]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    K = int(rng.integers(2, 6))
    y = rng.integers(0, K - 1, len(rows))
    y[int(rng.integers(len(rows)))] = K - 1                # a singleton cluster
    return schema, rows, y


def test_swc_matches_pairwise_oracle_on_random_mixed_tables():
    rng = np.random.default_rng(29)
    checked = 0
    for case in range(150):
        schema, rows, y = random_gower_case(rng)
        table = table_from_raw(schema, rows)
        subsample = int(rng.integers(3, table.n)) if case % 3 == 0 else 5000
        seed = int(rng.integers(100))
        try:
            want = reference_swc_scores(table, y, subsample, seed)
        except DataError as exc:
            with pytest.raises(DataError, match=str(exc)):
                swc_gower(table, y, subsample, seed)
            continue
        got = _swc_scores(table, y, subsample, seed)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
        assert abs(swc_gower(table, y, subsample, seed) - want.mean()) <= 1e-12
        checked += 1
    assert checked > 100


def test_swc_exact_results_for_identical_rows_and_singletons():
    rng = np.random.default_rng(31)
    for _ in range(40):
        schema, rows, y = random_gower_case(rng)
        _, yi = np.unique(y, return_inverse=True)
        singleton = np.bincount(yi)[yi] == 1
        scores = _swc_scores(table_from_raw(schema, rows), y, 5000, 0)
        assert np.all(scores[singleton] == 0.0)
        # every row identical: every distance is 0, so every score is exactly 0
        same = _swc_scores(table_from_raw(schema, [rows[0]] * len(rows)), y, 5000, 0)
        assert np.all(same == 0.0)
        # a cluster of copies of one row has intra distance exactly 0: s is 1 or 0
        tight = _swc_scores(table_from_raw(schema, rows + [rows[0]] * 3),
                            np.concatenate([y, [y.max() + 1] * 3]), 5000, 0)
        assert set(tight[-3:].tolist()) <= {0.0, 1.0}


def test_evaluate_report_keys():
    rng = np.random.default_rng(23)
    values = np.concatenate([rng.random(10), 5.0 + rng.random(10)])
    table = numeric_table(values)
    y = [0] * 10 + [1] * 10
    report = evaluate(table, y)
    assert set(report) == {"n", "K_pred", "swc_subsample", "swc"}
    assert report["n"] == 20 and report["K_pred"] == 2
    assert report["swc"] > 0.9

    full = evaluate(table, y, y_true=y)
    assert set(full) == {
        "n", "K_pred", "swc_subsample", "swc", "K_true", "ari", "nmi", "purity", "acc",
    }
    assert full["ari"] == 1.0 and full["acc"] == 1.0


def test_evaluate_swc_none_for_single_cluster():
    table = numeric_table([0.0, 0.5, 1.0])
    report = evaluate(table, [0, 0, 0])
    assert report["swc"] is None
