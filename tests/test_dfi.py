"""Discriminative label-frequency explanations and the mean-recovery identity."""

import logging

import numpy as np
import pytest

from wise.data_model import ColumnSchema, table_from_raw
from wise.dfi import (
    ClusterBitFrequency,
    cluster_bit_frequency,
    cluster_weights,
    compute_explanations,
    consistency_check,
    dfi_scores,
    faithfulness_eval,
    global_ranking,
    instance_weights,
    _macro_f1,
)
from wise.errors import ConfigError, DataError


def freq_of(F):
    return ClusterBitFrequency(F=np.asarray(F, dtype=float))


def random_case(rng, n=60, R=4, k0=5, K=3, d=6):
    L = rng.integers(0, k0, (n, R))
    y = rng.integers(0, K, n)
    y[:K] = np.arange(K)  # every cluster non-empty
    W_views = rng.random((R, d))
    W_views /= W_views.sum(axis=1, keepdims=True)
    return L, y, W_views


def test_frequency_unanimous_and_split():
    L = np.array([[0], [0]])
    F = cluster_bit_frequency(L, np.zeros(2, dtype=int), K=1, k0=2).F
    assert np.allclose(F[0, 0], [1.0, 0.0])

    L = np.array([[0], [1]])
    F = cluster_bit_frequency(L, np.zeros(2, dtype=int), K=1, k0=2).F
    assert np.allclose(F[0, 0], [0.5, 0.5])


def test_frequency_rows_sum_to_one():
    rng = np.random.default_rng(11)
    L, y, _ = random_case(rng)
    F = cluster_bit_frequency(L, y, K=3, k0=5).F
    assert F.shape == (3, 4, 5)
    assert np.allclose(F.sum(axis=2), 1.0)
    assert np.all(F >= 0.0)


def test_frequency_rejects_empty_cluster():
    L = np.zeros((3, 2), dtype=int)
    with pytest.raises(DataError, match=r"empty final clusters \[2\]"):
        cluster_bit_frequency(L, np.array([0, 0, 1]), K=3, k0=2)


def test_dfi_disjoint_clusters_full_margin():
    scores = dfi_scores(freq_of([[[1.0, 0.0]], [[0.0, 1.0]]]))
    assert np.allclose(scores.dfi[0, 0], [1.0, 0.0])
    assert np.allclose(scores.dfi[1, 0], [0.0, 1.0])
    assert scores.credits[0, 0] == 1.0


def test_dfi_identical_rows_no_margin():
    scores = dfi_scores(freq_of([[[0.5, 0.5]], [[0.5, 0.5]], [[0.5, 0.5]]]))
    assert np.all(scores.dfi == 0.0)
    assert np.all(scores.credits == 0.0)


def test_dfi_margin_arithmetic():
    scores = dfi_scores(freq_of([[[0.7, 0.3]], [[0.4, 0.6]]]))
    assert np.allclose(scores.dfi[0, 0], [0.3, 0.0])
    assert np.allclose(scores.dfi[1, 0], [0.0, 0.3])
    assert np.allclose(scores.credits, 0.3)


def test_dfi_competitor_is_best_of_the_rest():
    F = [[[0.5, 0.3, 0.2]], [[0.3, 0.4, 0.3]], [[0.2, 0.3, 0.5]]]
    scores = dfi_scores(freq_of(F))
    assert np.allclose(scores.dfi[0, 0], [0.2, 0.0, 0.0])
    assert np.allclose(scores.dfi[1, 0], [0.0, 0.1, 0.0])
    assert np.allclose(scores.dfi[2, 0], [0.0, 0.0, 0.2])


def test_dfi_shared_maximum_is_a_tie():
    scores = dfi_scores(freq_of([[[0.5, 0.5]], [[0.5, 0.5]], [[0.0, 1.0]]]))
    assert scores.dfi[0, 0, 0] == 0.0
    assert scores.dfi[1, 0, 0] == 0.0


def test_dfi_single_cluster_degenerates_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="wise.dfi"):
        scores = dfi_scores(freq_of([[[0.25, 0.75]]]))
    assert "single cluster" in caplog.text
    assert np.allclose(scores.dfi, [[[0.25, 0.75]]])


def test_dfi_bounds_and_zero_coherence():
    rng = np.random.default_rng(19)
    for _ in range(20):
        L, y, _ = random_case(rng)
        freq = cluster_bit_frequency(L, y, K=3, k0=5)
        scores = dfi_scores(freq)
        assert np.all(scores.dfi >= 0.0)
        assert np.all(scores.dfi <= freq.F + 1e-15)
        assert np.all(scores.dfi[freq.F == 0.0] == 0.0)
        assert np.all(scores.credits >= 0.0)
        assert np.all(scores.credits <= 1.0 + 1e-12)


def test_credits_invariant_to_round_label_renaming():
    rng = np.random.default_rng(23)
    L, y, _ = random_case(rng)
    base = dfi_scores(cluster_bit_frequency(L, y, K=3, k0=5)).credits
    perm = rng.permutation(5)
    renamed = L.copy()
    renamed[:, 2] = perm[L[:, 2]]
    after = dfi_scores(cluster_bit_frequency(renamed, y, K=3, k0=5)).credits
    assert np.max(np.abs(base - after)) <= 1e-12


def test_cluster_weights_single_round_passthrough():
    scores = dfi_scores(freq_of([[[1.0, 0.0]], [[0.0, 1.0]]]))
    W_views = np.array([[0.2, 0.3, 0.5]])
    norm, raw, flags = cluster_weights(scores, W_views)
    assert np.allclose(norm[0], W_views[0])
    assert np.allclose(raw[0], W_views[0])
    assert flags == []


def test_cluster_weights_zero_credit_row_is_flagged():
    scores = dfi_scores(freq_of([[[0.5, 0.5]], [[0.5, 0.5]]]))
    norm, raw, flags = cluster_weights(scores, np.array([[0.4, 0.6]]))
    assert np.all(norm == 0.0) and np.all(raw == 0.0)
    assert flags == [0, 1]


def test_cluster_weights_equal_credits_average_views():
    # one cluster, two rounds, both credits 1
    scores = dfi_scores(freq_of([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]))
    assert np.allclose(scores.credits, 1.0)
    W_views = np.array([[1.0, 0.0], [0.0, 1.0]])
    norm, raw, _ = cluster_weights(scores, W_views)
    assert np.allclose(norm[0], [0.5, 0.5])
    assert np.allclose(raw[0], [1.0, 1.0])


def test_cluster_weights_round_count_mismatch():
    scores = dfi_scores(freq_of([[[1.0, 0.0]], [[0.0, 1.0]]]))
    with pytest.raises(ConfigError, match="1 rounds of credits vs 3"):
        cluster_weights(scores, np.eye(3))


def unbalanced_case():
    """K=2, one round: F1=(0.8,0.2), F2=(0.1,0.9)."""
    L = np.array([[0]] * 8 + [[1]] * 2 + [[0]] * 1 + [[1]] * 9)
    y = np.array([0] * 10 + [1] * 10)
    return L, y


def test_instance_credit_ratio_hand_value():
    L, y = unbalanced_case()
    freq = cluster_bit_frequency(L, y, K=2, k0=2)
    assert np.allclose(freq.F[0, 0], [0.8, 0.2])
    assert np.allclose(freq.F[1, 0], [0.1, 0.9])
    scores = dfi_scores(freq)
    W_views = np.array([[1.0, 0.0]])
    raw, norm = instance_weights(L, y, freq, scores, W_views)
    # member of cluster 0 with label 0: credit (0.8-0.1)/0.8
    assert raw[0, 0] == pytest.approx(0.875)
    assert np.allclose(norm[0], [1.0, 0.0])
    # member of cluster 0 with label 1: DFI is 0 there, so no contribution
    assert np.all(raw[8] == 0.0) and np.all(norm[8] == 0.0)


def test_instance_credit_unanimous_label_is_one():
    L = np.array([[0], [0], [1], [1]])
    y = np.array([0, 0, 1, 1])
    freq = cluster_bit_frequency(L, y, K=2, k0=2)
    scores = dfi_scores(freq)
    W_views = np.array([[0.3, 0.7]])
    raw, norm = instance_weights(L, y, freq, scores, W_views)
    assert np.allclose(raw, [[0.3, 0.7]] * 4)
    assert np.allclose(norm, [[0.3, 0.7]] * 4)


def test_instance_weights_rejects_bad_eps():
    L, y = unbalanced_case()
    freq = cluster_bit_frequency(L, y, K=2, k0=2)
    scores = dfi_scores(freq)
    with pytest.raises(ConfigError, match="eps"):
        instance_weights(L, y, freq, scores, np.array([[1.0, 0.0]]), eps=0.0)


def test_consistency_exact_on_hand_case():
    L, y = unbalanced_case()
    freq = cluster_bit_frequency(L, y, K=2, k0=2)
    scores = dfi_scores(freq)
    W_views = np.array([[1.0, 0.0]])
    raw, _ = instance_weights(L, y, freq, scores, W_views)
    _, cluster_raw, _ = cluster_weights(scores, W_views)
    # identity holds to the last float digit (one rounding of 0.8 - 0.1)
    assert consistency_check(raw, y, cluster_raw) <= 1e-15


def test_consistency_single_member_clusters_exact():
    L = np.array([[0, 1], [1, 0], [2, 2]])
    y = np.array([0, 1, 2])
    expl = compute_explanations(L, y, np.array([[0.6, 0.4], [0.1, 0.9]]), K=3, k0=3)
    assert expl.consistency_deviation == 0.0
    assert np.allclose(expl.W_instance_raw, expl.W_cluster_raw[y])


def test_consistency_randomized_pipelines():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        L, y, W_views = random_case(rng)
        expl = compute_explanations(L, y, W_views, K=3, k0=5)
        worst = max(worst, expl.consistency_deviation)
    assert worst <= 1e-9


def test_explanation_bundle_row_conventions():
    rng = np.random.default_rng(37)
    L, y, W_views = random_case(rng)
    expl = compute_explanations(L, y, W_views, K=3, k0=5)
    assert np.all(expl.W_cluster >= 0.0)
    for j in range(3):
        total = expl.W_cluster[j].sum()
        assert total == pytest.approx(1.0) or (total == 0.0 and j in expl.undiscriminated)
    inst_totals = expl.W_instance.sum(axis=1)
    assert np.all((np.abs(inst_totals - 1.0) < 1e-9) | (inst_totals == 0.0))


def test_global_ranking_weighted_and_stable():
    W = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    ranking, g = global_ranking(W, sizes=np.array([1, 1]))
    assert np.allclose(g, [0.25, 0.5, 0.25])
    assert ranking.tolist() == [1, 0, 2]  # tie 0 vs 2 resolves to the lower index

    ranking, g = global_ranking(W, sizes=np.array([3, 1]))
    assert np.allclose(g, [0.375, 0.5, 0.125])
    assert ranking.tolist() == [1, 0, 2]


def test_macro_f1_hand_value():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 1])
    assert _macro_f1(y_true, y_pred, 2) == pytest.approx((2 / 3 + 0.8) / 2)
    assert _macro_f1(y_true, y_true, 2) == 1.0


def faithfulness_fixture():
    rng = np.random.default_rng(43)
    n = 90
    y = np.repeat(np.arange(3), n // 3)
    levels = ["a", "b", "c"]
    rows = [[levels[c], rng.random(), rng.random()] for c in y]
    schema = [
        ColumnSchema("sig", "nominal"),
        ColumnSchema("n1", "numeric"),
        ColumnSchema("n2", "numeric"),
    ]
    table = table_from_raw(schema, rows)
    W_cluster = np.array([[0.8, 0.1, 0.1]] * 3)
    sizes = np.bincount(y)
    return table, y, W_cluster, sizes


def test_faithfulness_report_structure_and_ordering():
    table, y, W_cluster, sizes = faithfulness_fixture()
    report = faithfulness_eval(table, y, W_cluster, sizes, top_k=[1, 2], trials=4, seed=0)
    assert report["ranking"][0] == 0
    assert len(report["global_weights"]) == 3
    assert set(report["all_features"]) == {"accuracy", "macro_f1"}
    assert [rec["k"] for rec in report["subsets"]] == [1, 2]
    for rec in report["subsets"]:
        assert set(rec) == {"k", "dfi_accuracy", "dfi_macro_f1", "random_accuracy", "random_macro_f1"}
        assert report["all_features"]["accuracy"] + 0.01 >= rec["dfi_accuracy"]
    # the planted signal column alone reproduces the labels; random sets often miss it
    top1 = report["subsets"][0]
    assert top1["dfi_accuracy"] == 1.0
    assert top1["dfi_accuracy"] >= top1["random_accuracy"]


def test_faithfulness_rejects_oversized_k():
    table, y, W_cluster, sizes = faithfulness_fixture()
    with pytest.raises(ConfigError, match="top_k=4"):
        faithfulness_eval(table, y, W_cluster, sizes, top_k=[4])
    with pytest.raises(ConfigError, match="top_k=0"):
        faithfulness_eval(table, y, W_cluster, sizes, top_k=[0])
    with pytest.raises(ConfigError, match="trials=0"):
        faithfulness_eval(table, y, W_cluster, sizes, top_k=[1], trials=0)
