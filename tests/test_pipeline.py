"""End-to-end pipeline: weight lifting, round clusterings, record embedding,
final clustering, determinism."""

import numpy as np
import pytest

from helpers import random_mixed_table
from wise._rng import derive_seed
from wise.bep import BepConfig, encode_table
from wise.errors import ConfigError, DataError
from wise.forest import ForestParams
from wise.lofo import QdParams
from wise.metrics import ari
from wise.pipeline import (
    PipelineConfig,
    lift_weights,
    make_views,
    one_hot_records,
    run_wise,
    stage_one,
    stage_two,
)
from wise.wkfreq import ClusterParams, cluster

SMALL_CONFIG = PipelineConfig(
    bep=BepConfig(B=4),
    forest=ForestParams(T=4, max_depth=6, min_samples_leaf=5, train_sample_frac=0.5),
    qd=QdParams(m=2, lam=0.5),
    k0=4,
    K=2,
    seed=99,
)


def test_lift_uniform_weights_equal_widths():
    omega = lift_weights(np.full(3, 1 / 3), [(0, 4), (4, 8), (8, 12)])
    assert np.allclose(omega, 1 / 3)
    assert omega.shape == (12,)


def test_lift_indicator_marks_one_group():
    omega = lift_weights(np.array([0.0, 1.0, 0.0]), [(0, 4), (4, 8), (8, 12)])
    assert np.all(omega[4:8] == 1.0)
    assert np.all(omega[:4] == 0.0) and np.all(omega[8:] == 0.0)


def test_lift_unequal_group_widths_not_renormalized():
    omega = lift_weights(np.array([0.25, 0.75]), [(0, 8), (8, 12)])
    assert np.all(omega[:8] == 0.25)
    assert np.all(omega[8:] == 0.75)
    assert omega.sum() == pytest.approx(8 * 0.25 + 4 * 0.75)


def test_lift_rejects_bad_shapes_and_gaps():
    with pytest.raises(ConfigError, match="2 weights for 3"):
        lift_weights(np.array([0.5, 0.5]), [(0, 2), (2, 4), (4, 6)])
    with pytest.raises(ConfigError, match="partition"):
        lift_weights(np.array([0.5, 0.5]), [(0, 2), (3, 5)])


def test_pipeline_config_validation():
    with pytest.raises(ConfigError, match="k0 and K"):
        PipelineConfig(k0=0)
    with pytest.raises(ConfigError, match="k0 and K"):
        PipelineConfig(K=0)
    with pytest.raises(ConfigError, match="eps"):
        PipelineConfig(eps=0.0)
    with pytest.raises(ConfigError, match="alpha0"):
        PipelineConfig(alpha0=1.5)
    with pytest.raises(ConfigError, match="beta0"):
        PipelineConfig(beta0=-0.1)
    for name in ("explain_cap", "background"):
        with pytest.raises(ConfigError, match="explain_cap and background"):
            PipelineConfig(**{name: 0})


def test_uniform_ablation_views():
    table = random_mixed_table(np.random.default_rng(1), n=40)
    views = make_views(table, SMALL_CONFIG, ablation="uniform")
    assert len(views) == table.d * 2
    assert [(v.target, v.rank) for v in views] == [
        (j, r) for j in range(table.d) for r in range(2)
    ]
    for v in views:
        assert np.allclose(v.w, 1.0 / table.d)
        assert v.tree == -1


def test_gaussian_ablation_views_simplex_and_deterministic():
    table = random_mixed_table(np.random.default_rng(2), n=40)
    a = make_views(table, SMALL_CONFIG, ablation="gaussian")
    b = make_views(table, SMALL_CONFIG, ablation="gaussian")
    assert len(a) == table.d * 2
    for va, vb in zip(a, b):
        assert np.array_equal(va.w, vb.w)
        assert np.all(va.w >= 0.0)
        assert va.w.sum() == pytest.approx(1.0)
    assert not np.array_equal(a[0].w, a[1].w)


def test_make_views_rejects_unknown_ablation():
    table = random_mixed_table(np.random.default_rng(3), n=40)
    with pytest.raises(ConfigError, match="ablation"):
        make_views(table, SMALL_CONFIG, ablation="shuffled")


def uniform_view(d):
    views = [v for v in make_views(random_mixed_table(np.random.default_rng(4), n=30,
                                                      numeric=d - 1, nominal=1),
                                   SMALL_CONFIG, ablation="uniform")]
    return views[:1]


def test_stage_one_uniform_view_equals_unweighted_run():
    rng = np.random.default_rng(5)
    table = random_mixed_table(rng, n=100)
    bep = encode_table(table, BepConfig(B=4))
    views = uniform_view(table.d)
    L, centers = stage_one(bep, views, k0=3, alpha0=0.4, beta0=0.4, seed=77)
    params = ClusterParams(k=3, alpha=0.4, beta=0.4, max_iter=50,
                           seed=derive_seed(77, "stage1", 0))
    direct = cluster(bep.matrix, params, weights=None)
    assert np.array_equal(L[:, 0], direct.labels)
    assert len(centers) == 1


def test_stage_one_deterministic_and_in_range():
    rng = np.random.default_rng(6)
    table = random_mixed_table(rng, n=80)
    bep = encode_table(table, BepConfig(B=4))
    views = make_views(table, SMALL_CONFIG, ablation="gaussian")
    L1, _ = stage_one(bep, views, k0=4, alpha0=0.4, beta0=0.4, seed=13)
    L2, _ = stage_one(bep, views, k0=4, alpha0=0.4, beta0=0.4, seed=13)
    assert np.array_equal(L1, L2)
    assert L1.shape == (80, len(views))
    assert L1.min() >= 0 and L1.max() < 4


def test_stage_one_worker_pool_is_invisible():
    rng = np.random.default_rng(7)
    table = random_mixed_table(rng, n=60)
    bep = encode_table(table, BepConfig(B=4))
    views = make_views(table, SMALL_CONFIG, ablation="gaussian")[:3]
    serial, _ = stage_one(bep, views, k0=3, alpha0=0.4, beta0=0.4, seed=21, workers=1)
    pooled, _ = stage_one(bep, views, k0=3, alpha0=0.4, beta0=0.4, seed=21, workers=3)
    assert np.array_equal(serial, pooled)


def test_stage_one_requires_views():
    table = random_mixed_table(np.random.default_rng(8), n=30)
    bep = encode_table(table, BepConfig(B=4))
    with pytest.raises(ConfigError, match="at least one view"):
        stage_one(bep, [], k0=2, alpha0=0.4, beta0=0.4, seed=0)


def test_one_hot_block_offsets():
    Z = one_hot_records(np.array([[0, 2]]), k0=3)
    assert Z.shape == (1, 6)
    assert sorted(Z.indices.tolist()) == [0, 5]


def test_one_hot_row_weight_and_identical_rows():
    L = np.array([[1, 0], [1, 0], [2, 2]])
    Z = one_hot_records(L, k0=3).toarray()
    assert np.all(Z.sum(axis=1) == 2)
    assert np.array_equal(Z[0], Z[1])
    assert not np.array_equal(Z[0], Z[2])


def test_one_hot_rejects_out_of_range():
    with pytest.raises(DataError, match="0..k0-1"):
        one_hot_records(np.array([[3]]), k0=3)


def test_stage_two_reproduces_shared_partition():
    rng = np.random.default_rng(9)
    common = rng.integers(0, 3, 90)
    common[:3] = [0, 1, 2]
    L = np.tile(common[:, None], (1, 5))
    Z = one_hot_records(L, k0=3)
    y = stage_two(Z, K=3, alpha=0.4, beta=0.4, seed=31)
    assert ari(y, common) == 1.0


def test_stage_two_single_cluster():
    Z = one_hot_records(np.array([[0], [1], [2]]), k0=3)
    y = stage_two(Z, K=1, alpha=0.4, beta=0.4, seed=0)
    assert np.array_equal(y, [0, 0, 0])


def test_stage_two_distinct_rows_become_singletons():
    Z = one_hot_records(np.arange(4)[:, None], k0=4)
    y = stage_two(Z, K=4, alpha=0.4, beta=0.4, seed=3)
    assert sorted(y.tolist()) == [0, 1, 2, 3]


def planted_small():
    rng = np.random.default_rng(10)
    from wise.data_model import ColumnSchema, table_from_raw

    n = 120
    y = np.repeat(np.arange(2), n // 2)
    levels = ["u", "v"]
    rows = [
        [levels[c], 0.25 + 0.5 * c + 0.05 * rng.standard_normal(), rng.random()]
        for c in y
    ]
    schema = [
        ColumnSchema("sig_cat", "nominal"),
        ColumnSchema("sig_num", "numeric"),
        ColumnSchema("noise", "numeric"),
    ]
    return table_from_raw(schema, rows), y


def test_run_wise_smoke_shapes_and_determinism():
    table, truth = planted_small()
    res1 = run_wise(table, SMALL_CONFIG)
    res2 = run_wise(table, SMALL_CONFIG)
    R = table.d * SMALL_CONFIG.qd.m
    assert res1.labels.shape == (table.n,)
    assert res1.L.shape == (table.n, R)
    assert len(res1.views) == R
    assert len(res1.round_centers) == R
    assert np.array_equal(res1.labels, res2.labels)
    assert np.array_equal(res1.L, res2.L)
    assert res1.explanations.consistency_deviation <= 1e-9
    assert ari(res1.labels, truth) > 0.5
    assert res1.explanations.W_cluster.shape == (2, table.d)
    assert res1.explanations.W_instance.shape == (table.n, table.d)


def test_run_wise_uniform_ablation_path():
    table, truth = planted_small()
    res = run_wise(table, SMALL_CONFIG, ablation="uniform")
    assert res.labels.shape == (table.n,)
    for v in res.views:
        assert np.allclose(v.w, 1.0 / table.d)
