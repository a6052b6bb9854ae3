"""End-to-end pipeline: weight lifting, round clusterings, record embedding,
final clustering, determinism."""

import logging
import multiprocessing
import os

import numpy as np
import pytest

from helpers import one_hot_records, random_mixed_table
from wise import _pool, pipeline, wkfreq
from wise._rng import derive_seed
from wise.bep import BepConfig, encode_table
from wise.data_model import ColumnSchema, table_from_columns
from wise.errors import ConfigError, DataError
from wise.forest import ForestParams
from wise.lofo import FeatureWeightVector, QdParams
from wise.metrics import ari, evaluate
from wise.pipeline import (
    PipelineConfig,
    lift_weights,
    make_views,
    run_wise,
    stage_one,
    stage_two,
)
from wise.synth import SynthParams, synth_table
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
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="eps must be finite and positive"):
            PipelineConfig(eps=eps)
    with pytest.raises(ConfigError, match="alpha0"):
        PipelineConfig(alpha0=1.5)
    with pytest.raises(ConfigError, match="beta0"):
        PipelineConfig(beta0=-0.1)
    for max_iter in (0, -1):
        with pytest.raises(ConfigError, match="max_iter"):
            PipelineConfig(max_iter=max_iter)
    for name in ("explain_cap", "background"):
        with pytest.raises(ConfigError, match="explain_cap and background"):
            PipelineConfig(**{name: 0})


def test_ablation_views_allow_m_above_T():
    # ablation runs train no forest, so m need not fit in one
    config = PipelineConfig(forest=ForestParams(T=1), qd=QdParams(m=2))
    views = make_views(random_mixed_table(np.random.default_rng(1), n=40), config, ablation="gaussian")
    assert len(views) == 2 * 4


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
    L = stage_one(bep, views, PipelineConfig(k0=3, seed=77))
    params = ClusterParams(k=3, alpha=0.4, beta=0.4, max_iter=50,
                           seed=derive_seed(77, "stage1", 0))
    direct = cluster(bep.matrix, params, weights=None)
    assert np.array_equal(L[:, 0], direct.labels)


def test_stage_one_deterministic_and_in_range():
    rng = np.random.default_rng(6)
    table = random_mixed_table(rng, n=80)
    bep = encode_table(table, BepConfig(B=4))
    views = make_views(table, SMALL_CONFIG, ablation="gaussian")
    L1 = stage_one(bep, views, PipelineConfig(k0=4, seed=13))
    L2 = stage_one(bep, views, PipelineConfig(k0=4, seed=13))
    assert np.array_equal(L1, L2)
    assert L1.shape == (80, len(views))
    assert L1.min() >= 0 and L1.max() < 4


def test_stage_one_worker_pool_is_invisible():
    rng = np.random.default_rng(7)
    table = random_mixed_table(rng, n=60)
    bep = encode_table(table, BepConfig(B=4))
    views = make_views(table, SMALL_CONFIG, ablation="gaussian")[:3]
    serial = stage_one(bep, views, PipelineConfig(k0=3, seed=21), workers=1)
    pooled = stage_one(bep, views, PipelineConfig(k0=3, seed=21), workers=3)
    assert np.array_equal(serial, pooled)


def test_stage_one_batching_is_invisible(monkeypatch, caplog):
    # The 24 gaussian views of synth n=2000 seed 19, whose round 16 stops on a
    # 4-cycle, plus a view on the 4-level nominal cat_noise_0 alone: its
    # round has zero-weight groups and 4 distinct codes for k0=6 clusters, so
    # seeding pads and Lloyd repairs empty clusters.  L is the same when each
    # round runs alone, when all rounds run in one batch and with 2 workers.
    table, _ = synth_table(SynthParams(n=2000, seed=19))
    config = PipelineConfig()
    bep = encode_table(table, config.bep)
    views = make_views(table, config, ablation="gaussian")
    j = [c.name for c in table.schema].index("cat_noise_0")
    views.append(FeatureWeightVector(w=np.eye(table.d)[j], target=-1, tree=-1, quality=0.0, rank=0))
    padded = []
    pad_with_rows = wkfreq._pad_with_rows

    def counting(C, *args):
        padded.append(C.shape[0])
        return pad_with_rows(C, *args)

    monkeypatch.setattr(wkfreq, "_pad_with_rows", counting)
    with caplog.at_level(logging.WARNING, logger="wise.wkfreq"):
        want = stage_one(bep, views, config)
    assert "labels alternate among 4 labellings" in caplog.text
    assert np.any(views[-1].w == 0) and padded
    codes = np.unique(bep.matrix[:, slice(*bep.bit_groups[j])].toarray(), axis=0)
    # 4 codes reach all 6 labels only through repairs
    assert len(codes) < config.k0 == len(np.unique(want[:, -1]))
    runs = {}
    for name, budget, workers in [("alone", 1, 1), ("one batch", 1 << 30, 1),
                                  ("2 workers", wkfreq.BATCH_ROWS, 2)]:
        monkeypatch.setattr(wkfreq, "BATCH_ROWS", budget)
        runs[name] = stage_one(bep, views, config, workers=workers)
    for name, got in runs.items():
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def _square(shared, i):
    return shared["base"] * i * i


class _InlinePool:
    """A ProcessPoolExecutor stand-in that records its size and starts no process."""

    sizes = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def map(self, fn, items):
        return map(fn, items)

    def shutdown(self, wait, cancel_futures):
        pass


def test_map_tasks_starts_at_most_count_workers(monkeypatch):
    monkeypatch.setattr(_pool, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_pool, "_shared", None)
    assert _pool.map_tasks(_square, {"base": 2}, list(range(8)), 16) == [2 * i * i for i in range(8)]
    assert _pool.map_tasks(_square, {"base": 3}, list(range(5)), 2) == [3 * i * i for i in range(5)]
    assert _InlinePool.sizes == [7, 1]
    # one task or none runs in this process
    assert _pool.map_tasks(_square, {"base": 1}, [1], 4) == [1]
    assert _pool.map_tasks(_square, {"base": 1}, [], 4) == []
    assert _InlinePool.sizes == [7, 1]
    with _pool.open_pool(1, base=1) as pool:
        assert pool is None


def test_one_pool_serves_every_map_and_forks_once(monkeypatch):
    monkeypatch.setattr(_pool, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_pool, "_shared", None)
    base, late = 5, 7
    with _pool.open_pool(3) as pool:
        assert _pool.map_tasks(_square, {"base": base}, [2], 3, pool) == [20]
        assert _InlinePool.sizes == []   # a map of one task forks nothing
        assert _pool.map_tasks(_square, {"base": base}, [1, 2, 3, 4], 3, pool) == [5, 20, 45, 80]
        assert pool.map(_square, {}, [3, 1]) == [45, 5]
        assert _InlinePool.sizes == [2]
        # the workers hold what was shared at the fork, so nothing new may be shared
        with pytest.raises(RuntimeError, match="after the pool forked"):
            pool.map(_square, {"base": late}, [1, 2])
        with pytest.raises(RuntimeError, match="after the pool forked"):
            pool.map(_square, {"late": late}, [1, 2])
    assert _InlinePool.sizes == [2]


def _task_and_pid(shared, task):
    if task:
        shared["barrier"].wait()   # so each forked process takes one task
    return task, os.getpid()


def test_the_calling_process_runs_the_first_task_and_forks_one_fewer():
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)
    with _pool.open_pool(3, barrier=barrier) as pool:
        maps = [pool.map(_task_and_pid, {}, [0, 1, 2]) for _ in range(2)]
        forked = sorted(child.pid for child in multiprocessing.active_children())
    assert len(forked) == 2
    for results in maps:   # the second map ran on the processes the first forked
        assert [task for task, _ in results] == [0, 1, 2]
        assert results[0][1] == os.getpid()
        assert sorted(pid for _, pid in results[1:]) == forked


@pytest.mark.parametrize("ablation", ["none", "uniform"])
def test_run_wise_forks_one_pool_and_pooling_is_invisible(pools_made, ablation):
    table = random_mixed_table(np.random.default_rng(11), n=120)
    results = []
    for workers in (1, 2):
        pools_made.clear()
        results.append(run_wise(table, SMALL_CONFIG, ablation=ablation, workers=workers))
        # sensing (when it runs) and stage one share one pool; one worker makes none
        assert pools_made == ([1] if workers == 2 else [])
    serial, pooled = results
    assert serial.labels.dtype == pooled.labels.dtype
    assert serial.labels.tobytes() == pooled.labels.tobytes()
    assert serial.L.dtype == pooled.L.dtype and serial.L.tobytes() == pooled.L.tobytes()
    assert [v.w.tobytes() for v in serial.views] == [v.w.tobytes() for v in pooled.views]


def _planted_failure(in_child: bool):
    """``cluster_rounds`` that fails in the forked processes only, or in
    this process only."""
    parent = os.getpid()

    def rounds(*args, **kwargs):
        if (os.getpid() != parent) == in_child:
            raise DataError("planted round failure")
        return wkfreq.cluster_rounds(*args, **kwargs)

    return rounds


def test_round_error_in_a_pool_worker_comes_out_as_data_error(monkeypatch, pools_made):
    # patched before the fork, so the forked process fails its stage-one rounds
    monkeypatch.setattr(pipeline, "cluster_rounds", _planted_failure(in_child=True))
    table = random_mixed_table(np.random.default_rng(12), n=120)
    with pytest.raises(DataError, match="planted round failure") as info:
        run_wise(table, SMALL_CONFIG, workers=2)
    # raised in a forked process: the executor chains its traceback
    assert type(info.value.__cause__).__name__ == "_RemoteTraceback"
    assert pools_made == [1]
    assert multiprocessing.active_children() == []


def test_round_error_in_the_parents_share_propagates_and_reaps_the_pool(monkeypatch, pools_made):
    monkeypatch.setattr(pipeline, "cluster_rounds", _planted_failure(in_child=False))
    table = random_mixed_table(np.random.default_rng(12), n=120)
    with pytest.raises(DataError, match="planted round failure") as info:
        run_wise(table, SMALL_CONFIG, workers=2)
    assert info.value.__cause__ is None   # raised here, not in the forked process
    assert pools_made == [1]   # the forked process is reaped by the autouse fixture's check


def test_parent_error_between_sense_and_stage_one_shuts_the_pool(monkeypatch, pools_made):
    def fail(*args):
        raise ConfigError("planted parent failure")

    monkeypatch.setattr(pipeline, "lift_weights", fail)
    table = random_mixed_table(np.random.default_rng(12), n=120)
    with pytest.raises(ConfigError, match="planted parent failure"):
        run_wise(table, SMALL_CONFIG, workers=2)
    assert pools_made == [1]  # sensing forked it
    assert multiprocessing.active_children() == []


def test_stage_one_requires_views():
    table = random_mixed_table(np.random.default_rng(8), n=30)
    bep = encode_table(table, BepConfig(B=4))
    with pytest.raises(ConfigError, match="at least one view"):
        stage_one(bep, [], PipelineConfig(k0=2, seed=0))


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


def test_stage_two_rejects_records_out_of_range():
    for bad in (3, -1):
        L = np.array([[0, 1], [2, bad]])
        with pytest.raises(DataError, match="0..k0-1"):
            stage_two(L, PipelineConfig(k0=3, K=2, seed=0))


def test_stage_two_reproduces_shared_partition():
    rng = np.random.default_rng(9)
    common = rng.integers(0, 3, 90)
    common[:3] = [0, 1, 2]
    L = np.tile(common[:, None], (1, 5))
    y = stage_two(L, PipelineConfig(k0=3, K=3, seed=31))
    assert ari(y, common) == 1.0


def test_stage_two_single_cluster():
    y = stage_two(np.array([[0], [1], [2]]), PipelineConfig(k0=3, K=1, seed=0))
    assert np.array_equal(y, [0, 0, 0])


def test_stage_two_distinct_rows_become_singletons():
    y = stage_two(np.arange(4)[:, None], PipelineConfig(k0=4, K=4, seed=3))
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


DEGENERATE_KINDS = ("numeric", "constant", "two-valued", "nominal", "single nominal",
                    "ordinal", "single ordinal", "duplicate")


def degenerate_table(rng):
    """A table of 3 to 60 rows and 2 to 4 columns of degenerate kinds, and the
    kinds it holds; about a third of the tables copy at most three rows."""
    n, d = int(rng.integers(3, 61)), int(rng.integers(2, 5))
    schema, cols, kinds = [], [], []
    for a in range(d):
        kind = DEGENERATE_KINDS[int(rng.integers(len(DEGENERATE_KINDS) - (a == 0)))]
        if kind == "duplicate":  # the column before, under another name
            schema.append(ColumnSchema(f"c{a}", schema[-1].kind, schema[-1].ordered_levels))
            cols.append(cols[-1])
        elif kind in ("numeric", "constant", "two-valued"):
            values = {"numeric": lambda: np.round(rng.random(n), 1),
                      "constant": lambda: np.full(n, 2.5),
                      "two-valued": lambda: rng.choice([-1.0, 4.0], n)}[kind]()
            schema.append(ColumnSchema(f"c{a}", "numeric"))
            cols.append(values.tolist())
        elif kind in ("nominal", "single nominal"):
            levels = int(rng.integers(2, 5)) if kind == "nominal" else 1
            schema.append(ColumnSchema(f"c{a}", "nominal"))
            cols.append([f"v{t}" for t in rng.integers(0, levels, n)])
        else:
            order = ["lo", "mid", "hi"] if kind == "ordinal" else ["only"]
            schema.append(ColumnSchema(f"c{a}", "ordinal", order))
            cols.append([order[t] for t in rng.integers(0, len(order), n)])
        kinds.append(kind)
    if rng.random() < 0.3:
        idx = rng.integers(0, int(rng.integers(1, 4)), n)
        cols = [[col[i] for i in idx] for col in cols]
        kinds.append("duplicate rows")
    return table_from_columns(schema, cols), kinds


def test_degenerate_tables_return_or_raise_clean_errors():
    """run_wise and evaluate return, or raise ConfigError or DataError (too few
    rows, empty final clusters), on every table; RuntimeWarnings are errors."""
    config = PipelineConfig()
    seen, returned = set(), 0
    for seed in range(48):
        rng = np.random.default_rng(seed)
        table, kinds = degenerate_table(rng)
        seen.update(kinds)
        try:
            result = run_wise(table, config)
        except (ConfigError, DataError):
            continue
        y = result.labels
        assert y.shape == (table.n,) and 0 <= y.min() and y.max() < config.K
        assert result.explanations.consistency_deviation <= 1e-9
        try:
            report = evaluate(table, y, rng.integers(0, 3, table.n), seed=seed)
        except (ConfigError, DataError):
            continue
        assert report["n"] == table.n
        returned += 1
    assert seen == set(DEGENERATE_KINDS) | {"duplicate rows"}
    assert returned >= 40
