"""Quality-diversity view selection and simplex completion."""

import numpy as np
import pytest

from helpers import eager_qd_select, lofo_forest, qd_objective
from wise import lofo
from wise.data_model import ColumnSchema, table_from_raw
from wise.errors import ConfigError, DataError
from wise.forest import ForestParams
from wise.lofo import (
    QdParams,
    TreeCandidate,
    candidates_from_forest,
    complete_weight,
    cosine_distance,
    greedy_select,
    marginal_gain,
    sense_all,
    views_matrix,
)
from wise.pipeline import PipelineConfig
from wise.synth import SynthParams, synth_table

SENSE_PARAMS = ForestParams(T=6, max_depth=8, min_samples_leaf=5, train_sample_frac=0.5)
SENSE_SEED = 11
# the run defaults' explained-row cap and background size
CAPS = {"explain_cap": PipelineConfig().explain_cap, "background_size": PipelineConfig().background}


def cand(uid, quality, s):
    return TreeCandidate(uid=uid, quality=quality, s=np.asarray(s, dtype=float))


def copy_feature_table(n=400, seed=5):
    """Column b is a deterministic copy of column a; column c is noise."""
    rng = np.random.default_rng(seed)
    levels = ["x", "y", "z"]
    rows = [[levels[v], levels[v], rng.random()] for v in rng.integers(0, 3, n)]
    schema = [
        ColumnSchema("a", "nominal"),
        ColumnSchema("b", "nominal"),
        ColumnSchema("c", "numeric"),
    ]
    return table_from_raw(schema, rows)


def test_cosine_distance_conventions():
    assert cosine_distance(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 0.0
    assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == 1.0
    assert cosine_distance(np.zeros(2), np.array([1.0, 1.0])) == 1.0
    assert cosine_distance(np.zeros(2), np.zeros(2)) == 1.0


def test_qd_objective_singleton_is_quality_term():
    assert qd_objective([cand(0, 0.8, [1, 0])], lam=0.5) == pytest.approx(0.4)


def test_qd_objective_two_trees_hand_value():
    # cos(u, v) = 0.5 for a 60 degree angle, so pairwise distance is 0.5
    u = cand(0, 0.8, [1.0, 0.0])
    v = cand(1, 0.6, [0.5, np.sqrt(3) / 2])
    assert qd_objective([u, v], lam=0.5) == pytest.approx(0.6)


def test_qd_objective_lambda_one_is_mean_quality():
    rng = np.random.default_rng(3)
    sel = [cand(i, q, rng.random(4)) for i, q in enumerate([0.2, 0.9, 0.5])]
    assert qd_objective(sel, lam=1.0) == pytest.approx(np.mean([0.2, 0.9, 0.5]))


def test_qd_objective_empty_selection_rejected():
    with pytest.raises(ConfigError, match="empty"):
        qd_objective([], lam=0.5)


def test_marginal_gain_equals_objective_difference():
    rng = np.random.default_rng(41)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        lam = float(rng.random())
        sel = [cand(i, float(rng.random()), rng.random(3)) for i in range(k)]
        extra = cand(99, float(rng.random()), rng.random(3))
        quality_sum = sum(c.quality for c in sel)
        pair_sum = sum(
            cosine_distance(sel[i].s, sel[j].s)
            for i in range(k)
            for j in range(i + 1, k)
        )
        gain = marginal_gain(extra, sel, quality_sum, pair_sum, lam)
        direct = qd_objective(sel + [extra], lam) - qd_objective(sel, lam)
        assert abs(gain - direct) <= 1e-12


def test_marginal_gain_lambda_one_closed_form():
    sel = [cand(0, 0.8, [1, 0]), cand(1, 0.4, [0, 1])]
    extra = cand(2, 0.6, [1, 1])
    gain = marginal_gain(extra, sel, 1.2, 1.0, lam=1.0)
    assert gain == pytest.approx((1.2 + 0.6) / 3 - 1.2 / 2)


def test_marginal_gain_identical_candidate_pure_diversity():
    base = cand(0, 0.5, [1.0, 2.0])
    twin = cand(1, 0.5, [1.0, 2.0])
    assert marginal_gain(twin, [base], 0.5, 0.0, lam=0.0) == pytest.approx(0.0)


def test_marginal_gain_requires_selection():
    with pytest.raises(ConfigError, match="non-empty"):
        marginal_gain(cand(0, 0.5, [1]), [], 0.0, 0.0, 0.5)


def four_candidates():
    return [
        cand(0, 0.9, [1.0, 0.0]),
        cand(1, 0.9, [1.0, 0.0]),
        cand(2, 0.2, [0.0, 1.0]),
        cand(3, 0.2, [1.0, 0.0]),
    ]


def test_greedy_prefers_orthogonal_over_identical():
    # options after the seed: twin gives 0.5*0.9 + 0 = 0.45,
    # orthogonal gives 0.5*0.55 + 0.5*1 = 0.775
    picked = greedy_select(four_candidates(), QdParams(m=2, lam=0.5))
    assert [c.uid for c in picked] == [0, 2]


def test_greedy_m_one_takes_best_quality_lowest_uid():
    picked = greedy_select(four_candidates(), QdParams(m=1, lam=0.5))
    assert [c.uid for c in picked] == [0]


def test_greedy_m_equals_t_exhausts_in_greedy_order():
    picked = greedy_select(four_candidates(), QdParams(m=4, lam=0.5))
    assert sorted(c.uid for c in picked) == [0, 1, 2, 3]
    assert [c.uid for c in picked][:2] == [0, 2]


def test_greedy_rejects_oversized_m():
    with pytest.raises(ConfigError, match="m=5"):
        greedy_select(four_candidates(), QdParams(m=5, lam=0.5))


def test_complete_weight_zero_quality_is_target_indicator():
    w = complete_weight(cand(0, 0.0, [3.0, 1.0]), target=1, d=3)
    assert np.allclose(w, [0.0, 1.0, 0.0])
    assert w[1] == 1.0


def test_complete_weight_full_quality_uniform_attribution():
    w = complete_weight(cand(0, 1.0, np.ones(4)), target=2, d=5)
    assert w[2] == 0.0
    others = [k for k in range(5) if k != 2]
    assert np.allclose(w[others], 0.25)


def test_complete_weight_hand_example():
    w = complete_weight(cand(0, 0.5, [2.0, 2.0]), target=0, d=3)
    assert np.allclose(w, [0.5, 0.25, 0.25])


def test_complete_weight_zero_attribution_keeps_unit_mass_on_target():
    w = complete_weight(cand(0, 0.7, np.zeros(2)), target=1, d=3)
    assert np.allclose(w, [0.0, 1.0, 0.0])


def test_complete_weight_randomized_simplex_and_exact_target_mass():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        target = int(rng.integers(0, d))
        q = float(rng.random())
        s = rng.random(d - 1)
        w = complete_weight(cand(0, q, s), target, d)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w[target] == 1.0 - q


def count_explanations(monkeypatch):
    """Wrap the TreeSHAP aggregate that lofo calls; returns the explained roots."""
    roots = []
    explain = lofo.aggregate_global

    def counted(root, *args):
        roots.append(root)
        return explain(root, *args)

    monkeypatch.setattr(lofo, "aggregate_global", counted)
    return roots


def test_candidates_from_forest_explains_each_tree_once_on_first_read(monkeypatch):
    roots = count_explanations(monkeypatch)
    table = copy_feature_table()
    model, X_inputs = lofo_forest(table, 0, SENSE_PARAMS, SENSE_SEED)
    cands = candidates_from_forest(model, X_inputs, seed=11, **CAPS)
    assert [c.uid for c in cands] == list(range(SENSE_PARAMS.T))
    assert [c.quality for c in cands] == [fit.quality for fit in model.trees]
    assert roots == []
    for c, fit in zip(cands, model.trees):
        s = c.s
        assert c.s is s
        assert roots[-1] is fit.root
        assert s.shape == (2,)
        assert np.all(s >= 0.0)
    assert len(roots) == SENSE_PARAMS.T


def test_lazy_selection_matches_eager_oracle():
    params = ForestParams(T=6, max_depth=6, min_samples_leaf=5, train_sample_frac=0.5)
    mixed, _ = synth_table(SynthParams(n=300, seed=9))
    for table in (copy_feature_table(n=300), mixed):
        for target in range(table.d):
            model, X_inputs = lofo_forest(table, target, params, seed=7 + target)
            for m in (1, 2, params.T):
                qd = QdParams(m=m, lam=0.5)
                picked = greedy_select(candidates_from_forest(model, X_inputs, 7, **CAPS), qd)
                want = eager_qd_select(model, X_inputs, 7, CAPS["explain_cap"],
                                       CAPS["background_size"], qd)
                assert [c.uid for c in picked] == [c.uid for c in want]
                for got, ref in zip(picked, want):
                    assert got.s.dtype == ref.s.dtype and got.s.tobytes() == ref.s.tobytes()


@pytest.mark.parametrize("m", [1, 2, SENSE_PARAMS.T])
def test_sense_all_explains_only_the_trees_selection_reads(monkeypatch, m):
    roots = count_explanations(monkeypatch)
    table, _ = synth_table(SynthParams(n=200, seed=3))
    views = sense_all(table, SENSE_PARAMS, QdParams(m=m, lam=0.5), SENSE_SEED, workers=1, **CAPS)
    assert len(views) == m * table.d
    # m=1 reads only the pick; m >= 2 scores every tree against the seed
    per_target = 1 if m == 1 else SENSE_PARAMS.T
    assert len(roots) == per_target * table.d
    assert len({id(root) for root in roots}) == len(roots)


def test_sense_all_counts_and_ordering():
    table = copy_feature_table()
    views = sense_all(table, SENSE_PARAMS, QdParams(m=2, lam=0.5), SENSE_SEED, **CAPS)
    assert len(views) == table.d * 2
    assert [(v.target, v.rank) for v in views] == [
        (j, r) for j in range(table.d) for r in range(2)
    ]
    assert views_matrix(views).shape == (6, 3)


def test_sense_all_simplex_and_target_mass():
    table = copy_feature_table()
    for view in sense_all(table, SENSE_PARAMS, QdParams(m=2, lam=0.5), SENSE_SEED, **CAPS):
        assert np.all(view.w >= 0.0)
        assert abs(view.w.sum() - 1.0) <= 1e-12
        if view.w[view.target] != 1.0:  # zero-attribution fallback aside
            assert view.w[view.target] == pytest.approx(1.0 - view.quality, abs=1e-15)


def test_sense_all_detects_functional_dependence():
    table = copy_feature_table()
    views = [v for v in sense_all(table, SENSE_PARAMS, QdParams(m=2, lam=0.5), SENSE_SEED, **CAPS) if v.target == 0]
    top = views[0]
    assert top.quality > 0.9
    assert top.w[1] > 0.8
    assert top.w[0] < 0.1


def test_sense_all_worker_count_is_invisible(monkeypatch, tmp_path):
    # each train_forest call appends its tree count to a file, so calls in
    # pool workers count too
    log_path = tmp_path / "trees"
    train = lofo.train_forest

    def counted(*args, **kwargs):
        model = train(*args, **kwargs)
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{len(model.trees)}\n")
        return model

    monkeypatch.setattr(lofo, "train_forest", counted)
    params = ForestParams(T=4, max_depth=6, min_samples_leaf=5, train_sample_frac=0.5)
    mixed, _ = synth_table(SynthParams(n=200, seed=3))
    # the mixed table's columns: 2 numeric, 2 nominal of 6 levels, 3 numeric, 1 nominal
    # of 4 levels; 3 workers cut it at columns 3 and 6, across its target groups
    kinds = ["numeric"] * 2 + ["nominal"] * 2 + ["numeric"] * 3 + ["nominal"]
    assert [col.kind for col in mixed.schema] == kinds
    for table in (copy_feature_table(n=200), mixed):
        runs = []
        for workers in (1, 2, 3):
            log_path.write_text("", encoding="utf-8")
            runs.append(sense_all(table, params, QdParams(m=2, lam=0.5), seed=2, workers=workers,
                                  **CAPS))
            counts = [int(c) for c in log_path.read_text(encoding="utf-8").split()]
            assert sum(counts) == table.d * params.T
            if table is mixed and workers == 1:
                # one call per target group: numeric, 6-level and 4-level nominal targets
                assert counts == [5 * params.T, 2 * params.T, params.T]
        serial = runs[0]
        for pooled in runs[1:]:
            assert len(serial) == len(pooled) == 2 * table.d
            for a, b in zip(serial, pooled):
                assert (a.target, a.tree, a.rank) == (b.target, b.tree, b.rank)
                assert np.float64(a.quality).tobytes() == np.float64(b.quality).tobytes()
                assert a.w.dtype == b.w.dtype and a.w.tobytes() == b.w.tobytes()


def test_sense_all_row_budget_is_invisible(monkeypatch):
    # a budget of two forests splits the 5 numeric targets into calls of 2, 2 and 1
    calls = []
    train = lofo.train_forest

    def counted(X, targets, *args, **kwargs):
        calls.append(list(targets))
        return train(X, targets, *args, **kwargs)

    params = ForestParams(T=4, max_depth=6, min_samples_leaf=5, train_sample_frac=0.5)
    table, _ = synth_table(SynthParams(n=200, seed=3))
    want = sense_all(table, params, QdParams(m=2, lam=0.5), seed=2, workers=1, **CAPS)
    monkeypatch.setattr(lofo, "train_forest", counted)
    monkeypatch.setattr(lofo, "_GROUP_ROWS", 2 * params.T * table.n + 1)
    got = sense_all(table, params, QdParams(m=2, lam=0.5), seed=2, workers=1, **CAPS)
    assert calls == [[0, 1], [4, 5], [6], [2, 3], [7]]
    assert [(v.target, v.tree, v.rank) for v in got] == [(v.target, v.tree, v.rank) for v in want]
    for a, b in zip(got, want):
        assert a.w.tobytes() == b.w.tobytes() and a.quality == b.quality


def test_sense_all_needs_two_columns():
    table = table_from_raw([ColumnSchema("only", "numeric")], [[0.1], [0.9]])
    with pytest.raises(DataError, match="two columns"):
        sense_all(table, SENSE_PARAMS, QdParams(m=1, lam=0.5), SENSE_SEED, **CAPS)


@pytest.mark.parametrize("workers", [1, 2])
def test_sense_all_builds_the_design_matrix_once(monkeypatch, tmp_path, workers):
    # each call appends a line to a file, so calls in pool workers count too
    log_path = tmp_path / "calls"
    build = lofo.design_matrix

    def counted(table):
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write("call\n")
        return build(table)

    monkeypatch.setattr(lofo, "design_matrix", counted)
    table, _ = synth_table(SynthParams(n=200, seed=3))
    params = ForestParams(T=2, max_depth=4, min_samples_leaf=5, train_sample_frac=0.5)
    views = sense_all(table, params, QdParams(m=1, lam=0.5), seed=2, workers=workers, **CAPS)
    assert len(views) == table.d > 2
    assert log_path.read_text(encoding="utf-8").splitlines() == ["call"]


@pytest.mark.parametrize("frac", [1.0, 0.996])   # 0.996 * 120 rounds to 120
def test_full_sample_sensing_is_rejected_before_any_forest_is_trained(monkeypatch, frac):
    def never(*args, **kwargs):
        raise AssertionError("a forest was trained without held-out rows")

    monkeypatch.setattr(lofo, "train_forest", never)
    table = copy_feature_table(n=120)
    params = ForestParams(T=3, max_depth=4, min_samples_leaf=5, train_sample_frac=frac)
    with pytest.raises(ConfigError, match=rf"train_sample_frac={frac} .*n=120"):
        sense_all(table, params, QdParams(m=1, lam=0.5), seed=4, **CAPS)


def test_sensing_with_one_held_out_row_per_tree_is_accepted():
    table = copy_feature_table(n=120)
    params = ForestParams(T=3, max_depth=4, min_samples_leaf=5, train_sample_frac=0.99)
    model, _ = lofo_forest(table, 0, params, seed=4)
    assert all(fit.heldout_rows.size == 1 for fit in model.trees)
    views = sense_all(table, params, QdParams(m=1, lam=0.5), seed=4, **CAPS)
    assert len(views) == table.d
