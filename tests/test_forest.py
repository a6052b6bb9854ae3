"""CART trees and leave-one-feature-out forests."""

import numpy as np
import pytest

from helpers import random_tree, reference_nominal_split, reference_numeric_split
from wise.data_model import ColumnSchema, table_from_raw
from wise.errors import ConfigError, DataError
from wise.forest import (
    ForestParams,
    TreeNode,
    _heldout_quality,
    _nominal_split,
    _numeric_split,
    _target_stats,
    fit_forest,
    predict_tree,
    train_forest,
    train_tree,
)
from wise.treeshap import shap_matrix


def grow_params(**kw):
    base = dict(T=1, max_depth=6, min_samples_leaf=1, train_sample_frac=1.0,
                features_per_split=1.0, seed=0)
    base.update(kw)
    return ForestParams(**base)


def test_forest_params_validation():
    with pytest.raises(ConfigError, match="T must be"):
        ForestParams(T=0)
    with pytest.raises(ConfigError, match="train_sample_frac"):
        ForestParams(train_sample_frac=0.0)
    with pytest.raises(ConfigError, match="min_samples_leaf"):
        ForestParams(min_samples_leaf=0)
    with pytest.raises(ConfigError, match="max_depth"):
        ForestParams(max_depth=-1)
    for frac in (0.0, -1.0, 1.5, 2.0):
        with pytest.raises(ConfigError, match="features_per_split"):
            ForestParams(features_per_split=frac)
    ForestParams(max_depth=0, features_per_split=1.0)


def test_constant_target_gives_single_leaf():
    X = np.linspace(0, 1, 10)[:, None]
    y = np.full(10, 3.25)
    root = train_tree(X, y, grow_params(), np.random.default_rng(0))
    assert root.is_leaf
    assert root.value == 3.25
    assert np.allclose(predict_tree(root, X), 3.25)


def test_perfect_1d_split_builds_a_stump():
    X = np.array([[0.1], [0.2], [0.3], [0.4], [0.6], [0.7], [0.8], [0.9]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    root = train_tree(X, y, grow_params(max_depth=3), np.random.default_rng(0),
                      task="classification", n_classes=2)
    assert not root.is_leaf
    assert root.feature == 0
    assert 0.4 < root.threshold <= 0.6
    assert root.left.is_leaf and root.right.is_leaf
    pred = predict_tree(root, X)
    assert np.array_equal(pred.argmax(axis=1), y)


def test_max_depth_zero_gives_mean_leaf():
    X = np.arange(8, dtype=float)[:, None]
    y = np.arange(8, dtype=float)
    root = train_tree(X, y, grow_params(max_depth=0), np.random.default_rng(0))
    assert root.is_leaf
    assert root.value == pytest.approx(3.5)
    probs = train_tree(X, (y > 3).astype(float), grow_params(max_depth=0),
                       np.random.default_rng(0), task="classification", n_classes=2)
    assert np.allclose(probs.value, [0.5, 0.5])


def test_nominal_split_finds_category_subset():
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 4, 200).astype(float)
    y = np.isin(codes, [0, 2]).astype(np.int64)
    root = train_tree(codes[:, None], y, grow_params(max_depth=2),
                      np.random.default_rng(0), task="classification",
                      is_nominal=np.array([True]), n_classes=2)
    assert root.categories is not None
    side = {int(c) for c in root.categories}
    assert side in ({0, 2}, {1, 3})
    assert np.array_equal(predict_tree(root, codes[:, None]).argmax(axis=1), y)


def test_nominal_split_regression_target():
    rng = np.random.default_rng(2)
    codes = rng.integers(0, 3, 150).astype(float)
    y = np.where(codes == 1, 5.0, 0.0) + rng.normal(0, 0.01, 150)
    root = train_tree(codes[:, None], y, grow_params(max_depth=2, min_samples_leaf=5),
                      np.random.default_rng(0), is_nominal=np.array([True]))
    assert root.categories is not None
    pred = predict_tree(root, codes[:, None])
    assert abs(pred[codes == 1].mean() - 5.0) < 0.1


def both_splits(x, y, task, n_classes, min_leaf):
    """(new, reference) results of the numeric and of the nominal scan on one node."""
    stats = _target_stats(y, task, n_classes)
    return [
        (_numeric_split(x, stats, task, min_leaf), reference_numeric_split(x, y, task, n_classes, min_leaf)),
        (_nominal_split(x, stats, task, min_leaf), reference_nominal_split(x, y, task, n_classes, min_leaf)),
    ]


def random_node(rng, task):
    n = int(rng.integers(2, 80))
    n_classes = int(rng.integers(2, 7))
    if task == "regression":
        y = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), n)
        if rng.random() < 0.3:
            y = np.round(y)                            # tied targets, tied gains
    else:                                              # often misses some classes
        present = rng.choice(n_classes, size=int(rng.integers(1, n_classes + 1)), replace=False)
        y = rng.choice(present, size=n).astype(float)
    levels = int(rng.integers(1, 9))                   # 1 level: a single category
    x = rng.integers(0, levels, n).astype(float) if rng.random() < 0.7 else rng.random(n)
    return x, y, n_classes, int(rng.integers(1, 9))


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_split_scanners_match_reference_oracles(task):
    """Gain, threshold and category set equal the per-task oracles bit for bit."""
    rng = np.random.default_rng(31 if task == "regression" else 32)
    found = {"numeric": [0, 0], "nominal": [0, 0]}    # [no split, split]
    for _ in range(600):
        x, y, n_classes, min_leaf = random_node(rng, task)
        for kind, (got, want) in zip(found, both_splits(x, y, task, n_classes, min_leaf)):
            assert got == want
            found[kind][want is not None] += 1
    assert all(min(counts) > 50 for counts in found.values())

    tied = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    y = np.array([0.0, 1.0, 0.0, 2.0, 2.0, 3.0, 1.0, 1.0])
    cases = [
        (tied, y, 4, 1, True),                                  # tied x values
        (np.full(8, 3.0), y, 4, 1, False),                      # a single category
        (tied, y, 4, 4, False),                                 # min_leaf leaves no cut
        (tied, np.array([1.0, 1, 1, 3, 3, 3, 3, 3]), 5, 1, True),  # classes 0, 2, 4 missing
        (tied, np.full(8, 2.0), 4, 1, False),                   # constant target: gain 0
        (np.array([0.0, 0.0, 1, 1]), np.array([0.0, 1, 0, 1]), 2, 1, False),  # gain exactly 0
    ]
    for x, y, n_classes, min_leaf, splits in cases:
        results = both_splits(x, y, task, n_classes, min_leaf)
        for got, want in results:
            assert got == want
        assert (results[0][1] is not None) == splits


def test_train_tree_rejects_empty_input():
    with pytest.raises(DataError, match="zero rows"):
        train_tree(np.zeros((0, 2)), np.zeros(0), grow_params(), np.random.default_rng(0))


def test_predict_tree_stump():
    leaf0 = TreeNode(n_samples=1, value=0.0)
    leaf1 = TreeNode(n_samples=1, value=1.0)
    stump = TreeNode(n_samples=2, feature=0, threshold=0.5, left=leaf0, right=leaf1)
    assert predict_tree(stump, np.array([[0.2]]))[0] == 0.0
    assert predict_tree(stump, np.array([[0.7]]))[0] == 1.0
    assert predict_tree(stump, np.array([[0.5]]))[0] == 0.0   # ties go left


def test_goes_left_routes_like_predict_tree():
    # threshold and float-coded nominal splits, each leaf valued by its side
    left, right = TreeNode(n_samples=1, value=0.0), TreeNode(n_samples=1, value=1.0)
    numeric = TreeNode(n_samples=2, feature=1, threshold=0.4, left=left, right=right)
    nominal = TreeNode(n_samples=2, feature=0, categories=frozenset({0, 2}), left=left, right=right)
    rng = np.random.default_rng(12)
    X = np.column_stack([rng.integers(0, 4, 100).astype(float), rng.random(100)])
    X[:5, 1] = 0.4
    for node in (numeric, nominal):
        went_left = node.goes_left(X[:, node.feature])
        assert went_left.dtype == bool and went_left.any() and not went_left.all()
        assert np.array_equal(predict_tree(node, X) == 0.0, went_left)
    assert np.array_equal(nominal.goes_left(X[:, 0]), np.isin(X[:, 0], [0.0, 2.0]))
    assert np.all(numeric.goes_left(X[:5, 1]))


def isin_predict(root, X):
    """predict_tree with every nominal split routed by np.isin."""
    out = [None] * X.shape[0]

    def walk(node, idx):
        if node.is_leaf:
            for i in idx:
                out[i] = node.value
            return
        col = X[idx, node.feature]
        if node.categories is None:
            left = col <= node.threshold
        else:
            left = np.isin(col.astype(np.int64), list(node.categories))
        walk(node.left, idx[left])
        walk(node.right, idx[~left])

    walk(root, np.arange(X.shape[0]))
    return np.array(out, dtype=float)


def test_category_lookup_routes_like_isin():
    # codes missing from the set, codes past its largest, negative codes and an empty set
    left, right = TreeNode(n_samples=1, value=0.0), TreeNode(n_samples=1, value=1.0)
    codes = np.arange(-3, 12, dtype=float)
    background = np.array([[0.0], [2.0], [7.0], [11.0]])
    for cats in ({0, 2}, {1}, {3, 5, 6}, {0}, {9}, set()):
        node = TreeNode(n_samples=2, feature=0, categories=frozenset(cats), left=left, right=right)
        want = np.isin(codes.astype(np.int64), list(cats))
        assert np.array_equal(node.goes_left(codes), want)
        assert np.array_equal(predict_tree(node, codes[:, None]), (~want).astype(float))
        # a stump's attribution is its output minus the mean reference output
        phi, base = shap_matrix(node, codes[:, None], background)
        f_z = 1.0 - np.isin(background[:, 0], list(cats))
        assert base == f_z.mean()
        assert np.allclose(phi[:, 0], (~want) - f_z.mean(), rtol=0.0, atol=1e-12)
    with pytest.raises(DataError, match="non-negative"):
        TreeNode(n_samples=2, feature=0, categories=frozenset({-1, 2}))


def test_grown_trees_route_unseen_codes_like_isin():
    # trees grown on codes 0..2 asked about codes 0..5
    rng = np.random.default_rng(31)
    for trial in range(12):
        task, n_classes = ("classification", 3) if trial % 2 else ("regression", 0)
        root, X, is_nominal = random_tree(rng, 4, task, n_classes, depth=5, nominal_frac=0.6)
        probe = X.copy()
        probe[:, is_nominal] = rng.integers(0, 6, (X.shape[0], int(is_nominal.sum())))
        want = isin_predict(root, probe)
        assert np.array_equal(predict_tree(root, probe), want)
        # attributions add up to the isin-routed output
        out = 1 if task == "classification" else None
        phi, base = shap_matrix(root, probe[:20], probe[20:], out)
        if out is not None:
            want = want[:, out]
        assert np.allclose(base + phi.sum(axis=1), want[:20], rtol=0.0, atol=1e-9)


def test_copy_target_forest_has_perfect_quality():
    rng = np.random.default_rng(3)
    labels = [f"g{t}" for t in rng.integers(0, 3, 300)]
    noise = rng.random(300)
    schema = [
        ColumnSchema("a", "nominal"),
        ColumnSchema("b", "nominal"),
        ColumnSchema("n", "numeric"),
    ]
    table = table_from_raw(schema, list(zip(labels, labels, noise)))
    params = ForestParams(T=5, max_depth=6, min_samples_leaf=2,
                          train_sample_frac=0.5, features_per_split=1.0, seed=1)
    model = train_forest(table, target=0, params=params)
    assert model.task == "classification"
    assert model.input_columns.tolist() == [1, 2]
    assert model.quality == [1.0] * 5


def test_noise_target_forest_has_no_quality():
    rng = np.random.default_rng(4)
    schema = [ColumnSchema("a", "numeric"), ColumnSchema("b", "numeric")]
    rows = list(zip(rng.random(400), rng.random(400)))
    params = ForestParams(T=4, max_depth=4, min_samples_leaf=10,
                          train_sample_frac=0.5, seed=2)
    model = train_forest(table_from_raw(schema, rows), target=0, params=params)
    assert model.task == "regression"
    assert all(0.0 <= q < 0.2 for q in model.quality)


def test_forest_shapes_and_determinism():
    rng = np.random.default_rng(5)
    X = rng.random((100, 3))
    y = X[:, 1] * 2.0
    params = ForestParams(T=3, max_depth=4, min_samples_leaf=5,
                          train_sample_frac=0.6, seed=9)
    model = fit_forest(X, y, "regression", params)
    assert len(model.trees) == 3
    for fit in model.trees:
        assert fit.train_rows.size == 60
        assert fit.heldout_rows.size == 40
        assert np.intersect1d(fit.train_rows, fit.heldout_rows).size == 0
    model2 = fit_forest(X, y, "regression", params)
    for a, b in zip(model.trees, model2.trees):
        assert np.array_equal(predict_tree(a.root, X), predict_tree(b.root, X))


def test_train_forest_needs_two_columns():
    table = table_from_raw([ColumnSchema("a", "numeric")], [(0.5,), (0.7,)])
    with pytest.raises(DataError, match="at least two columns"):
        train_forest(table, 0, ForestParams())


def test_heldout_quality_conventions():
    leaf = TreeNode(n_samples=4, value=1.0)
    X = np.zeros((4, 1))
    # R^2 clamps at zero when residuals exceed total variance
    q = _heldout_quality(leaf, X, np.array([10.0, -10.0, 10.0, -10.0]),
                         np.arange(4), "regression")
    assert q == 0.0
    # constant truth: exact hit is 1, miss is 0
    assert _heldout_quality(leaf, X, np.ones(4), np.arange(4), "regression") == 1.0
    assert _heldout_quality(leaf, X, np.zeros(4), np.arange(4), "regression") == 0.0
    # empty held-out set falls back to zero quality
    assert _heldout_quality(leaf, X, np.ones(4), np.arange(0), "regression") == 0.0
