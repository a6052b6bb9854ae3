"""CART trees and leave-one-feature-out forests."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from helpers import (
    RefNode,
    lofo_forest,
    predict_tree,
    random_tree,
    reference_fit_forest,
    reference_impurity,
    reference_nominal_split,
    reference_numeric_split,
    reference_train_tree,
)
from wise import forest, lofo
from wise._rng import derive_seeds
from wise.data_model import ColumnSchema, design_matrix, table_from_raw
from wise.errors import ConfigError, DataError
from wise.forest import (
    ForestModel,
    ForestParams,
    _heldout_quality,
    _pure,
    _scan_categories,
    _scan_thresholds,
    _segment_means,
    _target_stats,
    train_forest,
    train_tree,
)
from wise.lofo import QdParams, sense_all
from wise.synth import SynthParams, synth_table
from wise.treeshap import shap_matrix


def grow_params(**kw):
    base = dict(T=1, max_depth=6, min_samples_leaf=1, train_sample_frac=1.0,
                features_per_split=1.0)
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
    root, _ = train_tree(X, y, grow_params(), 0)
    assert root.is_leaf
    assert root.value == 3.25
    assert np.allclose(predict_tree(root, X), 3.25)


def test_perfect_1d_split_builds_a_stump():
    X = np.array([[0.1], [0.2], [0.3], [0.4], [0.6], [0.7], [0.8], [0.9]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    root, _ = train_tree(X, y, grow_params(max_depth=3), 0,
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
    root, _ = train_tree(X, y, grow_params(max_depth=0), 0)
    assert root.is_leaf
    assert root.value == pytest.approx(3.5)
    probs, _ = train_tree(X, (y > 3).astype(float), grow_params(max_depth=0),
                          0, task="classification", n_classes=2)
    assert np.allclose(probs.value, [0.5, 0.5])


def test_nominal_split_finds_category_subset():
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 4, 200).astype(float)
    y = np.isin(codes, [0, 2]).astype(np.int64)
    root, _ = train_tree(codes[:, None], y, grow_params(max_depth=2),
                         0, task="classification",
                         is_nominal=np.array([True]), n_classes=2)
    assert root.categories is not None
    side = {int(c) for c in root.categories}
    assert side in ({0, 2}, {1, 3})
    assert np.array_equal(predict_tree(root, codes[:, None]).argmax(axis=1), y)


def test_nominal_split_regression_target():
    rng = np.random.default_rng(2)
    codes = rng.integers(0, 3, 150).astype(float)
    y = np.where(codes == 1, 5.0, 0.0) + rng.normal(0, 0.01, 150)
    root, _ = train_tree(codes[:, None], y, grow_params(max_depth=2, min_samples_leaf=5),
                         0, is_nominal=np.array([True]))
    assert root.categories is not None
    pred = predict_tree(root, codes[:, None])
    assert abs(pred[codes == 1].mean() - 5.0) < 0.1


def scan_nodes(nodes, task, n_classes, min_leaf):
    """Both batched scans of (x, y) nodes, all scanned at once.

    Per node: (threshold split, category split), each (gain, threshold,
    category set) or None, the form of the reference oracles.
    """
    size = np.array([x.size for x, _ in nodes])
    first = size.cumsum() - size
    stats = _target_stats(np.concatenate([y for _, y in nodes]), task, n_classes)
    stats = np.vstack([stats, np.zeros((1, stats.shape[1]))])
    rows = np.full((len(nodes), size.max()), size.sum())
    values = np.full(rows.shape, np.nan)
    for p, (x, _) in enumerate(nodes):
        order = x.argsort(kind="stable")
        rows[p, :x.size] = first[p] + order
        values[p, :x.size] = x[order]
    gain, threshold = _scan_thresholds(rows, values, size, stats, task, min_leaf)
    pair = np.repeat(np.arange(len(nodes)), size)
    codes = np.concatenate([x for x, _ in nodes]).astype(np.int64)
    cat_gain, cuts = _scan_categories(pair, codes, np.arange(size.sum()), len(nodes), stats,
                                      task, min_leaf, int(codes.max()) + 1)
    out = []
    for p in range(len(nodes)):
        num = (float(gain[p]), float(threshold[p]), None) if gain[p] > -np.inf else None
        cat = None
        if cat_gain[p] > -np.inf:
            cat = (float(cat_gain[p]), None, frozenset((np.flatnonzero(cuts[p]) - 1).tolist()))
        out.append((num, cat))
    return out


def oracles(x, y, task, n_classes, min_leaf):
    return (reference_numeric_split(x, y, task, n_classes, min_leaf),
            reference_nominal_split(x, y, task, n_classes, min_leaf))


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
    """Gain, threshold and category set equal the per-task oracles bit for bit,
    for nodes scanned one at a time and for nodes of mixed sizes scanned at once."""
    rng = np.random.default_rng(31 if task == "regression" else 32)
    found = {"numeric": [0, 0], "nominal": [0, 0]}    # [no split, split]
    nodes = []
    for _ in range(600):
        x, y, n_classes, min_leaf = random_node(rng, task)
        nodes.append((x, y))
        want = oracles(x, y, task, n_classes, min_leaf)
        assert scan_nodes([(x, y)], task, n_classes, min_leaf) == [want]
        for kind, split in zip(found, want):
            found[kind][split is not None] += 1
    assert all(min(counts) > 50 for counts in found.values())
    # one batch: every class count up to the largest drawn, so some always miss
    for min_leaf in (1, 4):
        want = [oracles(x, y, task, 6, min_leaf) for x, y in nodes]
        assert scan_nodes(nodes, task, 6, min_leaf) == want

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
    if task == "regression":
        # a target sum whose square rounds differently as a scalar power and as
        # x * x, in a gain that keeps the difference
        y = np.array([8.9403, 8.9365, 8.9327, 8.928])
        total = y.cumsum()[-1]
        assert total ** 2 != total * total
        cases.append((np.arange(4.0), y, 0, 1, True))
    for min_leaf in (1, 4):
        batch = scan_nodes([(x, y) for x, y, _, _, _ in cases], task, 5, min_leaf)
        assert batch == [oracles(x, y, task, 5, min_leaf) for x, y, _, _, _ in cases]
    for x, y, n_classes, min_leaf, splits in cases:
        want = oracles(x, y, task, n_classes, min_leaf)
        assert scan_nodes([(x, y)], task, n_classes, min_leaf) == [want]
        assert (want[0] is not None) == splits


def node_fields(root):
    """Every node's fields in preorder, floats as their bytes."""
    out, pending = [], [root]
    while pending:
        node = pending.pop()
        value = node.value
        out.append((
            node.n_samples, type(node.n_samples), node.feature, type(node.feature),
            None if node.threshold is None else np.float64(node.threshold).tobytes(),
            None if node.categories is None else sorted(node.categories),
            type(value), None if value is None else np.asarray(value, dtype=np.float64).tobytes(),
        ))
        if not node.is_leaf:
            pending += [node.right, node.left]
    return out


def assert_same_forest(got, want):
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        assert node_fields(a.root) == node_fields(b.root)
        assert np.float64(a.quality).tobytes() == np.float64(b.quality).tobytes()
        assert np.array_equal(a.train_rows, b.train_rows)
        assert np.array_equal(a.heldout_rows, b.heldout_rows)
        assert a.majority_class == b.majority_class


def train_one_forest(X, y, task, params, seed, is_nominal=None, n_classes=0):
    """``train_forest`` for one target y predicted from every column of X: y
    joins the design matrix as its last column."""
    d = X.shape[1]
    nominal = np.zeros(d, dtype=bool) if is_nominal is None else is_nominal
    return train_forest(np.column_stack([X, y]), [d], task, params, [seed],
                        np.append(nominal, task == "classification"), n_classes)


def mixed_inputs(rng, n, task):
    """Continuous, tied, ordinal and nominal inputs; a target that misses classes."""
    X = np.column_stack([
        rng.random(n),                                 # continuous
        np.round(rng.random(n), 1),                    # tied values
        rng.integers(0, 5, n).astype(float),           # ordinal levels
        rng.integers(0, 6, n).astype(float),           # nominal codes
        (rng.random(n) < 0.1).astype(float),           # a rare nominal code
    ])
    is_nominal = np.array([False, False, False, True, True])
    signal = X[:, 0] + X[:, 2] / 4 + (X[:, 3] % 2)
    if task == "classification":
        y = np.array([1.0, 3.0, 4.0])[np.digitize(signal + rng.normal(0, 0.3, n), [1.0, 1.8])]
        return X, y, is_nominal, 6
    return X, np.round(signal + rng.normal(0, 0.2, n), 2), is_nominal, 0


@pytest.mark.parametrize("T", [1, 7, 20])
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_lockstep_forest_matches_per_node_grower(task, T):
    """Every tree, node field and quality equals the one-tree, one-node grower's."""
    rng = np.random.default_rng(40 + T)
    X, y, is_nominal, n_classes = mixed_inputs(rng, 150, task)
    for min_leaf, max_depth, frac in [(1, 3, 0.5), (5, 20, 0.5), (1, 0, 0.5),
                                      (1, 20, 1.0), (5, 3, 0.7)]:
        params = ForestParams(T=T, max_depth=max_depth, min_samples_leaf=min_leaf,
                              train_sample_frac=frac)
        args = (X, y, task, params, T + min_leaf, is_nominal, n_classes)
        assert_same_forest(train_one_forest(*args), reference_fit_forest(*args))
        tree, _ = train_tree(X, y, params, min_leaf, task, is_nominal,
                             n_classes)
        want = reference_train_tree(X, y, params, min_leaf, task,
                                    is_nominal, n_classes)
        assert node_fields(tree) == node_fields(want)


def reference_routing(root, X, task):
    """Each row's prediction by the reference router: the value of the leaf it
    reaches, or that leaf's first most probable class."""
    out = predict_tree(root, X)
    return out.argmax(axis=1) if task == "classification" else out


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_train_tree_predictions_are_the_reference_routing(task):
    """The grower's prediction of every row equals the reference router's, bit for bit."""
    rng = np.random.default_rng(50)
    X, y, is_nominal, n_classes = mixed_inputs(rng, 150, task)
    for min_leaf, max_depth in [(1, 6), (5, 6), (1, 0), (5, 0), (1, 20), (5, 20)]:
        params = grow_params(max_depth=max_depth, min_samples_leaf=min_leaf)
        root, pred = train_tree(X, y, params, min_leaf, task, is_nominal,
                                n_classes)
        routed = reference_routing(root, X, task)
        assert pred.dtype == routed.dtype and pred.tobytes() == routed.tobytes()
        assert root.is_leaf == (max_depth == 0)


def test_lockstep_lofo_forests_match_per_node_grower():
    # deep-sense settings on a synth table: a regression and a classification target
    table = synth_table(SynthParams(n=400, seed=4))[0]
    X, is_nominal = design_matrix(table)
    params = ForestParams(T=20, min_samples_leaf=5, train_sample_frac=0.5)
    for target in (0, int(np.flatnonzero(is_nominal)[0])):
        model, X_inputs = lofo_forest(table, target, params, seed=8)
        inputs = np.arange(table.d) != target
        n_classes = table.schema[target].n_levels() if model.task == "classification" else 0
        want = reference_fit_forest(X_inputs, X[:, target], model.task, params, 8,
                                    is_nominal[inputs], n_classes)
        assert_same_forest(model, want)


def grouped_design(rng, n):
    """Regression targets in the first, a middle and the last column; two
    nominal columns of 6 classes; a two-class nominal column."""
    X = np.column_stack([
        rng.random(n),                                 # 0 continuous
        rng.integers(0, 6, n).astype(float),           # 1 nominal, 6 classes
        np.round(rng.random(n), 1),                    # 2 tied values
        rng.integers(0, 5, n).astype(float),           # 3 ordinal levels
        rng.integers(0, 6, n).astype(float),           # 4 nominal, 6 classes
        (rng.random(n) < 0.2).astype(float),           # 5 nominal, 2 classes
        np.zeros(n),                                   # 6 signal
    ])
    X[:, 4] = np.where(rng.random(n) < 0.7, (X[:, 1] + 2 * (X[:, 0] > 0.5)) % 6, X[:, 4])
    X[:, 6] = np.round(X[:, 0] + X[:, 3] / 4 + (X[:, 1] % 2) + rng.normal(0, 0.2, n), 2)
    X[:, 0] = np.where(rng.random(n) < 0.8, X[:, 6] / 3, X[:, 0])
    is_nominal = np.array([False, True, False, False, True, True, False])
    return X, is_nominal, [0, 6, 0, 0, 6, 2, 0]


@pytest.mark.parametrize("T", [1, 7])
def test_grouped_forests_match_per_target_forests(T):
    """One train_forest call over a target group grows, for every target, the
    trees the per-node grower grows on that target's own input columns."""
    rng = np.random.default_rng(70 + T)
    n = 150
    X, is_nominal, n_classes = grouped_design(rng, n)
    groups = [([0, 3, 6], "regression"), ([1, 4], "classification"), ([6], "regression"),
              ([5], "classification")]
    # the last setting holds out one row per tree
    settings = [(1, 20, 0.5), (5, 3, 0.7), (2, 6, 0.995)]
    assert ForestParams(train_sample_frac=0.995).sample_size(n) == n - 1
    for min_leaf, max_depth, frac in settings:
        params = ForestParams(T=T, max_depth=max_depth, min_samples_leaf=min_leaf,
                              train_sample_frac=frac)
        for targets, task in groups:
            C = n_classes[targets[0]]
            assert all(n_classes[j] == C for j in targets)
            seeds = [100 * min_leaf + j for j in targets]
            model = train_forest(X, targets, task, params, seeds, is_nominal, C)
            assert model.task == task and len(model.trees) == len(targets) * T
            for k, (j, seed) in enumerate(zip(targets, seeds)):
                inputs = np.arange(X.shape[1]) != j
                want = reference_fit_forest(X[:, inputs], X[:, j], task, params, seed,
                                            is_nominal[inputs], C)
                assert_same_forest(ForestModel(model.trees[k * T:(k + 1) * T], task), want)


class ShuffledGrower(forest._Grower):
    """A grower that splits a random non-empty subset of the pending nodes
    per step, in random order, by the generator ``visit``; the rest stay
    pending alongside the new children, so a step mixes depths and trees."""

    visit = None

    def _step(self, ids):
        ids = self.visit.permutation(ids)
        k = int(self.visit.integers(1, ids.size + 1))
        return np.concatenate([ids[k:], super()._step(ids[:k])])


@pytest.mark.parametrize("T", [1, 7])
def test_trees_do_not_depend_on_visit_order(monkeypatch, T):
    """Every tree of a lockstep call equals the tree grown alone from its rows
    and key, the tree of a one-target call, and the tree grown with its
    nodes visited in random order and random batches."""
    rng = np.random.default_rng(60 + T)
    n = 150
    X, is_nominal, n_classes = grouped_design(rng, n)
    groups = [([0, 3, 6], "regression"), ([1, 4], "classification"), ([5], "classification")]
    params = ForestParams(T=T, max_depth=8, min_samples_leaf=2, train_sample_frac=0.6)
    deep = 0  # trees whose root's children both split: they have nodes to visit out of order
    for targets, task in groups:
        C = n_classes[targets[0]]
        seeds = [31 * j + T for j in targets]
        shared = train_forest(X, targets, task, params, seeds, is_nominal, C)
        with monkeypatch.context() as m:
            m.setattr(forest, "_Grower", ShuffledGrower)
            m.setattr(ShuffledGrower, "visit", np.random.default_rng(T))
            shuffled = train_forest(X, targets, task, params, seeds, is_nominal, C)
        assert_same_forest(shuffled, shared)
        deep += sum(not (fit.root.is_leaf or fit.root.left.is_leaf or fit.root.right.is_leaf)
                    for fit in shared.trees)
        for k, (j, seed) in enumerate(zip(targets, seeds)):
            mine = ForestModel(shared.trees[k * T:(k + 1) * T], task)
            assert_same_forest(train_forest(X, [j], task, params, [seed], is_nominal, C), mine)
            inputs = np.arange(X.shape[1]) != j
            keys = derive_seeds(seed, "tree", lanes=np.arange(T)).tolist()
            for fit, key in zip(mine.trees, keys):
                rows = fit.train_rows
                alone, _ = train_tree(X[rows][:, inputs], X[rows, j], params, key, task,
                                      is_nominal[inputs], C)
                assert node_fields(alone) == node_fields(fit.root)
    assert deep >= T


def leaf_depths(root):
    """The depth of every leaf below ``root``."""
    out, pending = [], [(root, 0)]
    while pending:
        node, depth = pending.pop()
        if node.is_leaf:
            out.append(depth)
        else:
            pending += [(node.left, depth + 1), (node.right, depth + 1)]
    return out


@pytest.mark.parametrize("T", [1, 7])
def test_each_step_grows_one_depth_level(monkeypatch, T):
    """A grower step takes the pending nodes of one depth level of every tree
    of the call, the levels come in order from the roots', and a call takes
    at most one step more than its deepest leaf's depth."""
    rng = np.random.default_rng(80 + T)
    X, is_nominal, n_classes = grouped_design(rng, 150)
    groups = [([0, 3, 6], "regression"), ([1, 4], "classification"), ([5], "classification")]
    params = ForestParams(T=T, max_depth=8, min_samples_leaf=2, train_sample_frac=0.6)
    step = forest._Grower._step
    depths = []  # per step of the current call, the depths of its nodes

    def spy(self, ids):
        depths.append(np.unique(self.nodes["depth"][ids]).tolist())
        return step(self, ids)

    monkeypatch.setattr(forest._Grower, "_step", spy)
    for targets, task in groups:
        depths.clear()
        model = train_forest(X, targets, task, params, [13 * j + T for j in targets],
                             is_nominal, n_classes[targets[0]])
        assert depths == [[level] for level in range(len(depths))]
        deepest = max(max(leaf_depths(fit.root)) for fit in model.trees)
        assert 2 <= len(depths) <= deepest + 1


def unseen_codes(root, X, train, held):
    """Held-out rows that reach a category split with a code that none of the
    split's training rows has."""
    count, pending = 0, [(root, train, held)]
    while pending:
        node, tr, he = pending.pop()
        if node.is_leaf:
            continue
        col = X[:, node.feature]
        if node.categories is not None:
            count += int(np.isin(col[he], col[tr], invert=True).sum())
        left_tr, left_he = node.goes_left(col[tr]), node.goes_left(col[he])
        pending += [(node.left, tr[left_tr], he[left_he]), (node.right, tr[~left_tr], he[~left_he])]
    return count


def test_heldout_predictions_are_the_reference_routing(monkeypatch):
    """Each tree's held-out predictions, routed after growth, equal the
    reference router's bit for bit, on deep mixed-kind forests whose held-out
    rows reach category splits with codes the splits never saw."""
    scored = []
    quality = forest._heldout_quality

    def scoring(pred, truth, task):
        scored.append(pred)
        return quality(pred, truth, task)

    monkeypatch.setattr(forest, "_heldout_quality", scoring)
    rng = np.random.default_rng(90)
    X, is_nominal, n_classes = grouped_design(rng, 150)
    unseen = 0
    for frac in (0.5, 0.995):
        params = ForestParams(T=7, max_depth=20, min_samples_leaf=1, train_sample_frac=frac)
        for targets, task in [([0, 3, 6], "regression"), ([1, 4], "classification")]:
            scored.clear()
            model = train_forest(X, targets, task, params, [7 * j for j in targets], is_nominal,
                                 n_classes[targets[0]])
            assert len(scored) == len(model.trees)
            for t, (fit, pred) in enumerate(zip(model.trees, scored)):
                inputs = X[:, np.arange(X.shape[1]) != targets[t // params.T]]
                want = reference_routing(fit.root, inputs[fit.heldout_rows], task)
                assert pred.dtype == want.dtype and pred.tobytes() == want.tobytes()
                unseen += unseen_codes(fit.root, inputs, fit.train_rows, fit.heldout_rows)
    assert unseen > 0


def test_sense_explains_one_root_per_target(monkeypatch):
    """With m=1, sensing explains d roots, each its own fit's ``root``."""
    fits, explained = [], []
    train = lofo.train_forest

    def training(*args):
        model = train(*args)
        fits.extend(model.trees)
        return model

    monkeypatch.setattr(lofo, "train_forest", training)
    explain = lofo.aggregate_global

    def explaining(root, *args):
        explained.append(root)
        return explain(root, *args)

    monkeypatch.setattr(lofo, "aggregate_global", explaining)
    table = synth_table(SynthParams(n=200, seed=6))[0]
    params = ForestParams(T=5, max_depth=8, min_samples_leaf=3, train_sample_frac=0.5)
    views = sense_all(table, params, QdParams(m=1), seed=4, explain_cap=32, background_size=16)
    assert len(views) == len(explained) == table.d
    assert len(fits) == table.d * params.T
    owners = [[fit for fit in fits if fit.root is root] for root in explained]
    assert all(len(owner) == 1 for owner in owners)
    assert len({id(owner[0]) for owner in owners}) == table.d


def walk(root):
    """The cursors the walk from ``root`` reaches."""
    nodes, pending = [], [root]
    while pending:
        node = pending.pop()
        nodes.append(node)
        if not node.is_leaf:
            pending += [node.left, node.right]
    return nodes


@pytest.mark.parametrize("T", [1, 7])
def test_each_root_walks_its_own_tree_records_once(monkeypatch, T):
    """The walk from each grown root reaches exactly its tree's node records,
    once each, and its leaves are the tree's records with feature < 0, which
    is what a leaf count by walking the roots counts.  Every root reads the
    call's one read-only ``left`` table, which holds each category split of
    the call as one row: its pad entries are False and its set entries, less
    one, are the node's categories."""
    growers = []

    class Kept(forest._Grower):
        def grow(self):
            super().grow()
            growers.append(self)

    monkeypatch.setattr(forest, "_Grower", Kept)

    def check(roots, grower):
        tree, feature, cut = grower.nodes["tree"], grower.nodes["feature"], grower.nodes["cut"]
        left = grower.left
        assert not left.flags.writeable and left.shape[1] == grower.levels + 2
        rows = []
        for u, root in enumerate(roots):
            assert root._nodes is grower.nodes and root._left is left and root._id == u
            nodes = walk(root)
            assert sorted(node._id for node in nodes) == np.flatnonzero(tree == u).tolist()
            leaves = sorted(node._id for node in nodes if node.is_leaf)
            assert leaves == np.flatnonzero((tree == u) & (feature < 0)).tolist()
            for node in nodes:
                if node.categories is not None:
                    row = left[cut[node._id]]
                    assert not row[0] and not row[-1]
                    assert (np.flatnonzero(row) - 1).tolist() == sorted(node.categories)
                    rows.append(int(cut[node._id]))
        assert sorted(rows) == list(range(len(left)))  # one row per category split
        assert rows

    rng = np.random.default_rng(93 + T)
    X, is_nominal, n_classes = grouped_design(rng, 150)
    params = ForestParams(T=T, max_depth=8, min_samples_leaf=2, train_sample_frac=0.6)
    for targets, task in [([0, 3, 6], "regression"), ([1, 4], "classification")]:
        model = train_forest(X, targets, task, params, [11 * j + T for j in targets],
                             is_nominal, n_classes[targets[0]])
        assert len(model.trees) == len(targets) * T
        check([fit.root for fit in model.trees], growers[-1])
    root, _ = train_tree(X[:, :6], X[:, 6], grow_params(), T, "regression", is_nominal[:6])
    check([root], growers[-1])
    assert len(growers) == 3 and len(walk(root)) > 7


def test_root_is_one_object_with_the_per_node_grower_fields():
    """A tree's root is the same object on every read, with the per-node grower's fields."""
    rng = np.random.default_rng(91)
    X, y, is_nominal, n_classes = mixed_inputs(rng, 150, "classification")
    params = ForestParams(T=3, max_depth=6, min_samples_leaf=2, train_sample_frac=0.6)
    args = (X, y, "classification", params, 5, is_nominal, n_classes)
    model = train_one_forest(*args)
    for got, want in zip(model.trees, reference_fit_forest(*args).trees):
        root = got.root
        assert got.root is root
        assert node_fields(root) == node_fields(want.root)


def test_grown_forest_does_not_hold_the_grower(monkeypatch):
    """The grower is freed when train_forest returns, before any root is read."""
    growers = []

    class Watched(forest._Grower):
        def __init__(self, *args):
            super().__init__(*args)
            growers.append(weakref.ref(self))

    monkeypatch.setattr(forest, "_Grower", Watched)
    rng = np.random.default_rng(92)
    X, y, is_nominal, n_classes = mixed_inputs(rng, 150, "regression")
    params = ForestParams(T=4, max_depth=6, min_samples_leaf=2, train_sample_frac=0.6)
    model = train_one_forest(X, y, "regression", params, 6, is_nominal, n_classes)
    assert len(growers) == 1 and growers[0]() is None
    assert all(not fit.root.is_leaf for fit in model.trees)


def test_degenerate_numbers_grow_the_per_node_grower_trees():
    top = np.finfo(float).max
    big = 9e153  # big ** 2 is finite, (2 * big) ** 2 is not
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    halves = np.array([[0.0], [1.0], [2.0], [3.0]])
    adjacent = np.array([[a], [b], [a], [b]])
    cases = [
        # the only cut squares sums past the float range on both sides, an
        # infinite gain: no split
        (np.repeat([[0.0], [1.0]], [2, 20], axis=0),
         np.repeat([np.sqrt(0.425 * top), -np.sqrt(0.005 * top)], [2, 20]), "regression", 0, 1),
        # NaN gains (overflowed sums): no split
        (halves, np.array([big, big, -big, -big]), "regression", 0, 2),
        (halves, np.array([big, big, -big, -big]), "regression", 0, 1),
        # the midpoint of two huge negatives overflows to -inf: the threshold is -top
        (np.repeat([[-top], [-0.9 * top]], 2, axis=0), np.array([0.0, 0.0, 1.0, 1.0]),
         "regression", 0, 1),
        # adjacent values whose midpoint rounds up to b: the threshold is a, so
        # both children keep rows
        (adjacent, np.array([0.0, 1.0, 0.0, 1.0]), "regression", 0, 1),
        (adjacent, np.array([0.0, 1.0, 0.0, 1.0]), "classification", 2, 1),
    ]
    for X, y, task, n_classes, min_leaf in cases:
        params = ForestParams(T=1, max_depth=3, min_samples_leaf=min_leaf,
                              train_sample_frac=1.0)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, pred = train_tree(X, y, params, 0, task, None, n_classes)
            want = reference_train_tree(X, y, params, 0, task, None, n_classes)
            routed = reference_routing(got, X, task)
        assert node_fields(got) == node_fields(want)
        assert pred.dtype == routed.dtype and pred.tobytes() == routed.tobytes()
        assert all(fields[0] > 0 for fields in node_fields(got))  # no empty child
    assert got.threshold == a and got.left.n_samples == 2 and got.right.n_samples == 2


def test_purity_is_decided_as_np_var(monkeypatch):
    rng = np.random.default_rng(6)
    cases = [
        np.full(10, 0.3),              # constant, but its mean is not 0.3: np.var > 0
        np.full(10, 0.5),              # constant with an exact mean
        np.array([0.0, 1e-170]),       # distinct values whose deviations square to zero
        np.array([0.0, 1e-100]),
        np.array([2.0, 2.0, 2.0 + 2 ** -51]),
        rng.random(9),
    ]
    assert np.full(10, 0.3).mean() != 0.3
    size = np.array([y.size for y in cases])
    got = _pure(np.concatenate(cases), size.cumsum() - size, size, "regression")
    assert got == [bool(np.var(y) == 0.0) for y in cases]
    assert got[:3] == [False, True, True]
    labels = [np.array([2.0, 2.0]), np.array([0.0, 3.0, 0.0]), np.array([1.0])]
    size = np.array([y.size for y in labels])
    got = _pure(np.concatenate(labels), size.cumsum() - size, size, "classification")
    assert got == [reference_impurity(y, "classification", 4) == 0.0 for y in labels] == [True, False, True]
    # a tree on such a target draws split features when np.var asks for a
    # split (0.3) and not otherwise (0.5), as the per-node grower does
    X = rng.random((10, 3))
    params = ForestParams(T=1, max_depth=4, min_samples_leaf=1, train_sample_frac=1.0)
    drawn = []  # per feature draw, the number of nodes that draw
    draw = forest.keyed_uniform_grid

    def counted(seed, lane, keys, coords):
        drawn.append(keys.size)
        return draw(seed, lane, keys, coords)

    monkeypatch.setattr(forest, "keyed_uniform_grid", counted)
    nodes = []
    for y in cases[:2]:
        drawn.clear()
        got, _ = train_tree(X, y, params, 0)
        assert node_fields(got) == node_fields(reference_train_tree(X, y, params, 0))
        nodes.append(sum(drawn))
    assert nodes[0] > 0 == nodes[1]


def test_keyed_draws_are_uniform(monkeypatch):
    """Over 2,400 tree keys, every row joins a tree's sample and every local
    feature joins a root's draw at the rate of a uniform subset, within 5 sigma."""
    drawn = []
    least = forest._least

    def recorded(u, k):
        out = least(u, k)
        drawn.append(out)
        return out

    monkeypatch.setattr(forest, "_least", recorded)
    rng = np.random.default_rng(14)
    n, d, N = 60, 8, 2400
    X = rng.random((n, d))
    params = ForestParams(T=N, max_depth=1, min_samples_leaf=1, train_sample_frac=0.25,
                          features_per_split=3 / 7)
    model = train_forest(X, [d - 1], "regression", params, [5])
    rows, features = drawn  # the row samples, then the roots' draws
    assert features.shape == (N, 3) and rows.shape == (N, 15)
    for picks, size, trials in ((rows, n, N), (features, d - 1, N)):
        p = picks.shape[1] / size
        rate = np.bincount(picks.ravel(), minlength=size) / trials
        assert np.all(np.abs(rate - p) <= 5 * np.sqrt(p * (1 - p) / trials))
        assert np.all(np.diff(picks, axis=1) > 0)  # sorted and distinct
    assert np.array_equal(rows, [fit.train_rows for fit in model.trees])


def test_segment_means_have_the_bits_of_numpy_means():
    """Every segment of sizes 1-300 (across numpy's pairwise-summation block
    sizes 8 and 128) gets exactly ``float(y[s:s + m].mean())``."""
    rng = np.random.default_rng(13)
    size = rng.permutation(np.repeat(np.arange(1, 301), 3))
    start = size.cumsum() - size
    for scale in (1e-3, 1e-1, 1e1, 1e3):
        y = scale * (rng.random(size.sum()) + rng.integers(0, 50, size.sum()))
        want = [float(y[s:s + m].mean()) for s, m in zip(start.tolist(), size.tolist())]
        assert _segment_means(y, size).tolist() == want
        # segment sums in one running pass do not have those bits
        assert (np.add.reduceat(y, start) / size).tolist() != want


def test_growing_and_predicting_leave_no_cyclic_garbage():
    table, truth = synth_table(SynthParams(n=400, seed=3))
    params = ForestParams(T=20, min_samples_leaf=5, train_sample_frac=0.5)
    gc.collect()
    gc.disable()
    try:
        model, X_inputs = lofo_forest(table, 0, params, seed=1)
        for fit in model.trees:
            predict_tree(fit.root, X_inputs)
        # the probe tree of the faithfulness harness, with its predictions
        X, is_nominal = design_matrix(table)
        labels = np.array([int(c[1:]) for c in truth])
        root, pred = train_tree(X, labels, grow_params(), 0,
                                "classification", is_nominal, int(labels.max()) + 1)
        assert pred.shape == labels.shape
        del root, pred
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_train_tree_rejects_empty_input():
    with pytest.raises(DataError, match="zero rows"):
        train_tree(np.zeros((0, 2)), np.zeros(0), grow_params(), 0)


def test_predict_tree_stump():
    leaf0 = RefNode(n_samples=1, value=0.0)
    leaf1 = RefNode(n_samples=1, value=1.0)
    stump = RefNode(n_samples=2, feature=0, threshold=0.5, left=leaf0, right=leaf1)
    assert predict_tree(stump, np.array([[0.2]]))[0] == 0.0
    assert predict_tree(stump, np.array([[0.7]]))[0] == 1.0
    assert predict_tree(stump, np.array([[0.5]]))[0] == 0.0   # ties go left


def test_goes_left_routes_like_predict_tree():
    # threshold and float-coded nominal splits, each leaf valued by its side
    left, right = RefNode(n_samples=1, value=0.0), RefNode(n_samples=1, value=1.0)
    numeric = RefNode(n_samples=2, feature=1, threshold=0.4, left=left, right=right)
    nominal = RefNode(n_samples=2, feature=0, categories=frozenset({0, 2}), left=left, right=right)
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
    # codes missing from the set, codes past its largest, negative codes and an
    # empty set, on hand-built stumps and on stumps grown on codes 0..9
    left, right = RefNode(n_samples=1, value=0.0), RefNode(n_samples=1, value=1.0)
    codes = np.arange(-3, 12, dtype=float)
    background = np.array([[0.0], [2.0], [7.0], [11.0]])
    train = np.repeat(np.arange(10.0), 2)[:, None]
    for cats in ({0, 2}, {1}, {3, 5, 6}, {0}, {9}, set()):
        stumps = [RefNode(n_samples=2, feature=0, categories=frozenset(cats), left=left,
                          right=right)]
        if cats:
            # the one perfect split sends the codes of target 0 left
            y = np.isin(train[:, 0], list(cats), invert=True).astype(float)
            grown, _ = train_tree(train, y, grow_params(max_depth=1), 0, "regression",
                                  np.array([True]))
            assert grown.categories == cats and grown.threshold is None
            stumps.append(grown)
        want = np.isin(codes.astype(np.int64), list(cats))
        for node in stumps:
            assert np.array_equal(node.goes_left(codes), want)
            assert np.array_equal(predict_tree(node, codes[:, None]), (~want).astype(float))
            # a stump's attribution is its output minus the mean reference output
            phi, base = shap_matrix(node, codes[:, None], background)
            f_z = 1.0 - np.isin(background[:, 0], list(cats))
            assert base == f_z.mean()
            assert np.allclose(phi[:, 0], (~want) - f_z.mean(), rtol=0.0, atol=1e-12)
    # the grower rejects a negative nominal code, for one tree and for a forest
    X = np.column_stack([np.arange(6.0), [0.0, 1.0, -1.0, 2.0, 1.0, 0.0]])
    is_nominal = np.array([False, True])
    with pytest.raises(DataError, match="category codes must be non-negative"):
        train_tree(X, X[:, 0], grow_params(), 0, "regression", is_nominal)
    with pytest.raises(DataError, match="category codes must be non-negative"):
        train_forest(X, [0], "regression", grow_params(), [0], is_nominal)


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
                          train_sample_frac=0.5, features_per_split=1.0)
    model, X_inputs = lofo_forest(table, 0, params, seed=1)
    assert model.task == "classification"
    assert X_inputs.shape == (300, 2)
    assert [t.quality for t in model.trees] == [1.0] * 5


def test_noise_target_forest_has_no_quality():
    rng = np.random.default_rng(4)
    schema = [ColumnSchema("a", "numeric"), ColumnSchema("b", "numeric")]
    rows = list(zip(rng.random(400), rng.random(400)))
    params = ForestParams(T=4, max_depth=4, min_samples_leaf=10, train_sample_frac=0.5)
    model, _ = lofo_forest(table_from_raw(schema, rows), 0, params, seed=2)
    assert model.task == "regression"
    assert all(0.0 <= t.quality < 0.2 for t in model.trees)


def test_forest_shapes_and_determinism():
    rng = np.random.default_rng(5)
    X = rng.random((100, 3))
    y = X[:, 1] * 2.0
    params = ForestParams(T=3, max_depth=4, min_samples_leaf=5, train_sample_frac=0.6)
    model = train_one_forest(X, y, "regression", params, seed=9)
    assert len(model.trees) == 3
    for fit in model.trees:
        assert fit.train_rows.size == 60
        assert fit.heldout_rows.size == 40
        assert np.intersect1d(fit.train_rows, fit.heldout_rows).size == 0
    model2 = train_one_forest(X, y, "regression", params, seed=9)
    for a, b in zip(model.trees, model2.trees):
        assert np.array_equal(predict_tree(a.root, X), predict_tree(b.root, X))


def test_heldout_quality_conventions():
    ones = np.ones(4)
    # R^2 clamps at zero when residuals exceed total variance
    assert _heldout_quality(ones, np.array([10.0, -10.0, 10.0, -10.0]), "regression") == 0.0
    # constant truth: exact hit is 1, miss is 0
    assert _heldout_quality(ones, np.ones(4), "regression") == 1.0
    assert _heldout_quality(ones, np.zeros(4), "regression") == 0.0
    # empty held-out set falls back to zero quality
    assert _heldout_quality(ones[:0], np.ones(0), "regression") == 0.0
    # classification scores predicted classes
    assert _heldout_quality(np.array([0, 2, 1, 1]), np.array([0.0, 2.0, 2.0, 1.0]),
                            "classification") == 0.75
