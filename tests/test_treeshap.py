"""Interventional Shapley attributions against a coalition-enumeration oracle."""

import numpy as np
import pytest

from helpers import (
    RefNode,
    lofo_forest,
    predict_tree,
    random_tree,
    reference_shap_matrix,
    shap_oracle,
)
from wise import treeshap
from wise.errors import ConfigError, DataError
from wise.forest import ForestParams, TreeNode
from wise.synth import SynthParams, synth_table
from wise.treeshap import aggregate_global, shap_matrix


def test_depth_zero_tree_has_no_attribution():
    root = RefNode(n_samples=5, value=2.5)
    phi, base = shap_matrix(root, np.array([0.3, 0.7])[None], np.random.random((4, 2)))
    assert np.allclose(phi, 0.0)
    assert base == 2.5


def test_stump_attribution_example():
    leaf0 = RefNode(n_samples=1, value=0.0)
    leaf1 = RefNode(n_samples=1, value=1.0)
    stump = RefNode(n_samples=2, feature=1, threshold=0.5, left=leaf0, right=leaf1)
    x = np.array([0.9, 1.0, 0.1])
    background = np.array([[0.0, 0.0, 0.0]])
    phi, base = shap_matrix(stump, x[None], background)
    assert np.allclose(phi[0], [0.0, 1.0, 0.0])
    assert base == 0.0


def test_matches_oracle_on_random_trees():
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 6))
        if trial % 2 == 0:
            root, X, _ = random_tree(rng, d)
            out = None
        else:
            root, X, _ = random_tree(rng, d, task="classification", n_classes=3)
            out = int(rng.integers(0, 3))
        background = X[rng.choice(40, size=int(rng.integers(1, 9)), replace=False)]
        rows = X[rng.choice(40, size=3, replace=False)]
        phi, base = shap_matrix(root, rows, background, out)
        for i in range(rows.shape[0]):
            phi_o, base_o = shap_oracle(root, rows[i], background, out)
            worst = max(worst, float(np.max(np.abs(phi[i] - phi_o))), abs(base - base_o))
    assert worst <= 1e-9


def test_additivity_identity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        root, X, _ = random_tree(rng, d)
        background = X[:6]
        rows = X[10:14]
        phi, base = shap_matrix(root, rows, background)
        pred = predict_tree(root, rows)
        assert np.max(np.abs(base + phi.sum(axis=1) - pred)) <= 1e-9


def test_classification_requires_output_index():
    rng = np.random.default_rng(29)
    root, X, _ = random_tree(rng, 3, task="classification", n_classes=2)
    with pytest.raises(ConfigError, match="output index"):
        shap_matrix(root, X[:2], X[:4])


def test_input_validation():
    root = RefNode(n_samples=1, value=0.0)
    with pytest.raises(DataError, match="non-empty"):
        shap_matrix(root, np.zeros((1, 2)), np.zeros((0, 2)))
    with pytest.raises(DataError, match="feature count"):
        shap_matrix(root, np.zeros((1, 2)), np.zeros((3, 4)))


def test_aggregate_global_conventions():
    leaf0 = RefNode(n_samples=1, value=0.0)
    leaf1 = RefNode(n_samples=1, value=1.0)
    stump = RefNode(n_samples=2, feature=1, threshold=0.5, left=leaf0, right=leaf1)
    rng = np.random.default_rng(7)
    E = rng.random((10, 3))
    background = rng.random((5, 3))
    agg = aggregate_global(stump, E, background)
    assert agg.s[1] > 0.0
    assert agg.s[0] == 0.0 and agg.s[2] == 0.0
    assert agg.explained_count == 10

    constant = RefNode(n_samples=1, value=4.0)
    assert np.allclose(aggregate_global(constant, E, background).s, 0.0)

    one = aggregate_global(stump, E[:1], background)
    phi, _ = shap_matrix(stump, E[0][None], background)
    assert np.allclose(one.s, np.abs(phi[0]))

    with pytest.raises(DataError, match="explain set"):
        aggregate_global(stump, np.zeros((0, 3)), background)


def assert_matches_reference(root, rows, background, output_index=None):
    phi, base = shap_matrix(root, rows, background, output_index)
    phi_r, base_r = reference_shap_matrix(root, rows, background, output_index)
    assert phi.shape == phi_r.shape and phi.tobytes() == phi_r.tobytes()
    assert np.float64(base).tobytes() == np.float64(base_r).tobytes()


def internal_nodes(root):
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            out.append(node)
            stack += [node.left, node.right]
    return out


def has_repeated_path_feature(node, seen=()):
    if node.is_leaf:
        return False
    if node.feature in seen:
        return True
    below = seen + (node.feature,)
    return has_repeated_path_feature(node.left, below) or has_repeated_path_feature(node.right, below)


def test_bitwise_equal_to_per_leaf_reference():
    rng = np.random.default_rng(41)
    repeated = nominal = 0
    for trial in range(24):
        d = int(rng.integers(2, 7))
        task, n_classes, out = "regression", 0, None
        if trial % 3 == 1:
            task, n_classes, out = "classification", 3, int(rng.integers(0, 3))
        root, X, is_nominal = random_tree(rng, d, task, n_classes, depth=int(rng.integers(2, 7)),
                                          nominal_frac=1.0 if trial % 4 == 0 else 0.3)
        repeated += has_repeated_path_feature(root)
        nominal += any(node.categories is not None for node in internal_nodes(root))
        background = X[rng.choice(40, size=int(rng.integers(1, 20)), replace=False)]
        rows = X[rng.choice(40, size=int(rng.integers(1, 40)), replace=False)]
        assert_matches_reference(root, rows, background, out)
        # many duplicate explain rows: few distinct follow patterns per leaf
        dup = X[rng.integers(0, 3, size=60)]
        assert_matches_reference(root, dup, background, out)
    assert repeated > 0 and nominal > 0


def test_bitwise_equal_beyond_64_path_features():
    # a right-going chain over 70 features: the deepest leaves have 70 path features
    d = 70
    node = RefNode(n_samples=1, value=100.0)
    for f in reversed(range(d)):
        node = RefNode(n_samples=1, feature=f, threshold=0.5,
                       left=RefNode(n_samples=1, value=float(f)), right=node)
    rng = np.random.default_rng(43)
    base_row = np.where(rng.random(d) < 0.9, 0.9, 0.1)
    rows = np.tile(base_row, (30, 1))
    # patterns that agree on the first 64 features and differ only beyond them
    rows[10:20, 66] = 0.1
    rows[20:30, 68] = 0.1
    rows[25:, 69] = 0.9
    rows[:5] = np.where(rng.random((5, d)) < 0.5, 0.9, 0.1)
    background = np.full((4, d), 0.9)
    background[1, 67] = 0.1
    background[2, 3] = 0.1
    assert_matches_reference(node, rows, background)


def test_one_walk_routes_each_internal_node_once(monkeypatch):
    rng = np.random.default_rng(47)
    root, X, _ = random_tree(rng, 4, depth=6)
    calls = {}
    goes_left = TreeNode.goes_left

    def counted(self, column):
        # every .left/.right read makes a new cursor, so count per node record
        calls[self._id] = calls.get(self._id, 0) + 1
        return goes_left(self, column)

    monkeypatch.setattr(TreeNode, "goes_left", counted)
    shap_matrix(root, X[:25], X[25:])
    nodes = internal_nodes(root)
    assert len(nodes) > 3
    assert calls == {node._id: 1 for node in nodes}


def leaf_patterns(root, rows):
    """Per leaf, the distinct follow patterns of rows packed into integers."""
    out = []
    for _, follows in treeshap._leaves(root, rows, {}, []):
        bits = [follows[f].astype(np.int64) << slot for slot, f in enumerate(sorted(follows))]
        out.append(set(np.sum(bits, axis=0).tolist()))
    return out


@pytest.mark.parametrize("block", [treeshap._BLOCK, 4096], ids=["default-blocks", "small-blocks"])
def test_bitwise_equal_on_deep_lofo_forest(monkeypatch, block):
    # the deep sensing setting: 20 trees of 5-row leaves on half-row samples
    monkeypatch.setattr(treeshap, "_BLOCK", block)
    table, _ = synth_table(SynthParams(n=400, seed=4))
    params = ForestParams(T=20, min_samples_leaf=5, train_sample_frac=0.5)
    shared_patterns = 0
    for target, task in ((0, "regression"), (2, "classification")):
        model, X_in = lofo_forest(table, target, params, seed=9)
        assert model.task == task
        for fit in model.trees:
            rows, background = X_in[fit.heldout_rows], X_in[fit.train_rows[::3]]
            assert_matches_reference(fit.root, rows, background, fit.majority_class)
            # two leaves with the same packed pattern: a key without the leaf merges them
            seen = leaf_patterns(fit.root, rows)
            shared_patterns += sum(len(a & b) for i, a in enumerate(seen) for b in seen[i + 1:])
    assert shared_patterns > 0
