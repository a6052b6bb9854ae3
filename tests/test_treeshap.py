"""Interventional Shapley attributions against a coalition-enumeration oracle."""

import numpy as np
import pytest

from helpers import random_tree, shap_oracle
from wise.errors import ConfigError, DataError
from wise.forest import TreeNode, predict_tree
from wise.treeshap import aggregate_global, shap_matrix


def test_depth_zero_tree_has_no_attribution():
    root = TreeNode(n_samples=5, value=2.5)
    phi, base = shap_matrix(root, np.array([0.3, 0.7])[None], np.random.random((4, 2)))
    assert np.allclose(phi, 0.0)
    assert base == 2.5


def test_stump_attribution_example():
    leaf0 = TreeNode(n_samples=1, value=0.0)
    leaf1 = TreeNode(n_samples=1, value=1.0)
    stump = TreeNode(n_samples=2, feature=1, threshold=0.5, left=leaf0, right=leaf1)
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
    root = TreeNode(n_samples=1, value=0.0)
    with pytest.raises(DataError, match="non-empty"):
        shap_matrix(root, np.zeros((1, 2)), np.zeros((0, 2)))
    with pytest.raises(DataError, match="feature count"):
        shap_matrix(root, np.zeros((1, 2)), np.zeros((3, 4)))


def test_aggregate_global_conventions():
    leaf0 = TreeNode(n_samples=1, value=0.0)
    leaf1 = TreeNode(n_samples=1, value=1.0)
    stump = TreeNode(n_samples=2, feature=1, threshold=0.5, left=leaf0, right=leaf1)
    rng = np.random.default_rng(7)
    E = rng.random((10, 3))
    background = rng.random((5, 3))
    agg = aggregate_global(stump, E, background)
    assert agg.s[1] > 0.0
    assert agg.s[0] == 0.0 and agg.s[2] == 0.0
    assert agg.explained_count == 10

    constant = TreeNode(n_samples=1, value=4.0)
    assert np.allclose(aggregate_global(constant, E, background).s, 0.0)

    one = aggregate_global(stump, E[:1], background)
    phi, _ = shap_matrix(stump, E[0][None], background)
    assert np.allclose(one.s, np.abs(phi[0]))

    with pytest.raises(DataError, match="explain set"):
        aggregate_global(stump, np.zeros((0, 3)), background)
