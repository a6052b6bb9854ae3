"""Exact interventional Shapley attributions for single decision trees.

For a fixed (explained row x, reference row z) pair, the coalition value
v(S) is the tree output when features in S take x's values and the rest
take z's.  Whether a leaf is reached under S depends only on which path
features are forced to follow x (the leaf's value survives iff they all
route toward the leaf) and which are forced to follow z.  Per leaf this
is a conjunction game over the path's distinguishing features - features
where exactly one of x, z routes toward the leaf - and the Shapley value
of a conjunction game has a closed form in the counts (a, b) of
x-aligned and z-aligned distinguishing features:

    phi_f = value * (a-1)! b! / (a+b)!     if f is x-aligned
    phi_f = -value * a! (b-1)! / (a+b)!    if f is z-aligned

Features where neither row routes toward the leaf make it unreachable
under every coalition.  Summing over leaves and averaging over the
background set gives the interventional attribution; the brute-force
coalition oracle in the test suite is the arbiter for this algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .forest import TreeNode, predict_tree


@dataclass
class GlobalAttribution:
    s: np.ndarray
    explained_count: int


def _leaf_scalar(value, output_index: int | None) -> float:
    if np.ndim(value) == 0:
        return float(value)
    if output_index is None:
        raise ConfigError("classification tree needs an explanation output index")
    return float(value[output_index])


def _collect_leaves(root: TreeNode):
    """Flatten the tree into (path, leaf value) pairs.

    Each path step is (internal node, went_left).
    """
    leaves = []

    def walk(node: TreeNode, path):
        if node.is_leaf:
            leaves.append((tuple(path), node.value))
            return
        walk(node.left, path + [(node, True)])
        walk(node.right, path + [(node, False)])

    walk(root, [])
    return leaves


def _follows(X: np.ndarray, steps) -> np.ndarray:
    """Whether each row of X routes along every given path step."""
    ok = np.ones(X.shape[0], dtype=bool)
    for node, went_left in steps:
        left = node.goes_left(X[:, node.feature])
        ok &= left if went_left else ~left
    return ok


def _weight_tables(q: int):
    fact = np.ones(2 * q + 1)
    for i in range(1, 2 * q + 1):
        fact[i] = fact[i - 1] * i
    a = np.arange(q + 1)[:, None]
    b = np.arange(q + 1)[None, :]
    denom = fact[a + b]
    with np.errstate(divide="ignore", invalid="ignore"):
        wa = np.where(a >= 1, fact[np.maximum(a - 1, 0)] * fact[b] / denom, 0.0)
        wb = np.where(b >= 1, fact[a] * fact[np.maximum(b - 1, 0)] / denom, 0.0)
    return wa, wb


def shap_matrix(
    root: TreeNode,
    rows: np.ndarray,
    background: np.ndarray,
    output_index: int | None = None,
):
    """Interventional Shapley values for many rows at once.

    Returns (phi, base_value) with phi of shape (len(rows), d) and
    base_value the mean tree output over the background set.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    if background.shape[0] == 0:
        raise DataError("background set must be non-empty")
    if rows.shape[1] != background.shape[1]:
        raise DataError("explained rows and background disagree on feature count")
    n_expl, d = rows.shape
    phi = np.zeros((n_expl, d))

    for path, value in _collect_leaves(root):
        if not path:
            continue  # depth-0 tree: constant, no attribution
        leaf_value = _leaf_scalar(value, output_index)
        by_feature: dict[int, list] = {}
        for step in path:
            by_feature.setdefault(step[0].feature, []).append(step)
        feats = sorted(by_feature)
        q = len(feats)
        fx = np.stack([_follows(rows, by_feature[f]) for f in feats])       # (q, E)
        fz = np.stack([_follows(background, by_feature[f]) for f in feats])  # (q, G)
        A = fx[:, :, None] & ~fz[:, None, :]
        B = ~fx[:, :, None] & fz[:, None, :]
        dead = ~fx[:, :, None] & ~fz[:, None, :]
        reach = ~dead.any(axis=0)
        a = A.sum(axis=0)
        b = B.sum(axis=0)
        wa_tab, wb_tab = _weight_tables(q)
        wa = wa_tab[a, b]
        wb = wb_tab[a, b]
        for qi, f in enumerate(feats):
            pos = np.where(reach & A[qi], wa, 0.0)
            neg = np.where(reach & B[qi], wb, 0.0)
            phi[:, f] += leaf_value * (pos - neg).mean(axis=1)

    base_pred = predict_tree(root, background)
    if base_pred.ndim == 2:
        if output_index is None:
            raise ConfigError("classification tree needs an explanation output index")
        base_pred = base_pred[:, output_index]
    base_value = float(base_pred.mean())
    return phi, base_value


def aggregate_global(
    root: TreeNode,
    explain_rows: np.ndarray,
    background: np.ndarray,
    output_index: int | None = None,
) -> GlobalAttribution:
    """Mean absolute attribution over an explain set: s[k] = mean |phi_k|."""
    explain_rows = np.atleast_2d(explain_rows)
    if explain_rows.shape[0] == 0:
        raise DataError("explain set must be non-empty")
    phi, _ = shap_matrix(root, explain_rows, background, output_index)
    return GlobalAttribution(s=np.abs(phi).mean(axis=0), explained_count=explain_rows.shape[0])
