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

One walk of the tree serves every leaf.  The explained and background
rows are routed together, once per internal node, and each child
inherits per-feature "follows" masks (a feature split twice on a path
ANDs its masks).  At a leaf with q path features the pair (x, z) is
reachable iff no feature is unfollowed by both, a matrix product of the
unfollowed masks; where it is reachable, a counts the features z does
not follow and b those x does not follow.  Explained rows with the same
follow pattern get the same attribution at that leaf, so each distinct
pattern is attributed once and the result is scattered back.  The
per-reference terms and their mean over the background set are the
same floating-point operations, in the same order, as a per-row
evaluation, so the attributions do not depend on how rows group.  The
background rows' leaves, recorded on the same walk, give the base value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .forest import TreeNode


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


def _leaves(node: TreeNode, XZ: np.ndarray, follows: dict):
    """Yield (leaf value, follows) for every leaf, left subtree first.

    ``follows[f]`` says, per row of XZ, whether the row routes toward the
    leaf at every split on feature f along its path.  Each internal node
    routes all rows once; a feature that repeats on a path ANDs its masks.
    """
    if node.is_leaf:
        yield node.value, follows
        return
    f = node.feature
    left = node.goes_left(XZ[:, f])
    for child, side in ((node.left, left), (node.right, ~left)):
        below = dict(follows)
        below[f] = follows[f] & side if f in follows else side
        yield from _leaves(child, XZ, below)


def _distinct_columns(F: np.ndarray):
    """Distinct columns of a boolean matrix and each column's group index."""
    order = np.lexsort(F)
    ranked = F[:, order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ranked[:, new], inverse


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
    tables = {}
    reached = []  # (background rows, leaf value) per leaf

    XZ = np.concatenate([rows, background])
    for value, follows in _leaves(root, XZ, {}):
        feats = sorted(follows)
        q = len(feats)
        F = np.array([follows[f] for f in feats], dtype=bool).reshape(q, XZ.shape[0])
        # each background row reaches exactly the leaf whose path it follows throughout
        reached.append((np.flatnonzero(F[:, n_expl:].all(axis=0)), value))
        if not q:
            continue  # depth-0 tree: constant, no attribution
        leaf_value = _leaf_scalar(value, output_index)
        fx, inverse = _distinct_columns(F[:, :n_expl])   # (q, U) distinct explain patterns
        nfx = ~fx
        nfz = ~F[:, n_expl:]                              # (q, G)
        # reach[u, g]: no path feature is unfollowed by both rows (exact 0/1 counts)
        reach = (nfx.T.astype(np.float32) @ nfz.astype(np.float32)) == 0
        if q not in tables:
            tables[q] = _weight_tables(q)
        wa_tab, wb_tab = tables[q]
        # where reach holds: a = features only x follows, b = features only z follows
        a = nfz.sum(axis=0)
        b = nfx.sum(axis=0)
        wa = wa_tab[a[None, :], b[:, None]]
        wb = wb_tab[a[None, :], b[:, None]]
        # (q, U, G): row [qi, u] holds feature qi's per-reference terms for pattern u
        pos = np.where(reach & nfz[:, None, :], wa, 0.0)
        neg = np.where(reach & nfx[:, :, None], wb, 0.0)
        phi[:, feats] += (leaf_value * (pos - neg).mean(axis=2))[:, inverse].T

    # background predictions laid out as predict_tree returns them
    base_pred = np.zeros((background.shape[0],) + np.shape(reached[0][1]))
    for idx, value in reached:
        base_pred[idx] = value
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
