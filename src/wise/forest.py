"""CART trees and random forests trained from scratch.

Used twice: as the leave-one-feature-out dependency models (one forest
per target column, regression for numeric/ordinal targets and
classification for nominal ones) and as the shallow probe tree of the
explanation faithfulness harness.  Numeric and ordinal inputs split on
thresholds; nominal inputs split on category-membership sets found by
ordering categories by their target statistic and scanning prefixes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed
from .data_model import MixedTable, design_matrix
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ForestParams:
    T: int = 10
    max_depth: int = 20
    min_samples_leaf: int = 50
    train_sample_frac: float = 0.1
    features_per_split: float | None = None  # fraction; None = task default
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ConfigError("T must be >= 1")
        if not (0.0 < self.train_sample_frac <= 1.0):
            raise ConfigError("train_sample_frac must lie in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")


@dataclass
class TreeNode:
    n_samples: int
    # leaf payload: float (regression) or class-probability vector
    value: object = None
    # internal payload
    feature: int | None = None
    threshold: float | None = None
    categories: frozenset | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def goes_left(self, column: np.ndarray) -> np.ndarray:
        """Routing of this node's split feature values: True means left.

        Nominal splits send listed category codes left; threshold splits
        send values <= threshold left.
        """
        if self.categories is not None:
            return np.isin(column.astype(np.int64), np.fromiter(self.categories, dtype=np.int64))
        return column <= self.threshold


@dataclass
class TreeFit:
    root: TreeNode
    train_rows: np.ndarray
    heldout_rows: np.ndarray
    quality: float
    majority_class: int | None


@dataclass
class ForestModel:
    trees: list[TreeFit]
    task: str                      # "regression" | "classification"
    target_index: int | None
    input_columns: np.ndarray      # original column ids of the model inputs
    is_nominal: np.ndarray         # per model input
    n_classes: int
    params: ForestParams

    @property
    def quality(self) -> list[float]:
        return [t.quality for t in self.trees]


def _leaf(y: np.ndarray, task: str, n_classes: int) -> TreeNode:
    if task == "regression":
        return TreeNode(n_samples=y.size, value=float(y.mean()))
    probs = np.bincount(y.astype(np.int64), minlength=n_classes) / y.size
    return TreeNode(n_samples=y.size, value=probs)


def _impurity(y: np.ndarray, task: str, n_classes: int) -> float:
    if task == "regression":
        return float(np.var(y))
    counts = np.bincount(y.astype(np.int64), minlength=n_classes)
    frac = counts / y.size
    return float(1.0 - np.dot(frac, frac))


def _numeric_split(x, y, task, n_classes, min_leaf):
    """Best threshold for one feature: (gain, threshold) or None.

    Gain is the decrease in weighted child impurity, computed from
    prefix statistics over the sorted column.
    """
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = xs.size
    cut = np.flatnonzero(xs[:-1] < xs[1:]) + 1  # left part sizes
    cut = cut[(cut >= min_leaf) & (cut <= n - min_leaf)]
    if cut.size == 0:
        return None
    if task == "regression":
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        nl = cut
        nr = n - nl
        sse_l = csum2[cut - 1] - csum[cut - 1] ** 2 / nl
        sse_r = (csum2[-1] - csum2[cut - 1]) - (csum[-1] - csum[cut - 1]) ** 2 / nr
        sse_p = csum2[-1] - csum[-1] ** 2 / n
        gains = (sse_p - sse_l - sse_r) / n
    else:
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys.astype(np.int64)] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        nl = cut.astype(np.float64)
        nr = n - nl
        left = prefix[cut - 1]
        right = prefix[-1] - left
        gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        total = prefix[-1] / n
        gini_p = 1.0 - np.sum(total**2)
        gains = gini_p - (nl * gini_l + nr * gini_r) / n
    best = int(np.argmax(gains))
    gain = float(gains[best])
    if gain <= 0.0:
        return None
    pos = cut[best]
    threshold = float((xs[pos - 1] + xs[pos]) / 2.0)
    return gain, threshold, None


def _nominal_split(x, y, task, n_classes, min_leaf):
    """Best category-membership split: (gain, None, left category set).

    Categories are ordered by their target statistic (mean target for
    regression, share of the node's majority class for classification)
    and prefixes of that order are scanned, the standard CART device.
    """
    codes = x.astype(np.int64)
    cats = np.unique(codes)
    if cats.size < 2:
        return None
    n = codes.size
    if task == "regression":
        sums = np.zeros(cats.size)
        sqs = np.zeros(cats.size)
        cnt = np.zeros(cats.size)
        pos = np.searchsorted(cats, codes)
        np.add.at(sums, pos, y)
        np.add.at(sqs, pos, y * y)
        np.add.at(cnt, pos, 1.0)
        stat = sums / cnt
        order = np.argsort(stat, kind="stable")
        csum, csq, ccnt = np.cumsum(sums[order]), np.cumsum(sqs[order]), np.cumsum(cnt[order])
        nl = ccnt[:-1]
        nr = n - nl
        ok = (nl >= min_leaf) & (nr >= min_leaf)
        if not np.any(ok):
            return None
        sse_l = csq[:-1] - csum[:-1] ** 2 / nl
        sse_r = (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / nr
        sse_p = csq[-1] - csum[-1] ** 2 / n
        gains = np.where(ok, (sse_p - sse_l - sse_r) / n, -np.inf)
    else:
        ys = y.astype(np.int64)
        counts = np.zeros((cats.size, n_classes))
        pos = np.searchsorted(cats, codes)
        np.add.at(counts, (pos, ys), 1.0)
        cnt = counts.sum(axis=1)
        majority = int(np.argmax(counts.sum(axis=0)))
        stat = counts[:, majority] / cnt
        order = np.argsort(stat, kind="stable")
        prefix = np.cumsum(counts[order], axis=0)
        nl = prefix[:-1].sum(axis=1)
        nr = n - nl
        ok = (nl >= min_leaf) & (nr >= min_leaf)
        if not np.any(ok):
            return None
        left = prefix[:-1]
        right = prefix[-1] - left
        with np.errstate(invalid="ignore", divide="ignore"):
            gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
            gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        total = prefix[-1] / n
        gini_p = 1.0 - np.sum(total**2)
        gains = np.where(ok, gini_p - (nl * gini_l + nr * gini_r) / n, -np.inf)
    best = int(np.argmax(gains))
    gain = float(gains[best])
    if not np.isfinite(gain) or gain <= 0.0:
        return None
    left_cats = frozenset(int(cats[i]) for i in order[: best + 1])
    return gain, None, left_cats


def _mtry(d: int, task: str, params: ForestParams) -> int:
    if params.features_per_split is not None:
        return max(1, int(round(params.features_per_split * d)))
    if task == "classification":
        return max(1, int(round(np.sqrt(d))))
    return max(1, int(round(d / 3.0)))


def train_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
    task: str = "regression",
    is_nominal: np.ndarray | None = None,
    n_classes: int = 0,
) -> TreeNode:
    """Grow one CART tree greedily; ties go to the lowest feature index."""
    if X.shape[0] == 0:
        raise DataError("cannot train a tree on zero rows")
    d = X.shape[1]
    if is_nominal is None:
        is_nominal = np.zeros(d, dtype=bool)
    mtry = _mtry(d, task, params)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        yn = y[idx]
        if (
            depth >= params.max_depth
            or idx.size < 2 * params.min_samples_leaf
            or _impurity(yn, task, n_classes) == 0.0
        ):
            return _leaf(yn, task, n_classes)
        chosen = np.sort(rng.choice(d, size=mtry, replace=False))
        best = None
        for f in chosen:
            col = X[idx, f]
            if is_nominal[f]:
                found = _nominal_split(col, yn, task, n_classes, params.min_samples_leaf)
            else:
                found = _numeric_split(col, yn, task, n_classes, params.min_samples_leaf)
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], int(f), found[1], found[2])
        if best is None:
            return _leaf(yn, task, n_classes)
        _, f, threshold, cats = best
        node = TreeNode(n_samples=idx.size, feature=f, threshold=threshold, categories=cats)
        mask = node.goes_left(X[idx, f])
        node.left = grow(idx[mask], depth + 1)
        node.right = grow(idx[~mask], depth + 1)
        return node

    return grow(np.arange(X.shape[0]), 0)


def predict_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Batch traversal; returns values (n,) or probability rows (n, C)."""
    probe = root
    while not probe.is_leaf:
        probe = probe.left
    width = None if np.isscalar(probe.value) else len(probe.value)
    out = np.zeros(X.shape[0]) if width is None else np.zeros((X.shape[0], width))

    def walk(node: TreeNode, idx: np.ndarray):
        if idx.size == 0:
            return
        if node.is_leaf:
            out[idx] = node.value
            return
        mask = node.goes_left(X[idx, node.feature])
        walk(node.left, idx[mask])
        walk(node.right, idx[~mask])

    walk(root, np.arange(X.shape[0]))
    return out


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    params: ForestParams,
    is_nominal: np.ndarray | None = None,
    n_classes: int = 0,
    target_index: int | None = None,
    input_columns: np.ndarray | None = None,
) -> ForestModel:
    """Train T trees on independent row subsamples; score each on its held-out rows."""
    n, d = X.shape
    if is_nominal is None:
        is_nominal = np.zeros(d, dtype=bool)
    if input_columns is None:
        input_columns = np.arange(d)
    trees = []
    sample_size = max(1, int(round(params.train_sample_frac * n)))
    for u in range(params.T):
        rng = np.random.default_rng(derive_seed(params.seed, "tree", u))
        train_rows = np.sort(rng.choice(n, size=sample_size, replace=False))
        heldout = np.setdiff1d(np.arange(n), train_rows, assume_unique=True)
        y_tr = y[train_rows]
        root = train_tree(X[train_rows], y_tr, params, rng, task, is_nominal, n_classes)
        majority = int(np.bincount(y_tr.astype(np.int64), minlength=n_classes).argmax()) if task == "classification" else None
        quality = _heldout_quality(root, X, y, heldout, task)
        trees.append(TreeFit(root, train_rows, heldout, quality, majority))
    return ForestModel(
        trees=trees,
        task=task,
        target_index=target_index,
        input_columns=np.asarray(input_columns),
        is_nominal=np.asarray(is_nominal, dtype=bool),
        n_classes=n_classes,
        params=params,
    )


def _heldout_quality(root: TreeNode, X, y, heldout: np.ndarray, task: str) -> float:
    """Accuracy (classification) or R+ = max(0, R^2) (regression) on held-out rows."""
    if heldout.size == 0:
        log.warning("tree has no held-out rows (train_sample_frac too high); quality set to 0")
        return 0.0
    pred = predict_tree(root, X[heldout])
    truth = y[heldout]
    if task == "classification":
        return float(np.mean(pred.argmax(axis=1) == truth))
    ss_res = float(np.sum((truth - pred) ** 2))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return max(0.0, 1.0 - ss_res / ss_tot)


def train_forest(table: MixedTable, target: int, params: ForestParams) -> ForestModel:
    """LOFO forest: predict column `target` from all remaining columns."""
    if table.d < 2:
        raise DataError("need at least two columns for a leave-one-out model")
    X_all, nominal_all = design_matrix(table)
    cols = np.array([j for j in range(table.d) if j != target])
    X = X_all[:, cols]
    kind = table.schema[target].kind
    if kind == "nominal":
        task = "classification"
        y = X_all[:, target]
        n_classes = table.schema[target].n_levels()
    else:
        task = "regression"
        y = X_all[:, target]
        n_classes = 0
    return fit_forest(
        X,
        y,
        task,
        params,
        is_nominal=nominal_all[cols],
        n_classes=n_classes,
        target_index=target,
        input_columns=cols,
    )
