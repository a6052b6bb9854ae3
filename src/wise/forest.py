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
from dataclasses import dataclass, field

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
        if self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        if self.features_per_split is not None and not (0.0 < self.features_per_split <= 1.0):
            raise ConfigError("features_per_split must lie in (0, 1]")


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
    # categories as a lookup table: entry c + 1 says whether code c goes left
    _left_codes: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.categories is not None:
            codes = np.fromiter(self.categories, dtype=np.int64)
            if (codes < 0).any():
                raise DataError("category codes must be non-negative")
            # entry 0 and the last entry stay False: negative codes clip to the
            # first, codes past the largest category to the last
            table = np.zeros(int(codes.max(initial=-1)) + 3, dtype=bool)
            table[codes + 1] = True
            self._left_codes = table

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def goes_left(self, column: np.ndarray) -> np.ndarray:
        """Routing of this node's split feature values: True means left.

        Nominal splits send listed category codes left, every other code
        right; threshold splits send values <= threshold left.
        """
        if self._left_codes is not None:
            return self._left_codes.take(column.astype(np.int64) + 1, mode="clip")
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
    input_columns: np.ndarray      # original column ids of the model inputs

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


def _target_stats(y: np.ndarray, task: str, n_classes: int) -> np.ndarray:
    """Per-row target statistics whose column sums describe any set of rows:
    (y, y^2) for regression, the one-hot class row for classification."""
    if task == "regression":
        stats = np.empty((y.size, 2))
        stats[:, 0] = y
        stats[:, 1] = y * y
        return stats
    stats = np.zeros((y.size, n_classes))
    stats[np.arange(y.size), y.astype(np.int64)] = 1.0
    return stats


# The scan runs once per candidate feature of every node, so it and the two
# split functions call array methods, which skip the Python-level dispatch
# of their np.* function forms.
def _best_cut(left, total, nl, n, task, min_leaf):
    """Best admissible cut of a node of n rows: (gain, index into nl) or None.

    Row i of ``left`` holds the summed target statistics of the nl[i] rows
    on the left of cut i, ``total`` those of the whole node.  A cut is
    admissible when both sides keep at least ``min_leaf`` rows.  Gain is the
    decrease in weighted child impurity (SSE / n for regression, Gini for
    classification), the CART prefix scan; ties go to the first cut.
    """
    # nl increases strictly, so the admissible cuts form one run
    lo, hi = nl.searchsorted((min_leaf, n - min_leaf + 1))
    if lo >= hi:
        return None
    left, nl = left[lo:hi], nl[lo:hi]
    nr = n - nl
    right = total - left
    if task == "regression":
        sse_l = left[:, 1] - left[:, 0] ** 2 / nl
        sse_r = right[:, 1] - right[:, 0] ** 2 / nr
        sse_p = total[1] - total[0] ** 2 / n
        gains = (sse_p - sse_l - sse_r) / n
    else:
        gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
        gini_p = 1.0 - ((total / n) ** 2).sum()
        gains = gini_p - (nl * gini_l + nr * gini_r) / n
    best = int(gains.argmax())
    gain = float(gains[best])
    if not 0.0 < gain < np.inf:  # no gain, or statistics that overflowed
        return None
    return gain, int(lo) + best


def _numeric_split(x, stats, task, min_leaf):
    """Best threshold for one feature: (gain, threshold, None) or None.

    Candidate cuts sit where the sorted column changes value; the threshold
    is the midpoint of the two values around the best cut.
    """
    order = x.argsort(kind="stable")
    xs = x[order]
    cut = (xs[:-1] < xs[1:]).nonzero()[0] + 1  # left part sizes
    prefix = stats.take(order, axis=0).cumsum(axis=0)
    found = _best_cut(prefix.take(cut - 1, axis=0), prefix[-1], cut, xs.size, task, min_leaf)
    if found is None:
        return None
    gain, i = found
    pos = cut[i]
    return gain, float((xs[pos - 1] + xs[pos]) / 2.0), None


def _nominal_split(x, stats, task, min_leaf):
    """Best category-membership split: (gain, None, left category set) or None.

    Categories are ordered by their target statistic (mean target for
    regression, share of the node's majority class for classification)
    and prefixes of that order are scanned, the standard CART device.
    """
    codes = x.astype(np.int64)
    cnt = np.bincount(codes)
    cats = cnt.nonzero()[0]
    if cats.size < 2:
        return None
    # per-category sums of every statistic, each added in row order
    s = stats.shape[1]
    flat = (codes[:, None] * s + np.arange(s)).ravel()
    agg = np.bincount(flat, weights=stats.ravel(), minlength=cnt.size * s).reshape(-1, s)[cats]
    cnt = cnt[cats]
    key = 0 if task == "regression" else int(agg.sum(axis=0).argmax())
    order = (agg[:, key] / cnt).argsort(kind="stable")
    prefix = agg[order].cumsum(axis=0)
    found = _best_cut(prefix[:-1], prefix[-1], cnt[order].cumsum()[:-1], codes.size, task, min_leaf)
    if found is None:
        return None
    gain, i = found
    return gain, None, frozenset(int(c) for c in cats[order[: i + 1]])


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
        stats = _target_stats(yn, task, n_classes)
        best = None
        for f in chosen:
            split = _nominal_split if is_nominal[f] else _numeric_split
            found = split(X[idx, f], stats, task, params.min_samples_leaf)
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
    input_columns: np.ndarray | None = None,
) -> ForestModel:
    """Train T trees on independent row subsamples; score each on its held-out rows."""
    n, d = X.shape
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
    return ForestModel(trees=trees, task=task, input_columns=np.asarray(input_columns))


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
    col = table.schema[target]
    task = "classification" if col.kind == "nominal" else "regression"
    n_classes = col.n_levels() if task == "classification" else 0
    return fit_forest(X_all[:, cols], X_all[:, target], task, params,
                      is_nominal=nominal_all[cols], n_classes=n_classes, input_columns=cols)
