"""CART trees and random forests trained from scratch.

Used twice: as the leave-one-feature-out dependency models (one forest
per target column, regression for numeric/ordinal targets and
classification for nominal ones) and as the shallow probe tree of the
explanation faithfulness harness.  Numeric and ordinal inputs split on
thresholds; nominal inputs split on category-membership sets found by
ordering categories by their target statistic and scanning prefixes.

The trees of a forest, and of the forests of several target columns that
share a task and a class count, grow together (``_Grower``) on a frontier
of arrays: every node is a record of one node table, its training rows a
range of one row buffer, and each step takes one depth level of every
tree and scans all its nodes' candidate splits in a few array passes.
Randomness is counter-keyed (``_rng.keyed_uniform_grid``): a tree's
training rows are the rows with the least uniforms under its seed, and
each node draws its split features from its own key, which a child takes
from its parent's key and its side.  No draw depends on the draws before
it, so a tree comes out bit for bit as it would grown alone, in any
order of its nodes.
Held-out rows take no part in growth.  Once the trees are grown, one
partition per depth level sends them down every tree together, and each
takes the value of the leaf it reaches; the probe tree, which holds out
every row, reads its predictions from the same pass.  A tree is kept
once, as records: every tree of a call is read from one shared,
read-only table of them through ``TreeNode`` cursors, and a category
split once, as a row of the call's one read-only boolean table ``left``,
which the scan writes and growth, the held-out pass and cursors read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seeds, keyed_uniform_grid, mix64_array
# Not called here.  The benchmark's tracer wraps ``wise.forest.design_matrix``
# and drops its design-matrix count while this name is missing.
from .data_model import design_matrix  # noqa: F401
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class ForestParams:
    T: int = 10
    max_depth: int = 20
    min_samples_leaf: int = 50
    train_sample_frac: float = 0.1
    features_per_split: float | None = None  # fraction; None = task default

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

    def sample_size(self, n: int) -> int:
        """Training rows each tree draws from n; the rest are held out."""
        return max(1, int(round(self.train_sample_frac * n)))


class TreeNode:
    """A read-only cursor at one node of a grown tree: it reads the node's
    record and category split in place, from the ``nodes`` and ``left``
    tables of the call that grew it, and ``left`` and ``right`` are new
    cursors.  A leaf has a ``value`` and ``feature``, ``threshold`` and
    ``categories`` None; an internal node has ``value`` None, a
    ``feature`` index and either a ``threshold`` or, when its record's
    threshold is NaN, the set of ``categories`` that go left.
    """

    __slots__ = ("_nodes", "_left", "_id")

    def __init__(self, nodes: np.ndarray, left: np.ndarray, id: int):
        self._nodes, self._left, self._id = nodes, left, id

    def _field(self, name):
        return self._nodes[name].item(self._id)

    is_leaf = property(lambda self: self._field("feature") < 0)
    n_samples = property(lambda self: self._field("size"))
    feature = property(lambda self: None if (f := self._field("feature")) < 0 else f)
    threshold = property(lambda self: None if self.is_leaf
                         or math.isnan(t := self._field("threshold")) else t)
    left = property(lambda self: TreeNode(self._nodes, self._left, self._field("child") + 1))
    right = property(lambda self: TreeNode(self._nodes, self._left, self._field("child")))

    @property
    def value(self):
        """Leaf payload: a float (regression) or a class-probability vector."""
        if not self.is_leaf:
            return None
        value = self._nodes["value"][self._id]
        return float(value) if value.ndim == 0 else value

    @property
    def categories(self):
        """The codes that go left at a category split, read off its row of ``left``."""
        if not math.isnan(self._field("threshold")):
            return None
        return frozenset((np.flatnonzero(self._left[self._field("cut")]) - 1).tolist())

    def goes_left(self, column: np.ndarray) -> np.ndarray:
        """Routing of this node's split feature values: True means left.

        Nominal splits send listed category codes left, every other code
        (negative or never seen in training) right; threshold splits send
        values <= threshold left.
        """
        threshold = self._field("threshold")
        if not math.isnan(threshold):
            return column <= threshold
        # the row's first and last entries are False: negative codes clip to
        # the first, codes past the last level to the last
        return self._left[self._field("cut")].take(column.astype(np.int64) + 1, mode="clip")


@dataclass(eq=False)
class TreeFit:
    """A grown tree, the rows it was trained on and held out from, its
    held-out quality and, for classification, its training majority class."""

    root: TreeNode
    train_rows: np.ndarray
    heldout_rows: np.ndarray
    quality: float
    majority_class: int | None


@dataclass
class ForestModel:
    trees: list[TreeFit]
    task: str  # "regression" | "classification"


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


# Padded scan arrays hold about this many elements; a step whose candidate
# splits need more is scanned in several blocks, widest nodes first.
_BLOCK = 1 << 14

# Regression targets that spread wider than this have a squared deviation
# from their mean too large to underflow, so their variance is not zero.
_SPREAD = 1e-150


def _cut_gains(left, nl, pair, total, n, task):
    """Gain of each candidate cut: the decrease in weighted child impurity.

    Cut k puts ``nl[k]`` rows with summed target statistics ``left[k]`` on
    the left of node ``pair[k]``, which has ``n`` rows and statistics
    ``total``.  Impurity is SSE / n for regression and Gini for
    classification: the CART prefix scan.  Each operation is the
    elementwise (or last-axis) form of the scan of a single node, so every
    gain has the bits it has there; the parent's squared sum goes through
    ``float_power`` because a single node squares a scalar, which rounds
    like ``pow``, not like ``** 2`` on an array.
    """
    nn = n[pair]
    nr = nn - nl
    right = total[pair] - left
    if task == "regression":
        sse_l = left[:, 1] - left[:, 0] ** 2 / nl
        sse_r = right[:, 1] - right[:, 0] ** 2 / nr
        sse_p = total[:, 1] - np.float_power(total[:, 0], 2.0) / n
        return (sse_p[pair] - sse_l - sse_r) / nn
    # class shares squared in place, x * x as ``** 2`` computes it
    share = left / nl[:, None]
    gini_l = 1.0 - np.multiply(share, share, out=share).sum(axis=1)
    share = np.divide(right, nr[:, None], out=right)
    gini_r = 1.0 - np.multiply(share, share, out=share).sum(axis=1)
    gini_p = 1.0 - ((total / n[:, None]) ** 2).sum(axis=1)
    return gini_p[pair] - (nl * gini_l + nr * gini_r) / nn


def _first_best(pair, pos, gains, count, width):
    """Per node, (gain, position) of its first best cut; gain -inf if none splits.

    Positions without a cut count as -inf.  As in a one-node scan, a NaN
    gain wins the argmax, and a best gain outside (0, inf) (no gain, or
    statistics that overflowed) means no split.
    """
    table = np.full((count, width), -np.inf)
    table[pair, pos] = gains
    best = table.argmax(axis=1)
    gain = table[np.arange(count), best]
    gain[~((gain > 0.0) & (gain < np.inf))] = -np.inf
    return gain, best


def _scan_thresholds(rows, values, size, stats, task, min_leaf):
    """Best threshold split of each of P nodes, each on one feature.

    Row p of ``rows`` lists the ``size[p]`` rows of node p sorted stably by
    the feature, padded with the index of ``stats``' trailing zero row;
    ``values`` holds the matching feature values.  Cuts sit where the
    sorted values change and are admissible when both sides keep
    ``min_leaf`` rows, so no cut touches the padding.  Each node's prefix
    sums start from zero and the padding follows its rows, so they are
    those of the node alone.
    Returns per node the gain (-inf: no split) and the threshold, the
    midpoint of the two values around the chosen cut, or the lower value
    when the midpoint rounds to the upper one or overflows.
    """
    count, width = rows.shape
    cut = np.arange(1, width)  # left part sizes
    admissible = ((values[:, :-1] < values[:, 1:]) & (cut >= min_leaf)
                  & (cut <= (size - min_leaf)[:, None]))
    pair, pos = admissible.nonzero()
    prefix = stats[rows].cumsum(axis=1)
    total = prefix[np.arange(count), size - 1]
    gains = _cut_gains(prefix[pair, pos], pos + 1, pair, total, size, task)
    gain, best = _first_best(pair, pos + 1, gains, count, width)
    threshold = np.full(count, np.nan)
    ok = (gain > -np.inf).nonzero()[0]
    lo, hi = values[ok, best[ok] - 1], values[ok, best[ok]]
    mid = (lo + hi) / 2.0
    # between adjacent floats the midpoint can round up to hi, which would send hi
    # left too; two huge negatives overflow it to -inf, which would send lo right
    threshold[ok] = np.where((lo <= mid) & (mid < hi), mid, lo)
    return gain, threshold


def _scan_categories(pair, codes, rows, count, stats, task, min_leaf, levels):
    """Best category-membership split of each of ``count`` nodes, each on one feature.

    Element i puts row ``rows[i]``, whose feature code ``codes[i]`` lies
    in [0, levels), in node ``pair[i]``; each node lists its rows in row
    order.  Categories are ordered by their target statistic (mean target
    for regression, share of the node's majority class for
    classification) and prefixes of that order are scanned, the standard
    CART device.  Per-category sums add a node's rows in row order, as
    one-node sums do.  Returns per node the gain (-inf: no split) and its
    best cut, a row of a (count, levels + 2) boolean table whose entry c + 1
    says whether code c goes left; the first and last entries, and every
    entry of a node without a split, are False.
    """
    s = stats.shape[1]
    key = pair * levels + codes
    cnt = np.bincount(key, minlength=count * levels).reshape(count, levels)
    flat = (key[:, None] * s + np.arange(s)).ravel()
    agg = np.bincount(flat, weights=stats[rows].ravel(),
                      minlength=count * levels * s).reshape(count, levels, s)
    size = cnt.sum(axis=1)
    p, c = cnt.nonzero()  # present categories, by node and then code
    m = np.bincount(p, minlength=count)
    first = m.cumsum() - m
    cnt_v, agg_v = cnt[p, c], agg[p, c]
    if task == "regression":
        stat = agg_v[:, 0] / cnt_v
    else:
        majority = agg.sum(axis=1).argmax(axis=1)
        stat = agg_v[np.arange(p.size), majority[p]] / cnt_v
    width = int(m.max())
    col = np.arange(width)
    stat_pad = np.full((count, width), np.nan)
    stat_pad[p, np.arange(p.size) - first[p]] = stat
    # NaN pads sort after every category, NaN statistics included
    order = stat_pad.argsort(axis=1, kind="stable")
    src = np.where(col < m[:, None], first[:, None] + order, p.size)
    prefix = np.vstack([agg_v, np.zeros((1, s))])[src].cumsum(axis=1)
    nl = np.append(cnt_v, 0)[src].cumsum(axis=1)
    admissible = ((col < (m - 1)[:, None]) & (nl >= min_leaf)
                  & (nl <= (size - min_leaf)[:, None]))
    node, pos = admissible.nonzero()
    total = prefix[np.arange(count), np.maximum(m - 1, 0)]
    gains = _cut_gains(prefix[node, pos], nl[node, pos], node, total, size, task)
    gain, best = _first_best(node, pos, gains, count, width)
    # a cut sends the categories in scan positions 0..best left
    k, j = ((col <= best[:, None]) & (gain > -np.inf)[:, None]).nonzero()
    left = np.zeros((count, levels + 2), dtype=bool)
    left[k, c[src[k, j]] + 1] = True
    return gain, left


def _pure(y, start, size, task):
    """Whether the target of each segment ``y[start:start + size]`` is pure:
    one class, or a variance of exactly zero.

    Targets that spread wider than ``_SPREAD`` have a nonzero variance.  A
    nearly or fully constant target still goes through ``np.var``: the
    mean of equal values can differ from them, and tiny deviations can
    square to zero.
    """
    spread = np.maximum.reduceat(y, start) - np.minimum.reduceat(y, start)
    if task == "classification":
        return (spread == 0).tolist()
    pure = [False] * size.size
    for i in (~(spread > _SPREAD)).nonzero()[0].tolist():
        pure[i] = float(np.var(y[start[i]:start[i] + size[i]])) == 0.0
    return pure


def _segment_means(y, size):
    """Mean of each segment of ``size[i] >= 1`` consecutive values of y, with
    the bits of ``y[s:s + m].mean()``: equal-size segments make one block,
    summed row by row as numpy sums one segment alone."""
    start = size.cumsum() - size
    means = np.empty(size.size)
    for m in np.unique(size).tolist():
        group = (size == m).nonzero()[0]
        means[group] = y[start[group][:, None] + np.arange(m)].sum(axis=1) / m
    return means


def _mtry(d: int, task: str, params: ForestParams) -> int:
    if params.features_per_split is not None:
        return max(1, int(round(params.features_per_split * d)))
    if task == "classification":
        return max(1, int(round(np.sqrt(d))))
    return max(1, int(round(d / 3.0)))


def _blocks(width, per_row):
    """Index groups of pairs, widest first, each padding to about _BLOCK elements."""
    order = np.argsort(-width, kind="stable")
    i = 0
    while i < order.size:
        step = max(1, _BLOCK // (int(width[order[i]]) * per_row))
        yield order[i:i + step]
        i += step


def _least(u, k):
    """Per row of u, the sorted positions of its k least entries."""
    return np.sort(np.argpartition(u, k - 1, axis=1)[:, :k], axis=1)


def _ranges(start, size):
    """Positions ``start[i], ..., start[i] + size[i] - 1`` of every range i, range by range."""
    return np.repeat(start - (size.cumsum() - size), size) + np.arange(int(size.sum()))


# A node record: its tree, depth and key, its training rows (a range of the
# row buffer), its split (local feature and threshold, or NaN and ``cut``, its
# row of the grower's ``left``; feature -1 on a leaf and a pending node) and the
# id of its right child, whose left sibling follows it.  The leaf value is added
# per task.
_NODE = [("tree", np.intp), ("depth", np.intp), ("key", np.uint64), ("start", np.intp),
         ("size", np.intp), ("feature", np.intp), ("threshold", np.float64),
         ("child", np.intp), ("cut", np.intp)]


def _goes_left(values, size, threshold, cut, left):
    """Whether each value goes left at its node.  The values come node by
    node, ``size[i]`` of node i, whose split is ``threshold[i]`` (values <=
    it go left) or, where that is NaN, row ``cut[i]`` of ``left`` (code c
    goes left where its entry c + 1 is set)."""
    goes = values <= np.repeat(threshold, size)
    nominal = np.isnan(threshold)
    if nominal.any():
        at = np.repeat(nominal, size).nonzero()[0]
        goes[at] = left[np.repeat(cut[nominal], size[nominal]), values[at].astype(np.intp) + 1]
    return goes


class _Grower:
    """Grows the trees of several forests on one design matrix in lockstep.

    Forest f predicts its target ``Y[f]`` from the columns ``cols[f]`` of
    X: a tree of forest f draws local feature i and reads column
    ``cols[f, i]``, and its nodes keep the local index.  The trees come
    forest by forest, equally many per forest.  Tree u's root has key
    ``keys[u]``; a node's left child has key ``mix64(key ^ 0)`` and its
    right child ``mix64(key ^ 1)``.  A node that tries to split reads the
    ``mtry`` local features with the least lane-1 uniforms under its key,
    so its draw depends on its path from the root alone.

    The frontier is made of arrays.  Every node, pending or made, is a
    record of one table (``nodes``), and its training rows are a range of
    one row buffer, which starts with each tree's rows in row order; a
    split partitions its node's range stably in place, left rows first.
    A node is settled as a leaf when it is made, so the pending nodes are
    the ones that try to split.  A step takes every pending node, which is
    one depth level of every tree, draws all their features from their
    keys in one call, scans all their (node, drawn feature) pairs at once
    and makes each split's right child, then its left one; the children
    that try to split are the next step's.  Ids thus come level by level,
    every parent before its children and every right child just before
    its left sibling.

    Held-out rows take no part in growth: ``route`` sends them down the
    grown trees, one partition per depth level.  Every tree's ``TreeNode``s
    read the grown records and ``left``, which ``_split`` fills with one
    scanned row per category split, in place; tree u's root is record u.
    """

    def __init__(self, X, is_nominal, Y, cols, task, params, n_classes, keys, train):
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        is_nominal = np.zeros(d, dtype=bool) if is_nominal is None else np.asarray(is_nominal, dtype=bool)
        self.n = n
        self.task, self.params, self.n_classes = task, params, n_classes
        self.is_nominal = is_nominal
        self.cols = np.asarray(cols, dtype=np.intp)
        self.mtry = _mtry(self.cols.shape[1], task, params)
        F, T = len(Y), len(keys)
        self.forest = np.arange(T) // (T // F)  # per tree
        # forest f's row r sits at f * (n + 1) + r in the targets and their
        # statistics, as column c's row r does in xt; row n of each block is a zero pad
        self.offset = self.forest * (n + 1)
        # integer targets sum exactly, so as floats they give the same means and variances
        y = np.zeros((F, n + 1), dtype=np.float64 if task == "regression" else np.int64)
        y[:, :n] = Y
        self.y = y.ravel()
        self.stats = _target_stats(self.y, task, n_classes)
        self.stats[n::n + 1] = 0.0  # the pads' one-hot class 0
        xt = np.empty((d, n + 1))
        xt[:, :n] = X.T
        xt[:, n] = np.nan
        self.xt = xt.ravel()  # X[r, c] is xt[c * (n + 1) + r]
        codes = X[:, is_nominal]
        if codes.size and codes.min() < 0:
            raise DataError("category codes must be non-negative")
        self.levels = int(codes.max()) + 1 if codes.size else 0
        self.left = np.zeros((0, self.levels + 2), dtype=bool)  # the category splits
        size = np.array([rows.size for rows in train], dtype=np.intp)
        self.buf = np.concatenate(train).astype(np.intp, copy=False)
        value = ("value", np.float64) if task == "regression" else ("value", np.float64, (n_classes,))
        self.nodes = np.zeros(4 * T, dtype=_NODE + [value])  # widens as nodes come
        self.count = 0
        self._add(np.arange(T), 0, keys, size.cumsum() - size, size)  # tree u's root is node u

    def grow(self):
        """Grow every tree, one depth level of every tree per step."""
        roots = np.arange(self.forest.size)
        tries = self._tries(roots)
        self._make_leaves(roots[~tries])
        pending = roots[tries]
        while pending.size:
            pending = self._step(pending)
        # a copy without the spare rows: the trees' TreeNodes keep it after growth
        self.nodes = self.nodes[:self.count].copy()
        self.nodes.flags.writeable = self.left.flags.writeable = False
        self.buf = self.stats = None  # growth's own arrays

    def _add(self, tree, depth, key, start, size):
        """Records for new nodes of trees ``tree``, not yet split; returns their ids."""
        first = self.count
        self.count += tree.size
        if self.count > self.nodes.size:
            wider = np.zeros(max(self.count, 2 * self.nodes.size), dtype=self.nodes.dtype)
            wider[:first] = self.nodes[:first]
            self.nodes = wider
        new = self.nodes[first:self.count]
        new["tree"], new["depth"], new["key"] = tree, depth, key
        new["start"], new["size"] = start, size
        new["feature"] = -1
        return np.arange(first, self.count)

    def _targets(self, ids):
        """The targets of the nodes' training rows, node by node."""
        rec = self.nodes[ids]
        return self.y[np.repeat(self.offset[rec["tree"]], rec["size"])
                      + self.buf[_ranges(rec["start"], rec["size"])]]

    def _tries(self, ids):
        """Whether each new node tries to split: it is within the depth and
        size limits and its target is not pure."""
        rec = self.nodes[ids]
        tries = ((rec["depth"] < self.params.max_depth)
                 & (rec["size"] >= 2 * self.params.min_samples_leaf))
        test = tries.nonzero()[0]
        if test.size:
            size = rec["size"][test]
            tries[test] = np.logical_not(
                _pure(self._targets(ids[test]), size.cumsum() - size, size, self.task))
        return tries

    def _make_leaves(self, ids):
        """Give nodes their leaf values: mean target, or class shares."""
        if not ids.size:
            return
        size = self.nodes["size"][ids]
        yv = self._targets(ids)
        if self.task == "regression":
            self.nodes["value"][ids] = _segment_means(yv, size)
        else:
            C = self.n_classes
            leaf = np.repeat(np.arange(size.size), size)
            counts = np.bincount(leaf * C + yv, minlength=size.size * C).reshape(-1, C)
            self.nodes["value"][ids] = counts / size[:, None]

    def _step(self, ids):
        """Try to split the pending nodes ``ids``; returns their children that
        try to split."""
        tree = self.nodes["tree"][ids]
        A, n, mtry = ids.size, self.n, self.mtry
        min_leaf = self.params.min_samples_leaf
        d = self.cols.shape[1]
        draws = _least(keyed_uniform_grid(0, 1, self.nodes["key"][ids], np.arange(d)), mtry)
        local = draws.ravel()  # pair a * mtry + j: node a, its j-th drawn feature
        feat = np.take_along_axis(self.cols[self.forest[tree]], draws, axis=1).ravel()
        rec = self.nodes[ids]
        owner = np.repeat(np.arange(A), mtry)
        offset = self.offset[tree][owner]  # where the pair's forest's statistics start
        width = rec["size"][owner]
        start = rec["start"][owner]
        nominal = self.is_nominal[feat]
        gain = np.full(feat.size, -np.inf)
        threshold = np.full(feat.size, np.nan)
        s = self.stats.shape[1]
        num = (~nominal).nonzero()[0]
        for g in _blocks(width[num], s):
            p = num[g]
            col = np.arange(int(width[p].max()))
            padded = np.where(col < width[p][:, None],
                              self.buf.take(start[p][:, None] + col, mode="clip"), n)
            values = self.xt.take(feat[p][:, None] * (n + 1) + padded)
            # a stable sort keeps a node's tied rows in row order; the NaN padding sorts last
            order = values.argsort(axis=1, kind="stable")
            order += np.arange(0, order.size, order.shape[1])[:, None]  # flat positions
            gain[p], threshold[p] = _scan_thresholds(
                padded.take(order) + offset[p][:, None], values.take(order), width[p], self.stats,
                self.task, min_leaf)
        scans = []  # per block of nominal pairs: (pairs, their best cuts as rows of left)
        nom = nominal.nonzero()[0]
        for g in _blocks(np.full(nom.size, self.levels), s):
            p, w = nom[g], width[nom[g]]
            seg = np.repeat(np.arange(p.size), w)
            member = self.buf[_ranges(start[p], w)]
            codes = self.xt.take(feat[p][seg] * (n + 1) + member).astype(np.int64)
            gain[p], cuts = _scan_categories(seg, codes, member + offset[p][seg], p.size,
                                             self.stats, self.task, min_leaf, self.levels)
            scans.append((p, cuts))
        # first best feature of each node; the draws are sorted, so ties go to the lowest
        pick = gain.reshape(A, mtry).argmax(axis=1) + np.arange(A) * mtry
        splits = gain[pick] > 0.0
        leaves, pending = self._split(ids[splits], pick[splits], local, feat, threshold, scans)
        self._make_leaves(np.concatenate([ids[~splits], leaves]))
        return pending

    def _split(self, ids, pairs, local, feat, threshold, scans):
        """Split nodes ``ids`` on their pairs' features, partition their rows
        and make their children; returns the children that are leaves and
        the ones that try to split."""
        n, K = self.n, ids.size
        thr = threshold[pairs]  # NaN on a category split
        self.nodes["feature"][ids] = local[pairs]
        self.nodes["threshold"][ids] = thr
        node = np.full(feat.size, -1)
        node[pairs] = ids  # the node each winning pair splits; -1 for the others
        for p, cuts in scans:
            won = node[p] >= 0
            self.nodes["cut"][node[p[won]]] = len(self.left) + np.arange(won.sum())
            self.left = np.concatenate([self.left, cuts[won]])
        rec = self.nodes[ids]
        size, start = rec["size"], rec["start"]
        rows = self.buf[_ranges(start, size)]
        values = self.xt.take(rows + np.repeat(feat[pairs] * (n + 1), size))
        goes = _goes_left(values, size, thr, rec["cut"], self.left)
        # every splitting node has rows, so no segment is empty
        nl = np.add.reduceat(goes, size.cumsum() - size, dtype=np.intp)
        self.buf[_ranges(start, nl)] = rows[goes]
        self.buf[_ranges(start + nl, size - nl)] = rows[~goes]
        side = np.tile(np.array([1, 0], dtype=np.uint64), K)
        new = self._add(np.repeat(rec["tree"], 2), np.repeat(rec["depth"] + 1, 2),
                        mix64_array(np.repeat(rec["key"], 2) ^ side),
                        np.column_stack([start + nl, start]).ravel(),
                        np.column_stack([size - nl, nl]).ravel())
        self.nodes["child"][ids] = new[0::2]  # the right children
        tries = self._tries(new)
        return new[~tries], new[tries]

    def route(self, heldout):
        """Every tree's predictions of its held-out rows: tree u's of row r,
        the value of the leaf r reaches or that leaf's first most probable
        class, sits at ``u * n + r`` (zero elsewhere).

        The rows of every tree go down together, level by level: one
        partition per level sends the rows at every internal node of that
        depth to its children, left rows first, and rows that reach a leaf
        take its prediction.
        """
        n, rec = self.n, self.nodes
        leaf_pred = rec["value"] if self.task == "regression" else rec["value"].argmax(axis=1)
        pred = np.zeros(len(heldout) * n, dtype=leaf_pred.dtype)
        is_leaf = rec["feature"] < 0
        # where the column of each split's feature starts in xt
        base = self.cols[self.forest[rec["tree"]], np.maximum(rec["feature"], 0)] * (n + 1)
        nodes = np.arange(len(heldout))  # the roots
        size = np.array([rows.size for rows in heldout], dtype=np.intp)
        rows = np.concatenate(heldout)  # node by node
        while nodes.size:
            leaf = is_leaf[nodes]
            if leaf.any():
                done, at, m = np.repeat(leaf, size), nodes[leaf], size[leaf]
                pred[np.repeat(rec["tree"][at] * n, m) + rows[done]] = np.repeat(leaf_pred[at], m)
                rows, nodes, size = rows[~done], nodes[~leaf], size[~leaf]
            nodes, size = nodes[size > 0], size[size > 0]
            if not nodes.size:
                break
            values = self.xt.take(np.repeat(base[nodes], size) + rows)
            goes = _goes_left(values, size, rec["threshold"][nodes], rec["cut"][nodes], self.left)
            nl = np.add.reduceat(goes, size.cumsum() - size, dtype=np.intp)
            went = int(nl.sum())
            sent = np.empty_like(rows)
            np.compress(goes, rows, out=sent[:went])
            np.compress(~goes, rows, out=sent[went:])
            rows = sent
            right = rec["child"][nodes]
            nodes = np.concatenate([right + 1, right])
            size = np.concatenate([nl, size - nl])
        return pred


def train_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    seed: int,
    task: str = "regression",
    is_nominal: np.ndarray | None = None,
    n_classes: int = 0,
) -> tuple[TreeNode, np.ndarray]:
    """Grow one CART tree greedily on every row; ties go to the lowest feature index.

    Returns the root and each row's prediction: its leaf's value, or the
    leaf's first most probable class.  ``seed``, an integer in
    [0, 2**64), is the root's key, from which every node draws its split
    features.
    """
    if X.shape[0] == 0:
        raise DataError("cannot train a tree on zero rows")
    rows = np.arange(X.shape[0])
    grower = _Grower(X, is_nominal, [y], [np.arange(X.shape[1])], task, params, n_classes,
                     np.array([seed], dtype=np.uint64), [rows])
    grower.grow()
    return TreeNode(grower.nodes, grower.left, 0), grower.route([rows])


def train_forest(
    X: np.ndarray,
    targets: list[int],
    task: str,
    params: ForestParams,
    seeds: list[int],
    is_nominal: np.ndarray | None = None,
    n_classes: int = 0,
) -> ForestModel:
    """Train one forest per target column of X, each on the other columns.

    The targets share ``task`` and ``n_classes``, and all their trees grow
    together.  Forest i predicts column ``targets[i]`` from the other
    columns in column order, so its trees' features index those columns.
    It has T trees on independent row subsamples, each scored on its
    held-out rows.  Tree u's seed is ``derive_seed(seeds[i], "tree", u)``:
    it trains on the ``sample_size(n)`` rows with the least lane-0
    uniforms under that seed, and the seed is its root's key.  The
    model's trees are target-major: forest i's are ``trees[i * T:(i + 1)
    * T]``.  Each tree's ``root`` is a ``TreeNode`` cursor into one
    read-only table of the call's node records.
    """
    n, d = X.shape
    T = params.T
    keys = np.concatenate([derive_seeds(seed, "tree", lanes=np.arange(T)) for seed in seeds])
    train = _least(keyed_uniform_grid(0, 0, keys, np.arange(n)), params.sample_size(n))
    held = np.ones((keys.size, n), dtype=bool)
    held[np.arange(keys.size)[:, None], train] = False
    heldout = [np.flatnonzero(h) for h in held]
    Y = X[:, targets].T
    cols = [np.flatnonzero(np.arange(d) != j) for j in targets]
    grower = _Grower(X, is_nominal, Y, cols, task, params, n_classes, keys, train)
    grower.grow()
    pred = grower.route(heldout)
    trees = []
    for t in range(keys.size):
        y = Y[t // T]
        y_tr = y[train[t]]
        majority = int(np.bincount(y_tr.astype(np.int64), minlength=n_classes).argmax()) if task == "classification" else None
        quality = _heldout_quality(pred[t * n + heldout[t]], y[heldout[t]], task)
        trees.append(TreeFit(TreeNode(grower.nodes, grower.left, t), train[t], heldout[t],
                             quality, majority))
    return ForestModel(trees=trees, task=task)


def _heldout_quality(pred: np.ndarray, truth: np.ndarray, task: str) -> float:
    """Accuracy (classification) or R+ = max(0, R^2) (regression) of held-out predictions.

    ``pred`` holds predicted classes (classification) or values (regression).
    With no held-out rows the quality is 0.
    """
    if truth.size == 0:
        return 0.0
    if task == "classification":
        return float(np.mean(pred == truth))
    ss_res = float(np.sum((truth - pred) ** 2))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return max(0.0, 1.0 - ss_res / ss_tot)
