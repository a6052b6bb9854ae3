"""CART trees and random forests trained from scratch.

Used twice: as the leave-one-feature-out dependency models (one forest
per target column, regression for numeric/ordinal targets and
classification for nominal ones) and as the shallow probe tree of the
explanation faithfulness harness.  Numeric and ordinal inputs split on
thresholds; nominal inputs split on category-membership sets found by
ordering categories by their target statistic and scanning prefixes.

The trees of a forest, and of the forests of several target columns that
share a task and a class count, grow together (``_Grower``): each step
takes the next node of every tree and scans all its candidate splits in
a few array passes.  Every tree keeps its own node order, random stream
and input columns, so it comes out bit for bit as it would grown alone.
One batched reader of the trees' own PCG64 streams (``_FeatureDraws``)
draws the split features of every node of a step, as the trees'
``Generator.choice`` calls would draw them.
The grower is the one router: held-out rows take the value of the leaf
they reach, and the probe tree, which holds out every row, reads its
predictions from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._rng import derive_seed
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


def _scan_categories(pair, codes, rows, count, stats, task, min_leaf):
    """Best category-membership split of each of ``count`` nodes, each on one feature.

    Element i puts row ``rows[i]``, whose feature code is ``codes[i]``, in
    node ``pair[i]``; each node lists its rows in row order.  Categories are
    ordered by their target statistic (mean target for regression, share of
    the node's majority class for classification) and prefixes of that
    order are scanned, the standard CART device.  Per-category sums add a
    node's rows in row order, as one-node sums do.  Returns per node the
    gain (-inf: no split), its categories in scan order (padded with -1)
    and how many of them go left.
    """
    s = stats.shape[1]
    levels = int(codes.max()) + 1
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
    return gain, np.append(c, -1)[src], best + 1


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


class _FeatureDraws:
    """Every tree's ``choice(d, mtry, replace=False)`` of numpy's ``Generator``, in one batch.

    numpy's ``choice`` reads its generator's 32-bit stream: a pending half
    of a PCG64 word first, then the low and the high half of each new
    word.  Each draw is Lemire's bounded integer in [0, b]: it rejects a
    half whose product with b + 1 has a low part below 2^32 mod (b + 1),
    and bound 0 reads nothing.  For d <= 10000, or mtry <= d // 50, it
    picks by Floyd's algorithm (bounds d - mtry .. d - 1) and then
    shuffles the picks (bounds mtry - 1 .. 1); otherwise it shuffles the
    tail of arange(d) (bounds d - 1 .. max(d - mtry, 1)).

    Here each tree reads words ahead from its own PCG64 into row u of one
    table of halves: entry 0 is the state's ``uinteger``, pending or not,
    and entries 2k + 1 and 2k + 2 are the low and high half of word k.
    The draws of every tree of a step are made at once, and ``finish``
    leaves each generator where its ``choice`` calls would have left it.
    """

    def __init__(self, rngs):
        for rng in rngs:
            if not isinstance(rng.bit_generator, np.random.PCG64):
                raise ConfigError("forest trees draw from PCG64 generators, not "
                                  f"{type(rng.bit_generator).__name__}")
        self.rngs = rngs
        self.snapshot = [rng.bit_generator.state for rng in rngs]
        self.half = np.array([[s["uinteger"]] for s in self.snapshot], dtype=np.uint32)
        self.read = np.ones(len(rngs), dtype=np.intp)  # table entries filled, per tree
        self.pos = np.array([1 - s["has_uint32"] for s in self.snapshot], dtype=np.intp)
        self.start = self.pos.copy()

    def _reserve(self, tree, need):
        """Read words ahead until tree ``tree[i]`` has ``need[i]`` table entries."""
        short = (need > self.read[tree]).nonzero()[0]
        for u, m in zip(tree[short].tolist(), need[short].tolist()):
            have = int(self.read[u])
            words = max((m - have + 1) // 2, have, 32)  # at least triple the entries
            end = have + 2 * words
            if end > self.half.shape[1]:
                wider = np.zeros((self.half.shape[0], max(end, 2 * self.half.shape[1])),
                                 dtype=np.uint32)
                wider[:, :self.half.shape[1]] = self.half
                self.half = wider
            raw = self.rngs[u].bit_generator.random_raw(words)
            self.half[u, have:end:2] = raw & 0xFFFFFFFF
            self.half[u, have + 1:end:2] = raw >> 32
            self.read[u] = end

    def _bounded(self, tree, bounds):
        """Per tree, Lemire's draw in [0, b] for each bound b >= 1 in turn."""
        if not bounds.size:
            return np.zeros((tree.size, 0), dtype=np.intp)
        excl = bounds.astype(np.uint64) + 1
        threshold = (1 << 32) % excl
        at = self.pos[tree][:, None] + np.arange(bounds.size)
        while True:
            self._reserve(tree, at[:, -1] + 1)
            m = self.half[tree[:, None], at] * excl
            reject = (m & 0xFFFFFFFF) < threshold
            if not reject.any():
                break
            # a rejected half is skipped: its draw and every later one read one entry on
            rows = reject.any(axis=1).nonzero()[0]
            at[rows] += np.arange(bounds.size) >= reject[rows].argmax(axis=1)[:, None]
        self.pos[tree] = at[:, -1] + 1
        return (m >> 32).astype(np.intp)

    def draw(self, tree, d, mtry):
        """Sorted ``choice(d, mtry, replace=False)`` of each tree ``tree[i]``, as rows."""
        if d > 10000 and mtry > d // 50:
            bounds = np.arange(d - 1, max(d - mtry, 1) - 1, -1)
            j = self._bounded(tree, bounds)
            idx = np.tile(np.arange(d), (tree.size, 1))
            row = np.arange(tree.size)
            for c, i in enumerate(bounds.tolist()):
                idx[row, i], idx[row, j[:, c]] = idx[row, j[:, c]], idx[row, i]
            picks = idx[:, d - mtry:]
        else:
            top = np.arange(d - mtry, d)
            floyd = top[top > 0]
            picks = np.zeros((tree.size, mtry), dtype=np.intp)
            picks[:, mtry - floyd.size:] = self._bounded(
                tree, np.concatenate([floyd, np.arange(mtry - 1, 0, -1)]))[:, :floyd.size]
            # a value picked before gives way to its bound, which no earlier pick reaches
            for c in range(1, mtry):
                seen = (picks[:, :c] == picks[:, c, None]).any(axis=1)
                picks[seen, c] = top[c]
        picks.sort(axis=1)
        return picks

    def finish(self):
        """Put every generator that drew where its ``choice`` calls would leave it."""
        for u in (self.pos != self.start).nonzero()[0].tolist():
            e = int(self.pos[u])
            bg = self.rngs[u].bit_generator
            bg.state = self.snapshot[u]
            bg.advance(e // 2)
            state = bg.state
            # an even entry is the pending half; past an odd one, numpy keeps
            # the half before it as ``uinteger``
            state["has_uint32"] = int(e % 2 == 0)
            state["uinteger"] = int(self.half[u, e - e % 2])
            bg.state = state


class _Pending(NamedTuple):
    """A node of tree ``tree`` not yet made: where it hangs, and the rows that reach it."""
    tree: int
    parent: TreeNode | None
    is_left: bool
    depth: int
    rows: np.ndarray   # training rows, in row order
    held: np.ndarray   # held-out rows


class _Grower:
    """Grows the trees of several forests on one design matrix in lockstep.

    Forest f predicts its target ``Y[f]`` from the columns ``cols[f]`` of
    X: a tree of forest f draws local feature i and reads column
    ``cols[f, i]``, and its nodes keep the local index.  The trees come
    forest by forest, equally many per forest.  Each tree keeps its own
    depth-first order (left subtree first) and its own rng, so its feature
    draws come in the order of a tree grown alone.  A step takes the next
    pending node of every tree, draws all their features in one batch from
    the trees' own streams, and scans all their (node, drawn feature)
    pairs at once.  A node is settled as a leaf when it is made, so the
    pending nodes are the ones that try to split.  Held-out rows go down
    with their node and take the value of the leaf they reach.
    """

    def __init__(self, X, is_nominal, Y, cols, task, params, n_classes, rngs, train, heldout):
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        is_nominal = np.zeros(d, dtype=bool) if is_nominal is None else np.asarray(is_nominal, dtype=bool)
        self.n = n
        self.task, self.params, self.n_classes = task, params, n_classes
        self.is_nominal = is_nominal
        self.cols = np.asarray(cols, dtype=np.intp)
        self.mtry = _mtry(self.cols.shape[1], task, params)
        F, T = len(Y), len(rngs)
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
        self.draws = _FeatureDraws(rngs)
        self.roots = [None] * T
        self.stacks = [[] for _ in range(T)]
        self.pred = np.zeros(T * n, dtype=np.float64 if task == "regression" else np.int64)
        leaves = []
        self._settle([_Pending(u, None, True, 0, train[u], heldout[u]) for u in range(T)], leaves)
        self._make_leaves(leaves)

    def grow(self) -> list[TreeNode]:
        """The trees' roots; ``pred`` then holds each tree's held-out predictions
        (values, or classes) at ``tree * n + row``."""
        while any(self.stacks):
            self._step()
        self.draws.finish()
        return self.roots

    def _attach(self, pending, node):
        if pending.parent is None:
            self.roots[pending.tree] = node
        elif pending.is_left:
            pending.parent.left = node
        else:
            pending.parent.right = node

    def _settle(self, new, leaves):
        """Sort new pending nodes into ``leaves`` and their trees' stacks, keeping their order."""
        max_depth = self.params.max_depth
        min_size = 2 * self.params.min_samples_leaf
        test = []
        for node in new:
            if node.depth >= max_depth or node.rows.size < min_size:
                leaves.append(node)
            else:
                test.append(node)
        if not test:
            return
        size = np.array([node.rows.size for node in test])
        yv = self._targets(test, size)
        for node, pure in zip(test, _pure(yv, size.cumsum() - size, size, self.task)):
            if pure:
                leaves.append(node)
            else:
                self.stacks[node.tree].append(node)

    def _targets(self, nodes, size):
        """The targets of the nodes' rows, node by node."""
        offset = self.offset[[node.tree for node in nodes]]
        return self.y[np.repeat(offset, size) + np.concatenate([node.rows for node in nodes])]

    def _make_leaves(self, leaves):
        """Make pending nodes into leaves and give their held-out rows the leaf values."""
        if not leaves:
            return
        size = np.array([node.rows.size for node in leaves])
        yv = self._targets(leaves, size)
        if self.task == "regression":
            pred = _segment_means(yv, size)
            values = pred.tolist()
        else:
            C = self.n_classes
            leaf = np.repeat(np.arange(size.size), size)
            counts = np.bincount(leaf * C + yv, minlength=size.size * C).reshape(-1, C)
            probs = counts / size[:, None]
            values = list(probs)
            pred = probs.argmax(axis=1)
        for node, m, value in zip(leaves, size.tolist(), values):
            self._attach(node, TreeNode(n_samples=m, value=value))
        hsize = np.array([node.held.size for node in leaves])
        if hsize.any():
            base = np.array([node.tree for node in leaves]) * self.n
            self.pred[np.repeat(base, hsize) + np.concatenate([node.held for node in leaves])] = \
                np.repeat(pred, hsize)

    def _step(self):
        """Try to split the next pending node of every tree."""
        active = [stack.pop() for stack in self.stacks if stack]
        A, n, mtry = len(active), self.n, self.mtry
        min_leaf = self.params.min_samples_leaf
        tree = np.array([node.tree for node in active])
        draws = self.draws.draw(tree, self.cols.shape[1], mtry)
        local = draws.ravel()  # pair a * mtry + j: node a, its j-th drawn feature
        feat = np.take_along_axis(self.cols[self.forest[tree]], draws, axis=1).ravel()
        size = np.array([node.rows.size for node in active])
        rows = np.concatenate([node.rows for node in active])
        first = size.cumsum() - size
        owner = np.repeat(np.arange(A), mtry)
        offset = self.offset[tree][owner]  # where the pair's forest's statistics start
        width = size[owner]
        start = first[owner]
        nominal = self.is_nominal[feat]
        gain = np.full(feat.size, -np.inf)
        threshold = np.full(feat.size, np.nan)
        s = self.stats.shape[1]
        num = (~nominal).nonzero()[0]
        for g in _blocks(width[num], s):
            p = num[g]
            col = np.arange(int(width[p].max()))
            padded = np.where(col < width[p][:, None], rows.take(start[p][:, None] + col, mode="clip"), n)
            values = self.xt.take(feat[p][:, None] * (n + 1) + padded)
            # a stable sort keeps a node's tied rows in row order; the NaN padding sorts last
            order = values.argsort(axis=1, kind="stable")
            order += np.arange(0, order.size, order.shape[1])[:, None]  # flat positions
            gain[p], threshold[p] = _scan_thresholds(
                padded.take(order) + offset[p][:, None], values.take(order), width[p], self.stats,
                self.task, min_leaf)
        where = {}  # nominal pair -> (categories in scan order, row, left counts)
        nom = nominal.nonzero()[0]
        for g in _blocks(np.full(nom.size, self.levels), s):
            p, w = nom[g], width[nom[g]]
            seg = np.repeat(np.arange(p.size), w)
            member = rows[np.arange(int(w.sum())) + np.repeat(start[p] - (w.cumsum() - w), w)]
            codes = self.xt.take(feat[p][seg] * (n + 1) + member).astype(np.int64)
            gain[p], ordered, n_left = _scan_categories(
                seg, codes, member + offset[p][seg], p.size, self.stats, self.task, min_leaf)
            for i, q in enumerate(p.tolist()):
                where[q] = (ordered, i, n_left)
        # first best feature of each node; the draws are sorted, so ties go to the lowest
        pick = (gain.reshape(A, mtry).argmax(axis=1) + np.arange(A) * mtry).tolist()
        leaves, grown = [], []
        for a, node in enumerate(active):
            p = pick[a]
            if not gain[p] > 0.0:
                leaves.append(node)
                continue
            m = int(size[a])
            if nominal[p]:
                ordered, i, n_left = where[p]
                split = TreeNode(n_samples=m, feature=int(local[p]),
                                 categories=frozenset(ordered[i, :n_left[i]].tolist()))
            else:
                split = TreeNode(n_samples=m, feature=int(local[p]), threshold=float(threshold[p]))
            self._attach(node, split)
            grown.append((node, split))
        if grown:
            self._split(grown, leaves)
        self._make_leaves(leaves)

    def _split(self, grown, leaves):
        """Send the rows and held-out rows of every (pending node, split node) to its children."""
        n, K = self.n, len(grown)
        # the nodes' rows, then their held-out rows, segment by segment
        rows = np.concatenate([node.rows for node, _ in grown] + [node.held for node, _ in grown])
        m = np.array([node.rows.size for node, _ in grown])
        hsize = np.array([node.held.size for node, _ in grown])
        length = np.concatenate([m, hsize])
        seg = np.repeat(np.tile(np.arange(K), 2), length)  # the split node of each element
        tree = [node.tree for node, _ in grown]
        base = self.cols[self.forest[tree], [split.feature for _, split in grown]] * (n + 1)
        values = self.xt.take(rows + base[seg])
        total = rows.size
        # a nominal split has no threshold: as NaN it sends no row left until its lookup below
        thr = np.array([split.threshold for _, split in grown], dtype=np.float64)
        # the extra False lets an empty last segment count from a real index
        goes = np.append(values <= thr[seg], False)
        nominal = np.isnan(thr)
        if nominal.any():
            # the nodes' own lookup tables (entry c + 1: code c goes left), padded with False
            tables = [split._left_codes for _, split in grown]
            width = max(t.size for t in tables if t is not None)
            table = np.zeros((K, width), dtype=bool)
            for k in nominal.nonzero()[0].tolist():
                table[k, :tables[k].size] = tables[k]
            part = nominal[seg].nonzero()[0]
            code = values[part].astype(np.int64) + 1
            code.clip(0, width - 1, out=code)
            goes[part] = table.ravel().take(seg[part] * width + code)
        # rows sent left per segment; an empty segment sends none
        nl = np.where(length > 0, np.add.reduceat(goes, length.cumsum() - length, dtype=np.intp), 0)
        nr = length - nl
        side = goes[:total]
        left, right = rows[side], rows[~side]
        lo, ro = (nl.cumsum() - nl).tolist(), (nr.cumsum() - nr).tolist()
        nl, nr = nl.tolist(), nr.tolist()
        new = []
        for k, (node, split) in enumerate(grown):
            h, depth = K + k, node.depth + 1
            # a right child waits for its sibling's subtree: copy it out of this step's arrays
            new.append(_Pending(node.tree, split, False, depth, right[ro[k]:ro[k] + nr[k]].copy(),
                                right[ro[h]:ro[h] + nr[h]].copy()))
            new.append(_Pending(node.tree, split, True, depth, left[lo[k]:lo[k] + nl[k]],
                                left[lo[h]:lo[h] + nl[h]]))
        self._settle(new, leaves)


def train_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
    task: str = "regression",
    is_nominal: np.ndarray | None = None,
    n_classes: int = 0,
) -> tuple[TreeNode, np.ndarray]:
    """Grow one CART tree greedily on every row; ties go to the lowest feature index.

    Returns the root and each row's prediction: its leaf's value, or the
    leaf's first most probable class.  ``rng`` must be a PCG64 generator
    (``np.random.default_rng``); it ends where one ``choice(d, mtry,
    replace=False)`` call on it per split attempt would leave it.
    """
    if X.shape[0] == 0:
        raise DataError("cannot train a tree on zero rows")
    rows = np.arange(X.shape[0])
    grower = _Grower(X, is_nominal, [y], [np.arange(X.shape[1])], task, params, n_classes,
                     [rng], [rows], [rows])
    return grower.grow()[0], grower.pred


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
    held-out rows; tree u draws its rows, then its split features, from
    the stream ``derive_seed(seeds[i], "tree", u)``.  The model's trees
    are target-major: forest i's are ``trees[i * T:(i + 1) * T]``.
    """
    n, d = X.shape
    T, sample_size = params.T, params.sample_size(n)
    rngs, train, heldout = [], [], []
    for seed in seeds:
        for u in range(T):
            rng = np.random.default_rng(derive_seed(seed, "tree", u))
            rows = np.sort(rng.choice(n, size=sample_size, replace=False))
            rngs.append(rng)
            train.append(rows)
            heldout.append(np.setdiff1d(np.arange(n), rows, assume_unique=True))
    Y = X[:, targets].T
    cols = [np.flatnonzero(np.arange(d) != j) for j in targets]
    grower = _Grower(X, is_nominal, Y, cols, task, params, n_classes, rngs, train, heldout)
    trees = []
    for t, root in enumerate(grower.grow()):
        y = Y[t // T]
        y_tr = y[train[t]]
        majority = int(np.bincount(y_tr.astype(np.int64), minlength=n_classes).argmax()) if task == "classification" else None
        quality = _heldout_quality(grower.pred[t * n + heldout[t]], y[heldout[t]], task)
        trees.append(TreeFit(root, train[t], heldout[t], quality, majority))
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
