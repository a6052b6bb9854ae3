"""Shared builders, oracles, and combinatorial generators for the test suite."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import factorial

import numpy as np
from scipy import sparse

from wise._rng import MASK64, derive_seed, mix64, mix64_array, unit_from_bits
from wise.bep import block_offset
from wise.data_model import (
    ColumnSchema,
    MixedTable,
    design_matrix,
    table_from_columns,
    table_from_raw,
    unit_column,
)
from wise.errors import ConfigError, DataError
from wise.forest import (
    ForestModel,
    ForestParams,
    TreeFit,
    TreeNode,
    _mtry,
    _target_stats,
    train_tree,
)
from wise.lofo import QdParams, TreeCandidate, cosine_distance, grow_forests, marginal_gain
from wise.metrics import SWC_SUBSAMPLE
from wise.treeshap import _weight_tables, aggregate_global
from wise.wkfreq import (
    _distinct_rows,
    _icws_keys,
    _icws_parts,
    _seed_from_candidates,
    cws_signatures,
)


def numeric_table(values):
    """Single numeric column table."""
    schema = [ColumnSchema("x", "numeric")]
    return table_from_raw(schema, [(float(v),) for v in values])


def random_mixed_table(rng, n=80, numeric=2, nominal=2, levels=3):
    """Random table with numeric columns in [0,1] and nominal columns."""
    schema = [ColumnSchema(f"num_{a}", "numeric") for a in range(numeric)]
    schema += [ColumnSchema(f"cat_{a}", "nominal") for a in range(nominal)]
    cols = [rng.random(n) for _ in range(numeric)]
    cols += [[f"v{t}" for t in rng.integers(0, levels, n)] for _ in range(nominal)]
    return table_from_columns(schema, cols)


def reference_mix64(x: int) -> int:
    """splitmix64 finalizer in Python integer arithmetic."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class BlockCode:
    """A contiguous block of B ones at `offset` inside a 2B-bit window."""

    offset: int
    B: int

    @property
    def bits(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.B, dtype=np.int64)


def encode_numeric_value(x: float, B: int) -> BlockCode:
    """Encode one normalized value as a shifted block of B ones."""
    return BlockCode(offset=block_offset(x, B), B=B)


def qd_objective(selected: list[TreeCandidate], lam: float) -> float:
    """Mean quality blended with mean pairwise attribution distance."""
    k = len(selected)
    if k == 0:
        raise ConfigError("objective undefined for an empty selection")
    quality = lam * sum(c.quality for c in selected) / k
    if k == 1:
        return quality
    pair_sum = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            pair_sum += cosine_distance(selected[i].s, selected[j].s)
    return quality + (1.0 - lam) * 2.0 / (k * (k - 1)) * pair_sum


def _reference_cell(raw, col: ColumnSchema, level_index: dict):
    """A float (numeric), level index (ordinal) or first-occurrence code (nominal)."""
    if col.kind == "numeric":
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise DataError(f"column {col.name!r}: unparseable numeric {raw!r}") from None
        if not np.isfinite(value):
            raise DataError(f"column {col.name!r}: non-finite numeric {raw!r}")
        return value
    label = str(raw)
    if col.kind == "ordinal":
        try:
            return col.ordered_levels.index(label)
        except ValueError:
            raise DataError(
                f"column {col.name!r}: level {label!r} not in ordered_levels"
            ) from None
    if label not in level_index:
        level_index[label] = len(col.observed_levels)
        col.observed_levels.append(label)
    return level_index[label]


def reference_table_from_rows(schema, raw_rows, row_ids=None) -> MixedTable:
    """The cell-by-cell parser: each row typed in turn, then transposed.

    Nominal levels grow on copies of the schema entries in first-occurrence
    order; the first bad cell in row order raises.
    """
    schema = [replace(col, observed_levels=[]) for col in schema]
    level_maps = [{} for _ in schema]
    rows = []
    for raw in raw_rows:
        if len(raw) != len(schema):
            raise DataError(f"row has {len(raw)} cells, schema has {len(schema)}")
        rows.append([_reference_cell(c, col, lm) for c, col, lm in zip(raw, schema, level_maps)])
    if not rows:
        raise DataError("no rows")
    return MixedTable(schema, list(zip(*rows)), row_ids)


def random_sparse_binary(rng, n, p, min_nnz=3, max_nnz=10):
    """Random binary CSR matrix with a few ones per row."""
    from scipy import sparse

    indptr = [0]
    indices = []
    for _ in range(n):
        nnz = int(rng.integers(min_nnz, max_nnz + 1))
        indices.extend(sorted(rng.choice(p, size=nnz, replace=False).tolist()))
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.uint8), indices, indptr), shape=(n, p)
    )


def predict_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Batch traversal; returns values (n,) or probability rows (n, C)."""
    probe = root
    while not probe.is_leaf:
        probe = probe.left
    width = None if np.isscalar(probe.value) else len(probe.value)
    out = np.zeros(X.shape[0]) if width is None else np.zeros((X.shape[0], width))
    pending = [(root, np.arange(X.shape[0]))]
    while pending:
        node, idx = pending.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = node.goes_left(X[idx, node.feature])
        pending.append((node.right, idx[~mask]))
        pending.append((node.left, idx[mask]))
    return out


def shap_oracle(root, x, background, output_index=None):
    """Exhaustive interventional Shapley: enumerate every coalition."""
    d = x.size
    cache = {}

    def value(S):
        if S not in cache:
            Z = background.copy()
            if S:
                Z[:, list(S)] = x[list(S)]
            pred = predict_tree(root, Z)
            if pred.ndim == 2:
                pred = pred[:, output_index]
            cache[S] = float(pred.mean())
        return cache[S]

    phi = np.zeros(d)
    for f in range(d):
        others = [g for g in range(d) if g != f]
        for r in range(d):
            for S in combinations(others, r):
                w = factorial(len(S)) * factorial(d - len(S) - 1) / factorial(d)
                phi[f] += w * (value(tuple(sorted(S + (f,)))) - value(S))
    return phi, value(())


def random_tree(rng, d, task="regression", n_classes=0, depth=3, nominal_frac=0.3):
    """Fit one small tree on random data; returns (root, X, is_nominal)."""
    n = 40
    is_nominal = rng.random(d) < nominal_frac
    X = rng.random((n, d))
    X[:, is_nominal] = rng.integers(0, 3, (n, int(is_nominal.sum()))).astype(float)
    if task == "classification":
        y = rng.integers(0, n_classes, n).astype(float)
    else:
        y = rng.random(n) + X[:, 0]
    params = ForestParams(T=1, max_depth=depth, min_samples_leaf=1,
                          train_sample_frac=1.0, features_per_split=1.0)
    root, _ = train_tree(X, y, params, int(rng.integers(0, 2**63)), task, is_nominal, n_classes)
    return root, X, is_nominal


def lofo_forest(table, target, params, seed):
    """The forest that predicts column ``target`` from the other columns, grown
    as ``lofo.sense_all`` grows it: in one ``grow_forests`` call for every
    column, here each seeded with ``seed``.  Returns (model, its input matrix)."""
    X, is_nominal = design_matrix(table)
    n_classes = [col.n_levels() if col.kind == "nominal" else 0 for col in table.schema]
    forests = dict(grow_forests(X, is_nominal, n_classes, range(table.d), params, [seed] * table.d))
    return forests[target], X[:, np.arange(table.d) != target]


def eager_qd_select(model, X_inputs, seed, explain_cap, background_size, params: QdParams):
    """Explain-everything form of ``lofo.candidates_from_forest`` plus
    ``lofo.greedy_select``: every tree's attribution is computed up front,
    then the greedy seeds with the best quality and adds the largest
    marginal gain, ties toward the lowest uid.  Returns the picks in order.
    """
    cands = []
    for u, fit in enumerate(model.trees):
        explain = fit.heldout_rows
        rng = np.random.default_rng(derive_seed(seed, "explain", u))
        if explain.size > explain_cap:
            explain = np.sort(rng.choice(explain, size=explain_cap, replace=False))
        bg_size = min(background_size, fit.train_rows.size)
        background = np.sort(rng.choice(fit.train_rows, size=bg_size, replace=False))
        output_index = fit.majority_class if model.task == "classification" else None
        agg = aggregate_global(fit.root, X_inputs[explain], X_inputs[background], output_index)
        cands.append(TreeCandidate(uid=u, quality=fit.quality, s=agg.s))

    order = sorted(cands, key=lambda c: (-c.quality, c.uid))
    selected = [order[0]]
    quality_sum, pair_sum = selected[0].quality, 0.0
    while len(selected) < params.m:
        best, best_gain, best_added = None, -np.inf, 0.0
        for cand in cands:
            if any(cand.uid == c.uid for c in selected):
                continue
            gain = marginal_gain(cand, selected, quality_sum, pair_sum, params.lam)
            if gain > best_gain:
                added = sum(cosine_distance(cand.s, c.s) for c in selected)
                best, best_gain, best_added = cand, gain, added
        selected.append(best)
        quality_sum += best.quality
        pair_sum += best_added
    return selected


def _midpoint(a: float, b: float) -> float:
    """Threshold between sorted neighbours a < b: their midpoint, or a when it
    rounds to b or overflows."""
    mid = (a + b) / 2.0
    return float(mid if a <= mid < b else a)


def reference_numeric_split(x, y, task, n_classes, min_leaf):
    """Per-task prefix scan of one threshold feature: (gain, threshold, None) or None.

    Reference for ``forest._numeric_split``: the SSE and Gini formulas are
    written out separately, on statistics rebuilt from ``y`` for each call.
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
    return gain, _midpoint(xs[pos - 1], xs[pos]), None


def reference_nominal_split(x, y, task, n_classes, min_leaf):
    """Per-task category-prefix scan: (gain, None, left category set) or None.

    Reference for ``forest._nominal_split``: per-category sums by
    ``np.add.at``, categories ordered by mean target (regression) or share
    of the node's majority class (classification).
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


# The per-node grower that the lockstep forest grower replaced: one tree at a
# time, one node at a time, every node sorting each drawn feature.  The
# grower in wise.forest must build the same trees, bit for bit.


def reference_impurity(y: np.ndarray, task: str, n_classes: int) -> float:
    if task == "regression":
        return float(np.var(y))
    counts = np.bincount(y.astype(np.int64), minlength=n_classes)
    frac = counts / y.size
    return float(1.0 - np.dot(frac, frac))


def _ref_leaf(y: np.ndarray, task: str, n_classes: int) -> TreeNode:
    if task == "regression":
        return TreeNode(n_samples=y.size, value=float(y.mean()))
    probs = np.bincount(y.astype(np.int64), minlength=n_classes) / y.size
    return TreeNode(n_samples=y.size, value=probs)


# The scan runs once per candidate feature of every node, so it and the two
# split functions call array methods, which skip the Python-level dispatch
# of their np.* function forms.
def _ref_best_cut(left, total, nl, n, task, min_leaf):
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


def _ref_numeric_split(x, stats, task, min_leaf):
    """Best threshold for one feature: (gain, threshold, None) or None.

    Candidate cuts sit where the sorted column changes value; the threshold
    is the midpoint of the two values around the best cut.
    """
    order = x.argsort(kind="stable")
    xs = x[order]
    cut = (xs[:-1] < xs[1:]).nonzero()[0] + 1  # left part sizes
    prefix = stats.take(order, axis=0).cumsum(axis=0)
    found = _ref_best_cut(prefix.take(cut - 1, axis=0), prefix[-1], cut, xs.size, task, min_leaf)
    if found is None:
        return None
    gain, i = found
    pos = cut[i]
    return gain, _midpoint(xs[pos - 1], xs[pos]), None


def _ref_nominal_split(x, stats, task, min_leaf):
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
    found = _ref_best_cut(prefix[:-1], prefix[-1], cnt[order].cumsum()[:-1], codes.size, task, min_leaf)
    if found is None:
        return None
    gain, i = found
    return gain, None, frozenset(int(c) for c in cats[order[: i + 1]])


def reference_train_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    seed: int,
    task: str = "regression",
    is_nominal: np.ndarray | None = None,
    n_classes: int = 0,
) -> TreeNode:
    """Grow one CART tree greedily; ties go to the lowest feature index.

    ``seed`` is the root's key; a child's key is ``reference_mix64`` of its
    parent's key xor its side (0 left, 1 right).  A node draws the mtry
    features with the least lane-1 uniforms under its key.
    """
    if X.shape[0] == 0:
        raise DataError("cannot train a tree on zero rows")
    d = X.shape[1]
    if is_nominal is None:
        is_nominal = np.zeros(d, dtype=bool)
    mtry = _mtry(d, task, params)

    def grow(idx: np.ndarray, depth: int, key: int) -> TreeNode:
        yn = y[idx]
        if (
            depth >= params.max_depth
            or idx.size < 2 * params.min_samples_leaf
            or reference_impurity(yn, task, n_classes) == 0.0
        ):
            return _ref_leaf(yn, task, n_classes)
        u = reference_keyed_uniform_grid(0, 1, np.array([key], dtype=np.uint64), np.arange(d))[0]
        chosen = np.sort(np.argsort(u, kind="stable")[:mtry])
        stats = _target_stats(yn, task, n_classes)
        best = None
        for f in chosen:
            split = _ref_nominal_split if is_nominal[f] else _ref_numeric_split
            found = split(X[idx, f], stats, task, params.min_samples_leaf)
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], int(f), found[1], found[2])
        if best is None:
            return _ref_leaf(yn, task, n_classes)
        _, f, threshold, cats = best
        node = TreeNode(n_samples=idx.size, feature=f, threshold=threshold, categories=cats)
        mask = node.goes_left(X[idx, f])
        node.left = grow(idx[mask], depth + 1, reference_mix64(key ^ 0))
        node.right = grow(idx[~mask], depth + 1, reference_mix64(key ^ 1))
        return node

    return grow(np.arange(X.shape[0]), 0, seed)


def reference_fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    params: ForestParams,
    seed: int,
    is_nominal: np.ndarray | None = None,
    n_classes: int = 0,
) -> ForestModel:
    """Train T trees on independent row subsamples; score each on its held-out rows.

    Tree u's seed is ``derive_seed(seed, "tree", u)``; it trains on the
    sample_size rows with the least lane-0 uniforms under that seed, and
    grows from it as its root's key.
    """
    n = X.shape[0]
    trees = []
    sample_size = max(1, int(round(params.train_sample_frac * n)))
    for u in range(params.T):
        tree_seed = derive_seed(seed, "tree", u)
        keyed = reference_keyed_uniform_grid(0, 0, np.array([tree_seed], dtype=np.uint64),
                                             np.arange(n))[0]
        train_rows = np.sort(np.argsort(keyed, kind="stable")[:sample_size])
        heldout = np.setdiff1d(np.arange(n), train_rows, assume_unique=True)
        y_tr = y[train_rows]
        root = reference_train_tree(X[train_rows], y_tr, params, tree_seed, task, is_nominal,
                                    n_classes)
        majority = int(np.bincount(y_tr.astype(np.int64), minlength=n_classes).argmax()) if task == "classification" else None
        quality = _ref_heldout_quality(root, X, y, heldout, task)
        trees.append(TreeFit(root, train_rows, heldout, quality, majority))
    return ForestModel(trees=trees, task=task)


def _ref_heldout_quality(root: TreeNode, X, y, heldout: np.ndarray, task: str) -> float:
    """Accuracy (classification) or R+ = max(0, R^2) (regression) on held-out rows."""
    if heldout.size == 0:
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


def set_partitions(n):
    """All set partitions of range(n) as canonical label tuples.

    Labels form restricted growth strings: a[0] = 0 and each a[i] is at
    most one above the running maximum, so each partition appears once.
    """
    out = []

    def grow(prefix, top):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for label in range(top + 2):
            prefix.append(label)
            grow(prefix, max(top, label))
            prefix.pop()

    grow([], -1)
    return out


def column_counts(X, rows):
    """Integer column counts of the given rows, from one row slice."""
    return np.asarray(X[rows].sum(axis=0)).ravel().astype(np.int64)


@dataclass(frozen=True)
class SparseWeightedVector:
    """Sorted sparse vector with strictly positive values."""

    idx: np.ndarray
    val: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "idx", np.asarray(self.idx, dtype=np.int64))
        object.__setattr__(self, "val", np.asarray(self.val, dtype=np.float64))
        if self.idx.shape != self.val.shape:
            raise ConfigError("idx and val must have equal length")
        if self.idx.size and np.any(np.diff(self.idx) <= 0):
            raise ConfigError("coordinates must be strictly increasing")
        if np.any(~np.isfinite(self.val)) or np.any(self.val <= 0):
            raise ConfigError("values must be finite and positive")

    @property
    def total(self) -> float:
        return float(self.val.sum())


def weighted_jaccard(v, u) -> float:
    """Similarity sum(min)/sum(max); two empty vectors are identical (1).

    Reads only ``idx``, ``val`` and ``total``, so coordinates may come in
    any order.
    """
    common, ia, ib = np.intersect1d(v.idx, u.idx, assume_unique=True, return_indices=True)
    smin = float(np.minimum(v.val[ia], u.val[ib]).sum())
    smax = v.total + u.total - smin
    if smax == 0.0:
        return 1.0
    return smin / smax


def reference_keyed_uniform_grid(seed, lane: int, hash_ids, coords):
    """The uniforms of one lane over a (hash, coordinate) grid, as the formula
    reads: the lane's key mixed into each hash key, xor each coordinate key."""
    inner = np.uint64(mix64(derive_seed(seed, "lane", lane)))
    with np.errstate(over="ignore"):
        hkey = mix64_array((hash_ids.astype(np.uint64) + np.uint64(1))
                           * np.uint64(0x9E3779B97F4A7C15) ^ inner)
        ckey = (coords.astype(np.uint64) + np.uint64(1)) * np.uint64(0xBF58476D1CE4E5B9)
        z = mix64_array(ckey[None, :] ^ hkey[:, None])
    return unit_from_bits(z)


def reference_icws_parts(seed, hash_ids, coords):
    """ICWS's (r, ln c, beta) drawn lane by lane: r and c are Gamma(2, 1) from
    lanes 0-1 and 2-3, beta is lane 4's uniform."""
    u1, u2, u3, u4, beta = (reference_keyed_uniform_grid(seed, lane, hash_ids, coords)
                            for lane in range(5))
    return -(np.log(u1) + np.log(u2)), np.log(-(np.log(u3) + np.log(u4))), beta


def cws_sketch(v: SparseWeightedVector, hash_ids: np.ndarray, seed: int):
    """All requested ICWS hashes of one vector: (coords, companions) arrays."""
    if v.idx.size == 0:
        raise DataError("cannot hash an empty vector")
    hash_ids = np.asarray(hash_ids, dtype=np.int64)
    r, ln_c, beta = _icws_parts(seed, hash_ids, v.idx)
    ln_a, t_k = _icws_keys(v.val[None, :], r, ln_c, beta)
    j = np.argmin(ln_a, axis=1)
    rows = np.arange(len(hash_ids))
    return v.idx[j], t_k[rows, j]


def center_block(rows, p):
    """A len(rows) x p CSR block of centers from (idx, val) pairs, one per row."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([idx.size for idx, _ in rows], out=indptr[1:])
    idx = np.concatenate([np.zeros(0, dtype=np.int64)] + [idx for idx, _ in rows])
    val = np.concatenate([np.zeros(0)] + [val for _, val in rows])
    return sparse.csr_matrix((val, idx, indptr), shape=(len(rows), p))


def freqitem_from_counts(f, omega, alpha):
    """FreqItem center (idx, val) of one member set from its column counts."""
    s = f.astype(np.float64) if omega is None else f * omega
    keep = (s > 0) & (s >= alpha * s.max())
    idx = np.flatnonzero(keep)
    return idx.astype(np.int64), s[idx] / np.maximum(1, f[idx])


def reference_centers(X, labels, omega, alpha, k):
    """Per-cluster FreqItem centers of a labelling, one row slice each, as a block."""
    members = [np.flatnonzero(labels == c) for c in range(k)]
    return center_block([freqitem_from_counts(column_counts(X, m), omega, alpha) for m in members],
                        X.shape[1])


def reference_band_buckets(coords, comps, live, mult, params):
    """Per-band form of ``wkfreq._band_buckets``: one byte-view ``np.unique``
    of each band's signatures, whose void sort orders them by their
    little-endian bytes."""
    n = coords.shape[0]
    live = np.flatnonzero(live)
    coords, comps, weight = coords[live], comps[live], mult[live]
    members, sizes = [], []
    for h in range(0, params.lsh_tables * params.lsh_bands * params.lsh_rows, params.lsh_rows):
        sig = np.concatenate(
            [coords[:, h:h + params.lsh_rows], comps[:, h:h + params.lsh_rows]],
            axis=1,
        )
        _, inverse, counts = _distinct_rows(sig)
        order = np.argsort(inverse, kind="stable")
        shared = np.bincount(inverse, weights=weight) >= 2
        members.append(live[order[shared[inverse[order]]]])
        sizes.append(counts[shared])
    indices = np.concatenate(members)
    indptr = np.zeros(sum(c.size for c in sizes) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=indptr[1:])
    return sparse.csr_matrix((mult[indices], indices, indptr), shape=(indptr.size - 1, n))


def reference_silk_seed(X, omega, params):
    """Per-bucket form of ``wkfreq.silk_seed``.

    Buckets are collected one signature group at a time, each bucket's
    counts come from its own row slice, each bucket FreqItem is sketched
    by ``cws_sketch`` on its own coordinates, and bins merge through a
    dict keyed by the sketch, in insertion order.
    """
    k, seed = params.k, params.seed
    if X.shape[0] < k:
        raise DataError(f"need at least k={k} rows, got {X.shape[0]}")
    rng = np.random.default_rng(derive_seed(seed, "silk"))
    level1 = params.lsh_tables * params.lsh_bands * params.lsh_rows
    coords, comps = cws_signatures(X, omega, np.arange(level1, dtype=np.int64), seed)
    nonempty = coords[:, 0] >= 0
    if not np.any(nonempty):
        raise DataError("all rows have empty effective support")

    buckets = []
    for h in range(0, level1, params.lsh_rows):
        sig = np.concatenate(
            [coords[:, h:h + params.lsh_rows], comps[:, h:h + params.lsh_rows]], axis=1)
        view = np.ascontiguousarray(sig).view(
            np.dtype((np.void, sig.dtype.itemsize * sig.shape[1]))).ravel()
        _, inverse, counts = np.unique(view, return_inverse=True, return_counts=True)
        order = np.argsort(inverse, kind="stable")
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for g in range(len(counts)):
            members = order[offsets[g]:offsets[g + 1]]
            members = members[nonempty[members]]
            if members.size >= 2:
                buckets.append(np.sort(members))

    level2_ids = level1 + np.arange(4, dtype=np.int64)
    bins = {}
    for members in buckets:
        idx, val = freqitem_from_counts(column_counts(X, members), omega, params.beta)
        if idx.size == 0:
            continue
        hc, ht = cws_sketch(SparseWeightedVector(idx, val), level2_ids, seed)
        key = tuple(hc.tolist()) + tuple(ht.tolist())
        prev = bins.get(key)
        bins[key] = members if prev is None else np.union1d(prev, members)

    members = sorted(bins.values(), key=lambda m: -m.size)[:max(4 * k, 32)]
    C = center_block([freqitem_from_counts(column_counts(X, m), omega, params.beta)
                      for m in members], X.shape[1])
    sizes = np.array([m.size for m in members], dtype=np.int64)
    return _seed_from_candidates(C, sizes, X, omega, nonempty, params, rng)


def reference_reduce_candidates(weights, sim, k, rng) -> list[int]:
    """``wkfreq._reduce_candidates`` with every weighted pick drawn by
    ``Generator.choice``.

    Indices of k candidates picked by weight*distance^2 sampling, best of
    8 restarts under the weighted quantization cost over the candidate set.
    ``sim`` holds the candidates' pairwise weighted Jaccard similarities.

    The first restart anchors on the heaviest candidate; later restarts
    sample the first pick by weight, so a misleadingly heavy blended
    candidate cannot dominate every restart.
    """
    m = len(weights)
    if m <= k:
        return list(range(m))
    weights = np.asarray(weights, dtype=np.float64)
    dmat = 1.0 - sim

    def sample(score) -> int:
        total = score.sum()
        if total <= 0:
            return int(np.flatnonzero(score >= 0)[0])
        return int(rng.choice(m, p=score / total))

    best_choice, best_cost = None, np.inf
    for restart in range(8):
        first = int(np.argmax(weights)) if restart == 0 else sample(weights.copy())
        chosen = [first]
        dist = dmat[first].copy()
        while len(chosen) < k:
            score = weights * dist**2
            score[chosen] = 0.0
            nxt = sample(score)
            if nxt in chosen:  # all mass on chosen: pick any unchosen
                nxt = int(next(i for i in range(m) if i not in chosen))
            chosen.append(nxt)
            dist = np.minimum(dist, dmat[nxt])
        cost = float((weights * dist**2).sum())
        if cost < best_cost:
            best_choice, best_cost = chosen, cost
    return best_choice


def assert_same_centers(got, want):
    """Center blocks agree in shape and every row's coordinates and value bits."""
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()


def _path_leaves(root):
    """(path, leaf value) pairs, left subtree first; a step is (node, went_left)."""
    leaves = []

    def walk(node, path):
        if node.is_leaf:
            leaves.append((tuple(path), node.value))
            return
        walk(node.left, path + [(node, True)])
        walk(node.right, path + [(node, False)])

    walk(root, [])
    return leaves


def _follows_steps(X, steps):
    """Whether each row of X routes along every given path step."""
    ok = np.ones(X.shape[0], dtype=bool)
    for node, went_left in steps:
        left = node.goes_left(X[:, node.feature])
        ok &= left if went_left else ~left
    return ok


def _leaf_scalar(value, output_index):
    if np.ndim(value) == 0:
        return float(value)
    if output_index is None:
        raise ConfigError("classification tree needs an explanation output index")
    return float(value[output_index])


def reference_shap_matrix(root, rows, background, output_index=None):
    """Per-leaf form of ``treeshap.shap_matrix``.

    Every leaf routes the explain and background rows along its whole
    path again and builds the (q, E, G) aligned/dead cubes of its q path
    features; the base value comes from a separate ``predict_tree`` pass.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    phi = np.zeros(rows.shape)
    for path, value in _path_leaves(root):
        if not path:
            continue
        leaf_value = _leaf_scalar(value, output_index)
        by_feature = {}
        for step in path:
            by_feature.setdefault(step[0].feature, []).append(step)
        feats = sorted(by_feature)
        fx = np.stack([_follows_steps(rows, by_feature[f]) for f in feats])
        fz = np.stack([_follows_steps(background, by_feature[f]) for f in feats])
        A = fx[:, :, None] & ~fz[:, None, :]
        B = ~fx[:, :, None] & fz[:, None, :]
        reach = ~(~fx[:, :, None] & ~fz[:, None, :]).any(axis=0)
        a = A.sum(axis=0)
        b = B.sum(axis=0)
        wa_tab, wb_tab = _weight_tables(len(feats))
        wa = wa_tab[a, b]
        wb = wb_tab[a, b]
        for qi, f in enumerate(feats):
            pos = np.where(reach & A[qi], wa, 0.0)
            neg = np.where(reach & B[qi], wb, 0.0)
            phi[:, f] += leaf_value * (pos - neg).mean(axis=1)
    base_pred = predict_tree(root, background)
    if base_pred.ndim == 2:
        base_pred = base_pred[:, output_index]
    return phi, float(base_pred.mean())


def distances_plain(X_int, C):
    """Plain Jaccard distance between binary rows and the center supports of C, in integers."""
    bounds = zip(C.indptr[:-1], C.indptr[1:])
    inter = np.stack([np.asarray(X_int[:, C.indices[lo:hi]].sum(axis=1)).ravel()
                      for lo, hi in bounds], axis=1)
    row_sz = np.diff(X_int.indptr)
    cen_sz = np.diff(C.indptr)
    union = row_sz[:, None] + cen_sz[None, :] - inter
    sim = np.where(union > 0, inter / np.where(union > 0, union, 1), 1.0)
    return 1.0 - sim


def _sequential_row_sums(X, values):
    """Per row of X, the sum of ``values`` (one per stored entry) taken one
    stored entry after another, from 0, in the row's stored order: each row
    is padded to the widest row with +0.0 and summed by a running sum."""
    lens = np.diff(X.indptr)
    width = max(int(lens.max(initial=0)), 1)
    block = np.zeros((X.shape[0], width))
    block[np.arange(width) < lens[:, None]] = values
    return np.cumsum(block, axis=1)[:, -1]


def distances_weighted(X, omega, C):
    """Weighted Jaccard distance between omega-weighted binary rows and the
    centers C, one center at a time: a row's intersection with a center is
    the sum of min(omega_j, c_j) over the row's stored coordinates in order,
    its total the sum of omega_j over them, and a center's total the 1-D sum
    of its values."""
    cols = X.indices
    dist = np.empty((X.shape[0], C.shape[0]))
    for c, (lo, hi) in enumerate(zip(C.indptr[:-1], C.indptr[1:])):
        center = np.zeros(X.shape[1])
        center[C.indices[lo:hi]] = C.data[lo:hi]
        smin = _sequential_row_sums(X, np.minimum(omega[cols], center[cols]))
        union = _sequential_row_sums(X, omega[cols]) + C.data[lo:hi].sum() - smin
        sim = np.where(union > 0, smin / np.where(union > 0, union, 1.0), 1.0)
        dist[:, c] = 1.0 - sim
    return dist


def reference_lloyd(X, params, weights, initial_centers):
    """The Lloyd loop of ``wkfreq.cluster`` with no early stop but a label fixed point.

    Returns (labels, centers, mean_distance, n_iter) after at most
    ``params.max_iter`` iterations from the given centers.  With
    ``weights=None`` it is plain k-FreqItems in integer arithmetic:
    set-size Jaccard distances and integer-count FreqItem centers.  With
    weights, distances are ``distances_weighted`` and centers
    ``reference_centers``, so no kernel of ``wkfreq`` takes part.
    """
    X = X.tocsr()
    n = X.shape[0]
    omega = None
    if weights is None:
        X_int = X.astype(np.int64)
    else:
        omega = np.asarray(weights, dtype=np.float64)
        omega = omega / omega.max()
    centers = initial_centers
    rows = np.arange(n)
    labels_prev = None
    n_iter = 0
    for _ in range(params.max_iter):
        if weights is None:
            D = distances_plain(X_int, centers)
        else:
            D = distances_weighted(X, omega, centers)
        labels = D.argmin(axis=1)
        assigned = D[rows, labels]
        counts = np.bincount(labels, minlength=params.k)
        if np.any(counts == 0):
            spare = assigned.copy()
            for cid in np.flatnonzero(counts == 0):
                worst = int(np.argmax(spare))
                labels[worst] = cid
                assigned[worst] = D[worst, cid]
                spare[worst] = -np.inf
        final_mean = float(assigned.mean())
        n_iter += 1
        if labels_prev is not None and np.array_equal(labels, labels_prev):
            break
        labels_prev = labels
        centers = reference_centers(X, labels, omega, params.alpha, params.k)
    return labels, centers, final_mean, n_iter


def _gower_block(A: np.ndarray, B: np.ndarray, is_nominal: np.ndarray) -> np.ndarray:
    """Mean per-column Gower dissimilarity between row blocks A and B."""
    out = np.zeros((A.shape[0], B.shape[0]))
    for j in range(A.shape[1]):
        diff = A[:, j, None] - B[None, :, j]
        if is_nominal[j]:
            out += (diff != 0).astype(np.float64)
        else:
            out += np.abs(diff)
    return out / A.shape[1]


def reference_swc_scores(table, y, subsample_size=SWC_SUBSAMPLE, seed=0):
    """Per-point Gower silhouettes from the pairwise distance matrix, in 512-row chunks.

    Same subsample, conventions and errors as ``metrics.swc_gower``, which
    returns the mean of these scores.
    """
    y = np.asarray(y)
    if y.size != table.n:
        raise DataError(f"{y.size} labels for {table.n} rows")
    rng = np.random.default_rng(seed)
    if table.n > subsample_size:
        rows = np.sort(rng.choice(table.n, size=subsample_size, replace=False))
    else:
        rows = np.arange(table.n)
    ys = y[rows]
    labels, yi = np.unique(ys, return_inverse=True)
    K = labels.size
    if K < 2:
        raise DataError("silhouette needs at least 2 clusters in the sample")
    cols = np.column_stack([unit_column(table, j, rows) for j in range(table.d)])
    is_nominal = np.array([c.kind == "nominal" for c in table.schema])
    m = rows.size
    sizes = np.bincount(yi, minlength=K)
    onehot = np.zeros((m, K))
    onehot[np.arange(m), yi] = 1.0

    scores = np.zeros(m)
    chunk = 512
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        D = _gower_block(cols[start:stop], cols, is_nominal)
        sums = D @ onehot                     # (chunk, K) total distance to each cluster
        own = yi[start:stop]
        block = np.arange(stop - start)
        a_tot = sums[block, own]
        own_size = sizes[own]
        with np.errstate(invalid="ignore", divide="ignore"):
            a = np.where(own_size > 1, a_tot / np.maximum(own_size - 1, 1), 0.0)
        mean_other = sums / sizes[None, :]
        mean_other[block, own] = np.inf
        b = mean_other.min(axis=1)
        denom = np.maximum(a, b)
        s = np.where(denom > 0, (b - a) / np.maximum(denom, 1e-300), 0.0)
        s = np.where(own_size > 1, s, 0.0)
        scores[start:stop] = s
    return scores
