"""Discriminative label-frequency explanations.

Each final cluster is described by how its members distribute over the
per-round labels.  A label bit is discriminative for a cluster when its
frequency there exceeds the best competing cluster; the positive margins
(DFI) credit each round, and the credits pull the round weight vectors
into cluster-level and instance-level feature weights.  Averaging raw
instance vectors over a cluster recovers the raw cluster vector exactly,
which consistency_check verifies numerically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data_model import MixedTable, design_matrix
from .errors import ConfigError, DataError
from .forest import ForestParams, predict_tree, train_tree

log = logging.getLogger(__name__)


@dataclass
class ClusterBitFrequency:
    """F[j, r, t]: share of cluster j members with label t in round r."""

    F: np.ndarray


@dataclass
class DfiScores:
    dfi: np.ndarray       # K x R x k0, positive-part margins
    credits: np.ndarray   # K x R, per-round sums


@dataclass
class Explanations:
    F: np.ndarray
    dfi: np.ndarray
    credits: np.ndarray
    W_cluster: np.ndarray            # K x d, rows on the simplex or all-zero
    W_cluster_raw: np.ndarray        # K x d, pre-normalization
    W_instance: np.ndarray           # n x d
    W_instance_raw: np.ndarray
    undiscriminated: list[int] = field(default_factory=list)
    consistency_deviation: float = 0.0


def cluster_bit_frequency(L: np.ndarray, y: np.ndarray, K: int, k0: int | None = None) -> ClusterBitFrequency:
    """Empirical round-label distribution per cluster.

    Every row of F sums to 1 because each member carries exactly one
    label per round.
    """
    L = np.asarray(L, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    n, R = L.shape
    if k0 is None:
        k0 = int(L.max()) + 1
    sizes = np.bincount(y, minlength=K)
    if np.any(sizes[:K] == 0):
        empty = np.flatnonzero(sizes[:K] == 0).tolist()
        raise DataError(f"empty final clusters {empty}; frequencies undefined")
    F = np.zeros((K, R, k0))
    rounds = np.broadcast_to(np.arange(R), (n, R))
    np.add.at(F, (y[:, None], rounds, L), 1.0)
    F /= sizes[:K, None, None]
    return ClusterBitFrequency(F=F)


def dfi_scores(freq: ClusterBitFrequency) -> DfiScores:
    """Positive-part margin over the best competing cluster, per (j, r, t).

    With a single cluster there is no competitor; the margin degenerates
    to the frequency itself (logged, since every bit then looks
    discriminative).
    """
    F = freq.F
    K = F.shape[0]
    if K == 1:
        log.warning("single cluster: discriminative scores degenerate to raw frequencies")
        dfi = F.copy()
    else:
        top2 = np.partition(F, K - 2, axis=0)
        m1 = top2[K - 1]
        m2 = top2[K - 2]
        competitor = np.where(F == m1, m2, m1)
        dfi = np.maximum(0.0, F - competitor)
    return DfiScores(dfi=dfi, credits=dfi.sum(axis=2))


def cluster_weights(scores: DfiScores, W_views: np.ndarray):
    """Credit-weighted sum of round weight vectors, L1-normalized per cluster.

    A cluster whose credits are all zero has no discriminative evidence;
    its row stays zero and its id is returned in the flag list rather
    than inventing a uniform explanation.
    """
    credits = scores.credits
    if credits.shape[1] != W_views.shape[0]:
        raise ConfigError(
            f"{credits.shape[1]} rounds of credits vs {W_views.shape[0]} view vectors"
        )
    raw = credits @ W_views
    totals = raw.sum(axis=1)
    norm = np.zeros_like(raw)
    nz = totals > 0
    norm[nz] = raw[nz] / totals[nz, None]
    undiscriminated = np.flatnonzero(~nz).tolist()
    return norm, raw, undiscriminated


def instance_weights(
    L: np.ndarray,
    y: np.ndarray,
    freq: ClusterBitFrequency,
    scores: DfiScores,
    W_views: np.ndarray,
    eps: float = 1e-12,
):
    """Per-instance credits c_i[r] = DFI/F at the member's own round label.

    eps only guards the ratio against a zero frequency, which cannot
    occur for a label the member actually carries; it must stay far
    below the smallest achievable frequency 1/|C_j|.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    L = np.asarray(L, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    n, R = L.shape
    rounds = np.broadcast_to(np.arange(R), (n, R))
    F_at = freq.F[y[:, None], rounds, L]
    dfi_at = scores.dfi[y[:, None], rounds, L]
    c_inst = dfi_at / np.maximum(eps, F_at)
    raw = c_inst @ W_views
    totals = raw.sum(axis=1)
    norm = np.zeros_like(raw)
    nz = totals > 0
    norm[nz] = raw[nz] / totals[nz, None]
    return raw, norm


def consistency_check(W_instance_raw: np.ndarray, y: np.ndarray, W_cluster_raw: np.ndarray) -> float:
    """Max over clusters of the sup-norm gap between the member-mean raw
    instance vector and the raw cluster vector; identically tiny when the
    credit algebra is implemented correctly."""
    y = np.asarray(y, dtype=np.int64)
    worst = 0.0
    for j in range(W_cluster_raw.shape[0]):
        members = np.flatnonzero(y == j)
        if members.size == 0:
            continue
        gap = np.abs(W_instance_raw[members].mean(axis=0) - W_cluster_raw[j]).max()
        worst = max(worst, float(gap))
    return worst


def compute_explanations(
    L: np.ndarray,
    y: np.ndarray,
    W_views: np.ndarray,
    K: int,
    k0: int | None = None,
    eps: float = 1e-12,
) -> Explanations:
    """Full explanation bundle for one pipeline run."""
    freq = cluster_bit_frequency(L, y, K, k0)
    scores = dfi_scores(freq)
    W_cluster, W_cluster_raw, flags = cluster_weights(scores, W_views)
    W_inst_raw, W_inst = instance_weights(L, y, freq, scores, W_views, eps)
    deviation = consistency_check(W_inst_raw, y, W_cluster_raw)
    return Explanations(
        F=freq.F,
        dfi=scores.dfi,
        credits=scores.credits,
        W_cluster=W_cluster,
        W_cluster_raw=W_cluster_raw,
        W_instance=W_inst,
        W_instance_raw=W_inst_raw,
        undiscriminated=flags,
        consistency_deviation=deviation,
    )


def global_ranking(W_cluster: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Features ordered by the cluster-size-weighted average weight, descending.

    Stable sort, so score ties resolve to the lowest feature index.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    g = sizes @ W_cluster / sizes.sum()
    return np.argsort(-g, kind="stable"), g


def _macro_f1(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> float:
    f1s = []
    for c in range(n_classes):
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


def _probe_tree_scores(X: np.ndarray, y: np.ndarray, cols: np.ndarray, is_nominal, n_classes: int, depth: int):
    """In-sample accuracy and macro-F1 of one shallow tree on a column subset."""
    params = ForestParams(
        T=1, max_depth=depth, min_samples_leaf=1, train_sample_frac=1.0,
        features_per_split=1.0, seed=0,
    )
    rng = np.random.default_rng(0)
    sub = X[:, cols]
    root = train_tree(sub, y, params, rng, task="classification",
                      is_nominal=is_nominal[cols], n_classes=n_classes)
    pred = np.argmax(predict_tree(root, sub), axis=1)
    return float(np.mean(pred == y)), _macro_f1(y, pred, n_classes)


def faithfulness_eval(
    table: MixedTable,
    y: np.ndarray,
    W_cluster: np.ndarray,
    sizes: np.ndarray,
    top_k: list[int],
    trials: int = 10,
    seed: int = 0,
    probe_depth: int = 6,
):
    """How well do the top-ranked features alone reproduce the clustering?

    For each k, a shallow decision tree is trained to predict the final
    labels from the top-k globally ranked features, and compared with the
    same probe on `trials` random k-subsets.  Returns one record per k
    plus the all-features reference.
    """
    if trials < 1:
        raise ConfigError(f"trials={trials} must be >= 1")
    y = np.asarray(y, dtype=np.int64)
    d = table.d
    n_classes = int(y.max()) + 1
    X, is_nominal = design_matrix(table)
    ranking, g = global_ranking(W_cluster, sizes)
    rng = np.random.default_rng(seed)

    all_acc, all_f1 = _probe_tree_scores(X, y, np.arange(d), is_nominal, n_classes, probe_depth)
    records = []
    for k in top_k:
        if not 1 <= k <= d:
            raise ConfigError(f"top_k={k} must lie in 1..{d}")
        dfi_acc, dfi_f1 = _probe_tree_scores(X, y, ranking[:k], is_nominal, n_classes, probe_depth)
        rand_acc, rand_f1 = [], []
        for _ in range(trials):
            cols = np.sort(rng.choice(d, size=k, replace=False))
            a, f = _probe_tree_scores(X, y, cols, is_nominal, n_classes, probe_depth)
            rand_acc.append(a)
            rand_f1.append(f)
        records.append(
            {
                "k": k,
                "dfi_accuracy": dfi_acc,
                "dfi_macro_f1": dfi_f1,
                "random_accuracy": float(np.mean(rand_acc)),
                "random_macro_f1": float(np.mean(rand_f1)),
            }
        )
    return {
        "ranking": ranking.tolist(),
        "global_weights": g.tolist(),
        "all_features": {"accuracy": all_acc, "macro_f1": all_f1},
        "subsets": records,
    }
