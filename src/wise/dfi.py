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
from .forest import ForestParams, train_tree

log = logging.getLogger(__name__)


@dataclass
class Explanations:
    W_cluster: np.ndarray            # K x d, rows on the simplex or all-zero
    W_cluster_raw: np.ndarray        # K x d, pre-normalization
    W_instance: np.ndarray           # n x d
    W_instance_raw: np.ndarray
    undiscriminated: list[int] = field(default_factory=list)
    consistency_deviation: float = 0.0


def cluster_bit_frequency(L: np.ndarray, y: np.ndarray, K: int, k0: int) -> np.ndarray:
    """F[j, r, t]: share of cluster j members with label t in round r.

    Every row of F sums to 1 because each member carries exactly one
    label per round.
    """
    L = np.asarray(L, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    R = L.shape[1]
    if y.size and (y.min() < 0 or y.max() >= K):
        raise DataError(f"final labels must lie in 0..{K - 1}")
    if L.size and (L.min() < 0 or L.max() >= k0):
        raise DataError(f"round labels must lie in 0..{k0 - 1}")
    sizes = np.bincount(y, minlength=K)
    if np.any(sizes[:K] == 0):
        empty = np.flatnonzero(sizes[:K] == 0).tolist()
        raise DataError(f"empty final clusters {empty}; frequencies undefined")
    counts = np.bincount(((y[:, None] * R + np.arange(R)) * k0 + L).ravel(), minlength=K * R * k0)
    return counts.reshape(K, R, k0) / sizes[:K, None, None]


def dfi_scores(F: np.ndarray) -> np.ndarray:
    """Positive-part margin over the best competing cluster, per (j, r, t).

    With a single cluster there is no competitor; the margin degenerates
    to the frequency itself (logged, since every bit then looks
    discriminative).
    """
    K = F.shape[0]
    if K == 1:
        log.warning("single cluster: discriminative scores degenerate to raw frequencies")
        return F.copy()
    top2 = np.partition(F, K - 2, axis=0)
    m1 = top2[K - 1]
    m2 = top2[K - 2]
    competitor = np.where(F == m1, m2, m1)
    return np.maximum(0.0, F - competitor)


def _weights(credits: np.ndarray, W_views: np.ndarray):
    """Raw weights ``credits @ W_views`` and their L1-normalized rows; a
    row whose raw weights sum to zero stays zero.  Returns (raw, norm,
    nonzero rows)."""
    raw = credits @ W_views
    totals = raw.sum(axis=1)
    norm = np.zeros_like(raw)
    nz = totals > 0
    norm[nz] = raw[nz] / totals[nz, None]
    return raw, norm, nz


def cluster_weights(credits: np.ndarray, W_views: np.ndarray):
    """Credit-weighted sum of round weight vectors, L1-normalized per cluster.

    ``credits`` (K x R) are the per-round DFI sums.  A cluster whose
    credits are all zero has no discriminative evidence; its row stays
    zero and its id is returned in the flag list rather than inventing a
    uniform explanation.
    """
    if credits.shape[1] != W_views.shape[0]:
        raise ConfigError(
            f"{credits.shape[1]} rounds of credits vs {W_views.shape[0]} view vectors"
        )
    raw, norm, nz = _weights(credits, W_views)
    return norm, raw, np.flatnonzero(~nz).tolist()


def instance_weights(L: np.ndarray, y: np.ndarray, F: np.ndarray, dfi: np.ndarray,
                     W_views: np.ndarray, eps: float):
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
    raw, norm, _ = _weights((dfi / np.maximum(eps, F))[y[:, None], rounds, L], W_views)
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
    k0: int,
    eps: float,
) -> Explanations:
    """Full explanation bundle for one pipeline run."""
    F = cluster_bit_frequency(L, y, K, k0)
    dfi = dfi_scores(F)
    credits = dfi.sum(axis=2)
    W_cluster, W_cluster_raw, flags = cluster_weights(credits, W_views)
    W_inst_raw, W_inst = instance_weights(L, y, F, dfi, W_views, eps)
    deviation = consistency_check(W_inst_raw, y, W_cluster_raw)
    return Explanations(
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
    confusion = np.bincount(y_true * n_classes + y_pred, minlength=n_classes * n_classes)
    confusion = confusion.reshape(n_classes, n_classes)
    tp = np.diag(confusion)
    denom = confusion.sum(axis=0) + confusion.sum(axis=1)  # 2 tp + fp + fn
    return float(np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0).mean())


def _probe_tree_scores(X: np.ndarray, y: np.ndarray, cols: np.ndarray, is_nominal, n_classes: int):
    """In-sample accuracy and macro-F1 of one depth-6 tree on a column subset."""
    params = ForestParams(
        T=1, max_depth=6, min_samples_leaf=1, train_sample_frac=1.0,
        features_per_split=1.0,
    )
    _, pred = train_tree(X[:, cols], y, params, 0, task="classification",
                         is_nominal=is_nominal[cols], n_classes=n_classes)
    return float(np.mean(pred == y)), _macro_f1(y, pred, n_classes)


def faithfulness_eval(
    table: MixedTable,
    y: np.ndarray,
    W_cluster: np.ndarray,
    sizes: np.ndarray,
    top_k: list[int],
    trials: int = 10,
    seed: int = 0,
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

    all_acc, all_f1 = _probe_tree_scores(X, y, np.arange(d), is_nominal, n_classes)
    records = []
    for k in top_k:
        if not 1 <= k <= d:
            raise ConfigError(f"top_k={k} must lie in 1..{d}")
        dfi_acc, dfi_f1 = _probe_tree_scores(X, y, ranking[:k], is_nominal, n_classes)
        rand_acc, rand_f1 = [], []
        for _ in range(trials):
            cols = np.sort(rng.choice(d, size=k, replace=False))
            a, f = _probe_tree_scores(X, y, cols, is_nominal, n_classes)
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
