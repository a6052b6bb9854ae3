"""Leave-one-feature-out weight sensing.

Every column becomes one supervised task: predict it from the remaining
columns with a random forest.  Each tree of that forest is a candidate
view, scored by held-out quality and described by its global attribution
vector.  A quality-diversity greedy picks m trees per task whose
attribution patterns disagree, and each pick is completed into a simplex
weight vector: the attribution mass scaled by the tree's quality, with
the remaining 1-q kept on the target column itself.

The forests of the targets that share a task and a class count grow
together, in one ``train_forest`` call on small tables; with several
workers each worker grows those of one run of consecutive target columns.

A tree is explained (interventional TreeSHAP) only when its attribution
is first read, and at most once.  The greedy seeds from qualities alone
and reads the other trees' attributions only to score picks 2..m, so
with m=1 one tree per target is explained; with m >= 2 every tree is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ._pool import Pool, map_tasks
from ._rng import derive_seed
from .data_model import MixedTable, design_matrix
from .errors import ConfigError, DataError
from .forest import ForestModel, ForestParams, train_forest
from .treeshap import aggregate_global


class TreeCandidate:
    """A tree as a candidate view: its held-out quality and its global
    attribution ``s``, non-negative over the model's inputs.

    ``s`` may be given as a zero-argument callable; it is then called on
    the first read of ``s`` and its result kept.
    """

    __slots__ = ("uid", "quality", "_s")

    def __init__(self, uid: int, quality: float, s: np.ndarray | Callable[[], np.ndarray]):
        self.uid = uid
        self.quality = quality
        self._s = s

    @property
    def s(self) -> np.ndarray:
        if callable(self._s):
            self._s = self._s()
        return self._s


@dataclass(frozen=True)
class QdParams:
    m: int = 3
    lam: float = 0.5

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError("lambda must lie in [0,1]")


@dataclass(frozen=True)
class FeatureWeightVector:
    w: np.ndarray
    target: int
    tree: int
    quality: float
    rank: int


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cos(u, v); a zero vector is maximally diverse (similarity 0)."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return 1.0 - float(np.dot(u, v)) / (nu * nv)


def marginal_gain(
    candidate: TreeCandidate,
    selected: list[TreeCandidate],
    quality_sum: float,
    pair_sum: float,
    lam: float,
) -> float:
    """J(S + r) - J(S) in O(|S|) from the cached sums Q(S) and P(S).

    J blends mean quality with mean pairwise attribution distance:
    J(S) = lam Q(S) / k + (1 - lam) P(S) / (k (k - 1) / 2) for k = |S|.
    """
    k = len(selected)
    if k == 0:
        raise ConfigError("gain needs a non-empty selection")
    added = sum(cosine_distance(candidate.s, c.s) for c in selected)
    new_obj = lam * (quality_sum + candidate.quality) / (k + 1)
    new_obj += (1.0 - lam) * 2.0 / (k * (k + 1)) * (pair_sum + added)
    old_obj = lam * quality_sum / k
    if k > 1:
        old_obj += (1.0 - lam) * 2.0 / (k * (k - 1)) * pair_sum
    return new_obj - old_obj


def greedy_select(candidates: list[TreeCandidate], params: QdParams) -> list[TreeCandidate]:
    """Seed with the best quality, then add the largest marginal gain.

    All ties break toward the lowest candidate id, so selection is
    deterministic for a fixed forest.  The seed is chosen from qualities
    alone; attributions are read only to score picks 2..m.
    """
    if params.m > len(candidates):
        raise ConfigError(f"cannot select m={params.m} from {len(candidates)} candidates")
    selected = [min(candidates, key=lambda c: (-c.quality, c.uid))]
    chosen_ids = {selected[0].uid}
    quality_sum = selected[0].quality
    pair_sum = 0.0
    scan = sorted(range(len(candidates)), key=lambda i: candidates[i].uid)
    while len(selected) < params.m:
        best_i, best_gain = None, -np.inf
        for i in scan:
            cand = candidates[i]
            if cand.uid in chosen_ids:
                continue
            gain = marginal_gain(cand, selected, quality_sum, pair_sum, params.lam)
            if gain > best_gain:
                best_i, best_gain = i, gain
        cand = candidates[best_i]
        pair_sum += sum(cosine_distance(cand.s, c.s) for c in selected)
        selected.append(cand)
        chosen_ids.add(cand.uid)
        quality_sum += cand.quality
    return selected


def complete_weight(candidate: TreeCandidate, target: int, d: int) -> np.ndarray:
    """Distribute quality q over the inputs by attribution share; keep 1-q on the target.

    The inputs are the other d-1 columns, in column order.  A zero
    attribution vector gives no evidence to distribute, so the whole unit
    mass stays on the target column.
    """
    w = np.zeros(d)
    total = float(candidate.s.sum())
    if total > 0.0:
        w[np.arange(d) != target] = candidate.quality * candidate.s / total
        w[target] = 1.0 - candidate.quality
    else:
        w[target] = 1.0
    return w


def candidates_from_forest(
    model: ForestModel,
    X_inputs: np.ndarray,
    seed: int,
    explain_cap: int,
    background_size: int,
) -> list[TreeCandidate]:
    """Every tree of a LOFO forest as a candidate: held-out quality now,
    global attribution on first read.

    Tree u draws its explained rows and background from its own stream
    ``derive_seed(seed, "explain", u)``, so its attribution does not
    depend on which other trees are explained, or when.
    """

    def attribution(u: int) -> np.ndarray:
        fit = model.trees[u]
        explain = fit.heldout_rows
        rng = np.random.default_rng(derive_seed(seed, "explain", u))
        if explain.size > explain_cap:
            explain = np.sort(rng.choice(explain, size=explain_cap, replace=False))
        bg_size = min(background_size, fit.train_rows.size)
        background = np.sort(rng.choice(fit.train_rows, size=bg_size, replace=False))
        output_index = fit.majority_class if model.task == "classification" else None
        return aggregate_global(fit.root, X_inputs[explain], X_inputs[background], output_index).s

    return [TreeCandidate(u, fit.quality, partial(attribution, u))
            for u, fit in enumerate(model.trees)]


# One train_forest call grows forests of at most this many trees times
# rows in all, or one forest: the grower's held-out rows, predictions and
# step arrays grow in proportion (a step is one depth level, whose rows are
# at most the roots').  Lockstep growth saves a step's fixed costs, which
# matter on small tables; a larger table grows one forest per call, in the
# memory of a forest grown alone.
_GROUP_ROWS = 1 << 16


def grow_forests(X, is_nominal, n_classes, targets, params: ForestParams, seeds):
    """Yield (i, the LOFO forest of ``targets[i]``) for every target, seeded
    with ``seeds[i]``, as each ``train_forest`` call returns.

    Targets that share a task and a class count grow in one call, up to
    ``_GROUP_ROWS``.  Targets of different class counts grow apart:
    padding their class statistics to one width would change how Gini
    impurities sum.
    """
    groups = {}
    for i, j in enumerate(targets):
        groups.setdefault((bool(is_nominal[j]), n_classes[j]), []).append(i)
    T = params.T
    step = max(1, _GROUP_ROWS // (T * X.shape[0]))
    for (nominal, C), group in groups.items():
        task = "classification" if nominal else "regression"
        for start in range(0, len(group), step):
            members = group[start:start + step]
            model = train_forest(X, [targets[i] for i in members], task, params,
                                 [seeds[i] for i in members], is_nominal, C)
            for k, i in enumerate(members):
                yield i, ForestModel(model.trees[k * T:(k + 1) * T], task)
            del model  # free these trees before the next call grows its own


def _sense_chunk(shared, c: int):
    (X, is_nominal, n_classes, chunks, forest_params, qd_params, seed, explain_cap,
     background_size) = shared["lofo"]
    d = X.shape[1]
    targets = chunks[c].tolist()
    seeds = [derive_seed(seed, "lofo", j) for j in targets]
    views = [None] * len(targets)
    for i, model in grow_forests(X, is_nominal, n_classes, targets, forest_params, seeds):
        target = targets[i]
        cands = candidates_from_forest(model, X[:, np.arange(d) != target], seeds[i],
                                       explain_cap, background_size)
        views[i] = [FeatureWeightVector(w=complete_weight(cand, target, d), target=target,
                                        tree=cand.uid, quality=cand.quality, rank=rank)
                    for rank, cand in enumerate(greedy_select(cands, qd_params))]
        del model, cands  # as grow_forests frees its trees
    return [v for per_target in views for v in per_target]


def sense_all(
    table: MixedTable,
    forest_params: ForestParams,
    qd_params: QdParams,
    seed: int,
    explain_cap: int,
    background_size: int,
    workers: int = 1,
    pool: Pool | None = None,
) -> list[FeatureWeightVector]:
    """All R = d*m weighted views, ordered by (target column, greedy rank).

    Targets are independent tasks on one design matrix.  They are cut
    into ``min(workers, d)`` runs of consecutive columns, one pool task
    each, and the forests of a run grow together (``grow_forests``).  The
    tasks map over ``pool``, which must not have forked yet (the design
    matrix reaches its forked processes through the fork), or over a pool
    opened for this call; this process grows the first run itself.  Target
    j's forest is seeded with ``derive_seed(seed, "lofo", j)``, so the
    result is identical for any worker count.
    """
    if qd_params.m > forest_params.T:
        raise ConfigError(f"cannot select m={qd_params.m} trees from forests of T={forest_params.T}")
    if table.d < 2:
        raise DataError("weight sensing needs at least two columns")
    if forest_params.sample_size(table.n) >= table.n:
        # trees are scored and explained on their held-out rows
        raise ConfigError(f"train_sample_frac={forest_params.train_sample_frac} "
                          f"leaves no held-out rows for n={table.n}")
    X, is_nominal = design_matrix(table)
    n_classes = [col.n_levels() if col.kind == "nominal" else 0 for col in table.schema]
    chunks = np.array_split(np.arange(table.d), max(1, min(workers, table.d)))
    shared = (X, is_nominal, n_classes, chunks, forest_params, qd_params, seed, explain_cap,
              background_size)
    per_chunk = map_tasks(_sense_chunk, {"lofo": shared}, list(range(len(chunks))), workers, pool)
    views = [v for chunk in per_chunk for v in chunk]
    check_simplex(views)
    return views


def check_simplex(views: list[FeatureWeightVector]) -> None:
    """Every weight vector must be non-negative and sum to 1 (within 1e-12)."""
    for view in views:
        total = float(view.w.sum())
        if not (np.all(view.w >= 0) and abs(total - 1.0) <= 1e-12):
            raise DataError(f"view for target {view.target} left the simplex (sum {total})")


def views_matrix(views: list[FeatureWeightVector]) -> np.ndarray:
    return np.stack([v.w for v in views])
