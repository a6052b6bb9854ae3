"""End-to-end orchestration.

Encode the table into sparse bits, sense one weight vector per (target,
rank) view, run one weighted clustering round per view, collect the
round labels into the record matrix, cluster its one-hot embedding into
the final K groups, and derive all explanations from the label
frequencies.  Every stage seeds itself from (master seed, stage tag,
index), so results are identical for any worker-pool size.

Sensing and stage one map over one worker pool per run, which
``cluster_table`` opens.  It forks at the first map, with the bit matrix
and the design matrix in place, and is shut down before stage two, which
runs in this process.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from ._pool import Pool, map_tasks, open_pool
from ._rng import derive_seed
from .bep import BepConfig, BepMatrix, encode_table
from .data_model import MixedTable
from .dfi import Explanations, compute_explanations
from .errors import ConfigError, DataError, InvariantError
from .forest import ForestParams
from .lofo import FeatureWeightVector, QdParams, sense_all, views_matrix
from .wkfreq import ClusterParams, cluster, cluster_rounds

log = logging.getLogger(__name__)

DEFAULT_SEED = 20240601
ABLATIONS = ("none", "uniform", "gaussian")


@dataclass(frozen=True)
class PipelineConfig:
    bep: BepConfig = field(default_factory=BepConfig)
    forest: ForestParams = field(default_factory=ForestParams)
    qd: QdParams = field(default_factory=QdParams)
    k0: int = 6            # stage-one cluster count per round
    alpha0: float = 0.4    # stage-one center frequency threshold
    beta0: float = 0.4     # seeding bucket threshold (both stages)
    K: int = 3             # final cluster count
    alpha: float = 0.4     # stage-two center frequency threshold
    seed: int = DEFAULT_SEED
    eps: float = 1e-12     # instance-credit denominator floor
    max_iter: int = 50
    explain_cap: int = 256
    background: int = 64

    def __post_init__(self):
        if self.k0 < 1 or self.K < 1:
            raise ConfigError("k0 and K must be >= 1")
        if not 0.0 < self.eps < float("inf"):
            raise ConfigError("eps must be finite and positive")
        for name in ("alpha0", "beta0", "alpha"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ConfigError(f"{name} must lie in [0,1]")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if self.explain_cap < 1 or self.background < 1:
            raise ConfigError("explain_cap and background must be >= 1")


@dataclass
class WiseResult:
    labels: np.ndarray                        # (n,) final cluster ids
    L: np.ndarray                             # (n, R) per-round labels
    views: list[FeatureWeightVector]
    explanations: Explanations
    config: PipelineConfig


def lift_weights(w: np.ndarray, bit_groups: list[tuple[int, int]]) -> np.ndarray:
    """Feature weights to bit weights: every bit of feature j gets w[j].

    Total bit mass is intentionally not renormalized; scale cancels in
    the weighted Jaccard.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (len(bit_groups),):
        raise ConfigError(f"{w.shape[0]} weights for {len(bit_groups)} bit groups")
    start, stop = np.asarray(bit_groups, dtype=np.int64).reshape(-1, 2).T
    if start[0] != 0 or np.any(start[1:] != stop[:-1]):
        raise ConfigError("bit groups must partition the bit range")
    return np.repeat(w, stop - start)


def _ablation_views(d: int, m: int, mode: str, seed: int) -> list[FeatureWeightVector]:
    """Synthetic views for the ablation toggles: one per (target, rank)."""
    views = []
    for r in range(d * m):
        if mode == "uniform":
            w = np.full(d, 1.0 / d)
        else:
            rng = np.random.default_rng(derive_seed(seed, "ablation", r))
            w = np.abs(rng.standard_normal(d))
            total = w.sum()
            w = np.full(d, 1.0 / d) if total == 0 else w / total
        views.append(FeatureWeightVector(w=w, target=r // m, tree=-1, quality=0.0, rank=r % m))
    return views


def make_views(
    table: MixedTable,
    config: PipelineConfig,
    ablation: str = "none",
    workers: int = 1,
    pool: Pool | None = None,
) -> list[FeatureWeightVector]:
    if ablation not in ABLATIONS:
        raise ConfigError(f"ablation must be one of {ABLATIONS}, got {ablation!r}")
    if ablation != "none":
        return _ablation_views(table.d, config.qd.m, ablation, config.seed)
    return sense_all(
        table,
        config.forest,
        config.qd,
        derive_seed(config.seed, "sense"),
        explain_cap=config.explain_cap,
        background_size=config.background,
        workers=workers,
        pool=pool,
    )


def _run_rounds(shared, task) -> list[np.ndarray]:
    omegas, params = task
    return [result.labels for result in cluster_rounds(shared["bits"], params, omegas)]


def stage_one(
    bep: BepMatrix,
    views: list[FeatureWeightVector],
    config: PipelineConfig,
    workers: int = 1,
    pool: Pool | None = None,
) -> np.ndarray:
    """One weighted clustering round per view; labels land in L by round index.

    Rounds are independent.  They are cut into ``min(workers, R)`` runs of
    consecutive rounds, one pool task each, whose rounds cluster in
    lockstep (``cluster_rounds``).  A task carries its rounds' omegas and
    parameters; round r is seeded with ``derive_seed(seed, "stage1", r)``,
    so L is identical for any worker count.  The bit matrix is shared
    with ``pool``, or with a pool opened for this call.
    """
    if not views:
        raise ConfigError("stage one needs at least one view")
    omegas = [lift_weights(view.w, bep.bit_groups) for view in views]
    params = [ClusterParams(k=config.k0, alpha=config.alpha0, beta=config.beta0,
                            max_iter=config.max_iter, seed=derive_seed(config.seed, "stage1", r))
              for r in range(len(views))]
    runs = np.array_split(np.arange(len(views)), max(1, min(workers, len(views))))
    tasks = [([omegas[r] for r in run], [params[r] for r in run]) for run in runs]
    per_run = map_tasks(_run_rounds, {"bits": bep.matrix}, tasks, workers, pool)
    L = np.stack([labels for run in per_run for labels in run], axis=1)
    if L.min() < 0 or L.max() >= config.k0:
        raise InvariantError("round labels escaped {0..k0-1}")
    return L


def one_hot_records(L: np.ndarray, k0: int) -> sparse.csr_matrix:
    """n x (R*k0) indicator matrix; exactly R ones per row."""
    L = np.asarray(L, dtype=np.int64)
    n, R = L.shape
    if L.size and (L.min() < 0 or L.max() >= k0):
        raise DataError("record matrix entries must lie in {0..k0-1}")
    indices = (L + np.arange(R) * k0).ravel()
    indptr = np.arange(0, n * R + 1, R)
    data = np.ones(n * R, dtype=np.uint8)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, R * k0))


def stage_two(L: np.ndarray, config: PipelineConfig) -> np.ndarray:
    """Final unweighted clustering of the one-hot record embedding."""
    params = ClusterParams(k=config.K, alpha=config.alpha, beta=config.beta0,
                           max_iter=config.max_iter, seed=derive_seed(config.seed, "stage2"))
    return cluster(one_hot_records(L, config.k0), params, weights=None).labels


def cluster_table(
    table: MixedTable,
    config: PipelineConfig,
    views: list[FeatureWeightVector] | None = None,
    ablation: str = "none",
    workers: int = 1,
) -> tuple[list[FeatureWeightVector], np.ndarray, np.ndarray]:
    """Encode, sense (unless ``views`` are given), round clusterings, final
    clustering: the views, the record matrix L and the final labels.

    Sensing and stage one share one pool of at most one process per round
    (sensing has at most d <= rounds tasks), which forks with the bit
    matrix in place.
    """
    bep = encode_table(table, config.bep)
    rounds = table.d * config.qd.m if views is None else len(views)
    with open_pool(min(workers, rounds), bits=bep.matrix) as pool:
        if views is None:
            views = make_views(table, config, ablation, workers=workers, pool=pool)
        L = stage_one(bep, views, config, workers, pool)
    return views, L, stage_two(L, config)


def run_wise(
    table: MixedTable,
    config: PipelineConfig,
    ablation: str = "none",
    workers: int = 1,
) -> WiseResult:
    """Full run: ``cluster_table``, then explanations.  Pure function of
    (table, config, ablation)."""
    views, L, y = cluster_table(table, config, ablation=ablation, workers=workers)
    explanations = compute_explanations(
        L, y, views_matrix(views), config.K, config.k0, config.eps,
    )
    if y.shape != (table.n,) or L.shape != (table.n, len(views)):
        raise InvariantError("result shapes are inconsistent")
    return WiseResult(labels=y, L=L, views=views, explanations=explanations, config=config)
