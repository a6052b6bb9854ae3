"""End-to-end orchestration.

Encode the table into sparse bits, sense one weight vector per (target,
rank) view, run one weighted clustering round per view, collect the
round labels into the record matrix, cluster its one-hot embedding into
the final K groups, and derive all explanations from the label
frequencies.  Every stage seeds itself from (master seed, stage tag,
index), so results are identical for any worker-pool size.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from ._rng import derive_seed
from .bep import BepConfig, BepMatrix, encode_table
from .data_model import MixedTable
from .dfi import Explanations, compute_explanations
from .errors import ConfigError, DataError, InvariantError
from .forest import ForestParams
from .lofo import FeatureWeightVector, QdParams, sense_all, views_matrix
from .wkfreq import ClusterParams, FreqItemCenter, cluster

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
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        for name in ("alpha0", "beta0", "alpha"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ConfigError(f"{name} must lie in [0,1]")
        if self.explain_cap < 1 or self.background < 1:
            raise ConfigError("explain_cap and background must be >= 1")


@dataclass
class WiseResult:
    labels: np.ndarray                        # (n,) final cluster ids
    L: np.ndarray                             # (n, R) per-round labels
    k0: int
    round_centers: list[list[FreqItemCenter]]
    views: list[FeatureWeightVector]
    explanations: Explanations
    config: PipelineConfig
    seed: int


def lift_weights(w: np.ndarray, bit_groups: list[tuple[int, int]]) -> np.ndarray:
    """Feature weights to bit weights: every bit of feature j gets w[j].

    Total bit mass is intentionally not renormalized; scale cancels in
    the weighted Jaccard.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (len(bit_groups),):
        raise ConfigError(f"{w.shape[0]} weights for {len(bit_groups)} bit groups")
    p = bit_groups[-1][1]
    omega = np.empty(p)
    cursor = 0
    for j, (start, stop) in enumerate(bit_groups):
        if start != cursor:
            raise ConfigError("bit groups must partition the bit range")
        omega[start:stop] = w[j]
        cursor = stop
    return omega


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
) -> list[FeatureWeightVector]:
    if ablation not in ABLATIONS:
        raise ConfigError(f"ablation must be one of {ABLATIONS}, got {ablation!r}")
    if ablation != "none":
        return _ablation_views(table.d, config.qd.m, ablation, config.seed)
    forest_params = replace(config.forest, seed=derive_seed(config.seed, "sense"))
    return sense_all(
        table,
        forest_params,
        config.qd,
        explain_cap=config.explain_cap,
        background_size=config.background,
        workers=workers,
    )


def _run_round(args):
    X, omega, k0, alpha0, beta0, max_iter, seed = args
    params = ClusterParams(k=k0, alpha=alpha0, beta=beta0, max_iter=max_iter, seed=seed)
    res = cluster(X, params, weights=omega)
    return res.labels, res.centers


def stage_one(
    bep: BepMatrix,
    views: list[FeatureWeightVector],
    k0: int,
    alpha0: float,
    beta0: float,
    seed: int,
    max_iter: int = 50,
    workers: int = 1,
):
    """One weighted clustering round per view; labels land in L by round index."""
    if not views:
        raise ConfigError("stage one needs at least one view")
    tasks = []
    for r, view in enumerate(views):
        omega = lift_weights(view.w, bep.bit_groups)
        tasks.append((bep.matrix, omega, k0, alpha0, beta0, max_iter, derive_seed(seed, "stage1", r)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_round, tasks))
    else:
        results = [_run_round(t) for t in tasks]
    L = np.stack([labels for labels, _ in results], axis=1)
    centers = [c for _, c in results]
    if L.min() < 0 or L.max() >= k0:
        raise InvariantError("round labels escaped {0..k0-1}")
    return L, centers


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


def stage_two(
    Z: sparse.csr_matrix,
    K: int,
    alpha: float,
    beta: float,
    seed: int,
    max_iter: int = 50,
) -> np.ndarray:
    """Final unweighted clustering of the one-hot record embedding."""
    params = ClusterParams(k=K, alpha=alpha, beta=beta, max_iter=max_iter,
                           seed=derive_seed(seed, "stage2"))
    return cluster(Z, params, weights=None).labels


def run_wise(
    table: MixedTable,
    config: PipelineConfig,
    ablation: str = "none",
    workers: int = 1,
) -> WiseResult:
    """Full run: encode, sense views, round clusterings, final clustering,
    explanations.  Pure function of (table, config, ablation)."""
    bep = encode_table(table, config.bep)
    views = make_views(table, config, ablation, workers)
    L, centers = stage_one(
        bep, views, config.k0, config.alpha0, config.beta0,
        config.seed, config.max_iter, workers,
    )
    Z = one_hot_records(L, config.k0)
    y = stage_two(Z, config.K, config.alpha, config.beta0, config.seed, config.max_iter)
    explanations = compute_explanations(
        L, y, views_matrix(views), config.K, config.k0, config.eps,
    )
    if y.shape != (table.n,) or L.shape != (table.n, len(views)):
        raise InvariantError("result shapes are inconsistent")
    return WiseResult(
        labels=y,
        L=L,
        k0=config.k0,
        round_centers=centers,
        views=views,
        explanations=explanations,
        config=config,
        seed=config.seed,
    )
