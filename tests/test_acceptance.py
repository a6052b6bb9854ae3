"""Release gates: exact identities, oracle equivalence, statistical fidelity,
planted-truth recovery, and determinism.  One test per gate."""

import itertools
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    BlockCode,
    SparseWeightedVector,
    cws_sketch,
    encode_numeric_value,
    predict_tree,
    qd_objective,
    random_mixed_table,
    random_sparse_binary,
    random_tree,
    set_partitions,
    shap_oracle,
    weighted_jaccard,
)
from wise import cli
from wise.bep import BepConfig, jaccard_distance, quantization_bounds
from wise.dfi import faithfulness_eval
from wise.forest import ForestParams
from wise.lofo import QdParams, TreeCandidate, cosine_distance, marginal_gain
from wise.metrics import acc_hungarian, ari, nmi
from wise.pipeline import PipelineConfig, run_wise
from wise.synth import SynthParams, synth_table
from wise.treeshap import shap_matrix
from wise.wkfreq import ClusterParams, cluster

GATE_SEED = 20240601


def test_criterion_01_quantization_bracket():
    """10,000 random (x, y, B): code distance inside the quantization bracket."""
    rng = np.random.default_rng(GATE_SEED)
    t0 = time.perf_counter()
    for _ in range(10_000):
        B = int(rng.integers(2, 129))
        x = float(rng.random())
        y = float(rng.random())
        ca = encode_numeric_value(x, B)
        cb = encode_numeric_value(y, B)
        d = jaccard_distance(ca.bits, cb.bits)
        lo, hi = quantization_bounds(abs(x - y), B)
        assert lo <= d <= hi
        # same statement in exact rationals: the computed distance is the
        # image of delta/B under 2u/(1+u), and delta/B sits in [t-1/B, t+1/B]
        delta = abs(ca.offset - cb.offset)
        assert d == 2 * delta / (B + delta)
        t = Fraction(abs(x - y))
        t_lo = max(Fraction(0), t - Fraction(1, B))
        t_hi = min(Fraction(1), t + Fraction(1, B))
        assert t_lo <= Fraction(delta, B) <= t_hi
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[01] 10000 triples, 0 violations, {elapsed:.2f} s")


def test_criterion_02_block_code_closed_form():
    """d_J == 2(delta/B)/(1+delta/B) exactly for every delta <= B <= 64."""
    for B in range(2, 65):
        for delta in range(B + 1):
            d = jaccard_distance(BlockCode(0, B).bits, BlockCode(delta, B).bits)
            assert d == 2 * delta / (B + delta)
            sa = set(range(B))
            sb = set(range(delta, delta + B))
            inter = len(sa & sb)
            union = len(sa | sb)
            assert Fraction(union - inter, union) == Fraction(2 * delta, B + delta)
    print("\n[02] all (delta, B) pairs up to B=64 exact")


def test_criterion_03_shapley_oracle():
    """200 random trees: attributions match coalition enumeration to 1e-9."""
    rng = np.random.default_rng(GATE_SEED)
    t0 = time.perf_counter()
    worst_err = 0.0
    worst_add = 0.0
    for trial in range(200):
        d = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 4))
        if trial % 2:
            n_classes = int(rng.integers(2, 4))
            root, X, _ = random_tree(rng, d, "classification", n_classes, depth)
            out = int(rng.integers(0, n_classes))
        else:
            root, X, _ = random_tree(rng, d, depth=depth)
            out = None
        background = X[rng.choice(40, size=int(rng.integers(1, 17)), replace=False)]
        rows = X[rng.choice(40, size=2, replace=False)]
        phi, base = shap_matrix(root, rows, background, out)
        pred = predict_tree(root, rows)
        if pred.ndim == 2:
            pred = pred[:, out]
        worst_add = max(worst_add, float(np.max(np.abs(base + phi.sum(axis=1) - pred))))
        for i in range(rows.shape[0]):
            phi_o, base_o = shap_oracle(root, rows[i], background, out)
            worst_err = max(
                worst_err, float(np.max(np.abs(phi[i] - phi_o))), abs(base - base_o)
            )
    elapsed = time.perf_counter() - t0
    assert worst_err <= 1e-9
    assert worst_add <= 1e-9
    assert elapsed < 60.0
    print(f"\n[03] 200 trees, max oracle gap {worst_err:.2e}, "
          f"max additivity residual {worst_add:.2e}, {elapsed:.1f} s")


def test_criterion_04_qd_gain_identity():
    """Cached marginal gain equals the objective difference to 1e-12."""
    rng = np.random.default_rng(GATE_SEED)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        size = int(rng.integers(1, 7))
        lam = float(rng.random())

        def cand(uid):
            s = rng.random(dim)
            if rng.random() < 0.1:
                s = np.zeros(dim)
            return TreeCandidate(uid=uid, quality=float(rng.random()), s=s)

        selected = [cand(i) for i in range(size)]
        extra = cand(size)
        quality_sum = sum(c.quality for c in selected)
        pair_sum = sum(
            cosine_distance(selected[i].s, selected[j].s)
            for i in range(size)
            for j in range(i + 1, size)
        )
        gain = marginal_gain(extra, selected, quality_sum, pair_sum, lam)
        diff = qd_objective(selected + [extra], lam) - qd_objective(selected, lam)
        worst = max(worst, abs(gain - diff))
    assert worst <= 1e-12
    print(f"\n[04] 1000 (S, r) instances, max |gain - diff| {worst:.2e}")


def _weighted_pair(rng, trial):
    """Alternate near-duplicate and independent vectors over a shared range."""
    p = 40
    size_v = int(rng.integers(6, 16))
    idx_v = np.sort(rng.choice(p, size=size_v, replace=False))
    v = SparseWeightedVector(idx=idx_v, val=rng.uniform(0.1, 2.0, size_v))
    if trial % 2 == 0:
        keep = rng.random(size_v) < 0.85
        keep[0] = True
        u = SparseWeightedVector(
            idx=idx_v[keep],
            val=v.val[keep] * rng.uniform(0.6, 1.4, int(keep.sum())),
        )
    else:
        size_u = int(rng.integers(6, 16))
        idx_u = np.sort(rng.choice(p, size=size_u, replace=False))
        u = SparseWeightedVector(idx=idx_u, val=rng.uniform(0.1, 2.0, size_u))
    return v, u


def test_criterion_05_cws_collision_fidelity():
    """Hash collision rate tracks weighted Jaccard within 0.02 per pair."""
    rng = np.random.default_rng(GATE_SEED)
    hash_ids = np.arange(10_000, dtype=np.int64)
    worst = 0.0
    for trial in range(50):
        v, u = _weighted_pair(rng, trial)
        similarity = weighted_jaccard(v, u)
        cv, pv = cws_sketch(v, hash_ids, seed=404)
        cu, pu = cws_sketch(u, hash_ids, seed=404)
        rate = float(np.mean((cv == cu) & (pv == pu)))
        worst = max(worst, abs(rate - similarity))
        assert abs(rate - similarity) <= 0.02
    print(f"\n[05] 50 pairs x 10000 hashes, max |rate - jaccard| {worst:.3f}")


def test_criterion_06_unweighted_reduction():
    """All-equal weights reproduce the plain engine's partition exactly."""
    rng = np.random.default_rng(GATE_SEED)
    for _ in range(20):
        n = int(rng.integers(50, 501))
        p = int(rng.integers(20, 61))
        X = random_sparse_binary(rng, n, p)
        params = ClusterParams(k=int(rng.integers(2, 7)), seed=int(rng.integers(2**31)))
        plain = cluster(X, params)
        weighted = cluster(X, params, weights=np.ones(p))
        assert np.array_equal(plain.labels, weighted.labels)
    print("\n[06] 20 sparse datasets, weighted == plain partition")


def test_criterion_07_explanation_consistency():
    """Cluster weights equal the mean of raw instance weights on every run."""
    rng = np.random.default_rng(GATE_SEED)
    worst = 0.0
    for trial in range(20):
        table = random_mixed_table(
            rng,
            n=int(rng.integers(60, 251)),
            numeric=int(rng.integers(1, 5)),
            nominal=int(rng.integers(1, 5)),
            levels=4,
        )
        config = PipelineConfig(
            bep=BepConfig(B=4),
            forest=ForestParams(T=3, max_depth=5, min_samples_leaf=5,
                                train_sample_frac=0.5),
            qd=QdParams(m=1 + trial % 2, lam=0.5),
            k0=int(rng.integers(3, 7)),
            K=int(rng.integers(2, 6)),
            seed=int(rng.integers(2**31)),
        )
        result = run_wise(table, config, workers=1)
        worst = max(worst, result.explanations.consistency_deviation)
    assert worst <= 1e-9
    print(f"\n[07] 20 end-to-end runs, max consistency deviation {worst:.2e}")


def _comembership_rows(parts, n):
    """Each partition as a point-pair co-membership bit vector."""
    iu, ju = np.triu_indices(n, 1)
    M = np.empty((len(parts), iu.size), dtype=np.int64)
    for i, p in enumerate(parts):
        a = np.asarray(p)
        M[i] = a[iu] == a[ju]
    return M


def _ari_oracle_matrix(parts, n):
    """Pair-counting ARI for every ordered pair of partitions."""
    M = _comembership_rows(parts, n)
    together_both = M @ M.T
    together = M.sum(axis=1)
    n2 = n * (n - 1) // 2
    prod = np.outer(together, together)
    num = 2 * (n2 * together_both - prod)
    den = n2 * (together[:, None] + together[None, :]) - 2 * prod
    return np.where(den == 0, 1.0, num / np.where(den == 0, 1, den))


def _nmi_acc_oracle_matrices(parts, n):
    """Contingency-based NMI and best-injection accuracy, per cluster-count
    bucket so the tensors stay dense and small."""
    by_k = defaultdict(list)
    for i, p in enumerate(parts):
        by_k[max(p) + 1].append(i)
    onehot = {}
    for k, ids in by_k.items():
        O = np.zeros((len(ids), n, k), dtype=np.int64)
        for a, i in enumerate(ids):
            O[a, np.arange(n), np.asarray(parts[i])] = 1
        onehot[k] = O

    P = len(parts)
    nmi_m = np.empty((P, P))
    acc_m = np.empty((P, P))
    for k1, ids1 in by_k.items():
        for k2, ids2 in by_k.items():
            counts = np.einsum("ank,bnl->abkl", onehot[k1], onehot[k2])
            if k1 == 1 and k2 == 1:
                nmi_blk = np.ones(counts.shape[:2])
            elif k1 == 1 or k2 == 1:
                nmi_blk = np.zeros(counts.shape[:2])
            else:
                r = counts.sum(axis=3)
                c = counts.sum(axis=2)
                hu = -((r / n) * np.log(r / n)).sum(axis=2)
                hv = -((c / n) * np.log(c / n)).sum(axis=2)
                safe = np.maximum(counts, 1)
                mi = (
                    counts / n
                    * (np.log(n * safe) - np.log(r)[:, :, :, None] - np.log(c)[:, :, None, :])
                ).sum(axis=(2, 3))
                nmi_blk = mi / np.sqrt(hu * hv)
            if k1 <= k2:
                small, large, C = k1, k2, counts
            else:
                small, large, C = k2, k1, counts.transpose(0, 1, 3, 2)
            base = np.arange(small)
            best = None
            for perm in itertools.permutations(range(large), small):
                s = C[:, :, base, np.asarray(perm)].sum(axis=2)
                best = s if best is None else np.maximum(best, s)
            nmi_m[np.ix_(ids1, ids2)] = nmi_blk
            acc_m[np.ix_(ids1, ids2)] = best / n
    return nmi_m, acc_m


def test_criterion_08_metric_oracles():
    """ARI/NMI/ACC agree with exhaustive oracles on every partition pair."""
    worst_nmi = 0.0
    total = 0
    for n in range(1, 8):
        parts = set_partitions(n)
        oracle_ari = _ari_oracle_matrix(parts, n)
        oracle_nmi, oracle_acc = _nmi_acc_oracle_matrices(parts, n)
        arrs = [np.asarray(p, dtype=np.int64) for p in parts]
        for i, a in enumerate(arrs):
            row_ari = oracle_ari[i]
            row_nmi = oracle_nmi[i]
            row_acc = oracle_acc[i]
            for j, b in enumerate(arrs):
                assert ari(a, b) == row_ari[j]
                gap = abs(nmi(a, b) - row_nmi[j])
                if gap > worst_nmi:
                    worst_nmi = gap
                assert gap <= 1e-12
                assert acc_hungarian(a, b) == row_acc[j]
                total += 1
    print(f"\n[08] {total} ordered pairs, ARI/ACC exact, max NMI gap {worst_nmi:.2e}")


@pytest.fixture(scope="module")
def planted():
    """Default planted dataset and one full default-config run, timed."""
    table, truth = synth_table(SynthParams())
    t0 = time.perf_counter()
    result = run_wise(table, PipelineConfig(), workers=1)
    elapsed = time.perf_counter() - t0
    return table, np.asarray(truth), result, elapsed


def test_criterion_09_planted_recovery(planted):
    """Default run recovers the planted 3-cluster structure within budget."""
    _, truth, result, elapsed = planted
    score_ari = ari(result.labels, truth)
    score_nmi = nmi(result.labels, truth)
    assert score_ari >= 0.9
    assert score_nmi >= 0.8
    assert elapsed <= 120.0
    print(f"\n[09] ARI {score_ari:.4f}, NMI {score_nmi:.4f}, {elapsed:.1f} s")


def test_criterion_10_ablation_ordering(planted):
    """Learned weights beat uniform weights; top-3 features beat random 3."""
    table, truth, result, _ = planted
    uniform = run_wise(table, PipelineConfig(), ablation="uniform", workers=1)
    ari_wise = ari(result.labels, truth)
    ari_uniform = ari(uniform.labels, truth)
    assert ari_wise >= ari_uniform

    sizes = np.bincount(result.labels, minlength=result.config.K)
    report = faithfulness_eval(
        table, result.labels, result.explanations.W_cluster, sizes,
        top_k=[3], trials=30, seed=GATE_SEED,
    )
    record = report["subsets"][0]
    assert record["dfi_accuracy"] >= record["random_accuracy"]
    print(f"\n[10] ARI {ari_wise:.4f} vs uniform {ari_uniform:.4f}; "
          f"top-3 acc {record['dfi_accuracy']:.3f} vs random {record['random_accuracy']:.3f}")


def test_criterion_11_determinism_across_workers(tmp_path):
    """Same seed and config give byte-identical labels at any pool size."""
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--n", "500", "--seed", "13"]) == 0
    common = [
        "run",
        "--data", str(data_dir / "data.csv"),
        "--schema", str(data_dir / "schema.json"),
        "--truth-column", "label",
        "--seed", "21",
        "--set", "T=4", "--set", "max_depth=6", "--set", "min_samples_leaf=5",
        "--set", "train_sample_frac=0.5", "--set", "m=2", "--set", "k0=4",
    ]
    outs = []
    for name, workers in (("a", "1"), ("b", "3"), ("c", "1")):
        out = tmp_path / name
        assert cli.main(common + ["--out", str(out), "--workers", workers]) == 0
        outs.append((out / "labels.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    print("\n[11] labels.csv byte-identical for worker pools 1, 3, 1")
