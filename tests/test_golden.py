"""Golden output digests: fixed runs must reproduce their outputs byte for byte.

A change that is meant to leave every output alone (a refactor, a
deletion, a faster kernel) shows it here: any flipped label, any weight
off by one ulp, any reordered JSON key changes a digest.  Floating-point
results may legitimately differ across library builds, so the digests
hold only for the versions they were recorded with; on other versions
the tests skip and name both.

To re-record after an intended output change, run each case, print the
digests it computes and paste them below together with the versions.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from wise import cli
from wise.cli import build_config
from wise.bep import encode_table
from wise.pipeline import PipelineConfig, make_views, run_wise, stage_one, stage_two
from wise.synth import SynthParams, synth_table, write_synth

RECORDED = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}

# `wise run --workers 2 --set m=1 --faithfulness --instances --dump-records`
# on the planted n=2000 CSV of synth seed 11, per output file
CLI_DIGESTS = {
    "labels.csv": "ba6d9af1b7fbe2fc3a76dd39d6d2b3a3",
    "weights.csv": "0932b3433a55416b53321e94ea7978a2",
    "result.json": "0e6f16c7be9648cd26b000d98463caff",
    "explanations.json": "4d3c077a960bc8fd5bd5f43ea4018dc1",
    "metrics.json": "6b7e5a68499fb79307ad64e369a7e723",
}

# run_wise, 1 worker, deep-sense settings on the n=400 table of synth seed 4
DEEP_SENSE_SETS = {"T": 20, "min_samples_leaf": 5, "train_sample_frac": 0.5, "m": 1}
DEEP_SENSE_DIGESTS = {
    "labels": "816045602bc341c763fddf601b68245e",
    "L": "0458e23a2af92339b0173dbf21190fe8",
    "views": "5889a2274fba020b4e944cb96c00ff4a",
}

# make_views, default config (m=3 of T=10 trees per target), 1 worker, on the
# n=1500 table of synth seed 6
DEFAULT_VIEWS_DIGEST = "10cd000b0e43577e4d444b0e6eb0f761"
# stage_one and stage_two, default config, 1 worker, on those views: 24 rounds,
# 9 of them on collapsed one-hot views
DEFAULT_ROUNDS_DIGESTS = {
    "L": "9abbbecbe9a82f7b706d9af05e689133",
    "labels": "9f5aeff06e2dfe7a8209c0bc915fdb2e",
}


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def view_bytes(views) -> bytes:
    return b"".join(
        np.array([v.target, v.tree, v.rank], dtype=np.int64).tobytes()
        + np.float64(v.quality).tobytes() + np.ascontiguousarray(v.w, dtype=np.float64).tobytes()
        for v in views
    )


@pytest.fixture(autouse=True)
def recorded_versions():
    here = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}
    if here != RECORDED:
        pytest.skip(f"digests recorded with {RECORDED}, running {here}")


def test_cli_run_outputs_match_golden_digests(tmp_path):
    csv_path, schema_path = tmp_path / "data.csv", tmp_path / "schema.json"
    write_synth(SynthParams(n=2000, seed=11), csv_path, schema_path)
    out = tmp_path / "out"
    rc = cli.main(["run", "--data", str(csv_path), "--schema", str(schema_path),
                   "--truth-column", "label", "--out", str(out), "--workers", "2",
                   "--set", "m=1", "--faithfulness", "--instances", "--dump-records"])
    assert rc == 0
    got = {name: digest((out / name).read_bytes()) for name in CLI_DIGESTS}
    assert got == CLI_DIGESTS


def test_deep_sense_run_matches_golden_digests():
    table, _ = synth_table(SynthParams(n=400, seed=4))
    result = run_wise(table, build_config(DEEP_SENSE_SETS), workers=1)
    got = {
        "labels": digest(np.ascontiguousarray(result.labels, dtype=np.int64).tobytes()),
        "L": digest(np.ascontiguousarray(result.L, dtype=np.int64).tobytes()),
        "views": digest(view_bytes(result.views)),
    }
    assert got == DEEP_SENSE_DIGESTS


@pytest.fixture(scope="module")
def default_views():
    table, _ = synth_table(SynthParams(n=1500, seed=6))
    return table, make_views(table, PipelineConfig(), workers=1)


def test_default_config_views_match_golden_digest(default_views):
    # m >= 2 reads every tree's attribution during selection
    table, views = default_views
    assert len(views) == 3 * table.d
    assert digest(view_bytes(views)) == DEFAULT_VIEWS_DIGEST


def test_default_config_rounds_match_golden_digests(default_views):
    table, views = default_views
    config = PipelineConfig()
    L = stage_one(encode_table(table, config.bep), views, config, workers=1)
    got = {
        "L": digest(np.ascontiguousarray(L, dtype=np.int64).tobytes()),
        "labels": digest(np.ascontiguousarray(stage_two(L, config), dtype=np.int64).tobytes()),
    }
    assert got == DEFAULT_ROUNDS_DIGESTS
