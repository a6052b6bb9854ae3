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
    "labels.csv": "7d94b0d19bc11fe1be0629d6504161cf",
    "weights.csv": "6d1e6012336c7dad5900c2975524196a",
    "result.json": "0561d3a3a5cabf7362242240b9ad708d",
    "explanations.json": "64af245bd29cd1c7e271c9a374be9cfc",
    "metrics.json": "3153beb345672c6afede3fd2f9015ca6",
}

# run_wise, 1 worker, deep-sense settings on the n=400 table of synth seed 4
DEEP_SENSE_SETS = {"T": 20, "min_samples_leaf": 5, "train_sample_frac": 0.5, "m": 1}
DEEP_SENSE_DIGESTS = {
    "labels": "a2e190d53f4372c9fe589278601b3b19",
    "L": "fc718183139dac2b6d6a16174a5b679d",
    "views": "b11e8460f18e53500d3c9f8bdc39442c",
}

# make_views, default config (m=3 of T=10 trees per target), 1 worker, on the
# n=1500 table of synth seed 6
DEFAULT_VIEWS_DIGEST = "28058d78f0f47ee950b78e5b472c16fb"
# stage_one and stage_two, default config, 1 worker, on those views: 24 rounds,
# 9 of them on collapsed one-hot views
DEFAULT_ROUNDS_DIGESTS = {
    "L": "7414c789abf49a9c287612820cf0770a",
    "labels": "f8ecd11aeb6202894a5f5f6f88065a16",
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


# `wise sense`, then `wise cluster --weights` on its weights, then
# `wise cluster --ablation gaussian`, each with `--workers 2 --set m=1`, on
# the n=700 CSV of synth seed 3, per output file
STAGED_DIGESTS = {
    "weights.csv": "e5dcc238b85c62ec1e8ef73e1150c6c5",
    "weighted/records.csv": "a490f33cd0b83d86d1cb2cc2fe19b8e5",
    "weighted/labels.csv": "af49405c0302992c0aed6ead9674c495",
    "gaussian/records.csv": "6ee12ce2a8483a297148b31576de537d",
    "gaussian/labels.csv": "4f2c10fe044a2bad2919f6258464b8a4",
}


def test_staged_cli_outputs_match_golden_digests(tmp_path):
    csv_path, schema_path = tmp_path / "data.csv", tmp_path / "schema.json"
    write_synth(SynthParams(n=700, seed=3), csv_path, schema_path)
    common = ["--data", str(csv_path), "--schema", str(schema_path), "--truth-column", "label",
              "--workers", "2", "--set", "m=1"]
    out = tmp_path / "out"
    weights = out / "weights.csv"
    out.mkdir()
    assert cli.main(["sense"] + common + ["--out", str(weights)]) == 0
    assert cli.main(["cluster"] + common + ["--weights", str(weights),
                                            "--out", str(out / "weighted")]) == 0
    assert cli.main(["cluster"] + common + ["--ablation", "gaussian",
                                            "--out", str(out / "gaussian")]) == 0
    got = {name: digest((out / name).read_bytes()) for name in STAGED_DIGESTS}
    assert got == STAGED_DIGESTS
