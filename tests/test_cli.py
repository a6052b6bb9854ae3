"""Config plumbing, stage-file round trips, exit codes, and end-to-end runs."""

import argparse
import csv
import json
import math
import multiprocessing
import warnings

import numpy as np
import pytest

from wise import cli, lofo, pipeline
from wise.data_model import ColumnSchema, table_from_raw, write_table
from wise.errors import ConfigError, DataError
from wise.lofo import FeatureWeightVector
from wise.metrics import evaluate
from wise.pipeline import DEFAULT_SEED, PipelineConfig
from wise.synth import SynthParams, write_synth

FAST_OVERRIDES = [
    "--set", "T=4", "--set", "max_depth=6", "--set", "min_samples_leaf=5",
    "--set", "train_sample_frac=0.5", "--set", "m=2", "--set", "k0=4",
]


def test_config_dict_round_trip():
    cfg = PipelineConfig(k0=5, K=4, alpha0=0.3, seed=123)
    assert set(cli.config_to_dict(cfg)) == set(cli.CANONICAL_KEYS)
    assert cli.build_config(cli.config_to_dict(cfg)) == cfg


def test_config_ascii_aliases_normalize():
    greek = cli.build_config({"α0": 0.3, "β0": 0.2, "α": 0.6, "λ_QD": 0.7})
    ascii_ = cli.build_config(
        {"alpha0": 0.3, "beta0": 0.2, "alpha": 0.6, "lambda_QD": 0.7}
    )
    assert greek == ascii_
    assert greek.alpha0 == 0.3 and greek.qd.lam == 0.7


def test_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        cli.build_config({"blocksize": 4})
    with pytest.raises(ConfigError, match="given twice"):
        cli.build_config({"alpha0": 0.3, "α0": 0.4})


def test_config_rejects_unparseable_values():
    with pytest.raises(ConfigError, match="bad config value"):
        cli.build_config({"K": "many"})


@pytest.mark.parametrize("entries", [
    {"k0": 2.7}, {"seed": 1.5}, {"T": True}, {"max_iter": float("inf")}, {"m": float("nan")},
    {"α": True}, {"features_per_split": False}, {"hash_seed": -0.5},
], ids=repr)
def test_config_rejects_booleans_and_non_integral_integers(entries):
    with pytest.raises(ConfigError, match="bad config value"):
        cli.build_config(entries)


def test_config_takes_integral_floats_and_integer_floats():
    cfg = cli.build_config({"k0": 2.0, "seed": 7.0, "α": 1, "features_per_split": 0.5})
    assert (cfg.k0, cfg.seed, cfg.alpha, cfg.forest.features_per_split) == (2, 7, 1.0, 0.5)
    assert type(cfg.k0) is int and type(cfg.alpha) is float


def test_load_config_priority_file_then_set_then_flag(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "K": 7}))
    cfg = cli.load_config(path, ["seed=2"], None)
    assert cfg.seed == 2 and cfg.K == 7
    cfg = cli.load_config(path, ["seed=2"], 3)
    assert cfg.seed == 3
    cfg = cli.load_config(None, None, None)
    assert cfg.seed == DEFAULT_SEED


def test_load_config_set_parses_json_then_raw_string(tmp_path):
    cfg = cli.load_config(None, ["K=4", "nominal_mode=hash"], None)
    assert cfg.K == 4 and cfg.bep.nominal_mode == "hash"
    with pytest.raises(ConfigError, match="key=value"):
        cli.load_config(None, ["K:4"], None)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config(tmp_path / "missing.json", None, None)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        cli.load_config(bad, None, None)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        cli.load_config(arr, None, None)


def test_workers_flag_env_default(monkeypatch):
    assert cli._workers(argparse.Namespace(workers=5)) == 5
    assert cli._workers(argparse.Namespace(workers=0)) == 1
    monkeypatch.setenv(cli.WORKERS_ENV, "3")
    assert cli._workers(argparse.Namespace(workers=None)) == 3
    monkeypatch.setenv(cli.WORKERS_ENV, "two")
    with pytest.raises(ConfigError, match="not an integer"):
        cli._workers(argparse.Namespace(workers=None))
    monkeypatch.delenv(cli.WORKERS_ENV)
    assert cli._workers(argparse.Namespace(workers=None)) >= 1


def test_labels_file_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    cli.write_labels(path, np.array([2, 0, 1]))
    assert np.array_equal(cli.read_labels(path), [2, 0, 1])
    path.write_text("row,cluster\n0,1\n")
    with pytest.raises(DataError, match="expected header"):
        cli.read_labels(path)


def test_views_file_round_trip(tmp_path):
    names = ["a", "b", "c"]
    views = [
        FeatureWeightVector(w=np.array([0.1, 0.2, 0.7]), target=0, tree=3, quality=0.625, rank=0),
        FeatureWeightVector(w=np.array([1 / 3, 1 / 3, 1 / 3]), target=2, tree=1, quality=1.0, rank=1),
    ]
    path = tmp_path / "weights.csv"
    cli.write_views(path, views, names)
    back = cli.read_views(path, names)
    for orig, read in zip(views, back):
        assert np.array_equal(orig.w, read.w)  # repr round trip is exact
        assert (orig.target, orig.tree, orig.quality, orig.rank) == (
            read.target, read.tree, read.quality, read.rank,
        )
    with pytest.raises(DataError, match="do not match the schema"):
        cli.read_views(path, ["a", "b", "z"])


def test_views_file_rejects_junk(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("nope\n")
    with pytest.raises(DataError, match="weights dump header"):
        cli.read_views(path, ["a"])
    cli.write_views(path, [], ["a"])
    with pytest.raises(DataError, match="no weight vectors"):
        cli.read_views(path, ["a"])


def test_records_file_round_trip(tmp_path):
    path = tmp_path / "records.csv"
    L = np.array([[0, 2], [1, 1]])
    cli.write_records(path, L, k0=3)
    back, k0 = cli.read_records(path)
    assert np.array_equal(back, L) and k0 == 3
    path.write_text("row_index,round_0\n0,1\n")
    with pytest.raises(DataError, match="record-matrix dump"):
        cli.read_records(path)


def _records(path):
    L, k0 = cli.read_records(path)
    return L.tolist(), k0


def _views(path):
    return [(v.w.tolist(), v.target, v.tree, v.quality, v.rank)
            for v in cli.read_views(path, ["a", "b"])]


BOM_FILES = {   # file -> (writer, reader of a comparable value)
    "labels.csv": (lambda path: cli.write_labels(path, np.array([1, 0])),
                   lambda path: cli.read_labels(path).tolist()),
    "records.csv": (lambda path: cli.write_records(path, np.array([[0, 2], [1, 1]]), k0=3),
                    _records),
    "weights.csv": (lambda path: cli.write_views(path, [FeatureWeightVector(
                        w=np.array([0.25, 0.75]), target=1, tree=2, quality=0.5, rank=0)],
                        ["a", "b"]),
                    _views),
    "config.json": (lambda path: path.write_text(json.dumps({"K": 4, "α0": 0.3})),
                    lambda path: cli.load_config(path, None, None)),
}


@pytest.mark.parametrize("name", list(BOM_FILES))
def test_input_files_read_the_same_with_a_byte_order_mark(tmp_path, name):
    write, read = BOM_FILES[name]
    plain, marked = tmp_path / name, tmp_path / ("bom-" + name)
    write(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read(marked) == read(plain)


def synth_dataset(tmp_path, n=200):
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--n", str(n), "--seed", "5"]) == 0
    return out / "data.csv", out / "schema.json"


def test_synth_command_writes_files(tmp_path):
    csv_path, schema_path = synth_dataset(tmp_path)
    assert csv_path.exists() and schema_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.endswith(",label")


def test_synth_command_defaults_are_synth_params_defaults(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path / "cli")]) == 0
    want_csv, want_schema = tmp_path / "want.csv", tmp_path / "want.json"
    write_synth(SynthParams(), want_csv, want_schema)
    assert (tmp_path / "cli" / "data.csv").read_bytes() == want_csv.read_bytes()
    assert (tmp_path / "cli" / "schema.json").read_bytes() == want_schema.read_bytes()


def test_run_command_end_to_end(tmp_path, capsys):
    csv_path, schema_path = synth_dataset(tmp_path)
    out = tmp_path / "run"
    rc = cli.main(
        ["run", "--data", str(csv_path), "--schema", str(schema_path),
         "--truth-column", "label", "--out", str(out), "--workers", "1",
         "--seed", "42"] + FAST_OVERRIDES
    )
    assert rc == 0
    for name in ("labels.csv", "weights.csv", "result.json", "explanations.json", "metrics.json"):
        assert (out / name).exists()

    metrics = json.loads((out / "metrics.json").read_text())
    assert {"ari", "nmi", "purity", "acc", "swc"} <= set(metrics)
    assert metrics["ari"] > 0.5

    report = json.loads((out / "explanations.json").read_text())
    assert report["consistency_deviation"] <= 1e-9
    assert len(report["clusters"]) == 3
    result = json.loads((out / "result.json").read_text())
    assert result["R"] == 8 * 2  # d views times m ranks
    assert "ARI=" in capsys.readouterr().out


def test_run_command_is_deterministic(tmp_path):
    csv_path, schema_path = synth_dataset(tmp_path)
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = cli.main(
            ["run", "--data", str(csv_path), "--schema", str(schema_path),
             "--truth-column", "label", "--out", str(out), "--workers", "1",
             "--seed", "7"] + FAST_OVERRIDES
        )
        assert rc == 0
        outs.append((out / "labels.csv").read_bytes())
    assert outs[0] == outs[1]


def test_stagewise_commands_compose(tmp_path):
    csv_path, schema_path = synth_dataset(tmp_path)
    io_args = ["--data", str(csv_path), "--schema", str(schema_path),
               "--truth-column", "label"]
    bep_path = tmp_path / "bep.txt"
    assert cli.main(["encode"] + io_args + ["--out", str(bep_path)] + FAST_OVERRIDES) == 0
    assert bep_path.exists()

    weights_path = tmp_path / "weights.csv"
    assert cli.main(
        ["sense"] + io_args + ["--out", str(weights_path), "--workers", "1",
                               "--seed", "42"] + FAST_OVERRIDES
    ) == 0

    cluster_out = tmp_path / "cluster"
    assert cli.main(
        ["cluster"] + io_args + ["--weights", str(weights_path),
                                 "--out", str(cluster_out), "--workers", "1",
                                 "--seed", "42"] + FAST_OVERRIDES
    ) == 0

    explain_out = tmp_path / "explanations.json"
    assert cli.main(
        ["explain"] + io_args + ["--records", str(cluster_out / "records.csv"),
                                 "--labels", str(cluster_out / "labels.csv"),
                                 "--weights", str(weights_path),
                                 "--out", str(explain_out)] + FAST_OVERRIDES
    ) == 0
    assert json.loads(explain_out.read_text())["consistency_deviation"] <= 1e-9

    metrics_out = tmp_path / "metrics.json"
    assert cli.main(
        ["evaluate"] + io_args + ["--labels", str(cluster_out / "labels.csv"),
                                  "--out", str(metrics_out)]
    ) == 0
    assert "ari" in json.loads(metrics_out.read_text())

    # the staged commands are `wise run` in pieces
    run_out = tmp_path / "run"
    assert cli.main(
        ["run"] + io_args + ["--out", str(run_out), "--workers", "1", "--seed", "42"]
        + FAST_OVERRIDES
    ) == 0
    for staged in (weights_path, cluster_out / "labels.csv", explain_out):
        assert staged.read_bytes() == (run_out / staged.name).read_bytes(), staged.name


def test_cluster_command_senses_with_workers(tmp_path, monkeypatch):
    csv_path, schema_path = synth_dataset(tmp_path)
    seen = []
    make_views = pipeline.make_views

    def spy(*args, **kwargs):
        seen.append(kwargs.get("workers", 1))
        return make_views(*args, **kwargs)

    monkeypatch.setattr(pipeline, "make_views", spy)
    assert cli.main(
        ["cluster", "--data", str(csv_path), "--schema", str(schema_path),
         "--truth-column", "label", "--ablation", "none", "--out", str(tmp_path / "c"),
         "--workers", "2", "--seed", "42"] + FAST_OVERRIDES
    ) == 0
    assert seen == [2]


def test_cluster_command_forks_one_pool_and_pooling_is_invisible(tmp_path, pools_made):
    csv_path, schema_path = synth_dataset(tmp_path)
    outs = []
    for workers in (1, 2):
        pools_made.clear()
        out = tmp_path / f"c{workers}"
        assert cli.main(
            ["cluster", "--data", str(csv_path), "--schema", str(schema_path),
             "--truth-column", "label", "--ablation", "none", "--out", str(out),
             "--workers", str(workers), "--seed", "42"] + FAST_OVERRIDES
        ) == 0
        # sensing and stage one share one pool; one worker makes none
        assert pools_made == ([1] if workers == 2 else [])
        outs.append([(out / name).read_bytes() for name in ("records.csv", "labels.csv")])
    assert outs[0] == outs[1]


def test_run_exits_three_when_a_pooled_round_fails(tmp_path, capsys, monkeypatch, pools_made):
    def fail(*args, **kwargs):
        raise DataError("planted round failure")

    csv_path, schema_path = synth_dataset(tmp_path)
    # patched before the fork, so the workers fail every stage-one round
    monkeypatch.setattr(pipeline, "cluster_rounds", fail)
    assert cli.main(
        ["run", "--data", str(csv_path), "--schema", str(schema_path), "--truth-column", "label",
         "--out", str(tmp_path / "run"), "--workers", "2", "--seed", "42"] + FAST_OVERRIDES
    ) == 3
    assert "data error: planted round failure" in capsys.readouterr().err
    assert pools_made == [1]
    assert multiprocessing.active_children() == []


def test_cluster_takes_weights_or_ablation_not_both(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cluster", "--data", "d.csv", "--schema", "s.json", "--out", str(tmp_path),
                  "--weights", "w.csv", "--ablation", "gaussian"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def blank_rows(csv_path, data_rows=(3, 10)):
    """Blank one cell of the given 0-based data rows, so the loader drops them."""
    lines = csv_path.read_text().splitlines()
    for data_row in data_rows:
        cells = lines[1 + data_row].split(",")
        cells[0] = ""
        lines[1 + data_row] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    return len(lines) - 1


def test_row_index_names_the_source_row_after_dropped_rows(tmp_path):
    csv_path, schema_path = synth_dataset(tmp_path)
    n = blank_rows(csv_path)
    out = tmp_path / "c"
    assert cli.main(
        ["cluster", "--data", str(csv_path), "--schema", str(schema_path),
         "--truth-column", "label", "--out", str(out), "--workers", "1",
         "--seed", "42"] + FAST_OVERRIDES
    ) == 0
    kept = [i for i in range(n) if i not in (3, 10)]
    labels = np.loadtxt(out / "labels.csv", delimiter=",", skiprows=1, dtype=np.int64)
    assert labels[:, 0].tolist() == kept
    records = np.loadtxt(out / "records.csv", delimiter=",", skiprows=2, dtype=np.int64)
    assert records[:, 0].tolist() == kept


@pytest.fixture(scope="module")
def dropped_rows_run(tmp_path_factory):
    """Input args and the weights, records and labels `wise cluster` writes
    for a synth CSV whose data rows 3 and 10 are dropped on load."""
    tmp = tmp_path_factory.mktemp("dropped")
    csv_path, schema_path = synth_dataset(tmp)
    blank_rows(csv_path)
    io_args = ["--data", str(csv_path), "--schema", str(schema_path), "--truth-column", "label"]
    weights = tmp / "weights.csv"
    assert cli.main(["sense"] + io_args + ["--out", str(weights), "--workers", "1"]
                    + FAST_OVERRIDES) == 0
    assert cli.main(["cluster"] + io_args + ["--weights", str(weights), "--out", str(tmp / "c"),
                                             "--workers", "1"] + FAST_OVERRIDES) == 0
    return io_args, weights, tmp / "c" / "records.csv", tmp / "c" / "labels.csv"


def stage_command(run, command, out, records=None, labels=None, weights=None):
    io_args, weights_0, records_0, labels_0 = run
    labels = ["--labels", str(labels or labels_0)]
    weights = ["--weights", str(weights or weights_0)]
    files = {
        "cluster": weights,
        "explain": labels + ["--records", str(records or records_0)] + weights,
        "evaluate": labels,
    }[command]
    return cli.main([command] + io_args + files + ["--out", str(out), "--workers", "1"]
                    + FAST_OVERRIDES)


def edited(path, out, edit):
    """Copy of a CSV dump with ``edit`` applied to its list of split lines."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(rows)
    out.write_text("".join(",".join(row) + "\n" for row in rows))
    return out


def shift_ids(first):
    def edit(rows):
        for row in rows[first:]:
            row[0] = str(int(row[0]) + 1000)
    return edit


def set_cell(line, col, value):
    def edit(rows):
        rows[line][col] = value
    return edit


def drop_last_cell(line):
    def edit(rows):
        rows[line].pop()
    return edit


@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_stage_files_of_a_table_with_dropped_rows_are_accepted(dropped_rows_run, tmp_path, command):
    assert stage_command(dropped_rows_run, command, tmp_path / "out.json") == 0


BAD_LABELS = {
    "negative-cluster-id": set_cell(1, 1, "-1"),
    "non-integer-cluster-id": set_cell(1, 1, "two"),
    "short-row": drop_last_cell(1),
    "shifted-row-index": shift_ids(1),
}
BAD_RECORDS = {
    "entry-at-k0": set_cell(2, 1, "4"),   # FAST_OVERRIDES set k0=4
    "non-integer-entry": set_cell(2, 1, "1.5"),
    "short-row": drop_last_cell(2),
    "shifted-row-index": shift_ids(2),
}


BAD_WEIGHTS = {   # line 1 is the first view; cells are target, rank, tree, quality, weights
    "non-float-weight": set_cell(1, 4, "heavy"),
    "nan-weight": set_cell(1, 4, "nan"),
    "off-simplex": set_cell(1, 4, "2.0"),
    "short-row": drop_last_cell(1),
    "unknown-target": set_cell(1, 0, "no_such_column"),
    "non-integer-rank": set_cell(1, 1, "first"),
    "non-integer-tree": set_cell(1, 2, "1.5"),
}


@pytest.mark.parametrize("command", ["explain", "evaluate"])
@pytest.mark.parametrize("case", list(BAD_LABELS))
def test_bad_labels_file_exits_three(dropped_rows_run, tmp_path, capsys, command, case):
    labels = edited(dropped_rows_run[3], tmp_path / "labels.csv", BAD_LABELS[case])
    assert stage_command(dropped_rows_run, command, tmp_path / "out.json", labels=labels) == 3
    assert "data error" in capsys.readouterr().err


def test_label_at_K_is_a_data_error_for_explain_only(dropped_rows_run, tmp_path, capsys):
    labels = edited(dropped_rows_run[3], tmp_path / "labels.csv", set_cell(1, 1, "3"))  # K=3
    assert stage_command(dropped_rows_run, "explain", tmp_path / "out.json", labels=labels) == 3
    assert "final labels must lie in 0..2" in capsys.readouterr().err
    assert stage_command(dropped_rows_run, "evaluate", tmp_path / "out.json", labels=labels) == 0


@pytest.mark.parametrize("case", list(BAD_RECORDS))
def test_bad_records_file_exits_three(dropped_rows_run, tmp_path, capsys, case):
    records = edited(dropped_rows_run[2], tmp_path / "records.csv", BAD_RECORDS[case])
    assert stage_command(dropped_rows_run, "explain", tmp_path / "out.json", records=records) == 3
    assert "data error" in capsys.readouterr().err


def test_explain_with_records_and_weights_of_other_round_counts_exits_three(
        dropped_rows_run, tmp_path, capsys):
    # one view fewer than the records' rounds
    weights = edited(dropped_rows_run[1], tmp_path / "weights.csv", lambda rows: rows.pop())
    out = tmp_path / "out.json"
    assert stage_command(dropped_rows_run, "explain", out, weights=weights) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "16 rounds" in err and "15 view vectors" in err
    assert str(dropped_rows_run[2]) in err and str(weights) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "cluster"])
@pytest.mark.parametrize("case", list(BAD_WEIGHTS))
def test_bad_weights_file_exits_three(dropped_rows_run, tmp_path, capsys, command, case):
    weights = edited(dropped_rows_run[1], tmp_path / "weights.csv", BAD_WEIGHTS[case])
    assert stage_command(dropped_rows_run, command, tmp_path / "out", weights=weights) == 3
    assert "data error" in capsys.readouterr().err


def test_exit_code_two_for_config_errors(tmp_path, capsys):
    csv_path, schema_path = synth_dataset(tmp_path)
    rc = cli.main(
        ["run", "--data", str(csv_path), "--schema", str(schema_path),
         "--out", str(tmp_path / "x"), "--set", "blocksize=4"]
    )
    assert rc == 2
    assert "config error" in capsys.readouterr().err


BAD_RUN_FLAGS = {
    "features_per_split=2": ["--set", "features_per_split=2"],
    "features_per_split=-1": ["--set", "features_per_split=-1"],
    "max_depth=-1": ["--set", "max_depth=-1"],
    "explain_cap=0": ["--set", "explain_cap=0"],
    "background=0": ["--set", "background=0"],
    "max_iter=0": ["--set", "max_iter=0"],
    "eps=NaN": ["--set", "eps=NaN"],
    "eps=Infinity": ["--set", "eps=Infinity"],
    "k0=2.5": ["--set", "k0=2.5"],
    "T=true": ["--set", "T=true"],
    "top-q=0": ["--faithfulness", "--top-q", "0"],
    "trials=0": ["--faithfulness", "--trials", "0"],
    "top-q=-1": ["--top-q", "-1"],
    "top-q-above-d": ["--faithfulness", "--top-q", "9"],   # the table has 8 columns
}


@pytest.mark.parametrize("flags", list(BAD_RUN_FLAGS.values()), ids=list(BAD_RUN_FLAGS))
def test_run_rejects_out_of_range_values_before_training(tmp_path, capsys, monkeypatch, flags):
    csv_path, schema_path = synth_dataset(tmp_path, n=60)

    def never(*args, **kwargs):
        raise AssertionError("run_wise called despite a bad value")

    monkeypatch.setattr(cli, "run_wise", never)
    rc = cli.main(
        ["run", "--data", str(csv_path), "--schema", str(schema_path), "--truth-column",
         "label", "--out", str(tmp_path / "x"), "--workers", "1"] + flags
    )
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_run_rejects_m_above_T_before_any_forest_is_trained(tmp_path, capsys, monkeypatch):
    csv_path, schema_path = synth_dataset(tmp_path, n=60)

    def never(*args, **kwargs):
        raise AssertionError("a forest was trained despite m > T")

    monkeypatch.setattr(lofo, "train_forest", never)
    rc = cli.main(["run", "--data", str(csv_path), "--schema", str(schema_path), "--truth-column",
                   "label", "--out", str(tmp_path / "x"), "--workers", "1", "--set", "m=5",
                   "--set", "T=3"])
    assert rc == 2
    assert "m=5 trees from forests of T=3" in capsys.readouterr().err


def test_run_rejects_full_sample_sensing_before_any_forest_is_trained(tmp_path, capsys, monkeypatch):
    csv_path, schema_path = synth_dataset(tmp_path, n=60)

    def never(*args, **kwargs):
        raise AssertionError("a forest was trained without held-out rows")

    monkeypatch.setattr(lofo, "train_forest", never)
    rc = cli.main(["run", "--data", str(csv_path), "--schema", str(schema_path), "--truth-column",
                   "label", "--out", str(tmp_path / "x"), "--workers", "1",
                   "--set", "train_sample_frac=1.0"])
    assert rc == 2
    assert "train_sample_frac=1.0 leaves no held-out rows for n=60" in capsys.readouterr().err


ORD = ColumnSchema("grade", "ordinal", ordered_levels=["lo", "mid", "hi"])
DEGENERATE_TABLES = {   # schema, rows, labels
    "all-nominal": ([ColumnSchema("a", "nominal"), ColumnSchema("b", "nominal")],
                    [("x", "p"), ("x", "q"), ("y", "p"), ("y", "q"), ("x", "p")], [0, 0, 1, 1, 0]),
    "one-numeric": ([ColumnSchema("x", "numeric")],
                    [(0.5,), (0.5,), (2.0,), (-1.0,)], [0, 1, 1, 0]),
    "all-constant": ([ColumnSchema("x", "numeric"), ColumnSchema("c", "nominal"), ORD],
                     [(3.0, "k", "mid")] * 4, [0, 0, 1, 1]),
    "two-rows": ([ColumnSchema("x", "numeric"), ColumnSchema("c", "nominal")],
                 [(0.0, "a"), (1.0, "b")], [0, 1]),
}


@pytest.mark.parametrize("case", list(DEGENERATE_TABLES))
def test_evaluate_scores_degenerate_tables(tmp_path, case):
    schema, rows, labels = DEGENERATE_TABLES[case]
    table = table_from_raw(schema, rows)
    swc = evaluate(table, labels, labels)["swc"]
    assert swc is None or (math.isfinite(swc) and -1.0 <= swc <= 1.0)

    csv_path, schema_path, labels_path = (tmp_path / name for name in
                                          ("data.csv", "schema.json", "labels.csv"))
    write_table(table, csv_path, truth=labels)
    schema_path.write_text(json.dumps([
        {"name": c.name, "kind": c.kind} | ({"ordered_levels": c.ordered_levels} if c.ordered_levels else {})
        for c in schema]))
    cli.write_labels(labels_path, labels)
    out = tmp_path / "metrics.json"
    rc = cli.main(["evaluate", "--data", str(csv_path), "--schema", str(schema_path),
                   "--truth-column", "label", "--labels", str(labels_path), "--out", str(out)])
    assert rc == 0   # each of these tables has a valid result, so no exit 2 or 3 either
    assert json.loads(out.read_text())["swc"] == swc


def test_write_json_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "out.json"
    cli._write_json(path, {"name": "é", "values": [1.5, 2]})
    assert path.read_text(encoding="utf-8") == '{\n  "name": "é",\n  "values": [\n    1.5,\n    2\n  ]\n}\n'
    with pytest.raises(ValueError):
        cli._write_json(path, {"random_accuracy": float("nan")})
    assert path.read_text(encoding="utf-8").startswith('{\n  "name"')


def test_exit_code_three_for_missing_data(tmp_path, capsys):
    rc = cli.main(
        ["run", "--data", str(tmp_path / "absent.csv"),
         "--schema", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]
    )
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_exit_code_three_names_a_column_whose_range_overflows(tmp_path, capsys):
    csv_path, schema_path = synth_dataset(tmp_path, n=60)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("num_noise_0")
    rows[1][col], rows[2][col] = "-1e308", "1e308"
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["run", "--data", str(csv_path), "--schema", str(schema_path),
                       "--truth-column", "label", "--out", str(tmp_path / "x"),
                       "--workers", "1"] + FAST_OVERRIDES)
    assert rc == 3
    assert "data error: column 'num_noise_0'" in capsys.readouterr().err
    assert not caught
