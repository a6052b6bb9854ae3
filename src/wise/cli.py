"""Command-line front end.

Subcommands mirror the module boundaries so every stage can be run and
inspected in isolation: encode (bits), sense (weight views), cluster
(both stages), explain (label frequencies to weights), evaluate
(metrics), synth (planted data), and run (everything).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
invariant violation or unexpected failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .bep import dump_bep, encode_table
from .data_model import load_table
from .dfi import compute_explanations, faithfulness_eval, global_ranking
from .errors import ConfigError, DataError, InvariantError
from .lofo import FeatureWeightVector, check_simplex, views_matrix
from .metrics import evaluate
from .pipeline import ABLATIONS, DEFAULT_SEED, PipelineConfig, cluster_table, make_views, run_wise
from .synth import SynthParams, write_synth

log = logging.getLogger(__name__)

WORKERS_ENV = "WISE_WORKERS"
TOP_Q = 3  # features listed per cluster in explanations.json, unless `run --top-q` says otherwise

# Config file keys.  The Greek names are the canonical spellings; the
# ASCII forms are accepted as aliases and normalized on load.
ALIASES = {"lambda_QD": "λ_QD", "alpha0": "α0", "beta0": "β0", "alpha": "α"}
# key -> (PipelineConfig sub-config or None for a top-level field, field name),
# in the order result.json lists them
CONFIG_FIELDS = {
    "B": ("bep", "B"),
    "T": ("forest", "T"),
    "m": ("qd", "m"),
    "λ_QD": ("qd", "lam"),
    "k0": (None, "k0"),
    "α0": (None, "alpha0"),
    "β0": (None, "beta0"),
    "K": (None, "K"),
    "α": (None, "alpha"),
    "seed": (None, "seed"),
    "eps": (None, "eps"),
    "max_iter": (None, "max_iter"),
    "explain_cap": (None, "explain_cap"),
    "background": (None, "background"),
    "nominal_mode": ("bep", "nominal_mode"),
    "hash_seed": ("bep", "hash_seed"),
    "max_depth": ("forest", "max_depth"),
    "min_samples_leaf": ("forest", "min_samples_leaf"),
    "train_sample_frac": ("forest", "train_sample_frac"),
    "features_per_split": ("forest", "features_per_split"),
}
CANONICAL_KEYS = tuple(CONFIG_FIELDS)


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        key: getattr(cfg if sub is None else getattr(cfg, sub), name)
        for key, (sub, name) in CONFIG_FIELDS.items()
    }


def build_config(entries: dict) -> PipelineConfig:
    """PipelineConfig from a flat key->value mapping; unknown keys fail."""
    normalized = {}
    for key, value in entries.items():
        key = ALIASES.get(key, key)
        if key not in CANONICAL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in normalized:
            raise ConfigError(f"config key {key!r} given twice")
        normalized[key] = value

    # each value takes the type of its default; features_per_split is None or a float.
    # Numbers are not booleans, and integers take integral values only.
    base = PipelineConfig()
    changes: dict = {None: {}, "bep": {}, "forest": {}, "qd": {}}
    try:
        for key, value in normalized.items():
            sub, name = CONFIG_FIELDS[key]
            default = getattr(base if sub is None else getattr(base, sub), name)
            cast = float if default is None else type(default)
            if (cast is not str and isinstance(value, bool)) or \
                    (cast is int and isinstance(value, float) and not value.is_integer()):
                raise ValueError(f"{key!r} takes {cast.__name__} values, got {value!r}")
            changes[sub][name] = None if value is None and default is None else cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    top = changes.pop(None)
    parts = {sub: replace(getattr(base, sub), **fields) for sub, fields in changes.items()}
    return replace(base, **parts, **top)


def load_config(path, overrides, seed_flag) -> PipelineConfig:
    entries = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file {path} not found") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        entries.update(raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            entries[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            entries[key.strip()] = value
    if seed_flag is not None:
        entries["seed"] = seed_flag
    return build_config(entries)


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV}={env!r} is not an integer") from None
    return max(1, os.cpu_count() or 1)


def _write_json(path, obj) -> None:
    """Indented UTF-8 JSON plus a newline.  A NaN or infinity raises before
    the file is opened, so no file that is not JSON gets written."""
    text = json.dumps(obj, ensure_ascii=False, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_stage_file(path, head: list[list], rows) -> None:
    """A stage file: the ``head`` lines, then ``rows`` (an iterable of cell
    lists), written as they come."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerows(head)
        writer.writerows(rows)


@contextlib.contextmanager
def _read_stage_file(path, head: int):
    """A stage file opened for reading: its first ``head`` lines (a missing
    one is empty) and an iterator over its remaining lines, each with its
    line number, read as the iterator goes.  A leading byte-order mark is
    skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        lines = [next(reader, None) or [] for _ in range(head)]
        yield lines, ((reader.line_num, row) for row in reader)


# body lines typed per block by _int_rows
_TYPE_BLOCK_LINES = 1 << 12


def _int_rows(path, body, width: int, row_ids) -> np.ndarray:
    """Body lines as an int64 array of ``width`` columns; given ``row_ids``,
    the first column (row_index) must equal them.

    The lines are typed in blocks of ``_TYPE_BLOCK_LINES`` straight into
    one array, preallocated for the file's line count, so no more than a
    block of lines is held as strings.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        capacity = sum(1 for _ in fh)   # lines end as the reader's do, at \n, \r or \r\n
    data = np.empty((capacity, width), dtype=np.int64)
    count = 0
    while block := list(itertools.islice(body, _TYPE_BLOCK_LINES)):
        for line, row in block:
            if len(row) != width:
                raise DataError(f"{path} line {line}: expected {width} cells, got {len(row)}")
        try:
            data[count:count + len(block)] = np.fromiter(
                map(int, itertools.chain.from_iterable(row for _, row in block)),
                dtype=np.int64, count=len(block) * width).reshape(len(block), width)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}: expected integer cells ({exc})") from None
        count += len(block)
    if not count:
        raise DataError(f"{path}: no rows")
    data = data[:count]
    if row_ids is not None and not np.array_equal(data[:, 0], row_ids):
        raise DataError(f"{path}: row_index does not name the {len(row_ids)} rows of the table")
    return data


def write_labels(path, labels, row_ids=None) -> None:
    """One line per row: its source data-row index (default 0..n-1) and label."""
    if row_ids is None:
        row_ids = range(len(labels))
    _write_stage_file(path, [["row_index", "cluster_id"]],
                      ([int(i), int(c)] for i, c in zip(row_ids, labels)))


def read_labels(path, row_ids=None) -> np.ndarray:
    """Cluster ids in file order; given ``row_ids``, the row_index column must equal them."""
    with _read_stage_file(path, 1) as ((header,), body):
        if header != ["row_index", "cluster_id"]:
            raise DataError(f"{path}: expected header row_index,cluster_id")
        labels = _int_rows(path, body, 2, row_ids)[:, 1]
    if labels.min() < 0 or labels.max() >= labels.size:
        raise DataError(f"{path}: cluster_id must lie in 0..{labels.size - 1}")
    return labels


def write_views(path, views: list[FeatureWeightVector], names: list[str]) -> None:
    _write_stage_file(path, [["target", "rank", "tree", "quality"] + names],
                      ([names[v.target], v.rank, v.tree, repr(float(v.quality))]
                       + [repr(float(x)) for x in v.w] for v in views))


def read_views(path, names: list[str]) -> list[FeatureWeightVector]:
    index = {name: j for j, name in enumerate(names)}
    views = []
    with _read_stage_file(path, 1) as ((header,), body):
        if header[:4] != ["target", "rank", "tree", "quality"]:
            raise DataError(f"{path}: expected a weights dump header")
        if header[4:] != names:
            raise DataError(f"{path}: weight columns do not match the schema")
        for line, row in body:
            where = f"{path} line {line}"
            if len(row) != len(header) or row[0] not in index:
                raise DataError(f"{where}: expected {len(header)} cells led by a column name")
            try:
                views.append(
                    FeatureWeightVector(
                        w=np.array([float(x) for x in row[4:]]),
                        target=index[row[0]],
                        tree=int(row[2]),
                        quality=float(row[3]),
                        rank=int(row[1]),
                    )
                )
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
    if not views:
        raise DataError(f"{path}: no weight vectors")
    check_simplex(views)
    return views


def write_records(path, L: np.ndarray, k0: int, row_ids=None) -> None:
    """The record matrix, one line per row led by its source data-row index."""
    if row_ids is None:
        row_ids = range(L.shape[0])
    _write_stage_file(path, [["k0", k0], ["row_index"] + [f"round_{r}" for r in range(L.shape[1])]],
                      ([int(i)] + [int(x) for x in row] for i, row in zip(row_ids, L)))


def read_records(path, row_ids=None) -> tuple[np.ndarray, int]:
    """Record matrix and k0; given ``row_ids``, the row_index column must equal them."""
    with _read_stage_file(path, 2) as ((first, header), body):
        if len(first) != 2 or first[0] != "k0" or len(header) < 2 or header[0] != "row_index":
            raise DataError(f"{path}: expected a record-matrix dump")
        try:
            k0 = int(first[1])
        except ValueError:
            raise DataError(f"{path}: k0 must be an integer, got {first[1]!r}") from None
        L = _int_rows(path, body, len(header), row_ids)[:, 1:]
    if L.min() < 0 or L.max() >= k0:
        raise DataError(f"{path}: records must lie in 0..k0-1 (k0={k0})")
    return L, k0


def explanation_report(names, sizes, ex, top_q: int, faithfulness=None, with_instances=False) -> dict:
    """The explanations.json report of K clusters with the given sizes."""
    ranking, weights = global_ranking(ex.W_cluster, sizes)
    clusters = []
    for j, size in enumerate(sizes.tolist()):
        order = np.argsort(-ex.W_cluster[j], kind="stable")[:top_q]
        clusters.append(
            {
                "id": j,
                "size": size,
                "top_features": [
                    {"feature": names[t], "weight": float(ex.W_cluster[j, t])}
                    for t in order
                ],
                "undiscriminated": j in ex.undiscriminated,
            }
        )
    report = {
        "consistency_deviation": ex.consistency_deviation,
        "global_ranking": [names[j] for j in ranking],
        "global_weights": [float(w) for w in weights],
        "clusters": clusters,
        "cluster_weights": ex.W_cluster.tolist(),
    }
    if faithfulness is not None:
        faithfulness = dict(faithfulness)
        faithfulness["ranking"] = [names[j] for j in faithfulness["ranking"]]
        report["faithfulness"] = faithfulness
    if with_instances:
        report["instance_weights"] = ex.W_instance.tolist()
    return report


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    for flag, value in (("--top-q", args.top_q), ("--trials", args.trials)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    workers = _workers(args)
    print(f"seed {cfg.seed}, {workers} workers, ablation {args.ablation}")
    table, truth = load_table(args.data, args.schema, truth_column=args.truth_column)
    if args.faithfulness and args.top_q > table.d:
        raise ConfigError(f"--top-q {args.top_q} exceeds the table's {table.d} features")
    result = run_wise(table, cfg, ablation=args.ablation, workers=workers)
    os.makedirs(args.out, exist_ok=True)
    names = [c.name for c in table.schema]

    write_labels(os.path.join(args.out, "labels.csv"), result.labels, table.row_ids)
    write_views(os.path.join(args.out, "weights.csv"), result.views, names)

    payload = {
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "ablation": args.ablation,
        "n": table.n,
        "d": table.d,
        "R": len(result.views),
        "final_labels": [int(x) for x in result.labels],
    }
    if args.dump_records:
        payload["record_matrix"] = result.L.tolist()
    _write_json(os.path.join(args.out, "result.json"), payload)

    sizes = np.bincount(result.labels, minlength=cfg.K)
    faith = None
    if args.faithfulness:
        faith = faithfulness_eval(
            table, result.labels, result.explanations.W_cluster, sizes,
            top_k=[args.top_q], trials=args.trials, seed=cfg.seed,
        )
    report = explanation_report(names, sizes, result.explanations, args.top_q, faith,
                                args.instances)
    _write_json(os.path.join(args.out, "explanations.json"), report)

    if truth is not None:
        metrics = evaluate(table, result.labels, truth, seed=cfg.seed)
        _write_json(os.path.join(args.out, "metrics.json"), metrics)

    print(f"K={cfg.K} sizes={sizes.tolist()} deviation={result.explanations.consistency_deviation:.2e}")
    for entry in report["clusters"]:
        tops = ", ".join(f"{t['feature']}={t['weight']:.3f}" for t in entry["top_features"])
        print(f"  cluster {entry['id']} (n={entry['size']}): {tops}")
    if truth is not None:
        print(f"ARI={metrics['ari']:.4f} NMI={metrics['nmi']:.4f} ACC={metrics['acc']:.4f}")
    return 0


def cmd_encode(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    table, _ = load_table(args.data, args.schema, truth_column=args.truth_column)
    bepm = encode_table(table, cfg.bep)
    dump_bep(bepm, args.out)
    print(f"{bepm.n} rows x {bepm.p} bits -> {args.out}")
    return 0


def cmd_sense(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    table, _ = load_table(args.data, args.schema, truth_column=args.truth_column)
    views = make_views(table, cfg, ablation=args.ablation, workers=_workers(args))
    write_views(args.out, views, [c.name for c in table.schema])
    print(f"{len(views)} weight vectors -> {args.out}")
    return 0


def cmd_cluster(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    table, _ = load_table(args.data, args.schema, truth_column=args.truth_column)
    views = None
    if args.weights is not None:
        views = read_views(args.weights, [c.name for c in table.schema])
    _, L, y = cluster_table(table, cfg, views, args.ablation or "uniform", _workers(args))
    os.makedirs(args.out, exist_ok=True)
    write_records(os.path.join(args.out, "records.csv"), L, cfg.k0, table.row_ids)
    write_labels(os.path.join(args.out, "labels.csv"), y, table.row_ids)
    print(f"stage I: {L.shape[1]} rounds; stage II: K={cfg.K} sizes={np.bincount(y).tolist()}")
    return 0


def cmd_explain(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    table, _ = load_table(args.data, args.schema, truth_column=args.truth_column)
    names = [c.name for c in table.schema]
    L, k0 = read_records(args.records, table.row_ids)
    y = read_labels(args.labels, table.row_ids)
    views = read_views(args.weights, names)
    if L.shape[1] != len(views):
        raise DataError(f"{args.records} has {L.shape[1]} rounds but {args.weights} "
                        f"has {len(views)} view vectors")
    ex = compute_explanations(L, y, views_matrix(views), cfg.K, k0, cfg.eps)
    sizes = np.bincount(y, minlength=cfg.K)
    report = explanation_report(names, sizes, ex, TOP_Q, with_instances=args.instances)
    _write_json(args.out, report)
    print(f"consistency deviation {ex.consistency_deviation:.2e} -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.set, args.seed)
    table, truth = load_table(args.data, args.schema, truth_column=args.truth_column)
    y = read_labels(args.labels, table.row_ids)
    metrics = evaluate(table, y, truth, seed=cfg.seed)
    _write_json(args.out, metrics)
    print(json.dumps(metrics, ensure_ascii=False))
    return 0


def cmd_synth(args) -> int:
    params = SynthParams(**{f.name: getattr(args, f.name) for f in fields(SynthParams)})
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "data.csv")
    schema_path = os.path.join(args.out, "schema.json")
    write_synth(params, csv_path, schema_path)
    print(f"{params.n} rows, {params.clusters} planted clusters -> {csv_path}")
    return 0


def _add_io(sub, data=True, config=True):
    if data:
        sub.add_argument("--data", required=True, help="input CSV")
        sub.add_argument("--schema", required=True, help="schema JSON")
        sub.add_argument("--truth-column", default=None,
                         help="name of a ground-truth column to set aside")
    if config:
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one config key (repeatable)")
        sub.add_argument("--seed", type=int, default=None,
                         help=f"master seed (default {DEFAULT_SEED})")
        sub.add_argument("--workers", type=int, default=None,
                         help=f"workers, counting this process, so 2 forks one process "
                              f"(default ${WORKERS_ENV} or all cores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wise", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline: labels, weights, explanations, metrics")
    _add_io(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ablation", choices=ABLATIONS, default="none")
    p.add_argument("--top-q", type=int, default=TOP_Q, help="features listed per cluster")
    p.add_argument("--instances", action="store_true", help="include per-instance weights")
    p.add_argument("--dump-records", action="store_true", help="include the record matrix")
    p.add_argument("--faithfulness", action="store_true", help="run the probe-tree harness")
    p.add_argument("--trials", type=int, default=10, help="random subsets in the probe harness")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("encode", help="dump the sparse binary encoding")
    _add_io(p)
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("sense", help="dump the feature-weight views")
    _add_io(p)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--ablation", choices=ABLATIONS, default="none")
    p.set_defaults(func=cmd_sense)

    p = sub.add_parser("cluster", help="run both clustering stages from saved or ablation weights")
    _add_io(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--weights", default=None, help="weights CSV from sense (default: uniform)")
    source.add_argument("--ablation", choices=ABLATIONS, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("explain", help="explanations from saved records, labels, and weights")
    _add_io(p)
    p.add_argument("--records", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--instances", action="store_true")
    p.add_argument("--out", required=True, help="output JSON")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="metrics for saved labels")
    _add_io(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True, help="output JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a planted mixed-type dataset")
    p.add_argument("--out", required=True, help="output directory")
    defaults = SynthParams()
    for f in fields(SynthParams):
        default = getattr(defaults, f.name)
        p.add_argument("--" + f.name.replace("_", "-"), type=type(default), default=default)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - boundary: map anything else to 4
        log.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
