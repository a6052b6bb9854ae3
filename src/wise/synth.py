"""Planted mixed-type clusters for the recovery harness.

Each planted cluster owns a numeric range on every informative numeric
column and a pair of dominant levels on every informative nominal
column; noise columns are uniform everywhere.  With noise 0 the clusters
are separable on the informative columns alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import ColumnSchema, MixedTable, table_from_columns, write_table
from .errors import ConfigError


@dataclass(frozen=True)
class SynthParams:
    n: int = 3000
    clusters: int = 3
    informative_numeric: int = 2
    informative_nominal: int = 2
    noise_numeric: int = 3
    noise_nominal: int = 1
    noise: float = 0.1      # chance a cell ignores its cluster signature
    seed: int = 7

    def __post_init__(self):
        if self.n < self.clusters or self.clusters < 1:
            raise ConfigError("need n >= clusters >= 1")
        if not (0.0 <= self.noise <= 1.0):
            raise ConfigError("noise must lie in [0,1]")
        if min(self.informative_numeric, self.informative_nominal,
               self.noise_numeric, self.noise_nominal) < 0:
            raise ConfigError("feature counts must be non-negative")
        if self.informative_numeric + self.informative_nominal == 0:
            raise ConfigError("need at least one informative feature")


def _numeric_centers(clusters: int) -> np.ndarray:
    # evenly spaced in (0,1), e.g. 3 clusters -> 0.167, 0.5, 0.833
    return (np.arange(clusters) + 0.5) / clusters


def synth_table(params: SynthParams) -> tuple[MixedTable, list[str]]:
    """Generate the planted table plus its truth labels ("c0", "c1", ...)."""
    rng = np.random.default_rng(params.seed)
    n, C = params.n, params.clusters
    y = np.sort(rng.integers(0, C, n))
    y[: C] = np.arange(C)  # every cluster non-empty
    y = rng.permutation(y)

    centers = _numeric_centers(C)
    half_width = min(0.08, 0.4 / C)  # ranges stay disjoint for any C
    columns = []
    schema = []

    for a in range(params.informative_numeric):
        base = centers[y] + rng.uniform(-half_width, half_width, n)
        noise_mask = rng.random(n) < params.noise
        base[noise_mask] = rng.uniform(0, 1, noise_mask.sum())
        columns.append(np.clip(base, 0.0, 1.0))
        schema.append(ColumnSchema(f"num_{a}", "numeric"))

    n_levels = 2 * C  # two dominant levels per cluster, disjoint across clusters
    level_names = [f"L{t}" for t in range(n_levels)]
    for a in range(params.informative_nominal):
        dominant = 2 * y + rng.integers(0, 2, n)
        noise_mask = rng.random(n) < params.noise
        dominant[noise_mask] = rng.integers(0, n_levels, noise_mask.sum())
        columns.append([level_names[t] for t in dominant])
        schema.append(ColumnSchema(f"cat_{a}", "nominal"))

    for a in range(params.noise_numeric):
        columns.append(rng.uniform(0, 1, n))
        schema.append(ColumnSchema(f"num_noise_{a}", "numeric"))

    noise_levels = [f"N{t}" for t in range(4)]
    for a in range(params.noise_nominal):
        draws = rng.integers(0, len(noise_levels), n)
        columns.append([noise_levels[t] for t in draws])
        schema.append(ColumnSchema(f"cat_noise_{a}", "nominal"))

    return table_from_columns(schema, columns), [f"c{c}" for c in y]


def write_synth(params: SynthParams, csv_path, schema_path) -> None:
    """Emit the CSV (with a trailing 'label' truth column) and its schema."""
    import json

    table, truth = synth_table(params)
    write_table(table, csv_path, truth=truth, truth_name="label")
    entries = []
    for col in table.schema:
        entry = {"name": col.name, "kind": col.kind}
        if col.kind == "ordinal":
            entry["ordered_levels"] = col.ordered_levels
        entries.append(entry)
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")
