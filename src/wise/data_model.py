"""Mixed-type tabular data with an explicit per-column schema.

Columns are numeric, ordinal, or nominal.  Cells are stored in a
type-resolved form: numeric as floats, ordinal as indices into the
schema's ordered level list, nominal as indices into the levels observed
at load time (first-occurrence order, which keeps downstream encodings
deterministic).  Rows with missing cells are dropped at load and the
count is logged; there is no imputation.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

KINDS = ("numeric", "ordinal", "nominal")

MISSING_TOKENS = frozenset({"", "?", "NA", "N/A", "nan", "NaN"})


@dataclass
class ColumnSchema:
    """Declared type of one column."""

    name: str
    kind: str
    ordered_levels: list[str] | None = None
    observed_levels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "ordinal":
            if not self.ordered_levels:
                raise DataError(f"ordinal column {self.name!r} needs ordered_levels")
            if len(set(self.ordered_levels)) != len(self.ordered_levels):
                raise DataError(f"ordinal column {self.name!r}: duplicate levels")

    @property
    def levels(self) -> list[str]:
        """Category labels for this column (ordinal uses the declared order)."""
        if self.kind == "ordinal":
            return list(self.ordered_levels)
        return list(self.observed_levels)

    def n_levels(self) -> int:
        return len(self.levels)


@dataclass
class MixedTable:
    """A validated table: schema plus type-resolved cells.

    ``row_ids`` holds each kept row's 0-based data-row index in its source
    (the loader drops rows with missing cells); by default 0..n-1.
    """

    schema: list[ColumnSchema]
    rows: list[list]
    row_ids: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.row_ids is None:
            self.row_ids = np.arange(len(self.rows), dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.schema)

    def column(self, j: int) -> np.ndarray:
        """Column j as a float array (numeric) or int codes (ordinal/nominal)."""
        col = self.schema[j]
        cells = [row[j] for row in self.rows]
        if col.kind == "numeric":
            return np.asarray(cells, dtype=np.float64)
        return np.asarray(cells, dtype=np.int64)

    def column_index(self, name: str) -> int:
        for j, col in enumerate(self.schema):
            if col.name == name:
                return j
        raise DataError(f"no column named {name!r}")


def load_schema(schema_path) -> list[ColumnSchema]:
    """Parse a JSON schema file: a list of {name, kind, ordered_levels?}."""
    with open(schema_path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"schema {schema_path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, list) or not raw:
        raise DataError(f"schema {schema_path}: expected a non-empty JSON list")
    schema = []
    for entry in raw:
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise DataError(f"schema {schema_path}: entries need 'name' and 'kind'")
        schema.append(
            ColumnSchema(
                name=entry["name"],
                kind=entry["kind"],
                ordered_levels=entry.get("ordered_levels"),
            )
        )
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise DataError(f"schema {schema_path}: duplicate column names")
    return schema


def _parse_cell(raw: str, col: ColumnSchema, level_index: dict) -> object:
    if col.kind == "numeric":
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"column {col.name!r}: unparseable numeric {raw!r}") from None
        if not np.isfinite(value):
            raise DataError(f"column {col.name!r}: non-finite numeric {raw!r}")
        return value
    if col.kind == "ordinal":
        try:
            return col.ordered_levels.index(raw)
        except ValueError:
            raise DataError(
                f"column {col.name!r}: level {raw!r} not in ordered_levels"
            ) from None
    # nominal: register levels in first-occurrence order
    if raw not in level_index:
        level_index[raw] = len(col.observed_levels)
        col.observed_levels.append(raw)
    return level_index[raw]


def load_table(csv_path, schema_path, truth_column: str | None = None):
    """Load and validate a CSV against its schema.

    Returns ``(table, truth)`` where ``truth`` is the raw label column
    (aligned with the kept rows) when ``truth_column`` is given, else
    None.  CSV columns must match the schema exactly, apart from the
    optional truth column.
    """
    schema = load_schema(schema_path)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path}: empty file") from None
        expected = {c.name for c in schema}
        extra = [h for h in header if h not in expected and h != truth_column]
        missing = [c.name for c in schema if c.name not in header]
        if extra or missing:
            raise DataError(
                f"{csv_path}: header mismatch (missing {missing}, unexpected {extra})"
            )
        positions = [header.index(c.name) for c in schema]
        truth_pos = header.index(truth_column) if truth_column in header else None
        if truth_column is not None and truth_pos is None:
            raise DataError(f"{csv_path}: truth column {truth_column!r} not found")

        level_maps = [{} for _ in schema]
        rows, row_ids, truth, dropped = [], [], [], 0
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise DataError(f"{csv_path}:{lineno}: expected {len(header)} cells")
            raw_cells = [record[pos] for pos in positions]
            if any(cell.strip() in MISSING_TOKENS for cell in raw_cells):
                dropped += 1
                continue
            rows.append(
                [
                    _parse_cell(raw.strip(), col, level_maps[j])
                    for j, (raw, col) in enumerate(zip(raw_cells, schema))
                ]
            )
            row_ids.append(lineno - 2)
            if truth_pos is not None:
                truth.append(record[truth_pos].strip())
    if dropped:
        log.info("%s: dropped %d rows with missing cells", csv_path, dropped)
    if not rows:
        raise DataError(f"{csv_path}: no complete rows")
    table = MixedTable(schema=schema, rows=rows, row_ids=np.asarray(row_ids, dtype=np.int64))
    return table, (truth if truth_pos is not None else None)


def table_from_raw(schema: list[ColumnSchema], raw_rows) -> MixedTable:
    """Build a table from in-memory values without a CSV round trip.

    Numeric cells are numbers, ordinal and nominal cells are label
    strings; nominal levels register in first-occurrence order exactly
    like the CSV loader.
    """
    level_maps = [{} for _ in schema]
    rows = []
    for raw in raw_rows:
        if len(raw) != len(schema):
            raise DataError(f"row has {len(raw)} cells, schema has {len(schema)}")
        row = []
        for j, (cell, col) in enumerate(zip(raw, schema)):
            if col.kind == "numeric":
                value = float(cell)
                if not np.isfinite(value):
                    raise DataError(f"column {col.name!r}: non-finite numeric {cell!r}")
                row.append(value)
            else:
                row.append(_parse_cell(str(cell), col, level_maps[j]))
        rows.append(row)
    if not rows:
        raise DataError("no rows")
    return MixedTable(schema=schema, rows=rows)


def write_table(table: MixedTable, csv_path, truth=None, truth_name: str = "label"):
    """Write a table back to CSV; inverse of load_table for kept rows."""
    header = [c.name for c in table.schema]
    if truth is not None:
        header.append(truth_name)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(table.rows):
            out = []
            for cell, col in zip(row, table.schema):
                if col.kind == "numeric":
                    out.append(repr(cell))
                else:
                    out.append(col.levels[cell])
            if truth is not None:
                out.append(truth[i])
            writer.writerow(out)


def normalize_numeric(values) -> np.ndarray:
    """Min-max scale to [0,1]; a constant column becomes all zeros."""
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def ordinal_to_scalar(codes, col: ColumnSchema) -> np.ndarray:
    """Map ordinal level indices onto [0,1] preserving order."""
    if col.kind != "ordinal":
        raise DataError(f"column {col.name!r} is not ordinal")
    codes = np.asarray(codes, dtype=np.int64)
    c = col.n_levels()
    if codes.size and (codes.min() < 0 or codes.max() >= c):
        raise DataError(f"column {col.name!r}: level index out of range")
    if c == 1:
        return np.zeros(len(codes))
    return codes.astype(np.float64) / (c - 1)


def design_matrix(table: MixedTable):
    """Dense feature matrix for the dependency models.

    Numeric columns are min-max normalized, ordinal columns keep their
    integer level codes (ordered, so threshold splits apply), nominal
    columns keep integer codes and are marked for category-membership
    splits.  Returns ``(X, is_nominal)``.
    """
    n, d = table.n, table.d
    X = np.empty((n, d), dtype=np.float64)
    is_nominal = np.zeros(d, dtype=bool)
    for j, col in enumerate(table.schema):
        raw = table.column(j)
        if col.kind == "numeric":
            X[:, j] = normalize_numeric(raw)
        else:
            X[:, j] = raw.astype(np.float64)
            is_nominal[j] = col.kind == "nominal"
    return X, is_nominal
