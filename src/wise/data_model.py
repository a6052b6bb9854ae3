"""Mixed-type tabular data with an explicit per-column schema.

A table is columnar: one read-only array per column.  Numeric columns
hold float64 values, ordinal columns int64 indices into the schema's
ordered level list, nominal columns int64 indices into the levels
observed at load time (first-occurrence order, which keeps downstream
encodings deterministic).  Every source (the CSV loader, in-memory
rows, generated columns) hands its raw cells to one column parser.
Rows with missing cells are dropped at load and the count is logged;
there is no imputation.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field, replace

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


@dataclass(eq=False)
class MixedTable:
    """A validated table: schema plus one typed, read-only array per column.

    ``row_ids`` holds each kept row's 0-based data-row index in its source
    (the loader drops rows with missing cells); by default 0..n-1.
    """

    schema: list[ColumnSchema]
    columns: list[np.ndarray]
    row_ids: np.ndarray | None = None

    def __post_init__(self):
        if len(self.columns) != len(self.schema):
            raise DataError(f"{len(self.columns)} columns for {len(self.schema)} schema entries")
        self.columns = [np.array(values, dtype=np.float64 if col.kind == "numeric" else np.int64)
                        for values, col in zip(self.columns, self.schema)]
        n = self.columns[0].size if self.columns else 0
        if any(arr.shape != (n,) for arr in self.columns):
            raise DataError("columns must be 1-D and of equal length")
        if n == 0:
            raise DataError("table has no rows")
        for arr in self.columns:
            arr.flags.writeable = False
        self.row_ids = np.asarray(np.arange(n) if self.row_ids is None else self.row_ids,
                                  dtype=np.int64)
        if self.row_ids.shape != (n,):
            raise DataError(f"{self.row_ids.size} row ids for {n} rows")

    def __reduce__(self):
        # rebuild through the constructor, so unpickled columns are read-only too
        return MixedTable, (self.schema, self.columns, self.row_ids)

    @property
    def n(self) -> int:
        return self.columns[0].size

    @property
    def d(self) -> int:
        return len(self.schema)

    def column(self, j: int) -> np.ndarray:
        """Column j: float64 values (numeric) or int64 level codes (ordinal/nominal)."""
        return self.columns[j]


def load_schema(schema_path) -> list[ColumnSchema]:
    """Parse a JSON schema file: a list of {name, kind, ordered_levels?}."""
    with open(schema_path, encoding="utf-8-sig") as fh:
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
        levels = entry.get("ordered_levels")
        if levels is not None and not (isinstance(levels, list)
                                       and all(isinstance(v, str) for v in levels)):
            raise DataError(f"schema {schema_path}: column {entry['name']!r}: "
                            f"ordered_levels must be a list of strings, got {levels!r}")
        schema.append(
            ColumnSchema(
                name=entry["name"],
                kind=entry["kind"],
                ordered_levels=levels,
            )
        )
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise DataError(f"schema {schema_path}: duplicate column names")
    return schema


def _parse_column(raw_cells, col: ColumnSchema):
    """Type one column of raw cells: ``(values, schema entry)``.

    Nominal codes number the labels by first occurrence, and the returned
    entry lists them.  An error names the column's first bad cell.
    """
    if col.kind == "numeric":
        values = []
        for raw in raw_cells:
            try:
                values.append(float(raw))
            except (TypeError, ValueError):
                raise DataError(f"column {col.name!r}: unparseable numeric {raw!r}") from None
            if not math.isfinite(values[-1]):
                raise DataError(f"column {col.name!r}: non-finite numeric {raw!r}")
        return np.array(values, dtype=np.float64), col
    labels = map(str, raw_cells)
    if col.kind == "ordinal":
        index = {level: i for i, level in enumerate(col.ordered_levels)}
        try:
            return np.array([index[label] for label in labels], dtype=np.int64), col
        except KeyError as exc:
            raise DataError(
                f"column {col.name!r}: level {exc.args[0]!r} not in ordered_levels"
            ) from None
    index = {}
    codes = [index.setdefault(label, len(index)) for label in labels]
    return np.array(codes, dtype=np.int64), replace(col, observed_levels=list(index))


def table_from_columns(schema: list[ColumnSchema], raw_columns, row_ids=None) -> MixedTable:
    """Build a table from one sequence of raw cells per schema column.

    Numeric cells are numbers or their text, the others labels; ``schema`` is not changed.
    """
    parsed = [_parse_column(cells, col) for cells, col in zip(raw_columns, schema, strict=True)]
    return MixedTable([col for _, col in parsed], [values for values, _ in parsed], row_ids)


def load_table(csv_path, schema_path, truth_column: str | None = None):
    """Load and validate a CSV against its schema.

    Returns ``(table, truth)`` where ``truth`` is the raw label column
    (aligned with the kept rows) when ``truth_column`` is given, else
    None.  CSV columns must match the schema exactly, apart from the
    optional truth column, which may not be a schema column; no header
    name may repeat.  A UTF-8 byte-order mark is skipped.
    """
    schema = load_schema(schema_path)
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path}: empty file") from None
        expected = {c.name for c in schema}
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise DataError(f"{csv_path}: header repeats column(s) {repeated}")
        if truth_column in expected:
            raise DataError(f"{csv_path}: truth column {truth_column!r} is a schema column")
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

        columns = [[] for _ in schema]
        row_ids, truth, dropped = [], [], 0
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise DataError(f"{csv_path}:{lineno}: expected {len(header)} cells")
            raw_cells = [record[pos].strip() for pos in positions]
            if not MISSING_TOKENS.isdisjoint(raw_cells):
                dropped += 1
                continue
            for column, cell in zip(columns, raw_cells):
                column.append(cell)
            row_ids.append(lineno - 2)
            if truth_pos is not None:
                truth.append(record[truth_pos].strip())
    if dropped:
        log.info("%s: dropped %d rows with missing cells", csv_path, dropped)
    if not row_ids:
        raise DataError(f"{csv_path}: no complete rows")
    return table_from_columns(schema, columns, row_ids), (truth if truth_pos is not None else None)


def table_from_raw(schema: list[ColumnSchema], raw_rows) -> MixedTable:
    """Build a table from in-memory rows of raw cells, typed as ``table_from_columns`` does."""
    rows = list(raw_rows)
    if not rows:
        raise DataError("no rows")
    for raw in rows:
        if len(raw) != len(schema):
            raise DataError(f"row has {len(raw)} cells, schema has {len(schema)}")
    return table_from_columns(schema, list(zip(*rows)))


def write_table(table: MixedTable, csv_path, truth=None, truth_name: str = "label"):
    """Write a table back to CSV; inverse of load_table for kept rows.

    A label that ``load_table`` would drop (a missing token) or change
    (edge whitespace) raises ``DataError`` before the file is opened, and
    so does a truth label with edge whitespace, which it would strip.
    """
    header = [c.name for c in table.schema]
    if truth is not None:
        header.append(truth_name)
    cells = []
    for col, values in zip(table.schema, table.columns):
        if col.kind == "numeric":
            cells.append([repr(x) for x in values.tolist()])
            continue
        levels = col.levels
        for label in (levels[c] for c in np.unique(values).tolist()):
            if label in MISSING_TOKENS or label != label.strip():
                raise DataError(f"column {col.name!r}: label {label!r} would not load back "
                                f"(missing token or edge whitespace)")
        cells.append([levels[c] for c in values.tolist()])
    if truth is not None:
        for label in dict.fromkeys(truth):
            if str(label) != str(label).strip():
                raise DataError(f"truth label {label!r} would not load back (edge whitespace)")
        cells.append(truth)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


def normalize_numeric(values, name: str = "values") -> np.ndarray:
    """Min-max scale to [0,1]; a constant column becomes all zeros.

    A column whose range overflows float64 cannot be scaled; ``name`` names
    it in the error.
    """
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return np.zeros_like(arr)
    if not math.isfinite(hi - lo):
        raise DataError(f"column {name!r}: range {lo!r} to {hi!r} is too wide to scale")
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


def unit_column(table: MixedTable, j: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Column j over ``rows`` (default all): numeric min-max scaled over those
    rows, ordinal levels mapped onto [0,1] in order, nominal codes as they
    are (they only ever compare by equality)."""
    col = table.schema[j]
    values = table.columns[j] if rows is None else table.columns[j][rows]
    if col.kind == "numeric":
        return normalize_numeric(values, col.name)
    if col.kind == "ordinal":
        return ordinal_to_scalar(values, col)
    return values


def design_matrix(table: MixedTable):
    """Dense feature matrix for the dependency models.

    Columns are ``unit_column`` scaled, except that ordinal columns keep
    their integer level codes (ordered, so threshold splits apply).
    Nominal columns keep integer codes and are marked for
    category-membership splits.  Returns ``(X, is_nominal)``.
    """
    X = np.empty((table.n, table.d), dtype=np.float64)
    for j, col in enumerate(table.schema):
        X[:, j] = table.columns[j] if col.kind == "ordinal" else unit_column(table, j)
    is_nominal = np.array([col.kind == "nominal" for col in table.schema])
    return X, is_nominal
