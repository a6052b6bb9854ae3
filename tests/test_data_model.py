"""Schema validation, columnar storage, CSV loading, and column scalarization."""

import copy
import csv
import json
import pickle
import re

import numpy as np
import pytest

from helpers import reference_table_from_rows
from wise.data_model import (
    ColumnSchema,
    MixedTable,
    design_matrix,
    load_table,
    normalize_numeric,
    ordinal_to_scalar,
    table_from_columns,
    table_from_raw,
    unit_column,
    write_table,
)
from wise.errors import DataError


def write_files(tmp_path, csv_text, schema_text):
    csv_path = tmp_path / "data.csv"
    schema_path = tmp_path / "schema.json"
    csv_path.write_text(csv_text)
    schema_path.write_text(schema_text)
    return csv_path, schema_path


TWO_COL_SCHEMA = '[{"name": "age", "kind": "numeric"}, {"name": "color", "kind": "nominal"}]'


def test_load_small_csv(tmp_path):
    csv_path, schema_path = write_files(
        tmp_path, "age,color\n20,red\n28,blue\n40,red\n", TWO_COL_SCHEMA
    )
    table, truth = load_table(csv_path, schema_path)
    assert truth is None
    assert (table.n, table.d) == (3, 2)
    assert np.allclose(table.column(0), [20.0, 28.0, 40.0])
    # nominal codes register in first-occurrence order
    assert table.schema[1].levels == ["red", "blue"]
    assert table.column(1).tolist() == [0, 1, 0]


def test_load_reorders_columns_and_sets_truth_aside(tmp_path):
    schema = TWO_COL_SCHEMA
    csv_path, schema_path = write_files(
        tmp_path, "label,color,age\nA,red,20\nB,blue,28\n", schema
    )
    table, truth = load_table(csv_path, schema_path, truth_column="label")
    assert truth == ["A", "B"]
    assert np.allclose(table.column(0), [20.0, 28.0])


def test_load_header_mismatch(tmp_path):
    csv_path, schema_path = write_files(tmp_path, "age,hue\n20,red\n", TWO_COL_SCHEMA)
    with pytest.raises(DataError, match="header mismatch"):
        load_table(csv_path, schema_path)


def test_load_missing_truth_column(tmp_path):
    csv_path, schema_path = write_files(tmp_path, "age,color\n20,red\n", TWO_COL_SCHEMA)
    with pytest.raises(DataError, match="truth column"):
        load_table(csv_path, schema_path, truth_column="label")


def test_load_rejects_a_repeated_header_name(tmp_path):
    # the second "age" would otherwise be ignored without a word
    csv_path, schema_path = write_files(tmp_path, "age,color,age\n20,red,30\n", TWO_COL_SCHEMA)
    with pytest.raises(DataError, match="repeats column.*'age'"):
        load_table(csv_path, schema_path)


def test_load_rejects_a_schema_column_as_truth(tmp_path):
    csv_path, schema_path = write_files(tmp_path, "age,color\n20,red\n", TWO_COL_SCHEMA)
    with pytest.raises(DataError, match="truth column 'color' is a schema column"):
        load_table(csv_path, schema_path, truth_column="color")


def test_load_unparseable_numeric(tmp_path):
    csv_path, schema_path = write_files(tmp_path, "age,color\nabc,red\n", TWO_COL_SCHEMA)
    with pytest.raises(DataError, match="unparseable numeric"):
        load_table(csv_path, schema_path)


def test_load_drops_rows_with_missing_cells(tmp_path):
    csv_path, schema_path = write_files(
        tmp_path, "age,color\n20,red\n?,blue\n30,NA\n40,green\n", TWO_COL_SCHEMA
    )
    table, _ = load_table(csv_path, schema_path)
    assert table.n == 2
    assert np.allclose(table.column(0), [20.0, 40.0])
    assert table.row_ids.tolist() == [0, 3]


def test_load_all_rows_missing(tmp_path):
    csv_path, schema_path = write_files(tmp_path, "age,color\n?,red\n", TWO_COL_SCHEMA)
    with pytest.raises(DataError, match="no complete rows"):
        load_table(csv_path, schema_path)


def test_load_ordinal_level_index(tmp_path):
    schema = '[{"name": "size", "kind": "ordinal", "ordered_levels": ["low", "mid", "high"]}]'
    csv_path, schema_path = write_files(tmp_path, "size\nmid\nlow\n", schema)
    table, _ = load_table(csv_path, schema_path)
    assert table.column(0).tolist() == [1, 0]


def test_load_ordinal_unknown_level(tmp_path):
    schema = '[{"name": "size", "kind": "ordinal", "ordered_levels": ["low", "high"]}]'
    csv_path, schema_path = write_files(tmp_path, "size\nhuge\n", schema)
    with pytest.raises(DataError, match="not in ordered_levels"):
        load_table(csv_path, schema_path)


def test_schema_validation_errors(tmp_path):
    with pytest.raises(DataError, match="unknown kind"):
        ColumnSchema("x", "text")
    with pytest.raises(DataError, match="needs ordered_levels"):
        ColumnSchema("x", "ordinal")
    with pytest.raises(DataError, match="duplicate levels"):
        ColumnSchema("x", "ordinal", ordered_levels=["a", "a"])
    csv_path, schema_path = write_files(
        tmp_path, "a,a\n1,2\n",
        '[{"name": "a", "kind": "numeric"}, {"name": "a", "kind": "numeric"}]',
    )
    with pytest.raises(DataError, match="duplicate column names"):
        load_table(csv_path, schema_path)


def test_normalize_numeric_examples():
    assert np.allclose(normalize_numeric([20, 28, 40]), [0.0, 0.4, 1.0])
    assert np.allclose(normalize_numeric([5, 5, 5]), [0.0, 0.0, 0.0])
    assert np.allclose(normalize_numeric([0, 1]), [0.0, 1.0])


def test_normalize_numeric_rejects_a_range_that_overflows():
    with pytest.raises(DataError, match="'price': range -1e[+]308 to 1e[+]308"):
        normalize_numeric([-1e308, 0.0, 1e308], "price")
    assert normalize_numeric([-1e308, 0.0]).tolist() == [0.0, 1.0]
    table = table_from_raw([ColumnSchema("price", "numeric")], [(-1e308,), (1e308,)])
    with pytest.raises(DataError, match="column 'price'"):
        unit_column(table, 0)


def test_ordinal_to_scalar_examples():
    col = ColumnSchema("s", "ordinal", ordered_levels=["low", "mid", "high"])
    assert np.allclose(ordinal_to_scalar([0, 2, 1], col), [0.0, 1.0, 0.5])
    single = ColumnSchema("s", "ordinal", ordered_levels=["only"])
    assert np.allclose(ordinal_to_scalar([0], single), [0.0])
    with pytest.raises(DataError, match="out of range"):
        ordinal_to_scalar([3], col)
    with pytest.raises(DataError, match="not ordinal"):
        ordinal_to_scalar([0], ColumnSchema("n", "numeric"))


def test_table_from_raw_matches_csv_loader(tmp_path):
    csv_path, schema_path = write_files(
        tmp_path, "age,color\n20,red\n28,blue\n40,red\n", TWO_COL_SCHEMA
    )
    loaded, _ = load_table(csv_path, schema_path)
    schema = [ColumnSchema("age", "numeric"), ColumnSchema("color", "nominal")]
    built = table_from_raw(schema, [(20, "red"), (28, "blue"), (40, "red")])
    assert_same_columns(built, loaded)
    assert built.schema[1].observed_levels == loaded.schema[1].observed_levels


def test_table_from_raw_leaves_the_callers_schema_alone():
    schema = [ColumnSchema("x", "numeric"), ColumnSchema("c", "nominal")]
    first = table_from_raw(schema, [(1.0, "a"), (2.0, "b")])
    second = table_from_raw(schema, [(1.0, "b"), (2.0, "c")])
    assert first.column(1).tolist() == [0, 1]
    assert first.schema[1].levels == ["a", "b"]
    assert second.column(1).tolist() == [0, 1]
    assert second.schema[1].levels == ["b", "c"]
    assert schema[1].observed_levels == []


@pytest.mark.parametrize("levels", ['"lmh"', "[1, 2, 3]"])
def test_load_rejects_ordered_levels_that_are_not_strings(tmp_path, levels):
    schema = '[{"name": "size", "kind": "ordinal", "ordered_levels": %s}]' % levels
    csv_path, schema_path = write_files(tmp_path, "size\nl\n", schema)
    with pytest.raises(DataError, match="column 'size': ordered_levels must be a list of strings"):
        load_table(csv_path, schema_path)


def test_table_from_raw_errors():
    schema = [ColumnSchema("a", "numeric"), ColumnSchema("b", "nominal")]
    with pytest.raises(DataError, match="cells"):
        table_from_raw(schema, [(1.0,)])
    with pytest.raises(DataError, match="non-finite"):
        table_from_raw(schema, [(float("nan"), "x")])
    with pytest.raises(DataError, match="unparseable numeric 'x'"):
        table_from_raw(schema, [("x", "x")])
    with pytest.raises(DataError, match="unparseable numeric None"):
        table_from_raw(schema, [(None, "x")])
    with pytest.raises(DataError, match="no rows"):
        table_from_raw(schema, [])


def test_write_table_round_trip(tmp_path):
    schema = [
        ColumnSchema("age", "numeric"),
        ColumnSchema("size", "ordinal", ordered_levels=["s", "m", "l"]),
        ColumnSchema("color", "nominal"),
    ]
    # inner whitespace and quotes load back as written
    table = table_from_raw(
        schema, [(0.125, "m", "dark red"), (7.25, "s", 'N "A"'), (3.5, "l", "dark red")]
    )
    csv_path = tmp_path / "out.csv"
    truth_labels = ["c 0", 'c "1"', "c 0"]
    write_table(table, csv_path, truth=truth_labels)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        '[{"name": "age", "kind": "numeric"},'
        ' {"name": "size", "kind": "ordinal", "ordered_levels": ["s", "m", "l"]},'
        ' {"name": "color", "kind": "nominal"}]'
    )
    back, truth = load_table(csv_path, schema_path, truth_column="label")
    assert truth == truth_labels
    assert_same_columns(back, table)


@pytest.mark.parametrize("kind, label", [
    ("nominal", "NA"), ("nominal", "?"), ("nominal", " x"), ("nominal", "x\t"),
    ("ordinal", "nan"), ("ordinal", "x "),
])
def test_write_table_refuses_labels_load_would_change(tmp_path, kind, label):
    # load_table drops rows with missing tokens and strips edge whitespace
    levels = [label, "x"] if kind == "ordinal" else None
    table = table_from_raw([ColumnSchema("c", kind, ordered_levels=levels)],
                           [(label,), ("x",), ("x",)])
    csv_path = tmp_path / "out.csv"
    with pytest.raises(DataError, match=re.escape(f"column 'c': label {label!r}")):
        write_table(table, csv_path)
    assert not csv_path.exists()


def test_write_table_refuses_truth_labels_load_would_strip(tmp_path):
    table = table_from_raw([ColumnSchema("c", "nominal")], [("x",), ("y",)])
    csv_path = tmp_path / "out.csv"
    with pytest.raises(DataError, match=re.escape("truth label ' c0'")):
        write_table(table, csv_path, truth=[" c0", "c1 "])
    assert not csv_path.exists()


def test_design_matrix_kinds():
    schema = [
        ColumnSchema("num", "numeric"),
        ColumnSchema("ord", "ordinal", ordered_levels=["a", "b", "c"]),
        ColumnSchema("cat", "nominal"),
    ]
    table = table_from_raw(schema, [(10, "a", "x"), (20, "c", "y"), (30, "b", "x")])
    X, is_nominal = design_matrix(table)
    assert np.allclose(X[:, 0], [0.0, 0.5, 1.0])
    assert np.allclose(X[:, 1], [0, 2, 1])       # ordinal keeps level codes
    assert np.allclose(X[:, 2], [0, 1, 0])
    assert is_nominal.tolist() == [False, False, True]


def test_mixed_table_shapes():
    table = MixedTable(schema=[ColumnSchema("a", "numeric")], columns=[[1.0, 2.0]])
    assert (table.n, table.d) == (2, 1)
    assert table.column(0).dtype == np.float64
    assert table.row_ids.tolist() == [0, 1]


def test_columns_are_typed_read_only_and_stay_so_through_pickle():
    schema = [
        ColumnSchema("num", "numeric"),
        ColumnSchema("ord", "ordinal", ordered_levels=["a", "b"]),
        ColumnSchema("cat", "nominal"),
    ]
    table = table_from_raw(schema, [(1, "b", "x"), (2.5, "a", "y")])
    for t in (table, pickle.loads(pickle.dumps(table))):
        assert [t.column(j).dtype for j in range(3)] == [np.float64, np.int64, np.int64]
        for j in range(3):
            assert t.column(j) is t.column(j)      # the stored array, not a copy
            assert not t.column(j).flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                t.column(j)[0] = 0
        assert t.column(1).tolist() == [1, 0]
    # the table owns its arrays: editing the caller's input changes nothing
    values = np.array([1.0, 2.0])
    owned = MixedTable([ColumnSchema("a", "numeric")], [values])
    values[0] = 9.0
    assert owned.column(0).tolist() == [1.0, 2.0]
    assert values.flags.writeable


def test_mixed_table_rejects_malformed_columns():
    schema = [ColumnSchema("a", "numeric"), ColumnSchema("b", "nominal")]
    with pytest.raises(DataError, match="1 columns for 2 schema entries"):
        MixedTable(schema, [[1.0, 2.0]])
    with pytest.raises(DataError, match="equal length"):
        MixedTable(schema, [[1.0, 2.0], [0]])
    with pytest.raises(DataError, match="no rows"):
        MixedTable(schema, [[], []])
    with pytest.raises(DataError, match="3 row ids for 2 rows"):
        MixedTable(schema, [[1.0, 2.0], [0, 1]], row_ids=[0, 1, 2])


def test_unit_column_kinds_and_row_subset():
    schema = [
        ColumnSchema("num", "numeric"),
        ColumnSchema("ord", "ordinal", ordered_levels=["a", "b", "c"]),
        ColumnSchema("cat", "nominal"),
    ]
    table = table_from_raw(schema, [(10, "a", "x"), (20, "c", "y"), (30, "b", "x")])
    assert unit_column(table, 0).tolist() == [0.0, 0.5, 1.0]
    assert unit_column(table, 1).tolist() == [0.0, 1.0, 0.5]
    assert unit_column(table, 2).tolist() == [0, 1, 0]
    # numeric columns scale over the chosen rows only
    rows = np.array([0, 1])
    assert unit_column(table, 0, rows).tolist() == [0.0, 1.0]
    assert unit_column(table, 1, rows).tolist() == [0.0, 1.0]
    X, _ = design_matrix(table)
    assert X[:, 0].tolist() == unit_column(table, 0).tolist()


def assert_same_columns(a, b):
    """Same schema entries, column dtypes and column bytes."""
    assert a.schema == b.schema
    assert [c.dtype for c in a.columns] == [c.dtype for c in b.columns]
    assert [c.tobytes() for c in a.columns] == [c.tobytes() for c in b.columns]


def assert_same_table(got, want):
    assert_same_columns(got, want)
    assert got.row_ids.tolist() == want.row_ids.tolist()


def random_mixed_csv(rng, path, n):
    """A random mixed table as CSV, a few rows blanked; the label is the data-row index.

    Returns the schema JSON.
    """
    levels = ["lo", "mid", "hi"]
    lines = ["x,size,color,label"]
    for i in range(n):
        cells = [
            repr(float(rng.normal(scale=10.0 ** rng.integers(-3, 4)))),
            levels[rng.integers(3)],
            f"c{rng.integers(5)}",
            str(i),
        ]
        if rng.random() < 0.15:
            cells[rng.integers(3)] = rng.choice(["", "?", "NA"])
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return (
        '[{"name": "x", "kind": "numeric"},'
        ' {"name": "size", "kind": "ordinal", "ordered_levels": ["lo", "mid", "hi"]},'
        ' {"name": "color", "kind": "nominal"}]'
    )


@pytest.mark.parametrize("seed", range(5))
def test_load_write_load_round_trip_on_random_tables(tmp_path, seed):
    rng = np.random.default_rng(seed)
    csv_path = tmp_path / "in.csv"
    schema_path = tmp_path / "schema.json"
    n = int(rng.integers(20, 200))
    schema_path.write_text(random_mixed_csv(rng, csv_path, n))
    first, truth = load_table(csv_path, schema_path, truth_column="label")
    assert first.n < n                                    # some rows were dropped
    assert first.row_ids.tolist() == [int(t) for t in truth]
    out = tmp_path / "out.csv"
    write_table(first, out, truth=truth)
    back, back_truth = load_table(out, schema_path, truth_column="label")
    assert_same_columns(back, first)
    assert back_truth == truth
    # the written file holds only the kept rows, so its row ids count afresh
    assert back.row_ids.tolist() == list(range(first.n))
    again = tmp_path / "again.csv"
    write_table(back, again, truth=back_truth)
    assert again.read_bytes() == out.read_bytes()


def test_a_byte_order_mark_on_either_file_is_skipped(tmp_path):
    text = "age,color\n20,red\n28,blue\n"
    csv_path, schema_path = write_files(tmp_path, text, TWO_COL_SCHEMA)
    plain, _ = load_table(csv_path, schema_path)
    bom_csv, bom_schema = tmp_path / "bom.csv", tmp_path / "bom.json"
    bom_csv.write_text("\ufeff" + text, encoding="utf-8")
    bom_schema.write_text("\ufeff" + TWO_COL_SCHEMA, encoding="utf-8")
    for paths in ((bom_csv, schema_path), (csv_path, bom_schema), (bom_csv, bom_schema)):
        table, _ = load_table(*paths)
        assert_same_table(table, plain)


ORACLE_LEVELS = ["lo", "mid", "hi"]
ORACLE_LABELS = ["a", "a\x00", "b", "A", "\u00e9", "e\u0301", "\u65e5\u672c", "x y", "1", "-0.0"]
NUMERIC_TEXTS = ["1_000", "-0.0", "0.0", "1e-320", "+7", "1E3", " 2.5", "-1e308"]


def oracle_schema(rng):
    """Between one and five columns of random kinds; nominal entries carry stale levels."""
    schema = []
    for j in range(int(rng.integers(1, 6))):
        kind = ("numeric", "ordinal", "nominal")[rng.integers(3)]
        levels = ORACLE_LEVELS if kind == "ordinal" else None
        stale = ["stale"] if kind == "nominal" else []
        schema.append(ColumnSchema(f"c{j}", kind, ordered_levels=levels, observed_levels=stale))
    return schema


def schema_json(schema):
    return json.dumps([{"name": c.name, "kind": c.kind}
                       | ({"ordered_levels": c.ordered_levels} if c.kind == "ordinal" else {})
                       for c in schema])


def oracle_cell(rng, col, as_text):
    """A valid raw cell: numbers as text or as numbers, labels from a small pool."""
    if col.kind == "ordinal":
        return ORACLE_LEVELS[rng.integers(3)]
    if col.kind == "nominal":
        return ORACLE_LABELS[rng.integers(len(ORACLE_LABELS))]
    if rng.random() < 0.2:
        return NUMERIC_TEXTS[rng.integers(len(NUMERIC_TEXTS))]
    value = float(rng.normal(scale=10.0 ** rng.integers(-5, 6)))
    if as_text:
        return repr(value)
    return (value, np.float64(value), int(value), str(value))[rng.integers(4)]


@pytest.mark.parametrize("seed", range(12))
def test_table_from_raw_matches_the_cell_by_cell_parser(seed):
    rng = np.random.default_rng(seed)
    schema = oracle_schema(rng)
    before = copy.deepcopy(schema)
    rows = [tuple(oracle_cell(rng, col, False) for col in schema)
            for _ in range(int(rng.integers(1, 60)))]
    want = reference_table_from_rows(schema, rows)
    assert_same_table(table_from_raw(schema, rows), want)
    assert_same_table(table_from_columns(schema, list(zip(*rows))), want)
    assert schema == before


@pytest.mark.parametrize("seed", range(12))
def test_load_table_matches_the_cell_by_cell_parser(tmp_path, seed):
    rng = np.random.default_rng(100 + seed)
    schema = oracle_schema(rng)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(schema_json(schema))
    n = int(rng.integers(1, 60))
    rows = [[oracle_cell(rng, col, True) for col in schema] for _ in range(n)]
    for row in rows:
        if rng.random() < 0.2:
            row[rng.integers(len(row))] = ["", "?", "NA", " nan "][rng.integers(4)]
    kept = [i for i, row in enumerate(rows) if not {c.strip() for c in row} & {"", "?", "NA", "nan"}]
    csv_path = tmp_path / "in.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in schema] + ["label"])
        writer.writerows(row + [f"r{i}"] for i, row in enumerate(rows))
    if not kept:
        with pytest.raises(DataError, match="no complete rows"):
            load_table(csv_path, schema_path, truth_column="label")
        return
    kept_rows = [[c.strip() for c in rows[i]] for i in kept]
    want = reference_table_from_rows(schema, kept_rows, kept)
    loaded, truth = load_table(csv_path, schema_path, truth_column="label")
    assert_same_table(loaded, want)
    assert truth == [f"r{i}" for i in kept]
    # and back through the writer: same table, row ids counted afresh
    out = tmp_path / "out.csv"
    write_table(want, out)
    back, _ = load_table(out, schema_path)
    assert_same_table(back, reference_table_from_rows(schema, kept_rows))


@pytest.mark.parametrize("kind, cells, levels, values", [
    ("nominal", ["a", "a\x00", "a", "a\x00\x00"], ["a", "a\x00", "a\x00\x00"], [0, 1, 0, 2]),
    ("nominal", ["\u00e9", "e\u0301", "\u65e5\u672c", "\u00e9"], ["\u00e9", "e\u0301", "\u65e5\u672c"], [0, 1, 2, 0]),
    ("nominal", ["only"], ["only"], [0]),
    ("numeric", ["1_000", "-0.0", "1e-320", 3], [], [1000.0, -0.0, 1e-320, 3.0]),
])
def test_table_from_raw_edge_cells(kind, cells, levels, values):
    schema = [ColumnSchema("v", kind)]
    rows = [(cell,) for cell in cells]
    table = table_from_raw(schema, rows)
    assert_same_table(table, reference_table_from_rows(schema, rows))
    assert table.schema[0].observed_levels == levels
    assert table.column(0).tobytes() == np.array(values, dtype=table.column(0).dtype).tobytes()


BAD_CELLS = [
    ("numeric", "abc", "column 'v': unparseable numeric 'abc'"),
    ("numeric", "inf", "column 'v': non-finite numeric 'inf'"),
    ("numeric", "-1e999", "column 'v': non-finite numeric '-1e999'"),
    ("numeric", None, "column 'v': unparseable numeric None"),
    ("numeric", float("nan"), "column 'v': non-finite numeric nan"),
    ("ordinal", "huge", "column 'v': level 'huge' not in ordered_levels"),
    ("ordinal", "Lo", "column 'v': level 'Lo' not in ordered_levels"),
]


@pytest.mark.parametrize("kind, bad, message", BAD_CELLS)
def test_one_bad_cell_gives_the_cell_by_cell_error(tmp_path, kind, bad, message):
    levels = ORACLE_LEVELS if kind == "ordinal" else None
    schema = [ColumnSchema("n", "numeric"), ColumnSchema("v", kind, ordered_levels=levels)]
    good = "mid" if kind == "ordinal" else "2.5"
    rows = [("1", good), ("2", bad), ("3", good)]
    for build in (reference_table_from_rows, table_from_raw):
        with pytest.raises(DataError) as exc:
            build(schema, rows)
        assert str(exc.value) == message
    if not isinstance(bad, str):
        return
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(schema_json(schema))
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("n,v\n" + "".join(f"{a},{b}\n" for a, b in rows))
    with pytest.raises(DataError) as exc:
        load_table(csv_path, schema_path)
    assert str(exc.value) == message


def test_several_faults_report_the_record_length_then_the_leftmost_bad_column(tmp_path):
    schema = [ColumnSchema("a", "numeric"), ColumnSchema("b", "numeric")]
    rows = [(1.0, "x"), ("y", 2.0)]
    with pytest.raises(DataError, match="column 'a': unparseable numeric 'y'"):
        table_from_raw(schema, rows)
    with pytest.raises(DataError, match="row has 1 cells"):
        table_from_raw(schema, rows + [(3.0,)])
    csv_path, schema_path = write_files(tmp_path, "a,b\n1,x\ny,2\n3\n", schema_json(schema))
    with pytest.raises(DataError, match="data.csv:4: expected 2 cells"):
        load_table(csv_path, schema_path)
    csv_path.write_text("a,b\n1,x\ny,2\n")
    with pytest.raises(DataError, match="column 'a': unparseable numeric 'y'"):
        load_table(csv_path, schema_path)
