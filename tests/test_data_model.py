"""Schema validation, columnar storage, CSV loading, and column scalarization."""

import pickle

import numpy as np
import pytest

from wise.data_model import (
    ColumnSchema,
    MixedTable,
    design_matrix,
    load_table,
    normalize_numeric,
    ordinal_to_scalar,
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
    table = table_from_raw(
        schema, [(0.125, "m", "red"), (7.25, "s", "blue"), (3.5, "l", "red")]
    )
    csv_path = tmp_path / "out.csv"
    write_table(table, csv_path, truth=["c0", "c1", "c0"])
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        '[{"name": "age", "kind": "numeric"},'
        ' {"name": "size", "kind": "ordinal", "ordered_levels": ["s", "m", "l"]},'
        ' {"name": "color", "kind": "nominal"}]'
    )
    back, truth = load_table(csv_path, schema_path, truth_column="label")
    assert truth == ["c0", "c1", "c0"]
    assert_same_columns(back, table)


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
    assert [c.levels for c in a.schema] == [c.levels for c in b.schema]
    for j in range(a.d):
        assert a.column(j).dtype == b.column(j).dtype
        assert np.array_equal(a.column(j), b.column(j))


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
