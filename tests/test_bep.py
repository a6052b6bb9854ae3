"""Sparse binary encoding: block codes, nominal bits, distance bracket."""

import json
from fractions import Fraction

import numpy as np
import pytest

from wise.bep import (
    BepConfig,
    block_offset,
    dump_bep,
    encode_table,
    jaccard_distance,
    nominal_bit,
    quantization_bounds,
)
from wise.data_model import ColumnSchema, normalize_numeric, ordinal_to_scalar, table_from_raw
from wise.errors import ConfigError, DataError
from helpers import encode_numeric_value, numeric_table, reference_bit_matrix


def test_block_code_endpoints():
    assert encode_numeric_value(0.0, 4).bits.tolist() == [0, 1, 2, 3]
    assert encode_numeric_value(1.0, 4).bits.tolist() == [4, 5, 6, 7]
    # offset floor(4*0.4 + 0.5) = 2
    assert encode_numeric_value(0.4, 4).bits.tolist() == [2, 3, 4, 5]


def test_block_offset_rounds_half_up():
    assert block_offset(0.125, 4) == 1   # 4*0.125 + 0.5 = 1.0
    assert block_offset(0.1, 4) == 0
    assert type(block_offset(0.5, 4)) is int
    assert block_offset(np.array([0.125, 0.1, 1.0]), 4).tolist() == [1, 0, 4]
    with pytest.raises(DataError, match="outside"):
        block_offset(np.array([0.5, np.nan]), 4)
    with pytest.raises(DataError, match="outside"):
        block_offset(1.5, 4)


def test_bep_config_validation():
    with pytest.raises(ConfigError, match="B must be"):
        BepConfig(B=1)
    with pytest.raises(ConfigError, match="nominal_mode"):
        BepConfig(nominal_mode="dense")


def test_nominal_bit_modes():
    table = table_from_raw([ColumnSchema("c", "nominal")], [("a",), ("b",), ("c",), ("b",)])
    one_hot = encode_table(table, BepConfig(B=4, nominal_mode="one_hot"))
    assert one_hot.matrix.indices.tolist() == [0, 1, 2, 1]   # level positions
    hashed = encode_table(table, BepConfig(B=4, nominal_mode="hash", hash_seed=5))
    assert hashed.matrix.indices.tolist() == [nominal_bit(lab, 4, 5) for lab in "abcb"]
    h = nominal_bit("v7", 4, 0)
    assert 0 <= h < 4
    assert h == nominal_bit("v7", 4, 0)
    # the seed reshuffles buckets: over 10 labels at least one must move
    moved = [nominal_bit(f"v{i}", 4, 0) != nominal_bit(f"v{i}", 4, 99) for i in range(10)]
    assert any(moved)


def test_encode_numeric_column_offsets_and_overlap():
    # column [20, 28, 40] normalizes to [0, 0.4, 1]; with B=4 the codes
    # sit at offsets 0, 2, 4: rows 0 and 1 share 2 bits, rows 0 and 2 none
    bepm = encode_table(numeric_table([20, 28, 40]), BepConfig(B=4))
    assert bepm.p == 8
    rows = [bepm.matrix[i].indices for i in range(3)]
    assert rows[0].tolist() == [0, 1, 2, 3]
    assert rows[1].tolist() == [2, 3, 4, 5]
    assert rows[2].tolist() == [4, 5, 6, 7]
    assert np.intersect1d(rows[0], rows[1]).size == 2
    assert np.intersect1d(rows[0], rows[2]).size == 0


def test_encode_scalar_bits_are_block_codes():
    # the encoder's numeric and ordinal bits are encode_numeric_value's
    # block, shifted to the column's group start
    rng = np.random.default_rng(8)
    levels = ["lo", "mid", "hi", "top"]
    schema = [
        ColumnSchema("num", "numeric"),
        ColumnSchema("cat", "nominal"),
        ColumnSchema("ord", "ordinal", ordered_levels=levels),
        ColumnSchema("wide", "numeric"),
    ]
    rows = [
        (rng.random(), f"v{rng.integers(3)}", levels[rng.integers(4)], rng.normal(0, 50))
        for _ in range(200)
    ]
    table = table_from_raw(schema, rows)
    scalars = {
        0: normalize_numeric(table.column(0)),
        2: ordinal_to_scalar(table.column(2), schema[2]),
        3: normalize_numeric(table.column(3)),
    }
    for B in (3, 5, 8):
        bepm = encode_table(table, BepConfig(B=B))
        for i in range(table.n):
            bits = bepm.matrix[i].indices
            for j, x in scalars.items():
                start, stop = bepm.bit_groups[j]
                want = start + encode_numeric_value(float(x[i]), B).bits
                assert bits[(bits >= start) & (bits < stop)].tolist() == want.tolist()


def test_encode_nominal_only_is_one_hot():
    schema = [ColumnSchema("c", "nominal")]
    table = table_from_raw(schema, [("a",), ("b",), ("a",), ("c",)])
    bepm = encode_table(table, BepConfig(B=4, nominal_mode="one_hot"))
    dense = np.asarray(bepm.matrix.todense())
    expect = np.zeros((4, 4), dtype=np.uint8)
    expect[[0, 1, 2, 3], [0, 1, 0, 2]] = 1
    assert np.array_equal(dense, expect)


def test_encode_mixed_bit_groups_partition():
    schema = [
        ColumnSchema("num", "numeric"),
        ColumnSchema("ord", "ordinal", ordered_levels=["a", "b"]),
        ColumnSchema("cat", "nominal"),
    ]
    table = table_from_raw(schema, [(0.0, "a", "x"), (1.0, "b", "y")])
    cfg = BepConfig(B=4)
    bepm = encode_table(table, cfg)
    assert bepm.bit_groups == [(0, 8), (8, 16), (16, 20)]
    assert bepm.group_kinds == ["numeric", "ordinal", "nominal"]
    # B ones per scalar group, 1 per nominal group
    counts = np.diff(bepm.matrix.indptr)
    assert np.all(counts == 4 + 4 + 1)


def test_encode_expand_and_hash_widths():
    schema = [ColumnSchema("c", "nominal")]
    table = table_from_raw(schema, [(f"v{i}",) for i in range(10)])
    expand = encode_table(table, BepConfig(B=4, nominal_mode="expand"))
    assert expand.p == 10
    assert expand.matrix.indices.tolist() == list(range(10))   # level positions
    hashed = encode_table(table, BepConfig(B=4, nominal_mode="hash"))
    assert hashed.p == 4
    assert np.all(np.diff(hashed.matrix.indptr) == 1)
    with pytest.raises(ConfigError, match="categories"):
        encode_table(table, BepConfig(B=4, nominal_mode="one_hot"))


def test_jaccard_distance_examples():
    assert jaccard_distance([0, 1, 2, 3], [0, 1, 2, 3]) == 0.0
    assert jaccard_distance([0, 1], [2, 3]) == 1.0
    assert jaccard_distance([0, 1, 2, 3], [2, 3, 4, 5]) == pytest.approx(2.0 / 3.0)
    assert jaccard_distance([], []) == 0.0


def test_block_gap_closed_form_small():
    # offset gap D between two B-blocks: intersection B-D, union B+D
    for B in (2, 4, 8):
        for delta in range(B + 1):
            a = encode_numeric_value(0.0, B).bits
            b = np.arange(delta, delta + B)
            assert jaccard_distance(a, b) == 2 * delta / (B + delta)


def test_quantization_bounds_examples():
    lo, hi = quantization_bounds(0.0, 8)
    assert lo == 0.0
    assert hi == pytest.approx(2 * 0.125 / 1.125)
    lo, hi = quantization_bounds(1.0, 4)
    assert lo == pytest.approx(6.0 / 7.0)
    assert hi == 1.0
    lo, hi = quantization_bounds(0.3, 10**9)
    assert lo == pytest.approx(2 * 0.3 / 1.3, abs=1e-8)
    assert hi == pytest.approx(2 * 0.3 / 1.3, abs=1e-8)
    with pytest.raises(DataError, match="outside"):
        quantization_bounds(-0.1, 4)


def test_quantization_bracket_randomized():
    # exact rational form of the code-distance bracket on 1000 triples
    rng = np.random.default_rng(11)
    for _ in range(1000):
        B = int(rng.integers(2, 65))
        x, y = rng.random(), rng.random()
        dx = encode_numeric_value(x, B)
        dy = encode_numeric_value(y, B)
        t = abs(Fraction(x) - Fraction(y))
        t_lo = max(Fraction(0), t - Fraction(1, B))
        t_hi = min(Fraction(1), t + Fraction(1, B))
        gap = Fraction(abs(dx.offset - dy.offset), B)
        assert t_lo <= gap <= t_hi


def test_dump_bep_writes_header_and_row_lines(tmp_path):
    rng = np.random.default_rng(3)
    schema = [ColumnSchema("num", "numeric"), ColumnSchema("cat", "nominal")]
    rows = [(rng.random(), f"v{rng.integers(3)}") for _ in range(20)]
    bepm = encode_table(table_from_raw(schema, rows), BepConfig(B=6))
    path = tmp_path / "bep.txt"
    dump_bep(bepm, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(header) == {
        "n": 20, "p": bepm.p, "bit_groups": [list(g) for g in bepm.bit_groups],
        "group_kinds": ["numeric", "nominal"], "B": 6, "nominal_mode": "one_hot", "hash_seed": 0,
    }
    m = bepm.matrix
    assert lines == [f"{i}: " + " ".join(map(str, m.indices[m.indptr[i]:m.indptr[i + 1]]))
                     for i in range(20)]


def _encoding_cases():
    """(config, table): every nominal mode at B in {2, 8}, with numeric and
    ordinal values at exactly 0 and 1 and, under hashing, labels that share
    their bit."""
    rng = np.random.default_rng(17)
    for B in (2, 8):
        seen, labels = {}, None
        for t in range(1000):
            bit = nominal_bit(f"l{t}", B, 3)
            if bit in seen:
                labels = [seen[bit], f"l{t}"]
                break
            seen[bit] = f"l{t}"
        for mode in ("one_hot", "hash", "expand"):
            levels = labels[:B] if mode == "one_hot" else labels + [f"m{u}" for u in range(4)]
            schema = [ColumnSchema("x", "numeric"),
                      ColumnSchema("o", "ordinal", ordered_levels=["a", "b", "c"]),
                      ColumnSchema("c", "nominal")]
            x = rng.random(30)
            x[:2] = [-3.0, 5.0]                       # the column's 0 and 1
            rows = [(float(v), "abc"[i % 3], levels[i % len(levels)]) for i, v in enumerate(x)]
            yield BepConfig(B=B, nominal_mode=mode, hash_seed=3), table_from_raw(schema, rows)


def test_offsets_and_widths_are_the_encoding(tmp_path):
    for cfg, table in _encoding_cases():
        bepm = encode_table(table, cfg)
        assert bepm.offsets.shape == (table.n, table.d)
        assert bepm.offsets.dtype == np.int8
        assert bepm.width.tolist() == [cfg.B, cfg.B, 1]
        # each row's bits, group by group, from its offsets alone
        m = bepm.matrix
        assert m.dtype == np.uint8 and np.all(m.data == 1)
        for i in range(table.n):
            bits = [start + off + b for (start, _), off, w in
                    zip(bepm.bit_groups, bepm.offsets[i].tolist(), bepm.width.tolist())
                    for b in range(w)]
            assert m.indices[m.indptr[i]:m.indptr[i + 1]].tolist() == bits
        assert {0, cfg.B} <= set(bepm.offsets[:, 0].tolist())   # numeric 0 and 1
        assert {0, cfg.B} <= set(bepm.offsets[:, 1].tolist())   # ordinal 0 and 1
        # the encoder before group codes, entry for entry and in `wise encode`'s file
        want, bit_groups = reference_bit_matrix(table, cfg.B, cfg.nominal_mode, cfg.hash_seed)
        assert bepm.bit_groups == bit_groups and m.shape == want.shape
        assert np.array_equal(m.indptr, want.indptr) and np.array_equal(m.indices, want.indices)
        assert np.array_equal(m.data, want.data)
        path = tmp_path / "bep.txt"
        dump_bep(bepm, path)
        header = {"n": table.n, "p": want.shape[1], "bit_groups": [list(g) for g in bit_groups],
                  "group_kinds": ["numeric", "ordinal", "nominal"], "B": cfg.B,
                  "nominal_mode": cfg.nominal_mode, "hash_seed": cfg.hash_seed}
        lines = [json.dumps(header)] + [
            f"{i}: " + " ".join(str(b) for b in want.indices[want.indptr[i]:want.indptr[i + 1]])
            for i in range(table.n)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    hashed = [encode_table(t, c) for c, t in _encoding_cases() if c.nominal_mode == "hash"]
    # the first two labels share one bit
    assert all(h.offsets[0, 2] == h.offsets[1, 2] for h in hashed)
