"""Tests for the column-store Table."""

import numpy as np
import pytest

from repro.sql.table import Column, Table, dtype_to_sql_type, sql_type_to_dtype


class TestTypeMapping:
    @pytest.mark.parametrize(
        "sql_type,expected",
        [
            ("BIGINT", np.int64),
            ("INT", np.int64),
            ("int", np.int64),
            ("TINYINT", np.int64),
            ("DOUBLE", np.float64),
            ("FLOAT", np.float64),
            ("DECIMAL(10)", np.float64),
            ("BOOL", np.bool_),
        ],
    )
    def test_numeric(self, sql_type, expected):
        assert sql_type_to_dtype(sql_type) == np.dtype(expected)

    def test_strings_are_object(self):
        assert sql_type_to_dtype("VARCHAR(32)") == np.dtype(object)
        assert sql_type_to_dtype("TEXT") == np.dtype(object)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            sql_type_to_dtype("GEOMETRY")

    def test_inverse(self):
        assert dtype_to_sql_type(np.dtype(np.int64)) == "BIGINT"
        assert dtype_to_sql_type(np.dtype(np.float64)) == "DOUBLE"
        assert dtype_to_sql_type(np.dtype(bool)) == "BOOL"
        assert dtype_to_sql_type(np.dtype(object)) == "TEXT"


class TestConstruction:
    def test_empty(self):
        t = Table("t")
        assert t.num_rows == 0
        assert t.column_names == []

    def test_from_schema(self):
        t = Table.from_schema("t", [Column("a", "BIGINT"), Column("b", "DOUBLE")])
        assert t.num_rows == 0
        assert t.column("a").dtype == np.int64

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Table("t", {"a": np.zeros(3), "b": np.zeros(4)})

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            Table("t", {"a": np.zeros((2, 2))})

    def test_len(self):
        t = Table("t", {"a": np.arange(5)})
        assert len(t) == 5


class TestAccess:
    @pytest.fixture
    def table(self):
        return Table("t", {"a": np.arange(4), "b": np.array([1.5, 2.5, 3.5, 4.5])})

    def test_column(self, table):
        np.testing.assert_array_equal(table.column("a"), [0, 1, 2, 3])

    def test_missing_column_names_available(self, table):
        with pytest.raises(KeyError, match="have"):
            table.column("zzz")

    def test_contains(self, table):
        assert "a" in table and "zzz" not in table

    def test_row(self, table):
        assert table.row(1) == (1, 2.5)

    def test_rows(self, table):
        assert len(table.rows()) == 4

    def test_schema(self, table):
        types = {c.name: c.type_name for c in table.schema()}
        assert types == {"a": "BIGINT", "b": "DOUBLE"}

    def test_signature_is_computed_once_and_survives_appends(self, table):
        sig = table.signature()
        assert sig == (("a", "BIGINT"), ("b", "DOUBLE"))
        assert table.signature() is sig
        copy = table.copy()
        first = copy.signature()
        copy.append_rows({"a": np.array([7]), "b": np.array([1])})  # int batch, cast
        assert copy.signature() is first
        assert [(c.name, c.type_name) for c in copy.schema()] == list(sig)
        # Derived tables are new objects with their own memo.
        assert table.select_columns(["b"]).signature() == (("b", "DOUBLE"),)


class TestMutation:
    def test_append(self):
        t = Table("t", {"a": np.arange(2, dtype=np.int64)})
        t.append_rows({"a": np.array([5, 6])})
        np.testing.assert_array_equal(t.column("a"), [0, 1, 5, 6])

    def test_append_wrong_columns(self):
        t = Table("t", {"a": np.arange(2)})
        with pytest.raises(ValueError):
            t.append_rows({"b": np.array([1])})

    def test_append_ragged(self):
        t = Table("t", {"a": np.arange(2), "b": np.arange(2.0)})
        with pytest.raises(ValueError):
            t.append_rows({"a": np.array([1]), "b": np.array([1.0, 2.0])})

    def test_append_casts(self):
        t = Table("t", {"a": np.arange(2, dtype=np.float64)})
        t.append_rows({"a": np.array([5], dtype=np.int64)})
        assert t.column("a").dtype == np.float64

    def test_append_strings(self):
        t = Table("t", {"s": np.array(["x"], dtype=object)})
        t.append_rows({"s": np.array(["yy"], dtype=object)})
        assert list(t.column("s")) == ["x", "yy"]


class TestBulkOps:
    @pytest.fixture
    def table(self):
        return Table("t", {"a": np.arange(10), "b": np.arange(10) * 2.0})

    def test_select_rows_mask(self, table):
        out = table.select_rows(table.column("a") >= 7)
        assert out.num_rows == 3

    def test_select_rows_indices(self, table):
        out = table.select_rows(np.array([0, 5]))
        np.testing.assert_array_equal(out.column("a"), [0, 5])

    def test_select_columns(self, table):
        out = table.select_columns(["b"])
        assert out.column_names == ["b"]

    def test_rename_shares_data(self, table):
        out = table.rename("t2")
        assert out.name == "t2"
        assert out.column("a") is table.column("a")

    def test_copy_is_deep(self, table):
        out = table.copy()
        out.column("a")[0] = 99
        assert table.column("a")[0] == 0

    def test_nbytes_positive(self, table):
        assert table.nbytes() >= 10 * 8 * 2


class TestRowStore:
    """Round-tripping through the row-major layout (section 7.4 ablation)."""

    def test_roundtrip(self):
        import numpy as np

        t = Table("t", {"a": np.arange(5, dtype=np.int64), "b": np.linspace(0, 1, 5)})
        rows = t.to_row_store()
        assert rows.dtype.names == ("a", "b")
        assert rows.dtype.itemsize == 16
        back = Table.from_row_store("t2", rows)
        np.testing.assert_array_equal(back.column("a"), t.column("a"))
        np.testing.assert_array_equal(back.column("b"), t.column("b"))

    def test_object_columns_rejected(self):
        import numpy as np

        t = Table("t", {"s": np.array(["x"], dtype=object)})
        with pytest.raises(ValueError):
            t.to_row_store()

    def test_from_row_store_requires_structured(self):
        import numpy as np

        with pytest.raises(ValueError):
            Table.from_row_store("t", np.zeros(3))

    def test_columns_are_contiguous_after_unpack(self):
        import numpy as np

        t = Table("t", {"a": np.arange(4, dtype=np.int64), "b": np.arange(4.0)})
        back = Table.from_row_store("t2", t.to_row_store())
        assert back.column("a").flags["C_CONTIGUOUS"]


class TestAmortizedAppend:
    """Ingest must be amortized-linear: capacity doubling, trimmed views."""

    def test_many_small_batches_amortized(self):
        import numpy as np

        t = Table("t", {"a": np.empty(0, dtype=np.int64)})
        grows = 0
        last_capacity = 0
        for i in range(200):
            t.append_rows({"a": np.array([i], dtype=np.int64)})
            capacity = len(t._columns["a"])
            if capacity != last_capacity:
                grows += 1
                last_capacity = capacity
        assert t.num_rows == 200
        # Doubling means O(log n) reallocations, not one per batch.
        assert grows <= 10
        np.testing.assert_array_equal(t.column("a"), np.arange(200))

    def test_trimmed_view_is_write_through(self):
        import numpy as np

        t = Table("t", {"a": np.arange(4, dtype=np.int64)})
        t.append_rows({"a": np.array([4], dtype=np.int64)})  # forces spare capacity
        view = t.column("a")
        assert len(view) == 5
        view[0] = 99
        assert t.column("a")[0] == 99  # same backing buffer

    def test_len_reports_logical_rows_not_capacity(self):
        import numpy as np

        t = Table("t", {"a": np.arange(3, dtype=np.int64)})
        t.append_rows({"a": np.arange(3, dtype=np.int64)})
        assert len(t) == 6
        assert t.num_rows == 6
        assert len(t.column("a")) == 6
        assert t.rows() == [(0,), (1,), (2,), (0,), (1,), (2,)]

    def test_concat_sees_only_live_rows(self):
        import numpy as np

        t = Table("t", {"a": np.arange(2, dtype=np.int64)})
        t.append_rows({"a": np.array([2], dtype=np.int64)})
        out = Table.concat("c", [t, t])
        np.testing.assert_array_equal(out.column("a"), [0, 1, 2, 0, 1, 2])
