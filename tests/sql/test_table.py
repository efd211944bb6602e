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


class TestRowView:
    """A lazy view of some rows is the eager ``select_rows`` of them."""

    @pytest.fixture()
    def parent(self):
        rng = np.random.default_rng(4)
        n = 50
        flux = rng.uniform(0.0, 1.0, n)
        flux[::7] = np.nan
        return Table(
            "Object_7",
            {
                "objectId": np.arange(n, dtype=np.int64),
                "ra_PS": rng.uniform(0.0, 360.0, n),
                "uFlux_PS": flux,
                "flag": rng.integers(0, 2, n).astype(bool),
                "band": np.array(list("ugriz") * (n // 5), dtype=object),
            },
        )

    ROWS = [
        np.array([41, 3, 3, 17, 0, 49]),  # any order, repeats allowed
        np.array([], dtype=np.intp),
        np.arange(50),
    ]

    @pytest.mark.parametrize("rows", ROWS, ids=["some", "none", "all"])
    def test_equals_select_rows(self, parent, rows):
        from repro.sql.table import RowView
        from repro.sql.wire import decode_table, encode_table

        view = RowView("Object_7_3", parent, rows)
        eager = parent.select_rows(rows).rename("Object_7_3")

        def same(a, b):
            assert a.name == b.name and a.column_names == b.column_names
            assert a.num_rows == b.num_rows == len(a)
            for name in b.column_names:
                assert a.column(name).dtype == b.column(name).dtype
                np.testing.assert_array_equal(a.column(name), b.column(name))

        same(view, eager)
        assert list(view.columns()) == list(eager.columns())
        assert view.signature() == eager.signature() == parent.signature()
        assert view.schema() == eager.schema()
        assert "ra_PS" in view and "nope" not in view
        assert [r[:2] for r in view.rows()] == [r[:2] for r in eager.rows()]
        if len(rows):
            assert view.row(0)[:2] == eager.row(0)[:2]
        same(view.rename("Other_1"), eager.rename("Other_1"))
        pick = np.arange(view.num_rows)[::2]
        same(view.select_rows(pick), eager.select_rows(pick))
        same(view.select_columns(["band", "objectId"]), eager.select_columns(["band", "objectId"]))
        same(Table.concat("c", [view, eager, view]), Table.concat("c", [eager, eager, eager]))
        same(view.copy(), eager.copy())
        assert view.nbytes() == eager.nbytes()
        assert encode_table(view, "chunk_result") == encode_table(eager, "chunk_result")
        same(decode_table(encode_table(view)), eager)

    def test_each_column_is_gathered_once_and_only_when_read(self, parent):
        from repro.sql.table import RowView

        reads = []
        real = parent.column
        parent.column = lambda name: reads.append(name) or real(name)
        view = RowView("Object_7_3", parent, np.array([5, 6, 7]))
        assert view.num_rows == 3 and view.column_names == parent.column_names
        assert view.signature() is parent.signature()
        assert reads == []  # building and describing a view reads nothing
        first = view.column("ra_PS")
        assert view.column("ra_PS") is first
        view.column("objectId"), view.column("ra_PS")
        assert reads == ["ra_PS", "objectId"]
        view.columns()
        assert sorted(reads) == sorted(parent.column_names)

    def test_unknown_column_names_the_view(self, parent):
        from repro.sql.table import RowView

        with pytest.raises(KeyError, match="no column 'nope' in table 'Object_7_3'"):
            RowView("Object_7_3", parent, np.array([1])).column("nope")

    def test_a_view_is_read_only(self, parent):
        from repro.sql.table import RowView

        view = RowView("Object_7_3", parent, np.array([1, 2]))
        with pytest.raises(TypeError, match="read-only view"):
            view.append_rows({n: a[:1] for n, a in parent.columns().items()})
        # It holds copies: writing to them never reaches the parent.
        view.column("ra_PS")[:] = -1.0
        assert parent.column("ra_PS").min() >= 0.0

    def test_survives_its_parent_being_replaced_or_dropped(self, parent):
        # A repair re-installs the chunk table (create_table overwrite)
        # while a query still holds sub-chunk views cut from the old one.
        from repro.sql.engine import Database
        from repro.sql.table import RowView

        db = Database("LSST")
        db.create_table(parent)
        rows = np.array([10, 20, 30])
        view = RowView("Object_7_3", db.get_table("Object_7"), rows)
        db.create_table(view)
        expected = parent.select_rows(rows)
        replacement = parent.select_rows(np.arange(5)).copy()
        replacement.column("objectId")[:] += 1000
        db.create_table(replacement, overwrite=True)
        np.testing.assert_array_equal(view.column("objectId"), expected.column("objectId"))
        db.drop_table("Object_7")
        np.testing.assert_array_equal(view.column("band"), expected.column("band"))
        assert db.execute("SELECT COUNT(*) AS n FROM Object_7_3").rows() == [(3,)]

    def test_view_of_an_mmap_table(self, parent, tmp_path):
        from repro.sql.colstore import ColumnStore
        from repro.sql.table import RowView

        stored = ColumnStore(tmp_path).save_table(parent, "Object_7")
        rows = np.array([4, 2, 40])
        view = RowView("Object_7_3", stored, rows)
        assert view.signature() == stored.signature()
        for name in parent.column_names:
            np.testing.assert_array_equal(view.column(name), parent.column(name)[rows])
            assert type(view.column(name)) is np.ndarray  # in RAM, not a memmap
