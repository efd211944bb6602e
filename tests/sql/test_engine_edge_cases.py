"""Engine edge cases: strings, LIKE, NULLs, arithmetic, degenerate inputs."""

import numpy as np
import pytest

from repro.sql import Database, SqlError, Table


@pytest.fixture
def db():
    d = Database("LSST")
    d.create_table(
        Table(
            "stars",
            {
                "id": np.arange(6, dtype=np.int64),
                "name": np.array(
                    ["Vega", "Altair", "Deneb", "Vega-B", "Sirius", "Altair"],
                    dtype=object,
                ),
                "mag": np.array([0.03, 0.76, 1.25, np.nan, -1.46, 0.76]),
                "band": np.array(["V", "V", "B", "V", "B", "B"], dtype=object),
            },
        )
    )
    return d


class TestStrings:
    def test_string_equality(self, db):
        out = db.execute("SELECT id FROM stars WHERE name = 'Vega'")
        np.testing.assert_array_equal(out.column("id"), [0])

    def test_like_prefix(self, db):
        out = db.execute("SELECT COUNT(*) FROM stars WHERE name LIKE 'Vega%'")
        assert out.column("COUNT(*)")[0] == 2

    def test_like_single_char(self, db):
        out = db.execute("SELECT COUNT(*) FROM stars WHERE band LIKE '_'")
        assert out.column("COUNT(*)")[0] == 6

    def test_not_like(self, db):
        out = db.execute("SELECT COUNT(*) FROM stars WHERE name NOT LIKE '%a%'")
        # Names without an 'a': Deneb and Sirius.
        assert out.column("COUNT(*)")[0] == 2

    def test_like_case_insensitive(self, db):
        # MySQL's default collation is case-insensitive.
        out = db.execute("SELECT COUNT(*) FROM stars WHERE name LIKE 'vega%'")
        assert out.column("COUNT(*)")[0] == 2

    def test_group_by_string(self, db):
        out = db.execute("SELECT band, COUNT(*) AS n FROM stars GROUP BY band ORDER BY band")
        assert list(out.column("band")) == ["B", "V"]
        np.testing.assert_array_equal(out.column("n"), [3, 3])

    def test_order_by_string(self, db):
        out = db.execute("SELECT name FROM stars ORDER BY name LIMIT 2")
        assert list(out.column("name")) == ["Altair", "Altair"]

    def test_distinct_strings(self, db):
        out = db.execute("SELECT DISTINCT band FROM stars")
        assert sorted(out.column("band")) == ["B", "V"]

    def test_string_in_list(self, db):
        out = db.execute("SELECT COUNT(*) FROM stars WHERE name IN ('Vega', 'Sirius')")
        assert out.column("COUNT(*)")[0] == 2


class TestNullSemantics:
    def test_nan_never_equal(self, db):
        out = db.execute("SELECT COUNT(*) FROM stars WHERE mag = mag")
        # NaN != NaN: the NULL magnitude row drops out.
        assert out.column("COUNT(*)")[0] == 5

    def test_aggregates_skip_null(self, db):
        out = db.execute("SELECT COUNT(mag) AS c, AVG(mag) AS a FROM stars")
        assert out.column("c")[0] == 5
        assert out.column("a")[0] == pytest.approx(
            np.nanmean([0.03, 0.76, 1.25, -1.46, 0.76])
        )

    def test_sum_of_only_nulls_is_null(self, db):
        db.execute("CREATE TABLE n (x DOUBLE)")
        db.execute("INSERT INTO n VALUES (NULL), (NULL)")
        out = db.execute("SELECT SUM(x) AS s, COUNT(x) AS c FROM n")
        assert np.isnan(out.column("s")[0])
        assert out.column("c")[0] == 0

    def test_group_sum_mixed_null_groups(self, db):
        db.execute("CREATE TABLE g (k BIGINT, x DOUBLE)")
        db.execute("INSERT INTO g VALUES (1, 2.0), (1, NULL), (2, NULL)")
        out = db.execute("SELECT k, SUM(x) AS s FROM g GROUP BY k ORDER BY k")
        assert out.column("s")[0] == 2.0
        assert np.isnan(out.column("s")[1])


class TestArithmetic:
    def test_division_produces_float(self, db):
        out = db.execute("SELECT 7 / 2 AS x")
        assert out.column("x")[0] == pytest.approx(3.5)

    def test_division_by_zero_is_not_fatal(self, db):
        out = db.execute("SELECT id FROM stars WHERE 1 / (id - 2) > 0 AND id != 2")
        # Row id=2 divides by zero (inf/nan) but must not crash the scan.
        assert 3 in out.column("id")

    def test_modulo(self, db):
        out = db.execute("SELECT COUNT(*) FROM stars WHERE id % 2 = 0")
        assert out.column("COUNT(*)")[0] == 3

    def test_unary_minus_in_predicate(self, db):
        out = db.execute("SELECT COUNT(*) FROM stars WHERE mag < -1")
        assert out.column("COUNT(*)")[0] == 1

    def test_nested_parens(self, db):
        out = db.execute("SELECT ((id + 1) * 2) AS x FROM stars WHERE id = 3")
        assert out.column("x")[0] == 8

    def test_precedence_not_and(self, db):
        out = db.execute(
            "SELECT COUNT(*) FROM stars WHERE NOT band = 'B' AND id < 4"
        )
        # NOT binds to the comparison: bands != 'B' with id < 4 -> ids 0,1,3.
        assert out.column("COUNT(*)")[0] == 3


class TestDegenerateInputs:
    def test_empty_table_scan(self, db):
        db.execute("CREATE TABLE e (x DOUBLE)")
        out = db.execute("SELECT x FROM e WHERE x > 0 ORDER BY x LIMIT 5")
        assert out.num_rows == 0

    def test_empty_group_by(self, db):
        db.execute("CREATE TABLE e (k BIGINT, x DOUBLE)")
        out = db.execute("SELECT k, COUNT(*) FROM e GROUP BY k")
        assert out.num_rows == 0

    def test_limit_zero(self, db):
        out = db.execute("SELECT id FROM stars LIMIT 0")
        assert out.num_rows == 0

    def test_offset_beyond_end(self, db):
        out = db.execute("SELECT id FROM stars ORDER BY id LIMIT 10 OFFSET 100")
        assert out.num_rows == 0

    def test_where_always_false(self, db):
        out = db.execute("SELECT id FROM stars WHERE 1 = 2")
        assert out.num_rows == 0

    def test_where_constant_true(self, db):
        out = db.execute("SELECT COUNT(*) FROM stars WHERE 1 = 1")
        assert out.column("COUNT(*)")[0] == 6

    def test_select_same_column_twice(self, db):
        out = db.execute("SELECT id, id FROM stars WHERE id = 1")
        # MySQL-style duplicate output names get disambiguated.
        assert out.num_rows == 1
        assert len(out.column_names) == 2

    def test_single_row_table_aggregate(self, db):
        db.execute("CREATE TABLE one (x DOUBLE)")
        db.execute("INSERT INTO one VALUES (42.0)")
        out = db.execute("SELECT MIN(x) AS lo, MAX(x) AS hi, AVG(x) AS m FROM one")
        assert out.column("lo")[0] == out.column("hi")[0] == out.column("m")[0] == 42.0


class TestAmbiguity:
    def test_ambiguous_column_rejected(self, db):
        db.execute("CREATE TABLE s2 AS SELECT id, name FROM stars")
        with pytest.raises(Exception, match="ambiguous"):
            db.execute("SELECT id FROM stars, s2 WHERE stars.id = s2.id")

    def test_qualified_resolution_works(self, db):
        db.execute("CREATE TABLE s3 AS SELECT id, name FROM stars")
        out = db.execute(
            "SELECT stars.id FROM stars, s3 WHERE stars.id = s3.id AND stars.id = 2"
        )
        assert out.num_rows == 1


class TestOrderByStringsDesc:
    def test_descending_strings(self, db):
        out = db.execute("SELECT name FROM stars ORDER BY name DESC LIMIT 2")
        assert list(out.column("name")) == ["Vega-B", "Vega"]

    def test_mixed_keys_string_then_number(self, db):
        out = db.execute("SELECT band, mag FROM stars ORDER BY band, mag")
        bands = list(out.column("band"))
        assert bands == sorted(bands)


class TestMinMaxNullSkipping:
    """Regression: MIN/MAX must skip NULLs like MySQL (found by the
    distributed-equivalence fuzzer: empty chunks contribute NULL
    partials that must not poison the merge)."""

    def test_min_skips_nan(self, db):
        out = db.execute("SELECT MIN(mag) AS lo, MAX(mag) AS hi FROM stars")
        assert out.column("lo")[0] == pytest.approx(-1.46)
        assert out.column("hi")[0] == pytest.approx(1.25)

    def test_min_of_only_nulls_is_null(self, db):
        db.execute("CREATE TABLE m (x DOUBLE)")
        db.execute("INSERT INTO m VALUES (NULL), (NULL)")
        out = db.execute("SELECT MIN(x) AS lo, MAX(x) AS hi FROM m")
        assert np.isnan(out.column("lo")[0])
        assert np.isnan(out.column("hi")[0])

    def test_grouped_min_with_null_groups(self, db):
        db.execute("CREATE TABLE gm (k BIGINT, x DOUBLE)")
        db.execute("INSERT INTO gm VALUES (1, 5.0), (1, NULL), (2, NULL)")
        out = db.execute("SELECT k, MIN(x) AS lo FROM gm GROUP BY k ORDER BY k")
        assert out.column("lo")[0] == 5.0
        assert np.isnan(out.column("lo")[1])


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "interpreter"])
class TestOneNullFormAndDescendingOrder:
    """A key of any type orders descending; a NULL has one stored form and
    goes only into columns that hold one."""

    def test_bool_key_descending(self, kernels):
        d = Database(use_kernels=kernels)
        d.create_table(Table("T", {"b": np.array([False, True, False, True]), "i": np.arange(4)}))
        out = d.execute("SELECT b, i FROM T ORDER BY b DESC, i")
        assert out.rows() == [(True, 1), (True, 3), (False, 0), (False, 2)]
        out = d.execute("SELECT b, i FROM T ORDER BY b, i DESC")
        assert out.rows() == [(False, 2), (False, 0), (True, 3), (True, 1)]

    def test_int_key_descending_from_its_minimum(self, kernels):
        low = np.iinfo(np.int64).min
        d = Database(use_kernels=kernels)
        d.create_table(Table("T", {"k": np.array([3, low, 0, -1])}))
        assert d.execute("SELECT k FROM T ORDER BY k DESC").rows() == [(3,), (0,), (-1,), (low,)]

    def test_null_into_a_column_that_holds_none_is_an_error(self, kernels):
        d = Database(use_kernels=kernels)
        d.execute("CREATE TABLE U (a INT, b INT, f BOOL, x DOUBLE, s VARCHAR(8))")
        for row in ("(0, NULL, 1, 1.0, 'a')", "(0, 1, NULL, 1.0, 'a')"):
            with pytest.raises(SqlError, match="holds no NULL"):
                d.execute(f"INSERT INTO U VALUES {row}")
        assert d.get_table("U").num_rows == 0
        d.execute("INSERT INTO U VALUES (0, 1, 1, NULL, NULL)")
        assert d.execute("SELECT COUNT(*) AS n FROM U WHERE x IS NULL AND s IS NULL").rows() == [(1,)]

    def test_none_in_a_text_column_is_a_null_everywhere(self, kernels):
        d = Database(use_kernels=kernels)
        s = np.array(["a", None, "b", None, "a"], dtype=object)
        d.create_table(Table("S", {"s": s, "x": np.arange(5.0)}))
        assert s[1] is None  # the caller's array is not written to
        out = d.execute("SELECT s, COUNT(*) AS n, SUM(x) AS t FROM S GROUP BY s ORDER BY n DESC, t")
        rows = out.rows()
        assert [r[1:] for r in rows] == [(2, 4.0), (2, 4.0), (1, 2.0)]
        assert rows[2][0] == "b" and {rows[0][0], rows[1][0]} - {"a"} != set()
        assert d.execute("SELECT COUNT(*) AS n FROM S WHERE s IS NULL").rows() == [(2,)]
        assert d.execute("SELECT COUNT(DISTINCT s) AS n FROM S").rows() == [(2,)]
        t = d.get_table("S")
        t.append_rows({"s": np.array([None], dtype=object), "x": np.array([9.0])})
        assert d.execute("SELECT COUNT(*) AS n FROM S WHERE s IS NULL").rows() == [(3,)]
        assert d.execute("SELECT COUNT(*) AS n FROM S GROUP BY s").num_rows == 3
