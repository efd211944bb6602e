"""Tests for the SQL query executor."""

import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.sql import Database, SqlError, Table


@pytest.fixture
def db():
    d = Database("LSST")
    d.create_table(
        Table(
            "Object",
            {
                "objectId": np.arange(100, dtype=np.int64),
                "ra_PS": np.linspace(0, 9.9, 100),
                "decl_PS": np.linspace(-5, 4.9, 100),
                "zFlux_PS": np.geomspace(1e-7, 1e-4, 100),
                "gFlux_PS": np.geomspace(2e-7, 1e-4, 100),
                "chunkId": np.repeat(np.arange(10, dtype=np.int64), 10),
            },
        )
    )
    d.create_table(
        Table(
            "Source",
            {
                "sourceId": np.arange(300, dtype=np.int64),
                "objectId": np.repeat(np.arange(100, dtype=np.int64), 3),
                "taiMidPoint": np.tile(np.array([1.0, 2.0, 3.0]), 100),
                "psfFlux": np.geomspace(1e-8, 1e-4, 300),
            },
        )
    )
    return d


class TestBasicSelect:
    def test_select_star(self, db):
        out = db.execute("SELECT * FROM Object")
        assert out.num_rows == 100
        assert out.column_names[0] == "objectId"

    def test_select_columns(self, db):
        out = db.execute("SELECT ra_PS, decl_PS FROM Object")
        assert out.column_names == ["ra_PS", "decl_PS"]

    def test_where_equality(self, db):
        out = db.execute("SELECT * FROM Object WHERE objectId = 42")
        assert out.num_rows == 1
        assert out.column("objectId")[0] == 42

    def test_where_between(self, db):
        out = db.execute("SELECT objectId FROM Object WHERE ra_PS BETWEEN 1 AND 2")
        ra = np.linspace(0, 9.9, 100)
        assert out.num_rows == np.count_nonzero((ra >= 1) & (ra <= 2))

    def test_where_and_or(self, db):
        out = db.execute(
            "SELECT objectId FROM Object WHERE objectId < 5 OR objectId >= 95 AND ra_PS > 9"
        )
        # AND binds tighter: id<5 (5 rows) OR (id>=95 AND ra>9) (rows 95..99 have ra 9.4+).
        assert out.num_rows == 10

    def test_in_list(self, db):
        out = db.execute("SELECT objectId FROM Object WHERE objectId IN (3, 5, 7)")
        np.testing.assert_array_equal(np.sort(out.column("objectId")), [3, 5, 7])

    def test_not_in(self, db):
        out = db.execute("SELECT COUNT(*) FROM Object WHERE objectId NOT IN (3, 5)")
        assert out.column("COUNT(*)")[0] == 98

    def test_expression_projection(self, db):
        out = db.execute("SELECT objectId * 2 AS dbl FROM Object WHERE objectId = 3")
        assert out.column("dbl")[0] == 6

    def test_function_in_where(self, db):
        out = db.execute(
            "SELECT COUNT(*) FROM Object WHERE fluxToAbMag(zFlux_PS) BETWEEN 21 AND 22"
        )
        mags = -2.5 * np.log10(np.geomspace(1e-7, 1e-4, 100)) + 8.9
        assert out.column("COUNT(*)")[0] == np.count_nonzero((mags >= 21) & (mags <= 22))

    def test_select_literal(self, db):
        out = db.execute("SELECT 1 + 2 AS three")
        assert out.column("three")[0] == 3

    def test_unknown_table(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM Nope")

    def test_unknown_column(self, db):
        with pytest.raises(Exception):
            db.execute("SELECT nope FROM Object")

    def test_db_qualified_table(self, db):
        out = db.execute("SELECT COUNT(*) FROM LSST.Object")
        assert out.column("COUNT(*)")[0] == 100

    def test_wrong_db_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM OTHER.Object")


class TestAggregation:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM Object").column("COUNT(*)")[0] == 100

    def test_count_star_empty(self, db):
        out = db.execute("SELECT COUNT(*) FROM Object WHERE objectId < 0")
        assert out.column("COUNT(*)")[0] == 0

    def test_sum_avg(self, db):
        out = db.execute("SELECT SUM(objectId) AS s, AVG(objectId) AS a FROM Object")
        assert out.column("s")[0] == 4950
        assert out.column("a")[0] == pytest.approx(49.5)

    def test_min_max(self, db):
        out = db.execute("SELECT MIN(ra_PS) AS lo, MAX(ra_PS) AS hi FROM Object")
        assert out.column("lo")[0] == 0.0
        assert out.column("hi")[0] == pytest.approx(9.9)

    def test_avg_of_empty_is_nan(self, db):
        out = db.execute("SELECT AVG(ra_PS) AS a FROM Object WHERE objectId < 0")
        assert np.isnan(out.column("a")[0])

    def test_group_by(self, db):
        out = db.execute(
            "SELECT chunkId, COUNT(*) AS n, AVG(ra_PS) FROM Object GROUP BY chunkId"
        )
        assert out.num_rows == 10
        np.testing.assert_array_equal(out.column("n"), np.full(10, 10))

    def test_group_by_expression(self, db):
        out = db.execute("SELECT objectId % 7 AS g, COUNT(*) FROM Object GROUP BY objectId % 7")
        assert out.num_rows == 7

    def test_group_by_multiple_keys(self, db):
        out = db.execute(
            "SELECT chunkId, objectId % 2 AS par, COUNT(*) AS n FROM Object "
            "GROUP BY chunkId, objectId % 2"
        )
        assert out.num_rows == 20
        assert out.column("n").sum() == 100

    def test_having(self, db):
        out = db.execute(
            "SELECT chunkId, SUM(objectId) AS s FROM Object GROUP BY chunkId "
            "HAVING SUM(objectId) > 700"
        )
        # Sum per chunk: 45, 145, ..., 945 -> chunks with sum > 700: 745, 845, 945.
        assert out.num_rows == 3

    def test_aggregate_arithmetic(self, db):
        # The two-phase AVG merge pattern: SUM(x)/COUNT(x).
        out = db.execute(
            "SELECT SUM(ra_PS) / COUNT(ra_PS) AS m, AVG(ra_PS) AS a FROM Object"
        )
        assert out.column("m")[0] == pytest.approx(out.column("a")[0])

    def test_count_distinct(self, db):
        out = db.execute("SELECT COUNT(DISTINCT chunkId) AS n FROM Object")
        assert out.column("n")[0] == 10

    def test_count_column_skips_nan(self, db):
        db.execute("CREATE TABLE n (x DOUBLE)")
        db.execute("INSERT INTO n VALUES (1.0), (NULL), (3.0)")
        out = db.execute("SELECT COUNT(x) AS c, SUM(x) AS s FROM n")
        assert out.column("c")[0] == 2
        assert out.column("s")[0] == pytest.approx(4.0)

    def test_group_key_in_projection(self, db):
        out = db.execute("SELECT chunkId FROM Object GROUP BY chunkId")
        assert sorted(out.column("chunkId")) == list(range(10))

    def test_min_max_star_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT MAX(*) FROM Object")


class TestJoins:
    def test_equi_join(self, db):
        out = db.execute(
            "SELECT o.objectId, s.sourceId FROM Object o, Source s "
            "WHERE o.objectId = s.objectId"
        )
        assert out.num_rows == 300

    def test_explicit_join_on(self, db):
        out = db.execute(
            "SELECT COUNT(*) FROM Object o JOIN Source s ON o.objectId = s.objectId"
        )
        assert out.column("COUNT(*)")[0] == 300

    def test_join_with_filter(self, db):
        out = db.execute(
            "SELECT s.taiMidPoint FROM Object o, Source s "
            "WHERE o.objectId = s.objectId AND o.objectId = 4"
        )
        assert out.num_rows == 3

    def test_join_column_qualification(self, db):
        out = db.execute(
            "SELECT o.objectId AS oid, s.objectId AS sid FROM Object o, Source s "
            "WHERE o.objectId = s.objectId AND o.objectId < 2"
        )
        np.testing.assert_array_equal(out.column("oid"), out.column("sid"))

    def test_self_join(self, db):
        out = db.execute(
            "SELECT COUNT(*) FROM Object o1, Object o2 "
            "WHERE o1.objectId = o2.objectId"
        )
        assert out.column("COUNT(*)")[0] == 100

    def test_cross_join_small(self, db):
        db.execute("CREATE TABLE tiny AS SELECT objectId FROM Object WHERE objectId < 3")
        out = db.execute("SELECT COUNT(*) FROM tiny t1, tiny t2")
        assert out.column("COUNT(*)")[0] == 9

    def test_cross_join_too_big_rejected(self, db):
        big = Table("big", {"x": np.zeros(10_000, dtype=np.int64)})
        db.create_table(big)
        with pytest.raises(SqlError, match="cross join"):
            db.execute("SELECT COUNT(*) FROM big b1, big b2")

    def test_near_neighbor_style_join(self, db):
        """The SHV1 shape: spatial cross join with an angSep predicate."""
        db.execute(
            "CREATE TABLE patch AS SELECT objectId, ra_PS, decl_PS FROM Object "
            "WHERE objectId < 30"
        )
        out = db.execute(
            "SELECT COUNT(*) FROM patch o1, patch o2 "
            "WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.2 "
            "AND o1.objectId != o2.objectId"
        )
        # Points are on a line 0.1 deg apart in ra, 0.1 in dec -> ~0.141 apart:
        # each point pairs with its 2 neighbors (edges have 1).
        assert out.column("COUNT(*)")[0] == 2 * 29

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM Object o, Source o")


class TestOrderLimit:
    def test_order_asc(self, db):
        out = db.execute("SELECT objectId FROM Object ORDER BY objectId")
        np.testing.assert_array_equal(out.column("objectId"), np.arange(100))

    def test_order_desc(self, db):
        out = db.execute("SELECT objectId FROM Object ORDER BY objectId DESC LIMIT 3")
        np.testing.assert_array_equal(out.column("objectId"), [99, 98, 97])

    def test_order_by_alias(self, db):
        out = db.execute("SELECT objectId * -1 AS neg FROM Object ORDER BY neg LIMIT 2")
        np.testing.assert_array_equal(out.column("neg"), [-99, -98])

    def test_order_by_position(self, db):
        out = db.execute("SELECT ra_PS, objectId FROM Object ORDER BY 2 DESC LIMIT 1")
        assert out.column("objectId")[0] == 99

    def test_order_by_expression(self, db):
        out = db.execute("SELECT objectId FROM Object ORDER BY objectId % 10, objectId LIMIT 3")
        np.testing.assert_array_equal(out.column("objectId"), [0, 10, 20])

    def test_order_multiple_keys(self, db):
        out = db.execute(
            "SELECT chunkId, objectId FROM Object ORDER BY chunkId DESC, objectId ASC LIMIT 2"
        )
        np.testing.assert_array_equal(out.column("objectId"), [90, 91])

    def test_limit(self, db):
        assert db.execute("SELECT * FROM Object LIMIT 7").num_rows == 7

    def test_limit_offset(self, db):
        out = db.execute("SELECT objectId FROM Object ORDER BY objectId LIMIT 5 OFFSET 10")
        np.testing.assert_array_equal(out.column("objectId"), [10, 11, 12, 13, 14])

    def test_order_by_group_result(self, db):
        out = db.execute(
            "SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId ORDER BY chunkId DESC"
        )
        assert out.column("chunkId")[0] == 9

    def test_order_position_out_of_range(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT objectId FROM Object ORDER BY 5")


class TestDistinct:
    def test_distinct_single(self, db):
        out = db.execute("SELECT DISTINCT chunkId FROM Object")
        assert out.num_rows == 10

    def test_distinct_pairs(self, db):
        out = db.execute("SELECT DISTINCT chunkId, objectId % 2 FROM Object")
        assert out.num_rows == 20

    def test_distinct_empty(self, db):
        out = db.execute("SELECT DISTINCT chunkId FROM Object WHERE objectId < 0")
        assert out.num_rows == 0


class TestDdlDml:
    def test_create_insert_select(self, db):
        db.execute("CREATE TABLE t (a BIGINT, b DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5)")
        out = db.execute("SELECT SUM(b) AS s FROM t")
        assert out.column("s")[0] == pytest.approx(4.0)

    def test_create_duplicate_rejected(self, db):
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(SqlError):
            db.execute("CREATE TABLE t (a INT)")

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")  # no error

    def test_create_as_select(self, db):
        db.execute("CREATE TABLE bright AS SELECT * FROM Object WHERE objectId < 10")
        assert db.execute("SELECT COUNT(*) FROM bright").column("COUNT(*)")[0] == 10

    def test_drop(self, db):
        db.execute("CREATE TABLE t (a INT)")
        db.execute("DROP TABLE t")
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM t")

    def test_drop_missing(self, db):
        with pytest.raises(SqlError):
            db.execute("DROP TABLE nope")
        db.execute("DROP TABLE IF EXISTS nope")  # no error

    def test_insert_negative_values(self, db):
        db.execute("CREATE TABLE t (a DOUBLE)")
        db.execute("INSERT INTO t VALUES (-1.5)")
        assert db.execute("SELECT a FROM t").column("a")[0] == -1.5

    def test_insert_null(self, db):
        db.execute("CREATE TABLE t (a DOUBLE)")
        db.execute("INSERT INTO t VALUES (NULL)")
        assert np.isnan(db.execute("SELECT a FROM t").column("a")[0])

    def test_insert_string(self, db):
        db.execute("CREATE TABLE t (s VARCHAR(10))")
        db.execute("INSERT INTO t VALUES ('hello')")
        assert db.execute("SELECT s FROM t").column("s")[0] == "hello"

    def test_insert_row_width_mismatch(self, db):
        db.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(SqlError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_multi_statement_returns_last_select(self, db):
        out = db.execute("CREATE TABLE t (a INT); INSERT INTO t VALUES (5); SELECT a FROM t")
        assert out.column("a")[0] == 5


class TestIndexFastPath:
    def test_indexed_equality_same_answer(self, db):
        plain = db.execute("SELECT * FROM Object WHERE objectId = 42")
        db.create_index("Object", "objectId")
        assert db.has_index("Object", "objectId")
        indexed = db.execute("SELECT * FROM Object WHERE objectId = 42")
        assert plain.rows() == indexed.rows()

    def test_indexed_with_extra_predicates(self, db):
        db.create_index("Object", "objectId")
        out = db.execute("SELECT * FROM Object WHERE objectId = 42 AND ra_PS > 100")
        assert out.num_rows == 0

    def test_index_invalidated_on_insert(self, db):
        db.execute("CREATE TABLE t (a BIGINT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.create_index("t", "a")
        db.execute("INSERT INTO t VALUES (1)")
        out = db.execute("SELECT COUNT(*) FROM t WHERE a = 1")
        assert out.column("COUNT(*)")[0] == 2

    def test_index_dropped_with_table(self, db):
        db.execute("CREATE TABLE t (a BIGINT)")
        db.create_index("t", "a")
        db.execute("DROP TABLE t")
        assert not db.has_index("t", "a")


class TestNullHandling:
    def test_is_null(self, db):
        db.execute("CREATE TABLE t (x DOUBLE)")
        db.execute("INSERT INTO t VALUES (1.0), (NULL)")
        out = db.execute("SELECT COUNT(*) FROM t WHERE x IS NULL")
        assert out.column("COUNT(*)")[0] == 1

    def test_is_not_null(self, db):
        db.execute("CREATE TABLE t (x DOUBLE)")
        db.execute("INSERT INTO t VALUES (1.0), (NULL), (2.0)")
        out = db.execute("SELECT COUNT(*) FROM t WHERE x IS NOT NULL")
        assert out.column("COUNT(*)")[0] == 2


class TestTextNulls:
    """``IS NULL`` over a VARCHAR column, whose NULL is stored as NaN in an object array.

    Against stdlib ``sqlite3``, kernels on and off: on one table, and as
    a join's one-sided and two-sided conjunct (which a join kernel runs
    as a side stage and a pair stage).
    """

    ROWS = [("x", 1, 1), (None, 2, 1), ("y", 3, 2), (None, 4, 2)]

    @pytest.fixture(params=[True, False], ids=["kernels", "interpreter"])
    def both(self, request):
        d = Database(use_kernels=request.param)
        d.execute("CREATE TABLE T (k VARCHAR(8), v INT, g INT)")
        d.execute("INSERT INTO T VALUES ('x', 1, 1), (NULL, 2, 1), ('y', 3, 2), (NULL, 4, 2)")
        reference = sqlite3.connect(":memory:")
        reference.execute("CREATE TABLE T (k VARCHAR(8), v INTEGER, g INTEGER)")
        reference.executemany("INSERT INTO T VALUES (?, ?, ?)", self.ROWS)
        yield d, reference
        reference.close()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) FROM T WHERE k IS NULL",
            "SELECT COUNT(*) FROM T WHERE k IS NOT NULL",
            "SELECT v FROM T WHERE k IS NULL OR v = 3",
            "SELECT a.v, b.v FROM T a, T b WHERE a.g = b.g AND a.k IS NULL",
            "SELECT a.v, b.v FROM T a, T b WHERE a.g = b.g AND b.k IS NOT NULL",
            "SELECT a.v, b.v FROM T a, T b WHERE a.g = b.g AND (a.k IS NULL OR b.k IS NULL)",
            "SELECT COUNT(*) FROM T a, T b WHERE a.g = b.g AND (a.k IS NOT NULL) = (b.k IS NULL)",
        ],
    )
    def test_is_null_answers_what_sqlite_answers(self, both, sql):
        from repro.sql.parser import parse

        d, reference = both
        (sel,) = parse(sql)
        runs = obs_metrics.REGISTRY.snapshot().get("kernel.executions", 0)
        result = d.select(sel)
        runs = obs_metrics.REGISTRY.snapshot().get("kernel.executions", 0) - runs
        assert runs == int(d.use_kernels), "a kernel must answer with kernels on"
        assert _rows(result) == sorted(reference.execute(sql).fetchall())


class TestTextNullKeys:
    """A VARCHAR NULL as a key: one rule for sorting, grouping and matching.

    NULL sorts last (where a float NULL sorts) and every NULL is one
    group; MIN/MAX and COUNT skip NULLs; a NULL join key matches
    nothing.  Against stdlib ``sqlite3``, kernels on and off; ``sqlite``
    names NULLS LAST where the engine's order is the thing compared.
    """

    ROWS = [("x", 1, 1), (None, 2, 1), ("y", 3, 2), (None, 4, 2), ("x", 5, 2), ("", 6, 3)]

    @pytest.fixture(params=[True, False], ids=["kernels", "interpreter"])
    def both(self, request):
        d = Database(use_kernels=request.param)
        d.execute("CREATE TABLE T (k VARCHAR(8), v INT, g INT)")
        d.execute(
            "INSERT INTO T VALUES ('x', 1, 1), (NULL, 2, 1), ('y', 3, 2), (NULL, 4, 2), "
            "('x', 5, 2), ('', 6, 3)"
        )
        reference = sqlite3.connect(":memory:")
        reference.execute("CREATE TABLE T (k VARCHAR(8), v INTEGER, g INTEGER)")
        reference.executemany("INSERT INTO T VALUES (?, ?, ?)", self.ROWS)
        yield d, reference
        reference.close()

    @staticmethod
    def rows(result) -> list:
        """Rows as Python values, a NULL (NaN, in any column) as None."""
        return [
            tuple(None if v != v else v.item() if hasattr(v, "item") else v for v in row)
            for row in result.rows()
        ]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT k, COUNT(*) FROM T GROUP BY k",
            "SELECT g, k, SUM(v) FROM T GROUP BY g, k",
            "SELECT MIN(k), MAX(k) FROM T",
            "SELECT g, MIN(k), MAX(k) FROM T GROUP BY g",
            "SELECT COUNT(k), COUNT(DISTINCT k) FROM T",
            "SELECT g, COUNT(DISTINCT k) FROM T GROUP BY g",
            "SELECT DISTINCT k FROM T",
            "SELECT a.v, b.v FROM T a, T b WHERE a.k = b.k",
            "SELECT a.v, b.v FROM T a JOIN T b ON a.k = b.k AND a.g = b.g",
        ],
    )
    def test_answers_what_sqlite_answers(self, both, sql):
        d, reference = both
        key = lambda row: tuple((v is None, v) for v in row)  # noqa: E731
        got = sorted(self.rows(d.execute(sql)), key=key)
        assert got == sorted(reference.execute(sql).fetchall(), key=key)

    @pytest.mark.parametrize(
        "sql, nulls_last",
        [
            ("SELECT k, v FROM T ORDER BY k, v", "SELECT k, v FROM T ORDER BY k NULLS LAST, v"),
            (
                "SELECT k, v FROM T ORDER BY k DESC, v DESC",
                "SELECT k, v FROM T ORDER BY k DESC NULLS LAST, v DESC",
            ),
            (
                "SELECT g, k FROM T ORDER BY g, k DESC",
                "SELECT g, k FROM T ORDER BY g, k DESC NULLS LAST",
            ),
        ],
    )
    def test_order_puts_null_last(self, both, sql, nulls_last):
        d, reference = both
        assert self.rows(d.execute(sql)) == reference.execute(nulls_last).fetchall()


class TestNumbersIntoText:
    """A number inserted into a VARCHAR column is stored as its text, as sqlite stores it.

    So ``1`` and ``'1'`` are one value, and every key of the column is
    a string or NULL: grouping, ordering and MIN/MAX compare strings.
    """

    VALUES = "(1, 1), ('1', 2), (2.5, 3), ('2.5', 4), (NULL, 5), (-3, 6), ('x', 7), (10, 8)"

    @pytest.fixture(params=[True, False], ids=["kernels", "interpreter"])
    def both(self, request):
        d = Database(use_kernels=request.param)
        reference = sqlite3.connect(":memory:")
        for db, int_type in ((d, "INT"), (reference, "INTEGER")):
            db.execute(f"CREATE TABLE T (k VARCHAR(8), v {int_type})")
            db.execute(f"INSERT INTO T VALUES {self.VALUES}")
        yield d, reference
        reference.close()

    def test_stored_as_text(self, both):
        d, reference = both
        stored = list(d.get_table("T").column("k"))
        assert stored[:4] + stored[5:] == [r for (r,) in reference.execute(
            "SELECT k FROM T WHERE k IS NOT NULL ORDER BY v"
        )]
        assert all(isinstance(k, str) for k in stored[:4] + stored[5:])

    @pytest.mark.parametrize(
        "sql, nulls_last",
        [
            ("SELECT k, COUNT(*), SUM(v) FROM T GROUP BY k ORDER BY k",
             "SELECT k, COUNT(*), SUM(v) FROM T GROUP BY k ORDER BY k NULLS LAST"),
            ("SELECT DISTINCT k FROM T ORDER BY k DESC",
             "SELECT DISTINCT k FROM T ORDER BY k DESC NULLS LAST"),
            ("SELECT k, v FROM T ORDER BY k, v DESC",
             "SELECT k, v FROM T ORDER BY k NULLS LAST, v DESC"),
            ("SELECT MIN(k), MAX(k), COUNT(k), COUNT(DISTINCT k) FROM T", None),
        ],
    )
    def test_answers_what_sqlite_answers(self, both, sql, nulls_last):
        d, reference = both
        expected = reference.execute(nulls_last or sql).fetchall()
        assert TestTextNullKeys.rows(d.execute(sql)) == expected


class TestProperties:
    """Metamorphic invariants over randomized data."""

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_count_matches_numpy(self, n, threshold):
        rng = np.random.default_rng(n)
        vals = rng.integers(0, 100, n)
        d = Database()
        d.create_table(Table("t", {"x": vals}))
        out = d.execute(f"SELECT COUNT(*) FROM t WHERE x < {threshold}")
        assert out.column("COUNT(*)")[0] == np.count_nonzero(vals < threshold)

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_group_counts_sum_to_total(self, n):
        rng = np.random.default_rng(n + 1)
        d = Database()
        d.create_table(Table("t", {"g": rng.integers(0, 7, n), "x": rng.random(n)}))
        out = d.execute("SELECT g, COUNT(*) AS c FROM t GROUP BY g")
        assert out.column("c").sum() == n

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_two_phase_avg_equals_direct_avg(self, n):
        """The paper's AVG rewrite (section 5.3) is exact on any split."""
        rng = np.random.default_rng(n + 2)
        vals = rng.random(n) * 100
        half = n // 2
        d = Database()
        d.create_table(Table("c0", {"x": vals[:half]}))
        d.create_table(Table("c1", {"x": vals[half:]}))
        d.create_table(Table("t", {"x": vals}))
        partials = []
        for chunk in ("c0", "c1"):
            r = d.execute(f"SELECT SUM(x) AS s, COUNT(x) AS c FROM {chunk}")
            partials.append((r.column("s")[0], r.column("c")[0]))
        merged = sum(s for s, _ in partials) / sum(c for _, c in partials)
        direct = d.execute("SELECT AVG(x) AS a FROM t").column("a")[0]
        assert merged == pytest.approx(direct, rel=1e-12)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_limit_never_exceeds(self, n, limit):
        rng = np.random.default_rng(n + 3)
        d = Database()
        d.create_table(Table("t", {"x": rng.random(n)}))
        out = d.execute(f"SELECT x FROM t LIMIT {limit}")
        assert out.num_rows == min(n, limit)

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_order_by_is_sorted(self, n):
        rng = np.random.default_rng(n + 4)
        d = Database()
        d.create_table(Table("t", {"x": rng.random(n)}))
        out = d.execute("SELECT x FROM t ORDER BY x")
        assert np.all(np.diff(out.column("x")) >= 0)


class TestIndexInListFastPath:
    def test_in_list_uses_index(self, db):
        db.create_index("Object", "objectId")
        out = db.execute("SELECT objectId FROM Object WHERE objectId IN (3, 5, 7)")
        assert sorted(int(v) for v in out.column("objectId")) == [3, 5, 7]

    def test_in_list_with_misses(self, db):
        db.create_index("Object", "objectId")
        out = db.execute("SELECT objectId FROM Object WHERE objectId IN (3, 99999)")
        assert [int(v) for v in out.column("objectId")] == [3]

    def test_in_list_with_extra_predicate(self, db):
        db.create_index("Object", "objectId")
        out = db.execute(
            "SELECT objectId FROM Object WHERE objectId IN (3, 5, 7) AND objectId > 4"
        )
        assert sorted(int(v) for v in out.column("objectId")) == [5, 7]

    def test_negated_in_not_indexed(self, db):
        db.create_index("Object", "objectId")
        out = db.execute("SELECT COUNT(*) FROM Object WHERE objectId NOT IN (3, 5)")
        assert out.column("COUNT(*)")[0] == 98


#: Two small tables whose joins differ by ON conjunct.
JOIN_TABLES = {
    "t1": {"x": [1, 1, 2, 3], "y": [1, 5, 2, 9]},
    "t2": {"x": [1, 2, 2, 4], "y": [3, 1, 7, 0]},
}


@pytest.fixture
def joined():
    """``JOIN_TABLES`` in the engine and in an in-memory sqlite3 database."""
    d = Database()
    reference = sqlite3.connect(":memory:")
    for name, cols in JOIN_TABLES.items():
        d.create_table(Table(name, {c: np.array(v, dtype=np.int64) for c, v in cols.items()}))
        reference.execute(f"CREATE TABLE {name} (x INTEGER, y INTEGER)")
        reference.executemany(
            f"INSERT INTO {name} VALUES (?, ?)", list(zip(cols["x"], cols["y"]))
        )
    yield d, reference
    reference.close()


def _rows(result) -> list:
    return sorted(tuple(int(v) for v in row) for row in result.rows())


class TestJoinOn:
    """Every ON conjunct filters: a JOIN is its comma + WHERE form.

    Runs with whatever ``REPRO_KERNELS`` says; the parser makes one tree
    of both forms, which two-table joins run as a join kernel when
    kernels are on.
    """

    @pytest.mark.parametrize(
        "join, comma, expected",
        [
            (
                "SELECT COUNT(*) FROM t1 a JOIN t2 b ON a.x = b.x AND a.y < b.y",
                "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.x AND a.y < b.y",
                [(2,)],
            ),
            (
                "SELECT COUNT(*) FROM t1 a JOIN t2 b ON a.y < b.y",
                "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.y < b.y",
                [(5,)],
            ),
            (
                "SELECT a.y, b.y FROM t1 a INNER JOIN t2 b ON a.x = b.x WHERE a.y < b.y",
                "SELECT a.y, b.y FROM t1 a, t2 b WHERE a.x = b.x AND a.y < b.y",
                [(1, 3), (2, 7)],
            ),
            (
                "SELECT a.x, c.y FROM t1 a JOIN t2 b ON a.x = b.x "
                "JOIN t1 c ON c.y > b.y AND c.x != a.x",
                "SELECT a.x, c.y FROM t1 a, t2 b, t1 c "
                "WHERE a.x = b.x AND c.y > b.y AND c.x != a.x",
                None,
            ),
            (
                "SELECT COUNT(*) FROM t1 a CROSS JOIN t2 b ON a.y > b.y",
                "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.y > b.y",
                None,
            ),
        ],
        ids=["key-and-range", "range-only", "on-and-where", "three-tables", "cross-with-on"],
    )
    def test_join_equals_comma_form_and_sqlite(self, joined, join, comma, expected):
        d, reference = joined
        got = _rows(d.execute(join))
        assert got == _rows(d.execute(comma))
        assert got == sorted(reference.execute(join).fetchall())
        if expected is not None:
            assert got == expected

    def test_left_join_filters_as_inner(self, joined):
        """A LEFT JOIN is refused, kernels on and off, not answered as INNER.

        sqlite keeps the t1 row with y = 9, which has no partner: 6 rows.
        Filtering by ON, as an inner join does, would give 5.
        """
        d, reference = joined
        sql = "SELECT COUNT(*) FROM t1 a LEFT JOIN t2 b ON a.y < b.y"
        assert reference.execute(sql).fetchall() == [(6,)]
        for use_kernels in (True, False):
            db = Database(use_kernels=use_kernels)
            for table in d.tables.values():
                db.create_table(table)
            with pytest.raises(SqlError, match="LEFT JOIN is not supported"):
                db.execute(sql)

    def test_star_lists_columns_in_from_text_order(self, joined):
        """``*`` over a JOIN then a comma table: t1's, t2's, then t3's columns.

        Kernels on and off; a repeated name is qualified here and bare in
        sqlite, so names are compared without their qualifier.
        """
        d, reference = joined
        reference.execute("CREATE TABLE t3 (w INTEGER)")
        reference.executemany("INSERT INTO t3 VALUES (?)", [(7,), (8,)])
        sql = "SELECT * FROM t1 a JOIN t2 b ON a.x = b.x, t3 c"
        cursor = reference.execute(sql)
        want = sorted(cursor.fetchall())
        assert [c[0] for c in cursor.description] == ["x", "y", "x", "y", "w"]
        for use_kernels in (True, False):
            db = Database(use_kernels=use_kernels)
            for table in d.tables.values():
                db.create_table(table)
            db.create_table(Table("t3", {"w": np.array([7, 8], dtype=np.int64)}))
            got = db.execute(sql)
            assert [n.rsplit(".", 1)[-1] for n in got.column_names] == ["x", "y", "x", "y", "w"]
            assert _rows(got) == want

    def test_ambiguous_on_column_is_an_error(self, joined):
        d, reference = joined
        for sql in (
            "SELECT COUNT(*) FROM t1 a JOIN t2 b ON x = 1",
            "SELECT COUNT(*) FROM t1 a, t2 b WHERE x = 1",
        ):
            with pytest.raises(Exception, match="ambiguous"):
                d.execute(sql)
            with pytest.raises(sqlite3.OperationalError, match="ambiguous"):
                reference.execute(sql)
