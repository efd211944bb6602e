"""Tests for the recursive-descent SQL parser, including round-tripping."""

import pytest

from repro.sql import ast
from repro.sql.parser import ParseError, parse, parse_one


class TestSelectBasics:
    def test_star(self):
        sel = parse_one("SELECT * FROM Object")
        assert isinstance(sel, ast.Select)
        assert isinstance(sel.items[0].expr, ast.Star)
        assert sel.tables[0].table == "Object"

    def test_columns(self):
        sel = parse_one("SELECT a, b FROM t")
        assert [i.expr.column for i in sel.items] == ["a", "b"]

    def test_alias_with_as(self):
        sel = parse_one("SELECT a AS x FROM t")
        assert sel.items[0].alias == "x"

    def test_alias_without_as(self):
        sel = parse_one("SELECT a x FROM t")
        assert sel.items[0].alias == "x"

    def test_output_name_default_is_sql_text(self):
        sel = parse_one("SELECT SUM(a) FROM t")
        assert sel.items[0].output_name() == "SUM(a)"

    def test_distinct(self):
        assert parse_one("SELECT DISTINCT a FROM t").distinct

    def test_no_from(self):
        sel = parse_one("SELECT 1 + 1")
        assert sel.tables == ()

    def test_qualified_table(self):
        sel = parse_one("SELECT * FROM LSST.Object_714")
        assert sel.tables[0].database == "LSST"
        assert sel.tables[0].table == "Object_714"

    def test_table_alias(self):
        sel = parse_one("SELECT * FROM Object o1")
        assert sel.tables[0].alias == "o1"
        assert sel.tables[0].name == "o1"

    def test_comma_join(self):
        sel = parse_one("SELECT * FROM Object o1, Object o2")
        assert len(sel.tables) == 2

    def test_limit(self):
        sel = parse_one("SELECT a FROM t LIMIT 10")
        assert sel.limit == 10

    def test_limit_offset(self):
        sel = parse_one("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert (sel.limit, sel.offset) == (10, 5)

    def test_mysql_limit_comma(self):
        sel = parse_one("SELECT a FROM t LIMIT 5, 10")
        assert (sel.limit, sel.offset) == (10, 5)


class TestExpressions:
    def p(self, text):
        return parse_one(f"SELECT {text} FROM t").items[0].expr

    def test_precedence_arith(self):
        e = self.p("1 + 2 * 3")
        assert isinstance(e, ast.BinaryOp) and e.op == "+"
        assert isinstance(e.right, ast.BinaryOp) and e.right.op == "*"

    def test_parens_override(self):
        e = self.p("(1 + 2) * 3")
        assert e.op == "*"

    def test_unary_minus(self):
        e = self.p("-a")
        assert isinstance(e, ast.UnaryOp) and e.op == "-"

    def test_and_or_precedence(self):
        sel = parse_one("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        w = sel.where
        assert w.op == "OR"
        assert w.right.op == "AND"

    def test_not(self):
        sel = parse_one("SELECT * FROM t WHERE NOT a = 1")
        assert isinstance(sel.where, ast.UnaryOp) and sel.where.op == "NOT"

    def test_between(self):
        sel = parse_one("SELECT * FROM t WHERE ra_PS BETWEEN 1 AND 2")
        assert isinstance(sel.where, ast.Between)

    def test_not_between(self):
        sel = parse_one("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2")
        assert sel.where.negated

    def test_between_binds_tighter_than_and(self):
        sel = parse_one("SELECT * FROM t WHERE a BETWEEN 1 AND 2 AND b = 3")
        assert sel.where.op == "AND"
        assert isinstance(sel.where.left, ast.Between)

    def test_in_list(self):
        sel = parse_one("SELECT * FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(sel.where, ast.InList)
        assert len(sel.where.items) == 3

    def test_is_null(self):
        sel = parse_one("SELECT * FROM t WHERE a IS NULL")
        assert isinstance(sel.where, ast.IsNull) and not sel.where.negated

    def test_is_not_null(self):
        sel = parse_one("SELECT * FROM t WHERE a IS NOT NULL")
        assert sel.where.negated

    def test_function_call(self):
        e = self.p("fluxToAbMag(zFlux_PS)")
        assert isinstance(e, ast.FuncCall) and e.name == "fluxToAbMag"

    def test_nested_function(self):
        e = self.p("ABS(fluxToAbMag(a) - fluxToAbMag(b))")
        assert e.name == "ABS"

    def test_count_star(self):
        e = self.p("COUNT(*)")
        assert e.is_aggregate and isinstance(e.args[0], ast.Star)

    def test_count_distinct(self):
        e = self.p("COUNT(DISTINCT a)")
        assert e.distinct

    def test_qualified_column(self):
        e = self.p("o1.ra_PS")
        assert e == ast.ColumnRef(column="ra_PS", table="o1")

    def test_db_qualified_column(self):
        e = self.p("LSST.Object.ra_PS")
        assert e.database == "LSST" and e.table == "Object"

    def test_string_literal(self):
        e = self.p("'abc'")
        assert e == ast.Literal("abc")

    def test_float_literal(self):
        assert self.p("0.04") == ast.Literal(0.04)

    def test_comparison_chain(self):
        sel = parse_one("SELECT * FROM t WHERE a < b")
        assert sel.where.op == "<"

    def test_diamond_ne_normalized(self):
        sel = parse_one("SELECT * FROM t WHERE a <> b")
        assert sel.where.op == "!="


class TestClauses:
    def test_group_by(self):
        sel = parse_one("SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId")
        assert len(sel.group_by) == 1

    def test_group_by_multiple(self):
        sel = parse_one("SELECT a, b, COUNT(*) FROM t GROUP BY a, b")
        assert len(sel.group_by) == 2

    def test_having(self):
        sel = parse_one("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 5")
        assert sel.having is not None

    def test_order_by(self):
        sel = parse_one("SELECT a FROM t ORDER BY a DESC, b")
        assert sel.order_by[0].descending
        assert not sel.order_by[1].descending

    def test_explicit_join_on(self):
        sel = parse_one(
            "SELECT * FROM Object o JOIN Source s ON o.objectId = s.objectId WHERE s.ra > 1"
        )
        assert [t.name for t in sel.tables] == ["o", "s"]
        assert sel.where == parse_one("SELECT 1 WHERE o.objectId = s.objectId AND s.ra > 1").where
        assert sel == parse_one(
            "SELECT * FROM Object o, Source s WHERE (o.objectId = s.objectId) AND (s.ra > 1)"
        )

    def test_joins_and_comma_tables_keep_text_order(self):
        sel = parse_one("SELECT * FROM a, b INNER JOIN c ON p = 1, d JOIN e ON q = 2 AND r = 3")
        assert [t.table for t in sel.tables] == ["a", "b", "c", "d", "e"]
        assert sel.where.to_sql() == "(p = 1 AND (q = 2 AND r = 3))"

    def test_left_join(self):
        for sql in (
            "SELECT * FROM a LEFT JOIN b ON a.x = b.x",
            "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x",
        ):
            with pytest.raises(ParseError, match="LEFT JOIN is not supported"):
                parse_one(sql)
        with pytest.raises(ParseError, match="RIGHT JOIN is not supported"):
            parse_one("SELECT * FROM a RIGHT JOIN b ON a.x = b.x")

    def test_cross_join(self):
        sel = parse_one("SELECT * FROM a CROSS JOIN b")
        assert sel == parse_one("SELECT * FROM a, b")
        sel = parse_one("SELECT * FROM a CROSS JOIN b ON a.x > b.x")
        assert sel == parse_one("SELECT * FROM a, b WHERE a.x > b.x")

    def test_join_requires_on(self):
        with pytest.raises(ParseError):
            parse_one("SELECT * FROM a JOIN b")


class TestDdlDml:
    def test_create_table(self):
        st = parse_one("CREATE TABLE t (a BIGINT, b DOUBLE, c VARCHAR(32))")
        assert isinstance(st, ast.CreateTable)
        assert [c.type_name for c in st.columns] == ["BIGINT", "DOUBLE", "VARCHAR(32)"]

    def test_create_if_not_exists(self):
        st = parse_one("CREATE TABLE IF NOT EXISTS t (a INT)")
        assert st.if_not_exists

    def test_create_as_select(self):
        st = parse_one("CREATE TABLE sub AS SELECT * FROM Object WHERE a = 1")
        assert isinstance(st, ast.CreateTableAsSelect)
        assert st.table == "sub"

    def test_drop(self):
        st = parse_one("DROP TABLE IF EXISTS t")
        assert isinstance(st, ast.DropTable) and st.if_exists

    def test_insert(self):
        st = parse_one("INSERT INTO t VALUES (1, 2.5, 'x'), (2, 3.5, 'y')")
        assert isinstance(st, ast.Insert)
        assert len(st.rows) == 2

    def test_insert_with_columns(self):
        st = parse_one("INSERT INTO t (a, b) VALUES (1, 2)")
        assert st.columns == ("a", "b")

    def test_multiple_statements(self):
        stmts = parse("DROP TABLE IF EXISTS t; CREATE TABLE t (a INT); SELECT 1")
        assert len(stmts) == 3

    def test_column_attributes_swallowed(self):
        st = parse_one("CREATE TABLE t (a BIGINT NOT NULL, b DOUBLE DEFAULT 0)")
        assert len(st.columns) == 2


class TestRejections:
    def test_subquery_in_from_rejected(self):
        with pytest.raises(ParseError):
            parse_one("SELECT * FROM t WHERE a IN (SELECT a FROM u)")

    def test_parenthesized_subquery_rejected(self):
        with pytest.raises(ParseError):
            parse_one("SELECT (SELECT 1) FROM t")

    def test_union_rejected(self):
        with pytest.raises(ParseError):
            parse_one("SELECT a FROM t UNION SELECT b FROM u")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_one("FLARGLE BLONK")

    def test_incomplete(self):
        with pytest.raises(ParseError):
            parse_one("SELECT a FROM")

    def test_error_mentions_offset(self):
        with pytest.raises(ParseError, match="offset"):
            parse_one("SELECT a FROM WHERE")


class TestPaperQueries:
    """Every query from the paper's evaluation section must parse."""

    LV1 = "SELECT * FROM Object WHERE objectId = 12345"
    LV2 = (
        "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl "
        "FROM Source WHERE objectId = 12345"
    )
    LV3 = (
        "SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 1 AND 2 "
        "AND decl_PS BETWEEN 3 AND 4 "
        "AND fluxToAbMag(zFlux_PS) BETWEEN 21 AND 21.5 "
        "AND fluxToAbMag(gFlux_PS)-fluxToAbMag(rFlux_PS) BETWEEN 0.3 AND 0.4 "
        "AND fluxToAbMag(iFlux_PS)-fluxToAbMag(zFlux_PS) BETWEEN 0.1 AND 0.12"
    )
    HV1 = "SELECT COUNT(*) FROM Object"
    HV2 = (
        "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, "
        "zFlux_PS, yFlux_PS FROM Object "
        "WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 4"
    )
    HV3 = (
        "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object "
        "GROUP BY chunkId"
    )
    SHV1 = (
        "SELECT count(*) FROM Object o1, Object o2 "
        "WHERE qserv_areaspec_box(-5,-5,5,-5) "
        "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1"
    )
    SHV2 = (
        "SELECT o.objectId, s.sourceId, s.ra, s.decl, o.ra_PS, o.decl_PS "
        "FROM Object o, Source s "
        "WHERE qserv_areaspec_box(224.1, -7.5, 237.1, 5.5) "
        "AND o.objectId = s.objectId "
        "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045"
    )
    AGG_EXAMPLE = (
        "SELECT AVG(uFlux_SG) FROM Object "
        "WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04"
    )

    @pytest.mark.parametrize(
        "sql",
        [LV1, LV2, LV3, HV1, HV2, HV3, SHV1, SHV2, AGG_EXAMPLE],
        ids=["LV1", "LV2", "LV3", "HV1", "HV2", "HV3", "SHV1", "SHV2", "agg-example"],
    )
    def test_parses(self, sql):
        sel = parse_one(sql)
        assert isinstance(sel, ast.Select)

    @pytest.mark.parametrize(
        "sql",
        [LV1, LV2, LV3, HV1, HV2, HV3, SHV1, SHV2, AGG_EXAMPLE],
        ids=["LV1", "LV2", "LV3", "HV1", "HV2", "HV3", "SHV1", "SHV2", "agg-example"],
    )
    def test_round_trips(self, sql):
        """to_sql() output must re-parse to the same AST (czar requirement)."""
        first = parse_one(sql)
        second = parse_one(first.to_sql())
        assert first == second


class TestRoundTrip:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a + b * c FROM t WHERE NOT (a = 1 OR b = 2)",
            "SELECT COUNT(DISTINCT a) FROM t GROUP BY b HAVING COUNT(*) > 2",
            "SELECT * FROM a INNER JOIN b ON a.x = b.y WHERE a.z IN (1, 2)",
            "SELECT a FROM t ORDER BY a DESC LIMIT 5 OFFSET 2",
            "INSERT INTO t (a, b) VALUES (1, -2.5), (3, 4.0)",
            "CREATE TABLE s AS SELECT a, b FROM t WHERE a BETWEEN 1 AND 2",
            "SELECT `SUM(uFlux_SG)` FROM result_table",
        ],
    )
    def test_round_trip(self, sql):
        first = parse_one(sql)
        assert parse_one(first.to_sql()) == first
