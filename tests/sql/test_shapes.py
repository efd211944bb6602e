"""Statement shapes: the scanner, the self-check and bind-instead-of-parse.

The property half rides on the AST fuzzer's strategies: for generated
SELECTs, the statement a :class:`ShapeCache` hands back -- parsed the
first time, bound from the shape's template after -- equals what the
parser makes of the text, and texts that differ only in the numbers of
their WHERE/ON clauses share one shape while every other difference
(the kind or sign of a number, the length of an IN list, a literal in
the select list, HAVING, LIMIT or ORDER BY position) does not.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import ast
from repro.sql.lexer import LexError, TokenType, tokenize
from repro.sql.parser import ParseError, parse, parse_one
from repro.sql.shapes import ShapeCache, Template, bind, blank, literals, scan, text_key

from .test_ast_fuzz import expressions, identifiers, selects

table_refs = st.builds(
    ast.TableRef,
    table=identifiers,
    database=st.one_of(st.none(), identifiers),
    alias=st.one_of(st.none(), identifiers),
)

#: SELECTs with explicit joins, so that ON clauses carry holes too.
joined_selects = st.builds(
    lambda select, joins, having: ast.Select(
        select.items, select.tables, joins, select.where, select.group_by,
        having, select.order_by, select.limit, select.offset, select.distinct,
    ),
    selects,
    st.lists(
        st.builds(
            ast.JoinClause,
            kind=st.sampled_from(["INNER", "LEFT"]),
            table=table_refs,
            on=expressions(2),
        ),
        max_size=2,
    ).map(tuple),
    st.one_of(st.none(), expressions(1)),
)


def other_values(values, seed):
    """Values of the same kinds as ``values``, all different from them."""
    return tuple(
        type(v)(v + seed + i + 1) if isinstance(v, int) else float(v) * 0.5 + seed + i + 0.25
        for i, v in enumerate(values)
    )


class TestBoundEqualsParsed:
    @given(joined_selects, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=300, deadline=None)
    def test_a_shape_is_parsed_once_and_bound_after(self, select, seed):
        text = select.to_sql()
        cache = ShapeCache()
        assert cache.parse(text) == (parse_one(text),)
        # The same statement about other numbers: same shape, and the
        # bound template is what the parser would have produced.
        values = literals(select)
        other = bind(select, other_values(values, seed)).to_sql()
        assert scan(other)[0] == scan(text)[0]
        assert cache.parse(other) == (parse_one(other),)
        assert cache.parse(text) == (parse_one(text),)
        assert len(cache) <= 1
        if len(cache) == 1:
            assert scan(text)[1] == values

    @given(joined_selects)
    @settings(max_examples=200, deadline=None)
    def test_holes_are_read_and_written_in_text_order(self, select):
        parsed = parse_one(select.to_sql())
        values = literals(parsed)
        assert bind(parsed, values) == parsed
        zeros = blank(parsed)
        assert all(v == 0 for v in literals(zeros))
        assert [type(v) for v in literals(zeros)] == [type(v) for v in values]
        assert bind(zeros, values) == parsed
        # Nothing outside WHERE/ON moves.
        assert zeros.items == parsed.items and zeros.having == parsed.having
        assert zeros.order_by == parsed.order_by and zeros.limit == parsed.limit

    @given(joined_selects)
    @settings(max_examples=200, deadline=None)
    def test_the_scanner_cuts_exactly_the_parsers_holes(self, select):
        text = select.to_sql()
        shape, values = scan(text)
        assert values == literals(parse_one(text))
        assert Template.of(parse(text), values) is not None


BASE = "SELECT a, 5 AS five FROM t JOIN u ON t.k = u.k + 1 WHERE x > 0.5 AND y IN (1, 2) AND z = -3"


class TestWhatSharesAShape:
    @pytest.mark.parametrize(
        "text",
        [
            BASE.replace("0.5", "17.25"),
            BASE.replace("u.k + 1", "u.k + 99"),
            BASE.replace("(1, 2)", "(30, 40)"),
            BASE.replace("-3", "-123456789"),
            BASE.replace("0.5", "1e-30"),
            BASE.replace("0.5", ".5"),
            BASE.replace("0.5", "5."),
        ],
    )
    def test_other_numbers_in_where_and_on(self, text):
        assert scan(text)[0] == scan(BASE)[0]
        cache = ShapeCache()
        cache.parse(BASE)
        assert cache.parse(text) == (parse_one(text),)
        assert len(cache) == 1

    @pytest.mark.parametrize(
        "text",
        [
            BASE.replace("0.5", "1"),  # float -> int
            BASE.replace("(1, 2)", "(1.0, 2)"),  # int -> float
            BASE.replace("-3", "3"),  # sign
            BASE.replace("0.5", "-0.5"),
            BASE.replace("(1, 2)", "(1, 2, 3)"),  # IN-list length
            BASE.replace("5 AS five", "6 AS five"),  # select list
            BASE + " GROUP BY a HAVING COUNT(*) > 3",
            BASE + " ORDER BY 1",
            BASE + " LIMIT 10",
            BASE.replace("z = -3", "z = '3'"),  # a string is not a number
        ],
    )
    def test_everything_else_is_another_shape(self, text):
        assert scan(text)[0] != scan(BASE)[0]

    @pytest.mark.parametrize(
        "a, b",
        [
            ("SELECT a FROM t GROUP BY a HAVING COUNT(*) > 3", "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 4"),
            ("SELECT a FROM t WHERE x > 1 ORDER BY 1", "SELECT a FROM t WHERE x > 1 ORDER BY 2"),
            ("SELECT a FROM t WHERE x > 1 LIMIT 5", "SELECT a FROM t WHERE x > 1 LIMIT 6"),
            ("SELECT a FROM t WHERE x > 1 LIMIT 5 OFFSET 1", "SELECT a FROM t WHERE x > 1 LIMIT 5 OFFSET 2"),
            ("SELECT a + 1 FROM t WHERE x > 1", "SELECT a + 2 FROM t WHERE x > 1"),
            ("SELECT a FROM t WHERE x > 1 GROUP BY a + 1", "SELECT a FROM t WHERE x > 1 GROUP BY a + 2"),
        ],
    )
    def test_numbers_after_the_where_clause_stay(self, a, b):
        assert scan(a)[0] != scan(b)[0]
        assert scan(a)[1] == scan(b)[1]


class TestLookAlikes:
    """Where a scanner that did not tokenize like the lexer would go wrong."""

    @pytest.mark.parametrize(
        "text, values",
        [
            ("SELECT o1.x FROM LSST.Object_713 AS o1 WHERE o1.uFlux_SG > 2", (2,)),
            ("SELECT x FROM Object_713_45 AS t2, t3 WHERE t2.a1 = t3.b2 + 7", (7,)),
            ("SELECT `SUM(uFlux_SG)` FROM m WHERE `COUNT(5)` > 1", (1,)),
            ("SELECT x FROM t WHERE s = '42' AND n = 42", (42,)),
            ("SELECT x FROM t WHERE s = 'it''s 7 WHERE 8' AND n = 9", (9,)),
            ('SELECT x FROM t WHERE s = "a \\" 1" AND n = 2', (2,)),
            ("SELECT x FROM t WHERE f > 1e-30 AND g < 2.5E+3 AND h = 1.e2", (1e-30, 2500.0, 100.0)),
            ("SELECT x FROM t WHERE a = 1 -- AND b = 2\n AND c = 3", (1, 3)),
            ("SELECT x FROM t WHERE a = 1 /* b = 2 */ AND c = 3", (1, 3)),
            ("SELECT 1 FROM t; SELECT 2 FROM t WHERE a = 3; SELECT 4 FROM u", (3,)),
            ("select x from t where a = 1 group by x having count(*) > 2", (1,)),
            ("SELECT x FROM t WHERE a$1 = 5 AND $b2 = 6", (5, 6)),
            ("SELECT x FROM t WHERE a BETWEEN 1 AND 2.0 AND NOT b IN (3) AND c - 4 > -5", (1, 2.0, 3, 4, 5)),
            ("CREATE TABLE s AS SELECT x FROM t WHERE a = 7", (7,)),
            ("INSERT INTO t (a) VALUES (1), (2)", ()),
            ("SELECT COUNT(*) FROM Object", ()),
        ],
    )
    def test_cut_values_are_the_parsed_holes(self, text, values):
        shape, cut = scan(text)
        assert cut == values
        assert [type(v) for v in cut] == [type(v) for v in values]
        statements = parse(text)
        assert tuple(v for stmt in statements for v in literals(stmt)) == values
        queries = all(isinstance(s, (ast.Select, ast.CreateTableAsSelect)) for s in statements)
        assert (Template.of(statements, cut) is not None) == queries

    def test_a_disagreement_is_never_kept(self):
        # `on` as a column name (nothing the czar emits, but parseable)
        # opens a region for the scanner inside the select list.
        text = "SELECT on + 5 FROM t WHERE a = 1"
        shape, values = scan(text)
        assert values == (5, 1)
        cache = ShapeCache()
        for k in (1, 2, 3):
            t = text.replace("a = 1", f"a = {k}")
            assert cache.parse(t) == tuple(parse(t))
        assert len(cache) == 0
        assert Template.of(parse(text), values) is None

    def test_values_that_do_not_fit_are_parsed(self):
        cache = ShapeCache()
        cache.parse("SELECT x FROM t WHERE s = '?' AND n = 1")
        # Same characters once the number is cut, but no number was:
        # the marker came with the text.  It does not lex, as ever.
        with pytest.raises(ParseError):
            cache.parse("SELECT x FROM t WHERE s = '?' AND n = ?")

    def test_parse_errors_are_raised_every_time(self):
        cache = ShapeCache()
        for k in (1, 2):
            with pytest.raises(ParseError, match="reserved word"):
                cache.parse(f"SELECT x FROM WHERE a = {k}")
        assert len(cache) == 0


class TestShapeCache:
    def test_lru_bound(self):
        cache = ShapeCache(capacity=4)
        for i in range(10):
            cache.parse(f"SELECT {i} FROM t WHERE a = 1")
            assert len(cache) <= 4
        assert cache.get(scan("SELECT 9 FROM t WHERE a = 5")[0]) is not None
        assert cache.get(scan("SELECT 0 FROM t WHERE a = 5")[0]) is None

    def test_templates_are_not_mutated_by_binding(self):
        cache = ShapeCache()
        first = cache.parse("SELECT x FROM t WHERE a = 1 AND b < 2.5")
        second = cache.parse("SELECT x FROM t WHERE a = 10 AND b < 0.5")
        assert literals(first[0]) == (1, 2.5)
        assert literals(second[0]) == (10, 0.5)
        assert first[0].items is second[0].items  # shared, frozen


# -- the key of a statement text -------------------------------------------------

# What a text is made of, as far as folding can tell: tokens, the gaps
# between them, what the lexer steps over in one piece, and the halves
# of such pieces (an unterminated string fails to lex with any spacing).
_PIECES = (
    "SELECT", "x", "o1", "Object_713", "1", "2.5", "1e-3", ".5", "=", "<=", "-", "/", "*",
    "(", ")", ",", ".", ";", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\xa0", "\\",
    "'a b'", "'a  b'", "'it''s  '", "'a\\'  b'", '"a  b"', '"say ""x  y"""', "`a  b`",
    "'--'", "'/*'", "-- c  d\n", "-- it's", "/* c  d */", "/* ' */", "/*", "*/", "--",
    "'", '"', "`",
)
texts = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)


def lexed(text):
    """The token stream of ``text`` less its trailing separators, or 'error'."""
    try:
        tokens = [(t.type, t.value) for t in tokenize(text)[:-1]]
    except LexError:
        return "error"
    while tokens and tokens[-1] == (TokenType.OP, ";"):
        tokens.pop()
    return tokens


class TestTextKey:
    @settings(max_examples=1500, deadline=None)
    @given(texts, texts)
    def test_equal_keys_are_equal_token_streams(self, a, b):
        # A key lexes as its text does, so texts that share one lex alike.
        assert lexed(text_key(a)) == lexed(a)
        if text_key(a) == text_key(b):
            assert lexed(a) == lexed(b)

    @given(st.lists(st.sampled_from(("SELECT", "x", "'a  b'", "`c  d`", "1", "=", ",")), min_size=1))
    def test_spacing_between_tokens_does_not_make_a_key(self, tokens):
        assert (
            text_key("  " + " \n\t".join(tokens) + " /* tail */ ; ")
            == text_key(" -- head\n".join(tokens))
            == " ".join(tokens)
        )

    def test_spacing_inside_quotes_does(self):
        for quote in "'\"`":
            a, b = (f"SELECT {quote}a{gap}b{quote}" for gap in (" ", "  "))
            assert text_key(a) == a != text_key(b) == b

    def test_only_the_lexers_white_space_folds(self):
        assert text_key("SELECT\x0b1") != text_key("SELECT 1")
        assert text_key("  SELECT   1 ;") == text_key("SELECT\r\n1") == "SELECT 1"
