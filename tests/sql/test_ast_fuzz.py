"""Property fuzzing: random ASTs must round-trip through to_sql / parse.

The czar manipulates parsed queries and re-emits SQL text for dispatch,
so ``parse(node.to_sql()) == node`` is a load-bearing invariant of the
whole system, not a convenience.  Hypothesis builds random expression
trees and SELECT statements to hunt for printing/parsing mismatches.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import ast
from repro.sql.parser import parse_one

# -- strategies -----------------------------------------------------------------

identifiers = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s.upper()
    not in {
        "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
        "ASC", "DESC", "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "BETWEEN",
        "IN", "IS", "NULL", "LIKE", "JOIN", "INNER", "LEFT", "OUTER", "CROSS",
        "ON", "CREATE", "TABLE", "IF", "EXISTS", "DROP", "INSERT", "INTO",
        "VALUES", "UNION", "E",
    }
)

literals = st.one_of(
    st.integers(min_value=0, max_value=10**12).map(ast.Literal),
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False).map(ast.Literal),
    st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127),
        max_size=8,
    ).map(ast.Literal),
)

columns = st.builds(
    ast.ColumnRef,
    column=identifiers,
    table=st.one_of(st.none(), identifiers),
)


def expressions(depth=3, columns=columns, literals=literals):
    """Expression trees over the given leaves (any identifier, any literal)."""
    base = st.one_of(literals, columns, st.just(ast.Null()))
    if depth == 0:
        return base
    sub = expressions(depth - 1, columns, literals)
    return st.one_of(
        base,
        st.builds(
            ast.BinaryOp,
            op=st.sampled_from(["+", "-", "*", "/", "=", "!=", "<", ">", "<=", ">=", "AND", "OR"]),
            left=sub,
            right=sub,
        ),
        st.builds(ast.UnaryOp, op=st.sampled_from(["-", "NOT"]), operand=sub),
        st.builds(ast.Between, value=sub, low=sub, high=sub, negated=st.booleans()),
        st.builds(
            ast.InList,
            value=sub,
            items=st.lists(literals, min_size=1, max_size=3).map(tuple),
            negated=st.booleans(),
        ),
        st.builds(ast.IsNull, value=sub, negated=st.booleans()),
        st.builds(
            ast.FuncCall,
            name=st.sampled_from(["ABS", "SQRT", "fluxToAbMag", "qserv_angSep"]),
            args=st.lists(sub, min_size=1, max_size=3).map(tuple),
        ),
    )


select_items = st.builds(
    ast.SelectItem,
    expr=expressions(2),
    alias=st.one_of(st.none(), identifiers),
)

selects = st.builds(
    ast.Select,
    items=st.lists(select_items, min_size=1, max_size=4).map(tuple),
    tables=st.lists(
        st.builds(
            ast.TableRef,
            table=identifiers,
            database=st.one_of(st.none(), identifiers),
            alias=st.one_of(st.none(), identifiers),
        ),
        min_size=1,
        max_size=2,
    ).map(tuple),
    where=st.one_of(st.none(), expressions(2)),
    group_by=st.lists(columns, max_size=2).map(tuple),
    order_by=st.lists(
        st.builds(ast.OrderItem, expr=columns, descending=st.booleans()),
        max_size=2,
    ).map(tuple),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
    distinct=st.booleans(),
)


class TestExpressionRoundTrip:
    @given(expressions(3))
    @settings(max_examples=300, deadline=None)
    def test_expr_round_trips(self, expr):
        sql = f"SELECT {expr.to_sql()} FROM t"
        reparsed = parse_one(sql).items[0].expr
        assert reparsed == expr

    @given(selects)
    @settings(max_examples=200, deadline=None)
    def test_select_round_trips(self, select):
        # Aliases that duplicate table names etc. are legal; the
        # invariant is purely syntactic equality after a round trip.
        reparsed = parse_one(select.to_sql())
        assert reparsed == select

    @given(selects)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_fixed_point(self, select):
        once = parse_one(select.to_sql())
        twice = parse_one(once.to_sql())
        assert once == twice
        assert once.to_sql() == twice.to_sql()
