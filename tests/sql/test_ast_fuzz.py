"""Property fuzzing: random ASTs must round-trip through to_sql / parse.

The czar manipulates parsed queries and re-emits SQL text for dispatch,
so ``parse(node.to_sql()) == node`` is a load-bearing invariant of the
whole system, not a convenience.  Hypothesis builds random expression
trees and SELECT statements to hunt for printing/parsing mismatches.

The same trees check that the structure every traversal relies on --
:meth:`Expr.children <repro.sql.ast.Expr.children>`, :meth:`Expr.map
<repro.sql.ast.Expr.map>` and a SELECT's clauses -- is exactly what the
node classes declare, and generated ``JOIN ... ON`` texts check that
the parser makes of each the tree of its comma join.
"""

import dataclasses

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
        "IN", "IS", "NULL", "LIKE", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER",
        "CROSS", "ON", "CREATE", "TABLE", "IF", "EXISTS", "DROP", "INSERT", "INTO",
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


def expressions(depth=3, columns=columns, literals=literals, aggregates=False):
    """Expression trees over the given leaves (any identifier, any literal).

    With ``aggregates``, calls may be aggregates too: ``COUNT(*)``
    among the leaves, and any call named COUNT, SUM, ... with or without
    DISTINCT.
    """
    base = st.one_of(literals, columns, st.just(ast.Null()))
    if aggregates:
        base = st.one_of(base, st.just(ast.FuncCall("COUNT", (ast.Star(),))))
    if depth == 0:
        return base
    sub = expressions(depth - 1, columns, literals, aggregates)
    names = ["ABS", "SQRT", "fluxToAbMag", "qserv_angSep"]
    if aggregates:
        names += sorted(ast.AGGREGATE_FUNCS)
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
            name=st.sampled_from(names),
            args=st.lists(sub, min_size=1, max_size=3).map(tuple),
            distinct=st.booleans() if aggregates else st.just(False),
        ),
    )


select_items = st.builds(
    ast.SelectItem,
    expr=expressions(2, aggregates=True),
    alias=st.one_of(st.none(), identifiers),
)

table_refs = st.builds(
    ast.TableRef,
    table=identifiers,
    database=st.one_of(st.none(), identifiers),
    alias=st.one_of(st.none(), identifiers),
)

selects = st.builds(
    ast.Select,
    items=st.lists(select_items, min_size=1, max_size=4).map(tuple),
    tables=st.lists(table_refs, min_size=1, max_size=2).map(tuple),
    where=st.one_of(st.none(), expressions(2)),
    group_by=st.lists(columns, max_size=2).map(tuple),
    having=st.one_of(st.none(), expressions(1, aggregates=True)),
    order_by=st.lists(
        st.builds(ast.OrderItem, expr=columns, descending=st.booleans()),
        max_size=2,
    ).map(tuple),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
    distinct=st.booleans(),
)

#: What may follow a SELECT's FROM tables: a comma table, or a JOIN and
#: its ON condition (INNER needs one, CROSS may have one).
from_parts = st.one_of(
    st.tuples(st.just(", "), table_refs, st.none()),
    st.tuples(st.sampled_from([" JOIN ", " INNER JOIN "]), table_refs, expressions(2)),
    st.tuples(st.just(" CROSS JOIN "), table_refs, st.one_of(st.none(), expressions(1))),
)


@st.composite
def join_texts(draw):
    """``(text, comma text, statement)``: a SELECT written with JOINs, and as a comma join.

    The text is a generated SELECT with generated parts after its FROM
    tables, ``... JOIN t ON p ... WHERE w``; its comma text has the same
    tables and ``WHERE (p) AND ... AND (w)``; the statement is the tree
    both must parse to.
    """
    select = draw(selects)
    parts = draw(st.lists(from_parts, min_size=1, max_size=3))
    # The select list, and what follows WHERE: around a name no
    # generated text contains.
    head, tail = dataclasses.replace(
        select, tables=(ast.TableRef("@"),), where=None
    ).to_sql().split(" FROM `@`")
    conditions = [on for _, _, on in parts if on is not None]
    conditions += [select.where] if select.where is not None else []
    tables = select.tables + tuple(ref for _, ref, _ in parts)
    text = head + " FROM " + ", ".join(t.to_sql() for t in select.tables)
    for sep, ref, on in parts:
        text += sep + ref.to_sql() + ("" if on is None else " ON " + on.to_sql())
    if select.where is not None:
        text += " WHERE " + select.where.to_sql()
    comma = head + " FROM " + ", ".join(t.to_sql() for t in tables)
    if conditions:
        comma += " WHERE " + " AND ".join(f"({c.to_sql()})" for c in conditions)
    lowered = dataclasses.replace(select, tables=tables, where=ast.join_conjuncts(conditions))
    return text + tail, comma + tail, lowered


class TestExpressionRoundTrip:
    @given(expressions(3, aggregates=True))
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


def declared_children(node: ast.Expr) -> tuple:
    """The node's ``Expr`` and tuple-of-``Expr`` dataclass fields, in field order."""
    out: list = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, ast.Expr):
            out.append(value)
        elif isinstance(value, tuple) and all(isinstance(v, ast.Expr) for v in value):
            out.extend(value)
    return tuple(out)


#: One node of every expression class.
EVERY_NODE = [
    ast.Literal(1),
    ast.Null(),
    ast.Star("t"),
    ast.ColumnRef("c", "t"),
    ast.FuncCall("COUNT", (ast.ColumnRef("c"),), distinct=True),
    ast.UnaryOp("-", ast.Literal(2)),
    ast.BinaryOp("+", ast.ColumnRef("a"), ast.Literal(3)),
    ast.Between(ast.ColumnRef("a"), ast.Literal(0), ast.Literal(1), negated=True),
    ast.InList(ast.ColumnRef("a"), (ast.Literal(1), ast.Literal(2))),
    ast.IsNull(ast.ColumnRef("a"), negated=True),
]


class TestStructure:
    def test_every_expression_class_is_covered(self):
        assert {type(n) for n in EVERY_NODE} == set(ast.Expr.__subclasses__())

    @pytest.mark.parametrize("node", EVERY_NODE, ids=lambda n: type(n).__name__)
    def test_children_are_the_declared_fields(self, node):
        assert node.children() == declared_children(node)

    @given(expressions(3, aggregates=True))
    @settings(max_examples=300, deadline=None)
    def test_children_are_the_declared_fields_everywhere(self, expr):
        for node in expr.walk():
            assert node.children() == declared_children(node)

    @given(expressions(3, aggregates=True))
    @settings(max_examples=300, deadline=None)
    def test_identity_map_is_the_identity(self, expr):
        for node in expr.walk():
            mapped = node.map(lambda child, _: child, None)
            assert mapped == node
            assert hash(mapped) == hash(node)

    @given(expressions(3, aggregates=True))
    @settings(max_examples=200, deadline=None)
    def test_map_visits_children_in_text_order(self, expr):
        seen = []
        expr.map(lambda child, out: out.append(child) or child, seen)
        assert tuple(seen) == expr.children()
        # walk is pre-order over children: the order the text has them.
        nodes = list(expr.walk())
        assert nodes[0] is expr
        assert nodes[1:] == [m for child in expr.children() for m in child.walk()]

    @given(join_texts())
    @settings(max_examples=200, deadline=None)
    def test_a_join_text_parses_as_its_comma_text(self, texts):
        text, comma, lowered = texts
        assert parse_one(text) == parse_one(comma) == lowered
        # Printed, it is the comma text: one spelling after the parser.
        assert parse_one(lowered.to_sql()) == lowered

    @given(selects)
    @settings(max_examples=200, deadline=None)
    def test_clauses_are_every_expression_in_text_order(self, select):
        clauses = list(select.clauses())
        assert [e for _, e in clauses] == [
            *(i.expr for i in select.items),
            *([select.where] if select.where is not None else []),
            *select.group_by,
            *([select.having] if select.having is not None else []),
            *(o.expr for o in select.order_by),
        ]
        text = select.to_sql()
        positions = [text.find(f" {c} ") if c != "SELECT" else 0 for c, _ in clauses]
        assert positions == sorted(positions)

    def test_conjuncts_split_and_join(self):
        a, b, c = (ast.ColumnRef(n) for n in "abc")
        tree = ast.BinaryOp("AND", ast.BinaryOp("and", a, b), ast.BinaryOp("OR", b, c))
        assert ast.split_conjuncts(tree) == [a, b, ast.BinaryOp("OR", b, c)]
        assert ast.split_conjuncts(None) == []
        assert ast.join_conjuncts([]) is None
        assert ast.join_conjuncts([a]) is a
        joined = ast.join_conjuncts([a, b, c])
        assert joined == ast.BinaryOp("AND", ast.BinaryOp("AND", a, b), c)
        assert ast.split_conjuncts(joined) == [a, b, c]
