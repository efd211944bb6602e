"""stdlib ``sqlite3`` as an independent oracle for grouping, DISTINCT and ordering.

The engine's two paths -- compiled kernels and the interpreter -- call
the same group and reduce helpers, so comparing them with each other
cannot see a fault in those helpers; sqlite shares no code with either.
Hypothesis draws a small table and a SELECT over it -- keys and
aggregates, with or without DISTINCT, an optional ``WHERE x > literal``
and GROUP BY, ORDER BY every output column -- and kernels on, kernels
off and sqlite must give the same rows: exactly between the two paths,
floats at a relative tolerance of 1e-12 against sqlite.  The engine puts
NULL last, so sqlite is asked ``NULLS LAST``.

``g INT`` has duplicates but no NULLs: an integer column holds none in
this engine (:mod:`repro.sql.table`); ``x DOUBLE`` and ``s VARCHAR``
have both.  ``GENTEST_EXAMPLES`` sets the number of examples.
"""

import math
import os
import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.engine import Database

EXAMPLES = int(os.environ.get("GENTEST_EXAMPLES", 100))

COLUMNS = ("g", "x", "s")
NUMERIC = ("g", "x")

#: Multiples of 1/4: every sum and every average is exact in binary,
#: so the order of two float outputs cannot hang on a rounding.
X_VALUES = (-1.5, 0.25, 0.5, 2.0, 3.75)

rows = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.none() | st.sampled_from(X_VALUES),
        st.none() | st.sampled_from(("", "a", "b", "ab")),
    ),
    max_size=12,
)


@st.composite
def aggregates(draw):
    name = draw(st.sampled_from(("COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX")))
    if name == "COUNT(*)":
        return name
    column = draw(st.sampled_from(NUMERIC if name in ("SUM", "AVG") else COLUMNS))
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    return f"{name}({distinct}{column})"


@st.composite
def selects(draw):
    """``(engine SQL, sqlite SQL)``: one SELECT, ordered by every output column."""
    keys = draw(st.lists(st.sampled_from(COLUMNS), unique=True, max_size=2))
    grouped = draw(st.booleans())
    items = list(keys)
    if grouped:
        items += draw(st.lists(aggregates(), min_size=0 if keys else 1, max_size=3))
    elif not items:
        items = [draw(st.sampled_from(COLUMNS))]
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    sql = f"SELECT {distinct}" + ", ".join(f"{e} AS c{i}" for i, e in enumerate(items))
    sql += " FROM T"
    cut = draw(st.none() | st.sampled_from((-1.0, 0.25, 1.0)))
    if cut is not None:
        sql += f" WHERE x > {cut}"
    if grouped and keys:
        sql += " GROUP BY " + ", ".join(keys)
    names = [f"c{i}" for i in range(len(items))]
    return (
        sql + " ORDER BY " + ", ".join(names),
        sql + " ORDER BY " + ", ".join(f"{n} NULLS LAST" for n in names),
    )


def literal(value) -> str:
    return "NULL" if value is None else repr(value)


def engine_rows(table_rows, sql, use_kernels):
    db = Database(use_kernels=use_kernels)
    db.execute("CREATE TABLE T (g INT, x DOUBLE, s VARCHAR(4))")
    if table_rows:
        values = ", ".join(f"({', '.join(map(literal, row))})" for row in table_rows)
        db.execute(f"INSERT INTO T VALUES {values}")
    return [
        tuple(None if v != v else v.item() if hasattr(v, "item") else v for v in row)
        for row in db.execute(sql).rows()
    ]


def same(value, expected) -> bool:
    if value is None or expected is None:
        return value is expected
    if isinstance(value, float) or isinstance(expected, float):
        return math.isclose(value, expected, rel_tol=1e-12)
    return value == expected


@given(table_rows=rows, query=selects())
@settings(max_examples=EXAMPLES, deadline=None)
def test_engine_answers_what_sqlite_answers(table_rows, query):
    sql, sqlite_sql = query
    compiled = engine_rows(table_rows, sql, use_kernels=True)
    assert engine_rows(table_rows, sql, use_kernels=False) == compiled, sql
    reference = sqlite3.connect(":memory:")
    try:
        reference.execute("CREATE TABLE T (g INTEGER, x DOUBLE, s VARCHAR(4))")
        reference.executemany("INSERT INTO T VALUES (?, ?, ?)", table_rows)
        expected = reference.execute(sqlite_sql).fetchall()
    finally:
        reference.close()
    assert len(compiled) == len(expected), sql
    for row, want in zip(compiled, expected):
        assert all(same(v, w) for v, w in zip(row, want)), (sql, compiled, expected)
