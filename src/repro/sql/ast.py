"""AST node definitions for the SQL dialect.

Expression and statement nodes are small frozen dataclasses.  Every
node knows how to render itself back to SQL text (``to_sql``) -- the
Qserv czar manipulates parsed queries and then *re-emits SQL text* for
dispatch to workers, so faithful round-tripping is a first-class
requirement, not a debugging aid.

The shape of the tree is described here and nowhere else.  An
expression node lists its sub-expressions (:meth:`Expr.children`) and
rebuilds itself around new ones (:meth:`Expr.map`); a :class:`Select`
lists its clause expressions (:meth:`Select.clauses`).  Code elsewhere
traverses a tree through these, never by naming a node's fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

__all__ = [
    "split_conjuncts",
    "join_conjuncts",
    "Expr",
    "Literal",
    "Null",
    "Star",
    "ColumnRef",
    "FuncCall",
    "UnaryOp",
    "BinaryOp",
    "Between",
    "InList",
    "IsNull",
    "SelectItem",
    "TableRef",
    "OrderItem",
    "Select",
    "ColumnDef",
    "CreateTable",
    "CreateTableAsSelect",
    "DropTable",
    "Insert",
    "Statement",
]

AGGREGATE_FUNCS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


#: Printer precedence levels, loosest to tightest.  Children printed in
#: a context demanding higher precedence than their own get parentheses
#: -- the invariant is ``parse(node.to_sql()) == node`` for every tree.
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_COMPARE = 4  # =, <, BETWEEN, IN, IS, LIKE
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_UNARY = 7
_PREC_PRIMARY = 8


class Expr:
    """Base class for expression nodes.

    A leaf (literal, NULL, star, column) has no children and maps to
    itself; every composite class defines :meth:`children` and
    :meth:`map` for its own fields, so a new node type is known to every
    traversal once it defines those two.
    """

    #: Printer precedence of this node (see the _PREC_* levels).
    precedence: int = _PREC_PRIMARY

    def children(self) -> tuple[Expr, ...]:
        """The sub-expressions of this node, in text order."""
        return ()

    def map(self, f, arg) -> Expr:
        """This node with ``f(child, arg)`` in place of each child.

        ``f`` is called on the children in text order; ``arg`` is
        whatever the caller threads through the recursion.  It is one
        argument, not ``*args``: statement binding maps every WHERE tree
        and a star-call would cost it a fifth of its time.
        """
        return self

    def walk(self) -> Sequence[Expr]:
        """This node and every node under it, in text order (pre-order)."""
        children = self.children()
        if not children:
            return (self,)
        nodes = [self]
        for child in children:
            nodes += child.walk()
        return nodes

    def to_sql(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def _sql_as(self, min_precedence: int) -> str:
        """SQL text, parenthesized if looser than the context requires."""
        sql = self.to_sql()
        if self.precedence < min_precedence:
            return f"({sql})"
        return sql


def _quote_ident(name: str) -> str:
    """Backtick-quote identifiers that need it (e.g. ``SUM(uFlux_SG)``)."""
    if name and all(c.isalnum() or c in "_$" for c in name):
        return name
    return f"`{name}`"


def _quote_str(s: str) -> str:
    return "'" + s.replace("\\", "\\\\").replace("'", "\\'") + "'"


@dataclass(frozen=True)
class Literal(Expr):
    """A numeric or string constant."""

    value: Union[int, float, str]

    def to_sql(self) -> str:
        if isinstance(self.value, str):
            return _quote_str(self.value)
        if isinstance(self.value, float):
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class Null(Expr):
    """The SQL NULL literal."""

    def to_sql(self) -> str:
        return "NULL"


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None

    def to_sql(self) -> str:
        return f"{_quote_ident(self.table)}.*" if self.table else "*"


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference: ``col``, ``t.col``, ``db.t.col``."""

    column: str
    table: Optional[str] = None
    database: Optional[str] = None

    def to_sql(self) -> str:
        parts = [p for p in (self.database, self.table, self.column) if p is not None]
        return ".".join(_quote_ident(p) for p in parts)


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; aggregates are FuncCalls with names in AGGREGATE_FUNCS."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in AGGREGATE_FUNCS

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def map(self, f, arg) -> FuncCall:
        return FuncCall(self.name, tuple([f(a, arg) for a in self.args]), self.distinct)

    def to_sql(self) -> str:
        inner = ", ".join(a.to_sql() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # '-', 'NOT'
    operand: Expr

    @property
    def precedence(self) -> int:
        return _PREC_NOT if self.op.upper() == "NOT" else _PREC_UNARY

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def map(self, f, arg) -> UnaryOp:
        return UnaryOp(self.op, f(self.operand, arg))

    def to_sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"NOT ({self.operand.to_sql()})"
        # The operand of unary minus must be primary: '--x' would lex as
        # a comment, and '-a + b' must not re-parse as '-(a + b)'.
        return f"{self.op}{self.operand._sql_as(_PREC_PRIMARY)}"


_BINARY_PRECEDENCE = {
    "OR": _PREC_OR,
    "AND": _PREC_AND,
    "=": _PREC_COMPARE,
    "<=>": _PREC_COMPARE,
    "!=": _PREC_COMPARE,
    "<": _PREC_COMPARE,
    "<=": _PREC_COMPARE,
    ">": _PREC_COMPARE,
    ">=": _PREC_COMPARE,
    "+": _PREC_ADD,
    "-": _PREC_ADD,
    "*": _PREC_MUL,
    "/": _PREC_MUL,
    "%": _PREC_MUL,
}


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # comparison, arithmetic, AND, OR
    left: Expr
    right: Expr

    @property
    def precedence(self) -> int:
        return _BINARY_PRECEDENCE[self.op.upper() if self.op.isalpha() else self.op]

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def map(self, f, arg) -> BinaryOp:
        return BinaryOp(self.op, f(self.left, arg), f(self.right, arg))

    def to_sql(self) -> str:
        op = self.op.upper() if self.op.isalpha() else self.op
        prec = self.precedence
        if op in ("AND", "OR"):
            return f"({self.left.to_sql()} {op} {self.right.to_sql()})"
        # Left-associative: the right child needs strictly tighter
        # binding so 'a - (b - c)' keeps its parentheses; comparisons
        # additionally require both sides above comparison level (the
        # grammar does not chain them).
        left = self.left._sql_as(prec if prec > _PREC_COMPARE else prec + 1)
        right = self.right._sql_as(prec + 1)
        return f"{left} {op} {right}"


@dataclass(frozen=True)
class Between(Expr):
    value: Expr
    low: Expr
    high: Expr
    negated: bool = False

    precedence = _PREC_COMPARE

    def children(self) -> tuple[Expr, ...]:
        return (self.value, self.low, self.high)

    def map(self, f, arg) -> Between:
        return Between(
            f(self.value, arg), f(self.low, arg), f(self.high, arg), self.negated
        )

    def to_sql(self) -> str:
        neg = "NOT " if self.negated else ""
        return (
            f"{self.value._sql_as(_PREC_ADD)} {neg}BETWEEN "
            f"{self.low._sql_as(_PREC_ADD)} AND {self.high._sql_as(_PREC_ADD)}"
        )


@dataclass(frozen=True)
class InList(Expr):
    value: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    precedence = _PREC_COMPARE

    def children(self) -> tuple[Expr, ...]:
        return (self.value, *self.items)

    def map(self, f, arg) -> InList:
        return InList(
            f(self.value, arg), tuple([f(i, arg) for i in self.items]), self.negated
        )

    def to_sql(self) -> str:
        neg = "NOT " if self.negated else ""
        inner = ", ".join(i.to_sql() for i in self.items)
        return f"{self.value._sql_as(_PREC_ADD)} {neg}IN ({inner})"


@dataclass(frozen=True)
class IsNull(Expr):
    value: Expr
    negated: bool = False

    precedence = _PREC_COMPARE

    def children(self) -> tuple[Expr, ...]:
        return (self.value,)

    def map(self, f, arg) -> IsNull:
        return IsNull(f(self.value, arg), self.negated)

    def to_sql(self) -> str:
        neg = " NOT" if self.negated else ""
        return f"{self.value._sql_as(_PREC_ADD)} IS{neg} NULL"


def split_conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """The AND-ed terms of ``expr``, left to right (none for None)."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def join_conjuncts(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """The terms AND-ed together, left-associated (None for none)."""
    if not conjuncts:
        return None
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = BinaryOp("AND", out, c)
    return out


# -- statements ------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None

    def output_name(self) -> str:
        """The result-column name, MySQL style: alias, else the SQL text."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        return self.expr.to_sql()

    def to_sql(self) -> str:
        sql = self.expr.to_sql()
        if self.alias:
            sql += f" AS {_quote_ident(self.alias)}"
        return sql


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause, optionally database-qualified and aliased."""

    table: str
    database: Optional[str] = None
    alias: Optional[str] = None

    @property
    def name(self) -> str:
        """The name this table is referred to by in the query."""
        return self.alias or self.table

    def qualified(self) -> str:
        return f"{self.database}.{self.table}" if self.database else self.table

    def to_sql(self) -> str:
        sql = ".".join(_quote_ident(p) for p in (self.database, self.table) if p)
        if self.alias:
            sql += f" AS {_quote_ident(self.alias)}"
        return sql


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False

    def to_sql(self) -> str:
        return self.expr.to_sql() + (" DESC" if self.descending else "")


@dataclass(frozen=True)
class Select:
    """A SELECT; ``tables`` is every table it joins, in text order.

    A join has one form, the comma join: the parser turns ``JOIN ...
    ON`` into it (:mod:`repro.sql.parser`).
    """

    items: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False

    def clauses(self) -> list[tuple[str, Expr]]:
        """``(clause, expression)`` for every expression of this SELECT, in text order.

        ``clause`` is the keyword the expression stands under:
        ``SELECT`` (an item), ``WHERE``, ``GROUP BY``, ``HAVING`` or
        ``ORDER BY``.
        """
        out = []
        for item in self.items:
            out.append(("SELECT", item.expr))
        if self.where is not None:
            out.append(("WHERE", self.where))
        for g in self.group_by:
            out.append(("GROUP BY", g))
        if self.having is not None:
            out.append(("HAVING", self.having))
        for o in self.order_by:
            out.append(("ORDER BY", o.expr))
        return out

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(i.to_sql() for i in self.items))
        if self.tables:
            parts.append("FROM")
            parts.append(", ".join(t.to_sql() for t in self.tables))
        if self.where is not None:
            parts.append("WHERE")
            parts.append(self.where.to_sql())
        if self.group_by:
            parts.append("GROUP BY")
            parts.append(", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append("HAVING")
            parts.append(self.having.to_sql())
        if self.order_by:
            parts.append("ORDER BY")
            parts.append(", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
            if self.offset is not None:
                parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str  # e.g. 'BIGINT', 'DOUBLE', 'VARCHAR(32)'

    def to_sql(self) -> str:
        return f"{_quote_ident(self.name)} {self.type_name}"


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[ColumnDef, ...]
    database: Optional[str] = None
    if_not_exists: bool = False

    def to_sql(self) -> str:
        name = ".".join(_quote_ident(p) for p in (self.database, self.table) if p)
        ine = "IF NOT EXISTS " if self.if_not_exists else ""
        cols = ", ".join(c.to_sql() for c in self.columns)
        return f"CREATE TABLE {ine}{name} ({cols})"  # reprolint: disable=sql-template -- serializer: holes are multi-token


@dataclass(frozen=True)
class CreateTableAsSelect:
    """``CREATE TABLE t AS SELECT ...`` -- how workers build sub-chunk tables."""

    table: str
    select: Select
    database: Optional[str] = None
    if_not_exists: bool = False

    def to_sql(self) -> str:
        name = ".".join(_quote_ident(p) for p in (self.database, self.table) if p)
        ine = "IF NOT EXISTS " if self.if_not_exists else ""
        return f"CREATE TABLE {ine}{name} AS {self.select.to_sql()}"  # reprolint: disable=sql-template -- serializer: holes are multi-token


@dataclass(frozen=True)
class DropTable:
    table: str
    database: Optional[str] = None
    if_exists: bool = False

    def to_sql(self) -> str:
        name = ".".join(_quote_ident(p) for p in (self.database, self.table) if p)
        ie = "IF EXISTS " if self.if_exists else ""
        return f"DROP TABLE {ie}{name}"


@dataclass(frozen=True)
class Insert:
    table: str
    rows: tuple[tuple[Expr, ...], ...]
    columns: tuple[str, ...] = ()
    database: Optional[str] = None

    def to_sql(self) -> str:
        name = ".".join(_quote_ident(p) for p in (self.database, self.table) if p)
        cols = ""
        if self.columns:
            cols = " (" + ", ".join(_quote_ident(c) for c in self.columns) + ")"
        rows = ", ".join(
            "(" + ", ".join(v.to_sql() for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {name}{cols} VALUES {rows}"  # reprolint: disable=sql-template -- serializer: holes are multi-token


Statement = Union[Select, CreateTable, CreateTableAsSelect, DropTable, Insert]
