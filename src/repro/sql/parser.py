"""Recursive-descent parser for the Qserv SQL dialect.

Grammar (subset of MySQL 5.1, which is what the paper's workers run):

- ``SELECT [DISTINCT] items FROM tables [WHERE] [GROUP BY] [HAVING]
  [ORDER BY] [LIMIT [OFFSET]]``, where ``tables`` are separated by
  commas or by ``[INNER] JOIN t ON p`` / ``CROSS JOIN t [ON p]``
- ``CREATE TABLE [IF NOT EXISTS] t (col type, ...)`` and
  ``CREATE TABLE t AS SELECT ...``
- ``DROP TABLE [IF EXISTS] t``
- ``INSERT INTO t [(cols)] VALUES (...), (...)``

An explicit join is parsed as the comma join it means:
``FROM a JOIN b ON p JOIN c ON q WHERE w`` is the same tree as
``FROM a, b, c WHERE (p) AND (q) AND (w)`` -- the tables in text
order, the ON conditions AND-ed in front of WHERE.  Every statement
enters through here, so nothing after the parser knows a second
spelling.  Outer (``LEFT`` / ``RIGHT``) joins are refused, as is
``UNION``.

Expression precedence (loosest to tightest): OR, AND, NOT, comparison /
BETWEEN / IN / IS, additive, multiplicative, unary minus, primary.
SQL subqueries are intentionally rejected -- the paper states "Qserv
does not currently support SQL subqueries".
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .lexer import LexError, Token, TokenType, tokenize

__all__ = ["parse", "parse_one", "ParseError"]


class ParseError(ValueError):
    """Raised when the input is not valid SQL in this dialect."""


_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "ASC", "DESC", "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "BETWEEN",
    "IN", "IS", "NULL", "LIKE", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER",
    "CROSS", "ON", "CREATE", "TABLE", "IF", "EXISTS", "DROP", "INSERT", "INTO",
    "VALUES", "UNION",
}

_COMPARISON_OPS = {"=", "!=", "<>", "<", ">", "<=", ">=", "<=>"}


def parse(sql: str) -> list[ast.Statement]:
    """Parse a semicolon-separated statement list."""
    try:
        tokens = tokenize(sql)
    except LexError as e:
        raise ParseError(str(e)) from e
    parser = _Parser(tokens, sql)
    return parser.parse_statements()


def parse_one(sql: str) -> ast.Statement:
    """Parse exactly one statement."""
    stmts = parse(sql)
    if len(stmts) != 1:
        raise ParseError(f"expected exactly one statement, got {len(stmts)}")
    return stmts[0]


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.type is TokenType.IDENT and tok.value.upper() in words

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.type is TokenType.OP and tok.value in ops

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.advance()
            return True
        return False

    def accept_op(self, *ops: str) -> bool:
        if self.at_op(*ops):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            self.error(f"expected {word}")

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            self.error(f"expected {op!r}")

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.type is not TokenType.IDENT:
            self.error("expected identifier")
        if tok.value.upper() in _KEYWORDS:
            self.error(f"reserved word {tok.value!r} cannot be an identifier")
        self.advance()
        return tok.value

    def error(self, msg: str):
        tok = self.peek()
        context = self.source[max(0, tok.pos - 20) : tok.pos + 20]
        raise ParseError(f"{msg} at offset {tok.pos} near {context!r} (got {tok!r})")

    # -- statements ----------------------------------------------------------

    def parse_statements(self) -> list[ast.Statement]:
        stmts: list[ast.Statement] = []
        while self.peek().type is not TokenType.EOF:
            if self.accept_op(";"):
                continue
            stmts.append(self.statement())
            if self.peek().type is not TokenType.EOF:
                self.expect_op(";")
        return stmts

    def statement(self) -> ast.Statement:
        if self.at_keyword("SELECT"):
            return self.select()
        if self.at_keyword("CREATE"):
            return self.create_table()
        if self.at_keyword("DROP"):
            return self.drop_table()
        if self.at_keyword("INSERT"):
            return self.insert()
        self.error("expected SELECT, CREATE, DROP, or INSERT")

    # -- SELECT -----------------------------------------------------------------

    def select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items = [self.select_item()]
        while self.accept_op(","):
            items.append(self.select_item())

        tables: list[ast.TableRef] = []
        # The ON conditions, then WHERE: AND-ed in this order, which is
        # the order of their literals in the text.
        conditions: list[ast.Expr] = []
        group_by: list[ast.Expr] = []
        having = None
        order_by: list[ast.OrderItem] = []
        limit = offset = None

        if self.accept_keyword("FROM"):
            tables.append(self.table_ref())
            while True:
                if self.accept_op(","):
                    tables.append(self.table_ref())
                    continue
                kind = self.join_kind()
                if kind is None:
                    break
                tables.append(self.table_ref())
                if self.accept_keyword("ON"):
                    conditions.append(self.expr())
                elif kind != "CROSS":
                    self.error(f"{kind} JOIN requires an ON clause")
        if self.accept_keyword("WHERE"):
            conditions.append(self.expr())
        if self.at_keyword("GROUP"):
            self.advance()
            self.expect_keyword("BY")
            group_by.append(self.expr())
            while self.accept_op(","):
                group_by.append(self.expr())
        if self.accept_keyword("HAVING"):
            having = self.expr()
        if self.at_keyword("ORDER"):
            self.advance()
            self.expect_keyword("BY")
            order_by.append(self.order_item())
            while self.accept_op(","):
                order_by.append(self.order_item())
        if self.accept_keyword("LIMIT"):
            limit = self.int_literal()
            if self.accept_op(","):
                # MySQL 'LIMIT offset, count' form.
                offset, limit = limit, self.int_literal()
            elif self.accept_keyword("OFFSET"):
                offset = self.int_literal()
        if self.at_keyword("UNION"):
            self.error("UNION is not supported")
        return ast.Select(
            items=tuple(items),
            tables=tuple(tables),
            where=ast.join_conjuncts(conditions),
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def int_literal(self) -> int:
        tok = self.peek()
        if tok.type is not TokenType.NUMBER:
            self.error("expected integer")
        self.advance()
        try:
            return int(tok.value)
        except ValueError:
            self.error("expected integer")

    def select_item(self) -> ast.SelectItem:
        if self.at_op("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        expr = self.expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().type is TokenType.IDENT and not self._ident_is_keyword():
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def _ident_is_keyword(self) -> bool:
        return self.peek().value.upper() in _KEYWORDS

    def table_ref(self) -> ast.TableRef:
        first = self.expect_ident()
        database = None
        table = first
        if self.accept_op("."):
            database = first
            table = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().type is TokenType.IDENT and not self._ident_is_keyword():
            alias = self.advance().value
        return ast.TableRef(table=table, database=database, alias=alias)

    def join_kind(self) -> Optional[str]:
        """``INNER`` or ``CROSS`` for the JOIN keywords here, consumed; else None.

        An outer join is refused: a row without a partner is kept by it
        and dropped by the comma join every JOIN is parsed as.
        """
        if self.accept_keyword("JOIN"):
            return "INNER"
        if self.at_keyword("INNER", "CROSS"):
            kind = self.advance().value.upper()
            self.expect_keyword("JOIN")
            return kind
        if self.at_keyword("LEFT", "RIGHT"):
            self.error(f"{self.peek().value.upper()} JOIN is not supported")
        return None

    def order_item(self) -> ast.OrderItem:
        expr = self.expr()
        desc = False
        if self.accept_keyword("DESC"):
            desc = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr, desc)

    # -- DDL / DML --------------------------------------------------------------

    def create_table(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        first = self.expect_ident()
        database = None
        table = first
        if self.accept_op("."):
            database = first
            table = self.expect_ident()
        if self.accept_keyword("AS"):
            select = self.select()
            return ast.CreateTableAsSelect(
                table=table, select=select, database=database, if_not_exists=if_not_exists
            )
        self.expect_op("(")
        columns = [self.column_def()]
        while self.accept_op(","):
            columns.append(self.column_def())
        self.expect_op(")")
        return ast.CreateTable(
            table=table, columns=tuple(columns), database=database, if_not_exists=if_not_exists
        )

    def column_def(self) -> ast.ColumnDef:
        name = self.expect_ident()
        type_name = self.expect_ident().upper()
        if self.accept_op("("):
            width = self.int_literal()
            self.expect_op(")")
            type_name = f"{type_name}({width})"
        # Swallow common, semantically-ignored column attributes.
        while self.at_keyword("NOT", "NULL", "DEFAULT", "UNSIGNED", "PRIMARY", "KEY"):
            word = self.advance().value.upper()
            if word == "DEFAULT":
                self.advance()  # the default value
        return ast.ColumnDef(name=name, type_name=type_name)

    def drop_table(self) -> ast.DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        first = self.expect_ident()
        database = None
        table = first
        if self.accept_op("."):
            database = first
            table = self.expect_ident()
        return ast.DropTable(table=table, database=database, if_exists=if_exists)

    def insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        first = self.expect_ident()
        database = None
        table = first
        if self.accept_op("."):
            database = first
            table = self.expect_ident()
        columns: list[str] = []
        if self.accept_op("("):
            columns.append(self.expect_ident())
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        self.expect_keyword("VALUES")
        rows = [self.value_row()]
        while self.accept_op(","):
            rows.append(self.value_row())
        return ast.Insert(
            table=table, rows=tuple(rows), columns=tuple(columns), database=database
        )

    def value_row(self) -> tuple[ast.Expr, ...]:
        self.expect_op("(")
        values = [self.expr()]
        while self.accept_op(","):
            values.append(self.expr())
        self.expect_op(")")
        return tuple(values)

    # -- expressions ----------------------------------------------------------------

    def expr(self) -> ast.Expr:
        return self.or_expr()

    def or_expr(self) -> ast.Expr:
        left = self.and_expr()
        while self.at_keyword("OR") or self.at_op("||"):
            self.advance()
            left = ast.BinaryOp("OR", left, self.and_expr())
        return left

    def and_expr(self) -> ast.Expr:
        left = self.not_expr()
        while self.at_keyword("AND") or self.at_op("&&"):
            self.advance()
            left = ast.BinaryOp("AND", left, self.not_expr())
        return left

    def not_expr(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self.not_expr())
        return self.comparison()

    def comparison(self) -> ast.Expr:
        left = self.additive()
        while True:
            if self.peek().type is TokenType.OP and self.peek().value in _COMPARISON_OPS:
                op = self.advance().value
                if op == "<>":
                    op = "!="
                left = ast.BinaryOp(op, left, self.additive())
                continue
            negated = False
            mark = self.pos
            if self.accept_keyword("NOT"):
                negated = True
            if self.accept_keyword("BETWEEN"):
                low = self.additive()
                self.expect_keyword("AND")
                high = self.additive()
                left = ast.Between(left, low, high, negated)
                continue
            if self.accept_keyword("IN"):
                self.expect_op("(")
                if self.at_keyword("SELECT"):
                    self.error("subqueries are not supported")
                items = [self.expr()]
                while self.accept_op(","):
                    items.append(self.expr())
                self.expect_op(")")
                left = ast.InList(left, tuple(items), negated)
                continue
            if self.accept_keyword("LIKE"):
                right = self.additive()
                node = ast.FuncCall("LIKE", (left, right))
                left = ast.UnaryOp("NOT", node) if negated else node
                continue
            if negated:
                self.pos = mark  # plain NOT belongs to not_expr, rewind
                break
            if self.accept_keyword("IS"):
                neg = self.accept_keyword("NOT")
                self.expect_keyword("NULL")
                left = ast.IsNull(left, neg)
                continue
            break
        return left

    def additive(self) -> ast.Expr:
        left = self.multiplicative()
        while self.at_op("+", "-"):
            op = self.advance().value
            left = ast.BinaryOp(op, left, self.multiplicative())
        return left

    def multiplicative(self) -> ast.Expr:
        left = self.unary()
        while self.at_op("*", "/", "%"):
            op = self.advance().value
            left = ast.BinaryOp(op, left, self.unary())
        return left

    def unary(self) -> ast.Expr:
        if self.at_op("-"):
            self.advance()
            return ast.UnaryOp("-", self.unary())
        if self.at_op("+"):
            self.advance()
            return self.unary()
        return self.primary()

    def primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.type is TokenType.NUMBER:
            self.advance()
            text = tok.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if tok.type is TokenType.STRING:
            self.advance()
            return ast.Literal(tok.value)
        if self.accept_op("("):
            if self.at_keyword("SELECT"):
                self.error("subqueries are not supported")
            inner = self.expr()
            self.expect_op(")")
            return inner
        if tok.type is TokenType.IDENT:
            upper = tok.value.upper()
            if upper == "NULL":
                self.advance()
                return ast.Null()
            return self.identifier_expr()
        self.error("expected expression")

    def identifier_expr(self) -> ast.Expr:
        """An identifier chain: column ref, qualified ref, or function call."""
        first = self.advance().value
        if self.at_op("("):
            return self.func_call(first)
        parts = [first]
        while self.at_op("."):
            # Peek past the dot: could be ident or '*'.
            save = self.pos
            self.advance()
            if self.at_op("*"):
                self.advance()
                if len(parts) == 1:
                    return ast.Star(table=parts[0])
                self.error("bad qualified star")
            if self.peek().type is TokenType.IDENT:
                parts.append(self.advance().value)
            else:
                self.pos = save
                break
        if len(parts) == 1:
            return ast.ColumnRef(column=parts[0])
        if len(parts) == 2:
            return ast.ColumnRef(column=parts[1], table=parts[0])
        if len(parts) == 3:
            return ast.ColumnRef(column=parts[2], table=parts[1], database=parts[0])
        self.error("identifier chain too deep")

    def func_call(self, name: str) -> ast.Expr:
        self.expect_op("(")
        distinct = False
        args: list[ast.Expr] = []
        if self.at_op("*"):
            self.advance()
            self.expect_op(")")
            return ast.FuncCall(name, (ast.Star(),))
        if not self.at_op(")"):
            distinct = self.accept_keyword("DISTINCT")
            args.append(self.expr())
            while self.accept_op(","):
                args.append(self.expr())
        self.expect_op(")")
        return ast.FuncCall(name, tuple(args), distinct=distinct)
