"""Statement shapes: parse a statement once, bind fresh literals into it after.

Interactive queries are fresh-literal by construction -- "retrieve
object *k*" for another *k*, a box somewhere else each time -- and the
chunk queries, merge queries and index probes derived from them inherit
the literals.  Everything a parser, a plan or a compiled kernel derives
from such a statement depends only on its **shape**: the text with the
numeric literals of its WHERE and ON clauses cut out.  This module is
the one place that defines what is cut and what stays:

- a **hole** is an ``int`` or ``float`` :class:`~repro.sql.ast.Literal`
  anywhere under a WHERE clause or a JOIN's ON clause -- in the parsed
  statement, under its WHERE alone, since the parser AND-s each ON
  condition onto WHERE ahead of the WHERE text, in text order;
- everything else stays in the shape: whether a hole is an integer or a
  float, the ``-`` in front of it (a unary operator, not part of the
  number), the length of an IN list, string literals, and every literal
  outside WHERE/ON -- the select list and GROUP BY (they name output
  columns), HAVING, ``ORDER BY 2``, LIMIT and OFFSET.

:func:`scan` finds the holes in statement *text* without lexing or
parsing it, :func:`literals` and :func:`bind` read and replace them in
a parsed statement, and a :class:`Template` couples the two: the AST of
the first statement of a shape, kept only if the literals the scanner
cut out of its text are, in number, order, kind and value, exactly the
hole literals the parser produced (digits inside identifiers, backticked
names, strings and ``1e-30``-style exponents are where a careless
scanner would differ).  A :class:`ShapeCache` holds templates by shape;
the czar, the workers and :meth:`Database.execute
<repro.sql.engine.Database.execute>` each own one.

AST nodes are frozen, so a template is shared between threads freely
and a bind rebuilds only the WHERE tree and the statement node that
holds it.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from ..lru import Lru
from . import ast
from .parser import parse

__all__ = ["text_key", "scan", "literals", "bind", "blank", "Template", "ShapeCache"]

# What the lexer reads in one piece whatever is inside it, by its own
# rules: strings, quoted names and comments.
_STRING = r"""'(?:[^'\\]|\\.|'')*' | "(?:[^"\\]|\\.|"")*" | `[^`]*`"""
_COMMENT = r"--[^\n]* | /\*.*?\*/"
# The scanner's tokens: those, stepped over; whole words, so that the
# digits of ``Object_713`` or ``o1`` are never taken for a number; the
# statement separator; and number tokens as the lexer delimits them.
_TOKEN_RE = re.compile(
    rf"""
      (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)
    | (?P<end>;)
    | {_STRING}
    | {_COMMENT}
    """,
    re.VERBOSE | re.DOTALL,
)
# What separates two tokens (the lexer's white space, and comments), or
# a string or quoted name, to be kept as it is.
_GAP_RE = re.compile(
    rf"(?P<kept>{_STRING}) | (?: [ \t\r\n]+ | {_COMMENT} )+", re.VERBOSE | re.DOTALL
)
# Words that open a WHERE/ON region, and those that close one.
_OPEN = frozenset({"WHERE", "ON"})
_CLOSE = frozenset({"GROUP", "HAVING", "ORDER", "LIMIT", "SELECT", "UNION"})

# Hole markers in a shape; neither character can occur in statement
# text outside a string, quoted name or comment.
_INT_HOLE, _FLOAT_HOLE = "?", "#"


def text_key(text: str) -> str:
    """The cache key of statement ``text``: each gap between tokens one space.

    The one rule for a key made of text (:mod:`repro.lru`): white space
    and comments fold between tokens, never inside ``'...'``, ``"..."``
    or `` `...` ``, and the statement separator at the end goes.  Two
    texts with one key are one token stream to the lexer, so whatever
    is derived from either is derived from both.
    """
    if text.isascii() and text.isprintable() and not (
        "'" in text or '"' in text or "`" in text or "--" in text or "/*" in text
    ):  # spaces are its only white space and there is nothing to step over
        key = " ".join(text.split())
    else:
        key = _GAP_RE.sub(lambda m: m.group("kept") or " ", text).lstrip(" ")
    return key.rstrip(" ;")


def scan(text: str) -> tuple[str, tuple]:
    """``(shape, values)``: ``text`` with its WHERE/ON numbers cut out.

    ``values`` are the numbers as the parser would read them (``int``
    unless the token has a fraction or an exponent).  Texts of one shape
    tokenize alike but for the values of those number tokens, so they
    parse to ASTs that differ only in the literals holding them --
    provided the scanner and the parser agree on which tokens these
    are, which :meth:`Template.of` checks on the first text of a shape.
    """
    upper = text.upper()
    if "WHERE" not in upper and "ON" not in upper:
        return text, ()  # no region opens without these letters
    values: list = []
    pieces: list[str] = []
    last = 0
    inside = False
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "word":
            word = m.group()
            if len(word) <= 6:  # the longest region keyword
                word = word.upper()
                if word in _OPEN:
                    inside = True
                elif word in _CLOSE:
                    inside = False
        elif kind == "number":
            if inside:
                token = m.group()
                start, end = m.span()
                pieces.append(text[last:start])
                last = end
                if "." in token or "e" in token or "E" in token:
                    pieces.append(_FLOAT_HOLE)
                    values.append(float(token))
                else:
                    pieces.append(_INT_HOLE)
                    values.append(int(token))
        elif kind == "end":
            inside = False
    if not values:
        return text, ()
    pieces.append(text[last:])
    return "".join(pieces), tuple(values)


# -- holes in a parsed statement -----------------------------------------------


def _map_holes(e: ast.Expr, fn) -> ast.Expr:
    """``e`` with each hole's value replaced by ``fn(value)``, in text order."""
    if type(e) is ast.Literal:
        return e if type(e.value) is str else ast.Literal(fn(e.value))
    return e.map(_map_holes, fn)


def _map_statement(stmt: ast.Statement, fn) -> ast.Statement:
    """``stmt`` with ``fn`` over the holes of its WHERE clause."""
    if isinstance(stmt, ast.CreateTableAsSelect):
        return ast.CreateTableAsSelect(
            stmt.table, _map_statement(stmt.select, fn), stmt.database, stmt.if_not_exists
        )
    if not isinstance(stmt, ast.Select):
        return stmt
    where = stmt.where
    return ast.Select(
        stmt.items,
        stmt.tables,
        None if where is None else _map_holes(where, fn),
        stmt.group_by,
        stmt.having,
        stmt.order_by,
        stmt.limit,
        stmt.offset,
        stmt.distinct,
    )


def literals(stmt: ast.Statement) -> tuple:
    """The hole values of ``stmt`` in text order."""
    out: list = []

    def note(value):
        out.append(value)
        return value

    _map_statement(stmt, note)
    return tuple(out)


def bind(stmt: ast.Statement, values: Sequence) -> ast.Statement:
    """``stmt`` with ``values`` in its holes, in text order.

    ``values`` must number and be of the kinds of ``literals(stmt)``;
    callers get them from :func:`scan` of a text of the same shape.
    """
    return _map_statement(stmt, _taking(values))


def _taking(values: Sequence):
    """A hole function that hands out ``values`` in turn."""
    take = iter(values).__next__
    return lambda _: take()


def blank(stmt: ast.Statement) -> ast.Statement:
    """``stmt`` with every hole at zero: the one statement all of its shape share."""
    return _map_statement(stmt, lambda value: type(value)())


class Template:
    """The parsed statements of a shape, ready to take another text's values."""

    __slots__ = ("statements", "holes")

    def __init__(self, statements: Sequence[ast.Statement], holes: int):
        self.statements = tuple(statements)
        #: Number of holes over all statements.
        self.holes = holes

    @classmethod
    def of(cls, statements: Sequence[ast.Statement], values: tuple) -> Optional["Template"]:
        """A template for the shape ``statements`` were parsed from, or None.

        ``values`` is what :func:`scan` cut out of that text.  The shape
        is usable only if those are exactly the statements' holes; if
        not, the scanner saw the text differently from the parser (a
        keyword-named column, a construct it does not know) and texts
        of this shape must be parsed in full.  Only queries have
        shapes: DDL and INSERT texts (a table dump is one) are not
        worth keeping.
        """
        if not all(
            isinstance(stmt, (ast.Select, ast.CreateTableAsSelect))
            for stmt in statements
        ):
            return None
        found = [v for stmt in statements for v in literals(stmt)]
        if len(found) != len(values):
            return None
        for a, b in zip(found, values):
            if type(a) is not type(b) or a != b:
                return None
        return cls(statements, len(values))

    def bind(self, values: tuple) -> Optional[tuple]:
        """The statements with ``values`` in their holes; None if they do not fit."""
        if len(values) != self.holes:
            return None
        if not values:
            return self.statements
        take = _taking(values)
        return tuple([_map_statement(stmt, take) for stmt in self.statements])


class ShapeCache(Lru):
    """LRU from statement shape to whatever its owner derives from it.

    :meth:`parse` is the whole service for an owner that needs the AST
    only; one that keeps more per shape (a worker: the kernel key; the
    czar: the aggregation plan) uses :meth:`get` / :meth:`put` with
    entries of its own around :func:`scan` and :class:`Template`.
    """

    def parse(self, text: str) -> tuple:
        """``parse(text)``, by binding the shape's template when there is one."""
        shape, values = scan(text)
        template = self.get(shape)
        if template is not None:
            statements = template.bind(values)
            if statements is not None:
                return statements
        statements = tuple(parse(text))
        if template is None:
            template = Template.of(statements, values)
            if template is not None:
                self.put(shape, template)
        return statements
