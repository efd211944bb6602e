"""A from-scratch, in-process SQL engine -- the MySQL substitute.

The paper runs one MySQL/MyISAM instance per worker node and reaches it
only through SQL text (queries in, ``mysqldump`` output back), stressing
that "Qserv's design and implementation do not depend on specifics of
MySQL beyond glue code".  This subpackage provides that role: a small
relational engine with

- a hand-written lexer and recursive-descent parser for the SQL dialect
  Qserv emits (:mod:`~repro.sql.lexer`, :mod:`~repro.sql.parser`,
  :mod:`~repro.sql.ast`),
- column-store tables backed by NumPy arrays
  (:mod:`~repro.sql.table`) with hash and sorted indexes
  (:mod:`~repro.sql.index`),
- a vectorized expression evaluator and UDF registry including the
  spherical-geometry UDFs installed on Qserv workers
  (:mod:`~repro.sql.expr_eval`, :mod:`~repro.sql.functions`),
- a query executor supporting filters, equi/spatial joins, grouped and
  plain aggregation, ORDER BY / LIMIT, plus the DDL/DML the worker
  protocol needs (``CREATE TABLE ... AS SELECT`` for on-the-fly
  sub-chunk tables, ``INSERT ... VALUES`` for dump loading)
  (:mod:`~repro.sql.engine`), and
- ``mysqldump``-style table serialization used for results transfer
  (:mod:`~repro.sql.dump`), and the binary columnar wire format that
  replaces it on the hot path (:mod:`~repro.sql.wire`),
- statement shapes -- the text or AST minus the numbers of its
  WHERE/ON clauses -- so that a statement about another object, box or
  threshold is bound into the parse, plan and kernel of the first one
  (:mod:`~repro.sql.shapes`),
- a compiler that fuses each chunk-query plan into one cached NumPy
  kernel (:mod:`~repro.sql.kernels`), and an mmap-backed on-disk
  column store so workers host datasets larger than RAM
  (:mod:`~repro.sql.colstore`).
"""

from .table import Column, RowView, Table
from .engine import Database, ResultTable, SqlError
from .kernels import KernelCache
from .colstore import ColumnStore, MmapTable, ResidencyBudget
from .dump import dump_table, load_dump
from .functions import FUNCTIONS, register_function
from .wire import (
    WireFormatError,
    decode_table,
    encode_table,
    encode_table_parts,
    is_wire_payload,
)

__all__ = [
    "Column",
    "Table",
    "RowView",
    "Database",
    "ResultTable",
    "SqlError",
    "KernelCache",
    "ColumnStore",
    "MmapTable",
    "ResidencyBudget",
    "dump_table",
    "load_dump",
    "encode_table",
    "encode_table_parts",
    "decode_table",
    "is_wire_payload",
    "WireFormatError",
    "FUNCTIONS",
    "register_function",
]
