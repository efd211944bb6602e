"""The query executor.

A :class:`Database` owns named :class:`~repro.sql.table.Table` objects
and executes parsed statements against them.  The SELECT pipeline is:

1. bind FROM tables (aliases included) and fold joins left-to-right --
   equi-join conjuncts (``a.x = b.y``) of WHERE run as vectorized
   sort-merge hash joins; pairs without a usable key fall back to a
   guarded cross join (what a near-neighbor sub-chunk join uses, with
   the ``qserv_angSep`` predicate applied immediately),
2. apply WHERE as one mask (using a hash index for ``col = literal``
   conjuncts when one exists -- the worker-side objectId fast path of
   paper section 5.5),
3. group and aggregate (COUNT/SUM/AVG/MIN/MAX, with or without GROUP
   BY) using sort + ``reduceat`` -- no per-group Python work,
4. project the select list, apply HAVING/DISTINCT/ORDER BY/LIMIT.

With kernels on, a compiled kernel (:mod:`repro.sql.kernels`) run by
:meth:`Database.execute_family`, the one place a kernel meets tables,
answers instead wherever it compiles, and steps 1-4 are its reference.

Only the dialect Qserv emits is supported; notably, subqueries are
rejected at parse time just as in the paper's prototype, and so are
outer joins.  An explicit ``JOIN ... ON`` reaches the engine as the
comma join the parser makes of it.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from ..obs import trace as obs_trace
from . import ast
from . import kernels as _kernels
from .errors import SqlError
from .expr_eval import Environment, evaluate
from .index import HashIndex
from .kernels import (
    FALLBACK,
    MAX_CROSS_PAIRS,
    KernelCache,
    KernelFallback,
    KernelKey,
    equi_join,
)
from .parser import ParseError
from .shapes import ShapeCache
from .table import Column, Table, dtype_to_sql_type

__all__ = ["Database", "ResultTable", "SqlError"]

# Sentinel row-index meaning "every row, original order" (avoids paying
# for an arange and identity comparisons on the hot full-scan path).
_IDENTITY = object()


class ResultTable(Table):
    """A query result; a Table whose column order follows the select list."""


class Database:
    """An in-process database: named tables plus optional hash indexes.

    This plays the role of one worker's MySQL instance (or the czar's
    result-merge instance).  ``name`` is the database qualifier accepted
    in queries (e.g. ``LSST.Object_714``); unqualified references work
    too.
    """

    def __init__(
        self,
        name: str = "LSST",
        use_kernels: bool | None = None,
        kernel_cache: KernelCache | None = None,
    ):
        if use_kernels is None:
            use_kernels = os.environ.get("REPRO_KERNELS", "1") != "0"
        self.name = name
        self.tables: dict[str, Table] = {}
        self._indexes: dict[tuple[str, str], HashIndex] = {}
        self.use_kernels = use_kernels
        if kernel_cache is not None:
            self.kernel_cache = kernel_cache
        else:
            self.kernel_cache = KernelCache() if use_kernels else None
        # Parsed statements by shape: a text that differs from an
        # earlier one only in its WHERE/ON numbers is bound, not parsed.
        self._shapes = ShapeCache()

    # -- catalog management -----------------------------------------------------

    def create_table(self, table: Table, overwrite: bool = False) -> None:
        if table.name in self.tables and not overwrite:
            raise SqlError(f"table {table.name!r} already exists")
        self.tables[table.name] = table
        self._drop_indexes(table.name)

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        if name not in self.tables:
            if if_exists:
                return
            raise SqlError(f"no such table {name!r}")
        del self.tables[name]
        self._drop_indexes(name)

    def get_table(self, name: str) -> Table:
        if name not in self.tables:
            raise SqlError(f"no such table {name!r}")
        return self.tables[name]

    def table_names(self) -> list[str]:
        return sorted(self.tables)

    def create_index(self, table: str, column: str) -> None:
        """Build (or rebuild) a hash index on ``table.column``."""
        tbl = self.get_table(table)
        self._indexes[(table, column)] = HashIndex(tbl.column(column))

    def has_index(self, table: str, column: str) -> bool:
        return (table, column) in self._indexes

    def get_index(self, table: str, column: str) -> Optional[HashIndex]:
        """The hash index on ``table.column``, or None if there is none."""
        return self._indexes.get((table, column))

    def _drop_indexes(self, table: str) -> None:
        for key in [k for k in self._indexes if k[0] == table]:
            del self._indexes[key]

    # -- execution ---------------------------------------------------------------

    def execute(self, sql: str) -> Optional[ResultTable]:
        """Execute one or more ';'-separated statements.

        Returns the result of the last SELECT (or None if none ran).
        """
        try:
            statements = self._shapes.parse(sql)
        except ParseError as e:
            raise SqlError(f"parse error: {e}") from e
        result: Optional[ResultTable] = None
        for stmt in statements:
            out = self.execute_statement(stmt)
            if out is not None:
                result = out
        return result

    def execute_statement(
        self, stmt: ast.Statement, kernel_key: Optional[KernelKey] = None
    ) -> Optional[ResultTable]:
        """Execute one parsed statement.

        ``kernel_key`` is :meth:`kernel_key` of a SELECT executed many
        times, computed once by the caller; without it the key is
        derived here, on every execution.
        """
        if isinstance(stmt, ast.Select):
            return self.select(stmt, kernel_key)
        if isinstance(stmt, ast.CreateTable):
            return self._exec_create(stmt)
        if isinstance(stmt, ast.CreateTableAsSelect):
            return self._exec_create_as(stmt)
        if isinstance(stmt, ast.DropTable):
            self.drop_table(stmt.table, if_exists=stmt.if_exists)
            return None
        if isinstance(stmt, ast.Insert):
            return self._exec_insert(stmt)
        raise SqlError(f"unsupported statement {type(stmt).__name__}")

    # -- DDL / DML ------------------------------------------------------------------

    def _exec_create(self, stmt: ast.CreateTable) -> None:
        if stmt.table in self.tables:
            if stmt.if_not_exists:
                return None
            raise SqlError(f"table {stmt.table!r} already exists")
        schema = [Column(c.name, c.type_name) for c in stmt.columns]
        self.tables[stmt.table] = Table.from_schema(stmt.table, schema)
        return None

    def _exec_create_as(self, stmt: ast.CreateTableAsSelect) -> None:
        if stmt.table in self.tables:
            if stmt.if_not_exists:
                return None
            raise SqlError(f"table {stmt.table!r} already exists")
        result = self.select(stmt.select)
        self.tables[stmt.table] = result.rename(stmt.table)
        return None

    def _exec_insert(self, stmt: ast.Insert) -> None:
        table = self.get_table(stmt.table)
        columns = list(stmt.columns) if stmt.columns else table.column_names
        if set(columns) != set(table.column_names):
            raise SqlError(
                f"INSERT columns {columns} do not match table schema "
                f"{table.column_names}"
            )
        # Literal-only fast path (the dump loader always hits this).
        batch: dict[str, list] = {c: [] for c in columns}
        nulls: set[str] = set()
        for row in stmt.rows:
            if len(row) != len(columns):
                raise SqlError(
                    f"INSERT row has {len(row)} values, expected {len(columns)}"
                )
            for col, value_expr in zip(columns, row):
                if isinstance(value_expr, ast.Literal):
                    batch[col].append(value_expr.value)
                elif isinstance(value_expr, ast.Null):
                    batch[col].append(np.nan)
                    nulls.add(col)
                elif isinstance(value_expr, ast.UnaryOp) and isinstance(
                    value_expr.operand, ast.Literal
                ):
                    batch[col].append(-value_expr.operand.value)
                else:
                    raise SqlError("INSERT values must be literals")
        arrays = {}
        for col in columns:
            target = table.column(col).dtype
            if target.kind in "biu" and col in nulls:
                raise SqlError(
                    f"column {col!r} of {stmt.table!r} is {dtype_to_sql_type(target)}, "
                    "which holds no NULL"
                )
            if target == object:
                # Text holds text: a number is stored as its digits, as in
                # MySQL and sqlite; NULL (NaN) stays NULL.
                values = [v if v != v else str(v) for v in batch[col]]
                arrays[col] = np.array(values, dtype=object)
            else:
                arrays[col] = np.array(batch[col]).astype(target)
        table.append_rows(arrays)
        self._drop_indexes(stmt.table)
        return None

    # -- SELECT --------------------------------------------------------------------

    def kernel_key(self, stmt: ast.Statement) -> Optional[KernelKey]:
        """The statement's half of its kernel-cache key; None if it has none.

        Independent of the tables the statement names, so it stays valid
        when only the physical table names of its FROM refs change.
        """
        if self.kernel_cache is None or not self.use_kernels:
            return None
        if not (isinstance(stmt, ast.Select) and stmt.tables):
            return None
        return _kernels.kernel_key(stmt)

    def select(self, sel: ast.Select, kernel_key: Optional[KernelKey] = None) -> ResultTable:
        """A SELECT's result: a kernel's (:meth:`execute_family`) or the interpreter's."""
        if sel.tables:
            names = tuple(ref.table for ref in sel.tables)
            found = self.execute_family(sel, kernel_key, [names])
            if found is not None:
                return found[0]
        return self.interpret(sel)

    def interpret(self, sel: ast.Select) -> ResultTable:
        """A SELECT's result by the interpreter (steps 1-4 of the module docstring)."""
        bound = self._bind_tables(sel)
        sp = obs_trace.current_span()
        if sp is not None:
            # Interpreter path: every bound table is scanned in full.
            # Accumulated, like the kernel path's attribution -- one
            # worker.execute span covers several statements.
            sp.set(
                rows_scanned=sp.attrs.get("rows_scanned", 0)
                + sum(t.num_rows for _, t in bound)
            )
        env = self._join_and_filter(sel, bound)

        aggregates = _kernels.collect_aggregates(sel)
        if aggregates or sel.group_by:
            # Grouping, aggregation (MySQL NULL semantics), and HAVING
            # live in repro.sql.kernels and are shared verbatim with the
            # compiled kernels, so the two paths cannot diverge.
            cols = _kernels.grouped_projection(sel, env, aggregates)
            result = ResultTable("result", cols)
        else:
            result = self._plain_projection(sel, env, bound)
        return self._distinct_order_limit(sel, result, env)

    def execute_family(
        self, sel: ast.Select, kernel_key: Optional[KernelKey], members: list[tuple], plan=None
    ) -> Optional[list[ResultTable]]:
        """``sel`` asked of each member's tables in place of its own: the one kernel entry.

        A member is a tuple of table names, one per FROM entry of
        ``sel``; the results are, member by member, what
        :meth:`execute_statement` returns for ``sel`` with its FROM
        tables so renamed.  :meth:`select` asks it of the statement's
        own tables.  A join kernel makes one pass over all members, a
        one-table kernel one call each.  The kernel cache is consulted
        once -- not at all when ``plan`` (``kernel`` and ``signatures``,
        kept by a caller asking ``sel`` again) holds what a lookup for
        tables of these types found: the kernel, or the compiler's
        decline.  An empty plan is filled by the first lookup.  Tables
        are looked up by name now, so nothing outlives a dropped or
        replaced table.  None when kernels are off, a table is missing,
        another database's or typed unlike the first member's, a lone
        table has an index whose section-5.5 probe a scan would lose,
        or the compiler declines: the caller executes statement by
        statement, as the interpreter (any error is that path's to
        raise).
        """
        cache = self.kernel_cache
        if cache is None or not self.use_kernels:
            return None
        kernel = None if plan is None else plan.kernel
        if kernel is not None:
            signatures = plan.signatures
            resolved = [self._tables_typed(names, signatures) for names in members]
            if None in resolved:
                # Not tables of the plan's types: looked up as without a plan.
                kernel = None
        if kernel is None:
            if any(len(names) != len(sel.tables) for names in members):
                raise ValueError("a family member names one table per FROM entry")
            if any(ref.database not in (None, self.name) for ref in sel.tables):
                return None
            first = [self.tables.get(name) for name in members[0]]
            if any(table is None for table in first):
                return None
            signatures = tuple(table.signature() for table in first)
            resolved = [self._tables_typed(names, signatures) for names in members]
            if None in resolved:
                return None
        if len(signatures) == 1 and self._indexes:
            lone = {name for (name,) in members}
            if any(table in lone for table, _ in self._indexes):
                # Only a single-table scan has an index probe to lose.
                return None
        if kernel is None:
            kernel = cache.get_or_compile(sel, resolved[0], kernel_key)
            if plan is not None and plan.kernel is None:
                plan.kernel = FALLBACK if kernel is None else kernel
                plan.signatures = signatures
        if kernel is None or kernel is FALLBACK:
            sp = obs_trace.current_span()
            if sp is not None:
                sp.set(kernel=False)
            return None
        try:
            if kernel.pairing is not None:
                outputs = kernel.run(sel, resolved)
            else:
                outputs = [kernel(sel, *tables) for tables in resolved]
        except KernelFallback:
            return None
        sp = obs_trace.current_span()
        if sp is not None:
            # Accumulated: one worker.execute span covers several statements.
            sp.set(
                kernel=True,
                rows_scanned=sp.attrs.get("rows_scanned", 0)
                + sum(t.num_rows for tables in resolved for t in tables),
            )
        cache.executions.add(len(members))
        return [self._distinct_order_limit(sel, ResultTable("result", cols)) for cols in outputs]

    def _tables_typed(self, names, signatures) -> Optional[list[Table]]:
        """The tables ``names``, if each exists and has its signature in ``signatures``."""
        tables = []
        for name, signature in zip(names, signatures):
            table = self.tables.get(name)
            if table is None or table.signature() != signature:
                return None
            tables.append(table)
        return tables

    # -- binding and joining ----------------------------------------------------------

    def _bind_tables(self, sel: ast.Select) -> list[tuple[str, Table]]:
        """Resolve FROM table refs to (binding name, Table) pairs."""
        bound: list[tuple[str, Table]] = []
        seen: set[str] = set()
        for ref in sel.tables:
            if ref.database is not None and ref.database != self.name:
                raise SqlError(
                    f"unknown database {ref.database!r} (this instance is {self.name!r})"
                )
            if ref.name in seen:
                raise SqlError(f"duplicate table name/alias {ref.name!r}")
            seen.add(ref.name)
            bound.append((ref.name, self.get_table(ref.table)))
        return bound

    def _join_and_filter(self, sel: ast.Select, bound) -> Environment:
        """Join all FROM tables and apply WHERE; returns the row Environment."""
        if not bound:
            # SELECT without FROM: single pseudo-row.
            return Environment({}, 1)

        conjuncts = ast.split_conjuncts(sel.where)

        # Fold tables left to right, carrying per-table row-index arrays.
        # _IDENTITY marks "all rows, original order" without paying for
        # an arange + equality check on the hot single-table scan path.
        names = [n for n, _ in bound]
        tables = {n: t for n, t in bound}
        idx: dict[str, object] = {names[0]: _IDENTITY}

        def resolve(name):
            """The concrete index array for a binding (identity expanded)."""
            rows = idx[name]
            if rows is _IDENTITY:
                return np.arange(tables[name].num_rows)
            return rows

        def row_count(name):
            rows = idx[name]
            return tables[name].num_rows if rows is _IDENTITY else len(rows)

        for name, table in bound[1:]:
            key = _find_equi_key(conjuncts, set(idx), name, tables)
            if key is not None:
                left_expr, right_col = key
                left_vals = self._eval_on_partial(left_expr, idx, tables)
                right_vals = table.column(right_col)
                li, ri = equi_join(left_vals, right_vals)
                idx = {n: resolve(n)[li] for n in idx}
                idx[name] = ri
            else:
                # Guarded cross join.
                n_left = row_count(next(iter(idx))) if idx else 0
                n_right = table.num_rows
                if n_left * n_right > MAX_CROSS_PAIRS:
                    raise SqlError(
                        f"cross join of {n_left} x {n_right} rows exceeds "
                        f"{MAX_CROSS_PAIRS} pairs; add a join predicate"
                    )
                li = np.repeat(np.arange(n_left), n_right)
                ri = np.tile(np.arange(n_right), n_left)
                idx = {n: resolve(n)[li] for n in idx}
                idx[name] = ri

        # Index fast path (paper section 5.5): an indexed 'col = literal'
        # conjunct pre-restricts the row set before the full predicate runs.
        if sel.where is not None and len(bound) == 1:
            name, table = bound[0]
            rows = self._index_probe(conjuncts, name, table)
            if rows is not None:
                idx = {name: rows}

        env = self._materialize_env(sel, idx, tables)

        if sel.where is not None:
            mask = np.asarray(evaluate(sel.where, env))
            if mask.dtype != bool:
                mask = mask != 0
            if mask.ndim == 0:
                mask = np.full(env.length, bool(mask))
            env = _filter_env(env, mask)
        return env

    def _index_probe(self, conjuncts, name: str, table: Table):
        """Row positions from a usable hash index, or None.

        Handles both ``col = literal`` and ``col IN (literals)`` -- the
        two shapes LV1-class queries take on the workers (section 5.5).
        """
        for c in conjuncts:
            if isinstance(c, ast.BinaryOp) and c.op == "=":
                candidates = ((c.left, [c.right]), (c.right, [c.left]))
            elif isinstance(c, ast.InList) and not c.negated:
                candidates = ((c.value, c.items),)
            else:
                continue
            for ref, items in candidates:
                if not (
                    isinstance(ref, ast.ColumnRef)
                    and ref.table in (None, name)
                    and all(isinstance(i, ast.Literal) for i in items)
                ):
                    continue
                index = self._indexes.get((table.name, ref.column))
                if index is not None:
                    values = [i.value for i in items]
                    if isinstance(c, ast.InList):
                        return index.lookup_many(values)
                    return index.lookup(values[0])
        return None

    def _eval_on_partial(self, expr: ast.Expr, idx, tables):
        # Only the columns the expression touches are materialized --
        # on an mmap-backed table this avoids faulting in every column.
        wanted = _kernels.expr_columns(expr)
        cols = {}
        length = None
        for n, rows in idx.items():
            table = tables[n]
            for cname in table.column_names:
                if cname not in wanted:
                    continue
                arr = table.column(cname)
                cols[(n, cname)] = arr if rows is _IDENTITY else arr[rows]
            length = table.num_rows if rows is _IDENTITY else len(rows)
        env = Environment(cols, length or 0)
        return np.asarray(evaluate(expr, env))

    def _materialize_env(self, sel: ast.Select, idx, tables) -> Environment:
        """Build the Environment, materializing only referenced columns.

        With a single table and the identity index, columns are passed
        through as views (no copies) -- the common full-scan path.
        Columns are fetched by name so mmap-backed tables only map what
        the query references.
        """
        referenced = _kernels.referenced_columns(sel)
        cols: dict[tuple[str, str], np.ndarray] = {}
        length = 0
        for n, rows in idx.items():
            table = tables[n]
            identity = rows is _IDENTITY
            length = table.num_rows if identity else len(rows)
            want_all = _wants_all_columns(sel, n)
            for cname in table.column_names:
                if not want_all and (cname not in referenced):
                    continue
                arr = table.column(cname)
                cols[(n, cname)] = arr if identity else arr[rows]
        return Environment(cols, length)

    # -- projection ---------------------------------------------------------------------

    def _plain_projection(self, sel: ast.Select, env: Environment, bound) -> ResultTable:
        out_cols: dict[str, np.ndarray] = {}
        for item in sel.items:
            if isinstance(item.expr, ast.Star):
                for name, arr in self._expand_star(item.expr, env, bound):
                    _add_result_column(out_cols, name, arr, env.length)
                continue
            val = evaluate(item.expr, env)
            _add_result_column(out_cols, item.output_name(), val, env.length)
        return ResultTable("result", out_cols)

    def _expand_star(self, star: ast.Star, env: Environment, bound):
        tables = dict(bound)
        targets = [star.table] if star.table else list(tables)
        out = []
        used: set[str] = set()
        for t in targets:
            if t not in tables:
                raise SqlError(f"unknown table {t!r} in '{t}.*'")
            for cname in tables[t].column_names:
                key = (t, cname)
                if key not in env.columns:
                    continue
                public = cname if cname not in used else f"{t}.{cname}"
                used.add(cname)
                out.append((public, env.columns[key]))
        return out

    def _distinct_order_limit(
        self, sel: ast.Select, result: ResultTable, env: Optional[Environment] = None
    ) -> ResultTable:
        """``result`` with DISTINCT, ORDER BY and LIMIT applied.

        ``env`` holds the rows ORDER BY expressions are evaluated over;
        None for a kernel's output, whose compilation guaranteed every
        ORDER BY key resolves against the output columns.
        """
        if sel.distinct:
            result = _distinct(result)
        if sel.order_by:
            if env is None:
                env = Environment({}, result.num_rows)
            keys = []
            for o in reversed(sel.order_by):
                key = self._order_key(o, result, env)
                if o.descending:
                    # Any type by its rank; NaN stays NaN: NULL last either way.
                    key = -_kernels.ranks(key)[0]
                elif key.dtype == object:
                    key = _kernels.ranks(key)[0]  # text by rank; a NULL's NaN is last
                keys.append(key)
            order = np.lexsort(keys)
            result = ResultTable(
                "result", {k: v[order] for k, v in result.columns().items()}
            )
        if sel.limit is not None:
            start = sel.offset or 0
            stop = start + sel.limit
            result = ResultTable(
                "result", {k: v[start:stop] for k, v in result.columns().items()}
            )
        return result

    def _order_key(self, o: ast.OrderItem, result: ResultTable, env: Environment):
        # Positional: ORDER BY 2.
        if isinstance(o.expr, ast.Literal) and isinstance(o.expr.value, int):
            pos = o.expr.value - 1
            names = result.column_names
            if not 0 <= pos < len(names):
                raise SqlError(f"ORDER BY position {o.expr.value} out of range")
            return result.column(names[pos])
        # Output column (alias or plain name) takes precedence, MySQL-style.
        if isinstance(o.expr, ast.ColumnRef) and o.expr.table is None:
            if o.expr.column in result:
                return result.column(o.expr.column)
        if isinstance(o.expr, ast.FuncCall):
            name = o.expr.to_sql()
            if name in result:
                return result.column(name)
        val = np.asarray(evaluate(o.expr, env))
        if len(val) != result.num_rows:
            raise SqlError("ORDER BY expression length mismatch")
        return val


# -- helpers -----------------------------------------------------------------------


def _add_result_column(out_cols, name, val, length):
    arr = np.asarray(val)
    if arr.ndim == 0:
        arr = np.full(length, val)
    if name in out_cols:
        # MySQL allows duplicate output names; disambiguate.
        i = 2
        while f"{name}_{i}" in out_cols:
            i += 1
        name = f"{name}_{i}"
    out_cols[name] = arr


def _filter_env(env: Environment, mask: np.ndarray) -> Environment:
    cols = {k: v[mask] for k, v in env.columns.items()}
    return Environment(cols, int(np.count_nonzero(mask)))


def _distinct(result: ResultTable) -> ResultTable:
    """The first row of each group of equal rows (NULLs equal, as in GROUP BY)."""
    if result.num_rows == 0 or not result.column_names:
        return result
    cols = [np.asarray(result.column(n)) for n in result.column_names]
    order, starts = _kernels.group_structure(cols, result.num_rows)
    keep_rows = starts if order is None else np.sort(order[starts])
    return ResultTable(
        "result", {k: v[keep_rows] for k, v in result.columns().items()}
    )


def _find_equi_key(conjuncts, have: set[str], incoming: str, tables):
    """Find an equi-join conjunct linking ``incoming`` to already-bound tables.

    Returns (left_expr_over_have, right_column_name) or None.  Only
    simple ``ref = ref`` conjuncts are used; anything fancier runs as a
    post-join filter.
    """
    for c in conjuncts:
        if not (isinstance(c, ast.BinaryOp) and c.op == "="):
            continue
        left, right = c.left, c.right
        if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
            continue
        for a, b in ((left, right), (right, left)):
            if a.table in have and b.table == incoming:
                return a, b.column
        # Unqualified columns: resolvable only if names are unambiguous;
        # skip rather than guess.
    return None


def _wants_all_columns(sel: ast.Select, table_name: str) -> bool:
    return any(
        isinstance(item.expr, ast.Star) and item.expr.table in (None, table_name)
        for item in sel.items
    )
