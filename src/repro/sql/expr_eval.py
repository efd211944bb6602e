"""Vectorized expression evaluation.

An expression evaluates against an :class:`Environment` that maps
(table, column) to NumPy arrays of a common length.  Everything is
array-at-a-time: a WHERE clause over a million rows is a handful of
ufunc calls, never a Python loop (hpc-parallel guide rule #1).

Aggregate function calls are *not* evaluated here -- the engine
extracts them, computes them per group, and substitutes their results;
:func:`contains_aggregate` is the detector it uses.
"""

from __future__ import annotations

import numpy as np

from . import ast
from .functions import call_function

__all__ = [
    "Environment",
    "evaluate",
    "contains_aggregate",
    "EvalError",
    "literal_in_values",
    "in_values",
    "in_list_mask",
    "null_mask",
    "as_bool",
]


class EvalError(ValueError):
    """Raised when an expression cannot be evaluated."""


class Environment:
    """Column bindings for expression evaluation.

    ``columns`` maps *qualified* names ``(table_name, column_name)`` to
    arrays; unqualified lookups succeed when unambiguous.  ``length`` is
    the common row count (needed to broadcast literal-only expressions).
    """

    def __init__(self, columns: dict[tuple[str, str], np.ndarray], length: int):
        self.columns = columns
        self.length = length
        # Unqualified name -> list of qualified keys, for ambiguity checks.
        self._by_column: dict[str, list[tuple[str, str]]] = {}
        for key in columns:
            self._by_column.setdefault(key[1], []).append(key)

    @classmethod
    def from_table(cls, table) -> "Environment":
        cols = {(table.name, n): a for n, a in table.columns().items()}
        return cls(cols, table.num_rows)

    def lookup(self, column: str, table: str | None = None) -> np.ndarray:
        if table is not None:
            key = (table, column)
            if key not in self.columns:
                raise EvalError(f"unknown column {table}.{column}")
            return self.columns[key]
        candidates = self._by_column.get(column, [])
        if not candidates:
            raise EvalError(f"unknown column {column!r}")
        if len(candidates) > 1:
            raise EvalError(
                f"ambiguous column {column!r}: present in "
                f"{sorted(t for t, _ in candidates)}"
            )
        return self.columns[candidates[0]]

    def tables(self) -> set[str]:
        return {t for t, _ in self.columns}


def contains_aggregate(expr: ast.Expr) -> bool:
    """True if any sub-expression is an aggregate function call."""
    if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
        return True
    return any(map(contains_aggregate, expr.children()))


def literal_in_values(items) -> np.ndarray | None:
    """:func:`in_values` of an all-literal IN list, else None."""
    values = []
    for item in items:
        if not isinstance(item, ast.Literal):
            return None
        values.append(item.value)
    return in_values(values)


def in_values(values) -> np.ndarray | None:
    """Candidate array for the ``np.isin`` IN-list fast path, or None.

    The fast path is only taken when it is provably equivalent to the
    per-item equality loop: the values are homogeneous -- all numeric
    (NaN-free: the sort-based ``np.isin`` would treat NaN == NaN, the
    loop does not) or all strings.  Shared by the interpreter and the
    compiled kernels (which call it with the values bound at execution)
    so the decision can never diverge between the two paths.
    """
    if not values:
        return None
    if all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        if any(isinstance(v, float) for v in values):
            arr = np.asarray(values, dtype=np.float64)
            if np.isnan(arr).any():
                return None
            return arr
        return np.asarray(values, dtype=np.int64)
    if all(isinstance(v, str) for v in values):
        return np.asarray(values, dtype=object)
    return None


def in_list_mask(val, candidates, item_values) -> np.ndarray:
    """Membership mask for ``val IN (...)`` (negation is the caller's job).

    ``candidates`` is the array from :func:`literal_in_values` (or None);
    ``item_values`` the already-evaluated item values for the loop path.
    One ``np.isin`` pass replaces the O(items x rows) equality loop when
    the value array's dtype makes the two provably equivalent; the loop
    is kept for non-literal items and mixed-dtype comparisons.
    """
    val = np.asarray(val)
    if candidates is not None:
        if candidates.dtype == object:
            safe = val.dtype == object
        else:
            safe = val.dtype == np.bool_ or np.issubdtype(val.dtype, np.number)
        if safe and val.ndim > 0:
            return np.isin(val, candidates)
        item_values = candidates  # literal values; fall through to the loop
    out = np.zeros(val.shape, dtype=bool)
    for iv in item_values:
        out |= val == iv
    return out


def null_mask(val) -> np.ndarray:
    """Where ``val`` is NULL: the one rule of ``IS NULL``, for the interpreter and kernels.

    A NULL is a NaN in a float column.  A text column is an object
    array, whose NULL is None or a float NaN (what a VARCHAR NULL is
    stored as): NaN is the one value unequal to itself.  Other columns
    hold no NULL.
    """
    val = np.asarray(val)
    if np.issubdtype(val.dtype, np.floating):
        return np.isnan(val)
    if val.dtype == object:
        return np.equal(val, None) | (val != val)
    return np.zeros(val.shape, dtype=bool)


def evaluate(expr: ast.Expr, env: Environment, aggregates: dict | None = None):
    """Evaluate ``expr`` to a NumPy array (or scalar for literal-only input).

    ``aggregates`` maps already-computed aggregate FuncCall nodes to
    their values; the engine passes it during the projection phase of a
    grouped query.
    """
    if aggregates is not None and isinstance(expr, ast.FuncCall) and expr in aggregates:
        return aggregates[expr]

    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Null):
        return np.nan
    if isinstance(expr, ast.ColumnRef):
        # The database qualifier was resolved when tables were bound;
        # by evaluation time 'db.t.col' refers to table name 't'.
        return env.lookup(expr.column, expr.table)
    if isinstance(expr, ast.FuncCall):
        if expr.is_aggregate:
            raise EvalError(
                f"aggregate {expr.name} in a context where aggregates are not allowed"
            )
        args = [evaluate(a, env, aggregates) for a in expr.args]
        try:
            return call_function(expr.name, args)
        except KeyError as e:
            raise EvalError(str(e)) from e
    if isinstance(expr, ast.UnaryOp):
        val = evaluate(expr.operand, env, aggregates)
        if expr.op == "-":
            return np.negative(val)
        if expr.op.upper() == "NOT":
            return ~as_bool(val)
        raise EvalError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, env, aggregates)
    if isinstance(expr, ast.Between):
        val = evaluate(expr.value, env, aggregates)
        low = evaluate(expr.low, env, aggregates)
        high = evaluate(expr.high, env, aggregates)
        out = (val >= low) & (val <= high)
        return ~out if expr.negated else out
    if isinstance(expr, ast.InList):
        val = np.asarray(evaluate(expr.value, env, aggregates))
        candidates = literal_in_values(expr.items)
        if candidates is None:
            items = [evaluate(item, env, aggregates) for item in expr.items]
        else:
            items = None
        out = in_list_mask(val, candidates, items)
        return ~out if expr.negated else out
    if isinstance(expr, ast.IsNull):
        out = null_mask(evaluate(expr.value, env, aggregates))
        return ~out if expr.negated else out
    if isinstance(expr, ast.Star):
        raise EvalError("'*' is only valid in a select list or COUNT(*)")
    raise EvalError(f"cannot evaluate {type(expr).__name__}")


def as_bool(val):
    """A value as a boolean array: nonzero is true (the kernels' ``H.as_bool`` too)."""
    arr = np.asarray(val)
    if arr.dtype == bool:
        return arr
    return arr != 0


def _binary(expr: ast.BinaryOp, env: Environment, aggregates):
    op = expr.op.upper() if expr.op.isalpha() else expr.op
    if op == "AND":
        # Short-circuit-free vectorized AND; both sides are masks.
        return as_bool(evaluate(expr.left, env, aggregates)) & as_bool(
            evaluate(expr.right, env, aggregates)
        )
    if op == "OR":
        return as_bool(evaluate(expr.left, env, aggregates)) | as_bool(
            evaluate(expr.right, env, aggregates)
        )
    left = evaluate(expr.left, env, aggregates)
    right = evaluate(expr.right, env, aggregates)
    if op == "+":
        return np.add(left, right)
    if op == "-":
        return np.subtract(left, right)
    if op == "*":
        return np.multiply(left, right)
    if op == "/":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(left, np.asarray(right, dtype=np.float64))
    if op == "%":
        return np.mod(left, right)
    if op in ("=", "<=>"):
        return np.equal(left, right)
    if op == "!=":
        return np.not_equal(left, right)
    if op == "<":
        return np.less(left, right)
    if op == "<=":
        return np.less_equal(left, right)
    if op == ">":
        return np.greater(left, right)
    if op == ">=":
        return np.greater_equal(left, right)
    raise EvalError(f"unknown operator {expr.op!r}")
