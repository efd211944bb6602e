"""Compiled fused query kernels (the per-node engine fast path).

The interpreter in :mod:`repro.sql.engine` walks the AST node-by-node
for every statement, allocating an intermediate array per operator and
evaluating every WHERE conjunct over the full table.  Chunk queries are
templates, though: the czar dispatches the *same* rewritten SELECT to
hundreds of chunk tables, so the per-query plan is worth compiling
once and replaying.  This module compiles a single-table SELECT into
one fused, cached callable:

- **Mask stage** (codegen): all *cheap* WHERE conjuncts -- comparisons,
  BETWEEN, IN lists (``np.isin`` for literal lists), IS NULL, boolean
  combinations -- are emitted as one generated Python/NumPy function
  that folds conjunct masks together with ``np.logical_and(..., out=m)``
  scratch reuse instead of N ``evaluate`` dispatches.
- **Survivor stages** (codegen): conjuncts containing function calls
  (the expensive UDFs: ``fluxToAbMag``, spherical-geometry predicates)
  are compiled into per-conjunct functions that run only on the rows
  surviving the cheap mask -- a selective spatial cut means the UDF
  touches a few percent of the table instead of all of it.  All
  registered functions are elementwise, so survivor-order evaluation is
  bit-identical to full-table evaluation.
- **Projection stage** (codegen): plain projections are emitted over
  the gathered survivor columns.
- **Aggregate stage** (codegen): a grouped or aggregate query gets
  :func:`grouped_projection` written out for it as one function -- the
  group structure once, each distinct aggregate argument evaluated and
  tested for NULLs once, the select list and HAVING as emitted
  expressions.  The group ladder (:func:`group_structure`) and the
  reductions (``_REDUCTIONS``) it calls are the ones the interpreter
  calls, on the same operands -- the NULL rules are written once, so
  kernel aggregation cannot diverge from interpreted aggregation by
  construction.  What the emitter declines (DISTINCT aggregates,
  aggregates over text) ends in :func:`grouped_projection` itself.

Kernels are cached in a :class:`KernelCache` (the worker-side analogue
of the czar plan cache) keyed by the statement's *shape* -- the physical
chunk table name is replaced by a placeholder so ``Object_713`` and
``Object_714`` share one kernel, and the numeric literals of the WHERE
clause are blanked (:mod:`repro.sql.shapes`) so one kernel serves every
objectId, box and threshold -- plus the table's schema signature.  The
generated code reads those literals at call time, from the statement it
is executing, as ``P[i]``: plain Python ``int``/``float`` scalars, so
NumPy promotes and computes exactly as it does for the interpreter.
Cache traffic is exported as ``kernel.cache.*`` metrics and annotated
on the enclosing trace span.

Two-table joins compile into a :class:`JoinKernel` (the shape of the
sub-chunk near-neighbour statements and of Object x Source):
conjuncts bound to one side filter that side before pairing, candidate
pairs come from a ``col = col`` sort-merge or from a sorted declination
band under a ``qserv_angSep(...) < r`` conjunct, and every pair
conjunct is then evaluated exactly on the candidates by the
interpreter's own :func:`~repro.sql.expr_eval.evaluate`.  It runs a
whole *family* -- one statement asked of several pairs of tables, the
2 x *n* sub-chunk statements of a chunk query -- in one pass
(:meth:`JoinKernel.run`, behind
:meth:`Database.execute_family <repro.sql.engine.Database.execute_family>`):
the members' rows are stacked end to end and the two rows of a pair
must come from one member.

Queries a kernel cannot express (three or more tables, joins with no
pairing conjunct, shapes that need the interpreter's fallback
behaviours) raise :class:`KernelFallback` at
compile time; the negative result is cached too, so the decision costs
one dict hit per statement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..lru import Lru
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import ast
from .errors import SqlError
from .expr_eval import (
    Environment,
    contains_aggregate,
    evaluate,
    in_list_mask,
    in_values,
    literal_in_values,
)
from .functions import FUNCTIONS
from .shapes import blank

__all__ = [
    "KernelCache",
    "CompiledKernel",
    "JoinKernel",
    "KernelFallback",
    "compile_select",
    "compile_join",
    "equi_join",
    "isin",
    "MAX_CROSS_PAIRS",
    "normalize_select",
    "KernelKey",
    "kernel_key",
    "referenced_columns",
    "expr_columns",
    "collect_aggregates",
    "grouped_projection",
    "compute_aggregate",
    "group_structure",
    "boundaries",
]

# A join that would materialize more candidate pairs than this means a
# query forgot its join predicate; sub-chunk near-neighbor joins sit
# far below it.  Guards the interpreter's cross join and the join
# kernel's declination band alike.
MAX_CROSS_PAIRS = 30_000_000


class KernelFallback(Exception):
    """The query shape is not kernel-compilable; use the interpreter."""


# -- AST helpers shared with the engine -------------------------------------------


def _conjunct_paths(expr: ast.Expr | None, path: str) -> list[tuple[ast.Expr, str]]:
    """:func:`~repro.sql.ast.split_conjuncts` with the attribute path to each one."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op.upper() == "AND":
        return _conjunct_paths(expr.left, path + ".left") + _conjunct_paths(
            expr.right, path + ".right"
        )
    return [(expr, path)]


def expr_columns(*exprs: ast.Expr) -> set[str]:
    """Unqualified column names referenced by the expressions."""
    return {
        e.column for expr in exprs for e in expr.walk() if isinstance(e, ast.ColumnRef)
    }


def referenced_columns(sel: ast.Select) -> set[str]:
    """Unqualified column names referenced anywhere in the query."""
    return expr_columns(*(expr for _, expr in sel.clauses()))


# The clauses whose aggregates are computed per group; an aggregate
# anywhere else is an error the evaluator reports.
_AGGREGATING = frozenset({"SELECT", "HAVING", "ORDER BY"})


def collect_aggregates(sel: ast.Select) -> list[ast.FuncCall]:
    """All distinct aggregate calls in select list, HAVING, and ORDER BY."""
    found: dict[ast.FuncCall, None] = {}
    for clause, expr in sel.clauses():
        if clause in _AGGREGATING:
            _aggregates_in(expr, found)
    return list(found)


def _aggregates_in(expr: ast.Expr, found: dict) -> None:
    if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
        found.setdefault(expr)  # its argument is evaluated per row
    else:
        for child in expr.children():
            _aggregates_in(child, found)


def _contains_func(expr: ast.Expr) -> bool:
    """True if the expression contains any function call (aggregate or not)."""
    return any(isinstance(e, ast.FuncCall) for e in expr.walk())


def normalize_select(sel: ast.Select) -> tuple[ast.Select, tuple[str, ...]]:
    """(cache-keyable select, binding name per table ref) for a SELECT.

    Physical table names are replaced by positional placeholders so
    chunk queries (``... FROM LSST.Object_713 AS Object``), sub-chunk
    pairs (``Object_713_45 AS o1, ObjectFullOverlap_713_45 AS o2``) and
    per-query merge tables (``... FROM qserv_merge_7``) of the same
    template share one cache entry.  When a table is unaliased *and*
    its name is used as a column qualifier or in ``t.*``, anonymizing
    would change how columns resolve, so that ref is keyed as-is (still
    cached, just per-table-name).
    """
    refs = sel.tables
    qualifiers: set[str] = set()
    if not all(ref.alias for ref in refs):
        qualifiers = {
            e.table
            for _, expr in sel.clauses()
            for e in expr.walk()
            if isinstance(e, (ast.ColumnRef, ast.Star)) and e.table is not None
        }

    anon: list[ast.TableRef] = []
    bindings: list[str] = []
    for i, ref in enumerate(refs):
        placeholder = f"_T{i}_"
        if ref.alias:
            # Column refs use the alias; only the physical name moves.
            anon.append(ast.TableRef(table=placeholder, alias=ref.alias))
            bindings.append(ref.alias)
        elif ref.table in qualifiers:
            anon.append(ref)
            bindings.append(ref.table)
        else:
            anon.append(ast.TableRef(table=placeholder))
            bindings.append(placeholder)
    return replace(sel, tables=tuple(anon)), tuple(bindings)


class KernelKey(NamedTuple):
    """What a kernel lookup derives from a SELECT, apart from its tables.

    It depends on the statement alone, so a caller that executes one
    statement many times (a worker's prepared chunk statement) computes
    it once and hands it back with every execution.
    """

    #: The normalized, literal-free SELECT as text: the statement half
    #: of the cache key.
    sql: str
    #: That SELECT, compiled on a cache miss.
    select: ast.Select
    #: Binding name per table ref, in clause order.
    bindings: tuple[str, ...]


def kernel_key(sel: ast.Select) -> KernelKey:
    norm, bindings = normalize_select(sel)
    norm = blank(norm)
    return KernelKey(norm.to_sql(), norm, bindings)


# -- shared group/reduce helpers (used by interpreter AND kernels) ------------------


def boundaries(keys: np.ndarray) -> np.ndarray:
    """``keys[1:] != keys[:-1]``, except that NULL (NaN) equals NULL.

    Where one group, one DISTINCT row or one distinct value ends and
    the next begins, for keys already in sorted order: MySQL puts all
    NULLs in one group, and every sort here puts NaN last.
    """
    changed = keys[1:] != keys[:-1]
    if keys.dtype.kind == "f":
        null = np.isnan(keys)
        if null.any():
            changed &= ~(null[1:] & null[:-1])
    return changed


def group_structure(keys: list[np.ndarray], n: int):
    """(order, group_starts) for GROUP BY keys; ``order`` None is the identity.

    A ladder, cheapest rung first; every rung gives the groups of a
    stable lexicographic sort with NULL (NaN) keys equal to each other
    and last:

    1. one integer key that never changes (a chunk table grouped by its
       ``chunkId``): one ``!=`` pass;
    2. numeric keys already in non-decreasing order are their own
       stable sort, so neither a sort nor the per-aggregate gathers it
       feeds are needed (a number followed by NaN, or NaN by a number,
       does not count as ordered);
    3. ``np.lexsort``.
    """
    if n == 0:
        return None, np.empty(0, dtype=np.int64)
    if len(keys) == 1 and keys[0].dtype.kind in "iu":
        if not (keys[0][1:] != keys[0][:-1]).any():
            return None, np.zeros(1, dtype=np.int64)
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    if all(k.dtype.kind in "biuf" for k in keys):
        ascending = np.zeros(n - 1, dtype=bool)
        equal = np.ones(n - 1, dtype=bool)
        for k in keys:
            ascending |= equal & (k[:-1] < k[1:])
            equal &= ~boundaries(k)
        if np.all(ascending | equal):
            changed[1:] = ~equal
            return None, np.flatnonzero(changed)
    order = np.lexsort(keys[::-1])
    for k in keys:
        changed[1:] |= boundaries(k[order])
    return order, np.flatnonzero(changed)


def _group_sizes(group_starts: np.ndarray, n: int) -> np.ndarray:
    """Rows per group, ``int64``: what ``COUNT(*)`` answers."""
    sizes = np.empty(len(group_starts), dtype=np.int64)
    sizes[:-1] = group_starts[1:]
    sizes[-1:] = n
    sizes -= group_starts
    return sizes


def _sorted_argument(val, order, n: int) -> np.ndarray:
    """An aggregate argument as one value per row, in group order."""
    arr = np.asarray(val)
    if arr.ndim == 0:
        arr = np.full(n, arr)
    return arr if order is None else arr[order]


def _no_rows(name: str, num_groups: int) -> np.ndarray:
    """Any aggregate over an empty input: COUNT is 0, the others NULL."""
    if name == "COUNT":
        return np.zeros(num_groups, dtype=np.int64)
    return np.full(num_groups, np.nan)


# The reductions, each over ``(values in group order, valid, group
# starts, group sizes)``.  ``valid`` marks the non-NULL values and is
# None when every value is one (:func:`_valid`); MIN and MAX do not read
# it.  These are the only place the MySQL NULL rules of the aggregates
# live: the interpreter (:func:`compute_aggregate`) and the generated
# aggregate stage both call them, on the same operands.


def _valid(vals: np.ndarray):
    """Mask of the non-NULL values (never none); None when there is no NULL."""
    if vals.dtype.kind != "f":
        return None
    # The minimum is NaN exactly when some value is: one pass, no mask.
    if not np.isnan(np.minimum.reduce(vals)):
        return None
    return ~np.isnan(vals)


def _count(vals, valid, group_starts, sizes):
    if valid is None:
        return sizes
    return np.add.reduceat(valid.astype(np.int64), group_starts)


def _float_sums(vals, valid, group_starts):
    vals = vals.astype(np.float64, copy=False)
    if valid is not None:
        vals = np.where(valid, vals, 0.0)
    return np.add.reduceat(vals, group_starts)


def _sum(vals, valid, group_starts, sizes):
    if vals.dtype.kind in "iu":
        # Integer sums stay integer (MySQL semantics for COUNT merges).
        return np.add.reduceat(vals, group_starts)
    sums = _float_sums(vals, valid, group_starts)
    if valid is None:
        return sums
    # MySQL: SUM ignores NULLs, but a group of only NULLs sums to NULL
    # (NaN), not 0.
    return np.where(_count(vals, valid, group_starts, sizes) > 0, sums, np.nan)


def _avg(vals, valid, group_starts, sizes):
    sums = _float_sums(vals, valid, group_starts)
    if valid is None:
        return sums / sizes
    with np.errstate(invalid="ignore", divide="ignore"):
        return sums / _count(vals, valid, group_starts, sizes)


# MySQL MIN/MAX ignore NULLs; a group of only NULLs yields NULL.
# np.fmin/fmax skip NaN (vs minimum/maximum, which propagate it) --
# essential when merging per-chunk partials where empty chunks
# contributed NULL.


def _min(vals, valid, group_starts, sizes):
    op = np.fmin if vals.dtype.kind == "f" else np.minimum
    return op.reduceat(vals, group_starts)


def _max(vals, valid, group_starts, sizes):
    op = np.fmax if vals.dtype.kind == "f" else np.maximum
    return op.reduceat(vals, group_starts)


_REDUCTIONS = {"COUNT": _count, "SUM": _sum, "AVG": _avg, "MIN": _min, "MAX": _max}
_IGNORES_VALID = ("MIN", "MAX")


def _count_distinct(vals, group_starts, sizes):
    """Distinct non-NULL values per group.

    Values were sorted by group only, so do a (group, value) lexsort
    and count the boundaries.
    """
    num_groups = len(group_starts)
    gid = np.repeat(np.arange(num_groups), sizes)
    so = np.lexsort((vals, gid))
    sv, sg = vals[so], gid[so]
    newval = np.ones(len(vals), dtype=bool)
    newval[1:] = (sv[1:] != sv[:-1]) | (sg[1:] != sg[:-1])
    if sv.dtype.kind == "f":
        # NULL is no value: it is not counted, however often it occurs.
        newval &= ~np.isnan(sv)
    return np.bincount(sg[newval], minlength=num_groups).astype(np.int64)


def _is_star(agg: ast.FuncCall) -> bool:
    return len(agg.args) == 1 and isinstance(agg.args[0], ast.Star)


def compute_aggregate(agg: ast.FuncCall, env: Environment, order, group_starts, n):
    """One aggregate column over pre-sorted groups (MySQL NULL semantics).

    ``order`` sorts the rows by group; None when they already are.
    """
    name = agg.name.upper()
    if n == 0:
        return _no_rows(name, len(group_starts))
    sizes = _group_sizes(group_starts, n)
    if _is_star(agg):
        if name == "COUNT":
            return sizes
        raise SqlError(f"{name}(*) is only valid for COUNT")
    vals = _sorted_argument(evaluate(agg.args[0], env), order, n)
    if name == "COUNT" and agg.distinct:
        return _count_distinct(vals, group_starts, sizes)
    reduce = _REDUCTIONS.get(name)
    if reduce is None:
        raise SqlError(f"unsupported aggregate {name}")
    valid = None if name in _IGNORES_VALID else _valid(vals)
    return reduce(vals, valid, group_starts, sizes)


def _representative_rows(order, group_starts, n: int) -> np.ndarray:
    """The first row of each group: where its non-aggregate values come from."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return group_starts if order is None else order[group_starts]


_BARE_ITEM_OVER_NO_ROWS = (
    "non-aggregate select item {!r} in a global aggregate over an empty table"
)


def grouped_projection(
    sel: ast.Select, env: Environment, aggregates: list[ast.FuncCall]
) -> dict[str, np.ndarray]:
    """Group, aggregate, project, and apply HAVING; returns result columns.

    The interpreter's grouped path, and the reference for the generated
    aggregate stage (:func:`_compile_aggregate`), which does the same
    steps through the same helpers.  A kernel whose aggregate stage the
    emitter declined, and every join kernel, ends here too.
    """
    n = env.length
    if sel.group_by:
        keys = []
        for gexpr in sel.group_by:
            arr = np.asarray(evaluate(gexpr, env))
            if arr.ndim == 0:
                arr = np.full(n, arr)
            keys.append(arr)
        order, group_starts = group_structure(keys, n)
    else:
        # One global group (even over zero rows: COUNT(*) = 0).
        order = None
        group_starts = np.zeros(1, dtype=np.int64)

    num_groups = len(group_starts)
    agg_values: dict[ast.FuncCall, np.ndarray] = {}
    for agg in aggregates:
        agg_values[agg] = compute_aggregate(agg, env, order, group_starts, n)

    # Representative-row environment: first member of each group.  For
    # a global aggregate over zero rows there is still one output
    # group; representative columns are empty, which is fine because
    # projection expressions must be pure aggregates in that case.
    rep_rows = _representative_rows(order, group_starts, n)
    rep_cols = {key: arr[rep_rows] for key, arr in env.columns.items()}
    rep_env = Environment(rep_cols, num_groups)

    out_cols: dict[str, np.ndarray] = {}
    for item in sel.items:
        name = item.output_name()
        if contains_aggregate(item.expr):
            val = evaluate(item.expr, rep_env, aggregates=agg_values)
        else:
            if n == 0 and not sel.group_by:
                raise SqlError(_BARE_ITEM_OVER_NO_ROWS.format(name))
            val = evaluate(item.expr, rep_env)
        val = np.asarray(val)
        if val.ndim == 0:
            val = np.full(num_groups, val)
        out_cols[name] = val

    if sel.having is not None:
        mask = np.asarray(evaluate(sel.having, rep_env, aggregates=agg_values))
        if mask.dtype != bool:
            mask = mask != 0
        out_cols = {k: v[mask] for k, v in out_cols.items()}
    return out_cols


# -- pairing helpers (used by interpreter AND join kernels) --------------------------


def _expand_ranges(lo: np.ndarray, counts: np.ndarray, order: np.ndarray):
    """(probe index, build index) for ``counts[i]`` build positions from ``lo[i]``.

    ``order`` maps positions in the sorted build side back to build
    rows.  Probe-major: all matches of probe row 0 first, then row 1, ...
    """
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(lo)), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(starts, counts)
    build_idx = order[np.repeat(lo, counts) + within]
    return probe_idx, build_idx


def _probe_runs(right_vals, right_runs, low, high, left_runs):
    """Sort the right side run by run and probe each run with its own left rows.

    Both sides are cut into the same number of consecutive runs (the
    members of a statement family; one run when there is one pair of
    tables): ``right_runs[m]:right_runs[m + 1]`` are the right rows of
    run ``m``, ``left_runs`` likewise.  Returns ``(order, lo, counts)``:
    ``order`` lists the right rows run after run, each run stably
    sorted by value, and left row ``i`` matches the ``counts[i]``
    positions of ``order`` from ``lo[i]`` -- the values of its *own*
    run that lie in ``low[i] .. high[i]`` inclusive.
    """
    order = np.empty(len(right_vals), dtype=np.intp)
    lo = np.empty(len(low), dtype=np.intp)
    hi = np.empty(len(low), dtype=np.intp)
    # Plain ints and method calls: this loop is per member.
    right_runs = np.asarray(right_runs).tolist()
    left_runs = np.asarray(left_runs).tolist()
    for r0, r1, l0, l1 in zip(right_runs, right_runs[1:], left_runs, left_runs[1:]):
        run = right_vals[r0:r1]
        run_order = run.argsort(kind="stable")
        run = run[run_order]
        order[r0:r1] = run_order + r0
        lo[l0:l1] = run.searchsorted(low[l0:l1], "left") + r0
        hi[l0:l1] = run.searchsorted(high[l0:l1], "right") + r0
    # An inverted interval (a negative radius) selects nothing.
    return order, lo, np.maximum(hi - lo, 0)


def equi_join(left_vals: np.ndarray, right_vals: np.ndarray):
    """Vectorized many-to-many equi join; returns (left_idx, right_idx).

    Sorts the right side and probes it with the left, so pairs come out
    left-major with each left row's matches in ascending right order.
    """
    order, lo, counts = _probe_runs(
        right_vals, (0, len(right_vals)), left_vals, left_vals, (0, len(left_vals))
    )
    return _expand_ranges(lo, counts, order)


def isin(values: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``np.isin(values, candidates)``, by lookup table whenever one is small.

    NumPy sorts unless the candidates' range is within ``6 x`` the two
    lengths -- ten times slower for a few hundred object ids spread
    over a chunk's id range -- and its own table method makes a dozen
    passes.  ``int64`` candidates spanning at most a MiB of flags (or a
    table in proportion to the input) get one flag per value in their
    range plus one for "outside" at either end, and the answer is three
    passes: offset, clip, look up.  Everything else (wide ids, other
    integer widths, floats, strings) is NumPy's to decide.  The mask is
    the same either way.
    """
    if values.dtype == candidates.dtype == np.int64 and len(candidates):
        low = int(candidates.min())
        span = int(candidates.max()) - low
        if span <= max(2**20, 8 * (len(values) + len(candidates))):
            table = np.zeros(span + 2, dtype=bool)
            table[candidates - low] = True
            # Slots -1 (= span + 1) and span + 1 stay False.  An offset
            # that wraps around lands far outside 0..span, so is clipped.
            slots = values - low
            np.clip(slots, -1, span + 1, out=slots)
            return table[slots]
    return np.isin(values, candidates)


def _drop_unmatched(vals: np.ndarray, rows, other_vals: np.ndarray):
    """``(vals, rows)`` without the values that ``other_vals`` lacks.

    A semi-join ahead of the sort-merge, taken when this side is much
    the longer one (Source against the few Objects a box cut kept):
    :func:`isin` is one linear pass for the integer keys of a chunk,
    far cheaper than sorting this side or probing the other with every
    row of it.  ``rows`` are the row indices behind ``vals`` (None =
    all rows).
    """
    if len(vals) < 4 * len(other_vals):
        return vals, rows
    keep = np.flatnonzero(isin(vals, other_vals))
    return vals[keep], keep if rows is None else rows[keep]


# -- codegen runtime helpers --------------------------------------------------------
#
# Each helper mirrors one interpreter behaviour exactly (same ufuncs,
# same errstate guards, same coercions), so a generated expression is
# bit-identical to the evaluate() walk it replaces.


class _Helpers:
    np = np
    nan = np.nan

    @staticmethod
    def as_bool(val):
        arr = np.asarray(val)
        if arr.dtype == bool:
            return arr
        return arr != 0

    @staticmethod
    def as_mask(val, n):
        """Coerce a conjunct result to a boolean mask of length n."""
        arr = np.asarray(val)
        if arr.dtype != bool:
            arr = arr != 0
        if arr.ndim == 0:
            arr = np.full(n, bool(arr))
        return arr

    @staticmethod
    def as_col(val, n):
        """Coerce a projection result to a column of length n."""
        arr = np.asarray(val)
        if arr.ndim == 0:
            arr = np.full(n, val)
        return arr

    @staticmethod
    def div(left, right):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(left, np.asarray(right, dtype=np.float64))

    @staticmethod
    def between(val, low, high, negated):
        out = (val >= low) & (val <= high)
        return ~out if negated else out

    @staticmethod
    def in_list(val, candidates, items):
        return in_list_mask(val, candidates, items)

    @staticmethod
    def in_params(val, values):
        """``val IN (values)`` for an all-numeric list bound at call time."""
        return in_list_mask(val, in_values(values), values)

    @staticmethod
    def isnull(val, negated):
        val = np.asarray(val)
        if np.issubdtype(val.dtype, np.floating):
            out = np.isnan(val)
        else:
            out = np.zeros(val.shape, dtype=bool)
        return ~out if negated else out

    @staticmethod
    def gather(arr, s):
        return arr if s is None else arr[s]

    # The aggregate stage: the interpreter's own steps.
    SqlError = SqlError
    group_structure = staticmethod(group_structure)
    group_sizes = staticmethod(_group_sizes)
    sorted_argument = staticmethod(_sorted_argument)
    valid = staticmethod(_valid)
    no_rows = staticmethod(_no_rows)
    representative_rows = staticmethod(_representative_rows)


_HELPERS = _Helpers()

_BINOP_FUNCS = {
    "+": "np.add",
    "-": "np.subtract",
    "*": "np.multiply",
    "%": "np.mod",
    "=": "np.equal",
    "<=>": "np.equal",
    "!=": "np.not_equal",
    "<": "np.less",
    "<=": "np.less_equal",
    ">": "np.greater",
    ">=": "np.greater_equal",
}


class _Emitter:
    """Translates a validated expression tree to Python/NumPy source.

    An expression emitted with a ``path`` (the attribute chain reaching
    it from the executing statement ``s``, e.g. ``s.where.left``) lies
    in the WHERE clause: its numeric literals are holes of the
    statement's shape, so each is emitted as ``P[i]`` and its path
    recorded in ``params`` -- the list every emitter of one kernel
    shares, from which :func:`_compile_params` builds the function that
    reads ``P`` off a statement.  Without a path (the select list)
    literals are part of the shape and are emitted inline.
    """

    def __init__(self, binding: str, colset: set[str], col, params: list[str]):
        self.binding = binding
        self.colset = colset
        self.col = col  # column name -> source string
        self.params = params
        self.consts: list = []
        #: Aggregate call -> source string, where the expression is
        #: evaluated per group (select list and HAVING of a grouped query).
        self.aggregates: dict[ast.FuncCall, str] = {}

    def const(self, value) -> str:
        self.consts.append(value)
        return f"K[{len(self.consts) - 1}]"

    def emit(self, e: ast.Expr, path: str | None = None) -> str:
        def sub(child: ast.Expr, step: str) -> str:
            return self.emit(child, None if path is None else path + step)

        if isinstance(e, ast.Literal):
            if path is None or isinstance(e.value, str):
                return repr(e.value)
            self.params.append(path + ".value")
            return f"P[{len(self.params) - 1}]"
        if isinstance(e, ast.Null):
            return "H.nan"
        if isinstance(e, ast.ColumnRef):
            if e.table is not None and e.table != self.binding:
                raise KernelFallback(f"unresolvable qualifier {e.table!r}")
            if e.column not in self.colset:
                raise KernelFallback(f"unknown column {e.column!r}")
            return self.col(e.column)
        if isinstance(e, ast.FuncCall):
            if e in self.aggregates:
                return self.aggregates[e]
            if e.is_aggregate:
                raise KernelFallback("aggregate outside aggregation context")
            fname = e.name.upper()
            if fname not in FUNCTIONS:
                raise KernelFallback(f"unknown function {e.name!r}")
            args = ", ".join(sub(a, f".args[{i}]") for i, a in enumerate(e.args))
            return f"F[{fname!r}]({args})"
        if isinstance(e, ast.UnaryOp):
            inner = sub(e.operand, ".operand")
            if e.op == "-":
                return f"np.negative({inner})"
            if e.op.upper() == "NOT":
                return f"(~H.as_bool({inner}))"
            raise KernelFallback(f"unknown unary operator {e.op!r}")
        if isinstance(e, ast.BinaryOp):
            op = e.op.upper() if e.op.isalpha() else e.op
            left = sub(e.left, ".left")
            right = sub(e.right, ".right")
            if op in ("AND", "OR"):
                glue = "&" if op == "AND" else "|"
                return f"(H.as_bool({left}) {glue} H.as_bool({right}))"
            if op == "/":
                return f"H.div({left}, {right})"
            if op in _BINOP_FUNCS:
                return f"{_BINOP_FUNCS[op]}({left}, {right})"
            raise KernelFallback(f"unknown operator {e.op!r}")
        if isinstance(e, ast.Between):
            return (
                f"H.between({sub(e.value, '.value')}, {sub(e.low, '.low')}, "
                f"{sub(e.high, '.high')}, {e.negated!r})"
            )
        if isinstance(e, ast.InList):
            val = sub(e.value, ".value")
            holes = path is not None and all(
                isinstance(i, ast.Literal) and not isinstance(i.value, str)
                for i in e.items
            )
            candidates = None if holes else literal_in_values(e.items)
            if candidates is not None:
                src = f"H.in_list({val}, {self.const(candidates)}, None)"
            else:
                items = ", ".join(
                    sub(item, f".items[{i}]") for i, item in enumerate(e.items)
                )
                if holes:
                    # The candidate array is rebuilt from the bound
                    # values, by the interpreter's own rule.
                    src = f"H.in_params({val}, ({items},))"
                else:
                    src = f"H.in_list({val}, None, ({items},))"
            return f"(~{src})" if e.negated else src
        if isinstance(e, ast.IsNull):
            return f"H.isnull({sub(e.value, '.value')}, {e.negated!r})"
        raise KernelFallback(f"cannot compile {type(e).__name__}")


def _compile_fn(name: str, lines: list[str], consts: list, label: str):
    """exec() the generated function source in a minimal namespace."""
    src = "\n".join(lines)
    ns = {"np": np, "H": _HELPERS, "F": FUNCTIONS, "R": _REDUCTIONS, "K": consts}
    exec(compile(src, f"<kernel:{label}>", "exec"), ns)  # noqa: S102 - codegen
    fn = ns[name]
    fn.__kernel_source__ = src
    return fn


def _compile_params(params: list[str]):
    """``s -> P``: the hole values of statement ``s``, read by attribute path."""
    if not params:
        return None
    lines = ["def _params(s):", f"    return ({', '.join(params)},)"]
    return _compile_fn("_params", lines, [], "params")


def _account_scan(arrays, scan_bytes) -> None:
    """Charge the scanned column bytes to the ``scan_bytes`` counter and the open span."""
    scanned = 0
    for arr in arrays:
        scanned += 8 * arr.size if arr.dtype == object else arr.nbytes
    scan_bytes.add(scanned)
    sp = obs_trace.current_span()
    if sp is not None:
        # Accumulate across statements: a sub-chunked chunk query
        # runs several kernels under one worker.execute span.
        sp.set(scan_bytes=sp.attrs.get("scan_bytes", 0) + scanned)


class CompiledKernel:
    """One fused filter+project(+aggregate) callable for a query template.

    Calling it with a statement of its shape and that statement's table
    returns the result columns (pre-DISTINCT, pre-ORDER BY -- the engine
    applies those on the output, exactly as it does for the interpreted
    path).  The statement supplies the WHERE literals; everything else
    about it is what the kernel was compiled from.
    """

    __slots__ = (
        "binding",
        "needed",
        "params_fn",
        "mask_fn",
        "stage_fns",
        "project_fn",
        "gathers",
        "aggregates",
        "env_cols",
        "sources",
        "scan_bytes",
    )

    def __init__(self, binding, needed, params_fn, mask_fn, stage_fns, project_fn,
                 gathers, aggregates, env_cols, sources, scan_bytes):
        self.binding = binding
        self.needed = needed
        self.params_fn = params_fn
        self.mask_fn = mask_fn
        self.stage_fns = stage_fns
        #: The generated ``_project`` or ``_aggregate``; None for a
        #: grouped statement whose aggregate stage the emitter declined,
        #: which :func:`grouped_projection` finishes over ``env_cols``.
        self.project_fn = project_fn
        self.gathers = gathers
        self.aggregates = aggregates
        self.env_cols = env_cols
        self.sources = sources
        #: The ``engine.scan.bytes`` counter every call is charged to.
        self.scan_bytes = scan_bytes

    def __call__(self, sel: ast.Select, table) -> dict[str, np.ndarray]:
        C = {name: table.column(name) for name in self.needed}
        n = table.num_rows
        _account_scan(C.values(), self.scan_bytes)
        P = self.params_fn(sel) if self.params_fn is not None else ()

        m = self.mask_fn(C, n, P) if self.mask_fn is not None else None
        if self.stage_fns:
            s = np.flatnonzero(m) if m is not None else np.arange(n)
            for fn in self.stage_fns:
                keep = fn(C, s, len(s), P)
                s = s[keep]
            sel_idx: object = s
            ns = len(s)
        elif m is None:
            sel_idx = None
            ns = n
        elif self.gathers:
            # One conversion, then index gathers: boolean indexing
            # re-scans the whole mask for every column it cuts.
            sel_idx = np.flatnonzero(m)
            ns = len(sel_idx)
        else:
            sel_idx = m
            ns = int(np.count_nonzero(m))

        if self.project_fn is not None:
            return self.project_fn(C, sel_idx, ns)
        cols = {
            (self.binding, c): _Helpers.gather(C[c], sel_idx) for c in self.env_cols
        }
        return grouped_projection(sel, Environment(cols, ns), self.aggregates)


def _output_names(sel: ast.Select, schema_names: list[str], binding: str,
                  grouped: bool) -> list[str]:
    """Result column names, replicating the engine's duplicate handling.

    The grouped path assigns into a dict (duplicates overwrite, keeping
    the first position); the plain path suffixes ``_2``, ``_3``, ...
    """
    names: list[str] = []

    def add_plain(name):
        if name in names:
            i = 2
            while f"{name}_{i}" in names:
                i += 1
            name = f"{name}_{i}"
        names.append(name)

    for item in sel.items:
        if isinstance(item.expr, ast.Star):
            if grouped:
                raise KernelFallback("'*' in an aggregate query")
            if item.expr.table is not None and item.expr.table != binding:
                raise KernelFallback(f"unknown table {item.expr.table!r} in '.*'")
            for cname in schema_names:
                add_plain(cname)
            continue
        name = item.output_name()
        if grouped:
            if name not in names:
                names.append(name)
        else:
            add_plain(name)
    return names


def _check_order_by(sel: ast.Select, out_names: list[str]):
    """Every ORDER BY key must resolve against the output columns."""
    for o in sel.order_by:
        e = o.expr
        if isinstance(e, ast.Literal) and isinstance(e.value, int):
            if 1 <= e.value <= len(out_names):
                continue
            raise KernelFallback("ORDER BY position out of range")
        if isinstance(e, ast.ColumnRef) and e.table is None and e.column in out_names:
            continue
        if isinstance(e, ast.FuncCall) and e.to_sql() in out_names:
            continue
        raise KernelFallback("ORDER BY key not resolvable from output columns")


def _numbered(variables: dict[str, str], prefix: str):
    """``column -> its variable``, numbering a column on first use into ``variables``."""
    return lambda cn: variables.setdefault(cn, f"{prefix}{len(variables)}")


def _compile_aggregate(sel: ast.Select, binding: str, schema, aggregates):
    """``(_aggregate(C, s, ns), whether it gathers)`` for a grouped SELECT.

    The steps of :func:`grouped_projection` as straight-line code: the
    group structure once, each distinct aggregate argument evaluated
    once and tested for NULLs once, the group sizes once, the first row
    of each group gathered only for the columns the select list or
    HAVING reads outside an aggregate, and every expression emitted --
    no ``evaluate``.  The reductions are the interpreter's own
    (``_REDUCTIONS``), on the same operands.  Raises
    :class:`KernelFallback` for what it leaves to the interpreter's
    stage: DISTINCT aggregates, aggregates over text columns (whose
    MIN/MAX compare strings), anything :class:`_Emitter` declines.
    """
    text = {c.name for c in schema if c.dtype == object}
    for agg in aggregates:
        name = agg.name.upper()
        if agg.distinct or name not in _REDUCTIONS or len(agg.args) != 1:
            raise KernelFallback(f"aggregate {agg.to_sql()} is the interpreter's")
        if _is_star(agg):
            if name != "COUNT":
                raise KernelFallback(f"{name}(*)")
        elif expr_columns(agg.args[0]) & text:
            raise KernelFallback("aggregate over a text column")
    # MIN and MAX skip NULLs by themselves; the others are told where.
    masked = {
        agg.args[0] for agg in aggregates if agg.name.upper() not in _IGNORES_VALID
    }

    colset = {c.name for c in schema}
    row_cols: dict[str, str] = {}  # column -> variable of its selected rows
    rows = _Emitter(binding, colset, _numbered(row_cols, "g"), [])
    if sel.group_by:
        keys = ", ".join(f"H.as_col({rows.emit(g)}, ns)" for g in sel.group_by)
        body = [f"    order, starts = H.group_structure([{keys}], ns)"]
    else:
        # One global group (even over zero rows: COUNT(*) = 0).
        body = ["    order, starts = None, np.zeros(1, dtype=np.int64)"]
    body.append("    sizes = H.group_sizes(starts, ns)")
    body.append("    ng = len(starts)")

    arguments: dict[ast.Expr, str] = {}  # distinct argument -> its number
    results: dict[ast.FuncCall, str] = {}  # aggregate -> variable of its column
    over_rows, over_none = [], []
    for agg in aggregates:
        result = results[agg] = f"r{len(results)}"
        name = agg.name.upper()
        over_none.append(f"        {result} = H.no_rows({name!r}, ng)")
        if _is_star(agg):
            over_rows.append(f"        {result} = sizes")
            continue
        arg = agg.args[0]
        i = arguments.get(arg)
        if i is None:
            i = arguments[arg] = str(len(arguments))
            over_rows.append(
                f"        a{i} = H.sorted_argument({rows.emit(arg)}, order, ns)"
            )
            if arg in masked:
                over_rows.append(f"        v{i} = H.valid(a{i})")
        valid = "None" if name in _IGNORES_VALID else f"v{i}"
        over_rows.append(
            f"        {result} = R[{name!r}](a{i}, {valid}, starts, sizes)"
        )
    if aggregates:
        # As the interpreter: no argument is evaluated over no rows.
        body += ["    if ns:", *over_rows, "    else:", *over_none]

    rep_cols: dict[str, str] = {}  # column -> variable of its groups' first rows
    per_group = _Emitter(binding, colset, _numbered(rep_cols, "q"), [])
    per_group.consts = rows.consts  # one K for the function
    per_group.aggregates = results
    outputs = ["    out = {}"]
    for item in sel.items:
        name = item.output_name()
        if not sel.group_by and not contains_aggregate(item.expr):
            message = _BARE_ITEM_OVER_NO_ROWS.format(name)
            outputs.append(f"    if ns == 0: raise H.SqlError({message!r})")
        src = per_group.emit(item.expr)
        if not (isinstance(item.expr, ast.ColumnRef) or item.expr in results):
            src = f"H.as_col({src}, ng)"  # the others may be scalars
        outputs.append(f"    out[{name!r}] = {src}")
    if sel.having is not None:
        outputs.append(f"    keep = H.as_bool({per_group.emit(sel.having)})")
        outputs.append("    out = {name: col[keep] for name, col in out.items()}")
    outputs.append("    return out")
    if rep_cols:
        body.append("    first = H.representative_rows(order, starts, ns)")
        body += [f"    {var} = {rows.col(cn)}[first]" for cn, var in rep_cols.items()]

    lines = ["def _aggregate(C, s, ns):"]
    lines += [f"    {var} = H.gather(C[{cn!r}], s)" for cn, var in row_cols.items()]
    fn = _compile_fn("_aggregate", lines + body + outputs, rows.consts, "aggregate")
    return fn, bool(row_cols)


def compile_select(sel: ast.Select, binding: str, schema, scan_bytes) -> CompiledKernel:
    """Compile a single-table SELECT into a :class:`CompiledKernel`.

    ``schema`` is the ordered column list of the target table; ``sel``
    should already be normalized (see :func:`normalize_select`);
    ``scan_bytes`` is the counter the kernel's scans are charged to.  Raises
    :class:`KernelFallback` for any shape where the interpreter must run
    instead (joins, unknown names, unsupported ORDER BY keys, ...).
    """
    if len(sel.tables) != 1:
        raise KernelFallback("only single-table queries compile")
    schema_names = [c.name for c in schema]
    colset = set(schema_names)

    aggregates = collect_aggregates(sel)
    grouped = bool(aggregates or sel.group_by)
    if sel.having is not None and not grouped:
        raise KernelFallback("HAVING without aggregation")

    out_names = _output_names(sel, schema_names, binding, grouped)
    # ORDER BY keys resolve against the *output* columns (aliases
    # included), checked here; they are therefore excluded from the
    # table-reference validation below.
    _check_order_by(sel, out_names)

    # Validate every other column reference up front (the grouped path
    # is not codegen'd expression-by-expression, so _Emitter will not
    # see it).
    for clause, expr in sel.clauses():
        if clause == "ORDER BY":
            continue
        for e in expr.walk():
            if not isinstance(e, ast.ColumnRef):
                continue
            if e.table is not None and e.table != binding:
                raise KernelFallback(f"unresolvable reference: qualifier {e.table!r}")
            if e.column not in colset:
                raise KernelFallback(f"unresolvable reference: column {e.column!r}")

    # -- WHERE: cheap conjuncts fused full-table, UDF conjuncts on survivors --
    conjuncts = _conjunct_paths(sel.where, "s.where")
    cheap = [(c, path) for c, path in conjuncts if not _contains_func(c)]
    expensive = [(c, path) for c, path in conjuncts if _contains_func(c)]
    for c, _ in expensive:
        if contains_aggregate(c):
            raise KernelFallback("aggregate in WHERE")

    sources: list[str] = []
    params: list[str] = []  # one P for all the stages below
    mask_fn = None
    if cheap:
        em = _Emitter(binding, colset, lambda cn: f"C[{cn!r}]", params)
        exprs = [f"H.as_mask({em.emit(c, path)}, n)" for c, path in cheap]
        lines = ["def _mask(C, n, P):"]
        if len(exprs) == 1:
            lines.append(f"    m = {exprs[0]}")
        else:
            # First combine allocates fresh (the operands may be column
            # views); later conjuncts fold in-place into the scratch mask.
            lines.append(f"    m = np.logical_and({exprs[0]}, {exprs[1]})")
            for e in exprs[2:]:
                lines.append(f"    np.logical_and(m, {e}, out=m)")
        lines.append("    return m")
        mask_fn = _compile_fn("_mask", lines, em.consts, "mask")
        sources.append(mask_fn.__kernel_source__)

    stage_fns = []
    for si, (c, path) in enumerate(expensive):
        cols_used: dict[str, str] = {}
        em = _Emitter(binding, colset, _numbered(cols_used, "g"), params)
        expr_src = em.emit(c, path)
        lines = ["def _stage(C, s, ns, P):"]
        for cn, var in cols_used.items():
            lines.append(f"    {var} = H.gather(C[{cn!r}], s)")
        lines.append(f"    return H.as_mask({expr_src}, ns)")
        fn = _compile_fn("_stage", lines, em.consts, f"stage{si}")
        stage_fns.append(fn)
        sources.append(fn.__kernel_source__)

    # -- projection ---------------------------------------------------------------
    env_cols: list[str] = []
    if grouped:
        try:
            project_fn, gathers = _compile_aggregate(sel, binding, schema, aggregates)
        except KernelFallback:
            project_fn = None
            env_cols = [c for c in schema_names if c in referenced_columns(sel)]
            gathers = bool(env_cols)
    else:
        cols_used = {}
        em = _Emitter(binding, colset, _numbered(cols_used, "g"), params)
        outputs: list[tuple[str, str]] = []
        name_iter = iter(out_names)
        for item in sel.items:
            if isinstance(item.expr, ast.Star):
                for cname in schema_names:
                    outputs.append((next(name_iter), em.col(cname)))
                continue
            outputs.append((next(name_iter), em.emit(item.expr)))
        lines = ["def _project(C, s, ns):"]
        for cn, var in cols_used.items():
            lines.append(f"    {var} = H.gather(C[{cn!r}], s)")
        lines.append("    out = {}")
        for name, src in outputs:
            lines.append(f"    out[{name!r}] = H.as_col({src}, ns)")
        lines.append("    return out")
        project_fn = _compile_fn("_project", lines, em.consts, "project")
        gathers = bool(cols_used)
    if project_fn is not None:
        sources.append(project_fn.__kernel_source__)

    wants_star = any(isinstance(i.expr, ast.Star) for i in sel.items)
    needed = set(referenced_columns(sel)) & colset
    if wants_star:
        needed |= colset
    # Preserve schema order for deterministic scans.
    needed_ordered = [c for c in schema_names if c in needed]

    return CompiledKernel(
        binding=binding,
        needed=needed_ordered,
        params_fn=_compile_params(params),
        mask_fn=mask_fn,
        stage_fns=stage_fns,
        project_fn=project_fn,
        gathers=gathers,
        aggregates=aggregates,
        env_cols=env_cols,
        sources=sources,
        scan_bytes=scan_bytes,
    )


# -- two-table join kernels ---------------------------------------------------------

_ANGSEP_NAMES = frozenset({"QSERV_ANGSEP", "SCISQL_ANGSEP"})


class _Stack(NamedTuple):
    """One side of a statement family: the members' rows, end to end."""

    #: The columns any stage reads, each the members' columns concatenated.
    columns: dict[str, np.ndarray]
    #: Member ``m`` holds rows ``bounds[m]:bounds[m + 1]``.
    bounds: np.ndarray

    @classmethod
    def of(cls, tables, needed: list[str]) -> "_Stack":
        bounds = np.zeros(len(tables) + 1, dtype=np.intp)
        np.cumsum([t.num_rows for t in tables], out=bounds[1:])
        columns = {}
        for name in needed:
            parts = [t.column(name) for t in tables]
            if len(parts) == 1:
                columns[name] = parts[0]
                continue
            if len({part.dtype for part in parts}) > 1:
                # One SQL type, several widths: stacked, the narrow
                # members would compute in the wide one's arithmetic.
                raise KernelFallback(f"members differ in the dtype of {name!r}")
            columns[name] = np.concatenate(parts)
        return cls(columns, bounds)

    def runs(self, rows) -> np.ndarray:
        """``bounds`` among the kept ``rows`` (ascending; None = all rows)."""
        return self.bounds if rows is None else np.searchsorted(rows, self.bounds)


# The member a pair belongs to, as a column of the pair environment and
# an output column of the grouped projection; no statement can name either.
_MEMBER = ast.ColumnRef(column="member", table="\0family")
_MEMBER_ITEM = ast.SelectItem(_MEMBER, alias="\0member")


@dataclass(frozen=True, slots=True)
class JoinKernel:
    """One filter-pair-verify-project callable for a two-table join template.

    Unlike :class:`CompiledKernel` nothing here is generated code: the
    saving is in *how many pairs* each expression sees, not in how it
    is dispatched, so every conjunct and output expression goes through
    the interpreter's own ``evaluate`` -- over one side's rows, over
    the candidate pairs, or over the surviving pairs -- and is
    bit-identical to evaluating it over the full cross product because
    every registered function is elementwise.  The expressions are
    those of the statement being executed (conjuncts are kept by their
    position in its WHERE clause), so its literals apply, not the ones
    the kernel was compiled from.

    The unit of work is a *family*: one statement asked of several
    pairs of tables (the sub-chunk statements of a chunk query).  The
    members' rows are stacked, and every stage runs once over the stack
    with the member as one more equality between the two sides; the
    output is then cut at the member boundaries.  Elementwise stages
    see the same rows in the same order as member-by-member calls
    would, so each member's share is what a call on it alone returns.
    """

    bindings: tuple[str, str]
    #: Per side, the columns any stage reads, in schema order.
    needed: tuple[list[str], list[str]]
    #: Per side, the (positions of the) conjuncts that reference only
    #: that side.
    side_filters: tuple[list, list]
    #: ``("equi", left column, right column)`` or
    #: ``("band", left dec column, right dec column, position of the
    #: ``qserv_angSep(...) < radius`` conjunct)``.
    pairing: tuple
    #: ``(position, (side, column) refs)`` for every two-sided conjunct.
    pair_conjuncts: list
    #: ``(side, column)`` refs of the select list, GROUP BY and HAVING.
    output_columns: list
    grouped: bool
    aggregates: list
    out_names: list[str]
    #: The ``engine.scan.bytes`` counter every pass is charged to.
    scan_bytes: obs_metrics.Counter

    def __call__(self, sel: ast.Select, left, right) -> dict[str, np.ndarray]:
        return self.run(sel, [(left, right)])[0]

    def run(self, sel: ast.Select, members: list) -> list[dict[str, np.ndarray]]:
        """Result columns of ``sel`` per ``(left table, right table)`` member."""
        conjuncts = ast.split_conjuncts(sel.where)
        sides = tuple(
            _Stack.of([member[side] for member in members], self.needed[side])
            for side in (0, 1)
        )
        kept = (
            self._side_rows(0, conjuncts, sides[0]),
            self._side_rows(1, conjuncts, sides[1]),
        )
        pairs = self._candidates(conjuncts, sides, kept)
        if pairs is None:
            # More candidates than one pass may hold, though perhaps
            # no member has as many: halve the family.
            half = len(members) // 2
            return self.run(sel, members[:half]) + self.run(sel, members[half:])
        _account_scan(
            [arr for side in sides for arr in side.columns.values()], self.scan_bytes
        )
        for position, refs in self.pair_conjuncts:
            env = self._pair_env(sides, pairs, refs)
            keep = _Helpers.as_mask(evaluate(conjuncts[position], env), env.length)
            pairs = (pairs[0][keep], pairs[1][keep])
        # The interpreter's order: left rows ascending, and per left row
        # its right matches ascending -- member after member, since that
        # is how the left rows are stacked.
        order = np.lexsort((pairs[1], pairs[0]))
        pairs = (pairs[0][order], pairs[1][order])
        cuts = np.searchsorted(pairs[0], sides[0].bounds)

        env = self._pair_env(sides, pairs, self.output_columns)
        if self.grouped:
            return self._grouped(sel, sides, env, cuts)
        cols = {
            name: _Helpers.as_col(evaluate(item.expr, env), env.length)
            for name, item in zip(self.out_names, sel.items)
        }
        return _cut(cols, cuts)

    def _side_rows(self, side: int, conjuncts: list, stack: _Stack):
        """Stack rows of one side passing its own conjuncts; None = all."""
        positions = self.side_filters[side]
        if not positions:
            return None
        binding = self.bindings[side]
        n = int(stack.bounds[-1])
        env = Environment(
            {(binding, name): arr for name, arr in stack.columns.items()}, n
        )
        mask = None
        for position in positions:
            m = _Helpers.as_mask(evaluate(conjuncts[position], env), n)
            mask = m if mask is None else mask & m
        return np.flatnonzero(mask)

    def _candidates(self, conjuncts, sides, kept):
        """Candidate (left rows, right rows) of the stack: a superset of the answer.

        Both rows of a candidate belong to one member.  None when there
        are more than :data:`MAX_CROSS_PAIRS` of them in a family the
        caller can still halve; for one pair of tables that is an error.
        """
        kind, left_col, right_col = self.pairing[:3]
        left_rows, right_rows = kept
        left_vals = _Helpers.gather(sides[0].columns[left_col], left_rows)
        right_vals = _Helpers.gather(sides[1].columns[right_col], right_rows)
        if kind == "equi":
            # Blind to the member, so still a superset.
            left_vals, left_rows = _drop_unmatched(left_vals, left_rows, right_vals)
            right_vals, right_rows = _drop_unmatched(right_vals, right_rows, left_vals)
            low = high = left_vals
        else:
            # A great-circle separation is never smaller than the
            # declination difference, so every pair closer than the
            # radius lies in this band of the sorted declinations.  It
            # is widened by far more than haversine round-off (~1e-14
            # deg) so that no pair the exact test would keep is missed.
            radius = float(conjuncts[self.pairing[3]].right.value)
            band = radius + max(1e-9, abs(radius) * 1e-9)
            low, high = left_vals - band, left_vals + band
        order, lo, counts = _probe_runs(
            right_vals, sides[1].runs(right_rows), low, high, sides[0].runs(left_rows)
        )
        if kind == "band":
            total = int(counts.sum())
            if total > MAX_CROSS_PAIRS:
                if len(sides[0].bounds) > 2:
                    return None
                raise SqlError(
                    f"near-neighbor join of {len(left_vals)} x {len(right_vals)} "
                    f"rows yields {total} candidate pairs, more than "
                    f"{MAX_CROSS_PAIRS}; restrict the join"
                )
        li, ri = _expand_ranges(lo, counts, order)
        if left_rows is not None:
            li = left_rows[li]
        if right_rows is not None:
            ri = right_rows[ri]
        return li, ri

    def _pair_env(self, sides, pairs, refs) -> Environment:
        cols = {
            (self.bindings[side], name): sides[side].columns[name][pairs[side]]
            for side, name in refs
        }
        return Environment(cols, len(pairs[0]))

    def _grouped(self, sel, sides, env, cuts) -> list[dict[str, np.ndarray]]:
        """Group, aggregate and project each member's pairs (``cuts`` apart)."""
        sizes = np.diff(cuts)
        out: list = [None] * len(sizes)
        if env.length:
            # The member leads the GROUP BY keys: a stable sort keeps
            # each member's pairs in their order, so every group holds
            # what it holds when the member is grouped alone.
            env = Environment(
                {
                    **env.columns,
                    (_MEMBER.table, _MEMBER.column): np.repeat(
                        np.arange(len(sizes)), sizes
                    ),
                },
                env.length,
            )
            family = replace(
                sel,
                items=sel.items + (_MEMBER_ITEM,),
                group_by=(_MEMBER,) + sel.group_by,
            )
            cols = grouped_projection(family, env, self.aggregates)
            group_member = cols.pop(_MEMBER_ITEM.alias)
            out = _cut(cols, np.searchsorted(group_member, np.arange(len(sizes) + 1)))
        if not sizes.all():
            # What no pair at all gives (one COUNT(*) = 0 / NULL row, or
            # no row under GROUP BY), dtypes included: those of an empty
            # input, which lead the chunk result if this member does.
            none = (np.empty(0, dtype=np.intp),) * 2
            empty = grouped_projection(
                sel, self._pair_env(sides, none, self.output_columns), self.aggregates
            )
            for m in np.flatnonzero(sizes == 0):
                out[m] = dict(empty)
        return out


def _cut(cols: dict[str, np.ndarray], cuts: np.ndarray) -> list[dict]:
    """``cols`` member by member: member ``m`` has rows ``cuts[m]:cuts[m + 1]``."""
    return [
        {name: arr[lo:hi] for name, arr in cols.items()}
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def compile_join(sel: ast.Select, bindings, schemas, scan_bytes) -> JoinKernel:
    """Compile a two-table comma join into a :class:`JoinKernel`.

    ``sel`` should already be normalized; ``bindings`` and ``schemas``
    give each FROM entry's binding name and ordered column list;
    ``scan_bytes`` is the counter the kernel's scans are charged to.
    Raises :class:`KernelFallback` unless the WHERE clause offers a way
    to generate candidate pairs -- an equality between one column of
    each side, or ``qserv_angSep(<one side's ra, dec>, <the other's>)
    < | <= literal`` -- and every column reference resolves to exactly
    one side.
    """
    if len(sel.tables) != 2:
        raise KernelFallback("only two-table joins compile")
    if bindings[0] == bindings[1]:
        raise KernelFallback("duplicate table name/alias")
    schema_names = [[c.name for c in schema] for schema in schemas]
    colsets = [set(names) for names in schema_names]

    def side_of(ref: ast.ColumnRef) -> int:
        if ref.table is not None:
            if ref.table not in bindings:
                raise KernelFallback(f"unresolvable qualifier {ref.table!r}")
            sides = [bindings.index(ref.table)]
        else:
            sides = [0, 1]
        hits = [s for s in sides if ref.column in colsets[s]]
        if len(hits) != 1:
            raise KernelFallback(f"unknown or ambiguous column {ref.column!r}")
        return hits[0]

    def refs_of(*exprs) -> list[tuple[int, str]]:
        found: dict[tuple[int, str], None] = {}
        for expr in exprs:
            for e in expr.walk():
                if isinstance(e, ast.ColumnRef):
                    found.setdefault((side_of(e), e.column))
        return list(found)

    aggregates = collect_aggregates(sel)
    grouped = bool(aggregates or sel.group_by)
    if sel.having is not None and not grouped:
        raise KernelFallback("HAVING without aggregation")
    if any(isinstance(item.expr, ast.Star) for item in sel.items):
        raise KernelFallback("'*' over a join")
    out_names = _output_names(sel, [], None, grouped)
    _check_order_by(sel, out_names)
    output_columns = refs_of(
        *(e for clause, e in sel.clauses() if clause in ("SELECT", "GROUP BY", "HAVING"))
    )

    side_filters: tuple[list, list] = ([], [])
    pair_conjuncts = []
    pairing = None
    band = None
    conjuncts = ast.split_conjuncts(sel.where)
    for position, conjunct in enumerate(conjuncts):
        if contains_aggregate(conjunct):
            raise KernelFallback("aggregate in WHERE")
        refs = refs_of(conjunct)
        sides = {side for side, _ in refs}
        if len(sides) == 1:
            side_filters[sides.pop()].append(position)
            continue
        pair_conjuncts.append((position, refs))
        if pairing is None:
            pairing = _equi_pairing(conjunct, side_of)
        if band is None:
            band = _band_pairing(conjunct, position, side_of)
    pairing = pairing or band
    if pairing is None:
        raise KernelFallback("no conjunct to pair the two tables by")

    # The pairing conjunct is one of the pair conjuncts, so its columns
    # are covered too.
    referenced = set(output_columns)
    referenced.update(ref for _, refs in pair_conjuncts for ref in refs)
    referenced.update(
        refs_of(*(conjuncts[p] for p in side_filters[0] + side_filters[1]))
    )
    needed = tuple(
        [name for name in schema_names[side] if (side, name) in referenced]
        for side in (0, 1)
    )
    return JoinKernel(
        bindings=tuple(bindings),
        needed=needed,
        side_filters=side_filters,
        pairing=pairing,
        pair_conjuncts=pair_conjuncts,
        output_columns=output_columns,
        grouped=grouped,
        aggregates=aggregates,
        out_names=out_names,
        scan_bytes=scan_bytes,
    )


def _equi_pairing(conjunct: ast.Expr, side_of):
    """``("equi", left column, right column)`` for ``a.x = b.y``, else None."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    a, b = conjunct.left, conjunct.right
    if not (isinstance(a, ast.ColumnRef) and isinstance(b, ast.ColumnRef)):
        return None
    if side_of(a) == side_of(b):
        return None
    if side_of(a) == 1:
        a, b = b, a
    return ("equi", a.column, b.column)


def _band_pairing(conjunct: ast.Expr, position: int, side_of):
    """``("band", left dec, right dec, position)`` for a near-neighbour cut.

    Matches ``qserv_angSep(p.ra, p.dec, q.ra, q.dec) < | <= number``
    with ``p`` and ``q`` on opposite sides of the join; the radius is
    read from the conjunct at ``position`` of the executing statement.
    """
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op in ("<", "<=")):
        return None
    call, limit = conjunct.left, conjunct.right
    if not (
        isinstance(call, ast.FuncCall)
        and call.name.upper() in _ANGSEP_NAMES
        and len(call.args) == 4
        and all(isinstance(a, ast.ColumnRef) for a in call.args)
        and isinstance(limit, ast.Literal)
        and isinstance(limit.value, (int, float))
    ):
        return None
    first, second = side_of(call.args[0]), side_of(call.args[2])
    if (side_of(call.args[1]), side_of(call.args[3])) != (first, second):
        return None
    if first == second:
        return None
    decs = (call.args[1].column, call.args[3].column)
    return ("band", decs[first], decs[second], position)


# -- the cache ----------------------------------------------------------------------

#: Cache value marking "compilation declined; use the interpreter".
FALLBACK = object()


class KernelCache(Lru):
    """LRU cache of compiled kernels, keyed like the czar plan cache.

    Keys are (normalized SQL, schema signature); values are
    :class:`CompiledKernel` objects or the :data:`FALLBACK` sentinel so
    repeated un-compilable statements cost one lookup, not one failed
    compile.  Safe to share across worker slots and merge databases --
    kernels are stateless.

    It also holds the handles of the counters every kernel statement
    touches, resolved once here instead of by name per statement:
    ``executions`` (its users count a kernel run there) and the scan
    bytes its kernels charge.
    """

    def __init__(self, capacity: int = 256):
        super().__init__(
            capacity,
            hits=obs_metrics.counter("kernel.cache.hits"),
            misses=obs_metrics.counter("kernel.cache.misses"),
            size=obs_metrics.gauge("kernel.cache.size"),
        )
        self.executions = obs_metrics.counter("kernel.executions")
        self._scan_bytes = obs_metrics.counter("engine.scan.bytes")
        self._compiled = obs_metrics.counter("kernel.compiled")
        self._fallbacks = obs_metrics.counter("kernel.fallbacks")

    def get_or_compile(self, sel: ast.Select, tables, key: KernelKey | None = None):
        """Kernel for a select over ``tables``, or None (interpreter path).

        ``tables`` are the resolved FROM tables in clause order;
        ``key`` is ``kernel_key(sel)`` when the caller already has it.
        Handles normalization, cache lookup, compilation, and metrics;
        the caller has already checked table existence and indexes.
        """
        sql, norm_sel, bindings = key or kernel_key(sel)
        cache_key = (sql, tuple(t.signature() for t in tables))
        entry = self.get(cache_key)
        if entry is None:
            try:
                if len(tables) == 1:
                    entry = compile_select(
                        norm_sel, bindings[0], tables[0].schema(), self._scan_bytes
                    )
                else:
                    entry = compile_join(
                        norm_sel, bindings, [t.schema() for t in tables], self._scan_bytes
                    )
                self._compiled.add(1)
            except KernelFallback:
                entry = FALLBACK
                self._fallbacks.add(1)
            self.put(cache_key, entry)
        if entry is FALLBACK:
            return None
        return entry
