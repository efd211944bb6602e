"""Compiled fused query kernels (the per-node engine fast path).

The interpreter in :mod:`repro.sql.engine` walks the AST node-by-node
for every statement, allocating an intermediate array per operator and
evaluating every WHERE conjunct over the full table.  Chunk queries are
templates, though: the czar dispatches the *same* rewritten SELECT to
hundreds of chunk tables, so the per-query plan is worth compiling
once and replaying.  This module compiles a SELECT over one table, or a
two-table comma join, into one cached :class:`CompiledKernel`: a
pipeline of generated Python/NumPy stages that one emitter writes for
both shapes, resolving each column to its side by one rule
(:func:`_column_rule`):

- **side stages**: the WHERE conjuncts that read one FROM entry alone
  -- the cheap ones fused into one full-table mask, those with a
  function call (the expensive UDFs) run on its survivors only
  (:func:`_compile_side`);
- **row source**: one table's surviving rows; or, for a join, the
  candidate pairs of surviving rows, from a ``col = col`` sort-merge or,
  under a ``qserv_angSep(...) < r`` conjunct, the right side's zone
  index (:class:`~repro.partition.dec_index.DecIndex`) probed with each
  left row's RA windows, which the two-sided conjuncts then cut exactly
  as survivor stages, each column gathered through its side's rows;
- **projection** (``_project``) or **aggregate** (``_aggregate``): the
  select list over the gathered columns.  The aggregate stage is
  :func:`grouped_projection` written out as code, calling the group
  ladder and reductions the interpreter calls, on the same operands --
  the NULL rules are written once, so kernel aggregation cannot diverge
  from interpreted aggregation by construction.  A kernel compiles
  whole or not at all: a select list the emitter cannot write declines
  the statement to the interpreter.

Which keys are equal and how they order is decided in one place,
:func:`group_structure`: GROUP BY, SELECT DISTINCT, DISTINCT aggregates
and the ranks that order and reduce text (:func:`ranks`) all read it.

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

A join kernel runs a whole *family* -- one statement asked of several
pairs of tables, the 2 x *n* sub-chunk statements of a chunk query --
in one pass (:meth:`CompiledKernel.run`, behind
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
from ..partition.dec_index import DecIndex
from . import ast
from .errors import SqlError
from .expr_eval import (
    Environment,
    as_bool,
    contains_aggregate,
    evaluate,
    in_list_mask,
    in_values,
    literal_in_values,
    null_mask,
)
from .functions import FUNCTIONS
from .shapes import blank

__all__ = [
    "KernelCache",
    "CompiledKernel",
    "KernelFallback",
    "compile_select",
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
    "ranks",
    "nulls",
]

# A join that would materialize more candidate pairs than this means a
# query forgot its join predicate; sub-chunk near-neighbor joins sit
# far below it.  Guards the interpreter's cross join and the join
# kernel's near-neighbour candidates alike: the pairs of the zone
# index's RA windows, which the exact separation test then cuts.
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


def nulls(arr: np.ndarray):
    """Mask of a column's NULLs, or None when it has none.

    A NULL is NaN: in a float column, and -- a VARCHAR NULL -- as a
    float NaN in a text (object) column, the one value there that is
    not equal to itself.
    """
    if arr.dtype.kind == "f":
        # The minimum is NaN exactly when some value is: one pass, no mask.
        if not len(arr) or not np.isnan(np.minimum.reduce(arr)):
            return None
        return np.isnan(arr)
    if arr.dtype == object:
        null = arr != arr
        return null if null.any() else None
    return None


def _sort_keys(arr: np.ndarray) -> list[np.ndarray]:
    """``arr`` as sort keys, most significant first, under the one key rule.

    NULL sorts last and every NULL is one value (one group, one
    DISTINCT row).  A float NaN already does both; a text column with
    NULLs, whose NaN cannot be compared with its strings, becomes the
    pair ``(is NULL, text with NULL as "")``.
    """
    null = nulls(arr) if arr.dtype == object else None
    if null is None:
        return [arr]
    filled = arr.copy()
    filled[null] = ""
    return [null, filled]


def _boundaries(keys: np.ndarray) -> np.ndarray:
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
    """(order, group_starts) for rows keyed by ``keys``; ``order`` None is the identity.

    The one rule of which keys are equal and how they order: GROUP BY
    groups, SELECT DISTINCT keeps and DISTINCT aggregates count what it
    finds equal, and :func:`ranks` orders by it.

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
    keys = [k for key in keys for k in _sort_keys(key)]
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
            equal &= ~_boundaries(k)
        if np.all(ascending | equal):
            changed[1:] = ~equal
            return None, np.flatnonzero(changed)
    order = np.lexsort(keys[::-1])
    for k in keys:
        changed[1:] |= _boundaries(k[order])
    return order, np.flatnonzero(changed)


def _group_sizes(group_starts: np.ndarray, n: int) -> np.ndarray:
    """Rows per group, ``int64``: what ``COUNT(*)`` answers."""
    sizes = np.empty(len(group_starts), dtype=np.int64)
    sizes[:-1] = group_starts[1:]
    sizes[-1:] = n
    sizes -= group_starts
    return sizes


def ranks(arr: np.ndarray):
    """``(rank, values)``: ``values`` are ``arr``'s distinct values in key order.

    ``rank[i]`` is the position of ``arr[i]`` in ``values``, as a
    ``float64`` whose NULL is NaN: a rank sorts as its value does, NULL
    last, and ``fmin``/``fmax`` skip it.  How text, whose NULL cannot be
    compared with a string, is ordered and reduced.
    """
    n = len(arr)
    order, starts = group_structure([arr], n)
    values = arr[_representative_rows(order, starts, n)]
    in_order = np.repeat(np.arange(len(starts), dtype=np.float64), _group_sizes(starts, n))
    if n and values[-1] != values[-1]:
        in_order[starts[-1]:] = np.nan  # the NULL group, which sorts last
    if order is None:
        return in_order, values
    rank = np.empty(n)
    rank[order] = in_order
    return rank, values


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
    null = nulls(vals)
    return None if null is None else ~null


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
    if vals.dtype == object:
        return _text_by_rank(np.fmin, vals, group_starts)
    op = np.fmin if vals.dtype.kind == "f" else np.minimum
    return op.reduceat(vals, group_starts)


def _max(vals, valid, group_starts, sizes):
    if vals.dtype == object:
        return _text_by_rank(np.fmax, vals, group_starts)
    op = np.fmax if vals.dtype.kind == "f" else np.maximum
    return op.reduceat(vals, group_starts)


def _text_by_rank(extreme, vals, group_starts):
    """MIN (``np.fmin``) or MAX (``np.fmax``) of text per group, by :func:`ranks`.

    Each group's extreme rank names its value; a NULL's NaN rank is
    skipped, so a group of only NULLs is NULL.
    """
    rank, values = ranks(vals)
    picked = extreme.reduceat(rank, group_starts)
    null = np.isnan(picked)
    out = values[np.where(null, 0, picked).astype(np.intp)]
    out[null] = np.nan
    return out


_REDUCTIONS = {"COUNT": _count, "SUM": _sum, "AVG": _avg, "MIN": _min, "MAX": _max}
_IGNORES_VALID = ("MIN", "MAX")


def _reduce_distinct(name, vals, valid, group_starts, sizes):
    """``name(DISTINCT vals)`` per group: the reduction over each group's distinct values.

    The distinct values are the runs of one :func:`group_structure`
    over (group, value), NULLs left out: NULL is no value.  A group left
    with none answers what an empty input does (COUNT 0, the rest NULL).
    MIN and MAX, which no repeat moves, do not come here.
    """
    num_groups = len(group_starts)
    gid = np.repeat(np.arange(num_groups), sizes)
    if valid is not None:
        vals, gid = vals[valid], gid[valid]
    order, starts = group_structure([gid, vals], len(vals))
    first = _representative_rows(order, starts, len(vals))
    vals, counts = vals[first], np.bincount(gid[first], minlength=num_groups)
    present = np.flatnonzero(counts)
    found = _REDUCTIONS[name](
        vals, None, (np.cumsum(counts) - counts)[present], counts[present]
    )
    if len(present) == num_groups:
        return found
    out = _no_rows(name, num_groups)
    out[present] = found
    return out


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
    reduce = _REDUCTIONS.get(name)
    if reduce is None:
        raise SqlError(f"unsupported aggregate {name}")
    valid = None if name in _IGNORES_VALID else _valid(vals)
    if agg.distinct and name not in _IGNORES_VALID:
        return _reduce_distinct(name, vals, valid, group_starts, sizes)
    return reduce(vals, valid, group_starts, sizes)


def _representative_rows(order, group_starts, n: int) -> np.ndarray:
    """The first row of each group: where its non-aggregate values come from."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return group_starts if order is None else order[group_starts]


#: The output column of a family's member, which no statement can name.
MEMBER = "\0member"

_BARE_ITEM_OVER_NO_ROWS = (
    "non-aggregate select item {!r} in a global aggregate over an empty table"
)


def grouped_projection(
    sel: ast.Select, env: Environment, aggregates: list[ast.FuncCall]
) -> dict[str, np.ndarray]:
    """Group, aggregate, project, and apply HAVING; returns result columns.

    The interpreter's grouped path, and the reference for the generated
    aggregate stage (:func:`_compile_aggregate`), which does the same
    steps through the same helpers.
    """
    n = env.length
    keys = []
    for gexpr in sel.group_by:
        arr = np.asarray(evaluate(gexpr, env))
        if arr.ndim == 0:
            arr = np.full(n, arr)
        keys.append(arr)
    if keys:
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


def _expand_ranges(lo: np.ndarray, counts: np.ndarray, order: np.ndarray, probes=None):
    """(probe index, build index) for ``counts[i]`` build positions from ``lo[i]``.

    ``order`` maps positions in the sorted build side back to build
    rows, ``probes`` range ``i`` to its probe row (None: row ``i``).
    Probe-major: all matches of range 0 first, then range 1, ...
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    build_idx = order[np.arange(total) + np.repeat(lo - (ends - counts), counts)]
    return np.repeat(np.arange(len(lo)) if probes is None else probes, counts), build_idx


def _probe_runs(right_vals, right_runs, left_vals, left_runs):
    """Sort the right side run by run and probe each run with its own left rows.

    Both sides are cut into the same number of consecutive runs (the
    members of a statement family; one run when there is one pair of
    tables): ``right_runs[m]:right_runs[m + 1]`` are the right rows of
    run ``m``, ``left_runs`` likewise.  Returns ``(order, lo, counts)``:
    ``order`` lists the right rows run after run, each run stably
    sorted by value, and left row ``i`` matches the ``counts[i]``
    positions of ``order`` from ``lo[i]`` -- the values of its *own*
    run equal to ``left_vals[i]``.
    """
    order = np.empty(len(right_vals), dtype=np.intp)
    lo = np.empty(len(left_vals), dtype=np.intp)
    hi = np.empty(len(left_vals), dtype=np.intp)
    # Plain ints and method calls: this loop is per member.
    right_runs = np.asarray(right_runs).tolist()
    left_runs = np.asarray(left_runs).tolist()
    for r0, r1, l0, l1 in zip(right_runs, right_runs[1:], left_runs, left_runs[1:]):
        run = right_vals[r0:r1]
        run_order = run.argsort(kind="stable")
        run = run[run_order]
        order[r0:r1] = run_order + r0
        lo[l0:l1] = run.searchsorted(left_vals[l0:l1], "left") + r0
        hi[l0:l1] = run.searchsorted(left_vals[l0:l1], "right") + r0
    return order, lo, hi - lo


def equi_join(left_vals: np.ndarray, right_vals: np.ndarray):
    """Vectorized many-to-many equi join; returns (left_idx, right_idx).

    Sorts the right side and probes it with the left, so pairs come out
    left-major with each left row's matches in ascending right order.
    A NULL key matches nothing.
    """
    left_vals, left_rows = _drop_null_keys(left_vals, None)
    right_vals, right_rows = _drop_null_keys(right_vals, None)
    order, lo, counts = _probe_runs(right_vals, (0, len(right_vals)), left_vals, (0, len(left_vals)))
    li, ri = _expand_ranges(lo, counts, order)
    return (
        li if left_rows is None else left_rows[li],
        ri if right_rows is None else right_rows[ri],
    )


def _drop_null_keys(vals: np.ndarray, rows):
    """``(vals, rows)`` without the NULL keys, which match nothing.

    ``rows`` are the row indices behind ``vals`` (None = all rows).  A
    text NULL cannot be sorted with the strings, and a float one would
    only make candidates the join conjunct throws away.
    """
    null = nulls(vals)
    if null is None:
        return vals, rows
    keep = np.flatnonzero(~null)
    return vals[keep], keep if rows is None else rows[keep]


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
    nan = np.nan
    as_bool = staticmethod(as_bool)

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

    in_list = staticmethod(in_list_mask)

    @staticmethod
    def in_params(val, values):
        """``val IN (values)`` for an all-numeric list bound at call time."""
        return in_list_mask(val, in_values(values), values)

    @staticmethod
    def isnull(val, negated):
        out = null_mask(val)
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
    distinct = staticmethod(_reduce_distinct)
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

    A column reference is emitted as what ``col`` makes of its key, the
    ``(side, column)`` the compiler's rule ``resolve`` gives it.

    An expression emitted with a ``path`` (the attribute chain reaching
    it from the executing statement ``s``, e.g. ``s.where.left``) lies
    in the WHERE clause: its numeric literals are holes of the
    statement's shape, so each is emitted as ``P[i]`` and its path
    recorded in ``params`` -- the list every emitter of one kernel
    shares, from which :func:`_compile_params` builds the function that
    reads ``P`` off a statement.  Without a path (the select list)
    literals are part of the shape and are emitted inline.
    """

    def __init__(self, resolve, col, params: list[str]):
        self.resolve = resolve  # ColumnRef -> (side, column)
        self.col = col  # (side, column) -> source string
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
            return self.col(self.resolve(e))
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


def _column_rule(bindings, schema_names):
    """``ColumnRef -> (side, column)``, the one way every stage places a column.

    A qualified reference reads the FROM entry bound to its qualifier,
    an unqualified one the only entry with the column; the interpreter
    reports the rest (:class:`KernelFallback`).
    """
    colsets = [set(names) for names in schema_names]

    def resolve(ref: ast.ColumnRef) -> tuple[int, str]:
        if ref.table is not None:
            if ref.table not in bindings:
                raise KernelFallback(f"unresolvable qualifier {ref.table!r}")
            sides = [bindings.index(ref.table)]
        else:
            sides = range(len(bindings))
        hits = [side for side in sides if ref.column in colsets[side]]
        if len(hits) != 1:
            raise KernelFallback(f"unknown or ambiguous column {ref.column!r}")
        return hits[0], ref.column

    return resolve


def _keys(expr: ast.Expr, resolve) -> set[tuple[int, str]]:
    """The column keys an expression reads."""
    return {resolve(e) for e in expr.walk() if isinstance(e, ast.ColumnRef)}


def _compile_fn(name: str, lines: list[str], consts: list, label: str):
    """exec() the generated function source in a minimal namespace."""
    src = "\n".join(lines)
    ns = {"np": np, "H": _HELPERS, "F": FUNCTIONS, "R": _REDUCTIONS, "K": consts}
    exec(compile(src, f"<kernel:{label}>", "exec"), ns)  # noqa: S102 - codegen
    fn = ns[name]
    fn.__kernel_source__ = src
    return fn


def _rows_fn(name: str, args: str, cols_used: dict, body: list[str], consts, label):
    """A generated function that first gathers the columns it reads.

    Each ``(side, column)`` key of ``cols_used`` becomes its variable,
    ``C[side][column]`` at the rows ``S[side]``: one table's survivors,
    or the left and right rows of the pairs.
    """
    lines = [f"def {name}({args}):"]
    lines += [
        f"    {var} = H.gather(C[{side}][{cn!r}], S[{side}])"
        for (side, cn), var in cols_used.items()
    ]
    return _compile_fn(name, lines + body, consts, label)


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


class _Stack(NamedTuple):
    """One side of a join's family: the members' rows, end to end."""

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


class _Side(NamedTuple):
    """The stages of the conjuncts that read one FROM entry alone."""

    #: The columns any stage of the kernel reads from this side, in schema order.
    needed: list[str]
    #: ``_mask(C, n, P)``: the cheap conjuncts fused over every row; or None.
    mask_fn: object
    #: ``_stage(C, S, ns, P)`` per conjunct with a function call, in turn.
    stage_fns: list

    def rows(self, columns, n: int, P, index: bool):
        """``(rows, count)`` passing this side's conjuncts.

        ``rows`` is None for every row, else row indices -- or, unless
        ``index``, perhaps the mask itself.
        """
        C = (columns,)
        m = self.mask_fn(C, n, P) if self.mask_fn is not None else None
        if self.stage_fns:
            # With no mask the first stage reads the columns themselves.
            s = np.flatnonzero(m) if m is not None else None
            for fn in self.stage_fns:
                keep = fn(C, (s,), n if s is None else len(s), P)
                s = np.flatnonzero(keep) if s is None else s[keep]
            return s, len(s)
        if m is None:
            return None, n
        if index:
            # One conversion, then index gathers: boolean indexing
            # re-scans the whole mask for every column it cuts.
            s = np.flatnonzero(m)
            return s, len(s)
        return m, int(np.count_nonzero(m))


@dataclass(frozen=True, slots=True)
class CompiledKernel:
    """One compiled callable for a query template over one or two tables.

    Calling it with a statement of its shape and that statement's FROM
    tables returns the result columns (pre-DISTINCT, pre-ORDER BY -- the
    engine applies those on the output, exactly as it does for the
    interpreted path).  The statement supplies the WHERE literals;
    everything else about it is what the kernel was compiled from.

    A join kernel's unit of work is a *family* (:meth:`run`).  Its
    members' rows are stacked, every stage runs once over the stack,
    candidate pairs never cross a member, and the output is cut at the
    member boundaries -- grouped with the member as a hidden leading
    key.  Elementwise stages see the same rows in the same order as
    member-by-member calls would, so each member's share is what a call
    on it alone returns.
    """

    sides: tuple[_Side, ...]
    params_fn: object
    #: A join's ``("equi", ((left column,), (right column,)))`` or
    #: ``("near", ((left ra, left dec), (right ra, right dec)), index of
    #: the radius in P)``; None for one table.
    pairing: tuple | None
    #: ``_stage(C, S, ns, P)`` per two-sided conjunct, over the pairs.
    pair_fns: list
    #: The generated ``_project`` or ``_aggregate`` ``(C, S, ns, M)``.
    project_fn: object
    #: Whether it reads columns by row (so a mask is worth turning into rows).
    gathers: bool
    grouped: bool
    #: The ``engine.scan.bytes`` counter every call is charged to.
    scan_bytes: obs_metrics.Counter

    def __call__(self, sel: ast.Select, *tables) -> dict[str, np.ndarray]:
        if self.pairing is not None:
            return self.run(sel, [tables])[0]
        # One table: its surviving rows are the row source.
        (table,) = tables
        C = ({name: table.column(name) for name in self.sides[0].needed},)
        _account_scan(C[0].values(), self.scan_bytes)
        P = self.params_fn(sel) if self.params_fn is not None else ()
        rows, ns = self.sides[0].rows(C[0], table.num_rows, P, self.gathers)
        return self.project_fn(C, (rows,), ns, None)

    def run(self, sel: ast.Select, members: list) -> list[dict[str, np.ndarray]]:
        """A join's result columns per member: a (left table, right table) pair."""
        P = self.params_fn(sel) if self.params_fn is not None else ()
        stacks = [
            _Stack.of([member[k] for member in members], side.needed)
            for k, side in enumerate(self.sides)
        ]
        C = tuple(stack.columns for stack in stacks)
        kept = [
            side.rows(columns, int(stack.bounds[-1]), P, True)[0]
            for side, columns, stack in zip(self.sides, C, stacks)
        ]
        pairs = self._candidates(P, stacks, kept)
        if pairs is None:
            # More candidates than one pass may hold, though perhaps
            # no member has as many: halve the family.
            half = len(members) // 2
            return self.run(sel, members[:half]) + self.run(sel, members[half:])
        _account_scan([arr for columns in C for arr in columns.values()], self.scan_bytes)
        for fn in self.pair_fns:
            keep = np.flatnonzero(fn(C, pairs, len(pairs[0]), P))  # one mask scan, two takes
            pairs = (pairs[0][keep], pairs[1][keep])
        # The interpreter's order: left rows ascending, and per left row
        # its right matches ascending -- member after member, since that
        # is how the left rows are stacked.  A pair is one key, as no two
        # pairs are equal.
        order = np.argsort(pairs[0] * np.int64(stacks[1].bounds[-1]) + pairs[1])
        pairs = (pairs[0][order], pairs[1][order])
        cuts = np.searchsorted(pairs[0], stacks[0].bounds)
        if not self.grouped:
            return _cut(self.project_fn(C, pairs, len(order), None), cuts)
        if len(members) == 1:
            return [self.project_fn(C, pairs, len(order), None)]

        sizes = np.diff(cuts)
        out: list = [None] * len(sizes)
        if len(order):
            # The member leads the GROUP BY keys: a stable sort keeps
            # each member's pairs in their order, so every group holds
            # what it holds when the member is grouped alone.
            member = np.repeat(np.arange(len(sizes)), sizes)
            cols = self.project_fn(C, pairs, len(order), member)
            group_member = cols.pop(MEMBER)
            out = _cut(cols, np.searchsorted(group_member, np.arange(len(sizes) + 1)))
        if not sizes.all():
            # What no pair at all gives (one COUNT(*) = 0 / NULL row, or
            # no row under GROUP BY), dtypes included: those of an empty
            # input, which lead the chunk result if this member does.
            none = np.empty(0, dtype=np.intp)
            empty = self.project_fn(C, (none, none), 0, None)
            for m in np.flatnonzero(sizes == 0):
                out[m] = dict(empty)
        return out

    def _candidates(self, P, stacks, kept):
        """Candidate (left rows, right rows) of the stacks: a superset of the answer.

        Both rows of a candidate belong to one member.  None when there
        are more than :data:`MAX_CROSS_PAIRS` of them in a family the
        caller can still halve; for one pair of tables that is an error.
        """
        left_rows, right_rows = kept
        left, right = (
            [_Helpers.gather(stack.columns[name], rows) for name in names]
            for stack, rows, names in zip(stacks, kept, self.pairing[1])
        )
        if self.pairing[0] == "equi":
            (left_vals,), (right_vals,) = left, right
            left_vals, left_rows = _drop_null_keys(left_vals, left_rows)
            right_vals, right_rows = _drop_null_keys(right_vals, right_rows)
            # Blind to the member, so still a superset.
            left_vals, left_rows = _drop_unmatched(left_vals, left_rows, right_vals)
            right_vals, right_rows = _drop_unmatched(right_vals, right_rows, left_vals)
            order, lo, counts = _probe_runs(
                right_vals, stacks[1].runs(right_rows), left_vals, stacks[0].runs(left_rows)
            )
            li, ri = _expand_ranges(lo, counts, order)
        else:
            # The rows of the right side's zone index in each left row's
            # windows: the circle of the radius around it, in its member.
            radius = float(P[self.pairing[2]])
            index = DecIndex.for_join(*right, stacks[1].runs(right_rows), radius)
            probes, lo, counts = index.windows(*left, stacks[0].runs(left_rows), radius)
            total = int(counts.sum())
            if total > MAX_CROSS_PAIRS:
                if len(stacks[0].bounds) > 2:
                    return None
                raise SqlError(
                    f"near-neighbor join of {len(left[0])} x {len(right[0])} rows yields "
                    f"{total} candidate pairs, more than {MAX_CROSS_PAIRS}; restrict the join"
                )
            li, ri = _expand_ranges(lo, counts, index.order, probes)
        if left_rows is not None:
            li = left_rows[li]
        if right_rows is not None:
            ri = right_rows[ri]
        return li, ri


def _cut(cols: dict[str, np.ndarray], cuts: np.ndarray) -> list[dict]:
    """``cols`` member by member: member ``m`` has rows ``cuts[m]:cuts[m + 1]``."""
    return [
        {name: arr[lo:hi] for name, arr in cols.items()}
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


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


def _numbered(variables: dict, prefix: str):
    """``column key -> its variable``, numbering a key on first use into ``variables``."""
    return lambda key: variables.setdefault(key, f"{prefix}{len(variables)}")


def _compile_stage(conjunct, path: str, resolve, params: list[str], label: str):
    """``_stage(C, S, ns, P)``: one conjunct's mask over the selected rows."""
    cols_used: dict = {}
    em = _Emitter(resolve, _numbered(cols_used, "g"), params)
    body = [f"    return H.as_mask({em.emit(conjunct, path)}, ns)"]
    return _rows_fn("_stage", "C, S, ns, P", cols_used, body, em.consts, label)


def _compile_side(side: int, conjuncts, resolve, params, needed) -> _Side:
    """The stages of one side's conjuncts, which see its columns alone, as ``C[0]``.

    Cheap conjuncts (no function call) fold into one full-table mask
    with ``np.logical_and(..., out=m)`` scratch reuse.  The others (the
    expensive UDFs) run only on the rows surviving the mask and the
    stages before them: every registered function is elementwise, so
    that is bit-identical to full-table evaluation.
    """

    def own(ref):
        return 0, resolve(ref)[1]

    cheap = [(c, path) for c, path in conjuncts if not _contains_func(c)]
    expensive = [(c, path) for c, path in conjuncts if _contains_func(c)]
    mask_fn = None
    if cheap:
        em = _Emitter(own, lambda key: f"C[0][{key[1]!r}]", params)
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
        mask_fn = _compile_fn("_mask", lines, em.consts, f"mask{side}")
    stage_fns = [
        _compile_stage(c, path, own, params, f"stage{side}.{i}")
        for i, (c, path) in enumerate(expensive)
    ]
    return _Side(needed, mask_fn, stage_fns)


def _compile_project(sel: ast.Select, out_names: list[str], resolve, star_columns):
    """``(_project(C, S, ns, M), whether it gathers)`` for a plain SELECT."""
    cols_used: dict = {}
    em = _Emitter(resolve, _numbered(cols_used, "g"), [])
    srcs: list[str] = []
    for item in sel.items:
        if isinstance(item.expr, ast.Star):
            srcs += [em.col((0, cname)) for cname in star_columns]
        else:
            srcs.append(em.emit(item.expr))
    body = ["    out = {}"]
    body += [f"    out[{n!r}] = H.as_col({src}, ns)" for n, src in zip(out_names, srcs)]
    body.append("    return out")
    fn = _rows_fn("_project", "C, S, ns, M", cols_used, body, em.consts, "project")
    return fn, bool(cols_used)


def _compile_aggregate(sel: ast.Select, resolve, aggregates):
    """``(_aggregate(C, S, ns, M), whether it gathers)`` for a grouped SELECT.

    The steps of :func:`grouped_projection` as straight-line code: the
    group structure once, each distinct aggregate argument evaluated
    once and tested for NULLs once, the group sizes once, the first row
    of each group gathered only for the columns the select list or
    HAVING reads outside an aggregate, and every expression emitted --
    no ``evaluate``.  The reductions are the interpreter's own
    (``_REDUCTIONS``), on the same operands.  ``M``, when not None, is
    a family's member per row: a hidden leading group key, returned as
    one more output column.  Raises :class:`KernelFallback`, declining
    the whole statement, for an aggregate the interpreter rejects or
    reads oddly (``SUM(*)``, no argument or several) and for anything
    :class:`_Emitter` declines.
    """
    for agg in aggregates:
        if len(agg.args) != 1 or (_is_star(agg) and agg.name.upper() != "COUNT"):
            raise KernelFallback(f"aggregate {agg.to_sql()} is the interpreter's")
    # MIN and MAX skip NULLs by themselves; the others are told where.
    masked = {
        agg.args[0] for agg in aggregates if agg.name.upper() not in _IGNORES_VALID
    }
    # The last aggregate to read an argument frees it, as the interpreter
    # does: the next argument's gather reuses its memory, no fresh pages.
    last = {agg.args[0]: agg for agg in aggregates if not _is_star(agg)}

    row_cols: dict = {}  # column key -> variable of its selected rows
    rows = _Emitter(resolve, _numbered(row_cols, "g"), [])
    if sel.group_by:
        keys = ", ".join(f"H.as_col({rows.emit(g)}, ns)" for g in sel.group_by)
        body = [
            f"    order, starts = H.group_structure([{keys}] if M is None "
            f"else [M, {keys}], ns)"
        ]
    else:
        # One global group (even over zero rows: COUNT(*) = 0).
        body = [
            "    order, starts = (None, np.zeros(1, dtype=np.int64)) if M is None "
            "else H.group_structure([M], ns)"
        ]
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
        if name in _IGNORES_VALID:  # which DISTINCT does not move
            call = f"R[{name!r}](a{i}, None, starts, sizes)"
        elif agg.distinct:
            call = f"H.distinct({name!r}, a{i}, v{i}, starts, sizes)"
        else:
            call = f"R[{name!r}](a{i}, v{i}, starts, sizes)"
        over_rows.append(f"        {result} = {call}")
        if last[arg] is agg:
            over_rows.append(f"        del a{i}")
    if aggregates:
        # As the interpreter: no argument is evaluated over no rows.
        body += ["    if ns:", *over_rows, "    else:", *over_none]

    rep_cols: dict = {}  # column key -> variable of its groups' first rows
    per_group = _Emitter(resolve, _numbered(rep_cols, "q"), [])
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
    outputs.append(
        f"    if M is not None: out[{MEMBER!r}] = "
        "M[H.representative_rows(order, starts, ns)]"
    )
    if sel.having is not None:
        outputs.append(f"    keep = H.as_bool({per_group.emit(sel.having)})")
        outputs.append("    out = {name: col[keep] for name, col in out.items()}")
    outputs.append("    return out")
    if rep_cols:
        body.append("    first = H.representative_rows(order, starts, ns)")
        body += [f"    {var} = {rows.col(key)}[first]" for key, var in rep_cols.items()]

    fn = _rows_fn(
        "_aggregate", "C, S, ns, M", row_cols, body + outputs, rows.consts, "aggregate"
    )
    return fn, bool(row_cols)


def compile_select(sel: ast.Select, bindings, schemas, scan_bytes) -> CompiledKernel:
    """Compile a SELECT over one table, or a two-table comma join, into a kernel.

    ``sel`` should already be normalized (see :func:`normalize_select`);
    ``bindings`` and ``schemas`` give each FROM entry's binding name and
    ordered column list; ``scan_bytes`` is the counter the kernel's
    scans are charged to.  Raises :class:`KernelFallback` for any shape
    where the interpreter must run instead (three tables, a join with
    no conjunct to pair it by, unknown or ambiguous names, unsupported
    ORDER BY keys, ...).
    """
    if len(schemas) > 2:
        raise KernelFallback("three or more tables")
    if len(set(bindings)) != len(bindings):
        raise KernelFallback("duplicate table name/alias")
    schema_names = [[c.name for c in schema] for schema in schemas]
    resolve = _column_rule(bindings, schema_names)

    aggregates = collect_aggregates(sel)
    grouped = bool(aggregates or sel.group_by)
    if sel.having is not None and not grouped:
        raise KernelFallback("HAVING without aggregation")
    wants_star = any(isinstance(i.expr, ast.Star) for i in sel.items)
    if wants_star and len(schemas) > 1:
        raise KernelFallback("'*' over a join")
    out_names = _output_names(sel, schema_names[0], bindings[0], grouped)
    # ORDER BY keys resolve against the *output* columns (aliases
    # included), checked here; every other column reference is resolved
    # up front, which validates it whether or not a stage emits it.
    _check_order_by(sel, out_names)
    referenced: set = set()
    for clause, expr in sel.clauses():
        if clause != "ORDER BY":
            referenced |= _keys(expr, resolve)

    # -- WHERE: each side's own conjuncts, then those that pair the sides ----------
    own: list[list] = [[] for _ in schemas]
    two_sided = []
    for c, path in _conjunct_paths(sel.where, "s.where"):
        sides = {side for side, _ in _keys(c, resolve)}
        if len(sides) == 2:
            two_sided.append((c, path))
        else:
            own[sides.pop() if sides else 0].append((c, path))
    params: list[str] = []  # one P for all the stages below
    sides = tuple(
        _compile_side(
            k, own[k], resolve, params,
            [n for n in names if wants_star or (k, n) in referenced],
        )
        for k, names in enumerate(schema_names)
    )
    pair_fns = [
        _compile_stage(c, path, resolve, params, f"pair{i}")
        for i, (c, path) in enumerate(two_sided)
    ]
    pairing = _pairing(two_sided, resolve, params) if len(schemas) == 2 else None

    # -- the select list ----------------------------------------------------------
    if grouped:
        project_fn, gathers = _compile_aggregate(sel, resolve, aggregates)
    else:
        project_fn, gathers = _compile_project(sel, out_names, resolve, schema_names[0])

    return CompiledKernel(
        sides=sides,
        params_fn=_compile_params(params),
        pairing=pairing,
        pair_fns=pair_fns,
        project_fn=project_fn,
        gathers=gathers,
        grouped=grouped,
        scan_bytes=scan_bytes,
    )


_ANGSEP_NAMES = frozenset({"QSERV_ANGSEP", "SCISQL_ANGSEP"})


def _pairing(conjuncts, resolve, params: list[str]) -> tuple:
    """How a join's candidate pairs are generated, from its two-sided conjuncts.

    The first ``a.x = b.y`` conjunct, else the first near-neighbour cut;
    a conjunct that reads both sides has its column refs on both.
    """
    for pairing_of in (_equi_pairing, _near_pairing):
        for conjunct, path in conjuncts:
            pairing = pairing_of(conjunct, path, resolve, params)
            if pairing is not None:
                return pairing
    raise KernelFallback("no conjunct to pair the two tables by")


def _equi_pairing(conjunct: ast.Expr, path: str, resolve, params):
    """``("equi", ((left column,), (right column,)))`` for ``a.x = b.y``, else None."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    a, b = conjunct.left, conjunct.right
    if not (isinstance(a, ast.ColumnRef) and isinstance(b, ast.ColumnRef)):
        return None
    if resolve(a)[0] == 1:
        a, b = b, a
    return ("equi", ((a.column,), (b.column,)))


def _near_pairing(conjunct: ast.Expr, path: str, resolve, params):
    """``("near", ((left ra, left dec), (right ra, right dec)), radius)``.

    For ``qserv_angSep(p.ra, p.dec, q.ra, q.dec) < | <= number`` with
    ``p`` and ``q`` on opposite sides of the join, else None; ``radius``
    is the index in ``params`` of the hole the conjunct's stage reads.
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
    first, second = resolve(call.args[0])[0], resolve(call.args[2])[0]
    if (resolve(call.args[1])[0], resolve(call.args[3])[0]) != (first, second):
        return None
    points = (call.args[0].column, call.args[1].column), (call.args[2].column, call.args[3].column)
    return ("near", (points[first], points[second]), params.index(path + ".right.value"))


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
                entry = compile_select(
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
