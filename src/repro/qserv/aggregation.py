"""Two-phase aggregation planning (paper section 5.3).

A user aggregate must be split into a per-chunk *partial* and a
merge-side *combiner*:

=========  =========================  =====================================
user       chunk query emits           merge query computes
=========  =========================  =====================================
COUNT(*)   ``COUNT(*)``                ``SUM(`COUNT(*)`)``
COUNT(x)   ``COUNT(x)``                ``SUM(`COUNT(x)`)``
SUM(x)     ``SUM(x)``                  ``SUM(`SUM(x)`)``
MIN(x)     ``MIN(x)``                  ``MIN(`MIN(x)`)``
MAX(x)     ``MAX(x)``                  ``MAX(`MAX(x)`)``
AVG(x)     ``SUM(x)`` and ``COUNT(x)`` ``SUM(`SUM(x)`) / SUM(`COUNT(x)`)``
=========  =========================  =====================================

The merge query runs on the czar's merge table whose column names are
the chunk queries' output names -- hence the backticked identifiers,
exactly as in the paper's ``AVG(uFlux_SG)`` example.  ``COUNT(DISTINCT
x)`` is not distributive and is rejected (as in the prototype).

Select items may be arbitrary expressions over aggregates (e.g.
``SUM(a)/COUNT(b)``): the plan emits each distinct aggregate once and
rewrites the merge-side expression around the combined columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sql import ast
from ..sql.expr_eval import contains_aggregate

__all__ = ["AggregationPlan", "build_aggregation_plan", "AggregationError"]


class AggregationError(ValueError):
    """An aggregate that cannot be computed in two phases."""


@dataclass
class AggregationPlan:
    """Chunk-side and merge-side select lists for one user query."""

    #: Select items the chunk queries emit (partials plus group keys).
    chunk_items: tuple[ast.SelectItem, ...]
    #: Select items of the merge query (combiners re-aliased to the
    #: user's output names).
    merge_items: tuple[ast.SelectItem, ...]
    #: Merge-side GROUP BY expressions (refs to chunk output columns).
    merge_group_by: tuple[ast.Expr, ...]
    #: Merge-side HAVING with aggregates rewritten to combiners.
    merge_having: ast.Expr | None = None
    #: True when the query has no aggregates/grouping at all (the merge
    #: phase is then a plain pass-through).
    passthrough: bool = False


def build_aggregation_plan(select: ast.Select) -> AggregationPlan:
    """Derive the two-phase plan for ``select``."""
    has_aggs = any(contains_aggregate(i.expr) for i in select.items) or (
        select.having is not None and contains_aggregate(select.having)
    )
    if not has_aggs and not select.group_by:
        # Pass-through: chunk items are the user's items (with output
        # names pinned so the merge table's columns are predictable).
        # A star stays a star at both levels: the merge table's columns
        # are exactly the chunk results' expanded columns.
        chunk_items = tuple(
            ast.SelectItem(i.expr, i.alias or None) for i in select.items
        )
        merge_items = tuple(
            ast.SelectItem(ast.Star(), None)
            if isinstance(i.expr, ast.Star)
            else ast.SelectItem(ast.ColumnRef(column=i.output_name()), i.alias)
            for i in select.items
        )
        return AggregationPlan(
            chunk_items=chunk_items,
            merge_items=merge_items,
            merge_group_by=(),
            passthrough=True,
        )

    collector = _PartialCollector()

    merge_items: list[ast.SelectItem] = []
    for item in select.items:
        if contains_aggregate(item.expr):
            merged = _merge_side(item.expr, collector)
            merge_items.append(ast.SelectItem(merged, item.output_name()))
        else:
            # A group key: pass it through the chunk query under its
            # output name and reference that column at merge time.
            name = item.output_name()
            collector.add_passthrough(item.expr, name)
            merge_items.append(
                ast.SelectItem(ast.ColumnRef(column=name), item.alias)
            )

    # Group keys that are not in the select list still must flow through
    # the chunk results for the merge-side GROUP BY to see them.
    merge_group_by: list[ast.Expr] = []
    for gexpr in select.group_by:
        name = collector.passthrough_name(gexpr)
        if name is None:
            name = collector.add_passthrough(gexpr, f"_gk{len(collector.items)}")
        merge_group_by.append(ast.ColumnRef(column=name))

    merge_having = None
    if select.having is not None:
        merge_having = _merge_side(select.having, collector)

    return AggregationPlan(
        chunk_items=tuple(collector.items),
        merge_items=tuple(merge_items),
        merge_group_by=tuple(merge_group_by),
        merge_having=merge_having,
        passthrough=False,
    )


class _PartialCollector:
    """Accumulates chunk-side select items, deduplicating partials."""

    def __init__(self):
        self.items: list[ast.SelectItem] = []
        self._by_sql: dict[str, str] = {}  # chunk expr SQL -> output name

    def _emit(self, expr: ast.Expr, name: str) -> str:
        key = expr.to_sql()
        if key in self._by_sql:
            return self._by_sql[key]
        # Skip the alias when it is already the expression's natural
        # output name (e.g. a plain group-key column).
        natural = isinstance(expr, ast.ColumnRef) and expr.column == name
        self.items.append(ast.SelectItem(expr, None if natural else name))
        self._by_sql[key] = name
        return name

    def add_passthrough(self, expr: ast.Expr, name: str) -> str:
        return self._emit(expr, name)

    def passthrough_name(self, expr: ast.Expr) -> str | None:
        return self._by_sql.get(expr.to_sql())

    def _combine(self, agg: ast.FuncCall) -> ast.Expr:
        name = agg.name.upper()
        # Canonicalize the function name so 'count(*)' and 'COUNT(*)'
        # share one partial column.
        agg = ast.FuncCall(name, agg.args, agg.distinct)
        if agg.distinct:
            raise AggregationError(
                f"{name}(DISTINCT ...) cannot be merged across chunks"
            )
        if name == "AVG":
            arg_sql = agg.args[0].to_sql()
            sum_col = self._emit(
                ast.FuncCall("SUM", agg.args), f"SUM({arg_sql})"
            )
            count_col = self._emit(
                ast.FuncCall("COUNT", agg.args), f"COUNT({arg_sql})"
            )
            return ast.BinaryOp(
                "/",
                ast.FuncCall("SUM", (ast.ColumnRef(column=sum_col),)),
                ast.FuncCall("SUM", (ast.ColumnRef(column=count_col),)),
            )
        if name in ("COUNT", "SUM"):
            col = self._emit(agg, agg.to_sql())
            return ast.FuncCall("SUM", (ast.ColumnRef(column=col),))
        if name in ("MIN", "MAX"):
            col = self._emit(agg, agg.to_sql())
            return ast.FuncCall(name, (ast.ColumnRef(column=col),))
        raise AggregationError(f"unsupported aggregate {name}")


def _merge_side(expr: ast.Expr, collector: _PartialCollector) -> ast.Expr:
    """Merge-side version of ``expr``: aggregates become combiners."""
    if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
        return collector._combine(expr)
    return expr.map(_merge_side, collector)
