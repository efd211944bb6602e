"""Query analysis: what the czar learns from parsing a user query.

Paper section 5.3 lists the jobs of query parsing; each maps to a field
of :class:`QueryAnalysis`:

- *Detect spatial restrictions* -- a top-level ``qserv_areaspec_box`` /
  ``qserv_areaspec_circle`` conjunct becomes a
  :class:`~repro.sphgeom.region.Region` (``region``) and is removed
  from the residual WHERE clause (it is re-expressed per chunk as a
  ``qserv_ptInSphericalBox(...) = 1`` restriction during rewriting).
- *Detect index opportunities* -- equality or IN restrictions on the
  secondary-index column (``objectId``) are collected so dispatch can
  consult the secondary index instead of going full-sky.
- *Detect database and table references* -- every FROM reference is
  classified as partitioned or unpartitioned using the catalog
  metadata.  A ``JOIN ... ON`` is the comma join the parser makes of
  it, so its tables are FROM tables and its ON conditions WHERE
  conjuncts (an areaspec among them included); an outer join is a
  parse error.
- *Detect aliases and joins* -- self-joins of the director table with a
  spatial predicate are flagged ``needs_subchunks`` (near-neighbor
  queries execute over sub-chunk + overlap tables).
- *Preparation for results merging* -- aggregate detection feeds the
  two-phase aggregation plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..sphgeom import Region, SphericalBox, SphericalCircle, SphericalConvexPolygon
from ..sql import ast
from ..sql.expr_eval import contains_aggregate
from ..sql.parser import ParseError, parse_one
from .metadata import CatalogMetadata

__all__ = ["QueryAnalysis", "analyze", "QservAnalysisError"]

_AREASPEC_FUNCS = {
    "QSERV_AREASPEC_BOX",
    "QSERV_AREASPEC_CIRCLE",
    "QSERV_AREASPEC_POLY",
}


class QservAnalysisError(ValueError):
    """The query is valid SQL but outside what Qserv can execute."""


@dataclass
class QueryAnalysis:
    """Everything the czar needs to plan a user query."""

    select: ast.Select
    #: Spatial restriction extracted from the WHERE clause, if any.
    region: Optional[Region] = None
    #: WHERE clause with the areaspec pseudo-function removed.
    residual_where: Optional[ast.Expr] = None
    #: FROM refs to partitioned tables (in appearance order).
    partitioned_refs: list[ast.TableRef] = field(default_factory=list)
    #: FROM refs to unpartitioned (replicated) tables.
    unpartitioned_refs: list[ast.TableRef] = field(default_factory=list)
    #: Values of secondary-index restrictions (objectId = k / IN (...)).
    index_values: list[int] = field(default_factory=list)
    #: Self-join of the director table needing sub-chunk execution.
    needs_subchunks: bool = False
    #: Any aggregate function in the select list / HAVING / ORDER BY.
    has_aggregates: bool = False

    @property
    def is_spatially_restricted(self) -> bool:
        return self.region is not None

    @property
    def has_index_restriction(self) -> bool:
        return bool(self.index_values)

    @property
    def is_full_sky(self) -> bool:
        """Dispatch must cover every chunk (paper: the default)."""
        return not self.is_spatially_restricted and not self.has_index_restriction


def analyze(query: Union[str, ast.Select], metadata: CatalogMetadata) -> QueryAnalysis:
    """Analyze a user query against the catalog metadata."""
    if isinstance(query, str):
        try:
            stmt = parse_one(query)
        except ParseError as e:
            raise QservAnalysisError(f"parse error: {e}") from e
        if not isinstance(stmt, ast.Select):
            raise QservAnalysisError("only SELECT statements can be dispatched")
        select = stmt
    else:
        select = query

    analysis = QueryAnalysis(select=select)

    # -- table references --------------------------------------------------------
    if not select.tables:
        raise QservAnalysisError("query has no FROM clause")
    for ref in select.tables:
        if ref.database is not None and ref.database != metadata.database:
            raise QservAnalysisError(
                f"unknown database {ref.database!r} (expected {metadata.database!r})"
            )
        if metadata.is_partitioned(ref.table):
            analysis.partitioned_refs.append(ref)
        else:
            analysis.unpartitioned_refs.append(ref)

    # -- spatial restriction --------------------------------------------------------
    conjuncts = ast.split_conjuncts(select.where)
    _reject_nested_areaspec(select, top_level=conjuncts)
    residual: list[ast.Expr] = []
    for c in conjuncts:
        region = _as_areaspec(c)
        if region is not None:
            if analysis.region is not None:
                raise QservAnalysisError("multiple qserv_areaspec_* restrictions")
            analysis.region = region
        else:
            residual.append(c)
    analysis.residual_where = ast.join_conjuncts(residual)

    # -- secondary-index opportunity ----------------------------------------------------
    index_cols = {}
    for ref in analysis.partitioned_refs:
        info = metadata.info(ref.table)
        if info.index_column:
            index_cols[ref.name] = info.index_column
    if index_cols and analysis.region is None:
        analysis.index_values = _find_index_values(residual, index_cols)

    # -- join shape ------------------------------------------------------------------------
    director_tables = [
        ref.table
        for ref in analysis.partitioned_refs
        if metadata.info(ref.table).is_director
    ]
    if len(director_tables) != len(set(director_tables)):
        # Same director table referenced more than once: a spatial
        # self-join; correctness requires sub-chunks plus overlap.
        analysis.needs_subchunks = True

    # -- aggregates -------------------------------------------------------------------------
    analysis.has_aggregates = any(
        contains_aggregate(item.expr) for item in select.items
    ) or (select.having is not None and contains_aggregate(select.having))
    if select.group_by:
        analysis.has_aggregates = True

    return analysis


# -- helpers ---------------------------------------------------------------------------


def _literal_value(expr: ast.Expr) -> Optional[float]:
    """The numeric value of a literal or negated literal, else None."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, (int, float)):
        return float(expr.value)
    if (
        isinstance(expr, ast.UnaryOp)
        and expr.op == "-"
        and isinstance(expr.operand, ast.Literal)
        and isinstance(expr.operand.value, (int, float))
    ):
        return -float(expr.operand.value)
    return None


def _as_areaspec(expr: ast.Expr) -> Optional[Region]:
    """Interpret a conjunct as an areaspec pseudo-function, if it is one."""
    if not isinstance(expr, ast.FuncCall):
        return None
    name = expr.name.upper()
    if name not in _AREASPEC_FUNCS:
        return None
    args = [_literal_value(a) for a in expr.args]
    if any(a is None for a in args):
        raise QservAnalysisError(
            f"{expr.name} requires numeric literal arguments, got {expr.to_sql()}"
        )
    if name == "QSERV_AREASPEC_BOX":
        if len(args) != 4:
            raise QservAnalysisError(
                f"qserv_areaspec_box takes 4 arguments, got {len(args)}"
            )
        ra_min, dec_min, ra_max, dec_max = args
        # Tolerate swapped declination bounds (the paper's SHV1 writes
        # box(-5,-5,5,-5), a zero-height box only if read literally).
        if dec_min > dec_max:
            dec_min, dec_max = dec_max, dec_min
        return SphericalBox(ra_min, dec_min, ra_max, dec_max)
    if name == "QSERV_AREASPEC_CIRCLE":
        if len(args) != 3:
            raise QservAnalysisError(
                f"qserv_areaspec_circle takes 3 arguments, got {len(args)}"
            )
        ra, dec, radius = args
        return SphericalCircle(ra, dec, radius)
    # QSERV_AREASPEC_POLY: flat (ra, dec) vertex pairs.
    if len(args) < 6 or len(args) % 2 != 0:
        raise QservAnalysisError(
            "qserv_areaspec_poly takes >= 3 (ra, dec) vertex pairs"
        )
    vertices = [(args[i], args[i + 1]) for i in range(0, len(args), 2)]
    try:
        return SphericalConvexPolygon(vertices)
    except ValueError as e:
        raise QservAnalysisError(f"qserv_areaspec_poly: {e}") from e


def _reject_nested_areaspec(select: ast.Select, top_level: list[ast.Expr]):
    """Areaspec functions anywhere except as top-level WHERE conjuncts are errors.

    An areaspec under OR/NOT cannot be honored by restricting dispatch
    (it would silently widen or narrow results), and one in another
    clause would reach a worker or the merge, which know no such
    function; so it is rejected -- matching Qserv, which requires
    areaspec restrictions up front.
    """
    top = set(map(id, top_level))
    for clause, expr in select.clauses():
        for e in expr.walk():
            if not (isinstance(e, ast.FuncCall) and e.name.upper() in _AREASPEC_FUNCS):
                continue
            if clause != "WHERE" or id(e) not in top:
                place = "nested in WHERE" if clause == "WHERE" else f"in {clause}"
                raise QservAnalysisError(
                    f"qserv_areaspec_* must be a top-level AND conjunct of WHERE, "
                    f"found {place}"
                )


def _find_index_values(conjuncts: list[ast.Expr], index_cols: dict[str, str]) -> list[int]:
    """Secondary-index values from equality / IN conjuncts.

    ``index_cols`` maps binding names (alias or table) to their index
    column.  Unqualified references match when every partitioned ref
    shares the same index column name (the common case: objectId).
    """
    col_names = set(index_cols.values())

    def is_index_ref(e: ast.Expr) -> bool:
        if not isinstance(e, ast.ColumnRef):
            return False
        if e.table is not None:
            return index_cols.get(e.table) == e.column
        return e.column in col_names

    values: list[int] = []
    for c in conjuncts:
        if isinstance(c, ast.BinaryOp) and c.op == "=":
            for ref, lit in ((c.left, c.right), (c.right, c.left)):
                v = _literal_value(lit)
                if is_index_ref(ref) and v is not None:
                    values.append(int(v))
        elif isinstance(c, ast.InList) and not c.negated and is_index_ref(c.value):
            vals = [_literal_value(i) for i in c.items]
            if all(v is not None for v in vals):
                values.extend(int(v) for v in vals)
    return values
