"""Chunk-query and merge-query generation (paper sections 5.3-5.4).

For every chunk the coverage decision selects, the czar emits a *chunk
query*: SQL text whose partitioned table references are rewritten to
the chunk's physical tables (``Object`` becomes ``LSST.Object_713``),
whose areaspec restriction is re-expressed as a worker-side UDF
restriction (``qserv_ptInSphericalBox(ra_PS, decl_PS, ...) = 1``), and
whose aggregates are replaced by two-phase partials.

Near-neighbor self-joins are emitted in *sub-chunk* form: the chunk
query carries a ``-- SUBCHUNKS: <ids>`` header line and one or two
statements per sub-chunk, pairing each sub-chunk table with itself and
with its ``FullOverlap`` companion so pairs straddling a sub-chunk
boundary are found without touching another node (section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..partition import Chunker
from ..sphgeom import Region, SphericalBox, SphericalCircle, SphericalConvexPolygon
from ..sql import ast
from ..xrd.protocol import (
    ANY_CHUNK as _ANY_CHUNK,
    ANY_SUB_CHUNK as _ANY_SUB_CHUNK,
    SUBCHUNK_HEADER_PREFIX,
    render_member,
    sub_chunk_text,
)
from .aggregation import AggregationPlan
from .analysis import QueryAnalysis, QservAnalysisError
from .metadata import CatalogMetadata

__all__ = [
    "ChunkQuerySpec",
    "generate_chunk_queries",
    "generate_merge_query",
    "merge_select",
    "chunk_table_name",
    "sub_chunk_table_name",
    "overlap_table_name",
    "SUBCHUNK_HEADER_PREFIX",
]


def chunk_table_name(table: str, chunk_id: int) -> str:
    """Physical name of a chunk table on a worker: ``Object_713``."""
    return f"{table}_{chunk_id}"


def sub_chunk_table_name(table: str, chunk_id: int, sub_chunk_id: int) -> str:
    """On-the-fly sub-chunk table: ``Object_713_45``."""
    return f"{table}_{chunk_id}_{sub_chunk_id}"


def overlap_table_name(table: str, chunk_id: int, sub_chunk_id: int | None = None) -> str:
    """Overlap companion tables: ``ObjectFullOverlap_713[_45]``."""
    base = f"{table}FullOverlap_{chunk_id}"
    if sub_chunk_id is None:
        return base
    return f"{base}_{sub_chunk_id}"


@dataclass(frozen=True)
class ChunkQuerySpec:
    """One dispatchable chunk query."""

    chunk_id: int
    #: Full chunk-query text: optional SUBCHUNKS header + statements.
    text: str
    #: Sub-chunk ids the worker must materialize first (empty if none).
    sub_chunk_ids: tuple[int, ...] = ()
    #: The template ``text`` renders from (:func:`render_member`), which
    #: the query's other chunk queries share; None for a text rendered in
    #: full, which travels alone.
    template: Optional[str] = None


def generate_chunk_queries(
    analysis: QueryAnalysis,
    plan: AggregationPlan,
    metadata: CatalogMetadata,
    chunker: Chunker,
    chunk_ids,
) -> list[ChunkQuerySpec]:
    """Emit one chunk query per id in ``chunk_ids``.

    Chunks that provably contribute nothing are skipped: a sub-chunked
    query whose region intersects no sub-chunk of the chunk (possible
    because coarse coverage is conservative) has an empty result.
    """
    chunk_ids = [int(cid) for cid in chunk_ids]
    if not chunk_ids:
        return []
    sel = analysis.select
    where = _chunk_where(analysis, metadata)
    # ORDER BY / LIMIT pushdown is only safe per-statement for plain
    # (non-aggregating) queries; the merge phase re-applies both.
    push_order = sel.order_by if plan.passthrough else ()
    push_limit = sel.limit if plan.passthrough else None
    # Pushing a LIMIT below an OFFSET needs limit+offset rows per chunk.
    if push_limit is not None and sel.offset:
        push_limit = sel.limit + sel.offset
    # What every statement of every chunk shares; only the physical
    # tables behind its refs vary.
    stmt = ast.Select(
        items=plan.chunk_items,
        tables=sel.tables,
        where=where,
        group_by=sel.group_by,
        order_by=push_order,
        limit=push_limit,
    )
    if not analysis.needs_subchunks:
        return _chunk_statements(analysis, metadata, stmt, chunk_ids)
    return _sub_chunk_statements(analysis, metadata, chunker, stmt, chunk_ids)


def _region_restriction(region: Region, ra_col: ast.ColumnRef, dec_col: ast.ColumnRef) -> ast.Expr:
    """The worker-side UDF restriction equivalent to an areaspec call."""
    if isinstance(region, SphericalBox):
        call = ast.FuncCall(
            "qserv_ptInSphericalBox",
            (
                ra_col,
                dec_col,
                ast.Literal(region.ra_min),
                ast.Literal(region.dec_min),
                ast.Literal(region.ra_max if not region.wraps else region.ra_max + 360.0),
                ast.Literal(region.dec_max),
            ),
        )
    elif isinstance(region, SphericalCircle):
        call = ast.FuncCall(
            "qserv_ptInSphericalCircle",
            (
                ra_col,
                dec_col,
                ast.Literal(region.ra),
                ast.Literal(region.dec),
                ast.Literal(region.radius),
            ),
        )
    elif isinstance(region, SphericalConvexPolygon):
        flat: list[ast.Expr] = [ra_col, dec_col]
        for vr, vd in region.vertices:
            flat.append(ast.Literal(vr))
            flat.append(ast.Literal(vd))
        call = ast.FuncCall("qserv_ptInSphericalPoly", tuple(flat))
    else:
        raise QservAnalysisError(f"unsupported region type {type(region).__name__}")
    return ast.BinaryOp("=", call, ast.Literal(1))


def _chunk_where(analysis: QueryAnalysis, metadata: CatalogMetadata) -> ast.Expr | None:
    """Residual WHERE plus the per-chunk spatial restriction."""
    where = analysis.residual_where
    if analysis.region is not None and analysis.partitioned_refs:
        # Restrict the first partitioned reference (the director side of
        # a join); equi-joined rows inherit the restriction.
        ref = analysis.partitioned_refs[0]
        info = metadata.info(ref.table)
        restriction = _region_restriction(
            analysis.region,
            ast.ColumnRef(column=info.ra_column, table=ref.name),
            ast.ColumnRef(column=info.dec_column, table=ref.name),
        )
        where = restriction if where is None else ast.BinaryOp("AND", where, restriction)
    return where


def _over(stmt: ast.Select, metadata: CatalogMetadata, physical) -> ast.Select:
    """``stmt`` with each partitioned ref over the worker table ``physical(ref)``.

    The binding name (alias) is always pinned to the original name so
    column qualifications like ``Object.ra_PS`` keep resolving;
    unpartitioned refs stay as they are.
    """
    return replace(
        stmt,
        tables=tuple(
            [
                ast.TableRef(table=physical(ref), database=metadata.database, alias=ref.name)
                if metadata.is_partitioned(ref.table)
                else ref
                for ref in stmt.tables
            ]
        ),
    )


def _chunk_statements(
    analysis: QueryAnalysis,
    metadata: CatalogMetadata,
    stmt: ast.Select,
    chunk_ids: list[int],
) -> list[ChunkQuerySpec]:
    """One statement per chunk: ``stmt`` over that chunk's tables.

    The statements differ only in the chunk id inside their table
    names, so the text is rendered once, for a chunk id nobody uses:
    that is the template each chunk's text is rendered from.
    """

    def render(chunk_id: int) -> str:
        chunk = _over(stmt, metadata, lambda ref: chunk_table_name(ref.table, chunk_id))
        return chunk.to_sql() + ";"

    template = render(_ANY_CHUNK)
    if template.count(f"_{_ANY_CHUNK}") != len(analysis.partitioned_refs):
        # The stand-in also occurs elsewhere (a literal of the query):
        # render every chunk in full.
        return [ChunkQuerySpec(chunk_id=cid, text=render(cid)) for cid in chunk_ids]
    return [
        ChunkQuerySpec(chunk_id=cid, text=render_member(template, cid), template=template)
        for cid in chunk_ids
    ]


def _sub_chunk_statements(
    analysis: QueryAnalysis,
    metadata: CatalogMetadata,
    chunker: Chunker,
    stmt: ast.Select,
    chunk_ids: list[int],
) -> list[ChunkQuerySpec]:
    """The sub-chunk (near-neighbor) form of ``stmt``, per chunk.

    The first two director refs name a sub-chunk table and its own or
    its overlap companion; every other partitioned ref names the chunk
    table.  A chunk whose sub-chunks the region misses (coarse coverage
    is conservative) has no chunk query.
    """
    director_refs = [
        r
        for r in analysis.partitioned_refs
        if metadata.info(r.table).is_director
    ]
    if len(director_refs) < 2:
        raise QservAnalysisError("sub-chunk execution requires a director self-join")
    inner_ref, outer_ref = director_refs[0], director_refs[1]
    table = inner_ref.table

    def render(chunk_id: int, scid: int) -> str:
        """The self pair and the overlap pair of one sub-chunk."""
        def statement(outer_name) -> str:
            def physical(ref: ast.TableRef) -> str:
                if ref is inner_ref:
                    return sub_chunk_table_name(table, chunk_id, scid)
                if ref is outer_ref:
                    return outer_name(table, chunk_id, scid)
                return chunk_table_name(ref.table, chunk_id)

            return _over(stmt, metadata, physical).to_sql() + ";"

        return "\n".join(map(statement, (sub_chunk_table_name, overlap_table_name)))

    # The statements differ only in the chunk and sub-chunk ids inside
    # their table names, so the pair is rendered once, for ids nobody
    # uses: that is the template every chunk's text is rendered from.
    template = render(_ANY_CHUNK, _ANY_SUB_CHUNK)
    if (
        template.count(f"_{_ANY_CHUNK}") != 2 * len(analysis.partitioned_refs)
        or template.count(f"_{_ANY_SUB_CHUNK}") != 4
    ):
        template = None  # a stand-in is in a literal too: render in full
    specs = []
    for cid in chunk_ids:
        if analysis.region is not None:
            scids = chunker.sub_chunks_intersecting(cid, analysis.region)
        else:
            scids = chunker.sub_chunks_of(cid)
        scids = tuple(int(s) for s in scids)
        if not scids:
            continue
        if template is None:
            text = sub_chunk_text(scids, [render(cid, scid) for scid in scids])
        else:
            text = render_member(template, cid, scids)
        specs.append(ChunkQuerySpec(cid, text, scids, template))
    return specs


def generate_merge_query(
    plan: AggregationPlan, select: ast.Select, merge_table: str
) -> str:
    """The final query the czar runs on its merge table, as text."""
    return merge_select(plan, select, merge_table).to_sql()


def merge_select(
    plan: AggregationPlan, select: ast.Select, merge_table: str
) -> ast.Select:
    """The final query the czar runs on its merge table."""
    order_items = tuple(
        ast.OrderItem(_merge_order_expr(o.expr, plan, select), o.descending)
        for o in select.order_by
    )
    return ast.Select(
        items=plan.merge_items,
        tables=(ast.TableRef(table=merge_table),),
        where=None,
        group_by=plan.merge_group_by,
        having=plan.merge_having,
        order_by=order_items,
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )


def _merge_order_expr(expr: ast.Expr, plan: AggregationPlan, select: ast.Select) -> ast.Expr:
    """Map an ORDER BY expression into the merge-table context.

    Positional and output-name references survive unchanged; a plain
    column reference is kept (it resolves against chunk output columns
    for pass-through queries and group keys for aggregates).  Anything
    else is kept verbatim and will fail loudly at merge time if the
    merge table cannot satisfy it.
    """
    if isinstance(expr, ast.ColumnRef) and expr.table is not None:
        # Qualifications refer to user tables that no longer exist at
        # merge time; strip them (the merge table is a single relation).
        return ast.ColumnRef(column=expr.column)
    return expr
