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

from ..partition import Chunker
from ..sphgeom import Region, SphericalBox, SphericalCircle, SphericalConvexPolygon
from ..sql import ast
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

SUBCHUNK_HEADER_PREFIX = "-- SUBCHUNKS:"


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
    # What every statement of every chunk shares; FROM tables vary.
    stmt = ast.Select(
        items=plan.chunk_items,
        where=where,
        group_by=sel.group_by,
        order_by=push_order,
        limit=push_limit,
    )
    if not analysis.needs_subchunks:
        return _chunk_statements(analysis, metadata, stmt, chunk_ids)
    specs = []
    for cid in chunk_ids:
        spec = _sub_chunk_statements(analysis, metadata, chunker, stmt, cid)
        if spec is not None:
            specs.append(spec)
    return specs


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


def _rewrite_ref(
    ref: ast.TableRef, metadata: CatalogMetadata, physical: str
) -> ast.TableRef:
    """A table ref pointing at a physical worker table, alias preserved.

    The binding name (alias) is always pinned to the original name so
    column qualifications like ``Object.ra_PS`` keep resolving.
    """
    return ast.TableRef(table=physical, database=metadata.database, alias=ref.name)


# Stand in for the chunk id and the sub-chunk id while a statement is
# rendered once for all of them; no catalog has this many.
_ANY_CHUNK = 10**18 + 713
_ANY_SUB_CHUNK = 10**18 + 45


def _chunk_statements(
    analysis: QueryAnalysis,
    metadata: CatalogMetadata,
    stmt: ast.Select,
    chunk_ids: list[int],
) -> list[ChunkQuerySpec]:
    """One statement per chunk: ``stmt`` over that chunk's tables.

    The statements differ only in the chunk id inside their table
    names, so the text is rendered once, for a chunk id nobody uses, and
    each chunk's text is that with its own id substituted.
    """
    sel = analysis.select

    def over(chunk_id: int) -> ast.Select:
        def rewrite(ref: ast.TableRef) -> ast.TableRef:
            if metadata.is_partitioned(ref.table):
                return _rewrite_ref(
                    ref, metadata, chunk_table_name(ref.table, chunk_id)
                )
            return ref

        return replace(
            stmt,
            tables=tuple(rewrite(r) for r in sel.tables),
            joins=tuple(
                ast.JoinClause(j.kind, rewrite(j.table), j.on) for j in sel.joins
            ),
        )

    pieces = (over(_ANY_CHUNK).to_sql() + ";").split(f"_{_ANY_CHUNK}")
    if len(pieces) - 1 != len(analysis.partitioned_refs):
        # The stand-in also occurs elsewhere (a literal of the query):
        # render every chunk in full.
        return [
            ChunkQuerySpec(chunk_id=cid, text=over(cid).to_sql() + ";")
            for cid in chunk_ids
        ]
    return [
        ChunkQuerySpec(chunk_id=cid, text=f"_{cid}".join(pieces)) for cid in chunk_ids
    ]


def _sub_chunk_statements(
    analysis: QueryAnalysis,
    metadata: CatalogMetadata,
    chunker: Chunker,
    stmt: ast.Select,
    chunk_id: int,
) -> ChunkQuerySpec | None:
    """The sub-chunk (near-neighbor) form of ``stmt`` for one chunk."""
    sel = analysis.select
    director_refs = [
        r
        for r in analysis.partitioned_refs
        if metadata.info(r.table).is_director
    ]
    if len(director_refs) < 2:
        raise QservAnalysisError("sub-chunk execution requires a director self-join")
    inner_ref, outer_ref = director_refs[0], director_refs[1]
    table = inner_ref.table

    if analysis.region is not None:
        scids = chunker.sub_chunks_intersecting(chunk_id, analysis.region)
        if len(scids) == 0:
            return None  # conservative coarse coverage; nothing here
    else:
        scids = chunker.sub_chunks_of(chunk_id)

    other_refs = [
        r
        for r in list(sel.tables) + [j.table for j in sel.joins]
        if r is not inner_ref and r is not outer_ref
    ]
    others = [
        _rewrite_ref(r, metadata, chunk_table_name(r.table, chunk_id))
        if metadata.is_partitioned(r.table)
        else r
        for r in other_refs
    ]

    def over(scid: int, outer_name) -> str:
        tables = (
            _rewrite_ref(inner_ref, metadata, sub_chunk_table_name(table, chunk_id, scid)),
            _rewrite_ref(outer_ref, metadata, outer_name(table, chunk_id, scid)),
            *others,
        )
        return replace(stmt, tables=tables).to_sql() + ";"

    # The statements of one kind (self pair, overlap pair) differ only
    # in the sub-chunk id inside their two table names, so each kind is
    # rendered once, for a sub-chunk id nobody uses, and every
    # sub-chunk's text is that with its own id substituted.
    statements: list[list[str]] = []
    for outer_name in (sub_chunk_table_name, overlap_table_name):
        pieces = over(_ANY_SUB_CHUNK, outer_name).split(f"_{_ANY_SUB_CHUNK}")
        if len(pieces) == 3:
            statements.append([f"_{int(scid)}".join(pieces) for scid in scids])
        else:
            # The stand-in also occurs elsewhere (a literal of the
            # query): render every sub-chunk in full.
            statements.append([over(int(scid), outer_name) for scid in scids])

    header = f"{SUBCHUNK_HEADER_PREFIX} {', '.join(str(int(s)) for s in scids)}"
    text = header + "\n" + "\n".join(
        text for pair in zip(*statements) for text in pair
    )
    return ChunkQuerySpec(
        chunk_id=chunk_id,
        text=text,
        sub_chunk_ids=tuple(int(s) for s in scids),
    )


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
