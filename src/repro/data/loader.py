"""Partition-aware data loading.

Splits logical tables into per-chunk physical tables on worker
databases (``Object_713``), fills the ``chunkId``/``subChunkId``
bookkeeping columns, builds the ``FullOverlap`` companion tables for
director tables (rows within the overlap radius outside each sub-chunk,
tagged with the sub-chunk they pad -- section 4.4), replicates chunks
according to the placement, and populates the objectId secondary index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..partition import Chunker, Placement
from ..partition.dec_index import DecIndex
from ..sql import Database, Table
from ..sql.wire import encode_table_parts
from ..qserv.metadata import CatalogMetadata
from ..qserv.rewrite import chunk_table_name, overlap_table_name
from ..qserv.secondary_index import SecondaryIndex

__all__ = ["assign_rows", "load_tables", "LoadReport", "RowAssignment"]


@dataclass
class LoadReport:
    """What the loader actually did."""

    chunks_loaded: dict[str, int] = field(default_factory=dict)
    rows_loaded: dict[str, int] = field(default_factory=dict)
    overlap_rows: dict[str, int] = field(default_factory=dict)
    empty_chunks: dict[str, int] = field(default_factory=dict)


class RowAssignment:
    """A table's rows partitioned: each row's ids, and the rows of each chunk.

    ``chunk_ids`` / ``sub_chunk_ids`` hold one entry per row; ``chunks``
    is the ascending set of chunk ids with rows, and :meth:`rows_of`
    the ascending rows of one chunk.  Built by :func:`assign_rows`.
    """

    def __init__(self, chunk_ids: np.ndarray, sub_chunk_ids: np.ndarray):
        self.chunk_ids = chunk_ids
        self.sub_chunk_ids = sub_chunk_ids
        # One stable sort groups the rows, each chunk's in ascending order.
        order = np.argsort(chunk_ids, kind="stable")
        starts = np.flatnonzero(np.diff(chunk_ids[order])) + 1
        self.chunks = chunk_ids[order[np.concatenate([[0], starts])]] if len(order) else chunk_ids
        self._groups = dict(zip(self.chunks.tolist(), np.split(order, starts)))

    def rows_of(self, chunk_id: int) -> np.ndarray:
        return self._groups.get(int(chunk_id), np.empty(0, dtype=np.int64))


def assign_rows(chunker, table: Table, ra_column: str, dec_column: str) -> RowAssignment:
    """The one assignment pass over a table: see :class:`RowAssignment`."""
    if not table.num_rows:
        return RowAssignment(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    return RowAssignment(*chunker.assign(table.column(ra_column), table.column(dec_column)))


def load_tables(
    tables: dict[str, Table],
    metadata: CatalogMetadata,
    chunker: Chunker,
    placement: Placement,
    worker_dbs: dict[str, Database],
    secondary_index: SecondaryIndex | None = None,
    checksums=None,
    stores=None,
    assignments=None,
) -> LoadReport:
    """Partition ``tables`` onto ``worker_dbs`` according to ``placement``.

    Every chunk id in the placement receives a physical table on each
    of its replica nodes -- empty where the logical table has no rows
    there, so any dispatched chunk query finds its tables.

    ``assignments`` optionally maps a partitioned table's name to its
    :class:`RowAssignment`, for a caller that already made that pass (to
    choose the placement); the loader makes it for the tables it is not
    given.  Each entry is taken out of the dict as its table is loaded,
    so it is freed with that table; the entries of tables loaded later
    stay alive until then.

    ``checksums`` (a :class:`repro.xrd.repair.ChunkChecksums`) records
    the reference digest of every chunk table as it is installed --
    replicas are byte-identical in the wire encoding, so ingest is the
    one moment the ground truth is known for free.  The integrity
    scrubber verifies replicas against these for the catalog's lifetime.

    ``stores`` optionally maps node name to a
    :class:`~repro.sql.colstore.ColumnStore`; tables landing on those
    nodes are persisted to disk and installed as mmap-backed tables, so
    a node's hosted data is bounded by its residency budget, not RAM.
    """
    report = LoadReport()
    stores = stores or {}
    assignments = {} if assignments is None else assignments
    for name, table in tables.items():
        if not metadata.is_partitioned(name):
            # Unpartitioned tables are replicated whole to every node.
            for node, db in worker_dbs.items():
                _install(db, stores.get(node), table.rename(name))
            report.rows_loaded[name] = table.num_rows * len(worker_dbs)
            continue
        info = metadata.info(name)
        assignment = assignments.pop(name, None)
        if assignment is None:
            assignment = assign_rows(chunker, table, info.ra_column, info.dec_column)
        _load_partitioned(
            name, table, assignment, metadata, chunker, placement, worker_dbs,
            report, secondary_index, checksums, stores,
        )
    return report


def _install(db: Database, store, table: Table) -> None:
    """Register ``table`` on ``db``, through the node's store if it has one."""
    if store is not None:
        table = store.save_table(table, table.name)
    db.create_table(table, overwrite=True)


def _load_partitioned(
    name: str,
    table: Table,
    assignment: RowAssignment,
    metadata: CatalogMetadata,
    chunker: Chunker,
    placement: Placement,
    worker_dbs: dict[str, Database],
    report: LoadReport,
    secondary_index: SecondaryIndex | None,
    checksums=None,
    stores=None,
) -> None:
    stores = stores or {}
    info = metadata.info(name)
    cids, scids = assignment.chunk_ids, assignment.sub_chunk_ids

    # Fill bookkeeping columns on a working copy of the column dict.
    cols = dict(table.columns())
    if "chunkId" in cols:
        cols["chunkId"] = cids
    if "subChunkId" in cols:
        cols["subChunkId"] = scids
    full = Table(name, cols)

    # Secondary index entries come from the director table.
    if secondary_index is not None and info.is_director and info.index_column:
        secondary_index.add_entries(table.column(info.index_column), cids, scids)

    # One declination-sorted index serves every chunk's overlap call.
    index = None
    if info.is_director:
        index = DecIndex(
            table.column(info.ra_column), table.column(info.dec_column), cids, scids
        )

    chunks = placement.chunk_ids
    loaded = empty = total_rows = total_overlap = 0
    for cid in chunks:
        rows = assignment.rows_of(cid)
        chunk_table = full.select_rows(rows).rename(chunk_table_name(name, cid))
        overlap_table = None
        if index is not None:
            overlap_table = _build_overlap(name, full, index, chunker, cid)
            total_overlap += overlap_table.num_rows
        if checksums is not None:
            # One digest per table name covers every replica: the wire
            # encoding is a pure function of (name, columns, rows).
            for installed in (chunk_table, overlap_table):
                if installed is not None:
                    checksums.record(installed.name, _wire_digest(installed))
        for node in placement.replicas(cid):
            db = worker_dbs[node]
            store = stores.get(node)
            _install(db, store, chunk_table.rename(chunk_table.name))
            if overlap_table is not None:
                _install(db, store, overlap_table.rename(overlap_table.name))
        loaded += 1
        total_rows += len(rows)
        if len(rows) == 0:
            empty += 1

    report.chunks_loaded[name] = loaded
    report.rows_loaded[name] = total_rows
    report.empty_chunks[name] = empty
    if info.is_director:
        report.overlap_rows[name] = total_overlap


def _wire_digest(table: Table) -> str:
    """``table_digest`` of the table's wire bytes, without joining them.

    The md5 of the ``encode_table_parts`` buffers fed one after another
    is the md5 of their concatenation, which is ``encode_table``.
    """
    md5 = hashlib.md5()
    for part in encode_table_parts(table, table.name):
        md5.update(part)
    return md5.hexdigest()


def _build_overlap(
    name: str, full: Table, index: DecIndex, chunker: Chunker, cid: int
) -> Table:
    """The FullOverlap table of chunk ``cid``.

    Rows within ``overlap`` of a sub-chunk but outside it, with
    ``subChunkId`` set to the sub-chunk they pad, in ascending
    sub-chunk id -- one ``overlap_members`` call for the whole chunk.
    A row near a corner appears once per padded sub-chunk -- that
    duplication is the price of node-local spatial joins and is how
    production Qserv stores it.
    """
    sub_ids, rows = chunker.overlap_members(cid, index)
    sel = full.select_rows(rows).rename(overlap_table_name(name, cid))
    if not len(rows):
        return sel
    cols = dict(sel.columns())
    cols["chunkId"] = np.full(len(rows), cid, dtype=np.int64)
    cols["subChunkId"] = sub_ids
    return Table(sel.name, cols)
