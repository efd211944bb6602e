"""EXPLAIN ANALYZE: the per-chunk rows of one query, their ledger, the report.

``\\explain`` shows the czar's *plan*; this module shows what actually
happened.  One :class:`ChunkProfile` row per chunk is the whole
accounting of a query's dispatch: the :class:`ChunkLedger` is the only
writer of a row and the one place its numbers reach the metric counters
and the PROCESSLIST entry, and every per-query total (``QueryStats``,
:meth:`QueryProfile.totals`) is a sum over one column of those rows
(:data:`TOTALS`) -- so rows, totals and global metric deltas agree by
construction.  The span tree, when the query was traced, only
*enriches* the report (worker-side queue wait, execute time, rows
scanned, kernel vs interpreter); accounting never depends on tracing
being on.

:func:`build_profile` assembles the :class:`QueryProfile` that rides on
``result.stats.profile``; :meth:`QueryProfile.pretty` renders the
annotated plan the shell's ``EXPLAIN ANALYZE <sql>`` prints.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from ..analysis.races import track_shared
from ..analysis.sanitizer import make_lock

__all__ = [
    "ChunkProfile",
    "ChunkLedger",
    "QueryProfile",
    "TOTALS",
    "build_profile",
    "ledger_counters",
]


@dataclass
class ChunkProfile:
    """What one chunk query cost, attempt by attempt.

    The accounting fields are written by the query's
    :class:`ChunkLedger` and nothing else; ``queue_wait`` /
    ``execute_seconds`` / ``rows_scanned`` / ``scan_bytes`` / ``kernel``
    arrive later from the winning attempt's worker-side spans and stay
    ``None`` for untraced queries.
    """

    chunk_id: int
    worker: str = ""
    subchunks: int = 0
    attempts: int = 0
    retries: int = 0
    hedges: int = 0
    hedges_won: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    rows: int = 0
    wire_format: str = ""
    seconds: float = 0.0
    #: 'pending', then one of 'ok', 'failed', 'timeout', 'cancelled'.
    status: str = "pending"
    # -- trace-enriched (None when the query was not traced) --
    queue_wait: Optional[float] = None
    execute_seconds: Optional[float] = None
    rows_scanned: Optional[int] = None
    scan_bytes: Optional[int] = None
    kernel: Optional[bool] = None

    def as_dict(self) -> dict:
        return dict(vars(self))


_OK = ("ok",)

#: The accounting, as data: per-query total -> ``(czar counter, row
#: column summed -- None counts rows --, row statuses it covers -- None
#: is all)``.  A total is that sum over the ledger's rows
#: (:meth:`ChunkLedger.total`); the counter moves by the same column of
#: a row when the row ends (``rows``: when it is merged).
TOTALS = {
    "chunks_dispatched": ("czar.chunks.dispatched", None, _OK),
    "sub_chunk_statements": ("czar.subchunk.statements", "subchunks", _OK),
    "bytes_dispatched": ("czar.bytes.dispatched", "bytes_sent", _OK),
    "bytes_collected": ("czar.bytes.collected", "bytes_received", _OK),
    "rows_merged": ("czar.rows.merged", "rows", _OK),
    "chunks_retried": ("czar.chunks.retried", "retries", None),
    "chunks_hedged": ("czar.chunks.hedged", "hedges", None),
    "hedges_won": ("czar.hedges.won", "hedges_won", None),
    "chunks_timed_out": ("czar.chunks.timed_out", None, ("timeout",)),
}
#: Counters no per-query total reads: rows by how they ended, and
#: ``czar.bytes.collected`` again by the payload's wire format.
_ENDINGS = {"failed": "czar.chunks.failed", "timeout": "czar.chunks.failed",
            "cancelled": "czar.chunks.cancelled"}
_BYTES_BY_FORMAT = {"binary": "czar.bytes.collected.binary",
                    "sqldump": "czar.bytes.collected.sqldump"}


def ledger_counters(registry) -> dict:
    """Every counter a :class:`ChunkLedger` adds to, resolved in ``registry`` once."""
    names = [metric for metric, _, _ in TOTALS.values()]
    names += [*_ENDINGS.values(), *_BYTES_BY_FORMAT.values()]
    return {name: registry.counter(name) for name in names}


@track_shared("rows")
class ChunkLedger:
    """One query's per-chunk rows and the lock every access of them holds.

    A row is opened when its chunk starts, counts attempts, retries and
    hedges while in flight (:meth:`bump`), and is taken to a terminal
    state exactly once (:meth:`close`) -- where, and only where, its
    columns are added to ``counters`` (:func:`ledger_counters`) and
    ``progress`` hears the chunk is done; the merge stage adds its row
    count (:meth:`merged`).  So counters equal the sums over closed rows
    at every instant, also while a failed query's other chunks unwind.
    """

    def __init__(self, counters=None, progress=None, rows=()):
        self.lock = make_lock("ChunkLedger.lock")
        self.rows: list = list(rows)
        self._counters = counters
        self._progress = progress

    def open(self, chunk_id: int, subchunks: int = 0) -> ChunkProfile:
        row = ChunkProfile(chunk_id=chunk_id, subchunks=subchunks)
        with self.lock:
            self.rows.append(row)
        return row

    def bump(self, row: ChunkProfile, column: str) -> None:
        """One more attempt, retry, hedge or hedge win on a row in flight."""
        with self.lock:
            setattr(row, column, getattr(row, column) + 1)

    def close(self, row: ChunkProfile, status: str, **columns) -> None:
        """Take ``row`` to its terminal ``status``, with its last ``columns``."""
        self.close_all(status, [(row, columns)])

    def close_all(self, status: str, closing: list) -> None:
        """:meth:`close` for ``(row, columns)`` pairs that end alike -- a
        batch's: one lock round, each counter added to once."""
        if not closing:
            return
        added: dict = defaultdict(int)
        received = retries = 0
        with self.lock:
            for row, columns in closing:
                for name, value in columns.items():
                    setattr(row, name, value)
                row.status = status
                received += row.bytes_received
                retries += row.retries
                if self._counters is None:
                    continue
                for metric, column, statuses in TOTALS.values():
                    if statuses is None or status in statuses:
                        n = 1 if column is None else getattr(row, column)
                        if n:  # most columns of most rows are zero
                            added[metric] += n
                if status == "ok":
                    added[_BYTES_BY_FORMAT[row.wire_format]] += row.bytes_received
                else:
                    added[_ENDINGS[status]] += 1
            for metric, n in added.items():
                self._counters[metric].add(n)
            if self._progress is not None:
                self._progress.chunk_done(received, retries, chunks=len(closing))

    def merged(self, row_counts: list) -> None:
        """The merge stage's ``(row, rows merged)`` pairs, onto the rows."""
        total = sum(n for _, n in row_counts)
        with self.lock:
            for row, n in row_counts:
                row.rows = n
            if total and self._counters is not None:
                self._counters["czar.rows.merged"].add(total)
            if self._progress is not None:
                self._progress.note_rows(total)

    def total(self, name: str) -> int:
        """One of :data:`TOTALS`, over the rows as they are now."""
        _, column, statuses = TOTALS[name]
        with self.lock:
            rows = [
                c for c in self.rows if statuses is None or c.status in statuses
            ]
            return len(rows) if column is None else sum(getattr(c, column) for c in rows)


@dataclass
class QueryProfile:
    """The assembled EXPLAIN ANALYZE report."""

    sql: str
    chunks: list = field(default_factory=list)
    plan_seconds: float = 0.0
    merge_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    wire_format: str = ""
    partial_result: bool = False
    status: str = "ok"
    plan_cache_hit: bool = False
    used_secondary_index: bool = False
    used_region_restriction: bool = False
    traced: bool = False

    def totals(self) -> dict:
        """The per-chunk sums -- :data:`TOTALS` -- by the names the report prints."""
        total = ChunkLedger(rows=self.chunks).total
        return {
            "chunks": len(self.chunks),
            "chunks_ok": total("chunks_dispatched"),
            "rows": total("rows_merged"),
            "bytes_sent": total("bytes_dispatched"),
            "bytes_received": total("bytes_collected"),
            "retries": total("chunks_retried"),
            "hedges": total("chunks_hedged"),
            "hedges_won": total("hedges_won"),
            "timeouts": total("chunks_timed_out"),
            "cancelled": sum(c.status == "cancelled" for c in self.chunks),
            "failed": sum(c.status == "failed" for c in self.chunks),
            "subchunk_statements": total("sub_chunk_statements"),
        }

    def pretty(self, max_chunks: int = 32) -> str:
        """The annotated plan EXPLAIN ANALYZE prints."""
        t = self.totals()
        coverage = (
            "secondary-index"
            if self.used_secondary_index
            else "region" if self.used_region_restriction else "full-sky"
        )
        lines = [
            f"query: {self.sql}",
            f"status: {self.status}"
            + (" (partial result)" if self.partial_result else ""),
            f"elapsed: {self.elapsed_seconds * 1e3:.2f} ms"
            f"  (plan {self.plan_seconds * 1e3:.2f} ms"
            f", merge {self.merge_seconds * 1e3:.2f} ms"
            f"{', plan cache hit' if self.plan_cache_hit else ''})",
            f"coverage: {coverage}"
            f"  chunks: {t['chunks_ok']}/{t['chunks']} ok"
            + (f", {t['timeouts']} timed out" if t["timeouts"] else "")
            + (f", {t['cancelled']} cancelled" if t["cancelled"] else "")
            + (f", {t['failed']} failed" if t["failed"] else ""),
            f"rows merged: {t['rows']}"
            f"  bytes: {t['bytes_sent']} sent / {t['bytes_received']} received"
            f"  wire: {self.wire_format or 'n/a'}",
            f"retries: {t['retries']}  hedges: {t['hedges']}"
            f" ({t['hedges_won']} won)",
        ]
        if not self.traced:
            lines.append(
                "worker-side columns unavailable: query was not traced "
                "(EXPLAIN ANALYZE forces tracing; profiles of untraced "
                "submits carry accounting columns only)"
            )
        header = (
            f"{'chunk':>6} {'worker':<12} {'st':<9} {'rows':>8} "
            f"{'bytes':>9} {'try':>3} {'hedge':>5} {'t_ms':>8} "
            f"{'wait_ms':>8} {'exec_ms':>8} {'scanned':>8} {'kern':>4}"
        )
        lines.append(header)
        shown = self.chunks[:max_chunks]
        for c in shown:

            def _ms(v):
                return f"{v * 1e3:.2f}" if v is not None else "-"

            lines.append(
                f"{c.chunk_id:>6} {c.worker or '-':<12} {c.status:<9} "
                f"{c.rows:>8} {c.bytes_received:>9} {c.attempts:>3} "
                f"{c.hedges:>5} {_ms(c.seconds) if c.seconds else '-':>8} "
                f"{_ms(c.queue_wait):>8} {_ms(c.execute_seconds):>8} "
                f"{c.rows_scanned if c.rows_scanned is not None else '-':>8} "
                f"{('yes' if c.kernel else 'no') if c.kernel is not None else '-':>4}"
            )
        if len(self.chunks) > len(shown):
            lines.append(f"... {len(self.chunks) - len(shown)} more chunks")
        return "\n".join(lines)


#: Span attributes copied from a winning worker.execute span onto the
#: chunk profile, in (span attr, profile field) pairs.
_SPAN_FIELDS = (
    ("queue_wait", "queue_wait"),
    ("rows_scanned", "rows_scanned"),
    ("scan_bytes", "scan_bytes"),
    ("kernel", "kernel"),
)


def _enrich_from_trace(chunks: list, trace) -> None:
    """Attach worker-side timing/scan columns from the span tree.

    Only spans with ``status == "ok"`` contribute: a chunk that was
    retried or hedged has several ``worker.execute`` spans, and the
    cancelled/failed ones describe work that never reached the merge.
    """
    by_chunk = {c.chunk_id: c for c in chunks}
    for sp in trace.spans:
        if sp.name != "worker.execute" or sp.status != "ok":
            continue
        chunk = by_chunk.get(sp.attrs.get("chunk"))
        if chunk is None:
            continue
        if chunk.worker and sp.attrs.get("worker") not in ("", None, chunk.worker):
            continue  # a losing replica's span for the same chunk
        chunk.execute_seconds = sp.duration
        for attr, fld in _SPAN_FIELDS:
            if attr in sp.attrs:
                setattr(chunk, fld, sp.attrs[attr])


def build_profile(stats, sql: str = "", status: str = "ok") -> QueryProfile:
    """Assemble the EXPLAIN ANALYZE report from one query's stats.

    ``stats`` is a :class:`~repro.qserv.czar.QueryStats`; its
    ``chunk_profiles`` list is the accounting source of truth, and its
    ``trace`` (when the query was sampled) contributes the worker-side
    columns.
    """
    chunks = sorted(
        getattr(stats, "chunk_profiles", []) or [], key=lambda c: c.chunk_id
    )
    trace = getattr(stats, "trace", None)
    if trace is not None:
        _enrich_from_trace(chunks, trace)
    return QueryProfile(
        sql=" ".join(sql.split()),
        chunks=chunks,
        plan_seconds=getattr(stats, "plan_seconds", 0.0),
        merge_seconds=getattr(stats, "merge_seconds", 0.0),
        elapsed_seconds=stats.elapsed_seconds,
        wire_format=stats.wire_format,
        partial_result=stats.partial_result,
        status=status,
        plan_cache_hit=bool(stats.plan_cache_hits),
        used_secondary_index=stats.used_secondary_index,
        used_region_restriction=stats.used_region_restriction,
        traced=trace is not None,
    )
