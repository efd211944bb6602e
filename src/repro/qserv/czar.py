"""The Qserv master ("czar"): planning, dispatch, and result merging.

One user query becomes:

1. **analysis** -- parse; extract the spatial restriction, index
   opportunity, table references, and aggregation needs (section 5.3);
2. **coverage** -- decide which chunks participate: the secondary-index
   chunk set for objectId-predicated queries, the region's intersecting
   chunks for areaspec queries, otherwise every chunk the frontend
   knows about ("access that is not spatially restricted involves the
   entire table by default", section 5.5);
3. **dispatch** -- for each chunk, write the generated chunk query to
   ``/query2/<chunkId>`` through the Xrootd client and remember which
   worker accepted it (section 5.4);
4. **collection** -- read ``/result/<md5>`` from that worker and decode
   the payload: binary columnar wire bytes decode directly into NumPy
   arrays (section 7.1's planned transfer optimization), while legacy
   mysqldump byte streams are replayed through the SQL parser;
5. **merge** -- concatenate all chunk payloads into the merge table in
   a single pass (one ``np.concatenate`` per column), then run the
   merge query (final aggregation / ORDER / LIMIT) on it and hand the
   result back to the proxy.

Repeated query texts skip parse/analysis entirely: the czar memoizes
``analyze()`` + aggregation planning + chunk-query generation keyed by
the normalized SQL text; a new text of a known *shape* (the same query
about another objectId or box, :mod:`repro.sql.shapes`) skips the parse
and the aggregation planning and redoes only what its numbers decide.
Dispatch runs on one persistent thread pool owned by the czar rather
than a pool per query.

Steps 3 and 4 are :mod:`repro.qserv.dispatch`, so this module reads as
plan -> dispatch -> merge.  Dispatch is resilient by construction (the
paper's section 5.6 fail-over, hardened): every chunk runs under a
:class:`~repro.xrd.retry.RetryPolicy` (bounded attempts, exponential
backoff with deterministic jitter), an optional per-query deadline is
propagated down to the worker's result wait so hung executors surface
as :class:`ChunkTimeoutError` instead of deadlock, stragglers can be
hedged to a second replica (first result wins), and per-worker health
tracking steers the redirector away from flapping nodes.

The whole pipeline is observable through :mod:`repro.obs`: every query
can carry a span tree (root ``query`` span, per-chunk ``dispatch``
spans with one ``attempt`` child per retry/hedge, worker-side
``worker.execute``/``worker.dump`` leaves parented via the
``-- TRACE:`` chunk-query header), and :class:`QueryStats` is a view
over the query's per-chunk ledger rows, whose columns reach the czar's
lifetime counters -- and through them the global ones -- as chunks end.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from ..analysis.races import track_shared
from ..analysis.sanitizer import make_lock
from ..lru import Lru
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import progress as obs_progress
from ..obs import trace as obs_trace
from ..obs.profile import TOTALS, ChunkLedger, build_profile, ledger_counters
from ..partition import Chunker
from ..sql import Database, Table, ast
from ..sql.dump import load_dump
from ..sql.engine import ResultTable
from ..sql.kernels import KernelCache, kernel_key
from ..sql.shapes import ShapeCache, Template, scan, text_key
from ..xrd import XrdClient, Redirector
from ..xrd.health import HealthTracker
from ..xrd.retry import CancelToken, Deadline, RetryPolicy
from ..xrd.protocol import WIRE_FORMATS
from .aggregation import build_aggregation_plan
from .analysis import QservAnalysisError, analyze
from .dispatch import (
    ChunkDispatch,
    ChunkTimeoutError,
    HedgePolicy,
    QueryCancelledError,
    QueryError,
)
from .metadata import CatalogMetadata
from .rewrite import generate_chunk_queries, generate_merge_query, merge_select
from .secondary_index import SecondaryIndex

__all__ = [
    "Czar",
    "QueryResult",
    "QueryStats",
    "ExplainReport",
    "QueryError",
    "ChunkTimeoutError",
    "QueryCancelledError",
    "HedgePolicy",
]

_MERGE_TABLE = "qserv_merge"


class QueryStats:
    """Observable cost of one user query: a view over its per-chunk rows.

    ``chunks_dispatched``, ``chunks_retried``, ``chunks_hedged``,
    ``hedges_won``, ``chunks_timed_out``, ``sub_chunk_statements``,
    ``bytes_dispatched``, ``bytes_collected`` and ``rows_merged`` are
    read-only sums, each over its own column of the rows the query's
    :class:`~repro.obs.profile.ChunkLedger` writes
    (:data:`~repro.obs.profile.TOTALS`); ``workers_used`` (set),
    ``failed_chunks`` (chunk ids that contributed nothing),
    ``wire_format`` ('binary', 'sqldump', 'mixed', or '' when nothing
    was collected) and ``partial_result`` (True when ``allow_partial``
    dropped failed chunks) are read off the same rows, and
    ``chunk_profiles`` is a copy of them: sums, totals and the metric
    counters the ledger feeds agree by construction.

    Plain attributes, written by ``Czar.submit`` alone:
    ``plan_cache_hits``, ``used_secondary_index``,
    ``used_region_restriction``, ``plan_seconds`` / ``merge_seconds`` /
    ``elapsed_seconds``, ``query_status`` ('ok', 'cancelled', or
    'failed'), ``allow_partial``, ``sql``, and ``trace`` -- the query's
    :class:`repro.obs.trace.Trace` when it was sampled, else None.
    ``profile`` assembles the EXPLAIN ANALYZE report from all of the
    above on demand.
    """

    def __init__(self, ledger: Optional[ChunkLedger] = None, trace=None):
        self._ledger = ledger if ledger is not None else ChunkLedger()
        self.trace = trace
        self.plan_cache_hits = 0
        self.used_secondary_index = False
        self.used_region_restriction = False
        self.allow_partial = False
        self.plan_seconds = 0.0
        self.merge_seconds = 0.0
        self.elapsed_seconds = 0.0
        self.query_status = "ok"
        self.sql = ""

    @property
    def chunk_profiles(self) -> list:
        with self._ledger.lock:
            return list(self._ledger.rows)

    @property
    def workers_used(self) -> set:
        return {c.worker for c in self.chunk_profiles if c.status == "ok"}

    @property
    def failed_chunks(self) -> list:
        return [
            c.chunk_id
            for c in self.chunk_profiles
            if c.status not in ("pending", "ok")
        ]

    @property
    def wire_format(self) -> str:
        formats = {c.wire_format for c in self.chunk_profiles if c.status == "ok"}
        return "mixed" if len(formats) > 1 else next(iter(formats), "")

    @property
    def partial_result(self) -> bool:
        return self.allow_partial and any(
            c.status in ("failed", "timeout") for c in self.chunk_profiles
        )

    @property
    def profile(self):
        """The EXPLAIN ANALYZE report (:class:`~repro.obs.profile.QueryProfile`)."""
        return build_profile(self, sql=self.sql, status=self.query_status)

    def as_dict(self) -> dict:
        names = (
            *TOTALS, "plan_cache_hits", "workers_used", "used_secondary_index",
            "used_region_restriction", "elapsed_seconds", "wire_format",
            "partial_result", "failed_chunks",
        )
        return {name: getattr(self, name) for name in names}

    def __repr__(self):
        parts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.as_dict().items()))
        return f"QueryStats({parts})"


for _name in TOTALS:
    setattr(QueryStats, _name, property(lambda self, n=_name: self._ledger.total(n)))
del _name


@dataclass
class QueryResult:
    """The merged result table plus execution statistics."""

    table: ResultTable
    stats: QueryStats

    def rows(self):
        return self.table.rows()

    @property
    def column_names(self):
        return self.table.column_names


@dataclass
class ExplainReport:
    """The czar's plan for a query, without executing it."""

    #: 'secondary-index', 'region', or 'full-sky' (section 5.5's cases).
    coverage_mode: str
    #: Chunks the query would be dispatched to.
    chunk_ids: list
    #: Near-neighbor sub-chunk execution?
    uses_sub_chunks: bool
    #: Total sub-chunk statements across all chunk queries.
    sub_chunk_statements: int
    #: Two-phase aggregation, or plain pass-through merging?
    two_phase_aggregation: bool
    #: One sample chunk query text (the first chunk's).
    sample_chunk_query: str
    #: The merge query that runs on the czar's merge table.
    merge_query: str

    def summary(self) -> str:
        lines = [
            f"coverage: {self.coverage_mode} ({len(self.chunk_ids)} chunk queries)",
            f"sub-chunk execution: {self.uses_sub_chunks}"
            + (f" ({self.sub_chunk_statements} statements)" if self.uses_sub_chunks else ""),
            f"aggregation: {'two-phase' if self.two_phase_aggregation else 'pass-through'}",
            "sample chunk query:",
            *("  " + ln for ln in self.sample_chunk_query.splitlines()[:4]),
            f"merge query: {self.merge_query}",
        ]
        return "\n".join(lines)


@track_shared("_latencies")
class Czar:
    """The Qserv frontend master.

    Parameters
    ----------
    redirector:
        The Xrootd redirector of the worker cluster.
    metadata:
        Partitioned-table registry.
    chunker:
        The partitioning geometry (must match what the data was loaded
        with).
    secondary_index:
        objectId index; optional (without it, objectId queries go
        full-sky exactly like HV1's COUNT(*) in the paper).
    available_chunks:
        The chunk ids this frontend dispatches to.  The paper's scaling
        runs "configured the frontend to only dispatch queries for
        partitions belonging to the desired set of cluster nodes" --
        pass a subset here to reproduce that.
    dispatch_parallelism:
        Worker count of the persistent dispatch/collection thread pool;
        1 means fully sequential dispatch.  The pool is owned by the
        czar and reused across queries.
    wire_format:
        Result encoding requested from workers: ``"binary"`` (default;
        the section 7.1 transfer optimization) asks for the columnar
        wire format, ``"sqldump"`` is the paper-faithful mysqldump text
        (used by benchmarks charging paper-accurate byte volumes).
        Collection always accepts both -- the payload's magic bytes
        decide -- so mixed-version clusters keep working.
    plan_cache_size:
        Maximum number of memoized query plans (LRU-evicted); 0
        disables plan caching.
    retry_policy:
        Per-chunk retry behavior (attempts, backoff, jitter); the
        default allows three attempts with small jittered backoff,
        replacing the pre-resilience single bare re-dispatch.
    hedge_policy:
        Straggler hedging configuration; ``None`` (default) disables
        hedged dispatch.
    health:
        Per-worker circuit breaker shared with the Xrootd client and
        redirector; pass an explicit tracker to share it across czars,
        or ``None`` for a private one.
    repair:
        Optional :class:`~repro.xrd.repair.RepairManager`.  When a
        chunk dispatch fails retryably (a replica just died), the czar
        asks it to restore the chunk's replication before the next
        attempt -- so the cluster converges back to full replication
        while the query is still in flight instead of waiting for a
        background scan.  Advisory: repair errors are recorded and the
        retry loop still decides the query's fate.
    """

    def __init__(
        self,
        redirector: Redirector,
        metadata: CatalogMetadata,
        chunker: Chunker,
        secondary_index: Optional[SecondaryIndex] = None,
        available_chunks: Optional[Iterable[int]] = None,
        dispatch_parallelism: int = 4,
        wire_format: str = "binary",
        plan_cache_size: int = 256,
        retry_policy: Optional[RetryPolicy] = None,
        hedge_policy: Optional[HedgePolicy] = None,
        health: Optional[HealthTracker] = None,
        repair=None,
    ):
        if dispatch_parallelism < 1:
            raise ValueError("dispatch_parallelism must be >= 1")
        if wire_format not in WIRE_FORMATS:
            raise ValueError(
                f"wire_format must be one of {WIRE_FORMATS}, got {wire_format!r}"
            )
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_backoff=0.005, max_backoff=0.25
        )
        self.hedge_policy = hedge_policy
        self.health = health if health is not None else HealthTracker()
        self.repair = repair
        self.client = XrdClient(redirector, health=self.health)
        self.metadata = metadata
        self.chunker = chunker
        self.secondary_index = secondary_index
        if available_chunks is None:
            self.available_chunks = set(int(c) for c in chunker.all_chunks())
        else:
            self.available_chunks = set(int(c) for c in available_chunks)
        self.dispatch_parallelism = dispatch_parallelism
        self.wire_format = wire_format
        self._merge_counter = itertools.count()
        # One compiled-kernel cache shared by every per-query merge
        # Database: merge queries repeat the same shapes (same select
        # list over qserv_merge_N), so compiling once per czar -- not
        # once per user query -- keeps the merge stage on the fused
        # path from the second query on.
        self._merge_kernel_cache = KernelCache()
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=dispatch_parallelism,
                thread_name_prefix="czar-dispatch",
            )
            if dispatch_parallelism > 1
            else None
        )
        #: This czar's lifetime metrics, feeding the global registry.
        #: What a query touches is resolved here, once: the counters
        #: its chunk ledger adds to, and the instruments below.
        self.metrics = obs_metrics.Registry(parent=obs_metrics.REGISTRY)
        self._ledger_counters = ledger_counters(self.metrics)
        self._queries = self.metrics.counter("czar.queries")
        self._plan_hits = self.metrics.counter("czar.plan_cache.hits")
        # Plans by query text (see _plan) and, behind them, per
        # statement shape, what does not depend on the WHERE literals.
        self._plan_cache = Lru(
            plan_cache_size,
            hits=self._plan_hits,
            misses=self.metrics.counter("czar.plan_cache.misses"),
        )
        self._shapes = ShapeCache()
        self._chunk_seconds = self.metrics.histogram("czar.chunk.seconds")
        self._merge_seconds = self.metrics.histogram("czar.merge.seconds")
        self._query_seconds = self.metrics.histogram("czar.query.seconds")
        # Recent successful chunk latencies feeding the adaptive hedge
        # threshold; only maintained when hedging is enabled.
        window = hedge_policy.window if hedge_policy is not None else 0
        self._latencies: deque = deque(maxlen=max(window, 1))
        self._latency_lock = make_lock("Czar._latency_lock")
        # Lazy pool for bounded/hedged attempts (deadline or hedging).
        self._attempt_pool: Optional[ThreadPoolExecutor] = None
        self._attempt_pool_lock = make_lock("Czar._attempt_pool_lock")

    @property
    def plan_cache_hits(self) -> int:
        """Lifetime count of plans served from the cache."""
        return self._plan_hits.value

    def close(self) -> None:
        """Shut down the persistent dispatch pools (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)
        with self._attempt_pool_lock:
            attempt_pool, self._attempt_pool = self._attempt_pool, None
        if attempt_pool is not None:
            attempt_pool.shutdown(wait=False)

    def _ensure_attempt_pool(self) -> ThreadPoolExecutor:
        with self._attempt_pool_lock:
            if self._attempt_pool is None:
                self._attempt_pool = ThreadPoolExecutor(
                    max_workers=max(8, 2 * self.dispatch_parallelism),
                    thread_name_prefix="czar-attempt",
                )
            return self._attempt_pool

    def _observe_latency(self, seconds: float) -> None:
        if self.hedge_policy is None:
            return
        with self._latency_lock:
            self._latencies.append(seconds)

    def _hedge_delay(self) -> Optional[float]:
        """Current straggler threshold in seconds, or None (no hedging)."""
        hp = self.hedge_policy
        if hp is None:
            return None
        if hp.delay is not None:
            return max(hp.delay, 0.0)
        with self._latency_lock:
            if len(self._latencies) < hp.min_observations:
                return None
            observed = np.fromiter(self._latencies, dtype=np.float64)
        threshold = float(np.percentile(observed, hp.percentile)) * hp.multiplier
        return max(threshold, hp.min_delay)

    # -- coverage ---------------------------------------------------------------

    def coverage(self, analysis) -> list[int]:
        """The chunk ids a query must be dispatched to."""
        if analysis.has_index_restriction and self.secondary_index is not None:
            chunks = self.secondary_index.chunks_for(analysis.index_values)
            return sorted(set(int(c) for c in chunks) & self.available_chunks)
        if analysis.region is not None:
            chunks = self.chunker.chunks_intersecting(analysis.region)
            return sorted(set(int(c) for c in chunks) & self.available_chunks)
        return sorted(self.available_chunks)

    # -- planning ------------------------------------------------------------------

    def _plan(self, sql: str, stats: Optional[QueryStats] = None):
        """``(analysis, aggregation plan, chunk queries, merge)``, memoized.

        ``merge`` is the merge SELECT over a table named ``qserv_merge``
        and its kernel key, which does not depend on that name.

        Two levels.  In front, keyed by :func:`~repro.sql.shapes.text_key`
        of the SQL: a repeated query text skips parse, analysis, coverage, and
        rewriting entirely (``plan_cache_hits`` counts these and only
        these).  Everything cached there is derived deterministically
        from inputs that are fixed for this czar's lifetime (metadata,
        chunker, available chunks, finalized secondary index), so reuse
        is sound.

        Behind it, keyed by statement shape (:mod:`repro.sql.shapes`):
        a text that differs from an earlier one only in the numbers of
        its WHERE clause -- another objectId, another box -- takes that
        one's parsed statement with its own numbers bound, and its
        aggregation plan and merge SELECT as they are (neither reads the
        WHERE clause).  What the numbers decide is redone on the bound
        statement: index values, region construction and validation,
        coverage, sub-chunk pruning and the chunk-query text.
        """
        key = text_key(sql)
        entry = self._plan_cache.get(key)
        if entry is not None:
            if stats is not None:
                stats.plan_cache_hits = 1
            return entry
        shape, values = scan(sql)
        prepared = self._shapes.get(shape)
        select = None
        if prepared is not None:
            template, plan, merge = prepared
            bound = template.bind(values)
            if bound is not None:
                select = bound[0]
        analysis = analyze(sql if select is None else select, self.metadata)
        if not analysis.partitioned_refs:
            raise QservAnalysisError(
                "query references no partitioned table; submit it to a "
                "plain database instead"
            )
        if select is None:
            plan = build_aggregation_plan(analysis.select)
            merge_stmt = merge_select(plan, analysis.select, _MERGE_TABLE)
            merge = merge_stmt, kernel_key(merge_stmt)
            template = Template.of((analysis.select,), values)
            if template is not None:
                self._shapes.put(shape, (template, plan, merge))
        chunk_ids = self.coverage(analysis)
        specs = generate_chunk_queries(
            analysis, plan, self.metadata, self.chunker, chunk_ids
        )
        entry = (analysis, plan, specs, merge)
        self._plan_cache.put(key, entry)
        return entry

    def explain(self, sql: str) -> ExplainReport:
        """Plan a query without dispatching it (the shell's ``\\explain``)."""
        analysis, plan, specs, _ = self._plan(sql)
        if analysis.has_index_restriction and self.secondary_index is not None:
            mode = "secondary-index"
        elif analysis.region is not None:
            mode = "region"
        else:
            mode = "full-sky"
        return ExplainReport(
            coverage_mode=mode,
            chunk_ids=[s.chunk_id for s in specs],
            uses_sub_chunks=analysis.needs_subchunks,
            sub_chunk_statements=sum(len(s.sub_chunk_ids) for s in specs),
            two_phase_aggregation=not plan.passthrough,
            sample_chunk_query=specs[0].text if specs else "(no chunks)",
            merge_query=generate_merge_query(plan, analysis.select, "<merge_table>"),
        )

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        sql: str,
        deadline: Optional[float | Deadline] = None,
        allow_partial: bool = False,
        trace: Optional[bool] = None,
        cancel: Optional[CancelToken] = None,
        tenant: str = "",
        session: str = "",
    ) -> QueryResult:
        """Execute one user query end to end.

        ``deadline`` (seconds, or a :class:`~repro.xrd.retry.Deadline`)
        bounds the whole query: it caps retry backoff, attempt waits,
        and the workers' result-ready waits, so a hung executor
        surfaces as :class:`ChunkTimeoutError` instead of blocking
        forever.  With ``allow_partial=True`` chunks that still fail
        after retries are dropped from the merge instead of failing the
        query; the result is annotated via ``stats.partial_result`` and
        ``stats.failed_chunks``.

        ``trace`` forces span recording for this query (True -- the
        shell's ``TRACE <sql>``), suppresses it (False), or defers to
        the module-level enable flag and sampling knob (None, the
        default; see :func:`repro.obs.trace.start_trace`).  The
        recorded trace rides on ``result.stats.trace``.

        ``cancel`` is a :class:`~repro.xrd.retry.CancelToken` the
        caller may fire from another thread; the dispatch loops poll it
        and unwind with :class:`QueryCancelledError`, withdrawing
        accepted chunk queries from their workers best-effort.

        ``tenant`` / ``session`` label the query's live entry in the
        global PROCESSLIST registry (the proxy passes its user and
        session id); the entry exists for exactly the duration of this
        call -- completion, cancellation, and failure all remove it.
        """
        t0 = time.perf_counter()
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline.after(float(deadline))
        if trace is False:
            query_trace = None
        else:
            query_trace = obs_trace.start_trace(force=trace is True)
        self._queries.add(1)
        progress = obs_progress.PROCESSLIST.begin(
            sql,
            tenant=tenant,
            session=session,
            deadline_seconds=deadline.remaining() if deadline is not None else None,
        )
        ledger = ChunkLedger(self._ledger_counters, progress)
        stats = QueryStats(ledger, trace=query_trace)
        stats.sql = " ".join(sql.split())
        stats.allow_partial = allow_partial
        root = obs_trace.span(
            "query", trace=query_trace, track="czar", sql=stats.sql[:200]
        )
        try:
            with root:
                progress.stage("plan")
                plan_t0 = time.perf_counter()
                with obs_trace.span("plan", parent=root, track="czar") as plan_span:
                    analysis, plan, specs, merge = self._plan(sql, stats)
                    plan_span.set(
                        chunks=len(specs), cache_hit=bool(stats.plan_cache_hits)
                    )
                stats.plan_seconds = time.perf_counter() - plan_t0
                progress.set_total(len(specs))
                progress.stage("dispatch")
                stats.used_secondary_index = (
                    analysis.has_index_restriction and self.secondary_index is not None
                )
                stats.used_region_restriction = analysis.region is not None

                merge_db = Database(
                    self.metadata.database,
                    kernel_cache=self._merge_kernel_cache,
                )
                payloads = ChunkDispatch(
                    self,
                    ledger,
                    deadline=deadline,
                    allow_partial=allow_partial,
                    cancel=cancel,
                    parent_span=root,
                ).run(specs)
                progress.stage("merge")
                merge_t0 = time.perf_counter()
                with obs_trace.span("merge", parent=root, track="czar") as merge_span:
                    merge_name = self._load_into_merge_table(merge_db, payloads, ledger)

                    if merge_name is None:
                        # Zero chunks dispatched (empty region / unknown
                        # objectId).
                        merge_name = self._empty_merge_table(merge_db, plan, analysis)
                    merge_stmt, merge_key = merge
                    result = merge_db.execute_statement(
                        replace(merge_stmt, tables=(ast.TableRef(table=merge_name),)),
                        merge_key,
                    )
                    merge_span.set(rows=stats.rows_merged)
                stats.merge_seconds = time.perf_counter() - merge_t0
                self._merge_seconds.observe(stats.merge_seconds)
        except Exception as e:
            cancelled = isinstance(e, QueryCancelledError)
            stats.query_status = "cancelled" if cancelled else "failed"
            self.metrics.counter(
                "czar.queries.cancelled" if cancelled else "czar.queries.failed"
            ).add(1)
            if isinstance(e, QueryError) and e.stats is None:
                e.stats = stats
            raise
        finally:
            progress.finish()
            stats.elapsed_seconds = time.perf_counter() - t0
            self._query_seconds.observe(stats.elapsed_seconds)
        if stats.partial_result:
            obs_events.emit(
                "partial_result", sql=sql, chunks=sorted(stats.failed_chunks)
            )
        return QueryResult(table=result, stats=stats)

    def _empty_merge_table(self, merge_db: Database, plan, analysis) -> str:
        """A merge table standing in for zero dispatched chunks.

        A pass-through or GROUP BY query over zero chunks correctly
        yields zero rows.  A *global* aggregate must still yield one row
        (MySQL: ``COUNT(*)`` over nothing is 0, ``SUM``/``AVG`` are
        NULL), so the table gets one identity-partials row: 0 for COUNT
        partials, NULL for the rest.
        """
        import numpy as np

        from ..sql import Table, ast as sql_ast

        name = f"{_MERGE_TABLE}_{next(self._merge_counter)}"
        global_aggregate = (
            not plan.passthrough and not analysis.select.group_by
        )
        cols: dict[str, object] = {}
        for item in plan.chunk_items:
            out = item.output_name()
            is_count = (
                isinstance(item.expr, sql_ast.FuncCall)
                and item.expr.name.upper() == "COUNT"
            )
            if global_aggregate:
                value = 0 if is_count else np.nan
                dtype = np.int64 if is_count else np.float64
                cols[out] = np.array([value], dtype=dtype)
            else:
                cols[out] = np.empty(0, dtype=np.float64)
        merge_db.create_table(Table(name, cols))
        return name

    def _load_into_merge_table(
        self, merge_db: Database, payloads: list[tuple], ledger: ChunkLedger
    ) -> Optional[str]:
        """Build the merge table from decoded chunk payloads in one pass.

        ``payloads`` are ``(payload, ledger row)`` pairs, decoded (and
        thereby validated) during collection: a ``binary`` row's is the
        wire-decoded table, a ``sqldump`` row's a legacy mysqldump
        stream, replayed through the SQL engine here (mixed-version
        clusters).  All chunk tables are then concatenated with one
        ``np.concatenate`` per column instead of per-chunk appends.
        Each chunk's merged row count goes onto its ledger row here, so
        EXPLAIN ANALYZE never double-counts.
        """
        tables: list[Table] = []
        for payload, row in payloads:
            if row.wire_format != "binary":
                loaded_name = load_dump(merge_db, payload)
                payload = merge_db.get_table(loaded_name)
                merge_db.drop_table(loaded_name)
            tables.append(payload)
        ledger.merged([(row, t.num_rows) for (_, row), t in zip(payloads, tables)])
        if not tables:
            return None
        merge_name = f"{_MERGE_TABLE}_{next(self._merge_counter)}"
        merge_db.create_table(Table.concat(merge_name, tables), overwrite=True)
        return merge_name
