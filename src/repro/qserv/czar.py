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

Dispatch is resilient by construction (the paper's section 5.6
fail-over, hardened): every chunk runs under a
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
``-- TRACE:`` chunk-query header), and :class:`QueryStats` is a thin
view over a per-query metrics registry parented to the czar's lifetime
registry and the process-global one.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from ..analysis.races import track_shared
from ..analysis.sanitizer import make_lock
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import progress as obs_progress
from ..obs import trace as obs_trace
from ..obs.profile import ChunkProfile, build_profile
from ..partition import Chunker
from ..sql import Database, Table, ast
from ..sql.dump import load_dump
from ..sql.engine import ResultTable
from ..sql.kernels import KernelCache, kernel_key
from ..sql.shapes import ShapeCache, Template, scan
from ..sql.wire import decode_table, is_wire_payload
from ..xrd import RedirectError, XrdClient, Redirector
from ..xrd.filesystem import FileSystemError
from ..xrd.health import HealthTracker
from ..xrd.retry import CancelToken, Deadline, RetryPolicy
from ..xrd.protocol import (
    RESULT_PREFIX,
    WIRE_FORMATS,
    attempt_header,
    cancel_path,
    deadline_header,
    query_hash,
    query_path,
    result_format_header,
    result_path,
    trace_header,
)
from .aggregation import build_aggregation_plan
from .analysis import QservAnalysisError, analyze
from .metadata import CatalogMetadata
from .rewrite import (
    ChunkQuerySpec,
    generate_chunk_queries,
    generate_merge_query,
    merge_select,
)
from .secondary_index import SecondaryIndex
from .worker import WorkerCancelledError, WorkerShutdownError

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


def _swallow_future(future) -> None:
    """Consume an abandoned attempt's exception so it is never re-raised."""
    future.exception()


class QueryError(RedirectError):
    """A distributed query failed permanently (all replicas/attempts).

    Subclasses :class:`RedirectError` so pre-resilience callers that
    caught the fabric error keep working.  Carries the query's
    :class:`QueryStats` (when available) and the chunk ids that failed,
    so operators see retries/hedges/timeouts even on failure.
    """

    def __init__(self, message: str, stats=None, failed_chunks=None):
        super().__init__(message)
        self.stats = stats
        self.failed_chunks = list(failed_chunks or [])


class ChunkTimeoutError(QueryError):
    """A chunk query exhausted the query deadline (hung or too slow)."""


class QueryCancelledError(QueryError):
    """The query's :class:`~repro.xrd.retry.CancelToken` fired.

    Raised from the dispatch loops at the next poll point after
    ``cancel()``; chunk queries already accepted by workers are
    withdrawn best-effort through the ``/cancel/<H>`` protocol so
    queued tasks free their slots instead of executing for nobody.
    """


class _PayloadError(RuntimeError):
    """A collected result payload failed to decode (wire corruption)."""

    server: Optional[str] = None


#: Failures worth re-dispatching through another replica.  Genuine SQL
#: errors are excluded: re-running a semantically broken query on a
#: different replica cannot fix it.  :class:`WorkerCancelledError` is
#: retryable because ``collect()`` checks this query's own CancelToken
#: before every attempt: reaching the retry path with an unfired token
#: means a worker refused (or poisoned) the dispatch on cancel state
#: left by an earlier withdrawn submission of the same SQL, and a
#: re-dispatch carrying this submission's nonce executes cleanly.
_RETRYABLE = (
    RedirectError,
    FileSystemError,
    _PayloadError,
    WorkerShutdownError,
    WorkerCancelledError,
)


@dataclass(frozen=True)
class HedgePolicy:
    """When to duplicate a straggling chunk query to another replica.

    With ``delay`` set, any attempt still unanswered after that many
    seconds is hedged.  Otherwise the threshold adapts: once
    ``min_observations`` chunk latencies are recorded, it is the
    ``percentile``-th percentile of the recent ``window`` of latencies
    times ``multiplier`` (never below ``min_delay``).  The first result
    wins; the loser is abandoned (its worker still evicts the unread
    result through the refcounted pending-read accounting).
    """

    delay: Optional[float] = None
    percentile: float = 95.0
    multiplier: float = 3.0
    min_delay: float = 0.02
    min_observations: int = 20
    window: int = 512


#: QueryStats counter-like fields and the per-query metric backing each.
_STATS_COUNTERS = {
    "chunks_dispatched": "czar.chunks.dispatched",
    "chunks_retried": "czar.chunks.retried",
    "sub_chunk_statements": "czar.subchunk.statements",
    "bytes_dispatched": "czar.bytes.dispatched",
    "bytes_collected": "czar.bytes.collected",
    "rows_merged": "czar.rows.merged",
    "plan_cache_hits": "czar.plan_cache.hits",
    "chunks_hedged": "czar.chunks.hedged",
    "hedges_won": "czar.hedges.won",
    "chunks_timed_out": "czar.chunks.timed_out",
}


@track_shared("workers_used", "failed_chunks", "chunk_profiles")
class QueryStats:
    """Observable cost of one user query.

    A thin view over the observability layer rather than a
    hand-maintained parallel structure: every counter-like field
    (``chunks_dispatched``, ``chunks_retried``, ``plan_cache_hits``,
    ``chunks_hedged``, ``hedges_won``, ``chunks_timed_out``, byte/row
    totals, ...) is a property backed by a named counter in a per-query
    :class:`repro.obs.metrics.Registry`.  The czar parents that
    registry to its own lifetime registry (itself parented to the
    process-global one), so a single ``stats.chunks_retried += 1``
    updates the per-query view, the czar's lifetime totals, and ``SHOW
    METRICS`` in one call -- which is also what de-duplicated the old
    side-by-side ``Czar.plan_cache_hits`` / ``stats.plan_cache_hits``
    accounting.

    Plain attributes: ``workers_used`` (set), ``used_secondary_index``,
    ``used_region_restriction``, ``elapsed_seconds``, ``wire_format``
    ('binary', 'sqldump', 'mixed', or '' when nothing was dispatched),
    ``partial_result`` (True when ``allow_partial`` dropped failed
    chunks), ``failed_chunks`` (chunk ids that contributed nothing),
    ``chunk_profiles`` (one :class:`~repro.obs.profile.ChunkProfile`
    per chunk, maintained in the same code paths -- and under the same
    lock -- as the counters above, so per-chunk sums match the stats
    exactly), ``plan_seconds`` / ``merge_seconds`` stage timings,
    ``query_status`` ('ok', 'cancelled', or 'failed'), and ``trace`` --
    the query's :class:`repro.obs.trace.Trace` when it was sampled,
    else None.  ``profile`` assembles the EXPLAIN ANALYZE report from
    all of the above on demand.
    """

    def __init__(self, parent=None, trace=None, **initial):
        self._registry = obs_metrics.Registry(parent=parent)
        self.trace = trace
        self.workers_used: set = set()
        self.used_secondary_index = False
        self.used_region_restriction = False
        self.elapsed_seconds = 0.0
        self.wire_format = ""
        self.partial_result = False
        self.failed_chunks: list = []
        self.chunk_profiles: list = []
        self.plan_seconds = 0.0
        self.merge_seconds = 0.0
        self.query_status = "ok"
        self.sql = ""
        for name, value in initial.items():
            setattr(self, name, value)

    @property
    def profile(self):
        """The EXPLAIN ANALYZE report (:class:`~repro.obs.profile.QueryProfile`)."""
        return build_profile(self, sql=self.sql, status=self.query_status)

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in _STATS_COUNTERS}
        out.update(
            workers_used=set(self.workers_used),
            used_secondary_index=self.used_secondary_index,
            used_region_restriction=self.used_region_restriction,
            elapsed_seconds=self.elapsed_seconds,
            wire_format=self.wire_format,
            partial_result=self.partial_result,
            failed_chunks=list(self.failed_chunks),
        )
        return out

    def __repr__(self):
        parts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.as_dict().items()))
        return f"QueryStats({parts})"


def _stats_counter(metric: str) -> property:
    def _get(self):
        return self._registry.counter(metric).value

    def _set(self, value):
        c = self._registry.counter(metric)
        c.add(value - c.value)

    return property(_get, _set)


for _field_name, _metric_name in _STATS_COUNTERS.items():
    setattr(QueryStats, _field_name, _stats_counter(_metric_name))
del _field_name, _metric_name


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


@track_shared("_plan_cache", "_latencies")
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
        if plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_backoff=0.005, max_backoff=0.25
        )
        self.hedge_policy = hedge_policy
        self.health = health if health is not None else HealthTracker()
        self.repair = repair
        self.client = XrdClient(
            redirector, retry_policy=RetryPolicy(max_attempts=1), health=self.health
        )
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
        self._merge_lock = make_lock("Czar._merge_lock")
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
        self._plan_cache: OrderedDict[str, tuple] = OrderedDict()
        self._plan_cache_size = plan_cache_size
        self._plan_lock = make_lock("Czar._plan_lock")
        # Behind the exact-text plan cache: per statement shape, what
        # does not depend on the WHERE literals (see _plan).
        self._shapes = ShapeCache()
        #: This czar's lifetime metrics; per-query registries (behind
        #: QueryStats) parent here, and this one feeds the global
        #: registry, so one increment updates all three levels.
        self.metrics = obs_metrics.Registry(parent=obs_metrics.REGISTRY)
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
        """Lifetime count of plans served from the cache.

        Reads the ``czar.plan_cache.hits`` counter of this czar's
        registry -- the same counter every per-query
        ``stats.plan_cache_hits`` increment propagates into, replacing
        the old duplicated side-by-side accounting.
        """
        return self.metrics.counter("czar.plan_cache.hits").value

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

        Two levels.  In front, keyed by whitespace-normalized SQL: a
        repeated query text skips parse, analysis, coverage, and
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
        key = " ".join(sql.split())
        with self._plan_lock:
            entry = self._plan_cache.get(key)
            if entry is not None:
                self._plan_cache.move_to_end(key)
                # One increment: the per-query counter propagates to
                # the czar's lifetime registry (the plan_cache_hits
                # property) and the process-global one.
                if stats is not None:
                    stats.plan_cache_hits += 1
                else:
                    self.metrics.counter("czar.plan_cache.hits").add(1)
                return entry
        self.metrics.counter("czar.plan_cache.misses").add(1)
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
        if self._plan_cache_size > 0:
            with self._plan_lock:
                self._plan_cache[key] = entry
                while len(self._plan_cache) > self._plan_cache_size:
                    self._plan_cache.popitem(last=False)
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
        stats = QueryStats(parent=self.metrics, trace=query_trace)
        with self._merge_lock:
            stats.sql = " ".join(sql.split())
        self.metrics.counter("czar.queries").add(1)
        progress = obs_progress.PROCESSLIST.begin(
            sql,
            tenant=tenant,
            session=session,
            deadline_seconds=deadline.remaining() if deadline is not None else None,
        )
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
                with self._merge_lock:
                    stats.plan_seconds = time.perf_counter() - plan_t0
                progress.set_total(len(specs))
                progress.stage("dispatch")
                with self._merge_lock:
                    stats.used_secondary_index = (
                        analysis.has_index_restriction
                        and self.secondary_index is not None
                    )
                    stats.used_region_restriction = analysis.region is not None

                merge_db = Database(
                    self.metadata.database,
                    kernel_cache=self._merge_kernel_cache,
                )
                payloads = self._dispatch_and_collect(
                    specs,
                    stats,
                    deadline=deadline,
                    allow_partial=allow_partial,
                    parent_span=root,
                    cancel=cancel,
                    progress=progress,
                )
                progress.stage("merge")
                merge_t0 = time.perf_counter()
                with obs_trace.span("merge", parent=root, track="czar") as merge_span:
                    merge_name = self._load_into_merge_table(merge_db, payloads, stats)

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
                    progress.note_rows(stats.rows_merged)
                with self._merge_lock:
                    stats.merge_seconds = time.perf_counter() - merge_t0
                self.metrics.histogram("czar.merge.seconds").observe(
                    stats.merge_seconds
                )
        except QueryCancelledError as e:
            self.metrics.counter("czar.queries.cancelled").add(1)
            with self._merge_lock:
                stats.query_status = "cancelled"
            if e.stats is None:
                e.stats = stats
            raise
        except Exception:
            self.metrics.counter("czar.queries.failed").add(1)
            with self._merge_lock:
                stats.query_status = "failed"
            raise
        finally:
            progress.finish()
            with self._merge_lock:
                stats.elapsed_seconds = time.perf_counter() - t0
            self.metrics.histogram("czar.query.seconds").observe(stats.elapsed_seconds)
        if stats.partial_result:
            obs_events.emit(
                "partial_result", sql=sql, chunks=sorted(stats.failed_chunks)
            )
        return QueryResult(table=result, stats=stats)

    # -- dispatch ----------------------------------------------------------------------

    def _dispatch_and_collect(
        self,
        specs: list[ChunkQuerySpec],
        stats: QueryStats,
        deadline: Optional[Deadline] = None,
        allow_partial: bool = False,
        parent_span=obs_trace.NOOP_SPAN,
        cancel: Optional[CancelToken] = None,
        progress=None,
    ) -> list[tuple[str, object, ChunkProfile]]:
        """Run both file transactions for every chunk query.

        A worker dying *between* accepting the chunk query and serving
        its result loses the result file; the czar re-dispatches the
        chunk under its :class:`RetryPolicy`, letting the redirector
        resolve to a surviving replica, with backoff between attempts
        and every wait bounded by the query deadline.  Collected
        payloads are validated (decoded) here, so wire corruption is
        caught while a re-read from a replica is still possible.
        Stragglers may additionally be hedged to a second replica.

        In ``binary`` mode each chunk query is sent with a
        ``-- RESULT_FORMAT: binary`` header asking the worker for wire
        bytes; ``sqldump`` mode sends the paper's exact text.  Returns
        decoded ``("binary", Table, profile)`` / ``("sqldump", text,
        profile)`` entries, where ``profile`` is the chunk's
        :class:`~repro.obs.profile.ChunkProfile` -- updated at exactly
        the points ``stats`` is, under the same lock, so EXPLAIN
        ANALYZE's per-chunk sums reconcile with the query totals by
        construction.
        """
        if self.wire_format == "binary":
            header = result_format_header("binary") + "\n"
        else:
            header = ""
        policy = self.retry_policy
        # One nonce per cancellable submission, shared by every retry
        # and hedge: /cancel/<H> writes carry it, so workers withdraw
        # exactly this submission's dispatches and a later re-run of
        # the identical SQL (same hash) is not refused on stale cancel
        # memory.  Excluded from query_hash, so the result path -- and
        # worker-side result caching -- is unchanged.
        cancel_nonce = uuid.uuid4().hex if cancel is not None else ""

        def build_text(spec: ChunkQuerySpec, attempt_span) -> str:
            # The deadline header carries the *remaining* budget at
            # dispatch time, so a retry hands the worker a tighter
            # wait; the trace header carries this attempt's span as the
            # remote parent for the worker-side spans.
            text = header
            if deadline is not None:
                text += deadline_header(deadline.remaining()) + "\n"
            if cancel_nonce:
                text += attempt_header(cancel_nonce) + "\n"
            if attempt_span.trace is not None:
                text += (
                    trace_header(attempt_span.trace.trace_id, attempt_span.span_id)
                    + "\n"
                )
            return text + spec.text

        def attempt_once(
            spec: ChunkQuerySpec,
            exclude=(),
            worker_box: Optional[list] = None,
            span=obs_trace.NOOP_SPAN,
            inflight: Optional[list] = None,
        ):
            """One full dispatch+collect+validate transaction pair."""
            with span:
                t0 = time.perf_counter()
                text = build_text(spec, span)
                worker = self.client.write_file(
                    query_path(spec.chunk_id), text, exclude=exclude, deadline=deadline
                )
                span.set(worker=worker)
                if worker_box is not None:
                    worker_box.append(worker)
                rpath = result_path(query_hash(text))
                if inflight is not None:
                    # Accepted by this worker: remember the (worker,
                    # result-hash) pair so a cancellation can withdraw
                    # the task.  Plain append -- lists are safe to
                    # append concurrently, and readers only run after
                    # the attempts are abandoned.
                    inflight.append((worker, rpath))
                data = self.client.read_file(
                    rpath, server_name=worker, deadline=deadline
                )
                try:
                    kind, payload = self._validate_payload(data)
                except _PayloadError as e:
                    e.server = worker
                    self.health.record_failure(worker)
                    raise
                elapsed = time.perf_counter() - t0
                self._observe_latency(elapsed)
                self.metrics.histogram("czar.chunk.seconds").observe(elapsed)
                span.set(bytes=len(data), format=kind)
                return worker, len(text.encode()), len(data), kind, payload, elapsed

        def attempt(
            spec: ChunkQuerySpec, dispatch_span, attempt_no: int, inflight, record
        ):
            """One logical attempt: bounded by the deadline, maybe hedged,
            unwound promptly when the cancel token fires."""
            hedge_delay = self._hedge_delay()
            if deadline is None and hedge_delay is None and cancel is None:
                primary_span = obs_trace.span(
                    "attempt",
                    parent=dispatch_span,
                    track="czar",
                    chunk=spec.chunk_id,
                    n=attempt_no,
                    kind="primary",
                )
                return attempt_once(spec, span=primary_span)
            pool = self._ensure_attempt_pool()
            primary_workers: list = []
            primary_span = obs_trace.span(
                "attempt",
                parent=dispatch_span,
                track="czar",
                chunk=spec.chunk_id,
                n=attempt_no,
                kind="primary",
            )
            primary = pool.submit(
                attempt_once, spec, (), primary_workers, primary_span, inflight
            )
            attempt_spans = {primary: primary_span}
            hedge_at = (
                time.monotonic() + hedge_delay if hedge_delay is not None else None
            )

            def abandon(futures_left):
                for f in futures_left:
                    f.add_done_callback(_swallow_future)
                    attempt_spans[f].cancel()

            futures = [primary]
            pending = set(futures)
            last: Optional[Exception] = None
            while pending:
                # The wait budget is the nearest of: the query deadline,
                # the hedge trigger, and the cancel poll interval.
                budget = deadline.remaining() if deadline is not None else None
                if hedge_at is not None and len(futures) == 1:
                    until_hedge = max(hedge_at - time.monotonic(), 0.0)
                    budget = (
                        until_hedge if budget is None else min(budget, until_hedge)
                    )
                if cancel is not None:
                    budget = 0.05 if budget is None else min(budget, 0.05)
                done, not_done = _futures_wait(
                    pending, timeout=budget, return_when=FIRST_COMPLETED
                )
                if cancel is not None and cancel.cancelled:
                    # Abandoned on purpose: the in-flight attempts are
                    # swallowed and their accepted chunk queries are
                    # withdrawn from the workers by the caller.
                    abandon(not_done)
                    raise QueryCancelledError(
                        f"chunk {spec.chunk_id}: query cancelled "
                        f"({cancel.reason or 'cancelled'})"
                    )
                if not done:
                    if deadline is not None and deadline.expired:
                        # Deadline hit with every attempt still in
                        # flight; abandon them (their exceptions are
                        # swallowed, and workers still evict unread
                        # results by refcount).
                        abandon(not_done)
                        raise ChunkTimeoutError(
                            f"chunk {spec.chunk_id}: no replica answered "
                            "within the query deadline"
                        )
                    if (
                        hedge_at is not None
                        and len(futures) == 1
                        and time.monotonic() >= hedge_at
                    ):
                        # Hedge trigger: the primary is slow, race a
                        # second attempt against it.
                        with self._merge_lock:
                            stats.chunks_hedged += 1
                            record.hedges += 1
                        obs_events.emit(
                            "hedge_fired",
                            chunk=spec.chunk_id,
                            delay=round(hedge_delay, 6),
                        )
                        hedge_span = obs_trace.span(
                            "attempt",
                            parent=dispatch_span,
                            track="czar",
                            chunk=spec.chunk_id,
                            n=attempt_no,
                            kind="hedge",
                        )
                        hedge = pool.submit(
                            attempt_once,
                            spec,
                            tuple(primary_workers),
                            None,
                            hedge_span,
                            inflight,
                        )
                        attempt_spans[hedge] = hedge_span
                        futures.append(hedge)
                        pending.add(hedge)
                    continue
                for f in done:
                    pending.discard(f)
                    try:
                        # reprolint: disable=deadline-threading -- f is done, no block
                        outcome = f.result()
                    except Exception as e:  # noqa: BLE001 - retried above
                        last = e
                        continue
                    abandon(pending)
                    if len(futures) > 1 and f is futures[1]:
                        with self._merge_lock:
                            stats.hedges_won += 1
                            record.hedges_won += 1
                        obs_events.emit("hedge_won", chunk=spec.chunk_id)
                    return outcome
            assert last is not None
            raise last

        def collect(spec: ChunkQuerySpec, dispatch_span, inflight, record):
            """Retry loop around :func:`attempt` for one chunk."""
            key = f"chunk-{spec.chunk_id}"
            last: Optional[Exception] = None
            for attempt_no in range(policy.max_attempts):
                if cancel is not None and cancel.cancelled:
                    raise QueryCancelledError(
                        f"chunk {spec.chunk_id}: query cancelled "
                        f"({cancel.reason or 'cancelled'})"
                    )
                if deadline is not None and deadline.expired:
                    raise ChunkTimeoutError(
                        f"chunk {spec.chunk_id}: query deadline expired "
                        f"after {attempt_no} attempt(s): {last}"
                    )
                if attempt_no:
                    # Stats and profile move together, under one lock:
                    # the identity "sum of per-chunk retries ==
                    # stats.chunks_retried" must hold even when the
                    # deadline expires during the backoff below (a
                    # retry that never produces an attempt span).
                    with self._merge_lock:
                        stats.chunks_retried += 1
                        record.retries += 1
                    obs_events.emit(
                        "chunk_retry",
                        chunk=spec.chunk_id,
                        attempt=attempt_no,
                        error=str(last),
                    )
                    if not policy.sleep_before(attempt_no, key, deadline):
                        raise ChunkTimeoutError(
                            f"chunk {spec.chunk_id}: query deadline expired "
                            f"during backoff: {last}"
                        )
                with self._merge_lock:
                    record.attempts = attempt_no + 1
                try:
                    return attempt(spec, dispatch_span, attempt_no, inflight, record)
                except QueryCancelledError:
                    raise
                except ChunkTimeoutError:
                    raise
                except _RETRYABLE as e:
                    last = e
                    # The accepting worker is suspect; invalidate its
                    # cached location so the next attempt re-resolves
                    # through the surviving replicas.
                    self.client.redirector.invalidate(query_path(spec.chunk_id))
                    if self.repair is not None:
                        # A retryable failure is evidence a replica just
                        # died: restore the chunk's replication before
                        # the next attempt, so the replica set is back
                        # at target while this query is still running.
                        try:
                            if self.repair.ensure_chunk(spec.chunk_id):
                                obs_events.emit(
                                    "chunk_repaired_midquery",
                                    chunk=spec.chunk_id,
                                    attempt=attempt_no,
                                )
                        except Exception as repair_error:  # noqa: BLE001
                            # Advisory path: a broken repair must not
                            # mask the dispatch error the retry loop is
                            # handling.  Recorded, not swallowed.
                            obs_events.emit(
                                "repair_error",
                                chunk=spec.chunk_id,
                                error=str(repair_error),
                            )
            if deadline is not None and deadline.expired:
                raise ChunkTimeoutError(
                    f"chunk {spec.chunk_id}: query deadline expired "
                    f"after {policy.max_attempts} attempts: {last}"
                )
            raise QueryError(
                f"chunk {spec.chunk_id} failed after "
                f"{policy.max_attempts} attempts: {last}"
            )

        def one(spec: ChunkQuerySpec):
            dispatch_span = obs_trace.span(
                "dispatch", parent=parent_span, track="czar", chunk=spec.chunk_id
            )
            record = ChunkProfile(
                chunk_id=spec.chunk_id, subchunks=max(len(spec.sub_chunk_ids), 0)
            )
            with self._merge_lock:
                stats.chunk_profiles.append(record)
            # (worker, result-hash) pairs accepted during this chunk's
            # attempts; consulted only for cancellation withdrawal.
            inflight: list[tuple[str, str]] = []
            try:
                with dispatch_span:
                    worker, sent, received, kind, payload, seconds = collect(
                        spec, dispatch_span, inflight, record
                    )
            except QueryCancelledError:
                self.metrics.counter("czar.chunks.cancelled").add(1)
                self._withdraw_chunk_queries(inflight, cancel_nonce)
                with self._merge_lock:
                    stats.failed_chunks.append(spec.chunk_id)
                    record.status = "cancelled"
                raise
            except QueryError as e:
                timed_out = isinstance(e, ChunkTimeoutError)
                if timed_out:
                    obs_events.emit("chunk_timeout", chunk=spec.chunk_id)
                with self._merge_lock:
                    if timed_out:
                        stats.chunks_timed_out += 1
                    stats.failed_chunks.append(spec.chunk_id)
                    record.status = "timeout" if timed_out else "failed"
                    if allow_partial:
                        stats.partial_result = True
                self.metrics.counter("czar.chunks.failed").add(1)
                if allow_partial:
                    return None
                e.stats = stats
                e.failed_chunks = [spec.chunk_id]
                raise
            self.metrics.counter(f"czar.bytes.collected.{kind}").add(received)
            with self._merge_lock:
                stats.chunks_dispatched += 1
                stats.sub_chunk_statements += max(len(spec.sub_chunk_ids), 0)
                stats.bytes_dispatched += sent
                stats.bytes_collected += received
                stats.workers_used.add(worker)
                record.worker = worker
                record.bytes_sent = sent
                record.bytes_received = received
                record.seconds = seconds
                record.status = "ok"
            if progress is not None:
                progress.chunk_done(received)
            return kind, payload, record

        # Single read: close() nulls _pool from another thread, and a
        # check-then-use pair would race it (None between the two reads).
        pool = self._pool
        if pool is None or len(specs) <= 1:
            collected = [one(s) for s in specs]
        else:
            collected = list(pool.map(one, specs))
        return [entry for entry in collected if entry is not None]

    def _withdraw_chunk_queries(
        self, inflight: list[tuple[str, str]], nonce: str = ""
    ) -> None:
        """Best-effort ``/cancel/<H>`` writes for accepted chunk queries.

        Frees worker slots a cancelled query would otherwise consume:
        queued tasks are discarded without executing, in-flight results
        are dropped at completion.  The payload carries this
        submission's nonce, scoping the withdrawal so a later re-run of
        the same SQL is not refused.  Failures are recorded as events --
        the worker may be dead, which cancels the work even harder.
        """
        for worker, rpath in inflight:
            path = cancel_path(rpath[len(RESULT_PREFIX) :])
            try:
                server = self.client.redirector.server(worker)
                with server.open(path, "w") as fh:
                    fh.write(nonce.encode())
            except Exception as e:  # noqa: BLE001 - advisory withdrawal
                obs_events.emit(
                    "cancel_notify_failed", worker=worker, error=str(e)
                )

    @staticmethod
    def _validate_payload(data: bytes) -> tuple[str, object]:
        """Decode one collected payload, surfacing corruption as retryable.

        Wire-magic payloads must decode into a table; anything else
        must at least be valid text (a legacy mysqldump stream).  A
        failure here means the bytes were damaged in flight or at rest,
        and the chunk is re-dispatched so a clean replica can answer.
        """
        if is_wire_payload(data):
            try:
                # Zero-copy decode: columns are read-only views over the
                # response buffer; the merge's Table.concat reads them
                # directly and allocates only the concatenated output.
                return "binary", decode_table(data, copy=False)
            except Exception as e:
                raise _PayloadError(f"corrupt binary result payload: {e}") from e
        try:
            return "sqldump", data.decode()
        except UnicodeDecodeError as e:
            raise _PayloadError(f"undecodable result payload: {e}") from e

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
        self,
        merge_db: Database,
        payloads: list[tuple[str, object, object]],
        stats: QueryStats,
    ) -> Optional[str]:
        """Build the merge table from decoded chunk payloads in one pass.

        Payloads were already decoded (and thereby validated) during
        collection: ``("binary", Table, profile)`` entries are wire
        decodes, ``("sqldump", text, profile)`` entries are legacy
        mysqldump streams replayed through the SQL engine
        (mixed-version clusters).  All chunk tables are then
        concatenated with one ``np.concatenate`` per column instead of
        per-chunk appends.  Each chunk's merged row count lands on its
        :class:`~repro.obs.profile.ChunkProfile` here -- the *same*
        numbers summed into ``stats.rows_merged``, so EXPLAIN ANALYZE
        never double-counts.
        """
        merge_name = f"{_MERGE_TABLE}_{next(self._merge_counter)}"
        tables: list[Table] = []
        profiled: list[tuple] = []
        binary = legacy = 0
        for entry in payloads:
            # Accept bare (kind, payload) pairs too: direct callers of
            # the merge helper (tests, mixed-version tooling) hand over
            # _validate_payload output with no profile attached.
            kind, payload = entry[0], entry[1]
            record = entry[2] if len(entry) > 2 else None
            if kind == "binary":
                table = payload
                binary += 1
            else:
                loaded_name = load_dump(merge_db, payload)
                table = merge_db.get_table(loaded_name)
                merge_db.drop_table(loaded_name)
                legacy += 1
            tables.append(table)
            if record is not None:
                profiled.append((record, table.num_rows, kind))
        with self._merge_lock:
            for record, num_rows, kind in profiled:
                record.rows = num_rows
                record.wire_format = kind
            if binary and legacy:
                stats.wire_format = "mixed"
            elif binary:
                stats.wire_format = "binary"
            elif legacy:
                stats.wire_format = "sqldump"
            stats.rows_merged += sum(t.num_rows for t in tables)
        if not tables:
            return None
        merged = Table.concat(merge_name, tables)
        merge_db.create_table(merged, overwrite=True)
        return merge_name
