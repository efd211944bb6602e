"""The Qserv worker: an Xrootd ofs plugin around a local SQL engine.

Chunk queries arrive as writes to ``/query2/<chunkId>`` (section 5.4).
The worker reads the comment headers, prepares each statement (parsing
it only if it has not seen its shape before), materializes the
sub-chunk tables the statements name on the fly from its chunk tables
(the rows ``CREATE TABLE Object_713_45 AS SELECT ... WHERE subChunkId =
45`` would select), executes the statements against its local engine,
dumps the combined result with the mysqldump equivalent, and publishes
the bytes at ``/result/<md5-of-query>`` for the master to read.

Queueing follows section 6.4: each worker keeps a FIFO queue served by
a fixed number of execution slots (the paper's cluster ran 4 per node)
and has *no concept of query cost*, which is exactly why long queries
hog the system in Figure 14.  An inline mode (slots=0) executes
synchronously inside ``on_write`` for deterministic tests.
"""

from __future__ import annotations

import re
import threading
import time
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from ..analysis.races import track_shared
from ..analysis.sanitizer import make_condition, make_lock, make_rlock
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..sql import Database, RowView, SqlError, Table, ast, dump_table
from ..sql.engine import ResultTable
from ..sql.kernels import KernelKey
from ..sql.parser import ParseError, parse
from ..sql.shapes import ShapeCache, Template, scan
from ..sql.wire import decode_table, encode_table, encode_tables_parts
from ..xrd import OfsPlugin
from ..xrd.filesystem import FileSystemError
from ..xrd.protocol import (
    CANCEL_PREFIX,
    CHUNK_PREFIX,
    MANIFEST_PREFIX,
    QUERY_PREFIX,
    RESULT_PREFIX,
    ChunkRequest,
    MemberAnswer,
    chunk_id_of_manifest_path,
    chunk_id_of_query_path,
    encode_answer,
    hash_of_cancel_path,
    render_member,
    result_path,
    table_of_chunk_path,
)
from .rewrite import chunk_table_name, parse_table_name

__all__ = [
    "QservWorker",
    "WorkerStats",
    "WorkerShutdownError",
    "WorkerCancelledError",
]

# The ids of chunk and sub-chunk table names (Object_713, Object_713_45)
# wherever they end a word of statement text:
# chunk id and sub-chunk id (or None).  Anchored on the underscore, not
# on the start of the word, so the scan skips from one to the next.
_IDS_IN_TEXT_RE = re.compile(r"_(?<=\w_)(\d+)(?:_(\d+))?\b")

# Prepared chunk statements kept per worker (LRU), like KernelCache's 256.
_PREPARED_CAPACITY = 256

# The key of a batch's plan in its ``repeats``: the statement its first
# member ran by the plan, whose later members the plan answers.
_PLAN = object()

_RESULT_TABLE = "chunk_result"

_NO_ROWS = np.empty(0, dtype=np.intp)

# Error recorded against every result a shutdown abandons.
_SHUTDOWN_MESSAGE = "worker is shut down"

# Error recorded against a result withdrawn through /cancel/<H>.
_CANCELLED_MESSAGE = "chunk query cancelled by master"

# Error recorded against a result whose every reader's budget ran out first.
_EXPIRED_MESSAGE = "deadline expired before execution"

# Cancelled result hashes remembered (with the withdrawn submissions'
# attempt nonces), so a late-arriving dispatch of a withdrawn
# submission is discarded instead of executed.  LRU-capped: when a
# hash rotates out, its result record goes with it.
_CANCEL_MEMORY = 4096

# Upper bound, in seconds, a result read blocks waiting for in-flight
# execution.  A chunk query carrying a ``-- DEADLINE:`` header tightens
# the wait further, so a hung executor surfaces to the master as a
# missing result within the query's budget instead of deadlocking the
# read.
_RESULT_WAIT_TIMEOUT = 300.0


class _Task(NamedTuple):
    """One accepted write -- a chunk query, or a batch of them -- on its
    way to an execution slot: one queue entry, one slot, one result."""

    rpath: str
    #: ``(chunk id, sub-chunk ids)`` per member, run back to back: a
    #: batch's, or the one chunk query's, about the chunk of its path.
    members: tuple
    #: What was written: the headers, and the chunk query or the
    #: batch's template.
    request: ChunkRequest
    #: ``perf_counter`` at acceptance; the FIFO wait is measured from it.
    enqueued: float


class _Result:
    """Everything the worker holds about one ``/result/H`` path."""

    __slots__ = ("payload", "error", "ready", "deadline", "owed")

    def __init__(self):
        self.payload: Optional[bytes] = None  # the published bytes, once produced
        self.error: Optional[str] = None  # what a read raises instead
        self.ready = threading.Event()
        # Absolute monotonic time bounding the on_read wait, from the
        # -- DEADLINE: budgets of the dispatches that share this path:
        # the latest-expiring one (none at all is latest), so a tighter
        # dispatch never cuts another's reader short.
        self.deadline = 0.0
        # Reads still owed; with cache_results=False the record is
        # evicted when the last expected reader has read it.
        self.owed = 0


class WorkerShutdownError(SqlError):
    """The worker shut down before (or while) producing this result.

    Distinguished from ordinary :class:`SqlError` because the master
    may safely re-dispatch the chunk to a surviving replica -- the
    query itself is not at fault.
    """


class WorkerCancelledError(SqlError):
    """This result was withdrawn through the ``/cancel/<H>`` protocol.

    A master normally never reads a result it cancelled; this surfaces
    when a blocked result read races the cancellation, or when a
    dispatch is refused on remembered cancel state.  A master whose own
    cancel token has *not* fired may safely retry: the refusal then
    stems from a different (withdrawn) submission of the same SQL, and
    a re-dispatch carrying the live submission's nonce executes.
    """


@dataclass
class WorkerStats:
    """Execution counters, for tests and the benchmark harness.

    ``results_evicted``, ``queries_cancelled`` and ``queries_expired``
    are the worker's ``worker.results.evicted``,
    ``worker.queries.cancelled`` and ``worker.queries.expired`` counters,
    read; the rest are plain fields.
    """

    metrics: obs_metrics.Registry = field(repr=False)
    queries_executed: int = 0
    statements_executed: int = 0
    sub_chunk_tables_built: int = 0
    sub_chunk_cache_hits: int = 0
    result_cache_hits: int = 0
    result_rows: int = 0
    queue_high_water: int = 0

    @property
    def results_evicted(self) -> int:
        return self.metrics.counter("worker.results.evicted").value

    @property
    def queries_cancelled(self) -> int:
        return self.metrics.counter("worker.queries.cancelled").value

    @property
    def queries_expired(self) -> int:
        return self.metrics.counter("worker.queries.expired").value


# Stands in for a chunk or sub-chunk id in an id-free statement text;
# no statement that lexes has it outside a string or comment.
_ANY_ID = "@"
# A chunk-table name in an id-free text, and its ids' marks alone.
_ID_FREE_TABLE_RE = re.compile(rf"\w+?_{_ANY_ID}(?:_{_ANY_ID})?")
_ID_MARK = "_" + _ANY_ID
_ID_MARKS_RE = re.compile(rf"{_ID_MARK}(?:{_ID_MARK})?")


def _cut_statements(body: str) -> list[tuple]:
    """``(blanked text, ids)`` per statement of ``body``, from one cut of all its ids.

    The blanked text is the statement with the ids of its chunk-table
    names replaced by ``_ANY_ID``; ``ids`` are ``(chunk ids, sub-chunk
    ids or None)`` of its names, as text, in order (:func:`_restore`
    puts them back) -- or None, with the text as it is, when ``body``
    holds ``_ANY_ID`` itself.  A sub-chunk query is one or two texts about
    many sub-chunks: one pass over it beats one per statement.
    """
    if _ANY_ID in body:
        return [(text, None) for text in map(str.strip, _split_statements(body)) if text]
    # [text, chunk id, sub-chunk id or None, text, ...]
    pieces = _IDS_IN_TEXT_RE.split(body)
    chunks, subs = pieces[1::3], pieces[2::3]
    pieces[1::3] = [_ID_MARK] * len(chunks)
    pieces[2::3] = ["" if sub is None else _ID_MARK for sub in subs]
    texts = [s for s in map(str.strip, _split_statements("".join(pieces))) if s]
    if len(texts) == 1:
        return [(texts[0], (chunks, subs))]
    cut, at, names_in = [], 0, {}
    for blanked in texts:
        names = names_in.get(blanked)
        if names is None:
            names = names_in[blanked] = len(_ID_MARKS_RE.findall(blanked))
        cut.append((blanked, (chunks[at:at + names], subs[at:at + names])))
        at += names
    return cut


def _restore(blanked: str, found) -> str:
    """The statement text :func:`_cut_statements` made ``(blanked, found)`` of."""
    if found is None:
        return blanked
    names = iter("".join("_" + i for i in ids if i is not None) for ids in zip(*found))
    return _ID_MARKS_RE.sub(lambda _: next(names), blanked)


@dataclass(slots=True)
class _Prepared:
    """One statement text of a chunk query, bound; its repeats only name tables."""

    #: The bound statement; *which* tables it names is not to be relied on.
    stmt: ast.Statement
    kernel_key: Optional[KernelKey]
    #: The text minus its chunk-table names: statements alike in it are
    #: one statement about different tables.  None for a statement that
    #: was parsed in full, which is alike to nothing.
    shape: Optional[str]
    #: Per FROM table, ``(base, is a sub-chunk table)`` of a chunk
    #: table and the plain name of any other.
    refs: tuple
    #: The batch's plan for a chunk query that is this one SELECT, which
    #: ``Database.execute_family`` fills on the first member: the kernel
    #: that answered it (or the compiler's decline) and the signatures
    #: of the tables it ran on.  None until then.
    kernel: object = None
    signatures: tuple = ()

    @property
    def plannable(self) -> bool:
        """Whether a batch's plan may answer a chunk query that is this one statement.

        Prepared from its shape (so about other tables by their names
        alone), with kernels on, and with no sub-chunk table to build.
        """
        return (
            self.shape is not None
            and self.kernel_key is not None
            and not any(type(ref) is tuple and ref[1] for ref in self.refs)
        )

    def about(self, names: tuple) -> ast.Select:
        """The statement about the FROM tables ``names`` in place of its own."""
        stmt = self.stmt
        return replace(stmt, tables=tuple(replace(r, table=n) for r, n in zip(stmt.tables, names)))

    def names(self, ids: tuple) -> tuple:
        """The FROM table names of the statement about ``ids``."""
        chunk, sub = ids
        return tuple(
            ref
            if type(ref) is str
            else f"{ref[0]}_{chunk}_{sub}"
            if ref[1]
            else f"{ref[0]}_{chunk}"
            for ref in self.refs
        )


def _parsed_in_full(stmt: ast.Statement, kernel_key) -> tuple:
    """``(prepared statement, FROM table names)`` of a statement taken as it is."""
    refs = stmt.tables if isinstance(stmt, ast.Select) else ()
    return _Prepared(stmt, kernel_key, None, ()), tuple(ref.table for ref in refs)


# A statement of a chunk-query body: up to a ';' outside strings and
# quoted names (the lexer's rules; a quote that never closes is left
# for the parser to report).
_STATEMENT_RE = re.compile(
    r"""(?:[^;'"`]+|'(?:[^'\\]|\\.|'')*'|"(?:[^"\\]|\\.|"")*"|`[^`]*`|['"`])+""",
    re.DOTALL,
)


def _split_statements(body: str) -> list[str]:
    """The ';'-separated statements of ``body``, quotes respected."""
    parts = body.split(";")
    if "'" in body or '"' in body or "`" in body:
        # With one kind of quote and no escape, a split inside quotes
        # leaves a part with an odd number of them (a doubled quote is two).
        kinds = [q for q in "'\"`" if q in body]
        if len(kinds) > 1 or "\\" in body or any(p.count(kinds[0]) % 2 for p in parts):
            return _STATEMENT_RE.findall(body)
    return parts


def _rows_by_sub_chunk(table: Table) -> dict:
    """Sub-chunk id -> its rows of ``table``, in the table's order.

    Slices of one stable sort by ``subChunkId``, so a ``Base_CC_SS``
    view costs a dict lookup (:meth:`QservWorker._acquire_sub_chunks`).
    """
    order = np.argsort(table.column("subChunkId"), kind="stable")
    ids, starts = np.unique(table.column("subChunkId")[order], return_index=True)
    # Half the bytes of intp, for every chunk table a worker holds.
    rows = order.astype(np.int32) if len(order) < 2**31 else order
    return dict(zip(ids.tolist(), np.split(rows, starts[1:])))


@track_shared("_results", "_cancelled", "_sub_chunk_refs")
class QservWorker(OfsPlugin):
    """One worker node: local database + ofs plugin + FIFO queue.

    Parameters
    ----------
    name:
        Node name (also the Xrootd data-server name).
    db:
        The local engine holding this node's chunk tables.
    slots:
        Parallel execution slots.  0 means inline execution during
        ``on_write`` (deterministic; the default for tests).  Values
        >= 1 start that many daemon threads serving the FIFO queue.
    cache_sub_chunks:
        Keep generated sub-chunk tables for reuse.  The paper's
        implementation "does not cache them"; caching is the documented
        extension, so the default is off.
    cache_results:
        Serve repeated identical chunk queries from the stored result
        (the MySQL-query-cache effect behind the paper's HV1/HV3 "its
        result was cached" observations).  Safe here because the
        catalog is read-only ("Support for updates has not been
        implemented"); off by default to mirror uncached measurements.
    store:
        Optional :class:`~repro.sql.colstore.ColumnStore`.  When set,
        chunk tables installed over the wire (repair copies, loader
        pushes) are persisted to disk and registered as mmap-backed
        tables, so this worker can host chunk data far larger than its
        residency budget.  ``None`` (default) keeps the paper-era
        all-in-RAM behaviour.
    """

    def __init__(
        self,
        name: str,
        db: Database | None = None,
        slots: int = 0,
        cache_sub_chunks: bool = False,
        cache_results: bool = False,
        store=None,
    ):
        if slots < 0:
            raise ValueError("slots must be >= 0")
        self.name = name
        self.db = db or Database("LSST")
        self.store = store
        self.cache_sub_chunks = cache_sub_chunks
        self.cache_results = cache_results
        #: This worker's lifetime metrics, feeding the global registry;
        #: what every chunk query touches is resolved here, once.
        self.metrics = obs_metrics.Registry(parent=obs_metrics.REGISTRY)
        self.stats = WorkerStats(self.metrics)
        self._execute_seconds = self.metrics.histogram("worker.execute.seconds")
        self._dump_seconds = self.metrics.histogram("worker.dump.seconds")
        self._queries = self.metrics.counter("worker.queries")
        self._result_bytes = self.metrics.counter("worker.result.bytes")
        self._results_evicted = self.metrics.counter("worker.results.evicted")
        self._queries_cancelled = self.metrics.counter("worker.queries.cancelled")
        self._queries_expired = self.metrics.counter("worker.queries.expired")
        self._queue_wait = self.metrics.histogram("worker.queue.wait.seconds")
        self._queue_depth = self.metrics.gauge(f"worker.queue.depth.{name}")
        # One record per result path; evicting a result is one pop.
        self._results: dict[str, _Result] = {}
        # Result paths withdrawn via /cancel/<H> mapped to the set of
        # withdrawn submissions' attempt nonces, LRU-capped: a queued
        # task of a withdrawn submission is discarded at dequeue, its
        # in-flight result is dropped at completion, and its late
        # dispatch is refused outright.  A dispatch carrying a *fresh*
        # nonce (a new submission of the same SQL) is never refused.
        self._cancelled: OrderedDict[str, set] = OrderedDict()
        self._lock = make_rlock("QservWorker._lock")
        self._queue: deque[_Task] = deque()
        self._queue_cv = make_condition(self._lock, "QservWorker._queue_cv")
        # Sub-chunk tables are shared across concurrent queries on the
        # same chunk; refcounts keep one query from dropping a table
        # another is still scanning.
        self._build_lock = make_lock("QservWorker._build_lock")
        self._sub_chunk_refs: dict[str, int] = {}
        # Chunk table object -> (its rows then, _rows_by_sub_chunk of it):
        # cut once per table, gone with it; a replacement is cut afresh.
        self._sub_chunk_rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # Prepared chunk statements by shape (see _prepare), LRU.
        self._prepared = ShapeCache(_PREPARED_CAPACITY)
        self.slots = slots
        self._threads: list[threading.Thread] = []
        self._shutdown = False
        for i in range(slots):
            t = threading.Thread(
                target=self._serve, name=f"{name}-slot{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    # -- ofs plugin interface --------------------------------------------------------

    def claims(self, path: str) -> bool:
        return path.startswith(
            (QUERY_PREFIX, RESULT_PREFIX, CHUNK_PREFIX, MANIFEST_PREFIX, CANCEL_PREFIX)
        )

    def on_write(self, path: str, data: bytes) -> None:
        if path.startswith(CHUNK_PREFIX):
            self._install_chunk_table(path, data)
            return
        if path.startswith(CANCEL_PREFIX):
            self._cancel_result(
                result_path(hash_of_cancel_path(path)), data.decode().strip()
            )
            return
        text = data.decode()
        try:
            request = ChunkRequest.decode(text)
        except ValueError as e:
            # Refused as a failed file transaction, like an undecodable
            # chunk table: the master re-dispatches, nothing half-runs.
            raise FileSystemError(f"chunk query batch failed to decode: {e}") from e
        members = request.members or ((chunk_id_of_query_path(path), ()),)
        rpath = result_path(request.result_hash)
        task = _Task(rpath, members, request, time.perf_counter())
        with self._lock:
            withdrawn = self._cancelled.get(rpath)
            if withdrawn is not None and request.attempt in withdrawn:
                # The master withdrew this submission before (or while)
                # the dispatch landed; refuse it with the typed error so
                # a racing result read is released, and never execute.
                self._refuse_locked(rpath, _CANCELLED_MESSAGE)
                return
            record = self._results.get(rpath)
            if record is not None and record.error == _CANCELLED_MESSAGE:
                # Same hash, different submission: an earlier submission
                # of this SQL was cancelled, but *this* dispatch is a
                # fresh one and must execute.  Clear the old cancel's
                # terminal state so it cannot poison the fresh result
                # (the cancel memory itself is kept -- late duplicates
                # of the withdrawn submission are still refused).
                record.error = None
                if record.ready.is_set():
                    record.ready = threading.Event()
            if self._shutdown:
                # A dispatch raced our shutdown; fail it immediately so
                # the master's read is released with an error instead
                # of blocking on a result that will never be produced.
                self._refuse_locked(rpath, _SHUTDOWN_MESSAGE)
                return
            if (
                self.cache_results
                and record is not None
                and record.payload is not None
                and record.error is None
            ):
                # Query-cache hit: the stored dump answers the repeat.
                self.stats.result_cache_hits += len(members)
                record.ready.set()
                return
            record = self._record_locked(rpath)
            budget = request.deadline
            record.deadline = max(
                record.deadline,
                float("inf") if budget is None else time.monotonic() + budget,
            )
            if not self.cache_results:
                record.owed += 1
        if self.slots == 0:
            self._run_task(task)
        else:
            with self._queue_cv:
                self._queue.append(task)
                self.stats.queue_high_water = max(
                    self.stats.queue_high_water, len(self._queue)
                )
                depth = len(self._queue)
                self._queue_cv.notify()
            self._queue_depth.set(depth)

    def _record_locked(self, rpath: str) -> _Result:
        record = self._results.get(rpath)
        if record is None:
            record = self._results[rpath] = _Result()
        return record

    def _refuse_locked(self, rpath: str, message: str) -> None:
        """Fail a dispatch on arrival: its reader is owed ``message``, nothing runs."""
        record = self._record_locked(rpath)
        record.error = message
        if not self.cache_results:
            record.owed += 1
        record.ready.set()

    def on_read(self, path: str):
        """Result bytes, blocking on in-flight execution in threaded mode.

        Without ``cache_results`` the result, error, and readiness
        entries are evicted once the master has read them -- a
        long-lived worker must not grow its result store unboundedly
        across queries (the bytes were only ever needed for this one
        transfer).
        """
        if path.startswith(CHUNK_PREFIX):
            return self._dump_chunk_table(path)
        if path.startswith(MANIFEST_PREFIX):
            return self._chunk_manifest(path)
        with self._lock:
            record = self._results.get(path)
            if record is None:
                return None
            ready, deadline = record.ready, record.deadline
        timeout = min(_RESULT_WAIT_TIMEOUT, max(deadline - time.monotonic(), 0.0))
        if not ready.wait(timeout=timeout):
            return None
        with self._lock:
            # Looked up again: the last owed read (or a cancel rotating
            # out) may have evicted the record while this reader waited.
            record = self._results.get(path)
            if record is None:
                return None
            if record.error is not None:
                message = record.error
                self._done_reading_locked(path, record)
                if message == _SHUTDOWN_MESSAGE:
                    raise WorkerShutdownError(f"worker {self.name}: {message}")
                if message == _CANCELLED_MESSAGE:
                    raise WorkerCancelledError(f"worker {self.name}: {message}")
                raise SqlError(f"worker {self.name}: {message}")
            if record.payload is not None:
                self._done_reading_locked(path, record)
            return record.payload

    def _done_reading_locked(self, path: str, record: _Result) -> None:
        """One owed read served; evict at zero (caller holds the lock)."""
        if self.cache_results:
            return
        record.owed -= 1
        if record.owed > 0:
            return
        self._results.pop(path, None)
        self._results_evicted.add(1)

    # -- queue service ------------------------------------------------------------------

    def _serve(self):
        while True:
            with self._queue_cv:
                while not self._queue and not self._shutdown:
                    self._queue_cv.wait()
                if self._shutdown:
                    return
                task = self._queue.popleft()
                depth = len(self._queue)
            # Time spent sitting in the FIFO before a slot picked the
            # task up: the queue-wait column of EXPLAIN ANALYZE and the
            # saturation signal SHOW HISTORY charts.
            queue_wait = max(time.perf_counter() - task.enqueued, 0.0)
            self._queue_depth.set(depth)
            self._queue_wait.observe(queue_wait)
            self._run_task(task, queue_wait)

    def shutdown(self, timeout: float = 5.0):
        """Stop serving; release every blocked reader with an error.

        Results still pending (queued but never executed, or in flight
        on a slot that will not finish) must not leave the master
        blocked on the result-ready wait: each unset event is failed
        with a typed error and set, so ``on_read`` returns promptly.
        """
        pending = 0
        with self._queue_cv:
            self._shutdown = True
            self._queue.clear()
            # Fail every result nobody has produced yet.
            for record in self._results.values():
                if not record.ready.is_set():
                    if record.error is None:
                        record.error = _SHUTDOWN_MESSAGE
                    record.ready.set()
                    pending += 1
            self._queue_cv.notify_all()
        obs_events.emit("worker_shutdown", worker=self.name, pending=pending)
        for t in self._threads:
            t.join(timeout=timeout)

    def queue_length(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- cancellation --------------------------------------------------------------

    def _cancel_result(self, rpath: str, nonce: str = "") -> None:
        """Withdraw one submission's result path (the ``/cancel/<H>`` write).

        ``nonce`` is the withdrawn submission's ``-- ATTEMPT:`` value
        (empty for header-less dispatches); cancellation is scoped to
        it.  Frees the execution slot a queued task of that submission
        would have consumed, releases any reader blocked on the
        result-ready event with a typed error, and remembers the
        (hash, nonce) pair so an in-flight execution's payload is
        dropped at completion and a late re-dispatch of the *same*
        submission is refused -- while a fresh submission of identical
        SQL executes normally.  Idempotent.
        """
        dropped_from_queue = False
        with self._queue_cv:
            self._remember_cancel_locked(rpath, nonce)
            for i, task in enumerate(self._queue):
                if task.rpath == rpath and task.request.attempt == nonce:
                    del self._queue[i]
                    dropped_from_queue = True
                    break
            record = self._record_locked(rpath)
            record.error = _CANCELLED_MESSAGE
            record.payload = None
            record.ready.set()
        self._queries_cancelled.add(1)
        obs_events.emit(
            "chunk_cancelled",
            worker=self.name,
            path=rpath,
            queued=dropped_from_queue,
        )

    def _remember_cancel_locked(self, rpath: str, nonce: str) -> None:
        """Record a cancelled (hash, nonce); purge the oldest past the cap.

        A cancelled result is normally never read, so its record has no
        refcounted eviction path; it is reclaimed here when the hash
        rotates out of the bounded cancel memory instead.
        """
        nonces = self._cancelled.get(rpath)
        if nonces is None:
            nonces = self._cancelled[rpath] = set()
        nonces.add(nonce)
        self._cancelled.move_to_end(rpath)
        while len(self._cancelled) > _CANCEL_MEMORY:
            stale, _ = self._cancelled.popitem(last=False)
            self._results.pop(stale, None)

    def _refusal_locked(self, task: _Task) -> Optional[str]:
        """Why ``task`` must not execute (any further), if it must not."""
        if self._shutdown:
            return _SHUTDOWN_MESSAGE
        if task.request.attempt in self._cancelled.get(task.rpath, ()):
            # This submission was withdrawn (counted by _cancel_result).
            # A same-hash task from a *different* submission runs
            # normally.
            return _CANCELLED_MESSAGE
        record = self._results.get(task.rpath)
        if record is not None and time.monotonic() >= record.deadline:
            # The whole budget of every query owed this result has
            # elapsed; the master has already timed out, so executing
            # now would only burn the slot.  Same monotonic clock, and
            # the worker's deadline is never earlier than the master's,
            # so this can only fire after the master gave up.
            return _EXPIRED_MESSAGE
        return None

    def _note_refused(self, task: _Task, refusal: str, members: list) -> None:
        """Account for ``members`` of ``task`` that were never executed."""
        if refusal != _EXPIRED_MESSAGE:
            return
        self._queries_expired.add(len(members))
        for chunk_id, _ in members:
            obs_events.emit("chunk_expired", worker=self.name, chunk=chunk_id)

    def _run_task(self, task: _Task, queue_wait: float = 0.0):
        with self._lock:
            refusal = self._refusal_locked(task)
            if refusal is not None:
                self._publish_locked(task, error=refusal)
        if refusal is not None:
            self._note_refused(task, refusal, task.members)
            return
        self._execute_task(task, queue_wait)

    def _execute_task(self, task: _Task, queue_wait: float = 0.0):
        """Run the members back to back and publish one result.

        A member's failure is its own: its index entry says whether
        another replica may do better (this worker stopped, or does not
        hold the chunk) or the chunk query is at fault.  A write that
        was no batch publishes as the paper's protocol does -- the bare
        payload, or the error the read raises.
        """
        members, request = task.members, task.request
        # Trace context, if the master propagated any: the ``-- TRACE:``
        # header names the dispatching attempt's span, so the execute
        # and dump spans recorded here parent under it -- correctly per
        # attempt, even across retries and hedged duplicates.  A trace
        # id unknown to the in-process collector (tracing sampled this
        # query out) degrades the spans to no-ops.
        query_trace = parent_span_id = None
        if request.trace is not None:
            query_trace = obs_trace.lookup(request.trace[0])
            parent_span_id = request.trace[1]
        batch = bool(request.members)
        # The members differ in their chunk ids alone: the first is
        # scanned, bound and planned, the others only name their tables.
        repeats: dict = {}
        entries: list[MemberAnswer] = []
        tables: list[Table] = []
        for i, (chunk_id, _) in enumerate(members):
            if i:
                if self.slots:
                    # Between members a slot gives way, as it did between
                    # queue entries when every chunk query was one: a
                    # scan's batch must not keep an interactive query's
                    # threads waiting out the interpreter's whole switch
                    # interval at each hand-off.  An inline worker runs
                    # on its caller's thread, which serves nobody else.
                    time.sleep(0)
                with self._lock:
                    refusal = self._refusal_locked(task)
                if refusal is not None:
                    self._note_refused(task, refusal, members[i:])
                    entries += [
                        MemberAnswer(c, "retryable", 0.0, 0, refusal) for c, _ in members[i:]
                    ]
                    break
            t0 = time.perf_counter()
            try:
                with obs_trace.span(
                    "worker.execute",
                    trace=query_trace,
                    parent_id=parent_span_id,
                    track=self.name,
                    worker=self.name,
                    chunk=chunk_id,
                    queue_wait=round(queue_wait, 6),
                ) as execute_span:
                    result = self.execute_chunk_query(chunk_id, request, repeats)
                    rows = result.num_rows
                    execute_span.set(rows=rows)
            except Exception as e:  # surfaced to the master on read
                self.metrics.counter("worker.errors").add(1)
                # A chunk this worker does not hold is no fault of the query's.
                status = "sql-error" if self.chunk_tables(chunk_id) else "retryable"
                seconds = time.perf_counter() - t0
                entries.append(MemberAnswer(chunk_id, status, seconds, 0, str(e)))
                continue
            seconds = time.perf_counter() - t0
            self._execute_seconds.observe(seconds)
            entries.append(MemberAnswer(chunk_id, "ok", seconds, rows))
            tables.append(result)
        fmt = "binary" if batch else request.result_format
        payload = error = None
        if batch or tables:
            t0 = time.perf_counter()
            with obs_trace.span(
                "worker.dump",
                trace=query_trace,
                parent_id=parent_span_id,
                track=self.name,
                worker=self.name,
                chunk=members[0][0],
                members=len(members),
                format=fmt,
            ):
                try:
                    if batch:
                        parts = encode_tables_parts(tables, _RESULT_TABLE) if tables else ()
                        payload = encode_answer(entries, parts)
                    elif fmt == "binary":
                        payload = encode_table(tables[0], _RESULT_TABLE)
                    else:
                        payload = dump_table(tables[0], _RESULT_TABLE).encode()
                except Exception as e:  # a result column with no encoding
                    self.metrics.counter("worker.errors").add(1)
                    entries = [
                        a._replace(status="sql-error", rows=0, error=str(e))
                        if a.status == "ok"
                        else a
                        for a in entries
                    ]
                    tables = []
                    payload = encode_answer(entries) if batch else None
            self._dump_seconds.observe(time.perf_counter() - t0)
        if payload is None:
            error = entries[0].error
        rows = sum(entry.rows for entry in entries)
        if tables:
            self._queries.add(len(tables))
            self._result_bytes.add(len(payload))
        with self._lock:
            self._publish_locked(task, payload, rows, error)

    def _publish_locked(self, task: _Task, payload=None, rows=0, error=None) -> None:
        """A task's outcome -- run or skipped -- onto its result record; readers go.

        ``rows`` are what the members' results hold.
        """
        record = self._results.get(task.rpath)
        if record is None:
            # Every read owed was served by an earlier execution of the
            # same text: nobody is left to publish to.
            return
        if error is not None:
            record.error = error
        elif payload is None or task.request.attempt in self._cancelled.get(task.rpath, ()):
            # Withdrawn while executing: the payload is dropped and the
            # typed error (already recorded by _cancel_result) stands.
            record.payload = None
        else:
            # A stale cancel of an *earlier* submission may have recorded
            # its typed error against this shared path while we
            # executed; the fresh result wins.
            record.error = None
            record.payload = payload
            self.stats.result_rows += rows
        record.ready.set()

    # -- chunk query execution ---------------------------------------------------------------

    def execute_chunk_query(
        self, chunk_id: int, text: "str | ChunkRequest", repeats: Optional[dict] = None
    ) -> Table:
        """Run one chunk query (text with or without headers, or decoded); the combined result.

        A decoded request may be a whole batch, of which ``chunk_id``
        is the member to run.  ``repeats`` is what the batch's earlier
        members prepared (see :meth:`_prepare`), the plan of the first
        of them included (:meth:`_execute_planned`): a member the plan
        answers is never rendered as text.  A chunk query on its own
        starts with none.
        """
        # The statements of a sub-chunk query are one or two texts
        # repeated about other sub-chunks: each is scanned and bound
        # once per chunk query, its repeats only name their tables, and
        # a run of statements that differ in nothing else is a family.
        if repeats is None:
            repeats = {}
        request = text if isinstance(text, ChunkRequest) else ChunkRequest.decode(text)
        if request.members:
            plan = repeats.get(_PLAN)
            if plan is not None:
                return self._execute_planned(plan, plan.names((chunk_id, None)))
            sub_chunk_ids = dict(request.members)[chunk_id]
            request = ChunkRequest.decode(render_member(request.body, chunk_id, sub_chunk_ids))
        prepared = [
            pair
            for blanked, found in _cut_statements(request.body)
            for pair in self._prepare(blanked, found, repeats)
        ]
        if len(prepared) == 1 and prepared[0][0].plannable:
            result = self._execute_planned(*prepared[0])
            repeats[_PLAN] = prepared[0][0]
            return result
        # Consecutive statements that differ only in FROM tables, as
        # (prepared statement, [FROM table names per member]).
        families: list[tuple] = []
        for statement, names in prepared:
            shape = statement.shape
            if families and shape is not None and families[-1][0].shape == shape:
                families[-1][1].append(names)
            else:
                families.append((statement, [names]))
        sub_chunk_tables = {
            name: parsed
            for name in dict.fromkeys(name for _, names in prepared for name in names)
            if (parsed := parse_table_name(name)) is not None and parsed.sub_chunk_id is not None
        }
        self._acquire_sub_chunks(sub_chunk_tables)
        try:
            outputs = []
            for statement, members in families:
                results = None
                if len(members) > 1:
                    results = self.db.execute_family(
                        statement.stmt, statement.kernel_key, members
                    )
                if results is None:
                    stmts = [statement.stmt]  # parsed in full: it names its own tables
                    if statement.shape is not None:
                        stmts = [statement.about(names) for names in members]
                    results = [
                        self.db.execute_statement(stmt, statement.kernel_key) for stmt in stmts
                    ]
                with self._lock:
                    self.stats.statements_executed += len(results)
                outputs.extend(out for out in results if out is not None)
            if not outputs:
                raise SqlError("chunk query contained no SELECT statement")
            with self._lock:
                self.stats.queries_executed += 1
            # Column order and dtypes follow the first statement's
            # result; empty later results are skipped.
            return ResultTable.concat("result", outputs)
        finally:
            self._release_sub_chunks(sub_chunk_tables)

    def _execute_planned(self, prepared: _Prepared, names: tuple) -> Table:
        """A chunk query that is one :attr:`~_Prepared.plannable` SELECT, by its batch's plan.

        ``prepared`` is the plan, which the batch's ``repeats`` shares:
        the engine keeps on it what the first member's kernel-cache
        lookup found, and runs every later member of those table types
        by that kernel on its own tables, with no lookup and no text
        rendered (:meth:`Database.execute_family`).  A member no kernel
        answers is the statement about its tables, which the interpreter
        answers, with no second lookup.
        """
        found = self.db.execute_family(prepared.stmt, prepared.kernel_key, [names], prepared)
        result = found[0] if found is not None else self.db.interpret(prepared.about(names))
        with self._lock:
            self.stats.statements_executed += 1
            self.stats.queries_executed += 1
        return result

    def _prepare(self, blanked: str, found, repeats: dict) -> list[tuple]:
        """``(prepared statement, FROM table names)`` pairs for one statement.

        The chunk queries of one scan, the sub-chunk statements of one
        chunk query, every repeat of either, and the same query asked
        about another object, box or threshold differ only in the chunk
        and sub-chunk ids of their table names and in the numbers of
        their WHERE clause.  A statement's *shape* is its text with both
        cut out (:func:`_cut_statements`, then :func:`repro.sql.shapes.scan`);
        the first statement of a shape is parsed and kept as a template,
        with the kernel key the engine would derive from it, and a later
        one is that template with its numbers bound, about the tables
        its ids name.  The shortcut is taken only when every chunk-table
        name in the text is a FROM table (not an alias, qualifier or
        string that merely looks like one) and the numbers cut from the
        text are exactly the parsed statement's WHERE/ON literals
        (:meth:`Template.of <repro.sql.shapes.Template.of>`), so that
        naming other tables and binding the values is exactly the
        textual substitution and leaves the kernel key as it was;
        anything else is parsed in full, every time.  Tables are looked
        up by name at execution, so nothing here outlives a dropped or
        replaced table.

        ``repeats`` lives for one chunk query, or one batch of them, and
        holds what was prepared for it, by id-free text: a later
        statement with that text (the same numbers, then) is the same
        bound statement, with the same plan (:meth:`_execute_planned`).
        The statement comes cut (:func:`_cut_statements`): its text is
        rebuilt only to be parsed.
        """
        id_free, ids, names = None, None, 0
        if found is not None:
            chunks, subs = set(found[0]), set(found[1]) - {None}
            if len(chunks) <= 1 and len(subs) <= 1:
                id_free, names = blanked, len(found[0])
                ids = (next(iter(chunks), None), next(iter(subs), None))

        def prepared_as(stmt, kernel_key, refs) -> list[tuple]:
            prepared = repeats[id_free] = _Prepared(
                stmt, kernel_key, _ID_FREE_TABLE_RE.sub(_ANY_ID, id_free), refs
            )
            return [(prepared, prepared.names(ids))]

        if id_free is not None:
            prepared = repeats.get(id_free)
            if prepared is not None:
                return [(prepared, prepared.names(ids))]
            shape, values = scan(id_free)
            entry = self._prepared.get(shape)
            if entry is not None:
                template, kernel_key, refs = entry
                bound = template.bind(values)
                if bound is not None:
                    return prepared_as(bound[0], kernel_key, refs)
        try:
            stmts = parse(_restore(blanked, found))
        except ParseError as e:
            raise SqlError(f"parse error: {e}") from e
        if id_free is None or len(stmts) != 1 or not isinstance(stmts[0], ast.Select):
            return [_parsed_in_full(stmt, None) for stmt in stmts]
        stmt = stmts[0]
        kernel_key = self.db.kernel_key(stmt)
        template = Template.of(stmts, values)
        refs = tuple(
            ref.table if parsed is None else (parsed.base, parsed.sub_chunk_id is not None)
            for ref in stmt.tables
            for parsed in [parse_table_name(ref.table)]
        )
        if template is None or sum(type(ref) is tuple for ref in refs) != names:
            return [_parsed_in_full(stmt, kernel_key)]
        self._prepared.put(shape, (template, kernel_key, refs))
        return prepared_as(stmt, kernel_key, refs)

    def _acquire_sub_chunks(self, names: dict) -> None:
        """Take a reference on every ``Base_CC_SS`` (name -> parsed); build the absent ones.

        A sub-chunk table is a row view of its chunk table, a slice of
        :func:`_rows_by_sub_chunk`: what it costs to build depends
        neither on how many columns nor on how many rows the chunk table
        has.  Either every name is acquired or, when a parent chunk
        table is missing, none is.
        """
        with self._build_lock:
            missing: dict[str, list[tuple[int, str]]] = {}
            present = 0
            for name, parsed in names.items():
                if name in self.db.tables:
                    present += 1
                    continue
                parent = chunk_table_name(parsed.base, parsed.chunk_id)
                if parent not in self.db.tables:
                    raise SqlError(
                        f"worker {self.name} has no chunk table {parent!r} "
                        f"needed to build {name!r}"
                    )
                missing.setdefault(parent, []).append((parsed.sub_chunk_id, name))
            for name in names:
                self._sub_chunk_refs[name] = self._sub_chunk_refs.get(name, 0) + 1
            self.stats.sub_chunk_cache_hits += present
            for parent, subs in missing.items():
                table = self.db.tables[parent]
                num_rows, rows = self._sub_chunk_rows.get(table, (None, None))
                if num_rows != table.num_rows:  # first use, or rows appended since
                    rows = _rows_by_sub_chunk(table)
                    self._sub_chunk_rows[table] = (table.num_rows, rows)
                for sub_chunk_id, name in subs:
                    self.db.create_table(RowView(name, table, rows.get(sub_chunk_id, _NO_ROWS)))
                    self.stats.sub_chunk_tables_built += 1

    def _release_sub_chunks(self, names: list[str]) -> None:
        """Drop the references; drop tables at zero unless caching.

        Per the protocol, the worker "is free to drop the tables
        afterwards" -- and the paper's implementation does not cache.
        """
        with self._build_lock:
            for name in names:
                refs = self._sub_chunk_refs[name] - 1
                if refs > 0:
                    self._sub_chunk_refs[name] = refs
                    continue
                del self._sub_chunk_refs[name]
                if not self.cache_sub_chunks:
                    self.db.drop_table(name, if_exists=True)

    # -- chunk transfer (the repair fabric) ----------------------------------------------------

    def _dump_chunk_table(self, path: str):
        """Serve one chunk table as wire bytes (a repair copy's read side).

        The repair manager reads ``/chunk/<table>`` off a surviving
        replica through the ordinary file protocol, so every fault a
        :class:`~repro.xrd.faults.FaultPlan` can inject on reads --
        corruption, crashes, slowness -- applies to repair traffic too.
        """
        table_name = table_of_chunk_path(path)
        with self._build_lock:
            table = self.db.tables.get(table_name)
        if table is None:
            return None
        return encode_table(table, table_name)

    def _install_chunk_table(self, path: str, data: bytes) -> None:
        """Install a repair copy: decode wire bytes into a local table.

        Overwrites any existing copy -- re-running a repair (or healing
        a quarantined replica in place) must converge, not error.
        """
        table_name = table_of_chunk_path(path)
        try:
            table = decode_table(data)
        except Exception as e:
            # Damaged in flight or at rest: refuse the install as a
            # failed file transaction so the repairer retries the write
            # instead of an undecodable table landing half-installed.
            raise FileSystemError(
                f"chunk payload for {table_name!r} failed to decode: {e}"
            ) from e
        if table.name != table_name:
            table = table.rename(table_name)
        with self._build_lock:
            if self.store is not None:
                # Persist to the on-disk column store and serve the
                # chunk through its mmap handle: installs never hold
                # the full table in RAM past this decode.
                table = self.store.save_table(table, table_name)
            self.db.create_table(table, overwrite=True)
        self.metrics.counter("worker.chunks.installed").add(1)

    def _chunk_manifest(self, path: str):
        """Newline-joined chunk-level table names for one chunk id.

        Lets a repairer discover what a chunk physically consists of
        (director table plus overlap table, typically) without knowing
        the schema; None when this worker does not host the chunk.
        """
        names = self.chunk_tables(chunk_id_of_manifest_path(path))
        if not names:
            return None
        return "\n".join(names).encode()

    # -- hosting -----------------------------------------------------------------------------

    def chunk_tables(self, chunk_id: int) -> list[str]:
        """Chunk-level tables for ``chunk_id`` (base + overlap, no sub-chunks)."""
        cid = int(chunk_id)
        return sorted(
            name for name, parsed in self._chunk_level_tables() if parsed.chunk_id == cid
        )

    def hosted_chunks(self) -> list[int]:
        """Chunk ids present in this worker's database (director tables)."""
        return sorted(
            {parsed.chunk_id for _, parsed in self._chunk_level_tables() if not parsed.overlap}
        )

    def _chunk_level_tables(self):
        """``(name, parsed name)`` of every Base_CC table: no sub-chunk (Base_CC_SS) table."""
        for name in self.db.tables:
            parsed = parse_table_name(name)
            if parsed is not None and parsed.sub_chunk_id is None:
                yield name, parsed

    def __repr__(self):
        return (
            f"QservWorker({self.name!r}, tables={len(self.db.tables)}, "
            f"slots={self.slots})"
        )
