"""Chunk dispatch: one query's chunk queries through the fabric, resiliently.

The paper's dispatch (sections 5.4, 5.6) is one write to ``/query2/CC``,
one read of ``/result/H``, and a re-dispatch through the redirector when
a worker dies.  :class:`ChunkDispatch` is that loop for one user query,
as a per-chunk state machine of four flat steps: ``_run_chunk`` (open
the chunk's ledger row, run it, close the row in exactly one terminal
state), ``_retry`` (bounded attempts with backoff, the suspect location
invalidated and the chunk repaired in between), ``_attempt`` (inline
when no deadline, hedge policy or cancel token can interrupt it, else
raced on the attempt pool against all three) and ``_transact`` (one
write, one read, one decode).  All accounting goes through the query's
:class:`~repro.obs.profile.ChunkLedger`.
"""

from __future__ import annotations

import time
import uuid
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..obs import events as obs_events
from ..obs import trace as obs_trace
from ..sql.wire import decode_table, is_wire_payload
from ..xrd import RedirectError
from ..xrd.filesystem import FileSystemError
from ..xrd.protocol import ChunkRequest, cancel_path, query_path, result_path
from .worker import WorkerCancelledError, WorkerShutdownError

__all__ = [
    "ChunkDispatch",
    "QueryError",
    "ChunkTimeoutError",
    "QueryCancelledError",
    "HedgePolicy",
    "validate_payload",
]


class QueryError(RedirectError):
    """A distributed query failed permanently (all replicas/attempts).

    Subclasses :class:`RedirectError` so pre-resilience callers that
    caught the fabric error keep working.  Carries the query's
    :class:`~repro.qserv.czar.QueryStats` (when available) and the chunk
    ids that failed, so operators see retries/hedges/timeouts even on
    failure.
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


#: Failures worth re-dispatching through another replica.  Genuine SQL
#: errors are excluded: re-running a semantically broken query on a
#: different replica cannot fix it.  :class:`WorkerCancelledError` is
#: retryable because the retry loop checks this query's own CancelToken
#: before every attempt: reaching the retry path with an unfired token
#: means a worker refused (or poisoned) the dispatch on cancel state
#: left by an earlier withdrawn submission of the same SQL, and a
#: re-dispatch carrying this submission's nonce executes cleanly.
_RETRYABLE = (
    RedirectError, FileSystemError, _PayloadError, WorkerShutdownError, WorkerCancelledError,
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


def validate_payload(data: bytes) -> tuple[str, object]:
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


def _swallow_future(future) -> None:
    """Consume an abandoned attempt's exception so it is never re-raised."""
    future.exception()


def _abandon(futures, spans: dict) -> None:
    """Give up on attempts in flight; workers evict unread results by refcount."""
    for f in futures:
        f.add_done_callback(_swallow_future)
        spans[f].cancel()


class _Chunk(NamedTuple):
    """One chunk of one query, across its attempts."""

    spec: object
    row: object  # its ledger row
    span: object  # its dispatch span
    # The identity part of the envelope -- format line and chunk query --
    # encoded and hashed once: an attempt with no header of its own
    # sends these very bytes, and every attempt reads the same /result/H.
    data: bytes
    result_hash: str
    # Workers that accepted an attempt, in order: a hedge steers away
    # from its primary's, a cancellation withdraws from all.
    accepted: list


class ChunkDispatch:
    """The dispatch of one user query's chunk queries (see module docstring).

    ``czar`` lends what outlives the query: the Xrootd client, retry
    policy, health tracker, repair manager, thread pools, hedge threshold.
    """

    def __init__(
        self, czar, ledger, deadline=None, allow_partial=False, cancel=None,
        parent_span=obs_trace.NOOP_SPAN,
    ):
        self.czar = czar
        self.ledger = ledger
        self.deadline = deadline
        self.allow_partial = allow_partial
        self.cancel = cancel
        self.parent_span = parent_span
        # One nonce per cancellable submission, shared by every retry
        # and hedge: /cancel/<H> writes carry it, so workers withdraw
        # exactly this submission's dispatches and a later re-run of
        # the identical SQL (same hash) is not refused on stale cancel
        # memory.
        self.nonce = uuid.uuid4().hex if cancel is not None else ""

    def run(self, specs: list) -> list[tuple]:
        """Both file transactions for every chunk query.

        Returns ``(payload, row)`` per collected chunk: its decoded
        payload (:func:`validate_payload`) and its closed ledger row;
        chunks dropped under ``allow_partial`` are left out.
        """
        # Single read: close() nulls _pool from another thread, and a
        # check-then-use pair would race it (None between the two reads).
        pool = self.czar._pool
        if pool is None or len(specs) <= 1:
            collected = [self._run_chunk(s) for s in specs]
        else:
            collected = list(pool.map(self._run_chunk, specs))
        return [entry for entry in collected if entry is not None]

    def _run_chunk(self, spec):
        """One chunk, from an open ledger row to a closed one."""
        chunk_id = spec.chunk_id
        span = obs_trace.span(
            "dispatch", parent=self.parent_span, track="czar", chunk=chunk_id
        )
        row = self.ledger.open(chunk_id, len(spec.sub_chunk_ids))
        request = ChunkRequest(spec.text, self.czar.wire_format)
        chunk = _Chunk(spec, row, span, request.encode(), request.result_hash, [])
        try:
            with span:
                payload, columns = self._retry(chunk)
        except QueryCancelledError:
            self._withdraw(chunk)
            self.ledger.close(row, "cancelled")
            raise
        except QueryError as e:
            timed_out = isinstance(e, ChunkTimeoutError)
            if timed_out:
                obs_events.emit("chunk_timeout", chunk=chunk_id)
            self.ledger.close(row, "timeout" if timed_out else "failed")
            if self.allow_partial:
                return None
            e.failed_chunks = [chunk_id]
            raise
        except BaseException:
            # Not a dispatch failure (a genuine SQL error, say): never
            # retried, never dropped as partial -- but the row still ends.
            self.ledger.close(row, "failed")
            raise
        self.ledger.close(row, "ok", **columns)
        return payload, row

    def _cancelled(self, chunk_id: int) -> QueryCancelledError:
        return QueryCancelledError(
            f"chunk {chunk_id}: query cancelled "
            f"({self.cancel.reason or 'cancelled'})"
        )

    def _retry(self, chunk: _Chunk):
        """The retry loop around :meth:`_attempt` for one chunk."""
        policy, deadline, cancel = self.czar.retry_policy, self.deadline, self.cancel
        chunk_id = chunk.spec.chunk_id
        last: Optional[Exception] = None
        for attempt_no in range(policy.max_attempts):
            if cancel is not None and cancel.cancelled:
                raise self._cancelled(chunk_id)
            if deadline is not None and deadline.expired:
                raise ChunkTimeoutError(
                    f"chunk {chunk_id}: query deadline expired "
                    f"after {attempt_no} attempt(s): {last}"
                )
            if attempt_no:
                # Counted before the backoff: a retry the deadline cuts
                # short during the sleep below (one that never produces
                # an attempt span) is still a retry.
                self.ledger.bump(chunk.row, "retries")
                obs_events.emit(
                    "chunk_retry", chunk=chunk_id, attempt=attempt_no, error=str(last)
                )
                if not policy.sleep_before(attempt_no, f"chunk-{chunk_id}", deadline):
                    raise ChunkTimeoutError(
                        f"chunk {chunk_id}: query deadline expired "
                        f"during backoff: {last}"
                    )
            self.ledger.bump(chunk.row, "attempts")
            try:
                return self._attempt(chunk, attempt_no)
            except (QueryCancelledError, ChunkTimeoutError):
                raise
            except _RETRYABLE as e:
                last = e
                self._after_failure(chunk_id, attempt_no)
        if deadline is not None and deadline.expired:
            raise ChunkTimeoutError(
                f"chunk {chunk_id}: query deadline expired "
                f"after {policy.max_attempts} attempts: {last}"
            )
        raise QueryError(
            f"chunk {chunk_id} failed after {policy.max_attempts} attempts: {last}"
        )

    def _after_failure(self, chunk_id: int, attempt_no: int) -> None:
        """Between a retryable failure and the next attempt."""
        # The accepting worker is suspect; invalidate its cached
        # location so the next attempt re-resolves through the
        # surviving replicas.
        self.czar.client.redirector.invalidate(query_path(chunk_id))
        repair = self.czar.repair
        if repair is None:
            return
        # A retryable failure is evidence a replica just died: restore
        # the chunk's replication before the next attempt, so the
        # replica set is back at target while this query is still
        # running.
        try:
            if repair.ensure_chunk(chunk_id):
                obs_events.emit(
                    "chunk_repaired_midquery", chunk=chunk_id, attempt=attempt_no
                )
        except Exception as repair_error:  # noqa: BLE001
            # Advisory path: a broken repair must not mask the dispatch
            # error the retry loop is handling.  Recorded, not swallowed.
            obs_events.emit("repair_error", chunk=chunk_id, error=str(repair_error))

    def _attempt_span(self, chunk: _Chunk, attempt_no: int, kind: str):
        return obs_trace.span(
            "attempt", parent=chunk.span, track="czar",
            chunk=chunk.spec.chunk_id, n=attempt_no, kind=kind,
        )

    def _attempt(self, chunk: _Chunk, attempt_no: int):
        """One logical attempt: bounded by the deadline, maybe hedged,
        unwound promptly when the cancel token fires."""
        deadline, cancel = self.deadline, self.cancel
        hedge_delay = self.czar._hedge_delay()
        primary_span = self._attempt_span(chunk, attempt_no, "primary")
        if deadline is None and hedge_delay is None and cancel is None:
            # Nothing can interrupt it: no thread hop.
            return self._transact(chunk, primary_span)
        chunk_id = chunk.spec.chunk_id
        pool = self.czar._ensure_attempt_pool()
        accepted_before = len(chunk.accepted)
        primary = pool.submit(self._transact, chunk, primary_span)
        spans = {primary: primary_span}
        hedge = None
        hedge_at = time.monotonic() + hedge_delay if hedge_delay is not None else None
        pending = {primary}
        last: Optional[Exception] = None
        while pending:
            # The wait budget is the nearest of: the query deadline,
            # the hedge trigger, and the cancel poll interval.
            budgets = [0.05] if cancel is not None else []
            if deadline is not None:
                budgets.append(deadline.remaining())
            if hedge_at is not None and hedge is None:
                budgets.append(max(hedge_at - time.monotonic(), 0.0))
            done, not_done = _futures_wait(
                pending, timeout=min(budgets, default=None), return_when=FIRST_COMPLETED
            )
            if cancel is not None and cancel.cancelled:
                # Abandoned on purpose: the accepted chunk queries are
                # withdrawn from the workers by the caller.
                _abandon(not_done, spans)
                raise self._cancelled(chunk_id)
            if not done:
                if deadline is not None and deadline.expired:
                    _abandon(not_done, spans)
                    raise ChunkTimeoutError(
                        f"chunk {chunk_id}: no replica answered "
                        "within the query deadline"
                    )
                if hedge_at is not None and hedge is None and time.monotonic() >= hedge_at:
                    # The primary is slow: race a second attempt against
                    # it, away from the worker that accepted it.
                    self.ledger.bump(chunk.row, "hedges")
                    obs_events.emit(
                        "hedge_fired", chunk=chunk_id, delay=round(hedge_delay, 6)
                    )
                    hedge_span = self._attempt_span(chunk, attempt_no, "hedge")
                    exclude = tuple(chunk.accepted[accepted_before:])
                    hedge = pool.submit(self._transact, chunk, hedge_span, exclude)
                    spans[hedge] = hedge_span
                    pending.add(hedge)
                continue
            for f in done:
                pending.discard(f)
                try:
                    outcome = f.result(timeout=0)
                except Exception as e:  # noqa: BLE001 - retried by the caller
                    last = e
                    continue
                _abandon(pending, spans)
                if f is hedge:
                    self.ledger.bump(chunk.row, "hedges_won")
                    obs_events.emit("hedge_won", chunk=chunk_id)
                return outcome
        assert last is not None
        raise last

    def _transact(self, chunk: _Chunk, span, exclude=()):
        """One dispatch+collect+validate transaction pair.

        Returns the decoded payload and the columns the chunk's ledger
        row ends with if this attempt is the one that counts.
        """
        czar, deadline = self.czar, self.deadline
        with span:
            t0 = time.perf_counter()
            data = chunk.data
            if deadline is not None or self.nonce or span.trace is not None:
                # This attempt has something of its own to say: the
                # *remaining* budget at dispatch time (a retry hands the
                # worker a tighter wait), the submission's nonce, and
                # this attempt's span as the remote parent for the
                # worker-side spans.
                data = ChunkRequest(
                    chunk.spec.text,
                    czar.wire_format,
                    deadline.remaining() if deadline is not None else None,
                    self.nonce,
                    (span.trace.trace_id, span.span_id) if span.trace is not None else None,
                ).encode()
            worker = czar.client.write_file(
                query_path(chunk.spec.chunk_id), data, exclude=exclude, deadline=deadline
            )
            span.set(worker=worker)
            # Plain append -- lists are safe to append concurrently, and
            # the withdrawal reads only after the attempts are abandoned.
            chunk.accepted.append(worker)
            result = czar.client.read_file(
                result_path(chunk.result_hash), server_name=worker, deadline=deadline
            )
            try:
                kind, payload = validate_payload(result)
            except _PayloadError:
                czar.health.record_failure(worker)
                raise
            elapsed = time.perf_counter() - t0
            czar._observe_latency(elapsed)
            czar._chunk_seconds.observe(elapsed)
            span.set(bytes=len(result), format=kind)
            return payload, dict(
                worker=worker, bytes_sent=len(data), bytes_received=len(result),
                seconds=elapsed, wire_format=kind,
            )

    def _withdraw(self, chunk: _Chunk) -> None:
        """Best-effort ``/cancel/<H>`` writes for accepted chunk queries.

        Frees worker slots a cancelled query would otherwise consume:
        queued tasks are discarded without executing, in-flight results
        are dropped at completion.  The payload carries this
        submission's nonce, scoping the withdrawal so a later re-run of
        the same SQL is not refused.  Failures are recorded as events --
        the worker may be dead, which cancels the work even harder.
        """
        path = cancel_path(chunk.result_hash)
        for worker in chunk.accepted:
            try:
                server = self.czar.client.redirector.server(worker)
                with server.open(path, "w") as fh:
                    fh.write(self.nonce.encode())
            except Exception as e:  # noqa: BLE001 - advisory withdrawal
                obs_events.emit("cancel_notify_failed", worker=worker, error=str(e))
