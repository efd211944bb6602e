"""Chunk dispatch: one query's chunk queries through the fabric, resiliently.

The paper's dispatch (sections 5.4, 5.6) is one write to ``/query2/CC``,
one read of ``/result/H``, and a re-dispatch through the redirector when
a worker dies -- per chunk.  :class:`ChunkDispatch` is that loop for one
user query with the *batch* as the unit of a transaction: the chunks the
redirector places on one worker go out in one write -- their chunk
query's template once, with their ids -- and come back in one read, one
table with an index entry per chunk (:mod:`repro.xrd.protocol`).
Whatever that leaves unanswered is re-dispatched chunk by chunk -- a
batch of one, which is the paper's protocol to the byte.  Five flat
steps: ``run`` (group by worker, a batch per pool hand-off),
``_settle`` (every ledger row of a batch to exactly one terminal state;
the unanswered alone from the next attempt on), ``_retry`` (bounded
attempts with backoff, the suspect location invalidated and the chunk
repaired in between), ``_attempt`` (inline when no deadline, hedge
policy or cancel token can interrupt it, else raced on the attempt pool
against all three) and ``_transact`` (one write, one read, one decode).
The accounting stays per chunk and all of it goes through the query's
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
from ..sql import SqlError
from ..sql.wire import decode_table, is_wire_payload
from ..xrd import RedirectError
from ..xrd.filesystem import FileSystemError
from ..xrd.protocol import ChunkRequest, cancel_path, decode_answer, query_path, result_path
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
        return "sqldump", str(data, "utf-8")
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


class _Batch(NamedTuple):
    """Chunks bound for one worker, across the attempts they make together."""

    chunks: tuple
    span: object  # its dispatch span
    # The identity part of the envelope -- format line and body --
    # encoded and hashed once: an attempt with no header of its own
    # sends these very bytes, and every attempt reads the same /result/H.
    data: bytes
    result_hash: str
    # Workers that accepted an attempt, in order: a hedge steers away
    # from its primary's, a cancellation withdraws from all.
    accepted: list

    @property
    def label(self) -> str:
        ids = [c.spec.chunk_id for c in self.chunks]
        return f"chunk {ids[0]}" if len(ids) == 1 else f"chunks {ids}"


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

        Returns ``(payload, row)`` per collected chunk, in the order of
        ``specs``: its decoded payload (:func:`validate_payload`) and
        its closed ledger row; chunks dropped under ``allow_partial``
        are left out.
        """
        groups = self._by_worker(specs)
        # Single read: close() nulls _pool from another thread, and a
        # check-then-use pair would race it (None between the two reads).
        pool = self.czar._pool
        if pool is None or len(groups) <= 1:
            settled = [self._run_batch(group) for group in groups]
        else:
            settled = list(pool.map(self._run_batch, groups))
        collected = {row.chunk_id: (payload, row) for b in settled for payload, row in b}
        return [collected[s.chunk_id] for s in specs if s.chunk_id in collected]

    def _by_worker(self, specs: list) -> list[list]:
        """``specs`` grouped by the worker the redirector places each on.

        Hedging watches for the one straggling chunk, so under a hedge
        policy every chunk travels alone.  A batch is a feature of the
        binary wire, so under a czar asking for ``sqldump`` every chunk
        travels alone too.  So does a chunk query with no template (one
        rendered in full), and a chunk the redirector cannot place,
        whose own dispatch reports that.
        """
        czar = self.czar
        if czar.hedge_policy is not None or czar.wire_format != "binary" or len(specs) <= 1:
            return [[spec] for spec in specs]
        locate, health = czar.client.redirector.locate, czar.health
        groups: dict = {}
        for spec in specs:
            key = spec.chunk_id
            if spec.template is not None:
                try:
                    key = locate(query_path(spec.chunk_id), health=health).name, spec.template
                except RedirectError:
                    key = spec.chunk_id  # alone: its own dispatch reports it
            groups.setdefault(key, []).append(spec)
        return list(groups.values())

    def _run_batch(self, specs: list) -> list[tuple]:
        """One worker's chunks, from open ledger rows to closed ones."""
        open_row = self.ledger.open
        chunks = [_Chunk(s, open_row(s.chunk_id, len(s.sub_chunk_ids))) for s in specs]
        return self._settle(self._batch(chunks, self.parent_span))

    def _request(self, chunks, *header) -> ChunkRequest:
        """One chunk query's text; a larger batch's template and ids."""
        if len(chunks) == 1:
            return ChunkRequest(chunks[0].spec.text, self.czar.wire_format, *header)
        members = tuple((c.spec.chunk_id, c.spec.sub_chunk_ids) for c in chunks)
        template = chunks[0].spec.template
        return ChunkRequest(template, self.czar.wire_format, *header, members=members)

    def _batch(self, chunks: list, parent_span) -> _Batch:
        span = obs_trace.span(
            "dispatch", parent=parent_span, track="czar",
            chunk=chunks[0].spec.chunk_id, members=len(chunks),
        )
        request = self._request(chunks)
        return _Batch(tuple(chunks), span, request.encode(), request.result_hash, [])

    def _settle(self, batch: _Batch, attempt_from=0, last=None) -> list[tuple]:
        """Every row of ``batch`` to a terminal state; ``(payload, row)`` per ok one."""
        with batch.span:
            answers = self._answered(batch, attempt_from, last)
            if answers is None:
                return []
            entries, closing, unanswered = [], [], []
            for chunk in batch.chunks:
                outcome = answers[chunk.spec.chunk_id]
                if type(outcome) is tuple:
                    entries.append((outcome[0], chunk.row))
                    closing.append((chunk.row, outcome[1]))
                else:
                    unanswered.append((chunk, outcome))
            self.ledger.close_all("ok", closing)
            # What the batch left unanswered: each chunk alone, from the
            # next attempt on.  Every one runs to its own end, as chunks
            # of one query always have; the first failure is the query's.
            failure = None
            for chunk, outcome in unanswered:
                try:
                    if not isinstance(outcome, _RETRYABLE):
                        self.ledger.close(chunk.row, "failed")
                        raise outcome
                    self._after_failure(chunk.spec.chunk_id, attempt_from)
                    alone = self._batch([chunk], batch.span)
                    entries += self._settle(alone, attempt_from + 1, outcome)
                except Exception as e:  # noqa: BLE001 - raised below, once all have ended
                    failure = failure or e
            if failure is not None:
                raise failure
            return entries

    def _answered(self, batch: _Batch, attempt_from: int, last) -> Optional[dict]:
        """:meth:`_retry`, with every row closed when it raises; None for
        a failure ``allow_partial`` drops."""
        def close(status):
            self.ledger.close_all(status, [(c.row, {}) for c in batch.chunks])

        try:
            return self._retry(batch, attempt_from, last)
        except QueryCancelledError:
            self._withdraw(batch)
            close("cancelled")
            raise
        except QueryError as e:
            timed_out = isinstance(e, ChunkTimeoutError)
            if timed_out:
                for c in batch.chunks:
                    obs_events.emit("chunk_timeout", chunk=c.spec.chunk_id)
            close("timeout" if timed_out else "failed")
            if self.allow_partial:
                return None
            e.failed_chunks = [c.spec.chunk_id for c in batch.chunks]
            raise
        except BaseException:
            # Not a dispatch failure (a genuine SQL error, say): never
            # retried, never dropped as partial -- but the rows still end.
            close("failed")
            raise

    def _cancelled(self, batch: _Batch) -> QueryCancelledError:
        return QueryCancelledError(
            f"{batch.label}: query cancelled ({self.cancel.reason or 'cancelled'})"
        )

    def _retry(self, batch: _Batch, attempt_from: int, last: Optional[Exception]) -> dict:
        """The retry loop around :meth:`_attempt`: an outcome per chunk id.

        A chunk's outcome is ``(payload, ledger columns)`` or the error
        that stands in for them.  A batch of one has the whole attempt
        budget; a larger one is attempted once, and a transaction that
        fails is every member's retryable outcome -- their retries are
        the caller's, each alone, so no retry re-sends what a worker
        has already answered.
        """
        policy, deadline, cancel = self.czar.retry_policy, self.deadline, self.cancel
        ledger, chunks = self.ledger, batch.chunks
        for attempt_no in range(attempt_from, policy.max_attempts):
            if cancel is not None and cancel.cancelled:
                raise self._cancelled(batch)
            if deadline is not None and deadline.expired:
                raise ChunkTimeoutError(
                    f"{batch.label}: query deadline expired "
                    f"after {attempt_no} attempt(s): {last}"
                )
            if attempt_no:
                # Counted before the backoff: a retry the deadline cuts
                # short during the sleep below (one that never produces
                # an attempt span) is still a retry.
                for c in chunks:
                    ledger.bump(c.row, "retries")
                    obs_events.emit(
                        "chunk_retry", chunk=c.spec.chunk_id, attempt=attempt_no,
                        error=str(last),
                    )
                # (Only a batch of one comes round again: the jitter key is its chunk's.)
                if not policy.sleep_before(
                    attempt_no, f"chunk-{chunks[0].spec.chunk_id}", deadline
                ):
                    raise ChunkTimeoutError(
                        f"{batch.label}: query deadline expired during backoff: {last}"
                    )
            for c in chunks:
                ledger.bump(c.row, "attempts")
            try:
                return self._attempt(batch, attempt_no)
            except (QueryCancelledError, ChunkTimeoutError):
                raise
            except _RETRYABLE as e:
                if len(chunks) > 1:
                    return dict.fromkeys((c.spec.chunk_id for c in chunks), e)
                last = e
                self._after_failure(chunks[0].spec.chunk_id, attempt_no)
        if deadline is not None and deadline.expired:
            raise ChunkTimeoutError(
                f"{batch.label}: query deadline expired "
                f"after {policy.max_attempts} attempts: {last}"
            )
        raise QueryError(
            f"{batch.label} failed after {policy.max_attempts} attempts: {last}"
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

    def _attempt_span(self, batch: _Batch, attempt_no: int, kind: str):
        return obs_trace.span(
            "attempt", parent=batch.span, track="czar",
            chunk=batch.chunks[0].spec.chunk_id, members=len(batch.chunks),
            n=attempt_no, kind=kind,
        )

    def _attempt(self, batch: _Batch, attempt_no: int) -> dict:
        """One logical attempt: bounded by the deadline, maybe hedged,
        unwound promptly when the cancel token fires."""
        deadline, cancel = self.deadline, self.cancel
        hedge_delay = self.czar._hedge_delay()
        primary_span = self._attempt_span(batch, attempt_no, "primary")
        if deadline is None and hedge_delay is None and cancel is None:
            # Nothing can interrupt it: no thread hop.
            return self._transact(batch, primary_span)
        pool = self.czar._ensure_attempt_pool()
        accepted_before = len(batch.accepted)
        primary = pool.submit(self._transact, batch, primary_span)
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
                raise self._cancelled(batch)
            if not done:
                if deadline is not None and deadline.expired:
                    _abandon(not_done, spans)
                    raise ChunkTimeoutError(
                        f"{batch.label}: no replica answered within the query deadline"
                    )
                if hedge_at is not None and hedge is None and time.monotonic() >= hedge_at:
                    # The primary is slow: race a second attempt against
                    # it, away from the worker that accepted it.
                    # (Under a hedge policy a batch is its one chunk.)
                    (chunk,) = batch.chunks
                    self.ledger.bump(chunk.row, "hedges")
                    obs_events.emit(
                        "hedge_fired", chunk=chunk.spec.chunk_id, delay=round(hedge_delay, 6)
                    )
                    hedge_span = self._attempt_span(batch, attempt_no, "hedge")
                    exclude = tuple(batch.accepted[accepted_before:])
                    hedge = pool.submit(self._transact, batch, hedge_span, exclude)
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
                    obs_events.emit("hedge_won", chunk=chunk.spec.chunk_id)
                return outcome
        assert last is not None
        raise last

    def _transact(self, batch: _Batch, span, exclude=()) -> dict:
        """One dispatch+collect+validate transaction pair.

        Returns, per chunk id, the decoded payload and the columns its
        ledger row ends with if this attempt is the one that counts --
        or, for a member of a larger batch whose index entry says
        ``retryable`` or ``sql-error``, the error.
        """
        czar, deadline, chunks = self.czar, self.deadline, batch.chunks
        with span:
            t0 = time.perf_counter()
            data = batch.data
            if deadline is not None or self.nonce or span.trace is not None:
                # This attempt has something of its own to say: the
                # *remaining* budget at dispatch time (a retry hands the
                # worker a tighter wait), the submission's nonce, and
                # this attempt's span as the remote parent for the
                # worker-side spans.
                data = self._request(
                    chunks,
                    deadline.remaining() if deadline is not None else None,
                    self.nonce,
                    (span.trace.trace_id, span.span_id) if span.trace is not None else None,
                ).encode()
            # Any member's path leads to the worker they were grouped
            # by; should it lead elsewhere by now, that worker answers
            # for the chunks it holds and the rest come back retryable.
            worker = czar.client.write_file(
                query_path(chunks[0].spec.chunk_id), data, exclude=exclude
            )
            span.set(worker=worker)
            # Plain append -- lists are safe to append concurrently, and
            # the withdrawal reads only after the attempts are abandoned.
            batch.accepted.append(worker)
            result = czar.client.read_file(result_path(batch.result_hash), server_name=worker)
            try:
                answers = self._answers(chunks, worker, result)
            except _PayloadError:
                czar.health.record_failure(worker)
                raise
            elapsed = time.perf_counter() - t0
            ok = [a for a in answers.values() if type(a) is tuple]
            # A row's seconds are what the worker says its chunk took
            # plus an even share of the rest of the transaction; its
            # bytes sent, an even share of the write, and its bytes
            # received, of the read (the shares sum to the read).
            spare = (elapsed - sum(a[2] for a in ok)) / max(len(ok), 1)
            sent, odd_sent = divmod(len(data), len(chunks))
            received, odd_received = divmod(len(result), max(len(ok), 1))
            for chunk_id, answer in list(answers.items()):
                if type(answer) is tuple:
                    kind, payload, seconds = answer
                    czar._observe_latency(seconds + spare)
                    czar._chunk_seconds.observe(seconds + spare)
                    answers[chunk_id] = payload, dict(
                        worker=worker, bytes_sent=sent + odd_sent,
                        bytes_received=received + odd_received,
                        seconds=seconds + spare, wire_format=kind,
                    )
                    odd_sent = odd_received = 0
            span.set(bytes=len(result), format=ok[0][0] if ok else "")
            return answers

    def _answers(self, chunks: tuple, worker: str, result: bytes) -> dict:
        """What ``worker`` returned, per chunk id: ``(format, decoded
        payload, worker seconds)``, or the member's error.

        A batch of one reads the bare payload.  A larger one reads the
        batch's answer: its index, and its one table, decoded once, of
        which each ``ok`` member's payload is its rows, as views.
        Anything wrong with the answer as a whole -- a member missing,
        repeated or not the batch's, an unknown status, row counts that
        are not the table's -- is a :class:`_PayloadError` of the whole
        transaction.
        """
        if len(chunks) == 1:
            return {chunks[0].spec.chunk_id: (*validate_payload(result), 0.0)}
        try:
            entries, table_bytes = decode_answer(result, [c.spec.chunk_id for c in chunks])
            table = decode_table(table_bytes, copy=False) if len(table_bytes) else None
        except ValueError as e:
            raise _PayloadError(f"corrupt batch result: {e}") from e
        answers, start = {}, 0
        for entry in entries:
            if entry.status == "ok":
                stop = start + entry.rows
                answers[entry.chunk_id] = (
                    "binary", table.select_rows(slice(start, stop)), entry.seconds
                )
                start = stop
            else:
                # What a read of this member alone would have raised.
                error = SqlError if entry.status == "sql-error" else FileSystemError
                answers[entry.chunk_id] = error(f"worker {worker}: {entry.error}")
        if table is not None and start != table.num_rows:
            raise _PayloadError(
                f"corrupt batch result: {start} rows in the index, {table.num_rows} in the table"
            )
        return answers

    def _withdraw(self, batch: _Batch) -> None:
        """Best-effort ``/cancel/<H>`` writes for accepted chunk queries.

        Frees worker slots a cancelled query would otherwise consume:
        queued tasks are discarded without executing, in-flight results
        are dropped at completion -- for a batch, at its next member.
        The payload carries this submission's nonce, scoping the
        withdrawal so a later re-run of the same SQL is not refused.
        Failures are recorded as events -- the worker may be dead, which
        cancels the work even harder.
        """
        path = cancel_path(batch.result_hash)
        for worker in batch.accepted:
            try:
                server = self.czar.client.redirector.server(worker)
                with server.open(path, "w") as fh:
                    fh.write(self.nonce.encode())
            except Exception as e:  # noqa: BLE001 - advisory withdrawal
                obs_events.emit("cancel_notify_failed", worker=worker, error=str(e))
