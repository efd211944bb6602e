"""Live query progress: the registry behind ``SHOW PROCESSLIST``.

Traces and metrics describe queries that *finished*; an operator
staring at a stuck cluster needs the ones that haven't.  The czar
registers every in-flight query here at submit time and moves it
through its stages (``plan`` -> ``dispatch`` -> ``merge``); the query's
:class:`~repro.obs.profile.ChunkLedger` reports one
:meth:`QueryProgress.chunk_done` per chunk that *ends* -- collected,
failed, timed out or cancelled -- with that chunk's retries; and
:meth:`~ProgressRegistry.finish` is guaranteed in the submit
``finally`` -- so entries disappear on completion, cancellation,
failure, and crash-recovered batch re-runs alike (the re-run is just
another submit).

Each entry also mirrors itself into two global gauges
(``czar.queries.inflight``, per-tenant ``czar.inflight.<tenant>``) so
the history recorder can chart cluster load over time without walking
the registry.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional

from ..analysis.sanitizer import make_lock
from . import metrics as obs_metrics

__all__ = ["QueryProgress", "ProgressRegistry", "PROCESSLIST"]

_query_ids = itertools.count(1)

#: Stages a query moves through, in order (for display).
STAGES = ("queued", "plan", "dispatch", "merge", "done")


class QueryProgress:
    """One in-flight query's live counters.

    Mutators take the entry's own lock and nothing else; the chunk
    ledger calls them while holding its own (consistent outer->inner
    order), and shell threads snapshot concurrently.
    """

    __slots__ = (
        "qid",
        "sql",
        "tenant",
        "session",
        "started",
        "started_wall",
        "deadline_seconds",
        "_stage",
        "_chunks_total",
        "_chunks_done",
        "_bytes",
        "_rows",
        "_retries",
        "_lock",
        "_clock",
        "_registry",
    )

    def __init__(
        self,
        sql: str,
        tenant: str = "",
        session: str = "",
        deadline_seconds: Optional[float] = None,
        clock=time.monotonic,
        registry: Optional["ProgressRegistry"] = None,
    ):
        self.qid = next(_query_ids)
        self.sql = " ".join(sql.split())
        self.tenant = tenant or "anon"
        self.session = session or ""
        self._clock = clock
        self.started = clock()
        self.started_wall = time.time()
        self.deadline_seconds = deadline_seconds
        self._stage = "queued"
        self._chunks_total = 0
        self._chunks_done = 0
        self._bytes = 0
        self._rows = 0
        self._retries = 0
        self._lock = make_lock("obs.QueryProgress._lock")
        self._registry = registry

    # -- czar-side updates --------------------------------------------------

    def stage(self, name: str) -> "QueryProgress":
        with self._lock:
            self._stage = name
        return self

    def set_total(self, chunks: int) -> "QueryProgress":
        with self._lock:
            self._chunks_total = int(chunks)
        return self

    def chunk_done(
        self, bytes_received: int = 0, retries: int = 0, chunks: int = 1
    ) -> "QueryProgress":
        with self._lock:
            self._chunks_done += chunks
            self._bytes += int(bytes_received)
            self._retries += int(retries)
        return self

    def note_rows(self, rows: int) -> "QueryProgress":
        with self._lock:
            self._rows += int(rows)
        return self

    def finish(self) -> None:
        """Remove this entry from its registry (idempotent)."""
        registry, self._registry = self._registry, None
        if registry is not None:
            registry._remove(self)

    # -- observer side ------------------------------------------------------

    @property
    def chunks_done(self) -> int:
        with self._lock:
            return self._chunks_done

    @property
    def current_stage(self) -> str:
        with self._lock:
            return self._stage

    def snapshot(self) -> dict:
        """A point-in-time view (what one PROCESSLIST row renders)."""
        with self._lock:
            stage = self._stage
            total, done = self._chunks_total, self._chunks_done
            nbytes, rows, retries = self._bytes, self._rows, self._retries
        elapsed = self._clock() - self.started
        remaining = (
            self.deadline_seconds - elapsed
            if self.deadline_seconds is not None
            else None
        )
        return {
            "qid": self.qid,
            "tenant": self.tenant,
            "session": self.session,
            "stage": stage,
            "chunks_done": done,
            "chunks_total": total,
            "bytes": nbytes,
            "rows": rows,
            "retries": retries,
            "elapsed": elapsed,
            "deadline": self.deadline_seconds,
            "remaining": remaining,
            "sql": self.sql,
        }

    def __repr__(self):
        return (
            f"QueryProgress(#{self.qid} {self.tenant} {self.current_stage} "
            f"{self.chunks_done} chunks)"
        )


class ProgressRegistry:
    """The set of currently in-flight queries, snapshot-able at any time."""

    def __init__(self):
        self._lock = make_lock("obs.ProgressRegistry._lock")
        self._entries: dict[int, QueryProgress] = {}

    def begin(
        self,
        sql: str,
        tenant: str = "",
        session: str = "",
        deadline_seconds: Optional[float] = None,
        clock=time.monotonic,
    ) -> QueryProgress:
        entry = QueryProgress(
            sql,
            tenant=tenant,
            session=session,
            deadline_seconds=deadline_seconds,
            clock=clock,
            registry=self,
        )
        with self._lock:
            self._entries[entry.qid] = entry
        obs_metrics.gauge("czar.queries.inflight").add(1)
        obs_metrics.gauge(f"czar.inflight.{entry.tenant}").add(1)
        return entry

    def _remove(self, entry: QueryProgress) -> None:
        with self._lock:
            removed = self._entries.pop(entry.qid, None)
        if removed is not None:
            obs_metrics.gauge("czar.queries.inflight").add(-1)
            obs_metrics.gauge(f"czar.inflight.{entry.tenant}").add(-1)

    def get(self, qid: int) -> Optional[QueryProgress]:
        with self._lock:
            return self._entries.get(qid)

    def entries(self) -> list[dict]:
        """Snapshots of every in-flight query, oldest first."""
        with self._lock:
            live = sorted(self._entries.values(), key=lambda e: e.qid)
        return [e.snapshot() for e in live]

    def by_tenant(self) -> dict[str, list[dict]]:
        out: dict[str, list[dict]] = {}
        for snap in self.entries():
            out.setdefault(snap["tenant"], []).append(snap)
        return out

    def clear(self) -> None:
        """Drop every entry (tests); gauges are rebalanced."""
        with self._lock:
            live = list(self._entries.values())
        for entry in live:
            entry.finish()

    def __len__(self):
        with self._lock:
            return len(self._entries)


#: The process-global in-flight registry ``SHOW PROCESSLIST`` renders.
PROCESSLIST = ProgressRegistry()
