"""The MySQL-proxy-shaped frontend (paper section 5.4).

"A MySQL Proxy wraps the qserv frontend so that queries can be
submitted using any MySQL-compatible client or library."  This module
provides that session surface: submit SQL text, get column names and
rows back, with per-session accounting.  Queries that touch no
partitioned table fall through to a local database when one is
attached, mimicking the proxy passing non-distributed statements to a
plain backend.

Sessions carry an identity (``user`` plus a unique ``session_id``)
that tags every ``query_start`` / ``query_end`` / ``query_failed``
event, so the event log can be sliced per tenant -- which is what the
frontend's fair-share accounting and the operator's "who is hammering
the cluster" question both need.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..analysis.races import track_shared
from ..analysis.sanitizer import make_lock
from ..obs import events as obs_events
from ..sql import Database
from .analysis import QservAnalysisError
from .czar import Czar, QueryResult

__all__ = ["QservProxy", "SessionLog", "HISTORY_LIMIT"]

#: Retained ``(sql, seconds)`` history entries per session.  A session
#: is long-lived (think a notebook kernel attached for days), so an
#: unbounded list is a slow memory leak; older entries roll off and are
#: counted in :attr:`SessionLog.history_dropped`.
HISTORY_LIMIT = 256

_session_ids = itertools.count(1)


@track_shared(
    "queries",
    "distributed_queries",
    "local_queries",
    "failed_queries",
    "total_seconds",
    "history",
    "history_dropped",
)
@dataclass
class SessionLog:
    """Per-session query accounting (what a proxy would log).

    A session object is shared: a notebook kernel's helper threads (or
    a connection pool handing the same session around) submit through
    one proxy concurrently, so every counter update goes through the
    locked ``note_*`` / ``record`` methods -- the bare ``+=`` the log
    used to do from :meth:`QservProxy.query` was a lost-update race.
    """

    queries: int = 0
    distributed_queries: int = 0
    local_queries: int = 0
    failed_queries: int = 0
    total_seconds: float = 0.0
    #: Most recent ``(sql, seconds)`` pairs, bounded at HISTORY_LIMIT.
    history: deque = field(default_factory=lambda: deque(maxlen=HISTORY_LIMIT))
    #: Entries that rolled off the bounded history.
    history_dropped: int = 0

    def __post_init__(self):
        self._mu = make_lock("SessionLog._mu")

    def note_submitted(self) -> None:
        with self._mu:
            self.queries += 1

    def note_distributed(self) -> None:
        with self._mu:
            self.distributed_queries += 1

    def note_local(self) -> None:
        with self._mu:
            self.local_queries += 1

    def note_failed(self) -> None:
        with self._mu:
            self.failed_queries += 1

    def record(self, sql: str, seconds: float) -> None:
        with self._mu:
            self.total_seconds += seconds
            if len(self.history) == self.history.maxlen:
                self.history_dropped += 1
            self.history.append((sql, seconds))


class QservProxy:
    """A client session against one czar, tagged with a user identity.

    ``czar`` is whatever ``submit`` s the session's queries: a
    :class:`Czar`, or the frontend that balances several.
    """

    def __init__(
        self,
        czar: Czar,
        local_db: Optional[Database] = None,
        user: str = "anon",
        session_id: Optional[str] = None,
    ):
        self.czar = czar
        self.local_db = local_db
        self.user = user
        self.session_id = session_id or f"session-{next(_session_ids)}"
        self.log = SessionLog()

    def query(self, sql: str, **submit_kwargs) -> QueryResult:
        """Submit one query; raises SqlError/QservAnalysisError on failure.

        Extra keyword arguments (``deadline``, ``allow_partial``,
        ``cancel``) are forwarded to :meth:`Czar.submit`.
        """
        t0 = time.perf_counter()
        self.log.note_submitted()
        # Identity flows down to the czar's PROCESSLIST entry, so SHOW
        # PROCESSLIST attributes in-flight queries to their tenant.
        submit_kwargs.setdefault("tenant", self.user)
        submit_kwargs.setdefault("session", self.session_id)
        obs_events.emit(
            "query_start", sql=sql, session=self.session_id, user=self.user
        )
        try:
            try:
                result = self.czar.submit(sql, **submit_kwargs)
                self.log.note_distributed()
            except QservAnalysisError:
                if self.local_db is None:
                    raise
                table = self.local_db.execute(sql)
                if table is None:
                    raise
                from .czar import QueryStats

                result = QueryResult(table=table, stats=QueryStats())
                self.log.note_local()
        except Exception as e:
            self.log.note_failed()
            obs_events.emit(
                "query_failed",
                sql=sql,
                error=f"{type(e).__name__}: {e}",
                session=self.session_id,
                user=self.user,
            )
            raise
        finally:
            elapsed = time.perf_counter() - t0
            self.log.record(sql, elapsed)
        obs_events.emit(
            "query_end",
            sql=sql,
            seconds=round(elapsed, 6),
            rows=result.table.num_rows,
            session=self.session_id,
            user=self.user,
        )
        return result

    def fetch_all(self, sql: str) -> tuple[list[str], list[tuple]]:
        """Column names and row tuples -- the shape a MySQL client sees."""
        result = self.query(sql)
        return result.column_names, result.rows()
