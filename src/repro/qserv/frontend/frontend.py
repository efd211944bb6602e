"""The overload-safe multi-tenant frontend over one czar, or several.

:class:`QservFrontend` is the process users actually talk to: it owns
per-user proxy sessions, an admission controller with fair-share
scheduling and quotas, an LRU result cache, the per-user MyDB result
store, and the crash-recoverable batch job queue.  The czars below it
stay pure query engines; everything about *who* may run *how much*
*when* lives here -- and so does *where*: "one way to distribute the
management load is to launch multiple master instances ... no code
changes other than some logic in the MySQL proxy to load-balance
between different Qserv masters" (paper section 7.6).  :meth:`submit`
is that logic, and every session submits through it.

Two traffic classes share one admission controller:

- **interactive** queries (:meth:`query`) check the result cache, then
  wait at most ``max_queue_wait`` (or their deadline) for a slot, then
  run with the caller's deadline and cancel token threaded through to
  the czar;
- **batch** jobs (:meth:`submit_job`) are journaled first, then
  executed by runner threads through the *same* admission gate with a
  more patient queue wait -- batch riding the fair-share scheduler is
  what keeps a bulk scan from starving interactive tenants, and shed
  batch work requeues instead of failing.

:meth:`kill` simulates a frontend crash (for fault drills and the
crash-recovery test); :meth:`shutdown` drains gracefully.  Build a new
frontend on the same ``root`` to recover the journal.
"""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path
from typing import Optional

from ...analysis.sanitizer import make_lock
from ...obs import metrics as obs_metrics
from ...obs import slo as obs_slo
from ...obs import timeseries as obs_timeseries
from ...sql import SqlError
from ...xrd.health import HealthTracker
from ...xrd.retry import CancelToken, Deadline
from ..czar import Czar, QueryError, QueryResult
from ..proxy import QservProxy
from .admission import AdmissionController, TenantPolicy
from .cache import ResultCache
from .jobs import BatchJobQueue
from .mydb import MyDb

__all__ = ["QservFrontend"]


class QservFrontend:
    """Admission-controlled, multi-tenant session/job surface over czars.

    Parameters
    ----------
    czars:
        The query engine, or a list of them over one worker cluster
        (they share metadata, chunker and secondary index; only
        dispatch and merge work is replicated; see :meth:`submit`).  The
        first one's worker-health tracker feeds admission capacity.
    root:
        Directory for durable state (job journal + MyDB).  ``None``
        uses a private temporary directory (gone with the process --
        fine for interactive-only use, useless for crash recovery).
    local_db:
        Optional non-partitioned fallback database for sessions.
    batch_queue_wait:
        How patiently a batch job waits for an admission slot before
        being shed back to the job queue for a requeue.
    slo_objectives:
        Objectives for the built-in :class:`~repro.obs.slo.SloMonitor`
        (defaults to :data:`~repro.obs.slo.DEFAULT_OBJECTIVES`).  The
        monitor attaches to the global history recorder when that is
        running and feeds its burn pressure into admission's
        ``retry_after`` pricing.  Pass an empty sequence to disable.
    """

    def __init__(
        self,
        czars,
        root=None,
        local_db=None,
        max_concurrent: int = 8,
        max_queue_depth: int = 64,
        max_queue_wait: float = 5.0,
        batch_queue_wait: float = 30.0,
        default_policy: Optional[TenantPolicy] = None,
        cache_entries: int = 64,
        job_slots: int = 1,
        max_jobs: int = 1024,
        slo_objectives=None,
    ):
        self.czars = [czars] if isinstance(czars, Czar) else list(czars)
        if not self.czars:
            raise ValueError("a frontend needs at least one czar")
        self._next_czar = itertools.count()
        self.czar_health = HealthTracker(failure_threshold=3, cooldown=1.0)
        self.local_db = local_db
        self._tmp = None
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="qserv-frontend-")
            root = self._tmp.name
        self.root = Path(root)
        self.batch_queue_wait = batch_queue_wait
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            max_queue_depth=max_queue_depth,
            max_queue_wait=max_queue_wait,
            default_policy=default_policy,
            health=self.czars[0].health,
        )
        self.cache = ResultCache(cache_entries)
        self.mydb = MyDb(self.root / "mydb")
        self.jobs = BatchJobQueue(
            self._execute_batch,
            self.root / "jobs",
            mydb=self.mydb,
            slots=job_slots,
            max_jobs=max_jobs,
        )
        self._sessions: dict[str, QservProxy] = {}
        self._sessions_lock = make_lock("QservFrontend._sessions_lock")
        self.metrics = obs_metrics.Registry(parent=obs_metrics.REGISTRY)
        if slo_objectives is None:
            slo_objectives = obs_slo.DEFAULT_OBJECTIVES
        self.slo = obs_slo.SloMonitor(objectives=slo_objectives)
        if slo_objectives:
            self.admission.attach_slo(self.slo.pressure)
            # Burn rates need a metrics-delta feed; piggyback on the
            # global recorder when the operator turned it on
            # (REPRO_HISTORY=...).  Without it the monitor stays idle
            # unless something (a test, SHOW SLO) ticks it manually.
            if obs_timeseries.RECORDER.running:
                self.slo.attach(obs_timeseries.RECORDER)
        self._down = False

    # -- sessions ----------------------------------------------------------------

    def session(self, user: str = "anon") -> QservProxy:
        """The user's proxy session (created on first use)."""
        with self._sessions_lock:
            proxy = self._sessions.get(user)
            if proxy is None:
                proxy = self._sessions[user] = QservProxy(
                    self, local_db=self.local_db, user=user
                )
            return proxy

    def submit(self, sql: str, **submit_kwargs) -> QueryResult:
        """:meth:`Czar.submit` on the next healthy czar, round-robin.

        What the sessions call, past admission.  A czar whose queries
        keep failing trips ``czar_health``'s breaker and is skipped
        until its cooldown elapses, when one probe query goes back
        through it; with every czar tripped, any will do.
        """
        n = len(self.czars)
        turn = next(self._next_czar)
        order = [(turn + k) % n for k in range(n)]
        health = self.czar_health
        index = next((i for i in order if health.available(f"czar-{i}")), order[0])
        name = f"czar-{index}"
        try:
            result = self.czars[index].submit(sql, **submit_kwargs)
        except (ValueError, SqlError, QueryError):
            # The query's failure (its text, or the workers), raised by
            # a czar that works.
            raise
        except Exception:
            health.record_failure(name)
            raise
        health.record_success(name)
        return result

    def set_policy(self, user: str, policy: TenantPolicy) -> None:
        self.admission.set_policy(user, policy)

    # -- interactive path --------------------------------------------------------

    def query(
        self,
        sql: str,
        user: str = "anon",
        deadline: Optional[Deadline] = None,
        cancel: Optional[CancelToken] = None,
        use_cache: bool = True,
        **submit_kwargs,
    ) -> QueryResult:
        """Run one interactive query under admission control.

        Raises :class:`~repro.qserv.frontend.admission.QservOverloadError`
        (or its quota subclass) when shed -- the caller sees a typed,
        retryable rejection, never a queue timeout dressed as a query
        failure.  Cache hits bypass admission entirely: they consume no
        czar slot and charge no quota.
        """
        if self._down:
            raise RuntimeError("frontend is shut down")
        if use_cache:
            cached = self.cache.get(sql)
            if cached is not None:
                self.metrics.counter("frontend.queries.cached").add(1)
                return cached
        ticket = self.admission.acquire(user, deadline=deadline)
        try:
            result = self.session(user).query(
                sql, deadline=deadline, cancel=cancel, **submit_kwargs
            )
        except BaseException:
            ticket.release()
            raise
        ticket.release(
            rows=result.table.num_rows,
            result_bytes=result.stats.bytes_collected,
        )
        if use_cache:
            self.cache.put(sql, result)
        self.metrics.counter("frontend.queries").add(1)
        return result

    def fetch_all(self, sql: str, user: str = "anon"):
        result = self.query(sql, user=user)
        return result.column_names, result.rows()

    # -- batch path --------------------------------------------------------------

    def _execute_batch(self, sql: str, user: str, cancel: CancelToken) -> QueryResult:
        """The job queue's execute hook: same admission gate, patient wait."""
        ticket = self.admission.acquire(user, timeout=self.batch_queue_wait)
        try:
            result = self.session(user).query(sql, cancel=cancel)
        except BaseException:
            ticket.release()
            raise
        ticket.release(
            rows=result.table.num_rows,
            result_bytes=result.stats.bytes_collected,
        )
        return result

    def submit_job(self, sql: str, user: str = "anon", table: Optional[str] = None) -> str:
        """Accept a durable batch job; returns its id once journaled."""
        return self.jobs.submit(user, sql, table=table)

    def poll_job(self, job_id: str) -> dict:
        return self.jobs.poll(job_id)

    def fetch_job(self, job_id: str):
        return self.jobs.fetch(job_id)

    def cancel_job(self, job_id: str, reason: str = "cancelled by user") -> bool:
        return self.jobs.cancel(job_id, reason=reason)

    def list_jobs(self, user: Optional[str] = None) -> list:
        return self.jobs.jobs(user=user)

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Graceful drain: running jobs finish, sessions close."""
        if self._down:
            return
        self._down = True
        self.slo.detach()
        self.jobs.stop()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def kill(self) -> None:
        """Simulate a frontend crash (journal freezes, work is torn down)."""
        self._down = True
        self.slo.detach()
        self.jobs.kill()

    def inject_crash(self, point: str = "commit", after: int = 1) -> None:
        """Arm a simulated crash at a job-journal window (fault drills)."""
        self.jobs.inject_crash(point=point, after=after)

    def __repr__(self):
        return (
            f"QservFrontend(root={str(self.root)!r}, "
            f"sessions={len(self._sessions)}, down={self._down})"
        )
