"""Cooperative cancellation tests: frontend -> czar -> worker.

Covers the full withdrawal path: a cancelled token unwinds the czar's
dispatch loops with a typed :class:`QueryCancelledError`, best-effort
``/cancel/<H>`` writes withdraw chunk queries from workers (queued
tasks are discarded without executing, freeing the slot), and a
cancelled-before-dispatch hash is remembered so a late-arriving chunk
query is refused.  Also pins the shutdown-race baseline: ``Czar.close``
and worker shutdown racing in-flight queries and new submissions must
produce typed errors, never hangs.
"""

import threading
import time

import numpy as np
import pytest

from repro.data import build_testbed
from repro.partition import Chunker
from repro.qserv import (
    QueryCancelledError,
    QueryError,
    QservWorker,
    WorkerCancelledError,
    WorkerShutdownError,
)
from repro.sql import Database, SqlError, Table
from repro.xrd import FaultPlan, RedirectError
from repro.xrd.protocol import (
    ChunkRequest,
    cancel_path,
    query_hash,
    query_path,
    result_path,
)
from repro.xrd.retry import CancelToken


def make_worker(slots=0):
    """A worker hosting one chunk with a tiny Object table."""
    db = Database("LSST")
    chunker = Chunker(18, 6, 0.05)
    rng = np.random.default_rng(5)
    n = 40
    cid = chunker.chunk_id(10.0, 5.0)
    box = chunker.chunk_box(cid)
    ra = box.ra_min + rng.uniform(0.05, box.ra_extent() - 0.1, n)
    dec = box.dec_min + rng.uniform(0.05, box.dec_extent() - 0.1, n)
    table = Table(
        f"Object_{cid}",
        {
            "objectId": np.arange(n, dtype=np.int64),
            "ra_PS": ra,
            "decl_PS": dec,
            "chunkId": np.full(n, cid, dtype=np.int64),
            "subChunkId": chunker.sub_chunk_id(ra, dec),
        },
    )
    db.create_table(table)
    db.create_table(
        Table(f"ObjectFullOverlap_{cid}", {k: v[:0] for k, v in table.columns().items()})
    )
    return QservWorker("w-cancel", db, slots=slots), cid


class TestWorkerCancellation:
    def test_cancel_discards_queued_task_and_frees_slot(self):
        w, cid = make_worker(slots=1)
        started = threading.Event()
        gate = threading.Event()
        orig = w._execute_task

        def blocking(*task):
            started.set()
            assert gate.wait(timeout=10)
            orig(*task)

        w._execute_task = blocking
        q1 = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS Object;"
        q2 = f"SELECT objectId FROM LSST.Object_{cid} AS Object;"
        w.on_write(query_path(cid), q1.encode())
        assert started.wait(timeout=5)  # q1 occupies the single slot
        w.on_write(query_path(cid), q2.encode())

        # Withdraw the queued q2: discarded without ever executing.
        w.on_write(cancel_path(query_hash(q2)), b"")
        with pytest.raises(WorkerCancelledError):
            w.on_read(result_path(query_hash(q2)))
        assert w.stats.queries_cancelled == 1

        gate.set()  # q1 was never affected
        data = w.on_read(result_path(query_hash(q1)))
        assert data is not None
        assert w.stats.queries_executed == 1
        w.shutdown()

    def test_cancel_before_dispatch_refuses_late_query(self):
        w, cid = make_worker(slots=0)
        q = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS Object;"
        w.on_write(cancel_path(query_hash(q)), b"")  # cancel arrives first
        w.on_write(query_path(cid), q.encode())  # late dispatch refused
        with pytest.raises(WorkerCancelledError):
            w.on_read(result_path(query_hash(q)))
        assert w.stats.queries_executed == 0

    def test_cancel_is_scoped_to_the_submission_nonce(self):
        """Cancel memory withdraws one submission, not the SQL forever."""
        w, cid = make_worker(slots=0)
        sql = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS Object;"
        old = ChunkRequest(sql, attempt="attempt-old").encode().decode()
        fresh = ChunkRequest(sql, attempt="attempt-new").encode().decode()
        # The nonce is per-attempt metadata: all three share one hash.
        assert query_hash(old) == query_hash(fresh) == query_hash(sql)

        w.on_write(cancel_path(query_hash(sql)), b"attempt-old")
        w.on_write(query_path(cid), old.encode())  # the withdrawn attempt
        with pytest.raises(WorkerCancelledError):
            w.on_read(result_path(query_hash(sql)))
        assert w.stats.queries_executed == 0

        # A fresh submission of the identical SQL is not poisoned --
        # neither with a new nonce nor with no attempt header at all.
        w.on_write(query_path(cid), fresh.encode())
        assert w.on_read(result_path(query_hash(sql))) is not None
        assert w.stats.queries_executed == 1
        w.on_write(query_path(cid), sql.encode())
        assert w.on_read(result_path(query_hash(sql))) is not None

    def test_cancel_unknown_hash_is_harmless(self):
        w, cid = make_worker(slots=0)
        w.on_write(cancel_path("f" * 32), b"")
        q = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS Object;"
        w.on_write(query_path(cid), q.encode())
        assert w.on_read(result_path(query_hash(q))) is not None

    def test_cancelled_result_is_not_stored(self):
        """Cancel lands while the task is executing: result is dropped."""
        w, cid = make_worker(slots=1)
        started = threading.Event()
        gate = threading.Event()
        orig = w._execute_task

        def blocking(*task):
            started.set()
            assert gate.wait(timeout=10)
            orig(*task)

        w._execute_task = blocking
        q = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS Object;"
        w.on_write(query_path(cid), q.encode())
        assert started.wait(timeout=5)
        w.on_write(cancel_path(query_hash(q)), b"")  # mid-execution
        gate.set()
        with pytest.raises(WorkerCancelledError):
            w.on_read(result_path(query_hash(q)))
        with w._lock:
            assert result_path(query_hash(q)) not in w._results
        w.shutdown()


class TestCzarCancellation:
    def test_pre_cancelled_token_raises_immediately(self):
        tb = build_testbed(num_workers=2, num_objects=300, seed=41)
        token = CancelToken()
        token.cancel("user abandoned")
        before = tb.czar.metrics.counter("czar.queries.cancelled").value
        t0 = time.monotonic()
        with pytest.raises(QueryCancelledError):
            tb.czar.submit("SELECT COUNT(*) FROM Object", cancel=token)
        assert time.monotonic() - t0 < 2.0
        assert tb.czar.metrics.counter("czar.queries.cancelled").value == before + 1
        tb.shutdown()

    def test_cancel_mid_flight_unwinds_typed(self):
        tb = build_testbed(num_workers=2, num_objects=300, seed=43)
        for server in tb.servers.values():
            FaultPlan(seed=43).slow_writes(0.25).attach(server)
        token = CancelToken()
        timer = threading.Timer(0.05, token.cancel, args=("impatient user",))
        timer.start()
        with pytest.raises(QueryCancelledError):
            tb.czar.submit("SELECT COUNT(*) FROM Object", cancel=token)
        timer.cancel()
        # The cluster is still healthy for the next (uncancelled) query.
        r = tb.czar.submit("SELECT COUNT(*) FROM Object")
        assert int(r.table.column("COUNT(*)")[0]) == 300
        tb.shutdown()

    def test_resubmitting_cancelled_sql_executes(self):
        """A withdrawn query's SQL can be run again (same result hash)."""
        tb = build_testbed(num_workers=2, num_objects=300, seed=61)
        for server in tb.servers.values():
            FaultPlan(seed=61).slow_writes(0.25).attach(server)
        token = CancelToken()
        timer = threading.Timer(0.05, token.cancel, args=("changed my mind",))
        timer.start()
        with pytest.raises(QueryCancelledError):
            tb.czar.submit("SELECT objectId, ra_PS FROM Object", cancel=token)
        timer.cancel()
        # Fresh submissions of the identical SQL -- with and without a
        # token -- must execute despite worker cancel memories left by
        # the withdrawal, instead of failing with WorkerCancelledError.
        r1 = tb.czar.submit("SELECT objectId, ra_PS FROM Object")
        r2 = tb.czar.submit(
            "SELECT objectId, ra_PS FROM Object", cancel=CancelToken()
        )
        assert r1.table.num_rows == 300
        assert r2.table.num_rows == 300
        tb.shutdown()

    def test_uncancelled_token_changes_nothing(self):
        tb = build_testbed(num_workers=2, num_objects=300, seed=47)
        token = CancelToken()
        r = tb.czar.submit("SELECT COUNT(*) FROM Object", cancel=token)
        assert int(r.table.column("COUNT(*)")[0]) == 300
        tb.shutdown()


class TestShutdownRace:
    """Satellite: Czar.close()/worker shutdown racing live submissions."""

    ALLOWED = (QueryError, WorkerShutdownError, RedirectError, SqlError, RuntimeError)

    def test_shutdown_with_inflight_and_new_queries_is_typed(self):
        tb = build_testbed(num_workers=2, num_objects=400, seed=53, worker_slots=2)
        outcomes = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    r = tb.czar.submit("SELECT COUNT(*) FROM Object")
                    outcomes.append(("ok", int(r.table.column("COUNT(*)")[0])))
                except self.ALLOWED as e:
                    outcomes.append(("typed", type(e).__name__))
                except BaseException as e:  # noqa: BLE001 - the test records anything else as a failure
                    outcomes.append(("BAD", f"{type(e).__name__}: {e}"))
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.2)  # queries genuinely in flight
        tb.shutdown()
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "hammer thread hung"
        bad = [o for o in outcomes if o[0] == "BAD"]
        assert not bad, bad
        assert any(o[0] == "ok" for o in outcomes)  # some ran before close
        # Every success saw the right answer (no torn merges mid-close).
        assert all(o[1] == 400 for o in outcomes if o[0] == "ok")

    def test_submission_after_shutdown_is_typed(self):
        tb = build_testbed(num_workers=2, num_objects=300, seed=59)
        tb.shutdown()
        with pytest.raises(self.ALLOWED):
            tb.czar.submit("SELECT COUNT(*) FROM Object")
