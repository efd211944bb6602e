"""SHOW PROCESSLIST liveness: in-flight queries are visible mid-run.

An operator session must see another session's running query *while it
runs* -- with monotonically increasing chunks-done -- and the entry
must disappear however the query ends: completion, cancellation,
admission shed, or a crash-recovered batch re-run.
"""

import threading
import time

import pytest

from repro.data import build_testbed
from repro.obs import progress as obs_progress
from repro.qserv import QueryCancelledError
from repro.qserv.frontend import QservFrontend, QservOverloadError, TenantPolicy
from repro.xrd import FaultPlan
from repro.xrd.retry import CancelToken


def gate_workers(tb, started, gate):
    """Make every worker block at execute until the gate opens."""
    for w in tb.workers.values():
        orig = w._execute_task

        def blocking(*task, _orig=orig):
            started.set()
            assert gate.wait(timeout=30)
            _orig(*task)

        w._execute_task = blocking


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestLiveness:
    def test_running_query_is_visible_and_progress_is_monotonic(self):
        tb = build_testbed(num_workers=2, num_objects=400, seed=17, worker_slots=1)
        try:
            started, gate = threading.Event(), threading.Event()
            gate_workers(tb, started, gate)
            result = {}

            def run():
                result["r"] = tb.czar.submit(
                    "SELECT COUNT(*) FROM Object", tenant="alice", session="s-1"
                )

            t = threading.Thread(target=run)
            t.start()
            try:
                assert started.wait(timeout=10)
                # The observer session sees the in-flight entry.
                assert wait_until(
                    lambda: any(
                        e["tenant"] == "alice"
                        for e in obs_progress.PROCESSLIST.entries()
                    )
                )
                entry = next(
                    e
                    for e in obs_progress.PROCESSLIST.entries()
                    if e["tenant"] == "alice"
                )
                assert entry["stage"] == "dispatch"
                assert entry["chunks_total"] > 0
                assert entry["session"] == "s-1"
                first_seen = entry["chunks_done"]
                gate.set()
                # Chunks-done climbs while the query drains.
                observed = [first_seen]

                def saw_progress():
                    live = [
                        e
                        for e in obs_progress.PROCESSLIST.entries()
                        if e["tenant"] == "alice"
                    ]
                    if live:
                        observed.append(live[0]["chunks_done"])
                    return not live  # until the entry disappears

                assert wait_until(saw_progress, timeout=30)
                assert observed == sorted(observed)  # monotonic
                assert max(observed) >= first_seen
            finally:
                gate.set()
                t.join(timeout=30)
            assert not t.is_alive()
            # Completion removed the entry.
            assert all(
                e["tenant"] != "alice" for e in obs_progress.PROCESSLIST.entries()
            )
            assert int(result["r"].table.column("COUNT(*)")[0]) == 400
        finally:
            tb.shutdown()

    def test_cancelled_query_leaves_no_entry(self):
        tb = build_testbed(num_workers=2, num_objects=300, seed=43, worker_slots=1)
        try:
            started, gate = threading.Event(), threading.Event()
            gate_workers(tb, started, gate)
            token = CancelToken()

            def run():
                with pytest.raises(QueryCancelledError):
                    tb.czar.submit(
                        "SELECT COUNT(*) FROM Object", cancel=token, tenant="bob"
                    )

            t = threading.Thread(target=run)
            t.start()
            try:
                assert started.wait(timeout=10)
                assert wait_until(
                    lambda: any(
                        e["tenant"] == "bob"
                        for e in obs_progress.PROCESSLIST.entries()
                    )
                )
                token.cancel("operator kill")
                assert wait_until(
                    lambda: all(
                        e["tenant"] != "bob"
                        for e in obs_progress.PROCESSLIST.entries()
                    ),
                    timeout=30,
                )
            finally:
                gate.set()
                t.join(timeout=30)
            assert not t.is_alive()
        finally:
            tb.shutdown()

    def test_failed_query_leaves_no_entry(self):
        tb = build_testbed(num_workers=2, num_objects=300, seed=31, replication=1)
        try:
            tb.servers[tb.placement.nodes[0]].fail()
            with pytest.raises(Exception):
                tb.czar.submit("SELECT COUNT(*) FROM Object", tenant="carol")
            assert all(
                e["tenant"] != "carol" for e in obs_progress.PROCESSLIST.entries()
            )
        finally:
            tb.shutdown()


class TestChunkAccounting:
    """The entry is told of every chunk that ends, with its retries."""

    def test_retries_show_while_the_query_is_in_flight(self):
        """Every chunk but the held ones is done while the query waits.

        What a worker holds is one write -- the batch the held chunk
        travels in -- so the chunks still open are that batch's members.
        """
        tb = build_testbed(num_workers=3, num_objects=600, seed=51, replication=2)
        try:
            victim = tb.placement.nodes[0]
            FaultPlan(seed=7).die_after_writes(1).attach(tb.servers[victim])
            # Hold one chunk the dying worker never sees (inline workers:
            # only its dispatch thread waits), so the query is still in
            # flight when every retried chunk has ended.
            held = next(
                c for c in tb.placement.chunk_ids
                if victim not in tb.placement.replicas(c)
            )
            started, gate = threading.Event(), threading.Event()
            held_with = []
            for w in tb.workers.values():
                orig = w._execute_task

                def blocking(task, *rest, _orig=orig):
                    if held in [chunk_id for chunk_id, _ in task.members]:
                        held_with.extend(task.members)
                        started.set()
                        assert gate.wait(timeout=30)
                    _orig(task, *rest)

                w._execute_task = blocking
            result = {}
            t = threading.Thread(
                target=lambda: result.update(
                    r=tb.czar.submit("SELECT COUNT(*) FROM Object", tenant="dora")
                )
            )
            t.start()
            try:
                assert started.wait(timeout=10)

                def entry():
                    return next(
                        e
                        for e in obs_progress.PROCESSLIST.entries()
                        if e["tenant"] == "dora"
                    )

                assert wait_until(
                    lambda: entry()["chunks_done"]
                    == entry()["chunks_total"] - len(held_with)
                )
                assert entry()["retries"] >= 1
            finally:
                gate.set()
                t.join(timeout=30)
            assert not t.is_alive()
            stats = result["r"].stats
            assert stats.chunks_retried >= 1
            assert int(result["r"].table.column("COUNT(*)")[0]) == 600
        finally:
            tb.shutdown()

    def test_partial_query_counts_its_dropped_chunks_as_done(self, monkeypatch):
        tb = build_testbed(num_workers=2, num_objects=400, seed=31, replication=1)
        try:
            tb.servers[tb.placement.nodes[0]].fail()
            entries = []
            begin = obs_progress.PROCESSLIST.begin

            def capture(*args, **kwargs):
                entries.append(begin(*args, **kwargs))
                return entries[-1]

            monkeypatch.setattr(obs_progress.PROCESSLIST, "begin", capture)
            r = tb.czar.submit("SELECT COUNT(*) FROM Object", allow_partial=True)
            assert r.stats.partial_result and r.stats.failed_chunks
            snap = entries[0].snapshot()
            assert snap["chunks_done"] == snap["chunks_total"]
            assert snap["chunks_total"] == (
                r.stats.chunks_dispatched + len(r.stats.failed_chunks)
            )
        finally:
            tb.shutdown()


class TestFrontendIntegration:
    def test_shed_query_never_appears(self):
        """An admission-shed query never reaches the czar's registry."""
        tb = build_testbed(num_workers=1, num_objects=100, seed=3)
        frontend = QservFrontend(
            tb.czar, max_concurrent=1, max_queue_depth=0, max_queue_wait=0.05
        )
        try:
            started, gate = threading.Event(), threading.Event()
            gate_workers(tb, started, gate)

            def run():
                try:
                    frontend.query("SELECT COUNT(*) FROM Object", user="slow")
                except Exception:
                    pass

            t = threading.Thread(target=run)
            t.start()
            try:
                assert started.wait(timeout=10)
                with pytest.raises(QservOverloadError):
                    frontend.query("SELECT objectId FROM Object", user="shed-me")
                assert all(
                    e["tenant"] != "shed-me"
                    for e in obs_progress.PROCESSLIST.entries()
                )
            finally:
                gate.set()
                t.join(timeout=30)
            assert not t.is_alive()
        finally:
            frontend.shutdown()
            tb.shutdown()

    def test_recovered_batch_job_entry_completes_and_disappears(self):
        """A start-crashed job re-runs as a fresh submit on recovery:
        the re-run gets its own PROCESSLIST entry and it is gone once
        the job finishes."""
        import tempfile

        tb = build_testbed(num_workers=1, num_objects=100, seed=3)
        try:
            with tempfile.TemporaryDirectory() as root:
                f1 = QservFrontend(tb.czar, root=root)
                f1.inject_crash(point="start", after=1)
                f1.submit_job("SELECT COUNT(*) FROM Object", user="batch")
                assert wait_until(lambda: f1.jobs.journal._dead, timeout=30)
                job_id = f1.list_jobs()[0]["job_id"]
                f1.kill()

                f2 = QservFrontend(tb.czar, root=root)
                try:
                    assert wait_until(
                        lambda: f2.poll_job(job_id)["status"] == "done", timeout=30
                    ), f2.poll_job(job_id)
                    assert all(
                        e["tenant"] != "batch"
                        for e in obs_progress.PROCESSLIST.entries()
                    )
                finally:
                    f2.shutdown()
        finally:
            tb.shutdown()
