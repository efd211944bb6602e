"""Fault-tolerance tests: failures at every stage of the dispatch protocol.

All failures are expressed through the first-class fault-injection
layer (:class:`repro.xrd.FaultPlan`) instead of ad-hoc ``DataServer``
subclasses.
"""

import time

import pytest

from repro.data import build_testbed
from repro.qserv import ChunkTimeoutError, Czar, HedgePolicy, QueryError
from repro.xrd import (
    DataServer,
    FaultPlan,
    HealthTracker,
    Redirector,
    RedirectError,
    XrdClient,
)


@pytest.fixture
def tb():
    return build_testbed(num_workers=3, num_objects=600, seed=51, replication=2)


class TestRetryBetweenWriteAndRead:
    def test_czar_redispatches_to_replica(self, tb):
        """Kill a worker right after it accepts a chunk query.

        The nastiest failure window: the write *commits* (the worker got
        the query) but the node dies before the result can be read.
        """
        victim = tb.placement.nodes[0]
        FaultPlan().die_after_writes(1).attach(tb.servers[victim])

        r = tb.query("SELECT COUNT(*) FROM Object")
        assert int(r.table.column("COUNT(*)")[0]) == 600
        assert r.stats.chunks_retried >= 1
        assert not tb.servers[victim].up  # it really died mid-query

    def test_unreplicated_failure_is_fatal(self):
        tb1 = build_testbed(num_workers=2, num_objects=300, seed=53, replication=1)
        victim = tb1.placement.nodes[0]
        tb1.servers[victim].fail()
        with pytest.raises(QueryError) as exc:
            tb1.czar.submit("SELECT COUNT(*) FROM Object")
        # Back-compat: QueryError still is-a RedirectError.
        assert isinstance(exc.value, RedirectError)
        assert exc.value.failed_chunks
        assert exc.value.stats.chunks_retried >= 1


class TestDoubleFailure:
    def two_replica_chunks(self, tb, nodes):
        """Chunks whose entire replica set is ``nodes``."""
        return [
            cid
            for cid in tb.placement.chunk_ids
            if set(tb.placement.replicas(cid)) == set(nodes)
        ]

    def test_both_replicas_die_is_clean_error(self, tb):
        """Both owners of a chunk die: a typed error, not a hang."""
        # This targets the dispatch layer's error path; unhook mid-query
        # repair, which could race a rescue copy in after the first
        # death and (nondeterministically) save the doomed chunk.
        tb.czar.repair = None
        doomed = tb.placement.nodes[:2]
        lost = self.two_replica_chunks(tb, doomed)
        assert lost, "placement must co-locate some chunk on both victims"
        for node in doomed:
            FaultPlan().die_after_writes(1).attach(tb.servers[node])

        t0 = time.perf_counter()
        with pytest.raises(QueryError) as exc:
            tb.czar.submit("SELECT COUNT(*) FROM Object", deadline=10.0)
        assert time.perf_counter() - t0 < 8.0  # bounded, no deadlock
        assert exc.value.failed_chunks
        assert set(exc.value.failed_chunks) <= set(lost)

    def test_allow_partial_drops_dead_chunks(self):
        # Serial dispatch, deliberately: die_after_writes kills the
        # server when the fatal write's handle *closes*, and a write
        # racing in between open and close on another dispatch thread
        # can complete its whole write+read against the still-alive
        # server -- then one "doomed" chunk legitimately survives and
        # the strict failed_chunks equality below would flake.
        tb = build_testbed(
            num_workers=3,
            num_objects=600,
            seed=51,
            replication=2,
            dispatch_parallelism=1,
        )
        doomed = tb.placement.nodes[:2]
        lost = self.two_replica_chunks(tb, doomed)
        assert lost
        for node in doomed:
            FaultPlan().die_after_writes(1).attach(tb.servers[node])

        r = tb.czar.submit(
            "SELECT COUNT(*) FROM Object", deadline=10.0, allow_partial=True
        )
        assert r.stats.partial_result
        # Mid-query repair can rescue a doomed chunk: when the first
        # victim dies the czar re-replicates that chunk onto the
        # surviving third node between attempts, so failed_chunks is a
        # (non-empty) subset of the co-located set, not all of it.
        assert r.stats.failed_chunks
        assert set(r.stats.failed_chunks) <= set(lost)
        count = int(r.table.column("COUNT(*)")[0])
        assert 0 < count < 600  # the lost chunks' rows are missing


class TestCorruptPayload:
    def test_corrupt_wire_payload_is_retried(self, tb):
        """A flipped payload byte fails decode and triggers a re-read."""
        primary = tb.placement.nodes[0]
        FaultPlan(seed=5).corrupt_reads(count=1).attach(tb.servers[primary])

        r = tb.query("SELECT COUNT(*) FROM Object")
        assert int(r.table.column("COUNT(*)")[0]) == 600
        assert r.stats.chunks_retried >= 1
        assert r.stats.wire_format == "binary"


class TestDeadline:
    def test_hung_replicas_surface_as_timeout(self, tb):
        for server in tb.servers.values():
            FaultPlan().slow_reads(2.0, path_prefix="/result/").attach(server)

        t0 = time.perf_counter()
        with pytest.raises(ChunkTimeoutError) as exc:
            tb.czar.submit("SELECT COUNT(*) FROM Object", deadline=0.4)
        assert time.perf_counter() - t0 < 1.5
        assert exc.value.stats.chunks_timed_out >= 1
        assert isinstance(exc.value, QueryError)

    def test_generous_deadline_is_invisible(self, tb):
        r = tb.czar.submit("SELECT COUNT(*) FROM Object", deadline=30.0)
        assert int(r.table.column("COUNT(*)")[0]) == 600
        assert r.stats.chunks_timed_out == 0
        assert not r.stats.partial_result


class TestHedging:
    def test_straggler_is_hedged_to_replica(self):
        tb = build_testbed(
            num_workers=3,
            num_objects=600,
            seed=51,
            replication=2,
            hedge_policy=HedgePolicy(delay=0.05),
        )
        # The deterministic tie-break makes nodes[0] the primary for
        # every chunk it holds; stall two of its result reads.
        straggler = tb.placement.nodes[0]
        FaultPlan().slow_reads(0.5, path_prefix="/result/", count=2).attach(
            tb.servers[straggler]
        )

        r = tb.query("SELECT COUNT(*) FROM Object")
        assert int(r.table.column("COUNT(*)")[0]) == 600
        assert r.stats.chunks_hedged >= 1
        assert r.stats.hedges_won >= 1
        assert r.stats.chunks_retried == 0  # hedging, not failure

    def test_adaptive_threshold_from_latency_window(self, tb):
        czar = Czar(
            tb.redirector,
            tb.metadata,
            tb.chunker,
            available_chunks=tb.placement.chunk_ids,
            hedge_policy=HedgePolicy(
                percentile=95.0, multiplier=3.0, min_delay=0.02, min_observations=20
            ),
        )
        try:
            assert czar._hedge_delay() is None  # too few observations
            czar._latencies.extend([0.05] * 25)
            assert czar._hedge_delay() == pytest.approx(0.15)
            czar._latencies.clear()
            czar._latencies.extend([0.001] * 25)
            assert czar._hedge_delay() == 0.02  # clamped to min_delay
        finally:
            czar.close()


class TestHealthRouting:
    def test_flaky_replica_deprioritized_then_probed_back(self):
        redirector = Redirector()
        a, b = DataServer("a"), DataServer("b")
        for server in (a, b):
            redirector.register(server)
            for i in range(1, 6):
                server.export(f"/query2/{i}")
        health = HealthTracker(failure_threshold=3, cooldown=0.05)
        client = XrdClient(redirector, health=health)

        # A transaction is one shot: each failure on the preferred
        # replica is the caller's RedirectError, drops the cached
        # location and is told to the tracker; three trip it.
        assert client.write_file("/query2/4", b"q") == "a"
        FaultPlan().fail_opens(3, mode="w").attach(a)
        for _ in range(3):
            with pytest.raises(RedirectError):
                client.write_file("/query2/4", b"q")
            assert "/query2/4" not in redirector._cache
        assert health.state("a") == "open"

        # While open, routing avoids it even though it is the tie-break
        # winner and nominally up.
        assert client.write_file("/query2/2", b"q") == "b"

        # After the cooldown one probe goes back through; its success
        # closes the breaker.
        time.sleep(0.06)
        assert client.write_file("/query2/3", b"q") == "a"
        assert health.state("a") == "closed"

    def test_the_dispatch_loop_lands_a_refused_write_on_the_replica(self):
        """Section 5.6 where it lives: the client gives up at once and says
        so, ``ChunkDispatch._retry`` asks the redirector again."""
        health = HealthTracker(failure_threshold=1, cooldown=60.0)
        tb = build_testbed(
            num_workers=3, num_objects=600, seed=51, replication=2, health=health
        )
        try:
            victim = tb.placement.nodes[0]
            FaultPlan().fail_opens(99, mode="w").attach(tb.servers[victim])
            r = tb.czar.submit("SELECT COUNT(*) FROM Object")
            assert int(r.table.column("COUNT(*)")[0]) == 600
            assert r.stats.chunks_retried >= 1
            assert victim not in r.stats.workers_used
            assert health.state(victim) == "open"
        finally:
            tb.shutdown()


class TestRepeatedFailover:
    def test_sequential_queries_through_failures(self, tb):
        """Fail and recover nodes between queries; answers never change."""
        expected = None
        for i, node in enumerate(tb.placement.nodes):
            r = tb.query("SELECT COUNT(*) FROM Object")
            count = int(r.table.column("COUNT(*)")[0])
            if expected is None:
                expected = count
            assert count == expected
            tb.servers[node].fail()
            r = tb.query("SELECT COUNT(*) FROM Object")
            assert int(r.table.column("COUNT(*)")[0]) == expected
            tb.servers[node].recover()

    def test_aggregates_survive_failover(self, tb):
        direct = tb.query("SELECT AVG(ra_PS) AS m FROM Object").table.column("m")[0]
        tb.servers[tb.placement.nodes[1]].fail()
        after = tb.query("SELECT AVG(ra_PS) AS m FROM Object").table.column("m")[0]
        tb.servers[tb.placement.nodes[1]].recover()
        assert after == pytest.approx(direct, rel=1e-12)

    def test_secondary_index_query_survives(self, tb):
        oid = int(tb.tables["Object"].column("objectId")[5])
        before = tb.query(f"SELECT ra_PS FROM Object WHERE objectId = {oid}")
        owner_chunk = tb.secondary_index.lookup(oid)[0]
        primary = tb.placement.primary(owner_chunk)
        tb.servers[primary].fail()
        after = tb.query(f"SELECT ra_PS FROM Object WHERE objectId = {oid}")
        tb.servers[primary].recover()
        assert after.rows() == before.rows()
