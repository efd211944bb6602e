"""Multi-master load balancing (paper section 7.6): a frontend over N czars."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data import build_testbed
from repro.qserv import Czar, QservFrontend
from repro.xrd import HealthTracker

from .test_jobs import wait_status


@pytest.fixture(scope="module")
def tb():
    # Threaded workers so concurrent czars actually overlap.
    tb = build_testbed(num_workers=3, num_objects=900, seed=61, worker_slots=2)
    yield tb
    tb.shutdown()


def make_frontend(tb, num_masters, cache_entries=0):
    """A frontend over ``num_masters`` czars sharing ``tb``'s cluster; by
    default without a result cache, so every query reaches a czar."""
    czars = [
        Czar(
            tb.redirector,
            tb.metadata,
            tb.chunker,
            secondary_index=tb.secondary_index,
            available_chunks=tb.placement.chunk_ids,
        )
        for _ in range(num_masters)
    ]
    return QservFrontend(czars, cache_entries=cache_entries)


def close(frontend):
    frontend.shutdown()
    for czar in frontend.czars:
        czar.close()


@pytest.fixture(scope="module")
def frontend(tb):
    frontend = make_frontend(tb, 3)
    yield frontend
    close(frontend)


def load_per_master(frontend):
    """(queries, chunks dispatched) per czar, from each czar's own counters."""
    return [
        (
            czar.metrics.counter("czar.queries").value,
            czar.metrics.counter("czar.chunks.dispatched").value,
        )
        for czar in frontend.czars
    ]


def query_concurrent(frontend, statements):
    """One thread per statement; results in input order, the first error raised."""
    with ThreadPoolExecutor(max_workers=len(statements)) as pool:
        return list(pool.map(frontend.query, statements))


class TestConstruction:
    def test_bad_master_count(self):
        with pytest.raises(ValueError):
            QservFrontend([])

    def test_num_masters(self, frontend, tb):
        assert len(frontend.czars) == 3
        assert len(tb.frontend.czars) == 1  # one czar is the list of one


class TestRoundRobin:
    def test_queries_rotate_masters(self, frontend, tb):
        before = load_per_master(frontend)
        for _ in range(6):
            frontend.query("SELECT COUNT(*) FROM Object")
        loads = load_per_master(frontend)
        assert [a[0] - b[0] for a, b in zip(loads, before)] == [2, 2, 2]

    def test_results_identical_across_masters(self, frontend, tb):
        results = [
            int(frontend.query("SELECT COUNT(*) FROM Object").table.column("COUNT(*)")[0])
            for _ in range(3)
        ]
        assert len(set(results)) == 1
        assert results[0] == tb.tables["Object"].num_rows

    def test_multi_master_traffic_is_admitted_and_cached(self, tb):
        """What the separate balancer bypassed: admission, the result cache, jobs."""
        fe = make_frontend(tb, 2, cache_entries=64)
        try:
            first = fe.query("SELECT COUNT(*) FROM Object", user="alice")
            assert fe.query("SELECT COUNT(*) FROM Object", user="bob") is first
            assert fe.admission.snapshot()["alice"]["rows_used"] == 1
            assert [q for q, _ in load_per_master(fe)] == [1, 0]
            job = fe.submit_job("SELECT COUNT(*) FROM Object", user="alice")
            assert wait_status(fe.jobs, job, timeout=30.0)["status"] == "done"
            assert [q for q, _ in load_per_master(fe)] == [1, 1]
        finally:
            close(fe)


class TestConcurrent:
    def test_concurrent_batch_correct(self, frontend, tb):
        obj = tb.tables["Object"]
        oids = [int(v) for v in obj.column("objectId")[:6]]
        statements = [f"SELECT objectId FROM Object WHERE objectId = {o}" for o in oids]
        statements.append("SELECT COUNT(*) FROM Object")
        results = query_concurrent(frontend, statements)
        for oid, r in zip(oids, results[:-1]):
            assert [int(v) for v in r.table.column("objectId")] == [oid]
        assert int(results[-1].table.column("COUNT(*)")[0]) == obj.num_rows

    def test_concurrent_mixed_load(self, frontend, tb):
        statements = [
            "SELECT COUNT(*) FROM Object",
            "SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId",
            "SELECT AVG(ra_PS) FROM Object",
        ]
        results = query_concurrent(frontend, statements)
        assert len(results) == 3
        assert all(r.table.num_rows >= 1 for r in results)

    def test_errors_propagate(self, frontend):
        with pytest.raises(Exception):
            query_concurrent(frontend, ["SELECT nope FROM Object"])


class TestChunkAccounting:
    def test_chunk_load_spreads(self, frontend, tb):
        before = load_per_master(frontend)
        for _ in range(3):
            frontend.query("SELECT COUNT(*) FROM Object")
        after = load_per_master(frontend)
        deltas = [a[1] - b[1] for a, b in zip(after, before)]
        assert sum(deltas) == 3 * len(tb.placement.chunk_ids)


class TestMasterHealth:
    def test_failing_master_skipped_then_probed_back(self, tb):
        # A fake clock makes the cooldown window deterministic: with
        # the real clock, slow runs (race-sanitized CI) let the
        # cooldown elapse mid-test and the probe fires early.
        now = [0.0]
        fe = make_frontend(tb, 2)
        fe.czar_health = HealthTracker(
            failure_threshold=3, cooldown=0.05, clock=lambda: now[0]
        )
        try:
            broken = fe.czars[0]
            original = broken.submit

            def boom(sql, **kw):
                raise RuntimeError("master wedged")

            broken.submit = boom
            # Until the breaker trips, round-robin keeps offering the
            # broken master and its failures surface to the caller.
            failures = 0
            for _ in range(8):
                try:
                    fe.query("SELECT COUNT(*) FROM Object")
                except RuntimeError:
                    failures += 1
            assert failures == 3  # exactly the trip threshold
            assert fe.czar_health.state("czar-0") == "open"
            assert fe.czar_health.state("czar-1") == "closed"
            # While open, every query routes around czar-0.
            for _ in range(4):
                fe.query("SELECT COUNT(*) FROM Object")

            # Cooldown elapses; the probe goes back through czar-0,
            # which has recovered, and the breaker closes.
            broken.submit = original
            now[0] += 0.06
            for _ in range(4):
                fe.query("SELECT COUNT(*) FROM Object")
            assert fe.czar_health.state("czar-0") == "closed"
        finally:
            close(fe)

    def test_a_query_that_is_wrong_is_not_held_against_its_czar(self, tb):
        fe = make_frontend(tb, 2)
        try:
            for _ in range(8):
                with pytest.raises(ValueError):
                    fe.query("SELECT nope FROM NoSuchTable")
            assert [fe.czar_health.state(f"czar-{i}") for i in (0, 1)] == ["closed"] * 2
        finally:
            close(fe)
