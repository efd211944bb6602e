"""Frontend-tier tests: admission control, fair share, quotas, cache.

The admission controller is exercised both as a unit (threads against a
bare controller) and through the full testbed frontend, including the
typed-shedding contract: saturation produces ``QservOverloadError``
with a ``retry_after`` hint, never a hang or an untyped failure.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.data import build_testbed
from repro.qserv import (
    AdmissionController,
    QservOverloadError,
    QservQuotaError,
    QueryError,
    TenantPolicy,
)
from repro.qserv.czar import QueryResult, QueryStats
from repro.qserv.frontend import ResultCache
from repro.xrd import FaultPlan
from repro.xrd.protocol import QUERY_PREFIX


@pytest.fixture
def tb():
    return build_testbed(num_workers=2, num_objects=400, seed=11)


class TestAdmissionBasics:
    def test_grant_and_release(self):
        ac = AdmissionController(max_concurrent=2)
        t1 = ac.acquire("a")
        t2 = ac.acquire("a")
        snap = ac.snapshot()
        assert snap["a"]["running"] == 2
        t1.release()
        t2.release(rows=10, result_bytes=100)
        snap = ac.snapshot()
        assert snap["a"]["running"] == 0
        assert snap["a"]["rows_used"] == 10
        assert snap["a"]["bytes_used"] == 100

    def test_ticket_is_context_manager(self):
        ac = AdmissionController(max_concurrent=1)
        with ac.acquire("a"):
            assert ac.snapshot()["a"]["running"] == 1
        assert ac.snapshot()["a"]["running"] == 0

    def test_queue_full_sheds_typed(self):
        ac = AdmissionController(max_concurrent=1, max_queue_depth=0)
        held = ac.acquire("a")
        with pytest.raises(QservOverloadError) as exc:
            ac.acquire("a")
        assert exc.value.retry_after > 0
        assert exc.value.reason == "queue_full"
        held.release()
        # Capacity is back: the next acquire succeeds.
        ac.acquire("a").release()

    def test_per_tenant_queue_bound(self):
        ac = AdmissionController(
            max_concurrent=1,
            max_queue_depth=100,
            default_policy=TenantPolicy(max_queued=0),
        )
        held = ac.acquire("a")
        with pytest.raises(QservOverloadError):
            ac.acquire("a")
        held.release()

    def test_queue_wait_bound_sheds_typed(self):
        ac = AdmissionController(max_concurrent=1, max_queue_wait=0.05)
        held = ac.acquire("a")
        t0 = time.monotonic()
        with pytest.raises(QservOverloadError) as exc:
            ac.acquire("b")
        assert exc.value.reason == "queue_wait"
        assert time.monotonic() - t0 < 2.0  # bounded, not hung
        held.release()

    def test_waiter_granted_on_release(self):
        ac = AdmissionController(max_concurrent=1, max_queue_wait=5.0)
        held = ac.acquire("a")
        got = []

        def waiter():
            t = ac.acquire("b")
            got.append(True)
            t.release()

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.05)
        assert not got  # genuinely queued
        held.release()
        th.join(timeout=5)
        assert got == [True]

    def test_per_tenant_concurrency_cap(self):
        ac = AdmissionController(
            max_concurrent=8,
            max_queue_depth=0,
            default_policy=TenantPolicy(max_concurrent=1),
        )
        held = ac.acquire("a")
        with pytest.raises(QservOverloadError):
            ac.acquire("a")  # tenant cap, though global slots remain
        ac.acquire("b").release()  # another tenant is unaffected
        held.release()


class TestQuotas:
    def test_row_budget_exhaustion(self):
        ac = AdmissionController(default_policy=TenantPolicy(row_budget=100))
        ac.acquire("a").release(rows=150)
        with pytest.raises(QservQuotaError) as exc:
            ac.acquire("a")
        assert exc.value.reason == "row_budget"
        # Quota errors are typed overload errors too (one except clause).
        assert isinstance(exc.value, QservOverloadError)

    def test_byte_budget_exhaustion(self):
        ac = AdmissionController(default_policy=TenantPolicy(byte_budget=1000))
        ac.acquire("a").release(result_bytes=2000)
        with pytest.raises(QservQuotaError) as exc:
            ac.acquire("a")
        assert exc.value.reason == "byte_budget"

    def test_queued_waiter_fails_when_inflight_release_spends_budget(self):
        """Quota is re-checked at grant time, not only at enqueue."""
        ac = AdmissionController(
            max_concurrent=1,
            max_queue_wait=5.0,
            default_policy=TenantPolicy(row_budget=100),
        )
        held = ac.acquire("a")
        outcome = []

        def waiter():
            try:
                ac.acquire("a").release()
                outcome.append("granted")
            except QservQuotaError as e:
                outcome.append(e.reason)

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.05)  # genuinely queued behind the held slot
        held.release(rows=150)  # the in-flight query spends the budget
        th.join(timeout=5)
        assert outcome == ["row_budget"]
        # Accounted like any other quota rejection, and never admitted.
        snap = ac.snapshot()["a"]
        assert snap["shed"] == 1
        assert snap["admitted"] == 1  # only the first acquire

    def test_budget_is_per_tenant(self):
        ac = AdmissionController(default_policy=TenantPolicy(row_budget=100))
        ac.acquire("a").release(rows=150)
        ac.acquire("b").release(rows=10)  # unaffected


class TestFairShare:
    def _pound(self, ac, tenant, counts, stop):
        while not stop.is_set():
            try:
                t = ac.acquire(tenant, timeout=2.0)
            except QservOverloadError:
                continue
            try:
                time.sleep(0.002)
            finally:
                t.release()
            counts[tenant] += 1

    def test_equal_weights_share_equally(self):
        ac = AdmissionController(max_concurrent=1, max_queue_depth=10)
        counts = {"a": 0, "b": 0}
        stop = threading.Event()
        threads = [
            threading.Thread(target=self._pound, args=(ac, name, counts, stop))
            for name in counts
        ]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        total = sum(counts.values())
        assert total > 20
        # Stride scheduling keeps equal-weight tenants within a band.
        assert 0.25 < counts["a"] / total < 0.75

    def test_weighted_tenant_gets_proportional_share(self):
        ac = AdmissionController(max_concurrent=1, max_queue_depth=10)
        ac.set_policy("heavy", TenantPolicy(weight=4.0))
        ac.set_policy("light", TenantPolicy(weight=1.0))
        counts = {"heavy": 0, "light": 0}
        stop = threading.Event()
        # Two threads per tenant keep both backlogs non-empty, so the
        # stride scheduler (not submission timing) decides the shares.
        threads = [
            threading.Thread(target=self._pound, args=(ac, name, counts, stop))
            for name in counts
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        time.sleep(0.6)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert counts["light"] > 0  # no starvation
        ratio = counts["heavy"] / max(counts["light"], 1)
        assert ratio > 1.5  # clearly favored, not starved-out dominance

    def test_flooding_tenant_cannot_starve_another(self):
        ac = AdmissionController(max_concurrent=1, max_queue_depth=50)
        stop = threading.Event()
        counts = {"flood": 0, "polite": 0}
        flooders = [
            threading.Thread(target=self._pound, args=(ac, "flood", counts, stop))
            for _ in range(4)
        ]
        polite = threading.Thread(
            target=self._pound, args=(ac, "polite", counts, stop)
        )
        for t in flooders + [polite]:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in flooders + [polite]:
            t.join(timeout=5)
        # Four flooding threads vs one: per-tenant stride still gives the
        # polite tenant a real share of the single slot.
        assert counts["polite"] >= counts["flood"] * 0.2


class TestHealthScaledCapacity:
    def _health(self, states):
        return SimpleNamespace(
            snapshot=lambda: {
                f"w{i}": SimpleNamespace(state=s) for i, s in enumerate(states)
            }
        )

    def test_open_breakers_shrink_capacity(self):
        ac = AdmissionController(max_concurrent=4, health=self._health(["open", "open"]))
        with ac._lock:
            assert ac._capacity_locked() == 1
        ac.health = self._health(["closed", "open"])
        with ac._lock:
            assert ac._capacity_locked() == 2
        ac.health = self._health(["closed", "closed"])
        with ac._lock:
            assert ac._capacity_locked() == 4

    def test_degraded_cluster_admits_less(self):
        ac = AdmissionController(
            max_concurrent=2,
            max_queue_depth=0,
            health=self._health(["open", "open"]),
        )
        held = ac.acquire("a")
        with pytest.raises(QservOverloadError):
            ac.acquire("a")  # capacity scaled to 1 while breakers are open
        held.release()


class TestResultCache:
    def test_whitespace_variants_share_a_key(self):
        assert ResultCache.key("  SELECT   1 ;") == ResultCache.key("SELECT 1")

    def test_texts_that_differ_inside_a_string_do_not(self):
        assert ResultCache.key("SELECT 'a  b'") != ResultCache.key("SELECT 'a b'")

    def test_lru_eviction(self):
        r1, r2, r3 = (QueryResult(None, QueryStats()) for _ in range(3))
        c = ResultCache(capacity=2)
        c.put("q1", r1)
        c.put("q2", r2)
        assert c.get("q1") is r1  # refresh q1
        c.put("q3", r3)
        assert c.get("q2") is None  # q2 was the LRU victim
        assert c.get("q1") is r1
        assert c.get("q3") is r3
        assert c.metrics.counter("frontend.cache.evicted").value == 1

    def test_capacity_zero_disables(self):
        c = ResultCache(capacity=0)
        c.put("q", QueryResult(None, QueryStats()))
        assert c.get("q") is None
        assert len(c) == 0


class TestFrontendIntegration:
    def test_query_matches_proxy(self, tb):
        want = tb.proxy.query("SELECT COUNT(*) FROM Object")
        got = tb.frontend.query("SELECT COUNT(*) FROM Object", user="alice")
        assert got.rows() == want.rows()

    def test_cache_hit_returns_same_result(self, tb):
        r1 = tb.frontend.query("SELECT COUNT(*) FROM Object", user="alice")
        r2 = tb.frontend.query("SELECT  COUNT(*)  FROM Object", user="bob")
        assert r2 is r1  # served from cache, no re-execution
        hits = tb.frontend.cache.metrics.counter("frontend.cache.hits").value
        assert hits >= 1

    def test_a_partial_result_answers_only_the_caller_who_allowed_it(self):
        """The admission rule: what ``allow_partial`` left chunks out of is not cached."""
        tb = build_testbed(num_workers=3, num_objects=600, seed=7, replication=2)
        try:
            sql = "SELECT objectId FROM Object"
            rows = tb.czar.submit(sql).stats.chunk_profiles
            worker = tb.workers[rows[0].worker]
            missing = next(r for r in rows[1:] if r.worker == worker.name)
            # Its worker no longer holds the chunk and its replicas refuse it.
            dropped = [worker.db.get_table(n) for n in worker.chunk_tables(missing.chunk_id)]
            for table in dropped:
                worker.db.drop_table(table.name)
            for server in tb.servers.values():
                FaultPlan().fail_opens(
                    99, mode="w", path_prefix=f"{QUERY_PREFIX}{missing.chunk_id}"
                ).attach(server)
            partial = tb.frontend.query(sql, allow_partial=True)
            assert partial.stats.partial_result
            assert partial.table.num_rows == 600 - missing.rows
            assert len(tb.frontend.cache) == 0
            with pytest.raises(QueryError):
                tb.frontend.query(sql)
            for table in dropped:
                worker.db.create_table(table)
            for server in tb.servers.values():
                server.faults = None
            assert tb.frontend.query(sql).table.num_rows == 600
            assert tb.frontend.query(sql, allow_partial=True).table.num_rows == 600
        finally:
            tb.shutdown()

    def test_texts_that_differ_inside_a_string_are_different_queries(self, tb):
        """The key rule, through both text-keyed caches."""
        none = tb.frontend.query("SELECT COUNT(*) FROM Object WHERE 'a  b' = 'a b'")
        every = tb.frontend.query("SELECT COUNT(*) FROM Object WHERE 'a b' = 'a b'")
        assert [n for (n,) in none.rows()] == [0]
        assert [n for (n,) in every.rows()] == [400]
        assert every.stats.plan_cache_hits == 0
        again = tb.frontend.query("SELECT  COUNT(*) FROM Object\nWHERE 'a b' = 'a b' ;")
        assert again is every

    def test_quota_enforced_through_frontend(self, tb):
        tb.frontend.set_policy("greedy", TenantPolicy(row_budget=0))
        with pytest.raises(QservQuotaError):
            tb.frontend.query(
                "SELECT objectId FROM Object", user="greedy", use_cache=False
            )

    def test_shed_is_typed_through_frontend(self, tb):
        tb.frontend.admission.max_concurrent = 1
        tb.frontend.admission.max_queue_depth = 0
        held = tb.frontend.admission.acquire("hog")
        with pytest.raises(QservOverloadError) as exc:
            tb.frontend.query("SELECT COUNT(*) FROM Object", user="x", use_cache=False)
        assert exc.value.retry_after > 0
        held.release()

    def test_sessions_are_per_user_and_tagged(self, tb):
        from repro.obs import events as obs_events

        tb.frontend.query("SELECT COUNT(*) FROM Object", user="alice", use_cache=False)
        s_alice = tb.frontend.session("alice")
        s_bob = tb.frontend.session("bob")
        assert s_alice is not s_bob
        assert s_alice.user == "alice"
        ev = [e for e in obs_events.recent(50) if e.type == "query_end"]
        assert ev and ev[-1].fields["user"] == "alice"
        assert ev[-1].fields["session"] == s_alice.session_id

    def test_failed_query_releases_slot(self, tb):
        tb.frontend.admission.max_concurrent = 1
        with pytest.raises(Exception):
            tb.frontend.query("SELECT nope FROM NoSuchTable", user="a", use_cache=False)
        # The slot came back: a good query still runs.
        r = tb.frontend.query("SELECT COUNT(*) FROM Object", user="a", use_cache=False)
        assert r.table.num_rows == 1


class TestSessionLogBounded:
    def test_history_is_bounded_with_dropped_count(self, tb):
        from repro.qserv.proxy import HISTORY_LIMIT

        proxy = tb.frontend.session("churner")
        for i in range(HISTORY_LIMIT + 25):
            proxy.log.record(f"SELECT {i}", 0.001)
        assert len(proxy.log.history) == HISTORY_LIMIT
        assert proxy.log.history_dropped == 25
        # The newest entries survive.
        assert proxy.log.history[-1][0] == f"SELECT {HISTORY_LIMIT + 24}"
