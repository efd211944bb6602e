"""EXPLAIN ANALYZE accounting-identity tests.

The query's chunk ledger is the only writer of the profile's per-chunk
rows and the only place their columns reach the metric counters, and
``QueryStats`` is a view over the same rows -- so three views of one
query agree *exactly*, not approximately:

1. the sums over ``result.stats.profile`` chunk rows,
2. the ``QueryStats`` totals (the same sums: ``assert_identity`` is a
   guard on the definition),
3. the process-global metric deltas across the submit -- the one that
   can still go wrong.

That identity must survive retries, hedges, timeouts, partial results
and fail-fast queries injected through seeded fault plans.
"""

import os
import threading
import time

import pytest

from repro.data import build_testbed
from repro.obs import metrics as obs_metrics
from repro.qserv import HedgePolicy, QueryCancelledError, QueryError
from repro.xrd import FaultPlan
from repro.xrd.retry import CancelToken

#: Chaos runs reuse the suite under a different seed; the identity must
#: hold for any seed, so the fault plans below inherit it.
SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Global counters that must move by exactly the per-chunk sums.
_GLOBAL = {
    "chunks_ok": "czar.chunks.dispatched",
    "retries": "czar.chunks.retried",
    "subchunk_statements": "czar.subchunk.statements",
    "bytes_sent": "czar.bytes.dispatched",
    "bytes_received": "czar.bytes.collected",
    "rows": "czar.rows.merged",
    "hedges": "czar.chunks.hedged",
    "hedges_won": "czar.hedges.won",
    "timeouts": "czar.chunks.timed_out",
}


def global_values():
    return {key: obs_metrics.counter(name).value for key, name in _GLOBAL.items()}


def assert_identity(stats):
    """Profile sums == QueryStats counters, field by field."""
    t = stats.profile.totals()
    assert t["chunks_ok"] == stats.chunks_dispatched
    assert t["rows"] == stats.rows_merged
    assert t["bytes_sent"] == stats.bytes_dispatched
    assert t["bytes_received"] == stats.bytes_collected
    assert t["retries"] == stats.chunks_retried
    assert t["hedges"] == stats.chunks_hedged
    assert t["hedges_won"] == stats.hedges_won
    assert t["timeouts"] == stats.chunks_timed_out
    assert t["subchunk_statements"] == stats.sub_chunk_statements
    return t


def assert_global_deltas(before, after, totals):
    for key in _GLOBAL:
        assert after[key] - before[key] == totals[key], key


class TestCleanQuery:
    def test_profile_sums_match_stats_and_global_metrics(self):
        tb = build_testbed(num_workers=2, num_objects=400, seed=17)
        try:
            before = global_values()
            r = tb.czar.submit("SELECT COUNT(*) FROM Object")
            totals = assert_identity(r.stats)
            assert_global_deltas(before, global_values(), totals)
            profile = r.stats.profile
            assert profile.status == "ok"
            assert totals["chunks"] == totals["chunks_ok"] > 0
            assert all(c.status == "ok" for c in profile.chunks)
            assert all(c.attempts == 1 for c in profile.chunks)
            assert all(c.worker for c in profile.chunks)
            assert all(c.wire_format == "binary" for c in profile.chunks)
            assert sum(c.rows for c in profile.chunks) == r.stats.rows_merged
        finally:
            tb.shutdown()

    def test_near_neighbor_accounts_subchunk_statements(self):
        tb = build_testbed(num_workers=2, num_objects=400, seed=17)
        try:
            before = global_values()
            r = tb.czar.submit(
                "SELECT count(*) FROM Object o1, Object o2 "
                "WHERE qserv_areaspec_box(0, -7, 2, -3) "
                "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.04"
            )
            totals = assert_identity(r.stats)
            assert totals["subchunk_statements"] > 0
            assert_global_deltas(before, global_values(), totals)
        finally:
            tb.shutdown()

    def test_traced_profile_gains_worker_columns(self):
        tb = build_testbed(num_workers=2, num_objects=400, seed=17)
        try:
            r = tb.czar.submit("SELECT COUNT(*) FROM Object", trace=True)
            profile = r.stats.profile
            assert profile.traced
            enriched = [c for c in profile.chunks if c.execute_seconds is not None]
            assert enriched, "no worker.execute span matched any chunk"
            for c in enriched:
                assert c.queue_wait is not None and c.queue_wait >= 0.0
                assert c.rows_scanned is not None and c.rows_scanned >= c.rows
            # Tracing must not perturb the accounting identity.
            assert_identity(r.stats)
        finally:
            tb.shutdown()

    def test_untraced_profile_leaves_worker_columns_none(self):
        tb = build_testbed(num_workers=2, num_objects=400, seed=17)
        try:
            r = tb.czar.submit("SELECT COUNT(*) FROM Object", trace=False)
            profile = r.stats.profile
            assert not profile.traced
            assert all(c.execute_seconds is None for c in profile.chunks)
            assert_identity(r.stats)
        finally:
            tb.shutdown()


class TestUnderFaults:
    def test_identity_survives_retries(self):
        tb = build_testbed(num_workers=3, num_objects=600, seed=51, replication=2)
        try:
            victim = tb.placement.nodes[0]
            FaultPlan(seed=SEED).die_after_writes(1).attach(tb.servers[victim])
            before = global_values()
            r = tb.query("SELECT COUNT(*) FROM Object")
            totals = assert_identity(r.stats)
            assert totals["retries"] >= 1
            assert_global_deltas(before, global_values(), totals)
            retried = [c for c in r.stats.profile.chunks if c.retries]
            assert retried
            assert all(c.attempts == c.retries + 1 for c in retried)
        finally:
            tb.shutdown()

    def test_identity_survives_hedges(self):
        tb = build_testbed(
            num_workers=3,
            num_objects=600,
            seed=51,
            replication=2,
            hedge_policy=HedgePolicy(delay=0.05),
        )
        try:
            straggler = tb.placement.nodes[0]
            FaultPlan(seed=SEED).slow_reads(
                0.5, path_prefix="/result/", count=2
            ).attach(tb.servers[straggler])
            before = global_values()
            r = tb.query("SELECT COUNT(*) FROM Object")
            totals = assert_identity(r.stats)
            assert totals["hedges"] >= 1 and totals["hedges_won"] >= 1
            assert_global_deltas(before, global_values(), totals)
        finally:
            tb.shutdown()

    def test_identity_survives_partial_results(self):
        tb = build_testbed(num_workers=2, num_objects=400, seed=31, replication=1)
        try:
            victim = tb.placement.nodes[0]
            expected_failures = len(tb.placement.chunks_of(victim))
            assert expected_failures > 0
            tb.servers[victim].fail()
            before = global_values()
            r = tb.czar.submit("SELECT COUNT(*) FROM Object", allow_partial=True)
            totals = assert_identity(r.stats)
            profile = r.stats.profile
            assert profile.partial_result
            assert totals["timeouts"] + totals["failed"] == expected_failures
            assert totals["chunks"] == totals["chunks_ok"] + expected_failures
            assert_global_deltas(before, global_values(), totals)
        finally:
            tb.shutdown()


    def test_identity_survives_failing_fast_past_chunks_in_flight(self):
        """submit raises on the first dead chunk; the live ones end after it."""
        tb = build_testbed(num_workers=2, num_objects=400, seed=31, replication=1)
        try:
            victim, survivor = tb.placement.nodes[:2]
            tb.servers[victim].fail()
            FaultPlan(seed=SEED).slow_reads(0.3, path_prefix="/result/").attach(
                tb.servers[survivor]
            )
            before = global_values()
            with pytest.raises(QueryError) as exc:
                tb.czar.submit("SELECT COUNT(*) FROM Object")
            stats = exc.value.stats
            assert any(c.status == "pending" for c in stats.chunk_profiles)
            deadline = time.monotonic() + 10.0
            while any(c.status == "pending" for c in stats.chunk_profiles):
                assert time.monotonic() < deadline, "dispatch threads never drained"
                time.sleep(0.01)
            totals = assert_identity(stats)
            assert totals["failed"] >= 1 and totals["chunks_ok"] >= 1
            assert totals["rows"] == 0  # collected after the failure, never merged
            assert sorted(stats.failed_chunks) == sorted(tb.placement.chunks_of(victim))
            assert_global_deltas(before, global_values(), totals)
        finally:
            tb.shutdown()


class TestCancellation:
    """Satellite: trace/profile coverage on the cancellation path."""

    def _cancel_mid_flight(self, tb, trace=False):
        for server in tb.servers.values():
            FaultPlan(seed=SEED).slow_writes(0.25).attach(server)
        token = CancelToken()
        timer = threading.Timer(0.05, token.cancel, args=("impatient user",))
        timer.start()
        try:
            with pytest.raises(QueryCancelledError) as exc:
                tb.czar.submit(
                    "SELECT COUNT(*) FROM Object", cancel=token, trace=trace
                )
        finally:
            timer.cancel()
        return exc.value

    def test_cancelled_query_profile_counts_partial_chunks(self):
        tb = build_testbed(num_workers=2, num_objects=300, seed=43)
        try:
            before = global_values()
            err = self._cancel_mid_flight(tb)
            assert err.stats is not None
            totals = assert_identity(err.stats)
            profile = err.stats.profile
            assert profile.status == "cancelled"
            assert totals["cancelled"] >= 1
            # Finished-before-cancel chunks keep their accounting; the
            # global deltas still match the partial per-chunk sums.
            assert totals["chunks_ok"] == err.stats.chunks_dispatched
            assert_global_deltas(before, global_values(), totals)
        finally:
            tb.shutdown()

    def test_cancelled_query_trace_marks_spans_cancelled(self):
        tb = build_testbed(num_workers=2, num_objects=300, seed=43)
        try:
            err = self._cancel_mid_flight(tb, trace=True)
            trace = err.stats.trace
            assert trace is not None
            statuses = {sp.status for sp in trace.spans}
            assert "cancelled" in statuses
            profile = err.stats.profile
            assert profile.traced
            assert any(c.status == "cancelled" for c in profile.chunks)
        finally:
            tb.shutdown()
