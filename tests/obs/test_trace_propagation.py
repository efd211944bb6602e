"""Trace propagation across the czar -> xrd -> worker boundary.

The czar carries trace context to workers inside the chunk query text
(the ``-- TRACE:`` header), so these tests exercise the full dispatch
protocol -- including the resilience machinery: retried and hedged
attempts must appear as *sibling* spans under one dispatch span, and a
losing hedge must end ``cancelled`` next to its ``ok`` sibling.

``CHAOS_SEED`` seeds the fault plans, matching the chaos CI matrix.
"""

import os

import pytest

from repro.data import build_testbed
from repro.qserv import HedgePolicy
from repro.xrd import FaultPlan
from repro.xrd.protocol import ChunkRequest, query_hash

SEED = int(os.environ.get("CHAOS_SEED", "7"))


def span_tree(trace):
    """(spans_by_id, children_by_parent_id) for structural assertions."""
    spans = trace.spans
    by_id = {s.span_id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    return by_id, children


class TestHeaderProtocol:
    """The trace field of the envelope (tests/xrd/test_protocol.py has the codec)."""

    def test_round_trip(self):
        text = ChunkRequest("SELECT 1", trace=("t000042", "s7")).encode().decode()
        assert text == "-- TRACE: t000042/s7\nSELECT 1"
        assert ChunkRequest.decode(text).trace == ("t000042", "s7")

    def test_absent_header_is_none(self):
        assert ChunkRequest.decode("SELECT 1").trace is None

    def test_header_only_scanned_in_the_leading_comment_block(self):
        text = "SELECT 1\n-- TRACE: t1/s1"
        assert ChunkRequest.decode(text).trace is None

    def test_query_hash_ignores_trace_header(self):
        plain = "-- RESULT_FORMAT: binary\nSELECT COUNT(*) FROM Object_1234"
        assert query_hash("-- TRACE: t000001/s3\n" + plain) == query_hash(plain)
        assert query_hash("-- TRACE: t9/s9\n" + plain) == query_hash(plain)


class TestEndToEndStructure:
    @pytest.fixture(scope="class")
    def tb(self):
        tb = build_testbed(num_workers=3, num_objects=600, seed=51, replication=2)
        yield tb
        tb.shutdown()

    def test_worker_spans_nest_under_czar_attempts(self, tb):
        """One ``dispatch`` span and one attempt per batch -- the chunks one
        worker answers in one transaction -- and every member's worker
        spans under that attempt (counts re-derived from one per chunk)."""
        r = tb.query(
            "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId", trace=True
        )
        trace = r.stats.trace
        assert trace is not None
        by_id, children = span_tree(trace)

        roots = children[None]
        assert [s.name for s in roots] == ["query"]
        root = roots[0]

        dispatches = [s for s in trace.spans if s.name == "dispatch"]
        assert len(dispatches) == len(r.stats.workers_used) > 1
        assert sum(s.attrs["members"] for s in dispatches) == r.stats.chunks_dispatched
        assert all(s.parent_id == root.span_id for s in dispatches)

        attempts = [s for s in trace.spans if s.name == "attempt"]
        executes = [s for s in trace.spans if s.name == "worker.execute"]
        dumps = [s for s in trace.spans if s.name == "worker.dump"]
        assert len(executes) == r.stats.chunks_dispatched  # one success per chunk
        assert len({s.attrs["chunk"] for s in executes}) == len(executes)
        for sp in attempts:
            assert by_id[sp.parent_id].name == "dispatch"
            members = [k for k in children[sp.span_id] if k.name == "worker.execute"]
            assert len(members) == sp.attrs["members"]
        for sp in executes + dumps:
            parent = by_id[sp.parent_id]
            assert parent.name == "attempt"
            assert parent.attrs["worker"] == sp.attrs["worker"]
            assert sp.attrs["worker"] in r.stats.workers_used

        assert {s.name for s in children[root.span_id]} >= {
            "plan",
            "dispatch",
            "merge",
        }
        assert all(s.status == "ok" for s in trace.spans)

    def test_untraced_query_carries_no_header_and_no_trace(self, tb):
        from repro.obs import trace as obs_trace

        # Pin tracing off for this one: the suite also runs under
        # REPRO_TRACE=1 in CI (the conftest fixture restores env config).
        obs_trace.configure(enabled=False)
        r = tb.query("SELECT COUNT(*) FROM Object")
        assert r.stats.trace is None


class TestRetrySiblings:
    def test_retried_attempts_are_siblings_under_one_dispatch(self):
        """The batch that lost its worker holds its failed attempt and,
        one ``dispatch`` span per member sent again alone, the retries:
        numbered on, under the same span, never mixed with another's."""
        tb = build_testbed(num_workers=3, num_objects=600, seed=51, replication=2)
        try:
            victim = tb.placement.nodes[0]
            FaultPlan(seed=SEED).die_after_writes(1).attach(tb.servers[victim])

            r = tb.query("SELECT COUNT(*) FROM Object", trace=True)
            assert int(r.table.column("COUNT(*)")[0]) == 600
            assert r.stats.chunks_retried >= 1

            trace = r.stats.trace
            by_id, children = span_tree(trace)

            def attempts_under(span):
                kids = children.get(span.span_id, [])
                return [k for k in kids if k.name == "attempt"] + [
                    a for k in kids if k.name == "dispatch" for a in attempts_under(k)
                ]

            retried = [
                s
                for s in children[children[None][0].span_id]
                if s.name == "dispatch" and len(attempts_under(s)) >= 2
            ]
            assert retried, "no dispatch span holds an attempt and its retry"
            kids = attempts_under(retried[0])
            first = [k for k in kids if k.attrs["n"] == 0]
            assert len(first) == 1 and first[0].status == "error"  # the dead worker
            again = [k for k in kids if k.attrs["n"] > 0]
            assert len(again) == first[0].attrs["members"] == r.stats.chunks_retried
            assert all(k.attrs["members"] == 1 for k in again)  # each alone
            assert any(k.status == "ok" for k in again)  # the replica
            for sp in trace.spans:  # numbered within a span
                mine = [k.attrs["n"] for k in children.get(sp.span_id, []) if k.name == "attempt"]
                assert len(set(mine)) == len(mine)
        finally:
            tb.shutdown()


class TestHedgeSiblings:
    def test_losing_hedge_is_cancelled_next_to_its_ok_sibling(self):
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

            r = tb.query("SELECT COUNT(*) FROM Object", trace=True)
            assert int(r.table.column("COUNT(*)")[0]) == 600
            assert r.stats.chunks_hedged >= 1
            assert r.stats.hedges_won >= 1

            trace = r.stats.trace
            by_id, children = span_tree(trace)
            hedged = [
                s
                for s in trace.spans
                if s.name == "attempt" and s.attrs.get("kind") == "hedge"
            ]
            assert hedged
            saw_cancelled_loser = False
            for sp in hedged:
                siblings = [
                    k
                    for k in children[sp.parent_id]
                    if k.name == "attempt" and k is not sp
                ]
                assert siblings, "hedge attempt has no primary sibling"
                pair = [sp] + siblings
                statuses = {k.status for k in pair}
                assert "ok" in statuses  # someone won
                if "cancelled" in statuses:
                    saw_cancelled_loser = True
            assert saw_cancelled_loser, "no losing attempt was marked cancelled"
        finally:
            tb.shutdown()
