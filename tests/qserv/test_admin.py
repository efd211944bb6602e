"""Tests for cluster administration reports."""

import numpy as np
import pytest

from repro.data import build_testbed
from repro.qserv.admin import ClusterAdmin


@pytest.fixture
def replicated():
    tb = build_testbed(num_workers=3, num_objects=600, seed=41, replication=2)
    return tb, ClusterAdmin(tb.placement, tb.redirector, tb.workers)


@pytest.fixture
def unreplicated():
    tb = build_testbed(num_workers=3, num_objects=600, seed=43, replication=1)
    return tb, ClusterAdmin(tb.placement, tb.redirector, tb.workers)


class TestHealth:
    def test_healthy_cluster(self, replicated):
        tb, admin = replicated
        h = admin.health()
        assert h.healthy and h.available
        assert h.total_chunks == len(tb.placement.chunk_ids)
        assert not h.dark_chunks and not h.under_replicated
        assert len(h.nodes) == 3
        assert all(n.up for n in h.nodes)

    def test_node_reports_have_data(self, replicated):
        tb, admin = replicated
        for n in admin.health().nodes:
            assert n.tables > 0
            assert n.data_bytes > 0

    def test_failure_with_replicas_degrades(self, replicated):
        tb, admin = replicated
        victim = tb.placement.nodes[0]
        tb.servers[victim].fail()
        h = admin.health()
        assert not h.healthy  # a node is down
        assert h.available  # but every chunk still answers
        assert len(h.under_replicated) == len(tb.placement.chunks_hosted_by(victim))
        assert not h.dark_chunks

    def test_failure_without_replicas_goes_dark(self, unreplicated):
        tb, admin = unreplicated
        victim = tb.placement.nodes[0]
        tb.servers[victim].fail()
        h = admin.health()
        assert not h.available
        assert sorted(h.dark_chunks) == tb.placement.chunks_of(victim)

    def test_imbalance_metric(self, replicated):
        tb, admin = replicated
        assert admin.health().imbalance >= 1.0


class TestDataDistribution:
    def test_rows_sum_to_catalog(self, unreplicated):
        tb, admin = unreplicated
        dist = admin.data_distribution()
        total_obj = sum(counts.get("Object", 0) for counts in dist.values())
        assert total_obj == tb.tables["Object"].num_rows
        total_src = sum(counts.get("Source", 0) for counts in dist.values())
        assert total_src == tb.tables["Source"].num_rows

    def test_overlap_tables_excluded(self, unreplicated):
        tb, admin = unreplicated
        for counts in admin.data_distribution().values():
            assert not any("FullOverlap" in k for k in counts)

    def test_resident_sub_chunk_tables_are_not_logical_tables(self):
        """Sub-chunk tables kept by the sub-chunk cache are copies of chunk rows."""
        tb = build_testbed(num_objects=3000, seed=43, num_workers=3)
        try:
            admin = ClusterAdmin(tb.placement, tb.redirector, tb.workers)
            before = admin.data_distribution()
            for worker in tb.workers.values():
                worker.cache_sub_chunks = True
            objects = tb.tables["Object"]
            ra = float(np.median(objects.column("ra_PS")))
            dec = float(np.median(objects.column("decl_PS")))
            tb.query(
                "SELECT COUNT(*) FROM Object o1, Object o2 WHERE "
                f"qserv_areaspec_box({ra - 1}, {dec - 1}, {ra + 1}, {dec + 1}) "
                "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05"
            )
            resident = [
                name
                for worker in tb.workers.values()
                for name in worker.db.tables
                if name.count("_") == 2
            ]
            assert resident, "the query must leave sub-chunk tables behind"
            after = admin.data_distribution()
            assert after == before
            assert all(set(counts) == {"Object", "Source"} for counts in after.values())
        finally:
            tb.shutdown()


class TestFailureImpact:
    def test_replicated_node_loses_nothing(self, replicated):
        tb, admin = replicated
        impact = admin.failure_impact(tb.placement.nodes[1])
        assert impact["still_available"]
        assert impact["chunks_lost"] == []
        assert len(impact["chunks_degraded"]) > 0

    def test_unreplicated_node_loses_its_chunks(self, unreplicated):
        tb, admin = unreplicated
        node = tb.placement.nodes[1]
        impact = admin.failure_impact(node)
        assert not impact["still_available"]
        assert sorted(impact["chunks_lost"]) == tb.placement.chunks_hosted_by(node)

    def test_second_failure_after_first(self, replicated):
        """With one node already down, losing a second one loses data."""
        tb, admin = replicated
        tb.servers[tb.placement.nodes[0]].fail()
        impact = admin.failure_impact(tb.placement.nodes[1])
        # Any chunk whose only live replicas were nodes 0 and 1 dies.
        both = set(tb.placement.chunks_hosted_by(tb.placement.nodes[0])) & set(
            tb.placement.chunks_hosted_by(tb.placement.nodes[1])
        )
        assert set(impact["chunks_lost"]) == both

    def test_unknown_node(self, replicated):
        _, admin = replicated
        with pytest.raises(KeyError):
            admin.failure_impact("nope")
