"""End-to-end czar tests on a full in-process cluster.

These are the integration tests of the whole Figure-1 stack: proxy ->
czar -> xrootd dispatch -> worker engines -> mysqldump collection ->
merge.  Every query family from the paper's evaluation (section 6.2)
runs here against brute-force NumPy ground truth.
"""

import numpy as np
import pytest

from repro.data import build_testbed
from repro.qserv import QservAnalysisError
from repro.sphgeom import SphericalBox, angular_separation
from repro.sql import SqlError


@pytest.fixture(scope="module")
def tb():
    return build_testbed(num_workers=3, num_objects=1200, seed=7)


@pytest.fixture(scope="module")
def objects(tb):
    t = tb.tables["Object"]
    return {name: t.column(name) for name in t.column_names}


class TestLV1ObjectRetrieval:
    def test_single_object(self, tb, objects):
        oid = int(objects["objectId"][42])
        r = tb.query(f"SELECT * FROM Object WHERE objectId = {oid}")
        assert r.table.num_rows == 1
        assert int(r.table.column("objectId")[0]) == oid

    def test_uses_secondary_index(self, tb, objects):
        oid = int(objects["objectId"][0])
        r = tb.query(f"SELECT * FROM Object WHERE objectId = {oid}")
        assert r.stats.used_secondary_index
        assert r.stats.chunks_dispatched == 1

    def test_unknown_object_empty(self, tb):
        r = tb.query("SELECT * FROM Object WHERE objectId = 999999999")
        assert r.table.num_rows == 0
        assert r.stats.chunks_dispatched == 0

    def test_in_list_dispatch(self, tb, objects):
        ids = [int(objects["objectId"][i]) for i in (0, 100, 700)]
        r = tb.query(
            f"SELECT objectId FROM Object WHERE objectId IN ({', '.join(map(str, ids))})"
        )
        assert sorted(int(v) for v in r.table.column("objectId")) == sorted(ids)


class TestLV2TimeSeries:
    def test_matches_ground_truth(self, tb, objects):
        src = tb.tables["Source"]
        oid = int(objects["objectId"][10])
        expected = int(np.count_nonzero(src.column("objectId") == oid))
        r = tb.query(
            "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), "
            f"ra, decl FROM Source WHERE objectId = {oid}"
        )
        assert r.table.num_rows == expected

    def test_output_columns(self, tb, objects):
        oid = int(objects["objectId"][10])
        r = tb.query(f"SELECT taiMidPoint, ra, decl FROM Source WHERE objectId = {oid}")
        assert r.column_names == ["taiMidPoint", "ra", "decl"]


class TestLV3SpatialFilter:
    def test_count_matches(self, tb, objects):
        ra, dec = objects["ra_PS"], objects["decl_PS"]
        expected = int(np.count_nonzero((ra >= 1) & (ra <= 2) & (dec >= 3) & (dec <= 4)))
        r = tb.query(
            "SELECT COUNT(*) FROM Object "
            "WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 3 AND 4"
        )
        assert int(r.table.column("COUNT(*)")[0]) == expected

    def test_color_cut(self, tb, objects):
        mags_z = -2.5 * np.log10(objects["zFlux_PS"]) + 8.9
        expected = int(np.count_nonzero((mags_z >= 21) & (mags_z <= 21.5)))
        r = tb.query(
            "SELECT COUNT(*) FROM Object WHERE fluxToAbMag(zFlux_PS) BETWEEN 21 AND 21.5"
        )
        assert int(r.table.column("COUNT(*)")[0]) == expected


class TestHV1Count:
    def test_full_sky_count(self, tb, objects):
        r = tb.query("SELECT COUNT(*) FROM Object")
        assert int(r.table.column("COUNT(*)")[0]) == len(objects["objectId"])

    def test_dispatches_every_chunk(self, tb):
        r = tb.query("SELECT COUNT(*) FROM Object")
        assert r.stats.chunks_dispatched == len(tb.placement.chunk_ids)

    def test_uses_multiple_workers(self, tb):
        r = tb.query("SELECT COUNT(*) FROM Object")
        assert len(r.stats.workers_used) == len(tb.workers)


class TestHV2Filter:
    def test_matches_ground_truth(self, tb, objects):
        mag_i = -2.5 * np.log10(objects["iFlux_PS"]) + 8.9
        mag_z = -2.5 * np.log10(objects["zFlux_PS"]) + 8.9
        expected = int(np.count_nonzero(mag_i - mag_z > 0.2))
        r = tb.query(
            "SELECT objectId, ra_PS, decl_PS FROM Object "
            "WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.2"
        )
        assert r.table.num_rows == expected


class TestHV3Density:
    def test_group_per_chunk(self, tb, objects):
        r = tb.query(
            "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId "
            "FROM Object GROUP BY chunkId"
        )
        assert r.table.num_rows == len(
            np.unique(tb.chunker.chunk_id(objects["ra_PS"], objects["decl_PS"]))
        )
        assert int(r.table.column("n").sum()) == len(objects["objectId"])

    def test_chunk_averages_correct(self, tb, objects):
        r = tb.query(
            "SELECT count(*) AS n, AVG(ra_PS) AS mra, chunkId "
            "FROM Object GROUP BY chunkId"
        )
        cids = tb.chunker.chunk_id(objects["ra_PS"], objects["decl_PS"])
        for cid, mra in zip(r.table.column("chunkId"), r.table.column("mra")):
            mask = cids == cid
            assert mra == pytest.approx(objects["ra_PS"][mask].mean(), rel=1e-9)


class TestAggregationExample:
    """Section 5.3's worked example, end to end."""

    def test_avg_with_areaspec(self, tb, objects):
        r = tb.query(
            "SELECT AVG(uFlux_SG) FROM Object "
            "WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04"
        )
        box = SphericalBox(0, 0, 10, 10)
        mask = box.contains(objects["ra_PS"], objects["decl_PS"]) & (
            objects["uRadius_PS"] > 0.04
        )
        expected = objects["uFlux_SG"][mask].mean()
        assert r.table.column("AVG(uFlux_SG)")[0] == pytest.approx(expected, rel=1e-12)
        assert r.stats.used_region_restriction
        assert r.stats.chunks_dispatched < len(tb.placement.chunk_ids)


class TestSHV1NearNeighbor:
    def test_pairs_match_brute_force_within_overlap(self, tb, objects):
        """Pair distance below the overlap radius: results must be exact."""
        dist = tb.chunker.overlap * 0.9
        r = tb.query(
            "SELECT count(*) FROM Object o1, Object o2 "
            "WHERE qserv_areaspec_box(0, -7, 5, 0) "
            f"AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {dist}"
        )
        ra, dec = objects["ra_PS"], objects["decl_PS"]
        box = SphericalBox(0, -7, 5, 0)
        left = np.flatnonzero(box.contains(ra, dec))
        sep = angular_separation(
            ra[left][:, None], dec[left][:, None], ra[None, :], dec[None, :]
        )
        expected = int(np.count_nonzero(sep < dist))
        assert int(r.table.column("count(*)")[0]) == expected

    def test_subchunk_statements_dispatched(self, tb):
        r = tb.query(
            "SELECT count(*) FROM Object o1, Object o2 "
            "WHERE qserv_areaspec_box(0, -7, 2, -3) "
            "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.04"
        )
        assert r.stats.sub_chunk_statements > 0


class TestSHV2SourcesNotNearObjects:
    def test_matches_brute_force(self, tb, objects):
        src = tb.tables["Source"]
        r = tb.query(
            "SELECT o.objectId, s.sourceId, s.ra, s.decl, o.ra_PS, o.decl_PS "
            "FROM Object o, Source s "
            "WHERE qserv_areaspec_box(0, -7, 5, 0) "
            "AND o.objectId = s.objectId "
            "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.00002"
        )
        ra, dec = objects["ra_PS"], objects["decl_PS"]
        box = SphericalBox(0, -7, 5, 0)
        obj_in = box.contains(ra, dec)
        pos = {
            int(o): (r_, d_)
            for o, r_, d_, keep in zip(objects["objectId"], ra, dec, obj_in)
            if keep
        }
        count = 0
        for o, sr, sd in zip(src.column("objectId"), src.column("ra"), src.column("decl")):
            if int(o) in pos:
                orr, od = pos[int(o)]
                if angular_separation(sr, sd, orr, od) > 0.00002:
                    count += 1
        assert r.table.num_rows == count


class TestOrderingAndLimits:
    def test_global_order_after_merge(self, tb, objects):
        r = tb.query("SELECT objectId FROM Object ORDER BY objectId DESC LIMIT 5")
        expected = np.sort(objects["objectId"])[-5:][::-1]
        np.testing.assert_array_equal(r.table.column("objectId"), expected)

    def test_distinct_across_chunks(self, tb, objects):
        r = tb.query("SELECT DISTINCT chunkId FROM Object")
        cids = np.unique(tb.chunker.chunk_id(objects["ra_PS"], objects["decl_PS"]))
        assert sorted(int(v) for v in r.table.column("chunkId")) == sorted(
            int(v) for v in cids
        )


class TestErrorPaths:
    def test_unpartitioned_only_query_rejected(self, tb):
        with pytest.raises(QservAnalysisError):
            tb.czar.submit("SELECT * FROM Filters")

    def test_worker_error_propagates(self, tb):
        with pytest.raises((SqlError, Exception)):
            tb.czar.submit("SELECT no_such_column FROM Object")


class TestScalingConfiguration:
    def test_restricted_chunk_set(self, tb, objects):
        """Paper section 6.3: the frontend dispatches a chunk subset to
        simulate smaller clusters; counts shrink accordingly."""
        from repro.qserv import Czar

        subset = tb.placement.chunk_ids[: max(1, len(tb.placement.chunk_ids) // 2)]
        czar = Czar(
            tb.redirector,
            tb.metadata,
            tb.chunker,
            secondary_index=tb.secondary_index,
            available_chunks=subset,
        )
        r = czar.submit("SELECT COUNT(*) FROM Object")
        assert r.stats.chunks_dispatched == len(subset)
        cids = tb.chunker.chunk_id(objects["ra_PS"], objects["decl_PS"])
        expected = int(np.count_nonzero(np.isin(cids, subset)))
        assert int(r.table.column("COUNT(*)")[0]) == expected


class TestParallelDispatch:
    def test_parallel_same_answer(self):
        tb2 = build_testbed(
            num_workers=2,
            num_objects=400,
            seed=3,
            worker_slots=2,
            dispatch_parallelism=4,
        )
        try:
            r = tb2.query("SELECT COUNT(*) FROM Object")
            assert int(r.table.column("COUNT(*)")[0]) == 400
        finally:
            tb2.shutdown()


class TestFaultTolerance:
    def test_replicated_cluster_survives_node_failure(self):
        tb2 = build_testbed(num_workers=3, num_objects=500, seed=9, replication=2)
        r1 = tb2.query("SELECT COUNT(*) FROM Object")
        # Kill one node; replicas must answer.
        name = tb2.placement.nodes[0]
        tb2.servers[name].fail()
        r2 = tb2.query("SELECT COUNT(*) FROM Object")
        assert int(r2.table.column("COUNT(*)")[0]) == int(r1.table.column("COUNT(*)")[0])


class TestProxySession:
    def test_fetch_all_shape(self, tb):
        cols, rows = tb.proxy.fetch_all("SELECT COUNT(*) FROM Object")
        assert cols == ["COUNT(*)"]
        assert len(rows) == 1

    def test_session_log(self, tb):
        before = tb.proxy.log.queries
        tb.proxy.query("SELECT COUNT(*) FROM Object")
        assert tb.proxy.log.queries == before + 1
        assert tb.proxy.log.distributed_queries >= 1


class TestFreshLiteralsOfOneShape:
    """The 2nd..Nth literal of a shape is bound, not parsed -- and planned anew.

    What the numbers decide (index values, the region, coverage, the
    chunk-query text) is redone for every query; only what the shape
    decides is kept.  ``plan_cache_hits`` keeps counting exact repeats.
    """

    LV1 = "SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = {}"
    LV3 = (
        "SELECT COUNT(*) FROM Object "
        "WHERE qserv_areaspec_box({}, {}, {}, {}) AND uFlux_SG > 1e-30"
    )

    def dispatched(self, result):
        return sorted(p.chunk_id for p in result.stats.chunk_profiles)

    def box_count(self, objects, ra_min, dec_min, ra_max, dec_max):
        inside = SphericalBox(ra_min, dec_min, ra_max, dec_max).contains(
            objects["ra_PS"], objects["decl_PS"]
        )
        return int(np.count_nonzero(inside & (objects["uFlux_SG"] > 1e-30)))

    def test_an_object_in_another_chunk_goes_to_that_chunk(self, tb, objects):
        home = tb.chunker.chunk_id(objects["ra_PS"], objects["decl_PS"])
        shapes = len(tb.czar._shapes)
        seen = set()
        for chunk in (288, 322, 324, 358, 288):
            row = int(np.flatnonzero(home == chunk)[len(seen)])
            oid = int(objects["objectId"][row])
            sql = self.LV1.format(oid)
            r = tb.query(sql)
            assert r.table.rows() == [(oid, objects["ra_PS"][row], objects["decl_PS"][row])]
            assert self.dispatched(r) == [chunk]
            assert r.stats.plan_cache_hits == 0  # a new literal is a new text
            assert tb.query(sql).stats.plan_cache_hits == 1
            seen.add(chunk)
        assert len(tb.czar._shapes) == shapes + 1

    def test_an_unknown_object_reaches_no_chunk(self, tb, objects):
        known = int(objects["objectId"][5])
        count = "SELECT COUNT(*) FROM Object WHERE objectId = {}"
        for template, answers in (
            (self.LV1, {known: 1, 999999999: 0, 888888888: 0}),
            (count, {known: [(1,)], 999999999: [(0,)], 888888888: [(0,)]}),
        ):
            for oid, expected in answers.items():
                r = tb.query(template.format(oid))
                assert r.stats.chunks_dispatched == (1 if oid == known else 0)
                if template is count:
                    assert r.table.rows() == expected
                else:
                    assert r.table.num_rows == expected
            # ... and back: the template was not left pointing nowhere.
            assert tb.query(template.format(known)).stats.chunks_dispatched == 1

    @pytest.mark.parametrize(
        "boxes",
        [
            # one sign pattern each, so each list is one shape
            [
                ((1.0, 1.0, 3.0, 3.0), [324]),
                ((359.0, 1.0, 359.5, 3.0), [358]),
                ((359.0, 1.0, 1.0, 3.0), [324, 358]),  # across RA 0
                ((359.0, 1.0, 361.0, 3.0), [324, 358]),
                ((1.0, 3.0, 3.0, 1.0), [324]),  # swapped declination bounds
            ],
            [
                ((1.0, -3.0, 3.0, -1.0), [288]),
                ((1.0, -1.0, 3.0, -1.0), [288]),
                ((358.0, -3.0, 359.0, -1.0), [322]),
            ],
            [
                ((1.0, -1.0, 3.0, 1.0), [288, 324]),  # across the stripe border
                ((359.0, -1.0, 1.0, 1.0), [288, 322, 324, 358]),
                ((358.0, -1.0, 359.0, 1.0), [322, 358]),
            ],
        ],
    )
    def test_a_box_moved_across_borders_is_covered_anew(self, tb, objects, boxes):
        shapes = len(tb.czar._shapes)
        for box, chunks in boxes:
            r = tb.query(self.LV3.format(*box))
            ra_min, dec_min, ra_max, dec_max = box
            expected = self.box_count(
                objects, ra_min, min(dec_min, dec_max), ra_max, max(dec_min, dec_max)
            )
            assert r.table.rows() == [(expected,)]
            assert self.dispatched(r) == chunks
            assert r.stats.plan_cache_hits == 0
        assert len(tb.czar._shapes) <= shapes + 1

    def test_an_invalid_polygon_is_rejected_on_every_use_of_its_shape(self, tb, objects):
        poly = "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_poly({}, {}, {}, {}, {}, {}, {}, {})"
        convex = (1.0, 1.0, 3.0, 1.0, 3.0, 3.0, 1.0, 3.0)
        bowtie = (1.0, 1.0, 3.0, 3.0, 3.0, 1.0, 1.0, 3.0)
        collapsed = (1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 1.0, 3.0)
        first = tb.query(poly.format(*convex)).table.rows()
        assert first[0][0] > 0
        for bad in (bowtie, collapsed, bowtie):
            with pytest.raises(QservAnalysisError, match="qserv_areaspec_poly"):
                tb.query(poly.format(*bad))
        moved = tuple(v + 0.5 for v in convex)
        assert tb.query(poly.format(*moved)).table.rows() != first
        assert tb.query(poly.format(*convex)).table.rows() == first

    def test_errors_read_the_same_on_every_use(self, tb):
        messages = []
        for k in (1, 2, 3):
            with pytest.raises(QservAnalysisError) as raised:
                tb.query(f"SELECT COUNT(*) FROM Object WHERE objectId = {k} AND qserv_areaspec_box(1, 2)")
            messages.append(str(raised.value))
        assert len(set(messages)) == 1 and "takes 4 arguments" in messages[0]
        for k in (1, 2):
            with pytest.raises(QservAnalysisError, match="parse error"):
                tb.query(f"SELECT COUNT(* FROM Object WHERE objectId = {k}")


class TestQueryStatsIsAViewOverTheRows:
    """Every total is a sum over one column of the chunk ledger's rows."""

    @staticmethod
    def ledger_of(*rows):
        from repro.obs import metrics as obs_metrics
        from repro.obs.profile import ChunkLedger, ledger_counters

        registry = obs_metrics.Registry()
        ledger = ChunkLedger(ledger_counters(registry))
        for chunk_id, status, bumps, columns in rows:
            row = ledger.open(chunk_id, subchunks=columns.pop("subchunks", 0))
            for column in bumps:
                ledger.bump(row, column)
            ledger.close(row, status, **columns)
        return ledger, registry

    ROWS = (
        (11, "ok", ["attempts"], dict(
            worker="w0", bytes_sent=100, bytes_received=40, wire_format="binary",
            seconds=0.01, subchunks=3)),
        (12, "ok", ["attempts", "retries", "attempts", "hedges", "hedges_won"], dict(
            worker="w1", bytes_sent=110, bytes_received=50, wire_format="sqldump",
            seconds=0.02)),
        (13, "failed", ["attempts", "retries", "attempts", "retries", "attempts"], {}),
        (14, "timeout", ["attempts", "hedges"], dict(subchunks=5)),
        (15, "cancelled", ["attempts"], {}),
    )

    def rows(self):
        return [(c, s, list(b), dict(k)) for c, s, b, k in self.ROWS]

    def test_totals_over_a_mix_of_terminal_rows(self):
        from repro.qserv.czar import QueryStats

        ledger, registry = self.ledger_of(*self.rows())
        ledger.merged([(ledger.rows[0], 7), (ledger.rows[1], 5)])
        stats = QueryStats(ledger)
        assert stats.chunks_dispatched == 2
        assert stats.sub_chunk_statements == 3  # the timed-out chunk's 5 never ran
        assert (stats.bytes_dispatched, stats.bytes_collected) == (210, 90)
        assert stats.rows_merged == 12
        assert stats.chunks_retried == 3
        assert (stats.chunks_hedged, stats.hedges_won) == (2, 1)
        assert stats.chunks_timed_out == 1
        assert stats.workers_used == {"w0", "w1"}
        assert stats.failed_chunks == [13, 14, 15]
        assert stats.wire_format == "mixed"
        assert [c.chunk_id for c in stats.chunk_profiles] == [11, 12, 13, 14, 15]
        assert [c.attempts for c in stats.chunk_profiles] == [1, 2, 3, 1, 1]
        # ... and the counters the ledger fed moved by the same sums.
        moved = {k: v for k, v in registry.snapshot().items() if v}
        assert moved == {
            "czar.chunks.dispatched": 2,
            "czar.subchunk.statements": 3,
            "czar.bytes.dispatched": 210,
            "czar.bytes.collected": 90,
            "czar.bytes.collected.binary": 40,
            "czar.bytes.collected.sqldump": 50,
            "czar.rows.merged": 12,
            "czar.chunks.retried": 3,
            "czar.chunks.hedged": 2,
            "czar.hedges.won": 1,
            "czar.chunks.timed_out": 1,
            "czar.chunks.failed": 2,
            "czar.chunks.cancelled": 1,
        }
        t = stats.profile.totals()
        assert (t["chunks"], t["failed"], t["timeouts"], t["cancelled"]) == (5, 1, 1, 1)

    def test_partial_result_needs_allow_partial_and_a_dropped_chunk(self):
        from repro.qserv.czar import QueryStats

        ledger, _ = self.ledger_of(*self.rows())
        stats = QueryStats(ledger)
        assert not stats.partial_result
        stats.allow_partial = True
        assert stats.partial_result
        clean, _ = self.ledger_of(*self.rows()[:2])
        stats = QueryStats(clean)
        stats.allow_partial = True
        assert not stats.partial_result and stats.failed_chunks == []

    def test_one_wire_format(self):
        from repro.qserv.czar import QueryStats

        ledger, _ = self.ledger_of(self.rows()[0], self.rows()[3])
        assert QueryStats(ledger).wire_format == "binary"

    def test_a_row_in_flight_counts_its_retries_only(self):
        from repro.obs.profile import ChunkLedger
        from repro.qserv.czar import QueryStats

        ledger = ChunkLedger()
        row = ledger.open(21, subchunks=4)
        ledger.bump(row, "retries")
        stats = QueryStats(ledger)
        assert stats.chunks_retried == 1
        assert stats.chunks_dispatched == stats.sub_chunk_statements == 0
        assert stats.failed_chunks == [] and stats.workers_used == set()

    def test_no_rows_reads_all_zeros(self):
        """The proxy's local-query path hands out a bare QueryStats()."""
        from repro.qserv.czar import QueryStats

        stats = QueryStats()
        assert stats.as_dict() == {
            "chunks_dispatched": 0, "chunks_retried": 0, "sub_chunk_statements": 0,
            "bytes_dispatched": 0, "bytes_collected": 0, "rows_merged": 0,
            "plan_cache_hits": 0, "chunks_hedged": 0, "hedges_won": 0,
            "chunks_timed_out": 0, "workers_used": set(),
            "used_secondary_index": False, "used_region_restriction": False,
            "elapsed_seconds": 0.0, "wire_format": "", "partial_result": False,
            "failed_chunks": [],
        }
        assert stats.chunk_profiles == [] and stats.profile.totals()["chunks"] == 0
        with pytest.raises(AttributeError):
            stats.chunks_dispatched = 1  # a view: nothing to assign
