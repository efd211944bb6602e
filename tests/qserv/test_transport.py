"""End-to-end result-transport tests: binary vs sqldump equivalence,
format negotiation/fallback, plan caching, and worker result eviction."""

import numpy as np
import pytest

from repro.data import build_testbed
from repro.qserv import Czar
from repro.sql.wire import is_wire_payload
from repro.xrd.protocol import query_hash, query_path, result_format_header, result_path


@pytest.fixture(scope="module")
def tb():
    return build_testbed(num_workers=3, num_objects=900, seed=11)


@pytest.fixture(scope="module")
def sqldump_czar(tb):
    """A paper-faithful czar over the same live cluster."""
    return Czar(
        tb.redirector,
        tb.metadata,
        tb.chunker,
        secondary_index=tb.secondary_index,
        available_chunks=tb.placement.chunk_ids,
        wire_format="sqldump",
    )


def sorted_rows(result):
    return sorted(tuple(map(str, row)) for row in result.rows())


class TestTransportEquivalence:
    AGG = (
        "SELECT count(*) AS n, AVG(ra_PS) AS mra, AVG(decl_PS) AS mdec, chunkId "
        "FROM Object GROUP BY chunkId"
    )

    def test_multi_chunk_aggregation_identical(self, tb, sqldump_czar):
        """The acceptance query: same rows under both wire formats."""
        binary = tb.czar.submit(self.AGG)
        legacy = sqldump_czar.submit(self.AGG)
        assert binary.stats.chunks_dispatched > 1
        assert binary.column_names == legacy.column_names
        assert sorted_rows(binary) == sorted_rows(legacy)

    def test_passthrough_identical(self, tb, sqldump_czar):
        q = "SELECT objectId, ra_PS, decl_PS FROM Object WHERE ra_PS < 3.0"
        assert sorted_rows(tb.czar.submit(q)) == sorted_rows(sqldump_czar.submit(q))

    def test_global_aggregate_identical(self, tb, sqldump_czar):
        q = "SELECT COUNT(*), AVG(uFlux_SG) FROM Object"
        b, s = tb.czar.submit(q), sqldump_czar.submit(q)
        assert b.rows() == s.rows()

    def test_stats_report_wire_format(self, tb, sqldump_czar):
        q = "SELECT COUNT(*) FROM Object"
        assert tb.czar.submit(q).stats.wire_format == "binary"
        assert sqldump_czar.submit(q).stats.wire_format == "sqldump"

    def test_binary_moves_fewer_bytes(self, tb, sqldump_czar):
        q = "SELECT objectId, ra_PS, decl_PS FROM Object"
        b, s = tb.czar.submit(q), sqldump_czar.submit(q)
        assert b.stats.bytes_collected < s.stats.bytes_collected

    def test_zero_chunk_query_has_no_format(self, tb):
        r = tb.czar.submit("SELECT * FROM Object WHERE objectId = 999999999")
        assert r.stats.wire_format == ""
        assert r.stats.chunks_dispatched == 0


class TestFormatNegotiation:
    def test_worker_defaults_to_sqldump(self, tb):
        """A chunk query without the header (an old master) gets SQL text."""
        worker = next(iter(tb.workers.values()))
        cid = worker.hosted_chunks()[0]
        text = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS Object;"
        worker.on_write(query_path(cid), text.encode())
        data = worker.on_read(result_path(query_hash(text)))
        assert not is_wire_payload(data)
        assert data.startswith(b"DROP TABLE IF EXISTS")

    def test_worker_honours_binary_header(self, tb):
        worker = next(iter(tb.workers.values()))
        cid = worker.hosted_chunks()[0]
        text = (
            result_format_header("binary")
            + f"\nSELECT COUNT(*) FROM LSST.Object_{cid} AS Object;"
        )
        worker.on_write(query_path(cid), text.encode())
        data = worker.on_read(result_path(query_hash(text)))
        assert is_wire_payload(data)

    def test_czar_decodes_untagged_payloads(self, tb):
        """A binary-mode czar over sqldump-only workers still merges.

        Simulated by a czar whose header request the workers ignore:
        submitting through the sqldump czar produces untagged payloads,
        and the binary czar's collection path accepts either -- here we
        check the detection branch directly on the merge helper.
        """
        from repro.obs.profile import ChunkLedger
        from repro.qserv.czar import QueryStats
        from repro.qserv.dispatch import validate_payload
        from repro.sql import Database, Table, dump_table, encode_table

        t1 = Table("c", {"a": np.array([1, 2])})
        t2 = Table("c", {"a": np.array([3])})
        # The magic-sniffing detection happens at collection time:
        # validate_payload routes untagged bytes to the dump loader,
        # and the chunk's ledger row ends with the format it found.
        ledger = ChunkLedger()
        payloads = []
        for chunk_id, data in enumerate(
            [dump_table(t1, "c").encode(), encode_table(t2, "c")]
        ):
            kind, payload = validate_payload(data)
            row = ledger.open(chunk_id)
            ledger.close(row, "ok", wire_format=kind)
            payloads.append((payload, row))
        merge_db = Database("LSST")
        name = tb.czar._load_into_merge_table(merge_db, payloads, ledger)
        merged = merge_db.get_table(name)
        assert sorted(int(v) for v in merged.column("a")) == [1, 2, 3]
        stats = QueryStats(ledger)
        assert stats.wire_format == "mixed"
        assert stats.rows_merged == 3


class TestPlanCache:
    def test_repeat_query_hits_cache(self, tb):
        q = "SELECT COUNT(*), AVG(ra_PS) FROM Object"
        tb.czar.submit(q)
        before = tb.czar.plan_cache_hits
        r = tb.czar.submit(q)
        assert r.stats.plan_cache_hits > 0
        assert tb.czar.plan_cache_hits == before + 1

    def test_cache_hit_same_results(self, tb):
        q = "SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId"
        first = tb.czar.submit(q)
        second = tb.czar.submit(q)
        assert second.stats.plan_cache_hits > 0
        assert sorted_rows(first) == sorted_rows(second)

    def test_whitespace_normalized(self, tb):
        tb.czar.submit("SELECT COUNT(*) FROM Object WHERE ra_PS < 1.5")
        r = tb.czar.submit("SELECT  COUNT(*)   FROM Object\nWHERE ra_PS < 1.5")
        assert r.stats.plan_cache_hits > 0

    def test_explain_shares_cache(self, tb):
        q = "SELECT COUNT(*) FROM Object WHERE decl_PS > 2.0"
        tb.czar.explain(q)
        assert tb.czar.submit(q).stats.plan_cache_hits > 0

    def test_cache_disabled(self, tb):
        czar = Czar(
            tb.redirector,
            tb.metadata,
            tb.chunker,
            secondary_index=tb.secondary_index,
            available_chunks=tb.placement.chunk_ids,
            plan_cache_size=0,
        )
        try:
            q = "SELECT COUNT(*) FROM Object"
            czar.submit(q)
            assert czar.submit(q).stats.plan_cache_hits == 0
        finally:
            czar.close()

    def test_cache_bounded(self, tb):
        czar = Czar(
            tb.redirector,
            tb.metadata,
            tb.chunker,
            secondary_index=tb.secondary_index,
            available_chunks=tb.placement.chunk_ids,
            plan_cache_size=2,
        )
        try:
            for k in range(5):
                czar.submit(f"SELECT COUNT(*) FROM Object WHERE ra_PS < {k}.5")
            assert len(czar._plan_cache) == 2
        finally:
            czar.close()


class TestWorkerEviction:
    def test_results_evicted_after_read(self, tb):
        """Long-lived workers must not accumulate served results."""
        r = tb.czar.submit("SELECT COUNT(*) FROM Object")
        assert r.stats.chunks_dispatched > 0
        for w in tb.workers.values():
            assert w._results == {}

    def test_eviction_counted(self, tb):
        """One eviction per result read: a result is a batch's, one per worker."""
        before = sum(w.stats.results_evicted for w in tb.workers.values())
        r = tb.czar.submit("SELECT objectId FROM Object WHERE ra_PS < 2.0")
        after = sum(w.stats.results_evicted for w in tb.workers.values())
        assert r.stats.chunks_dispatched > len(r.stats.workers_used)
        assert after - before == len(r.stats.workers_used)

    def test_cache_mode_keeps_results(self):
        from repro.qserv import QservWorker
        from repro.sql import Database, Table

        db = Database("LSST")
        db.create_table(Table("Object_5", {"a": np.arange(4, dtype=np.int64)}))
        w = QservWorker("w", db, cache_results=True)
        text = "SELECT COUNT(*) FROM LSST.Object_5 AS o;"
        w.on_write(query_path(5), text.encode())
        assert w.on_read(result_path(query_hash(text))) is not None
        assert w._results  # retained for the query-cache effect
        assert w.stats.results_evicted == 0


class TestPersistentPool:
    def test_pool_reused_across_queries(self, tb):
        pool = tb.czar._pool
        assert pool is not None
        tb.czar.submit("SELECT COUNT(*) FROM Object")
        tb.czar.submit("SELECT COUNT(*) FROM Object WHERE ra_PS < 4.0")
        assert tb.czar._pool is pool

    def test_sequential_czar_has_no_pool(self, tb):
        czar = Czar(
            tb.redirector,
            tb.metadata,
            tb.chunker,
            available_chunks=tb.placement.chunk_ids,
            dispatch_parallelism=1,
        )
        assert czar._pool is None
        r = czar.submit("SELECT COUNT(*) FROM Object")
        assert int(r.table.column("COUNT(*)")[0]) == 900

    def test_close_idempotent(self, tb):
        czar = Czar(
            tb.redirector,
            tb.metadata,
            tb.chunker,
            available_chunks=tb.placement.chunk_ids,
        )
        czar.close()
        czar.close()
        # A closed czar degrades to sequential dispatch, still correct.
        r = czar.submit("SELECT COUNT(*) FROM Object")
        assert int(r.table.column("COUNT(*)")[0]) == 900
