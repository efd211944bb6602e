"""Tests for the mmap-backed on-disk column store: persistence
round-trips, the residency budget's LRU accounting, disk-streaming
ingest, and a worker serving correct results from a table whose
on-disk size exceeds the configured budget."""

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.sql import Database, Table
from repro.sql.colstore import (
    ColumnStore,
    ColumnStoreError,
    MmapTable,
    ResidencyBudget,
)


def metric(name: str) -> float:
    return obs_metrics.REGISTRY.snapshot().get(name, 0)


def sample_table(n=1000, seed=3) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    x[::97] = np.nan
    return Table(
        "Object_5",
        {
            "objectId": np.arange(n, dtype=np.int64),
            "x": x,
            "flag": rng.integers(0, 2, n).astype(bool),
            "band": np.array([["u", "g", "r"][i % 3] for i in range(n)], dtype=object),
        },
    )


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        t = sample_table()
        store = ColumnStore(tmp_path)
        mt = store.save_table(t)
        assert isinstance(mt, MmapTable)
        assert mt.num_rows == t.num_rows
        assert mt.column_names == t.column_names
        for name in t.column_names:
            a, b = t.column(name), mt.column(name)
            assert a.dtype == b.dtype
            if np.issubdtype(a.dtype, np.floating):
                np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
                np.testing.assert_array_equal(a[~np.isnan(a)], b[~np.isnan(b)])
            else:
                np.testing.assert_array_equal(a, b)

    def test_schema_matches_without_touching_data(self, tmp_path):
        t = sample_table()
        store = ColumnStore(tmp_path)
        mt = store.save_table(t)
        assert [(c.name, c.type_name) for c in mt.schema()] == [
            ("objectId", "BIGINT"),
            ("x", "DOUBLE"),
            ("flag", "BOOL"),
            ("band", "TEXT"),
        ]

    def test_signature_is_memoised_like_a_ram_table(self, tmp_path):
        t = sample_table()
        mt = ColumnStore(tmp_path).save_table(t)
        sig = mt.signature()
        assert sig == t.signature()
        assert mt.signature() is sig
        mt.append_rows({n: a[:2] for n, a in t.columns().items()})
        assert mt.num_rows == t.num_rows + 2
        assert mt.signature() is sig

    def test_reload_after_reopen(self, tmp_path):
        t = sample_table()
        ColumnStore(tmp_path).save_table(t)
        # A fresh store object (fresh process, conceptually) sees the data.
        mt = ColumnStore(tmp_path).load_table("Object_5")
        np.testing.assert_array_equal(mt.column("objectId"), t.column("objectId"))

    def test_catalog(self, tmp_path):
        store = ColumnStore(tmp_path)
        store.save_table(sample_table())
        assert store.tables() == ["Object_5"]
        assert store.exists("Object_5")
        store.drop("Object_5")
        assert store.tables() == []
        with pytest.raises(ColumnStoreError):
            store.load_table("Object_5")

    def test_mapped_columns_are_read_only(self, tmp_path):
        mt = ColumnStore(tmp_path).save_table(sample_table())
        with pytest.raises((ValueError, RuntimeError)):
            mt.column("objectId")[0] = 99

    def test_derived_operations_work(self, tmp_path):
        t = sample_table()
        mt = ColumnStore(tmp_path).save_table(t)
        sel = mt.select_rows(mt.column("flag"))
        assert sel.num_rows == int(t.column("flag").sum())
        np.testing.assert_array_equal(
            Table.concat("m", [mt, mt]).column("objectId"),
            np.concatenate([t.column("objectId")] * 2),
        )


class TestIngest:
    def test_append_streams_to_disk(self, tmp_path):
        t = sample_table(n=500)
        store = ColumnStore(tmp_path)
        mt = store.save_table(t)
        size_before = store.on_disk_bytes("Object_5")
        batch = {
            "objectId": np.arange(500, 800, dtype=np.int64),
            "x": np.linspace(0, 1, 300),
            "flag": np.zeros(300, dtype=bool),
            "band": np.array(["z"] * 300, dtype=object),
        }
        mt.append_rows(batch)
        assert mt.num_rows == 800
        assert store.on_disk_bytes("Object_5") > size_before
        np.testing.assert_array_equal(mt.column("objectId")[500:], batch["objectId"])
        assert list(mt.column("band")[500:505]) == ["z"] * 5
        # A reopened handle sees the appended rows too.
        assert ColumnStore(tmp_path).load_table("Object_5").num_rows == 800

    def test_append_validates_columns(self, tmp_path):
        mt = ColumnStore(tmp_path).save_table(sample_table(n=10))
        with pytest.raises(ColumnStoreError):
            mt.append_rows({"objectId": np.array([1])})
        with pytest.raises(ColumnStoreError):
            mt.append_rows(
                {
                    "objectId": np.array([1]),
                    "x": np.array([1.0, 2.0]),
                    "flag": np.array([True]),
                    "band": np.array(["u"], dtype=object),
                }
            )


class TestResidencyBudget:
    def test_eviction_under_budget(self, tmp_path):
        n = 10_000
        t = Table(
            "big",
            {f"c{i}": np.arange(n, dtype=np.int64) + i for i in range(8)},
        )
        budget = ResidencyBudget(max_bytes=3 * n * 8)  # room for ~3 columns
        store = ColumnStore(tmp_path, budget)
        mt = store.save_table(t)
        evicted_before = metric("colstore.evictions")
        for i in range(8):
            np.testing.assert_array_equal(
                mt.column(f"c{i}"), np.arange(n, dtype=np.int64) + i
            )
        assert metric("colstore.evictions") > evicted_before
        assert budget.resident_bytes <= budget.max_bytes

    def test_hit_does_not_remap(self, tmp_path):
        mt = ColumnStore(tmp_path).save_table(sample_table())
        mt.column("x")
        opened = metric("colstore.maps.opened")
        hits = metric("colstore.map.hits")
        a = mt.column("x")
        b = mt.column("x")
        assert a is b
        assert metric("colstore.maps.opened") == opened
        assert metric("colstore.map.hits") == hits + 2

    def test_oversized_single_column_stays_resident(self, tmp_path):
        n = 4096
        t = Table("big", {"c": np.arange(n, dtype=np.int64)})
        budget = ResidencyBudget(max_bytes=16)  # far below one column
        mt = ColumnStore(tmp_path, budget).save_table(t)
        np.testing.assert_array_equal(mt.column("c"), np.arange(n))

    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COLSTORE_BUDGET", "12345")
        assert ResidencyBudget().max_bytes == 12345


class TestQueriesOverBudget:
    """The acceptance case: correct results from a dataset >> budget."""

    def test_engine_results_match_in_memory(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 120_000
        t = Table(
            "Object_9",
            {
                "objectId": np.arange(n, dtype=np.int64),
                "ra_PS": rng.uniform(0, 360, n),
                "decl_PS": rng.uniform(-90, 90, n),
                "subChunkId": rng.integers(0, 6, n),
            },
        )
        budget = ResidencyBudget(max_bytes=1_000_000)
        store = ColumnStore(tmp_path, budget)
        mt = store.save_table(t)
        assert store.on_disk_bytes("Object_9") > budget.max_bytes

        db_mem = Database()
        db_mem.create_table(Table("Object_9", {k: v.copy() for k, v in t.columns().items()}))
        db_mmap = Database()
        db_mmap.create_table(mt)
        for sql in [
            "SELECT COUNT(*) AS n, AVG(ra_PS) AS a FROM Object_9 "
            "WHERE decl_PS BETWEEN -30 AND 30",
            "SELECT subChunkId, COUNT(*) AS n, MIN(ra_PS) AS lo FROM Object_9 "
            "GROUP BY subChunkId ORDER BY subChunkId",
            "SELECT objectId, ra_PS FROM Object_9 WHERE ra_PS < 1.0 "
            "ORDER BY ra_PS LIMIT 50",
        ]:
            r1, r2 = db_mem.execute(sql), db_mmap.execute(sql)
            assert r1.column_names == r2.column_names
            for c in r1.column_names:
                a, b = r1.column(c), r2.column(c)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_worker_serves_mmap_chunk_over_budget(self, tmp_path):
        """End-to-end: a QservWorker answers a chunk query from an
        mmap-backed chunk table whose on-disk size exceeds the budget."""
        from repro.partition import Chunker
        from repro.qserv import QservWorker
        from repro.sql.wire import decode_table, encode_table
        from repro.xrd.protocol import (
            chunk_path,
            query_hash,
            query_path,
            result_path,
        )

        chunker = Chunker(18, 6, 0.05)
        cid = int(chunker.chunk_id(10.0, 5.0))
        box = chunker.chunk_box(cid)
        rng = np.random.default_rng(23)
        n = 80_000
        ra = box.ra_min + rng.uniform(0.01, box.ra_extent() - 0.02, n)
        dec = box.dec_min + rng.uniform(0.01, box.dec_extent() - 0.02, n)
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
        budget = ResidencyBudget(max_bytes=500_000)
        store = ColumnStore(tmp_path, budget)
        worker = QservWorker("w-mmap", Database("LSST"), store=store)

        # Install over the wire, as a repair/loader push would.
        worker.on_write(chunk_path(table.name), encode_table(table, table.name))
        assert isinstance(worker.db.get_table(table.name), MmapTable)
        assert store.on_disk_bytes(table.name) > budget.max_bytes

        lo, hi = float(np.quantile(ra, 0.2)), float(np.quantile(ra, 0.6))
        qtext = (
            "-- RESULT_FORMAT: binary\n"
            f"SELECT COUNT(*) AS n, AVG(decl_PS) AS d FROM LSST.Object_{cid} "
            f"AS Object WHERE Object.ra_PS BETWEEN {lo!r} AND {hi!r};"
        )
        worker.on_write(query_path(cid), qtext.encode())
        payload = worker.on_read(result_path(query_hash(qtext)))
        result = decode_table(payload)

        mask = (ra >= lo) & (ra <= hi)
        assert result.column("n")[0] == int(mask.sum())
        # Bit-exact against the same query on an all-in-RAM engine.
        db_mem = Database("LSST")
        db_mem.create_table(Table(table.name, dict(table.columns())))
        expected = db_mem.execute(
            f"SELECT COUNT(*) AS n, AVG(decl_PS) AS d FROM LSST.Object_{cid} "
            f"AS Object WHERE Object.ra_PS BETWEEN {lo!r} AND {hi!r}"
        )
        np.testing.assert_array_equal(
            result.column("d").view(np.uint64),
            expected.column("d").view(np.uint64),
        )
