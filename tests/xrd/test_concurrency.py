"""Concurrency and robustness stress tests for the Xrootd substitute."""

import threading

import numpy as np
import pytest

from repro.xrd import DataServer, OfsPlugin, RedirectError, Redirector, XrdClient
from repro.xrd.protocol import query_hash, query_path, result_path


class _EchoPlugin(OfsPlugin):
    """Claims protocol paths; echoes query text back as the result."""

    def __init__(self):
        self.results = {}
        self.lock = threading.Lock()

    def claims(self, path):
        return path.startswith("/query2/") or path.startswith("/result/")

    def on_write(self, path, data):
        with self.lock:
            self.results[result_path(data.decode())] = b"ECHO:" + data

    def on_read(self, path):
        with self.lock:
            return self.results.get(path)


def make_cluster(num_servers=4, chunks=64, replication=2):
    r = Redirector()
    servers = []
    for i in range(num_servers):
        s = DataServer(f"w{i}", plugin=_EchoPlugin())
        r.register(s)
        servers.append(s)
    for cid in range(chunks):
        for k in range(replication):
            servers[(cid + k) % num_servers].export(query_path(cid))
    return r, servers


class TestConcurrentClients:
    def test_many_threads_dispatch_and_collect(self):
        r, _ = make_cluster()
        errors = []
        results = {}
        lock = threading.Lock()

        def run_client(tid):
            client = XrdClient(r)
            try:
                for i in range(20):
                    cid = (tid * 20 + i) % 64
                    text = f"SELECT {tid}-{i} FROM chunk_{cid}"
                    worker = client.write_file(query_path(cid), text)
                    data = client.read_file(result_path(text), server_name=worker)
                    with lock:
                        results[(tid, i)] = data
            except Exception as e:
                with lock:
                    errors.append(e)

        threads = [threading.Thread(target=run_client, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 160
        for (tid, i), data in results.items():
            assert data.decode().endswith(f"SELECT {tid}-{i} FROM chunk_{(tid * 20 + i) % 64}")

    def test_failover_under_concurrency(self):
        """Flaps under load: a transaction lands on a replica or is a RedirectError.

        One shot each -- trying again is the caller's loop, which
        ``tests/test_integration_chaos.py`` drives through the czar.
        """
        r, servers = make_cluster()
        stop = threading.Event()
        errors = []

        def chaos():
            """Flap one replica while clients hammer the cluster."""
            rng = np.random.default_rng(0)
            while not stop.is_set():
                victim = servers[int(rng.integers(0, len(servers)))]
                victim.fail()
                victim.recover()

        def run_client(tid):
            client = XrdClient(r)
            for i in range(30):
                cid = (tid + i) % 64
                text = f"q-{tid}-{i}"
                try:
                    worker = client.write_file(query_path(cid), text)
                    client.read_file(result_path(text), server_name=worker)
                except RedirectError:
                    pass  # the flap won the race for this transaction
                except Exception as e:
                    errors.append(e)

        chaos_thread = threading.Thread(target=chaos)
        chaos_thread.start()
        clients = [threading.Thread(target=run_client, args=(t,)) for t in range(4)]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        stop.set()
        chaos_thread.join()
        assert not errors
        # With the flapping over, every path resolves at the first try.
        client = XrdClient(r)
        for cid in range(64):
            assert r.server(client.write_file(query_path(cid), f"after-{cid}")).up

    def test_redirector_cache_consistent_under_flaps(self):
        r, servers = make_cluster(num_servers=2, chunks=8, replication=2)
        client = XrdClient(r)
        for round_ in range(20):
            servers[round_ % 2].fail()
            for cid in range(8):
                worker = client.write_file(query_path(cid), f"q{round_}-{cid}")
                assert r.server(worker).up
            servers[round_ % 2].recover()


class TestWorkerProtocolEdges:
    def make_worker(self):
        from repro.partition import Chunker
        from repro.qserv import QservWorker
        from repro.sql import Database, Table

        db = Database("LSST")
        chunker = Chunker(18, 6, 0.05)
        cid = chunker.chunk_id(10.0, 5.0)
        db.create_table(
            Table(
                f"Object_{cid}",
                {
                    "objectId": np.arange(10, dtype=np.int64),
                    "subChunkId": np.zeros(10, dtype=np.int64),
                },
            )
        )
        return QservWorker("w", db), cid

    def test_empty_subchunk_header(self):
        w, cid = self.make_worker()
        # A header with no ids is legal; statements follow normally.
        result = w.execute_chunk_query(
            cid, f"-- SUBCHUNKS:\nSELECT COUNT(*) FROM LSST.Object_{cid} AS o;"
        )
        assert result.column("COUNT(*)")[0] == 10

    def test_whitespace_only_statement_ignored(self):
        w, cid = self.make_worker()
        result = w.execute_chunk_query(
            cid, f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o;\n   \n;"
        )
        assert result.num_rows == 1

    def test_subchunk_header_ids_are_not_read(self):
        # The statements name their sub-chunk tables; the header's id
        # list is informational and skipped like any unknown header.
        w, cid = self.make_worker()
        result = w.execute_chunk_query(
            cid, f"-- SUBCHUNKS: x, y\nSELECT COUNT(*) FROM LSST.Object_{cid} AS o;"
        )
        assert result.column("COUNT(*)")[0] == 10

    def test_ddl_only_chunk_query_rejected(self):
        from repro.sql import SqlError

        w, cid = self.make_worker()
        with pytest.raises(SqlError, match="no SELECT"):
            w.execute_chunk_query(cid, "DROP TABLE IF EXISTS nothing;")
