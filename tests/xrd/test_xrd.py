"""Tests for the Xrootd substitute: filesystem, servers, redirector, client."""

import threading

import pytest

from repro.obs import metrics as obs_metrics
from repro.xrd import (
    DataServer,
    FaultPlan,
    FileSystem,
    FileSystemError,
    HealthTracker,
    OfsPlugin,
    RedirectError,
    Redirector,
    XrdClient,
    query_hash,
    query_path,
    result_path,
)
from repro.xrd.protocol import chunk_id_of_query_path


class TestProtocol:
    def test_query_path(self):
        assert query_path(713) == "/query2/713"

    def test_chunk_id_roundtrip(self):
        assert chunk_id_of_query_path(query_path(8982)) == 8982

    def test_chunk_id_rejects_other(self):
        with pytest.raises(ValueError):
            chunk_id_of_query_path("/result/abc")

    def test_query_hash_is_md5_hex(self):
        h = query_hash("SELECT 1")
        assert len(h) == 32
        assert all(c in "0123456789abcdef" for c in h)

    def test_result_path_from_text(self):
        text = "SELECT * FROM Object_713"
        assert result_path(text) == f"/result/{query_hash(text)}"

    def test_result_path_from_hash(self):
        h = query_hash("x")
        assert result_path(h) == f"/result/{h}"

    def test_distinct_queries_distinct_hashes(self):
        assert query_hash("SELECT 1") != query_hash("SELECT 2")


class TestFileSystem:
    def test_write_read_roundtrip(self):
        fs = FileSystem()
        with fs.open("/a", "w") as fh:
            fh.write(b"hello ")
            fh.write(b"world")
        with fs.open("/a", "r") as fh:
            assert fh.read() == b"hello world"

    def test_write_visible_only_after_close(self):
        fs = FileSystem()
        fh = fs.open("/a", "w")
        fh.write(b"data")
        assert not fs.exists("/a")
        fh.close()
        assert fs.exists("/a")

    def test_read_missing(self):
        fs = FileSystem()
        with pytest.raises(FileSystemError):
            fs.open("/nope", "r")

    def test_partial_reads(self):
        fs = FileSystem()
        with fs.open("/a", "w") as fh:
            fh.write(b"abcdef")
        fh = fs.open("/a", "r")
        assert fh.read(2) == b"ab"
        assert fh.read(2) == b"cd"
        assert fh.read() == b"ef"
        assert fh.read() == b""

    def test_string_write_encoded(self):
        fs = FileSystem()
        with fs.open("/a", "w") as fh:
            fh.write("text")
        with fs.open("/a", "r") as fh:
            assert fh.read() == b"text"

    def test_mode_violations(self):
        fs = FileSystem()
        with fs.open("/a", "w") as fh:
            fh.write(b"x")
        rh = fs.open("/a", "r")
        with pytest.raises(FileSystemError):
            rh.write(b"y")
        wh = fs.open("/b", "w")
        with pytest.raises(FileSystemError):
            wh.read()

    def test_double_close(self):
        fs = FileSystem()
        fh = fs.open("/a", "w")
        fh.close()
        with pytest.raises(FileSystemError):
            fh.close()

    def test_bad_mode(self):
        fs = FileSystem()
        with pytest.raises(FileSystemError):
            fs.open("/a", "a")

    def test_unlink(self):
        fs = FileSystem()
        with fs.open("/a", "w") as fh:
            fh.write(b"x")
        fs.unlink("/a")
        assert not fs.exists("/a")
        with pytest.raises(FileSystemError):
            fs.unlink("/a")

    def test_listdir_prefix(self):
        fs = FileSystem()
        for p in ("/result/aa", "/result/bb", "/query2/1"):
            with fs.open(p, "w") as fh:
                fh.write(b"x")
        assert fs.listdir("/result/") == ["/result/aa", "/result/bb"]

    def test_size_and_total(self):
        fs = FileSystem()
        with fs.open("/a", "w") as fh:
            fh.write(b"12345")
        assert fs.size("/a") == 5
        assert fs.total_bytes() == 5

    def test_overwrite(self):
        fs = FileSystem()
        for payload in (b"first", b"second"):
            with fs.open("/a", "w") as fh:
                fh.write(payload)
        with fs.open("/a", "r") as fh:
            assert fh.read() == b"second"

    def test_concurrent_writers_distinct_paths(self):
        fs = FileSystem()

        def writer(i):
            with fs.open(f"/f{i}", "w") as fh:
                fh.write(str(i).encode() * 100)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(fs.listdir("/")) == 20


class _RecordingPlugin(OfsPlugin):
    """Claims /query2/* writes and synthesizes /result/* reads."""

    def __init__(self):
        self.written: dict[str, bytes] = {}
        self.results: dict[str, bytes] = {}

    def claims(self, path):
        return path.startswith("/query2/") or path.startswith("/result/")

    def on_write(self, path, data):
        self.written[path] = data
        # Pretend to execute: the result of query text Q appears at /result/md5(Q).
        self.results[result_path(data.decode())] = b"RESULT:" + data

    def on_read(self, path):
        return self.results.get(path)


class TestDataServer:
    def test_plain_file_service(self):
        s = DataServer("w1")
        with s.open("/plain", "w") as fh:
            fh.write(b"x")
        with s.open("/plain", "r") as fh:
            assert fh.read() == b"x"

    def test_exports(self):
        s = DataServer("w1")
        s.export("/query2/5")
        assert s.serves("/query2/5")
        s.unexport("/query2/5")
        assert not s.serves("/query2/5")

    def test_plugin_write_callback(self):
        plugin = _RecordingPlugin()
        s = DataServer("w1", plugin)
        with s.open("/query2/7", "w") as fh:
            fh.write(b"SELECT 1")
        assert plugin.written["/query2/7"] == b"SELECT 1"

    def test_plugin_read(self):
        plugin = _RecordingPlugin()
        s = DataServer("w1", plugin)
        with s.open("/query2/7", "w") as fh:
            fh.write(b"SELECT 1")
        rp = result_path("SELECT 1")
        with s.open(rp, "r") as fh:
            assert fh.read() == b"RESULT:SELECT 1"

    def test_plugin_read_unavailable(self):
        plugin = _RecordingPlugin()
        s = DataServer("w1", plugin)
        with pytest.raises(FileSystemError):
            s.open("/result/" + "0" * 32, "r")

    def test_unclaimed_path_falls_through(self):
        plugin = _RecordingPlugin()
        s = DataServer("w1", plugin)
        with s.open("/other", "w") as fh:
            fh.write(b"data")
        assert s.fs.exists("/other")

    def test_down_server_refuses(self):
        s = DataServer("w1")
        s.fail()
        with pytest.raises(FileSystemError):
            s.open("/a", "w")
        s.recover()
        with s.open("/a", "w") as fh:
            fh.write(b"x")


class TestRedirector:
    def make_cluster(self, n=3):
        r = Redirector()
        servers = []
        for i in range(n):
            s = DataServer(f"w{i}")
            r.register(s)
            servers.append(s)
        return r, servers

    def test_locate_by_export(self):
        r, (s0, s1, s2) = self.make_cluster()
        s1.export("/query2/5")
        assert r.locate("/query2/5") is s1

    def test_locate_missing(self):
        r, _ = self.make_cluster()
        with pytest.raises(RedirectError):
            r.locate("/query2/99")

    def test_cache_hit_counted(self):
        r, (s0, *_) = self.make_cluster()
        s0.export("/p")
        r.locate("/p")
        r.locate("/p")
        assert r.cache_hits == 1
        assert r.redirects == 1

    def test_failover_to_replica(self):
        r, (s0, s1, s2) = self.make_cluster()
        s0.export("/p")
        s2.export("/p")
        first = r.locate("/p")
        assert first is s0  # deterministic tie-break by name
        s0.fail()
        assert r.locate("/p") is s2

    def test_no_failover_when_all_down(self):
        r, (s0, s1, s2) = self.make_cluster()
        s0.export("/p")
        s0.fail()
        with pytest.raises(RedirectError):
            r.locate("/p")

    def test_unregister_clears_cache(self):
        r, (s0, *_) = self.make_cluster()
        s0.export("/p")
        r.locate("/p")
        r.unregister("w0")
        with pytest.raises(RedirectError):
            r.locate("/p")

    def test_duplicate_register_rejected(self):
        r, _ = self.make_cluster()
        with pytest.raises(ValueError):
            r.register(DataServer("w0"))

    def test_locate_all_replicas(self):
        r, (s0, s1, s2) = self.make_cluster()
        s0.export("/p")
        s1.export("/p")
        assert {s.name for s in r.locate_all("/p")} == {"w0", "w1"}

    def test_server_by_name(self):
        r, (s0, *_) = self.make_cluster()
        assert r.server("w0") is s0
        with pytest.raises(RedirectError):
            r.server("nope")


class TestClient:
    def make_qserv_like_cluster(self):
        """Two workers with plugins, chunk 5 on w0, chunk 6 on both."""
        r = Redirector()
        plugins = {}
        for name in ("w0", "w1"):
            plugin = _RecordingPlugin()
            server = DataServer(name, plugin)
            r.register(server)
            plugins[name] = plugin
        r.server("w0").export(query_path(5))
        r.server("w0").export(query_path(6))
        r.server("w1").export(query_path(6))
        return r, plugins

    def test_dispatch_and_collect(self):
        r, plugins = self.make_qserv_like_cluster()
        client = XrdClient(r)
        qtext = "SELECT COUNT(*) FROM Object_5"
        worker = client.write_file(query_path(5), qtext)
        assert worker == "w0"
        data = client.read_file(result_path(qtext), server_name=worker)
        assert data == b"RESULT:" + qtext.encode()

    def test_write_failover(self):
        r, plugins = self.make_qserv_like_cluster()
        client = XrdClient(r)
        r.server("w0").fail()
        worker = client.write_file(query_path(6), "q")
        assert worker == "w1"

    def test_write_no_server(self):
        r, _ = self.make_qserv_like_cluster()
        client = XrdClient(r)
        with pytest.raises(RedirectError):
            client.write_file(query_path(99), "q")

    def test_mid_transaction_failover(self):
        """Cached server dies after first dispatch; the redirector re-resolves."""
        r, _ = self.make_qserv_like_cluster()
        client = XrdClient(r)
        assert client.write_file(query_path(6), "q1") == "w0"
        r.server("w0").fail()
        assert client.write_file(query_path(6), "q2") == "w1"

    def test_a_transaction_is_one_shot(self):
        """One failure: RedirectError, the location dropped, health told.

        Trying the replica is the caller's loop (``ChunkDispatch._retry``;
        ``tests/qserv/test_fault_tolerance.py`` lands on it).
        """
        r, plugins = self.make_qserv_like_cluster()
        health = HealthTracker()
        client = XrdClient(r, health=health)
        assert client.write_file(query_path(6), "q1") == "w0"
        FaultPlan().fail_opens(1).attach(r.server("w0"))
        with pytest.raises(RedirectError):
            client.write_file(query_path(6), "q2")
        assert not plugins["w1"].written  # no second attempt was made
        assert health.snapshot()["w0"].consecutive_failures == 1
        assert query_path(6) not in r._cache
        # The same for a pinned read: its worker alone is asked.
        FaultPlan().fail_opens(1, mode="r").attach(r.server("w0"))
        client.write_file(query_path(5), "q3")
        with pytest.raises(RedirectError):
            client.read_file(result_path("q3"), server_name="w0")
        assert health.snapshot()["w0"].consecutive_failures == 1
        assert query_path(5) not in r._cache

    def test_read_missing_result(self):
        r, _ = self.make_qserv_like_cluster()
        client = XrdClient(r)
        with pytest.raises(RedirectError):
            client.read_file("/result/" + "0" * 32, server_name="w0")

    def test_byte_accounting(self):
        r, _ = self.make_qserv_like_cluster()
        client = XrdClient(r)
        written = obs_metrics.counter("xrd.bytes.written")
        read = obs_metrics.counter("xrd.bytes.read")
        before = written.value, read.value
        q = "SELECT 1"
        client.write_file(query_path(5), q)
        client.read_file(result_path(q), server_name="w0")
        assert written.value - before[0] == len(q)
        assert read.value - before[1] == len(b"RESULT:" + q.encode())

    def test_exists(self):
        r, _ = self.make_qserv_like_cluster()
        client = XrdClient(r)
        assert client.exists(query_path(5))
        assert not client.exists(query_path(99))
