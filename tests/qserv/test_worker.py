"""Tests for the Qserv worker (ofs plugin, sub-chunk build, FIFO queue)."""

import json
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import races
from repro.obs import metrics as obs_metrics
from repro.partition import Chunker
from repro.qserv import QservWorker, WorkerShutdownError
from repro.qserv import worker as worker_module
from repro.sql import Database, SqlError, Table
from repro.sql.dump import load_dump
from repro.sql.wire import decode_table, encode_table
from repro.xrd.protocol import ChunkRequest, query_hash, query_path, result_path


def make_worker(slots=0, cache=False):
    """A worker hosting chunk 100 with a tiny Object table."""
    db = Database("LSST")
    chunker = Chunker(18, 6, 0.05)
    rng = np.random.default_rng(5)
    n = 60
    # All points inside one chunk near (10, 5).
    box = None
    cid = chunker.chunk_id(10.0, 5.0)
    box = chunker.chunk_box(cid)
    ra = box.ra_min + rng.uniform(0.05, box.ra_extent() - 0.1, n)
    dec = box.dec_min + rng.uniform(0.05, box.dec_extent() - 0.1, n)
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
    db.create_table(table)
    # An empty overlap companion.
    db.create_table(
        Table(
            f"ObjectFullOverlap_{cid}",
            {k: v[:0] for k, v in table.columns().items()},
        )
    )
    return QservWorker("w-test", db, slots=slots, cache_sub_chunks=cache), cid, chunker


class TestPluginProtocol:
    def test_claims_protocol_paths(self):
        w, cid, _ = make_worker()
        assert w.claims("/query2/5")
        assert w.claims("/result/" + "0" * 32)
        assert not w.claims("/other")

    def test_write_then_read_roundtrip(self):
        w, cid, _ = make_worker()
        qtext = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS Object;"
        w.on_write(query_path(cid), qtext.encode())
        data = w.on_read(result_path(query_hash(qtext)))
        assert data is not None
        db = Database("LSST")
        name = load_dump(db, data.decode())
        out = db.get_table(name)
        assert out.column("COUNT(*)")[0] == 60

    def test_unknown_result_path_is_none(self):
        w, *_ = make_worker()
        assert w.on_read("/result/" + "f" * 32) is None

    def test_error_surfaced_on_read(self):
        w, cid, _ = make_worker()
        qtext = "SELECT * FROM LSST.NoSuchTable_5 AS t;"
        w.on_write(query_path(cid), qtext.encode())
        with pytest.raises(SqlError):
            w.on_read(result_path(query_hash(qtext)))


class TestChunkQueryExecution:
    def test_multiple_statements_concatenate(self):
        w, cid, _ = make_worker()
        text = (
            f"SELECT objectId FROM LSST.Object_{cid} AS o WHERE objectId < 5;\n"
            f"SELECT objectId FROM LSST.Object_{cid} AS o WHERE objectId >= 55;"
        )
        result = w.execute_chunk_query(cid, text)
        assert result.num_rows == 10

    def test_no_select_rejected(self):
        w, cid, _ = make_worker()
        with pytest.raises(SqlError):
            w.execute_chunk_query(cid, "-- SUBCHUNKS: 1\n")

    def test_stats_updated(self):
        w, cid, _ = make_worker()
        w.execute_chunk_query(cid, f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o;")
        assert w.stats.queries_executed == 1
        assert w.stats.statements_executed == 1


class TestSubChunkMaterialization:
    def make_subchunk_query(self, cid, chunker, scid):
        return (
            f"-- SUBCHUNKS: {scid}\n"
            f"SELECT COUNT(*) FROM LSST.Object_{cid}_{scid} AS o1;"
        )

    def test_built_on_demand_and_dropped(self):
        w, cid, chunker = make_worker()
        table = w.db.get_table(f"Object_{cid}")
        scid = int(table.column("subChunkId")[0])
        expected = int(np.count_nonzero(table.column("subChunkId") == scid))
        result = w.execute_chunk_query(cid, self.make_subchunk_query(cid, chunker, scid))
        assert result.column("COUNT(*)")[0] == expected
        assert w.stats.sub_chunk_tables_built == 1
        # Paper: "the current implementation does not cache them".
        assert f"Object_{cid}_{scid}" not in w.db.tables

    def test_cache_mode_keeps_tables(self):
        w, cid, chunker = make_worker(cache=True)
        table = w.db.get_table(f"Object_{cid}")
        scid = int(table.column("subChunkId")[0])
        q = self.make_subchunk_query(cid, chunker, scid)
        w.execute_chunk_query(cid, q)
        assert f"Object_{cid}_{scid}" in w.db.tables
        w.execute_chunk_query(cid, q)
        assert w.stats.sub_chunk_tables_built == 1
        assert w.stats.sub_chunk_cache_hits == 1

    def test_overlap_subchunk_built_from_overlap_chunk(self):
        w, cid, chunker = make_worker()
        table = w.db.get_table(f"Object_{cid}")
        scid = int(table.column("subChunkId")[0])
        text = (
            f"-- SUBCHUNKS: {scid}\n"
            f"SELECT COUNT(*) FROM LSST.ObjectFullOverlap_{cid}_{scid} AS o2;"
        )
        result = w.execute_chunk_query(cid, text)
        assert result.column("COUNT(*)")[0] == 0  # empty overlap fixture

    def test_missing_parent_chunk_rejected(self):
        w, cid, chunker = make_worker()
        with pytest.raises(SqlError, match="no chunk table"):
            w.execute_chunk_query(
                999, "-- SUBCHUNKS: 3\nSELECT COUNT(*) FROM LSST.Object_999_3 AS o;"
            )


NEAR = "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS)"


def make_join_worker(slots=0, cache=False):
    """``make_worker`` with a populated overlap table (a shifted copy)."""
    w, cid, chunker = make_worker(slots=slots, cache=cache)
    base = w.db.get_table(f"Object_{cid}")
    cols = {k: v.copy() for k, v in base.columns().items()}
    cols["objectId"] += 1000
    cols["ra_PS"] += 0.01
    w.db.create_table(Table(f"ObjectFullOverlap_{cid}", cols), overwrite=True)
    scids = [int(s) for s in np.unique(base.column("subChunkId"))[:9]]
    assert len(scids) == 9
    return w, cid, scids


def pair_statement(cid, scid, outer="Object", radius=0.5, select="COUNT(*) AS n"):
    return (
        f"SELECT {select} FROM LSST.Object_{cid}_{scid} AS o1, "
        f"LSST.{outer}_{cid}_{scid} AS o2 WHERE {NEAR} < {radius}"
    )


def sub_chunk_query(cid, scids, **kwargs):
    statements = [
        pair_statement(cid, scid, outer, **kwargs) + ";"
        for scid in scids
        for outer in ("Object", "ObjectFullOverlap")
    ]
    return f"-- SUBCHUNKS: {', '.join(map(str, scids))}\n" + "\n".join(statements)


def reference_rows(w, cid, text):
    """The same statements the slow way: SQL-built tables, interpreter."""
    db = Database("LSST", use_kernels=False)
    for name in (f"Object_{cid}", f"ObjectFullOverlap_{cid}"):
        db.create_table(w.db.get_table(name).copy())
    rows = []
    body = [ln for ln in text.splitlines() if not ln.startswith("--")]
    for stmt in filter(None, (s.strip() for s in "\n".join(body).split(";"))):
        for parent, sub in re.findall(r"\b(\w+?_\d+)_(\d+)\b", stmt):
            db.execute(
                f"CREATE TABLE IF NOT EXISTS {parent}_{sub} AS "
                f"SELECT * FROM {parent} WHERE subChunkId = {sub}"
            )
        rows += db.execute(stmt).rows()
    return rows


def count_parses(monkeypatch):
    """The statement texts the worker hands to the parser from here on."""
    calls = []
    real = worker_module.parse

    def counting(sql):
        calls.append(sql)
        return real(sql)

    monkeypatch.setattr(worker_module, "parse", counting)
    return calls


@pytest.fixture()
def race_detector():
    """REPRO_SANITIZE=race for this test, whatever the suite runs under."""
    if races.enabled():
        yield
        return
    races.enable()
    yield
    races.disable()


class TestSubChunkPipeline:
    """Parse once per shape, partition once per chunk table."""

    def test_nine_sub_chunks_parse_once_per_shape(self, monkeypatch):
        w, cid, scids = make_join_worker()
        text = sub_chunk_query(cid, scids)
        calls = count_parses(monkeypatch)
        result = w.execute_chunk_query(cid, text)
        assert len(calls) == 2  # the self pair and the overlap pair
        assert w.stats.statements_executed == 18
        assert result.rows() == reference_rows(w, cid, text)
        assert sum(n for (n,) in result.rows()) > 18
        # The repeat (SHV1R), and any other choice of sub-chunks: prepared.
        assert w.execute_chunk_query(cid, text).rows() == result.rows()
        fewer = sub_chunk_query(cid, scids[2:7])
        assert w.execute_chunk_query(cid, fewer).rows() == reference_rows(w, cid, fewer)
        assert len(calls) == 2

    def test_rows_keep_statement_order(self):
        w, cid, scids = make_join_worker()
        text = sub_chunk_query(
            cid, scids, select="o1.objectId AS a, o2.objectId AS b, o1.subChunkId AS s"
        )
        result = w.execute_chunk_query(cid, text)
        assert result.num_rows > 0
        assert result.rows() == reference_rows(w, cid, text)

    def test_hand_edited_sibling_is_parsed_on_its_own(self, monkeypatch):
        w, cid, scids = make_join_worker()
        a, b, c = scids[:3]
        statements = [
            pair_statement(cid, a),
            pair_statement(cid, b, radius=0.05),  # another literal: same shape
            pair_statement(cid, c) + " AND o1.objectId != o2.objectId",
            pair_statement(cid, c),
        ]
        text = f"-- SUBCHUNKS: {a}, {b}, {c}\n" + ";\n".join(statements) + ";"
        calls = count_parses(monkeypatch)
        result = w.execute_chunk_query(cid, text)
        assert len(calls) == 2  # the pair statement once, the edited one once
        assert result.rows() == reference_rows(w, cid, text)

    def test_look_alike_names_outside_from_are_not_rebound(self):
        # The first statement's text carries its sub-chunk name in a
        # string and in an alias as well; renaming FROM tables alone
        # would not turn it into the second, so both are parsed.
        w, cid, scids = make_join_worker()
        a, b = scids[:2]
        text = f"-- SUBCHUNKS: {a}, {b}\n" + "\n".join(
            f"SELECT 'Object_{cid}_{s}' AS tag, COUNT(*) AS n "
            f"FROM LSST.Object_{cid}_{s} AS Object_{cid}_{s};"
            for s in (a, b)
        )
        result = w.execute_chunk_query(cid, text)
        assert list(result.column("tag")) == [f"Object_{cid}_{a}", f"Object_{cid}_{b}"]
        base = w.db.get_table(f"Object_{cid}").column("subChunkId")
        assert list(result.column("n")) == [
            np.count_nonzero(base == a), np.count_nonzero(base == b)
        ]

    def test_parse_error_is_a_sql_error(self):
        w, cid, scids = make_join_worker()
        with pytest.raises(SqlError, match="parse error"):
            w.execute_chunk_query(
                cid, f"SELECT COUNT(* FROM LSST.Object_{cid}_{scids[0]} AS o1;"
            )

    def test_stats_and_tables_without_cache(self):
        w, cid, scids = make_join_worker()
        text = sub_chunk_query(cid, scids)
        before = set(w.db.tables)
        w.execute_chunk_query(cid, text)
        assert set(w.db.tables) == before
        assert w.stats.sub_chunk_tables_built == 18
        assert w.stats.sub_chunk_cache_hits == 0
        w.execute_chunk_query(cid, text)
        assert set(w.db.tables) == before
        assert w.stats.sub_chunk_tables_built == 36  # rebuilt: nothing is kept
        assert w.stats.sub_chunk_cache_hits == 0
        assert w._sub_chunk_refs == {}

    def test_stats_and_tables_with_cache(self):
        w, cid, scids = make_join_worker(cache=True)
        text = sub_chunk_query(cid, scids)
        before = set(w.db.tables)
        first = w.execute_chunk_query(cid, text)
        built = set(w.db.tables) - before
        assert len(built) == 18 and w.stats.sub_chunk_tables_built == 18
        second = w.execute_chunk_query(cid, sub_chunk_query(cid, scids[:4]))
        assert w.stats.sub_chunk_tables_built == 18
        assert w.stats.sub_chunk_cache_hits == 8
        assert set(w.db.tables) - before == built
        assert second.rows() == first.rows()[:8]

    def test_sub_chunk_rows_keep_parent_order(self):
        w, cid, scids = make_join_worker(cache=True)
        w.execute_chunk_query(cid, sub_chunk_query(cid, scids))
        parent = w.db.get_table(f"Object_{cid}")
        for scid in scids:
            rows = parent.column("subChunkId") == scid
            sub = w.db.get_table(f"Object_{cid}_{scid}")
            assert sub.column_names == parent.column_names
            for name in parent.column_names:
                np.testing.assert_array_equal(sub.column(name), parent.column(name)[rows])

    def test_missing_parent_acquires_nothing(self):
        w, cid, scids = make_join_worker()
        text = (
            f"-- SUBCHUNKS: {scids[0]}\n"
            f"SELECT COUNT(*) FROM LSST.Object_{cid}_{scids[0]} AS o1, "
            f"LSST.Object_999_{scids[0]} AS o2;"
        )
        before = set(w.db.tables)
        with pytest.raises(SqlError, match="no chunk table 'Object_999'"):
            w.execute_chunk_query(cid, text)
        assert set(w.db.tables) == before
        assert w._sub_chunk_refs == {}


SCAN_CHUNKS = (711, 712, 713, 714, 715, 716, 717)
HV3 = (
    "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId "
    "FROM LSST.Object_{cid} AS Object GROUP BY chunkId;"
)
HV2 = (
    "SELECT objectId, ra_PS FROM LSST.Object_{cid} AS Object "
    "WHERE uRadius_PS > {cut!r};"
)


def scan_table(cid, rows=None, seed=0, ra_dtype=np.float64):
    rng = np.random.default_rng([cid, seed])
    n = 40 + cid % 7 if rows is None else rows
    return Table(
        f"Object_{cid}",
        {
            "objectId": cid * 1000 + np.arange(n, dtype=np.int64),
            "ra_PS": rng.uniform(0.0, 360.0, n).astype(ra_dtype),
            "decl_PS": rng.uniform(-5.0, 5.0, n),
            "uRadius_PS": rng.uniform(0.0, 1.0, n),
            "chunkId": np.full(n, cid, dtype=np.int64),
        },
    )


@pytest.fixture(params=[True, False], ids=["kernels", "interpreter"])
def scan_worker(request):
    """A worker hosting seven chunks, as one node of a scan does."""
    db = Database("LSST", use_kernels=request.param)
    for cid in SCAN_CHUNKS:
        db.create_table(scan_table(cid))
    return QservWorker("w-scan", db)


def unprepared_rows(w, text):
    """``text`` through a plain interpreter over copies of the worker's tables."""
    db = Database("LSST", use_kernels=False)
    for table in w.db.tables.values():
        db.create_table(table.copy())
    rows = []
    for stmt in filter(None, (s.strip() for s in text.split(";"))):
        out = db.execute(stmt)
        rows += out.rows() if out is not None else []
    return rows


class TestPreparedChunkStatements:
    """One parse per statement shape per worker; the rest is rebinding."""

    def test_a_scan_parses_once_and_its_repeats_never(self, scan_worker, monkeypatch):
        w = scan_worker
        calls = count_parses(monkeypatch)
        for _ in range(3):
            for cid in SCAN_CHUNKS:
                text = HV3.format(cid=cid)
                result = w.execute_chunk_query(cid, "-- RESULT_FORMAT: binary\n" + text)
                assert result.rows() == unprepared_rows(w, text)
                assert result.column("chunkId")[0] == cid
        assert len(calls) == 1
        assert w.stats.statements_executed == 21

    def test_a_changed_where_literal_is_bound_not_parsed(self, scan_worker, monkeypatch):
        w = scan_worker
        calls = count_parses(monkeypatch)
        for cut in (0.25, 0.75, 0.25, 1e-30):
            for cid in SCAN_CHUNKS:
                text = HV2.format(cid=cid, cut=cut)
                assert w.execute_chunk_query(cid, text).rows() == unprepared_rows(w, text)
        assert len(calls) == 1
        # The kind of a literal and its sign are part of the shape.
        for cut in ("1", "-0.5"):
            text = HV2.replace("{cut!r}", cut).format(cid=711)
            assert w.execute_chunk_query(711, text).rows() == unprepared_rows(w, text)
        assert len(calls) == 3

    def test_a_thousand_literals_are_one_shape(self, scan_worker, monkeypatch):
        w = scan_worker
        point = "SELECT objectId, ra_PS FROM LSST.Object_{cid} AS Object WHERE objectId = {oid};"
        calls = count_parses(monkeypatch)
        compiled = obs_metrics.REGISTRY.snapshot().get("kernel.compiled", 0)
        for i in range(1000):
            cid = SCAN_CHUNKS[i % len(SCAN_CHUNKS)]
            oid = cid * 1000 + i % 40
            assert w.execute_chunk_query(cid, point.format(cid=cid, oid=oid)).rows() == [
                (oid, w.db.get_table(f"Object_{cid}").column("ra_PS")[i % 40])
            ]
            cut = i / 1000.0
            result = w.execute_chunk_query(cid, HV2.format(cid=cid, cut=cut))
            radius = w.db.get_table(f"Object_{cid}").column("uRadius_PS")
            assert result.num_rows == np.count_nonzero(radius > cut)
        assert len(calls) == 2
        assert len(w._prepared) == 2
        if w.db.use_kernels:
            assert len(w.db.kernel_cache) == 2
            assert obs_metrics.REGISTRY.snapshot()["kernel.compiled"] == compiled + 2

    @pytest.mark.parametrize(
        "template",
        [
            # digits in aliases and qualifiers are not numbers
            "SELECT objectId AS o1 FROM LSST.Object_711 AS t2 WHERE t2.uRadius_PS > {cut!r} AND t2.objectId != {tag};",
            # a number inside a string is text, inside a backticked name a name
            "SELECT '{tag}' AS s, COUNT(*) AS `COUNT({tag})` FROM LSST.Object_711 AS o WHERE uRadius_PS > {cut!r};",
            # a select-list literal names its output column
            "SELECT {tag}, objectId + {tag} AS shifted FROM LSST.Object_711 AS o WHERE uRadius_PS > {cut!r};",
            # ... and HAVING, ORDER BY position and LIMIT stay in the shape too
            "SELECT objectId, ra_PS FROM LSST.Object_711 AS o WHERE uRadius_PS > {cut!r} ORDER BY 2 LIMIT {tag};",
            "SELECT chunkId, COUNT(*) AS n FROM LSST.Object_711 AS o WHERE uRadius_PS > {cut!r} GROUP BY chunkId HAVING COUNT(*) > {tag};",
        ],
    )
    def test_numbers_outside_where_are_not_holes(self, scan_worker, monkeypatch, template):
        w = scan_worker
        calls = count_parses(monkeypatch)
        reference = Database("LSST", use_kernels=False)
        for table in w.db.tables.values():
            reference.create_table(table.copy())
        for tag in (3, 42, 7):
            for cut in (0.25, 0.5):
                text = template.format(tag=tag, cut=cut)
                result = w.execute_chunk_query(711, text)
                expected = reference.execute(text)
                assert result.column_names == expected.column_names
                assert result.rows() == expected.rows()
        if "t2.objectId != " in template:
            assert len(calls) == 1  # there the tag is a WHERE literal
        else:
            assert len(calls) == 3  # one parse per tag, none per cut

    @pytest.mark.parametrize(
        "template",
        [
            # the chunk table, unaliased, as a column qualifier
            "SELECT COUNT(*) AS n FROM LSST.Object_{cid} WHERE Object_{cid}.uRadius_PS > 0.5;",
            # ... in a string
            "SELECT 'Object_{cid}' AS tag, COUNT(*) AS n FROM LSST.Object_{cid} AS o;",
            # ... as its own alias, and an output alias that only looks like one
            "SELECT COUNT(*) AS n FROM LSST.Object_{cid} AS Object_{cid};",
            "SELECT COUNT(*) AS n_{cid} FROM LSST.Object_{cid} AS o;",
            "SELECT COUNT(*) AS n_12 FROM LSST.Object_{cid} AS o;",
            # two chunks in one statement
            "SELECT COUNT(*) AS n FROM LSST.Object_{cid} AS a, LSST.Object_711 AS b "
            "WHERE a.objectId = b.objectId + 1000 * ({cid} - 711);",
        ],
    )
    def test_look_alikes_are_parsed_in_full(self, scan_worker, monkeypatch, template):
        w = scan_worker
        calls = count_parses(monkeypatch)
        for cid in (713, 714, 713):
            text = template.format(cid=cid)
            result = w.execute_chunk_query(cid, text)
            reference = Database("LSST", use_kernels=False)
            for table in w.db.tables.values():
                reference.create_table(table.copy())
            expected = reference.execute(text)
            assert result.column_names == expected.column_names
            assert result.rows() == expected.rows()
        assert len(calls) == 3
        assert len(w._prepared) == 0

    def test_statements_of_one_text_are_prepared_one_by_one(self, scan_worker, monkeypatch):
        w = scan_worker
        calls = count_parses(monkeypatch)
        template = (
            "CREATE TABLE tmp_{cid} AS SELECT objectId FROM LSST.Object_{cid} AS o "
            "WHERE uRadius_PS > 0.5;\n"
            "SELECT COUNT(*) AS n FROM tmp_{cid} AS t;\n"
            "SELECT COUNT(*) AS n FROM LSST.Object_{cid} AS o;\n"
            "DROP TABLE tmp_{cid};"
        )
        for cid in SCAN_CHUNKS:
            result = w.execute_chunk_query(cid, template.format(cid=cid))
            table = w.db.get_table(f"Object_{cid}")
            assert result.rows() == [
                (np.count_nonzero(table.column("uRadius_PS") > 0.5),),
                (table.num_rows,),
            ]
        # The two SELECTs once each; the DDL around them every time.
        assert len(calls) == 2 + 2 * len(SCAN_CHUNKS)
        assert set(w.db.tables) == {f"Object_{cid}" for cid in SCAN_CHUNKS}

    def test_errors_read_the_same_prepared_or_not(self, scan_worker):
        w = scan_worker
        with pytest.raises(SqlError) as cold:
            w.execute_chunk_query(999, HV3.format(cid=999))
        w.execute_chunk_query(711, HV3.format(cid=711))
        with pytest.raises(SqlError) as prepared:
            w.execute_chunk_query(999, HV3.format(cid=999))
        assert str(prepared.value) == str(cold.value) == "no such table 'Object_999'"
        unknown = "SELECT objectId FROM LSST.Object_711 AS Object WHERE nope > {cut!r};"
        messages = []
        for cut in (0.25, 0.75):  # parsed, then bound
            with pytest.raises(Exception) as raised:
                w.execute_chunk_query(711, unknown.format(cut=cut))
            messages.append((type(raised.value), str(raised.value)))
        with pytest.raises(Exception) as from_engine:
            Database("LSST", use_kernels=False).execute_statement(
                worker_module.parse(unknown.format(cut=0.75).replace("LSST.", ""))[0]
            )
        assert messages[0] == messages[1]
        broken = "SELECT count(* FROM LSST.Object_711 AS Object;"
        with pytest.raises(SqlError) as from_worker:
            w.execute_chunk_query(711, broken)
        with pytest.raises(SqlError) as from_engine:
            w.db.execute(broken)
        assert str(from_worker.value) == str(from_engine.value)
        assert str(from_worker.value).startswith("parse error")

    def test_the_cache_is_bounded(self, scan_worker, monkeypatch):
        w = scan_worker
        # A select-list literal is part of the shape: one shape each.
        tagged = "SELECT objectId, {tag} AS tag FROM LSST.Object_{cid} AS Object WHERE uRadius_PS > 0.5;"
        for tag in range(1000):
            w.execute_chunk_query(711, tagged.format(cid=711, tag=tag))
            assert len(w._prepared) <= worker_module._PREPARED_CAPACITY
        assert len(w._prepared) == worker_module._PREPARED_CAPACITY
        # Least recently used goes first: the last shape is still
        # prepared (on any chunk), the first one is not.
        calls = count_parses(monkeypatch)
        w.execute_chunk_query(712, tagged.format(cid=712, tag=999))
        assert calls == []
        w.execute_chunk_query(712, tagged.format(cid=712, tag=0))
        assert len(calls) == 1

    def test_a_replaced_or_dropped_table_is_never_served_stale(self, scan_worker):
        w = scan_worker
        for cid in SCAN_CHUNKS:
            w.execute_chunk_query(cid, HV3.format(cid=cid))
        # A repair install over the wire: other rows, and a narrower column.
        replacement = scan_table(713, rows=9, seed=1, ra_dtype=np.float32)
        w.on_write("/chunk/Object_713", encode_table(replacement, "Object_713"))
        text = HV3.format(cid=713)
        result = w.execute_chunk_query(713, text)
        assert result.column("n")[0] == 9
        assert result.rows() == unprepared_rows(w, text)
        w.db.drop_table("Object_714")
        with pytest.raises(SqlError, match="no such table 'Object_714'"):
            w.execute_chunk_query(714, HV3.format(cid=714))
        w.db.create_table(scan_table(714, rows=3, seed=2))
        assert w.execute_chunk_query(714, HV3.format(cid=714)).column("n")[0] == 3

    def test_kernel_accounting_is_per_statement(self, scan_worker):
        w = scan_worker

        def counters():
            snap = obs_metrics.REGISTRY.snapshot()
            return [
                snap.get(name, 0)
                for name in ("kernel.executions", "kernel.cache.hits",
                             "kernel.cache.misses", "kernel.fallbacks")
            ]

        w.execute_chunk_query(711, HV3.format(cid=711))  # compiles, prepares
        before = counters()
        for cid in SCAN_CHUNKS:
            w.execute_chunk_query(cid, HV3.format(cid=cid))
        delta = [b - a for a, b in zip(before, counters())]
        assert delta == ([7, 7, 0, 0] if w.db.use_kernels else [0, 0, 0, 0])


class TestConcurrentPreparedStatements:
    def test_two_slots_hammering_one_shape(self, race_detector):
        db = Database("LSST")
        for cid in SCAN_CHUNKS:
            db.create_table(scan_table(cid))
        w = QservWorker("w-scan", db, slots=2)  # locks and tracking under the detector
        # A header nobody knows is skipped by the worker and is part of
        # the result identity: it gives each text its own result path
        # (a -- DEADLINE: would not, budgets are not identity).
        # Every HV2 binds its own cut into the one shared template: a
        # slot that saw another's value would answer with other rows.
        texts = [
            (
                cid,
                f"-- RESULT_FORMAT: binary\n-- ROUND: {round_}\n"
                + template.format(cid=cid, cut=round((round_ * 7 + cid % 7) / 43.0, 6)),
            )
            for round_ in range(6)
            for cid in SCAN_CHUNKS
            for template in (HV3, HV2)
        ]
        cuts = {text.rsplit("> ", 1)[1] for _, text in texts if "uRadius_PS" in text}
        assert len(cuts) == 42
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cid, text in texts:
                w.on_write(query_path(cid), text.encode())
            for cid, text in texts:
                data = w.on_read(result_path(query_hash(text)))
                assert data is not None
                assert decode_table(data).rows() == unprepared_rows(w, ChunkRequest.decode(text).body)
        finally:
            sys.setswitchinterval(interval)
            w.shutdown()
        assert len(w._prepared) == 2
        assert races.race_report() == []


class TestConcurrentSubChunkSharing:
    def test_shared_sub_chunks_keep_refcounts(self, race_detector, monkeypatch):
        # Locks and tracked attributes are created under the detector.
        w, cid, scids = make_join_worker(slots=2)
        before = set(w.db.tables)
        # Hold every query inside its statement loop until all of them
        # have taken their sub-chunk references, so the tables really
        # are shared and the last one out drops them.
        inside = threading.Barrier(2)
        arrived = threading.local()

        def rendezvous(real):
            def execute(*args):
                if not getattr(arrived, "done", False):
                    arrived.done = True
                    inside.wait(timeout=10.0)
                return real(*args)

            return execute

        # Whichever way the loop executes: as a family or one by one.
        for entry in ("execute_family", "execute_statement"):
            monkeypatch.setattr(w.db, entry, rendezvous(getattr(w.db, entry)))
        texts = [
            "-- RESULT_FORMAT: binary\n" + sub_chunk_query(cid, scids[:6], radius=0.5),
            "-- RESULT_FORMAT: binary\n" + sub_chunk_query(cid, scids[3:], radius=0.4),
        ]
        try:
            for text in texts:
                w.on_write(query_path(cid), text.encode())
            for text in texts:
                data = w.on_read(result_path(query_hash(text)))
                assert data is not None
                assert decode_table(data).rows() == reference_rows(w, cid, text)
        finally:
            w.shutdown()
        assert w.stats.sub_chunk_tables_built + w.stats.sub_chunk_cache_hits == 24
        assert w.stats.sub_chunk_cache_hits == 6  # scids[3:6], both kinds
        assert w._sub_chunk_refs == {}
        assert set(w.db.tables) == before
        assert races.race_report() == []


# -- statement families -------------------------------------------------------------

GOLDEN_RESULTS = Path(__file__).with_name("golden_chunk_results.json")
FAMILY_BOX = "qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS, {}, {}, {}, {}) = 1"


def family_worker(use_kernels=True, cache=False, slots=0):
    """``make_join_worker`` plus the chunk's Source table, kernels on or off."""
    w, cid, scids = make_join_worker(slots=slots, cache=cache)
    objects = w.db.get_table(f"Object_{cid}")
    rng = np.random.default_rng(12)
    owner = np.repeat(objects.column("objectId"), 3)
    n = len(owner)
    sources = Table(
        f"Source_{cid}",
        {
            "sourceId": rng.permutation(np.arange(n, dtype=np.int64)),
            "objectId": owner,
            "ra": np.repeat(objects.column("ra_PS"), 3) + rng.normal(0.0, 2e-4, n),
            "decl": np.repeat(objects.column("decl_PS"), 3) + rng.normal(0.0, 2e-4, n),
        },
    )
    db = Database("LSST", use_kernels=use_kernels)
    for table in (*w.db.tables.values(), sources):
        db.create_table(table)
    w.shutdown()
    return QservWorker("w-test", db, slots=slots, cache_sub_chunks=cache), cid, scids


def family_chunk_queries(w, cid, scids):
    """Chunk queries as the czar words them for SHV1, SHV2 and friends."""
    objects = w.db.get_table(f"Object_{cid}")
    ra, dec = objects.column("ra_PS"), objects.column("decl_PS")
    box = FAMILY_BOX.format(
        *(repr(round(float(v), 4)) for v in (
            np.quantile(ra, 0.2), np.quantile(dec, 0.1), np.quantile(ra, 0.9), np.quantile(dec, 0.8)
        ))
    )

    def near_neighbour(select, tail=""):
        statements = [
            f"SELECT {select} FROM LSST.Object_{cid}_{scid} AS o1, "
            f"LSST.{outer}_{cid}_{scid} AS o2 WHERE ({NEAR} < 0.4 AND {box}){tail};"
            for scid in scids
            for outer in ("Object", "ObjectFullOverlap")
        ]
        return f"-- SUBCHUNKS: {', '.join(map(str, scids))}\n" + "\n".join(statements)

    return {
        "shv1": near_neighbour("COUNT(*) AS `COUNT(*)`"),
        "shv2": (
            f"SELECT o.objectId, s.sourceId FROM LSST.Object_{cid} AS o, "
            f"LSST.Source_{cid} AS s WHERE ({box.replace('o1.', 'o.')} AND "
            "o.objectId = s.objectId AND "
            "qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0001);"
        ),
        "near_neighbour_rows": near_neighbour(
            f"o1.objectId AS a, o2.objectId AS b, {NEAR} AS d"
        ),
        "near_neighbour_group_by": near_neighbour(
            "o1.subChunkId AS s, COUNT(*) AS n, AVG(o2.ra_PS) AS r, MIN(o2.objectId) AS lo",
            " GROUP BY o1.subChunkId",
        ),
        # The first sub-chunk's result leads the chunk result's dtypes,
        # and this cut leaves it no pair: MIN(objectId) is NULL there.
        "near_neighbour_empty_first": near_neighbour(
            "COUNT(*) AS n, MIN(o2.objectId) AS lo, SUM(o2.decl_PS) AS s",
            f" AND o1.subChunkId != {scids[0]}",
        ),
    }


def statement_counters(w):
    snap = obs_metrics.REGISTRY.snapshot()
    return (
        w.stats.statements_executed,
        w.stats.sub_chunk_tables_built,
        w.stats.sub_chunk_cache_hits,
        snap.get("kernel.executions", 0),
        snap.get("engine.scan.bytes", 0),
    )


def one_by_one(w, monkeypatch):
    """Make ``w`` execute every statement on its own, as before families.

    Only calls of two or more members are declined: every SELECT enters
    ``execute_family`` as a family of one, whose kernel still answers.
    """
    real = w.db.execute_family
    monkeypatch.setattr(
        w.db, "execute_family",
        lambda *args, real=real: None if len(args[2]) > 1 else real(*args),
    )


class TestStatementFamilies:
    """A family pass answers with the bytes the statement loop answers with."""

    CASES = ["shv1", "shv2", "near_neighbour_rows", "near_neighbour_group_by",
             "near_neighbour_empty_first"]

    @pytest.mark.parametrize("case", CASES)
    def test_bytes_equal_kernels_on_off_and_before_this_change(self, case, monkeypatch):
        golden = json.loads(GOLDEN_RESULTS.read_text())
        payloads = {}
        for mode in ("family", "one by one", "interpreter"):
            w, cid, scids = family_worker(use_kernels=mode != "interpreter")
            if mode == "one by one":
                one_by_one(w, monkeypatch)
            with np.errstate(invalid="ignore"):  # NULL -> BIGINT, as the loop casts it
                result = w.execute_chunk_query(cid, family_chunk_queries(w, cid, scids)[case])
                payloads[mode] = encode_table(result, "chunk_result")
            assert result.num_rows > 0
        assert payloads["family"] == payloads["one by one"] == payloads["interpreter"]
        assert payloads["family"].hex() == golden[case]

    @pytest.mark.parametrize("cache", [False, True], ids=["no cache", "cache"])
    def test_counters_count_statements_as_before(self, cache, monkeypatch):
        deltas = {}
        for mode in ("family", "one by one"):
            w, cid, scids = family_worker(cache=cache)
            if mode == "one by one":
                one_by_one(w, monkeypatch)
            families = []
            real = w.db.execute_family
            monkeypatch.setattr(
                w.db, "execute_family",
                lambda *args, real=real: (len(args[2]) > 1 and families.append(len(args[2])))
                or real(*args),
            )
            queries = family_chunk_queries(w, cid, scids)
            before = statement_counters(w)
            w.execute_chunk_query(cid, queries["shv1"])
            w.execute_chunk_query(cid, queries["near_neighbour_rows"])
            w.execute_chunk_query(cid, queries["shv2"])
            deltas[mode] = [b - a for a, b in zip(before, statement_counters(w))]
            # 18 statements a sub-chunked query, one family each; the
            # single statement of SHV2 is not a family.
            assert families == [18, 18]
            assert w._sub_chunk_refs == {}
        assert deltas["family"] == deltas["one by one"]
        statements, built, hits, kernel_runs, scanned = deltas["family"]
        assert (statements, kernel_runs) == (37, 37)
        assert (built, hits) == ((18, 18) if cache else (36, 0))
        assert scanned > 0

    def test_a_family_beside_unrelated_statements(self, monkeypatch):
        w, cid, scids = family_worker()
        a, b, c = scids[:3]
        statements = [
            pair_statement(cid, a),
            pair_statement(cid, a, "ObjectFullOverlap"),
            f"SELECT COUNT(*) AS n FROM LSST.Object_{cid} AS o WHERE objectId < 7",
            pair_statement(cid, b),
            pair_statement(cid, c),
            pair_statement(cid, c, radius=0.05),  # other literals: another family
            pair_statement(cid, b, "ObjectFullOverlap", radius=0.05),
            pair_statement(cid, a),
        ]
        text = f"-- SUBCHUNKS: {a}, {b}, {c}\n" + ";\n".join(statements) + ";"
        families = []
        real = w.db.execute_family
        monkeypatch.setattr(
            w.db, "execute_family",
            lambda *args: (len(args[2]) > 1 and families.append(args[2])) or real(*args),
        )
        result = w.execute_chunk_query(cid, text)
        assert result.rows() == reference_rows(w, cid, text)
        assert w.stats.statements_executed == 8
        assert [len(members) for members in families] == [2, 2, 2]
        assert families[0] == [
            (f"Object_{cid}_{a}", f"Object_{cid}_{a}"),
            (f"Object_{cid}_{a}", f"ObjectFullOverlap_{cid}_{a}"),
        ]
        assert w._sub_chunk_refs == {}

    def test_a_family_of_one_table_statements(self, monkeypatch):
        """Each member is the one-table kernel's call on its own table, after one lookup."""
        payloads, families, deltas = {}, [], {}
        for mode in ("family", "one by one", "interpreter"):
            w, cid, scids = family_worker(use_kernels=mode != "interpreter")
            if mode == "one by one":
                one_by_one(w, monkeypatch)
            real = w.db.execute_family
            monkeypatch.setattr(
                w.db, "execute_family",
                lambda *args, real=real, mode=mode: (
                    mode == "family" and len(args[2]) > 1 and families.append(args[2])
                ) or real(*args),
            )
            text = f"-- SUBCHUNKS: {', '.join(map(str, scids[:3]))}\n" + "\n".join(
                f"SELECT COUNT(*) AS n, SUM(ra_PS) FROM LSST.Object_{cid}_{s} AS o "
                "WHERE decl_PS > 0;"
                for s in scids[:3]
            )
            before = self.lookups(w)
            result = w.execute_chunk_query(cid, text)
            deltas[mode] = [b - a for a, b in zip(before, self.lookups(w))]
            payloads[mode] = encode_table(result, "chunk_result")
            assert result.num_rows == 3 and result.column("n").sum() > 0
        assert payloads["family"] == payloads["one by one"] == payloads["interpreter"]
        assert families == [[(f"Object_{cid}_{s}",) for s in scids[:3]]]
        # statements, kernel runs, kernel-cache lookups
        assert deltas["family"] == [3, 3, 1]
        assert deltas["one by one"] == [3, 3, 3]
        assert deltas["interpreter"] == [3, 0, 0]

    @staticmethod
    def lookups(w):
        snap = obs_metrics.REGISTRY.snapshot()
        return (
            w.stats.statements_executed,
            snap.get("kernel.executions", 0),
            snap.get("kernel.cache.hits", 0) + snap.get("kernel.cache.misses", 0),
        )

    def test_statements_other_than_selects_keep_their_place(self):
        # Nothing is executed ahead of a statement that precedes it.
        w, cid, scids = family_worker()
        a, b = scids[:2]
        text = ";\n".join([
            pair_statement(cid, a),
            f"CREATE TABLE Scratch_1 AS SELECT objectId FROM LSST.Object_{cid}_{b} AS o",
            pair_statement(cid, b),
            "SELECT COUNT(*) AS n FROM Scratch_1",
            "DROP TABLE Scratch_1",
            pair_statement(cid, a),
        ]) + ";"
        result = w.execute_chunk_query(cid, f"-- SUBCHUNKS: {a}, {b}\n" + text)
        counts = [n for (n,) in result.rows()]
        sub = w.db.get_table(f"Object_{cid}").column("subChunkId")
        assert counts[2] == np.count_nonzero(sub == b)
        assert counts[0] == counts[3] and "Scratch_1" not in w.db.tables

    def test_a_member_naming_a_missing_table(self, monkeypatch):
        texts = {}
        for mode in ("family", "one by one"):
            w, cid, scids = family_worker()
            if mode == "one by one":
                one_by_one(w, monkeypatch)
            a, b = scids[:2]
            before = set(w.db.tables)
            # no chunk table to cut the second member's sub-chunk from
            missing_parent = (
                f"-- SUBCHUNKS: {a}\n{pair_statement(cid, a)};\n"
                + pair_statement(cid, a).replace(f"Object_{cid}_{a} AS o2", f"Object_999_{a} AS o2")
                + ";"
            )
            # a second member that names no chunk table at all
            no_such_table = (
                f"-- SUBCHUNKS: {a}\n{pair_statement(cid, a)};\n"
                + pair_statement(cid, b).replace(f"Object_{cid}_{b} AS o2", f"Gone_{cid} AS o2")
                + ";"
            )
            errors = []
            for text in (missing_parent, no_such_table):
                with pytest.raises(SqlError) as raised:
                    w.execute_chunk_query(cid, text)
                errors.append(str(raised.value))
                assert w._sub_chunk_refs == {}
                assert set(w.db.tables) == before
            texts[mode] = errors
        assert texts["family"] == texts["one by one"]
        assert "no chunk table 'Object_999'" in texts["family"][0]
        assert f"no such table 'Gone_{cid}'" in texts["family"][1]

    def test_sub_chunk_tables_are_views_of_the_chunk_table(self):
        from repro.sql import RowView

        w, cid, scids = family_worker(cache=True)
        w.execute_chunk_query(cid, family_chunk_queries(w, cid, scids)["shv1"])
        parent = w.db.get_table(f"Object_{cid}")
        for scid in scids:
            sub = w.db.get_table(f"Object_{cid}_{scid}")
            assert isinstance(sub, RowView) and sub.signature() is parent.signature()
            # Only what the statements read was cut from the chunk table.
            assert set(sub._columns) == {"ra_PS", "decl_PS"}

    def test_two_slots_running_families_on_one_chunk(self, race_detector):
        w, cid, scids = family_worker(slots=2)  # locks and tracking under the detector
        queries = family_chunk_queries(w, cid, scids)
        texts = [
            # its own result path each: an unknown header is identity
            f"-- RESULT_FORMAT: binary\n-- ROUND: {i}\n" + queries[case]
            for i, case in enumerate(["shv1", "near_neighbour_rows", "near_neighbour_group_by"] * 4)
        ]
        expected = {}
        reference, _, _ = family_worker(use_kernels=False)
        for text in texts[:3]:
            body = ChunkRequest.decode(text).body
            expected[body] = encode_table(reference.execute_chunk_query(cid, body), "chunk_result")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for text in texts:
                w.on_write(query_path(cid), text.encode())
            for text in texts:
                data = w.on_read(result_path(query_hash(text)))
                assert data == expected[ChunkRequest.decode(text).body]
        finally:
            sys.setswitchinterval(interval)
            w.shutdown()
        assert w.stats.statements_executed == 12 * 18
        assert w.stats.sub_chunk_tables_built + w.stats.sub_chunk_cache_hits == 12 * 18
        assert w._sub_chunk_refs == {}
        assert races.race_report() == []


@pytest.fixture(scope="module")
def testbed():
    from repro.data import build_testbed

    tb = build_testbed(num_workers=2, num_objects=1200, seed=7)
    yield tb
    tb.shutdown()


class TestStatementSplitting:
    """A ';' inside a string or a quoted name does not end the statement."""

    def test_split(self):
        split = worker_module._split_statements
        assert split("SELECT 1; SELECT 2;") == ["SELECT 1", " SELECT 2", ""]
        assert [s.strip() for s in split("SELECT 'a;b'; SELECT \"c;d\" AS `e;f`;\nSELECT 3")] == [
            "SELECT 'a;b'", 'SELECT "c;d" AS `e;f`', "SELECT 3"
        ]
        # the lexer's escapes: a doubled quote, a backslashed one
        assert [s.strip() for s in split(r"SELECT 'it''s;'; SELECT 'a\';b'; SELECT 2")] == [
            "SELECT 'it''s;'", r"SELECT 'a\';b'", "SELECT 2"
        ]
        # the other kinds of quote are plain characters inside one
        assert split("""SELECT 'a"b;`' ; SELECT "x';" """) == [
            """SELECT 'a"b;`' """, """ SELECT "x';" """
        ]
        # a quote that never closes is the parser's to report
        assert "".join(split("SELECT 'abc; SELECT 2")) == "SELECT 'abc SELECT 2"

    @pytest.mark.parametrize(
        "literal", ["'a;b' = 'a;b'", '"a;b" = "a;b"', "'a;''b' != \"c;'d\""]
    )
    def test_semicolon_in_a_string_through_the_cluster(self, testbed, literal):
        expected = testbed.query("SELECT COUNT(*) FROM Object WHERE objectId >= 0").rows()
        assert expected[0][0] > 0
        result = testbed.query(f"SELECT COUNT(*) FROM Object WHERE {literal} AND objectId >= 0")
        assert result.rows() == expected

    def test_semicolon_in_a_backticked_alias_through_the_cluster(self, testbed):
        result = testbed.query("SELECT COUNT(*) AS `n;m` FROM Object WHERE objectId >= 0")
        assert result.column_names == ["n;m"] and result.rows()[0][0] > 0

    def test_semicolons_in_a_sub_chunked_chunk_query(self, testbed):
        near = (
            "FROM Object o1, Object o2 WHERE qserv_areaspec_box(0.0, 0.0, 2.0, 2.0) "
            "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05"
        )
        expected = testbed.query(f"SELECT COUNT(*) AS n {near}")
        assert expected.rows()[0][0] > 0
        result = testbed.query(
            f"SELECT COUNT(*) AS `n;m` {near} AND 'a;b' != \"c;'d\" AND `o1`.objectId >= 0"
        )
        assert result.column_names == ["n;m"] and result.rows() == expected.rows()


class TestThreadedMode:
    def test_threaded_execution(self):
        w, cid, _ = make_worker(slots=2)
        try:
            texts = [
                f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o WHERE objectId < {k};"
                for k in (10, 20, 30, 40)
            ]
            for t in texts:
                w.on_write(query_path(cid), t.encode())
            for k, t in zip((10, 20, 30, 40), texts):
                data = w.on_read(result_path(query_hash(t)))
                db = Database("LSST")
                out = db.get_table(load_dump(db, data.decode()))
                assert out.column("COUNT(*)")[0] == k
        finally:
            w.shutdown()

    def test_queue_high_water(self):
        w, cid, _ = make_worker(slots=1)
        try:
            for k in range(6):
                t = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o WHERE objectId < {k};"
                w.on_write(query_path(cid), t.encode())
            # Drain.
            t = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o WHERE objectId < 5;"
            w.on_read(result_path(query_hash(t)))
            assert w.stats.queue_high_water >= 1
        finally:
            w.shutdown()

    def test_bad_slots(self):
        with pytest.raises(ValueError):
            QservWorker("w", Database(), slots=-1)


class TestShutdownReleasesReaders:
    """Regression: shutdown() must fail pending results, not strand readers."""

    def blocked_worker(self, monkeypatch):
        """A slots=1 worker whose executor blocks until ``gate`` is set."""
        w, cid, _ = make_worker(slots=1)
        gate = threading.Event()
        original = w.execute_chunk_query

        def stalled(chunk_id, text, *repeats):
            gate.wait(timeout=10.0)
            return original(chunk_id, text, *repeats)

        monkeypatch.setattr(w, "execute_chunk_query", stalled)
        return w, cid, gate

    def read_in_thread(self, w, rpath):
        box = {}

        def run():
            try:
                box["data"] = w.on_read(rpath)
            except Exception as e:  # noqa: BLE001 - inspected by the test
                box["error"] = e

        t = threading.Thread(target=run)
        t.start()
        return t, box

    def test_shutdown_releases_blocked_reader(self, monkeypatch):
        w, cid, gate = self.blocked_worker(monkeypatch)
        text = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o;"
        w.on_write(query_path(cid), text.encode())
        t, box = self.read_in_thread(w, result_path(query_hash(text)))
        time.sleep(0.05)  # the reader is parked on the result-ready wait
        w.shutdown(timeout=0.1)
        t.join(timeout=2.0)
        gate.set()  # let the stalled slot thread finish
        assert not t.is_alive(), "reader stayed blocked across shutdown"
        assert isinstance(box.get("error"), WorkerShutdownError)

    def test_shutdown_fails_queued_results(self, monkeypatch):
        w, cid, gate = self.blocked_worker(monkeypatch)
        first = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o WHERE objectId < 1;"
        second = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o WHERE objectId < 2;"
        w.on_write(query_path(cid), first.encode())
        w.on_write(query_path(cid), second.encode())  # queued, never runs
        w.shutdown(timeout=0.1)
        gate.set()
        with pytest.raises(WorkerShutdownError):
            w.on_read(result_path(query_hash(second)))

    def test_write_after_shutdown_fails_fast(self):
        w, cid, _ = make_worker(slots=1)
        w.shutdown()
        text = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o;"
        w.on_write(query_path(cid), text.encode())
        t0 = time.perf_counter()
        with pytest.raises(WorkerShutdownError):
            w.on_read(result_path(query_hash(text)))
        assert time.perf_counter() - t0 < 1.0


class TestDeadlineHeader:
    def test_deadline_bounds_result_wait(self, monkeypatch):
        """A hung executor surfaces as a missing result within the budget."""
        w, cid, _ = make_worker(slots=1)
        gate = threading.Event()
        monkeypatch.setattr(
            w, "execute_chunk_query", lambda c, t, *repeats: gate.wait(timeout=10.0)
        )
        try:
            text = f"-- DEADLINE: 0.2\nSELECT COUNT(*) FROM LSST.Object_{cid} AS o;"
            w.on_write(query_path(cid), text.encode())
            t0 = time.perf_counter()
            assert w.on_read(result_path(query_hash(text))) is None
            elapsed = time.perf_counter() - t0
            assert 0.1 <= elapsed < 2.0  # the header, not the 300s default
        finally:
            gate.set()
            w.shutdown(timeout=0.5)

    def test_deadline_bounded_repeats_hit_the_result_cache(self):
        """A budget is not result identity (it was: every ``%.3f`` a new /result/H).

        The unit of a result is the batch: 4 chunks on 2 workers are 2
        writes, so 2 records -- however many budgets asked; the hit and
        execution counts stay per chunk query.
        """
        from repro.data import build_testbed
        from repro.xrd.retry import CancelToken

        tb = build_testbed(num_workers=2, num_objects=400, seed=17)
        try:
            for w in tb.workers.values():
                w.cache_results = True

            def totals():
                workers = tb.workers.values()
                return (
                    sum(w.stats.result_cache_hits for w in workers),
                    sum(w.stats.queries_executed for w in workers),
                )

            sql = "SELECT COUNT(*) FROM Object"
            for _ in range(2):
                assert tb.czar.submit(sql).stats.chunks_dispatched == 4
            assert totals() == (4, 4)
            for options in ({"cancel": CancelToken()}, {"deadline": 5.0}):
                before = totals()
                for _ in range(2):
                    assert int(tb.czar.submit(sql, **options).rows()[0][0]) == 400
                hits, executed = totals()
                assert (hits - before[0], executed - before[1]) == (8, 0), options
            assert sum(len(w._results) for w in tb.workers.values()) == len(tb.workers)
        finally:
            tb.shutdown()

    def test_a_shared_result_keeps_the_latest_expiring_budget(self, monkeypatch):
        """A tighter dispatch of the same text never cuts another's reader short."""
        w, cid, _ = make_worker(slots=1)
        gate = threading.Event()
        original = w.execute_chunk_query

        def stalled(chunk_id, text, *repeats):
            gate.wait(timeout=10.0)
            return original(chunk_id, text, *repeats)

        monkeypatch.setattr(w, "execute_chunk_query", stalled)
        try:
            sql = f"SELECT COUNT(*) FROM LSST.Object_{cid} AS o;"
            for budget in ("30", "0.05", None):
                header = "" if budget is None else f"-- DEADLINE: {budget}\n"
                w.on_write(query_path(cid), (header + sql).encode())
            (record,) = w._results.values()  # one path, three reads owed
            assert record.owed == 3 and record.deadline == float("inf")
            threading.Timer(0.3, gate.set).start()
            assert w.on_read(result_path(query_hash(sql))) is not None  # outlived 0.05 s
        finally:
            gate.set()
            w.shutdown(timeout=0.5)

    def test_header_parsing(self):
        def parse(text):
            return ChunkRequest.decode(text).deadline

        assert parse("-- DEADLINE: 1.500\nSELECT 1;") == pytest.approx(1.5)
        assert parse("-- RESULT_FORMAT: binary\n-- DEADLINE: 3\nSELECT 1;") == 3.0
        assert parse("-- DEADLINE: -2\nSELECT 1;") == 0.0  # clamped
        assert parse("-- DEADLINE: junk\nSELECT 1;") is None
        assert parse("SELECT 1; -- DEADLINE: 9") is None  # headers lead


class TestHostedChunks:
    def test_lists_chunk_tables_only(self):
        w, cid, _ = make_worker()
        assert w.hosted_chunks() == [cid]

    def test_a_base_name_with_underscores_is_a_chunk_table(self):
        # The names rewrite builds of a base table that has underscores
        # of its own: Deep_Source_713 is chunk 713's, Deep_Source_713_5
        # its sub-chunk 5's.
        w, cid, _ = make_worker()
        empty = {"objectId": np.arange(0, dtype=np.int64)}
        for name in ("Deep_Source_713", "Deep_SourceFullOverlap_713", "Deep_Source_713_5"):
            w.db.create_table(Table(name, dict(empty)))
        w.db.create_table(Table("Filter", dict(empty)))
        assert w.chunk_tables(713) == ["Deep_SourceFullOverlap_713", "Deep_Source_713"]
        assert w.chunk_tables(5) == []
        assert w.hosted_chunks() == sorted([cid, 713])
