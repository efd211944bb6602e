"""Per-worker batched dispatch: one write/read pair per worker and query.

The chunk queries the redirector places on one worker travel as one
transaction; the ledger, the answer and every failure semantic stay per
chunk.  Each property below is checked against a testbed with inline
workers *and* one with two slots per worker, and the reference for "the
same answer" is the same code sending batches of one (a czar under a
hedge policy never batches -- hedging watches single chunks).
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.data import build_testbed
from repro.obs import metrics as obs_metrics
from repro.qserv import ChunkTimeoutError, Czar, HedgePolicy, QueryCancelledError
from repro.sql import SqlError, Table
from repro.sql.wire import encode_table
from repro.xrd import FaultPlan
from repro.xrd.protocol import (
    QUERY_PREFIX,
    ChunkRequest,
    batch_body,
    chunk_id_of_query_path,
    chunk_path,
    decode_frames,
    query_path,
    result_path,
)
from repro.xrd.retry import CancelToken, RetryPolicy

from .test_explain_analyze import assert_global_deltas, assert_identity, global_values

SEED = int(os.environ.get("CHAOS_SEED", "0"))

LV = "SELECT objectId, ra_PS FROM Object WHERE objectId = 17"
HV = "SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId"
HV_ROWS = "SELECT objectId FROM Object WHERE ra_PS > 1.0"
SHV = (
    "SELECT count(*) FROM Object o1, Object o2 "
    "WHERE qserv_areaspec_box(0, -7, 4, 7) "
    "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.04"
)


def build(slots, **kwargs):
    """8 chunks on 3 workers, two replicas each: batches of 5 and 3."""
    kwargs.setdefault("replication", 2)
    return build_testbed(
        num_workers=3, num_objects=900, seed=61, num_stripes=36, num_sub_stripes=4,
        worker_slots=slots, **kwargs,
    )


@pytest.fixture(params=[0, 2], ids=["inline", "slots2"])
def slots(request):
    return request.param


@pytest.fixture
def tb(slots):
    tb = build(slots)
    yield tb
    tb.shutdown()


def record_writes(tb):
    """``(worker, [chunk ids])`` of every chunk-query write, in arrival order."""
    writes = []
    for name, worker in tb.workers.items():
        def on_write(path, data, _name=name, _orig=worker.on_write):
            if path.startswith(QUERY_PREFIX):
                members = ChunkRequest.decode(data.decode()).members(
                    chunk_id_of_query_path(path)
                )
                writes.append((_name, [chunk_id for chunk_id, _ in members]))
            return _orig(path, data)

        worker.on_write = on_write
    return writes


def executed(tb):
    return sum(w.stats.queries_executed for w in tb.workers.values())


class TestSameAnswerAsBatchesOfOne:
    @pytest.mark.parametrize("sql", [LV, HV, HV_ROWS, SHV], ids=["lv", "hv", "hv-rows", "shv"])
    def test_answer_and_accounting(self, tb, sql):
        alone = Czar(
            tb.redirector, tb.metadata, tb.chunker, secondary_index=tb.secondary_index,
            available_chunks=tb.placement.chunk_ids, health=tb.health,
            hedge_policy=HedgePolicy(delay=60.0),
        )
        try:
            writes = record_writes(tb)
            reference = alone.submit(sql)
            assert all(len(chunks) == 1 for _, chunks in writes)
            del writes[:]
            before = global_values()
            result = tb.czar.submit(sql)
            totals = assert_identity(result.stats)
            assert_global_deltas(before, global_values(), totals)
        finally:
            alone.close()
        assert sorted(result.rows()) == sorted(reference.rows())
        assert result.column_names == reference.column_names
        for name in ("chunks_dispatched", "rows_merged", "sub_chunk_statements",
                     "bytes_collected", "chunks_retried"):
            assert getattr(result.stats, name) == getattr(reference.stats, name), name
        by_chunk = {c.chunk_id: c for c in reference.stats.chunk_profiles}
        for row in result.stats.chunk_profiles:
            assert (row.status, row.attempts, row.rows, row.bytes_received) == (
                "ok", 1, by_chunk[row.chunk_id].rows, by_chunk[row.chunk_id].bytes_received,
            )
        # One write per worker; every chunk in exactly one of them.
        assert len(writes) == len({worker for worker, _ in writes})
        assert sorted(c for _, chunks in writes for c in chunks) == sorted(by_chunk)
        if len(by_chunk) > 3:
            assert max(len(chunks) for _, chunks in writes) > 1

    def test_traced_profile_has_every_members_worker_columns(self, tb):
        profile = tb.czar.submit(HV, trace=True).stats.profile
        assert len(profile.chunks) == 8
        for row in profile.chunks:
            assert row.execute_seconds is not None and row.rows_scanned is not None


class TestWorkerLostBetweenWriteAndRead:
    def test_only_the_unanswered_go_again_each_alone(self, tb):
        """``die_after_writes(1)``: the batch commits, its result is never read.

        One write used to be one chunk; it is now the victim's whole
        batch, so the chunks retried are that batch's members (not one),
        and each goes alone to the replica.
        """
        writes = record_writes(tb)
        victim = tb.czar.submit(HV).stats.chunk_profiles[0].worker
        lost = next(chunks for worker, chunks in writes if worker == victim)
        assert len(lost) > 1
        del writes[:]
        FaultPlan(seed=SEED).die_after_writes(1, path_prefix=QUERY_PREFIX).attach(
            tb.servers[victim]
        )
        before = global_values()
        result = tb.czar.submit(HV)
        totals = assert_identity(result.stats)
        assert_global_deltas(before, global_values(), totals)
        assert sum(n for _, n in result.rows()) == 900
        assert result.stats.chunks_retried == len(lost)
        for row in result.stats.chunk_profiles:
            again = row.chunk_id in lost
            assert (row.attempts, row.retries) == ((2, 1) if again else (1, 0))
            assert row.status == "ok" and (row.worker != victim or not again)
        resent = [chunks for worker, chunks in writes if worker != victim]
        assert sorted(c for chunks in resent if len(chunks) == 1 for c in chunks) == sorted(lost)
        assert sum(chunks == lost for _, chunks in writes) == 1  # never sent together again


def break_chunk(tb, sql=HV_ROWS):
    """Make one member of a larger batch fail with a genuine SQL error.

    Its chunk table is replaced, on the worker the batch goes to, by one
    without the column the query reads.
    """
    rows = tb.czar.submit(sql).stats.chunk_profiles
    by_worker = {}
    for row in rows:
        by_worker.setdefault(row.worker, []).append(row.chunk_id)
    worker, chunks = max(by_worker.items(), key=lambda item: len(item[1]))
    broken = chunks[1]
    db = tb.workers[worker].db
    table = db.get_table(f"Object_{broken}")
    columns = {k: v for k, v in table.columns().items() if k != "ra_PS"}
    db.create_table(Table(table.name, columns), overwrite=True)
    return worker, chunks, broken


class TestOneMemberFails:
    def test_a_genuine_sql_error_fails_the_query_and_is_not_retried(self, tb):
        worker, chunks, broken = break_chunk(tb)
        writes = record_writes(tb)
        before = executed(tb)
        counters = {
            name: obs_metrics.counter(name)
            for name in ("czar.chunks.failed", "czar.chunks.retried", "czar.chunks.dispatched")
        }
        was = {name: c.value for name, c in counters.items()}
        with pytest.raises(SqlError, match="ra_PS") as exc:
            tb.czar.submit(HV_ROWS)
        assert not isinstance(exc.value, OSError)  # no dispatch failure: never retried
        assert sum(broken in c for _, c in writes) == 1  # sent once, in its batch
        assert wait_for(
            lambda: {name: c.value - was[name] for name, c in counters.items()}
            == {"czar.chunks.failed": 1, "czar.chunks.retried": 0, "czar.chunks.dispatched": 7}
        )
        # The other members of its batch were answered and count.
        assert executed(tb) - before >= len(chunks) - 1

    def test_the_failed_member_alone_is_dropped_under_allow_partial(self, tb):
        """A member its worker cannot answer, whose replicas refuse it too."""
        rows = tb.czar.submit(HV_ROWS).stats.chunk_profiles
        worker = rows[0].worker
        chunks = [row.chunk_id for row in rows if row.worker == worker]
        missing = chunks[1]
        # The worker still exports the chunk but no longer holds it: in
        # a batch that is the worker's fault, not the chunk query's.
        for name in tb.workers[worker].chunk_tables(missing):
            tb.workers[worker].db.drop_table(name)
        for server in tb.servers.values():
            FaultPlan(seed=SEED).fail_opens(
                99, mode="w", path_prefix=f"{QUERY_PREFIX}{missing}"
            ).attach(server)
        before = global_values()
        result = tb.czar.submit(HV_ROWS, allow_partial=True)
        totals = assert_identity(result.stats)
        assert_global_deltas(before, global_values(), totals)
        assert result.stats.partial_result
        assert result.stats.failed_chunks == [missing]
        assert result.stats.chunks_dispatched == len(rows) - 1
        full = sum(row.rows for row in rows)
        dropped = next(row.rows for row in rows if row.chunk_id == missing)
        assert result.stats.rows_merged == full - dropped


def hold_first_member(tb):
    """Every worker stalls inside the first chunk query it runs until ``gate``.

    Returns the chunk ids stalled on so far, and the gate.
    """
    stalled_on, gate = [], threading.Event()
    for worker in tb.workers.values():
        def stalled(chunk_id, text, *repeats, _orig=worker.execute_chunk_query):
            stalled_on.append(chunk_id)
            assert gate.wait(timeout=30)
            return _orig(chunk_id, text, *repeats)

        worker.execute_chunk_query = stalled
    return stalled_on, gate


def wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


class TestCancelMidBatch:
    def test_withdrawn_by_batch_hash_and_the_rest_never_execute(self):
        """Needs slots: an inline worker runs inside the write it would withdraw."""
        tb = build(2)
        try:
            writes = record_writes(tb)
            batches = len({c.worker for c in tb.czar.submit(HV).stats.chunk_profiles})
            del writes[:]
            stalled_on, gate = hold_first_member(tb)
            token = CancelToken()
            outcome = {}

            def submit():
                try:
                    tb.czar.submit(HV, cancel=token)
                except Exception as e:  # noqa: BLE001 - inspected below
                    outcome["error"] = e

            before = executed(tb)
            t = threading.Thread(target=submit)
            t.start()
            try:
                assert wait_for(lambda: len(stalled_on) == batches)
                token.cancel("changed my mind")
                t.join(timeout=10)
                assert not t.is_alive()
            finally:
                gate.set()
            error = outcome["error"]
            assert isinstance(error, QueryCancelledError)
            # (The first batch to unwind raises; the others follow within a poll.)
            assert wait_for(
                lambda: {c.status for c in error.stats.chunk_profiles} == {"cancelled"}
            )
            assert len(writes) == batches and max(len(c) for _, c in writes) > 1
            # One /cancel/<H> per batch, by its hash.
            assert wait_for(
                lambda: sum(w.stats.queries_cancelled for w in tb.workers.values()) == batches
            )
            # Each worker finishes the member it was inside and runs no other.
            assert wait_for(lambda: executed(tb) - before == batches)
            time.sleep(0.1)
            assert executed(tb) - before == batches
        finally:
            tb.shutdown()


class TestDeadline:
    def test_expiry_is_a_typed_timeout_inside_the_budget(self, tb):
        for server in tb.servers.values():
            FaultPlan(seed=SEED).slow_reads(1.0, path_prefix="/result/").attach(server)
        t0 = time.perf_counter()
        with pytest.raises(ChunkTimeoutError) as exc:
            tb.czar.submit(HV, deadline=0.15)
        assert time.perf_counter() - t0 < 0.9
        stats = exc.value.stats
        assert stats.chunks_timed_out >= 1 and stats.query_status == "failed"
        assert_identity(stats)


class TestResultCache:
    def test_a_repeated_batch_is_served_from_the_cache(self, tb):
        for worker in tb.workers.values():
            worker.cache_results = True
        first = tb.czar.submit(HV)
        ran = executed(tb)
        again = tb.czar.submit(HV)
        assert sorted(again.rows()) == sorted(first.rows())
        assert executed(tb) == ran
        assert sum(w.stats.result_cache_hits for w in tb.workers.values()) == 8
        assert_identity(again.stats)


class TestOneSlotPerBatch:
    def test_an_interactive_query_does_not_queue_behind_a_batch(self):
        """A 7-member batch is one queue entry and holds one of two slots."""
        tb = build_testbed(
            num_workers=1, num_objects=900, seed=61, num_stripes=45, num_sub_stripes=4,
            worker_slots=2,
        )
        try:
            (worker,) = tb.workers.values()
            assert len(tb.placement.chunk_ids) >= 7
            tb.czar.submit(LV)  # plan and statement caches warm
            stalled_on, gate = hold_first_member(tb)
            scan = threading.Thread(target=tb.czar.submit, args=(HV,))
            scan.start()
            try:
                assert wait_for(lambda: stalled_on)
                assert worker.queue_length() == 0  # the whole scan is in one slot
                worker.execute_chunk_query = type(worker).execute_chunk_query.__get__(worker)
                wait = worker.metrics.histogram("worker.queue.wait.seconds")
                seen, t0 = wait.count, time.perf_counter()
                point = tb.czar.submit(LV, trace=True)
                assert time.perf_counter() - t0 < 1.0  # while the scan is still held
                assert wait.count == seen + 1
                (row,) = point.stats.profile.chunks
                assert row.queue_wait < 0.05
                assert worker.stats.queue_high_water == 1
            finally:
                gate.set()
                scan.join(timeout=30)
            assert not scan.is_alive()
        finally:
            tb.shutdown()


class TestMisroutedBatch:
    def test_a_chunk_the_worker_does_not_hold_is_retried_elsewhere(self, slots):
        """The batch follows its first member's path; the rest come back retryable."""
        tb = build(slots, replication=1, retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.0))
        try:
            rows = tb.czar.submit(HV).stats.chunk_profiles
            home = {row.chunk_id: row.worker for row in rows}
            first = rows[0].chunk_id
            stray = next(c for c, w in home.items() if w != home[first])
            # Group the stray chunk with a worker that does not hold it.
            locate = tb.redirector.locate

            def misplaced(path, **kwargs):
                if path == f"{QUERY_PREFIX}{stray}" and kwargs.get("health") is not None:
                    tb.redirector.locate = locate
                    return tb.servers[home[first]]
                return locate(path, **kwargs)

            tb.redirector.locate = misplaced
            before = obs_metrics.counter("czar.chunks.retried").value
            result = tb.czar.submit(HV)
            assert sum(n for _, n in result.rows()) == 900
            retried = [c for c in result.stats.chunk_profiles if c.retries]
            assert [c.chunk_id for c in retried] == [stray]
            assert retried[0].worker == home[stray]
            assert obs_metrics.counter("czar.chunks.retried").value - before == 1
        finally:
            tb.shutdown()


class TestDamagedFrames:
    def test_a_corrupted_batch_result_is_retried_member_by_member(self, tb):
        """``corrupt_reads``: a flipped byte and a lost tail, caught by the framing."""
        clean = tb.czar.submit(HV)
        rows = clean.stats.chunk_profiles
        worker = rows[0].worker
        batch = [row.chunk_id for row in rows if row.worker == worker]
        FaultPlan(seed=SEED).corrupt_reads(count=1).attach(tb.servers[worker])
        before = global_values()
        result = tb.czar.submit(HV)
        totals = assert_identity(result.stats)
        assert_global_deltas(before, global_values(), totals)
        assert sorted(result.rows()) == sorted(clean.rows())
        assert sorted(c.chunk_id for c in result.stats.chunk_profiles if c.retries) == sorted(batch)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[:-3],  # truncated frame
            lambda data: data.replace(b" 41\n", b" 40\n", 1),  # bad length
            lambda data: data.replace(b" ok ", b" okay ", 1),  # bad status
        ],
        ids=["truncated", "bad-length", "bad-status"],
    )
    def test_damage_is_a_retryable_payload_error_never_a_row(self, damage):
        from types import SimpleNamespace as NS

        from repro.qserv import dispatch
        from repro.sql.wire import encode_table
        from repro.xrd.protocol import Frame, encode_frames

        payload = encode_table(Table("chunk_result", {"n": [7]}), "chunk_result")
        data = encode_frames([Frame(3, "ok", 0.001, payload), Frame(4, "ok", 0.001, payload)])
        assert damage(data) != data
        chunks = tuple(NS(spec=NS(chunk_id=chunk_id)) for chunk_id in (3, 4))
        czar = NS(health=NS(record_failure=lambda worker: None))
        answers = dispatch.ChunkDispatch(czar, None)._answers
        whole = answers(chunks, "worker-000", data)
        assert sorted(whole) == [3, 4] and all(type(a) is tuple for a in whole.values())
        assert issubclass(dispatch._PayloadError, dispatch._RETRYABLE)
        with pytest.raises(dispatch._PayloadError):
            answers(chunks, "worker-000", damage(data))


# -- the batch plan ----------------------------------------------------------------------

#: Chunk queries that are one SELECT of one chunk table, as the czar words
#: them (DISTINCT, which the czar keeps for its merge, worded here).
PLANNED = {
    "hv1": "SELECT COUNT(*) AS `COUNT(*)` FROM LSST.Object_{c} AS Object;",
    "hv2": (
        "SELECT objectId, ra_PS, decl_PS, uFlux_SG FROM LSST.Object_{c} AS Object "
        "WHERE uRadius_PS > 0.0975;"
    ),
    "hv3": (
        "SELECT COUNT(*) AS `COUNT(*)`, SUM(ra_PS) AS `SUM(ra_PS)`, "
        "COUNT(ra_PS) AS `COUNT(ra_PS)`, chunkId FROM LSST.Object_{c} AS Object "
        "GROUP BY chunkId;"
    ),
    "lv3-box": (
        "SELECT COUNT(*) AS `COUNT(*)` FROM LSST.Object_{c} AS Object WHERE "
        "(uFlux_SG > 1e-30 AND qserv_ptInSphericalBox(Object.ra_PS, Object.decl_PS, "
        "0.5, -4.0, 40.0, 4.0) = 1);"
    ),
    "in-list": (
        "SELECT objectId, ra_PS FROM LSST.Object_{c} AS Object WHERE subChunkId IN (1, 3, 5);"
    ),
    "order-limit": (
        "SELECT objectId, ra_PS FROM LSST.Object_{c} AS Object ORDER BY ra_PS DESC LIMIT 3;"
    ),
    "distinct": "SELECT DISTINCT subChunkId FROM LSST.Object_{c} AS Object;",
}

_KERNEL_COUNTERS = ("kernel.executions", "engine.scan.bytes", "kernel.cache.hits",
                    "kernel.cache.misses")


def kernel_counters():
    """``(executions, scan bytes, cache lookups)`` so far."""
    executions, scanned, hits, misses = (
        obs_metrics.counter(name).value for name in _KERNEL_COUNTERS
    )
    return executions, scanned, hits + misses


def answers(worker, members):
    """``(chunk id, status, payload)`` per member of ``members`` written as one batch.

    A batch of one publishes as the paper's protocol does: its payload
    (``ok``), or an error its read raises (``error``, with the message).
    """
    text = "-- RESULT_FORMAT: binary\n" + batch_body(members)
    worker.on_write(query_path(members[0][0]), text.encode())
    path = result_path(ChunkRequest.decode(text).result_hash)
    if len(members) > 1:
        frames = decode_frames(worker.on_read(path))
        return [(f.chunk_id, f.status, bytes(f.payload)) for f in frames]
    try:
        return [(members[0][0], "ok", worker.on_read(path))]
    except SqlError as e:
        return [(members[0][0], "error", str(e))]


def batch_and_alone(worker, members):
    """One batch of ``members`` and each member alone: answers and counter deltas."""
    before = kernel_counters()
    together = answers(worker, members)
    middle = kernel_counters()
    alone = [answer for member in members for answer in answers(worker, [member])]
    after = kernel_counters()
    return (
        together,
        alone,
        [b - a for a, b in zip(before, middle)],
        [b - a for a, b in zip(middle, after)],
    )


@pytest.fixture
def planned(slots):
    """One worker holding 15 chunks; the first 7 of them."""
    tb = build_testbed(
        num_workers=1, num_objects=900, seed=61, num_stripes=45, num_sub_stripes=4,
        worker_slots=slots,
    )
    (worker,) = tb.workers.values()
    chunks = worker.hosted_chunks()[:7]
    assert len(chunks) == 7
    yield worker, chunks
    tb.shutdown()


class TestBatchPlan:
    """A batch's later members are its first member's kernel on their own tables.

    The reference is the same members as batches of one, where nothing
    is shared: the same frames, byte for byte, and the same kernel
    runs and scan bytes -- only the kernel cache is consulted once per
    batch instead of once per member.  Kernels on or off.
    """

    @pytest.mark.parametrize("case", PLANNED)
    def test_a_batch_answers_as_its_members_alone(self, planned, case):
        worker, chunks = planned
        members = [(c, PLANNED[case].format(c=c)) for c in chunks]
        answers(worker, members[:1])  # compiled: every lookup below is a hit
        together, alone, batch, singles = batch_and_alone(worker, members)
        assert together == alone
        assert [status for _, status, _ in together] == ["ok"] * 7
        assert batch[:2] == singles[:2]  # kernel runs, scan bytes
        if worker.db.use_kernels:
            assert batch == [7, singles[1], 1] and singles[::2] == [7, 7]
        else:
            assert batch == singles == [0, 0, 0]

    def test_a_re_typed_table_is_not_run_by_the_plan(self, planned):
        """A repair install over ``/chunk/`` makes one member's DOUBLE column BIGINT."""
        worker, chunks = planned
        name = f"Object_{chunks[3]}"
        table = worker.db.get_table(name)
        columns = table.columns()
        columns["uRadius_PS"] = columns["uRadius_PS"].astype(np.int64)
        worker.on_write(chunk_path(name), encode_table(Table(name, columns), name))
        assert worker.db.get_table(name).signature() != table.signature()
        members = [(c, PLANNED["hv2"].format(c=c)) for c in chunks]
        together, alone, batch, singles = batch_and_alone(worker, members)
        assert together == alone
        assert [status for _, status, _ in together] == ["ok"] * 7
        assert batch[:2] == singles[:2]
        if worker.db.use_kernels:
            # The first member's lookup, and the re-typed member's own.
            assert batch[2] == 2 and singles[2] == 7

    def test_a_dropped_table_is_a_retryable_frame(self, planned):
        worker, chunks = planned
        gone = chunks[3]
        for name in worker.chunk_tables(gone):
            worker.db.drop_table(name)
        members = [(c, PLANNED["hv3"].format(c=c)) for c in chunks]
        together, alone, batch, singles = batch_and_alone(worker, members)
        assert together[:3] + together[4:] == alone[:3] + alone[4:]
        chunk_id, status, message = together[3]
        assert (chunk_id, status) == (gone, "retryable")
        assert b"no such table" in message
        assert alone[3] == (gone, "error", f"worker {worker.name}: {message.decode()}")
        assert batch[:2] == singles[:2]

    def test_a_sub_chunk_member_is_not_run_by_the_plan(self, planned):
        worker, chunks = planned
        odd = chunks[3]
        sub = int(worker.db.get_table(f"Object_{odd}").column("subChunkId")[0])
        members = [(c, PLANNED["hv1"].format(c=c)) for c in chunks]
        members[3] = (
            odd,
            f"-- SUBCHUNKS: {sub}\n"
            f"SELECT COUNT(*) AS `COUNT(*)` FROM LSST.Object_{odd}_{sub} AS Object;",
        )
        built = worker.stats.sub_chunk_tables_built
        together, alone, batch, singles = batch_and_alone(worker, members)
        assert together == alone
        assert [status for _, status, _ in together] == ["ok"] * 7
        assert worker.stats.sub_chunk_tables_built - built == 2  # once each way
        assert batch[:2] == singles[:2]
        if worker.db.use_kernels:
            assert batch[2] == 2 and singles[2] == 7

    def test_a_fake_executor_still_sees_every_member(self, planned):
        worker, chunks = planned
        members = [(c, PLANNED["hv2"].format(c=c)) for c in chunks]
        seen = []

        def spy(chunk_id, text, *repeats, _real=worker.execute_chunk_query):
            seen.append(chunk_id)
            return _real(chunk_id, text, *repeats)

        worker.execute_chunk_query = spy
        together, alone, batch, singles = batch_and_alone(worker, members)
        assert seen == chunks + chunks
        assert together == alone
        if worker.db.use_kernels:
            assert batch[2] == 1
