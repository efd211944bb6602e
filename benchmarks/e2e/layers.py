"""The traced run: where one query's wall-clock goes, layer by layer.

Nothing inside ``src/`` is instrumented.  For every op the benchmark
(1) sends the real query through ``QservFrontend.query`` and reads the
stage timings the czar already reports on ``result.stats``, with exact
counter deltas taken around the call, then (2) replays the same query
by hand, serially, through each layer's public functions -- analyze,
aggregation plan, coverage, rewrite, one xrd write/read pair per chunk,
decode, merge -- and (3) repeats each chunk query directly on its
worker and each of its statements directly on the worker's engine.
Every one of those calls is a span.  Differences between paired
timings of the same chunk query give the self time of the layer in
between (``xrd.self_us``, ``worker.self_us``).
"""

from __future__ import annotations

import re
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

from repro.obs.metrics import REGISTRY
from repro.qserv.aggregation import build_aggregation_plan
from repro.qserv import Czar
from repro.qserv.analysis import analyze
from repro.qserv.rewrite import generate_chunk_queries, generate_merge_query
from repro.sql import Database, Table
from repro.sql.kernels import KernelCache
from repro.sql.parser import parse
from repro.sql.wire import decode_table, encode_table
from repro.xrd.protocol import query_hash, query_path, result_format_header, result_path

from client import Client
from workloads import OpStream

_COUNTERS = (
    "xrd.bytes.written",
    "xrd.bytes.read",
    "engine.scan.bytes",
    "kernel.executions",
    "kernel.fallbacks",
    "kernel.cache.hits",
    "kernel.cache.misses",
)
_HISTOGRAMS = ("frontend.queue.seconds", "worker.queue.wait.seconds")
_SUB_CHUNK_TABLE = re.compile(r"\b(\w+_\d+)_(\d+)\b")
_MERGE_TABLE = "qserv_merge_replay"
#: Replay timings that are lists: one entry per chunk, statement or build.
_PER_CHUNK = (
    "roundtrip", "decode", "execute", "encode", "engine", "parse", "exec",
    "subchunk_build",
)

#: Exact counts are summed over this many leading rounds, so that they
#: repeat from run to run although the number of rounds does not.
COUNT_ROUNDS = 5


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


class _Snapshot:
    """Counter and histogram totals, to subtract around one real query."""

    def __init__(self, workers):
        self.counters = {n: REGISTRY.counter(n).value for n in _COUNTERS}
        self.histograms = {}
        for n in _HISTOGRAMS:
            snap = REGISTRY.histogram(n).snapshot()
            self.histograms[n] = (snap["count"], snap["sum"])
        self.sub_chunk_tables = sum(w.stats.sub_chunk_tables_built for w in workers)

    def since(self, before: "_Snapshot") -> dict:
        out = {n: v - before.counters[n] for n, v in self.counters.items()}
        for n, (count, total) in self.histograms.items():
            out[n] = (count - before.histograms[n][0], total - before.histograms[n][1])
        out["sub_chunk_tables"] = self.sub_chunk_tables - before.sub_chunk_tables
        return out


class TracedClient(Client):
    """A client whose ops are also replayed layer by layer under spans."""

    def __init__(self, testbed, stream, user, recorder, qid_base=0, replay=True):
        super().__init__(testbed.frontend, stream, user)
        self.replay = replay
        self.tb = testbed
        self.czar = testbed.czar
        self.rec = recorder
        self.records = []  # one dict per traced op
        self._qid = qid_base
        self._merge_kernels = KernelCache()  # the czar shares one across merges too

    def traced_round(self, classes):
        for cls in classes:
            self._qid += 1
            workers = self.tb.workers.values()
            before = _Snapshot(workers)
            with self.rec.span("frontend.query", self._qid):
                done = self.issue(cls)
            if done is None:
                continue
            deltas = _Snapshot(workers).since(before)
            op, result, _, wall = done
            stats = result.stats
            record = {
                "cls": cls,
                "wall": wall,
                "submit": stats.elapsed_seconds,
                "plan": stats.plan_seconds,
                "merge": stats.merge_seconds,
                "plan_hit": bool(stats.plan_cache_hits),
                "chunks": stats.chunks_dispatched,
                "rows_merged": stats.rows_merged,
                "chunk_seconds": sum(p.seconds for p in stats.chunk_profiles),
                "counts": deltas,
            }
            del result
            if self.replay:
                with self.rec.span("replay", self._qid):
                    record.update(self._replay(op.sql))
            self.records.append(record)

    def _timed(self, name, fn, *args, **kwargs):
        with self.rec.span(name, self._qid):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            return value, time.perf_counter() - start

    def _replay(self, sql: str) -> dict:
        czar, timed = self.czar, self._timed
        out = {k: [] for k in _PER_CHUNK}
        replay_start = time.perf_counter()
        analysis, out["analyze"] = timed("czar.analyze", analyze, sql, czar.metadata)
        plan, out["aggplan"] = timed(
            "czar.aggplan", build_aggregation_plan, analysis.select
        )
        chunk_ids, out["coverage"] = timed("czar.coverage", czar.coverage, analysis)
        specs, out["rewrite"] = timed(
            "czar.rewrite", generate_chunk_queries,
            analysis, plan, czar.metadata, czar.chunker, chunk_ids,
        )
        header = result_format_header("binary") + "\n"
        tables, placed = [], []
        for spec in specs:
            text = header + spec.text
            with self.rec.span("xrd.roundtrip", self._qid):
                start = time.perf_counter()
                worker, _ = timed(
                    "xrd.write", czar.client.write_file, query_path(spec.chunk_id), text
                )
                data, _ = timed(
                    "xrd.read", czar.client.read_file,
                    result_path(query_hash(text)), server_name=worker,
                )
                out["roundtrip"].append(time.perf_counter() - start)
            table, seconds = timed("wire.decode", decode_table, data, copy=False)
            out["decode"].append(seconds)
            tables.append(table)
            placed.append((spec, text, worker))
        merge_start = time.perf_counter()
        with self.rec.span("czar.merge", self._qid):
            merge_db = Database(czar.metadata.database, kernel_cache=self._merge_kernels)
            merge_db.create_table(Table.concat(_MERGE_TABLE, tables), overwrite=True)
            merge_db.execute(generate_merge_query(plan, analysis.select, _MERGE_TABLE))
        out["merge_replay"] = time.perf_counter() - merge_start
        out["replay_wall"] = time.perf_counter() - replay_start

        # Outside the czar-equivalent path: what the coverage call and
        # each chunk round trip spent further down.
        if analysis.has_index_restriction:
            _, out["index_lookup"] = timed(
                "secondary_index.lookup",
                self.tb.secondary_index.chunks_for, analysis.index_values,
            )
        if analysis.region is not None:
            _, out["partition_coverage"] = timed(
                "partition.coverage", czar.chunker.chunks_intersecting, analysis.region
            )
        for spec, text, worker_name in placed:
            worker = self.tb.workers[worker_name]
            chunk_result, seconds = timed(
                "worker.execute", worker.execute_chunk_query, spec.chunk_id, text
            )
            out["execute"].append(seconds)
            _, seconds = timed("wire.encode", encode_table, chunk_result, "chunk_result")
            out["encode"].append(seconds)
            del chunk_result
            out["engine"].append(self._replay_statements(worker.db, spec, out))
        return out

    def _replay_statements(self, db, spec, out) -> float:
        """Run the chunk query's statements straight on the worker's engine."""
        statements = [
            s.strip()
            for s in "\n".join(
                ln for ln in spec.text.splitlines() if not ln.startswith("--")
            ).split(";")
            if s.strip()
        ]
        built = []
        if spec.sub_chunk_ids:
            # The worker builds these on the fly and drops them; do the same.
            start = time.perf_counter()
            with self.rec.span("worker.subchunk_build", self._qid):
                for parent, sub in dict.fromkeys(_SUB_CHUNK_TABLE.findall(spec.text)):
                    name = f"{parent}_{sub}"
                    db.execute(
                        f"CREATE TABLE {name} AS SELECT * FROM {parent} "
                        f"WHERE subChunkId = {sub}"
                    )
                    built.append(name)
            out["subchunk_build"].append(time.perf_counter() - start)
        total = 0.0
        try:
            for stmt in statements:
                _, seconds = self._timed("engine.parse", parse, stmt)
                out["parse"].append(seconds)
                _, seconds = self._timed("engine.exec", db.execute, stmt)
                out["exec"].append(seconds)
                total += seconds
        finally:
            for name in built:
                db.drop_table(name, if_exists=True)
        return total


# -- workload-independent probes ---------------------------------------------


def _probe_frontend(tb, sql: str) -> dict:
    fe = tb.frontend
    admission, cache_hit = [], []
    for _ in range(300):
        start = time.perf_counter()
        fe.admission.acquire("probe").release()
        admission.append(time.perf_counter() - start)
    fe.query(sql, user="probe")  # fills the result cache
    for _ in range(300):
        start = time.perf_counter()
        fe.query(sql, user="probe")
        cache_hit.append(time.perf_counter() - start)
    fe.cache.clear()
    return {
        "frontend.admission_us": _median(admission, 1e6),
        "frontend.cache_hit_us": _median(cache_hit, 1e6),
    }


def _probe_locate(tb) -> dict:
    paths = [query_path(c) for c in tb.placement.chunk_ids]
    samples = []
    for _ in range(20):
        for path in paths:
            start = time.perf_counter()
            tb.redirector.locate(path, health=tb.health)
            samples.append(time.perf_counter() - start)
    return {"xrd.locate_us": _median(samples, 1e6)}


def _probe_plan_hit(tb, sql: str) -> dict:
    tb.czar.submit(sql)
    hits = [tb.czar.submit(sql).stats.plan_seconds for _ in range(10)]
    return {"czar.plan_hit_us": _median(hits, 1e6)}


def _probe_dispatch_fit(tb) -> dict:
    """Dispatch-phase wall of HV1 against the number of chunks dispatched.

    The paper's scaling runs "configured the frontend to only dispatch
    queries for partitions belonging to the desired set of nodes"; the
    same knob (``available_chunks``) gives czars that send ``COUNT(*)``
    to 1, 2, 4, 8, 16 and all chunks.  Each chunk costs the worker the
    same trivial count, so a least-squares line through the per-size
    medians has the fixed cost of a dispatch phase as its intercept and
    the cost of one more chunk as its slope (the paper reports ~2.6 ms).
    """
    chunks = sorted(tb.placement.chunk_ids)
    czar = tb.czar
    sizes = sorted({min(n, len(chunks)) for n in (1, 2, 4, 8, 16, len(chunks))})
    czars = {
        n: Czar(
            tb.redirector, czar.metadata, czar.chunker,
            available_chunks=chunks[:n],
            dispatch_parallelism=czar.dispatch_parallelism,
            wire_format=czar.wire_format,
            health=tb.health,
        )
        for n in sizes
    }
    walls = {n: [] for n in sizes}
    try:
        for rep in range(41):
            for n, sized in czars.items():
                stats = sized.submit("SELECT COUNT(*) FROM Object").stats
                if rep:  # the first pass fills each czar's plan cache
                    walls[n].append(
                        stats.elapsed_seconds - stats.plan_seconds - stats.merge_seconds
                    )
    finally:
        for sized in czars.values():
            sized.close()
    slope, intercept = np.polyfit(sizes, [statistics.median(walls[n]) for n in sizes], 1)
    return {
        "czar.dispatch_fixed_us": float(intercept) * 1e6,
        "czar.dispatch_per_chunk_us": float(slope) * 1e6,
    }


# -- the traced measurement -----------------------------------------------------


def measure(tb, workload, seed, seconds, space, oracle, recorder) -> tuple:
    """Run the workload traced; returns ``(clients, per-layer metrics, detail)``."""
    fg = TracedClient(tb, OpStream(seed, space), "interactive", recorder)
    clients = [fg]
    first_sql = OpStream(seed + 1, space).next(workload.slots[0]).sql
    metrics = {}
    metrics.update(_probe_frontend(tb, first_sql))
    metrics.update(_probe_locate(tb))
    metrics.update(_probe_plan_hit(tb, first_sql))
    metrics.update(_probe_dispatch_fit(tb))

    stop = threading.Event()
    thread = None
    start = time.perf_counter()
    if workload.background:
        # The scan client only loads the system, as in the untraced run: a
        # replay on its thread would compete with the client being measured.
        bg = TracedClient(
            tb, OpStream(seed, space), "scan", recorder, qid_base=1 << 20, replay=False
        )
        clients.append(bg)

        def scan_loop():
            while not stop.is_set():
                bg.traced_round(workload.background)

        thread = threading.Thread(target=scan_loop, name="scan-client")
        thread.start()
    try:
        # Plain and traced rounds alternate, so the same ops, minutes
        # apart at most, give the cost of recording.
        while time.perf_counter() < start + seconds:
            fg.run_round(workload.foreground)
            fg.traced_round(workload.foreground)
    finally:
        stop.set()
        if thread is not None:
            thread.join()
    wall = time.perf_counter() - start

    records = [r for c in clients for r in c.records]
    metrics.update(_pooled_metrics(tb, fg.records))
    metrics.update(_count_metrics(clients, workload))
    detail = {}
    for i, cls in enumerate(workload.slots, 1):
        rows = _budget_rows([r for r in records if r["cls"] == cls])
        detail[cls] = rows
        metrics.update({f"q{i}.{k}": v for k, v in rows.items()})
    ratios = [
        _median([r["wall"] for r in fg.records if r["cls"] == cls])
        / _median(fg.latency[cls])
        for cls in workload.foreground
        if fg.latency[cls] and any(r["cls"] == cls for r in fg.records)
    ]
    metrics["trace.overhead_pct"] = (statistics.mean(ratios) - 1.0) * 100.0 if ratios else 0.0
    metrics["background.queries_per_s"] = (
        len(clients[1].records) / wall if workload.background else 0.0
    )
    return clients, metrics, detail


def _per_chunk(records, key):
    return [v for r in records for v in r[key]]


def _pooled_metrics(tb, records) -> dict:
    """Per-call medians over every traced op (and chunk) of the workload."""
    us = 1e6
    queue = {n: [0, 0.0] for n in _HISTOGRAMS}
    for r in records:
        for n in _HISTOGRAMS:
            queue[n][0] += r["counts"][n][0]
            queue[n][1] += r["counts"][n][1]

    def mean_wait(name):
        count, total = queue[name]
        return total / count * us if count else 0.0

    def paired(key_a, *keys_b):
        return [
            a - sum(bs)
            for r in records
            for a, *bs in zip(r[key_a], *(r[k] for k in keys_b))
        ]

    return {
        "frontend.overhead_us": _median([r["wall"] - r["submit"] for r in records], us),
        "frontend.queue_wait_us": mean_wait("frontend.queue.seconds"),
        "czar.plan_miss_us": _median([r["plan"] for r in records if not r["plan_hit"]], us),
        "czar.analyze_us": _median([r["analyze"] for r in records], us),
        "czar.aggplan_us": _median([r["aggplan"] for r in records], us),
        "czar.coverage_us": _median([r["coverage"] for r in records], us),
        "secondary_index.lookup_us": _median(
            [r["index_lookup"] for r in records if "index_lookup" in r], us
        ),
        "partition.coverage_us": _median(
            [r["partition_coverage"] for r in records if "partition_coverage" in r], us
        ),
        "czar.rewrite_us_per_chunk": _median(
            [r["rewrite"] / r["chunks"] for r in records if r["chunks"]], us
        ),
        "czar.chunk_seconds_sum_ms": _median([r["chunk_seconds"] for r in records], 1e3),
        "czar.replay_ratio": _median([r["submit"] / r["replay_wall"] for r in records]),
        "czar.merge_us": _median([r["merge"] for r in records], us),
        "xrd.roundtrip_us": _median(_per_chunk(records, "roundtrip"), us),
        "xrd.self_us": _median(paired("roundtrip", "execute", "encode"), us),
        "worker.execute_us": _median(_per_chunk(records, "execute"), us),
        "worker.self_us": _median(paired("execute", "engine"), us),
        "worker.subchunk_build_us": _median(_per_chunk(records, "subchunk_build"), us),
        "worker.queue_wait_us": mean_wait("worker.queue.wait.seconds"),
        "worker.queue_high_water": float(
            max(w.stats.queue_high_water for w in tb.workers.values())
        ),
        "engine.parse_us": _median(_per_chunk(records, "parse"), us),
        "engine.exec_us": _median(_per_chunk(records, "exec"), us),
        "wire.encode_us": _median(_per_chunk(records, "encode"), us),
        "wire.decode_us": _median(_per_chunk(records, "decode"), us),
        "layers.accounted_ratio": _median([_accounted(r) for r in records]),
    }


def _accounted(r) -> float:
    """Share of the real wall that plan, round trips, merge and frontend explain."""
    return (r["plan"] + r["merge"] + sum(r["roundtrip"]) + r["wall"] - r["submit"]) / r["wall"]


def _count_metrics(clients, workload) -> dict:
    """Exact counter deltas per query, over the first ``COUNT_ROUNDS`` rounds."""
    window = []
    for client, classes in zip(clients, (workload.foreground, workload.background)):
        window += client.records[: COUNT_ROUNDS * len(classes)]
    n = max(len(window), 1)
    total = defaultdict(int)
    for r in window:
        for name in _COUNTERS:
            total[name] += r["counts"][name]
        total["sub_chunk_tables"] += r["counts"]["sub_chunk_tables"]
        total["rows_merged"] += r["rows_merged"]
    runs = total["kernel.executions"] + total["kernel.fallbacks"]
    lookups = total["kernel.cache.hits"] + total["kernel.cache.misses"]
    return {
        "czar.rows_merged": total["rows_merged"] / n,
        "xrd.bytes_written": total["xrd.bytes.written"] / n,
        "xrd.bytes_read": total["xrd.bytes.read"] / n,
        "worker.subchunk_tables_built": total["sub_chunk_tables"] / n,
        "engine.scan_bytes": total["engine.scan.bytes"] / n,
        "kernel.executions": total["kernel.executions"] / n,
        "kernel.fallbacks": total["kernel.fallbacks"] / n,
        "kernel.hit_ratio": total["kernel.executions"] / runs if runs else 0.0,
        "kernel.cache_hit_ratio": total["kernel.cache.hits"] / lookups if lookups else 0.0,
    }


def _budget_rows(records) -> dict:
    """One query class's budget: medians per query, chunk costs summed.

    The rows below ``merge_us`` come from the replay and read 0 for the
    classes of mixed_load's scan client, which is not replayed.
    """
    us = 1e6
    replayed = [r for r in records if "replay_wall" in r]
    return {
        "wall_us": _median([r["wall"] for r in records], us),
        "chunks": _median([r["chunks"] for r in records]),
        "frontend_us": _median([r["wall"] - r["submit"] for r in records], us),
        "plan_us": _median([r["plan"] for r in records], us),
        "dispatch_us": _median(
            [r["submit"] - r["plan"] - r["merge"] for r in records], us
        ),
        "merge_us": _median([r["merge"] for r in records], us),
        "xrd_us": _median([sum(r["roundtrip"]) for r in replayed], us),
        "worker_us": _median([sum(r["execute"]) for r in replayed], us),
        "engine_us": _median([sum(r["engine"]) for r in replayed], us),
        "wire_us": _median([sum(r["encode"]) + sum(r["decode"]) for r in replayed], us),
        "accounted_ratio": _median([_accounted(r) for r in replayed]),
    }
