"""Result-transport benchmark: sqldump vs binary columnar wire format.

Measures the full serialize -> transfer(bytes) -> deserialize -> merge
segment on a representative HV2-sized result (the paper's full-sky
filter returns objectId/ra/decl for a few percent of the Object table,
spread over every chunk).  Section 7.1 calls the mysqldump transfer
"not cheap in speed, disk usage, network utilization"; this bench
quantifies the planned-optimization win and records it in
``benchmarks/out/BENCH_transport.json``.

Both sides are timed one chunk result at a time, as a ``sqldump`` czar
runs: it sends every chunk query alone.  The binary czar batches a
worker's chunk queries into one transaction pair with one table back,
so in the system the binary side does less than this per-chunk loop.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.sql import Database, Table, decode_table, dump_table, encode_table
from repro.sql.dump import load_dump

from _series import OUT_DIR, emit, format_series

# A down-scaled HV2 result: ~150k rows of (objectId, ra_PS, decl_PS)
# spread over 30 chunk results.
NUM_CHUNKS = 30
ROWS_PER_CHUNK = 5_000
REPEATS = 3


def make_chunk_results(rng) -> list[Table]:
    out = []
    for c in range(NUM_CHUNKS):
        n = ROWS_PER_CHUNK
        out.append(
            Table(
                "chunk_result",
                {
                    "objectId": rng.integers(0, 2**48, n),
                    "ra_PS": rng.uniform(0, 360, n),
                    "decl_PS": rng.uniform(-90, 90, n),
                },
            )
        )
    return out


def run_sqldump(chunks: list[Table]) -> tuple[float, float, int, Table]:
    t0 = time.perf_counter()
    payloads = [dump_table(t, "chunk_result").encode() for t in chunks]
    serialize_s = time.perf_counter() - t0
    nbytes = sum(len(p) for p in payloads)

    t0 = time.perf_counter()
    db = Database("LSST")
    tables = []
    for p in payloads:
        name = load_dump(db, p.decode())
        tables.append(db.get_table(name))
        db.drop_table(name)
    merged = Table.concat("qserv_merge", tables)
    merge_s = time.perf_counter() - t0
    return serialize_s, merge_s, nbytes, merged


def run_binary(chunks: list[Table]) -> tuple[float, float, int, Table]:
    t0 = time.perf_counter()
    payloads = [encode_table(t, "chunk_result") for t in chunks]
    serialize_s = time.perf_counter() - t0
    nbytes = sum(len(p) for p in payloads)

    t0 = time.perf_counter()
    merged = Table.concat("qserv_merge", [decode_table(p) for p in payloads])
    merge_s = time.perf_counter() - t0
    return serialize_s, merge_s, nbytes, merged


def best_of(fn, chunks):
    runs = [fn(chunks) for _ in range(REPEATS)]
    best = min(runs, key=lambda r: r[0] + r[1])
    return best


def test_binary_transport_speedup():
    rng = np.random.default_rng(2026)
    chunks = make_chunk_results(rng)
    total_rows = NUM_CHUNKS * ROWS_PER_CHUNK

    sd_ser, sd_mrg, sd_bytes, sd_tab = best_of(run_sqldump, chunks)
    bi_ser, bi_mrg, bi_bytes, bi_tab = best_of(run_binary, chunks)

    # Same merged relation either way.
    assert bi_tab.num_rows == sd_tab.num_rows == total_rows
    np.testing.assert_array_equal(
        bi_tab.column("objectId"), sd_tab.column("objectId")
    )
    np.testing.assert_array_equal(bi_tab.column("ra_PS"), sd_tab.column("ra_PS"))

    sd_total = sd_ser + sd_mrg
    bi_total = bi_ser + bi_mrg
    speedup = sd_total / bi_total
    entry = {
        "result_transport": {
            "rows": total_rows,
            "chunks": NUM_CHUNKS,
            "columns": ["objectId", "ra_PS", "decl_PS"],
            "sqldump": {
                "serialize_s": round(sd_ser, 6),
                "merge_s": round(sd_mrg, 6),
                "total_s": round(sd_total, 6),
                "bytes": sd_bytes,
            },
            "binary": {
                "serialize_s": round(bi_ser, 6),
                "merge_s": round(bi_mrg, 6),
                "total_s": round(bi_total, 6),
                "bytes": bi_bytes,
            },
            "speedup_total": round(speedup, 2),
            "bytes_ratio": round(sd_bytes / bi_bytes, 2),
        }
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_transport.json").write_text(json.dumps(entry, indent=2) + "\n")

    emit(
        "result_transport",
        format_series(
            f"Result transport, {total_rows} rows / {NUM_CHUNKS} chunks "
            "(serialize + merge, best of 3)",
            ["format", "serialize (ms)", "merge (ms)", "total (ms)", "MB moved"],
            [
                ("sqldump", sd_ser * 1e3, sd_mrg * 1e3, sd_total * 1e3, sd_bytes / 1e6),
                ("binary", bi_ser * 1e3, bi_mrg * 1e3, bi_total * 1e3, bi_bytes / 1e6),
                ("speedup", "", "", f"{speedup:.1f}x", f"{sd_bytes / bi_bytes:.1f}x"),
            ],
        ),
    )

    # Acceptance: the binary path is >= 3x faster end to end and smaller.
    assert speedup >= 3.0, f"binary transport only {speedup:.1f}x faster"
    assert bi_bytes < sd_bytes
