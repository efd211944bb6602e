"""Engine benchmarks: paired interpreter/kernel/mmap runs + micro rates.

The hpc-parallel ground rule: no optimization without measurement.
The paired harness runs the same queries through three per-node engine
configurations over identical seeded data --

- ``interpreter``: the vectorized expression walker (kernels off),
- ``kernel``: the fused compiled-kernel path (warm cache, as the czar
  sees it from the second chunk of a query on),
- ``kernel+mmap``: compiled kernels over an mmap-backed table whose
  on-disk size exceeds the residency budget --

verifies all three produce identical results, and records the medians
in ``benchmarks/out/BENCH_engine.json`` (uploaded as a CI artifact).

Gate: the fused filter+project+aggregate shape must be >= 5x faster
under compiled kernels than interpreted, no shape may regress, and the
mmap configuration must stay correct while hosting more data than its
residency budget.

One row is not a 500 k-row scan: ``grouped_aggregation_chunk`` is the
HV3 chunk statement over one chunk table of the end-to-end benchmark's
size (14 286 rows, one ``chunkId``), prepared as a worker prepares it
(parsed and keyed once).  There the sort is nothing and Python is the
cost, so it is the row that shows whether the aggregate stage runs as
generated code.  It has no gate of its own beyond "no shape may
regress": ISSUE 21 asked for 3x and the row reads about 2x.

The trailing micro-benches pin the paths the paired harness does not
cover (equi-join, indexed point lookup, dump serialization).
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
import pytest

from repro.sql import Database, Table
from repro.sql.colstore import ColumnStore, ResidencyBudget
from repro.sql.parser import parse_one

from _series import OUT_DIR, emit, format_series

N = 500_000
REPEATS = 7
MIN_FUSED_SPEEDUP = 5.0

CHUNK_ROWS = 14_286
CHUNK_REPEATS = 2001
CHUNK_QUERY = (
    "SELECT COUNT(*) AS `COUNT(*)`, SUM(ra_PS) AS `SUM(ra_PS)`, "
    "COUNT(ra_PS) AS `COUNT(ra_PS)`, SUM(decl_PS) AS `SUM(decl_PS)`, "
    "COUNT(decl_PS) AS `COUNT(decl_PS)`, chunkId "
    "FROM LSST.Object_713 AS Object GROUP BY chunkId"
)

# The HV2/HV3 hybrid the kernels exist for: multi-UDF color cut fused
# with box predicates, grouped aggregation on top.
FUSED_QUERY = (
    "SELECT chunkId, COUNT(*) AS n, AVG(ra_PS) AS ara FROM Object "
    "WHERE decl_PS BETWEEN -10 AND 2 AND ra_PS BETWEEN 30 AND 60 "
    "AND fluxToAbMag(uFlux_PS) - fluxToAbMag(gFlux_PS) BETWEEN 0.2 AND 1.1 "
    "AND fluxToAbMag(gFlux_PS) - fluxToAbMag(rFlux_PS) BETWEEN -0.5 AND 0.6 "
    "GROUP BY chunkId ORDER BY chunkId"
)

QUERIES = {
    "fused_filter_project_aggregate": FUSED_QUERY,
    "predicate_scan": (
        "SELECT objectId, ra_PS FROM Object "
        "WHERE fluxToAbMag(uFlux_PS) - fluxToAbMag(gFlux_PS) > 1.0"
    ),
    "grouped_aggregation": (
        "SELECT chunkId, COUNT(*) AS n, AVG(ra_PS), AVG(decl_PS) "
        "FROM Object GROUP BY chunkId"
    ),
    "conjunct_scan": (
        "SELECT objectId FROM Object "
        "WHERE ra_PS > 10 AND ra_PS < 350 AND decl_PS BETWEEN -45 AND 45 "
        "AND chunkId IN (3, 17, 44, 101, 170)"
    ),
}


def make_columns(rng) -> dict[str, np.ndarray]:
    return {
        "objectId": np.arange(N, dtype=np.int64),
        "chunkId": rng.integers(0, 200, N),
        "ra_PS": rng.uniform(0, 360, N),
        "decl_PS": rng.uniform(-90, 90, N),
        "uFlux_PS": rng.lognormal(-12, 1.3, N),
        "gFlux_PS": rng.lognormal(-12, 1.3, N),
        "rFlux_PS": rng.lognormal(-12, 1.3, N),
    }


def median_seconds(db: Database, sql: str, prepared: bool = False) -> tuple[float, object]:
    """Median wall-clock of ``sql`` on ``db``, and its result.

    ``prepared`` runs it as a worker runs a chunk statement: parsed and
    keyed once, executed often (and, being microseconds, timed often).
    """
    if prepared:
        stmt = parse_one(sql)
        key = db.kernel_key(stmt)
        run, warm_ups, repeats = lambda: db.execute_statement(stmt, key), 50, CHUNK_REPEATS
    else:
        # One warm-up (and kernel compile, first time).
        run, warm_ups, repeats = lambda: db.execute(sql), 1, REPEATS
    for _ in range(warm_ups):
        result = run()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def assert_identical(a, b, label):
    assert a.column_names == b.column_names, label
    assert a.num_rows == b.num_rows, label
    for name in a.column_names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype == cb.dtype, f"{label}:{name}"
        np.testing.assert_array_equal(ca, cb, err_msg=f"{label}:{name}")


def test_engine_paired_benchmark(tmp_path):
    rng = np.random.default_rng(8)
    cols = make_columns(rng)

    db_interp = Database(use_kernels=False)
    db_interp.create_table(Table("Object", {k: v.copy() for k, v in cols.items()}))
    db_kernel = Database(use_kernels=True)
    db_kernel.create_table(Table("Object", {k: v.copy() for k, v in cols.items()}))

    # mmap config: on-disk size (7 cols x 8 B x 500k = 28 MB) far above
    # an 8 MB residency budget.
    budget = ResidencyBudget(max_bytes=8 * 1024 * 1024)
    store = ColumnStore(tmp_path, budget)
    db_mmap = Database(use_kernels=True)
    db_mmap.create_table(store.save_table(Table("Object", cols)))
    assert store.on_disk_bytes("Object") > budget.max_bytes

    chunk = {k: v[:CHUNK_ROWS].copy() for k, v in cols.items()}
    chunk["chunkId"][:] = 713
    for db in (db_interp, db_kernel):
        db.create_table(Table("Object_713", {k: v.copy() for k, v in chunk.items()}))
    db_mmap.create_table(store.save_table(Table("Object_713", chunk)))

    results = {}
    rows_out = []
    benches = [(name, sql, False, N) for name, sql in QUERIES.items()]
    benches.append(("grouped_aggregation_chunk", CHUNK_QUERY, True, CHUNK_ROWS))
    for name, sql, prepared, rows in benches:
        ti, ri = median_seconds(db_interp, sql, prepared)
        tk, rk = median_seconds(db_kernel, sql, prepared)
        tm, rm = median_seconds(db_mmap, sql, prepared)
        assert_identical(ri, rk, name)
        assert_identical(ri, rm, name)
        results[name] = {
            "rows_scanned": rows,
            "interpreter_s": round(ti, 6),
            "kernel_s": round(tk, 6),
            "kernel_mmap_s": round(tm, 6),
            "speedup_kernel": round(ti / tk, 2),
            "speedup_kernel_mmap": round(ti / tm, 2),
        }
        rows_out.append(
            # Three decimals: the chunk row is tens of microseconds.
            (name, *(f"{t * 1e3:.3f}" for t in (ti, tk, tm)),
             f"{ti / tk:.1f}x", f"{ti / tm:.1f}x")
        )

    entry = {
        "engine": {
            "rows": N,
            "repeats": REPEATS,
            "metric": "median seconds per query",
            "mmap_budget_bytes": budget.max_bytes,
            "mmap_on_disk_bytes": store.on_disk_bytes("Object"),
            "queries": results,
        }
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_engine.json").write_text(json.dumps(entry, indent=2) + "\n")

    emit(
        "engine_kernels",
        format_series(
            f"Per-node engine, {N} rows (median of {REPEATS}); "
            f"the chunk row {CHUNK_ROWS} rows, prepared (median of {CHUNK_REPEATS})",
            ["query", "interp (ms)", "kernel (ms)", "mmap (ms)", "speedup", "mmap speedup"],
            rows_out,
        ),
    )

    fused = results["fused_filter_project_aggregate"]
    assert fused["speedup_kernel"] >= MIN_FUSED_SPEEDUP, (
        f"fused kernel speedup regressed to {fused['speedup_kernel']}x "
        f"(gate: {MIN_FUSED_SPEEDUP}x); see BENCH_engine.json"
    )
    # Every shape must at least not regress under kernels.
    for name, r in results.items():
        assert r["speedup_kernel"] >= 1.0, f"{name} slower under kernels: {r}"


# -- micro rates not covered by the paired harness ----------------------------


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(8)
    d = Database()
    d.create_table(Table("Object", make_columns(rng)))
    d.create_table(
        Table(
            "Source",
            {
                "sourceId": np.arange(3 * N, dtype=np.int64),
                "objectId": rng.integers(0, N, 3 * N),
                "psfFlux": rng.lognormal(-12, 1.3, 3 * N),
            },
        )
    )
    return d


def test_equi_join_throughput(db, benchmark):
    """The SHV2 shape: Object x Source objectId join."""
    q = (
        "SELECT COUNT(*) FROM Object o, Source s "
        "WHERE o.objectId = s.objectId AND o.ra_PS < 36.0"
    )
    out = benchmark(db.execute, q)
    assert out.column("COUNT(*)")[0] > 0
    rate = 3 * N / benchmark.stats["mean"]
    assert rate > 5e5, f"join regressed to {rate / 1e6:.2f} Mrows/s"


def test_indexed_point_lookup(db, benchmark):
    """The LV1 shape: objectId = k through the hash index."""
    db.create_index("Object", "objectId")
    rng = np.random.default_rng(3)

    def one():
        oid = int(rng.integers(0, N))
        return db.execute(f"SELECT * FROM Object WHERE objectId = {oid}")

    out = benchmark(one)
    assert out.num_rows == 1
    # Point lookups must not scan: sub-millisecond.
    assert benchmark.stats["mean"] < 5e-3


def test_dump_throughput(db, benchmark):
    """The results-transfer shape: mysqldump of a 10k-row result."""
    from repro.sql import dump_table

    result = db.execute("SELECT objectId, ra_PS, decl_PS FROM Object LIMIT 10000")

    out = benchmark(dump_table, result)
    assert "INSERT INTO" in out
    rate = 10_000 / benchmark.stats["mean"]
    assert rate > 1e5, f"dump regressed to {rate / 1e3:.0f} krows/s"
