"""Ablation (section 7.6): distributing the master's management load.

"A Qserv instance at LSST's planned scale may have a million fragment
queries in flight, and ... managing millions from a single point is
likely to be problematic.  One way to distribute the management load is
to launch multiple master instances."  Two measurements:

- model: HV1 (pure dispatch overhead) at 150 nodes vs master count --
  the serial bottleneck divides almost ideally;
- functional: the real QservFrontend running a concurrent batch over
  3 masters with threaded workers.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.data import build_testbed
from repro.qserv import Czar, QservFrontend
from repro.sim import SimulatedCluster, hv1_job, paper_cluster, paper_data_scale

from _series import emit, format_series


def simulate_master_sweep():
    scale = paper_data_scale()
    spec = paper_cluster(150)
    rows = []
    base = None
    for m in (1, 2, 4, 8, 16):
        c = SimulatedCluster(spec, num_masters=m)
        c.submit(hv1_job(scale, spec))
        t = c.run()[0].elapsed
        if base is None:
            base = t
        rows.append((m, t, base / t))
    return rows


def test_ablation_multimaster_model(benchmark):
    rows = benchmark.pedantic(simulate_master_sweep, rounds=1, iterations=1)
    emit(
        "ablation_multimaster",
        format_series(
            "Ablation: HV1 (dispatch-overhead-bound) vs master count, 150 nodes "
            "(paper 7.6: distribute the management load)",
            ["masters", "HV1 (s)", "speedup"],
            rows,
        ),
    )
    by_m = {r[0]: r for r in rows}
    assert by_m[2][2] > 1.5
    assert by_m[8][2] > 3.5
    # Diminishing returns: the frontend_latency floor remains.
    assert by_m[16][1] > 3.0


def simulate_tree_sweep():
    """Section 7.6's *other* proposal: tree-based query management.

    Serial top-master work is O(fanout) + O(chunks/fanout); the sweep
    shows the U-curve with its optimum near sqrt(8987) ~= 95.
    """
    scale = paper_data_scale()
    spec = paper_cluster(150)
    rows = []
    for fanout in (None, 10, 30, 95, 300, 1000):
        c = SimulatedCluster(spec, tree_fanout=fanout)
        c.submit(hv1_job(scale, spec))
        t = c.run()[0].elapsed
        rows.append(("flat (paper)" if fanout is None else fanout, t))
    return rows


def test_ablation_tree_dispatch(benchmark):
    rows = benchmark.pedantic(simulate_tree_sweep, rounds=1, iterations=1)
    emit(
        "ablation_tree_dispatch",
        format_series(
            "Ablation: tree-based query management, HV1 vs fanout, 150 nodes "
            "(paper 7.6: dispatch groups to lower-level masters)",
            ["fanout", "HV1 (s)"],
            rows,
        ),
    )
    by = {r[0]: r[1] for r in rows}
    # The tree crushes the flat master's serial cost...
    assert by[95] < by["flat (paper)"] / 5
    # ...with a U-shaped optimum near sqrt(chunks).
    assert by[95] < by[10]
    assert by[95] < by[1000]


def test_ablation_multimaster_functional(benchmark):
    """Real stack: concurrent batch throughput, 1 vs 3 masters."""
    tb = build_testbed(num_workers=3, num_objects=600, seed=91, worker_slots=2)
    statements = ["SELECT COUNT(*) FROM Object"] * 6

    def run_with(masters):
        czars = [
            Czar(
                tb.redirector,
                tb.metadata,
                tb.chunker,
                secondary_index=tb.secondary_index,
                available_chunks=tb.placement.chunk_ids,
            )
            for _ in range(masters)
        ]
        # No result cache: every statement of the batch reaches a czar.
        fe = QservFrontend(czars, cache_entries=0)
        try:
            with ThreadPoolExecutor(max_workers=len(statements)) as pool:
                results = list(pool.map(fe.query, statements))
        finally:
            fe.shutdown()
            for czar in czars:
                czar.close()
        counts = {int(r.table.column("COUNT(*)")[0]) for r in results}
        assert counts == {tb.tables["Object"].num_rows}
        return [czar.metrics.counter("czar.queries").value for czar in czars]

    loads = benchmark(lambda: run_with(3))
    # The batch spread across all three masters.
    assert all(q >= 1 for q in loads)
    tb.shutdown()
