"""Query-class end-to-end benchmark of the Qserv reproduction.

    python3 benchmarks/e2e/run.py --workload hv_scan --seed 1 --seconds 10 --trace 0

builds one cluster, runs one workload as a closed loop through
``QservFrontend.query``, checks every answer against ``oracle.py`` and
prints one JSON object as the last line of standard output: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--quick``, ``--selfcheck`` and ``--baseline`` run all
four workloads, or the one named; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import repro  # noqa: E402

if ROOT / "src" not in Path(repro.__file__).resolve().parents:
    raise SystemExit(f"refusing to measure {repro.__file__}: not this checkout's src/")

from client import Client  # noqa: E402
from cluster import build_cluster  # noqa: E402
from oracle import Oracle  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, OpStream, QuerySpace  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 3
WARMUP_SECONDS = 1.5
MAX_TRACE_EVENTS = 2000
BLOCKS = 20
MIN_ROUNDS_PER_BLOCK = 4


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def pin_to_one_cpu() -> None:
    """Move every thread of this process, and those it starts later, to one CPU.

    The program is GIL-bound Python: a second core adds no throughput
    (set-up takes as long on one), but when the czar's pool or the
    worker slots land on it, each hand-off of the GIL crosses cores:
    HV1 drifts between 13 ms and 20 ms for seconds at a time and scans
    under mixed_load take three times as long.  On one CPU HV1 reads
    10.9-11.4 ms.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpu = {min(os.sched_getaffinity(0))}
    for tid in os.listdir("/proc/self/task"):  # BLAS threads exist since the import
        os.sched_setaffinity(int(tid), cpu)


def run_workload(name, seed, seconds, trace, out_dir, setup_repeats) -> dict:
    """Set up, warm up, measure and verify one workload; returns the result."""
    pin_to_one_cpu()
    workload = WORKLOADS[name]
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    setup = build_cluster(workload.worker_slots, work_dir, repeats=setup_repeats)
    tb = setup.testbed
    try:
        space = QuerySpace(tb.tables, tb.chunker)
        oracle = Oracle(tb.tables, tb.chunker)

        # Compile kernels, fill the redirector's location cache, start
        # pool threads.  Its own stream: the measured ops start at op 0.
        warm = Client(tb.frontend, OpStream(seed ^ 0x5EED, space), "warmup")
        warm.run_rounds(
            workload.foreground + workload.background,
            time.perf_counter() + min(WARMUP_SECONDS, seconds),
        )
        gc.collect()

        if trace:
            import layers

            recorder = Recorder()
            clients, metrics, detail = layers.measure(
                tb, workload, seed, seconds, space, oracle, recorder
            )
            metrics["data.synthesize_s"] = statistics.median(setup.synthesize_s)
            metrics["data.load_s"] = statistics.median(setup.load_s)
            recorder.write_chrome_trace(
                out_dir / f"trace_{name}.json",
                MAX_TRACE_EVENTS,
                {"workload": name, "seed": seed, **environment()},
            )
            extra = {
                "per_class": detail,
                "self_ms_by_span": {
                    k: v * 1e3 for k, v in sorted(recorder.self_seconds().items())
                },
                "split_families": space.split_families,
            }
        else:
            clients, metrics = measure_end_to_end(tb, workload, seed, seconds, space)
            metrics["setup_s"] = statistics.median(setup.setup_s)
            extra = {
                "samples": {
                    cls: len(c.latency[cls]) for c in clients for cls in c.latency
                },
                "whole_run_p50_ms": {
                    cls: statistics.median(c.latency[cls]) * 1e3
                    for c in clients for cls in c.latency
                },
                "setup_s_each": setup.setup_s,
            }
        clients.append(warm)
        attempted = sum(c.attempted for c in clients)
        failed = sum(c.failed + c.verify(oracle) for c in clients)
        for line in [e for c in clients for e in c.errors][:10]:
            print(line, file=sys.stderr)
    finally:
        tb.shutdown()
        shutil.rmtree(work_dir, ignore_errors=True)
    if not trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(metrics, "per_layer" if trace else "end_to_end"),
        "extra": extra,
    }


def measure_end_to_end(tb, workload, seed, seconds, space) -> tuple:
    fg = Client(tb.frontend, OpStream(seed, space), "interactive")
    clients = [fg]
    stop = threading.Event()
    thread = None
    if workload.background:
        bg = Client(tb.frontend, OpStream(seed, space), "scan")
        clients.append(bg)
        thread = threading.Thread(
            target=bg.run_rounds,
            args=(workload.background, float("inf"), stop),
            name="scan-client",
        )
    start = time.perf_counter()
    if thread is not None:
        thread.start()
    try:
        fg.run_rounds(workload.foreground, start + seconds)
    finally:
        stop.set()
        if thread is not None:
            thread.join()

    p50, p90, rate = steady_blocks(fg, workload.foreground)
    if workload.background:
        p50.update(steady_blocks(clients[1], workload.background)[0])
    metrics = {
        f"q{i}_p50_ms": quiet(p50[cls], 25) * 1e3
        for i, cls in enumerate(workload.slots, 1)
    }
    metrics["query_p90_ms"] = quiet(p90, 25) * 1e3
    metrics["queries_per_s"] = quiet(rate, 75)
    return clients, metrics


def steady_blocks(client, classes) -> tuple:
    """The client's whole rounds cut into consecutive blocks; values per block.

    Returns each class's median latency per block, the pooled p90 per
    block and the ops per second per block.  See ``quiet`` for why.
    """
    rounds = min(len(client.latency[cls]) for cls in classes)
    if not rounds:
        raise SystemExit(f"no whole round of {classes} completed")
    count = min(BLOCKS, max(1, rounds // MIN_ROUNDS_PER_BLOCK))
    edges = np.linspace(0, rounds, count + 1).astype(int)
    p50 = {cls: [] for cls in classes}
    p90, rate = [], []
    first, last = classes[0], classes[-1]
    for lo, hi in zip(edges[:-1], edges[1:]):
        pooled = []
        for cls in classes:
            part = client.latency[cls][lo:hi]
            p50[cls].append(statistics.median(part))
            pooled += part
        end = client.started[last][hi - 1] + client.latency[last][hi - 1]
        wall = end - client.started[first][lo]
        p90.append(float(np.percentile(pooled, 90)))
        rate.append(len(pooled) / wall)
    return p50, p90, rate


def quiet(block_values, percent) -> float:
    """The quartile of the block values on the machine's fast side.

    This box runs at two speeds: a pure-Python spin loop takes 1.12 ms
    or 1.55 ms per pass, switching every few seconds with no steal time
    reported (a busy SMT neighbour).  A median over a 10 s run lands on
    either side; the quartile of half-second blocks stays on the fast
    side as long as a quarter of the run was undisturbed.
    """
    return float(np.percentile(block_values, percent))


def with_units(metrics: dict, section: str) -> dict:
    """Exactly the contract's metrics of ``section``, each with its unit."""
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    if set(declared) != set(metrics):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(declared) ^ set(metrics))}"
        )
    return {n: {"value": float(metrics[n]), "unit": declared[n]} for n in declared}


# -- modes that run every workload (or the one named), each in a fresh process ------


def chosen(args) -> list:
    return [args.workload] if args.workload else list(WORKLOADS)


def run_child(name, seed, seconds, trace, out_dir, setup_repeats=SETUP_REPEATS) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir),
        "--setup-repeats", str(setup_repeats), "--verbose",
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quick(args) -> int:
    """Every workload for a second each, oracle on: the CI smoke run."""
    ok = True
    for name in chosen(args):
        result = run_child(name, args.seed, 1, 0, args.out_dir, setup_repeats=1)
        ok &= result["correct"]
        values = ", ".join(
            f"{n}={m['value']:.4g}{m['unit']}" for n, m in result["metrics"].items()
        )
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} {values}")
    return 0 if ok else 1


def selfcheck(args) -> int:
    """Same seed twice and another seed once; best and middle run within the bound.

    The worst of the three is printed but not judged: one run in three
    may fall into a slow phase of the machine (see ``quiet``), which
    moves all its timings 1.3-1.8x.
    """
    worst = 0
    for name in chosen(args):
        runs = [
            run_child(name, seed, args.seconds, 0, args.out_dir)
            for seed in (args.seed, args.seed, args.seed + 1)
        ]
        if not all(r["correct"] for r in runs):
            print(f"{name}: wrong answers or failed ops")
            worst = 1
        for m in CONTRACT["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            best, middle, _ = sorted(values, reverse=m["better"] == "higher")
            spread = abs(middle - best) / best
            worst |= spread > m["bound"]
            print(
                f"{name:11s} {m['name']:14s} {values[0]:10.4f} {values[1]:10.4f} "
                f"{values[2]:10.4f}  spread {spread:6.3f}  bound {m['bound']:.2f}  "
                f"{'ok' if spread <= m['bound'] else 'OVER'}"
            )
    return int(worst)


def baseline(args) -> int:
    """Write out/baseline_<workload>.json and out/trace_<workload>.json."""
    ok = True
    for name in chosen(args):
        untraced = run_child(name, args.seed, args.seconds, 0, args.out_dir)
        traced = run_child(name, args.seed, args.seconds, 1, args.out_dir)
        ok &= untraced["correct"] and traced["correct"]
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "environment": environment(),
            "end_to_end": untraced,
            "per_layer": traced,
            "claim": None,
        }
        path = args.out_dir / f"baseline_{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out-dir", type=Path, default=HERE / "out" / "run",
        help="scratch and trace output; the committed baseline was written to out/",
    )
    parser.add_argument("--setup-repeats", type=int, default=None)
    parser.add_argument("--verbose", action="store_true", help="keep 'extra' in the result")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true")
    mode.add_argument("--selfcheck", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    args.out_dir = args.out_dir.resolve()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for flag, fn in (("quick", quick), ("selfcheck", selfcheck), ("baseline", baseline)):
        if getattr(args, flag):
            return fn(args)
    if args.workload is None:
        parser.error("--workload is required")
    repeats = args.setup_repeats or (1 if args.trace else SETUP_REPEATS)
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.out_dir, repeats
    )
    if not args.verbose:
        del result["extra"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
