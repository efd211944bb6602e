"""The one cluster every workload runs on, and how long it takes to build.

Geometry is the paper's (85 stripes, 12 sub-stripes, 1-arcmin overlap):
28 chunks over the PT1.1 footprint, 400 000 objects and ~1.2 M sources
on 4 workers.  The data seed is fixed; the workload seed only drives
query literals, so every run and every commit queries the same rows.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro.data import build_testbed, synthesize_objects, synthesize_sources

NUM_OBJECTS = 400_000
SOURCES_PER_OBJECT = 3.0
DATA_SEED = 42
CLUSTER = dict(
    num_workers=4,
    num_stripes=85,
    num_sub_stripes=12,
    overlap=0.01667,
    replication=1,
    dispatch_parallelism=4,
    wire_format="binary",
)


@dataclass
class Setup:
    testbed: object
    synthesize_s: list  # one entry per build
    load_s: list

    @property
    def setup_s(self) -> list:
        return [a + b for a, b in zip(self.synthesize_s, self.load_s)]


def build_cluster(worker_slots: int, work_dir: Path, repeats: int = 1) -> Setup:
    """Synthesize + ``build_testbed`` ``repeats`` times; keep the last.

    Each earlier cluster is shut down and freed before the next is
    built, so peak memory is that of one cluster.  The frontend's
    journal directory lives under ``work_dir`` (inside the checkout)
    instead of the system temp directory.
    """
    synth, load = [], []
    testbed = None
    for i in range(repeats):
        if testbed is not None:
            testbed.shutdown()
            testbed = None
            gc.collect()
        root = work_dir / f"frontend-{i}"
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        objects = synthesize_objects(NUM_OBJECTS, seed=DATA_SEED)
        sources = synthesize_sources(objects, SOURCES_PER_OBJECT, seed=DATA_SEED + 1)
        t1 = time.perf_counter()
        testbed = build_testbed(
            objects=objects,
            sources=sources,
            worker_slots=worker_slots,
            frontend_root=root,
            **CLUSTER,
        )
        t2 = time.perf_counter()
        synth.append(t1 - t0)
        load.append(t2 - t1)
    return Setup(testbed, synth, load)
