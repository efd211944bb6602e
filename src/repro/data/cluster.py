"""One-call construction of a complete in-process Qserv cluster.

Wires together everything the paper's Figure 1 shows: synthetic data,
the chunker, worker nodes (SQL engine + ofs plugin + data server), the
redirector, the secondary index, the czar, and the MySQL-proxy-shaped
frontend.  This is the entry point examples and integration tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..partition import Chunker, Placement
from ..qserv import (
    CatalogMetadata,
    Czar,
    QservFrontend,
    QservProxy,
    QservWorker,
    SecondaryIndex,
)
from ..qserv.membership import ClusterMembership
from ..sql import Database, Table
from ..xrd import DataServer, Redirector
from ..xrd.health import HealthTracker
from ..xrd.protocol import query_path
from ..xrd.repair import ChunkChecksums, IntegrityScrubber, RepairManager
from .loader import LoadReport, assign_rows, load_tables
from .synthesis import synthesize_objects, synthesize_sources

__all__ = ["QservTestbed", "build_testbed"]


@dataclass
class QservTestbed:
    """A running in-process cluster and its construction artifacts."""

    chunker: Chunker
    metadata: CatalogMetadata
    redirector: Redirector
    workers: dict[str, QservWorker]
    servers: dict[str, DataServer]
    placement: Placement
    secondary_index: SecondaryIndex
    czar: Czar
    proxy: QservProxy
    frontend: QservFrontend
    tables: dict[str, Table]
    load_report: LoadReport
    health: HealthTracker
    checksums: ChunkChecksums
    repair: RepairManager
    scrubber: IntegrityScrubber
    membership: ClusterMembership

    def query(self, sql: str, **kwargs):
        """Submit a query through the proxy (kwargs reach Czar.submit)."""
        return self.proxy.query(sql, **kwargs)

    def shutdown(self):
        self.frontend.shutdown()
        self.repair.stop()
        self.scrubber.stop()
        self.czar.close()
        for w in self.workers.values():
            w.shutdown()


def build_testbed(
    num_workers: int = 4,
    num_objects: int = 2000,
    mean_sources_per_object: float = 3.0,
    num_stripes: int = 18,
    num_sub_stripes: int = 6,
    overlap: float = 0.05,
    seed: int = 0,
    worker_slots: int = 0,
    replication: int = 1,
    dispatch_parallelism: int = 4,
    wire_format: str = "binary",
    objects: Table | None = None,
    sources: Table | None = None,
    chunker=None,
    retry_policy=None,
    hedge_policy=None,
    health=None,
    frontend_root=None,
) -> QservTestbed:
    """Build, load, and wire a full cluster.

    With default arguments this synthesizes a PT1.1-like patch; pass
    ``objects``/``sources`` (e.g. duplicator output) to load custom
    data.  ``worker_slots=0`` executes chunk queries inline
    (deterministic); >0 starts that many threads per worker, the
    paper's configuration being 4.  ``wire_format`` selects the result
    transport: ``"binary"`` (default) or the paper-faithful
    ``"sqldump"``.  ``chunker`` overrides the default
    box chunker -- pass an :class:`~repro.partition.HtmChunker` to run
    the whole stack on the section 7.5 alternate partitioning.
    """
    metadata = CatalogMetadata.lsst_default()
    if chunker is None:
        chunker = Chunker(num_stripes, num_sub_stripes, overlap)

    if objects is None:
        objects = synthesize_objects(num_objects, seed=seed)
    if sources is None:
        sources = synthesize_sources(
            objects, mean_sources_per_object, seed=seed + 1
        )
    tables = {"Object": objects, "Source": sources}

    # Chunks to place: every chunk holding any data from any table.  The
    # rows' assignment is made once here and handed to the loader.
    assignments = {}
    present: set[int] = set()
    for name, table in tables.items():
        info = metadata.info(name)
        assignments[name] = assign_rows(chunker, table, info.ra_column, info.dec_column)
        present.update(assignments[name].chunks.tolist())
    if not present:
        raise ValueError("no data to load; increase num_objects")

    node_names = [f"worker-{i:03d}" for i in range(num_workers)]
    placement = Placement(sorted(present), node_names, replication=replication)

    redirector = Redirector()
    workers: dict[str, QservWorker] = {}
    servers: dict[str, DataServer] = {}
    for node in node_names:
        worker = QservWorker(node, Database(metadata.database), slots=worker_slots)
        server = DataServer(node, plugin=worker)
        redirector.register(server)
        workers[node] = worker
        servers[node] = server

    # Every replica host exports the chunk's dispatch path, giving the
    # redirector real fail-over choices.
    for cid in placement.chunk_ids:
        for node in placement.replicas(cid):
            servers[node].export(query_path(cid))

    secondary_index = SecondaryIndex()
    checksums = ChunkChecksums()
    load_report = load_tables(
        tables,
        metadata,
        chunker,
        placement,
        {n: w.db for n, w in workers.items()},
        secondary_index=secondary_index,
        checksums=checksums,
        assignments=assignments,
    )
    secondary_index.finalize()

    # The self-healing plane: one health tracker shared by czar and
    # repair, a repair manager subscribed to breaker-open transitions,
    # a scrubber that heals what it quarantines, and the membership
    # lifecycle over all of it.  Background threads stay off here --
    # tests drive repair_all()/scrub_all() deterministically; call
    # testbed.repair.start() / testbed.scrubber.start() to run live.
    if health is None:
        health = HealthTracker()
    repair = RepairManager(redirector, placement, checksums=checksums, health=health)
    health.add_listener(repair.on_breaker)
    scrubber = IntegrityScrubber(redirector, checksums=checksums, repair=repair)
    membership = ClusterMembership(
        redirector,
        placement,
        workers,
        servers,
        repair,
        metadata=metadata,
        worker_slots=worker_slots,
    )

    czar = Czar(
        redirector,
        metadata,
        chunker,
        secondary_index=secondary_index,
        available_chunks=placement.chunk_ids,
        dispatch_parallelism=dispatch_parallelism,
        wire_format=wire_format,
        retry_policy=retry_policy,
        hedge_policy=hedge_policy,
        health=health,
        repair=repair,
    )
    proxy = QservProxy(czar)
    # The multi-tenant tier over the czar: admission control, result
    # cache, MyDB, and the durable batch job queue.  Pass
    # ``frontend_root`` to persist the job journal across testbeds
    # (crash-recovery tests rebuild on the same directory).
    frontend = QservFrontend(czar, root=frontend_root)
    return QservTestbed(
        chunker=chunker,
        metadata=metadata,
        redirector=redirector,
        workers=workers,
        servers=servers,
        placement=placement,
        secondary_index=secondary_index,
        czar=czar,
        proxy=proxy,
        frontend=frontend,
        tables=tables,
        load_report=load_report,
        health=health,
        checksums=checksums,
        repair=repair,
        scrubber=scrubber,
        membership=membership,
    )
