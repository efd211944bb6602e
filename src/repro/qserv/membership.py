"""Cluster membership lifecycle: join, drain, decommission.

The paper's requirement of incremental scalability (section 2.1) means
nodes come and go while the catalog stays online.  This module makes
the three transitions first-class operations over the live cluster:

- **join**: a brand-new, empty worker is registered, handed chunks by
  the placement's minimal-movement rebalancing, and populated through
  the repair manager's copy path -- the same verified ``/chunk/``
  transfers that heal failures;
- **drain**: the server finishes queries it already accepted (result
  reads keep working) but refuses new chunk-query opens, and the
  redirector stops routing new work to it;
- **decommission**: drain, then re-replicate every chunk the node
  hosts onto the survivors *before* the node is removed -- the node
  leaves only once nothing depends on it, so a concurrent workload
  sees zero failed queries.

States move strictly forward: ``up -> draining -> decommissioned``
(with ``resume`` undoing a drain that has not completed).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.sanitizer import make_lock
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..sql import Database
from ..xrd import DataServer
from ..xrd.protocol import query_path
from ..xrd.repair import RepairError
from .rewrite import parse_table_name
from .worker import QservWorker

__all__ = ["ClusterMembership", "MembershipError"]

_UP, _DRAINING, _DECOMMISSIONED = "up", "draining", "decommissioned"


class MembershipError(RuntimeError):
    """An invalid membership transition was requested."""


class ClusterMembership:
    """Coordinates node lifecycle over redirector, placement, and repair.

    Parameters
    ----------
    redirector, placement:
        The routing and assignment layers the transitions mutate.
    workers, servers:
        The live ``{name: QservWorker}`` / ``{name: DataServer}`` maps
        (the testbed's); join adds to them, decommission removes.
    repair:
        The :class:`~repro.xrd.repair.RepairManager` that materializes
        data movement.  Join and decommission are thin policies over
        its verified copy path.
    metadata:
        Catalog metadata; join uses its database name for the new
        worker's engine.
    worker_slots:
        Execution slots for joined workers (0 = inline, the default).
    """

    def __init__(
        self,
        redirector,
        placement,
        workers: dict,
        servers: dict,
        repair,
        metadata=None,
        worker_slots: int = 0,
    ):
        self.redirector = redirector
        self.placement = placement
        self.workers = workers
        self.servers = servers
        self.repair = repair
        self.metadata = metadata
        self.worker_slots = worker_slots
        self._lock = make_lock("ClusterMembership._lock")
        self._states: dict[str, str] = {name: _UP for name in servers}
        self.metrics = obs_metrics.Registry(parent=obs_metrics.REGISTRY)

    # -- introspection ------------------------------------------------------------

    def state(self, name: str) -> str:
        with self._lock:
            if name not in self._states:
                raise KeyError(f"unknown node {name!r}")
            return self._states[name]

    def states(self) -> dict[str, str]:
        with self._lock:
            return dict(self._states)

    def _transition(self, name: str, state: str) -> None:
        with self._lock:
            self._states[name] = state

    # -- join ---------------------------------------------------------------------

    def join(self, name: str, worker: Optional[QservWorker] = None) -> QservWorker:
        """Add a new (empty) worker and populate it with chunk data.

        Creates the worker and data server (unless a pre-built
        ``worker`` is supplied), registers them, lets the placement's
        minimal-movement rebalancing assign chunks, copies those chunks
        in through the repair manager's verified path, and replicates
        the unpartitioned tables from a live peer.  The node serves
        traffic as soon as its first chunk export lands.
        """
        with self._lock:
            if name in self._states:
                raise MembershipError(f"node {name!r} already a member")
        if worker is None:
            db_name = self.metadata.database if self.metadata else "LSST"
            worker = QservWorker(name, Database(db_name), slots=self.worker_slots)
        server = DataServer(name, plugin=worker)
        self.redirector.register(server)
        self.workers[name] = worker
        self.servers[name] = server
        self._transition(name, _UP)
        self.placement.add_node(name)
        self._copy_replicated_tables(worker)
        copied = self.repair.populate(name)
        # Rebalancing moved ownership off the donors without deleting
        # their bytes; with the new copies live, drop the stale ones.
        trimmed = self.repair.trim_excess()
        self.metrics.counter("membership.joins").add(1)
        obs_events.emit(
            "membership_join", node=name, chunks=copied, trimmed=trimmed
        )
        return worker

    def _copy_replicated_tables(self, worker: QservWorker) -> None:
        """Give a joined worker the whole-table (unpartitioned) copies.

        Chunk transfer only moves chunk tables; tables the loader
        replicated whole to every node (no ``_<chunkId>`` suffix) are
        copied engine-to-engine from any live peer.
        """
        for peer_name, peer in self.workers.items():
            if peer is worker or not self.servers[peer_name].up:
                continue
            for table_name, table in peer.db.tables.items():
                if parse_table_name(table_name) is not None:
                    continue  # chunk or sub-chunk table: repair's job
                worker.db.create_table(table.rename(table_name), overwrite=True)
            return

    # -- drain --------------------------------------------------------------------

    def drain(self, name: str) -> None:
        """Stop routing new work to ``name``; in-flight work finishes.

        Result reads of already-accepted queries still work (the
        server stays ``up``), and repair may still *read* chunk tables
        off it -- a draining node is a fine copy source.
        """
        server = self._member_server(name)
        with self._lock:
            if self._states[name] == _DECOMMISSIONED:
                raise MembershipError(f"node {name!r} is decommissioned")
            self._states[name] = _DRAINING
        server.draining = True
        # Cached locations pointing here would bypass the routable
        # check until they expire; drop them now.
        self.redirector.invalidate_server(name)
        self.metrics.counter("membership.drains").add(1)
        obs_events.emit("membership_drain", node=name)

    def resume(self, name: str) -> None:
        """Undo a drain: the node takes new work again."""
        server = self._member_server(name)
        with self._lock:
            if self._states[name] != _DRAINING:
                raise MembershipError(f"node {name!r} is not draining")
            self._states[name] = _UP
        server.draining = False
        obs_events.emit("membership_resume", node=name)

    # -- decommission -------------------------------------------------------------

    def decommission(self, name: str) -> int:
        """Remove ``name`` from the cluster without losing coverage.

        Drains the node, copies every chunk it hosts onto survivors
        until each meets the post-removal replication target, and only
        then drops it from placement and routing.  Raises
        :class:`MembershipError` (leaving the node draining, data
        intact) if any chunk cannot be re-replicated -- a node is never
        removed while it holds the last good copy of anything.
        Returns the number of repair copies made.
        """
        server = self._member_server(name)
        with self._lock:
            state = self._states[name]
        if state == _DECOMMISSIONED:
            raise MembershipError(f"node {name!r} is already decommissioned")
        if state != _DRAINING:
            self.drain(name)
        if len(self.placement.nodes) <= 1:
            raise MembershipError("cannot decommission the last node")
        copies = 0
        hosted = self.placement.chunks_hosted_by(name)
        for cid in hosted:
            copies += len(self.repair.repair_chunk(cid, exclude=(name,)))
            survivors = [
                s for s in self.repair.exporters(cid) if s.name != name
            ]
            if not survivors:
                raise MembershipError(
                    f"chunk {cid} has no replica outside {name!r}; "
                    "refusing to decommission (node left draining)"
                )
        # Nothing depends on the node anymore: drop it everywhere.
        self.placement.remove_node(name)
        self.redirector.unregister(name)
        self.redirector.invalidate_server(name)
        for path in list(server.exports()):
            server.unexport(path)
        worker = self.workers.get(name)
        if worker is not None:
            worker.shutdown()
        self._transition(name, _DECOMMISSIONED)
        self.metrics.counter("membership.decommissions").add(1)
        obs_events.emit("membership_decommission", node=name, copies=copies)
        return copies

    def _member_server(self, name: str) -> DataServer:
        with self._lock:
            if name not in self._states:
                raise KeyError(f"unknown node {name!r}")
        return self.servers[name]

    def __repr__(self):
        states = self.states()
        up = sum(1 for s in states.values() if s == _UP)
        return f"ClusterMembership(members={len(states)}, up={up})"
