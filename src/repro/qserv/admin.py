"""Cluster administration: health, distribution, and capacity reporting.

The paper's requirements (section 2.1) include incremental scalability
and reliability -- which in operation means someone has to *see* the
cluster: which nodes are up, whether chunk replicas still meet the
replication factor after failures, how evenly data is spread, and how
much of the catalog would go dark if a node died.  This module computes
those reports from the live placement, redirector, and worker set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..partition import Placement
from ..xrd import Redirector, RedirectError
from .rewrite import parse_table_name
from .worker import QservWorker

__all__ = ["ClusterAdmin", "ClusterHealth", "NodeReport"]


@dataclass(frozen=True)
class NodeReport:
    """One worker's status line."""

    name: str
    up: bool
    primary_chunks: int
    hosted_chunks: int
    tables: int
    data_bytes: int
    queries_executed: int


@dataclass
class ClusterHealth:
    """The cluster-wide summary."""

    nodes: list[NodeReport] = field(default_factory=list)
    total_chunks: int = 0
    #: Chunks with no live replica at all: queries over them fail.
    dark_chunks: list[int] = field(default_factory=list)
    #: Chunks below the configured replication factor (but still served).
    under_replicated: list[int] = field(default_factory=list)
    #: max/mean primary-chunk load over live nodes.
    imbalance: float = 1.0

    @property
    def healthy(self) -> bool:
        return not self.dark_chunks and all(n.up for n in self.nodes)

    @property
    def available(self) -> bool:
        """Every chunk still answerable (failures tolerated by replicas)."""
        return not self.dark_chunks


class ClusterAdmin:
    """Reports over a live cluster."""

    def __init__(
        self,
        placement: Placement,
        redirector: Redirector,
        workers: dict[str, QservWorker],
    ):
        self.placement = placement
        self.redirector = redirector
        self.workers = workers

    def _server_up(self, name: str) -> bool:
        try:
            return self.redirector.server(name).up
        except RedirectError:
            return False  # not registered with the redirector => down

    def health(self) -> ClusterHealth:
        """The full health report."""
        report = ClusterHealth(total_chunks=len(self.placement.chunk_ids))
        live = set()
        for name in self.placement.nodes:
            up = self._server_up(name)
            if up:
                live.add(name)
            worker = self.workers.get(name)
            report.nodes.append(
                NodeReport(
                    name=name,
                    up=up,
                    primary_chunks=len(self.placement.chunks_of(name)),
                    hosted_chunks=len(self.placement.chunks_hosted_by(name)),
                    tables=len(worker.db.tables) if worker else 0,
                    data_bytes=sum(
                        t.nbytes() for t in worker.db.tables.values()
                    )
                    if worker
                    else 0,
                    queries_executed=worker.stats.queries_executed if worker else 0,
                )
            )
        want = self.placement.effective_replication
        for cid in self.placement.chunk_ids:
            live_replicas = [
                n for n in self.placement.replicas(cid) if n in live
            ]
            if not live_replicas:
                report.dark_chunks.append(cid)
            elif len(live_replicas) < want:
                report.under_replicated.append(cid)
        live_loads = [
            len(self.placement.chunks_of(n)) for n in self.placement.nodes if n in live
        ]
        if live_loads and np.mean(live_loads) > 0:
            report.imbalance = float(np.max(live_loads) / np.mean(live_loads))
        return report

    def data_distribution(self) -> dict[str, dict[str, int]]:
        """Per-node, per-logical-table row counts (chunk tables summed).

        Overlap tables and resident sub-chunk tables hold copies of rows
        counted elsewhere, so they are not counted.
        """
        out: dict[str, dict[str, int]] = {}
        for name, worker in self.workers.items():
            counts: dict[str, int] = {}
            for table_name, table in worker.db.tables.items():
                parsed = parse_table_name(table_name)
                if parsed is not None and (parsed.overlap or parsed.sub_chunk_id is not None):
                    continue
                base = table_name if parsed is None else parsed.base
                counts[base] = counts.get(base, 0) + table.num_rows
            out[name] = counts
        return out

    def failure_impact(self, node: str) -> dict[str, object]:
        """What dies if ``node`` dies right now?"""
        if node not in self.placement.nodes:
            raise KeyError(f"unknown node {node!r}")
        live = {
            n
            for n in self.placement.nodes
            if n != node and self._server_up(n)
        }
        lost = []
        degraded = []
        for cid in self.placement.chunks_hosted_by(node):
            survivors = [n for n in self.placement.replicas(cid) if n in live]
            if not survivors:
                lost.append(cid)
            else:
                degraded.append(cid)
        return {
            "node": node,
            "chunks_lost": lost,
            "chunks_degraded": degraded,
            "still_available": not lost,
        }
