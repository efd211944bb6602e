"""Qserv proper: the distributed shared-nothing query coordination layer.

This subpackage is the paper's primary contribution, rebuilt on the
substrates in :mod:`repro.sql` (per-node engine), :mod:`repro.xrd`
(dispatch fabric), and :mod:`repro.partition` (two-level sky chunking):

- :mod:`~repro.qserv.metadata` -- which tables are partitioned, on what
  columns, and what the secondary-index (objectId) column is;
- :mod:`~repro.qserv.analysis` -- query parsing/analysis: spatial
  restriction detection, index-opportunity detection, table/alias/join
  detection, near-neighbor recognition (paper section 5.3);
- :mod:`~repro.qserv.aggregation` -- the two-phase aggregate plan
  (``AVG(x)`` to per-chunk ``SUM(x), COUNT(x)`` plus a merge-side
  division);
- :mod:`~repro.qserv.rewrite` -- chunk-query text generation, including
  the ``-- SUBCHUNKS:`` header and overlap-table pairing for spatial
  self-joins;
- :mod:`~repro.qserv.secondary_index` -- the objectId -> (chunkId,
  subChunkId) mapping (section 5.5);
- :mod:`~repro.qserv.worker` -- the qserv-ofs plugin: FIFO query queue,
  on-the-fly sub-chunk table construction, execution, mysqldump-style
  result publication (sections 5.1.2, 5.4, 6.4);
- :mod:`~repro.qserv.czar` -- the master: coverage computation, dispatch
  over Xrootd paths, result collection/merging, final aggregation;
- :mod:`~repro.qserv.proxy` -- the MySQL-proxy-shaped frontend;
- :mod:`~repro.qserv.frontend` -- the overload-safe multi-tenant tier
  (admission control, fair-share scheduling, result cache, MyDB, and
  the crash-recoverable batch job queue);
- :mod:`~repro.qserv.membership` -- the node lifecycle (join / drain /
  decommission) coordinated over placement, routing, and repair.
"""

from .metadata import CatalogMetadata, TablePartitionInfo
from .analysis import QueryAnalysis, analyze, QservAnalysisError
from .aggregation import AggregationPlan, build_aggregation_plan
from .rewrite import ChunkQuerySpec, generate_chunk_queries, generate_merge_query
from .secondary_index import SecondaryIndex
from .worker import QservWorker, WorkerShutdownError, WorkerCancelledError
from .czar import (
    Czar,
    QueryResult,
    QueryError,
    ChunkTimeoutError,
    QueryCancelledError,
    HedgePolicy,
)
from .proxy import QservProxy
from .frontend import (
    QservFrontend,
    AdmissionController,
    TenantPolicy,
    QservOverloadError,
    QservQuotaError,
    BatchJobQueue,
    MyDb,
)
from .admin import ClusterAdmin, ClusterHealth
from .czar import ExplainReport
from .membership import ClusterMembership, MembershipError

__all__ = [
    "CatalogMetadata",
    "TablePartitionInfo",
    "QueryAnalysis",
    "analyze",
    "QservAnalysisError",
    "AggregationPlan",
    "build_aggregation_plan",
    "ChunkQuerySpec",
    "generate_chunk_queries",
    "generate_merge_query",
    "SecondaryIndex",
    "QservWorker",
    "WorkerShutdownError",
    "WorkerCancelledError",
    "Czar",
    "QueryResult",
    "QueryError",
    "ChunkTimeoutError",
    "QueryCancelledError",
    "HedgePolicy",
    "QservProxy",
    "QservFrontend",
    "AdmissionController",
    "TenantPolicy",
    "QservOverloadError",
    "QservQuotaError",
    "BatchJobQueue",
    "MyDb",
    "ClusterAdmin",
    "ClusterHealth",
    "ExplainReport",
    "ClusterMembership",
    "MembershipError",
]
