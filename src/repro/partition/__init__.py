"""Two-level spatial partitioning (paper sections 4.4 and 5.2).

Large spatial tables are fragmented into coarse *chunks* for query
dispatch and fine *sub-chunks* for near-neighbor joins.  The sphere is
cut into equal-height declination *stripes*; each stripe is cut into
chunks of roughly equal area by scaling the chunk width with
``1/cos(dec)``; each stripe is further divided into *sub-stripes* and
each chunk into sub-chunks the same way.  The paper's test configuration
(85 stripes x 12 sub-stripes, ~2.11 deg stripes, ~4.5 deg^2 chunks,
8983 chunks, 1 arc-minute overlap) is the default here.

- :class:`Chunker` -- (ra, dec) -> (chunkId, subChunkId) assignment,
  chunk/sub-chunk geometry, region -> chunk-set coverage, and overlap
  membership, a whole chunk per call.
- :class:`~repro.partition.dec_index.DecIndex` -- a table's positions in
  declination zones: the candidates of each chunk's overlap call.
- :class:`Placement` -- chunk -> worker-node placement with incremental
  rebalancing (many more chunks than nodes, per section 4.4).
"""

from .chunker import Chunker
from .htm_chunker import HtmChunker
from .placement import Placement

__all__ = ["Chunker", "HtmChunker", "Placement"]
