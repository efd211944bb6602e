"""HTM-based two-level partitioning (the section 7.5 alternative).

The paper proposes replacing the rectangular stripes/sub-stripes scheme
with a hierarchical pixelization: "map spherical points to integer
identifiers encoding the points' partitions at many subdivision
levels".  This chunker does exactly that with
:class:`~repro.sphgeom.htm.HtmPixelization`:

- a *chunk* is a trixel at ``chunk_level`` (its global HTM id is the
  chunk id -- hierarchical, integer, exactly as advertised);
- a *sub-chunk* is a trixel at ``chunk_level + sub_level`` inside it,
  numbered 0..4^sub_level-1 relative to the chunk;
- partition geometry is served as trixel bounding circles, which makes
  overlap handling conservative (a superset of the exact overlap rows
  is stored) and therefore exact for joins, just like the box scheme.

The class is interface-compatible with
:class:`~repro.partition.chunker.Chunker`, so the loader, czar, and
rewriter run unmodified on HTM partitioning -- the whole point of the
paper's "alternate partitioning" discussion.
"""

from __future__ import annotations

import numpy as np

from ..sphgeom import HtmPixelization, Region, SphericalCircle
from .dec_index import DecIndex

__all__ = ["HtmChunker"]


class HtmChunker:
    """Two-level HTM partitioning with overlap.

    Parameters
    ----------
    chunk_level:
        HTM subdivision level of chunks (level 3 = 512 chunks; level 5 =
        8192, comparable to the paper's 8983).
    sub_level:
        Extra levels for sub-chunks (2 = 16 sub-chunks per chunk;
        3 = 64).
    overlap:
        Overlap radius in degrees, as for the box chunker.
    """

    def __init__(self, chunk_level: int = 3, sub_level: int = 2, overlap: float = 0.01667):
        if sub_level < 1:
            raise ValueError(f"sub_level must be >= 1, got {sub_level}")
        if overlap < 0:
            raise ValueError(f"overlap must be non-negative, got {overlap}")
        self.chunk_level = int(chunk_level)
        self.sub_level = int(sub_level)
        self.overlap = float(overlap)
        self._coarse = HtmPixelization(self.chunk_level)
        self._fine = HtmPixelization(self.chunk_level + self.sub_level)
        self._subs_per_chunk = 4**self.sub_level

    # -- point assignment ----------------------------------------------------

    def assign(self, ra, dec) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (ra, dec) -> (chunk ids, sub-chunk ids), in one pass.

        HTM ids are hierarchical: the chunk is the fine trixel's ancestor
        ``sub_level`` levels up, so one descent answers both levels.
        """
        fine = np.atleast_1d(self._fine.index_points(ra, dec))
        return fine // self._subs_per_chunk, fine % self._subs_per_chunk

    def chunk_id(self, ra, dec):
        return self._coarse.index_points(ra, dec)

    def sub_chunk_id(self, ra, dec):
        fine = self._fine.index_points(ra, dec)
        if np.isscalar(fine):
            return int(fine) % self._subs_per_chunk
        return fine % self._subs_per_chunk

    # -- enumeration ------------------------------------------------------------

    def all_chunks(self) -> np.ndarray:
        lo, hi = self._coarse.id_range()
        return np.arange(lo, hi, dtype=np.int64)

    @property
    def num_chunks(self) -> int:
        return self._coarse.num_trixels

    def sub_chunks_of(self, chunk_id: int) -> np.ndarray:
        self._check_chunk(chunk_id)
        return np.arange(self._subs_per_chunk, dtype=np.int64)

    def _check_chunk(self, chunk_id: int) -> None:
        lo, hi = self._coarse.id_range()
        if not lo <= int(chunk_id) < hi:
            raise ValueError(f"invalid chunk id {chunk_id}")

    def _fine_id(self, chunk_id: int, sub_chunk_id: int) -> int:
        self._check_chunk(chunk_id)
        if not 0 <= int(sub_chunk_id) < self._subs_per_chunk:
            raise ValueError(
                f"invalid sub-chunk id {sub_chunk_id} for chunk {chunk_id}"
            )
        return int(chunk_id) * self._subs_per_chunk + int(sub_chunk_id)

    # -- geometry -------------------------------------------------------------------

    def chunk_box(self, chunk_id: int) -> SphericalCircle:
        """The chunk's bounding circle (plays the box scheme's chunk box)."""
        self._check_chunk(chunk_id)
        verts = self._coarse.trixel_vertices(int(chunk_id))
        return self._coarse._trixel_bounding_circle(verts)

    def sub_chunk_box(self, chunk_id: int, sub_chunk_id: int) -> SphericalCircle:
        fine = self._fine_id(chunk_id, sub_chunk_id)
        verts = self._fine.trixel_vertices(fine)
        return self._fine._trixel_bounding_circle(verts)

    def chunk_overlap_box(self, chunk_id: int) -> SphericalCircle:
        return self.chunk_box(chunk_id).dilated(self.overlap)

    def sub_chunk_overlap_box(self, chunk_id: int, sub_chunk_id: int) -> SphericalCircle:
        return self.sub_chunk_box(chunk_id, sub_chunk_id).dilated(self.overlap)

    # -- region coverage -----------------------------------------------------------------

    def chunks_intersecting(self, region: Region) -> np.ndarray:
        """Conservative chunk coverage via the HTM envelope."""
        return self._coarse.envelope(region)

    def sub_chunks_intersecting(self, chunk_id: int, region: Region) -> np.ndarray:
        self._check_chunk(chunk_id)
        fine_ids = self._fine.envelope(region)
        base = int(chunk_id) * self._subs_per_chunk
        mine = fine_ids[(fine_ids >= base) & (fine_ids < base + self._subs_per_chunk)]
        return (mine - base).astype(np.int64)

    # -- overlap membership -----------------------------------------------------------------

    def overlap_members(self, chunk_id: int, index: DecIndex):
        """Every sub-chunk overlap of ``chunk_id``: ``(sub_chunk_ids, rows)``.

        A row pads sub-chunk ``s`` when it lies in the sub-chunk's
        dilated bounding circle but not in its trixel.  Conservative --
        a few extra rows may be stored, none within the overlap radius
        is missed -- so near-neighbor joins stay exact, the contract the
        box chunker gives.  Candidates are the rows of the chunk's
        dilated circle, from the index's zones; the trixel
        test reads the index's own assignment.  Pairs come sorted by
        sub-chunk id, then row.
        """
        self._check_chunk(chunk_id)
        circle = self.chunk_overlap_box(chunk_id)
        # The candidates' box is the circle's, widened past any rounding
        # of the separation the circle's own test computes.
        rows = np.sort(index.candidates(circle.dilated(1e-6).bounding_box()))
        rows = rows[circle.contains(index.ra[rows], index.dec[rows])]
        ra, dec = index.ra[rows], index.dec[rows]
        own = np.where(index.chunk_ids[rows] == int(chunk_id), index.sub_chunk_ids[rows], -1)
        subs, members = [], []
        for scid in range(self._subs_per_chunk):
            near = self.sub_chunk_overlap_box(chunk_id, scid).contains(ra, dec)
            hit = rows[near & (own != scid)]
            subs.append(np.full(len(hit), scid, dtype=np.int64))
            members.append(hit)
        return np.concatenate(subs), np.concatenate(members)

    def __repr__(self):
        return (
            f"HtmChunker(chunk_level={self.chunk_level}, sub_level={self.sub_level}, "
            f"overlap={self.overlap}, num_chunks={self.num_chunks})"
        )
