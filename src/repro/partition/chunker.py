"""The two-level stripes/sub-stripes chunker.

Geometry
--------
Declination is divided into ``num_stripes`` equal-height stripes.  A
stripe at higher |dec| needs fewer chunks for the same chunk area, so
stripe ``s`` is divided into ``max(1, floor(360 * cos(dec_far) /
stripe_height))`` equal-width chunks, where ``dec_far`` is the stripe's
declination farthest from the equator (so a chunk is at least as wide as
the stripe is tall everywhere inside it; this matches the production
Qserv partitioner and reproduces the paper's 8983-chunk count for 85
stripes to within 0.05% -- we get 8987).

Identifiers
-----------
``chunk_id = stripe * 2 * num_stripes + chunk_in_stripe`` -- since a
stripe can hold at most ``floor(360/stripe_height) = 2 * num_stripes``
chunks, ids are unique and the stripe is recoverable by division.
``sub_chunk_id = sub_stripe_in_stripe * max_subchunks_per_row +
subchunk_in_row`` with the same reasoning one level down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sphgeom import Region, Relationship, SphericalBox
from ..sphgeom.coords import normalize_ra

__all__ = ["Chunker", "ChunkLocation"]


@dataclass(frozen=True)
class ChunkLocation:
    """Full partition coordinates of a point."""

    chunk_id: int
    sub_chunk_id: int


class Chunker:
    """Assigns sky positions to chunks and sub-chunks.

    Parameters
    ----------
    num_stripes:
        Number of equal-height declination stripes (paper: 85).
    num_sub_stripes:
        Sub-stripes per stripe (paper: 12).
    overlap:
        Overlap radius in degrees stored with every sub-chunk so spatial
        joins up to this distance never need data from another node
        (paper: 0.01667 deg = 1 arc-minute).
    """

    def __init__(
        self,
        num_stripes: int = 85,
        num_sub_stripes: int = 12,
        overlap: float = 0.01667,
    ):
        if num_stripes < 1:
            raise ValueError(f"num_stripes must be >= 1, got {num_stripes}")
        if num_sub_stripes < 1:
            raise ValueError(f"num_sub_stripes must be >= 1, got {num_sub_stripes}")
        if overlap < 0:
            raise ValueError(f"overlap must be non-negative, got {overlap}")
        self.num_stripes = int(num_stripes)
        self.num_sub_stripes = int(num_sub_stripes)
        self.overlap = float(overlap)
        self.stripe_height = 180.0 / self.num_stripes
        self.sub_stripe_height = self.stripe_height / self.num_sub_stripes

        # Chunks per stripe, scaled by cos(dec) at the stripe edge
        # *farthest* from the equator: the chunk's angular width then
        # subtends at least the stripe height everywhere inside it.  For
        # 85 stripes this yields 8987 chunks, matching the paper's 8983
        # to within 0.05%.
        s = np.arange(self.num_stripes)
        dec_lo = -90.0 + s * self.stripe_height
        dec_hi = dec_lo + self.stripe_height
        farthest = np.maximum(np.abs(dec_lo), np.abs(dec_hi))
        cosines = np.cos(np.deg2rad(farthest))
        self._chunks_per_stripe = np.maximum(
            1, np.floor(360.0 * cosines / self.stripe_height).astype(np.int64)
        )
        self._chunk_width = 360.0 / self._chunks_per_stripe  # per stripe

        # Sub-chunks per sub-stripe row, per stripe.  Row (s, ss) spans
        # declinations like a miniature stripe; its sub-chunk count within
        # one chunk uses the same equal-area rule.
        ss = np.arange(self.num_sub_stripes)
        row_lo = dec_lo[:, None] + ss[None, :] * self.sub_stripe_height
        row_hi = row_lo + self.sub_stripe_height
        row_far = np.maximum(np.abs(row_lo), np.abs(row_hi))
        row_cos = np.cos(np.deg2rad(row_far))
        # Sub-chunks inside one chunk of this stripe, per sub-stripe row.
        self._subchunks_per_row = np.maximum(
            1,
            np.floor(
                self._chunk_width[:, None] * row_cos / self.sub_stripe_height
            ).astype(np.int64),
        )
        self._max_subchunks_per_row = self._subchunks_per_row.max(axis=1)

    # -- scalar/vector helpers ---------------------------------------------------

    def _stripe_of(self, dec):
        s = np.floor((np.asarray(dec, dtype=np.float64) + 90.0) / self.stripe_height)
        return np.clip(s, 0, self.num_stripes - 1).astype(np.int64)

    def _sub_stripe_of(self, dec, stripe):
        local = np.asarray(dec, dtype=np.float64) + 90.0 - stripe * self.stripe_height
        ss = np.floor(local / self.sub_stripe_height)
        return np.clip(ss, 0, self.num_sub_stripes - 1).astype(np.int64)

    # -- point assignment ----------------------------------------------------------

    def chunk_id(self, ra, dec):
        """Vectorized (ra, dec) -> chunk id."""
        scalar = np.isscalar(ra) and np.isscalar(dec)
        ra = normalize_ra(np.atleast_1d(ra))
        dec = np.atleast_1d(np.asarray(dec, dtype=np.float64))
        stripe = self._stripe_of(dec)
        nchunks = self._chunks_per_stripe[stripe]
        chunk = np.minimum((ra * nchunks / 360.0).astype(np.int64), nchunks - 1)
        cid = stripe * (2 * self.num_stripes) + chunk
        return int(cid[0]) if scalar else cid

    def sub_chunk_id(self, ra, dec):
        """Vectorized (ra, dec) -> sub-chunk id (within the containing chunk)."""
        scalar = np.isscalar(ra) and np.isscalar(dec)
        ra = normalize_ra(np.atleast_1d(ra))
        dec = np.atleast_1d(np.asarray(dec, dtype=np.float64))
        stripe = self._stripe_of(dec)
        nchunks = self._chunks_per_stripe[stripe]
        chunk = np.minimum((ra * nchunks / 360.0).astype(np.int64), nchunks - 1)
        width = self._chunk_width[stripe]
        ra_in_chunk = ra - chunk * width
        ss = self._sub_stripe_of(dec, stripe)
        nsc = self._subchunks_per_row[stripe, ss]
        sc = np.minimum((ra_in_chunk * nsc / width).astype(np.int64), nsc - 1)
        sc = np.maximum(sc, 0)
        scid = ss * self._max_subchunks_per_row[stripe] + sc
        return int(scid[0]) if scalar else scid

    def locate(self, ra: float, dec: float) -> ChunkLocation:
        """Scalar convenience: both levels at once."""
        return ChunkLocation(self.chunk_id(ra, dec), self.sub_chunk_id(ra, dec))

    # -- id arithmetic -------------------------------------------------------------

    def stripe_of_chunk(self, chunk_id: int) -> int:
        return int(chunk_id) // (2 * self.num_stripes)

    def _check_chunk(self, chunk_id: int) -> tuple[int, int]:
        stripe = self.stripe_of_chunk(chunk_id)
        chunk = int(chunk_id) % (2 * self.num_stripes)
        if not (0 <= stripe < self.num_stripes) or chunk >= self._chunks_per_stripe[stripe]:
            raise ValueError(f"invalid chunk id {chunk_id}")
        return stripe, chunk

    def all_chunks(self) -> np.ndarray:
        """Every valid chunk id, ascending."""
        out = []
        for s in range(self.num_stripes):
            base = s * 2 * self.num_stripes
            out.append(np.arange(base, base + self._chunks_per_stripe[s]))
        return np.concatenate(out)

    @property
    def num_chunks(self) -> int:
        return int(self._chunks_per_stripe.sum())

    def sub_chunks_of(self, chunk_id: int) -> np.ndarray:
        """Every valid sub-chunk id within ``chunk_id``, ascending."""
        stripe, _ = self._check_chunk(chunk_id)
        maxrow = self._max_subchunks_per_row[stripe]
        out = []
        for ss in range(self.num_sub_stripes):
            base = ss * maxrow
            out.append(np.arange(base, base + self._subchunks_per_row[stripe, ss]))
        return np.concatenate(out)

    # -- geometry --------------------------------------------------------------------

    def chunk_box(self, chunk_id: int) -> SphericalBox:
        """The (ra, dec) bounding box of a chunk."""
        stripe, chunk = self._check_chunk(chunk_id)
        dec_lo = -90.0 + stripe * self.stripe_height
        width = self._chunk_width[stripe]
        return SphericalBox(chunk * width, dec_lo, (chunk + 1) * width, dec_lo + self.stripe_height)

    def sub_chunk_box(self, chunk_id: int, sub_chunk_id: int) -> SphericalBox:
        """The (ra, dec) bounding box of a sub-chunk within a chunk."""
        stripe, chunk = self._check_chunk(chunk_id)
        maxrow = int(self._max_subchunks_per_row[stripe])
        ss, sc = divmod(int(sub_chunk_id), maxrow)
        if not (0 <= ss < self.num_sub_stripes) or sc >= self._subchunks_per_row[stripe, ss]:
            raise ValueError(f"invalid sub-chunk id {sub_chunk_id} for chunk {chunk_id}")
        dec_lo = -90.0 + stripe * self.stripe_height + ss * self.sub_stripe_height
        chunk_width = self._chunk_width[stripe]
        sub_width = chunk_width / self._subchunks_per_row[stripe, ss]
        ra_lo = chunk * chunk_width + sc * sub_width
        return SphericalBox(ra_lo, dec_lo, ra_lo + sub_width, dec_lo + self.sub_stripe_height)

    def chunk_overlap_box(self, chunk_id: int) -> SphericalBox:
        """Chunk box dilated by the overlap radius (the "full overlap" extent)."""
        return self.chunk_box(chunk_id).dilated(self.overlap)

    def sub_chunk_overlap_box(self, chunk_id: int, sub_chunk_id: int) -> SphericalBox:
        return self.sub_chunk_box(chunk_id, sub_chunk_id).dilated(self.overlap)

    # -- region coverage ----------------------------------------------------------------

    def chunks_intersecting(self, region: Region) -> np.ndarray:
        """Conservative, sorted set of chunk ids intersecting ``region``.

        This is the operation behind ``qserv_areaspec_box``: the czar
        only dispatches chunk queries for these ids.  Never omits a
        chunk that truly intersects the region.
        """
        bbox = region.bounding_box()
        if bbox.is_empty:
            return np.array([], dtype=np.int64)
        s_lo = int(self._stripe_of(max(bbox.dec_min, -90.0)))
        s_hi = int(self._stripe_of(min(bbox.dec_max, 90.0)))
        exact = isinstance(region, SphericalBox)
        out: list[int] = []
        for s in range(s_lo, s_hi + 1):
            width = self._chunk_width[s]
            nchunks = int(self._chunks_per_stripe[s])
            base = s * 2 * self.num_stripes
            candidates: set[int] = set()
            if bbox.full_ra:
                candidates.update(range(nchunks))
            else:
                for lo, hi in bbox._ra_intervals():
                    c_lo = int(lo / width)
                    c_hi = min(int(hi / width), nchunks - 1)
                    candidates.update(range(c_lo, c_hi + 1))
            for c in sorted(candidates):
                cid = base + c
                if exact or region.relate(self.chunk_box(cid)) is not Relationship.DISJOINT:
                    out.append(cid)
        return np.array(sorted(out), dtype=np.int64)

    def sub_chunks_intersecting(self, chunk_id: int, region: Region) -> np.ndarray:
        """Sorted sub-chunk ids of ``chunk_id`` intersecting ``region``.

        A box disjoint from the region's bounding box is disjoint from
        the region, and every region type says so; only the sub-stripes
        and, within each, the columns that bounding box reaches are put
        to the exact test.  The reach is taken one row and one column
        wide of the mark either way, so a cell edge that rounds the
        other way (or merely touches the box) is never skipped.
        """
        stripe, chunk = self._check_chunk(chunk_id)
        bbox = region.bounding_box()
        if bbox.is_empty:
            return np.array([], dtype=np.int64)
        dec_lo = -90.0 + stripe * self.stripe_height
        first = int((bbox.dec_min - dec_lo) // self.sub_stripe_height) - 1
        last = int((bbox.dec_max - dec_lo) // self.sub_stripe_height) + 1
        chunk_width = self._chunk_width[stripe]
        maxrow = int(self._max_subchunks_per_row[stripe])
        out = []
        for ss in range(max(first, 0), min(last, self.num_sub_stripes - 1) + 1):
            columns = int(self._subchunks_per_row[stripe, ss])
            reached = range(columns)
            if not bbox.full_ra:
                reached = self._columns_reached(
                    bbox, chunk * chunk_width, chunk_width / columns, columns
                )
            for sc in reached:
                scid = ss * maxrow + sc
                box = self.sub_chunk_box(chunk_id, scid)
                if region.relate(box) is not Relationship.DISJOINT:
                    out.append(scid)
        return np.array(out, dtype=np.int64)

    @staticmethod
    def _columns_reached(bbox: SphericalBox, ra_lo: float, width: float, columns: int):
        """Ascending columns of a row starting at ``ra_lo`` that ``bbox`` may touch."""
        reached: set[int] = set()
        for lo, hi in bbox._ra_intervals():
            # Relative to the row's first column, one column of slack.
            start = (lo - ra_lo) % 360.0 - width
            stop = start + (hi - lo) + 2.0 * width
            # The interval may also reach the row from across RA 0.
            for turn in (-360.0, 0.0, 360.0):
                c_lo = max(int((start + turn) // width), 0)
                c_hi = min(int((stop + turn) // width), columns - 1)
                reached.update(range(c_lo, c_hi + 1))
        return sorted(reached)

    # -- overlap membership ----------------------------------------------------------------

    def in_sub_chunk_overlap(self, chunk_id: int, sub_chunk_id: int, ra, dec):
        """Rows belonging to the *overlap* of a sub-chunk.

        True for points outside the sub-chunk but within ``overlap``
        degrees of it (approximated conservatively by the dilated box).
        These are the rows stored in the ``FullOverlap`` companion tables
        that make near-neighbor joins correct across partition borders.
        """
        box = self.sub_chunk_box(chunk_id, sub_chunk_id)
        dilated = box.dilated(self.overlap)
        inside = box.contains(ra, dec)
        near = dilated.contains(ra, dec)
        return near & ~np.asarray(inside)

    def __repr__(self):
        return (
            f"Chunker(num_stripes={self.num_stripes}, "
            f"num_sub_stripes={self.num_sub_stripes}, overlap={self.overlap}, "
            f"num_chunks={self.num_chunks})"
        )
