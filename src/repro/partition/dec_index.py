"""A table's positions in declination zones, for chunk-wide overlap calls.

The loader asks each chunker for the overlap rows of every chunk.  A
scan of the whole table per chunk makes that cost chunks x rows.  Here
one sort per table orders the rows by declination zone, then by right
ascension within a zone (the zone idea of "Large-Scale Query and
XMatch, Entering the Parallel Zone"), so the rows that may lie in a box
are a few slices found by binary search, whatever the table's size.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DecIndex"]

# Zone height in degrees: small enough that a sub-stripe spans a few
# zones, large enough that a chunk's zones are a few dozen slices.
_ZONE_HEIGHT = 0.05
# A row's sort key is ``zone * _STRIDE + ra`` with ``ra`` in [0, 360]:
# keys of one zone stay below the next zone's, and rounding is monotone,
# so a key range never drops a row whose RA is in the queried range.
_STRIDE = 1000.0


def _zone(dec):
    return np.floor((np.asarray(dec) + 90.0) / _ZONE_HEIGHT)


class DecIndex:
    """Positions and partition ids of one table, searchable by zone.

    ``chunk_ids`` / ``sub_chunk_ids`` are the rows' own assignment (what
    the chunker's ``assign`` returns for ``ra``/``dec``); a chunker whose
    "inside the sub-chunk" test is the assignment itself reads them
    instead of computing it again.
    """

    def __init__(self, ra, dec, chunk_ids, sub_chunk_ids):
        self.ra = np.asarray(ra, dtype=np.float64)
        self.dec = np.asarray(dec, dtype=np.float64)
        self.chunk_ids = np.asarray(chunk_ids)
        self.sub_chunk_ids = np.asarray(sub_chunk_ids)
        keys = _zone(self.dec) * _STRIDE + np.mod(self.ra, 360.0)
        self._order = np.argsort(keys)
        self._keys = keys[self._order]

    def candidates(self, box) -> np.ndarray:
        """Rows that may lie in ``box`` (a ``SphericalBox``), zone by zone.

        A superset of the rows ``box.contains``: every row of the zones
        the box's declination range touches whose RA is in its range,
        in ascending RA within each zone and RA interval.
        """
        if box.is_empty:
            return np.empty(0, dtype=np.int64)
        zones = np.arange(_zone(box.dec_min), _zone(box.dec_max) + 1) * _STRIDE
        pieces = [np.empty(0, dtype=np.int64)]
        for lo, hi in box._ra_intervals():
            starts = np.searchsorted(self._keys, zones + lo, side="left")
            stops = np.searchsorted(self._keys, zones + hi, side="right")
            pieces += [self._order[a:b] for a, b in zip(starts, stops)]
        return np.concatenate(pieces)

