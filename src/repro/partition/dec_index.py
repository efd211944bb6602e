"""Positions in declination zones: the one zone index of overlap and joins.

The loader asks each chunker for the overlap rows of every chunk, and
a near-neighbour join asks, for every row of one side, the rows of the
other side within a radius.  A scan per chunk or per row makes either
cost quadratic.  Here one sort orders the rows by declination zone,
then by right ascension within a zone (the zone idea of "Large-Scale
Query and XMatch, Entering the Parallel Zone"), so the rows that may
lie in a box, or within a radius of a point, are a few slices found by
binary search, whatever the table's size.
"""

from __future__ import annotations

import numpy as np

from ..sphgeom.coords import unit_vector, vector_to_radec

__all__ = ["DecIndex"]

# Zone height in degrees of the loader's index: small enough that a
# sub-stripe spans a few zones, large enough that a chunk's zones are a
# few dozen slices.
_ZONE_HEIGHT = 0.05
# A join's zones are as tall as its radius, so a row's neighbours lie in
# two or three of them, but no shorter than this: a smaller radius finds
# few pairs anyway, and the keys below stay well inside float64.
_MIN_JOIN_ZONE_HEIGHT = 1e-3
# A row's sort key is ``cell * _STRIDE + ra`` with ``ra`` in [0, 360]
# and ``cell`` its zone (numbered on from the zones of the runs before
# its own): keys of one cell stay below the next cell's, and rounding is
# monotone, so a key range never drops a row whose RA is in the range.
_STRIDE = 1000.0


def _zone(dec, height):
    return np.floor((np.asarray(dec) + 90.0) / height)


def _reach(radius: float) -> float:
    """``radius`` widened by far more than haversine round-off (~1e-14 deg).

    So no pair the exact separation test keeps is missed.
    """
    return radius + max(1e-9, abs(radius) * 1e-9)


def _on_sphere(ra, dec):
    """``(ra in [0, 360], dec in [-90, 90])`` of the same points; NaN where not finite.

    A declination past a pole names the point that the separation
    formula, which reads sines and cosines only, takes it for.
    """
    ra = np.asarray(ra, dtype=np.float64)
    dec = np.asarray(dec, dtype=np.float64)
    off = ~(np.abs(dec) <= 90.0)
    if off.any():
        ra, dec = ra.copy(), dec.copy()
        ra[off], dec[off] = vector_to_radec(unit_vector(ra[off], dec[off]))
    return np.mod(ra, 360.0), dec


class DecIndex:
    """Positions and partition ids of one table, searchable by zone.

    ``chunk_ids`` / ``sub_chunk_ids`` are the rows' own assignment (what
    the chunker's ``assign`` returns for ``ra``/``dec``); a chunker whose
    "inside the sub-chunk" test is the assignment itself reads them
    instead of computing it again.

    With ``runs``, the rows are cut into consecutive runs (run ``m`` is
    rows ``runs[m]:runs[m + 1]``) that never share a zone: the members
    of a join's statement family (:meth:`for_join`).
    """

    def __init__(self, ra, dec, chunk_ids=None, sub_chunk_ids=None, runs=None,
                 zone_height: float = _ZONE_HEIGHT):
        self.ra = np.asarray(ra, dtype=np.float64)
        self.dec = np.asarray(dec, dtype=np.float64)
        self.chunk_ids = np.asarray(chunk_ids)
        self.sub_chunk_ids = np.asarray(sub_chunk_ids)
        self.zone_height = zone_height
        #: Zones a run spans: every declination's, pole to pole.
        self.zones = _zone(90.0, zone_height) + 1
        cells = _zone(self.dec, zone_height)
        if runs is not None:
            cells += self._run_cells(runs)
        keys = cells * _STRIDE + np.mod(self.ra, 360.0)
        #: Rows in key order: by run, zone, then RA.
        self.order = np.argsort(keys)
        self._keys = keys[self.order]

    def _run_cells(self, runs) -> np.ndarray:
        """Per row of ``runs``, the cell its run's zones are numbered from."""
        return np.repeat(np.arange(len(runs) - 1) * self.zones, np.diff(runs))

    @classmethod
    def for_join(cls, ra, dec, runs, radius: float) -> "DecIndex":
        """The index a near-neighbour join of ``radius`` degrees probes (:meth:`windows`)."""
        ra, dec = _on_sphere(ra, dec)
        height = min(max(_reach(radius), _MIN_JOIN_ZONE_HEIGHT), 180.0)
        return cls(ra, dec, runs=runs, zone_height=height)

    def candidates(self, box) -> np.ndarray:
        """Rows that may lie in ``box`` (a ``SphericalBox``), zone by zone.

        A superset of the rows ``box.contains``: every row of the zones
        the box's declination range touches whose RA is in its range,
        in ascending RA within each zone and RA interval.
        """
        if box.is_empty:
            return np.empty(0, dtype=np.int64)
        height = self.zone_height
        zones = np.arange(_zone(box.dec_min, height), _zone(box.dec_max, height) + 1) * _STRIDE
        pieces = [np.empty(0, dtype=np.int64)]
        for lo, hi in box._ra_intervals():
            starts = np.searchsorted(self._keys, zones + lo, side="left")
            stops = np.searchsorted(self._keys, zones + hi, side="right")
            pieces += [self.order[a:b] for a, b in zip(starts, stops)]
        return np.concatenate(pieces)

    def windows(self, ra, dec, runs, radius: float):
        """``(probes, starts, counts)``: where the rows near each probe point are.

        Probe points ``ra``/``dec`` are cut into runs as the index's
        rows are.  Probe ``probes[j]`` may be within ``radius`` degrees
        of rows ``order[starts[j]:starts[j] + counts[j]]``, which are of
        its own run; every row that is, is in one of its windows, once.
        A window is one zone that ``[dec - radius, dec + radius]``
        touches, and within it the RA range that the circle spans,
        ``asin(sin radius / cos(|dec| + radius))`` either side (all of
        RA when the circle reaches a pole), cut in two at RA 0/360.
        """
        ra, dec = _on_sphere(ra, dec)
        reach = _reach(radius)
        cells = self._run_cells(runs)
        probe = np.arange(len(ra))
        if reach < 0.0 or np.isnan(ra + dec).any():
            # A point with no position is near nothing; nor is any under
            # a negative radius.
            probe = np.flatnonzero(~np.isnan(ra + dec) & (reach >= 0.0))
            ra, dec, cells = ra[probe], dec[probe], cells[probe]
        height = self.zone_height
        first = np.maximum(_zone(dec - reach, height), 0.0)
        more = np.minimum(_zone(dec + reach, height), self.zones - 1) - first  # 0, 1 or 2
        first += cells
        # Half the RA span of the circle; all of RA (NaN, then 360) when
        # it reaches a pole.
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_edge = np.maximum(np.cos(np.radians(np.abs(dec) + reach)), 0.0)
            half = np.degrees(np.arcsin(np.sin(np.radians(reach)) / cos_edge))
        half[np.isnan(half)] = 360.0
        lo, hi = ra - half, ra + half
        # The part of a window past RA 0 or 360 is a window of its own,
        # unless the window is all of RA already.
        wraps = np.flatnonzero(((lo < 0.0) | (hi > 360.0)) & (half < 180.0))
        if len(wraps):
            west = lo[wraps] < 0.0
            lo = np.concatenate([lo, np.where(west, lo[wraps] + 360.0, 0.0)])
            hi = np.concatenate([hi, np.where(west, 360.0, hi[wraps] - 360.0)])
            probe, first, more = (np.concatenate([a, a[wraps]]) for a in (probe, first, more))
        np.maximum(lo, 0.0, out=lo)
        np.minimum(hi, 360.0, out=hi)
        # One window per (RA interval, zone), zone offset by zone offset
        # (a zone is never shorter than the reach: at most three), each
        # offset's in key order -- a binary search of ascending keys
        # starts where the last one ended.
        order = np.argsort(first * _STRIDE + lo)
        beyond = more[order]
        which = [order, order[beyond >= 1.0], order[beyond >= 2.0]]
        ends = np.cumsum([len(w) for w in which])
        which = np.concatenate(which)
        cells = first[which]
        cells[ends[0]:] += 1.0
        cells[ends[1]:] += 1.0
        cells *= _STRIDE
        starts = np.searchsorted(self._keys, cells + lo[which], side="left")
        stops = np.searchsorted(self._keys, cells + hi[which], side="right")
        return probe[which], starts, stops - starts
