"""Longitude/latitude boxes on the sphere.

A :class:`SphericalBox` is the region behind the paper's
``qserv_areaspec_box(raMin, decMin, raMax, decMax)`` pseudo-function and
the shape of every chunk and sub-chunk produced by the stripes/sub-stripes
partitioner.  Boxes must handle the 360 -> 0 right-ascension wrap: a box
with ``ra_min=350, ra_max=10`` covers the 20-degree sliver spanning the
meridian, exactly like the PT1.1 data set footprint (RA 358..5 deg).
"""

from __future__ import annotations

import math

import numpy as np

from .coords import MAX_DEC, MIN_DEC, normalize_ra
from .region import Region, Relationship

__all__ = ["SphericalBox"]

_FULL_RA = 360.0


class SphericalBox(Region):
    """A box in (ra, dec), possibly wrapping in right ascension.

    Parameters
    ----------
    ra_min, ra_max:
        Right ascension bounds in degrees.  If ``ra_min > ra_max`` after
        normalization the box wraps through RA 0.  Passing a span of 360
        or more degrees produces a full-circle box.
    dec_min, dec_max:
        Declination bounds in degrees, clamped to [-90, +90].  A box with
        ``dec_min > dec_max`` is empty.
    """

    __slots__ = ("ra_min", "ra_max", "dec_min", "dec_max", "_full_ra", "_empty")

    def __init__(self, ra_min: float, dec_min: float, ra_max: float, dec_max: float):
        dec_min = max(float(dec_min), MIN_DEC)
        dec_max = min(float(dec_max), MAX_DEC)
        self._empty = dec_min > dec_max
        raw_span = float(ra_max) - float(ra_min)
        self._full_ra = raw_span >= _FULL_RA
        if self._full_ra:
            self.ra_min, self.ra_max = 0.0, _FULL_RA
        else:
            self.ra_min = normalize_ra(ra_min)
            self.ra_max = normalize_ra(ra_max)
        self.dec_min = dec_min
        self.dec_max = dec_max

    # -- constructors ------------------------------------------------------

    @classmethod
    def full_sky(cls) -> "SphericalBox":
        """The whole celestial sphere."""
        return cls(0.0, MIN_DEC, 360.0, MAX_DEC)

    @classmethod
    def empty(cls) -> "SphericalBox":
        """A box containing no points."""
        box = cls(0.0, 1.0, 0.0, -1.0)
        return box

    # -- basic properties ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self._empty

    @property
    def wraps(self) -> bool:
        """True when the RA interval crosses the 360 -> 0 meridian."""
        return (not self._full_ra) and self.ra_min > self.ra_max

    @property
    def full_ra(self) -> bool:
        """True when the box spans the complete RA circle."""
        return self._full_ra

    def ra_extent(self) -> float:
        """Width of the RA interval in degrees."""
        if self._empty:
            return 0.0
        if self._full_ra:
            return _FULL_RA
        if self.wraps:
            return _FULL_RA - self.ra_min + self.ra_max
        return self.ra_max - self.ra_min

    def dec_extent(self) -> float:
        """Height of the declination interval in degrees."""
        if self._empty:
            return 0.0
        return self.dec_max - self.dec_min

    # -- Region interface ----------------------------------------------------

    def contains(self, ra, dec):
        """Vectorized membership test (inclusive bounds)."""
        ra = np.asarray(ra, dtype=np.float64)
        dec = np.asarray(dec, dtype=np.float64)
        if self._empty:
            out = np.zeros(np.broadcast(ra, dec).shape, dtype=bool)
            return bool(out) if out.ndim == 0 else out
        in_dec = (dec >= self.dec_min) & (dec <= self.dec_max)
        if self._full_ra:
            in_ra = np.ones_like(in_dec)
        else:
            # np.mod returns an array already in [0, 360) as it is (but
            # for the sign of -0.0, which no comparison sees), at four
            # times the cost of the whole test; NaN fails both checks.
            if ra.ndim and ra.size and ra.min() >= 0.0 and ra.max() < _FULL_RA:
                ra_n = ra
            else:
                ra_n = np.mod(ra, _FULL_RA)
            if self.wraps:
                in_ra = (ra_n >= self.ra_min) | (ra_n <= self.ra_max)
            else:
                in_ra = (ra_n >= self.ra_min) & (ra_n <= self.ra_max)
        out = in_dec & in_ra
        if out.ndim == 0:
            return bool(out)
        return out

    def bounding_box(self) -> "SphericalBox":
        return self

    def area(self) -> float:
        """Solid angle in square degrees: dRA * (sin decMax - sin decMin)."""
        if self._empty:
            return 0.0
        dra = math.radians(self.ra_extent())
        band = math.sin(math.radians(self.dec_max)) - math.sin(math.radians(self.dec_min))
        steradians = dra * band
        return steradians * (180.0 / math.pi) ** 2

    # -- interval helpers ----------------------------------------------------

    def _ra_intervals(self):
        """The RA interval as one or two non-wrapping [lo, hi] pairs."""
        if self._full_ra:
            return [(0.0, _FULL_RA)]
        if self.wraps:
            return [(self.ra_min, _FULL_RA), (0.0, self.ra_max)]
        return [(self.ra_min, self.ra_max)]

    def _ra_overlaps(self, other: "SphericalBox") -> bool:
        if self._full_ra or other._full_ra:
            return True
        for lo1, hi1 in self._ra_intervals():
            for lo2, hi2 in other._ra_intervals():
                if lo1 <= hi2 and lo2 <= hi1:
                    return True
        return False

    def _ra_contains_interval(self, other: "SphericalBox") -> bool:
        """True if this box's RA interval contains the other's entirely."""
        if self._full_ra:
            return True
        if other._full_ra:
            return False

        def contained(lo, hi):
            return any(lo >= lo1 and hi <= hi1 for lo1, hi1 in self._ra_intervals())

        # A wrapping 'other' may split into two pieces that are contained
        # by this box's (possibly also split) intervals.
        return all(contained(lo, hi) for lo, hi in other._ra_intervals())

    def relate(self, other: Region) -> Relationship:
        if not isinstance(other, SphericalBox):
            # Conservative fallback through the other region's bbox.
            other_box = other.bounding_box()
            rel = self.relate(other_box)
            if rel is Relationship.DISJOINT:
                return Relationship.DISJOINT
            if rel is Relationship.CONTAINS:
                return Relationship.CONTAINS
            return Relationship.INTERSECTS
        if self._empty or other._empty:
            return Relationship.DISJOINT
        dec_overlap = self.dec_min <= other.dec_max and other.dec_min <= self.dec_max
        if not dec_overlap or not self._ra_overlaps(other):
            return Relationship.DISJOINT
        self_contains = (
            self.dec_min <= other.dec_min
            and self.dec_max >= other.dec_max
            and self._ra_contains_interval(other)
        )
        if self_contains:
            return Relationship.CONTAINS
        other_contains = (
            other.dec_min <= self.dec_min
            and other.dec_max >= self.dec_max
            and other._ra_contains_interval(self)
        )
        if other_contains:
            return Relationship.WITHIN
        return Relationship.INTERSECTS

    # -- dilation (overlap support) -------------------------------------------

    def dilated(self, radius: float) -> "SphericalBox":
        """Expand the box by ``radius`` degrees in every direction.

        This is how overlap regions are computed (section 4.4): a chunk's
        overlap rows are the points inside ``chunk_box.dilated(overlap)``
        but outside ``chunk_box`` itself.  The RA expansion is scaled by
        ``1/cos(dec)`` at the box's highest-|dec| edge so the guarantee
        "every point within ``radius`` of the box is inside the dilated
        box" holds on the sphere, not just on the (ra, dec) plane.
        """
        if radius < 0:
            raise ValueError(f"dilation radius must be non-negative, got {radius}")
        if self._empty or radius == 0.0:
            return self
        dec_min = max(self.dec_min - radius, MIN_DEC)
        dec_max = min(self.dec_max + radius, MAX_DEC)
        # Worst-case metric scaling for the RA direction across the
        # dilated dec range.  At the poles the scale diverges: fall back
        # to a full RA circle.
        max_abs_dec = min(max(abs(dec_min), abs(dec_max)), 89.9999)
        cos_term = math.cos(math.radians(max_abs_dec))
        if cos_term <= 0.0:
            return SphericalBox(0.0, dec_min, 360.0, dec_max)
        ra_pad = radius / cos_term
        if self._full_ra or self.ra_extent() + 2.0 * ra_pad >= _FULL_RA:
            return SphericalBox(0.0, dec_min, 360.0, dec_max)
        # Preserve wrap structure by working with raw endpoints.
        ra_min = self.ra_min - ra_pad
        ra_max = (self.ra_max if not self.wraps else self.ra_max + _FULL_RA) + ra_pad
        return SphericalBox(ra_min, dec_min, ra_max, dec_max)

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SphericalBox):
            return NotImplemented
        if self._empty and other._empty:
            return True
        return (
            self.ra_min == other.ra_min
            and self.ra_max == other.ra_max
            and self.dec_min == other.dec_min
            and self.dec_max == other.dec_max
            and self._full_ra == other._full_ra
        )

    def __hash__(self):
        if self._empty:
            return hash("empty-box")
        return hash((self.ra_min, self.ra_max, self.dec_min, self.dec_max, self._full_ra))

    def __repr__(self):
        if self._empty:
            return "SphericalBox.empty()"
        return (
            f"SphericalBox(ra=[{self.ra_min:g}, {self.ra_max:g}], "
            f"dec=[{self.dec_min:g}, {self.dec_max:g}]"
            f"{', wraps' if self.wraps else ''})"
        )
