"""Query classes of the paper's section 6.2 and the four workloads built from them.

Every op carries fresh, seeded literals, so the frontend result cache
never answers a timed op (they also pass ``use_cache=False``) and the
czar plan cache misses unless the class is literal-free (HV1, HV3) or
repeats on purpose (SHV1R).  Spatial classes use ``qserv_areaspec_box``
because it is the only form that restricts chunk coverage; a plain
``ra_PS BETWEEN`` goes to all 28 chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The PT1.1 footprint: RA 358..365 (wrapping through 0), Dec -7..+7.
# Boxes stay this far inside it so result sizes do not depend on where
# the box lands.
_RA_LO, _RA_HI, _DEC_LO, _DEC_HI = 358.0, 365.0, -7.0, 7.0
_EDGE = 0.05

NEIGHBOUR_RADIUS = 0.015  # degrees; below the loaded overlap (0.01667)
SOURCE_OFFSET = 0.0001  # degrees; ~2 sigma of the synthetic astrometric scatter

# A join's cost goes by the partition cells its box touches: SHV1 pays
# per sub-chunk (0.176 deg cells: a random 0.3 deg box touches 4, 6 or 9,
# at 21, 28 and 38 ms), SHV2 per chunk (1, 2 or 4, at 9, 16 and 32 ms).
# Half of all boxes fall in the classes below and half beside them, so a
# median over ~120 mixed boxes sits on the edge between two modes and
# jumps with the seed.  Each class keeps only boxes of one footprint.
SHV1_FOOTPRINT = (1, 9)  # (chunks, sub-chunks)
SHV2_CHUNKS = 2
_LATTICE_STEP = 0.04  # degrees; well under a sub-chunk


@dataclass(frozen=True)
class Op:
    """One query: its class, its SQL text and the literals the oracle needs."""

    cls: str
    sql: str
    args: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    #: Classes behind the ``q1``/``q2``/``q3`` metric slots.
    slots: tuple
    #: Classes the timed client loops over, round-robin.
    foreground: tuple
    #: Classes a second client loops over until the first finishes.
    background: tuple = ()
    #: 0 runs chunk queries inline in the dispatching thread (steady on
    #: two cores); mixed_load measures the worker queue, so it needs slots.
    worker_slots: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lv_point", ("lv1", "lv2", "lv3"), ("lv1", "lv2", "lv3")),
        Workload("hv_scan", ("hv1", "hv2", "hv3"), ("hv1", "hv2", "hv3")),
        Workload("shv_join", ("shv1", "shv2", "shv1r"), ("shv1", "shv2", "shv1r")),
        Workload(
            "mixed_load", ("lv1", "hv2", "hv3"), ("lv1",), ("hv2", "hv3"), worker_slots=2
        ),
    )
}


class QuerySpace:
    """What the generator knows about the data so that no op fails.

    Source rows are partitioned by their own position, so a detection
    scattered across a chunk border lives in another chunk than its
    object and is invisible to objectId-routed and chunk-local join
    queries (29 of 400 000 families at the seed).  LV2 and SHV2 avoid
    those objects; ``split_families`` reports how many there are.
    """

    def __init__(self, tables, chunker):
        obj, src = tables["Object"], tables["Source"]
        self.chunker = chunker
        self.num_objects = obj.num_rows
        obj_chunk = chunker.chunk_id(obj.column("ra_PS"), obj.column("decl_PS"))
        src_chunk = chunker.chunk_id(src.column("ra"), src.column("decl"))
        owner = src.column("objectId")
        split = np.unique(owner[src_chunk != obj_chunk[owner]])
        whole = np.ones(self.num_objects, dtype=bool)
        whole[split] = False
        self.whole_family_ids = np.flatnonzero(whole)
        self.split_families = len(split)
        self._split_ra = obj.column("ra_PS")[split]
        self._split_dec = obj.column("decl_PS")[split]

    def box_has_split_family(self, box) -> bool:
        return bool(np.any(in_box(self._split_ra, self._split_dec, box)))

    def footprint(self, box) -> tuple:
        """How many chunks and how many sub-chunks the box touches.

        Counted on a lattice finer than a sub-chunk that includes the
        box's edges, so no touched cell is missed.
        """
        ra_min, dec_min, ra_max, dec_max = box
        width = (ra_max - ra_min) % 360.0
        ra, dec = np.meshgrid(
            (ra_min + np.linspace(0.0, width, int(width / _LATTICE_STEP) + 2)) % 360.0,
            np.linspace(dec_min, dec_max, int((dec_max - dec_min) / _LATTICE_STEP) + 2),
        )
        chunk = self.chunker.chunk_id(ra.ravel(), dec.ravel())
        sub_chunk = self.chunker.sub_chunk_id(ra.ravel(), dec.ravel())
        cells = np.unique(np.stack([chunk, sub_chunk]), axis=1)
        return len(np.unique(chunk)), cells.shape[1]


def in_box(ra, dec, box):
    """Inclusive membership in ``(ra_min, dec_min, ra_max, dec_max)``; RA may wrap."""
    ra_min, dec_min, ra_max, dec_max = box
    if ra_min <= ra_max:
        in_ra = (ra >= ra_min) & (ra <= ra_max)
    else:
        in_ra = (ra >= ra_min) | (ra <= ra_max)
    return in_ra & (dec >= dec_min) & (dec <= dec_max)


def _random_box(rng, width, height):
    ra0 = round(rng.uniform(_RA_LO + _EDGE, _RA_HI - _EDGE - width), 4)
    dec0 = round(rng.uniform(_DEC_LO + _EDGE, _DEC_HI - _EDGE - height), 4)
    return (
        round(ra0 % 360.0, 4),
        dec0,
        round((ra0 + width) % 360.0, 4),
        round(dec0 + height, 4),
    )


def _box_sql(box) -> str:
    return "qserv_areaspec_box({!r}, {!r}, {!r}, {!r})".format(*box)


class OpStream:
    """Seeded op generator; one independent random stream per class.

    Separate streams make the n-th op of a class the same whatever the
    interleaving, so traced and untraced runs of one seed see the same
    literals.
    """

    CLASSES = ("lv1", "lv2", "lv3", "hv1", "hv2", "hv3", "shv1", "shv2", "shv1r")

    def __init__(self, seed: int, space: QuerySpace):
        self.space = space
        self._rng = {
            c: np.random.default_rng([seed, i]) for i, c in enumerate(self.CLASSES)
        }
        self._last_shv1_box = None

    def next(self, cls: str) -> Op:
        return getattr(self, "_" + cls)(self._rng[cls])

    def _lv1(self, rng):
        oid = int(rng.integers(self.space.num_objects))
        return Op(
            "lv1",
            f"SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = {oid}",
            (oid,),
        )

    def _lv2(self, rng):
        oid = int(rng.choice(self.space.whole_family_ids))
        return Op(
            "lv2",
            "SELECT taiMidPoint, fluxToAbMag(psfFlux), ra, decl "
            f"FROM Source WHERE objectId = {oid}",
            (oid,),
        )

    def _lv3(self, rng):
        box = _random_box(rng, 0.5, 0.5)
        return Op(
            "lv3",
            f"SELECT COUNT(*) FROM Object WHERE {_box_sql(box)} AND uFlux_SG > 1e-30",
            box,
        )

    def _hv1(self, rng):
        return Op("hv1", "SELECT COUNT(*) FROM Object")

    def _hv2(self, rng):
        # ~16 % of rows pass; the literal moves so no cache sees a repeat.
        cut = round(rng.uniform(0.0970, 0.0980), 6)
        return Op(
            "hv2",
            "SELECT objectId, ra_PS, decl_PS, uFlux_SG FROM Object "
            f"WHERE uRadius_PS > {cut!r}",
            (cut,),
        )

    def _hv3(self, rng):
        return Op(
            "hv3",
            "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId "
            "FROM Object GROUP BY chunkId",
        )

    @staticmethod
    def _shv1_op(cls, box):
        return Op(
            cls,
            "SELECT COUNT(*) FROM Object o1, Object o2 "
            f"WHERE {_box_sql(box)} AND qserv_angSep("
            f"o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {NEIGHBOUR_RADIUS!r}",
            box,
        )

    def _shv1(self, rng):
        box = _random_box(rng, 0.3, 0.3)
        while self.space.footprint(box) != SHV1_FOOTPRINT:
            box = _random_box(rng, 0.3, 0.3)
        self._last_shv1_box = box
        return self._shv1_op("shv1", box)

    def _shv1r(self, rng):
        # The box of the SHV1 before it in the round: same plan, same
        # sub-chunk tables.
        return self._shv1_op("shv1r", self._last_shv1_box)

    def _shv2(self, rng):
        box = _random_box(rng, 1.0, 1.0)
        while (
            self.space.footprint(box)[0] != SHV2_CHUNKS
            or self.space.box_has_split_family(box)
        ):
            box = _random_box(rng, 1.0, 1.0)
        return Op(
            "shv2",
            "SELECT o.objectId, s.sourceId FROM Object o, Source s "
            f"WHERE {_box_sql(box)} AND o.objectId = s.objectId "
            "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > "
            f"{SOURCE_OFFSET!r}",
            box,
        )
