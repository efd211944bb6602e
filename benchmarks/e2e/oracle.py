"""Independent answers, recomputed with NumPy from the loaded tables.

``summarize`` runs right after each op (outside its timer) and reduces
the result to a few numbers, so result tables are not kept alive and
do not inflate peak memory.  ``Oracle.check`` runs after the timed
section and compares every summary with its own computation: exact for
counts and id checksums, 1e-9 relative for floating-point columns.
Nothing here calls the engine, the UDFs or ``repro.sphgeom``; only the
chunker is used, because chunk membership is a definition, not an
answer.
"""

from __future__ import annotations

import numpy as np

from workloads import NEIGHBOUR_RADIUS, SOURCE_OFFSET, Op, in_box

_AB_ZEROPOINT = 8.9
_RTOL = 1e-9


def summarize(op: Op, result) -> tuple:
    """Order-insensitive digest of a query result, cheap enough for every op."""
    table = result.table
    cols = [table.column(name) for name in table.column_names]
    n = table.num_rows
    if op.cls in ("lv1", "lv2"):
        rows = sorted(zip(*(c.tolist() for c in cols)))
        return (n, rows)
    if op.cls in ("lv3", "hv1", "shv1", "shv1r"):
        return (n, int(cols[0][0]) if n == 1 else None)
    if op.cls == "hv2":
        return (n, int(cols[0].sum()))
    if op.cls == "hv3":
        order = np.argsort(cols[3])
        return (n, [c[order].tolist() for c in cols])
    if op.cls == "shv2":
        return (n, int(cols[0].sum()), int(cols[1].sum()))
    raise ValueError(f"unknown query class {op.cls!r}")


def _unit_vectors(ra, dec):
    ra, dec = np.deg2rad(ra), np.deg2rad(dec)
    cos_dec = np.cos(dec)
    return np.stack([cos_dec * np.cos(ra), cos_dec * np.sin(ra), np.sin(dec)], axis=-1)


def _separation_deg(v1, v2):
    """Great-circle separation from the chord between unit vectors."""
    chord = np.linalg.norm(v1 - v2, axis=-1)
    return np.rad2deg(2.0 * np.arcsin(np.clip(chord * 0.5, 0.0, 1.0)))


class Oracle:
    def __init__(self, tables, chunker):
        obj, src = tables["Object"], tables["Source"]
        self.obj = {c: obj.column(c) for c in
                    ("objectId", "ra_PS", "decl_PS", "uFlux_SG", "uRadius_PS")}
        self.src = {c: src.column(c) for c in
                    ("sourceId", "objectId", "ra", "decl", "taiMidPoint", "psfFlux")}
        self.num_objects = obj.num_rows
        # synthesize_sources emits each object's detections contiguously.
        owner = self.src["objectId"]
        if np.any(np.diff(owner) < 0):
            raise ValueError("Source is not grouped by objectId")
        self._first_source = np.searchsorted(owner, np.arange(self.num_objects + 1))
        self._obj_vec = _unit_vectors(self.obj["ra_PS"], self.obj["decl_PS"])
        chunk = chunker.chunk_id(self.obj["ra_PS"], self.obj["decl_PS"])
        ids, inverse, counts = np.unique(chunk, return_inverse=True, return_counts=True)
        self._density = [
            counts.tolist(),
            (np.bincount(inverse, self.obj["ra_PS"]) / counts).tolist(),
            (np.bincount(inverse, self.obj["decl_PS"]) / counts).tolist(),
            ids.tolist(),
        ]

    def check(self, op: Op, summary: tuple) -> bool:
        """True when the program's answer equals the recomputed one."""
        return getattr(self, "_" + op.cls)(op, summary)

    def _sources_of(self, object_ids):
        """Row indices into Source of every detection of ``object_ids``."""
        lo = self._first_source[object_ids]
        hi = self._first_source[object_ids + 1]
        counts = hi - lo
        offsets = np.cumsum(counts) - counts
        rows = np.repeat(lo - offsets, counts) + np.arange(counts.sum())
        return rows, np.repeat(object_ids, counts)

    def _lv1(self, op, summary):
        (oid,) = op.args
        # objectId is arange(num_objects): the id is the row number.
        expected = [(oid, float(self.obj["ra_PS"][oid]), float(self.obj["decl_PS"][oid]))]
        return summary == (1, expected)

    def _lv2(self, op, summary):
        rows, _ = self._sources_of(np.array(op.args))
        mag = -2.5 * np.log10(self.src["psfFlux"][rows]) + _AB_ZEROPOINT
        expected = sorted(zip(
            self.src["taiMidPoint"][rows].tolist(), mag.tolist(),
            self.src["ra"][rows].tolist(), self.src["decl"][rows].tolist(),
        ))
        n, got = summary
        if n != len(expected):
            return False
        return n == 0 or np.allclose(got, expected, rtol=_RTOL, atol=0.0)

    def _lv3(self, op, summary):
        inside = in_box(self.obj["ra_PS"], self.obj["decl_PS"], op.args)
        return summary == (1, int(np.count_nonzero(inside)))

    def _hv1(self, op, summary):
        return summary == (1, self.num_objects)

    def _hv2(self, op, summary):
        keep = self.obj["uRadius_PS"] > op.args[0]
        return summary == (
            int(np.count_nonzero(keep)), int(self.obj["objectId"][keep].sum())
        )

    def _hv3(self, op, summary):
        n, got = summary
        counts, ra, dec, ids = self._density
        return (
            n == len(ids) and got[0] == counts and got[3] == ids
            and np.allclose(got[1], ra, rtol=_RTOL, atol=0.0)
            and np.allclose(got[2], dec, rtol=_RTOL, atol=0.0)
        )

    def _shv1(self, op, summary):
        ra, dec = self.obj["ra_PS"], self.obj["decl_PS"]
        left = np.flatnonzero(in_box(ra, dec, op.args))
        # Partners may sit just outside the box; a wider box bounds them.
        # RA separations shrink by cos(dec), at most 1/cos(7 deg) here.
        ra_min, dec_min, ra_max, dec_max = op.args
        pad = NEIGHBOUR_RADIUS * 1.05
        near = np.flatnonzero(in_box(ra, dec, (
            (ra_min - pad) % 360.0, dec_min - pad, (ra_max + pad) % 360.0, dec_max + pad,
        )))
        sep = _separation_deg(self._obj_vec[left][:, None, :], self._obj_vec[near][None, :, :])
        return summary == (1, int(np.count_nonzero(sep < NEIGHBOUR_RADIUS)))

    _shv1r = _shv1

    def _shv2(self, op, summary):
        inside = np.flatnonzero(in_box(self.obj["ra_PS"], self.obj["decl_PS"], op.args))
        rows, owners = self._sources_of(inside)
        sep = _separation_deg(
            _unit_vectors(self.src["ra"][rows], self.src["decl"][rows]),
            self._obj_vec[owners],
        )
        keep = sep > SOURCE_OFFSET
        return summary == (
            int(np.count_nonzero(keep)),
            int(owners[keep].sum()),
            int(self.src["sourceId"][rows[keep]].sum()),
        )
