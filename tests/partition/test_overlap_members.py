"""Chunk-wide overlap membership against the per-sub-chunk definition.

``overlap_members`` answers every sub-chunk overlap of a chunk in one
call.  The oracle here is the loop the loader used to run: the chunk's
dilated box, then for each sub-chunk its dilated box less the sub-chunk
itself.  Points are drawn where the geometry is hardest -- across the RA
wrap (358-2 deg), above |dec| = 85 deg, and exactly on box edges, where
the inclusive comparisons decide.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.partition import Chunker, HtmChunker
from repro.partition.dec_index import DecIndex
from repro.sphgeom import angular_separation

CHUNKERS = {
    "paper": Chunker(85, 12, 0.01667),
    "small": Chunker(18, 6, 0.05),
    # Overlap wider than a sub-chunk near the poles: many columns reached.
    "coarse": Chunker(9, 3, 0.8),
    "htm": HtmChunker(3, 2, 0.05),
    "htm-fine": HtmChunker(5, 2, 0.01667),
}

ras = st.one_of(
    st.floats(358.0, 360.0), st.floats(0.0, 2.0), st.floats(0.0, 360.0),
    st.floats(-1.0, 361.0),  # not yet normalized
)
decs = st.one_of(st.floats(85.0, 90.0), st.floats(-90.0, -85.0), st.floats(-90.0, 90.0))


def reference(chunker, cid, ra, dec):
    """``(sub-chunk id, row)`` pairs of the per-sub-chunk loop, in its order."""
    cand = np.flatnonzero(chunker.chunk_overlap_box(cid).contains(ra, dec))
    if isinstance(chunker, HtmChunker):
        fine = np.atleast_1d(chunker._fine.index_points(ra[cand], dec[cand]))
    pairs = []
    for scid in chunker.sub_chunks_of(cid).tolist():
        near = chunker.sub_chunk_overlap_box(cid, scid).contains(ra[cand], dec[cand])
        if isinstance(chunker, HtmChunker):
            inside = fine == cid * 4**chunker.sub_level + scid
        else:
            inside = chunker.sub_chunk_box(cid, scid).contains(ra[cand], dec[cand])
        pairs += [(scid, int(r)) for r in cand[np.atleast_1d(near & ~inside)]]
    return pairs


def members(chunker, cid, ra, dec):
    """``(sub-chunk id, row)`` pairs of the chunk-wide call."""
    subs, rows = chunker.overlap_members(cid, DecIndex(ra, dec, *chunker.assign(ra, dec)))
    return list(zip(subs.tolist(), rows.tolist()))


def overlap_mask(chunker, cid, scid, ra, dec):
    """Mask of the points in sub-chunk ``scid``'s overlap."""
    ra = np.atleast_1d(np.asarray(ra, dtype=np.float64))
    dec = np.atleast_1d(np.asarray(dec, dtype=np.float64))
    mask = np.zeros(len(ra), dtype=bool)
    mask[[r for s, r in members(chunker, cid, ra, dec) if s == scid]] = True
    return mask


def moved(ra, dec, distance, bearing):
    """Points ``distance`` degrees from (ra, dec) along ``bearing`` (radians)."""
    d, b = np.deg2rad(distance), bearing
    dec1 = np.deg2rad(dec)
    sin_dec2 = np.sin(dec1) * np.cos(d) + np.cos(dec1) * np.sin(d) * np.cos(b)
    dec2 = np.arcsin(np.clip(sin_dec2, -1.0, 1.0))
    dra = np.arctan2(np.sin(b) * np.sin(d) * np.cos(dec1), np.cos(d) - np.sin(dec1) * sin_dec2)
    return ra + np.rad2deg(dra), np.rad2deg(dec2)


def cloud(chunker, ra0, dec0, seed):
    """Points around (ra0, dec0) out to a few overlaps, plus its chunk's box edges."""
    rng = np.random.default_rng(seed)
    n = 300
    ra, dec = moved(
        np.full(n, ra0), np.full(n, dec0),
        rng.uniform(0.0, 4.0 * chunker.overlap + 0.5, n), rng.uniform(0, 2 * np.pi, n),
    )
    cid = int(chunker.chunk_id(ra0, dec0))
    if isinstance(chunker, Chunker):
        # Coordinates exactly on sub-chunk and dilated edges.
        edges_ra, edges_dec = [], []
        subs = chunker.sub_chunks_of(cid)
        for scid in rng.choice(subs, min(6, len(subs)), replace=False).tolist():
            for box in (chunker.sub_chunk_box(cid, scid), chunker.sub_chunk_overlap_box(cid, scid)):
                edges_ra += [box.ra_min, box.ra_max, box.ra_min, box.ra_max]
                edges_dec += [box.dec_min, box.dec_max, box.dec_max, box.dec_min]
        ra = np.concatenate([ra, edges_ra])
        dec = np.concatenate([dec, edges_dec])
    return cid, ra, np.clip(dec, -90.0, 90.0)


@pytest.mark.parametrize("name", sorted(CHUNKERS))
@given(ra0=ras, dec0=decs, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_chunk_wide_membership_equals_the_per_sub_chunk_loop(name, ra0, dec0, seed):
    chunker = CHUNKERS[name]
    cid, ra, dec = cloud(chunker, ra0, dec0, seed)
    assert members(chunker, cid, ra, dec) == reference(chunker, cid, ra, dec)


@pytest.mark.parametrize("name", sorted(CHUNKERS))
@given(ra0=ras, dec0=decs, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_every_point_within_overlap_of_a_sub_chunk_is_a_member(name, ra0, dec0, seed):
    """A point outside sub-chunk S, within ``overlap`` of a point in S, pads S."""
    chunker = CHUNKERS[name]
    cid, scid = (int(x[0]) for x in chunker.assign(ra0, dec0))
    if isinstance(chunker, Chunker):
        assume(chunker.sub_chunk_box(cid, scid).contains(ra0, dec0))
    rng = np.random.default_rng(seed)
    n = 200
    ra, dec = moved(
        np.full(n, ra0), np.full(n, dec0),
        rng.uniform(0.0, chunker.overlap, n) * 0.999, rng.uniform(0, 2 * np.pi, n),
    )
    assert (angular_separation(ra0, dec0, ra, dec) <= chunker.overlap).all()
    p_cid, p_scid = chunker.assign(ra, dec)
    if isinstance(chunker, Chunker):
        outside = ~chunker.sub_chunk_box(cid, scid).contains(ra, dec)
    else:
        outside = (p_cid != cid) | (p_scid != scid)
    got = set(members(chunker, cid, ra, dec))
    assert {(scid, int(r)) for r in np.flatnonzero(outside)} <= got


def test_zone_candidates_hold_every_row_in_the_box():
    rng = np.random.default_rng(9)
    ra = rng.uniform(-5.0, 365.0, 5000)
    dec = np.rad2deg(np.arcsin(rng.uniform(-1, 1, 5000)))
    index = DecIndex(ra, dec, np.zeros(5000), np.zeros(5000))
    chunker = CHUNKERS["small"]
    for cid in chunker.all_chunks()[::7].tolist():
        box = chunker.chunk_overlap_box(cid)
        want = np.flatnonzero(box.contains(ra, dec))
        assert set(want.tolist()) <= set(index.candidates(box).tolist())
