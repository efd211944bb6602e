"""Tests for the two-level stripes/sub-stripes chunker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import Chunker
from repro.sphgeom import (
    Relationship,
    SphericalBox,
    SphericalCircle,
    SphericalConvexPolygon,
)

from .test_overlap_members import overlap_mask

ras = st.floats(min_value=0.0, max_value=359.999, allow_nan=False)
decs = st.floats(min_value=-89.999, max_value=89.999, allow_nan=False)


@pytest.fixture(scope="module")
def paper_chunker():
    """The paper's test configuration: 85 stripes, 12 sub-stripes, 1' overlap."""
    return Chunker(85, 12, 0.01667)


@pytest.fixture(scope="module")
def small_chunker():
    return Chunker(18, 10, 0.05)


class TestPaperGeometry:
    def test_stripe_height(self, paper_chunker):
        # Paper: "phi height of ~2.11 deg for stripes".
        assert paper_chunker.stripe_height == pytest.approx(2.1176, abs=1e-3)

    def test_sub_stripe_height(self, paper_chunker):
        # Paper: "0.176 deg for sub-stripes".
        assert paper_chunker.sub_stripe_height == pytest.approx(0.176, abs=1e-3)

    def test_total_chunks_near_8983(self, paper_chunker):
        # Paper: "This yielded 8983 chunks."
        assert abs(paper_chunker.num_chunks - 8983) <= 10

    def test_equator_chunk_area(self, paper_chunker):
        # Paper: "Each chunk thus spanned an area of ~4.5 deg^2".
        cid = paper_chunker.chunk_id(180.0, 0.5)
        assert paper_chunker.chunk_box(cid).area() == pytest.approx(4.5, abs=0.1)

    def test_equator_subchunk_area(self, paper_chunker):
        # Paper: "and each subchunk, 0.031 deg^2".
        cid = paper_chunker.chunk_id(180.0, 0.5)
        scid = paper_chunker.sub_chunk_id(180.0, 0.5)
        assert paper_chunker.sub_chunk_box(cid, scid).area() == pytest.approx(0.031, abs=0.003)


class TestValidation:
    def test_bad_stripes(self):
        with pytest.raises(ValueError):
            Chunker(0, 10)

    def test_bad_sub_stripes(self):
        with pytest.raises(ValueError):
            Chunker(10, 0)

    def test_bad_overlap(self):
        with pytest.raises(ValueError):
            Chunker(10, 10, -0.1)

    def test_invalid_chunk_id_rejected(self, small_chunker):
        with pytest.raises(ValueError):
            small_chunker.chunk_box(10**9)

    def test_invalid_subchunk_rejected(self, small_chunker):
        cid = small_chunker.chunk_id(0.0, 0.0)
        with pytest.raises(ValueError):
            small_chunker.sub_chunk_box(cid, 10**9)


class TestAssignment:
    def test_scalar_types(self, small_chunker):
        assert isinstance(small_chunker.chunk_id(10.0, 10.0), int)
        assert isinstance(small_chunker.sub_chunk_id(10.0, 10.0), int)

    def test_vector_shapes(self, small_chunker):
        cids = small_chunker.chunk_id(np.zeros(5), np.zeros(5))
        assert cids.shape == (5,)
        assert cids.dtype == np.int64

    def test_point_in_own_chunk_box(self, small_chunker):
        rng = np.random.default_rng(1)
        ra = rng.uniform(0, 360, 200)
        dec = np.rad2deg(np.arcsin(rng.uniform(-1, 1, 200)))
        cids = small_chunker.chunk_id(ra, dec)
        for r, d, cid in zip(ra, dec, cids):
            assert small_chunker.chunk_box(int(cid)).contains(r, d)

    def test_point_in_own_subchunk_box(self, small_chunker):
        rng = np.random.default_rng(2)
        ra = rng.uniform(0, 360, 200)
        dec = np.rad2deg(np.arcsin(rng.uniform(-1, 1, 200)))
        cids = small_chunker.chunk_id(ra, dec)
        scids = small_chunker.sub_chunk_id(ra, dec)
        for r, d, cid, scid in zip(ra, dec, cids, scids):
            assert small_chunker.sub_chunk_box(int(cid), int(scid)).contains(r, d)

    def test_chunk_ids_valid(self, small_chunker):
        rng = np.random.default_rng(3)
        ra = rng.uniform(0, 360, 500)
        dec = np.rad2deg(np.arcsin(rng.uniform(-1, 1, 500)))
        valid = set(small_chunker.all_chunks().tolist())
        assert set(small_chunker.chunk_id(ra, dec).tolist()) <= valid

    def test_poles_assigned(self, small_chunker):
        for dec in (-90.0, 90.0):
            cid = small_chunker.chunk_id(123.0, dec)
            assert small_chunker.chunk_box(cid).contains(123.0, dec)

    def test_ra_360_boundary(self, small_chunker):
        assert small_chunker.chunk_id(360.0, 0.0) == small_chunker.chunk_id(0.0, 0.0)

    @given(ras, decs)
    @settings(max_examples=80)
    def test_locate_consistency(self, ra, dec):
        ch = Chunker(18, 10, 0.05)
        loc = ch.locate(ra, dec)
        assert loc.chunk_id == ch.chunk_id(ra, dec)
        assert loc.sub_chunk_id == ch.sub_chunk_id(ra, dec)


class TestEnumeration:
    def test_all_chunks_sorted_unique(self, small_chunker):
        chunks = small_chunker.all_chunks()
        assert np.all(np.diff(chunks) > 0)
        assert len(chunks) == small_chunker.num_chunks

    def test_chunk_boxes_tile_each_stripe(self, small_chunker):
        """Within a stripe, chunk boxes cover the full RA circle w/o overlap."""
        stripe = 9  # equatorial-ish stripe
        cids = [c for c in small_chunker.all_chunks() if small_chunker.stripe_of_chunk(c) == stripe]
        boxes = [small_chunker.chunk_box(int(c)) for c in cids]
        total_ra = sum(b.ra_extent() for b in boxes)
        assert total_ra == pytest.approx(360.0)

    def test_subchunks_of_valid(self, small_chunker):
        cid = small_chunker.chunk_id(200.0, 40.0)
        subs = small_chunker.sub_chunks_of(cid)
        assert len(subs) >= small_chunker.num_sub_stripes
        for scid in subs:
            box = small_chunker.sub_chunk_box(cid, int(scid))
            assert box.area() > 0

    def test_subchunk_boxes_tile_chunk(self, small_chunker):
        """Sub-chunk areas sum to the chunk's area."""
        cid = small_chunker.chunk_id(10.0, 5.0)
        chunk_area = small_chunker.chunk_box(cid).area()
        total = sum(
            small_chunker.sub_chunk_box(cid, int(s)).area()
            for s in small_chunker.sub_chunks_of(cid)
        )
        assert total == pytest.approx(chunk_area, rel=1e-9)

    def test_chunk_areas_roughly_equal(self, paper_chunker):
        """Equal-area goal: most chunks within ~2x of the median area."""
        chunks = paper_chunker.all_chunks()
        rng = np.random.default_rng(0)
        sample = rng.choice(chunks, 300, replace=False)
        areas = np.array([paper_chunker.chunk_box(int(c)).area() for c in sample])
        med = np.median(areas)
        frac_within = np.mean((areas > med / 2) & (areas < med * 2))
        assert frac_within > 0.95


class TestRegionCoverage:
    def test_full_sky_covers_everything(self, small_chunker):
        ids = small_chunker.chunks_intersecting(SphericalBox.full_sky())
        assert len(ids) == small_chunker.num_chunks

    def test_small_box_few_chunks(self, paper_chunker):
        ids = paper_chunker.chunks_intersecting(SphericalBox(0, 0, 1, 1))
        assert 1 <= len(ids) <= 4

    def test_paper_example_box(self, paper_chunker):
        # qserv_areaspec_box(0, 0, 10, 10): 10x10 deg at the equator,
        # chunk ~2.1x2.1 deg -> roughly 5x5 = 25 chunks (+ boundary).
        ids = paper_chunker.chunks_intersecting(SphericalBox(0, 0, 10, 10))
        assert 25 <= len(ids) <= 42

    def test_coverage_is_conservative(self, small_chunker):
        """Every point in the region lands in a covered chunk."""
        region = SphericalBox(33, -21, 55, -3)
        ids = set(small_chunker.chunks_intersecting(region).tolist())
        rng = np.random.default_rng(5)
        ra = rng.uniform(33, 55, 400)
        dec = rng.uniform(-21, -3, 400)
        assert set(small_chunker.chunk_id(ra, dec).tolist()) <= ids

    def test_wrapping_region(self, small_chunker):
        region = SphericalBox(355, -5, 365, 5)
        ids = set(small_chunker.chunks_intersecting(region).tolist())
        pts = small_chunker.chunk_id(np.array([359.0, 1.0]), np.array([0.0, 0.0]))
        assert set(pts.tolist()) <= ids

    def test_circle_region(self, small_chunker):
        region = SphericalCircle(100, 30, 3)
        ids = set(small_chunker.chunks_intersecting(region).tolist())
        rng = np.random.default_rng(6)
        theta = rng.uniform(0, 2 * np.pi, 100)
        r = 3 * np.sqrt(rng.uniform(0, 1, 100))
        dec = 30 + r * np.sin(theta)
        ra = 100 + r * np.cos(theta) / np.cos(np.deg2rad(dec))
        from repro.sphgeom import angular_separation

        inside = angular_separation(100, 30, ra, dec) <= 3
        assert set(small_chunker.chunk_id(ra[inside], dec[inside]).tolist()) <= ids

    def test_subchunks_intersecting(self, small_chunker):
        cid = small_chunker.chunk_id(10.0, 5.0)
        box = small_chunker.chunk_box(cid)
        # Lower-left quarter of the chunk.
        region = SphericalBox(
            box.ra_min, box.dec_min, box.ra_min + box.ra_extent() / 4, box.dec_min + box.dec_extent() / 4
        )
        sub = small_chunker.sub_chunks_intersecting(cid, region)
        allsub = small_chunker.sub_chunks_of(cid)
        assert 0 < len(sub) < len(allsub)

    def test_empty_region(self, small_chunker):
        assert len(small_chunker.chunks_intersecting(SphericalBox.empty())) == 0


def exhaustive_sub_chunks(chunker, cid, region):
    """Every sub-chunk of the chunk put to the exact test."""
    return np.array(
        [
            int(scid)
            for scid in chunker.sub_chunks_of(cid)
            if region.relate(chunker.sub_chunk_box(cid, scid)) is not Relationship.DISJOINT
        ],
        dtype=np.int64,
    )


def regions_around(chunker, cid, rng):
    """Boxes, circles and triangles in and around the chunk, plus the edge cases."""
    box = chunker.chunk_box(cid)
    width, height = box.ra_extent(), box.dec_extent()
    for _ in range(12):
        ra = box.ra_min + rng.uniform(-0.6, 1.6) * width
        dec = float(np.clip(box.dec_min + rng.uniform(-0.6, 1.6) * height, -89.5, 89.5))
        w, h = rng.uniform(0.01, 0.8) * width, rng.uniform(0.01, 0.8) * height
        yield SphericalBox(ra, dec, ra + w, min(dec + h, 90.0))
        yield SphericalCircle(ra, dec, rng.uniform(0.01, 0.7) * height)
        if abs(dec) < 80:
            yield SphericalConvexPolygon([(ra, dec), (ra + w, dec), (ra + w / 2, dec + h)])
    # Covering the whole chunk, touching it edge to edge, and well clear of it.
    yield box.dilated(0.5 * height)
    yield box
    yield SphericalBox(box.ra_min + width, box.dec_min, box.ra_min + 2 * width, box.dec_max)
    yield SphericalBox(box.ra_min - width, box.dec_min, box.ra_min, box.dec_max)
    yield SphericalBox(box.ra_min, box.dec_max, box.ra_min + width, min(box.dec_max + 1, 90))
    yield SphericalBox(box.ra_min + 3 * width, box.dec_min, box.ra_min + 4 * width, box.dec_max)
    yield SphericalCircle(box.ra_min + 180.0, -box.dec_min, 0.5)
    yield SphericalBox(0.0, -90.0, 360.0, 90.0)
    yield SphericalBox.empty()


class TestSubChunkCoveragePruning:
    """``sub_chunks_intersecting`` tests only what the bounding box reaches."""

    @pytest.mark.parametrize(
        "ra, dec",
        [
            (10.0, 5.0),
            (0.5, 0.5),  # first chunk of its stripe: RA 0 is its left edge
            (359.5, -0.5),  # last chunk of its stripe: RA 360 is its right edge
            (359.9, 40.0),
            (120.0, 89.9),  # the polar caps: one chunk around the pole
            (300.0, -89.9),
            (45.0, 84.0),
            (200.0, -84.0),
        ],
    )
    @pytest.mark.parametrize("chunker", [Chunker(18, 10, 0.05), Chunker(85, 12, 0.01667)])
    def test_same_ids_as_testing_every_sub_chunk(self, chunker, ra, dec):
        cid = chunker.chunk_id(ra, dec)
        rng = np.random.default_rng([int(ra * 10), int(dec * 10) + 900])
        hits = 0
        for region in regions_around(chunker, cid, rng):
            expected = exhaustive_sub_chunks(chunker, cid, region)
            got = chunker.sub_chunks_intersecting(cid, region)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected, err_msg=repr(region))
            hits += len(expected) > 0
        assert hits >= 3  # the chunk itself, its dilation and the full sky

    def test_few_sub_chunk_boxes_are_built(self, paper_chunker, monkeypatch):
        cid = paper_chunker.chunk_id(1.0, 0.5)
        box = paper_chunker.chunk_box(cid)
        region = SphericalBox(
            box.ra_min + 0.5, box.dec_min + 0.5, box.ra_min + 0.8, box.dec_min + 0.8
        )
        built = []
        real = paper_chunker.sub_chunk_box
        monkeypatch.setattr(
            paper_chunker, "sub_chunk_box", lambda c, s: built.append(s) or real(c, s)
        )
        found = paper_chunker.sub_chunks_intersecting(cid, region)
        assert 4 <= len(found) <= 9
        assert len(built) <= 25 < len(paper_chunker.sub_chunks_of(cid))


class TestOverlap:
    def test_overlap_box_contains_chunk(self, small_chunker):
        cid = small_chunker.chunk_id(50.0, 20.0)
        from repro.sphgeom import Relationship

        assert (
            small_chunker.chunk_overlap_box(cid).relate(small_chunker.chunk_box(cid))
            is Relationship.CONTAINS
        )

    def test_overlap_membership(self, small_chunker):
        cid = small_chunker.chunk_id(50.0, 20.0)
        scid = small_chunker.sub_chunk_id(50.0, 20.0)
        box = small_chunker.sub_chunk_box(cid, scid)
        # A point just outside the sub-chunk's dec edge is overlap...
        ra_mid = box.ra_min + box.ra_extent() / 2
        just_out = box.dec_max + small_chunker.overlap / 2
        out = overlap_mask(small_chunker, cid, scid, [ra_mid], [just_out])
        assert out[0]
        # ...a point inside is not...
        dec_mid = (box.dec_min + box.dec_max) / 2
        inside = overlap_mask(small_chunker, cid, scid, [ra_mid], [dec_mid])
        assert not inside[0]
        # ...and a faraway point is not.
        far = overlap_mask(small_chunker, cid, scid, [ra_mid], [just_out + 5])
        assert not far[0]

    @given(ras, st.floats(min_value=-80, max_value=80))
    @settings(max_examples=40)
    def test_neighbors_within_overlap_are_covered(self, ra, dec):
        """A pair closer than `overlap` is joinable within one sub-chunk+overlap.

        For any point P, every point within the overlap radius of P lies
        either in P's sub-chunk or in that sub-chunk's dilated box -- the
        invariant that makes overlap-based near-neighbor joins exact.
        """
        ch = Chunker(18, 10, 0.05)
        cid = ch.chunk_id(ra, dec)
        scid = ch.sub_chunk_id(ra, dec)
        dilated = ch.sub_chunk_box(cid, scid).dilated(ch.overlap)
        eps = ch.overlap * 0.999
        for dra, ddec in ((eps, 0), (-eps, 0), (0, eps), (0, -eps)):
            d2 = np.clip(dec + ddec, -90, 90)
            assert dilated.contains(ra + dra, d2)
