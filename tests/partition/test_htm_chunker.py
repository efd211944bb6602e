"""Tests for the HTM-based chunker (section 7.5 alternate partitioning)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import HtmChunker
from repro.sphgeom import SphericalBox, SphericalCircle

from .test_overlap_members import overlap_mask

ras = st.floats(min_value=0.0, max_value=359.999, allow_nan=False)
decs = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False)


@pytest.fixture(scope="module")
def chunker():
    return HtmChunker(chunk_level=3, sub_level=2, overlap=0.05)


class TestConstruction:
    def test_counts(self, chunker):
        assert chunker.num_chunks == 8 * 4**3
        assert len(chunker.sub_chunks_of(int(chunker.all_chunks()[0]))) == 16

    def test_paper_scale_config(self):
        # Level 5 gives 8192 chunks, comparable to the paper's 8983.
        assert HtmChunker(chunk_level=5).num_chunks == 8192

    def test_bad_args(self):
        with pytest.raises(ValueError):
            HtmChunker(sub_level=0)
        with pytest.raises(ValueError):
            HtmChunker(overlap=-1)

    def test_invalid_ids_rejected(self, chunker):
        with pytest.raises(ValueError):
            chunker.chunk_box(3)
        with pytest.raises(ValueError):
            chunker.sub_chunk_box(int(chunker.all_chunks()[0]), 999)


class TestAssignment:
    def test_chunk_ids_are_htm_ids(self, chunker):
        cid = chunker.chunk_id(10.0, 10.0)
        lo, hi = chunker._coarse.id_range()
        assert lo <= cid < hi

    def test_subchunk_relative_range(self, chunker):
        rng = np.random.default_rng(1)
        ra = rng.uniform(0, 360, 300)
        dec = np.rad2deg(np.arcsin(rng.uniform(-1, 1, 300)))
        scids = chunker.sub_chunk_id(ra, dec)
        assert scids.min() >= 0 and scids.max() < 16

    def test_hierarchy_consistency(self, chunker):
        """fine id = chunk id * 16 + sub id, by HTM construction."""
        rng = np.random.default_rng(2)
        ra = rng.uniform(0, 360, 200)
        dec = np.rad2deg(np.arcsin(rng.uniform(-1, 1, 200)))
        cids = chunker.chunk_id(ra, dec)
        scids = chunker.sub_chunk_id(ra, dec)
        fine = chunker._fine.index_points(ra, dec)
        np.testing.assert_array_equal(fine, cids * 16 + scids)

    def test_point_inside_chunk_bounding_circle(self, chunker):
        rng = np.random.default_rng(3)
        ra = rng.uniform(0, 360, 100)
        dec = np.rad2deg(np.arcsin(rng.uniform(-1, 1, 100)))
        cids = chunker.chunk_id(ra, dec)
        for r, d, c in zip(ra, dec, cids):
            assert chunker.chunk_box(int(c)).contains(r, d)


class TestCoverage:
    def test_full_sky(self, chunker):
        ids = chunker.chunks_intersecting(SphericalBox.full_sky())
        assert len(ids) == chunker.num_chunks

    def test_conservative(self, chunker):
        region = SphericalBox(20, 10, 40, 25)
        covered = set(chunker.chunks_intersecting(region).tolist())
        rng = np.random.default_rng(4)
        ra = rng.uniform(20, 40, 300)
        dec = rng.uniform(10, 25, 300)
        assert set(chunker.chunk_id(ra, dec).tolist()) <= covered

    def test_sub_chunks_intersecting_subset(self, chunker):
        region = SphericalCircle(45, 20, 1.0)
        for cid in chunker.chunks_intersecting(region):
            subs = chunker.sub_chunks_intersecting(int(cid), region)
            assert set(subs.tolist()) <= set(chunker.sub_chunks_of(int(cid)).tolist())

    def test_small_region_few_subchunks(self, chunker):
        region = SphericalCircle(45, 20, 0.2)
        cid = int(chunker.chunk_id(45.0, 20.0))
        subs = chunker.sub_chunks_intersecting(cid, region)
        assert 0 < len(subs) < 16


class TestOverlap:
    @given(ras, decs)
    @settings(max_examples=40, deadline=None)
    def test_neighbors_within_overlap_covered(self, ra, dec):
        """The section 4.4 exactness contract, HTM edition."""
        ch = HtmChunker(3, 2, 0.05)
        cid = int(ch.chunk_id(ra, dec))
        scid = int(ch.sub_chunk_id(ra, dec))
        dilated = ch.sub_chunk_box(cid, scid).dilated(ch.overlap)
        eps = ch.overlap * 0.999
        for dra, ddec in ((eps, 0), (-eps, 0), (0, eps), (0, -eps)):
            d2 = float(np.clip(dec + ddec, -90, 90))
            cosd = np.cos(np.deg2rad(dec))
            r2 = ra + dra / max(cosd, 1e-6) * 0.99 if dra else ra
            assert dilated.contains(r2, d2)

    def test_overlap_rows_outside_subchunk(self, chunker):
        rng = np.random.default_rng(5)
        ra = rng.uniform(0, 360, 500)
        dec = np.rad2deg(np.arcsin(rng.uniform(-1, 1, 500)))
        cid = int(chunker.chunk_id(100.0, 30.0))
        scid = int(chunker.sub_chunk_id(100.0, 30.0))
        mask = overlap_mask(chunker, cid, scid, ra, dec)
        fine = chunker._fine.index_points(ra, dec)
        target = cid * 16 + scid
        # No overlap row may be inside the sub-chunk itself.
        assert not np.any(mask & (fine == target))

    def test_scalarish_inputs(self, chunker):
        cid = int(chunker.chunk_id(10.0, 10.0))
        scid = int(chunker.sub_chunk_id(10.0, 10.0))
        out = overlap_mask(chunker, cid, scid, np.array([10.0]), np.array([10.0]))
        assert out.shape == (1,)
        assert not out[0]  # the point is inside, not overlap


class TestFullStackOnHtm:
    """The whole distributed system on the alternate partitioning."""

    @pytest.fixture(scope="class")
    def tb(self):
        from repro.data import build_testbed

        return build_testbed(
            num_workers=3, num_objects=1000, seed=19, chunker=HtmChunker(3, 2, 0.05)
        )

    def test_count(self, tb):
        r = tb.query("SELECT COUNT(*) FROM Object")
        assert int(r.table.column("COUNT(*)")[0]) == 1000

    def test_secondary_index_lv1(self, tb):
        oid = int(tb.tables["Object"].column("objectId")[7])
        r = tb.query(f"SELECT * FROM Object WHERE objectId = {oid}")
        assert r.table.num_rows == 1
        assert r.stats.chunks_dispatched == 1

    def test_region_aggregate(self, tb):
        obj = tb.tables["Object"]
        box = SphericalBox(0, 0, 10, 10)
        mask = box.contains(obj.column("ra_PS"), obj.column("decl_PS"))
        r = tb.query(
            "SELECT AVG(uFlux_SG) FROM Object WHERE qserv_areaspec_box(0, 0, 10, 10)"
        )
        assert r.table.column("AVG(uFlux_SG)")[0] == pytest.approx(
            obj.column("uFlux_SG")[mask].mean(), rel=1e-12
        )

    def test_near_neighbor_exact(self, tb):
        from repro.sphgeom import angular_separation

        obj = tb.tables["Object"]
        ra, dec = obj.column("ra_PS"), obj.column("decl_PS")
        dist = tb.chunker.overlap * 0.9
        r = tb.query(
            "SELECT count(*) FROM Object o1, Object o2 "
            "WHERE qserv_areaspec_box(0, -7, 5, 0) "
            f"AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {dist}"
        )
        left = np.flatnonzero(SphericalBox(0, -7, 5, 0).contains(ra, dec))
        sep = angular_separation(
            ra[left][:, None], dec[left][:, None], ra[None, :], dec[None, :]
        )
        assert int(r.table.column("count(*)")[0]) == int(np.count_nonzero(sep < dist))

    def test_join_object_source(self, tb):
        oid = int(tb.tables["Object"].column("objectId")[3])
        src = tb.tables["Source"]
        expected = int(np.count_nonzero(src.column("objectId") == oid))
        r = tb.query(
            "SELECT s.sourceId FROM Object o, Source s "
            f"WHERE o.objectId = s.objectId AND o.objectId = {oid}"
        )
        assert r.table.num_rows == expected
