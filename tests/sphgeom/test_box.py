"""Unit and property tests for SphericalBox, including RA wrap-around."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sphgeom import SphericalBox, Relationship

ras = st.floats(min_value=0.0, max_value=359.999, allow_nan=False)
decs = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
widths = st.floats(min_value=0.001, max_value=359.0, allow_nan=False)


def make_box(ra_min, dec_min, width, height):
    return SphericalBox(ra_min, dec_min, ra_min + width, min(dec_min + height, 90.0))


class TestContains:
    def test_simple_inside(self):
        box = SphericalBox(10, -5, 20, 5)
        assert box.contains(15, 0)

    def test_simple_outside_ra(self):
        box = SphericalBox(10, -5, 20, 5)
        assert not box.contains(25, 0)

    def test_simple_outside_dec(self):
        box = SphericalBox(10, -5, 20, 5)
        assert not box.contains(15, 10)

    def test_boundary_inclusive(self):
        box = SphericalBox(10, -5, 20, 5)
        assert box.contains(10, -5)
        assert box.contains(20, 5)

    def test_wrapping_box(self):
        # The PT1.1 footprint: RA 358..5.
        box = SphericalBox(358, -7, 365, 7)
        assert box.wraps
        assert box.contains(359, 0)
        assert box.contains(2, 0)
        assert not box.contains(180, 0)

    def test_full_sky_contains_everything(self):
        box = SphericalBox.full_sky()
        assert box.contains(0, 0)
        assert box.contains(359.9, 89.9)
        assert box.contains(123, -89.9)

    def test_empty_contains_nothing(self):
        box = SphericalBox.empty()
        assert box.is_empty
        assert not box.contains(0, 0)

    def test_vectorized(self):
        box = SphericalBox(0, 0, 10, 10)
        out = box.contains(np.array([5.0, 15.0]), np.array([5.0, 5.0]))
        np.testing.assert_array_equal(out, [True, False])

    def test_ra_input_unnormalized(self):
        box = SphericalBox(10, -5, 20, 5)
        assert box.contains(375.0, 0)  # 375 == 15

    @given(ras, decs)
    def test_full_sky_property(self, ra, dec):
        assert SphericalBox.full_sky().contains(ra, dec)


def contains_always_mod(box, ra, dec):
    """``SphericalBox.contains`` as it reads with ``np.mod`` on every call."""
    ra = np.asarray(ra, dtype=np.float64)
    dec = np.asarray(dec, dtype=np.float64)
    if box.is_empty:
        return np.zeros(np.broadcast(ra, dec).shape, dtype=bool)
    in_dec = (dec >= box.dec_min) & (dec <= box.dec_max)
    if box.full_ra:
        return in_dec
    ra_n = np.mod(ra, 360.0)
    if box.wraps:
        return in_dec & ((ra_n >= box.ra_min) | (ra_n <= box.ra_max))
    return in_dec & ((ra_n >= box.ra_min) & (ra_n <= box.ra_max))


class TestContainsSkipsTheModOnNormalizedInput:
    """RAs already in [0, 360) are compared as they are; the mask is the same."""

    BOXES = [
        SphericalBox(10, -5, 20, 5),
        SphericalBox(0, -5, 20, 5),  # its edge at RA 0
        SphericalBox(350, -5, 10, 5),  # wrapping
        SphericalBox(359.5, -1, 360.5, 1),  # as the czar words a wrap
        SphericalBox(0, -90, 360, 90),
        SphericalBox.empty(),
    ]
    RAS = {
        "normalized": [0.0, 5.0, 9.999, 10.0, 15.0, 20.0, 20.001, 355.0, 359.999],
        "negative": [-0.5, -350.0, 15.0, -10.0],
        "beyond 360": [370.0, 375.0, 720.0, 15.0, 359.0],
        "exactly 360": [360.0, 0.0, 10.0],
        "minus zero": [-0.0, 0.0, 15.0],
        "nan": [np.nan, 15.0, 0.0, 355.0],
        "nan only": [np.nan],
        "infinite": [np.inf, -np.inf, 15.0],
        "tiny negative": [-1e-300, 15.0],  # np.mod rounds it to 360.0
        "just below 360": [np.nextafter(360.0, 0.0), 0.0],
    }

    @pytest.mark.parametrize("box", BOXES, ids=repr)
    @pytest.mark.parametrize("ras", RAS.values(), ids=RAS.keys())
    def test_same_mask_as_always_mod(self, box, ras):
        ra = np.array(ras)
        for dec in (np.zeros(len(ra)), np.full(len(ra), 6.0), np.linspace(-5, 5, len(ra))):
            with np.errstate(invalid="ignore"):
                expected = contains_always_mod(box, ra, dec)
                got = box.contains(ra, dec)
            assert got.dtype == bool and got.shape == ra.shape
            np.testing.assert_array_equal(got, expected)
        # scalars take the same answer, as a bool
        for r in ras:
            with np.errstate(invalid="ignore"):
                got = box.contains(r, 0.0)
                assert isinstance(got, bool)
                assert got == bool(contains_always_mod(box, r, 0.0))

    @pytest.mark.parametrize("box", BOXES, ids=repr)
    def test_zero_length_and_2d_and_broadcast(self, box):
        empty = box.contains(np.array([]), np.array([]))
        assert empty.shape == (0,) and empty.dtype == bool
        ra = np.array([[5.0, 15.0], [355.0, 359.0]])
        np.testing.assert_array_equal(
            box.contains(ra, 0.0), contains_always_mod(box, ra, 0.0)
        )
        np.testing.assert_array_equal(
            box.contains(15.0, np.array([-6.0, 0.0])),
            contains_always_mod(box, 15.0, np.array([-6.0, 0.0])),
        )

    def test_the_input_is_not_modified(self):
        ra = np.array([5.0, 15.0, 355.0])
        ra.setflags(write=False)
        assert list(SphericalBox(10, -5, 20, 5).contains(ra, np.zeros(3))) == [False, True, False]

    @given(
        st.lists(
            st.one_of(st.floats(min_value=-800.0, max_value=800.0), st.just(np.nan)),
            max_size=12,
        ),
        ras,
        widths,
    )
    def test_property_same_as_always_mod(self, values, ra_min, width):
        box = make_box(ra_min, -10.0, width, 20.0)
        ra = np.array(values, dtype=np.float64)
        dec = np.zeros(len(ra))
        np.testing.assert_array_equal(
            box.contains(ra, dec), contains_always_mod(box, ra, dec)
        )


class TestExtentsAndArea:
    def test_ra_extent_plain(self):
        assert SphericalBox(10, 0, 30, 10).ra_extent() == pytest.approx(20)

    def test_ra_extent_wrap(self):
        assert SphericalBox(350, 0, 370, 10).ra_extent() == pytest.approx(20)

    def test_full_sky_area(self):
        # 4*pi steradians = 41252.96... deg^2
        assert SphericalBox.full_sky().area() == pytest.approx(41252.96, rel=1e-4)

    def test_equatorial_square_area(self):
        # A 1x1 deg box at the equator is slightly less than 1 deg^2.
        a = SphericalBox(0, -0.5, 1, 0.5).area()
        assert 0.999 < a < 1.0

    def test_polar_box_smaller_than_equatorial(self):
        eq = SphericalBox(0, 0, 10, 10).area()
        po = SphericalBox(0, 80, 10, 90).area()
        assert po < eq / 3  # severe distortion near the pole (sec 7.5)

    def test_empty_area(self):
        assert SphericalBox.empty().area() == 0.0


class TestRelate:
    def test_disjoint_ra(self):
        a = SphericalBox(0, 0, 10, 10)
        b = SphericalBox(20, 0, 30, 10)
        assert a.relate(b) is Relationship.DISJOINT

    def test_disjoint_dec(self):
        a = SphericalBox(0, 0, 10, 10)
        b = SphericalBox(0, 20, 10, 30)
        assert a.relate(b) is Relationship.DISJOINT

    def test_overlap(self):
        a = SphericalBox(0, 0, 10, 10)
        b = SphericalBox(5, 5, 15, 15)
        assert a.relate(b) is Relationship.INTERSECTS

    def test_contains(self):
        a = SphericalBox(0, 0, 20, 20)
        b = SphericalBox(5, 5, 10, 10)
        assert a.relate(b) is Relationship.CONTAINS
        assert b.relate(a) is Relationship.WITHIN

    def test_wrap_intersects_nonwrap(self):
        a = SphericalBox(350, 0, 370, 10)  # wraps
        b = SphericalBox(0, 0, 5, 10)
        assert a.relate(b) in (Relationship.INTERSECTS, Relationship.CONTAINS)
        assert a.intersects(b)

    def test_wrap_disjoint(self):
        a = SphericalBox(350, 0, 370, 10)
        b = SphericalBox(100, 0, 120, 10)
        assert a.relate(b) is Relationship.DISJOINT

    def test_full_sky_contains_all(self):
        full = SphericalBox.full_sky()
        b = SphericalBox(10, 10, 20, 20)
        assert full.relate(b) is Relationship.CONTAINS
        assert b.relate(full) is Relationship.WITHIN

    def test_empty_disjoint_from_everything(self):
        assert SphericalBox.empty().relate(SphericalBox.full_sky()) is Relationship.DISJOINT

    @given(ras, decs.filter(lambda d: d < 89), widths, widths)
    def test_self_relation_is_contains(self, ra, dec, w, h):
        box = make_box(ra, dec, w, h)
        assert box.relate(box) is Relationship.CONTAINS

    @given(ras, st.floats(min_value=-85, max_value=75), ras, st.floats(min_value=-85, max_value=75))
    def test_relate_consistent_with_point_sampling(self, ra1, dec1, ra2, dec2):
        a = make_box(ra1, dec1, 15, 10)
        b = make_box(ra2, dec2, 15, 10)
        if a.relate(b) is Relationship.DISJOINT:
            # No sampled point of b may fall inside a.
            rs = np.linspace(0, b.ra_extent(), 8) + b.ra_min
            ds = np.linspace(b.dec_min, b.dec_max, 8)
            rr, dd = np.meshgrid(rs, ds)
            assert not a.contains(rr.ravel(), dd.ravel()).any()


class TestDilated:
    def test_zero_radius_is_identity(self):
        box = SphericalBox(10, 0, 20, 10)
        assert box.dilated(0.0) == box

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            SphericalBox(10, 0, 20, 10).dilated(-1.0)

    def test_dec_grows_by_radius(self):
        d = SphericalBox(10, 0, 20, 10).dilated(1.0)
        assert d.dec_min == pytest.approx(-1.0)
        assert d.dec_max == pytest.approx(11.0)

    def test_dec_clamped_at_pole(self):
        d = SphericalBox(10, 85, 20, 89).dilated(5.0)
        assert d.dec_max == 90.0

    def test_ra_grows_at_least_radius(self):
        d = SphericalBox(10, 0, 20, 10).dilated(1.0)
        assert d.ra_extent() >= 12.0

    def test_near_pole_becomes_full_circle(self):
        d = SphericalBox(10, 88, 20, 89.5).dilated(1.0)
        assert d.full_ra

    def test_contains_original(self):
        box = SphericalBox(10, 0, 20, 10)
        assert box.dilated(2.0).relate(box) is Relationship.CONTAINS

    @given(ras, st.floats(min_value=-80, max_value=70), st.floats(min_value=0.01, max_value=5.0))
    def test_dilation_covers_nearby_points(self, ra, dec, radius):
        """Any point within `radius` of the box boundary is in the dilated box.

        This is the correctness guarantee that makes overlap-based spatial
        joins exact (paper section 4.4).
        """
        box = make_box(ra, dec, 10, 8)
        dil = box.dilated(radius)
        # Probe points displaced from box corners by slightly less than radius.
        eps = radius * 0.999
        for cra in (box.ra_min, box.ra_max):
            for cdec in (box.dec_min, box.dec_max):
                assert dil.contains(cra, min(max(cdec + eps, -90), 90))
                assert dil.contains(cra, min(max(cdec - eps, -90), 90))
                # RA displacement scaled to the local parallel circle.
                cosd = math.cos(math.radians(cdec))
                if cosd > 0.05:
                    assert dil.contains(cra + eps / cosd * 0.999, cdec)
                    assert dil.contains(cra - eps / cosd * 0.999, cdec)


class TestDunder:
    def test_eq_and_hash(self):
        a = SphericalBox(1, 2, 3, 4)
        b = SphericalBox(1, 2, 3, 4)
        assert a == b
        assert hash(a) == hash(b)

    def test_neq(self):
        assert SphericalBox(1, 2, 3, 4) != SphericalBox(1, 2, 3, 5)

    def test_repr_roundtrip_info(self):
        r = repr(SphericalBox(350, 0, 370, 10))
        assert "wraps" in r

    def test_empty_boxes_equal(self):
        assert SphericalBox.empty() == SphericalBox.empty()
