"""Unit and property tests for repro.sphgeom.coords."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sphgeom import (
    angular_separation,
    normalize_dec,
    normalize_ra,
    unit_vector,
    vector_to_radec,
)
from repro.sphgeom.coords import angular_separation_vectors

ras = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)
decs = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)


class TestNormalizeRa:
    def test_identity_in_range(self):
        assert normalize_ra(123.4) == pytest.approx(123.4)

    def test_wraps_above_360(self):
        assert normalize_ra(365.0) == pytest.approx(5.0)

    def test_wraps_negative(self):
        assert normalize_ra(-10.0) == pytest.approx(350.0)

    def test_360_maps_to_zero(self):
        assert normalize_ra(360.0) == 0.0

    def test_vectorized(self):
        out = normalize_ra(np.array([0.0, 360.0, -90.0, 720.5]))
        np.testing.assert_allclose(out, [0.0, 0.0, 270.0, 0.5])

    @given(ras)
    def test_always_in_range(self, ra):
        out = normalize_ra(ra)
        assert 0.0 <= out < 360.0

    @given(ras)
    def test_idempotent(self, ra):
        once = normalize_ra(ra)
        assert normalize_ra(once) == pytest.approx(once)

    @pytest.mark.parametrize(
        "ra",
        [0.0, -0.0, 360.0, -360.0, 359.99999999999994, -1e-300, -1e-17, 1e-17, 5e-324,
         720.5, -720.5, 1e17, -1e17, math.inf, -math.inf, math.nan, 7, -7, True,
         np.float64(-10.0), np.float64(360.0)],
    )
    def test_a_scalar_is_the_one_element_array_bit_for_bit(self, ra):
        scalar = normalize_ra(ra)
        with np.errstate(invalid="ignore"):  # inf
            (element,) = normalize_ra(np.array([ra], dtype=np.float64))
        assert type(scalar) is float
        assert np.float64(scalar).tobytes() == element.tobytes()  # NaN and the zero's sign too

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_any_scalar_is_the_one_element_array(self, ra):
        with np.errstate(invalid="ignore"):
            (element,) = normalize_ra(np.array([ra]))
        assert np.float64(normalize_ra(ra)).tobytes() == element.tobytes()


class TestNormalizeDec:
    def test_clamps_low(self):
        assert normalize_dec(-95.0) == -90.0

    def test_clamps_high(self):
        assert normalize_dec(95.0) == 90.0

    def test_identity(self):
        assert normalize_dec(12.5) == 12.5

    def test_vectorized(self):
        out = normalize_dec(np.array([-100.0, 0.0, 100.0]))
        np.testing.assert_allclose(out, [-90.0, 0.0, 90.0])


class TestUnitVector:
    def test_origin(self):
        np.testing.assert_allclose(unit_vector(0.0, 0.0), [1.0, 0.0, 0.0], atol=1e-15)

    def test_north_pole(self):
        np.testing.assert_allclose(unit_vector(0.0, 90.0), [0.0, 0.0, 1.0], atol=1e-15)

    def test_ra_90(self):
        np.testing.assert_allclose(unit_vector(90.0, 0.0), [0.0, 1.0, 0.0], atol=1e-15)

    def test_batch_shape(self):
        v = unit_vector(np.zeros(7), np.zeros(7))
        assert v.shape == (7, 3)

    @given(ras, decs)
    def test_unit_norm(self, ra, dec):
        v = unit_vector(ra, dec)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    @given(ras, decs)
    def test_roundtrip(self, ra, dec):
        v = unit_vector(ra, dec)
        ra2, dec2 = vector_to_radec(v)
        # Compare via separation: ra is degenerate at the poles.
        assert angular_separation(ra, dec, ra2, dec2) < 1e-7


class TestAngularSeparation:
    def test_zero(self):
        assert angular_separation(10.0, 20.0, 10.0, 20.0) == 0.0

    def test_equator_quarter(self):
        assert angular_separation(0.0, 0.0, 90.0, 0.0) == pytest.approx(90.0)

    def test_antipodal(self):
        assert angular_separation(0.0, 0.0, 180.0, 0.0) == pytest.approx(180.0)

    def test_pole_to_pole(self):
        assert angular_separation(12.0, 90.0, 300.0, -90.0) == pytest.approx(180.0)

    def test_meridian_crossing(self):
        # Across the RA wrap, only 2 degrees apart.
        assert angular_separation(359.0, 0.0, 1.0, 0.0) == pytest.approx(2.0)

    def test_small_separation_precision(self):
        # 0.36 milliarcsec; the naive arccos formulation collapses to 0 here.
        sep = angular_separation(0.0, 0.0, 1e-7, 0.0)
        assert sep == pytest.approx(1e-7, rel=1e-6)

    def test_broadcast(self):
        seps = angular_separation(0.0, 0.0, np.array([0.0, 90.0, 180.0]), 0.0)
        np.testing.assert_allclose(seps, [0.0, 90.0, 180.0])

    @given(ras, decs, ras, decs)
    def test_symmetry(self, ra1, dec1, ra2, dec2):
        s12 = angular_separation(ra1, dec1, ra2, dec2)
        s21 = angular_separation(ra2, dec2, ra1, dec1)
        assert s12 == pytest.approx(s21, abs=1e-9)

    @given(ras, decs, ras, decs)
    def test_range(self, ra1, dec1, ra2, dec2):
        s = angular_separation(ra1, dec1, ra2, dec2)
        assert 0.0 <= s <= 180.0

    @given(ras, decs, ras, decs)
    def test_matches_vector_form(self, ra1, dec1, ra2, dec2):
        s = angular_separation(ra1, dec1, ra2, dec2)
        sv = angular_separation_vectors(unit_vector(ra1, dec1), unit_vector(ra2, dec2))
        assert s == pytest.approx(sv, abs=1e-8)

    @settings(max_examples=50)
    @given(ras, decs, ras, decs, ras, decs)
    def test_triangle_inequality(self, ra1, dec1, ra2, dec2, ra3, dec3):
        s12 = angular_separation(ra1, dec1, ra2, dec2)
        s23 = angular_separation(ra2, dec2, ra3, dec3)
        s13 = angular_separation(ra1, dec1, ra3, dec3)
        assert s13 <= s12 + s23 + 1e-9


def _separation_both_ways(ra1, dec1, ra2, dec2):
    """The separation as computed before pairs past 90 degrees were split off:
    both haversines of every pair, one picked by ``np.where``."""
    ra1, dec1, ra2, dec2 = (np.deg2rad(np.asarray(a, dtype=np.float64)) for a in (ra1, dec1, ra2, dec2))
    sin_ddec = np.sin((dec2 - dec1) * 0.5)
    half_dra = (ra2 - ra1) * 0.5
    sin_dra = np.sin(half_dra)
    cos_cos = np.cos(dec1) * np.cos(dec2)
    h = sin_ddec * sin_ddec + cos_cos * sin_dra * sin_dra
    sin_sdec = np.sin((dec2 + dec1) * 0.5)
    cos_dra = np.cos(half_dra)
    h_anti = sin_sdec * sin_sdec + cos_cos * cos_dra * cos_dra
    far = h > 0.5
    sep = 2.0 * np.arcsin(np.sqrt(np.clip(np.where(far, h_anti, h), 0.0, 1.0)))
    return np.rad2deg(np.where(far, np.pi - sep, sep))


# Poles, the RA wrap, and points a hair from either.
_edges = st.sampled_from([0.0, 360.0, -0.0, 1e-12, 359.999999999, 180.0, -180.0])
_pole_decs = st.sampled_from([90.0, -90.0, 89.9999999, -89.9999999, 0.0])


class TestAngularSeparationOracle:
    """Bit-identical to computing both haversines of every pair (Hypothesis)."""

    EXAMPLES = int(os.environ.get("GENTEST_EXAMPLES", 100))

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        st.lists(st.tuples(ras | _edges, decs | _pole_decs, ras | _edges, decs | _pole_decs),
                 min_size=1, max_size=40),
    )
    def test_columns(self, pairs):
        cols = [np.array(c) for c in zip(*pairs)]
        np.testing.assert_array_equal(angular_separation(*cols), _separation_both_ways(*cols))

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(ras | _edges, decs | _pole_decs, st.lists(st.tuples(ras, decs), min_size=1, max_size=20))
    def test_one_point_against_a_column(self, ra, dec, points):
        ra2, dec2 = (np.array(c) for c in zip(*points))
        got = angular_separation(ra, dec, ra2, dec2)
        np.testing.assert_array_equal(got, _separation_both_ways(ra, dec, ra2, dec2))
        # Scalars give a float, bit for bit the column's entry.
        assert angular_separation(ra, dec, float(ra2[0]), float(dec2[0])) == got[0]

    def test_past_ninety_degrees_and_antipodes(self):
        ra2 = np.array([180.0, 179.9, 0.0, 90.0, 270.0, 12.0])
        dec2 = np.array([0.0, -0.1, -90.0, 45.0, -45.0, 89.0])
        got = angular_separation(0.0, 0.0, ra2, dec2)
        np.testing.assert_array_equal(got, _separation_both_ways(0.0, 0.0, ra2, dec2))
        assert got[0] == 180.0
