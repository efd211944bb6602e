"""Angle handling and angular-separation kernels.

All public functions are vectorized over NumPy arrays and accept plain
Python scalars; angles are in degrees unless a name says otherwise.  The
separation kernel is the single hottest primitive in the system -- every
near-neighbor join predicate (``qserv_angSep``) reduces to it -- so it
is written to avoid temporaries where practical and to stay numerically
stable for very small separations (the haversine form, not the naive
``arccos`` dot product, which loses all precision below ~1e-4 rad).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize_ra",
    "normalize_dec",
    "unit_vector",
    "vector_to_radec",
    "angular_separation",
    "angular_separation_vectors",
    "MAX_DEC",
    "MIN_DEC",
]

MIN_DEC = -90.0
MAX_DEC = 90.0


def normalize_ra(ra):
    """Map right ascension(s) into ``[0, 360)`` degrees.

    Works for scalars and arrays; ``360.0`` maps to ``0.0``.
    """
    # The modulo of a tiny negative value rounds to exactly 360.0; fold
    # it back so the result is always strictly below 360 (and -0.0 ->
    # 0.0).
    if isinstance(ra, (float, int)):
        # A box corner: float's % is np.mod's arithmetic at a twentieth
        # of the cost, and every sub-chunk the czar tests builds a box.
        out = float(ra) % 360.0
        return 0.0 if out >= 360.0 else out + 0.0
    ra = np.asarray(ra, dtype=np.float64)
    out = np.mod(ra, 360.0)
    out = np.where(out >= 360.0, 0.0, out) + 0.0
    if out.ndim == 0:
        return float(out)
    return out


def normalize_dec(dec):
    """Clamp declination(s) into ``[-90, +90]`` degrees."""
    dec = np.asarray(dec, dtype=np.float64)
    out = np.clip(dec, MIN_DEC, MAX_DEC)
    if out.ndim == 0:
        return float(out)
    return out


def unit_vector(ra, dec):
    """Convert (ra, dec) in degrees to unit 3-vectors.

    Returns an array of shape ``(..., 3)``; scalar inputs give shape
    ``(3,)``.
    """
    ra_r = np.deg2rad(np.asarray(ra, dtype=np.float64))
    dec_r = np.deg2rad(np.asarray(dec, dtype=np.float64))
    cos_dec = np.cos(dec_r)
    return np.stack(
        [cos_dec * np.cos(ra_r), cos_dec * np.sin(ra_r), np.sin(dec_r)],
        axis=-1,
    )


def vector_to_radec(v):
    """Convert unit 3-vectors of shape ``(..., 3)`` back to (ra, dec) degrees.

    The returned right ascension is normalized into ``[0, 360)``.
    """
    v = np.asarray(v, dtype=np.float64)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    ra = np.rad2deg(np.arctan2(y, x))
    norm = np.sqrt(x * x + y * y + z * z)
    # Guard the poles: arcsin argument must stay in [-1, 1].
    dec = np.rad2deg(np.arcsin(np.clip(z / norm, -1.0, 1.0)))
    return normalize_ra(ra), dec if dec.ndim else float(dec)


def angular_separation(ra1, dec1, ra2, dec2):
    """Great-circle separation between points, in degrees.

    Uses the haversine formula, ``2 * arcsin(sqrt(h))``, for numerical
    stability at small separations.  Past 90 degrees ``arcsin`` loses
    half the digits as ``h`` nears 1, so there the separation is 180
    degrees less the one from the antipode of the second point, whose
    haversine ``1 - h`` is a sum of non-negative terms of its own.  All
    four arguments broadcast against each other, so a single probe
    point can be compared against a whole column in one call.  This is
    the implementation behind the ``qserv_angSep`` SQL UDF.
    """
    ra1 = np.deg2rad(np.asarray(ra1, dtype=np.float64))
    dec1 = np.deg2rad(np.asarray(dec1, dtype=np.float64))
    ra2 = np.deg2rad(np.asarray(ra2, dtype=np.float64))
    dec2 = np.deg2rad(np.asarray(dec2, dtype=np.float64))

    sin_ddec = np.sin((dec2 - dec1) * 0.5)
    half_dra = (ra2 - ra1) * 0.5
    sin_dra = np.sin(half_dra)
    cos_cos = np.cos(dec1) * np.cos(dec2)
    h = sin_ddec * sin_ddec + cos_cos * sin_dra * sin_dra
    sep = np.asarray(2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0))))
    far = h > 0.5
    if far.any():
        # Only the pairs past 90 degrees pay for their antipodes.
        dec1, dec2, half_dra, cos_cos = (
            np.broadcast_to(a, far.shape)[far] for a in (dec1, dec2, half_dra, cos_cos)
        )
        sin_sdec = np.sin((dec2 + dec1) * 0.5)
        cos_dra = np.cos(half_dra)
        h_anti = sin_sdec * sin_sdec + cos_cos * cos_dra * cos_dra
        sep[far] = np.pi - 2.0 * np.arcsin(np.sqrt(np.clip(h_anti, 0.0, 1.0)))
    out = np.rad2deg(sep)
    if out.ndim == 0:
        return float(out)
    return out


def angular_separation_vectors(v1, v2):
    """Separation in degrees between unit vectors of shape ``(..., 3)``.

    Stable form based on ``atan2(|v1 x v2|, v1 . v2)``; useful when unit
    vectors are already in hand (e.g. HTM trixel tests).
    """
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    cross = np.cross(v1, v2)
    cross_norm = np.sqrt(np.sum(cross * cross, axis=-1))
    dot = np.sum(v1 * v2, axis=-1)
    out = np.rad2deg(np.arctan2(cross_norm, dot))
    if out.ndim == 0:
        return float(out)
    return out
