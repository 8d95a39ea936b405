"""The in-package Faddeeva function w(z) = exp(-z^2) erfc(-iz) behind the
damped moments' seed J_0 = (sqrt(pi)/2) w(i mu/2), against mpmath at 30
significant digits: Weideman's rational approximation on the closed upper
half-plane, and the closed form erfcx(y) = w(iy) that real b takes."""

import math

import mpmath as mp
import numpy as np
import pytest

from atomdecoh.quadrature import _FADDEEVA_COEFFS, _FADDEEVA_L, _erfcx, _faddeeva
from make_faddeeva_coeffs import faddeeva_coeffs

DPS = 30


def ref_w(z):
    with mp.workdps(DPS):
        z = mp.mpc(z)
        return complex(mp.exp(-z * z) * mp.erfc(-1j * z))


def ref_erfcx(y):
    with mp.workdps(DPS):
        y = mp.mpf(y)
        return float(mp.exp(y * y) * mp.erfc(y))


def _upper_half_plane(seed, n, radius):
    """|z| <= radius with Im z >= 0: |z| = radius u^3, dense near 0, and a
    uniform argument in [0, pi]."""
    rng = np.random.default_rng(seed)
    r = radius * rng.random(n) ** 3
    phi = math.pi * rng.random(n)
    return [complex(x) for x in r * np.exp(1j * phi)]


#: along the real axis and just above it
_NEAR_AXIS = [complex(x, y) for x in np.linspace(-20.0, 20.0, 161) for y in (0.0, 1e-10, 1e-3)]


def test_coefficients_are_the_generator_output():
    assert (_FADDEEVA_L, _FADDEEVA_COEFFS) == faddeeva_coeffs()


@pytest.mark.parametrize("points", [_upper_half_plane(20261018, 600, 20.0), _NEAR_AXIS],
                         ids=["upper_half_plane", "near_real_axis"])
def test_faddeeva_matches_mpmath(points):
    worst = max(abs(_faddeeva(z) - ref_w(z)) / abs(ref_w(z)) for z in points)
    assert worst <= 2e-15


def test_faddeeva_array_equals_scalar_calls():
    points = _upper_half_plane(7, 400, 30.0) + _NEAR_AXIS
    got = _faddeeva(np.array(points))
    assert list(got) == [_faddeeva(z) for z in points]


def test_erfcx_matches_mpmath():
    rng = np.random.default_rng(11)
    ys = [0.0, 1e-300, 1e-10, 1e-3] + list(np.linspace(0.0, 20.0, 201)) + list(
        20.0 * rng.random(300))
    worst = max(abs(_erfcx(float(y)) - ref_erfcx(y)) / ref_erfcx(y) for y in ys)
    assert worst <= 1e-14
