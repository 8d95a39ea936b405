#!/usr/bin/env python3
"""Print the coefficients of Weideman's rational approximation of the
Faddeeva function w(z) = exp(-z^2) erfc(-iz), Im z >= 0
(J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)):

    w(z) = 2 p(Z) / (L - iz)^2 + (1/sqrt(pi)) / (L - iz),
    Z = (L + iz) / (L - iz),  L = sqrt(N / sqrt(2)),

p a polynomial of degree N - 1. Its coefficients are those of the Fourier
series of f(t) = exp(-t^2) (L^2 + t^2) in theta, t = L tan(theta / 2),
sampled by numpy's FFT at 4N - 1 points. src/atomdecoh/quadrature.py holds
them as literals, highest power first, and tests/test_faddeeva.py checks
that they equal this script's output.

Usage (from the repository root):

    python3 tests/make_faddeeva_coeffs.py
"""

from __future__ import annotations

import math

import numpy as np

N = 40


def faddeeva_coeffs(n: int = N) -> tuple[float, tuple[float, ...]]:
    """L and the n coefficients of p, highest power first."""
    m = 2 * n
    big_l = math.sqrt(n / math.sqrt(2.0))
    theta = np.arange(-m + 1, m) * math.pi / m
    t = big_l * np.tan(theta / 2.0)
    f = np.concatenate(([0.0], np.exp(-t * t) * (big_l * big_l + t * t)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    return big_l, tuple(float(c) for c in a[n:0:-1])


def main() -> None:
    big_l, coeffs = faddeeva_coeffs()
    print(f"_FADDEEVA_L = {big_l!r}")
    print("_FADDEEVA_COEFFS = (")
    for c in coeffs:
        print(f"    {c!r},")
    print(")")


if __name__ == "__main__":
    main()
