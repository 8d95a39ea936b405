#!/usr/bin/env python3
"""Print the Liouville-Green coefficients c_k(mu) of the backward
recurrence's seed in src/atomdecoh/quadrature.py.

The ratios g_n = 2 J_(n+1) / J_n of the damped moments obey
g_(n-1) (mu + g_n) = 2n. With W = sqrt(mu^2 + 8(n+1)) the seed is

    g_n = W/2 - mu/2 + sum_k c_k(mu) W^-k,

and substituting it into the recurrence, where the W of g_(n-1) is
sqrt(W^2 - 8), gives every c_k in turn: multiplied by W^-2, both sides
are power series in x = 1/W, and c_k first enters at x^(k+1), with
coefficient 1 (once from each factor, times the other's leading 1/2), so
c_k is what the known terms leave at that order. The arithmetic is exact:
polynomials in mu with Fraction coefficients, no computer algebra.
quadrature.py holds the c_k as literals, coefficients of mu^0, mu^1, ...;
tests/test_moments.py checks that they equal this script's output.

Usage (from the repository root):

    python3 tests/make_seed_coeffs.py [K]

prints c_1 .. c_K (default 10).
"""

from __future__ import annotations

import sys
from fractions import Fraction

#: a polynomial in mu: a tuple of Fraction coefficients of mu^0, mu^1, ...


def _trim(p: list) -> tuple:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(p: tuple, q: tuple) -> tuple:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _pmul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _const(c) -> tuple:
    return _trim([Fraction(c)])


_MU = (Fraction(0), Fraction(1))


def _series_mul(s: list, t: list, order: int) -> list:
    """Product of two power series in x (lists of polynomials in mu), up to x^order."""
    out = [()] * (order + 1)
    for i, a in enumerate(s[:order + 1]):
        if a:
            for j, b in enumerate(t[:order + 1 - i]):
                out[i + j] = _padd(out[i + j], _pmul(a, b))
    return out


def _sqrt_one_minus_8x2(order: int) -> list:
    """s = sqrt(1 - 8 x^2) = sum_j binom(1/2, j) (-8)^j x^(2j), up to x^order."""
    out = [()] * (order + 1)
    term = Fraction(1)
    for j in range(order // 2 + 1):
        out[2 * j] = _const(term)
        term *= (Fraction(1, 2) - j) / (j + 1) * (-8)
    return out


def _series_inverse(s: list, order: int) -> list:
    """1/s for a series with constant term 1."""
    out = [()] * (order + 1)
    out[0] = _const(1)
    for m in range(1, order + 1):
        acc = ()
        for i in range(1, m + 1):
            acc = _padd(acc, _pmul(s[i], out[m - i]))
        out[m] = _pmul(_const(-1), acc)
    return out


def seed_coeffs(k_max: int = 10) -> list:
    """c_1 .. c_k_max, each a tuple of Fraction coefficients of mu^0, mu^1, ..."""
    order = k_max + 1
    s = _sqrt_one_minus_8x2(order)
    inv_s = _series_inverse(s, order)
    # x (mu + g_n) = 1/2 + mu x/2 + sum c_k x^(k+1) and
    # x g_(n-1) = s/2 - mu x/2 + sum c_k x^(k+1) s^-k; their product is
    # x^2 ((W^2 - mu^2)/4 - 2) = 1/4 - (mu^2/4 + 2) x^2
    rhs = [()] * (order + 1)
    rhs[0] = _const(Fraction(1, 4))
    rhs[2] = _padd(_pmul(_const(Fraction(-1, 4)), _pmul(_MU, _MU)), _const(-2))
    coeffs: list = []
    for k in range(1, k_max + 1):
        upper = [()] * (order + 1)
        lower = [()] * (order + 1)
        upper[0], upper[1] = _const(Fraction(1, 2)), _pmul(_const(Fraction(1, 2)), _MU)
        lower = [_pmul(_const(Fraction(1, 2)), c) for c in s]
        lower[1] = _padd(lower[1], _pmul(_const(Fraction(-1, 2)), _MU))
        power = [_const(1)] + [()] * order  # s^-j, built up j by j
        for j, c in enumerate(coeffs, start=1):
            power = _series_mul(power, inv_s, order)
            upper[j + 1] = _padd(upper[j + 1], c)
            shifted = [()] * (j + 1) + [_pmul(c, p) for p in power[:order - j]]
            lower = [_padd(a, b) for a, b in zip(lower, shifted)]
        # c_k enters at x^(k+1) with coefficient 1: it is the residual there
        product = _series_mul(lower, upper, order)
        residual = _padd(rhs[k + 1], _pmul(_const(-1), product[k + 1]))
        coeffs.append(residual)
    return coeffs


def as_ints(poly: tuple) -> tuple:
    """The coefficients of a c_k as ints; they all are."""
    assert all(c.denominator == 1 for c in poly)
    return tuple(int(c) for c in poly)


def main() -> None:
    k_max = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    for k, poly in enumerate(seed_coeffs(k_max), start=1):
        print(f"c_{k}: {as_ints(poly)}")


if __name__ == "__main__":
    main()
