"""Accuracy of the closed-form damped moments, and of the purity, the
momentum density and the spectral weight built on them, against mpmath at
40 significant digits (300 for the spectral weight), and the moment orders
the library asks for."""

import cmath
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from atomdecoh import cli, density, momentum, quadrature, scattering
from atomdecoh.density import purity
from atomdecoh.momentum import momentum_density
from atomdecoh.quadrature import damped_moments
from atomdecoh.scattering import ScatteringConfig, angular_scan, tau_transform
from make_seed_coeffs import as_ints, seed_coeffs
from oracles import real_moments_in_complex
from test_xsection_engine import _README_COMMANDS

DPS = 40

#: (1 + s + s^2/3)^2 in powers of s, as (numerator, denominator)
KERNEL_SQ = ((1, 1), (2, 1), (5, 3), (2, 3), (1, 9))


def _mp_moments(b, a, n_max):
    """I_0..I_n_max at the current mpmath precision: erfc seed, then the
    upward recurrence, exact enough once the caller has added the digits it
    cancels (``_extra_digits``)."""
    b = mp.mpc(b)
    a = mp.mpf(a)
    root = mp.sqrt(a)
    moments = [mp.sqrt(mp.pi) / (2 * root) * mp.exp(b * b / (4 * a)) * mp.erfc(b / (2 * root))]
    if n_max >= 1:
        moments.append((1 - b * moments[0]) / (2 * a))
    for n in range(2, n_max + 1):
        moments.append(((n - 1) * moments[n - 2] - b * moments[n - 1]) / (2 * a))
    return moments


def _extra_digits(b, a, n_max):
    return int((n_max + 1) * math.log10(abs(b) ** 2 / a + 2.0)) + 10


def ref_moments(b, a, n_max):
    with mp.workdps(DPS + _extra_digits(b, a, n_max)):
        return [complex(m) for m in _mp_moments(b, a, n_max)]


def ref_momentum(q, z0):
    a = z0 * z0 / 8.0
    with mp.workdps(DPS + _extra_digits(1.0 + q, a, 4)):
        if q == 0.0:
            m = _mp_moments(1, a, 4)
            return float((m[2] + m[3] + m[4] / 3).real / (2 * mp.pi**2))
        m = _mp_moments(mp.mpc(1, -q), a, 3)
        return float((m[1] + m[2] + m[3] / 3).imag / (2 * mp.pi**2 * q))


def ref_purity(z):
    a = z * z / 4.0
    with mp.workdps(DPS + _extra_digits(2.0, a, 6)):
        m = _mp_moments(2, a, 6)
        total = sum(mp.mpf(p) / q * m[n + 2] for n, (p, q) in enumerate(KERNEL_SQ))
        return float(mp.mpf(z) ** 3 / (2 * mp.sqrt(mp.pi)) * total.real)


def ref_spectral_weight(u, z0):
    """kappa F at u = omega / (2 kappa): 2 Re sum_n c_n I_n(2 + 2iu, z0^2/8),
    at 300 digits, which outlast the u^5 the sum cancels out to u = 1e4."""
    with mp.workdps(300):
        m = _mp_moments(mp.mpc(2, 2 * u), z0 * z0 / 8.0, 4)
        total = sum(mp.mpf(p) / q * m[n] for n, (p, q) in enumerate(KERNEL_SQ))
        return float(2 * total.real)


def max_rel_err(got, ref):
    return max(abs(g - r) / abs(r) for g, r in zip(got, ref))


def _grid():
    """a/|b|^2 in [1e-5, 1], arg b in [-pi/2, 0], Re b / sqrt(a) >= 0.5."""
    points = []
    for ratio in np.logspace(-5.0, 0.0, 11):
        for arg in np.linspace(-math.pi / 2.0, 0.0, 9):
            b = 3.0 * cmath.exp(1j * arg)
            a = float(ratio) * abs(b) ** 2
            if b.real / math.sqrt(a) >= 0.5:
                points.append((b, a))
    return points


NAMED = [
    (1 - 20j, 1.0),
    (1 - 3j, 1.0 / 32.0),
    # |b| = 1 at a = 1.1e-3 (|mu|^2 = 909), from the imaginary axis to the real one
    *[(cmath.exp(1j * arg), 1.1e-3) for arg in np.linspace(-math.pi / 2.0 + 1e-3, 0.0, 5)],
]


@pytest.mark.parametrize("b,a", _grid() + NAMED)
def test_damped_moments_match_mpmath(b, a):
    assert max_rel_err(damped_moments(b, a, 6), ref_moments(b, a, 6)) <= 1e-13


def test_damped_moments_conjugate_symmetry():
    for b, a in NAMED:
        up = damped_moments(b.conjugate(), a, 6)
        down = damped_moments(b, a, 6)
        assert max_rel_err(up, [m.conjugate() for m in down]) <= 1e-15


def test_damped_moments_without_damping_are_exact():
    b = 2.0 - 5.0j
    with mp.workdps(DPS):
        ref = [complex(mp.factorial(n) / mp.mpc(b) ** (n + 1)) for n in range(7)]
    assert max_rel_err(damped_moments(b, 0.0, 6), ref) <= 1e-15


@pytest.mark.parametrize("a", [1e-30, 1e-200])
def test_damped_moments_vanishing_damping_tend_to_exact(a):
    b = 2.0 - 5.0j
    assert max_rel_err(damped_moments(b, a, 6), damped_moments(b, 0.0, 6)) <= 1e-15


def test_damped_moments_past_the_cap_take_the_better_route():
    # upward recurrence alone would lose 2e-5 here
    mu = complex(0.01, -math.sqrt(230.0 - 1e-4))
    assert max_rel_err(damped_moments(mu, 1.0, 6), ref_moments(mu, 1.0, 6)) <= 1e-12
    # nearly imaginary mu reach the cap at any n_max: past the turning point
    # the dominance's slope rounds to 0 (7.5e-15 measured)
    for mu in (complex(1e-17, -5.0), complex(1e-300, -9.0), complex(1e-300, -2.5)):
        for n_max in (3, 6, 12):
            assert quadrature._miller_start(mu, n_max) == quadrature._MILLER_CAP, (mu, n_max)
            got, ref = damped_moments(mu, 1.0, n_max), ref_moments(mu, 1.0, n_max)
            assert max_rel_err(got, ref) <= 1e-14, (mu, n_max)


@pytest.mark.parametrize("re_mu", [0.01, 0.1, 0.3])
def test_damped_moments_accuracy_below_re_mu_half(re_mu):
    # the fallback branch's accuracy as stated in damped_moments
    for mu_sq in np.geomspace(6.5, 250.0, 8):
        mu = complex(re_mu, -math.sqrt(mu_sq - re_mu**2))
        assert max_rel_err(damped_moments(mu, 1.0, 6), ref_moments(mu, 1.0, 6)) <= 1e-14, mu


@pytest.mark.parametrize(
    "b,a",
    [(math.nan, 1.0), (complex(1.0, math.inf), 1.0), (1.0, math.nan), (1.0, math.inf),
     (-1.0, 1.0), (0.0, 1.0), (1.0, -1.0)],
)
def test_damped_moments_reject_invalid_arguments(b, a):
    with pytest.raises(ValueError):
        damped_moments(b, a, 3)


def test_n_max_range_keeps_every_moment_finite():
    # the sweep behind the bound: at a = 1, where I_n = J_n, real mu from
    # 1e-300 to 1e12 through every branch, complex mu at every argument and
    # nearly imaginary mu past the cap; and at a = 644.3, where n_max = 400
    # gave I_n = 0 from n = 230 on and nan from n = 355 on. At 171 the
    # a -> 0 limit's 171! is past the largest double
    n_max = quadrature._MAX_ORDER
    assert n_max == 170
    mus = np.geomspace(1e-300, 1e12, 40).tolist()
    mus += [cmath.rect(r, phi) for r in np.geomspace(1e-8, 1e6, 15)
            for phi in np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 7)]
    mus += [complex(1e-300, -9.0), complex(1e-17, -5.0), complex(1e-14, 2.5)]
    points = [(mu, 1.0) for mu in mus] + [(mu * math.sqrt(644.3), 644.3) for mu in mus[::3]]
    for b, a in points:
        assert all(cmath.isfinite(m) for m in damped_moments(b, a, n_max)), (b, a)
    b, a = 2.5 * math.sqrt(644.3), 644.3
    assert max_rel_err(damped_moments(b, a, n_max), ref_moments(b, a, n_max)) <= 1e-13
    for b in (b, complex(b, -1.0)):
        assert len(damped_moments(b, a, n_max)) == n_max + 1
        for bad in (n_max + 1, 400, -1):
            with pytest.raises(ValueError, match="n_max"):
                damped_moments(b, a, bad)


@pytest.mark.parametrize("b,n_max", [
    (complex(1e-200, 1e-300), 3), (1e-3, 99), (1e-3, 120), (1e-3, 170),
    (complex(1e-3, 1e-9), 120),
])
def test_a_zero_moments_are_finite_or_inf_and_never_raise(b, n_max):
    # n! (1/b)^(n+1) by binary powering at every order: a moment past the
    # double range is inf, signed as its exact value, and never nan or an
    # OverflowError, for a real b as for a complex one
    moments = damped_moments(b, 0.0, n_max)
    assert len(moments) == n_max + 1
    assert type(moments[0]) is type(b)
    largest = mp.mpf(sys.float_info.max)
    with mp.workdps(DPS):
        for n, moment in enumerate(moments):
            exact = mp.factorial(n) / mp.mpc(b) ** (n + 1)
            for got, want in ((moment.real, exact.real), (moment.imag, exact.imag)):
                assert not math.isnan(got), (n, moment)
                if math.isinf(got):
                    assert mp.sign(want) == math.copysign(1.0, got), (n, moment)
            if cmath.isfinite(moment):
                assert abs(mp.mpc(moment) - exact) <= 3e-14 * abs(exact), (n, moment)
            else:
                assert abs(exact) > largest / 2, (n, moment)


@pytest.mark.parametrize("b,a,n_max", [
    # 1 / a^((n+1)/2) overflows at n = 12 (backward recurrence)
    (1e-16, 1e-50, 12),
    # and underflows from n = 153 on at mu = 2.5, where I_170 is 3.1e-225
    (250.0, 1e4, 170),
    # 1 / a^((n+1)/2) underflows at n = 12 (upward recurrence), where I_12
    # is 3.6e-307
    (1.0, 3e47, 12),
])
def test_scale_out_of_the_double_range_keeps_the_moments(b, a, n_max):
    got = damped_moments(b, a, n_max)
    assert all(m != 0.0 and math.isfinite(m) for m in got)
    assert max_rel_err(got, ref_moments(b, a, n_max)) <= 1e-13


def test_mu_past_the_largest_double_is_the_a_zero_limit():
    # |mu| overflows where its parts do not: the a -> 0 limit, as an array
    # element takes it, and no OverflowError
    b = complex(1.5e308, 1.5e308)
    limit = damped_moments(b, 0.0, 3)
    assert list(map(repr, damped_moments(b, 1.0, 3))) == list(map(repr, limit))


def _pcfd_moment(b, a, n):
    """I_n = n! (2a)^(-(n+1)/2) e^(b^2/8a) D_(-(n+1))(b / sqrt(2a)) at 60
    digits; quadrature on [0, inf) can miss the peak at s ~ sqrt(n / 2a)."""
    with mp.workdps(60):
        b, a = mp.mpc(b), mp.mpf(a)
        return (mp.factorial(n) * (2 * a) ** (-mp.mpf(n + 1) / 2) * mp.exp(b * b / (8 * a))
                * mp.pcfd(-(n + 1), b / mp.sqrt(2 * a)))


@pytest.mark.parametrize("b,n_max", [(2.0, 100), (2.449, 170), (2 + 1j, 170), (1.0, 170)])
def test_orders_past_12_take_the_backward_recurrence(b, n_max):
    # |mu|^2 <= 6, where the upward recurrence runs up to n_max = 12: past
    # that it lost 2.7e-5, 2.3e2, 0.14 and 2.4e-9 at these points, and
    # _miller_start's runs (from 173, 235, 247 and 265) keep 1.0e-15
    assert quadrature._UPWARD_TO[12] == 6.0 and quadrature._UPWARD_TO[13] == 0.0
    assert quadrature._miller_start(b, n_max) is not None
    got = damped_moments(b, 1.0, n_max)
    for n, moment in enumerate(got):
        ref = _pcfd_moment(b, 1.0, n)
        assert abs(mp.mpc(moment) - ref) <= 1e-13 * abs(ref), n


#: (q, z0, bound): 1e-9 at q = 0 and on [1e-3, 50], where the imaginary part
#: cancels far out (4.7e-10 measured); 1e-14 on q in [1e-9, 1e-2] and on
#: both sides of the switch to n(0), where it does not (3.4e-15 measured),
#: at z0 from the upward recurrence (z0 >= 1.155) over Newton's start to
#: the closed-form one (z0 <= 0.15)
MOMENTUM_POINTS = [
    (q, float(z0), 1e-9)
    for z0 in np.geomspace(0.01, 5.0, 6)
    for q in [0.0] + list(np.geomspace(1e-3, 50.0, 13)) + [9.9e-3, 1.01e-2]
] + [(1e-3, 5.0, 1e-9), (50.0, 0.01, 1e-9), (20.0, 5.0, 1e-9)] + [
    (q, z0, 1e-14)
    for z0 in (1e-4, 0.01, 0.15, 0.5, 1.155, 2.0, 5.0, 100.0, 1e4)
    for q in np.geomspace(1e-9, 1e-2, 15).tolist()
    + [math.nextafter(momentum._Q_ZERO, 0.0), momentum._Q_ZERO]
]


def test_momentum_density_matches_mpmath():
    for q, z0, bound in MOMENTUM_POINTS:
        ref = ref_momentum(q, z0)
        assert abs(momentum_density(q, z0) - ref) <= bound * ref, (q, z0)


def test_momentum_density_wide_damping_error_against_peak():
    # z0 = 100 puts Re(mu) at 0.028: the stated bound is 1e-15 n(0) absolute
    z0 = 100.0
    peak = ref_momentum(0.0, z0)
    for q in [0.0] + list(np.geomspace(1.0, 500.0, 25)):
        assert abs(momentum_density(q, z0) - ref_momentum(q, z0)) <= 2e-15 * peak, q


def test_purity_matches_mpmath():
    for z in np.geomspace(1e-3, 1e2, 16):
        ref = ref_purity(float(z))
        assert abs(purity(float(z)) - ref) <= 1e-12 * ref, z


@pytest.mark.parametrize("z0", [0.5, 2.0, 12.0])
def test_damped_spectral_weight_matches_mpmath(z0):
    # the moment sum cancels like u^5: the stated bounds are 1e-10 up to
    # u = 10 (7.1e-12 measured) and 1e-6 up to 100 (1e-7 measured)
    for u in [0.0] + np.geomspace(0.01, 100.0, 13).tolist():
        ref = ref_spectral_weight(u, z0)
        bound = 1e-10 if u <= 10.0 else 1e-6
        assert abs(tau_transform(1.0, 2.0 * u, z0) - ref) <= bound * ref, u


def test_the_library_asks_for_moments_up_to_n_6(monkeypatch, capsys):
    # every binding of the moment kernel, over the README runs and the
    # entry points a run may skip
    orders = []
    for module, name in ((quadrature, "_moments"), (scattering, "_damped_moments_array"),
                         (density, "_moments"), (momentum, "_moments")):
        def counted(*args, original=getattr(module, name)):
            orders.append(args[-1])
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    for argv in _README_COMMANDS:
        assert cli.main(argv) == 0
    capsys.readouterr()
    momentum_density(0.0, 0.5)
    tau_transform(1.0, 2.0, 0.5)
    angular_scan(ScatteringConfig(E_n_ev=1.0, z0=0.5), 19, "numeric")
    assert max(orders) == 6
    assert sorted(set(orders)) == [3, 4, 6]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_raise(bad):
    with pytest.raises(ValueError):
        purity(bad)
    with pytest.raises(ValueError):
        momentum_density(bad, 1.0)
    with pytest.raises(ValueError):
        momentum_density(1.0, bad)


def _real_branch_points(n_max):
    """(b, a, branch) of a real b in each branch damped_moments has at
    n_max: a = 0 and the a -> 0 limit, the upward recurrence from erfcx,
    Miller's recurrence from the Newton-searched and from the closed-form
    start, each at three dampings a and one ulp either side of every
    switch. Past the cap is out of reach: mu >= sqrt(6) there, and its
    start stays below 4000 for n_max in the hundreds."""
    top, limit = 170.0 + 14.0 * n_max, 2.0**54 * ((n_max + 1) * (n_max + 2))
    mu_sqs = [0.01, 1.0, 6.0, math.nextafter(6.0, 7.0)]
    mu_sqs += np.geomspace(6.5, top, 7, endpoint=False).tolist()
    mu_sqs += [math.nextafter(top, 0.0), top, math.nextafter(top, math.inf)]
    mu_sqs += np.geomspace(top * 1.5, limit, 7, endpoint=False).tolist()
    mu_sqs += [math.nextafter(limit, 0.0), limit, 1e40]
    points = [(math.sqrt(mu_sq) * math.sqrt(a), a) for mu_sq in mu_sqs for a in (1e-3, 0.7, 40.0)]
    points += [(b, 0.0) for b in (0.3, 2.0, 7.5)] + [(1.0, 1e-320), (2.0, 5e-324)]
    out = []
    for b, a in points:
        mu = b / math.sqrt(a) if a > 0.0 else math.inf
        mu_sq = mu * mu
        if mu_sq >= limit:
            branch = "exact"
        elif mu_sq <= 6.0:
            branch = "upward"
        elif mu_sq < top:
            branch = "newton"
        else:
            branch = "closed"
        out.append((b, a, branch))
    return out


@pytest.mark.parametrize("n_max", [3, 6, 12])
def test_real_moments_are_the_complex_arithmetic_bit_for_bit(n_max):
    points = _real_branch_points(n_max)
    assert {branch for _, _, branch in points} == {"exact", "upward", "newton", "closed"}
    for b, a, branch in points:
        got = damped_moments(b, a, n_max)
        ref = real_moments_in_complex(b, a, n_max)
        assert all(type(m) is float for m in got), (b, a)
        assert all(m.imag == 0.0 for m in ref), (b, a)
        assert got == [m.real for m in ref], (b, a, branch)


@pytest.mark.parametrize("n_max", [3, 6, 12])
def test_real_moments_match_mpmath(n_max):
    for b, a, branch in _real_branch_points(n_max):
        if a > 0.0 and b / math.sqrt(a) < 0.5:
            continue  # the stated bounds hold from Re mu = 0.5 on
        got = damped_moments(b, a, n_max)
        if branch == "exact":
            with mp.workdps(DPS):
                ref = [float(mp.factorial(n) / mp.mpf(b) ** (n + 1)) for n in range(n_max + 1)]
            bound = 1e-15
        else:
            ref = ref_moments(b, a, n_max)
            bound = 1e-14 if branch == "closed" else 1e-13
        if branch in ("exact", "upward"):
            # the stated bounds there cover n <= 6: above, the powers of
            # 1/b round a little more and the upward recurrence loses more
            # (test_upward_branch_accuracy_up_to_n_12)
            got, ref = got[:7], ref[:7]
        assert max_rel_err(got, ref) <= bound, (b, a, branch)


@pytest.mark.parametrize("mu,a", [
    (1.0, 1.0), (2.0, 0.04), (2.3933019054665032, 0.041485417628033774), (math.sqrt(6.0), 1e-3),
    (complex(2.4115237974802337, -0.29077994116945666), 50.0),
    (complex(2.4105369777029853, -0.35928760050461134), 0.22132146573749034),
    (complex(0.3, -2.4), 1.0), (complex(1.0, -2.0), 1e-3),
])
def test_upward_branch_accuracy_up_to_n_12(mu, a):
    # the stated bounds of the upward branch (|mu|^2 <= 6) up to n = 12; the
    # worst points of 7,400 draws there are among these
    b = mu * math.sqrt(a)
    got, ref = damped_moments(b, a, 12), ref_moments(b, a, 12)
    assert max_rel_err(got[:7], ref[:7]) <= 5e-13
    assert max_rel_err(got, ref) <= 2e-11


@pytest.mark.parametrize("n_max", [3, 6, 12])
def test_real_b_of_any_type_takes_the_float_kernel(n_max):
    for b, a, _ in _real_branch_points(n_max):
        moments = damped_moments(b, a, n_max)
        for same in (complex(b, 0.0), complex(b, -0.0), np.float64(b), np.complex128(b)):
            assert damped_moments(same, a, n_max) == moments, (b, a)
        # numpy scalars that are not Python floats or complex numbers
        for narrow, wide in ((np.float32(b), float), (np.complex64(b), complex)):
            assert damped_moments(narrow, a, n_max) == damped_moments(wide(narrow), a, n_max)
    assert damped_moments(2, 1.0, 3) == damped_moments(2.0, 1.0, 3)
    for k in (2, 7, 40, 10**6):
        assert damped_moments(np.int64(k), 1.0, n_max) == damped_moments(k, 1.0, n_max)
    # an array is no scalar: an array b or a raises TypeError
    for b, a in ((np.array([2.0, 3.0 - 1j]), 1.0), (np.array([2.0]), 1.0),
                 (2.0, np.array([0.25, 4.0])), (2.0 - 1j, np.array([0.25]))):
        with pytest.raises(TypeError):
            damped_moments(b, a, n_max)


def test_seed_coefficients_are_the_derived_ones():
    # c_k = mu^((k+1) mod 2) (p + q mu^2): quadrature keeps (p, q)
    pairs = []
    for k, poly in enumerate(seed_coeffs(10), start=1):
        coeffs = as_ints(poly)
        parity = (k + 1) % 2
        assert all(c == 0 for i, c in enumerate(coeffs) if i not in (parity, parity + 2)), k
        pairs.append(tuple(coeffs[i] if i < len(coeffs) else 0 for i in (parity, parity + 2)))
    assert quadrature._SEED_COEFFS == tuple(pairs)
    assert pairs[:2] == [(-1, 0), (1, 0)]  # the two terms of _seed


def _converged_ratio(mu, n):
    """g_n = 2 J_(n+1) / J_n by the backward recurrence from 4000 steps out."""
    with mp.workdps(50):
        mu, g = mp.mpc(mu), mp.mpf(0)
        for k in range(n + 4000, n, -1):
            g = 2 * k / (mu + g)
        return complex(g)


@pytest.mark.parametrize("mu", [2.0 + 0.0j, 1.0 - 3.0j, 0.7 - 8.0j])
@pytest.mark.parametrize("n", [10, 40, 150])
def test_seed_errors_are_as_stated(mu, n):
    # each seed is off by about its first omitted terms, within a factor 2;
    # the long seed is the closer one
    g = _converged_ratio(mu, n)
    w = cmath.sqrt(mu * mu + 8.0 * (n + 1))
    long_err = abs(quadrature._seed_long(mu, n) / g - 1.0)
    short_err = abs(quadrature._seed(mu, n) / g - 1.0)
    assert long_err <= 2.0 * math.exp(-quadrature._long_gain(mu, w, n + 1.0))
    # _seed leaves out c_3 / w^3 + c_4 / w^4 = g (2w + 10 mu) / w^5
    assert short_err <= 2.0 * abs(2.0 * w + 10.0 * mu) / abs(w) ** 5
    assert long_err < short_err
