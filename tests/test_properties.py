"""Properties that hold over the whole parameter domain, checked on
Hypothesis draws. Derandomized and without an example database, so every
run draws the same examples and writes nothing to the working tree."""

import cmath
import io
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from atomdecoh import density, quadrature
from atomdecoh.cli import SCHEMAS, main
from atomdecoh.density import purity
from atomdecoh.momentum import electron_limit, gaussian_limit, momentum_density
from atomdecoh.quadrature import (
    _backward,
    _damped_moments_array,
    _miller_start,
    _seed_long,
    damped_moments,
)
from atomdecoh.scattering import tau_transform
from oracles import (
    array_moments_list,
    complex_moments_list,
    momentum_density_list,
    normalization_integral,
    real_moments_in_complex,
)
from test_moments import KERNEL_SQ, max_rel_err, ref_moments

REPRODUCIBLE = settings(derandomize=True, deadline=None, database=None)

# Hypothesis caches the constants it collects from the source in its home
# directory even without an example database, and does so while pytest
# collects; a temporary home, removed at exit, keeps the tree clean
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)


def _miller_mu(n_max, re_frac, sq_frac, upper):
    """mu in the Miller region, Re mu in [0.5, 30] and
    6 < |mu|^2 < 170 + 14 n_max, drawn as fractions of the range each
    coordinate has left; None where rounding puts it outside."""
    top = 170.0 + 14.0 * n_max
    re_mu = 0.5 + re_frac * (min(30.0, math.sqrt(top)) - 0.5)
    low = max(6.0, re_mu * re_mu)
    mu_sq = low + sq_frac * (top - low)
    im_mu = math.sqrt(max(mu_sq - re_mu * re_mu, 0.0))
    mu = complex(re_mu, im_mu if upper else -im_mu)
    return mu if 6.0 < abs(mu) ** 2 < top else None


_MILLER_DRAWS = (
    st.sampled_from([3, 4, 6, 12]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.booleans(),
)


@settings(REPRODUCIBLE, max_examples=200)
@given(*_MILLER_DRAWS, st.floats(-3.0, 2.0))
def test_miller_branch_moments_match_mpmath(n_max, re_frac, sq_frac, upper, log_a):
    mu = _miller_mu(n_max, re_frac, sq_frac, upper)
    if mu is None:
        return
    a = 10.0**log_a
    b = mu * math.sqrt(a)
    assert max_rel_err(damped_moments(b, a, n_max), ref_moments(b, a, n_max)) <= 1e-13


@settings(REPRODUCIBLE, max_examples=200)
@given(*_MILLER_DRAWS)
def test_miller_normalisation_matches_the_faddeeva_value(n_max, re_frac, sq_frac, upper):
    # the backward run's own J_0 = 1 / (mu + g_0), from the long seed at the
    # Newton-searched start, against
    # J_0 = (sqrt(pi)/2) w(i mu/2) = (sqrt(pi)/2) exp(mu^2/4) erfc(mu/2)
    mu = _miller_mu(n_max, re_frac, sq_frac, upper)
    if mu is None:
        return
    start = _miller_start(mu, n_max)
    j0 = _backward(mu, n_max, start, _seed_long(mu, start), 1.0)[0]
    with mp.workdps(30):
        z = mp.mpc(mu) / 2
        ref = complex(mp.sqrt(mp.pi) / 2 * mp.exp(z * z) * mp.erfc(z))
    assert abs(j0 - ref) <= 2e-15 * abs(ref)


def _examples(cases):
    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return apply


_BRANCHES = ("exact", "upward", "newton", "closed", "cap")


def _branch_mu(branch, real, n_max, frac, arg_frac):
    """A mu in the given branch of damped_moments at n_max, at fractions
    frac in [0, 1] of |mu|^2 and arg_frac in [-1, 1] of arg(mu) or Re(mu)
    within that branch; real for arg(mu) = 0. Past the cap a complex mu
    has Re(mu) in [1e-20, 1e-17] and |mu|^2 in [6.25, 25], where the
    dominance's slope rounds to 0 past its turning point at any n_max
    (16,760 of 16,800 grid points reach the cap at n_max <= 12). A real mu
    reaches it only with n_max past the cap itself, which damped_moments
    rejects: the start search of a real mu, whose dominance grows without a
    turning point, begins no lower than n_max and, from the long seed, ends
    just above it. Its "cap" draws are mu^2 in [6, 8], the longest runs
    of Miller's branch, which the caller runs at the largest n_max."""
    top, limit = 170.0 + 14.0 * n_max, 2.0**54 * ((n_max + 1) * (n_max + 2))
    side = -1.0 if arg_frac < 0.0 else 1.0
    size = max(abs(arg_frac), 1e-3)
    frac = max(frac, 1e-3)
    if branch == "exact":
        mu_sq = limit * 10.0 ** (10.0 * frac)
    elif branch == "upward":
        mu_sq = 6.0 * frac
    elif branch == "newton":
        mu_sq = 6.0 + (top - 6.0) * frac
    elif branch == "cap":
        mu_sq = 6.0 + 2.0 * frac if real else 6.25 + 18.75 * frac
    else:
        mu_sq = top * (limit / top) ** frac
    if real:
        return math.sqrt(mu_sq)
    if branch == "newton":
        re_mu = 0.5 + size * (math.sqrt(mu_sq) - 0.5)
    elif branch == "cap":
        re_mu = 1e-17 * size
    else:
        return cmath.rect(math.sqrt(mu_sq), side * size * 1.5)
    return complex(re_mu, side * math.sqrt(mu_sq - re_mu * re_mu))


_BRANCH_DRAWS = (
    st.sampled_from(_BRANCHES),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-4.0, 3.0),
)


@settings(REPRODUCIBLE, max_examples=300)
@given(st.booleans(), st.sampled_from([0, 1, 3, 4, 6, 12]), *_BRANCH_DRAWS)
@_examples([(real, 3, branch, 0.5, 0.5, 0.0) for real in (False, True) for branch in _BRANCHES])
@_examples([(False, 6, "exact", 0.5, 0.5, -400.0), (True, 6, "exact", 0.5, 0.0, -400.0)])
def test_scalar_moments_are_the_list_based_recurrences_bit_for_bit(
        real, n_max, branch, frac, arg_frac, log_a):
    # every scalar branch, the exact limit (a = 10^-400 is 0), the upward
    # recurrence, the Newton and closed-form Miller starts and past the cap,
    # against the recurrences that build the list of J_n before rescaling
    a = 10.0**log_a
    if branch == "cap" and real:
        # a real mu never passes the cap within the n_max damped_moments
        # takes: its longest runs, at the largest n_max, and a = n_max / 2e,
        # at which I_n changes by about sqrt(n / n_max) a step
        n_max = quadrature._MAX_ORDER
        a = n_max / (2.0 * math.e)
    mu = _branch_mu(branch, real, n_max, frac, arg_frac)
    b = mu * math.sqrt(a) if a > 0.0 else mu
    got = damped_moments(b, a, n_max)
    if real:
        ref = [m.real for m in real_moments_in_complex(b, a, n_max)]
        assert all(type(m) is float for m in got)
    else:
        ref = complex_moments_list(b, a, n_max)
    # by repr, so that a nan matches a nan
    assert list(map(repr, got)) == list(map(repr, ref))


@settings(REPRODUCIBLE, max_examples=100)
@given(st.sampled_from([0, 1, 3, 6, 12]), st.floats(-4.0, 3.0),
       st.lists(st.tuples(*_BRANCH_DRAWS[:3], st.booleans()), min_size=1, max_size=12))
@example(3, 0.0, [(branch, 0.5, 0.5, False) for branch in _BRANCHES])
def test_array_moments_are_the_list_based_recurrences_bit_for_bit(n_max, log_a, draws):
    a = 10.0**log_a
    mus = [_branch_mu(branch, real, n_max, frac, arg_frac)
           for branch, frac, arg_frac, real in draws]
    b = np.array(mus, dtype=complex) * math.sqrt(a)
    assert np.array_equal(_damped_moments_array(b, a, n_max), array_moments_list(b, a, n_max))


@settings(REPRODUCIBLE, max_examples=300)
@given(st.one_of(st.just(0.0), st.floats(-4.0, 2.5).map(lambda x: 10.0**x)),
       st.floats(-4.0, 2.5).map(lambda x: 10.0**x))
@example(5.0, 1e-170)  # z0^2/8 underflows to 0: the exact a -> 0 limit
@example(40.0, 2.0)  # the closed-form start of Miller's recurrence
def test_momentum_density_is_the_list_based_sum_bit_for_bit(q, z0):
    ref = momentum_density_list(q, z0)
    try:
        assert momentum_density(q, z0) == ref
    except ArithmeticError:
        assert ref < 0.0


def _density_mu_sq(q, z0):
    """|mu|^2 of the moments behind momentum_density(q, z0), formed as the
    moment kernel forms it."""
    mu_abs = abs(complex(1.0, -q) / math.sqrt(z0 * z0 / 8.0))
    return mu_abs * mu_abs


def _straddling_z0(q, switch, below):
    """Two neighbouring floats z0 whose |mu|^2 at this q lie on either side
    of a branch switch, the larger z0 on the side where below(|mu|^2)
    holds: |mu|^2 = 8 (1 + q^2) / z0^2 falls as z0 grows."""
    z0 = math.sqrt(8.0 * (1.0 + q * q) / switch)
    while below(_density_mu_sq(q, z0)):
        z0 = math.nextafter(z0, 0.0)
    while not below(_density_mu_sq(q, z0)):
        z0 = math.nextafter(z0, math.inf)
    return math.nextafter(z0, 0.0), z0


#: the branch switches of the moments up to I_3, each with the side below it
_DENSITY_SWITCHES = (
    (6.0, lambda mu_sq: mu_sq <= 6.0),  # the upward recurrence up to here
    (212.0, lambda mu_sq: mu_sq < 212.0),  # the closed-form start from 170 + 14 * 3
    (2.0**54 * 20, lambda mu_sq: mu_sq < 2.0**54 * 20),  # the exact a -> 0 limit from here
)


@pytest.mark.parametrize("q", [1e-3, 0.3, 1.0, 7.0, 60.0])
def test_momentum_density_is_the_list_based_sum_at_each_branch_switch(q):
    # fixed inputs one ulp of z0 either side of each switch, where the
    # random draws above need not land, and at z0 = 1e-170, where z0^2/8
    # underflows to 0 and the moments are the exact a -> 0 limit
    z0s = [1e-170]
    for switch, below in _DENSITY_SWITCHES:
        z0s += _straddling_z0(q, switch, below)
    for z0 in z0s:
        assert momentum_density(q, z0) == momentum_density_list(q, z0), z0


def _list_based_real_moments(b, a, n_max):
    return [m.real for m in real_moments_in_complex(b, a, n_max)]


@settings(REPRODUCIBLE, max_examples=200)
@given(st.floats(-3.0, 5.5).map(lambda x: 10.0**x))
def test_purity_is_the_list_based_sum_bit_for_bit(z):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_moments", _list_based_real_moments)
        ref = purity(z)
    assert purity(z) == ref


#: |mu|^2 on both sides of the powers of two 2^k, k = 8..17, where the
#: binary exponents of the closed-form start of the backward recurrence step
_OCTAVE_EDGES = [2.0 ** (k + side) for k in range(8, 18) for side in (0.0, math.log2(1.0 - 1e-12))]


def _cutoff_sides(n_max):
    """|mu|^2 of the real mu one ulp either side of the a -> 0 cutoff
    2^54 (n_max + 1)(n_max + 2) of damped_moments, below it first. A real
    mu is the square root of its correctly rounded square, so the test's
    mu = sqrt(|mu|^2) gives back these squares exactly."""
    cut = 2.0**54 * ((n_max + 1) * (n_max + 2))
    mu = math.sqrt(cut)
    while mu * mu >= cut:
        mu = math.nextafter(mu, 0.0)
    while math.nextafter(mu, math.inf) ** 2 < cut:
        mu = math.nextafter(mu, math.inf)
    return mu * mu, math.nextafter(mu, math.inf) ** 2


@settings(REPRODUCIBLE, max_examples=300)
@given(
    st.sampled_from([1, 3, 4, 6, 7, 12]),
    st.floats(7.0, math.log2(1e24)).map(lambda x: 2.0**x),
    st.floats(-1.55, 1.55),
    st.floats(-3.0, 2.0),
)
@_examples([(n_max, 1.0, arg, 0.0) for n_max in (1, 3, 4, 6, 7, 12) for arg in (0.0, 1.51)])
@_examples([(n_max, edge, arg, 0.0) for n_max in (3, 6, 7) for edge in _OCTAVE_EDGES
            for arg in (0.0, -1.5)])
@_examples([(n_max, side, 0.0, 0.0) for n_max in (1, 6, 12) for side in _cutoff_sides(n_max)])
def test_large_mu_moments_match_mpmath(n_max, mu_sq, arg, log_a):
    # |mu|^2 from 170 + 14 n_max, to which a smaller mu_sq is raised, up to
    # 1e24: the backward recurrence from its closed-form start, and from
    # 2^54 (n_max + 1)(n_max + 2) on the a -> 0 limit
    top = 170.0 + 14.0 * n_max
    mu = cmath.rect(math.sqrt(max(mu_sq, top)), arg)
    a = 10.0**log_a
    b = mu * math.sqrt(a)
    # rounding can leave |mu|^2 an ulp below the threshold
    while abs(b / math.sqrt(a)) ** 2 < top:
        b *= 1.0 + 2.0**-52
    assert max_rel_err(damped_moments(b, a, n_max), ref_moments(b, a, n_max)) <= 1e-14


@REPRODUCIBLE
@given(st.floats(-160.0, 200.0), st.floats(1e-3, 10.0))
def test_purity_lies_in_unit_interval_and_does_not_decrease(log_z, decades):
    # a step of at least 1e-3 decades keeps the comparison above the
    # closed form's rounding; below z ~ 1.6e-108 the purity, about
    # 1.16 z^3, underflows to 0
    z = 10.0**log_z
    p, p_wider = purity(z), purity(z * 10.0**decades)
    assert 0.0 <= p <= p_wider <= 1.0
    if z >= 1e-100:
        assert p > 0.0


@REPRODUCIBLE
@given(
    st.floats(1e-3, 1e3),
    st.floats(-1e4, 1e4),
    st.one_of(st.just(0.0), st.floats(1e-2, 12.0)),
)
def test_tau_transform_is_real_and_even_in_omega(kappa, omega, z0):
    value = tau_transform(kappa, omega, z0)
    mirrored = tau_transform(kappa, -omega, z0)
    assert value.imag == 0.0 and mirrored.imag == 0.0
    # |F(omega)| <= F(0), the integral of a positive function
    assert abs(value.real - mirrored.real) <= 1e-14 * tau_transform(kappa, 0.0, z0).real


@settings(REPRODUCIBLE, max_examples=300)
@given(
    st.floats(-300.0, 300.0),
    st.floats(-1.0, 1.0),
    st.one_of(st.just(0.0), st.floats(1e-2, 12.0)),
)
@example(-300.0, 1.0, 12.0)
@example(300.0, -1.0, 1e-2)
def test_spectral_weight_is_scale_free(log_kappa, u, z0):
    # kappa F(kappa, 2 u kappa) depends on u alone, at any scale of kappa
    kappa = 10.0**log_kappa
    unit = tau_transform(1.0, 2.0 * u, z0)
    assert abs(kappa * tau_transform(kappa, 2.0 * u * kappa, z0) - unit) <= 1e-14 * unit


def _undamped_weight_reference(kappa, omega):
    """2 Re sum_n c_n kappa^n n!/(2 kappa + i omega)^(n+1), the z0 = 0
    spectral weight as its factorial-moment sum, at 400 digits: the sum
    cancels like (omega/kappa)^5, about 1e100 at omega/kappa = 1e20."""
    with mp.workdps(400):
        k = mp.mpf(kappa)
        b = 2 * k + 1j * mp.mpf(omega)
        total = sum(mp.mpf(num) / den * k**n * mp.factorial(n) / b ** (n + 1)
                    for n, (num, den) in enumerate(KERNEL_SQ))
        return float(2 * total.real)


@settings(REPRODUCIBLE, max_examples=300)
@given(st.floats(-12.0, 3.0), st.one_of(st.just(-math.inf), st.floats(-15.0, 8.0)),
       st.booleans())
def test_undamped_spectral_weight_matches_the_moment_sum(log_kappa, log_omega, negative):
    kappa = 10.0**log_kappa
    omega = -(10.0**log_omega) if negative else 10.0**log_omega
    ref = _undamped_weight_reference(kappa, omega)
    assert abs(tau_transform(kappa, omega, 0.0).real - ref) <= 4e-15 * ref


@REPRODUCIBLE
@given(st.floats(-12.0, 3.0), st.floats(-300.0, 300.0), st.booleans())
@example(-12.0, 300.0, False)
@example(3.0, 300.0, True)
def test_undamped_spectral_weight_is_finite_at_any_frequency(log_kappa, log_ratio, negative):
    # |omega| / kappa up to 1e300: far past the peak the weight underflows to
    # 0, it does not overflow on the way, and it is even in omega
    kappa = 10.0**log_kappa
    omega = kappa * 10.0**log_ratio * (-1.0 if negative else 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = tau_transform(kappa, omega, 0.0).real
        mirrored = tau_transform(kappa, -omega, 0.0)
    assert math.isfinite(value) and value >= 0.0
    assert mirrored == value


@REPRODUCIBLE
@given(st.floats(-12.0, 3.0), st.floats(-2.0, 2.0))
def test_slightly_damped_spectral_weight_tends_to_the_undamped_one(log_kappa, ratio):
    # the damping moves F by about z0^2 = 1e-18 relative. For |omega| up to
    # 2 kappa the damped moment sum cancels little; past it the sum loses
    # about 5 log10(|omega| / kappa) digits
    kappa = 10.0**log_kappa
    omega = ratio * kappa
    undamped = tau_transform(kappa, omega, 0.0).real
    assert abs(tau_transform(kappa, omega, 1e-9).real - undamped) <= 1e-14 * undamped


@REPRODUCIBLE
@given(st.one_of(st.just(0.0), st.floats(1e-6, 1e4)), st.floats(1e-3, 1e3))
def test_momentum_density_is_nonnegative(q, z0):
    assert momentum_density(q, z0) >= 0.0


@REPRODUCIBLE
@given(st.floats(-6.0, -2.0), st.floats(0.0, 10.0))
def test_wide_packet_momentum_density_tends_to_the_electron_limit(log_z0, q):
    # the leading correction is O(z0^2); its coefficient stays below 3
    z0 = 10.0**log_z0
    ratio = momentum_density(q, z0) / electron_limit(q)
    assert abs(ratio - 1.0) <= 4.0 * z0**2


@REPRODUCIBLE
@given(st.floats(2.0, 6.0), st.floats(0.0, 1.0))
def test_narrow_packet_momentum_density_tends_to_the_gaussian_limit(log_z0, x):
    # q = z0 x spans the Gaussian out to exp(-2) of its peak; the leading
    # correction is O(1/z0^2) with a coefficient below 2
    z0 = 10.0**log_z0
    q = z0 * x
    ratio = momentum_density(q, z0) / gaussian_limit(q, 1.0 / z0)
    assert abs(ratio - 1.0) <= 3.0 / z0**2


@settings(REPRODUCIBLE, max_examples=30)
@given(st.floats(-3.0, 2.0))
def test_momentum_density_is_normalized(log_z0):
    # 4 pi int q^2 n(q) dq = Tr rho = 1. The oracle integrates out to
    # q = 5 z0; at z0 = 1000 that reaches the far tail, where
    # n(q) < 1e-20 n(0) and the closed form turns negative
    assert abs(normalization_integral(10.0**log_z0) - 1.0) <= 1e-8


#: flag values at and past the edges of every parameter's domain
_EDGE_VALUES = st.sampled_from([
    "0", "-1", "-0.5", "1e300", "-1e300", "1e-300", "1e-160", "nan", "inf", "-inf",
    "abc", "", "1,5", "numeric",
])
_FLAG_VALUES = st.one_of(
    _EDGE_VALUES,
    st.integers(-2, 64).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.floats(-6.0, 6.0).map(lambda e: repr(10.0**e)),
    st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e)),
)
#: keys a config file may carry besides the subcommand's own: unknown ones,
#: the physical constants, and the alpha-mass ratio
_FOREIGN_KEYS = st.sampled_from(
    ["bogus", "hbar", "m_e", "m_p", "m_n", "a_B", "e2_coulomb", "eV", "m_alpha_over_m_n"]
)
#: parameters whose values are not numbers in general: grid sizes up to 64,
#: drawn mostly from the valid ones, and the cross-section method
_KEY_VALUES = {
    "points": st.one_of(_EDGE_VALUES, st.integers(-2, 64).map(str), st.integers(2, 64).map(str)),
    "method": st.sampled_from(["numeric", "asymptotic", "both", "bogus", ""]),
}


def _run_cli(argv):
    """main(argv) in process, with what it writes to stdout and stderr; a
    warning that reaches the default handler counts as stderr output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    stray = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue() + stray


@settings(REPRODUCIBLE, max_examples=300)
@given(st.sampled_from(sorted(SCHEMAS)), st.data())
def test_cli_exits_cleanly_on_any_flags(tmp_path_factory, subcommand, data):
    schema = SCHEMAS[subcommand]
    keys = data.draw(st.lists(st.sampled_from(sorted(schema)), unique=True, max_size=4))
    argv = [subcommand]
    for key in keys:
        value = data.draw(_KEY_VALUES.get(key, _FLAG_VALUES))
        flag = "--" + key.replace("_", "-")
        argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
    # a config file a quarter of the time, and one that does not exist an eighth
    config_kind = data.draw(st.integers(0, 7))
    if config_kind == 2:
        argv += ["--config", str(tmp_path_factory.getbasetemp() / "missing.cfg")]
    elif config_kind < 2:
        lines = data.draw(st.lists(
            st.tuples(st.one_of(st.sampled_from(sorted(schema)), _FOREIGN_KEYS),
                      _FLAG_VALUES),
            max_size=3,
        ))
        config = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        config.write_text("".join(f"{key}={value}\n" for key, value in lines))
        argv += ["--config", str(config)]
    code, out, err = _run_cli(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code != 0:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
