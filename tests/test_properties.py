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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from atomdecoh.cli import SCHEMAS, main
from atomdecoh.density import purity
from atomdecoh.momentum import electron_limit, gaussian_limit, momentum_density
from atomdecoh.quadrature import damped_moments
from atomdecoh.scattering import _tau_damped, tau_transform
from oracles import normalization_integral
from test_moments import KERNEL_SQ, max_rel_err, ref_moments

REPRODUCIBLE = settings(derandomize=True, deadline=None, database=None)

# Hypothesis caches the constants it collects from the source in its home
# directory even without an example database, and does so while pytest
# collects; a temporary home, removed at exit, keeps the tree clean
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)


@settings(REPRODUCIBLE, max_examples=200)
@given(
    st.sampled_from([3, 4, 6, 12]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.floats(-3.0, 2.0),
)
def test_miller_branch_moments_match_mpmath(n_max, re_frac, sq_frac, upper, log_a):
    # Miller's branch: Re mu in [0.5, 30] and 6 < |mu|^2 < 170 + 14 n_max,
    # drawn as fractions of the range each coordinate has left
    top = 170.0 + 14.0 * n_max
    re_mu = 0.5 + re_frac * (min(30.0, math.sqrt(top)) - 0.5)
    low = max(6.0, re_mu * re_mu)
    mu_sq = low + sq_frac * (top - low)
    im_mu = math.sqrt(max(mu_sq - re_mu * re_mu, 0.0))
    mu = complex(re_mu, im_mu if upper else -im_mu)
    if not 6.0 < abs(mu) ** 2 < top:
        return
    a = 10.0**log_a
    b = mu * math.sqrt(a)
    assert max_rel_err(damped_moments(b, a, n_max), ref_moments(b, a, n_max)) <= 1e-13


def _examples(cases):
    def apply(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return apply


#: log2 |mu|^2 on both sides of the octave edges 2^k, k = 8..17, at which the
#: series branch of damped_moments changes its band
_OCTAVE_EDGES = [k + side for k in range(8, 18) for side in (0.0, math.log2(1.0 - 1e-12))]


@settings(REPRODUCIBLE, max_examples=300)
@given(
    st.sampled_from([1, 3, 4, 6, 7, 12]),
    st.floats(7.0, math.log2(1e12)),
    st.floats(-1.55, 1.55),
    st.floats(-3.0, 2.0),
)
@_examples([(n_max, 0.0, arg, 0.0) for n_max in (1, 3, 4, 6, 7, 12) for arg in (0.0, 1.51)])
@_examples([(6, edge, arg, 0.0) for edge in _OCTAVE_EDGES for arg in (0.0, -1.5)])
def test_series_branch_moments_match_mpmath(n_max, log2_mu_sq, arg, log_a):
    # the series branch: |mu|^2 from 170 + 14 n_max, to which a smaller
    # 2^log2_mu_sq is raised, up to 1e12. Each octave of |mu|^2 is summed
    # with the terms its lower edge needs, or the threshold if that is higher
    top = 170.0 + 14.0 * n_max
    mu = cmath.rect(math.sqrt(max(2.0**log2_mu_sq, top)), arg)
    a = 10.0**log_a
    b = mu * math.sqrt(a)
    # rounding can leave |mu|^2 an ulp below the threshold, off the branch
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
    # 0, and neither the scalar nor the array form overflows on the way
    kappa = 10.0**log_kappa
    omega = kappa * 10.0**log_ratio * (-1.0 if negative else 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = tau_transform(kappa, omega, 0.0).real
        array = _tau_damped(np.array([kappa, kappa]), np.array([omega, -omega]), 0.0)
    assert math.isfinite(value) and value >= 0.0
    assert array.tolist() == [value, value]


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
