"""Properties that hold over the whole parameter domain, checked on
Hypothesis draws. Derandomized and without an example database, so every
run draws the same examples and writes nothing to the working tree."""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from atomdecoh.density import purity
from atomdecoh.momentum import momentum_density
from atomdecoh.scattering import tau_transform

REPRODUCIBLE = settings(derandomize=True, deadline=None, database=None)

# Hypothesis caches the constants it collects from the source in its home
# directory even without an example database, and does so while pytest
# collects; a temporary home, removed at exit, keeps the tree clean
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)


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


@REPRODUCIBLE
@given(st.one_of(st.just(0.0), st.floats(1e-6, 1e4)), st.floats(1e-3, 1e3))
def test_momentum_density_is_nonnegative(q, z0):
    assert momentum_density(q, z0) >= 0.0
