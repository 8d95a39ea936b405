import math

import numpy as np
import pytest

from atomdecoh.density import (
    Z_EFF_HELIUM,
    CoherenceKernel,
    helium_kernel,
    hydrogen_kernel,
    purity,
    reduced_density,
)
from atomdecoh.wavepacket import GaussianPacket, evaluate
from oracles import integrate_3d_oracle, verify_offdiagonal_bound


def test_hydrogen_kernel_values():
    assert hydrogen_kernel(0.0) == 1.0
    assert hydrogen_kernel(2.0) == pytest.approx(0.5864529, abs=1e-7)
    assert hydrogen_kernel(10.0) == pytest.approx(2.012729e-3, rel=1e-5)


def test_hydrogen_kernel_rejects_negative_separation():
    with pytest.raises(ValueError):
        hydrogen_kernel(-0.1)


def test_helium_kernel_values():
    assert helium_kernel(0.0) == 1.0
    s_phys = 2.0 / Z_EFF_HELIUM
    assert helium_kernel(s_phys) == pytest.approx(0.5864529**2, abs=1e-6)
    assert helium_kernel(s_phys) == pytest.approx(0.3439270, abs=1e-6)


def test_helium_kernel_below_hydrogen_at_scaled_argument():
    for s in (0.1, 1.0, 3.0, 8.0):
        assert helium_kernel(s) <= hydrogen_kernel(Z_EFF_HELIUM * s)


def test_kernels_monotone_decreasing():
    grid = np.linspace(0.0, 12.0, 200)
    for kern in (hydrogen_kernel, helium_kernel):
        vals = kern(grid)
        assert np.all(np.diff(vals) < 0.0)


def test_reduced_density_diagonal_is_probability_density():
    packet = GaussianPacket(2.0, (0.0, 0.0, 0.0), (0.3, 0.0, 0.0), 1.0)
    kernel = CoherenceKernel.hydrogen()
    r = (0.5, -0.2, 1.0)
    rho = reduced_density(packet, kernel, r, r, 0.7)
    assert rho.imag == pytest.approx(0.0, abs=1e-16)
    assert rho.real == pytest.approx(abs(evaluate(packet, r, 0.7)) ** 2, rel=1e-12)


def test_reduced_density_hermitian():
    packet = GaussianPacket(2.0, (0.0, 0.0, 0.0), (0.3, 0.1, 0.0), 1.0)
    kernel = CoherenceKernel.helium()
    r, rp = (0.5, 0.0, 0.0), (-1.0, 0.4, 0.2)
    assert reduced_density(packet, kernel, r, rp, 1.3) == pytest.approx(
        np.conj(reduced_density(packet, kernel, rp, r, 1.3)), rel=1e-12
    )


@pytest.mark.parametrize(
    "r,rp",
    [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.5, 0.5, 0.0), (-0.5, 0.0, 0.5)),
        ((0.0, 0.0, 2.0), (0.0, 0.0, -1.0)),
    ],
)
def test_reduced_density_against_3d_oracle(r, rp):
    # trace out the orbital coordinate of the product state
    # psi(r) phi0(r_e - r): the electron integral must reproduce the
    # separable kernel factor
    packet = GaussianPacket(5.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    kernel = CoherenceKernel.hydrogen()
    r = np.asarray(r)
    rp = np.asarray(rp)

    def integrand(x, y, z):
        r1 = np.sqrt((x - r[0]) ** 2 + (y - r[1]) ** 2 + (z - r[2]) ** 2)
        r2 = np.sqrt((x - rp[0]) ** 2 + (y - rp[1]) ** 2 + (z - rp[2]) ** 2)
        return np.exp(-r1 - r2) / math.pi

    overlap = integrate_3d_oracle(integrand, box=20.0, n=48)
    psi_part = evaluate(packet, r, 0.0) * np.conj(evaluate(packet, rp, 0.0))
    oracle = psi_part * overlap
    direct = reduced_density(packet, kernel, r, rp, 0.0)
    assert abs(direct - oracle) <= 1e-4 * abs(direct)


def test_offdiagonal_bound_saturates_on_diagonal():
    kernel = CoherenceKernel.hydrogen()
    assert float(kernel(0.0)) == 1.0


def test_offdiagonal_bound_sampled():
    packet = GaussianPacket(3.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
    kernel = CoherenceKernel.hydrogen()
    assert verify_offdiagonal_bound(packet, kernel, 5.0, n_samples=100)


def test_offdiagonal_bound_monotone():
    kernel = CoherenceKernel.helium()
    grid = np.linspace(0.0, 10.0, 50)
    vals = [float(kernel(s)) for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_purity_small_z_law():
    z = 1e-3
    coeff = 33.0 / (16.0 * math.sqrt(math.pi))
    assert purity(z) / z**3 == pytest.approx(coeff, rel=5e-3)
    assert coeff == pytest.approx(1.1636410, abs=1e-6)


def test_purity_narrow_packet_limit():
    assert purity(100.0) == pytest.approx(1.0, abs=1e-3)


def test_purity_monotone_in_z():
    vals = [purity(z) for z in (0.01, 0.1, 1.0, 10.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_purity_rejects_nonpositive_z():
    with pytest.raises(ValueError):
        purity(0.0)
