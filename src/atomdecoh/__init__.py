"""Single-atom decoherence toolkit.

Reduced density matrices, purity and momentum distributions for the
nucleus of a hydrogen-like or helium atom whose electron cloud acts as an
internal environment, plus the observable consequences: washed-out
two-slit fringes and an anomalous term in slow-neutron scattering off
helium.
"""

from .constants import (
    CODATA,
    electron_velocity_scale,
    neutron_wavenumber,
    proton_velocity_scale,
)
from .density import (
    Z_EFF_HELIUM,
    helium_kernel,
    hydrogen_kernel,
    purity,
    reduced_density,
)
from .momentum import (
    MomentumDistribution,
    electron_limit,
    gaussian_limit,
    momentum_density,
    momentum_distribution,
)
from .quadrature import QuadratureError
from .scattering import (
    AngularTable,
    ScatteringConfig,
    angular_scan,
    check_conditions,
    diff_cross_section_asymptotic,
    diff_cross_section_numeric,
    f_theta,
    h_theta,
    tau_transform,
    total_cross_section_numeric,
)
from .twoslit import (
    TwoSlitConfig,
    coherent_pattern,
    decohered_pattern,
    expected_fringe_period,
    schmidt_overlap,
    screen_scan,
    visibility,
)
from .wavepacket import GaussianPacket

__version__ = "1.0.0"

__all__ = [
    "CODATA",
    "electron_velocity_scale",
    "neutron_wavenumber",
    "proton_velocity_scale",
    "Z_EFF_HELIUM",
    "helium_kernel",
    "hydrogen_kernel",
    "purity",
    "reduced_density",
    "MomentumDistribution",
    "electron_limit",
    "gaussian_limit",
    "momentum_density",
    "momentum_distribution",
    "QuadratureError",
    "AngularTable",
    "ScatteringConfig",
    "angular_scan",
    "check_conditions",
    "diff_cross_section_asymptotic",
    "diff_cross_section_numeric",
    "f_theta",
    "h_theta",
    "tau_transform",
    "total_cross_section_numeric",
    "TwoSlitConfig",
    "coherent_pattern",
    "decohered_pattern",
    "expected_fringe_period",
    "schmidt_overlap",
    "screen_scan",
    "visibility",
    "GaussianPacket",
]
