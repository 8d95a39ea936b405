"""Single-atom decoherence toolkit.

Reduced density matrices, purity and momentum distributions for the
nucleus of a hydrogen-like or helium atom whose electron cloud acts as an
internal environment, plus the observable consequences: washed-out
two-slit fringes and an anomalous term in slow-neutron scattering off
helium.

``import atomdecoh`` loads none of the submodules (PEP 562). The first read
of a public name imports the submodule that defines it, with that
submodule's own imports, and binds the value here, so later reads are
plain lookups. ``atomdecoh.purity`` loads ``density`` and ``quadrature``;
``momentum_density`` loads ``momentum`` and ``quadrature``;
``check_conditions`` loads ``scattering``, ``constants``, ``density`` and
``quadrature``. Numpy loads later still, at the first array (``_numpy``).
``from atomdecoh import *`` loads every submodule but ``cli``.
"""

from importlib import import_module

__version__ = "1.0.0"

#: each public name and the submodule that defines it
_EXPORTS = {
    "CODATA": "constants",
    "electron_velocity_scale": "constants",
    "neutron_wavenumber": "constants",
    "proton_velocity_scale": "constants",
    "Z_EFF_HELIUM": "density",
    "helium_kernel": "density",
    "hydrogen_kernel": "density",
    "purity": "density",
    "reduced_density": "density",
    "MomentumDistribution": "momentum",
    "electron_limit": "momentum",
    "gaussian_limit": "momentum",
    "momentum_density": "momentum",
    "momentum_distribution": "momentum",
    "QuadratureError": "quadrature",
    "AngularTable": "scattering",
    "ScatteringConfig": "scattering",
    "angular_scan": "scattering",
    "check_conditions": "scattering",
    "diff_cross_section_asymptotic": "scattering",
    "diff_cross_section_numeric": "scattering",
    "f_theta": "scattering",
    "h_theta": "scattering",
    "tau_transform": "scattering",
    "total_cross_section_numeric": "scattering",
    "TwoSlitConfig": "twoslit",
    "coherent_pattern": "twoslit",
    "decohered_pattern": "twoslit",
    "expected_fringe_period": "twoslit",
    "schmidt_overlap": "twoslit",
    "screen_scan": "twoslit",
    "visibility": "twoslit",
    "GaussianPacket": "wavepacket",
}

__all__ = list(_EXPORTS)

#: submodules that ``atomdecoh.<name>`` imports on first read, as after
#: ``import atomdecoh.<name>``
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "_numpy"}


def __getattr__(name: str):
    """The public name or submodule ``name``, imported on first read and
    bound in this module."""
    if name in _EXPORTS:
        value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    elif name in _SUBMODULES:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
