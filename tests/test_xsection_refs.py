"""The differential cross-section against 30-digit mpmath references of the
reduced integral on a grid of angles, energies and packet widths
(tests/xsection_refs.json, written by tests/make_xsection_refs.py)."""

import json
import math
import os

import pytest

from atomdecoh.scattering import ScatteringConfig, diff_cross_section_numeric

#: the accuracy diff_cross_section_numeric states
STATED_ACCURACY = 1e-10

with open(os.path.join(os.path.dirname(__file__), "xsection_refs.json"), encoding="utf-8") as fh:
    REFS = json.load(fh)

POINTS = REFS["points"]


def test_grid_is_complete():
    grid = {(p["theta"], p["energy_ev"], p["z0"]) for p in POINTS}
    assert len(grid) == len(POINTS) == 120


@pytest.mark.parametrize(
    "point", POINTS, ids=lambda p: f"theta={p['theta']:.3g}-E={p['energy_ev']:g}-z0={p['z0']:g}"
)
def test_diff_cross_section_matches_reference(point):
    config = ScatteringConfig(E_n_ev=point["energy_ev"], z0=point["z0"])
    # the reference is a function of the library's floating-point q
    assert config.q == point["q"]
    r = 4.0  # the alpha-to-neutron mass ratio the references were made with
    prefactor = (2.0 * math.pi * config.scatt_length) ** 2 * (1.0 + 1.0 / r) ** 2 / (8.0 * math.pi**3)
    expected = prefactor * float(point["reduced_integral"])
    value = diff_cross_section_numeric(config, point["theta"])
    assert abs(value - expected) <= STATED_ACCURACY * expected
