"""Shared P1 assembly: band storage of both full-order models, dense forms on demand.

The quadrature oracles of ``test_heat.py`` and ``test_wave.py`` check the
values of the dense matrices; these tests check that both models come from
one assembly and keep only its bands.
"""

import dataclasses

import numpy as np
import pytest

from topinf import build_heat_model, build_wave_model, heat, wave
from topinf.heat import dense_slices, p1_assembly, weighted_bands

BREAKPOINTS = (heat.DEFAULT_BREAKPOINTS, wave.DEFAULT_BREAKPOINTS)


@pytest.mark.parametrize("breakpoints", BREAKPOINTS)
@pytest.mark.parametrize("n_elements", [12, 200, 201, 400])
def test_wave_flux_mass_is_the_heat_p1_mass(n_elements, breakpoints):
    _, _, (diag, off), _ = p1_assembly(n_elements, breakpoints)
    slices = dense_slices(diag, off)
    np.testing.assert_array_equal(slices, build_wave_model(n_elements, breakpoints).mass_v_slices)
    np.testing.assert_array_equal(slices.sum(axis=2),
                                  build_heat_model(n_elements, breakpoints).mass)


@pytest.mark.parametrize("build", [build_heat_model, build_wave_model])
def test_models_store_no_array_larger_than_their_bands(build):
    model = build(200)
    n, p = model.n_elements - 1, model.n_subdomains
    for field in dataclasses.fields(model):
        value = getattr(model, field.name)
        if isinstance(value, np.ndarray):
            held = value if value.base is None else value.base
            assert held.size <= p * n, (field.name, held.shape)


def test_weighted_bands_do_not_depend_on_the_sample_count():
    rng = np.random.default_rng(7)
    model = build_heat_model(30)
    weights = rng.uniform(0.01, 1.0, size=(model.n_subdomains, 5))
    diag, off = weighted_bands(weights, model.stiffness_diag, model.stiffness_off)
    for s in range(weights.shape[1]):
        one = weighted_bands(weights[:, s], model.stiffness_diag, model.stiffness_off)
        np.testing.assert_array_equal(one[0], diag[:, s])
        np.testing.assert_array_equal(one[1], off[:, s])
        dense = dense_slices(one[0][None], one[1][None])[:, :, 0]
        np.testing.assert_allclose(dense, model.stiffness @ weights[:, s], rtol=1e-14)


@pytest.mark.parametrize("build", [build_heat_model, build_wave_model])
@pytest.mark.parametrize("shape", [(), (7,)])
def test_each_model_applies_its_own_mass(build, shape):
    # heat's M through its bands, wave's Mw = h I; both match the dense
    # mass to 1e-15 relative, for one state and for a block of states
    model = build(40)
    mass = model.mass if build is build_heat_model else model.mass_w
    x = np.random.default_rng(8).standard_normal((mass.shape[0],) + shape)
    expected = mass @ x
    got = model.apply_mass(x)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15 * np.max(np.abs(expected)))
