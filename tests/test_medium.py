"""Closed-form Drude responses, slowness branch, Taylor expansion."""

import numpy as np
import pytest

from metapulse import (
    DrudeParams,
    EvanescentBandError,
    SingularFrequencyError,
    a_squared,
    a_symbol,
    drude_response,
    energy_density,
    taylor_coefficients,
    taylor_truncation_error,
)


def test_params_validation():
    with pytest.raises(ValueError):
        DrudeParams(-1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    with pytest.raises(ValueError):
        DrudeParams(1.0, 0.0, c=1.0, eps0=1.0, mu0=1.0)
    with pytest.raises(ValueError):
        DrudeParams(1.0, 1.0, c=2.0, eps0=1.0, mu0=1.0)
    with pytest.raises(ValueError):
        DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0, chi3=-1e-3)


def test_params_si_defaults_consistent():
    p = DrudeParams(1e15, 2e15)
    assert abs(p.c**2 * p.eps0 * p.mu0 - 1.0) <= 1e-12
    assert p.band_low == 1e15 and p.band_high == 2e15
    # CODATA 2022, whatever constants table is installed
    assert (p.c, p.eps0) == (299792458.0, 8.8541878188e-12)
    assert p.mu0 == 1.0 / (299792458.0**2 * 8.8541878188e-12)


def test_drude_response_values(unit_params):
    assert drude_response("electric", unit_params, 1.0) == 0.0
    assert drude_response("electric", unit_params, 0.5) == pytest.approx(-3.0)
    assert drude_response("magnetic", unit_params, 1e6) == pytest.approx(
        1.0, abs=1e-11
    )
    with pytest.raises(SingularFrequencyError):
        drude_response("electric", unit_params, 0.0)
    with pytest.raises(ValueError):
        drude_response("both", unit_params, 1.0)


def test_drude_response_formula_sweep():
    params = DrudeParams(0.7, 1.3, c=1.0, eps0=1.0, mu0=1.0)
    w = np.logspace(-6, 6, 10**6)
    eps = drude_response("electric", params, w)
    assert np.array_equal(eps, 1.0 - 0.7**2 / w**2)
    mu = drude_response("magnetic", params, w)
    assert np.array_equal(mu, 1.0 - 1.3**2 / w**2)


def test_a_squared_examples(unit_params):
    assert a_squared(unit_params, 0.5) == pytest.approx(9.0)
    assert a_squared(unit_params, 1.0) == 0.0
    params = DrudeParams(1.0, 2.0, c=1.0, eps0=1.0, mu0=1.0)
    assert a_squared(params, 1.5) < 0.0


def test_a_symbol_algebraic_case(unit_params):
    w = np.array([0.1, 0.5, 0.99, 1.01, 3.0, 10.0])
    np.testing.assert_allclose(
        a_symbol(unit_params, w), 1.0 - 1.0 / w**2, rtol=1e-14
    )
    assert a_symbol(unit_params, 0.1) == pytest.approx(-99.0)


def test_a_symbol_branch_and_band():
    params = DrudeParams(1.0, 2.0, c=1.0, eps0=1.0, mu0=1.0)
    w = np.concatenate([np.linspace(0.05, 0.99, 40), np.linspace(2.01, 9.0, 40)])
    a = a_symbol(params, w)
    a2 = a_squared(params, w)
    np.testing.assert_allclose(a**2, a2, rtol=1e-12)
    assert np.all(a[w < 1.0] < 0.0)
    assert np.all(a[w > 2.0] > 0.0)
    with pytest.raises(EvanescentBandError):
        a_symbol(params, 1.5)
    with pytest.raises(SingularFrequencyError):
        a_symbol(params, 0.0)


def test_taylor_coefficients_frozen(unit_params):
    ta = taylor_coefficients(unit_params)
    assert ta.k_m2 == pytest.approx(1.0)
    assert ta.k_0 == pytest.approx(-1.0)
    assert ta.k_p2 == pytest.approx(1.0)
    # k_m2 is a plain product of the plasma frequencies over c
    a = taylor_coefficients(DrudeParams(2.0, 3.0, c=1.0, eps0=1.0, mu0=1.0))
    assert a.k_m2 == pytest.approx(6.0)


def test_taylor_symbol_approximates_a(unit_params):
    # leading term dominates, so relative residual vanishes towards DC
    ta = taylor_coefficients(unit_params)
    ws = 0.2 * 2.0 ** -np.arange(6)
    rel = np.abs(ta.symbol(ws) - a_symbol(unit_params, ws)) / np.abs(
        a_symbol(unit_params, ws)
    )
    assert np.all(np.diff(rel) < 0.0)
    ratios = rel[:-1] / rel[1:]
    assert np.all(ratios > 3.0)
    assert rel[-1] < 1e-4


def test_truncation_error_examples(unit_params):
    assert taylor_truncation_error(unit_params, 1e-6) < 1e-11
    assert taylor_truncation_error(unit_params, 0.5) == pytest.approx(1.0 / 3.0)
    w = np.linspace(1e-3, 0.5, 200)
    err = taylor_truncation_error(unit_params, w)
    assert np.all(np.diff(err) > 0.0)
    with pytest.raises(EvanescentBandError):
        taylor_truncation_error(unit_params, 1.0)


def test_energy_density(unit_params, rng):
    assert energy_density(unit_params, 0.3, 0.0, 0.0) == 0.0
    assert energy_density(unit_params, 1.0, 1.0, 1.0) == pytest.approx(4.0)
    for _ in range(50):
        w = rng.uniform(0.05, 5.0)
        e, h = rng.standard_normal(2)
        if e == 0.0 and h == 0.0:
            continue
        assert energy_density(unit_params, w, e, h) > 0.0
    with pytest.raises(SingularFrequencyError):
        energy_density(unit_params, 0.0, 1.0, 1.0)
