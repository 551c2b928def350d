"""Traveling-profile solutions and the Cardano-reduced oscillator."""

import warnings

import numpy as np
import pytest

from metapulse import (
    StationaryParams,
    cardano_f,
    integrate_oscillator,
    linear_l_profile,
    linear_r_profile,
    series_f,
    stationary_params,
)


@pytest.fixture
def sp(kerr_params):
    return stationary_params(0.8, kerr_params)


def test_params_identities(unit_params, rng):
    # acceptance 8 checks k^2 c v = 1
    for v in rng.uniform(0.05, 20.0, size=50):
        sp = stationary_params(v, unit_params)
        assert sp.k * sp.omega == pytest.approx(1.0, rel=1e-12)
        assert sp.omega / sp.k == pytest.approx(v, rel=1e-12)
    with pytest.raises(ValueError):
        stationary_params(-1.0, unit_params)


def test_params_examples(unit_params):
    sp = stationary_params(1.0, unit_params)  # v = c
    assert sp.k == pytest.approx(1.0)
    assert sp.omega == pytest.approx(1.0)
    sp2 = stationary_params(2.0, unit_params)
    assert sp2.k == pytest.approx(sp.k / np.sqrt(2.0))


def test_linear_profiles_values(sp):
    assert linear_r_profile(2.0, sp, 0.0) == pytest.approx(2.0)
    assert linear_l_profile(3.0, sp, 0.0) == 0.0
    h = 1e-6
    slope = (linear_l_profile(3.0, sp, h) - linear_l_profile(3.0, sp, -h)) / (
        2.0 * h
    )
    assert slope == pytest.approx(3.0 * sp.k, rel=1e-8)


def test_cardano_linear_limit(unit_params):
    sp0 = stationary_params(0.8, unit_params)  # chi3 = 0
    assert sp0.big_k_v == 0.0
    pis = np.linspace(-3.0, 3.0, 11)
    np.testing.assert_allclose(
        cardano_f(pis, sp0), -pis, rtol=1e-14
    )


def test_cardano_odd_and_residual(sp, kerr_params):
    # oddness; acceptance 8 back-substitutes the root on three media
    pis = np.linspace(-5.0, 5.0, 401)
    np.testing.assert_allclose(cardano_f(-pis, sp), -cardano_f(pis, sp),
                               atol=1e-13)


def test_cardano_monotone_decreasing(sp, kerr_params):
    pis = np.linspace(-10.0, 10.0, 2001)
    y = cardano_f(pis, sp)
    assert np.all(np.diff(y) < 0.0)


def test_oscillator_linear_limit(unit_params):
    sp0 = stationary_params(1.0, unit_params)
    k_osc = 1.0  # sqrt(pq/c)
    a0 = 0.5
    # acceptance 8 reads the first integral's drift from the same run
    xi, pi, _ = integrate_oscillator(a0, 0.0, 20.0, 4000, sp0)
    exact = a0 * np.cos(k_osc * xi)
    assert np.max(np.abs(pi - exact)) <= 1e-6 * a0


@pytest.mark.parametrize("v", [0.0, -1.0])
def test_profile_refuses_a_speed_that_is_not_positive(unit_params, v):
    with pytest.raises(ValueError, match="speed must be positive"):
        StationaryParams(v, 1.0, 1.0, 0.0, unit_params)


def test_oscillator_refuses_fewer_than_four_steps(sp):
    integrate_oscillator(1.0, 0.0, 1.0, 4, sp)
    with pytest.raises(ValueError, match="at least 4"):
        integrate_oscillator(1.0, 0.0, 1.0, 3, sp)


def test_oscillator_zero_and_order(unit_params, sp, kerr_params):
    xi, pi, slope = integrate_oscillator(0.0, 0.0, 5.0, 16, sp)
    assert np.all(pi == 0.0) and np.all(slope == 0.0)

    # RK4 order on the nonlinear oscillator against a fine reference
    ref = integrate_oscillator(1.0, 0.0, 4.0, 4096, sp)[1][-1]
    errs = [
        abs(integrate_oscillator(1.0, 0.0, 4.0, n, sp)[1][-1] - ref)
        for n in (32, 64)
    ]
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.7


def test_series_f(sp, kerr_params, unit_params):
    pis = np.linspace(-0.05, 0.05, 21)
    sp0 = stationary_params(sp.v, unit_params)
    np.testing.assert_allclose(
        series_f(pis, sp, order=1),
        cardano_f(pis, sp0),
        rtol=1e-14,
    )
    with pytest.raises(ValueError):
        series_f(0.1, sp, order=2)

    # acceptance 8 checks that the order-3 error shrinks like Pi^5; the
    # cubic correction opposes the linear restoring force for Pi > 0
    small = 0.01
    s3 = series_f(small, sp, order=3)
    s1 = series_f(small, sp, order=1)
    assert s3 > s1
    assert cardano_f(small, sp) > s1


@pytest.mark.parametrize("order", [1, 3])
def test_series_radius_is_where_the_cubic_term_takes_over(sp, kerr_params,
                                                          order):
    # the estimate c^1.5 / (sqrt(K_v) p q): silent just inside, warns just
    # outside
    p, q, c = kerr_params.omega_pe, kerr_params.omega_pm, kerr_params.c
    radius = c**1.5 / (np.sqrt(sp.big_k_v) * p * q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series_f([0.0, -(1.0 - 1e-9) * radius], sp, order=order)
    with pytest.warns(UserWarning, match="convergence estimate"):
        series_f([0.0, (1.0 + 1e-9) * radius], sp, order=order)
