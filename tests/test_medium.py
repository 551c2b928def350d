"""Closed-form Drude responses, slowness branch, Taylor expansion."""

from dataclasses import dataclass

import numpy as np
import pytest

from metapulse import (
    DrudeParams,
    EvanescentBandError,
    SingularFrequencyError,
    a_squared,
    a_symbol,
    drude_response,
    taylor_truncation_error,
)
from metapulse.medium import _check_nonzero


@dataclass(frozen=True)
class TaylorA:
    """Coefficients of the three-term expansion of the a-hat operator.

    In the lower band |a(w)| ~ k_m2/w^2 + k_0 + k_p2*w^2, so the expansion
    reads  a-hat ~ k_m2 * dt^{-2} - k_0 + k_p2 * dt^2  and in frequency
    the symbol is  -(k_m2/w^2 + k_0 + k_p2*w^2).
    """

    k_m2: float
    k_0: float
    k_p2: float

    def __post_init__(self):
        if not self.k_m2 > 0:
            raise ValueError("k_m2 must be positive")

    def symbol(self, omega):
        """Evaluate the truncated frequency symbol at ``omega``."""
        w2 = np.asarray(omega, dtype=float) ** 2
        return -(self.k_m2 / w2 + self.k_0 + self.k_p2 * w2)


def taylor_coefficients(params):
    """Three-term Taylor coefficients of a(w) around w = 0.

    |a(w)| = (pq/(c w^2)) sqrt((1 - w^2/p^2)(1 - w^2/q^2)) expands to
    k_m2 = pq/c, k_0 = -(p^2 + q^2)/(2cpq) and
    k_p2 = (1/(2pq) - (p^2 + q^2)^2/(8 p^3 q^3))/c, which is 0 at p = q,
    where the two-term series is exact.
    """
    p, q, c = params.omega_pe, params.omega_pm, params.c
    k_m2 = p * q / c
    k_0 = -(p**2 + q**2) / (2.0 * c * p * q)
    k_p2 = (1.0 / (2.0 * p * q) - (p**2 + q**2) ** 2 / (8.0 * p**3 * q**3)) / c
    return TaylorA(k_m2=k_m2, k_0=k_0, k_p2=k_p2)


def energy_density(params, omega, e_field, h_field):
    """Dispersive field energy density.

    W = d(w*eps)/dw * E^2 + d(w*mu)/dw * H^2
      = (1 + wpe^2/w^2) E^2 + (1 + wpm^2/w^2) H^2,

    positive for any nonzero fields, including in the double-negative band.
    """
    omega = _check_nonzero(omega)
    we = 1.0 + params.omega_pe**2 / omega**2
    wm = 1.0 + params.omega_pm**2 / omega**2
    out = we * np.asarray(e_field, dtype=float) ** 2 + wm * np.asarray(
        h_field, dtype=float
    ) ** 2
    return float(out) if out.ndim == 0 else out


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
    with pytest.raises(EvanescentBandError,
                       match=r"^1 frequency lies in the evanescent band"):
        a_symbol(params, 1.5)
    with pytest.raises(SingularFrequencyError):
        a_symbol(params, 0.0)


def test_taylor_coefficients_frozen(unit_params):
    ta = taylor_coefficients(unit_params)
    assert ta.k_m2 == pytest.approx(1.0)
    assert ta.k_0 == pytest.approx(-1.0)
    # k_p2 = (1/(2pq) - (p^2 + q^2)^2/(8 p^3 q^3))/c vanishes at p = q
    assert ta.k_p2 == 0.0
    # k_m2 is a plain product of the plasma frequencies over c
    a = taylor_coefficients(DrudeParams(2.0, 3.0, c=1.0, eps0=1.0, mu0=1.0))
    assert a.k_m2 == pytest.approx(6.0)
    assert a.k_p2 == pytest.approx(1.0 / 12.0 - 169.0 / 1728.0)


@pytest.mark.parametrize("params", [
    DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0),
    DrudeParams(2.0, 2.0, c=3.0, eps0=1.0 / 3.0, mu0=1.0 / 3.0),
    DrudeParams(2e15, 2e15),
])
def test_taylor_series_exact_at_p_equal_q(params):
    # at p = q, |a| = (p^2/(c w^2)) (1 - w^2/p^2) has two terms only
    ws = np.linspace(0.01, 0.95, 95) * params.omega_pe
    a = a_symbol(params, ws)
    ta = taylor_coefficients(params)
    assert np.max(np.abs(ta.symbol(ws) - a) / np.abs(a)) <= 1e-13


def test_taylor_symbol_approximates_a():
    # on q = 2p the first omitted term is O(w^4) against a ~ 1/w^2, so the
    # relative residual of the three-term series falls as w^6 toward DC
    params = DrudeParams(1.0, 2.0, c=1.0, eps0=1.0, mu0=1.0)
    ta = taylor_coefficients(params)
    ws = 0.2 * 2.0 ** -np.arange(5)
    rel = np.abs(ta.symbol(ws) - a_symbol(params, ws)) / np.abs(
        a_symbol(params, ws)
    )
    ratios = rel[:-1] / rel[1:]
    assert np.all((ratios > 60.0) & (ratios < 70.0))
    assert rel[0] < 1e-5


def test_truncation_error_examples(unit_params):
    # acceptance 5 checks 1/3 at 0.5 and the rise on (0, 0.95]
    assert taylor_truncation_error(unit_params, 1e-6) < 1e-11
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
