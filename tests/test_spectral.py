"""Transforms and diagonal multiplier operators."""

import numpy as np
import pytest

from metapulse import (
    DirectedPair,
    DrudeParams,
    EvanescentBandError,
    FieldPair,
    GridMismatchError,
    InadmissibleGridError,
    Multiplier,
    Signal,
    TimeGrid,
    apply,
    make_multiplier,
    propagate_linear_exact,
    split,
)
from metapulse.spectral import MULTIPLIER_KINDS
from conftest import (DRUDE_KINDS, drude_multiplier, fft_omegas,
                      gaussian_pulse, random_zero_mean)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(100, 0.1)  # not a power of two
    with pytest.raises(ValueError):
        TimeGrid(4, 0.1)
    with pytest.raises(ValueError):
        TimeGrid(64, 0.0)
    g = TimeGrid(64, 0.25)
    assert g.window == pytest.approx(16.0)
    # the rfft bins 2 pi k / 16 run from DC to the Nyquist pi / 0.25
    np.testing.assert_allclose(g.half_omegas,
                               2.0 * np.pi * np.arange(33) / 16.0, rtol=1e-15)


def test_signal_validation(grid):
    with pytest.raises(ValueError):
        Signal(grid, np.zeros(grid.n - 1))
    with pytest.raises(ValueError):
        Signal(grid, np.full(grid.n, np.nan))


def test_d_dt_on_sine(unit_params, grid):
    k = 25
    wk = fft_omegas(grid)[k]
    d_dt = make_multiplier("d_dt", unit_params, grid)
    out = apply(d_dt, Signal(grid, np.sin(wk * grid.times)))
    np.testing.assert_allclose(
        out.samples, wk * np.cos(wk * grid.times), atol=1e-10 * wk
    )


def test_d_dt_inverse_pair(unit_params, grid, rng):
    d_dt = make_multiplier("d_dt", unit_params, grid)
    d_dt_inv = make_multiplier("d_dt_inv", unit_params, grid)
    s = random_zero_mean(grid, rng)
    for first, second in ((d_dt, d_dt_inv), (d_dt_inv, d_dt)):
        out = apply(second, apply(first, s))
        assert np.max(np.abs(out.samples - s.samples)) <= 1e-10 * s.peak


def test_a_multiplier_value():
    # grid engineered so that w = 0.5 falls exactly on bin 16
    grid = TimeGrid(256, 2.0 * np.pi / (256 * 0.03125))
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    vals = make_multiplier("a", params, grid).values
    w = fft_omegas(grid)
    k = int(np.argmin(np.abs(w - 0.5)))
    assert w[k] == pytest.approx(0.5, rel=1e-12)
    assert vals[k].real == pytest.approx(-3.0)
    assert vals[0] == 0.0


def test_all_kinds_annihilate_dc(unit_params, grid):
    for kind in MULTIPLIER_KINDS:
        m = make_multiplier(kind, unit_params, grid)
        assert m.values[0] == 0.0


def test_apply_identity_and_mismatch(unit_params, grid, rng):
    s = random_zero_mean(grid, rng)
    ident = Multiplier(grid, np.ones(grid.n // 2 + 1))
    out = apply(ident, s)
    np.testing.assert_allclose(out.samples, s.samples, atol=1e-13)
    with pytest.raises(GridMismatchError):
        apply(ident, random_zero_mean(TimeGrid(grid.n, 2 * grid.dt), rng))


def test_multiplier_rejects_full_length_values(grid):
    # a multiplier holds the rfft bins 0..n/2 only
    with pytest.raises(ValueError, match="n//2\\+1"):
        Multiplier(grid, np.ones(grid.n))
    with pytest.raises(ValueError):
        Multiplier(grid, np.ones(grid.n // 2))
    assert Multiplier(grid, np.ones(grid.n // 2 + 1)).values.shape == (
        grid.n // 2 + 1,)


def test_a_squared_is_a_twice(unit_params, grid, rng):
    a = make_multiplier("a", unit_params, grid)
    a_sq = drude_multiplier("a_sq", unit_params, grid)
    s = random_zero_mean(grid, rng)
    twice = apply(a, apply(a, s))
    once = apply(a_sq, s)
    assert np.max(np.abs(twice.samples - once.samples)) <= 1e-10 * s.peak


def test_operator_identity_a2_eq_eps_mu(unit_params, grid, rng):
    a_sq = drude_multiplier("a_sq", unit_params, grid)
    eps = drude_multiplier("eps", unit_params, grid)
    mu = drude_multiplier("mu", unit_params, grid)
    c2 = unit_params.c**2
    for _ in range(20):
        s = random_zero_mean(grid, rng)
        lhs = apply(a_sq, s)
        rhs = apply(eps, apply(mu, s))
        assert np.max(np.abs(lhs.samples - rhs.samples / c2)) <= 1e-10 * s.peak


def test_eps_mu_commute(unit_params, grid, rng):
    eps = drude_multiplier("eps", unit_params, grid)
    mu = drude_multiplier("mu", unit_params, grid)
    # bin-wise the diagonal product commutes exactly
    np.testing.assert_array_equal(eps.values * mu.values, mu.values * eps.values)
    s = random_zero_mean(grid, rng)
    ab = apply(eps, apply(mu, s))
    ba = apply(mu, apply(eps, s))
    assert np.max(np.abs(ab.samples - ba.samples)) <= 1e-12 * s.peak


def test_evanescent_grid_rejected():
    params = DrudeParams(1.0, 2.0, c=1.0, eps0=1.0, mu0=1.0)
    grid = TimeGrid(1024, 0.05)  # bins cover (1, 2) densely
    for kind in ("a", "a_inv"):
        with pytest.raises(EvanescentBandError):
            make_multiplier(kind, params, grid)


@pytest.mark.parametrize("build", [
    lambda j, params, grid: make_multiplier("a", params, grid),
    lambda j, params, grid: make_multiplier("a_inv", params, grid),
    lambda j, params, grid: split(FieldPair(Signal.zeros(grid), j), params),
    lambda j, params, grid: propagate_linear_exact(
        DirectedPair(j, Signal.zeros(grid)), [0.0, 1.0], params),
], ids=["a", "a_inv", "split", "propagate_linear_exact"])
def test_every_a_hat_build_meets_one_gap_rule(build):
    # medium.a_symbol is the one gap test: the grid check that ran before
    # it raised InadmissibleGridError naming "33 grid bins" on this grid,
    # bins 33..65 of 2 pi k / 204.8 rad/s
    params = DrudeParams(1.0, 2.0, c=1.0, eps0=1.0, mu0=1.0)
    grid = TimeGrid(1024, 0.2)
    j = gaussian_pulse(grid, carrier=0.5, width=12.0)
    with pytest.raises(EvanescentBandError) as err:
        build(j, params, grid)
    assert str(err.value) == ("33 frequencies lie in the evanescent band "
                              "(1, 2) rad/s")


def test_a_inv_tol_rejected():
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
    # bin 32 sits exactly at the plasma frequency where a = 0
    grid = TimeGrid(256, 2.0 * np.pi / (256 * 0.03125))
    with pytest.raises(InadmissibleGridError):
        make_multiplier("a_inv", params, grid)
    make_multiplier("a", params, grid)  # plain a is fine there


def test_real_to_real_closure(unit_params, grid, rng):
    s = random_zero_mean(grid, rng)
    for kind in MULTIPLIER_KINDS + DRUDE_KINDS:
        build = drude_multiplier if kind in DRUDE_KINDS else make_multiplier
        out = apply(build(kind, unit_params, grid), s)
        assert np.all(np.isfinite(out.samples))


def test_unknown_kind(unit_params, grid):
    # runs apply a, a_inv and d_dt_inv; d_dt serves the benchmark's tracer
    # self-test, and the Drude kinds no run applies are the tests' own
    assert MULTIPLIER_KINDS == ("a", "a_inv", "d_dt", "d_dt_inv")
    for kind in ("b",) + DRUDE_KINDS:
        with pytest.raises(ValueError, match="unknown multiplier kind"):
            make_multiplier(kind, unit_params, grid)
