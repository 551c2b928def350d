"""Splitting entry-plane fields and reconstruction."""

import numpy as np
import pytest
import warnings

from metapulse import (
    DirectedPair,
    FieldPair,
    Signal,
    apply,
    make_multiplier,
    reconstruct,
    split,
)
from conftest import random_zero_mean, gaussian_pulse


def clean_fields(unit_params, grid, rng):
    j = gaussian_pulse(grid, carrier=0.4, width=15.0)
    k = gaussian_pulse(grid, carrier=0.5, width=12.0, amplitude=0.8)
    return FieldPair(b=k, e=j)


@pytest.mark.filterwarnings("ignore:boundary signal")
def test_split_j_zero(unit_params, grid, rng):
    k = random_zero_mean(grid, rng)
    dp = split(FieldPair(b=k, e=Signal.zeros(grid)), unit_params)
    np.testing.assert_allclose(dp.pi.samples, 0.5 * k.samples, atol=1e-13)
    np.testing.assert_allclose(dp.lam.samples, 0.5 * k.samples, atol=1e-13)


@pytest.mark.filterwarnings("ignore:boundary signal")
def test_split_pure_right_wave(unit_params, grid, rng):
    j = random_zero_mean(grid, rng)
    k = apply(make_multiplier("a", unit_params, grid), j)
    dp = split(FieldPair(b=k, e=j), unit_params)
    assert dp.lam.peak <= 1e-10 * k.peak
    assert np.max(np.abs(dp.pi.samples - k.samples)) <= 1e-10 * k.peak


@pytest.mark.filterwarnings("ignore:boundary signal")
def test_split_linearity(unit_params, grid, rng):
    j1, k1 = random_zero_mean(grid, rng), random_zero_mean(grid, rng)
    j2, k2 = random_zero_mean(grid, rng), random_zero_mean(grid, rng)
    a, b = 1.3, -0.4
    dp = split(FieldPair(b=a * k1 + b * k2, e=a * j1 + b * j2), unit_params)
    dp1 = split(FieldPair(b=k1, e=j1), unit_params)
    dp2 = split(FieldPair(b=k2, e=j2), unit_params)
    assert (
        np.max(np.abs(dp.pi.samples - a * dp1.pi.samples - b * dp2.pi.samples))
        <= 1e-12 * dp.peak
    )


@pytest.mark.filterwarnings("ignore:boundary signal")
def test_round_trips(unit_params, grid, rng):
    fields = clean_fields(unit_params, grid, rng)
    back = reconstruct(split(fields, unit_params), unit_params)
    assert np.max(np.abs(back.b.samples - fields.b.samples)) <= 1e-9 * fields.b.peak
    assert np.max(np.abs(back.e.samples - fields.e.samples)) <= 1e-9 * fields.e.peak

    # other direction: directed pair -> fields -> directed pair
    dp0 = DirectedPair(random_zero_mean(grid, rng), random_zero_mean(grid, rng))
    fields = reconstruct(dp0, unit_params)
    dp1 = split(fields, unit_params)
    assert (
        np.max(np.abs(dp1.pi.samples - dp0.pi.samples)) <= 1e-9 * dp0.peak
    )
    assert (
        np.max(np.abs(dp1.lam.samples - dp0.lam.samples)) <= 1e-9 * dp0.peak
    )


def test_reconstruct_degenerate_pairs(unit_params, grid, rng):
    pi = random_zero_mean(grid, rng)
    out = reconstruct(DirectedPair(pi=pi, lam=-pi), unit_params)
    assert out.b.peak <= 1e-12 * pi.peak
    out = reconstruct(DirectedPair(pi=pi, lam=pi), unit_params)
    assert out.e.peak <= 1e-12 * pi.peak


def test_energy_bookkeeping(unit_params, grid, rng):
    fields = clean_fields(unit_params, grid, rng)
    dp = split(fields, unit_params)
    aj = apply(make_multiplier("a", unit_params, grid), fields.e)
    lhs = np.sum(dp.pi.samples**2) + np.sum(dp.lam.samples**2)
    rhs = 0.5 * (np.sum(fields.b.samples**2) + np.sum(aj.samples**2))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_regime_warnings(unit_params, grid):
    # split treats the record as periodic, so it reports DC content and
    # undecayed window edges, and passes a clean pulse pair silently
    def messages(b, e):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            split(FieldPair(b=b, e=e), unit_params)
        return [str(w.message) for w in rec]

    zero = Signal.zeros(grid)
    dirty = Signal(grid, np.ones(grid.n))
    assert messages(zero, dirty) == [
        "boundary signal j has DC content above 1e-08 of peak",
        "boundary signal j does not decay at window edges"]
    t = grid.times
    undecayed = Signal(grid, np.sin(2.0 * np.pi * 5.0 * t / grid.window))
    assert messages(undecayed, zero) == [
        "boundary signal k does not decay at window edges"]
    clean = clean_fields(unit_params, grid, None)
    assert messages(clean.b, clean.e) == []
