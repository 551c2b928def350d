"""Projector algebra and the evolution-generator eigenstructure.

The projectors are applied through the production split and
reconstruction (``conftest.projections``); random fields do not decay at
the window edges, so split's boundary warnings are expected here.
"""

import numpy as np
import pytest

from metapulse import (
    FieldPair,
    GridMismatchError,
    Signal,
    TimeGrid,
    a_symbol,
    apply,
    make_multiplier,
)
from conftest import (drude_multiplier, field_peak, fft_omegas, projections,
                      random_zero_mean)

pytestmark = pytest.mark.filterwarnings("ignore:boundary signal")


def random_pair(grid, rng):
    return FieldPair(random_zero_mean(grid, rng), random_zero_mean(grid, rng))


def l_operator(params, grid, psi):
    """Apply the x-evolution generator L = [[0, -dt a^2], [-dt, 0]]."""
    d_dt = make_multiplier("d_dt", params, grid)
    a_sq = drude_multiplier("a_sq", params, grid)
    b_out = -1.0 * apply(d_dt, apply(a_sq, psi.e))
    e_out = -1.0 * apply(d_dt, psi.b)
    return FieldPair(b_out, e_out)


def commutation_check(params, grid, n_trials=50, seed=0):
    """Max residual of (P1 L - L P1) psi over random zero-mean fields.

    Residuals are normalized by the peak of L psi (the operator gain grows
    like w^3, so the input peak alone would overstate the error). Diagonal
    frequency multipliers commute bin-wise, so this measures only
    transform round-off.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        psi = random_pair(grid, rng)
        l_psi = l_operator(params, grid, psi)
        lhs = l_operator(params, grid, projections(psi, params, grid)[0])
        rhs = projections(l_psi, params, grid)[0]
        worst = max(worst, field_peak(lhs, rhs)
                    / max(field_peak(psi), field_peak(l_psi)))
    return worst


def test_orthogonality(unit_params, grid, rng):
    # P2 P1 = 0; acceptance 1 checks completeness, idempotence and P1 P2
    psi = random_pair(grid, rng)
    p1 = projections(psi, unit_params, grid)[0]
    assert field_peak(projections(p1, unit_params, grid)[1]) <= (
        1e-10 * field_peak(psi))


def test_apply_examples(unit_params, grid, rng):
    b = random_zero_mean(grid, rng)

    # E = 0: both projections share the same B half, opposite E halves
    p1, p2 = projections(FieldPair(b, Signal.zeros(grid)), unit_params, grid)
    np.testing.assert_allclose(p1.b.samples, 0.5 * b.samples, atol=1e-12)
    np.testing.assert_allclose(p2.b.samples, 0.5 * b.samples, atol=1e-12)
    np.testing.assert_allclose(p1.e.samples, -p2.e.samples, atol=1e-12)
    a_inv_b = apply(make_multiplier("a_inv", unit_params, grid), b)
    np.testing.assert_allclose(
        p1.e.samples, -0.5 * a_inv_b.samples, atol=1e-12 * b.peak
    )

    # B = a-hat E: pure right wave (Lambda = 0), so P1 kills it and P2
    # keeps it
    e = random_zero_mean(grid, rng)
    b2 = apply(make_multiplier("a", unit_params, grid), e)
    psi2 = FieldPair(b2, e)
    p1, kept = projections(psi2, unit_params, grid)
    assert field_peak(p1) <= 1e-10 * field_peak(psi2)
    assert field_peak(kept, psi2) <= 1e-10 * field_peak(psi2)


def test_linearity(unit_params, grid, rng):
    psi1 = random_pair(grid, rng)
    psi2 = random_pair(grid, rng)
    alpha, beta = 0.7, -1.9
    mixed = FieldPair(alpha * psi1.b + beta * psi2.b,
                      alpha * psi1.e + beta * psi2.e)
    lhs = projections(mixed, unit_params, grid)[0]
    q1 = projections(psi1, unit_params, grid)[0]
    q2 = projections(psi2, unit_params, grid)[0]
    rhs = FieldPair(alpha * q1.b + beta * q2.b, alpha * q1.e + beta * q2.e)
    assert field_peak(lhs, rhs) <= 1e-12 * max(field_peak(psi1),
                                               field_peak(psi2))


def test_grid_mismatch(unit_params, grid, rng):
    other = TimeGrid(grid.n, 2.0 * grid.dt)
    with pytest.raises(GridMismatchError):
        FieldPair(random_zero_mean(grid, rng), random_zero_mean(other, rng))


def test_commutation_residual(unit_params, grid):
    assert commutation_check(unit_params, grid, n_trials=50) <= 1e-10


def test_per_bin_eigen_relation(unit_params, grid, rng):
    # each projector maps any vector into one eigenspace of the L symbol:
    # the minus-sign matrix (which=1) spans (-a, 1), eigenvalue +i w a,
    # the plus-sign matrix (which=2) spans (+a, 1), eigenvalue -i w a
    ks = rng.integers(1, grid.n // 4, size=40)
    for k in np.unique(ks):
        w = fft_omegas(grid)[k]
        a = a_symbol(unit_params, w)
        if abs(a) < 1e-9:
            continue
        l_sym = np.array([[0.0, -1j * w * a**2], [-1j * w, 0.0]])
        for sign, eig in ((-1.0, 1j * w * a), (1.0, -1j * w * a)):
            proj = 0.5 * np.array([[1.0, sign * a], [sign / a, 1.0]])
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pv = proj @ v
            resid = np.max(np.abs(l_sym @ pv - eig * pv))
            assert resid <= 1e-12 * max(1.0, np.max(np.abs(pv)) * abs(w * a))


def test_real_to_real(unit_params, grid, rng):
    psi = random_pair(grid, rng)
    out = projections(psi, unit_params, grid)[0]
    assert np.isrealobj(out.b.samples) and np.isrealobj(out.e.samples)
    out_l = l_operator(unit_params, grid, psi)
    assert np.all(np.isfinite(out_l.b.samples))
