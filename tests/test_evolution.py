"""Linear, Klein-Gordon and Kerr propagation along x."""

import numpy as np
import pytest

from metapulse import (
    BlowUpError,
    DirectedPair,
    DrudeParams,
    Signal,
    TimeGrid,
    a_symbol,
    apply,
    build_nonlinearity,
    from_dimensionless,
    kerr_coupling,
    make_multiplier,
    propagate_dimensionless,
    propagate_kg,
    propagate_linear_exact,
    propagate_nonlinear,
    propagate_unidirectional,
    to_dimensionless,
)
from metapulse.evolution import PropagationRecord
from conftest import random_zero_mean, gaussian_pulse


def band_pulse(grid, carrier=0.4, width=15.0, amplitude=1.0):
    return gaussian_pulse(grid, carrier, width, amplitude)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_record_validation(grid):
    s = Signal.zeros(grid)
    dp = DirectedPair(s, s)
    with pytest.raises(ValueError):
        PropagationRecord(np.array([0.0, 1.0]), [dp])
    with pytest.raises(ValueError):
        PropagationRecord(np.array([0.5, 1.0]), [dp, dp])
    with pytest.raises(ValueError):
        PropagationRecord(np.array([0.0, 1.0, 0.5]), [dp, dp, dp])


def test_kerr_coupling_scales(kerr_params):
    kc = kerr_coupling(kerr_params)
    # p = q = c = mu0 = 1, chi3 = 1: K = 1/2, alpha = sqrt(2), beta = 1
    assert kc.big_k == pytest.approx(0.5)
    assert kc.alpha == pytest.approx(np.sqrt(2.0))
    assert kc.beta == pytest.approx(1.0)
    with pytest.raises(ValueError):
        kerr_coupling(DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0))


def test_linear_exact_identity_at_zero(unit_params, grid, rng):
    dp0 = DirectedPair(random_zero_mean(grid, rng), random_zero_mean(grid, rng))
    out = propagate_linear_exact(dp0, 0.0, unit_params, grid)
    np.testing.assert_allclose(out.pi.samples, dp0.pi.samples, atol=1e-13)
    with pytest.raises(ValueError):
        propagate_linear_exact(dp0, -1.0, unit_params, grid)


def test_linear_exact_plane_wave_phase(unit_params, grid):
    k = 13
    wk = grid.omegas[k]
    a = a_symbol(unit_params, wk)
    x = 2.5
    dp0 = DirectedPair(Signal(grid, np.cos(wk * grid.times)), Signal.zeros(grid))
    out = propagate_linear_exact(dp0, x, unit_params, grid)
    factor = np.fft.fft(out.pi.samples)[k] / np.fft.fft(dp0.pi.samples)[k]
    assert abs(factor - np.exp(-1j * wk * a * x)) <= 1e-12
    # Lambda branch carries the opposite phase
    dp0 = DirectedPair(Signal.zeros(grid), Signal(grid, np.cos(wk * grid.times)))
    out = propagate_linear_exact(dp0, x, unit_params, grid)
    factor = np.fft.fft(out.lam.samples)[k] / np.fft.fft(dp0.lam.samples)[k]
    assert abs(factor - np.exp(+1j * wk * a * x)) <= 1e-12


def test_linear_exact_magnitude_and_energy(unit_params, grid, rng):
    dp0 = DirectedPair(random_zero_mean(grid, rng), random_zero_mean(grid, rng))
    out = propagate_linear_exact(dp0, 7.0, unit_params, grid)
    mag0 = np.abs(np.fft.fft(dp0.pi.samples))
    mag1 = np.abs(np.fft.fft(out.pi.samples))
    assert np.max(np.abs(mag1 - mag0)) <= 1e-10 * np.max(mag0)
    e0 = np.sum(dp0.pi.samples**2)
    e1 = np.sum(out.pi.samples**2)
    assert e1 == pytest.approx(e0, rel=1e-10)


@pytest.mark.filterwarnings("ignore:spectral content")
def test_group_additivity(unit_params, grid, rng):
    dp0 = DirectedPair(random_zero_mean(grid, rng), random_zero_mean(grid, rng))
    for prop in (propagate_linear_exact, propagate_kg):
        if prop is propagate_kg:
            dp0 = DirectedPair(
                band_pulse(grid, 0.3, 20.0), band_pulse(grid, 0.25, 25.0)
            )
        two_leg = prop(prop(dp0, 1.3, unit_params, grid), 2.2, unit_params, grid)
        one_leg = prop(dp0, 3.5, unit_params, grid)
        assert (
            np.max(np.abs(two_leg.pi.samples - one_leg.pi.samples))
            <= 1e-10 * dp0.peak
        )


def test_kg_plane_wave_phase(unit_params, grid):
    k = 9
    wk = grid.omegas[k]
    x = 1.7
    dp0 = DirectedPair(Signal(grid, np.sin(wk * grid.times)), Signal.zeros(grid))
    out = propagate_kg(dp0, x, unit_params, grid)
    factor = np.fft.fft(out.pi.samples)[k] / np.fft.fft(dp0.pi.samples)[k]
    expected = np.exp(1j * x / wk)  # +pq x/(c w)
    assert abs(factor - expected) <= 1e-12


def test_kg_band_warning(unit_params, grid):
    hot = DirectedPair(band_pulse(grid, 0.9, 10.0), Signal.zeros(grid))
    with pytest.warns(UserWarning):
        propagate_kg(hot, 1.0, unit_params, grid)


def test_kg_matches_exact_in_band(unit_params):
    # deep long-wave pulse: content below 0.1 of the plasma frequency
    grid = TimeGrid(4096, 0.4)
    dp0 = DirectedPair(
        gaussian_pulse(grid, carrier=0.05, width=130.0), Signal.zeros(grid)
    )
    x = 1.0
    kg = propagate_kg(dp0, x, unit_params, grid)
    exact = propagate_linear_exact(dp0, x, unit_params, grid)
    disc = rel_l2(kg.pi.samples, exact.pi.samples)

    spec = np.abs(np.fft.fft(dp0.pi.samples))
    occupied = spec > 1e-8 * np.max(spec)
    w_occ = np.abs(grid.omegas[occupied])
    w_edge = np.max(w_occ)
    assert w_edge <= 0.1
    from metapulse import taylor_truncation_error

    budget = taylor_truncation_error(unit_params, w_edge) * np.max(
        np.abs(w_occ * a_symbol(unit_params, w_occ))
    ) * x
    assert disc <= budget


@pytest.mark.filterwarnings("ignore:spectral content")
def test_kg_second_order_residual(unit_params, grid):
    # d_x d_t Pi + (pq/c) Pi = 0; x-derivative by centered differences,
    # h small against the per-bin phase rate pq/(c w)
    dp0 = DirectedPair(band_pulse(grid, 0.4, 15.0), Signal.zeros(grid))
    d_dt = make_multiplier("d_dt", unit_params, grid)
    x = 2.0
    scale = dp0.pi.peak

    def residual(h):
        plus = propagate_kg(dp0, x + h, unit_params, grid)
        minus = propagate_kg(dp0, x - h, unit_params, grid)
        mid = propagate_kg(dp0, x, unit_params, grid)
        dxt = (
            apply(d_dt, plus.pi).samples - apply(d_dt, minus.pi).samples
        ) / (2.0 * h)
        return np.max(np.abs(dxt + mid.pi.samples))

    r1, r2 = residual(0.02), residual(0.01)
    assert r1 <= 1e-2 * scale
    assert 3.5 <= r1 / r2 <= 4.5  # second-order in the x-difference


@pytest.mark.filterwarnings("ignore:spectral content")
def test_nonlinear_chi3_zero_matches_kg(unit_params, grid):
    dp0 = DirectedPair(band_pulse(grid, 0.4, 15.0), band_pulse(grid, 0.3, 20.0))
    x = 2.0
    rec = propagate_nonlinear(dp0, x, 200, unit_params, grid)
    kg = propagate_kg(dp0, x, unit_params, grid)
    assert rel_l2(rec.final.pi.samples, kg.pi.samples) <= 1e-6
    assert rel_l2(rec.final.lam.samples, kg.lam.samples) <= 1e-6


def test_nonlinear_zero_fixed_point(kerr_params, grid):
    dp0 = DirectedPair(Signal.zeros(grid), Signal.zeros(grid))
    rec = propagate_nonlinear(dp0, 1.0, 8, kerr_params, grid)
    assert rec.final.pi.peak == 0.0
    assert rec.final.lam.peak == 0.0


def test_nonlinear_convergence_order(kerr_params, grid):
    dp0 = DirectedPair(
        band_pulse(grid, 0.5, 12.0, amplitude=1.0), Signal.zeros(grid)
    )
    x = 2.0
    ref = propagate_nonlinear(dp0, x, 800, kerr_params, grid).final.pi.samples
    errs = []
    for n in (100, 200):
        out = propagate_nonlinear(dp0, x, n, kerr_params, grid).final.pi.samples
        errs.append(np.linalg.norm(out - ref))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.7


def test_nonlinear_swap_negate_symmetry(kerr_params, grid):
    # (Pi, Lambda) -> (-Lambda, -Pi) solves the system with the sign of
    # the +-(pq/c) pair flipped; the cubic coupling term is untouched
    dp0 = DirectedPair(band_pulse(grid, 0.5, 12.0), band_pulse(grid, 0.4, 16.0))
    x, n = 1.0, 100
    fwd = propagate_nonlinear(dp0, x, n, kerr_params, grid).final
    swapped0 = DirectedPair(-dp0.lam, -dp0.pi)
    swapped = propagate_nonlinear(
        swapped0, x, n, kerr_params, grid, _linear_sign=-1.0
    ).final
    assert np.max(np.abs(swapped.pi.samples + fwd.lam.samples)) <= 1e-10 * dp0.peak
    assert np.max(np.abs(swapped.lam.samples + fwd.pi.samples)) <= 1e-10 * dp0.peak


def test_nonlinear_dealiasing_keeps_top_third_clean(kerr_params, grid):
    dp0 = DirectedPair(band_pulse(grid, 0.5, 12.0), Signal.zeros(grid))
    rec = propagate_nonlinear(dp0, 1.0, 50, kerr_params, grid, dealias=True)
    spec = np.abs(np.fft.fft(rec.final.pi.samples))
    k = np.abs(np.fft.fftfreq(grid.n) * grid.n)
    top = k > grid.n // 3
    assert np.max(spec[top]) <= 1e-12 * np.max(spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonlinear_blowup_aborts_with_record(kerr_params, grid):
    # the record holds the stations kept so far plus the last finite state
    for amplitude, n_stations, kept in (
        (50.0, 2, [0.0, 0.5]),  # non-finite at step 2
        (2.0, 11, [0.0, 1.0, 1.5]),  # station at step 2, non-finite at step 4
    ):
        dp0 = DirectedPair(
            band_pulse(grid, 0.5, 12.0, amplitude=amplitude), Signal.zeros(grid)
        )
        with pytest.raises(BlowUpError) as err:
            propagate_nonlinear(dp0, 10.0, 20, kerr_params, grid,
                                n_stations=n_stations)
        rec = err.value.record
        assert np.array_equal(rec.stations, kept)
        assert rec.meta["aborted_at"] == rec.stations[-1] + 0.5
        assert np.all(np.diff(rec.stations) > 0)
        assert all(np.all(np.isfinite(s.pi.samples))
                   and np.all(np.isfinite(s.lam.samples)) for s in rec.states)


@pytest.mark.parametrize("n_steps, n_stations", [(37, 5), (6, 20)])
@pytest.mark.parametrize("coupled", [True, False])
def test_kerr_marchers_keep_requested_stations(kerr_params, coupled, n_steps,
                                               n_stations):
    # kept steps are linspace(0, n_steps, n_stations) as integers, duplicates
    # dropped; each equals, bit for bit, that step of a run keeping every step
    grid = TimeGrid(1024, 0.2)
    pi0 = band_pulse(grid, 0.5, 12.0, amplitude=0.3)
    dp0 = DirectedPair(pi0, band_pulse(grid, 0.4, 16.0, amplitude=0.1))

    def march(stations):
        if coupled:
            return propagate_nonlinear(dp0, 1.0, n_steps, kerr_params, grid,
                                       n_stations=stations)
        return propagate_unidirectional(pi0, 1.0, n_steps, kerr_params, grid,
                                        n_stations=stations)

    rec, every = march(n_stations), march(n_steps + 1)
    steps = np.unique(np.linspace(0, n_steps, n_stations).astype(int))
    assert len(rec.states) == len(steps) == min(n_stations, n_steps + 1)
    assert np.array_equal(rec.stations, every.stations[steps])
    for state, i in zip(rec.states, steps):
        assert np.array_equal(state.pi.samples, every.states[i].pi.samples)
        assert np.array_equal(state.lam.samples, every.states[i].lam.samples)
    if not coupled:
        assert all(np.all(s.lam.samples == 0.0) for s in every.states)


@pytest.mark.parametrize("x_end, n_steps, n_stations, name", [
    (0.0, 2000, 2, "x_end"),
    (-1.0, 2000, 2, "x_end"),
    (1.0, 3, 2, "n_steps"),
    (1.0, 2000, 1, "n_stations"),
])
def test_kerr_marchers_reject_bad_inputs_before_marching(
        kerr_params, x_end, n_steps, n_stations, name):
    grid = TimeGrid(1024, 0.2)
    pi0 = band_pulse(grid, 0.5, 12.0)
    dp0 = DirectedPair(pi0, Signal.zeros(grid))
    with pytest.raises(ValueError, match=name):
        propagate_nonlinear(dp0, x_end, n_steps, kerr_params, grid,
                            n_stations=n_stations)
    with pytest.raises(ValueError, match=name):
        propagate_unidirectional(pi0, x_end, n_steps, kerr_params, grid,
                                 n_stations=n_stations)
    if n_stations >= 2:
        with pytest.raises(ValueError, match=name.replace("x_end", "zeta_end")):
            propagate_dimensionless(dp0, x_end, n_steps, grid)


def _full_spectrum_rk4(dp0, x_end, n_steps, grid, dealias, lin, nl,
                       coupled=True, dimensionless=False):
    """Reference march on complex full spectra (fft/ifft), every step kept.

    Rows follow dt^{-1} [-+lin row -+nl W] with W = (u_tt)^3 (physical
    form) or (u^3)_tt (``dimensionless``), u = Pi - Lambda, or u = Pi with
    Lambda held at zero when not ``coupled``.
    """
    w2 = grid.omegas**2
    inv_iw = np.zeros(grid.n, dtype=complex)
    inv_iw[w2 != 0.0] = 1.0 / (1j * grid.omegas[w2 != 0.0])
    inv_iw[grid.n // 2] = 0.0
    keep = np.abs(np.fft.fftfreq(grid.n) * grid.n) <= grid.n // 3
    mask = keep if dealias else np.ones(grid.n, dtype=bool)

    def cube(u_hat):
        return np.fft.fft(np.fft.ifft(u_hat * mask).real ** 3) * mask

    def rhs(state):
        pi_hat, lam_hat = state
        u_hat = pi_hat - lam_hat if coupled else pi_hat
        w_hat = -w2 * cube(u_hat) if dimensionless else cube(-w2 * u_hat)
        d_lam = inv_iw * (lin * lam_hat + nl * w_hat)
        return np.array([inv_iw * (-lin * pi_hat - nl * w_hat),
                         d_lam if coupled else 0.0 * d_lam])

    h = x_end / n_steps
    state = np.fft.fft([dp0.pi.samples, dp0.lam.samples])
    out = [np.fft.ifft(state).real]
    for _ in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(np.fft.ifft(state).real)
    return out


def _max_rel_dev(record, reference, steps):
    assert len(record.states) == len(steps)
    devs = []
    for state, step in zip(record.states, steps):
        for got, want in zip((state.pi.samples, state.lam.samples),
                             reference[step]):
            scale = np.max(np.abs(want))
            if scale > 0.0:
                devs.append(np.max(np.abs(got - want)) / scale)
            else:
                assert np.all(got == 0.0)
    return max(devs)


@pytest.mark.parametrize("medium", ["kerr", "p_ne_q"])
@pytest.mark.parametrize("linear_sign", [1.0, -1.0])
@pytest.mark.parametrize("dealias", [True, False])
def test_half_spectrum_marchers_match_full_spectrum_rk4(kerr_params, medium,
                                                         linear_sign, dealias):
    # the half-spectrum marchers reproduce a plain complex-fft classical RK4
    # to rounding at every kept station, for all three Kerr marchers
    params = kerr_params if medium == "kerr" else DrudeParams(
        1.0, 1.5, c=2.0, eps0=0.5, mu0=0.5, chi3=0.7)
    grid = TimeGrid(1024, 0.2)
    n_steps, x_end = 37, 1.0
    # third harmonics lie above the 2/3 cut (10.5 rad/s here) and Pi has a
    # component above it, so both sides of the mask change the march
    dp0 = DirectedPair(band_pulse(grid, 4.0, 12.0, amplitude=0.01)
                       + band_pulse(grid, 12.0, 12.0, amplitude=0.001),
                       band_pulse(grid, 3.5, 16.0, amplitude=0.005))
    pq_c = params.omega_pe * params.omega_pm / params.c
    k_c = kerr_coupling(params).big_k / params.c
    every = np.arange(n_steps + 1)

    rec = propagate_nonlinear(dp0, x_end, n_steps, params, grid,
                              dealias=dealias, n_stations=n_steps + 1,
                              _linear_sign=linear_sign)
    ref = _full_spectrum_rk4(dp0, x_end, n_steps, grid, dealias,
                             linear_sign * pq_c, k_c)
    assert _max_rel_dev(rec, ref, every) <= 1e-12
    # the Kerr term and the mask are resolved: toggling dealias departs by
    # far more than the bound
    other = _full_spectrum_rk4(dp0, x_end, n_steps, grid, not dealias,
                               linear_sign * pq_c, k_c)
    assert _max_rel_dev(rec, other, every) > 1e-3

    if linear_sign == 1.0:
        uni0 = DirectedPair(dp0.pi, Signal.zeros(grid))
        rec = propagate_unidirectional(dp0.pi, x_end, n_steps, params, grid,
                                       dealias=dealias, n_stations=5)
        ref = _full_spectrum_rk4(uni0, x_end, n_steps, grid, dealias,
                                 pq_c, k_c, coupled=False)
        steps = np.linspace(0, n_steps, 5).astype(int)
        assert _max_rel_dev(rec, ref, steps) <= 1e-12

    if linear_sign == 1.0 and medium == "kerr":  # takes no medium
        rec = propagate_dimensionless(dp0, x_end, n_steps, grid,
                                      dealias=dealias)
        ref = _full_spectrum_rk4(dp0, x_end, n_steps, grid, dealias, 1.0, 1.0,
                                 dimensionless=True)
        assert _max_rel_dev(rec, ref, [0, n_steps]) <= 1e-12


@pytest.mark.filterwarnings("ignore:spectral content")
def test_unidirectional_agrees_while_lambda_small(unit_params, grid):
    params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0, chi3=1e-5)
    pi0 = band_pulse(grid, 0.5, 12.0, amplitude=1.0)
    x, n = 2.0, 200
    uni = propagate_unidirectional(pi0, x, n, params, grid).final
    coupled = propagate_nonlinear(
        DirectedPair(pi0, Signal.zeros(grid)), x, n, params, grid
    ).final
    lam_rel = coupled.lam.peak / coupled.pi.peak
    assert lam_rel <= 1e-6
    assert rel_l2(uni.pi.samples, coupled.pi.samples) <= 10.0 * lam_rel + 1e-12
    # the nonlinear correction itself is resolved, not buried in noise
    kg = propagate_kg(DirectedPair(pi0, Signal.zeros(grid)), x, unit_params, grid)
    assert rel_l2(uni.pi.samples, kg.pi.samples) > lam_rel


@pytest.mark.filterwarnings("ignore:spectral content")
def test_unidirectional_chi3_zero_is_kg(unit_params, grid):
    pi0 = band_pulse(grid, 0.4, 15.0)
    rec = propagate_unidirectional(pi0, 2.0, 200, unit_params, grid)
    kg = propagate_kg(
        DirectedPair(pi0, Signal.zeros(grid)), 2.0, unit_params, grid
    )
    assert rel_l2(rec.final.pi.samples, kg.pi.samples) <= 1e-6
    assert rec.final.lam.peak == 0.0


def test_cubic_amplitude_scaling(kerr_params, unit_params, grid):
    pi0 = band_pulse(grid, 0.5, 12.0, amplitude=1.0)
    x, n = 2.0, 150
    # same marcher with chi3 = 0 so the linear discretization error cancels
    lin = propagate_unidirectional(pi0, x, n, unit_params, grid).final.pi.samples
    scales = np.array([1e-3, 10**-2.5, 1e-2])
    corr = []
    for s in scales:
        out = propagate_unidirectional(
            s * pi0, x, n, kerr_params, grid
        ).final.pi.samples
        corr.append(np.linalg.norm(out - s * lin))
    slope = np.polyfit(np.log(scales), np.log(corr), 1)[0]
    assert abs(slope - 3.0) <= 0.1


def test_dimensionless_round_trip(kerr_params, grid, rng):
    kc = kerr_coupling(kerr_params)
    dp0 = DirectedPair(random_zero_mean(grid, rng), random_zero_mean(grid, rng))
    rec = PropagationRecord(np.array([0.0]), [dp0], {"model": "t"})
    back = from_dimensionless(to_dimensionless(rec, kc), kc).final
    assert np.max(np.abs(back.pi.samples - dp0.pi.samples)) <= 1e-9 * dp0.peak
    assert np.max(np.abs(back.lam.samples - dp0.lam.samples)) <= 1e-9 * dp0.peak


def test_dimensionless_beta_example():
    params = DrudeParams(2.0, 2.0, c=1.0, eps0=1.0, mu0=1.0, chi3=1.0)
    assert kerr_coupling(params).beta == pytest.approx(1.0 / 4.0)


def test_dimensionless_dual_path(kerr_params, grid):
    dp0 = DirectedPair(
        band_pulse(grid, 0.5, 12.0, amplitude=0.5),
        band_pulse(grid, 0.4, 16.0, amplitude=0.3),
    )
    kc = kerr_coupling(kerr_params)
    x, n = 1.0, 100
    phys = propagate_nonlinear(dp0, x, n, kerr_params, grid)
    path_a = to_dimensionless(phys, kc).final

    dimless0 = to_dimensionless(
        PropagationRecord(np.array([0.0]), [dp0], {}), kc
    ).final
    path_b = propagate_dimensionless(dimless0, x / kc.beta, n, grid).final

    assert rel_l2(path_a.pi.samples, path_b.pi.samples) <= 1e-6
    assert rel_l2(path_a.lam.samples, path_b.lam.samples) <= 1e-6


def test_build_nonlinearity(kerr_params, grid, rng):
    zero = build_nonlinearity(Signal.zeros(grid), kerr_params, grid)
    assert zero.peak == 0.0
    e = band_pulse(grid, 0.4, 15.0)
    out = build_nonlinearity(e, kerr_params, grid)
    out_neg = build_nonlinearity(-e, kerr_params, grid)
    np.testing.assert_allclose(out_neg.samples, -out.samples, atol=1e-14)
    full = build_nonlinearity(e, kerr_params, grid, dominant_only=False)
    assert (full - out).peak > 0.0  # identity part of mu-hat contributes


def test_build_nonlinearity_pipeline_consistency(kerr_params, grid):
    # with e = (c/pq) (Pi - Lambda)_tt the source equals K dt^{-1}((...)_tt)^3
    pi = band_pulse(grid, 0.4, 15.0)
    lam = band_pulse(grid, 0.3, 20.0, amplitude=0.6)
    d_dt = make_multiplier("d_dt", kerr_params, grid)
    d_dt_inv = make_multiplier("d_dt_inv", kerr_params, grid)
    diff_tt = apply(d_dt, apply(d_dt, pi - lam))
    c_pq = kerr_params.c / (kerr_params.omega_pe * kerr_params.omega_pm)
    e = c_pq * diff_tt
    lhs = build_nonlinearity(e, kerr_params, grid)
    big_k = kerr_coupling(kerr_params).big_k
    rhs = big_k * apply(d_dt_inv, Signal(grid, diff_tt.samples**3))
    assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-10 * max(
        lhs.peak, rhs.peak
    )
