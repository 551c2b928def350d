"""Linear, Klein-Gordon and Kerr propagation along x."""

import warnings

import numpy as np
import pytest

from metapulse import (
    BlowUpError,
    DirectedPair,
    DrudeParams,
    GridMismatchError,
    Signal,
    TimeGrid,
    a_symbol,
    apply,
    kerr_default_steps,
    make_multiplier,
    propagate_kg,
    propagate_linear_exact,
    propagate_nonlinear,
    propagate_unidirectional,
)
from metapulse.evolution import (KERR_TAIL, PropagationRecord,
                                 _entry_spectrum, _kerr_rhs, _march_rk4)
from conftest import (fft_omegas, gaussian_pulse, kernel_response,
                      random_zero_mean)
from test_acceptance import (
    from_dimensionless,
    kerr_coupling,
    propagate_dimensionless,
    to_dimensionless,
)


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
    out = propagate_linear_exact(dp0, [0.0], unit_params)[0]
    np.testing.assert_allclose(out.pi.samples, dp0.pi.samples, atol=1e-13)
    with pytest.raises(ValueError):
        propagate_linear_exact(dp0, [-1.0], unit_params)[0]


def test_linear_exact_plane_wave_phase(unit_params, grid):
    k = 13
    wk = fft_omegas(grid)[k]
    a = a_symbol(unit_params, wk)
    x = 2.5
    dp0 = DirectedPair(Signal(grid, np.cos(wk * grid.times)), Signal.zeros(grid))
    out = propagate_linear_exact(dp0, [x], unit_params)[0]
    factor = np.fft.fft(out.pi.samples)[k] / np.fft.fft(dp0.pi.samples)[k]
    assert abs(factor - np.exp(-1j * wk * a * x)) <= 1e-12
    # Lambda branch carries the opposite phase
    dp0 = DirectedPair(Signal.zeros(grid), Signal(grid, np.cos(wk * grid.times)))
    out = propagate_linear_exact(dp0, [x], unit_params)[0]
    factor = np.fft.fft(out.lam.samples)[k] / np.fft.fft(dp0.lam.samples)[k]
    assert abs(factor - np.exp(+1j * wk * a * x)) <= 1e-12


def test_linear_exact_magnitude_and_energy(unit_params, grid, rng):
    dp0 = DirectedPair(random_zero_mean(grid, rng), random_zero_mean(grid, rng))
    out = propagate_linear_exact(dp0, [7.0], unit_params)[0]
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
        two_leg = prop(prop(dp0, [1.3], unit_params)[0], [2.2],
                       unit_params)[0]
        one_leg = prop(dp0, [3.5], unit_params)[0]
        assert (
            np.max(np.abs(two_leg.pi.samples - one_leg.pi.samples))
            <= 1e-10 * dp0.peak
        )



# The per-x linear propagators that the batched ones replaced, kept as their
# reference: verbatim but for their names and the KG band warning. Each call
# takes its own rfft, builds one phase row and takes one irfft.
def _advance_per_x(dp, theta):
    grid = dp.grid
    factors = np.exp(1j * np.array([[-1.0], [1.0]]) * theta)
    factors[:, [0, -1]] = 1.0
    spec = np.fft.rfft([dp.pi.samples, dp.lam.samples])
    pi, lam = np.fft.irfft(factors * spec, grid.n)
    return DirectedPair(Signal(grid, pi), Signal(grid, lam))


def _linear_exact_per_x(dp0, x, params, grid):
    if x < 0:
        raise ValueError("x must be nonnegative")
    a_vals = make_multiplier("a", params, grid).values.real
    return _advance_per_x(dp0, grid.half_omegas * a_vals * x)


def _kg_per_x(dp0, x, params, grid):
    if x < 0:
        raise ValueError("x must be nonnegative")
    pq_c = params.omega_pe * params.omega_pm / params.c
    w = grid.half_omegas
    theta = np.zeros(w.size)
    theta[1:] = -pq_c * x / w[1:]
    return _advance_per_x(dp0, theta)


@pytest.mark.filterwarnings("ignore:spectral content")
@pytest.mark.parametrize("medium", ["unit", "p_ne_q"])
@pytest.mark.parametrize("batched, per_x", [
    (propagate_linear_exact, _linear_exact_per_x),
    (propagate_kg, _kg_per_x),
], ids=["exact", "kg"])
def test_batched_linear_stations_match_per_x_bit_for_bit(
        unit_params, grid, rng, medium, batched, per_x):
    # one transform for all stations reproduces one transform per station,
    # for unsorted and repeated distances and x = 0
    params = unit_params
    if medium == "p_ne_q":
        # gap (1, 2); every bin lies below it, up to Nyquist at pi/4
        params = DrudeParams(1.0, 2.0, c=2.0, eps0=0.5, mu0=0.5)
        grid = TimeGrid(1024, 4.0)
    dp0 = DirectedPair(random_zero_mean(grid, rng), random_zero_mean(grid, rng))
    xs = [2.5, 0.0, 7.0, 2.5, 1.3, 0.0]
    out = batched(dp0, xs, params)
    assert len(out) == len(xs)
    for x, got in zip(xs, out):
        want = per_x(dp0, x, params, grid)
        assert got.pi.samples.tobytes() == want.pi.samples.tobytes()
        assert got.lam.samples.tobytes() == want.lam.samples.tobytes()


@pytest.mark.parametrize("prop", [propagate_linear_exact, propagate_kg])
@pytest.mark.parametrize("xs", [[-1.0], [1.0, np.nan], [np.inf], [0.5, -np.inf],
                                2.0, [[1.0]]])
def test_linear_propagators_reject_bad_distances_before_any_transform(
        unit_params, grid, monkeypatch, prop, xs):
    dp0 = DirectedPair(Signal.zeros(grid), Signal.zeros(grid))

    def no_transform(*args, **kwargs):
        raise AssertionError("transform taken before x was checked")

    monkeypatch.setattr(np.fft, "rfft", no_transform)
    with pytest.raises(ValueError, match="^x must"):
        prop(dp0, xs, unit_params)


@pytest.mark.parametrize("tail, warns", [(2e-6, True), (0.5e-6, False)])
def test_kg_band_warning_threshold(unit_params, grid, tail, warns):
    # content above min(p, q) / 2 = 0.5 rad/s warns once it exceeds 1e-6
    # of the spectral peak
    w = grid.half_omegas
    low, high = np.searchsorted(w, [0.3, 0.6])
    wave = np.cos(w[low] * grid.times) + tail * np.cos(w[high] * grid.times)
    dp0 = DirectedPair(Signal(grid, wave), Signal.zeros(grid))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        propagate_kg(dp0, [1.0], unit_params)
    assert [str(m.message).startswith("spectral content above 0.5 rad/s")
            for m in caught] == ([True] if warns else [])


def test_kg_plane_wave_phase(unit_params, grid):
    k = 9
    wk = fft_omegas(grid)[k]
    x = 1.7
    dp0 = DirectedPair(Signal(grid, np.sin(wk * grid.times)), Signal.zeros(grid))
    out = propagate_kg(dp0, [x], unit_params)[0]
    factor = np.fft.fft(out.pi.samples)[k] / np.fft.fft(dp0.pi.samples)[k]
    expected = np.exp(1j * x / wk)  # +pq x/(c w)
    assert abs(factor - expected) <= 1e-12


def test_kg_band_warning(unit_params, grid):
    hot = DirectedPair(band_pulse(grid, 0.9, 10.0), Signal.zeros(grid))
    with pytest.warns(UserWarning):
        propagate_kg(hot, [1.0], unit_params)[0]


def test_kg_matches_exact_in_band(unit_params):
    # deep long-wave pulse: content below 0.1 of the plasma frequency
    grid = TimeGrid(4096, 0.4)
    dp0 = DirectedPair(
        gaussian_pulse(grid, carrier=0.05, width=130.0), Signal.zeros(grid)
    )
    x = 1.0
    kg = propagate_kg(dp0, [x], unit_params)[0]
    exact = propagate_linear_exact(dp0, [x], unit_params)[0]
    disc = rel_l2(kg.pi.samples, exact.pi.samples)

    spec = np.abs(np.fft.fft(dp0.pi.samples))
    occupied = spec > 1e-8 * np.max(spec)
    w_occ = np.abs(fft_omegas(grid)[occupied])
    w_edge = np.max(w_occ)
    assert w_edge <= 0.1
    from metapulse import taylor_truncation_error

    budget = taylor_truncation_error(unit_params, w_edge) * np.max(
        np.abs(w_occ * a_symbol(unit_params, w_occ))
    ) * x
    assert disc <= budget


# the kernel tests' window: 2^16 samples of 0.05 s, 3276.8 s, long enough
# that the Bessel tails from a pulse 150 s from one end wrap back below 1e-6
# of its peak
KERNEL_GRID = TimeGrid(2**16, 0.05)
KERNEL_X = 3.0


def kernel_pulse(t0):
    """A sine of 0.25 rad/s under a Gaussian of width 24 s centred on the
    sample t0: zero mean, and under 1e-8 of its spectral peak above 0.5
    rad/s, so that ``propagate_kg`` has no cause to warn."""
    return lambda t: (np.sin(0.25 * (t - t0))
                      * np.exp(-0.5 * ((t - t0) / 24.0) ** 2))


def kernel_entry():
    """(Pi's pulse, Lambda's pulse, their entry pair): Pi's 150 s after the
    window's start, Lambda's 150 s before its end, so each kernel's tail has
    the window ahead of it."""
    window = KERNEL_GRID.n * KERNEL_GRID.dt
    pi, lam = kernel_pulse(150.0), kernel_pulse(window - 150.0)
    t = KERNEL_GRID.times
    return pi, lam, DirectedPair(Signal(KERNEL_GRID, pi(t)),
                                 Signal(KERNEL_GRID, lam(t)))


@pytest.mark.parametrize("params", [
    DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0),
    DrudeParams(1.0, 2.0, c=1.0, eps0=1.0, mu0=1.0),
], ids=["unit", "p_ne_q"])
def test_kg_matches_the_bessel_kernel(params):
    # Pi's factor exp(+i pq x/(c w)) is the causal kernel with beta = pq x/c,
    # Lambda's that kernel reflected in time; they departed by 6.7e-8 (unit)
    # and 3.4e-7 (p != q) of the peak
    pi, lam, dp0 = kernel_entry()
    out = propagate_kg(dp0, [KERNEL_X], params)[0]
    beta = params.omega_pe * params.omega_pm * KERNEL_X / params.c
    bound = 1e-5 * dp0.pi.peak
    for got, f, reflect in ((out.pi, pi, False), (out.lam, lam, True)):
        want = kernel_response(f, KERNEL_GRID, beta, reflect=reflect)
        assert np.max(np.abs(got.samples - want)) <= bound


def test_exact_on_p_eq_q_is_the_delayed_bessel_kernel(unit_params):
    # on p = q, w a(w) x = w x/c - p^2 x/(c w): a delay of x/c, then the
    # KG kernel with beta = p^2 x/c; they departed by 6.7e-8 of the peak
    pi, lam, dp0 = kernel_entry()
    out = propagate_linear_exact(dp0, [KERNEL_X], unit_params)[0]
    p, c = unit_params.omega_pe, unit_params.c
    bound = 1e-5 * dp0.pi.peak
    for got, f, reflect in ((out.pi, pi, False), (out.lam, lam, True)):
        want = kernel_response(f, KERNEL_GRID, p * p * KERNEL_X / c,
                               delay=KERNEL_X / c, reflect=reflect)
        assert np.max(np.abs(got.samples - want)) <= bound


def test_exact_pi_holds_nothing_before_its_front_arrives(unit_params):
    # Pi is directed: nothing at x precedes the entry's front by x/c. The
    # entry's envelope, of peak 1, is under 1e-7 before t = 13.7 s; Pi at
    # x = 3 held 2.3e-8 of the peak before 16.7 s
    _, _, dp0 = kernel_entry()
    front = 150.0 - 24.0 * np.sqrt(2.0 * np.log(1e7))
    assert np.max(np.abs(dp0.pi.samples[KERNEL_GRID.times < front])) <= 1e-7
    out = propagate_linear_exact(dp0, [KERNEL_X], unit_params)[0]
    early = KERNEL_GRID.times < front + KERNEL_X / unit_params.c
    assert np.max(np.abs(out.pi.samples[early])) <= 1e-5 * dp0.pi.peak


@pytest.mark.filterwarnings("ignore:spectral content")
def test_kg_second_order_residual(unit_params, grid):
    # d_x d_t Pi + (pq/c) Pi = 0; x-derivative by centered differences,
    # h small against the per-bin phase rate pq/(c w)
    dp0 = DirectedPair(band_pulse(grid, 0.4, 15.0), Signal.zeros(grid))
    d_dt = make_multiplier("d_dt", unit_params, grid)
    x = 2.0
    scale = dp0.pi.peak

    def residual(h):
        plus = propagate_kg(dp0, [x + h], unit_params)[0]
        minus = propagate_kg(dp0, [x - h], unit_params)[0]
        mid = propagate_kg(dp0, [x], unit_params)[0]
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
    kg = propagate_kg(dp0, [x], unit_params)[0]
    assert rel_l2(rec.final.pi.samples, kg.pi.samples) <= 1e-6
    assert rel_l2(rec.final.lam.samples, kg.lam.samples) <= 1e-6


@pytest.mark.filterwarnings("ignore:spectral content")
@pytest.mark.parametrize("n_steps", [4, 37])
@pytest.mark.parametrize("medium", ["unit", "p_ne_q"])
def test_chi3_zero_march_is_kg_to_rounding(unit_params, grid, medium,
                                           n_steps):
    # the integrating factor carries the whole linear part, so without the
    # cubic term every kept station is the KG propagation at any step count
    params = unit_params
    if medium == "p_ne_q":
        # gap (1, 2); every bin lies below it, up to Nyquist at pi/4
        params = DrudeParams(1.0, 2.0, c=2.0, eps0=0.5, mu0=0.5)
        grid = TimeGrid(1024, 4.0)
    dp0 = DirectedPair(band_pulse(grid, 0.4, 15.0), band_pulse(grid, 0.3, 20.0))
    if medium == "p_ne_q":
        dp0 = DirectedPair(band_pulse(grid, 0.2, 60.0),
                           band_pulse(grid, 0.15, 80.0))
    x = 2.0
    for rec, entry in (
        (propagate_nonlinear(dp0, x, n_steps, params, grid, n_stations=5),
         dp0),
        (propagate_unidirectional(dp0.pi, x, n_steps, params, grid,
                                  n_stations=5),
         DirectedPair(dp0.pi, Signal.zeros(grid))),
    ):
        kg = propagate_kg(entry, rec.stations, params)
        for got, want in zip(rec.states, kg):
            for a, b in ((got.pi, want.pi), (got.lam, want.lam)):
                assert np.max(np.abs(a.samples - b.samples)) <= (
                    1e-12 * entry.peak)


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


def _flipped_nonlinear(dp0, x_end, n_steps, params, grid, n_stations=2):
    """propagate_nonlinear with the sign of the +-(pq/c) pair flipped."""
    rhs = _kerr_rhs(params, grid)
    rhs.lin = -rhs.lin
    return _march_rk4(rhs, _entry_spectrum(dp0), x_end, n_steps,
                      n_stations, grid)


def test_nonlinear_swap_negate_symmetry(kerr_params, grid):
    # (Pi, Lambda) -> (-Lambda, -Pi) solves the system with the sign of
    # the +-(pq/c) pair flipped; the cubic coupling term is untouched
    dp0 = DirectedPair(band_pulse(grid, 0.5, 12.0), band_pulse(grid, 0.4, 16.0))
    x, n = 1.0, 100
    fwd = propagate_nonlinear(dp0, x, n, kerr_params, grid).final
    swapped0 = DirectedPair(-dp0.lam, -dp0.pi)
    swapped = _flipped_nonlinear(swapped0, x, n, kerr_params, grid).final
    assert np.max(np.abs(swapped.pi.samples + fwd.lam.samples)) <= 1e-10 * dp0.peak
    assert np.max(np.abs(swapped.lam.samples + fwd.pi.samples)) <= 1e-10 * dp0.peak


_ON_GRID = {
    "propagate_nonlinear": lambda dp, p, g: propagate_nonlinear(dp, 1.0, 8,
                                                                p, g),
    "propagate_unidirectional":
        lambda dp, p, g: propagate_unidirectional(dp.pi, 1.0, 8, p, g),
}


@pytest.mark.parametrize("name", sorted(_ON_GRID))
def test_propagators_reject_an_entry_on_another_grid(kerr_params, name):
    # the Kerr marchers take a grid beside the entry; an entry on dt 0.2
    # handed a dt 0.1 grid was marched and labelled with that grid
    entry_grid = TimeGrid(1024, 0.2)
    dp0 = DirectedPair(band_pulse(entry_grid, 0.5, 12.0),
                       Signal.zeros(entry_grid))
    _ON_GRID[name](dp0, kerr_params, entry_grid)
    with pytest.raises(GridMismatchError):
        _ON_GRID[name](dp0, kerr_params, TimeGrid(1024, 0.1))


@pytest.mark.filterwarnings("ignore:spectral content")
@pytest.mark.parametrize("prop, per_x", [
    (propagate_linear_exact, _linear_exact_per_x),
    (propagate_kg, _kg_per_x),
], ids=["exact", "kg"])
def test_linear_propagators_march_on_the_entrys_grid(kerr_params, prop,
                                                     per_x):
    # the grid is the entry's: when a dt 0.1 grid could be passed beside an
    # entry on dt 0.2, Pi at x = 1 ended 1.4 off on a pulse of peak 0.97
    entry_grid = TimeGrid(1024, 0.2)
    dp0 = DirectedPair(band_pulse(entry_grid, 0.5, 12.0),
                       Signal.zeros(entry_grid))
    out = prop(dp0, [0.0, 1.0], kerr_params)
    assert all(s.grid == entry_grid for s in out)
    want = per_x(dp0, 1.0, kerr_params, entry_grid)
    assert np.max(np.abs(out[1].pi.samples - want.pi.samples)) <= 1e-12


def test_nonlinear_dealiasing_keeps_top_third_clean(kerr_params, grid):
    dp0 = DirectedPair(band_pulse(grid, 0.5, 12.0), Signal.zeros(grid))
    rec = propagate_nonlinear(dp0, 1.0, 50, kerr_params, grid)
    spec = np.abs(np.fft.fft(rec.final.pi.samples))
    k = np.abs(np.fft.fftfreq(grid.n) * grid.n)
    top = k > grid.n // 3
    assert np.max(spec[top]) <= 1e-12 * np.max(spec)


@pytest.mark.filterwarnings("error")
def test_nonlinear_blowup_aborts_with_record(kerr_params, grid):
    # the record holds the stations kept so far plus the last finite state;
    # no overflow warning comes before the error, and the error names the
    # step, x, the stiffness h sigma_0 and the setting to change
    for amplitude, n_stations, kept, step in (
        (50.0, 2, [0.0, 0.5], 2),
        (3.0, 11, [0.0, 1.0, 2.0, 2.5], 6),  # stations at steps 2 and 4
    ):
        dp0 = DirectedPair(
            band_pulse(grid, 0.5, 12.0, amplitude=amplitude), Signal.zeros(grid)
        )
        with pytest.raises(BlowUpError) as err:
            propagate_nonlinear(dp0, 10.0, 20, kerr_params, grid,
                                n_stations=n_stations)
        rec = err.value.record
        stiffness = rec.meta["kerr_stiffness"]
        assert stiffness > 2.0 * np.sqrt(2.0)
        assert str(err.value) == (
            f"non-finite state at step {step} (x = {0.5 * step:g}) with "
            f"kerr_stiffness {stiffness:.3g}; raise run.n_steps until "
            f"kerr_stiffness is at most 2")
        assert np.array_equal(rec.stations, kept)
        assert rec.meta["aborted_at"] == rec.stations[-1] + 0.5
        assert np.all(np.diff(rec.stations) > 0)
        assert all(np.all(np.isfinite(s.pi.samples))
                   and np.all(np.isfinite(s.lam.samples)) for s in rec.states)


@pytest.mark.filterwarnings("error")
def test_blowup_after_the_entry_rate_grew_asks_for_more_steps(kerr_params,
                                                              grid):
    # Pi = Lambda cancels in u = Pi - Lambda, so the entry rate sigma_0 is
    # 0; the two waves part along x, u grows and the march turns non-finite
    # although h sigma_0 <= 2, so the error asks for more steps instead of
    # naming the bound that is met
    f = band_pulse(grid, 0.5, 12.0, amplitude=3.0)
    with pytest.raises(BlowUpError) as err:
        propagate_nonlinear(DirectedPair(f, f), 5.0, 4, kerr_params, grid)
    assert err.value.record.meta["kerr_stiffness"] == 0.0
    assert str(err.value) == (
        "non-finite state at step 3 (x = 3.75) with kerr_stiffness 0; the "
        "cubic term's rate grew during the march; raise run.n_steps above 4 "
        "(for example to 8)")


def _steepening_entry(amplitude=4.0):
    """p != q and a pulse that steepens along x: 21 derived steps to 2 at
    each Pi ``amplitude`` from 4 to 4.2."""
    params = DrudeParams(0.8, 1.2, c=1.0, eps0=1.0, mu0=1.0, chi3=1.0)
    grid = TimeGrid(2048, 0.1)
    dp0 = DirectedPair(band_pulse(grid, 0.4, 15.0, amplitude=amplitude),
                       band_pulse(grid, 0.35, 15.0, amplitude=2.0))
    return params, grid, dp0


def test_exit_stiffness_flags_a_finite_march_past_its_step():
    # sigma_0 at entry sets 21 steps. At 13 steps h sigma_0 is 2.6, inside
    # RK4's limit of 2 sqrt(2), but the pulse steepens along x: that march
    # ends finite with peaks near 6e21, while 42 steps end at 3.97. The
    # exit h sigma reads past the limit at 13 steps and within it at 42.
    # Pi's amplitude is 4.05: at 4 the 13 steps peak at 4e6 only
    params, grid, dp0 = _steepening_entry(4.05)
    assert kerr_default_steps(dp0, 2.0, params) == 21
    coarse, fine = (propagate_nonlinear(dp0, 2.0, n, params, grid)
                    for n in (13, 42))
    assert coarse.final.pi.peak > 1e7
    assert coarse.meta["kerr_stiffness_exit"] > 2.0 * np.sqrt(2.0)
    assert fine.final.pi.peak < 4.0
    assert fine.meta["kerr_stiffness_exit"] <= 2.0 * np.sqrt(2.0)


def test_exit_stiffness_of_a_huge_finite_march_is_inf_without_a_warning():
    # 11 steps to x = 2 at Pi's amplitude 4.2 end finite with Pi's peak
    # near 2.7e211, whose square overflows: the exit h sigma printed
    # "overflow encountered in multiply" (at amplitude 4 no step count
    # from 5 to 21 peaks above 1.5e8)
    params, grid, dp0 = _steepening_entry(4.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = propagate_nonlinear(dp0, 2.0, 11, params, grid)
    assert np.isfinite(record.final.pi.peak) and record.final.pi.peak > 1e150
    assert record.meta["kerr_stiffness_exit"] == np.inf


@pytest.mark.parametrize("cropped", [True, False])
def test_exit_stiffness_is_read_at_the_cut_of_the_last_march_grid(
        kerr_params, rng, cropped):
    # h sigma = h 3 rows (K/c) max_t(v^2) w_top, v the full grid's time
    # image of -w^2 (Pi - Lambda) cut at bin m/3 and w_top that bin's
    # frequency: m is the last march grid's at exit, the full grid's at
    # entry. One march ends cropped, one reaches the full grid
    if cropped:
        grid = TimeGrid(4096, 0.05)
        dp0 = DirectedPair(band_pulse(grid, 0.5, 12.0, amplitude=2.0),
                           Signal.zeros(grid))
        n_steps = kerr_default_steps(dp0, 2.0, kerr_params)
    else:
        grid = TimeGrid(1024, 0.2)
        dp0 = DirectedPair(*(random_zero_mean(grid, rng, grid.n // 2 - 1,
                                              0.01) for _ in range(2)))
        n_steps = 20
    rec = propagate_nonlinear(dp0, 2.0, n_steps, kerr_params, grid)
    m = rec.meta["kerr_march_n"]
    assert (m < grid.n) == cropped
    k_c = kerr_coupling(kerr_params).big_k / kerr_params.c
    w = grid.half_omegas

    def h_sigma(state, m):
        cut = m // 3 + 1
        u = np.fft.rfft(state.pi.samples - state.lam.samples)[:cut]
        v = np.fft.irfft(-w[:cut]**2 * u, grid.n)
        return 2.0 / n_steps * 6.0 * k_c * np.max(v * v) * w[cut - 1]

    assert rec.meta["kerr_stiffness"] == pytest.approx(
        h_sigma(rec.states[0], grid.n), rel=1e-9)
    assert rec.meta["kerr_stiffness_exit"] == pytest.approx(
        h_sigma(rec.final, m), rel=1e-9)
    if cropped:  # the full grid's cut reads higher
        assert h_sigma(rec.final, grid.n) > 1.1 * (
            rec.meta["kerr_stiffness_exit"])


def test_derived_count_of_a_steepening_pulse_ends_near_a_finer_march():
    # at exit the 21 derived steps are past RK4's limit at the full grid's
    # w_top (h sigma 4.4), but the march crops its grid to the band the
    # pulse fills, reaches the full grid only as the pulse steepens, and
    # ends within 1e-5 of 32x the steps
    params, grid, dp0 = _steepening_entry()
    coarse, fine = (propagate_nonlinear(dp0, 2.0, n, params, grid).final
                    for n in (21, 32 * 21))
    assert rel_l2(np.concatenate([coarse.pi.samples, coarse.lam.samples]),
                  np.concatenate([fine.pi.samples, fine.lam.samples])) <= 1e-5


@pytest.mark.parametrize("amplitude", [1.0, 3.0])
@pytest.mark.parametrize("coupled", [True, False])
def test_kerr_default_count_matches_a_finer_march(coupled, amplitude):
    # p != q, a right-going modulated pulse: at the default count the exit
    # is within 1e-5 of a march with 4 times the steps, both where the
    # Klein-Gordon phase (amplitude 1) and where the cubic term (amplitude
    # 3) sets the count
    params = DrudeParams(0.8, 1.2, c=1.0, eps0=1.0, mu0=1.0, chi3=1.0)
    grid = TimeGrid(4096, 0.05)
    pi0 = band_pulse(grid, 0.5, 12.0, amplitude=amplitude)
    entry = DirectedPair(pi0, Signal.zeros(grid)) if coupled else pi0
    march = propagate_nonlinear if coupled else propagate_unidirectional
    n_steps = kerr_default_steps(entry, 2.0, params)
    coarse, fine = (march(entry, 2.0, n, params, grid).final
                    for n in (n_steps, 4 * n_steps))
    assert rel_l2(np.concatenate([coarse.pi.samples, coarse.lam.samples]),
                  np.concatenate([fine.pi.samples, fine.lam.samples])) <= 1e-5


def _start_n(march, entry, params, grid):
    """The grid of m points a Kerr march starts on: that of a march too
    short to grow it."""
    return march(entry, 1e-6, 4, params, grid).meta["kerr_march_n"]


@pytest.mark.parametrize("n_steps, n_stations", [(37, 5), (6, 20)])
@pytest.mark.parametrize("coupled", [True, False])
def test_kerr_marchers_keep_requested_stations(kerr_params, coupled, n_steps,
                                               n_stations):
    # kept steps are linspace(0, n_steps, n_stations) as integers, duplicates
    # dropped; each equals, bit for bit, that step of a run keeping every
    # step. The march starts on 512 points and grows on its way, to 1024
    # coupled and to 768 (512 x 3/2) unidirectional
    grid = TimeGrid(1024, 0.2)
    pi0 = band_pulse(grid, 0.5, 12.0, amplitude=2.0)
    dp0 = DirectedPair(pi0, band_pulse(grid, 0.4, 16.0, amplitude=0.7))

    def march(stations):
        if coupled:
            return propagate_nonlinear(dp0, 1.0, n_steps, kerr_params, grid,
                                       n_stations=stations)
        return propagate_unidirectional(pi0, 1.0, n_steps, kerr_params, grid,
                                        n_stations=stations)

    rec, every = march(n_stations), march(n_steps + 1)
    entry, kerr = (dp0, propagate_nonlinear) if coupled else (
        pi0, propagate_unidirectional)
    assert _start_n(kerr, entry, kerr_params, grid) == 512
    assert every.meta["kerr_march_n"] == (1024 if coupled else 768)
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


def _full_spectrum_lawson(dp0, x_end, n_steps, grid, dealias, lin, nl,
                          coupled=True, dimensionless=False):
    """Reference march on complex full spectra (fft/ifft), every step kept.

    Rows follow dt^{-1} [-+lin row -+nl W] with W = (u_tt)^3 (physical
    form) or (u^3)_tt (``dimensionless``), u = Pi - Lambda, or u = Pi with
    Lambda held at zero when not ``coupled``. The linear part L is carried
    by the integrating factor E = exp(h L / 2) in Lawson's form of RK4:
    k2 = N(E (u + h/2 k1)), k3 = N(E u + h/2 k2), k4 = N(E^2 u + h E k3),
    u' = E^2 u + h/6 (E^2 k1 + 2 E (k2 + k3) + k4).
    """
    w = fft_omegas(grid)
    w2 = w**2
    inv_iw = np.zeros(grid.n, dtype=complex)
    inv_iw[w2 != 0.0] = 1.0 / (1j * w[w2 != 0.0])
    inv_iw[grid.n // 2] = 0.0
    keep = np.abs(np.fft.fftfreq(grid.n) * grid.n) <= grid.n // 3
    mask = keep if dealias else np.ones(grid.n, dtype=bool)

    def cube(u_hat):
        return np.fft.fft(np.fft.ifft(u_hat * mask).real ** 3) * mask

    def rhs(state):
        pi_hat, lam_hat = state
        u_hat = pi_hat - lam_hat if coupled else pi_hat
        w_hat = -w2 * cube(u_hat) if dimensionless else cube(-w2 * u_hat)
        d_lam = inv_iw * nl * w_hat
        return np.array([-d_lam, d_lam if coupled else 0.0 * d_lam])

    h = x_end / n_steps
    e = np.exp(0.5 * h * np.array([-lin * inv_iw, lin * inv_iw]))
    state = np.fft.fft([dp0.pi.samples, dp0.lam.samples])
    out = [np.fft.ifft(state).real]
    for _ in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(e * (state + 0.5 * h * k1))
        k3 = rhs(e * state + 0.5 * h * k2)
        k4 = rhs(e * e * state + h * e * k3)
        state = e * e * state + (h / 6.0) * (
            e * e * k1 + 2.0 * e * (k2 + k3) + k4)
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
def test_half_spectrum_marchers_match_full_spectrum_rk4(kerr_params, medium,
                                                         linear_sign):
    # the half-spectrum marchers reproduce a plain complex-fft Lawson RK4
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

    march = propagate_nonlinear if linear_sign == 1.0 else _flipped_nonlinear
    rec = march(dp0, x_end, n_steps, params, grid, n_stations=n_steps + 1)
    assert rec.meta["kerr_march_n"] == grid.n
    ref = _full_spectrum_lawson(dp0, x_end, n_steps, grid, True,
                                linear_sign * pq_c, k_c)
    assert _max_rel_dev(rec, ref, every) <= 1e-12
    # the Kerr term and the mask are resolved: the unmasked reference
    # departs by far more than the bound
    other = _full_spectrum_lawson(dp0, x_end, n_steps, grid, False,
                                  linear_sign * pq_c, k_c)
    assert _max_rel_dev(rec, other, every) > 1e-3

    if linear_sign == 1.0:
        uni0 = DirectedPair(dp0.pi, Signal.zeros(grid))
        rec = propagate_unidirectional(dp0.pi, x_end, n_steps, params, grid,
                                       n_stations=5)
        ref = _full_spectrum_lawson(uni0, x_end, n_steps, grid, True,
                                    pq_c, k_c, coupled=False)
        steps = np.linspace(0, n_steps, 5).astype(int)
        assert _max_rel_dev(rec, ref, steps) <= 1e-12

    if linear_sign == 1.0 and medium == "kerr":  # takes no medium
        rec = propagate_dimensionless(dp0, x_end, n_steps, grid)
        ref = _full_spectrum_lawson(dp0, x_end, n_steps, grid, True,
                                    1.0, 1.0, dimensionless=True)
        assert _max_rel_dev(rec, ref, [0, n_steps]) <= 1e-12


def test_cropped_march_is_within_a_thousandth_of_the_full_march_error(
        kerr_params):
    # kerr-16k's medium, pulse and x_end at n = 4096 (its window halved):
    # at equal steps the cropped march ends within 1e-3 of the full-grid
    # march's own error against 8x the steps, each row alone (measured 3e-5)
    grid = TimeGrid(4096, 0.1)
    j = band_pulse(grid, 0.5, 12.0)
    dp0 = DirectedPair(apply(make_multiplier("a", kerr_params, grid), j),
                       Signal.zeros(grid))
    n_steps = kerr_default_steps(dp0, 6.0, kerr_params)
    k_c = kerr_coupling(kerr_params).big_k / kerr_params.c
    full, fine = (_full_spectrum_lawson(dp0, 6.0, n, grid, True, 1.0, k_c)[-1]
                  for n in (n_steps, 8 * n_steps))
    final = propagate_nonlinear(dp0, 6.0, n_steps, kerr_params, grid).final
    for got, want, finer in zip((final.pi, final.lam), full, fine):
        assert rel_l2(got.samples, want) <= 1e-3 * rel_l2(want, finer)


def test_kerr_tail_is_the_largest_top_band_fraction(kerr_params, rng):
    # a broadband entry holds the full grid, with content on both sides of
    # each edge of its top band (n/4, n/3]; the meta is the largest
    # relative L2 there over the entry and every step, rows pooled
    grid = TimeGrid(1024, 0.2)
    dp0 = DirectedPair(*(random_zero_mean(grid, rng, grid.n // 2 - 1, 0.01)
                         for _ in range(2)))
    rec = propagate_nonlinear(dp0, 1.0, 20, kerr_params, grid, n_stations=21)
    assert rec.meta["kerr_march_n"] == grid.n
    fractions = []
    for state in rec.states:
        spec = np.fft.rfft([state.pi.samples, state.lam.samples])
        band = spec[:, grid.n // 4 + 1:grid.n // 3 + 1]
        fractions.append(np.linalg.norm(band) / np.linalg.norm(spec))
    assert max(fractions) > KERR_TAIL
    assert rec.meta["kerr_tail"] == pytest.approx(max(fractions), rel=1e-9)


@pytest.mark.parametrize("coupled", [True, False])
def test_cropped_march_keeps_its_top_band_within_kerr_tail(kerr_params,
                                                           coupled):
    # the march grows from 512 points, redoing each step whose top band
    # passed KERR_TAIL, and ends below the full grid, so every step it kept
    # holds its top band within the bound
    grid = TimeGrid(4096, 0.05)
    pi0 = band_pulse(grid, 0.5, 12.0, amplitude=2.0)
    entry = DirectedPair(pi0, Signal.zeros(grid)) if coupled else pi0
    march = propagate_nonlinear if coupled else propagate_unidirectional
    rec = march(entry, 2.0, kerr_default_steps(entry, 2.0, kerr_params),
                kerr_params, grid)
    assert _start_n(march, entry, kerr_params, grid) == 512
    assert 512 < rec.meta["kerr_march_n"] < grid.n
    assert rec.meta["kerr_tail"] <= KERR_TAIL


@pytest.mark.filterwarnings("ignore:spectral content")
@pytest.mark.parametrize("coupled", [True, False])
def test_bins_above_the_last_cut_keep_the_entrys_linear_phase(kerr_params,
                                                              rng, coupled):
    # the march grows from 512 points to 1024 (coupled) or 768 on its way;
    # the cubic term never reaches the bins above its last grid's 2/3 cut,
    # so at every kept station they hold the entry's Klein-Gordon phase,
    # whether the march carried them from a growth's fill or filled them
    # in for the station. The entry holds 3e-9 of its L2 in random bins
    # there: the stations' transforms round them by at most 1.1e-4 of each
    # bin, while a fill one bin short leaves 2e-2 in a grown grid's top bin
    grid = TimeGrid(1024, 0.2)
    spec = np.fft.rfft([band_pulse(grid, 0.5, 12.0, amplitude=2.0).samples,
                        band_pulse(grid, 0.4, 16.0, amplitude=0.7).samples])
    top = np.arange(spec.shape[1]) > grid.n // 4
    noise = rng.standard_normal(spec.shape) * top
    spec += 3e-9 * np.linalg.norm(spec) / np.linalg.norm(noise) * noise
    pi, lam = (Signal(grid, row) for row in np.fft.irfft(spec, grid.n))
    if not coupled:
        lam = Signal.zeros(grid)
    entry = DirectedPair(pi, lam) if coupled else pi
    march = propagate_nonlinear if coupled else propagate_unidirectional
    rec = march(entry, 1.0, 37, kerr_params, grid, n_stations=38)
    m = rec.meta["kerr_march_n"]
    assert _start_n(march, entry, kerr_params, grid) == 512
    assert m == (1024 if coupled else 768)
    kg = propagate_kg(DirectedPair(pi, lam), rec.stations, kerr_params)
    above = np.s_[m // 3 + 1:]
    for got, want in zip(rec.states, kg):
        for a, b in ((got.pi, want.pi), (got.lam, want.lam)):
            a, b = (np.fft.rfft(row.samples)[above] for row in (a, b))
            assert np.all(np.abs(a - b) <= 1e-3 * np.abs(b))


@pytest.mark.parametrize("rows", [2, 1])
def test_kerr_step_allocates_no_state_sized_array(kerr_params, grid, rows):
    # between two right-hand-side calls of a march (one call plus the RK4
    # arithmetic after it) no numpy array as large as a quarter of the
    # state is allocated; tracemalloc sees numpy's array allocations
    import tracemalloc

    pair = [band_pulse(grid, 0.5, 12.0).samples,
            band_pulse(grid, 0.4, 15.0, amplitude=0.5).samples]
    state = np.fft.rfft(np.stack(pair[:rows]))
    rhs = _kerr_rhs(kerr_params, grid)
    gaps = []

    def watched(s, out):
        current, peak = tracemalloc.get_traced_memory()
        gaps.append(peak - current)
        tracemalloc.reset_peak()
        return rhs(s, out)

    watched.stiffness, watched.lin = rhs.stiffness, rhs.lin
    tracemalloc.start()
    try:
        _march_rk4(watched, state, 0.1, 6, 2, grid)
    finally:
        tracemalloc.stop()
    assert len(gaps) == 24
    assert max(gaps[1:]) < state.nbytes / 4


def test_kerr_march_that_grows_allocates_no_sixteenth_of_the_state(
        kerr_params, grid):
    # the march grows from 512 to 640, 768 and 1024 points; between two
    # right-hand-side calls, growth included, no array a sixteenth of the
    # state is made
    # (a finiteness check on a strided view copied the crop: 18362 bytes)
    import tracemalloc

    pi0 = band_pulse(grid, 0.5, 12.0, amplitude=2.0).samples
    state = np.fft.rfft(np.stack([pi0, np.zeros(grid.n)]))
    rhs = _kerr_rhs(kerr_params, grid)
    gaps, widths = [], set()

    def watched(s, out):
        current, peak = tracemalloc.get_traced_memory()
        gaps.append(peak - current)
        widths.add(s.shape[-1])
        tracemalloc.reset_peak()
        return rhs(s, out)

    watched.stiffness, watched.lin = rhs.stiffness, rhs.lin
    tracemalloc.start()
    try:
        _march_rk4(watched, state, 2.0, 32, 2, grid)
    finally:
        tracemalloc.stop()
    assert widths == {257, 321, 385, 513}
    assert max(gaps[1:]) < state.nbytes / 16


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
    kg = propagate_kg(DirectedPair(pi0, Signal.zeros(grid)), [x],
                      unit_params)[0]
    assert rel_l2(uni.pi.samples, kg.pi.samples) > lam_rel


@pytest.mark.filterwarnings("ignore:spectral content")
def test_unidirectional_chi3_zero_is_kg(unit_params, grid):
    pi0 = band_pulse(grid, 0.4, 15.0)
    rec = propagate_unidirectional(pi0, 2.0, 200, unit_params, grid)
    kg = propagate_kg(
        DirectedPair(pi0, Signal.zeros(grid)), [2.0], unit_params
    )[0]
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

