"""Acceptance criteria: one test per criterion, one printed verdict each.

Each criterion is the one home of its checks: no unit test repeats one of
them on the same medium and grid at the same or a looser bound, and the
unit tests check what no criterion does.

Run with ``pytest tests/test_acceptance.py -v``; the PASS/FAIL lines are
printed unbuffered so they show up even under capture.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from metapulse import (
    DirectedPair,
    DrudeParams,
    FieldPair,
    Multiplier,
    Signal,
    TimeGrid,
    a_symbol,
    apply,
    cardano_f,
    integrate_oscillator,
    linear_l_profile,
    linear_r_profile,
    make_multiplier,
    propagate_kg,
    propagate_linear_exact,
    propagate_nonlinear,
    propagate_unidirectional,
    series_f,
    stationary_params,
    taylor_truncation_error,
)
from metapulse.cli import (
    SCENARIOS,
    main,
    parse_config,
    reference_compare,
    run_scenario,
    synthesize_pulse,
)
from metapulse.evolution import (
    PropagationRecord,
    _cube,
    _entry_spectrum,
    _march_rk4,
    _stiffness,
)
from metapulse.medium import C
from conftest import (drude_multiplier, field_peak, fft_omegas,
                      gaussian_pulse, projections, random_zero_mean)

UNIT = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
KERR = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0, chi3=1.0)
GRID = TimeGrid(4096, 0.05)


def verdict(n, ok, detail, capsys):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.filterwarnings("ignore:boundary signal")
def test_acceptance_01_projector_algebra(capsys):
    # P1 and P2 through the production split and reconstruction
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        psi = FieldPair(random_zero_mean(GRID, rng), random_zero_mean(GRID, rng))
        p1, p2 = projections(psi, UNIT, GRID)
        scale = field_peak(psi)
        worst = max(worst, field_peak(FieldPair(p1.b + p2.b, p1.e + p2.e),
                                      psi) / scale)
        worst = max(worst, field_peak(projections(p1, UNIT, GRID)[0], p1) / scale)
        worst = max(worst, field_peak(projections(p2, UNIT, GRID)[1], p2) / scale)
        worst = max(worst, field_peak(projections(p2, UNIT, GRID)[0]) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    verdict(1, ok, f"100 pairs, max residual {worst:.2e}, {elapsed:.2f}s",
            capsys)


def test_acceptance_02_operator_identities(capsys):
    rng = np.random.default_rng(7)
    # the production a-hat and d/dt against eps-hat and mu-hat, which the
    # tests build from the Drude responses
    mult = {k: make_multiplier(k, UNIT, GRID) for k in ("a", "d_dt")}
    mult.update((k, drude_multiplier(k, UNIT, GRID)) for k in ("eps", "mu"))
    worst = 0.0
    for _ in range(20):
        s = random_zero_mean(GRID, rng)
        lhs = apply(mult["a"], apply(mult["a"], s))
        rhs = apply(mult["eps"], apply(mult["mu"], s))  # c = eps0 = mu0 = 1
        worst = max(worst, (lhs - rhs).peak / s.peak)
        em = apply(mult["eps"], apply(mult["mu"], s))
        me = apply(mult["mu"], apply(mult["eps"], s))
        worst = max(worst, (em - me).peak / s.peak)
        da = apply(mult["d_dt"], apply(mult["a"], s))
        ad = apply(mult["a"], apply(mult["d_dt"], s))
        worst = max(worst, (da - ad).peak / max(s.peak, da.peak))
    ok = worst <= 1e-10
    verdict(2, ok, f"a^2 = eps*mu/c^2 and commutators, max residual "
                   f"{worst:.2e}", capsys)


def test_acceptance_03_exact_linear(capsys):
    k = 13
    wk = fft_omegas(GRID)[k]
    a = a_symbol(UNIT, wk)
    x = 2.5
    dp0 = DirectedPair(Signal(GRID, np.cos(wk * GRID.times)), Signal.zeros(GRID))
    out = propagate_linear_exact(dp0, [x], UNIT)[0]
    factor = np.fft.fft(out.pi.samples)[k] / np.fft.fft(dp0.pi.samples)[k]
    phase_err = abs(factor - np.exp(-1j * wk * a * x))

    rng = np.random.default_rng(3)
    dp0 = DirectedPair(random_zero_mean(GRID, rng), random_zero_mean(GRID, rng))
    out = propagate_linear_exact(dp0, [7.0], UNIT)[0]
    mag0 = np.abs(np.fft.fft(dp0.pi.samples))
    mag1 = np.abs(np.fft.fft(out.pi.samples))
    mag_err = np.max(np.abs(mag1 - mag0)) / np.max(mag0)

    two = propagate_linear_exact(
        propagate_linear_exact(dp0, [1.3], UNIT)[0], [2.2], UNIT
    )[0]
    one = propagate_linear_exact(dp0, [3.5], UNIT)[0]
    add_err = max(
        np.max(np.abs(two.pi.samples - one.pi.samples)),
        np.max(np.abs(two.lam.samples - one.lam.samples)),
    ) / dp0.peak
    ok = phase_err <= 1e-12 and mag_err <= 1e-10 and add_err <= 1e-10
    verdict(3, ok, f"phase {phase_err:.2e}, magnitude {mag_err:.2e}, "
                   f"additivity {add_err:.2e}", capsys)


def test_acceptance_04_kg_reduction(capsys, tmp_path):
    grid = TimeGrid(4096, 0.4)
    dp0 = DirectedPair(
        gaussian_pulse(grid, carrier=0.05, width=130.0), Signal.zeros(grid)
    )
    x = 1.0
    kg = propagate_kg(dp0, [x], UNIT)[0]
    exact = propagate_linear_exact(dp0, [x], UNIT)[0]
    disc = rel_l2(kg.pi.samples, exact.pi.samples)

    spec = np.abs(np.fft.fft(dp0.pi.samples))
    w_occ = np.abs(fft_omegas(grid)[spec > 1e-8 * np.max(spec)])
    w_edge = np.max(w_occ)
    budget = taylor_truncation_error(UNIT, w_edge) * np.max(
        np.abs(w_occ * a_symbol(UNIT, w_occ))
    ) * x

    # the kg scenario records the same budget in its manifest
    cfg = parse_config(
        "[scenario]\nname = propagate-kg\n"
        "[medium]\nomega_pe = 1.0\nomega_pm = 1.0\nc = 1.0\neps0 = 1.0\n"
        "mu0 = 1.0\n"
        "[grid]\nn = 4096\ndt = 0.4\n"
        "[pulse]\ncarrier = 0.05\nwidth = 130.0\n"
        "[run]\nx_end = 1.0\n"
    )
    status, _ = run_scenario(cfg, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    documented = manifest["summary"].get("kg_error_budget (1)")

    # second-order residual d_x d_t Pi + (pq/c) Pi via centered differences
    d_dt = make_multiplier("d_dt", UNIT, grid)
    h = 0.01
    dxt = (
        apply(d_dt, propagate_kg(dp0, [x + h], UNIT)[0].pi).samples
        - apply(d_dt, propagate_kg(dp0, [x - h], UNIT)[0].pi).samples
    ) / (2.0 * h)
    resid = np.max(np.abs(
        dxt + propagate_kg(dp0, [x], UNIT)[0].pi.samples))
    # centered-difference error of exp(i pq h /(c w)) is (pq/(c w))^2 h^2/6
    fd_budget = dp0.pi.peak * (1.0 / np.min(w_occ)) ** 2 * h**2 / 6.0

    ok = (
        w_edge <= 0.1
        and disc <= budget
        and status == 0
        and documented is not None
        and documented > 0.0
        and resid <= fd_budget
    )
    verdict(4, ok, f"band edge {w_edge:.3f}, kg-vs-exact {disc:.2e} <= "
                   f"budget {budget:.2e} (in manifest), pde residual "
                   f"{resid:.2e} <= fd budget {fd_budget:.2e}", capsys)


def test_acceptance_05_taylor_claims(capsys):
    t0 = time.perf_counter()
    omegas = np.linspace(0.0, 0.95, 401)[1:]
    err = taylor_truncation_error(UNIT, omegas)
    monotone = np.all(np.diff(err) > 0.0)
    # leading behavior ~2 w^2 for p = q: the first sample bounds the limit
    to_zero = err[0] <= 5.0 * omegas[0] ** 2
    at_half = float(taylor_truncation_error(UNIT, 0.5))
    at_09 = float(taylor_truncation_error(UNIT, 0.9))
    elapsed = time.perf_counter() - t0
    ok = (
        monotone and to_zero
        and abs(at_half - 1.0 / 3.0) <= 1e-12
        and elapsed < 1.0
    )
    verdict(5, ok, f"monotone on (0,0.95], ->0 at DC; measured "
                   f"{at_half:.4f} at 0.5 wpe (claimed 5e-5, not met), "
                   f"{at_09:.3f} at 0.9 wpe (claimed <0.10, "
                   f"{'met' if at_09 < 0.1 else 'not met'}); claims reported "
                   f"not gated; {elapsed:.2f}s", capsys)


def test_acceptance_06_nonlinear_solver(capsys):
    t0 = time.perf_counter()
    pi0 = gaussian_pulse(GRID, carrier=0.5, width=12.0)
    dp0 = DirectedPair(pi0, Signal.zeros(GRID))
    x = 2.0

    with pytest.warns(UserWarning, match="spectral content"):
        kg = propagate_kg(dp0, [x], UNIT)[0]
    lin500 = propagate_nonlinear(dp0, x, 500, UNIT, GRID).final
    chi0_err = rel_l2(lin500.pi.samples, kg.pi.samples)

    ref = propagate_nonlinear(dp0, x, 800, KERR, GRID).final.pi.samples
    errs = [
        np.linalg.norm(
            propagate_nonlinear(dp0, x, n, KERR, GRID).final.pi.samples - ref
        )
        for n in (100, 200)
    ]
    order = np.log2(errs[0] / errs[1])

    lin = propagate_unidirectional(pi0, x, 150, UNIT, GRID).final.pi.samples
    scales = np.array([1e-3, 10**-2.5, 1e-2])
    corr = [
        np.linalg.norm(
            propagate_unidirectional(s * pi0, x, 150, KERR, GRID)
            .final.pi.samples - s * lin
        )
        for s in scales
    ]
    slope = np.polyfit(np.log(scales), np.log(corr), 1)[0]

    zero = propagate_nonlinear(
        DirectedPair(Signal.zeros(GRID), Signal.zeros(GRID)), 1.0, 8, KERR, GRID
    ).final
    zero_ok = zero.pi.peak == 0.0 and zero.lam.peak == 0.0

    elapsed = time.perf_counter() - t0
    ok = (
        chi0_err <= 1e-6 and order >= 3.7
        and abs(slope - 3.0) <= 0.1 and zero_ok and elapsed < 60.0
    )
    verdict(6, ok, f"chi3=0 vs kg {chi0_err:.2e}, order {order:.2f}, cubic "
                   f"slope {slope:.3f}, zero fixed point, {elapsed:.1f}s",
            capsys)


# ------------------------------------- dimensionless reference (criterion 7)


@dataclass(frozen=True)
class KerrCoupling:
    """Kerr coefficient and the natural amplitude/length scales."""

    big_k: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("scales must be positive")


def kerr_coupling(params):
    """Derive (K, alpha, beta) from medium parameters; needs chi3 > 0."""
    if not params.chi3 > 0:
        raise ValueError("Kerr scales are undefined for chi3 = 0")
    p, q, c, mu0 = params.omega_pe, params.omega_pm, params.c, params.mu0
    big_k = mu0 * params.chi3 * c**3 / (2.0 * p**3 * q)
    alpha = np.sqrt(2.0 * p**4 * q**2 / (mu0 * params.chi3 * c**3))
    beta = c / (p * q)
    return KerrCoupling(big_k=big_k, alpha=alpha, beta=beta)


def _rescale(record, symbol, stations, variables):
    """Apply one half-spectrum multiplier to every field of a record."""
    m = Multiplier(record.states[0].grid, symbol)
    states = [DirectedPair(apply(m, s.pi), apply(m, s.lam))
              for s in record.states]
    meta = {**record.meta, "variables": variables}
    return PropagationRecord(stations, states, meta)


def to_dimensionless(record, coupling):
    """Rescale a physical record to (pi, lam, zeta) = (Pi_tt, Lambda_tt,
    x) / (alpha, alpha, beta)."""
    w2 = record.states[0].grid.half_omegas ** 2
    return _rescale(record, -w2 / coupling.alpha,
                    record.stations / coupling.beta, "dimensionless")


def from_dimensionless(record, coupling):
    """Invert :func:`to_dimensionless`; dt^{-2} annihilates the DC bin."""
    w2 = record.states[0].grid.half_omegas ** 2
    symbol = np.zeros(w2.size)
    symbol[1:] = -coupling.alpha / w2[1:]
    return _rescale(record, symbol, record.stations * coupling.beta,
                    "physical")


def propagate_dimensionless(dp0, zeta_end, n_steps, grid):
    """March the unit-coefficient system in (pi, lam, zeta) variables:

        pi_zeta  = dt^{-1} [ -pi  - ((pi - lam)^3)_tt ],
        lam_zeta = dt^{-1} [ +lam + ((pi - lam)^3)_tt ].

    Kept apart from the physical cubic term of ``metapulse.evolution`` as
    an independent reference for it, with the same Lawson marcher; records
    only entry and exit. The marcher hands it the bins 0..m/2 of its
    cropped grid of m points, so the cube is masked at m/3.
    """
    inv_iw = make_multiplier("d_dt_inv", None, grid).values
    w2 = grid.half_omegas ** 2
    cube = _cube(grid)

    def rhs(state, out):
        pi_hat, lam_hat = state
        width = pi_hat.size
        m = 2 * (width - 1)
        keep = np.arange(width) <= m // 3
        w_hat = -w2[:width] * keep * cube(keep * (pi_hat - lam_hat))
        np.multiply(inv_iw[:width], -w_hat, out=out[0])
        np.multiply(inv_iw[:width], w_hat, out=out[1])
        return out

    # the cube's input is pi - lam itself
    rhs.stiffness = lambda state: _stiffness(state, 1.0, np.ones(w2.size),
                                             grid)
    rhs.lin = np.array([[-1.0], [1.0]]) * inv_iw
    return _march_rk4(rhs, _entry_spectrum(dp0), zeta_end, n_steps, 2,
                      grid)


def test_acceptance_07_dimensionless_equivalence(capsys):
    dp0 = DirectedPair(
        gaussian_pulse(GRID, carrier=0.5, width=12.0, amplitude=0.5),
        gaussian_pulse(GRID, carrier=0.4, width=16.0, amplitude=0.3),
    )
    kc = kerr_coupling(KERR)
    x, n = 1.0, 100
    path_a = to_dimensionless(propagate_nonlinear(dp0, x, n, KERR, GRID), kc).final
    dimless0 = to_dimensionless(
        PropagationRecord(np.array([0.0]), [dp0], {}), kc
    ).final
    path_b = propagate_dimensionless(dimless0, x / kc.beta, n, GRID).final
    err = max(
        rel_l2(path_a.pi.samples, path_b.pi.samples),
        rel_l2(path_a.lam.samples, path_b.lam.samples),
    )
    ok = err <= 1e-6
    verdict(7, ok, f"physical-then-rescale vs rescale-then-solve {err:.2e}",
            capsys)


def test_acceptance_08_stationary_suite(capsys):
    rng = np.random.default_rng(11)
    ident = 0.0
    for v in rng.uniform(0.05, 20.0, size=30):
        sp = stationary_params(v, UNIT)
        ident = max(ident, abs(sp.k**2 * UNIT.c * v - 1.0))

    sp = stationary_params(0.8, KERR)
    xi = np.linspace(-2.0, 2.0, 2001)
    h = xi[1] - xi[0]
    r = linear_r_profile(1.0, sp, xi)
    r_xx = (r[2:] - 2.0 * r[1:-1] + r[:-2]) / h**2
    resid_r = np.max(np.abs(-sp.v * r_xx + r[1:-1])) / np.max(np.abs(r))
    lw = linear_l_profile(1.0, sp, xi)
    l_xx = (lw[2:] - 2.0 * lw[1:-1] + lw[:-2]) / h**2
    resid_l = np.max(np.abs(-sp.v * l_xx - lw[1:-1]))

    # the cubic K_v y^3 + c y + pq Pi = 0 and its series, on KERR and on
    # a p != q medium and an SI one, at v = 0.8 c: Pi and the amplitudes
    # scale with the series radius c^1.5 / (sqrt(K_v) p q), KERR's at 1
    back_rel, exponent = 0.0, np.inf
    for medium in (KERR, DrudeParams(1.0, 2.0, c=2.0, eps0=0.5, mu0=0.5,
                                     chi3=0.3),
                   DrudeParams(2e10, 3e10, chi3=1e-18)):
        sp_m = stationary_params(0.8 * medium.c, medium)
        pq, c = medium.omega_pe * medium.omega_pm, medium.c
        scale = np.sqrt(sp.big_k_v / sp_m.big_k_v) * c**1.5 / pq
        pis = scale * np.linspace(-5.0, 5.0, 401)
        y = cardano_f(pis, sp_m)
        back = np.abs(sp_m.big_k_v * y**3 + c * y + pq * pis)
        back_rel = max(back_rel, np.max(
            back / np.maximum(pq * np.abs(pis), 1e-30)))
        amps = scale * np.logspace(-3, -1.5, 7)
        series_err = np.abs(series_f(amps, sp_m, order=3)
                            - cardano_f(amps, sp_m))
        exponent = min(exponent,
                       np.polyfit(np.log(amps), np.log(series_err), 1)[0])

    sp0 = stationary_params(1.0, UNIT)
    _, pi, slope = integrate_oscillator(0.5, 0.0, 20.0, 4000, sp0)
    energy = 0.5 * slope**2 + 0.5 * pi**2
    drift = np.max(np.abs(energy - energy[0])) / energy[0]

    ok = (
        ident <= 1e-12 and resid_r <= 1e-6 and resid_l <= 1e-6
        and back_rel <= 1e-12 and exponent >= 4.8 and drift <= 1e-8
    )
    verdict(8, ok, f"identities {ident:.1e}, profile residuals "
                   f"{max(resid_r, resid_l):.1e}, cardano {back_rel:.1e}, "
                   f"series exponent {exponent:.2f}, first integral "
                   f"{drift:.1e}", capsys)


def test_acceptance_09_oracle_cross_check(capsys):
    t0 = time.perf_counter()
    source = synthesize_pulse(TimeGrid(4096, 0.1), carrier=0.3, width=30.0,
                              amplitude=1.0)
    errs = {}
    for dx in (0.04, 0.02):
        _, summary = reference_compare(
            UNIT, source, dx=dx, courant=0.5, x_ref=0.48,
            x_probes=[1.0, 2.0], duration=400.0, pad=60.0,
        )
        errs[dx] = summary["l2_errors_e"]
    elapsed = time.perf_counter() - t0
    worst = max(errs[0.04])
    ratios = [c / f for c, f in zip(errs[0.04], errs[0.02])]
    ok = (
        worst <= 0.02
        and all(2.5 <= r <= 6.0 for r in ratios)
        and elapsed < 120.0
    )
    verdict(9, ok, f"p = q = 1: L2 at dx=0.04 "
                   f"{['%.1e' % e for e in errs[0.04]]}, "
                   f"refinement ratios {['%.2f' % r for r in ratios]}, "
                   f"{elapsed:.1f}s", capsys)


# acceptance 9 on an optical SI medium, p = q = w0 = 2 pi 200 THz, with the
# SI c, eps0 and mu0 and no run.pad: its keys in 1/w0, c/w0 and w0
SI_ACCEPTANCE_9 = "\n".join([
    "[scenario]", "name = reference-compare", "[medium]",
    "omega_pe = {w0!r}", "omega_pm = {w0!r}", "chi3 = 0.0", "[grid]",
    "n = 4096", "dt = {dt!r}", "[pulse]", "carrier = {carrier!r}",
    "width = {width!r}", "[run]", "dx = {dx!r}", "x_ref = {x_ref!r}",
    "x_probes = {x1!r}, {x2!r}", "duration = {duration!r}", ""])


def test_acceptance_09_on_an_optical_si_medium(capsys, tmp_path):
    # through the CLI: validate sized the grid by the 60 m default of
    # run.pad, 1.26e10 nodes, and refused what the run steps on 628 nodes
    # at dx 0.02 c/w0
    w0 = 2.0 * np.pi * 200e12
    unit = C / w0
    errs = {}
    for dx in (0.04, 0.02):
        f = tmp_path / f"si-{dx}.ini"
        f.write_text(SI_ACCEPTANCE_9.format(
            w0=w0, dt=0.1 / w0, carrier=0.3 * w0, width=30.0 / w0,
            dx=dx * unit, x_ref=0.48 * unit, x1=1.0 * unit, x2=2.0 * unit,
            duration=400.0 / w0))
        assert main(["validate", str(f)]) == 0
        assert capsys.readouterr().out == "config ok\n"
        assert main(["run", str(f), "--out", str(tmp_path / f"{dx}")]) == 0
        capsys.readouterr()
        summary = json.loads(
            (tmp_path / f"{dx}" / "manifest.json").read_text())["summary"]
        assert summary["pass"] is True
        assert summary["fdtd_contaminated"] is False
        assert summary["fdtd_nodes (1)"] < 700 * 0.02 / dx
        errs[dx] = summary["l2_errors_e"]
    worst = max(errs[0.04])
    ratios = [c / f for c, f in zip(errs[0.04], errs[0.02])]
    ok = worst <= 0.02 and all(2.5 <= r <= 6.0 for r in ratios)
    verdict(9, ok, f"p = q = 2 pi 200 THz, SI c: L2 at dx=0.04 c/w0 "
                   f"{['%.1e' % e for e in errs[0.04]]}, "
                   f"refinement ratios {['%.2f' % r for r in ratios]}",
            capsys)


BASE_MEDIUM = (
    "[medium]\nomega_pe = 1.0\nomega_pm = 1.0\nc = 1.0\neps0 = 1.0\n"
    "mu0 = 1.0\nchi3 = 0.001\n"
)
SCENARIO_CONFIGS = {
    "split": "[grid]\nn = 1024\ndt = 0.2\n[pulse]\ncarrier = 0.5\nwidth = 12.0\n",
    "propagate-linear":
        "[grid]\nn = 1024\ndt = 0.2\n[pulse]\ncarrier = 0.5\nwidth = 12.0\n"
        "[run]\nx_end = 3.0\n",
    "propagate-kg":
        "[grid]\nn = 1024\ndt = 0.2\n[pulse]\ncarrier = 0.5\nwidth = 12.0\n"
        "[run]\nx_end = 3.0\n",
    "propagate-nonlinear":
        "[grid]\nn = 1024\ndt = 0.2\n[pulse]\ncarrier = 0.5\nwidth = 12.0\n"
        "[run]\nx_end = 1.0\nn_steps = 50\n",
    "propagate-unidirectional":
        "[grid]\nn = 1024\ndt = 0.2\n[pulse]\ncarrier = 0.5\nwidth = 12.0\n"
        "[run]\nx_end = 1.0\nn_steps = 50\n",
    "stationary-linear":
        "[run]\nv = 0.8\nxi_min = -5.0\nxi_max = 5.0\n",
    "stationary-nonlinear":
        "[run]\nv = 0.8\npi0 = 0.5\nxi_end = 10.0\nn_steps = 200\n",
    "taylor-error": "",
    "reference-compare":
        "[grid]\nn = 2048\ndt = 0.1\n[pulse]\ncarrier = 0.3\nwidth = 15.0\n"
        "[run]\ndx = 0.08\nx_ref = 0.48\nx_probes = 0.96\nduration = 150.0\n"
        "pad = 40.0\n",
}


def _assert_tables_as_listed(out):
    """``out`` holds manifest.json and exactly the CSV tables it lists, and
    each table's rows have as many fields as its header."""
    listed = json.loads((out / "manifest.json").read_text())["tables"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*listed, "manifest.json"]), out
    for name in listed:
        assert name.endswith(".csv"), name
        header, *rows = (out / name).read_text().splitlines()
        assert {row.count(",") for row in rows} == {header.count(",")}, name


@pytest.mark.filterwarnings(
    "ignore:boundary signal [jk] does not decay at window edges")
@pytest.mark.filterwarnings("ignore:spectral content above")
def test_acceptance_10_determinism(capsys, tmp_path):
    assert set(SCENARIO_CONFIGS) == set(SCENARIOS)
    mismatched = []
    for name, extra in SCENARIO_CONFIGS.items():
        cfg = parse_config(f"[scenario]\nname = {name}\n{BASE_MEDIUM}{extra}")
        dirs = [tmp_path / f"{name}-{i}" for i in (0, 1)]
        for d in dirs:
            status, _ = run_scenario(cfg, out_dir=d)
            assert status == 0, name
            _assert_tables_as_listed(d)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        for f in files:
            if (dirs[0] / f).read_bytes() != (dirs[1] / f).read_bytes():
                mismatched.append(f"{name}/{f}")
    ok = not mismatched
    verdict(10, ok, f"all {len(SCENARIO_CONFIGS)} scenarios byte-identical "
                    f"on rerun" if ok else f"mismatches: {mismatched}",
            capsys)
