"""Output checks on the files a pass wrote: CSV tables and ``manifest.json``.

Every expected value is recomputed here from closed forms or from the
run's own inputs, without importing metapulse, so a check cannot share a
defect with the code it checks. Nothing compares bytes: a change that alters
the numerics and stays within a stated tolerance still passes.

Each check returns a list of problems; an empty list is a pass.
"""

import json
from pathlib import Path

import numpy as np

#: relative L2 budget of the FDTD cross-check (acceptance 9)
ORACLE_L2 = 0.02
#: closed-form checks: only CSV rounding and FFT round-off separate the sides
EXACT = 1e-8
#: relative drift of the Kerr invariant I over the run (2.3e-8 at 300 steps)
KERR_DRIFT = 1e-5
#: band on the Kerr stations' departure from linear propagation, as a share
#: of the first-order prediction x * rate (about 1 at chi3 = 0.001, 0.80-0.90
#: on kerr-16k, where the pulse is strongly nonlinear by x = 6)
KERR_DEPARTURE = (0.5, 1.2)
#: relative drift of the stationary oscillator's first integral
OSCILLATOR_DRIFT = 1e-5


def load_table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def rel_l2(got, want):
    scale = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / scale) if scale else float(
        np.linalg.norm(got))


class Output:
    """One scenario's written directory, read back from disk."""

    def __init__(self, out_dir):
        self.dir = Path(out_dir)
        self.manifest = json.loads((self.dir / "manifest.json").read_text())
        m = self.manifest["medium"]
        self.p, self.q, self.c = m["omega_pe"], m["omega_pm"], m["c"]
        self.chi3, self.mu0 = m["chi3"], m["mu0"]
        self.run = self.manifest["run"]
        self.summary = self.manifest["summary"]

    def tables(self):
        """(x, columns) per station table, in name order."""
        out = []
        for name, meta in sorted(self.manifest["tables"].items()):
            data = load_table(self.dir / name)
            out.append((meta.get("x (m)"), data.T))
        return out

    def one_table(self):
        (name,) = self.manifest["tables"]
        return load_table(self.dir / name).T


def omegas(t):
    dt = t[1] - t[0]
    return 2.0 * np.pi * np.fft.fftfreq(t.size, dt)


def a_symbol(w, p, q, c):
    """Physical branch of sqrt(eps mu)/c; 0 on the DC bin."""
    a = np.zeros_like(w)
    nz = w != 0.0
    wn = w[nz]
    eps_mu = (1.0 - p**2 / wn**2) * (1.0 - q**2 / wn**2)
    a[nz] = np.where(np.abs(wn) <= min(p, q), -1.0, 1.0) * np.sqrt(eps_mu) / c
    return a


def apply(symbol, samples):
    return np.fft.ifft(symbol * np.fft.fft(samples)).real


def pulse(t, pulse_spec):
    """The Gaussian-modulated boundary pulse as ``synthesize_pulse`` defines it."""
    t0 = t.size * (t[1] - t[0]) / 2.0
    tt = t - t0
    s = pulse_spec.amplitude * np.exp(-tt**2 / (2.0 * pulse_spec.width**2)) \
        * np.sin(pulse_spec.carrier * tt)
    return s - np.mean(s)


def _close(problems, what, got, want, tol=EXACT):
    err = rel_l2(np.asarray(got, float), np.asarray(want, float))
    if not err <= tol:
        problems.append(f"{what}: relative error {err:.3e} > {tol:.1e}")


def _finite(problems, tables):
    for x, cols in tables:
        if not np.all(np.isfinite(cols)):
            problems.append(f"station x={x}: non-finite values")


def _stations(problems, tables, x_end, n_stations):
    xs = np.array([x for x, _ in tables], dtype=float)
    if not (xs.size == n_stations and xs[0] == 0.0
            and np.all(np.diff(xs) > 0) and np.isclose(xs[-1], x_end)):
        problems.append(f"stations {xs.tolist()} are not {n_stations} "
                        f"increasing from 0 to {x_end}")


def check_linear_family(out, run, phase):
    """Every station against the closed-form per-bin phase from station 0.

    ``phase(w, x)`` is the exponent applied to Pi; Lambda gets its negative.
    Also checks B = Pi + Lambda and E = a^-1 (Pi - Lambda) on every station,
    and at station 0 the round trip back to the boundary E = j, B = 0.
    """
    problems = []
    tables = out.tables()
    _finite(problems, tables)
    _stations(problems, tables, out.run["x_end"], out.run["n_stations"])
    if problems:
        return problems
    t, pi0, lam0 = tables[0][1][:3]
    w = omegas(t)
    a = a_symbol(w, out.p, out.q, out.c)
    a_inv = np.zeros_like(a)
    a_inv[a != 0.0] = 1.0 / a[a != 0.0]
    for x, (_, pi, lam, b, e) in tables:
        f = np.exp(1j * phase(w, x))
        f[0] = f[w.size // 2] = 1.0
        _close(problems, f"Pi at x={x}", pi, apply(f, pi0))
        _close(problems, f"Lambda at x={x}", lam, apply(np.conj(f), lam0))
        _close(problems, f"B at x={x}", b, pi + lam)
        _close(problems, f"E at x={x}", e, apply(a_inv, pi - lam))
    _, _, _, b0, e0 = tables[0][1]
    j = pulse(t, run.pulse)
    _close(problems, "station 0 E vs boundary pulse", e0, j)
    if np.max(np.abs(b0)) > EXACT * np.max(np.abs(j)):
        problems.append("station 0 B is not the e-only boundary B = 0")
    return problems


def check_linear(out, run):
    def phase(w, x):
        return -w * a_symbol(w, out.p, out.q, out.c) * x

    return check_linear_family(out, run, phase)


def kg_phase(w, x, out):
    """Klein-Gordon per-bin exponent pq x/(c w) of Pi; 0 on the DC bin."""
    expo = np.zeros_like(w)
    expo[w != 0.0] = out.p * out.q * x / (out.c * w[w != 0.0])
    return expo


def check_kg(out, run):
    problems = check_linear_family(out, run, lambda w, x: kg_phase(w, x, out))
    for key in ("band_edge (rad/s)", "kg_error_budget (1)"):
        value = out.summary.get(key)
        if not (isinstance(value, float) and np.isfinite(value)):
            problems.append(f"summary {key} is not a finite number")
    return problems


def kerr_invariant(t, pi, lam, out):
    """(linear part, quartic part) of I = int[u dt^-2 s + u^4/2] dt.

    Dimensionless variables pi = Pi_tt/alpha, lam = Lambda_tt/alpha with
    u = pi - lam and s = pi + lam; I is conserved by the Kerr system and,
    with lam = 0, by the unidirectional equation.
    """
    alpha = np.sqrt(2.0 * out.p**4 * out.q**2 / (out.mu0 * out.chi3 * out.c**3))
    w2 = omegas(t) ** 2
    dt = t[1] - t[0]
    pi_d, lam_d = apply(-w2, pi) / alpha, apply(-w2, lam) / alpha
    u, s = pi_d - lam_d, pi_d + lam_d
    inv_w2 = np.zeros_like(w2)
    inv_w2[w2 != 0.0] = -1.0 / w2[w2 != 0.0]
    return dt * float(np.sum(u * apply(inv_w2, s))), dt * float(np.sum(u**4) / 2)


def kerr_rate(t, pi, out):
    """|dPi/dx| / |Pi| of the Kerr term -(K/c) dt^-1 (Pi_tt)^3 alone."""
    w = omegas(t)
    k_c = out.mu0 * out.chi3 * out.c**2 / (2.0 * out.p**3 * out.q)
    inv_iw = np.zeros(w.size, dtype=complex)
    inv_iw[w != 0.0] = 1.0 / (1j * w[w != 0.0])
    inv_iw[w.size // 2] = 0.0
    drive = apply(k_c * inv_iw, apply(-w**2, pi) ** 3)
    return float(np.linalg.norm(drive) / np.linalg.norm(pi))


def kerr_departure(tables, out):
    """Per later station: |Pi - L(x) Pi_0| / |L(x) Pi_0| over x * kerr_rate.

    L(x) is the Kerr system's linear part, the Klein-Gordon phase. To first
    order in the Kerr term the departure grows as x * kerr_rate, so the
    ratio is about 1 while the pulse is weakly nonlinear and falls below 1
    as it saturates. A stalled march or one that went another distance
    departs by O(1) from linear propagation, far above the band, and a
    march that drops the Kerr term stays at 0.
    """
    t, pi0 = tables[0][1][:2]
    w = omegas(t)
    rate = kerr_rate(t, pi0, out)
    ratios = []
    for x, cols in tables[1:]:
        f = np.exp(1j * kg_phase(w, x, out))
        f[0] = f[w.size // 2] = 1.0
        ratios.append((x, rel_l2(cols[1], apply(f, pi0)) / (x * rate)))
    return ratios


def check_kerr(out, run):
    """Finite stations, entry state Pi = a j, a conserved Kerr invariant,
    and a departure from linear propagation that grows with x as predicted."""
    problems = []
    tables = out.tables()
    _finite(problems, tables)
    _stations(problems, tables, out.run["x_end"], out.run["n_stations"])
    if problems:
        return problems
    t, pi0, lam0 = tables[0][1][:3]
    a = a_symbol(omegas(t), out.p, out.q, out.c)
    _close(problems, "station 0 Pi vs a j", pi0, apply(a, pulse(t, run.pulse)))
    if np.any(lam0 != 0.0):
        problems.append("station 0 Lambda is not zero for a right-going entry")
    lin0, quart0 = kerr_invariant(t, pi0, lam0, out)
    scale = abs(lin0) + abs(quart0)
    for x, cols in tables[1:]:
        lin, quart = kerr_invariant(cols[0], cols[1], cols[2], out)
        drift = abs(lin + quart - lin0 - quart0) / scale
        if not drift <= KERR_DRIFT:
            problems.append(f"Kerr invariant drift {drift:.3e} > "
                            f"{KERR_DRIFT:.0e} at x={x}")
    lo, hi = KERR_DEPARTURE
    for x, ratio in kerr_departure(tables, out):
        if not lo <= ratio <= hi:
            problems.append(f"departure from linear propagation at x={x} is "
                            f"{ratio:.3f} of the first-order prediction, "
                            f"outside [{lo}, {hi}]")
    _, final = tables[-1]
    for key, col in (("final_pi_peak (T)", final[1]),
                     ("final_lambda_peak (T)", final[2])):
        if key in out.summary and not np.isclose(
                out.summary[key], np.max(np.abs(col)), rtol=EXACT, atol=0):
            problems.append(f"summary {key} differs from the last station")
    return problems


def check_unidirectional(out, run):
    problems = check_kerr(out, run)
    if any(np.any(cols[2] != 0.0) for _, cols in out.tables()):
        problems.append("unidirectional run has a nonzero Lambda")
    return problems


def check_split(out, run):
    problems = []
    t, j, k, pi, lam = out.one_table()
    aj = apply(a_symbol(omegas(t), out.p, out.q, out.c), j)
    _close(problems, "j vs boundary pulse", j, pulse(t, run.pulse))
    if np.any(k != 0.0):
        problems.append("e-only boundary has a nonzero k")
    _close(problems, "Pi = (k + a j)/2", pi, 0.5 * (k + aj))
    _close(problems, "Lambda = (k - a j)/2", lam, 0.5 * (k - aj))
    for key, col in (("pi_peak (T)", pi), ("lambda_peak (T)", lam)):
        if not np.isclose(out.summary[key], np.max(np.abs(col)),
                          rtol=EXACT, atol=0):
            problems.append(f"summary {key} differs from the table")
    return problems


def check_stationary_linear(out, run):
    problems = []
    xi, r, l = out.one_table()
    k = np.sqrt(out.p * out.q / (out.c * out.run["v"]))
    _close(problems, "xi samples", xi, np.linspace(
        out.run["xi_min"], out.run["xi_max"], out.run["n_xi"]))
    _close(problems, "R = A exp(k xi)", r, out.run["amplitude_r"] * np.exp(k * xi))
    _close(problems, "L = B sin(k xi)", l, out.run["amplitude_l"] * np.sin(k * xi))
    if not np.isclose(out.summary["k (1/m)"], k, rtol=EXACT, atol=0):
        problems.append("summary k differs from sqrt(pq/(c v))")
    return problems


def oscillator_force(pi, kv, p, q, c):
    """Real root y of kv y^3 + c y + pq pi = 0, by Newton from the linear root."""
    y = -(p * q / c) * pi
    for _ in range(50):
        y = y - (kv * y**3 + c * y + p * q * pi) / (3.0 * kv * y**2 + c)
    return y


def check_stationary_nonlinear(out, run):
    """First integral H = s^2/2 + (3 kv y^4/4 + c y^2/2)/(pq), y = F(Pi)."""
    problems = []
    xi, pi, slope = out.one_table()
    v = out.run["v"]
    kv = out.chi3 * out.c**3 * v**6 / (2.0 * out.p**3 * out.q)
    y = oscillator_force(pi, kv, out.p, out.q, out.c)
    h = 0.5 * slope**2 + (0.75 * kv * y**4 + 0.5 * out.c * y**2) / (out.p * out.q)
    drift = float(np.max(np.abs(h - h[0])) / abs(h[0]))
    if not (np.all(np.isfinite(h)) and drift <= OSCILLATOR_DRIFT):
        problems.append(f"oscillator first-integral drift {drift:.3e} > "
                        f"{OSCILLATOR_DRIFT:.0e}")
    if not (xi.size == out.run["n_steps"] + 1 and pi[0] == out.run["pi0"]):
        problems.append("oscillator table does not start at pi0 with n_steps + 1 rows")
    return problems


def check_taylor_error(out, run):
    problems = []
    ratio, err = out.one_table()
    w = ratio * out.p
    a = a_symbol(w, out.p, out.q, out.c)
    want = np.abs(-out.p * out.q / (out.c * w**2) - a) / np.abs(a)
    _close(problems, "truncation error curve", err, want)
    return problems


def check_reference_compare(out, run):
    """Per-probe L2 recomputed from the probe CSVs.

    The recomputed errors must match the manifest and its pass flag; when
    the run carries an L2 budget they must also stay within it.
    """
    problems = []
    worst = 0.0
    for name, meta in sorted(out.manifest["tables"].items()):
        _, e_fd, e_sp, b_fd, b_sp = load_table(out.dir / name).T
        for key, got, want in (("l2_error_e", e_sp, e_fd),
                               ("l2_error_b", b_sp, b_fd)):
            l2 = rel_l2(got, want)
            worst = max(worst, l2)
            if not np.isclose(meta[key], l2, rtol=1e-6, atol=0):
                problems.append(f"{name} {key} {meta[key]:.6e} != recomputed "
                                f"{l2:.6e}")
    if out.summary["pass"] != (worst <= out.summary["budget"]):
        problems.append("summary pass flag disagrees with the recomputed L2")
    if run.l2_budget is not None and not worst <= run.l2_budget:
        problems.append(f"probe L2 {worst:.3e} > budget {run.l2_budget}")
    return problems


CHECKS = {
    "split": check_split,
    "propagate-linear": check_linear,
    "propagate-kg": check_kg,
    "propagate-nonlinear": check_kerr,
    "propagate-unidirectional": check_unidirectional,
    "stationary-linear": check_stationary_linear,
    "stationary-nonlinear": check_stationary_nonlinear,
    "taylor-error": check_taylor_error,
    "reference-compare": check_reference_compare,
}


def check_output(run, out_dir):
    """Problems with one scenario's written output; [] when it is correct."""
    try:
        out = Output(out_dir)
        if out.manifest["scenario"] != run.name:
            return [f"manifest scenario {out.manifest['scenario']!r} "
                    f"is not {run.name!r}"]
        return CHECKS[run.name](out, run)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
