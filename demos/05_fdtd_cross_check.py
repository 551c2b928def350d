"""Cross-check the spectral pipeline against an independent FDTD solver.

A Yee-grid Maxwell solver with Drude polarization currents launches a
band-limited pulse; the fields recorded at a reference plane are split
into directed amplitudes, propagated with the exact spectral method, and
reconstructed at downstream probes for comparison.
"""

from metapulse import DrudeParams, TimeGrid
from metapulse.cli import reference_compare, synthesize_pulse

params = DrudeParams(1.0, 1.0, c=1.0, eps0=1.0, mu0=1.0)
source = synthesize_pulse(TimeGrid(4096, 0.1), carrier=0.3, width=30.0,
                          amplitude=1.0)

print("running FDTD oracle at two resolutions (a few seconds)...\n")
print(f"{'dx':>6} {'probe x':>8} {'L2(E)':>10} {'L2(B)':>10}")
errors = {}
for dx in (0.04, 0.02):
    tables, summary = reference_compare(
        params, source, dx=dx, courant=0.5, x_ref=0.48,
        x_probes=[1.0, 2.0], duration=400.0, pad=60.0,
    )
    errors[dx] = summary["l2_errors_e"]
    for *_, probe in tables.values():
        print(f"{dx:>6.2f} {probe['x (m)']:>8.2f} "
              f"{probe['l2_error_e']:>10.2e} {probe['l2_error_b']:>10.2e}")

ratios = [c / f for c, f in zip(errors[0.04], errors[0.02])]
print(f"\nrefinement ratios {['%.2f' % r for r in ratios]} "
      "(~4x: the discrepancy is dominated by the second-order FDTD grid)")
