"""Lossless Drude medium in closed form.

Frequency responses eps(w) = 1 - wpe^2/w^2 and mu(w) = 1 - wpm^2/w^2, the
slowness symbol a(w) = sqrt(eps*mu)/c with its physical branch and the
truncation error of its leading small-frequency term.

Everything here is a pure function of scalar or array frequencies; grid
level concerns (DC bin, Nyquist) live in ``metapulse.spectral``, whose
a-hat multipliers take their evanescent-band check from :func:`a_symbol`.

The SI defaults C, EPS0 and MU0 are the CODATA 2022 values, fixed here as
literals so that no installed package can change them (CODATA 2018, still
shipped by some constants tables, has eps0 = 8.8541878128e-12).
"""

from dataclasses import dataclass

import numpy as np

from .errors import EvanescentBandError, ParameterError, SingularFrequencyError

#: vacuum light speed (m/s), exact in the SI
C = 299792458.0
#: vacuum permittivity (F/m), CODATA 2022
EPS0 = 8.8541878188e-12
#: vacuum permeability (N/A^2), CODATA 2022
MU0 = 1.25663706127e-06

__all__ = [
    "DrudeParams",
    "drude_response",
    "a_squared",
    "a_symbol",
    "taylor_truncation_error",
]


@dataclass(frozen=True)
class DrudeParams:
    """Physical constants of a lossless double-Drude medium.

    Parameters
    ----------
    omega_pe : float
        Electric plasma frequency (rad/s).
    omega_pm : float
        Magnetic plasma frequency (rad/s).
    c : float
        Vacuum light speed (m/s). Defaults to the SI value C.
    eps0, mu0 : float
        Vacuum permittivity / permeability. Must satisfy c^2*eps0*mu0 = 1;
        the defaults are EPS0 and 1/(C^2 EPS0).
    chi3 : float
        Kerr coefficient (m^2/V^2); zero switches nonlinearity off.
        Negative values are rejected.
    """

    omega_pe: float
    omega_pm: float
    c: float = C
    eps0: float = EPS0
    # CODATA mu_0 is measured and misses c^2*eps0*mu0 = 1 by ~1.2e-12, so
    # the default is derived instead to keep the triple exactly consistent
    mu0: float = 1.0 / (C**2 * EPS0)
    chi3: float = 0.0

    def __post_init__(self):
        if not (self.omega_pe > 0 and self.omega_pm > 0):
            raise ParameterError(("omega_pe", "omega_pm"),
                                 "plasma frequencies must be positive")
        if not self.c > 0:
            raise ParameterError(("c",), "must be positive")
        product = self.c * self.c * self.eps0 * self.mu0
        if abs(product - 1.0) > 1e-12:
            value = "overflows" if product == np.inf else f"is {product:.6g}"
            raise ParameterError(("c", "eps0", "mu0"),
                                 f"c^2 * eps0 * mu0 {value}; it must equal 1")
        if self.chi3 < 0:
            raise ParameterError(("chi3",), "must not be negative")

    @property
    def band_low(self):
        """Lower edge of the evanescent band, min(omega_pe, omega_pm)."""
        return min(self.omega_pe, self.omega_pm)

    @property
    def band_high(self):
        """Upper edge of the evanescent band, max(omega_pe, omega_pm)."""
        return max(self.omega_pe, self.omega_pm)


def _check_nonzero(omega):
    omega = np.asarray(omega, dtype=float)
    if np.any(omega == 0.0):
        raise SingularFrequencyError("Drude response is singular at omega = 0")
    return omega


def drude_response(kind, params, omega):
    """Relative permittivity or permeability 1 - wp^2/w^2.

    ``kind`` is ``"electric"`` (uses omega_pe) or ``"magnetic"`` (omega_pm).
    Accepts scalar or array ``omega``; raises on omega = 0.
    """
    if kind == "electric":
        wp = params.omega_pe
    elif kind == "magnetic":
        wp = params.omega_pm
    else:
        raise ValueError(f"unknown response kind {kind!r}")
    omega = _check_nonzero(omega)
    out = 1.0 - wp**2 / omega**2
    return float(out) if out.ndim == 0 else out


def a_squared(params, omega):
    """Squared slowness symbol a^2(w) = eps(w)*mu(w)/c^2 (s^2/m^2).

    Real for every nonzero frequency; negative inside the evanescent band.
    """
    omega = _check_nonzero(omega)
    eps = 1.0 - params.omega_pe**2 / omega**2
    mu = 1.0 - params.omega_pm**2 / omega**2
    out = eps * mu / params.c**2
    return float(out) if out.ndim == 0 else out


def a_symbol(params, omega):
    """Slowness symbol a(w) with the physical branch of the square root.

    Negative real for |w| below both plasma frequencies (double-negative
    band, backward waves), positive real above both. Frequencies strictly
    inside the evanescent band raise ``EvanescentBandError``, which counts
    them, rather than returning complex values.
    """
    omega = _check_nonzero(omega)
    aw = np.abs(omega)
    lo, hi = params.band_low, params.band_high
    inside = int(np.count_nonzero((aw > lo) & (aw < hi)))
    if inside:
        raise EvanescentBandError(
            f"{inside} frequenc{'y lies' if inside == 1 else 'ies lie'} in "
            f"the evanescent band ({lo:g}, {hi:g}) rad/s"
        )
    a2 = np.asarray(a_squared(params, omega))
    sign = np.where(aw <= lo, -1.0, 1.0)
    out = sign * np.sqrt(a2)
    return float(out) if out.ndim == 0 else out


def taylor_truncation_error(params, omega):
    """Relative error of the leading Taylor term -pq/(c w^2) against a(w).

    Only defined in the lower (double-negative) propagating band; raises
    outside it. Vectorized over ``omega`` so a sweep emits the whole curve.
    """
    omega = _check_nonzero(omega)
    if np.any(np.abs(omega) >= params.band_low):
        raise EvanescentBandError(
            "truncation error defined only for |omega| < min plasma frequency"
        )
    a = np.asarray(a_symbol(params, omega))
    lead = -params.omega_pe * params.omega_pm / (params.c * omega**2)
    out = np.abs(lead - a) / np.abs(a)
    return float(out) if out.ndim == 0 else out

