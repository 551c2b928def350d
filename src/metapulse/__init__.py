"""Directed-wave pulse propagation in 1D dispersive Drude metamaterials.

The boundary fields (E, B) at the entry plane are split into right/left
wave amplitudes by projection operators built from the medium's slowness
operator a-hat; the amplitudes are then propagated along x exactly (linear),
in the long-wave Klein-Gordon-Fock reduction, or through the Kerr-coupled
nonlinear system, all cross-validated against an independent FDTD oracle.
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    ConfigError,
    EvanescentBandError,
    GridMismatchError,
    InadmissibleGridError,
    MetapulseError,
    SingularFrequencyError,
)
from .medium import (
    DrudeParams,
    a_squared,
    a_symbol,
    drude_response,
    taylor_truncation_error,
)
from .spectral import (
    Multiplier,
    Signal,
    TimeGrid,
    apply,
    make_multiplier,
)
from .waves import DirectedPair, FieldPair, reconstruct, split
from .evolution import (
    PropagationRecord,
    kerr_default_steps,
    propagate_kg,
    propagate_linear_exact,
    propagate_nonlinear,
    propagate_unidirectional,
)
from .stationary import (
    StationaryParams,
    cardano_f,
    integrate_oscillator,
    linear_l_profile,
    linear_r_profile,
    series_f,
    stationary_params,
)
from .reference import YeeGrid1D, run_boundary_source
