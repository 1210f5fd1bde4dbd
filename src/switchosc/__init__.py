"""Exact classical and quantum evolution of a harmonic oscillator whose
frequency is switched smoothly over a finite window.

The closed-form complex amplitude drives everything quantum: moments of the
minimum-uncertainty states, their conserved pair, and the Gaussian
phase-space distribution.  A self-contained numerical layer (adaptive
Runge-Kutta, adaptive quadrature, root finding) independently cross-checks
every closed form.
"""

from .classical import (
    ClassicalAmplitude,
    amplitude,
    envelope,
    epsilon,
    phase_integral,
    wronskian,
)
from .errors import (
    DomainError,
    NoSignChange,
    NotNormalized,
    RangeError,
    SwitchOscError,
    ToleranceNotMet,
)
from .frequency import OscParams, omega_of, omega_profile
from .numerics import Trajectory, derivative, find_root, integrate_ode, quadrature
from .quantum import (
    CoherenceEvent,
    CoherenceScanResult,
    CovarianceState,
    FirstMoments,
    InvariantCoefficients,
    coherence_scan,
    conserved_pair,
    first_moments,
    invariant_coefficients,
    second_moments,
)
from .wigner import WignerGrid, grid_integral, grid_moments, grid_to_csv, grid_to_json, wigner_grid, wigner_value

__version__ = "0.1.0"

__all__ = [
    "ClassicalAmplitude",
    "CoherenceEvent",
    "CoherenceScanResult",
    "CovarianceState",
    "DomainError",
    "FirstMoments",
    "InvariantCoefficients",
    "NoSignChange",
    "NotNormalized",
    "OscParams",
    "RangeError",
    "SwitchOscError",
    "ToleranceNotMet",
    "Trajectory",
    "WignerGrid",
    "amplitude",
    "coherence_scan",
    "conserved_pair",
    "derivative",
    "envelope",
    "epsilon",
    "find_root",
    "first_moments",
    "grid_integral",
    "grid_moments",
    "grid_to_csv",
    "grid_to_json",
    "integrate_ode",
    "invariant_coefficients",
    "omega_of",
    "omega_profile",
    "phase_integral",
    "quadrature",
    "second_moments",
    "wigner_grid",
    "wigner_value",
    "wronskian",
]
