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
    Envelope,
    amplitude,
    envelope,
    epsilon,
    junction_phase,
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
from .frequency import (
    OscParams,
    QuadraticCoefficients,
    Region,
    hamiltonian_coefficients,
    junction_times,
    omega_of,
    omega_profile,
    region_of,
    switch_end,
    validate_params,
)
from .numerics import Trajectory, derivative, find_root, integrate_ode, quadrature, second_derivative
from .quantum import (
    CoherenceEvent,
    CoherenceScanResult,
    CovarianceState,
    FirstMoments,
    InvariantCoefficients,
    SmusState,
    coherence_scan,
    conserved_pair,
    first_moments,
    general_first_moments,
    general_second_moments,
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
    "Envelope",
    "FirstMoments",
    "InvariantCoefficients",
    "NoSignChange",
    "NotNormalized",
    "OscParams",
    "QuadraticCoefficients",
    "RangeError",
    "Region",
    "SmusState",
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
    "general_first_moments",
    "general_second_moments",
    "grid_integral",
    "grid_moments",
    "grid_to_csv",
    "grid_to_json",
    "hamiltonian_coefficients",
    "integrate_ode",
    "invariant_coefficients",
    "junction_phase",
    "junction_times",
    "omega_of",
    "omega_profile",
    "phase_integral",
    "quadrature",
    "region_of",
    "second_derivative",
    "second_moments",
    "switch_end",
    "validate_params",
    "wigner_grid",
    "wigner_value",
    "wronskian",
]
