"""Piecewise switched frequency of the oscillator and its Hamiltonian coefficients.

The frequency is constant in the past, decreases smoothly over the window
[0, pi/(2*omega)], and is constant (and lower) afterwards.  Every other module
evaluates the switch through :func:`omega_of` (one instant), :func:`omega_profile`
(an array of instants) and :func:`region_masks`, so the three-region
bookkeeping lives in one place.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError


class Region(enum.Enum):
    """Branch selector for the switched frequency."""

    BEFORE = "before"
    SWITCHING = "switching"
    AFTER = "after"


@dataclass(frozen=True)
class OscParams:
    """Problem constants: mass, action quantum, and the switch shape.

    ``alpha`` (a time) and ``omega`` (a frequency) shape the switch.  Their
    product must lie in [0, 1), otherwise the post-switch frequency
    ``omega*sqrt(1 - alpha*omega)`` is imaginary.  The library is
    unit-agnostic; fields are taken at face value.
    """

    m: float = 1.0
    hbar: float = 1.0
    alpha: float = 0.5
    omega: float = 1.0


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Coefficients of a quadratic Hamiltonian a*p^2 + b*(pq+qp) + c*q^2."""

    a: float
    b: float
    c: float
    a_dot: float = 0.0


def validate_params(p: OscParams) -> OscParams:
    """Return ``p`` unchanged, raising :class:`DomainError` on any invalid field."""
    if not (math.isfinite(p.m) and p.m > 0.0):
        raise DomainError(f"mass must be positive and finite, got {p.m!r}")
    if not (math.isfinite(p.hbar) and p.hbar > 0.0):
        raise DomainError(f"hbar must be positive and finite, got {p.hbar!r}")
    if not (math.isfinite(p.omega) and p.omega > 0.0):
        raise DomainError(f"omega must be positive and finite, got {p.omega!r}")
    if not (math.isfinite(p.alpha) and p.alpha >= 0.0):
        raise DomainError(f"alpha must be nonnegative and finite, got {p.alpha!r}")
    aw = p.alpha * p.omega
    if aw >= 1.0:
        raise DomainError(
            f"alpha*omega must be below 1, got {aw!r}: the post-switch "
            "frequency omega*sqrt(1 - alpha*omega) would be imaginary"
        )
    return p


def switch_end(p: OscParams) -> float:
    """Instant pi/(2*omega) at which the switch window closes."""
    return math.pi / (2.0 * p.omega)


def junction_times(p: OscParams) -> tuple[float, float]:
    """The two region boundaries, (0, pi/(2*omega))."""
    return 0.0, switch_end(p)


def region_of(t: float, p: OscParams) -> Region:
    """Classify ``t``; both boundary instants belong to the switching window.

    Raises:
        DomainError: if ``p`` is invalid or ``t`` is not finite.
    """
    validate_params(p)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    if t < 0.0:
        return Region.BEFORE
    if t <= switch_end(p):
        return Region.SWITCHING
    return Region.AFTER


def region_masks(ts, p: OscParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ts`` as a float array with its BEFORE and AFTER masks, as in :func:`region_of`.

    Every other sample, both junction instants included, lies in the
    switching window.

    Raises:
        DomainError: if ``p`` is invalid or any time is not finite.
    """
    validate_params(p)
    t = np.asarray(ts, dtype=float)
    if not np.isfinite(t).all():
        raise DomainError("times must be finite, got a NaN or infinite sample")
    return t, t < 0.0, t > switch_end(p)


def _complex_array(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


class ElementaryOps(NamedTuple):
    """The elementary functions a closed form needs, for floats or for arrays.

    Each closed form is written once against these; :data:`SCALAR` evaluates
    it on one float with ``math``, :data:`ARRAY` on a float array with numpy.
    Both round alike, so a table and the one-instant functions agree to the
    last bit: ``tan``, ``atan`` and ``pow``, which numpy computes with its own
    rounding on some CPUs, call the C library element by element, and numpy's
    ``sqrt``, ``cos`` and ``sin`` match ``math`` wherever numpy uses the C
    library for them.
    """

    sqrt: Callable
    cos: Callable
    sin: Callable
    tan: Callable
    atan: Callable
    pow: Callable
    where: Callable
    complex: Callable


SCALAR = ElementaryOps(math.sqrt, math.cos, math.sin, math.tan, math.atan, pow,
                       lambda cond, a, b: a if cond else b, complex)
ARRAY = ElementaryOps(np.sqrt, np.cos, np.sin, np.vectorize(math.tan, otypes=[float]),
                      np.vectorize(math.atan, otypes=[float]), np.float_power, np.where,
                      _complex_array)


def _omega_from_cos(c, p: OscParams, ops: ElementaryOps):
    # omega*sqrt(1 - aw/(1 + aw*c^2)^2) with c = cos(omega*t) on the window;
    # c = 1 gives the flat frequency before it and c = 0 the one after it
    aw = p.alpha * p.omega
    return p.omega * ops.sqrt(1.0 - aw / ops.pow(1.0 + aw * c * c, 2))


def initial_frequency(p: OscParams) -> float:
    """Constant frequency before the switch, omega*sqrt(1 - aw/(1 + aw)^2)."""
    return _omega_from_cos(1.0, p, SCALAR)


def final_frequency(p: OscParams) -> float:
    """Constant frequency after the switch, omega*sqrt(1 - alpha*omega)."""
    return _omega_from_cos(0.0, p, SCALAR)


def omega_of(t: float, p: OscParams) -> float:
    """Instantaneous frequency at time ``t``.

    Continuous everywhere: the switching branch coincides with the flat
    branches at both window edges, where cos^2(omega*t) is exactly 1 and 0.
    Monotonically non-increasing on the switching window for alpha > 0.

    Raises:
        DomainError: if ``p`` is invalid or ``t`` is not finite.
    """
    region = region_of(t, p)
    if region is Region.BEFORE:
        c = 1.0
    elif region is Region.SWITCHING:
        c = math.cos(p.omega * t)
    else:
        c = 0.0
    return _omega_from_cos(c, p, SCALAR)


def omega_profile(ts, p: OscParams) -> np.ndarray:
    """:func:`omega_of` at every time of the array ``ts``, evaluated at once.

    Raises:
        DomainError: if ``p`` is invalid or any time is not finite.
    """
    t, before, after = region_masks(ts, p)
    c = np.where(before, 1.0, np.where(after, 0.0, np.cos(p.omega * t)))
    return _omega_from_cos(c, p, ARRAY)


def hamiltonian_coefficients(t: float, p: OscParams) -> QuadraticCoefficients:
    """Coefficients of this oscillator's Hamiltonian: (1/(2m), 0, m*Omega^2/2)."""
    w = omega_of(t, p)
    return QuadraticCoefficients(a=1.0 / (2.0 * p.m), b=0.0, c=0.5 * p.m * w * w, a_dot=0.0)
