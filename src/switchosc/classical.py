"""Closed-form complex amplitude driving the oscillator's quantum evolution.

The amplitude eps(t) solves eps'' + Omega(t)^2 * eps = 0 with a distinct
closed form in each frequency region.  The pieces are glued so that the value
and the first derivative are continuous at both junctions.  Two conventions
are load-bearing and are cross-checked by the test suite against the
independent integrator:

* the constant phase of the post-switch piece is the switch-window phase
  integral evaluated at the window end, pi/(2*sqrt(1 + alpha*omega)); any
  other constant breaks C1 continuity at the junction,
* the switching-window derivative is the derivative of the closed form, i.e.
  d/dt sqrt(1/omega + alpha*cos(omega*t)^2) carries the factor alpha*omega/2
  in front of sin(2*omega*t); finite differences of the closed form confirm
  it (the Wronskian cannot discriminate here — any real coefficient in that
  slot cancels out of it).

Exactly at a junction instant the switching-window form is used, matching
:meth:`switchosc.frequency.OscParams.omega_at`.  The constants of each piece
are fields of :class:`switchosc.frequency.OscParams`, computed once.

Each region's closed form is written once and evaluates either on one float
(:func:`epsilon`, for single instants such as the integrator's start and
finite differences) or on a float array (:func:`amplitude`, which builds the
three regions from masks and serves every table and the coherence scan).  The
``*_of(eps, eps_dot)`` helpers derive further quantities from either kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .frequency import ARRAY, SCALAR, ElementaryOps, OscParams, _window_phase, region_masks


@dataclass(frozen=True)
class ClassicalAmplitude:
    """Complex amplitude and its time derivative at one instant.

    For any amplitude produced by :func:`epsilon` the Wronskian
    eps*conj(eps_dot) - eps_dot*conj(eps) equals -2i and |eps| never vanishes.
    (Inside :func:`amplitude` the region pieces fill it with arrays.)
    """

    t: float
    eps: complex
    eps_dot: complex


@dataclass(frozen=True)
class Envelope:
    """Modulus r = |eps| and its time derivative."""

    r: float
    r_dot: float


def phase_integral(t: float, p: OscParams) -> float:
    """Accumulated phase int_0^t ds / (1/omega + alpha*cos(omega*s)^2).

    Strictly increasing on the switch window.  Evaluated in closed form,
    arctan(tan(omega*t)/sqrt(1+alpha*omega)) / sqrt(1+alpha*omega); the
    endpoint omega*t = pi/2 is a removable singularity of tan with limit
    pi / (2*sqrt(1 + alpha*omega)).

    Raises:
        RangeError: if ``t`` lies outside [0, pi/(2*omega)].
    """
    if not 0.0 <= t <= p.switch_end:
        raise RangeError(f"t={t!r} outside the switch window [0, {p.switch_end!r}]")
    return _window_phase(p.omega * t, p, SCALAR)


def _times(a, b):
    # Python's complex product a*b on (re, im) pairs, in its order of operations
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _over(a, x):
    # Python's complex quotient a/x by a real x > 0 on an (re, im) pair, in its
    # order of operations; the zero products only fix the sign of a zero part
    return (a[0] + a[1] * 0.0) / x, (a[1] - a[0] * 0.0) / x


# The three region pieces take a float or a float array ``t`` together with
# the matching ElementaryOps, and need not be called in their own region: the
# junction tests evaluate both one-sided forms at each junction instant.
# Complex products are spelled out on (re, im) pairs because numpy's complex
# arithmetic rounds differently from Python's.

def _eps_before(t, p: OscParams, ops: ElementaryOps = SCALAR) -> ClassicalAmplitude:
    w0, a_coef, b_coef = p.initial_frequency, p.before_re, p.before_im
    c, s = ops.cos(w0 * t), ops.sin(w0 * t)
    return ClassicalAmplitude(
        t=t,
        eps=ops.complex(a_coef * c, b_coef * s),
        eps_dot=ops.complex(-a_coef * w0 * s, b_coef * w0 * c),
    )


def _eps_switching(t, p: OscParams, ops: ElementaryOps = SCALAR) -> ClassicalAmplitude:
    u = p.omega * t
    c = ops.cos(u)
    sigma = ops.sqrt(1.0 / p.omega + p.alpha * c * c)
    phi = _window_phase(u, p, ops)
    phase = (ops.cos(phi), ops.sin(phi))
    # sigma*sigma_dot = -(alpha*omega/2)*sin(2*omega*t)
    ss_dot = -0.5 * p.aw * ops.sin(2.0 * u)
    eps = _times((sigma, 0.0), phase)
    eps_dot = _over(_times(phase, (ss_dot, 1.0)), sigma)
    return ClassicalAmplitude(t=t, eps=ops.complex(*eps), eps_dot=ops.complex(*eps_dot))


def _eps_after(t, p: OscParams, ops: ElementaryOps = SCALAR) -> ClassicalAmplitude:
    w3, c_coef, d_coef = p.final_frequency, p.after_re, p.after_im
    dt = t - p.switch_end
    phase = (p.junction_cos, p.junction_sin)
    c, s = ops.cos(w3 * dt), ops.sin(w3 * dt)
    eps = _times(phase, (c_coef * c, d_coef * s))
    eps_dot = _times(phase, (-c_coef * w3 * s, d_coef * w3 * c))
    return ClassicalAmplitude(t=t, eps=ops.complex(*eps), eps_dot=ops.complex(*eps_dot))


def epsilon(t: float, p: OscParams) -> ClassicalAmplitude:
    """Amplitude and derivative at time ``t`` from the region's closed form.

    Raises:
        DomainError: if ``t`` is not finite.
    """
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    if t < 0.0:
        return _eps_before(t, p)
    if t <= p.switch_end:
        return _eps_switching(t, p)
    return _eps_after(t, p)


def amplitude(ts, p: OscParams) -> tuple[np.ndarray, np.ndarray]:
    """(eps, eps_dot) at every time of the float array ``ts``, evaluated at once.

    Evaluates each region's closed form on the samples its mask selects.
    Gives the doubles :func:`epsilon` gives, except in the last place where
    numpy's ``sin`` and ``cos`` round differently from the C library's (see
    :class:`switchosc.frequency.ElementaryOps`).

    Raises:
        DomainError: if any time is not finite.
    """
    t, before, after = region_masks(ts, p)
    eps = np.empty(t.shape, dtype=complex)
    eps_dot = np.empty(t.shape, dtype=complex)
    for mask, piece in ((before, _eps_before), (~(before | after), _eps_switching),
                        (after, _eps_after)):
        if not mask.any():
            continue
        amp = piece(t[mask], p, ARRAY)
        eps[mask] = amp.eps
        eps_dot[mask] = amp.eps_dot
    return eps, eps_dot


def wronskian_of(eps, eps_dot):
    """eps*conj(eps_dot) - eps_dot*conj(eps), for complex scalars or arrays."""
    er, ei, dr, di = eps.real, eps.imag, eps_dot.real, eps_dot.imag
    a, b = _times((er, ei), (dr, -di)), _times((dr, di), (er, -ei))
    ops = SCALAR if isinstance(eps, complex) else ARRAY
    return ops.complex(a[0] - b[0], a[1] - b[1])


def wronskian(s: ClassicalAmplitude) -> complex:
    """eps*conj(eps_dot) - eps_dot*conj(eps); equals -2i for solutions."""
    return wronskian_of(s.eps, s.eps_dot)


def modulus(eps):
    """|eps| for a complex scalar or array.

    Arrays take the hypotenuse of the parts, which is what Python's complex
    abs computes; numpy's complex abs rounds differently.
    """
    return abs(eps) if isinstance(eps, complex) else np.hypot(eps.real, eps.imag)


def envelope_of(eps, eps_dot):
    """(r, r_dot) = (|eps|, d|eps|/dt) for complex scalars or arrays.

    r_dot follows from d|eps|^2/dt = 2*Re(conj(eps)*eps_dot) and |eps| > 0.
    """
    r = modulus(eps)
    return r, (eps.real * eps_dot.real + eps.imag * eps_dot.imag) / r


def envelope(t: float, p: OscParams) -> Envelope:
    """Modulus of the amplitude and its analytic slope (no finite differencing)."""
    amp = epsilon(t, p)
    r, r_dot = envelope_of(amp.eps, amp.eps_dot)
    return Envelope(r=r, r_dot=r_dot)
