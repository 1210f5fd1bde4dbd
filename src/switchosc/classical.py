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

Each region's closed form is written once, on numpy arrays.
:func:`amplitude` builds the three regions from masks and serves every table
and the coherence scan; the one-instant functions (:func:`epsilon`,
:func:`envelope`, :func:`phase_integral`) are the same code at one sample.
The ``*_of(eps, eps_dot)`` helpers derive further quantities from the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .frequency import OscParams, _window_phase, region_masks


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
    return _window_phase(np.array([p.omega * t]), p).item()


def _times(a, b):
    # Python's complex product a*b on (re, im) pairs, in its order of operations
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _complex(re, im) -> np.ndarray:
    # the complex array with these parts exactly; re + 1j*im would turn a -0.0
    # real part into +0.0
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


# The three region pieces take a float array ``t`` and need not be called in
# their own region: the junction tests evaluate both one-sided forms at each
# junction instant.  Complex products are spelled out on (re, im) pairs because
# numpy's complex arithmetic rounds differently from Python's.

def _eps_before(t, p: OscParams) -> ClassicalAmplitude:
    w0, a_coef, b_coef = p.initial_frequency, p.before_re, p.before_im
    c, s = np.cos(w0 * t), np.sin(w0 * t)
    eps = (a_coef * c, b_coef * s)
    eps_dot = (-a_coef * w0 * s, b_coef * w0 * c)
    return ClassicalAmplitude(t=t, eps=_complex(*eps), eps_dot=_complex(*eps_dot))


def _eps_switching(t, p: OscParams) -> ClassicalAmplitude:
    u = p.omega * t
    c = np.cos(u)
    sigma = np.sqrt(1.0 / p.omega + p.alpha * c * c)
    phi = _window_phase(u, p)
    phase = (np.cos(phi), np.sin(phi))
    # sigma*sigma_dot = -(alpha*omega/2)*sin(2*omega*t)
    ss_dot = -0.5 * p.aw * np.sin(2.0 * u)
    eps = _times((sigma, 0.0), phase)
    re, im = _times(phase, (ss_dot, 1.0))
    # divided by sigma as Python divides a complex by a real: the zero
    # products only fix the sign of a zero part (eps_dot.real is +0.0 at t = 0)
    eps_dot = ((re + im * 0.0) / sigma, (im - re * 0.0) / sigma)
    return ClassicalAmplitude(t=t, eps=_complex(*eps), eps_dot=_complex(*eps_dot))


def _eps_after(t, p: OscParams) -> ClassicalAmplitude:
    w3, c_coef, d_coef = p.final_frequency, p.after_re, p.after_im
    dt = t - p.switch_end
    phase = (p.junction_cos, p.junction_sin)
    c, s = np.cos(w3 * dt), np.sin(w3 * dt)
    eps = _times(phase, (c_coef * c, d_coef * s))
    eps_dot = _times(phase, (-c_coef * w3 * s, d_coef * w3 * c))
    return ClassicalAmplitude(t=t, eps=_complex(*eps), eps_dot=_complex(*eps_dot))


def epsilon(t: float, p: OscParams) -> ClassicalAmplitude:
    """Amplitude and derivative at time ``t``: :func:`amplitude` at one sample.

    Raises:
        DomainError: if ``t`` is not finite.
    """
    eps, eps_dot = amplitude([t], p)
    return ClassicalAmplitude(t=t, eps=eps.item(), eps_dot=eps_dot.item())


def amplitude(ts, p: OscParams) -> tuple[np.ndarray, np.ndarray]:
    """(eps, eps_dot) at every time of the float array ``ts``, evaluated at once.

    Evaluates each region's closed form on the samples its mask selects.

    Raises:
        DomainError: if any time is not finite.
    """
    t, before, after = region_masks(ts, p)
    eps = np.empty(t.shape, dtype=complex)
    eps_dot = np.empty(t.shape, dtype=complex)
    for mask, piece in ((before, _eps_before), (~(before | after), _eps_switching),
                        (after, _eps_after)):
        if mask.any():
            amp = piece(t[mask], p)
            eps[mask], eps_dot[mask] = amp.eps, amp.eps_dot
    return eps, eps_dot


def wronskian_of(eps, eps_dot) -> np.ndarray:
    """eps*conj(eps_dot) - eps_dot*conj(eps), element-wise."""
    er, ei, dr, di = eps.real, eps.imag, eps_dot.real, eps_dot.imag
    a, b = _times((er, ei), (dr, -di)), _times((dr, di), (er, -ei))
    return _complex(a[0] - b[0], a[1] - b[1])


def wronskian(s: ClassicalAmplitude) -> complex:
    """eps*conj(eps_dot) - eps_dot*conj(eps); equals -2i for solutions."""
    return wronskian_of(s.eps, s.eps_dot).item()


def modulus(eps):
    """|eps|, element-wise: the hypotenuse of the parts (numpy's complex abs rounds differently)."""
    return np.hypot(eps.real, eps.imag)


def envelope_of(eps, eps_dot):
    """(r, r_dot) = (|eps|, d|eps|/dt), element-wise.

    r_dot follows from d|eps|^2/dt = 2*Re(conj(eps)*eps_dot) and |eps| > 0.
    """
    r = modulus(eps)
    return r, (eps.real * eps_dot.real + eps.imag * eps_dot.imag) / r


def envelope(t: float, p: OscParams) -> tuple[float, float]:
    """(r, r_dot) at ``t``: the amplitude's modulus and its analytic slope (no finite differencing)."""
    r, r_dot = envelope_of(*amplitude([t], p))
    return r.item(), r_dot.item()
