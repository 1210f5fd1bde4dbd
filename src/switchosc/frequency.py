"""Piecewise switched frequency Omega(t) of H = p^2/(2m) + m*Omega(t)^2*q^2/2.

The frequency is constant in the past, decreases smoothly over the window
[0, pi/(2*omega)], and is constant (and lower) afterwards.  :class:`OscParams`
validates itself on construction and carries every constant the switch fixes.
Every other module evaluates the switch through :meth:`OscParams.omega_at`
(one instant, for a caller that checked it), :func:`omega_of` (one checked
instant), :func:`omega_profile` (an array of instants) and
:func:`region_masks`, so the three-region bookkeeping lives in one place.
The closed forms are written once, on numpy arrays; ``omega_at``, the
integrator's per-stage read, is the one scalar evaluation of Omega.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class OscParams:
    """Problem constants: mass, action quantum, and the switch shape.

    ``alpha`` (a time) and ``omega`` (a frequency) shape the switch.  Their
    product must lie in [0, 1), otherwise the post-switch frequency
    ``omega*sqrt(1 - alpha*omega)`` is imaginary.  The library is
    unit-agnostic; fields are taken at face value.

    Validated on construction: :class:`DomainError` names the violated
    constraint.  The constants the switch fixes are then computed once and
    held as fields that are neither compared nor shown: ``aw`` (alpha*omega),
    ``switch_end`` (pi/(2*omega), where the window closes), ``root``
    (sqrt(1 + aw)), the flat frequencies ``initial_frequency`` and
    ``final_frequency``, the post-switch phase ``junction_phase`` and its
    cosine and sine, and the coefficients of the closed forms outside the
    window: eps = before_re*cos(w0*t) + i*before_im*sin(w0*t) before it, and
    e^{i*junction_phase}*(after_re*cos(w3*dt) + i*after_im*sin(w3*dt)) after it.
    """

    m: float = 1.0
    hbar: float = 1.0
    alpha: float = 0.5
    omega: float = 1.0
    aw: float = _derived()
    switch_end: float = _derived()
    root: float = _derived()
    initial_frequency: float = _derived()
    final_frequency: float = _derived()
    junction_phase: float = _derived()
    junction_cos: float = _derived()
    junction_sin: float = _derived()
    before_re: float = _derived()
    before_im: float = _derived()
    after_re: float = _derived()
    after_im: float = _derived()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise DomainError(f"mass must be positive and finite, got {self.m!r}")
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise DomainError(f"hbar must be positive and finite, got {self.hbar!r}")
        if not sys.float_info.min <= self.hbar * self.hbar < math.inf:
            raise DomainError(
                f"hbar^2 must be a finite normal double, got hbar={self.hbar!r} "
                f"(hbar^2 = {self.hbar * self.hbar!r})"
            )
        for name, scale in (("hbar/(2m)", self.hbar / (2.0 * self.m)),
                            ("hbar*m/2", self.hbar * self.m / 2.0)):
            # the position and momentum scales of every moment
            if not sys.float_info.min <= scale < math.inf:
                raise DomainError(
                    f"{name} must be a finite normal double, got mass={self.m!r}, "
                    f"hbar={self.hbar!r} ({name} = {scale!r})"
                )
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise DomainError(f"omega must be positive and finite, got {self.omega!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise DomainError(f"alpha must be nonnegative and finite, got {self.alpha!r}")
        aw = self.alpha * self.omega
        if aw >= 1.0:
            raise DomainError(
                f"alpha*omega must be below 1, got {aw!r}: the post-switch "
                "frequency omega*sqrt(1 - alpha*omega) would be imaginary"
            )

        def put(name: str, value: float) -> None:
            # each constant is checked before anything that depends on it is computed
            if not math.isfinite(value):
                raise DomainError(f"derived constant {name} = {value!r} is not finite for {self!r}")
            object.__setattr__(self, name, value)

        put("aw", aw)
        put("switch_end", math.pi / (2.0 * self.omega))
        if not self.switch_end > 0.0:
            # 2*omega overflows above about 9e307, leaving a window of no length
            raise DomainError(
                f"derived constant switch_end = {self.switch_end!r} is not positive for {self!r}"
            )
        put("root", math.sqrt(1.0 + aw))
        # the array closed forms at cos(omega*t) = 1 and 0, and the window's phase at
        # its end, so that the post-switch piece matches the switching piece bit for bit
        initial, final = _omega_from_cos(np.array([1.0, 0.0]), self).tolist()
        put("initial_frequency", initial)
        put("final_frequency", final)
        put("junction_phase", _window_phase(np.array([self.omega * self.switch_end]), self).item())
        put("junction_cos", np.cos(self.junction_phase).item())
        put("junction_sin", np.sin(self.junction_phase).item())
        put("before_re", math.sqrt((1.0 + aw) / self.omega))
        put("before_im", math.sqrt((1.0 + aw) / (self.omega * (1.0 + aw + aw * aw))))
        put("after_re", 1.0 / math.sqrt(self.omega))
        put("after_im", 1.0 / math.sqrt(self.omega * (1.0 - aw)))

    def omega_at(self, t: float) -> float:
        """Omega(t) for a finite ``t``, unchecked; :func:`omega_of` checks ``t``.

        The one scalar evaluation of Omega, in ``math``: the integrator reads it
        at every stage.  The window holds both junction instants: t < 0 is
        before it, and t <= ``switch_end`` inside it.
        """
        if t < 0.0:
            return self.initial_frequency
        if t <= self.switch_end:
            c = math.cos(self.omega * t)
            return self.omega * math.sqrt(1.0 - self.aw / pow(1.0 + self.aw * c * c, 2))
        return self.final_frequency


def region_masks(ts, p: OscParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ts`` as a float array with its masks before and after the window.

    Every other sample, both junction instants included, lies in the
    switching window, as in :meth:`OscParams.omega_at`.

    Raises:
        DomainError: if any time is not finite.
    """
    t = np.asarray(ts, dtype=float)
    if not np.isfinite(t).all():
        raise DomainError("times must be finite, got a NaN or infinite sample")
    return t, t < 0.0, t > p.switch_end


# tan, atan and pow, which numpy computes with its own rounding on some CPUs,
# call the C library element by element, as Python's math and pow do
_tan = np.vectorize(math.tan, otypes=[float])
_atan = np.vectorize(math.atan, otypes=[float])


def _omega_from_cos(c: np.ndarray, p: OscParams) -> np.ndarray:
    # omega*sqrt(1 - aw/(1 + aw*c^2)^2) with c = cos(omega*t) on the window;
    # c = 1 gives the flat frequency before it and c = 0 the one after it
    return p.omega * np.sqrt(1.0 - p.aw / np.float_power(1.0 + p.aw * c * c, 2))


def _window_phase(u: np.ndarray, p: OscParams) -> np.ndarray:
    # int_0^t ds/(1/omega + alpha*cos(omega*s)^2) at u = omega*t on the window,
    # arctan(tan(u)/root)/root; u = pi/2, or one rounding step past it, is a
    # removable singularity of tan and takes the limit value
    return np.where(u >= 0.5 * math.pi, 0.5 * math.pi / p.root, _atan(_tan(u) / p.root) / p.root)


def omega_of(t: float, p: OscParams) -> float:
    """Instantaneous frequency at time ``t``.

    Continuous everywhere: the switching branch coincides with the flat
    branches at both window edges, where cos^2(omega*t) is exactly 1 and 0.
    Monotonically non-increasing on the switching window for alpha > 0.

    Raises:
        DomainError: if ``t`` is not finite.
    """
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    return p.omega_at(t)


def omega_profile(ts, p: OscParams) -> np.ndarray:
    """:func:`omega_of` at every time of the array ``ts``, evaluated at once.

    Raises:
        DomainError: if any time is not finite.
    """
    t, before, after = region_masks(ts, p)
    c = np.where(before, 1.0, np.where(after, 0.0, np.cos(p.omega * t)))
    return _omega_from_cos(c, p)


def require_resolved(name: str, t: float, quarter_period: float) -> None:
    """Raise RangeError, naming ``name``, if the doubles near ``t`` lie more
    than 1e-9 of ``quarter_period`` (pi/(2*w) for a frequency w) apart."""
    if math.ulp(t) > 1e-9 * quarter_period:
        raise RangeError(f"doubles near {name}={t!r} lie {math.ulp(t)!r} apart, coarser than 1e-9 of "
                         f"the quarter period {quarter_period!r}: times cannot be resolved there")
