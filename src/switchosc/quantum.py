"""Quantum evolution built from the classical amplitude.

All quantum quantities of the minimum-uncertainty states — the linear
invariant's coefficients, the conserved pair, first moments, the three second
moments, and the coherence scan — are pure functions of (eps, eps_dot).  The
``*_of`` functions take (eps, eps_dot) as the arrays of
:func:`switchosc.classical.amplitude`; the functions of ``t`` are the same
code at one sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import amplitude, envelope_of, epsilon
from .errors import RangeError
from .frequency import OscParams, require_resolved

# the most points of a table, and of a coherence scan's window at 16 points
# per event spacing; the command line caps --samples at the same number
MAX_SAMPLES = 1_000_001


@dataclass(frozen=True)
class InvariantCoefficients:
    """Ladder-operator coefficients (u, v) of the linear invariant at one instant.

    ``omega0`` is the reference frequency Omega(0) entering the ladder
    operators; |u|^2 - |v|^2 = 1 at all times by Wronskian conservation.
    """

    u: complex
    v: complex
    omega0: float


@dataclass(frozen=True)
class FirstMoments:
    """Mean position and momentum."""

    q_mean: float
    p_mean: float


@dataclass(frozen=True)
class CovarianceState:
    """Second moments (sigma_q^2, sigma_p^2, c_qp) of a Gaussian state.

    Minimum-uncertainty states satisfy sq2*sp2 - cqp^2 = hbar^2/4 identically.
    The sign of ``cqp`` follows the envelope slope; only cqp^2 is fixed by the
    moment formulas.
    """

    sq2: float
    sp2: float
    cqp: float


@dataclass(frozen=True)
class CoherenceScanResult:
    """Outcome of scanning for cofluctuation zeros: one array per column, one entry per event.

    ``t`` is the zero of ``c_qp``; ``sq_ratio`` and ``sp_ratio`` are the
    dimensionless variances m*Omega*sigma_q^2/(hbar/2) and
    sigma_p^2/(m*Omega*hbar/2) there, both one for a true coherent state.
    ``t_predicted`` is the nearest instant of the reference coherent-instant
    formula, spaced by ``reference_spacing``, and ``offset`` the gap to it —
    diagnostic output, not an invariant.  ``spacing`` is the event spacing.

    Where the post-switch envelope is flat (after_re == after_im: alpha = 0,
    or 1 - alpha*omega rounds to 1) the cofluctuation vanishes identically;
    ``always_coherent`` is then set, the columns are empty, and the ratios at
    the window start are ``uniform_sq_ratio`` and ``uniform_sp_ratio``.
    """

    always_coherent: bool
    spacing: float
    reference_spacing: float
    t: np.ndarray
    sq_ratio: np.ndarray
    sp_ratio: np.ndarray
    c_qp: np.ndarray
    t_predicted: np.ndarray
    offset: np.ndarray
    uniform_sq_ratio: float | None = None
    uniform_sp_ratio: float | None = None


def invariant_coefficients(t: float, p: OscParams) -> InvariantCoefficients:
    """Coefficients of the annihilation/creation operators in the invariant."""
    amp = epsilon(t, p)
    w0 = p.initial_frequency
    rw = math.sqrt(w0)
    u = 0.5 * (rw * amp.eps - 1j * amp.eps_dot / rw)
    v = -0.5 * (rw * amp.eps + 1j * amp.eps_dot / rw)
    return InvariantCoefficients(u=u, v=v, omega0=w0)


def first_moments_of(z: complex, eps, eps_dot, p: OscParams):
    """(<q>, <p>) of the state labeled ``z`` from the amplitude (eps, eps_dot).

    q = sqrt(hbar/2m) * 2*Re(eps * conj(z)),
    p = sqrt(hbar*m/2) * 2*Re(eps_dot * conj(z));
    real by construction (the symmetric sum is taken as a real part).
    """
    zc = complex(z).conjugate()
    # Re(eps*conj(z)) spelled out on the parts, as Python's complex product
    # computes it; numpy's complex product rounds differently
    q_mean = math.sqrt(p.hbar / (2.0 * p.m)) * 2.0 * (eps.real * zc.real - eps.imag * zc.imag)
    p_mean = math.sqrt(p.hbar * p.m / 2.0) * 2.0 * (eps_dot.real * zc.real - eps_dot.imag * zc.imag)
    return q_mean, p_mean


def first_moments(z: complex, t: float, p: OscParams) -> FirstMoments:
    """Mean position and momentum of the state labeled ``z`` at time ``t``."""
    q_mean, p_mean = first_moments_of(z, *amplitude([t], p), p)
    return FirstMoments(q_mean=q_mean.item(), p_mean=p_mean.item())


def conserved_pair_of(z: complex, eps, eps_dot, p: OscParams):
    """(Q0, P0) of the state labeled ``z`` from the amplitude (eps, eps_dot).

    Q0 = (Im(eps_dot)*<q> - Im(eps)*<p>/m) / sqrt(Omega0),
    P0 = sqrt(Omega0) * (-m*Re(eps_dot)*<q> + Re(eps)*<p>).
    """
    q_mean, p_mean = first_moments_of(z, eps, eps_dot, p)
    rw = math.sqrt(p.initial_frequency)
    q0 = (eps_dot.imag * q_mean - eps.imag * p_mean / p.m) / rw
    p0 = rw * (-p.m * eps_dot.real * q_mean + eps.real * p_mean)
    return q0, p0


def conserved_pair(z: complex, t: float, p: OscParams) -> tuple[float, float]:
    """Mean values (Q0, P0) of the conserved pair; constant in ``t`` for fixed z."""
    q0, p0 = conserved_pair_of(z, *amplitude([t], p), p)
    return q0.item(), p0.item()


def second_moments_of(eps, eps_dot, p: OscParams):
    """(sigma_q^2, sigma_p^2, c_qp) from the amplitude (eps, eps_dot).

    sq2 = hbar*|eps|^2/(2m), sp2 = (hbar*m/2)*(1/|eps|^2 + r_dot^2),
    cqp = (hbar/2)*|eps|*r_dot, so sq2*sp2 - cqp^2 = hbar^2/4 identically.
    """
    r, r_dot = envelope_of(eps, eps_dot)
    sq2 = p.hbar * r * r / (2.0 * p.m)
    sp2 = 0.5 * p.hbar * p.m * (1.0 / (r * r) + r_dot * r_dot)
    cqp = 0.5 * p.hbar * r * r_dot
    return sq2, sp2, cqp


def second_moments(t: float, p: OscParams) -> CovarianceState:
    """The three second moments at time ``t``."""
    sq2, sp2, cqp = second_moments_of(*amplitude([t], p), p)
    return CovarianceState(sq2=sq2.item(), sp2=sp2.item(), cqp=cqp.item())


def scan_window(p: OscParams) -> tuple[float, float]:
    """The default scan window: three post-switch periods from the switch end."""
    return p.switch_end, p.switch_end + 3.0 * (2.0 * math.pi / p.final_frequency)


def interior(ts: np.ndarray, t_lo: float, t_hi: float, spacing: float) -> np.ndarray:
    """The instants of ``ts`` more than 1e-6 of ``spacing`` inside [t_lo, t_hi];
    one nearer an edge is ambiguous."""
    margin = 1e-6 * spacing
    return ts[(ts - t_lo > margin) & (t_hi - ts > margin)]


def coherence_scan(p: OscParams, t_lo: float, t_hi: float) -> CoherenceScanResult:
    """All cofluctuation zeros in [t_lo, t_hi] of the post-switch region.

    After the switch |eps|^2 = after_re^2*cos^2(w*dt) + after_im^2*sin^2(w*dt),
    with w the final frequency and dt = t - switch_end, so the zeros of c_qp
    (the envelope extrema) are exactly switch_end + k*pi/(2*w).  Those
    :func:`interior` to the window are the events, and the moments are taken
    at those instants alone.  Each event also records the nearest reference
    coherent-instant prediction and the offset from it, as diagnostics.

    Raises:
        RangeError: if ``t_lo`` precedes the switch end, t_hi <= t_lo, or,
            where the envelope is not flat, the doubles near ``t_hi`` are more
            than 1e-9 of the event spacing apart, or a grid of the window at
            16 points per event spacing would hold more than ``MAX_SAMPLES``
            points.
    """
    t_j = p.switch_end
    if t_lo < t_j:
        raise RangeError(f"scan must start at or after the switch end {t_j!r}, got {t_lo!r}")
    if not t_hi > t_lo:
        raise RangeError(f"need t_hi > t_lo, got [{t_lo!r}, {t_hi!r}]")
    # the scan lies at or past the switch end, where Omega is the final frequency
    w = p.final_frequency
    spacing = math.pi / (2.0 * w)
    pred_spacing = math.pi / (4.0 * p.initial_frequency)
    flat = p.after_re == p.after_im
    if flat:
        ts = np.array([t_lo])
    else:
        require_resolved("t_hi", t_hi, spacing)  # the doubles are coarsest at t_hi
        # the size rule, counted without building anything: a grid of the window
        # at 16 points per spacing would hold n + 1 points
        n = math.ceil((t_hi - t_lo) / (spacing / 16.0))
        if n + 1 > MAX_SAMPLES:
            raise RangeError(
                f"the scan grid of [{t_lo!r}, {t_hi!r}] would hold {n + 1} points, "
                f"more than the cap of {MAX_SAMPLES}"
            )
        k = np.arange(math.floor((t_lo - t_j) / spacing), math.ceil((t_hi - t_j) / spacing) + 1)
        ts = interior(t_j + k * spacing, t_lo, t_hi, spacing)
    half = 0.5 * p.hbar
    sq2, sp2, cqp = second_moments_of(*amplitude(ts, p), p)
    sq_ratio, sp_ratio = p.m * w * sq2 / half, sp2 / (p.m * w * half)
    if flat:
        return CoherenceScanResult(True, spacing, pred_spacing, *[np.empty(0)] * 6,
                                   uniform_sq_ratio=sq_ratio.item(), uniform_sp_ratio=sp_ratio.item())
    t_pred = t_j + (np.maximum(1.0, np.round((ts - t_j) / pred_spacing - 0.5)) + 0.5) * pred_spacing
    return CoherenceScanResult(False, spacing, pred_spacing, ts, sq_ratio, sp_ratio, cqp, t_pred,
                               np.abs(ts - t_pred))
