"""Quantum evolution built from the classical amplitude.

All quantum quantities of the minimum-uncertainty states — the linear
invariant's coefficients, the conserved pair, first moments, the three second
moments, and the coherence scan — are pure functions of (eps, eps_dot).  The
``*_of`` functions take (eps, eps_dot) as complex scalars or as the arrays of
:func:`switchosc.classical.amplitude`; the functions of ``t`` evaluate them at
one instant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import amplitude, envelope_of, epsilon
from .errors import RangeError
from .frequency import OscParams, omega_of
from .numerics import RootStats, find_root

# the stats of a scan that polished no bracket
NO_SEARCH = RootStats(brackets=0, iterations=0, evaluations=0)


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
class CoherenceEvent:
    """One zero of the cofluctuation in the post-switch region.

    ``sq_ratio`` and ``sp_ratio`` are the dimensionless variances
    m*Omega*sigma_q^2/(hbar/2) and sigma_p^2/(m*Omega*hbar/2); both equal one
    for a true coherent state.  ``t_predicted`` is the nearest instant from
    the reference coherent-instant formula and ``offset`` the gap to it —
    diagnostic output, not an invariant.
    """

    t: float
    sq_ratio: float
    sp_ratio: float
    cqp: float
    t_predicted: float
    offset: float


@dataclass(frozen=True)
class CoherenceScanResult:
    """Outcome of scanning for cofluctuation zeros.

    With a static frequency (alpha = 0) the cofluctuation vanishes
    identically; ``always_coherent`` is then set and the uniform ratios are
    reported instead of discrete events.  ``stats`` is what the root search
    did: the brackets polished, the lane iterations and the evaluations of
    the envelope slope (all zero when nothing was polished).
    """

    always_coherent: bool
    events: tuple[CoherenceEvent, ...]
    sq_ratio: float | None = None
    sp_ratio: float | None = None
    stats: RootStats = NO_SEARCH


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
    amp = epsilon(t, p)
    q_mean, p_mean = first_moments_of(z, amp.eps, amp.eps_dot, p)
    return FirstMoments(q_mean=q_mean, p_mean=p_mean)


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
    amp = epsilon(t, p)
    return conserved_pair_of(z, amp.eps, amp.eps_dot, p)


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
    amp = epsilon(t, p)
    sq2, sp2, cqp = second_moments_of(amp.eps, amp.eps_dot, p)
    return CovarianceState(sq2=sq2, sp2=sp2, cqp=cqp)


def coherence_scan(p: OscParams, t_lo: float, t_hi: float) -> CoherenceScanResult:
    """Find all cofluctuation zeros in [t_lo, t_hi] of the post-switch region.

    Zeros of c_qp coincide with envelope extrema, so the scan brackets sign
    changes of the envelope slope on a grid and polishes all the brackets in
    one lane-wise :func:`switchosc.numerics.find_root` call, each iteration
    evaluating the slope on the array kernel.
    Zeros sitting exactly on a window edge are ambiguous and dropped.  Each
    event also records the nearest reference coherent-instant prediction and
    the offset from it, as diagnostics.

    Raises:
        RangeError: if ``t_lo`` precedes the switch end, t_hi <= t_lo, or,
            for a switched frequency, the doubles near ``t_hi`` are more than
            1e-9 of the event spacing apart.
    """
    t_j = p.switch_end
    if t_lo < t_j:
        raise RangeError(f"scan must start at or after the switch end {t_j!r}, got {t_lo!r}")
    if not t_hi > t_lo:
        raise RangeError(f"need t_hi > t_lo, got [{t_lo!r}, {t_hi!r}]")
    half = 0.5 * p.hbar
    if p.alpha == 0.0:
        cov = second_moments(t_lo, p)
        w = omega_of(t_lo, p)
        return CoherenceScanResult(
            always_coherent=True,
            events=(),
            sq_ratio=p.m * w * cov.sq2 / half,
            sp_ratio=cov.sp2 / (p.m * w * half),
        )

    spacing = math.pi / (2.0 * p.final_frequency)
    # the envelope slope's zero cannot be placed closer than about one ulp of t
    if math.ulp(t_hi) > 1e-9 * spacing:
        raise RangeError(
            f"doubles near t_hi={t_hi!r} lie {math.ulp(t_hi)!r} apart, coarser than "
            f"1e-9 of the event spacing {spacing!r}: events cannot be resolved there"
        )
    pred_spacing = math.pi / (4.0 * p.initial_frequency)

    def slope(x: np.ndarray) -> np.ndarray:
        return envelope_of(*amplitude(x, p))[1]

    n = max(8, math.ceil((t_hi - t_lo) / (spacing / 16.0)))
    ts = t_lo + np.arange(n + 1) * (t_hi - t_lo) / n
    values = slope(ts)
    # a zero on the grid is an event; a sign change between two nonzero
    # neighbours is a bracket, and all brackets are polished at once
    zeros = np.flatnonzero(values == 0.0)
    f0, f1 = values[:-1], values[1:]
    brackets = np.flatnonzero((f0 != 0.0) & (f1 != 0.0) & ((f0 > 0.0) != (f1 > 0.0)))
    stats, polished = NO_SEARCH, np.empty(0)
    if brackets.size:
        polished, stats = find_root(slope, ts[brackets], ts[brackets + 1], tol=1e-13)
    # bracket k's root lies in [ts[k], ts[k + 1]], so sorting keeps grid order
    roots = np.sort(np.concatenate((ts[zeros], polished)))
    edge = 1e-6 * spacing
    roots = roots[(roots - t_lo > edge) & (t_hi - roots > edge)]

    # every root lies past the switch end, where Omega is the final frequency
    w = p.final_frequency
    sq2, sp2, cqp = second_moments_of(*amplitude(roots, p), p)
    events = []
    for r, sq2_r, sp2_r, cqp_r in zip(roots.tolist(), sq2.tolist(), sp2.tolist(), cqp.tolist()):
        n_near = max(1, round((r - t_j) / pred_spacing - 0.5))
        t_pred = t_j + (n_near + 0.5) * pred_spacing
        events.append(
            CoherenceEvent(
                t=r,
                sq_ratio=p.m * w * sq2_r / half,
                sp_ratio=sp2_r / (p.m * w * half),
                cqp=cqp_r,
                t_predicted=t_pred,
                offset=abs(r - t_pred),
            )
        )
    return CoherenceScanResult(always_coherent=False, events=tuple(events), stats=stats)
