"""Independent numerical machinery used to cross-check every closed form.

Nothing here knows the analytic solution: the integrator sees only the
frequency profile, the quadrature sees only an integrand, the root finder
only a bracket.  That independence is the point — these routines arbitrate
whenever a closed form is in doubt.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NoSignChange, RangeError, ToleranceNotMet
from .frequency import OscParams

# Dormand-Prince 5(4) pair.  The fifth-order solution is propagated; the
# embedded fourth-order difference drives the step controller.  The last row
# of _A equals _B5 (whose seventh weight is zero), so the seventh stage is
# evaluated at the new state.  integrate_ode unpacks its coefficients from
# these tuples.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass(frozen=True)
class IntegratorStats:
    """What one :func:`integrate_ode` call did.

    ``rhs_calls`` is seven stage evaluations per attempted step, also where
    a step outside the switch window reads Omega once; ``junction_stops``
    counts the accepted steps that ended on a region junction placed among
    the stops (none when junctions are not forced).  ``min_step`` and
    ``max_step`` range over the accepted steps.
    """

    accepted: int
    rejected: int
    rhs_calls: int
    junction_stops: int
    min_step: float
    max_step: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled numerical solution of the amplitude equation.

    ``states[k]`` holds (eps, eps_dot) at ``times[k]``; times are strictly
    increasing.  Immutable once returned.
    """

    times: np.ndarray
    states: np.ndarray
    tol: float
    stats: IntegratorStats

    @property
    def eps(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def eps_dot(self) -> np.ndarray:
        return self.states[:, 1]


def integrate_ode(
    p: OscParams,
    t0: float,
    t1: float,
    init: tuple[complex, complex],
    tol: float,
    *,
    t_eval: Sequence[float] | None = None,
    force_junctions: bool = True,
    fixed_step: float | None = None,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate eps'' + Omega(t)^2 * eps = 0 as a 4-dimensional real system.

    Adaptive embedded Runge-Kutta with local error per step kept at ``tol``
    (mixed absolute/relative scale).  Step boundaries are placed exactly on
    the region junctions inside [t0, t1] — Omega^2 is continuous but not
    smooth there — and exactly on every requested ``t_eval`` point, so no
    interpolation is ever involved.  The inputs are validated once, here;
    each step then runs on the four real state components as floats, reading
    Omega(t) from ``p.omega_at``: once for a step that lies wholly before or
    wholly after the switch window, where Omega is flat, and at each stage's
    instant otherwise.

    Args:
        init: (eps, eps_dot) at ``t0``.
        t_eval: when given, the trajectory records exactly these times
            (plus ``t0`` if present); otherwise every accepted step.
        force_junctions: disable to measure the cost of stepping blindly
            across the junctions.
        fixed_step: bypass the controller and march with this step instead
            (reproducibility fallback; no error estimate).

    Raises:
        DomainError: if ``tol``, ``fixed_step`` or ``max_steps`` is invalid,
            or a time or initial value is not finite.
        RangeError: if a ``t_eval`` point lies outside [t0, t1].
        ToleranceNotMet: if the step size underflows or the step budget
            is exhausted.
    """
    if not 1e-13 <= tol <= 1e-3:
        raise DomainError(f"tol must lie in [1e-13, 1e-3], got {tol!r}")
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DomainError(f"t0 and t1 must be finite, got [{t0!r}, {t1!r}]")
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got [{t0!r}, {t1!r}]")
    if fixed_step is not None and not fixed_step > 0.0:
        raise DomainError(f"fixed_step must be positive, got {fixed_step!r}")
    if not (isinstance(max_steps, int) and max_steps >= 1):
        raise DomainError(f"max_steps must be an int of at least 1, got {max_steps!r}")
    eps0, eps_dot0 = complex(init[0]), complex(init[1])
    if not (cmath.isfinite(eps0) and cmath.isfinite(eps_dot0)):
        raise DomainError(f"initial values must be finite, got ({eps0!r}, {eps_dot0!r})")

    omega, t_end = p.omega_at, p.switch_end
    # state (x, y, u, v): eps = x + iy, eps_dot = u + iv
    x, y, u, v = eps0.real, eps0.imag, eps_dot0.real, eps_dot0.imag

    eval_set: set[float] = set()
    stops: set[float] = {t1}
    if t_eval is not None:
        pts = [float(te) for te in t_eval]
        if not all(map(math.isfinite, pts)):
            raise DomainError("t_eval points must be finite")
        if any(te < t0 or te > t1 for te in pts):
            raise RangeError("t_eval points must lie within [t0, t1]")
        eval_set = set(pts)
        stops.update(te for te in pts if te > t0)
    junctions: set[float] = set()
    if force_junctions:
        junctions = {tj for tj in (0.0, p.switch_end) if t0 < tj < t1}
        stops.update(junctions)
    stop_list = sorted(stops)

    record_all = t_eval is None
    times: list[float] = []
    states: list[tuple] = []
    if record_all or t0 in eval_set:
        times.append(t0)
        states.append((x, y, u, v))

    _, c2, c3, c4, c5, c6, c7 = _C
    (
        _,
        (a21,),
        (a31, a32),
        (a41, a42, a43),
        (a51, a52, a53, a54),
        (a61, a62, a63, a64, a65),
        (a71, a72, a73, a74, a75, a76),
    ) = _A
    e1, e2, e3, e4, e5, e6, e7 = _ERR

    t = t0
    h = fixed_step if fixed_step is not None else min((t1 - t0) / 64.0, stop_list[0] - t0)
    tiny = 16.0 * sys.float_info.epsilon
    budget = 0.1 * tol
    si = 0
    steps = accepted = rhs_calls = junction_stops = 0
    min_step, max_step = math.inf, 0.0
    while t < t1:
        while stop_list[si] <= t:
            si += 1
        stop = stop_list[si]
        gap = stop - t
        if h < gap:
            h_try, hit = h, False
        else:
            h_try, hit = gap, True
        # g_i = -Omega^2 at stage i's instant t + c_i*h.  A step wholly after
        # the window (t > t_end), or wholly before it (t + h < 0, which bounds
        # every t + c_i*h since c_i <= 1), sees one flat Omega: read it once.
        if t > t_end or t + h_try < 0.0:
            w = omega(t)
            g1 = g2 = g3 = g4 = g5 = g6 = g7 = -(w * w)
        else:
            w1, w2, w3, w4, w5, w6, w7 = (
                omega(t), omega(t + c2 * h_try), omega(t + c3 * h_try), omega(t + c4 * h_try),
                omega(t + c5 * h_try), omega(t + c6 * h_try), omega(t + c7 * h_try),
            )
            g1, g2, g3, g4 = -(w1 * w1), -(w2 * w2), -(w3 * w3), -(w4 * w4)
            g5, g6, g7 = -(w5 * w5), -(w6 * w6), -(w7 * w7)
        # Seven stages.  Stage i's input is (xi, yi, ui, vi), stage 1's the
        # state itself, and its derivative is (ui, vi, gi*xi, gi*yi).  Each
        # input is the state plus h*(0.0 + a_i1*k_1 + a_i2*k_2 + ...), summed
        # left to right; the seventh is the fifth-order solution.
        gx1, gy1 = g1 * x, g1 * y
        x2 = x + h_try * (0.0 + a21 * u)
        y2 = y + h_try * (0.0 + a21 * v)
        u2 = u + h_try * (0.0 + a21 * gx1)
        v2 = v + h_try * (0.0 + a21 * gy1)
        gx2, gy2 = g2 * x2, g2 * y2
        x3 = x + h_try * (0.0 + a31 * u + a32 * u2)
        y3 = y + h_try * (0.0 + a31 * v + a32 * v2)
        u3 = u + h_try * (0.0 + a31 * gx1 + a32 * gx2)
        v3 = v + h_try * (0.0 + a31 * gy1 + a32 * gy2)
        gx3, gy3 = g3 * x3, g3 * y3
        x4 = x + h_try * (0.0 + a41 * u + a42 * u2 + a43 * u3)
        y4 = y + h_try * (0.0 + a41 * v + a42 * v2 + a43 * v3)
        u4 = u + h_try * (0.0 + a41 * gx1 + a42 * gx2 + a43 * gx3)
        v4 = v + h_try * (0.0 + a41 * gy1 + a42 * gy2 + a43 * gy3)
        gx4, gy4 = g4 * x4, g4 * y4
        x5 = x + h_try * (0.0 + a51 * u + a52 * u2 + a53 * u3 + a54 * u4)
        y5 = y + h_try * (0.0 + a51 * v + a52 * v2 + a53 * v3 + a54 * v4)
        u5 = u + h_try * (0.0 + a51 * gx1 + a52 * gx2 + a53 * gx3 + a54 * gx4)
        v5 = v + h_try * (0.0 + a51 * gy1 + a52 * gy2 + a53 * gy3 + a54 * gy4)
        gx5, gy5 = g5 * x5, g5 * y5
        x6 = x + h_try * (0.0 + a61 * u + a62 * u2 + a63 * u3 + a64 * u4 + a65 * u5)
        y6 = y + h_try * (0.0 + a61 * v + a62 * v2 + a63 * v3 + a64 * v4 + a65 * v5)
        u6 = u + h_try * (0.0 + a61 * gx1 + a62 * gx2 + a63 * gx3 + a64 * gx4 + a65 * gx5)
        v6 = v + h_try * (0.0 + a61 * gy1 + a62 * gy2 + a63 * gy3 + a64 * gy4 + a65 * gy5)
        gx6, gy6 = g6 * x6, g6 * y6
        x7 = x + h_try * (0.0 + a71 * u + a72 * u2 + a73 * u3 + a74 * u4 + a75 * u5 + a76 * u6)
        y7 = y + h_try * (0.0 + a71 * v + a72 * v2 + a73 * v3 + a74 * v4 + a75 * v5 + a76 * v6)
        u7 = u + h_try * (0.0 + a71 * gx1 + a72 * gx2 + a73 * gx3 + a74 * gx4 + a75 * gx5 + a76 * gx6)
        v7 = v + h_try * (0.0 + a71 * gy1 + a72 * gy2 + a73 * gy3 + a74 * gy4 + a75 * gy5 + a76 * gy6)
        gx7, gy7 = g7 * x7, g7 * y7
        rhs_calls += 7
        if fixed_step is None:
            # budget each step a decade below the requested tolerance so the
            # accumulated drift of conserved quantities stays within a few tol.
            # The error norm is the root mean square of the four components of
            # the error estimate, each measured against budget * (1 + the
            # larger magnitude of that component before and after the step).
            ex = 0.0 + h_try * (0.0 + e1 * u + e2 * u2 + e3 * u3 + e4 * u4 + e5 * u5 + e6 * u6 + e7 * u7)
            ey = 0.0 + h_try * (0.0 + e1 * v + e2 * v2 + e3 * v3 + e4 * v4 + e5 * v5 + e6 * v6 + e7 * v7)
            eu = 0.0 + h_try * (0.0 + e1 * gx1 + e2 * gx2 + e3 * gx3 + e4 * gx4 + e5 * gx5 + e6 * gx6 + e7 * gx7)
            ev = 0.0 + h_try * (0.0 + e1 * gy1 + e2 * gy2 + e3 * gy3 + e4 * gy4 + e5 * gy5 + e6 * gy6 + e7 * gy7)
            s0, s1 = abs(x), abs(x7)
            ex /= budget * (1.0 + (s1 if s1 > s0 else s0))
            s0, s1 = abs(y), abs(y7)
            ey /= budget * (1.0 + (s1 if s1 > s0 else s0))
            s0, s1 = abs(u), abs(u7)
            eu /= budget * (1.0 + (s1 if s1 > s0 else s0))
            s0, s1 = abs(v), abs(v7)
            ev /= budget * (1.0 + (s1 if s1 > s0 else s0))
            err_norm = math.sqrt((ex * ex + ey * ey + eu * eu + ev * ev) / 4.0)
        else:
            err_norm = 0.0
        if err_norm <= 1.0:
            t = stop if hit else t + h_try
            x, y, u, v = x7, y7, u7, v7
            accepted += 1
            if h_try < min_step:
                min_step = h_try
            if h_try > max_step:
                max_step = h_try
            if hit and stop in junctions:
                junction_stops += 1
            if record_all or t in eval_set:
                times.append(t)
                states.append((x, y, u, v))
            if fixed_step is None:
                grow = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm**-0.2
                h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, grow))
        else:
            h = h_try * max(_MIN_FACTOR, _SAFETY * err_norm**-0.2)
            if h < tiny * max(1.0, abs(t)):
                raise ToleranceNotMet(f"step size underflow at t={t!r} (tol={tol!r})")
        steps += 1
        if steps > max_steps:
            raise ToleranceNotMet(f"step budget exhausted after {max_steps} steps")

    raw = np.array(states, dtype=float).reshape(len(states), 4)
    out = np.empty((len(times), 2), dtype=complex)
    out[:, 0] = raw[:, 0] + 1j * raw[:, 1]
    out[:, 1] = raw[:, 2] + 1j * raw[:, 3]
    stats = IntegratorStats(accepted=accepted, rejected=steps - accepted, rhs_calls=rhs_calls,
                            junction_stops=junction_stops, min_step=min_step, max_step=max_step)
    return Trajectory(times=np.array(times), states=out, tol=tol, stats=stats)


def quadrature(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10,
               max_depth: int = 50) -> float:
    """Adaptive Simpson integral of ``f`` over [a, b] to absolute accuracy ``tol``.

    Uses recursive bisection with the standard 15x Richardson acceptance test
    and returns the extrapolated value.

    Raises:
        RangeError: if a > b.
        DomainError: if the integrand returns a non-finite value.
        ToleranceNotMet: if the recursion depth limit is reached before the
            local error budget is satisfied.
    """
    if a > b:
        raise RangeError(f"need a <= b, got a={a!r}, b={b!r}")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise DomainError(f"integrand is not finite on [{a!r}, {b!r}]")
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adapt_simpson(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _adapt_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    if not (math.isfinite(flm) and math.isfinite(frm) and math.isfinite(fm)):
        raise DomainError(f"integrand is not finite inside [{a!r}, {b!r}]")
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise ToleranceNotMet(f"quadrature tolerance {tol!r} not met on [{a!r}, {b!r}]")
    return _adapt_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adapt_simpson(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


@dataclass(frozen=True)
class RootStats:
    """What one :func:`find_root` call did.

    ``brackets`` is the number of lanes searched, ``iterations`` the secant
    and bisection steps summed over the lanes, and ``evaluations`` the calls
    of ``f``, each on an array (the bracket ends take one).
    """

    brackets: int
    iterations: int
    evaluations: int


def find_root(f: Callable[[np.ndarray], np.ndarray], lo, hi, tol: float = 1e-12,
              max_iter: int = 200) -> tuple[np.ndarray, RootStats]:
    """Locate a zero of ``f`` inside each sign-changing bracket [lo[k], hi[k]].

    ``f`` maps a float array to an array of its values.  Every lane runs the
    same iteration: secant steps alternate with bisection, so the bracket at
    least halves every other iteration regardless of how the secant behaves,
    and the lane ends once its bracket is within 2*``tol`` or, when ``tol``
    is finer than the spacing of doubles near the root, once its ends are
    adjacent doubles.  Each iteration calls ``f`` once, on the lanes still
    searching.

    Returns:
        the roots, in the order of the brackets, and the :class:`RootStats`.

    Raises:
        RangeError: unless ``lo`` and ``hi`` are 1-d of one length with
            lo < hi in every lane.
        NoSignChange: if f has the same sign at both ends of a bracket.
        ToleranceNotMet: if a lane is still searching after ``max_iter``
            iterations.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise RangeError(f"lo and hi must be 1-d arrays of one length, got {a.shape} and {b.shape}")
    if not (a < b).all():
        k = int(np.flatnonzero(~(a < b))[0])
        raise RangeError(f"bracket must satisfy lo < hi, got ({float(a[k])!r}, {float(b[k])!r})")
    n = a.size
    roots = np.empty(n)
    ends = f(np.concatenate((a, b)))
    fa, fb = ends[:n], ends[n:]
    evaluations, iterations = 1, 0
    # an end where f vanishes is the root (the lower end first)
    hit_a = fa == 0.0
    hit_b = (fb == 0.0) & ~hit_a
    roots[hit_a], roots[hit_b] = a[hit_a], b[hit_b]
    live = np.flatnonzero(~(hit_a | hit_b))
    a, b, fa, fb = a[live], b[live], fa[live], fb[live]
    same = (fa > 0.0) == (fb > 0.0)
    if same.any():
        k = int(np.flatnonzero(same)[0])
        ak, bk, fak, fbk = float(a[k]), float(b[k]), float(fa[k]), float(fb[k])
        raise NoSignChange(f"f({ak!r})={fak!r} and f({bk!r})={fbk!r} have the same sign")
    use_secant = True
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        # no double strictly between a and b: the bracket cannot shrink further
        done = (b - a <= 2.0 * tol) | ~((a < m) & (m < b))
        if done.any():
            roots[live[done]] = m[done]
            go = ~done
            live, a, b, fa, fb, m = live[go], a[go], b[go], fa[go], fb[go], m[go]
        if live.size == 0:
            break
        if use_secant:
            with np.errstate(divide="ignore", invalid="ignore"):
                x = b - fb * (b - a) / (fb - fa)
            x = np.where((fb != fa) & (a < x) & (x < b), x, m)
        else:
            x = m
        use_secant = not use_secant
        fx = f(x)
        evaluations += 1
        iterations += live.size
        zero = fx == 0.0
        if zero.any():
            roots[live[zero]] = x[zero]
            go = ~zero
            live, a, b, fa, fb, x, fx = live[go], a[go], b[go], fa[go], fb[go], x[go], fx[go]
        lower = (fx > 0.0) == (fa > 0.0)
        a, fa = np.where(lower, x, a), np.where(lower, fx, fa)
        b, fb = np.where(lower, b, x), np.where(lower, fb, fx)
    if live.size:
        raise ToleranceNotMet(f"root not located to {tol!r} within {max_iter} iterations")
    return roots, RootStats(brackets=n, iterations=iterations, evaluations=evaluations)


def derivative(f, x: float, h: float = 1e-4):
    """Fourth-order central difference df/dx; f may be real or complex valued."""
    return (f(x - 2 * h) - 8.0 * f(x - h) + 8.0 * f(x + h) - f(x + 2 * h)) / (12.0 * h)

