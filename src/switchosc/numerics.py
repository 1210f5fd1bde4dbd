"""Independent numerical machinery used to cross-check every closed form.

Nothing here knows the analytic solution: the integrator sees only the
frequency profile, the quadrature sees only an integrand, the root finder
only a bracket.  That independence is the point — these routines arbitrate
whenever a closed form is in doubt.

Every callable handed to this module, be it an integrand or the function of a
root search or a finite difference, maps a float array to an array of values.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from struct import Struct
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NoSignChange, RangeError, ToleranceNotMet
from .frequency import OscParams

# Dormand-Prince 8(5,3) pair of Hairer, Norsett & Wanner (Solving ODEs I,
# sec. II.10, "DOP853"), with the coefficients of Hairer's dop853.f.  The
# twelve stages sit at t + c_i*h; the last row of _A holds the eighth-order
# weights, which give the propagated solution without a further evaluation.
# _E5 and _E3 are the weights of the fifth- and third-order error estimates
# that Hairer's norm combines.  _pair_step unpacks its coefficients from these
# tuples and leaves out the terms whose weight is zero.
_C = (
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
)
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
# eighth-order weights less the third-order ones (bhh1, bhh2, bhh3 of dop853.f)
_E3 = tuple(b - b3 for b, b3 in zip(_A[-1], (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
)))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _make_pair_step():
    """Build the step of one (position, velocity) pair from the tableau."""
    (
        _,
        (a2_1,),
        (a3_1, a3_2),
        (a4_1, _, a4_3),
        (a5_1, _, a5_3, a5_4),
        (a6_1, _, _, a6_4, a6_5),
        (a7_1, _, _, a7_4, a7_5, a7_6),
        (a8_1, _, _, a8_4, a8_5, a8_6, a8_7),
        (a9_1, _, _, a9_4, a9_5, a9_6, a9_7, a9_8),
        (a10_1, _, _, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
        (a11_1, _, _, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
        (a12_1, _, _, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11),
        (b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12),
    ) = _A
    p1, _, _, _, _, p6, p7, p8, p9, p10, p11, p12 = _E5
    q1, _, _, _, _, q6, q7, q8, q9, q10, q11, q12 = _E3

    def pair_step(x, u, h, g):
        """One step of x' = u, u' = g*x, where ``g`` holds g at the twelve stages.

        Stage i's input is (xi, ui), stage 1's the pair itself, and its
        derivative is (ui, fi) with fi = gi*xi.  Each input is the pair plus
        h*(0.0 + a_i1*k_1 + a_i2*k_2 + ...), summed left to right; a term whose
        weight is zero is left out, which changes no bit, since no such sum is
        ever -0.0.  Returns the new pair and, for x and then u, the fifth- and
        third-order error sums, not yet multiplied by h.
        """
        g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11, g12 = g
        f1 = g1 * x
        x2 = x + h * (0.0 + a2_1 * u)
        u2 = u + h * (0.0 + a2_1 * f1)
        f2 = g2 * x2
        x3 = x + h * (0.0 + a3_1 * u + a3_2 * u2)
        u3 = u + h * (0.0 + a3_1 * f1 + a3_2 * f2)
        f3 = g3 * x3
        x4 = x + h * (0.0 + a4_1 * u + a4_3 * u3)
        u4 = u + h * (0.0 + a4_1 * f1 + a4_3 * f3)
        f4 = g4 * x4
        x5 = x + h * (0.0 + a5_1 * u + a5_3 * u3 + a5_4 * u4)
        u5 = u + h * (0.0 + a5_1 * f1 + a5_3 * f3 + a5_4 * f4)
        f5 = g5 * x5
        x6 = x + h * (0.0 + a6_1 * u + a6_4 * u4 + a6_5 * u5)
        u6 = u + h * (0.0 + a6_1 * f1 + a6_4 * f4 + a6_5 * f5)
        f6 = g6 * x6
        x7 = x + h * (0.0 + a7_1 * u + a7_4 * u4 + a7_5 * u5 + a7_6 * u6)
        u7 = u + h * (0.0 + a7_1 * f1 + a7_4 * f4 + a7_5 * f5 + a7_6 * f6)
        f7 = g7 * x7
        x8 = x + h * (0.0 + a8_1 * u + a8_4 * u4 + a8_5 * u5 + a8_6 * u6 + a8_7 * u7)
        u8 = u + h * (0.0 + a8_1 * f1 + a8_4 * f4 + a8_5 * f5 + a8_6 * f6 + a8_7 * f7)
        f8 = g8 * x8
        x9 = x + h * (0.0 + a9_1 * u + a9_4 * u4 + a9_5 * u5 + a9_6 * u6 + a9_7 * u7 + a9_8 * u8)
        u9 = u + h * (0.0 + a9_1 * f1 + a9_4 * f4 + a9_5 * f5 + a9_6 * f6 + a9_7 * f7 + a9_8 * f8)
        f9 = g9 * x9
        x10 = x + h * (0.0 + a10_1 * u + a10_4 * u4 + a10_5 * u5 + a10_6 * u6 + a10_7 * u7 + a10_8 * u8 + a10_9 * u9)
        u10 = u + h * (0.0 + a10_1 * f1 + a10_4 * f4 + a10_5 * f5 + a10_6 * f6 + a10_7 * f7 + a10_8 * f8 + a10_9 * f9)
        f10 = g10 * x10
        x11 = x + h * (0.0 + a11_1 * u + a11_4 * u4 + a11_5 * u5 + a11_6 * u6 + a11_7 * u7 + a11_8 * u8 + a11_9 * u9 + a11_10 * u10)
        u11 = u + h * (0.0 + a11_1 * f1 + a11_4 * f4 + a11_5 * f5 + a11_6 * f6 + a11_7 * f7 + a11_8 * f8 + a11_9 * f9 + a11_10 * f10)
        f11 = g11 * x11
        x12 = x + h * (0.0 + a12_1 * u + a12_4 * u4 + a12_5 * u5 + a12_6 * u6 + a12_7 * u7 + a12_8 * u8 + a12_9 * u9 + a12_10 * u10 + a12_11 * u11)
        u12 = u + h * (0.0 + a12_1 * f1 + a12_4 * f4 + a12_5 * f5 + a12_6 * f6 + a12_7 * f7 + a12_8 * f8 + a12_9 * f9 + a12_10 * f10 + a12_11 * f11)
        f12 = g12 * x12
        return (
            x + h * (0.0 + b1 * u + b6 * u6 + b7 * u7 + b8 * u8 + b9 * u9 + b10 * u10 + b11 * u11 + b12 * u12),
            u + h * (0.0 + b1 * f1 + b6 * f6 + b7 * f7 + b8 * f8 + b9 * f9 + b10 * f10 + b11 * f11 + b12 * f12),
            0.0 + p1 * u + p6 * u6 + p7 * u7 + p8 * u8 + p9 * u9 + p10 * u10 + p11 * u11 + p12 * u12,
            0.0 + q1 * u + q6 * u6 + q7 * u7 + q8 * u8 + q9 * u9 + q10 * u10 + q11 * u11 + q12 * u12,
            0.0 + p1 * f1 + p6 * f6 + p7 * f7 + p8 * f8 + p9 * f9 + p10 * f10 + p11 * f11 + p12 * f12,
            0.0 + q1 * f1 + q6 * f6 + q7 * f7 + q8 * f8 + q9 * f9 + q10 * f10 + q11 * f11 + q12 * f12,
        )

    return pair_step


_pair_step = _make_pair_step()


@dataclass(frozen=True)
class IntegratorStats:
    """What one :func:`integrate_ode` call did.

    ``rhs_calls`` is twelve stage evaluations per attempted step, one per
    stage of the pair, also where a step outside the switch window reads
    Omega once; ``junction_stops`` counts the accepted steps that ended on a
    region junction.  ``min_step`` and ``max_step`` range over the accepted
    steps.
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


_RECORD = Struct("5d")  # one trajectory record: t, then the (x, y, u, v) state


def integrate_ode(
    p: OscParams,
    t0: float,
    t1: float,
    init: tuple[complex, complex],
    tol: float,
    *,
    t_eval: Sequence[float] | None = None,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate eps'' + Omega(t)^2 * eps = 0 as a 4-dimensional real system.

    Adaptive Dormand-Prince 8(5,3) (DOP853) with local error per step kept
    at ``tol`` (mixed absolute/relative scale).  Step boundaries are placed
    exactly on the region junctions inside [t0, t1] — Omega^2 is continuous
    but not smooth there — and exactly on every requested ``t_eval`` point,
    so no interpolation is ever involved.  A step cut short to land on a
    stop does not shrink the next one: that step is the larger of the
    controller's new proposal and the one made before the cut.  The inputs
    are validated once, here; each step then runs on the real and on the
    imaginary (eps, eps_dot) pair as floats, reading Omega(t) from
    ``p.omega_at``: once for a step that lies wholly before or wholly after
    the switch window, where Omega is flat, and at each stage's instant
    otherwise.

    Args:
        init: (eps, eps_dot) at ``t0``.
        t_eval: when given, the trajectory records exactly these times
            (plus ``t0`` if present); otherwise every accepted step.
        max_steps: the most steps, accepted or rejected, the march may
            attempt; the step after them raises before it is taken.

    Raises:
        DomainError: if ``tol`` or ``max_steps`` is invalid, or a time or
            initial value is not finite.
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
    junctions = {tj for tj in (0.0, p.switch_end) if t0 < tj < t1}
    stops.update(junctions)
    stop_list = sorted(stops)

    # each record is (t, x, y, u, v) as five packed doubles: without t_eval
    # every accepted step is one, up to the step budget, so 40 bytes a step
    record_all = t_eval is None
    records = bytearray()
    pack = _RECORD.pack
    if record_all or t0 in eval_set:
        records += pack(t0, x, y, u, v)

    stage_c = _C[1:]
    t = t0
    h = min((t1 - t0) / 64.0, stop_list[0] - t0)
    tiny = 16.0 * sys.float_info.epsilon
    budget = 0.1 * tol
    si = 0
    steps = accepted = rhs_calls = junction_stops = 0
    min_step, max_step = math.inf, 0.0
    while t < t1:
        if steps == max_steps:
            raise ToleranceNotMet(f"step budget exhausted after {max_steps} steps")
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
            g = (-(w * w),) * 12
        else:
            ws = [omega(t)] + [omega(t + c * h_try) for c in stage_c]
            g = [-(w * w) for w in ws]
        # the real and the imaginary part share the stages' g
        x_new, u_new, ex5, ex3, eu5, eu3 = _pair_step(x, u, h_try, g)
        y_new, v_new, ey5, ey3, ev5, ev3 = _pair_step(y, v, h_try, g)
        rhs_calls += 12
        # budget each step a decade below the requested tolerance so the
        # accumulated drift of conserved quantities stays within a few tol.
        # Each component's error sums are measured against budget * (1 +
        # the larger magnitude of that component before and after the
        # step), then combined by Hairer's norm
        #   h * S5 / sqrt(4 * (S5 + 0.01 * S3)),
        # S5 and S3 being the sums of squares of the fifth- and
        # third-order estimates over the four components.
        s0, s1 = abs(x), abs(x_new)
        sc = budget * (1.0 + (s1 if s1 > s0 else s0))
        ex5 /= sc
        ex3 /= sc
        s0, s1 = abs(y), abs(y_new)
        sc = budget * (1.0 + (s1 if s1 > s0 else s0))
        ey5 /= sc
        ey3 /= sc
        s0, s1 = abs(u), abs(u_new)
        sc = budget * (1.0 + (s1 if s1 > s0 else s0))
        eu5 /= sc
        eu3 /= sc
        s0, s1 = abs(v), abs(v_new)
        sc = budget * (1.0 + (s1 if s1 > s0 else s0))
        ev5 /= sc
        ev3 /= sc
        sum5 = ex5 * ex5 + ey5 * ey5 + eu5 * eu5 + ev5 * ev5
        sum3 = ex3 * ex3 + ey3 * ey3 + eu3 * eu3 + ev3 * ev3
        # a zero fifth-order sum is a zero norm, also where 0.01 * S3 underflows
        if sum5 == 0.0:
            err_norm = 0.0
        else:
            err_norm = h_try * sum5 / math.sqrt(4.0 * (sum5 + 0.01 * sum3))
        if err_norm <= 1.0:
            t = stop if hit else t + h_try
            x, y, u, v = x_new, y_new, u_new, v_new
            accepted += 1
            if h_try < min_step:
                min_step = h_try
            if h_try > max_step:
                max_step = h_try
            if hit and stop in junctions:
                junction_stops += 1
            if record_all or t in eval_set:
                records += pack(t, x, y, u, v)
            grow = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm**-0.125
            h_next = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, grow))
            # a step cut short to land on a stop keeps the proposal made before the cut
            h = max(h_next, h) if hit else h_next
        else:
            h = h_try * max(_MIN_FACTOR, _SAFETY * err_norm**-0.125)
            if h < tiny * max(1.0, abs(t)):
                raise ToleranceNotMet(f"step size underflow at t={t!r} (tol={tol!r})")
        steps += 1

    raw = np.frombuffer(records, dtype=float).reshape(-1, 5)
    out = np.empty((raw.shape[0], 2), dtype=complex)
    out[:, 0] = raw[:, 1] + 1j * raw[:, 2]
    out[:, 1] = raw[:, 3] + 1j * raw[:, 4]
    stats = IntegratorStats(accepted=accepted, rejected=steps - accepted, rhs_calls=rhs_calls,
                            junction_stops=junction_stops, min_step=min_step, max_step=max_step)
    return Trajectory(times=raw[:, 0].copy(), states=out, tol=tol, stats=stats)


def quadrature(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
               tol: float = 1e-10) -> float:
    """Romberg integral of ``f`` over [a, b] to absolute accuracy ``tol``.

    Level k is the trapezoid sum over 2^k panels: level 0 calls ``f`` on both
    ends, each later level once, on its new midpoints only.  The sums are
    extrapolated in h^2 until the best estimates of two levels agree to ``tol``.

    Raises:
        RangeError: if a > b.
        DomainError: unless ``f`` returns one finite value per point.
        ToleranceNotMet: if no two levels up to level 20 agree.
    """
    if a > b:
        raise RangeError(f"need a <= b, got a={a!r}, b={b!r}")
    if a == b:
        return 0.0

    def total(x: np.ndarray) -> float:
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != x.shape or not np.isfinite(fx).all():
            raise DomainError(f"integrand must return one finite value per point on [{a!r}, {b!r}]")
        return fx.sum()

    h = b - a
    row = [0.5 * h * total(np.array([a, b], dtype=float))]
    for k in range(20):
        h *= 0.5
        new = [0.5 * row[0] + h * total(a + h * np.arange(1, 2**(k + 1), 2))]
        for j, prev in enumerate(row, 1):
            new.append(new[-1] + (new[-1] - prev) / (4.0**j - 1.0))
        if abs(new[-1] - row[-1]) <= tol:
            return float(new[-1])
        row = new
    raise ToleranceNotMet(f"quadrature tolerance {tol!r} not met on [{a!r}, {b!r}]")


def find_root(f: Callable[[np.ndarray], np.ndarray], lo, hi, tol: float = 1e-12,
              max_iter: int = 200) -> np.ndarray:
    """Locate a zero of ``f`` inside each sign-changing bracket [lo[k], hi[k]].

    ``f`` maps a float array to an array of its values.  Every lane runs the
    same iteration: secant steps alternate with bisection, so the bracket at
    least halves every other iteration regardless of how the secant behaves.
    Each secant point is moved at least ``tol`` inside the bracket (the tol
    step of Dekker and Brent), so a secant step that has reached the root is
    followed by one that lands ``tol`` beyond it and closes the bracket.  The
    lane ends once its bracket is within 2*``tol`` or, when ``tol`` is finer
    than the spacing of doubles near the root, once its ends are adjacent
    doubles.  Each iteration calls ``f`` once, on the lanes still searching.
    Returns the roots, in the order of the brackets.

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
                x = np.clip(b - fb * (b - a) / (fb - fa), a + tol, b - tol)
            x = np.where((fb != fa) & (a < x) & (x < b), x, m)
        else:
            x = m
        use_secant = not use_secant
        fx = f(x)
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
    return roots


def derivative(f: Callable[[np.ndarray], np.ndarray], x: float, h: float = 1e-4):
    """Fourth-order central difference df/dx from one call of ``f``, real or complex valued."""
    # differenced as Python scalars: numpy's complex division rounds differently
    f2l, f1l, f1r, f2r = f(x + h * np.array([-2.0, -1.0, 1.0, 2.0])).tolist()
    return (f2l - 8.0 * f1l + 8.0 * f1r - f2r) / (12.0 * h)
