"""Numerical layer: integrator accuracy and order, quadrature, root finding.

The static oscillator (alpha = 0) provides the analytic yardstick e^{it} for
every integrator check.
"""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from switchosc import (
    DomainError,
    NoSignChange,
    OscParams,
    RangeError,
    ToleranceNotMet,
    amplitude,
    derivative,
    epsilon,
    find_root,
    flat_flow,
    integrate_ode,
    omega_of,
    quadrature,
)
from switchosc import cli
from switchosc.classical import envelope_of, wronskian_of
from switchosc.numerics import (
    _A,
    _C,
    _E3,
    _E5,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _SAFETY,
    IntegratorStats,
)

from reference_numerics import scalar_find_root, second_derivative

FIG = OscParams()
FLAT = OscParams(alpha=0.0)
EPS = sys.float_info.epsilon


def _circle_error(times, eps) -> float:
    return max(abs(e - cmath.exp(1j * t)) for t, e in zip(times, eps))


def _adaptive_circle_error(tol: float) -> float:
    traj = integrate_ode(FLAT, 0.0, 2.0 * math.pi, (1.0 + 0j, 1j), tol)
    return _circle_error(traj.times, traj.eps)


class TestIntegrator:
    def test_static_loop_closes(self):
        traj = integrate_ode(FLAT, 0.0, 2.0 * math.pi, (1.0 + 0j, 1j), tol=1e-11)
        assert abs(traj.eps[-1] - 1.0) < 1e-9
        assert abs(traj.eps_dot[-1] - 1j) < 1e-9

    def test_wronskian_drift_stays_within_ten_tolerances(self):
        tol = 1e-9
        start = 1.0 + 0j, 1j
        traj = integrate_ode(FIG, -5.0, 10.0, start, tol)
        drift = max(
            abs(e * ed.conjugate() - ed * e.conjugate() - (start[0] * start[1].conjugate() - start[1] * start[0].conjugate()))
            for e, ed in traj.states
        )
        assert drift < 10.0 * tol

    def test_halving_the_tolerance_does_not_hurt(self):
        tols = [1e-5, 5e-6, 2.5e-6, 1.25e-6, 6.25e-7, 3.125e-7]
        errors = [_adaptive_circle_error(tol) for tol in tols]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= 4.0 * coarse
        assert errors[-1] < errors[0]

    def test_free_running_trajectory_is_strictly_increasing(self):
        traj = integrate_ode(FIG, -2.0, 2.0, (1.0 + 0j, 1j), 1e-9)
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[0] == -2.0 and traj.times[-1] == 2.0

    def test_input_validation(self):
        with pytest.raises(DomainError):
            integrate_ode(FLAT, 0.0, 1.0, (1.0 + 0j, 1j), 1e-14)
        with pytest.raises(DomainError):
            integrate_ode(FLAT, 0.0, 1.0, (1.0 + 0j, 1j), 1e-2)
        with pytest.raises(DomainError):
            integrate_ode(FLAT, 1.0, 1.0, (1.0 + 0j, 1j), 1e-9)

    @pytest.mark.parametrize(
        "t0, t1, init",
        [
            (-math.inf, 1.0, (1.0 + 0j, 1j)),
            (0.0, math.inf, (1.0 + 0j, 1j)),
            (0.0, math.nan, (1.0 + 0j, 1j)),
            (0.0, 1.0, (complex(math.nan, 0.0), 1j)),
            (0.0, 1.0, (1.0 + 0j, complex(0.0, math.inf))),
        ],
        ids=["t0", "t1", "t1-nan", "eps", "eps_dot"],
    )
    def test_non_finite_inputs_rejected_up_front(self, t0, t1, init):
        with pytest.raises(DomainError, match="finite"):
            integrate_ode(FLAT, t0, t1, init, 1e-9)

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_bad_step_budget_rejected_up_front(self, max_steps):
        with pytest.raises(DomainError, match="max_steps"):
            integrate_ode(FLAT, 0.0, 1.0, (1.0 + 0j, 1j), 1e-9, max_steps=max_steps)

    def test_step_budget_counts_attempted_steps(self):
        stats = integrate_ode(FIG, -5.0, 10.0, (1.0 + 0j, 1j), 1e-11).stats
        steps = stats.accepted + stats.rejected
        assert integrate_ode(FIG, -5.0, 10.0, (1.0 + 0j, 1j), 1e-11, max_steps=steps).stats == stats
        with pytest.raises(ToleranceNotMet, match=f"after {steps - 1} steps"):
            integrate_ode(FIG, -5.0, 10.0, (1.0 + 0j, 1j), 1e-11, max_steps=steps - 1)

    def test_exhausted_budget_holds_little_memory(self):
        # every accepted step is recorded, as 40 bytes; tuples of floats took about 240.
        # VmHWM, unlike ru_maxrss, starts afresh in the exec'd interpreter
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        code = (
            "from switchosc import OscParams, ToleranceNotMet, integrate_ode\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return int(next(ln for ln in f if ln.startswith('VmHWM:')).split()[1])\n"
            "before = peak()\n"
            "try:\n"
            "    integrate_ode(OscParams(alpha=0.0), 0.0, 1e6, (1+0j, 1j), 1e-13, max_steps=100_000)\n"
            "except ToleranceNotMet:\n"
            "    print(peak() - before)\n"
        )
        src = str(Path(integrate_ode.__code__.co_filename).parents[1])
        proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert int(proc.stdout) <= 8 * 1024  # KiB

    @pytest.mark.parametrize("aw", [0.0, 0.5, 0.97])
    @pytest.mark.parametrize("placement", ["before", "across", "after"])
    def test_sixty_long_windows_match_the_closed_form(self, aw, placement):
        p = OscParams(alpha=aw)
        t0 = {"before": -61.0, "across": -15.0, "after": p.switch_end + 1.0}[placement]
        start = epsilon(t0, p)
        traj = integrate_ode(p, t0, t0 + 60.0, (start.eps, start.eps_dot), 1e-11)
        eps, eps_dot = amplitude(traj.times, p)
        assert np.max(np.abs(eps - traj.eps)) < 1e-9
        assert np.max(np.abs(eps_dot - traj.eps_dot)) < 1e-9


class TestIntegratorStats:
    def test_counts_repeat_exactly(self):
        runs = [integrate_ode(FIG, -5.0, 10.0, (1.0 + 0j, 1j), 1e-11).stats for _ in range(2)]
        assert runs[0] == runs[1]

    def test_counts_describe_the_steps_taken(self):
        traj = integrate_ode(FIG, -5.0, 10.0, (1.0 + 0j, 1j), 1e-11)
        stats = traj.stats
        assert stats.rejected > 0
        assert stats.rhs_calls == 12 * (stats.accepted + stats.rejected)
        assert stats.accepted == len(traj.times) - 1
        steps = np.diff(traj.times)
        assert (stats.min_step, stats.max_step) == (steps.min(), steps.max())

    def test_junction_stops_are_counted(self):
        start = (1.2 + 0.1j, 0.2 + 0.9j)
        across = integrate_ode(FIG, -1.0, 2.0, start, 1e-9)
        assert across.stats.junction_stops == 2
        assert {0.0, FIG.switch_end} <= set(across.times.tolist())
        assert integrate_ode(FIG, 2.0, 4.0, start, 1e-9).stats.junction_stops == 0

    def test_stops_do_not_shrink_the_next_step(self):
        # a step cut to 0.2% of its size to land on the junction at 0: the step
        # after it keeps the proposal made before the cut, where the controller
        # alone would grow it back from the cut step by at most 5x a step
        p = OscParams(alpha=0.0, omega=0.9998)
        t0, t1 = -15.8385, 44.1615
        (eps,), (eps_dot,) = (v.tolist() for v in amplitude([t0], p))
        traj = integrate_ode(p, t0, t1, (eps, eps_dot), 1e-11)
        steps = np.diff(traj.times)
        for tj in (0.0, p.switch_end):
            k = int(np.flatnonzero(traj.times == tj)[0])
            assert steps[k] >= 0.5 * steps[k - 2]
        k = int(np.flatnonzero(traj.times == 0.0)[0])
        assert steps[k - 1] < 0.01 * steps[k - 2]
        assert traj.stats.accepted + traj.stats.rejected <= 302
        closed, _ = amplitude(traj.times, p)
        assert np.max(np.abs(closed - traj.eps)) < 1e-10

    @pytest.mark.parametrize("t0, t1, stops", [(-3.0, -1.0, 0), (-1.0, 0.5, 1), (0.2, 1.4, 0),
                                               (1.0, 3.0, 1), (0.0, 3.0, 1)],
                             ids=["before", "crosses-0", "inside", "crosses-end", "starts-on-0"])
    def test_each_junction_inside_the_window_is_one_stop(self, t0, t1, stops):
        # a junction on the window's edge is an end of the march, not a stop
        traj = integrate_ode(FIG, t0, t1, (1.2 + 0.1j, 0.2 + 0.9j), 1e-9)
        inside = {tj for tj in (0.0, FIG.switch_end) if t0 < tj < t1}
        assert traj.stats.junction_stops == len(inside) == stops
        assert inside <= set(traj.times.tolist())


class TestTableau:
    """The DOP853 coefficients satisfy the conditions that define the pair.

    Each condition holds to the rounding of the coefficients to doubles: the
    residual stays below one epsilon per unit of the summed magnitudes (k of
    them for the k-th power of c).
    """

    def test_shapes(self):
        assert len(_C) == len(_E5) == len(_E3) == 12
        assert [len(row) for row in _A] == list(range(13))

    @pytest.mark.parametrize("i", range(1, 12))
    def test_row_sums_are_the_stage_instants(self, i):
        residual = math.fsum(_A[i]) - _C[i]
        assert abs(residual) <= EPS * (math.fsum(map(abs, _A[i])) + _C[i])

    @pytest.mark.parametrize("k", range(1, 9))
    def test_weights_integrate_polynomials_of_degree_seven(self, k):
        # sum_i b_i c_i^(k-1) = 1/k for k = 1..8
        terms = [b * c ** (k - 1) for b, c in zip(_A[-1], _C)]
        assert abs(math.fsum(terms) - 1.0 / k) <= k * EPS * math.fsum(map(abs, terms))

    @pytest.mark.parametrize("weights", [_E5, _E3], ids=["E5", "E3"])
    def test_error_weights_sum_to_zero(self, weights):
        assert abs(math.fsum(weights)) <= EPS * math.fsum(map(abs, weights))

    def test_propagated_solution_is_eighth_order(self):
        # fixed steps of the loop reference on the static circle: halving h gains about 2^8
        def error(h):
            times, states, _ = _loop_reference(FLAT, 0.0, 2.0 * math.pi, (1.0 + 0j, 1j), 1e-6,
                                               fixed_step=h)
            return _circle_error(times, states[:, 0])

        assert 128.0 < error(0.8) / error(0.4) < 512.0


def _weighted(coeffs, ks):
    # each component of 0.0 + a_1*k_1 + a_2*k_2 + ..., summed left to right
    s0 = s1 = s2 = s3 = 0.0
    for a, (k0, k1, k2, k3) in zip(coeffs, ks):
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
    return s0, s1, s2, s3


def _combine(y, h, coeffs, ks):
    s = _weighted(coeffs, ks)
    return y[0] + h * s[0], y[1] + h * s[1], y[2] + h * s[2], y[3] + h * s[3]


def _error_norm(h: float, e5: tuple, e3: tuple, y: tuple, y_new: tuple, budget: float) -> float:
    # Hairer's norm h * S5 / sqrt(4 * (S5 + 0.01 * S3)), where S5 and S3 sum
    # the squares of the fifth- and third-order estimates, each component
    # measured against budget * (1 + its larger magnitude before and after)
    scales = [budget * (1.0 + max(abs(a), abs(b))) for a, b in zip(y, y_new)]
    q5 = [e / sc for e, sc in zip(e5, scales)]
    q3 = [e / sc for e, sc in zip(e3, scales)]
    sum5 = q5[0] * q5[0] + q5[1] * q5[1] + q5[2] * q5[2] + q5[3] * q5[3]
    sum3 = q3[0] * q3[0] + q3[1] * q3[1] + q3[2] * q3[2] + q3[3] * q3[3]
    if sum5 == 0.0:
        return 0.0
    return h * sum5 / math.sqrt(4.0 * (sum5 + 0.01 * sum3))


def _loop_reference(p, t0, t1, init, tol, *, fixed_step=None):
    """The DOP853 step as a loop over the tableau, reading Omega through omega_of.

    Every stage sum runs over the whole row, zero weights included.  Same
    stops, controller and stage order as integrate_ode; returns (times,
    states, stats).  ``fixed_step`` marches with that step and no controller,
    for the order check of the tableau.
    """

    def rhs(t, y):
        w = omega_of(t, p)
        w2 = w * w
        return y[2], y[3], -w2 * y[0], -w2 * y[1]

    y = (init[0].real, init[0].imag, init[1].real, init[1].imag)
    junctions = {tj for tj in (0.0, p.switch_end) if t0 < tj < t1}
    stop_list = sorted(junctions | {t1})
    times, states = [t0], [y]
    t = t0
    h = fixed_step if fixed_step is not None else min((t1 - t0) / 64.0, stop_list[0] - t0)
    si = steps = accepted = rhs_calls = junction_stops = 0
    while t < t1:
        while stop_list[si] <= t:
            si += 1
        stop = stop_list[si]
        h_try, hit = (h, False) if h < stop - t else (stop - t, True)
        ks = [rhs(t, y)]
        for c, a in zip(_C[1:], _A[1:-1]):
            ks.append(rhs(t + c * h_try, _combine(y, h_try, a, ks)))
        y_new = _combine(y, h_try, _A[-1], ks)
        e5, e3 = _weighted(_E5, ks), _weighted(_E3, ks)
        rhs_calls += 12
        err_norm = 0.0 if fixed_step is not None else _error_norm(h_try, e5, e3, y, y_new, 0.1 * tol)
        if err_norm <= 1.0:
            t = stop if hit else t + h_try
            y = y_new
            accepted += 1
            junction_stops += hit and stop in junctions
            times.append(t)
            states.append(y)
            if fixed_step is None:
                grow = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm**-0.125
                h_next = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, grow))
                h = max(h_next, h) if hit else h_next
        else:
            h = h_try * max(_MIN_FACTOR, _SAFETY * err_norm**-0.125)
            assert h >= 16.0 * sys.float_info.epsilon * max(1.0, abs(t))
        steps += 1
    out = np.array(states, dtype=float).reshape(len(states), 4).view(complex)
    dt = np.diff(times)
    stats = IntegratorStats(accepted=accepted, rejected=steps - accepted, rhs_calls=rhs_calls,
                            junction_stops=junction_stops, min_step=dt.min().item(),
                            max_step=dt.max().item())
    return np.array(times), out, stats


def _assert_matches_loop_reference(p, t0, t1, init, tol):
    """integrate_ode against the loop reference: times, states and stats bit for bit."""
    traj = integrate_ode(p, t0, t1, init, tol)
    times, states, stats = _loop_reference(p, t0, t1, init, tol)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    assert traj.stats == stats
    return traj.stats


class TestKernelMatchesLoopReference:
    """The unrolled steps reproduce the loop over the tableau, bit for bit.

    Every step, before, inside or after the switch window, runs the twelve
    stages, so every stop, every decision of the controller and every
    recorded state match exactly.
    """

    START = (0.3 - 1.1j, 0.8 + 0.4j)

    @pytest.mark.parametrize("aw", [0.0, 0.5, 0.97, 0.999])
    @pytest.mark.parametrize("t0, t1", [(-9.0, -1.0), (-3.0, 4.0), (0.2, 1.4), (2.0, 12.0),
                                        (995.0, 1003.0)],
                             ids=["before", "across", "inside", "after", "near-1000"])
    @pytest.mark.parametrize("tol", [1e-13, 1e-3])
    def test_adaptive_windows(self, aw, t0, t1, tol):
        _assert_matches_loop_reference(OscParams(alpha=aw), t0, t1, self.START, tol)

    def test_rejected_steps(self):
        # a first step of 1/64 of the window is far too long at tol 1e-12
        stats = _assert_matches_loop_reference(OscParams(alpha=0.999), -3.0, 4.0, self.START, 1e-12)
        assert stats.rejected > 0

    # The cases below pin the stops: steps that end on a junction, start on
    # one, or cross one into or out of the window.

    @pytest.mark.parametrize("tol", [1e-11, 1e-3])
    def test_last_step_lands_on_zero(self, tol):
        # the final step ends exactly on t = 0.0, which is inside the window
        _assert_matches_loop_reference(OscParams(alpha=0.97), -2.0, 0.0, self.START, tol)

    def test_across_both_junctions(self):
        # one window holds both stops, on a frequency other than 1
        p = OscParams(alpha=0.6, omega=1.25)
        stats = _assert_matches_loop_reference(p, -2.0, 7.5, self.START, 1e-9)
        assert stats.junction_stops == 2

    def test_start_on_the_window_end(self):
        p = OscParams(alpha=0.97)
        _assert_matches_loop_reference(p, p.switch_end, p.switch_end + 5.0, self.START, 1e-11)

    @pytest.mark.parametrize("aw", [0.5, 0.97])
    @pytest.mark.parametrize("tol", [1e-11, 1e-3])
    @pytest.mark.parametrize("t0, t1", [(-1.0, 0.5), (1.0, 3.0)], ids=["crosses-0", "crosses-end"])
    def test_across_one_junction(self, aw, tol, t0, t1):
        # one stop splits the march into a flat part and a part inside the window
        stats = _assert_matches_loop_reference(OscParams(alpha=aw), t0, t1, self.START, tol)
        assert stats.junction_stops == 1


@settings(max_examples=40, deadline=None)
@given(aw=st.floats(0.0, 0.999), omega=st.floats(0.5, 2.0), t0=st.floats(-30.0, 1010.0),
       span=st.floats(0.01, 8.0), log_tol=st.floats(-13.0, -3.0),
       start=st.tuples(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
                       st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)))
# a zero fifth-order error sum whose third-order one vanishes only when scaled by 0.01
@example(aw=0.0, omega=1.0, t0=0.0, span=1.0, log_tol=-3.0,
         start=(0j, 4.837631487464236e-163 + 0j))
def test_kernel_matches_the_loop_reference(aw, omega, t0, span, log_tol, start):
    _assert_matches_loop_reference(OscParams(alpha=aw / omega, omega=omega), t0, t0 + span,
                                   start, 10.0**log_tol)


class TestFlatFlow:
    @pytest.mark.parametrize("tol", [1e-11, 1e-9])
    @pytest.mark.parametrize("omega", [0.3, 1.0, 3.0])
    def test_agrees_with_the_integrator_over_many_periods(self, omega, tol):
        # at alpha = 0 Omega is omega everywhere: 40 periods, across both
        # junctions, each component within a few tol of its size
        p = OscParams(alpha=0.0, omega=omega)
        init = (1.0 + 0.5j, -0.2 + 1.0j)
        t0, t1 = -20.0 * math.pi / omega, 20.0 * math.pi / omega
        traj = integrate_ode(p, t0, t1, init, tol)
        eps, eps_dot = flat_flow(omega, t0, init, traj.times)
        for flow, stepped in ((eps, traj.eps), (eps_dot, traj.eps_dot)):
            assert np.max(np.abs(flow - stepped)) <= 10.0 * tol * (1.0 + np.max(np.abs(stepped)))

    def test_carries_back_and_forth_and_keeps_the_wronskian(self):
        w, state = 0.7, (0.3 - 1.1j, 0.9 + 0.4j)
        ts = np.array([-50.0, -1.0, 0.0, 2.5, 1e3])
        eps, eps_dot = flat_flow(w, 2.5, state, ts)
        assert (eps[3], eps_dot[3]) == state
        back, back_dot = flat_flow(w, 1e3, (eps[-1], eps_dot[-1]), [2.5])
        assert abs(back[0] - state[0]) < 1e-12 and abs(back_dot[0] - state[1]) < 1e-12
        wr = wronskian_of(eps, eps_dot)
        assert np.max(np.abs(wr - wronskian_of(*map(np.array, state)))) < 1e-13

    @pytest.mark.parametrize("w, t_ref, state, ts", [
        (0.0, 0.0, (1.0, 1j), [1.0]),
        (-1.0, 0.0, (1.0, 1j), [1.0]),
        (math.inf, 0.0, (1.0, 1j), [1.0]),
        (math.nan, 0.0, (1.0, 1j), [1.0]),
        (1.0, math.nan, (1.0, 1j), [1.0]),
        (1.0, 0.0, (complex(math.inf, 0.0), 1j), [1.0]),
        (1.0, 0.0, (1.0, complex(0.0, math.nan)), [1.0]),
        (1.0, 0.0, (1.0, 1j), [1.0, math.inf]),
    ])
    def test_bad_inputs_raise(self, w, t_ref, state, ts):
        with pytest.raises(DomainError):
            flat_flow(w, t_ref, state, ts)


class TestQuadrature:
    def test_unit_integrand(self):
        assert quadrature(np.ones_like, 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-14)

    def test_constant_over_quarter_interval(self):
        assert quadrature(np.ones_like, 0.0, math.pi / 4.0, 1e-12) == pytest.approx(
            math.pi / 4.0, abs=1e-14
        )

    def test_cosine(self):
        assert quadrature(np.cos, 0.0, math.pi / 2.0, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_cubic_is_exact(self):
        value = quadrature(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0, 1e-12)
        assert value == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-13)

    def test_switch_window_integrand(self):
        f = lambda u: 1.0 / (1.0 + 0.5 * np.cos(u) ** 2)
        expected = math.pi / (2.0 * math.sqrt(1.5))
        assert quadrature(f, 0.0, math.pi / 2.0, 1e-13) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("aw", [1e-12, 0.5, 0.97, 1.0 - 1e-9])
    def test_switch_window_integrand_in_few_calls(self, aw):
        # the integrand is periodic over the window, so the trapezoid sums
        # converge geometrically and a few array calls reach the closed form
        p = OscParams(alpha=aw)
        calls = []

        def f(s):
            calls.append(s.size)
            return 1.0 / (1.0 / p.omega + p.alpha * np.cos(p.omega * s) ** 2)

        assert quadrature(f, 0.0, p.switch_end, 1e-13) == pytest.approx(p.junction_phase, abs=4.4e-16)
        assert len(calls) <= 10

    def test_integrand_is_called_on_arrays(self):
        seen = []

        def f(x):
            seen.append(x)
            return np.exp(x)

        quadrature(f, 0.0, 1.0, 1e-12)
        assert all(isinstance(x, np.ndarray) and x.dtype == float for x in seen)

    def test_empty_interval(self):
        assert quadrature(np.sin, 1.0, 1.0, 1e-12) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(RangeError):
            quadrature(np.sin, 1.0, 0.0, 1e-12)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            quadrature(lambda x: np.divide(1.0, x, out=np.full_like(x, np.inf), where=x != 0.0),
                       0.0, 1.0, 1e-10)

    def test_scalar_valued_integrand_rejected(self):
        with pytest.raises(DomainError, match="one finite value per point"):
            quadrature(lambda x: 1.0, 0.0, 1.0, 1e-12)

    def test_unresolvable_integrand_raises(self):
        with pytest.raises(ToleranceNotMet):
            quadrature(lambda x: np.sin(1.0 / (x + 1e-300)), 0.0, 1.0, 1e-13)


def _one(roots):
    assert roots.shape == (1,)
    return roots[0]


class TestFindRoot:
    def test_linear(self):
        assert _one(find_root(lambda t: t - 1.0, [0.0], [2.0], 1e-12)) == pytest.approx(1.0, abs=1e-12)

    def test_cosine(self):
        assert _one(find_root(np.cos, [1.0], [2.0], 1e-13)) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_endpoint_zero_returned_immediately(self):
        calls = []

        def f(t):
            calls.append(t.size)
            return t

        assert find_root(f, [0.0], [1.0], 1e-12).tolist() == [0.0]
        # one call, on both ends of the bracket
        assert calls == [2]

    def test_same_sign_rejected(self):
        with pytest.raises(NoSignChange):
            find_root(lambda t: t * t + 1.0, [-1.0], [1.0], 1e-12)

    def test_root_past_1024_found_to_one_ulp(self):
        # the doubles near 1030.3 lie 2.3e-13 apart, wider than 2*tol, and
        # f vanishes at no double, so the bracket closes on adjacent doubles
        root = _one(find_root(lambda t: (t - 1030.0) - 0.3, [1030.0], [1031.0], tol=1e-13))
        assert abs(root - 1030.3) <= math.ulp(1030.3)

    def test_bad_bracket_rejected(self):
        with pytest.raises(RangeError):
            find_root(np.cos, [2.0], [1.0], 1e-12)

    def test_any_bad_lane_is_rejected(self):
        with pytest.raises(NoSignChange):
            find_root(np.cos, [1.0, 3.0], [2.0, 4.0], 1e-12)
        with pytest.raises(RangeError):
            find_root(np.cos, [1.0, 1.0], [2.0, 1.0], 1e-12)
        with pytest.raises(RangeError):
            find_root(np.cos, [1.0, 3.0], [2.0], 1e-12)

    def test_iteration_budget(self):
        with pytest.raises(ToleranceNotMet):
            find_root(np.cos, [1.0], [2.0], 1e-13, max_iter=3)

    @pytest.mark.parametrize("aw", [0.5, 0.97])
    def test_validate_oracle_polish_closes_in_few_calls(self, aw, monkeypatch):
        # validate's search for the coherent instants, on the brackets of the
        # grid of _INSTANT_CELLS cells over three post-switch periods, on the
        # flat flow: the secant reaches each zero from one side, and the next
        # secant point, set tol past it, closes the bracket
        calls = []

        def counted(f, lo, hi, tol):
            def f_counted(t):
                calls.append(t.size)
                return f(t)
            return find_root(f_counted, lo, hi, tol)

        monkeypatch.setattr(cli, "find_root", counted)
        cfg = cli._resolve_config(cli._build_parser().parse_args(
            ["validate", f"--alpha={aw}", "--grid-n=16"]))
        checks = {c["name"]: c for c in cli.build_validation_report(cfg)["checks"]}
        p = cfg.params
        spacing = math.pi / (2.0 * p.final_frequency)
        kept = np.array(checks["coherent_instants"]["evidence"]["found_t"])
        instants = p.switch_end + np.round((kept - p.switch_end) / spacing) * spacing
        assert 0 < len(calls) <= 12
        assert kept.size == 11
        assert np.max(np.abs(kept - instants)) <= 1e-9 * spacing


def _assert_lanes_match_scalar_reference(f, lo, hi, tol, max_iter=200):
    """Each lane equals the scalar reference, run with the same doubles of f."""

    def f_scalar(x: float) -> float:
        return float(f(np.array([x]))[0])

    sizes = []

    def f_counted(x):
        sizes.append(x.size)
        return f(x)

    roots = find_root(f_counted, lo, hi, tol, max_iter)
    calls = []
    want = []
    for a, b in zip(lo, hi):
        count = [0]

        def counted(x, count=count):
            count[0] += 1
            return f_scalar(x)

        want.append(scalar_find_root(counted, (a, b), tol, max_iter))
        calls.append(count[0])
    assert roots.tobytes() == np.array(want).tobytes()
    # the scalar search makes two end calls and one call per iteration; the
    # lane-wise search calls f once on all the ends, then once per iteration
    # on the lanes still searching
    assert sizes[0] == 2 * len(lo)
    assert sum(sizes[1:]) == sum(calls) - 2 * len(calls)
    assert len(sizes) == 1 + max(calls) - 2
    return roots


class TestLanesMatchScalarReference:
    def test_polynomial_lanes(self):
        # each bracket holds one or all three of the roots 0.75, -1.2 and 1.3
        lo = [0.0, 0.5, -2.5, 0.9, 1.0, -1.5]
        hi = [1.0, 1.0, -0.5, 2.0, 1.5, 2.0]
        _assert_lanes_match_scalar_reference(lambda t: (t - 0.75) * (t + 1.2) * (t - 1.3), lo, hi,
                                             1e-12)

    def test_endpoint_zeros(self):
        # zeros at 0 and 1: both ends, the lower end, the upper end, inside
        lo, hi = [0.0, 1.0, -1.0, -0.5], [1.0, 2.0, 0.0, 0.5]
        roots = _assert_lanes_match_scalar_reference(lambda t: t * (t - 1.0), lo, hi, 1e-12)
        assert roots[:3].tolist() == [0.0, 1.0, 0.0]

    def test_flat_secant_and_tiny_tolerance(self):
        # the cube is flat at its root, so secant steps crawl and bisection works
        lo, hi = [-1.0, -0.3, -1e-3], [2.0, 0.1, 5e-4]
        _assert_lanes_match_scalar_reference(lambda t: t ** 3, lo, hi, 1e-13)

    def test_past_1024_lanes_close_on_adjacent_doubles(self):
        # zeros of sin(4t) at k*pi/4, between 1030 and 1034
        zeros = [k * math.pi / 4.0 for k in range(1312, 1317)]
        lo, hi = [z - 0.3 for z in zeros], [z + 0.2 for z in zeros]
        _assert_lanes_match_scalar_reference(lambda t: np.sin(4.0 * t), lo, hi, 1e-13)

    def test_envelope_slope_lanes(self):
        p = OscParams(alpha=0.6, omega=1.25)
        slope = lambda t: envelope_of(*amplitude(t, p))[1]
        ts = p.switch_end + 0.5 + 0.3 * np.arange(100)
        vals = slope(ts)
        k = np.flatnonzero((vals[:-1] > 0.0) != (vals[1:] > 0.0))
        assert k.size > 10
        _assert_lanes_match_scalar_reference(slope, ts[k].tolist(), ts[k + 1].tolist(), 1e-13)


@settings(max_examples=60, deadline=None)
@given(freq=st.floats(0.2, 6.0), phase=st.floats(-3.0, 3.0), offset=st.floats(-0.9, 0.9),
       t0=st.floats(-40.0, 1100.0), width=st.floats(1e-7, 2.0), n=st.integers(1, 16),
       log_tol=st.floats(-14.0, -4.0))
def test_lanes_match_the_scalar_reference(freq, phase, offset, t0, width, n, log_tol):
    f = lambda t: np.sin(freq * t + phase) + offset
    grid = t0 + width * np.arange(n + 1)
    vals = f(grid)
    k = np.flatnonzero((vals[:-1] == 0.0) | (vals[1:] == 0.0) | ((vals[:-1] > 0.0) != (vals[1:] > 0.0)))
    k = k[grid[k] < grid[k + 1]]
    assume(k.size > 0)
    _assert_lanes_match_scalar_reference(f, grid[k].tolist(), grid[k + 1].tolist(), 10.0**log_tol)


class TestFiniteDifferences:
    def test_first_derivative(self):
        assert derivative(np.sin, 1.0) == pytest.approx(math.cos(1.0), abs=1e-10)

    def test_one_call_on_the_four_point_stencil(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.sin(x)

        derivative(f, 1.0, h=0.25)
        assert len(calls) == 1
        assert calls[0].tolist() == [0.5, 0.75, 1.25, 1.5]

    def test_second_derivative(self):
        assert second_derivative(math.sin, 1.0) == pytest.approx(-math.sin(1.0), abs=1e-9)

    def test_complex_valued(self):
        fd = derivative(lambda t: np.exp(1j * t), 0.7)
        assert fd == pytest.approx(1j * cmath.exp(0.7j), abs=1e-10)
