"""Numerical layer: integrator accuracy and order, quadrature, root finding.

The static oscillator (alpha = 0) provides the analytic yardstick e^{it} for
every integrator check.
"""

import cmath
import math

import numpy as np
import pytest

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
    integrate_ode,
    quadrature,
    second_derivative,
    switch_end,
)

FIG = OscParams()
FLAT = OscParams(alpha=0.0)


def _circle_error(tol: float, fixed_step: float | None = None) -> float:
    traj = integrate_ode(FLAT, 0.0, 2.0 * math.pi, (1.0 + 0j, 1j), tol, fixed_step=fixed_step)
    return max(abs(e - cmath.exp(1j * t)) for t, e in zip(traj.times, traj.eps))


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
        errors = [_circle_error(tol) for tol in tols]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= 4.0 * coarse
        assert errors[-1] < errors[0]

    def test_fixed_step_order(self):
        # propagated solution is fifth order: halving h gains about 2^5
        ratio = _circle_error(1e-6, fixed_step=0.2) / _circle_error(1e-6, fixed_step=0.1)
        assert 16.0 < ratio < 64.0

    def test_junction_forcing_changes_nothing_measurable(self):
        tol = 1e-9
        start = (1.2 + 0.1j, 0.2 + 0.9j)
        forced = integrate_ode(FIG, -1.0, 1.0, start, tol, force_junctions=True)
        blind = integrate_ode(FIG, -1.0, 1.0, start, tol, force_junctions=False)
        assert abs(forced.eps[-1] - blind.eps[-1]) < 10.0 * tol
        assert abs(forced.eps_dot[-1] - blind.eps_dot[-1]) < 10.0 * tol

    def test_requested_times_are_recorded_exactly(self):
        ts = [0.0, 0.3, 1.0, 1.7, 2.0]
        traj = integrate_ode(FLAT, 0.0, 2.0, (1.0 + 0j, 1j), 1e-9, t_eval=ts)
        assert list(traj.times) == ts
        assert traj.states.shape == (5, 2)

    def test_free_running_trajectory_is_strictly_increasing(self):
        traj = integrate_ode(FIG, -2.0, 2.0, (1.0 + 0j, 1j), 1e-9)
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[0] == -2.0 and traj.times[-1] == 2.0

    def test_input_validation(self):
        with pytest.raises(RangeError):
            integrate_ode(FLAT, 0.0, 1.0, (1.0 + 0j, 1j), 1e-9, t_eval=[2.0])
        with pytest.raises(DomainError):
            integrate_ode(FLAT, 0.0, 1.0, (1.0 + 0j, 1j), 1e-14)
        with pytest.raises(DomainError):
            integrate_ode(FLAT, 0.0, 1.0, (1.0 + 0j, 1j), 1e-2)
        with pytest.raises(DomainError):
            integrate_ode(FLAT, 1.0, 1.0, (1.0 + 0j, 1j), 1e-9)
        with pytest.raises(DomainError):
            integrate_ode(FLAT, 0.0, 1.0, (1.0 + 0j, 1j), 1e-9, fixed_step=-0.1)

    @pytest.mark.parametrize(
        "t0, t1, init, t_eval",
        [
            (-math.inf, 1.0, (1.0 + 0j, 1j), None),
            (0.0, math.inf, (1.0 + 0j, 1j), None),
            (0.0, 1.0, (1.0 + 0j, 1j), [0.5, math.nan]),
            (0.0, 1.0, (complex(math.nan, 0.0), 1j), None),
            (0.0, 1.0, (1.0 + 0j, complex(0.0, math.inf)), None),
        ],
        ids=["t0", "t1", "t_eval", "eps", "eps_dot"],
    )
    def test_non_finite_inputs_rejected_up_front(self, t0, t1, init, t_eval):
        with pytest.raises(DomainError, match="finite"):
            integrate_ode(FLAT, t0, t1, init, 1e-9, t_eval=t_eval)

    @pytest.mark.parametrize("aw", [0.0, 0.5, 0.97])
    @pytest.mark.parametrize("placement", ["before", "across", "after"])
    def test_sixty_long_windows_match_the_closed_form(self, aw, placement):
        p = OscParams(alpha=aw)
        t0 = {"before": -61.0, "across": -15.0, "after": switch_end(p) + 1.0}[placement]
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
        assert stats.rhs_calls == 7 * (stats.accepted + stats.rejected)
        assert stats.accepted == len(traj.times) - 1
        steps = np.diff(traj.times)
        assert stats.min_step == pytest.approx(steps.min(), rel=1e-9)
        assert stats.max_step == pytest.approx(steps.max(), rel=1e-9)

    def test_junction_stops_only_when_forced(self):
        start = (1.2 + 0.1j, 0.2 + 0.9j)
        forced = integrate_ode(FIG, -1.0, 2.0, start, 1e-9, force_junctions=True)
        blind = integrate_ode(FIG, -1.0, 2.0, start, 1e-9, force_junctions=False)
        assert forced.stats.junction_stops == 2
        assert {0.0, switch_end(FIG)} <= set(forced.times.tolist())
        assert blind.stats.junction_stops == 0

    def test_fixed_step_rejects_nothing(self):
        stats = integrate_ode(FLAT, 0.0, 1.0, (1.0 + 0j, 1j), 1e-6, fixed_step=0.3).stats
        assert (stats.accepted, stats.rejected, stats.rhs_calls) == (4, 0, 28)
        assert stats.max_step == 0.3
        assert stats.min_step == pytest.approx(0.1, abs=1e-12)


class TestQuadrature:
    def test_unit_integrand(self):
        assert quadrature(lambda x: 1.0, 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-14)

    def test_constant_over_quarter_interval(self):
        assert quadrature(lambda x: 1.0, 0.0, math.pi / 4.0, 1e-12) == pytest.approx(
            math.pi / 4.0, abs=1e-14
        )

    def test_cosine(self):
        assert quadrature(math.cos, 0.0, math.pi / 2.0, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_cubic_is_exact(self):
        value = quadrature(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 2.0, 1e-12)
        assert value == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-13)

    def test_switch_window_integrand(self):
        f = lambda u: 1.0 / (1.0 + 0.5 * math.cos(u) ** 2)
        expected = math.pi / (2.0 * math.sqrt(1.5))
        assert quadrature(f, 0.0, math.pi / 2.0, 1e-13) == pytest.approx(expected, abs=1e-12)

    def test_empty_interval(self):
        assert quadrature(math.sin, 1.0, 1.0, 1e-12) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(RangeError):
            quadrature(math.sin, 1.0, 0.0, 1e-12)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            quadrature(lambda x: 1.0 / x if x else float("inf"), 0.0, 1.0, 1e-10)

    def test_unresolvable_integrand_raises(self):
        with pytest.raises(ToleranceNotMet):
            quadrature(lambda x: math.sin(1.0 / (x + 1e-300)), 0.0, 1.0, 1e-13, max_depth=20)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda t: t - 1.0, (0.0, 2.0), 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_cosine(self):
        assert find_root(math.cos, (1.0, 2.0), 1e-13) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_endpoint_zero_returned_immediately(self):
        assert find_root(lambda t: t, (0.0, 1.0), 1e-12) == 0.0

    def test_same_sign_rejected(self):
        with pytest.raises(NoSignChange):
            find_root(lambda t: t * t + 1.0, (-1.0, 1.0), 1e-12)

    def test_root_past_1024_found_to_one_ulp(self):
        # the doubles near 1030.3 lie 2.3e-13 apart, wider than 2*tol, and
        # f vanishes at no double, so the bracket closes on adjacent doubles
        root = find_root(lambda t: (t - 1030.0) - 0.3, (1030.0, 1031.0), tol=1e-13)
        assert abs(root - 1030.3) <= math.ulp(1030.3)

    def test_bad_bracket_rejected(self):
        with pytest.raises(RangeError):
            find_root(math.cos, (2.0, 1.0), 1e-12)


class TestFiniteDifferences:
    def test_first_derivative(self):
        assert derivative(math.sin, 1.0) == pytest.approx(math.cos(1.0), abs=1e-10)

    def test_second_derivative(self):
        assert second_derivative(math.sin, 1.0) == pytest.approx(-math.sin(1.0), abs=1e-9)

    def test_complex_valued(self):
        fd = derivative(lambda t: cmath.exp(1j * t), 0.7)
        assert fd == pytest.approx(1j * cmath.exp(0.7j), abs=1e-10)
