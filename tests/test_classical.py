"""Closed-form amplitude: junction gluing, conservation laws, oracle agreement.

Reference numbers were computed independently before being frozen here: the
switch-window phase by adaptive quadrature of the integrand, the flat-region
values by hand from the closed forms, and the whole solution against the
adaptive Runge-Kutta integrator.
"""

import cmath
import math

import numpy as np
import pytest

from switchosc import (
    ClassicalAmplitude,
    DomainError,
    OscParams,
    RangeError,
    amplitude,
    envelope,
    epsilon,
    find_root,
    integrate_ode,
    phase_integral,
    quadrature,
    wronskian,
)
from switchosc.classical import _eps_after, _eps_before, _eps_switching, envelope_of

from reference_numerics import second_derivative

FIG = OscParams()
FLAT = OscParams(alpha=0.0)
TJ = FIG.switch_end


def _switch_integrand(p: OscParams):
    return lambda s: 1.0 / (1.0 / p.omega + p.alpha * np.cos(p.omega * s) ** 2)


class TestPhaseIntegral:
    def test_empty_at_zero(self):
        assert phase_integral(0.0, FIG) == 0.0

    def test_static_case_is_linear(self):
        assert phase_integral(math.pi / 4.0, FLAT) == pytest.approx(math.pi / 4.0, abs=1e-15)

    def test_window_end_closed_form(self):
        # pi / (2*sqrt(1.5)); cross-checked against the quadrature oracle below
        assert phase_integral(TJ, FIG) == pytest.approx(1.282549830161864, abs=1e-14)

    def test_matches_quadrature_oracle(self):
        f = _switch_integrand(FIG)
        for i in range(1, 26):
            t = TJ * i / 25.0
            assert phase_integral(t, FIG) == pytest.approx(
                quadrature(f, 0.0, t, tol=1e-13), abs=1e-12
            )

    def test_strictly_increasing(self):
        values = [phase_integral(TJ * i / 100.0, FIG) for i in range(101)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_outside_window_rejected(self):
        with pytest.raises(RangeError):
            phase_integral(-0.1, FIG)
        with pytest.raises(RangeError):
            phase_integral(TJ + 1e-9, FIG)


class TestJunctionPhase:
    def test_figure_value(self):
        assert FIG.junction_phase == pytest.approx(1.282549830161864, abs=1e-14)

    def test_static_value(self):
        assert FLAT.junction_phase == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_is_the_phase_integral_at_the_window_end(self):
        for p in (FIG, FLAT, OscParams(alpha=0.97)):
            assert p.junction_phase == phase_integral(p.switch_end, p)

    def test_small_switch_value(self):
        p = OscParams(alpha=0.1)
        # pi / (2*sqrt(1.1)), verified against the quadrature oracle
        assert p.junction_phase == pytest.approx(1.4976955329233275, abs=1e-13)
        assert p.junction_phase == pytest.approx(
            quadrature(_switch_integrand(p), 0.0, p.switch_end, tol=1e-13), abs=1e-12
        )


class TestAmplitude:
    def test_initial_values(self):
        amp = epsilon(0.0, FIG)
        assert amp.eps == pytest.approx(1.224744871391589 + 0j, abs=1e-13)
        assert amp.eps_dot == pytest.approx(0.816496580927726j, abs=1e-13)

    def test_static_oscillator_is_a_circle(self):
        for t in (-3.0, 0.5, 2.0, 7.0):
            amp = epsilon(t, FLAT)
            assert amp.eps == pytest.approx(cmath.exp(1j * t), abs=1e-12)
            assert amp.eps_dot == pytest.approx(1j * cmath.exp(1j * t), abs=1e-12)

    def test_window_end_modulus_and_phase(self):
        amp = epsilon(TJ, FIG)
        assert abs(amp.eps) == pytest.approx(1.0, abs=1e-13)
        assert cmath.phase(amp.eps) == pytest.approx(FIG.junction_phase, abs=1e-13)

    def test_junction_instants_use_the_switching_branch(self):
        assert epsilon(0.0, FIG) == _eps_switching(0.0, FIG)
        assert epsilon(TJ, FIG) == _eps_switching(TJ, FIG)

    def test_c1_continuity_one_sided(self):
        left, right = _eps_before(0.0, FIG), _eps_switching(0.0, FIG)
        assert abs(left.eps - right.eps) < 1e-10
        assert abs(left.eps_dot - right.eps_dot) < 1e-10
        left, right = _eps_switching(TJ, FIG), _eps_after(TJ, FIG)
        assert abs(left.eps - right.eps) < 1e-10
        assert abs(left.eps_dot - right.eps_dot) < 1e-10

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, t):
        with pytest.raises(DomainError):
            epsilon(t, FIG)
        with pytest.raises(DomainError):
            amplitude(np.array([-1.0, t]), FIG)

    def test_array_kernel_keeps_junction_instants_in_the_window(self):
        # the one-sided forms agree to ~1e-16 there, so only equality tells them apart
        ts = np.array([0.0, TJ])
        eps, eps_dot = amplitude(ts, FIG)
        window = _eps_switching(ts, FIG)
        assert np.array_equal(eps, window.eps) and np.array_equal(eps_dot, window.eps_dot)

    @pytest.mark.parametrize("t", [-3.2, -0.7, 0.3, 1.1, 1.5, 2.5, 7.9])
    def test_derivative_matches_central_difference(self, t):
        h = 1e-5
        fd = (epsilon(t + h, FIG).eps - epsilon(t - h, FIG).eps) / (2.0 * h)
        assert abs(epsilon(t, FIG).eps_dot - fd) < 1e-7

    def test_wronskian_conserved_everywhere(self):
        worst = max(
            abs(wronskian(epsilon(-5.0 + 15.0 * i / 999.0, FIG)) + 2j) for i in range(1000)
        )
        assert worst < 1e-10

    def test_wronskian_of_unit_circle_solution(self):
        assert wronskian(ClassicalAmplitude(t=0.0, eps=1.0 + 0j, eps_dot=1j)) == -2j

    def test_wronskian_flips_sign_under_conjugation(self):
        amp = epsilon(3.0, FIG)
        mirrored = ClassicalAmplitude(t=amp.t, eps=amp.eps.conjugate(), eps_dot=amp.eps_dot.conjugate())
        assert abs(wronskian(mirrored) - 2j) < 1e-10

    def test_matches_runge_kutta_oracle(self):
        # compared at every accepted step of the oracle
        start = epsilon(-5.0, FIG)
        traj = integrate_ode(FIG, -5.0, 10.0, (start.eps, start.eps_dot), tol=1e-10)
        worst = max(abs(epsilon(float(t), FIG).eps - e) for t, e in zip(traj.times, traj.eps))
        assert worst < 1e-8


class TestEnvelope:
    def test_initial_extremum(self):
        r, r_dot = envelope(0.0, FIG)
        assert r == pytest.approx(math.sqrt(1.5), abs=1e-13)
        assert r_dot == 0.0

    def test_static_envelope_is_flat(self):
        p = OscParams(alpha=0.0, omega=2.0)
        for t in (-4.0, 0.0, 0.3, 5.0):
            r, r_dot = envelope(t, p)
            assert r == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-13)
            assert abs(r_dot) < 1e-13

    @pytest.mark.parametrize("t", [-2.0, 0.4, 1.2, 3.3, 6.8])
    def test_chain_rule_identity(self, t):
        amp = epsilon(t, FIG)
        r, r_dot = envelope(t, FIG)
        assert r * r_dot == pytest.approx(
            (amp.eps * amp.eps_dot.conjugate()).real, abs=1e-13
        )

    @pytest.mark.parametrize("t", [-2.0, 0.4, 1.2, 3.3, 6.8])
    def test_slope_matches_difference_quotient(self, t):
        h = 1e-6
        fd = (abs(epsilon(t + h, FIG).eps) - abs(epsilon(t - h, FIG).eps)) / (2.0 * h)
        assert envelope(t, FIG)[1] == pytest.approx(fd, abs=1e-8)

    def test_post_switch_extremum_located_by_root_finder(self):
        # first post-switch envelope extremum: switch end + quarter period
        expected = TJ + math.pi / (2.0 * math.sqrt(0.5))
        roots = find_root(lambda t: envelope_of(*amplitude(t, FIG))[1], [expected - 0.8],
                          [expected + 0.8], tol=1e-12)
        assert roots.shape == (1,)
        assert roots[0] == pytest.approx(expected, abs=1e-10)


class TestSwitchWindowStructure:
    def test_envelope_solves_the_amplitude_equation_of_motion(self):
        # sigma'' + Omega^2 sigma = 1/sigma^3 for the switching-window envelope;
        # sigma'' by fourth-order finite differences of the closed form
        aw = FIG.alpha * FIG.omega

        def sigma(t: float) -> float:
            c = math.cos(FIG.omega * t)
            return math.sqrt(1.0 / FIG.omega + FIG.alpha * c * c)

        def omega_sq(t: float) -> float:
            c = math.cos(FIG.omega * t)
            return FIG.omega**2 * (1.0 - aw / (1.0 + aw * c * c) ** 2)

        for i in range(41):
            t = TJ * i / 40.0
            resid = second_derivative(sigma, t, h=3e-3) + omega_sq(t) * sigma(t) - sigma(t) ** -3
            assert abs(resid) < 1e-9
