"""Frequency switch: parameter validation, derived constants, region bookkeeping.

Frozen expectations were evaluated by hand from the closed forms before being
asserted here:
  flat initial frequency  omega*sqrt(1 - aw/(1+aw)^2) = sqrt(7)/3   (aw = 0.5)
  flat final frequency    omega*sqrt(1 - aw)          = sqrt(1/2)
"""

import math
import re
import sys

import numpy as np
import pytest

from switchosc import DomainError, OscParams, epsilon, omega_of, omega_profile
from switchosc.classical import _eps_after, _eps_before, _eps_switching
from switchosc.frequency import region_masks

FIG = OscParams()
FLAT = OscParams(alpha=0.0)


def _closed_omega(p, c):
    # the window's closed form at c = cos(omega*t); c = 1 and c = 0 give the
    # flat frequencies before and after the window
    return p.omega * math.sqrt(1.0 - p.alpha * p.omega / (1.0 + p.alpha * p.omega * c * c) ** 2)


def _reference_constants(alpha, omega):
    """Every derived field of OscParams, by the formulas that computed them per call
    before the parameters carried them."""
    aw = alpha * omega
    t_end = math.pi / (2.0 * omega)
    root = math.sqrt(1.0 + alpha * omega)
    u = omega * t_end
    phase = 0.5 * math.pi / root if u >= 0.5 * math.pi else math.atan(math.tan(u) / root) / root
    return {
        "aw": aw,
        "switch_end": t_end,
        "root": root,
        "initial_frequency": omega * math.sqrt(1.0 - aw / pow(1.0 + aw * 1.0 * 1.0, 2)),
        "final_frequency": omega * math.sqrt(1.0 - aw / pow(1.0 + aw * 0.0 * 0.0, 2)),
        "junction_phase": phase,
        "junction_cos": math.cos(phase),
        "junction_sin": math.sin(phase),
        "before_re": math.sqrt((1.0 + aw) / omega),
        "before_im": math.sqrt((1.0 + aw) / (omega * (1.0 + aw + aw * aw))),
        "after_re": 1.0 / math.sqrt(omega),
        "after_im": 1.0 / math.sqrt(omega * (1.0 - aw)),
    }


class TestValidation:
    def test_figure_parameters_accepted(self):
        assert (FIG.m, FIG.hbar, FIG.alpha, FIG.omega) == (1.0, 1.0, 0.5, 1.0)

    def test_static_oscillator_accepted(self):
        assert FLAT.initial_frequency == FLAT.final_frequency == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(alpha=2.0),  # alpha*omega = 2: final frequency imaginary
            dict(alpha=1.0),  # boundary value degenerates the final frequency to 0
            dict(alpha=-0.1),
            dict(m=0.0),
            dict(m=-1.0),
            dict(hbar=0.0),
            dict(omega=0.0),
            dict(omega=-2.0),
            dict(m=float("nan")),
            dict(alpha=float("inf")),
        ],
    )
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(DomainError):
            OscParams(**bad)

    def test_error_names_the_violated_constraint(self):
        with pytest.raises(DomainError, match=r"alpha\*omega"):
            OscParams(alpha=2.0)
        with pytest.raises(DomainError, match="mass"):
            OscParams(m=-1.0)

    @pytest.mark.parametrize("hbar", [1e-300, 1e-160, 1e155, 1e200, math.inf])
    def test_hbar_square_must_be_a_finite_normal_double(self, hbar):
        with pytest.raises(DomainError, match="hbar"):
            OscParams(hbar=hbar)

    @pytest.mark.parametrize("hbar", [1.5e-154, 1e-150, 1e150, 1.3e154])
    def test_hbar_with_a_normal_square_accepted(self, hbar):
        assert OscParams(hbar=hbar).hbar == hbar

    @pytest.mark.parametrize("m, hbar, name", [
        (1e-320, 1.0, "hbar/(2m)"),  # overflows to inf
        (1e308, 1.0, "hbar/(2m)"),  # 2m overflows, so the quotient is 0.0
        (1e300, 1e-10, "hbar/(2m)"),  # subnormal
        (1e300, 1e10, "hbar*m/2"),  # overflows to inf
        (1e-300, 1e-10, "hbar*m/2"),  # subnormal
    ])
    def test_mass_scales_must_be_finite_normal_doubles(self, m, hbar, name):
        with pytest.raises(DomainError, match=re.escape(name)):
            OscParams(m=m, hbar=hbar)

    @pytest.mark.parametrize("m", [1e-300, 1e300])
    def test_extreme_mass_with_normal_scales_accepted(self, m):
        assert OscParams(m=m).m == m

    @pytest.mark.parametrize("alpha", [0.0, 1e300])
    def test_first_non_finite_derived_constant_is_named(self, alpha):
        # pi/(2*omega) overflows; nothing that depends on it is computed
        with pytest.raises(DomainError, match="switch_end"):
            OscParams(alpha=alpha, omega=1e-320)

    @pytest.mark.parametrize("omega", [1e308, sys.float_info.max])
    def test_window_must_have_a_length(self, omega):
        # 2*omega overflows, so pi/(2*omega) is 0.0: the window would be empty
        with pytest.raises(DomainError, match="switch_end = 0.0 is not positive"):
            OscParams(alpha=0.0, omega=omega)

    def test_largest_omega_with_a_window_accepted(self):
        p = OscParams(alpha=0.0, omega=sys.float_info.max / 2.0)
        assert p.switch_end > 0.0


class TestDerivedConstants:
    @pytest.mark.parametrize("aw", [0.0, 0.5, 0.97, 1.0 - 1e-9])
    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.3])
    def test_fields_match_the_reference_formulas_bit_for_bit(self, aw, omega):
        p = OscParams(alpha=aw / omega, omega=omega)
        for name, want in _reference_constants(p.alpha, p.omega).items():
            assert getattr(p, name).hex() == want.hex(), name

    def test_derived_fields_are_neither_arguments_compared_nor_shown(self):
        assert repr(FIG) == "OscParams(m=1.0, hbar=1.0, alpha=0.5, omega=1.0)"
        assert FIG == OscParams() and hash(FIG) == hash(OscParams())
        with pytest.raises(TypeError):
            OscParams(switch_end=1.0)


class TestRegions:
    def test_boundaries_belong_to_the_switch_window(self):
        tj = math.pi / (2.0 * FIG.omega)
        ts = [-1e-12, 0.0, tj - 1e-12, tj, tj + 1e-12]
        for edge in (0.0, tj):
            ts += [math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        _, before, after = region_masks(np.array(ts), FIG)
        for t, b, a in zip(ts, before.tolist(), after.tolist()):
            # the reference regions: t < 0 before, t <= pi/(2*omega) in the window
            piece = _eps_before if t < 0.0 else _eps_switching if t <= tj else _eps_after
            assert epsilon(t, FIG) == piece(t, FIG), t
            assert (b, a) == (t < 0.0, t > tj), t
        assert epsilon(-1e-12, FIG) == _eps_before(-1e-12, FIG)
        assert epsilon(0.0, FIG) == _eps_switching(0.0, FIG)
        assert epsilon(tj, FIG) == _eps_switching(tj, FIG)
        assert epsilon(tj + 1e-12, FIG) == _eps_after(tj + 1e-12, FIG)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, t):
        with pytest.raises(DomainError):
            omega_of(t, FIG)
        with pytest.raises(DomainError):
            epsilon(t, FIG)
        with pytest.raises(DomainError):
            omega_profile(np.array([0.0, t, 1.0]), FIG)

    def test_junction_times(self):
        assert FIG.switch_end == math.pi / 2.0
        # alpha*omega = 1 with the default alpha: that switch is rejected
        assert OscParams(alpha=0.0, omega=2.0).switch_end == math.pi / 4.0


class TestOmega:
    def test_flat_region_values(self):
        assert omega_of(-1.0, FIG) == pytest.approx(0.8819171036881969, abs=1e-15)
        assert omega_of(-1.0, FIG) == pytest.approx(math.sqrt(7.0) / 3.0, abs=1e-15)
        assert omega_of(10.0, FIG) == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_static_profile_is_constant(self):
        for t in (-7.0, -1.0, 0.0, 1.0, math.pi / 2, 10.0):
            assert omega_of(t, FLAT) == 1.0

    def test_continuous_at_both_junctions(self):
        for tj in (0.0, FIG.switch_end):
            gap = abs(omega_of(tj - 1e-9, FIG) - omega_of(tj + 1e-9, FIG))
            assert gap < 1e-12

    def test_monotone_decrease_on_the_switch_window(self):
        tj = FIG.switch_end
        values = [omega_of(tj * i / 200.0, FIG) for i in range(201)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("aw", [0.0, 0.5, 0.97])
    def test_unchecked_helper_is_omega_of_bit_for_bit(self, aw):
        p = OscParams(alpha=aw / 1.3, omega=1.3)
        t_end = math.pi / (2.0 * p.omega)
        ts = [-40.0, -1.0, 0.2, 0.7, 1.1, 3.0, 45.0]
        for edge in (0.0, t_end):
            ts += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
        for t in ts:
            # reference from the explicit regions and the closed form, not from p
            if t < 0.0:
                want = _closed_omega(p, 1.0)
            elif t <= t_end:
                want = _closed_omega(p, math.cos(p.omega * t))
            else:
                want = _closed_omega(p, 0.0)
            assert p.omega_at(t) == omega_of(t, p) == want, t

    def test_positive_everywhere_even_near_the_limit(self):
        near = OscParams(alpha=0.99)
        for t in [-3.0 + 8.0 * i / 100.0 for i in range(101)]:
            assert omega_of(t, near) > 0.0
            assert omega_of(t, FIG) > 0.0
