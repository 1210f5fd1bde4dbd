"""Frequency switch: parameter validation, region bookkeeping, branch values.

Frozen expectations were evaluated by hand from the closed forms before being
asserted here:
  flat initial frequency  omega*sqrt(1 - aw/(1+aw)^2) = sqrt(7)/3   (aw = 0.5)
  flat final frequency    omega*sqrt(1 - aw)          = sqrt(1/2)
"""

import math

import numpy as np
import pytest

from switchosc import (
    DomainError,
    OscParams,
    Region,
    hamiltonian_coefficients,
    junction_times,
    omega_of,
    omega_profile,
    region_of,
    switch_end,
    validate_params,
)

FIG = OscParams()
FLAT = OscParams(alpha=0.0)


class TestValidation:
    def test_figure_parameters_accepted(self):
        assert validate_params(FIG) is FIG

    def test_static_oscillator_accepted(self):
        assert validate_params(FLAT) is FLAT

    @pytest.mark.parametrize(
        "bad",
        [
            OscParams(alpha=2.0),  # alpha*omega = 2: final frequency imaginary
            OscParams(alpha=1.0),  # boundary value degenerates the final frequency to 0
            OscParams(alpha=-0.1),
            OscParams(m=0.0),
            OscParams(m=-1.0),
            OscParams(hbar=0.0),
            OscParams(omega=0.0),
            OscParams(omega=-2.0),
            OscParams(m=float("nan")),
            OscParams(alpha=float("inf")),
        ],
    )
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(DomainError):
            validate_params(bad)

    def test_error_names_the_violated_constraint(self):
        with pytest.raises(DomainError, match=r"alpha\*omega"):
            validate_params(OscParams(alpha=2.0))
        with pytest.raises(DomainError, match="mass"):
            validate_params(OscParams(m=-1.0))


class TestRegions:
    def test_boundaries_belong_to_the_switch_window(self):
        tj = switch_end(FIG)
        assert region_of(-1e-12, FIG) is Region.BEFORE
        assert region_of(0.0, FIG) is Region.SWITCHING
        assert region_of(tj - 1e-12, FIG) is Region.SWITCHING
        assert region_of(tj, FIG) is Region.SWITCHING
        assert region_of(tj + 1e-12, FIG) is Region.AFTER

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, t):
        with pytest.raises(DomainError):
            region_of(t, FIG)
        with pytest.raises(DomainError):
            omega_of(t, FIG)
        with pytest.raises(DomainError):
            omega_profile(np.array([0.0, t, 1.0]), FIG)

    def test_junction_times(self):
        assert junction_times(FIG) == (0.0, math.pi / 2.0)
        assert junction_times(OscParams(omega=2.0)) == (0.0, math.pi / 4.0)


class TestOmega:
    def test_flat_region_values(self):
        assert omega_of(-1.0, FIG) == pytest.approx(0.8819171036881969, abs=1e-15)
        assert omega_of(-1.0, FIG) == pytest.approx(math.sqrt(7.0) / 3.0, abs=1e-15)
        assert omega_of(10.0, FIG) == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_static_profile_is_constant(self):
        for t in (-7.0, -1.0, 0.0, 1.0, math.pi / 2, 10.0):
            assert omega_of(t, FLAT) == 1.0

    def test_continuous_at_both_junctions(self):
        for tj in junction_times(FIG):
            gap = abs(omega_of(tj - 1e-9, FIG) - omega_of(tj + 1e-9, FIG))
            assert gap < 1e-12

    def test_monotone_decrease_on_the_switch_window(self):
        tj = switch_end(FIG)
        values = [omega_of(tj * i / 200.0, FIG) for i in range(201)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_positive_everywhere_even_near_the_limit(self):
        near = OscParams(alpha=0.99)
        for t in [-3.0 + 8.0 * i / 100.0 for i in range(101)]:
            assert omega_of(t, near) > 0.0
            assert omega_of(t, FIG) > 0.0


class TestHamiltonianCoefficients:
    def test_figure_values_before_switch(self):
        c = hamiltonian_coefficients(-1.0, FIG)
        assert c.a == 0.5
        assert c.b == 0.0
        assert c.a_dot == 0.0
        assert c.c == pytest.approx(7.0 / 18.0, abs=1e-15)

    def test_mass_enters_only_a_and_c(self):
        c = hamiltonian_coefficients(3.0, OscParams(m=2.0, alpha=0.0))
        assert c.a == 0.25
        assert c.c == pytest.approx(1.0, abs=1e-15)

    def test_post_switch_value(self):
        assert hamiltonian_coefficients(10.0, FIG).c == pytest.approx(0.25, abs=1e-15)
