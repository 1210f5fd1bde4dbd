"""Algebraic invariants under randomized valid parameters and times."""

import numpy as np
from hypothesis import given, settings, strategies as st

from switchosc import (
    OscParams,
    amplitude,
    conserved_pair,
    epsilon,
    integrate_ode,
    invariant_coefficients,
    omega_of,
    omega_profile,
    phase_integral,
    second_moments,
    wronskian,
)

valid_params = st.builds(
    lambda m, hbar, omega, aw: OscParams(m=m, hbar=hbar, alpha=aw / omega, omega=omega),
    m=st.floats(0.1, 10.0),
    hbar=st.floats(0.1, 10.0),
    omega=st.floats(0.1, 8.0),
    aw=st.floats(0.0, 0.95),
)
times = st.floats(-20.0, 20.0)
labels = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(p=valid_params, t=times)
def test_wronskian_is_minus_two_i(p, t):
    assert abs(wronskian(epsilon(t, p)) + 2j) < 1e-10


@settings(deadline=None)
@given(p=valid_params, ts=st.lists(times, max_size=30))
def test_array_kernel_matches_the_scalar_path(p, ts):
    # both junction instants always, where the region masks must agree with epsilon's branches
    ts = np.array([0.0, p.switch_end, *ts])
    eps, eps_dot = amplitude(ts, p)
    amps = [epsilon(t, p) for t in ts.tolist()]
    columns = (
        (eps.real, [a.eps.real for a in amps]),
        (eps.imag, [a.eps.imag for a in amps]),
        (eps_dot.real, [a.eps_dot.real for a in amps]),
        (eps_dot.imag, [a.eps_dot.imag for a in amps]),
        (omega_profile(ts, p), [omega_of(t, p) for t in ts.tolist()]),
    )
    for got, want in columns:
        want = np.array(want)
        assert np.all(np.abs(got - want) <= 16 * np.spacing(np.max(np.abs(want))))


@settings(deadline=None)
@given(p=valid_params, t=times)
def test_invariant_coefficients_stay_normalized(p, t):
    c = invariant_coefficients(t, p)
    assert abs(abs(c.u) ** 2 - abs(c.v) ** 2 - 1.0) < 1e-12


@settings(deadline=None)
@given(p=valid_params, t=times)
def test_determinant_identity(p, t):
    cov = second_moments(t, p)
    assert abs((cov.sq2 * cov.sp2 - cov.cqp**2) * 4.0 / p.hbar**2 - 1.0) < 1e-12
    assert cov.sq2 > 0.0 and cov.sp2 > 0.0


@settings(deadline=None)
@given(p=valid_params, z=labels, t_a=times, t_b=times)
def test_conserved_pair_is_time_independent(p, z, t_a, t_b):
    q0_a, p0_a = conserved_pair(z, t_a, p)
    q0_b, p0_b = conserved_pair(z, t_b, p)
    assert abs(q0_a - q0_b) < 1e-9 * (1.0 + abs(q0_a))
    assert abs(p0_a - p0_b) < 1e-9 * (1.0 + abs(p0_a))


@settings(deadline=None)
@given(p=valid_params, frac_a=st.floats(0.0, 1.0), frac_b=st.floats(0.0, 1.0))
def test_phase_integral_is_monotone(p, frac_a, frac_b):
    lo, hi = sorted((frac_a, frac_b))
    t_end = p.switch_end
    assert phase_integral(lo * t_end, p) <= phase_integral(hi * t_end, p) + 1e-15


@settings(max_examples=20, deadline=None)
@given(aw=st.floats(0.0, 0.99), omega=st.floats(0.5, 1.5), t0=st.floats(-60.0, 60.0),
       span=st.floats(1.0, 60.0))
def test_integration_matches_the_closed_form(aw, omega, t0, span):
    p = OscParams(alpha=aw / omega, omega=omega)
    start = epsilon(t0, p)
    traj = integrate_ode(p, t0, t0 + span, (start.eps, start.eps_dot), 1e-11)
    eps, eps_dot = amplitude(traj.times, p)
    assert np.max(np.abs(eps - traj.eps)) < 1e-8
    assert np.max(np.abs(eps_dot - traj.eps_dot)) < 1e-8
