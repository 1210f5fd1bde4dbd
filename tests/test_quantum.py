"""Quantum layer: invariant coefficients, moments, conservation, coherence scan.

Frozen values for the default state z = 1 + 0.2i at t = 0 were derived by hand
from eps(0) = sqrt(3/2) and eps_dot(0) = i*sqrt(2/3):
  <q> = sqrt(3),  <p> = sqrt(2)*0.8164966*0.2 = 0.23094010767585033,
  (sigma_q^2, sigma_p^2, c_qp) = (3/4, 1/3, 0).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchosc import (
    OscParams,
    RangeError,
    coherence_scan,
    conserved_pair,
    epsilon,
    first_moments,
    invariant_coefficients,
    omega_of,
    second_moments,
)
from switchosc import quantum
from switchosc.classical import amplitude, envelope_of
from switchosc.numerics import derivative
from switchosc.quantum import first_moments_of, second_moments_of

from reference_numerics import scalar_find_root

FIG = OscParams()
FLAT = OscParams(alpha=0.0)
Z = 1.0 + 0.2j
TJ = FIG.switch_end
GRID = [-5.0 + 15.0 * i / 999.0 for i in range(1000)]
# a mass and an action quantum away from 1, so that each enters the equations
HEAVY = OscParams(m=1.7, hbar=0.8)
# times before, inside and after the window, none on a junction, where the
# slope of Omega jumps and a central difference loses its order
OFF_JUNCTION = [-4.1, -0.5, 0.3, 0.9, 1.3, 2.4, 8.0]


class TestInvariantCoefficients:
    def test_static_invariant_starts_as_the_annihilation_operator(self):
        coeffs = invariant_coefficients(0.0, FLAT)
        assert coeffs.u == pytest.approx(1.0 + 0j, abs=1e-14)
        assert coeffs.v == pytest.approx(0.0 + 0j, abs=1e-14)
        assert coeffs.omega0 == 1.0

    def test_reference_frequency_is_the_initial_one(self):
        assert invariant_coefficients(7.0, FIG).omega0 == omega_of(0.0, FIG)

    def test_normalization_identity_everywhere(self):
        worst = max(
            abs(abs(c.u) ** 2 - abs(c.v) ** 2 - 1.0)
            for c in (invariant_coefficients(t, FIG) for t in GRID)
        )
        assert worst < 1e-12


class TestFirstMoments:
    def test_figure_state_at_zero(self):
        fm = first_moments(Z, 0.0, FIG)
        assert fm.q_mean == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert fm.p_mean == pytest.approx(0.23094010767585033, abs=1e-12)

    def test_vacuum_label_has_zero_means(self):
        fm = first_moments(0.0, 3.0, FIG)
        assert fm.q_mean == 0.0 and fm.p_mean == 0.0

    def test_real_label_is_its_complex_value(self):
        assert first_moments(1.5, 1.3, FIG) == first_moments(1.5 + 0j, 1.3, FIG)

    @pytest.mark.parametrize("t", OFF_JUNCTION)
    def test_means_obey_the_equations_of_motion(self, t):
        # Ehrenfest for H = p^2/2m + m*Omega^2*q^2/2: d<q>/dt = <p>/m, d<p>/dt = -m*Omega^2*<q>
        fm = first_moments(Z, t, HEAVY)
        w2 = omega_of(t, HEAVY) ** 2
        dq = derivative(lambda s: first_moments_of(Z, *amplitude(s, HEAVY), HEAVY)[0], t)
        dp = derivative(lambda s: first_moments_of(Z, *amplitude(s, HEAVY), HEAVY)[1], t)
        assert dq == pytest.approx(fm.p_mean / HEAVY.m, abs=1e-9)
        assert dp == pytest.approx(-HEAVY.m * w2 * fm.q_mean, abs=1e-9)


class TestSecondMoments:
    def test_ideal_squeezed_at_zero(self):
        cov = second_moments(0.0, FIG)
        assert cov.sq2 == pytest.approx(0.75, abs=1e-12)
        assert cov.sp2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert cov.cqp == 0.0

    @pytest.mark.parametrize("p", [FLAT, OscParams(alpha=0.0, m=2.0, omega=0.7, hbar=1.3)])
    def test_static_oscillator_keeps_textbook_values(self, p):
        for t in (-3.0, 0.0, 1.7, 9.0):
            cov = second_moments(t, p)
            assert cov.sq2 == pytest.approx(p.hbar / (2.0 * p.m * p.omega), abs=1e-12)
            assert cov.sp2 == pytest.approx(p.hbar * p.m * p.omega / 2.0, abs=1e-12)
            assert abs(cov.cqp) < 1e-12

    def test_window_end_value(self):
        assert second_moments(TJ, FIG).sq2 == pytest.approx(0.5, abs=1e-12)

    def test_determinant_identity_everywhere(self):
        hb4 = 0.25 * FIG.hbar**2
        worst = max(
            abs(c.sq2 * c.sp2 - c.cqp**2 - hb4) for c in (second_moments(t, FIG) for t in GRID)
        )
        assert worst < 1e-10

    def test_stationary_unit_amplitude(self):
        eps = complex(math.cos(0.3), math.sin(0.3))
        sq2, sp2, cqp = second_moments_of(eps, 1j * eps, OscParams())
        assert sq2 == pytest.approx(0.5, abs=1e-13)
        assert sp2 == pytest.approx(0.5, abs=1e-13)
        assert abs(cqp) < 1e-13

    @pytest.mark.parametrize("t", OFF_JUNCTION)
    def test_moments_obey_the_equations_of_motion(self, t):
        # d sq2/dt = 2*cqp/m, d cqp/dt = sp2/m - m*Omega^2*sq2, d sp2/dt = -2*m*Omega^2*cqp
        cov = second_moments(t, HEAVY)
        m, w2 = HEAVY.m, omega_of(t, HEAVY) ** 2
        dsq2 = derivative(lambda s: second_moments_of(*amplitude(s, HEAVY), HEAVY)[0], t)
        dcqp = derivative(lambda s: second_moments_of(*amplitude(s, HEAVY), HEAVY)[2], t)
        dsp2 = derivative(lambda s: second_moments_of(*amplitude(s, HEAVY), HEAVY)[1], t)
        assert dsq2 == pytest.approx(2.0 * cov.cqp / m, abs=1e-9)
        assert dcqp == pytest.approx(cov.sp2 / m - m * w2 * cov.sq2, abs=1e-9)
        assert dsp2 == pytest.approx(-2.0 * m * w2 * cov.cqp, abs=1e-9)


class TestConservedPair:
    def test_vacuum_label_gives_zero(self):
        for t in (-2.0, 0.0, 5.0):
            assert conserved_pair(0.0, t, FIG) == (0.0, 0.0)

    def test_constant_in_time(self):
        q0_a, p0_a = conserved_pair(Z, -3.0, FIG)
        q0_b, p0_b = conserved_pair(Z, 5.0, FIG)
        assert q0_a == pytest.approx(q0_b, abs=1e-9)
        assert p0_a == pytest.approx(p0_b, abs=1e-9)

    def test_initial_scaling(self):
        # at t=0 the amplitude is real, so Q0 reduces to <q>(0)/(sqrt(Omega0)*eps(0))
        q0, _ = conserved_pair(Z, 0.0, FIG)
        fm = first_moments(Z, 0.0, FIG)
        w0 = omega_of(0.0, FIG)
        assert q0 == pytest.approx(fm.q_mean / (math.sqrt(w0) * epsilon(0.0, FIG).eps.real), abs=1e-12)

    def test_closed_form_from_wronskian_algebra(self):
        # Q0 = sqrt(2*hbar/(m*Omega0))*Re z and P0 = sqrt(2*hbar*m*Omega0)*Im z
        w0 = omega_of(0.0, FIG)
        for t in (-4.0, 0.2, 6.0):
            q0, p0 = conserved_pair(Z, t, FIG)
            assert q0 == pytest.approx(math.sqrt(2.0 / w0) * Z.real, abs=1e-12)
            assert p0 == pytest.approx(math.sqrt(2.0 * w0) * Z.imag, abs=1e-12)


class TestCoherenceScan:
    def test_static_oscillator_is_always_coherent(self):
        res = coherence_scan(FLAT, FLAT.switch_end, FLAT.switch_end + 2.0 * math.pi)
        assert res.always_coherent
        assert res.t.size == 0
        assert res.uniform_sq_ratio == pytest.approx(1.0, abs=1e-12)
        assert res.uniform_sp_ratio == pytest.approx(1.0, abs=1e-12)

    def test_flat_post_switch_envelope_is_always_coherent(self):
        # 1 - alpha*omega rounds to 1, so the envelope slope is zero everywhere
        p = OscParams(alpha=1e-17)
        assert p.after_re == p.after_im
        res = coherence_scan(p, p.switch_end, p.switch_end + 3.0 * 2.0 * math.pi / p.final_frequency)
        assert res.always_coherent
        assert res.t.size == 0
        assert res.uniform_sq_ratio == pytest.approx(1.0, abs=1e-12)
        assert res.uniform_sp_ratio == pytest.approx(1.0, abs=1e-12)

    def test_grid_above_the_cap_is_refused_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan built its grid")

        monkeypatch.setattr(quantum.np, "arange", refuse)
        monkeypatch.setattr(quantum, "amplitude", refuse)
        with pytest.raises(RangeError, match="72025295 points, more than the cap of 1000001"):
            coherence_scan(FIG, TJ, 1e7)

    def test_grid_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(quantum, "MAX_SAMPLES", 101)
        step = math.pi / (2.0 * FIG.final_frequency) / 16.0
        # 100 grid intervals are 101 points, 101 intervals are 102
        assert len(coherence_scan(FIG, TJ, TJ + 99.5 * step).t) == 6
        with pytest.raises(RangeError, match="102 points"):
            coherence_scan(FIG, TJ, TJ + 100.5 * step)

    def test_events_follow_the_post_switch_envelope_spacing(self):
        spacing = math.pi / (2.0 * math.sqrt(0.5))
        res = coherence_scan(FIG, TJ, TJ + 3.0 * 2.0 * math.pi / math.sqrt(0.5))
        assert len(res.t) >= 4
        times = res.t.tolist()
        assert times[0] == pytest.approx(TJ + spacing, abs=1e-9)
        for a, b in zip(times, times[1:]):
            assert b - a == pytest.approx(spacing, abs=1e-9)

    def test_ratios_alternate_between_the_two_squeeze_values(self):
        res = coherence_scan(FIG, TJ, TJ + 12.0)
        low, high = math.sqrt(0.5), 1.0 / math.sqrt(0.5)
        for k, (sq_ratio, sp_ratio) in enumerate(zip(res.sq_ratio, res.sp_ratio)):
            sq_expect, sp_expect = (high, low) if k % 2 == 0 else (low, high)
            assert sq_ratio == pytest.approx(sq_expect, abs=1e-9)
            assert sp_ratio == pytest.approx(sp_expect, abs=1e-9)

    def test_cofluctuation_vanishes_and_heisenberg_holds_at_events(self):
        res = coherence_scan(FIG, TJ, TJ + 12.0)
        for t, cqp in zip(res.t.tolist(), res.c_qp):
            assert abs(cqp) < 1e-10
            cov = second_moments(t, FIG)
            assert cov.sq2 * cov.sp2 == pytest.approx(0.25, abs=1e-10)

    def test_reference_predictions_are_reported(self):
        res = coherence_scan(FIG, TJ, TJ + 12.0)
        for t, t_predicted, offset in zip(res.t, res.t_predicted, res.offset):
            assert math.isfinite(t_predicted) and t_predicted > TJ
            assert offset == pytest.approx(abs(t - t_predicted), abs=1e-15)

    def test_window_validation(self):
        with pytest.raises(RangeError):
            coherence_scan(FIG, 0.0, 5.0)
        with pytest.raises(RangeError):
            coherence_scan(FIG, TJ + 1.0, TJ + 1.0)
        # doubles there lie 0.125 apart, far coarser than the event spacing allows
        with pytest.raises(RangeError, match="resolved"):
            coherence_scan(FIG, 1e15, 1.00000000000003e15)


def _one_lane(p: OscParams, x: float):
    amp = amplitude(np.array([x]), p)
    return envelope_of(*amp)[1][0], second_moments_of(*amp, p)


def _reference_event(p: OscParams, r: float) -> tuple:
    """The event columns at the instant ``r``, from a one-lane amplitude call
    and scalar arithmetic, one event at a time."""
    t_j, half = p.switch_end, 0.5 * p.hbar
    pred_spacing = math.pi / (4.0 * p.initial_frequency)
    sq2, sp2, cqp = (float(v[0]) for v in _one_lane(p, r)[1])
    w = omega_of(r, p)
    n_near = max(1, round((r - t_j) / pred_spacing - 0.5))
    t_pred = t_j + (n_near + 0.5) * pred_spacing
    return r, p.m * w * sq2 / half, sp2 / (p.m * w * half), cqp, t_pred, abs(r - t_pred)


def _reference_scan(p: OscParams, t_lo: float, t_hi: float) -> list[tuple]:
    """The scan as a root search: grid brackets of the envelope slope, each
    polished with the scalar reference, independent of the closed-form instants."""
    spacing = math.pi / (2.0 * p.final_frequency)
    n = max(8, math.ceil((t_hi - t_lo) / (spacing / 16.0)))
    grid = (t_lo + np.arange(n + 1) * (t_hi - t_lo) / n).tolist()
    values = [float(_one_lane(p, x)[0]) for x in grid]
    roots = []
    for i in range(n):
        f0, f1 = values[i], values[i + 1]
        if f0 == 0.0:
            roots.append(grid[i])
        elif f1 != 0.0 and (f0 > 0.0) != (f1 > 0.0):
            slope = lambda x: float(_one_lane(p, x)[0])
            roots.append(scalar_find_root(slope, (grid[i], grid[i + 1]), tol=1e-13))
    if values[-1] == 0.0:
        roots.append(grid[-1])
    edge = 1e-6 * spacing
    return [_reference_event(p, r) for r in roots if r - t_lo > edge and t_hi - r > edge]


def _long_window(aw: float) -> tuple[OscParams, float, float]:
    p = OscParams(alpha=aw)
    return p, p.switch_end, p.switch_end + 3.0 * 2.0 * math.pi / p.final_frequency


class TestCoherenceScanMatchesScalarReference:
    @pytest.mark.parametrize("p, t_lo, t_hi", [
        (FIG, TJ, TJ + 30.0),  # starts on the window end, as validate's scan does
        (FIG, 1030.0, 1060.0),  # doubles there are coarser than the 1e-13 tolerance
        (OscParams(alpha=0.97, omega=1.01, m=1.2, hbar=0.9), TJ + 0.7, TJ + 300.0),
        _long_window(1e-12),
        _long_window(1.0 - 1e-9),
    ], ids=["from-switch-end", "past-1024", "benchmark-like", "aw-1e-12", "aw-1-1e-9"])
    def test_closed_form_events_match_the_searched_reference(self, p, t_lo, t_hi):
        res = coherence_scan(p, t_lo, t_hi)
        want = _reference_scan(p, t_lo, t_hi)
        assert len(res.t) >= 4
        assert len(res.t) == len(want)
        spacing = math.pi / (2.0 * p.final_frequency)
        columns = (res.t, res.sq_ratio, res.sp_ratio, res.c_qp, res.t_predicted, res.offset)
        for got, w in zip(zip(*(c.tolist() for c in columns)), want):
            t, sq_ratio, sp_ratio = got[:3]
            assert abs(t - w[0]) <= 1e-12 * max(1.0, spacing)
            assert t == p.switch_end + round((t - p.switch_end) / spacing) * spacing
            assert (sq_ratio, sp_ratio) == pytest.approx(w[1:3], rel=1e-9)
            # the columns at the instant are the one-event-at-a-time ones, bit for bit
            assert tuple(map(float.hex, got)) == tuple(map(float.hex, _reference_event(p, t)))

    def test_window_shorter_than_the_spacing_has_no_events(self):
        assert coherence_scan(FIG, TJ + 0.5, TJ + 1.5).t.size == 0


def test_envelope_extrema_are_the_closed_form_instants():
    """After the switch eps = e^{i*junction_phase}*(C*cos(w3*dt) + i*D*sin(w3*dt)),
    so d|eps|^2/dt = w3*(D^2 - C^2)*sin(2*w3*dt), which vanishes exactly at
    dt = k*pi/(2*w3): the instants coherence_scan reports."""
    sp = pytest.importorskip("sympy")
    c, d, dt = sp.symbols("C D dt", real=True)
    w3 = sp.Symbol("w3", positive=True)
    k = sp.Symbol("k", integer=True)
    # the unit phase factor drops out of |eps|^2
    eps = c * sp.cos(w3 * dt) + sp.I * d * sp.sin(w3 * dt)
    mod2 = sp.expand(eps * sp.conjugate(eps))
    assert sp.simplify(mod2 - (c**2 * sp.cos(w3 * dt) ** 2 + d**2 * sp.sin(w3 * dt) ** 2)) == 0
    slope = sp.diff(mod2, dt)
    assert sp.simplify(slope - w3 * (d**2 - c**2) * sp.sin(2 * w3 * dt)) == 0
    # every instant is a zero ...
    assert sp.simplify(slope.subs(dt, k * sp.pi / (2 * w3))) == 0
    # ... and, where C != D, every zero an instant: each family of solutions
    # is an integer multiple of pi/(2*w3)
    zeros = sp.solveset(sp.sin(2 * w3 * dt), dt, sp.S.Reals)
    families = zeros.args if isinstance(zeros, sp.Union) else (zeros,)
    for family in families:
        assert isinstance(family, sp.ImageSet) and family.base_sets == (sp.S.Integers,)
        assert sp.simplify(family.lamda.expr * 2 * w3 / sp.pi).is_integer


def _grid_disagreements(p: OscParams, t_lo: float, t_hi: float, events: np.ndarray):
    """Compare the scan's events with the sign changes of the envelope slope
    on a grid of 16 points per event spacing: the events without a sign change
    in their own cell or the next, and the sign changes more than one cell
    from every event and from every instant that the scan drops at the edges
    or beyond them."""
    t_j, spacing = p.switch_end, math.pi / (2.0 * p.final_frequency)
    n = max(8, math.ceil((t_hi - t_lo) / (spacing / 16.0)))
    ts = t_lo + np.arange(n + 1) * (t_hi - t_lo) / n
    rising = envelope_of(*amplitude(ts, p))[1] > 0.0
    changes = np.flatnonzero(rising[:-1] != rising[1:])
    k = np.arange(math.floor((t_lo - t_j) / spacing), math.ceil((t_hi - t_j) / spacing) + 1)
    outer = t_j + k * spacing
    outer = outer[(outer - t_lo <= 1e-6 * spacing) | (t_hi - outer <= 1e-6 * spacing)]
    event_cells = np.searchsorted(ts, events, side="right") - 1
    cells = np.searchsorted(ts, np.concatenate((events, outer)), side="right") - 1
    lost = events[~np.isin(event_cells, np.concatenate((changes - 1, changes, changes + 1)))]
    stray = ts[changes[~np.isin(changes, np.concatenate((cells - 1, cells, cells + 1)))]]
    return lost, stray


# alpha*omega near 0 and near 1, log-uniform
_AW_EXTREMES = st.one_of(st.floats(-12.0, -3.0).map(lambda e: 10.0**e),
                         st.floats(-9.0, -3.0).map(lambda e: 1.0 - 10.0**e))


@settings(max_examples=80, deadline=None)
@given(aw=_AW_EXTREMES, omega=st.floats(0.25, 4.0), log_start=st.floats(-3.0, 6.0),
       width=st.floats(0.5, 60.0))
def test_scan_events_agree_with_the_grid_of_slope_sign_changes(aw, omega, log_start, width):
    # windows from just past the switch end to a million spacings after it,
    # inside the time resolution the scan admits
    p = OscParams(alpha=aw / omega, omega=omega)
    spacing = math.pi / (2.0 * p.final_frequency)
    t_lo = p.switch_end + 10.0**log_start * spacing
    t_hi = t_lo + width * spacing
    res = coherence_scan(p, t_lo, t_hi)
    assert not res.always_coherent
    lost, stray = _grid_disagreements(p, t_lo, t_hi, res.t)
    assert lost.tolist() == [] and stray.tolist() == []
