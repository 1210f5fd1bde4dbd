"""Phase-space layer: point values, grids, quadrature closure, export formats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchosc import (
    CovarianceState,
    DomainError,
    FirstMoments,
    NotNormalized,
    OscParams,
    first_moments,
    grid_integral,
    grid_moments,
    grid_to_csv,
    grid_to_json,
    second_moments,
    wigner_grid,
    wigner_value,
)
from switchosc.wigner import _odd_offsets, _simpson_weights

FIG = OscParams()
FLAT = OscParams(alpha=0.0)
Z = 1.0 + 0.2j


class TestPointValue:
    def test_peak_value_at_the_means(self):
        fm = first_moments(Z, 0.0, FIG)
        cov = second_moments(0.0, FIG)
        assert wigner_value(fm.q_mean, fm.p_mean, fm, cov, FIG.hbar) == pytest.approx(
            1.0 / math.pi, abs=1e-15
        )

    def test_peak_scales_with_hbar(self):
        p = OscParams(alpha=0.0, hbar=2.0)
        fm = first_moments(0.0, 0.0, p)
        cov = second_moments(0.0, p)
        assert wigner_value(0.0, 0.0, fm, cov, p.hbar) == pytest.approx(
            1.0 / (2.0 * math.pi), abs=1e-15
        )

    @pytest.mark.parametrize("q,p", [(0.0, 0.0), (0.5, -0.3), (1.2, 0.8), (-2.0, 1.0)])
    def test_vacuum_closed_form(self, q, p):
        fm = first_moments(0.0, 0.0, FLAT)
        cov = second_moments(0.0, FLAT)
        expected = math.exp(-q * q - p * p) / math.pi
        assert wigner_value(q, p, fm, cov, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_peak_is_time_invariant(self):
        for t in (-4.0, -1.0, 0.0, 0.8, 2.0, 7.5):
            fm = first_moments(Z, t, FIG)
            cov = second_moments(t, FIG)
            assert wigner_value(fm.q_mean, fm.p_mean, fm, cov, FIG.hbar) == pytest.approx(
                1.0 / math.pi, abs=1e-13
            )

    def test_non_minimum_uncertainty_covariances_rejected(self):
        fm = FirstMoments(0.0, 0.0)
        with pytest.raises(DomainError):
            wigner_value(0.0, 0.0, fm, CovarianceState(sq2=1.0, sp2=1.0, cqp=0.0), 1.0)

    def test_grid_cells_are_point_values_bit_for_bit(self):
        # each cell is the density at its own offsets from the means; wigner_value
        # at the axis values subtracts the means again and may land an ulp away
        t = 0.3
        g = wigner_grid(t, Z, FIG, resolution=(17, 24))
        fm = first_moments(Z, t, FIG)
        cov = second_moments(t, FIG)
        dq = _odd_offsets(17, 6.0 * math.sqrt(cov.sq2))
        dp = _odd_offsets(24, 6.0 * math.sqrt(cov.sp2))
        assert np.array_equal(g.q_axis, fm.q_mean + dq) and np.array_equal(g.p_axis, fm.p_mean + dp)
        origin = FirstMoments(0.0, 0.0)
        points = [[wigner_value(q, p, origin, cov, FIG.hbar) for p in dp.tolist()]
                  for q in dq.tolist()]
        assert np.array(points).tobytes() == g.values.tobytes()


class TestGrid:
    def test_axes_center_on_the_means(self):
        g = wigner_grid(0.0, Z, FIG, resolution=(64, 48))
        fm = first_moments(Z, 0.0, FIG)
        assert g.values.shape == (64, 48)
        assert 0.5 * (g.q_axis[0] + g.q_axis[-1]) == pytest.approx(fm.q_mean, abs=1e-12)
        assert 0.5 * (g.p_axis[0] + g.p_axis[-1]) == pytest.approx(fm.p_mean, abs=1e-12)

    def test_peak_cell_sits_at_the_center(self):
        g = wigner_grid(0.0, Z, FIG, resolution=(128, 128))
        fm = first_moments(Z, 0.0, FIG)
        i, j = np.unravel_index(np.argmax(g.values), g.values.shape)
        dq = g.q_axis[1] - g.q_axis[0]
        dp = g.p_axis[1] - g.p_axis[0]
        assert abs(g.q_axis[i] - fm.q_mean) <= dq
        assert abs(g.p_axis[j] - fm.p_mean) <= dp

    def test_values_nonnegative(self):
        g = wigner_grid(1.0, Z, FIG, resolution=(32, 32))
        assert np.all(g.values >= 0.0)

    @settings(max_examples=40, deadline=None)
    @given(aw=st.sampled_from([0.0, 0.5, 0.97]), t=st.floats(-5.0, 8.0),
           z=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
           n=st.tuples(st.integers(16, 80), st.integers(16, 80)),
           widths=st.tuples(st.floats(3.0, 9.0), st.floats(3.0, 9.0)))
    def test_cells_equal_their_mirror_cells_bit_for_bit(self, aw, t, z, n, widths):
        g = wigner_grid(t, z, OscParams(alpha=aw), half_widths=widths, resolution=n)
        assert g.values.tobytes() == g.values[::-1, ::-1].tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.97])
    @pytest.mark.parametrize("n", [17, 225])
    def test_odd_grid_centre_is_the_peak_at_the_means(self, alpha, n):
        p = OscParams(alpha=alpha, hbar=0.7)
        g = wigner_grid(0.9, Z, p, resolution=(n, n + 2))
        fm = first_moments(Z, 0.9, p)
        c, d = n // 2, n // 2 + 1
        assert g.q_axis[c] == fm.q_mean and g.p_axis[d] == fm.p_mean
        assert g.values[c, d] == 1.0 / (math.pi * p.hbar)

    @pytest.mark.parametrize("n", [16, 17, 255, 256])
    def test_offsets_are_exactly_odd_and_end_at_the_half_width(self, n):
        d = _odd_offsets(n, 6.1 * math.sqrt(0.37))
        # exact, as == is on nonzero doubles; an odd n's middle offset is 0.0
        assert np.array_equal(d, -d[::-1])
        assert d[-1] == 6.1 * math.sqrt(0.37) and np.all(np.diff(d) > 0.0)
        assert np.allclose(np.diff(d), d[-1] * 2.0 / (n - 1), rtol=1e-12, atol=0.0)

    def test_vacuum_grid_is_point_symmetric(self):
        g = wigner_grid(0.0, 0.0, FLAT, resolution=(64, 64))
        assert np.max(np.abs(g.values - g.values[::-1, ::-1])) < 1e-12

    def test_slices_are_unimodal(self):
        g = wigner_grid(0.7, Z, FIG, resolution=(64, 64))
        for slc in (g.values[32, :], g.values[:, 32]):
            drops = np.diff(slc) < 0.0
            # once the slice starts dropping it never rises again
            first_drop = int(np.argmax(drops)) if drops.any() else len(slc)
            assert np.all(drops[first_drop:])

    def test_resolution_and_width_validation(self):
        with pytest.raises(DomainError):
            wigner_grid(0.0, Z, FIG, resolution=(8, 64))
        with pytest.raises(DomainError):
            wigner_grid(0.0, Z, FIG, half_widths=(2.0, 6.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                wigner_grid(0.0, Z, FIG, half_widths=(6.0, bad))

    def test_normalization_default_grid(self):
        g = wigner_grid(0.0, Z, FIG)
        assert abs(grid_integral(g) - 1.0) < 1e-6

    def test_normalization_coarse_grid(self):
        g = wigner_grid(2.0, Z, FIG, resolution=(128, 128))
        assert abs(grid_integral(g) - 1.0) < 1e-5


class TestGridMoments:
    def test_recovers_the_analytic_moments(self):
        g = wigner_grid(0.0, Z, FIG)
        fm, cov = grid_moments(g)
        fm_exact = first_moments(Z, 0.0, FIG)
        cov_exact = second_moments(0.0, FIG)
        assert fm.q_mean == pytest.approx(fm_exact.q_mean, rel=1e-4)
        assert fm.p_mean == pytest.approx(fm_exact.p_mean, rel=1e-4)
        assert cov.sq2 == pytest.approx(cov_exact.sq2, rel=1e-4)
        assert cov.sp2 == pytest.approx(cov_exact.sp2, rel=1e-4)
        assert cov.cqp == pytest.approx(0.0, abs=1e-4)

    def test_recovered_determinant(self):
        g = wigner_grid(1.3, Z, FIG)
        _, cov = grid_moments(g)
        assert cov.sq2 * cov.sp2 - cov.cqp**2 == pytest.approx(0.25, abs=1e-4)

    def test_vacuum_moments(self):
        g = wigner_grid(0.0, 0.0, FLAT)
        fm, cov = grid_moments(g)
        assert abs(fm.q_mean) < 1e-9 and abs(fm.p_mean) < 1e-9
        assert cov.sq2 == pytest.approx(0.5, rel=1e-4)
        assert cov.sp2 == pytest.approx(0.5, rel=1e-4)
        assert abs(cov.cqp) < 1e-9

    def test_truncated_grid_rejected(self):
        # a 3-sigma window clips about half a percent of the mass
        g = wigner_grid(0.0, Z, FIG, half_widths=(3.0, 3.0), resolution=(64, 64))
        with pytest.raises(NotNormalized):
            grid_moments(g)


class TestSimpsonWeights:
    @pytest.mark.parametrize("n", [9, 16, 33, 64, 129, 256])
    def test_cubics_are_integrated_exactly(self, n):
        x = np.linspace(-1.0, 2.0, n)
        w = _simpson_weights(n, float(x[1] - x[0]))
        for k, exact in ((0, 3.0), (1, 1.5), (2, 3.0), (3, 3.75)):
            assert float(w @ x**k) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n", [129, 256])
    def test_gaussian_mass(self, n):
        x = np.linspace(-8.0, 8.0, n)
        w = _simpson_weights(n, float(x[1] - x[0]))
        mass = float(w @ (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)))
        assert mass == pytest.approx(1.0, abs=1e-9)


class TestExport:
    def test_csv_round_trips_at_full_precision(self):
        g = wigner_grid(0.0, Z, FIG, resolution=(16, 16))
        text = grid_to_csv(g)
        lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
        assert lines[0] == "q,p,w"
        assert len(lines) == 1 + 16 * 16
        q, p, w = lines[1].split(",")
        assert float(q) == g.q_axis[0] and float(p) == g.p_axis[0] and float(w) == g.values[0, 0]
        q, p, w = lines[-1].split(",")
        assert float(w) == g.values[-1, -1]

    def test_csv_parses_back_to_the_grid_exactly(self):
        g = wigner_grid(0.3, Z, FIG, resolution=(17, 24))
        lines = [ln for ln in grid_to_csv(g).splitlines() if not ln.startswith("#")]
        cells = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        q, p, w = cells.reshape(17, 24, 3).transpose(2, 0, 1)
        assert np.array_equal(q[:, 0], g.q_axis) and np.all(q == q[:, :1])
        assert np.array_equal(p[0], g.p_axis) and np.all(p == p[:1])
        assert np.array_equal(w, g.values)

    def test_csv_carries_metadata_and_extra_comments(self):
        g = wigner_grid(0.25, Z, FIG, resolution=(16, 16))
        text = grid_to_csv(g, comments=(("normalization", "0.5"),))
        assert "# t = 0.25" in text
        assert "# alpha = 0.5" in text
        assert "# normalization = 0.5" in text

    def test_json_round_trips_row_major(self):
        g = wigner_grid(0.0, Z, FIG, resolution=(16, 24))
        doc = json.loads(grid_to_json(g))
        assert doc["meta"]["n_q"] == "16" and doc["meta"]["n_p"] == "24"
        assert doc["q_axis"] == [float(x) for x in g.q_axis]
        assert len(doc["values"]) == 16 * 24
        assert doc["values"][5 * 24 + 7] == g.values[5, 7]

    def test_emission_is_deterministic(self):
        g = wigner_grid(0.0, Z, FIG, resolution=(16, 16))
        assert grid_to_csv(g) == grid_to_csv(g)
        assert grid_to_json(g) == grid_to_json(g)
