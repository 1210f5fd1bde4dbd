"""Acceptance gate: each numbered criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  Default configuration throughout: m=1, hbar=1, alpha=0.5,
omega=1, z=1+0.2i.
"""

import cmath
import json
import math
import time

import numpy as np

from switchosc import (
    OscParams,
    coherence_scan,
    conserved_pair,
    epsilon,
    first_moments,
    grid_integral,
    grid_moments,
    integrate_ode,
    invariant_coefficients,
    omega_of,
    second_moments,
    wigner_grid,
    wigner_value,
    wronskian,
)
from switchosc.classical import _eps_after, _eps_before, _eps_switching
from switchosc.cli import main as cli_main

FIG = OscParams()
Z = 1.0 + 0.2j
T_LO, T_HI = -5.0, 10.0
TJ = FIG.switch_end


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")


def _times(n: int) -> list[float]:
    pts = [T_LO + (T_HI - T_LO) * i / (n - 1) for i in range(n)]
    pts[-1] = T_HI
    return pts


def test_criterion_01_oracle_equivalence(tmp_path):
    # compared at every accepted step of the oracle
    start = epsilon(T_LO, FIG)
    tic = time.perf_counter()
    traj = integrate_ode(FIG, T_LO, T_HI, (start.eps, start.eps_dot), tol=1e-11)
    elapsed = time.perf_counter() - tic
    err = 0.0
    err_alt = 0.0
    # alternate post-switch phase constant (twice the continuity value)
    rot = cmath.exp(1j * (math.pi / math.sqrt(1.5) - FIG.junction_phase))
    for t, e in zip(traj.times, traj.eps):
        exact = epsilon(float(t), FIG).eps
        err = max(err, abs(exact - e))
        err_alt = max(err_alt, abs((exact * rot if t > TJ else exact) - e))

    out = tmp_path / "report.json"
    code = cli_main(["validate", "--format", "json", "--out", str(out)])
    report = json.loads(out.read_text())
    phase = {c["name"]: c for c in report["checks"]}["post_switch_phase_constant"]

    ok = (
        err < 1e-8
        and err_alt > 1e-1
        and elapsed < 5.0
        and code == 0
        and phase["evidence"]["ode_max_error_computed"] < 1e-11
        and phase["evidence"]["ode_max_error_reference"] > 1e-1
    )
    _report(1, "oracle equivalence", ok)
    assert err < 1e-8, f"analytic vs RK max error {err}"
    assert err_alt > 1e-1, f"alternate phase constant should visibly fail, got {err_alt}"
    assert elapsed < 5.0, f"oracle run took {elapsed:.2f}s"
    assert code == 0
    assert phase["evidence"]["ode_max_error_computed"] < 1e-11
    assert phase["evidence"]["ode_max_error_reference"] > 1e-1


def test_criterion_02_wronskian_conservation():
    worst = max(abs(wronskian(epsilon(t, FIG)) + 2j) for t in _times(1000))
    ok = worst < 1e-10
    _report(2, "Wronskian conservation", ok)
    assert worst < 1e-10, f"max |D_W + 2i| = {worst}"


def test_criterion_03_junction_continuity():
    gaps = []
    left, right = _eps_before(0.0, FIG), _eps_switching(0.0, FIG)
    gaps += [abs(left.eps - right.eps), abs(left.eps_dot - right.eps_dot)]
    left, right = _eps_switching(TJ, FIG), _eps_after(TJ, FIG)
    gaps += [abs(left.eps - right.eps), abs(left.eps_dot - right.eps_dot)]
    ok = max(gaps) < 1e-10
    _report(3, "C1 junction continuity", ok)
    assert max(gaps) < 1e-10, f"one-sided junction gaps {gaps}"


def test_criterion_04_determinant_identity():
    hb4 = 0.25 * FIG.hbar**2
    worst = max(
        abs(c.sq2 * c.sp2 - c.cqp**2 - hb4) for c in (second_moments(t, FIG) for t in _times(1000))
    )
    ok = worst < 1e-10
    _report(4, "determinant identity", ok)
    assert worst < 1e-10, f"max determinant residual {worst}"


def test_criterion_05_commutator_identity():
    worst = max(
        abs(abs(c.u) ** 2 - abs(c.v) ** 2 - 1.0)
        for c in (invariant_coefficients(t, FIG) for t in _times(1000))
    )
    ok = worst < 1e-12
    _report(5, "commutator identity", ok)
    assert worst < 1e-12, f"max |u|^2-|v|^2-1 = {worst}"


def test_criterion_06_conserved_pair():
    pairs = [conserved_pair(Z, t, FIG) for t in _times(500)]
    q0 = np.array([a for a, _ in pairs])
    p0 = np.array([b for _, b in pairs])
    rel_q = float(np.std(q0) / abs(np.mean(q0)))
    rel_p = float(np.std(p0) / abs(np.mean(p0)))
    ok = rel_q < 1e-9 and rel_p < 1e-9
    _report(6, "conserved pair", ok)
    assert rel_q < 1e-9, f"relative stddev of Q0 = {rel_q}"
    assert rel_p < 1e-9, f"relative stddev of P0 = {rel_p}"


def test_criterion_07_ideal_squeezed_start():
    cov = second_moments(0.0, FIG)
    ok = abs(cov.cqp) < 1e-12 and abs(cov.sq2 - 0.75) < 1e-12 and abs(cov.sp2 - 1.0 / 3.0) < 1e-12
    _report(7, "ideal squeezed state at t=0", ok)
    assert abs(cov.cqp) < 1e-12
    assert abs(cov.sq2 - 0.75) < 1e-12
    assert abs(cov.sp2 - 1.0 / 3.0) < 1e-12


def test_criterion_08_ellipse_closure():
    gaps = []
    for t_start, w in ((-2.0 * math.pi / omega_of(-1.0, FIG) - 0.25, omega_of(-1.0, FIG)),
                       (2.0, omega_of(5.0, FIG))):
        period = 2.0 * math.pi / w
        a = first_moments(Z, t_start, FIG)
        b = first_moments(Z, t_start + period, FIG)
        gaps += [abs(a.q_mean - b.q_mean), abs(a.p_mean - b.p_mean)]
    ok = max(gaps) < 1e-6
    _report(8, "ellipse closure", ok)
    assert max(gaps) < 1e-6, f"orbit closure gaps {gaps}"


def test_criterion_09_wigner_grid():
    grid = wigner_grid(0.0, Z, FIG, half_widths=(6.0, 6.0), resolution=(256, 256))
    integral = grid_integral(grid)
    fm_grid, cov_grid = grid_moments(grid)
    fm = first_moments(Z, 0.0, FIG)
    cov = second_moments(0.0, FIG)
    peak = wigner_value(fm.q_mean, fm.p_mean, fm, cov, FIG.hbar)
    norm_ok = abs(integral - 1.0) <= 1e-6
    moments_ok = (
        abs(fm_grid.q_mean - fm.q_mean) <= 1e-4 * abs(fm.q_mean)
        and abs(fm_grid.p_mean - fm.p_mean) <= 1e-4 * abs(fm.p_mean)
        and abs(cov_grid.sq2 - cov.sq2) <= 1e-4 * cov.sq2
        and abs(cov_grid.sp2 - cov.sp2) <= 1e-4 * cov.sp2
        and abs(cov_grid.cqp - cov.cqp) <= 1e-4
    )
    peak_ok = abs(peak - 1.0 / (math.pi * FIG.hbar)) <= 1e-9
    ok = norm_ok and moments_ok and peak_ok
    _report(9, "phase-space normalization and moment closure", ok)
    assert norm_ok, f"grid integral {integral}"
    assert moments_ok, f"grid moments {fm_grid}, {cov_grid}"
    assert peak_ok, f"peak value {peak}"


def test_criterion_10_coherence_scan():
    aw = FIG.alpha * FIG.omega
    spacing = math.pi / (2.0 * FIG.omega * math.sqrt(1.0 - aw))
    scan = coherence_scan(FIG, TJ, TJ + 3.0 * 2.0 * math.pi / (FIG.omega * math.sqrt(1.0 - aw)))
    times = scan.t.tolist()
    spacing_ok = len(times) >= 4 and all(
        abs((b - a) - spacing) < 1e-9 for a, b in zip(times, times[1:])
    )
    hb4 = 0.25 * FIG.hbar**2
    det_ok = all(
        abs(c.sq2 * c.sp2 - c.cqp**2 - hb4) < 1e-10
        for c in (second_moments(t, FIG) for t in times)
    )
    ratios = sorted({round(r, 9) for r in scan.sq_ratio.tolist()})
    offsets = scan.offset.tolist()
    ok = spacing_ok and det_ok and not scan.always_coherent
    _report(10, "coherence scan", ok)
    print(f"[acceptance]   measured squeeze ratios: {ratios} "
          f"(expected ~[{math.sqrt(1 - aw):.10f}, {1 / math.sqrt(1 - aw):.10f}]); "
          f"offsets to the reference instants: min={min(offsets):.3e}, max={max(offsets):.3e}")
    assert spacing_ok, f"zero spacing off: {times}"
    assert det_ok


def test_criterion_11_stationary_limit():
    worst = 0.0
    for p in (OscParams(alpha=0.0), OscParams(alpha=0.0, m=2.5, omega=0.8, hbar=1.5)):
        for t in (-4.0, -1.0, 0.0, 0.3, 2.0, 9.0):
            worst = max(worst, abs(omega_of(t, p) - p.omega))
            cov = second_moments(t, p)
            worst = max(worst, abs(cov.sq2 - p.hbar / (2.0 * p.m * p.omega)))
            worst = max(worst, abs(cov.sp2 - p.hbar * p.m * p.omega / 2.0))
            worst = max(worst, abs(cov.cqp))
    ok = worst < 1e-12
    _report(11, "stationary limit", ok)
    assert worst < 1e-12, f"largest deviation from the textbook oscillator: {worst}"


def test_criterion_12_determinism(tmp_path, capsys):
    fast = ["--samples", "41", "--t0", "-2", "--t1", "4"]
    invocations = [
        ["profile", *fast],
        ["epsilon", *fast],
        ["phase-diagram", *fast],
        ["moments", *fast],
        ["wigner", "--grid-n", "32"],
        ["coherence"],
        ["validate", "--format", "json"],
    ]
    all_ok = True
    for args in invocations:
        outputs = []
        for run_id in (0, 1):
            out_file = tmp_path / f"{args[0]}-{run_id}.out"
            code = cli_main([*args, "--out", str(out_file)])
            captured = capsys.readouterr()
            assert code == 0, f"{args} exited {code}"
            outputs.append((out_file.read_bytes(), captured.out))
        if outputs[0] != outputs[1]:
            all_ok = False
        assert outputs[0][0] == outputs[1][0], f"{args}: file output differs between runs"
        assert outputs[0][1] == outputs[1][1], f"{args}: stdout differs between runs"
    _report(12, "byte-identical reruns", all_ok)
    assert all_ok
