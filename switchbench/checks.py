"""Output checkers, computed apart from the program, and their self-test.

Nothing here imports switchosc.  The references are the benchmark's own:

* Omega(t) evaluated from the switch profile,
* eps(t) integrated from eps'' + Omega^2 eps = 0 with scipy's DOP853, started
  from eps(0) = sqrt(1/omega + alpha), eps'(0) = i/eps(0), the value of the
  switch-window form at t = 0,
* properties the method must have: the Wronskian -2i, the determinant
  identity hbar^2/4, the conserved pair, a Wigner grid of mass one peaking at
  1/(pi*hbar) on its centre, cofluctuation zeros on the post-switch envelope
  extrema T + k*pi/(2*omega*sqrt(1-alpha*omega)) with squeeze ratios
  sqrt(1-alpha*omega)^(+-1).

Each checker raises :class:`CheckError` on the first violation and returns
the operation's units of work.  The self-test rewrites correct outputs into
the variant forms that circulate and requires each checker to reject them.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
from scipy.integrate import solve_ivp

from workloads import KNOWN_FAULT_STDERR, Op

EPS_TOL = 1e-7  # closed form vs reference integration, relative to the scale


class CheckError(AssertionError):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _as_bool(v) -> bool:
    return v is True or v == "true"


# -- references ---------------------------------------------------------------

def omega_ref(t, alpha: float, omega: float) -> np.ndarray:
    """Switched frequency: cos^2(omega*t) held at 1 before and 0 after the switch."""
    t = np.asarray(t, dtype=float)
    aw = alpha * omega
    c2 = np.where(t < 0.0, 1.0, np.where(t <= math.pi / (2.0 * omega), np.cos(omega * t) ** 2, 0.0))
    return omega * np.sqrt(1.0 - aw / (1.0 + aw * c2) ** 2)


def eps_ref(ts, alpha: float, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """(eps, eps_dot) at the increasing times ``ts`` by independent integration.

    Integrates outward from t = 0 and restarts at the switch end, where
    Omega^2 has a kink.
    """
    ts = np.asarray(ts, dtype=float)
    aw = alpha * omega
    t_sw = math.pi / (2.0 * omega)

    def rhs(t, y):
        c2 = 1.0 if t < 0.0 else (math.cos(omega * t) ** 2 if t <= t_sw else 0.0)
        w2 = omega * omega * (1.0 - aw / (1.0 + aw * c2) ** 2)
        return [y[2], y[3], -w2 * y[0], -w2 * y[1]]

    def integrate(t_start, y_start, targets):
        sol = solve_ivp(rhs, (t_start, targets[-1]), y_start, method="DOP853",
                        rtol=1e-12, atol=1e-13, t_eval=targets)
        require(sol.success, f"reference integration failed: {sol.message}")
        return sol.y.T

    s0 = math.sqrt(1.0 / omega + alpha)
    y0 = np.array([s0, 0.0, 0.0, 1.0 / s0])
    out = np.tile(y0, (len(ts), 1))
    neg, inside, after = ts < 0.0, (ts > 0.0) & (ts <= t_sw), ts > t_sw
    if neg.any():
        out[neg] = integrate(0.0, y0, ts[neg][::-1])[::-1]
    if inside.any() or after.any():
        targets = ts[inside]
        if after.any() and (targets.size == 0 or targets[-1] != t_sw):
            targets = np.append(targets, t_sw)
        states = integrate(0.0, y0, targets)
        out[inside] = states[: inside.sum()]
        if after.any():
            out[after] = integrate(t_sw, states[-1], ts[after])
    return out[:, 0] + 1j * out[:, 1], out[:, 2] + 1j * out[:, 3]


def scan_events(op: Op, t_lo: float, t_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Envelope extrema T + k*s strictly inside (t_lo, t_hi), and their k."""
    s = math.pi / (2.0 * op.omega * math.sqrt(1.0 - op.aw))
    edge = 1e-6 * s
    k = np.arange(math.floor((t_lo - op.t_switch) / s), math.ceil((t_hi - op.t_switch) / s) + 1)
    t = op.t_switch + k * s
    keep = (t - t_lo > edge) & (t_hi - t > edge)
    return t[keep], k[keep]


def expected_sq_ratio(op: Op, k) -> np.ndarray:
    """m*Omega*sigma_q^2/(hbar/2) = Omega*|eps|^2 at the extrema: alternates by k."""
    root = math.sqrt(1.0 - op.aw)
    return np.where(np.asarray(k) % 2 == 0, root, 1.0 / root)


# -- parsing ------------------------------------------------------------------

def parse_table(text: str, fmt: str) -> tuple[dict, list[str], np.ndarray]:
    if fmt == "json":
        doc = json.loads(text)
        meta = dict(doc["config"])
        meta.update({k: v for k, v in doc.items() if k not in ("config", "columns", "rows")})
        cols = doc["columns"]
        rows = np.array(doc["rows"], dtype=float).reshape(-1, len(cols))
        return meta, cols, rows
    lines = text.splitlines()
    meta = {}
    i = 0
    while lines[i].startswith("#"):
        key, _, value = lines[i][1:].partition("=")
        meta[key.strip()] = value.strip()
        i += 1
    cols = lines[i].split(",")
    body = "\n".join(lines[i + 1:])
    rows = (np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2) if body
            else np.empty((0, len(cols))))
    return meta, cols, rows


def rewrite_table(text: str, fmt: str, rows: np.ndarray) -> str:
    if fmt == "json":
        doc = json.loads(text)
        doc["rows"] = rows.tolist()
        return json.dumps(doc, separators=(",", ":")) + "\n"
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    head.append(lines[len(head)])
    return "\n".join(head + [",".join(repr(float(v)) for v in r) for r in rows]) + "\n"


def parse_grid(text: str, fmt: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if fmt == "json":
        doc = json.loads(text)
        q, p = np.array(doc["q_axis"]), np.array(doc["p_axis"])
        return q, p, np.array(doc["values"], dtype=float).reshape(len(q), len(p))
    meta, cols, rows = parse_table(text, "csv")
    require(cols == ["q", "p", "w"], f"grid columns {cols}")
    n_q, n_p = int(meta["n_q"]), int(meta["n_p"])
    require(rows.shape == (n_q * n_p, 3), f"grid CSV has {rows.shape[0]} rows for {n_q}x{n_p}")
    qq, pp = rows[:, 0].reshape(n_q, n_p), rows[:, 1].reshape(n_q, n_p)
    require(np.all(qq == qq[:, :1]) and np.all(pp == pp[:1, :]), "grid CSV is not q-major")
    return qq[:, 0], pp[0, :], rows[:, 2].reshape(n_q, n_p)


def rewrite_grid(text: str, fmt: str, values: np.ndarray) -> str:
    if fmt == "json":
        doc = json.loads(text)
        doc["values"] = values.ravel().tolist()
        return json.dumps(doc, separators=(",", ":")) + "\n"
    _, _, rows = parse_table(text, "csv")
    rows[:, 2] = values.ravel()
    return rewrite_table(text, "csv", rows)


# -- checkers -----------------------------------------------------------------

def _check_config(op: Op, meta: dict, keys) -> None:
    want = {"alpha": op.alpha, "omega": op.omega, "mass": op.mass, "hbar": op.hbar,
            "z_re": op.z.real, "z_im": op.z.imag, "t0": op.t0, "t1": op.t1,
            "samples": op.samples, "t": op.t, "n_sigma": op.n_sigma, "grid_n": op.grid_n}
    for k in keys:
        require(float(meta[k]) == want[k], f"config {k} = {meta[k]!r}, expected {want[k]!r}")


def _check_times(op: Op, t: np.ndarray) -> None:
    junctions = [x for x in (0.0, op.t_switch) if op.t0 < x < op.t1]
    require(t[0] == op.t0 and t[-1] == op.t1, f"time column spans [{t[0]}, {t[-1]}]")
    require(np.all(np.diff(t) > 0.0), "time column is not increasing")
    require(op.samples <= len(t) <= op.samples + len(junctions), f"{len(t)} rows")
    for x in junctions:
        require(np.min(np.abs(t - x)) <= 1e-12, f"junction {x} not sampled")


def _ref_at_sampled_rows(op: Op, t: np.ndarray):
    idx = np.unique(np.linspace(0, len(t) - 1, 41).round().astype(int))
    eps, eps_dot = eps_ref(t[idx], op.alpha, op.omega)
    return idx, eps, eps_dot


def _near(got, want, scale, what: str) -> None:
    err = np.abs(np.asarray(got) - np.asarray(want))
    bad = ~(err <= EPS_TOL * (1.0 + np.asarray(scale)))
    require(not bad.any(), f"{what} differs from the reference integration by {err.max():.3g}")


def check_profile(op: Op, meta, cols, rows) -> None:
    require(cols == ["t", "omega"], f"columns {cols}")
    w = omega_ref(rows[:, 0], op.alpha, op.omega)
    require(np.all(np.abs(rows[:, 1] - w) <= 1e-12 * w), "omega differs from Omega(t)")


def check_epsilon(op: Op, meta, cols, rows) -> None:
    require(cols == ["t", "eps_re", "eps_im", "eps_dot_re", "eps_dot_im", "eps_abs",
                     "wronskian_residual"], f"columns {cols}")
    t, a, b, c, d = rows[:, :5].T
    # eps*conj(eps_dot) - eps_dot*conj(eps) = 2i*(b*c - a*d) = -2i
    require(np.all(np.abs(a * d - b * c - 1.0) <= 1e-9), "Wronskian is not -2i")
    require(np.all(np.abs(rows[:, 5] - np.hypot(a, b)) <= 1e-12 * rows[:, 5]), "eps_abs != |eps|")
    require(np.all(rows[:, 6] <= 1e-9), "wronskian_residual above 1e-9")
    idx, eps, eps_dot = _ref_at_sampled_rows(op, t)
    _near(a[idx] + 1j * b[idx], eps, np.abs(eps), "eps")
    _near(c[idx] + 1j * d[idx], eps_dot, np.abs(eps_dot), "eps_dot")


def _conserved_pair(op: Op) -> tuple[float, float]:
    # (Q0, P0) at t = 0, where eps is real and eps_dot imaginary
    w0 = float(omega_ref(0.0, op.alpha, op.omega))
    return (math.sqrt(2.0 * op.hbar / op.mass) * op.z.real / math.sqrt(w0),
            math.sqrt(2.0 * op.hbar * op.mass) * op.z.imag * math.sqrt(w0))


def check_phase_diagram(op: Op, meta, cols, rows) -> None:
    require(cols == ["t", "q_mean", "p_mean", "q0", "p0"], f"columns {cols}")
    t, q, p, q0, p0 = rows.T
    want_q0, want_p0 = _conserved_pair(op)
    require(np.all(np.abs(q0 - want_q0) <= 1e-9 * (1.0 + abs(want_q0))), "q0 is not the conserved value")
    require(np.all(np.abs(p0 - want_p0) <= 1e-9 * (1.0 + abs(want_p0))), "p0 is not the conserved value")
    idx, eps, eps_dot = _ref_at_sampled_rows(op, t)
    zc = op.z.conjugate()
    sq, sp = math.sqrt(op.hbar / (2.0 * op.mass)), math.sqrt(op.hbar * op.mass / 2.0)
    _near(q[idx], sq * 2.0 * (eps * zc).real, 2.0 * sq * abs(op.z) * np.abs(eps), "q_mean")
    _near(p[idx], sp * 2.0 * (eps_dot * zc).real, 2.0 * sp * abs(op.z) * np.abs(eps_dot), "p_mean")


def check_moments(op: Op, meta, cols, rows) -> None:
    require(cols == ["t", "sigma_q2", "sigma_p2", "c_qp", "det_residual", "omega"], f"columns {cols}")
    t, sq2, sp2, cqp, det_res, w = rows.T
    quarter = 0.25 * op.hbar * op.hbar
    scale = np.maximum(quarter, sq2 * sp2)
    require(np.all(np.abs(sq2 * sp2 - cqp * cqp - quarter) <= 1e-9 * scale),
            "sigma_q2*sigma_p2 - c_qp^2 != hbar^2/4")
    require(np.all(det_res <= 1e-9 * scale), "det_residual above 1e-9")
    wr = omega_ref(t, op.alpha, op.omega)
    require(np.all(np.abs(w - wr) <= 1e-12 * wr), "omega differs from Omega(t)")
    idx, eps, eps_dot = _ref_at_sampled_rows(op, t)
    h, m = op.hbar, op.mass
    _near(sq2[idx], h * np.abs(eps) ** 2 / (2.0 * m), h * np.abs(eps) ** 2, "sigma_q2")
    _near(sp2[idx], 0.5 * h * m * np.abs(eps_dot) ** 2, h * m * np.abs(eps_dot) ** 2, "sigma_p2")
    _near(cqp[idx], 0.5 * h * (eps.conjugate() * eps_dot).real, h * np.abs(eps * eps_dot), "c_qp")


def check_coherence(op: Op, meta, cols, rows) -> None:
    require(cols == ["t", "sq_ratio", "sp_ratio", "c_qp", "t_predicted", "offset"], f"columns {cols}")
    if op.aw == 0.0:
        require(_as_bool(meta["always_coherent"]) and rows.shape[0] == 0, "static scan not degenerate")
        for k in ("uniform_sq_ratio", "uniform_sp_ratio"):
            require(abs(float(meta[k]) - 1.0) <= 1e-12, f"{k} = {meta[k]} for a static frequency")
        return
    require(not _as_bool(meta["always_coherent"]), "always_coherent with a switched frequency")
    t_want, k = scan_events(op, op.t0, op.t1)
    require(rows.shape[0] == len(t_want), f"{rows.shape[0]} events, expected {len(t_want)}")
    t, sq, sp, cqp = rows[:, :4].T
    require(np.all(np.abs(t - t_want) <= 1e-9 * (1.0 + np.abs(t_want))),
            "events off the envelope extrema T + k*pi/(2*omega*sqrt(1-alpha*omega))")
    require(np.all(np.abs(sq - expected_sq_ratio(op, k)) <= 1e-9), "sq_ratio != sqrt(1-alpha*omega)^(+-1)")
    require(np.all(np.abs(sq * sp - 1.0) <= 1e-9), "sq_ratio*sp_ratio != 1 at a cofluctuation zero")
    require(np.all(np.abs(cqp) <= 1e-8 * op.hbar), "c_qp does not vanish at the events")


TABLE_CHECKS = {"profile": check_profile, "epsilon": check_epsilon,
                "phase-diagram": check_phase_diagram, "moments": check_moments}


def check_wigner(op: Op, text: str, stdout: str) -> int:
    q, p, w = parse_grid(text, op.fmt)
    n = op.grid_n
    require(w.shape == (n, n), f"grid shape {w.shape}")
    require(np.all(np.isfinite(w)) and np.all(w >= 0.0), "grid has negative or non-finite values")
    mass = np.trapezoid(np.trapezoid(w, p, axis=1), q)
    require(abs(mass - 1.0) <= 1e-6, f"grid mass {mass!r} is not 1")
    c = n // 2
    peak = 1.0 / (math.pi * op.hbar)
    require(np.unravel_index(np.argmax(w), w.shape) == (c, c), "peak is not at the grid centre")
    require(abs(w[c, c] - peak) <= 1e-9 * peak, f"peak {w[c, c]!r} != 1/(pi*hbar) = {peak!r}")
    eps, eps_dot = eps_ref([op.t], op.alpha, op.omega)
    zc = op.z.conjugate()
    sq, sp = math.sqrt(op.hbar / (2.0 * op.mass)), math.sqrt(op.hbar * op.mass / 2.0)
    _near(q[c], sq * 2.0 * (eps * zc).real, 2.0 * sq * abs(op.z) * np.abs(eps), "grid centre q")
    _near(p[c], sp * 2.0 * (eps_dot * zc).real, 2.0 * sp * abs(op.z) * np.abs(eps_dot), "grid centre p")
    _near(0.5 * (q[-1] - q[0]), op.n_sigma * sq * np.abs(eps), op.n_sigma * sq * np.abs(eps), "q half width")
    _near(0.5 * (p[-1] - p[0]), op.n_sigma * sp * np.abs(eps_dot), op.n_sigma * sp * np.abs(eps_dot),
          "p half width")
    key, _, value = stdout.strip().partition(" = ")
    require(key == "normalization" and abs(float(value) - 1.0) <= 1e-6, f"stdout {stdout!r}")
    return n * n


def check_validate(op: Op, text: str) -> float:
    doc = json.loads(text)
    _check_config(op, doc["config"], ("alpha", "omega", "mass", "hbar", "z_re", "z_im", "t0", "t1"))
    checks = {c["name"]: c for c in doc["checks"]}
    require(set(checks) == {"post_switch_phase_constant", "switching_derivative_sin_factor",
                            "phase_space_normalization_prefactor", "coherent_instants"},
            f"checks {sorted(checks)}")
    for c in checks.values():
        require("inconclusive" not in c["verdict"], f"{c['name']}: {c['verdict']}")
    aw, root = op.aw, math.sqrt(1.0 + op.aw)

    c = checks["post_switch_phase_constant"]
    phase = math.pi / (2.0 * root)
    require(abs(c["computed_value"] - phase) <= 1e-12, f"junction phase {c['computed_value']!r} != {phase!r}")
    require(abs(c["reference_value"] - 2.0 * phase) <= 1e-12, "reference phase is not pi/sqrt(1+alpha*omega)")
    require(abs(c["evidence"]["phase_integral_quadrature"] - phase) <= 1e-10, "quadrature phase")
    if op.t1 > op.t_switch:
        require(c["evidence"]["ode_max_error_computed"] < 1e-6, "closed form off the integration")

    c = checks["switching_derivative_sin_factor"]
    require(abs(c["computed_value"] - 0.5 * aw) <= 1e-15, f"sin factor {c['computed_value']!r} != aw/2")
    require(abs(c["reference_value"] - aw) <= 1e-15, "reference sin factor is not alpha*omega")
    if aw > 0.0:
        require(c["evidence"]["fd_error_computed"] < 1e-6, "finite differences disagree")

    c = checks["phase_space_normalization_prefactor"]
    pref = 1.0 / (math.pi * op.hbar)
    require(abs(c["computed_value"] - pref) <= 1e-12 * pref, f"prefactor {c['computed_value']!r}")
    require(abs(c["evidence"]["grid_integral_computed"] - 1.0) <= 1e-5, "grid mass is not 1")

    c = checks["coherent_instants"]["evidence"]
    if aw == 0.0:
        require(c["always_coherent"] is True, "static frequency not flagged always coherent")
        require(abs(c["uniform_sq_ratio"] - 1.0) <= 1e-12 and abs(c["uniform_sp_ratio"] - 1.0) <= 1e-12,
                "static squeeze ratios are not 1")
    else:
        s = math.pi / (2.0 * op.omega * math.sqrt(1.0 - aw))
        t_want, k = scan_events(op, op.t_switch, op.t_switch + 12.0 * s)
        got = np.array(c["events_t"])
        require(got.shape == t_want.shape and np.all(np.abs(got - t_want) <= 1e-9 * (1.0 + t_want)),
                "events off the envelope extrema")
        require(np.all(np.abs(np.array(c["found_spacing"]) - s) <= 1e-9 * s), "event spacing")
        require(abs(c["envelope_spacing"] - s) <= 1e-12 * s, "envelope spacing")
        require(np.all(np.abs(np.array(c["sq_ratios"]) - expected_sq_ratio(op, k)) <= 1e-9), "sq_ratios")
    return op.t1 - op.t0


def check_op(op: Op, rc: int, text: str | None, stdout: str, stderr: str) -> tuple[float, int]:
    """Check one operation's result; returns (units of work, table rows written)."""
    if op.known_fault and rc != 0:
        require(rc == 1 and stderr == KNOWN_FAULT_STDERR and text is None,
                f"known fault: rc={rc} stderr={stderr!r}")
        return 0.0, 0
    require(rc == 0 and stderr == "" and text is not None, f"rc={rc} stderr={stderr!r}")
    if op.command == "wigner":
        return float(check_wigner(op, text, stdout)), 0
    if op.command == "validate":
        return check_validate(op, text), 0
    meta, cols, rows = parse_table(text, op.fmt)
    keys = ("alpha", "omega", "mass", "hbar", "z_re", "z_im", "t0", "t1")
    if op.command == "coherence":
        _check_config(op, meta, keys)
        check_coherence(op, meta, cols, rows)
        return op.t1 - op.t0, rows.shape[0]
    _check_config(op, meta, (*keys, "samples"))
    _check_times(op, rows[:, 0])
    TABLE_CHECKS[op.command](op, meta, cols, rows)
    return float(rows.shape[0]), rows.shape[0]


# -- self-test: circulating variants ------------------------------------------

def _rotate_after_switch(op: Op, text: str) -> str:
    """Post-switch phase constant pi/sqrt(1+aw) in place of pi/(2*sqrt(1+aw))."""
    meta, cols, rows = parse_table(text, op.fmt)
    root = math.sqrt(1.0 + op.aw)
    rot = np.exp(1j * (math.pi / root - 0.5 * math.pi / root))
    after = rows[:, 0] > op.t_switch
    for re, im in ((1, 2), (3, 4)):
        z = (rows[after, re] + 1j * rows[after, im]) * rot
        rows[after, re], rows[after, im] = z.real, z.imag
    return rewrite_table(text, op.fmt, rows)


def _full_sin_factor(op: Op, text: str) -> str:
    """Factor alpha*omega in front of sin(2*omega*t) in place of alpha*omega/2."""
    meta, cols, rows = parse_table(text, op.fmt)
    t = rows[:, 0]
    win = (t >= 0.0) & (t <= op.t_switch)
    eps = rows[win, 1] + 1j * rows[win, 2]
    delta = -0.5 * op.aw * np.sin(2.0 * op.omega * t[win]) * eps / np.abs(eps) ** 2
    rows[win, 3] += delta.real
    rows[win, 4] += delta.imag
    return rewrite_table(text, op.fmt, rows)


def _double_prefactor(op: Op, text: str) -> str:
    """Wigner prefactor 2/(pi*hbar) in place of 1/(pi*hbar)."""
    return rewrite_grid(text, op.fmt, 2.0 * parse_grid(text, op.fmt)[2])


def _report_value(name: str, value):
    """A validate report whose check ``name`` adopts ``value(op)`` instead."""
    def variant(op: Op, text: str) -> str:
        doc = json.loads(text)
        for c in doc["checks"]:
            if c["name"] == name:
                c["computed_value"] = value(op)
        return json.dumps(doc, separators=(",", ":")) + "\n"
    return variant


def _unit_ratios(op: Op, text: str) -> str:
    """Strictly coherent instants: both squeeze ratios one."""
    meta, cols, rows = parse_table(text, op.fmt)
    rows[:, 1] = rows[:, 2] = 1.0
    return rewrite_table(text, op.fmt, rows)


def _crosses(op: Op) -> bool:
    return op.t0 < 0.0 and op.t1 > op.t_switch


VARIANTS = (
    # (checker, variant name, applies to, rewrite)
    ("tables", "post-switch phase pi/sqrt(1+aw)",
     lambda op: op.command == "epsilon" and op.t1 > op.t_switch, _rotate_after_switch),
    ("tables", "aw*sin(2wt) derivative factor",
     lambda op: op.command == "epsilon" and _crosses(op) and op.aw > 0.0, _full_sin_factor),
    ("grid", "Wigner prefactor 2/(pi*hbar)", lambda op: op.command == "wigner", _double_prefactor),
    ("oracle", "post-switch phase pi/sqrt(1+aw)", lambda op: op.command == "validate",
     _report_value("post_switch_phase_constant", lambda op: math.pi / math.sqrt(1.0 + op.aw))),
    ("oracle", "aw*sin(2wt) derivative factor", lambda op: op.command == "validate" and op.aw > 0.0,
     _report_value("switching_derivative_sin_factor", lambda op: op.aw)),
    ("oracle", "Wigner prefactor 2/(pi*hbar)", lambda op: op.command == "validate",
     _report_value("phase_space_normalization_prefactor", lambda op: 2.0 / (math.pi * op.hbar))),
    ("oracle", "strictly coherent ratios 1",
     lambda op: op.command == "coherence" and not op.known_fault and op.aw > 0.0, _unit_ratios),
)


def selftest(workload: str, results: list[tuple[Op, str, str]]) -> list[str]:
    """Apply every variant of ``workload`` to a correct output; returns failures."""
    failures = []
    for checker, name, applies, rewrite in VARIANTS:
        if checker != workload:
            continue
        target = next(((op, text, out) for op, text, out in results if applies(op)), None)
        if target is None:
            failures.append(f"{name}: no operation to apply it to")
            continue
        op, text, out = target
        try:
            check_op(op, 0, rewrite(op, text), out, "")
        except CheckError:
            continue
        failures.append(f"{name}: accepted by the {checker} checker (slot {op.slot})")
    return failures
