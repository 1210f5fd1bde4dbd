"""Command line surface: reproducible tables and grids, plus a validation report.

Every subcommand emits CSV (default) or JSON with the full run configuration
embedded, using shortest round-trip float formatting, so identical
configurations produce byte-identical output.

Exit codes: 0 success, 1 computation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .classical import amplitude, modulus, wronskian_of
from .emit import csv_pieces, format_float, format_value, json_pieces, table_chunks
from .errors import DomainError, RangeError, SwitchOscError
from .frequency import OscParams, omega_profile, require_resolved
from .numerics import derivative, find_root, flat_flow, integrate_ode, quadrature
from .quantum import (MAX_SAMPLES, coherence_scan, conserved_pair_of, first_moments_of, interior,
                      scan_window, second_moments_of)
from .wigner import grid_csv_pieces, grid_integral, grid_json_pieces, wigner_grid

# size caps, checked before anything is allocated; MAX_SAMPLES comes from quantum
MAX_GRID_N = 2048
# (key, type, default, help) of each run setting, in the order every output
# echoes them; _resolve_config sets the window (t0, t1) per command
_SETTINGS = (
    ("alpha", float, 0.5, "switch duration scale (time)"),
    ("omega", float, 1.0, "base frequency"),
    ("mass", float, 1.0, "oscillator mass"),
    ("hbar", float, 1.0, "action quantum"),
    ("z_re", float, 1.0, "Re of the state label z"),
    ("z_im", float, 0.2, "Im of the state label z"),
    ("t0", float, None, "start of the time range"),
    ("t1", float, None, "end of the time range"),
    ("samples", int, 601, f"number of uniform samples (2 to {MAX_SAMPLES})"),
    ("format", str, "csv", "output format: csv or json"),
    ("t", float, 0.0, "evaluation instant for the phase-space grid"),
    ("n_sigma", float, 6.0, "grid half-width in standard deviations (>= 3)"),
    ("grid_n", int, 128, f"grid points per axis (16 to {MAX_GRID_N})"),
)
# the type of each key a flag or the config file may set; the output path is not echoed
_TYPES = {key: typ for key, typ, _, _ in _SETTINGS} | {"out": str}
# the type of each long flag of a subcommand, as _build_parser defines them; --help takes no value
_FLAG_TYPES = {**{"--" + key.replace("_", "-"): typ for key, typ in _TYPES.items()},
               "--config": str, "--help": None}
# validate's oracle: the tolerance of its run over the switch window, the
# uniform instants of [t0, t1] at which the phase-constant check also compares
# it, and the cells of the grid that brackets the coherent instants. 97 is
# prime, so no inner node of that grid, which spans 12 envelope spacings,
# falls on a zero of the slope, where its sign is rounding noise
_ORACLE_TOL = 1e-11
_ORACLE_UNIFORM = 257
_INSTANT_CELLS = 97


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: flags take precedence over the config file, which
    takes precedence over ``_SETTINGS``. ``header`` holds the command and then each
    setting in the order outputs echo them; ``cfg.<key>`` reads a setting from it."""

    header: dict[str, object]
    params: OscParams
    z: complex
    out: str | None

    def __getattr__(self, key: str):
        try:
            return vars(self)["header"][key]
        except KeyError:
            raise AttributeError(key) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged, so one instance serves every
    :func:`main` call in a process. Flag values stay strings here, so that
    :func:`_convert` reads them as it reads the config file.
    """
    common = argparse.ArgumentParser(add_help=False)
    for key, _, _, text in _SETTINGS:
        common.add_argument("--" + key.replace("_", "-"), help=text)
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--config", help="key=value config file; flags override it")

    parser = argparse.ArgumentParser(
        prog="switchosc",
        description="Exact evolution of a harmonic oscillator with a smoothly "
                    "switched frequency: classical amplitude, quantum moments, "
                    "phase-space distribution, and numerical cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _convert(key: str, typ: type, raw: str, where: str = ""):
    """``raw``, from a flag or from the config file at ``where``, as the ``typ`` of ``key``."""
    if not raw:
        raise DomainError(f"{where}{key} must not be empty")
    try:
        return typ(raw)
    except ValueError:
        article = "an" if typ is int else "a"
        raise DomainError(f"{where}{key} must be {article} {typ.__name__}, got {raw!r}") from None


def _read_config_file(path: str) -> dict[str, object]:
    vals: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _TYPES:
                raise DomainError(f"{path}:{ln}: expected '<key> = <value>' with a known key, got {raw.rstrip()!r}")
            vals[key] = _convert(key, _TYPES[key], value.strip(), f"{path}:{ln}: ")
    return vals


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    vals = {} if args.config is None else _read_config_file(_convert("config", str, args.config))
    for key, typ in _TYPES.items():
        if getattr(args, key) is not None:
            vals[key] = _convert(key, typ, getattr(args, key))
    s = {key: vals.get(key, default) for key, _, default, _ in _SETTINGS}
    params = OscParams(m=s["mass"], hbar=s["hbar"], alpha=s["alpha"], omega=s["omega"])
    z = complex(s["z_re"], s["z_im"])
    if not cmath.isfinite(z):
        raise DomainError(f"z_re and z_im must be finite, got z={z!r}")
    if s["format"] not in ("csv", "json"):
        raise DomainError(f"format must be 'csv' or 'json', got {s['format']!r}")
    samples = s["samples"]
    if samples < 2:
        raise DomainError(f"samples must be at least 2, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    if args.command == "coherence":
        t_j, t_end = scan_window(params)
        t0 = t_j if s["t0"] is None else s["t0"]
        t1 = t_end if s["t1"] is None else s["t1"]
        if t0 < t_j:
            raise DomainError(f"coherence scan must start at or after the switch end {t_j!r}, got t0={t0!r}")
    else:
        t0 = -5.0 if s["t0"] is None else s["t0"]
        t1 = 10.0 if s["t1"] is None else s["t1"]
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise DomainError(f"need finite t0 < t1, got t0={t0!r}, t1={t1!r}")
    if not math.isfinite(t1 - t0):
        raise DomainError(f"window length t1 - t0 must be finite, got t0={t0!r}, t1={t1!r}")
    t = s["t"]
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if args.command == "validate" and not params.final_frequency ** 2 >= sys.float_info.min:
        # the oracle steps eps'' = -Omega^2*eps, and Omega^2 is least after the switch
        raise DomainError(f"validate needs omega whose Omega^2 after the switch is a normal double "
                          f"(omega above about 1.5e-154), got omega={params.omega!r}")
    if args.command != "coherence":
        # the scan checks its own window against the post-switch frequency
        quarter = math.pi / (2.0 * params.initial_frequency)
        for name, value in (("t0", t0), ("t1", t1), ("t", t)):
            require_resolved(name, value, quarter)
    n_sigma, grid_n = s["n_sigma"], s["grid_n"]
    if not (n_sigma >= 3.0 and math.isfinite(n_sigma)):
        raise DomainError(f"n_sigma must be finite and at least 3, got {n_sigma!r}")
    if grid_n < 16:
        raise DomainError(f"grid_n must be at least 16, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise DomainError(f"grid_n must be at most {MAX_GRID_N}, got {grid_n}")
    # the resolved window replaces t0 and t1 in their places
    header = {"command": args.command, **s, "t0": t0, "t1": t1}
    return RunConfig(header=header, params=params, z=z, out=vals.get("out"))


def _write_text(pieces: Iterable[str], out: str | None) -> None:
    """Write one output, as pieces in order, to stdout or to the file ``out``."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)


def _require_finite(names: Sequence[str], columns) -> None:
    """Raise RangeError naming the first of ``columns`` (arrays, lists or floats) holding a NaN or an infinity."""
    for name, values in zip(names, columns):
        # math checks a float about 50 times faster than numpy, and a report holds dozens
        if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
            raise RangeError(f"output {name} is not finite: the parameters leave the range of doubles")


def _emit_table(cfg: RunConfig, columns: Sequence[str], rows: np.ndarray,
                extra: Sequence[tuple[str, object]] = ()) -> int:
    """Write the 2-D float array ``rows`` under ``columns``, after the ``extra`` items, as CSV or JSON."""
    floats = [(key, value) for key, value in extra if isinstance(value, float)]
    _require_finite((*columns, *(key for key, _ in floats)), (*rows.T, *(value for _, value in floats)))
    # the rows go out a block at a time, never held as one string
    if cfg.format == "csv":
        pieces = csv_pieces((*cfg.header.items(), *extra), ",".join(columns), table_chunks(rows, ",", "\n"))
    else:
        pieces = json_pieces({"config": cfg.header, **dict(extra), "columns": list(columns)}, [("rows", rows)])
    _write_text(pieces, cfg.out)
    return 0


def _sample_times(cfg: RunConfig) -> np.ndarray:
    # uniform closed grid plus the junction instants, so kinks are sampled
    # exactly; sorted and deduplicated by hand, as np.unique imports numpy.ma
    inner = [tj for tj in (0.0, cfg.params.switch_end) if cfg.t0 < tj < cfg.t1]
    ts = np.sort(np.concatenate((np.linspace(cfg.t0, cfg.t1, cfg.samples), inner)))
    return ts[np.append(True, np.diff(ts) > 0.0)]


def _cmd_profile(cfg: RunConfig) -> int:
    ts = _sample_times(cfg)
    return _emit_table(cfg, ("t", "omega"), np.column_stack((ts, omega_profile(ts, cfg.params))))


def _cmd_epsilon(cfg: RunConfig) -> int:
    ts = _sample_times(cfg)
    eps, eps_dot = amplitude(ts, cfg.params)
    rows = np.column_stack((ts, eps.real, eps.imag, eps_dot.real, eps_dot.imag,
                            modulus(eps), np.abs(wronskian_of(eps, eps_dot) + 2j)))
    cols = ("t", "eps_re", "eps_im", "eps_dot_re", "eps_dot_im", "eps_abs", "wronskian_residual")
    return _emit_table(cfg, cols, rows)


def _cmd_phase_diagram(cfg: RunConfig) -> int:
    ts = _sample_times(cfg)
    eps, eps_dot = amplitude(ts, cfg.params)
    q_mean, p_mean = first_moments_of(cfg.z, eps, eps_dot, cfg.params)
    q0, p0 = conserved_pair_of(cfg.z, eps, eps_dot, cfg.params)
    rows = np.column_stack((ts, q_mean, p_mean, q0, p0))
    return _emit_table(cfg, ("t", "q_mean", "p_mean", "q0", "p0"), rows)


def _cmd_moments(cfg: RunConfig) -> int:
    ts = _sample_times(cfg)
    sq2, sp2, cqp = second_moments_of(*amplitude(ts, cfg.params), cfg.params)
    hb2 = cfg.params.hbar * cfg.params.hbar
    det_res = np.abs(sq2 * sp2 - cqp * cqp - 0.25 * hb2)
    rows = np.column_stack((ts, sq2, sp2, cqp, det_res, omega_profile(ts, cfg.params)))
    cols = ("t", "sigma_q2", "sigma_p2", "c_qp", "det_residual", "omega")
    return _emit_table(cfg, cols, rows)


# run parameters that grid_csv_pieces and grid_json_pieces write themselves (mass as m)
_GRID_META_KEYS = frozenset({"t", "mass", "hbar", "alpha", "omega", "z_re", "z_im"})


def _cmd_wigner(cfg: RunConfig) -> int:
    grid = wigner_grid(cfg.t, cfg.z, cfg.params,
                       half_widths=(cfg.n_sigma, cfg.n_sigma),
                       resolution=(cfg.grid_n, cfg.grid_n))
    _require_finite(("q", "p", "w"), (grid.q_axis, grid.p_axis, grid.values))
    norm = grid_integral(grid)
    extra = [(k, format_value(v)) for k, v in cfg.header.items() if k not in _GRID_META_KEYS]
    extra.append(("normalization", format_float(norm)))
    # the grid goes out a block at a time, never held as one string
    pieces = (grid_csv_pieces(grid, comments=tuple(extra)) if cfg.format == "csv"
              else grid_json_pieces(grid, extra_meta=dict(extra)))
    _write_text(pieces, cfg.out)
    if cfg.out is not None:
        print(f"normalization = {format_float(norm)}")
    return 0


def _cmd_coherence(cfg: RunConfig) -> int:
    scan = coherence_scan(cfg.params, cfg.t0, cfg.t1)
    # each column is the scan's array of that name
    cols = ("t", "sq_ratio", "sp_ratio", "c_qp", "t_predicted", "offset")
    rows = np.column_stack([getattr(scan, name) for name in cols])
    extra: list[tuple[str, object]] = [("always_coherent", scan.always_coherent)]
    if scan.always_coherent:
        extra += [("uniform_sq_ratio", scan.uniform_sq_ratio), ("uniform_sp_ratio", scan.uniform_sp_ratio)]
    return _emit_table(cfg, cols, rows, extra=tuple(extra))


def _oracle_instants(w: float, t_ref: float, state: tuple[complex, complex],
                     t_lo: float, t_hi: float) -> np.ndarray:
    """The zeros of Re(conj(eps)*eps_dot) = x*u + y*v within [t_lo, t_hi].

    Omega is flat there, at ``w``, and (eps, eps_dot) is the flat flow of
    ``state`` from ``t_ref``.  Each sign change between two nodes of a
    uniform grid of _INSTANT_CELLS cells is polished by :func:`find_root` on
    that flow; no closed form enters.
    """
    def slope(t: np.ndarray) -> np.ndarray:
        eps, eps_dot = flat_flow(w, t_ref, state, t)
        return eps.real * eps_dot.real + eps.imag * eps_dot.imag

    grid = np.linspace(t_lo, t_hi, _INSTANT_CELLS + 1)
    rising = slope(grid) > 0.0
    changes = np.flatnonzero(rising[:-1] != rising[1:])
    return find_root(slope, grid[changes], grid[changes + 1], tol=1e-13)


def build_validation_report(cfg: RunConfig) -> dict:
    """Adjudicate the delicate closed-form constants with independent numerics.

    Each check reports a reference value (the alternate closed form this
    library deliberately does not use), the computed value it uses instead,
    the oracle evidence, and a verdict.  Discrepancies are findings, not
    failures.  The phase constant and the coherent instants are judged on one
    oracle: a DOP853 run over the switch window [0, switch_end] from the
    problem's input, the harmonic solution before the switch, at 0.  Outside
    the window Omega is flat, and the exact flat flow carries the oracle's
    state back from 0 and on from the switch end.
    """
    p = cfg.params
    aw = p.alpha * p.omega
    t_j = p.switch_end
    t_probe = 0.5 * t_j
    (eps,), (eps_dot,) = (v.tolist() for v in amplitude([t_probe], p))
    checks = []
    w0, w_after = p.initial_frequency, p.final_frequency
    t_lo, t_hi = scan_window(p)
    scan = coherence_scan(p, t_lo, t_hi)

    # -- the oracle: DOP853 over the switch window only -----------------------
    start = (complex(p.before_re, 0.0), complex(0.0, p.before_im * w0))
    traj = integrate_ode(p, 0.0, t_j, start, tol=_ORACLE_TOL)
    at_end = (complex(traj.eps[-1]), complex(traj.eps_dot[-1]))

    # -- post-switch phase constant -----------------------------------------
    computed = p.junction_phase
    reference = math.pi / math.sqrt(1.0 + aw)
    quad = quadrature(
        lambda s: 1.0 / (1.0 / p.omega + p.alpha * np.cos(p.omega * s) ** 2),
        0.0, t_j, tol=1e-13,
    )
    # where [t0, t1] meets the switch window, the run's accepted steps from
    # the last at or before t0 to the first at or after t1, so that a window
    # shorter than a step is covered too; and the uniform instants of
    # [t0, t1] outside the switch window, carried there by the flat flow
    lo = hi = 0
    if cfg.t0 < t_j and cfg.t1 > 0.0:
        lo = max(int(np.searchsorted(traj.times, cfg.t0, side="right")) - 1, 0)
        hi = int(np.searchsorted(traj.times, cfg.t1, side="left")) + 1
    uniform = np.linspace(cfg.t0, cfg.t1, _ORACLE_UNIFORM)
    before, after = uniform[uniform <= 0.0], uniform[uniform >= t_j]
    times = np.concatenate((traj.times[lo:hi], before, after))
    eps_oracle = np.concatenate((traj.eps[lo:hi], flat_flow(w0, 0.0, start, before)[0],
                                 flat_flow(w_after, t_j, at_end, after)[0]))
    rot = cmath.exp(1j * (reference - computed))
    closed, _ = amplitude(times, p)
    variant = np.where(times > t_j, closed * rot, closed)
    err_computed = float(np.max(modulus(closed - eps_oracle)))
    err_reference = float(np.max(modulus(variant - eps_oracle)))
    # the amplitude scales as 1/sqrt(omega): an error counts against 1e-6 of
    # the larger of 1 and the oracle's largest |eps|
    bar = 1e-6 * max(1.0, float(np.max(modulus(eps_oracle))))
    if cfg.t1 <= t_j:
        verdict = "window ends before the post-switch region; no evidence"
    elif err_computed < bar <= err_reference:
        verdict = ("adopted constant reproduces the independent integration; "
                   "the reference constant breaks continuity at the switch end")
    elif err_computed < bar and err_reference < bar:
        verdict = "both constants agree with the independent integration"
    else:
        verdict = "inconclusive: the integration did not reproduce either variant"
    checks.append({
        "name": "post_switch_phase_constant",
        "reference_value": reference,
        "computed_value": computed,
        "evidence": {
            "phase_integral_closed_form": computed,
            "phase_integral_quadrature": quad,
            "closed_form_vs_quadrature": abs(computed - quad),
            "ode_max_error_computed": err_computed,
            "ode_max_error_reference": err_reference,
            "ode_start": 0.0,
            "ode_end": t_j,
            "ode_accepted_steps": traj.stats.accepted,
            "ode_rejected_steps": traj.stats.rejected,
        },
        "verdict": verdict,
    })

    # -- switching-window derivative factor ----------------------------------
    sigma = abs(eps)
    phase = eps / sigma
    ref_dot = phase * complex(-aw * math.sin(2.0 * p.omega * t_probe), 1.0) / sigma
    # t_probe grows as 1/omega and eps_dot shrinks as sqrt(omega), so the
    # step scales with t_probe and the bar with |eps_dot|
    fd = derivative(lambda x: amplitude(x, p)[0], t_probe, h=1e-5 * max(1.0, t_probe))
    fd_err_computed = abs(eps_dot - fd)
    fd_err_reference = abs(ref_dot - fd)
    fd_bar = 1e-6 * abs(eps_dot)
    wr_computed = abs(wronskian_of(eps, eps_dot).item() + 2j)
    wr_reference = abs(eps * ref_dot.conjugate() - ref_dot * eps.conjugate() + 2j)
    if aw == 0.0:
        verdict = "factors coincide for alpha*omega = 0"
    elif fd_err_computed < fd_bar <= fd_err_reference and wr_computed < 1e-10:
        verdict = ("adopted factor matches the finite-difference derivative of the "
                   "closed form, the reference factor does not; the Wronskian does "
                   "not discriminate (a real coefficient in that slot cancels out)")
    else:
        verdict = "inconclusive: finite differences did not separate the variants"
    checks.append({
        "name": "switching_derivative_sin_factor",
        "reference_value": aw,
        "computed_value": 0.5 * aw,
        "evidence": {
            "probe_t": t_probe,
            "fd_error_computed": fd_err_computed,
            "fd_error_reference": fd_err_reference,
            "wronskian_residual_computed": wr_computed,
            "wronskian_residual_reference": wr_reference,
        },
        "verdict": verdict,
    })

    # -- phase-space normalization prefactor ----------------------------------
    grid = wigner_grid(cfg.t, cfg.z, p, half_widths=(cfg.n_sigma, cfg.n_sigma),
                       resolution=(cfg.grid_n, cfg.grid_n))
    integral = grid_integral(grid)
    if abs(integral - 1.0) <= 1e-5:
        verdict = ("adopted prefactor normalizes the distribution to one; "
                   "the reference prefactor gives total mass two")
    else:
        verdict = "inconclusive: grid quadrature did not converge to either candidate"
    checks.append({
        "name": "phase_space_normalization_prefactor",
        "reference_value": 2.0 / (math.pi * p.hbar),
        "computed_value": 1.0 / (math.pi * p.hbar),
        "evidence": {
            "grid_integral_computed": integral,
            "grid_integral_reference": 2.0 * integral,
            "grid_n": cfg.grid_n,
            "n_sigma": cfg.n_sigma,
        },
        "verdict": verdict,
    })

    # -- coherent instants ----------------------------------------------------
    if scan.always_coherent:
        checks.append({
            "name": "coherent_instants",
            "reference_value": 1.0,
            "computed_value": 1.0,
            "evidence": {
                "always_coherent": True,
                "uniform_sq_ratio": scan.uniform_sq_ratio,
                "uniform_sp_ratio": scan.uniform_sp_ratio,
            },
            "verdict": ("degenerate: with a static frequency the cofluctuation "
                        "vanishes identically and both ratios equal one"),
        })
    else:
        events_t = scan.t.tolist()
        spacing = scan.spacing
        # edge zeros dropped as the scan drops them
        found_t = interior(_oracle_instants(w_after, t_j, at_end, t_lo, t_hi), t_lo, t_hi, spacing).tolist()
        found_offsets = [min(abs(f - e) for e in events_t) for f in found_t] if events_t else []
        spacings = [b - a for a, b in zip(found_t, found_t[1:])]
        if (len(found_t) == len(events_t) and all(d <= 1e-9 * spacing for d in found_offsets)
                and spacings and all(abs(s - spacing) <= 1e-9 * spacing for s in spacings)):
            verdict = ("cofluctuation zeros follow the post-switch envelope spacing "
                       "pi/(2*omega*sqrt(1-alpha*omega)); the dimensionless variances "
                       "there are sqrt(1-alpha*omega)^(+-1), not one, so the instants "
                       "are squeezing-balanced rather than strictly coherent, and the "
                       "reference instants differ as reported")
        else:
            verdict = ("inconclusive: the zeros found by root search do not match the "
                       "scan's instants to 1e-9 of the post-switch envelope spacing, or "
                       "are not spaced by it to 1e-9 relative")
        sq_ratios = scan.sq_ratio.tolist()
        checks.append({
            "name": "coherent_instants",
            "reference_value": 1.0,
            "computed_value": sq_ratios[0] if sq_ratios else None,
            "evidence": {
                "events_t": events_t,
                "predicted_t": scan.t_predicted.tolist(),
                "offsets": scan.offset.tolist(),
                "sq_ratios": sq_ratios,
                "sp_ratios": scan.sp_ratio.tolist(),
                "cqp_at_events": scan.c_qp.tolist(),
                "found_t": found_t,
                "found_offsets": found_offsets,
                "found_spacing": spacings,
                "envelope_spacing": spacing,
                "reference_spacing": scan.reference_spacing,
                "expected_sq_ratio": [math.sqrt(1.0 - aw), 1.0 / math.sqrt(1.0 - aw)],
            },
            "verdict": verdict,
        })

    return {"config": dict(cfg.header), "checks": checks}


def _render_report_text(report: dict) -> str:
    lines = ["validation report", "================="]
    lines.append("config: " + " ".join(f"{k}={format_value(v)}" for k, v in report["config"].items()))
    for check in report["checks"]:
        lines.append("")
        lines.append(f"[{check['name']}]")
        lines.append(f"  reference value: {format_value(check['reference_value'])}")
        lines.append(f"  computed value : {format_value(check['computed_value'])}")
        for k, v in check["evidence"].items():
            lines.append(f"  {k} = {format_value(v)}")
        lines.append(f"  verdict: {check['verdict']}")
    return "\n".join(lines) + "\n"


def _report_floats(node: dict, prefix: str = ""):
    """(dotted path, value) of every float and list of floats in the nested dict ``node``."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _report_floats(value, f"{prefix}{key}.")
        elif isinstance(value, (float, list)):
            yield prefix + key, value


def _cmd_validate(cfg: RunConfig) -> int:
    report = build_validation_report(cfg)
    named = {"config": report["config"], **{check["name"]: check for check in report["checks"]}}
    _require_finite(*zip(*_report_floats(named)))
    if cfg.format == "json":
        text = json.dumps(report, separators=(",", ":")) + "\n"
    else:
        text = _render_report_text(report)
    _write_text((text,), cfg.out)
    return 0


# (handler, help) of each subcommand, in the order --help lists them
_COMMANDS = {
    "profile": (_cmd_profile, "switched frequency over time"),
    "epsilon": (_cmd_epsilon, "complex amplitude and Wronskian residual"),
    "phase-diagram": (_cmd_phase_diagram, "mean position/momentum orbit and the conserved pair"),
    "moments": (_cmd_moments, "second moments and the determinant-identity residual"),
    "wigner": (_cmd_wigner, "phase-space distribution on a grid"),
    "coherence": (_cmd_coherence, "scan the post-switch region for cofluctuation zeros"),
    "validate": (_cmd_validate, "cross-check delicate closed-form constants against "
                                "independent numerical evidence"),
}


def _flag_type(arg: str):
    """The type of the flag that ``arg`` names as argparse reads it, whole or as the prefix of one flag, or None."""
    named = [arg] if arg in _FLAG_TYPES else [flag for flag in _FLAG_TYPES if flag.startswith(arg)]
    return _FLAG_TYPES[named[0]] if len(named) == 1 else None


def _join_numeric_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each ``--key value`` of a numeric setting as ``--key=value``, where the value reads as a float.

    argparse takes a separate value that starts with ``-`` only if it reads
    as a plain negative number, so without this ``--t0 -1e3`` and
    ``--t0 -inf`` would read as a flag without its value. The setting's own
    conversion judges the joined value, as it judges ``--t0=-1e3``.
    """
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i].startswith("--") and "=" not in out[i] and _flag_type(out[i]) in (int, float):
            try:
                float(out[i + 1])
            except ValueError:
                continue
            out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_numeric_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        cfg = _resolve_config(args)
    except (SwitchOscError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # a non-finite result is reported by _require_finite, not by numpy's warnings
        with np.errstate(all="ignore"):
            return _COMMANDS[cfg.command][0](cfg)
    except (SwitchOscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
