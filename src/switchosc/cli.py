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
from typing import Sequence

import numpy as np

from .classical import amplitude, epsilon, modulus, wronskian, wronskian_of
from .errors import DomainError, SwitchOscError
from .frequency import OscParams, omega_profile
from .numerics import derivative, integrate_ode, quadrature
from .quantum import coherence_scan, conserved_pair_of, first_moments_of, second_moments_of
from .wigner import format_float, grid_integral, grid_to_csv, grid_to_json, wigner_grid

_FLOAT_KEYS = {"alpha", "omega", "mass", "hbar", "z_re", "z_im", "t0", "t1", "t", "n_sigma"}
_INT_KEYS = {"samples", "grid_n"}
_STR_KEYS = {"format", "out"}
# size caps, checked before anything is allocated
MAX_SAMPLES = 1_000_001
MAX_GRID_N = 2048


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: flags take precedence over the config file,
    which takes precedence over the built-in defaults."""

    command: str
    params: OscParams
    z: complex
    t0: float
    t1: float
    samples: int
    fmt: str
    out: str | None
    t: float
    n_sigma: float
    grid_n: int


def _fmt_any(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt_any(x) for x in v) + "]"
    return str(v)


def _linspace(a: float, b: float, n: int) -> np.ndarray:
    step = (b - a) / (n - 1)
    pts = a + np.arange(n) * step
    pts[-1] = b
    return pts


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged, so one instance serves every
    :func:`main` call in a process.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, help="switch duration scale (time)")
    common.add_argument("--omega", type=float, help="base frequency")
    common.add_argument("--mass", type=float, help="oscillator mass")
    common.add_argument("--hbar", type=float, help="action quantum")
    common.add_argument("--z-re", type=float, dest="z_re", help="Re of the state label z")
    common.add_argument("--z-im", type=float, dest="z_im", help="Im of the state label z")
    common.add_argument("--t0", type=float, help="start of the time range")
    common.add_argument("--t1", type=float, help="end of the time range")
    common.add_argument("--samples", type=int, help=f"number of uniform samples (2 to {MAX_SAMPLES})")
    common.add_argument("--format", choices=("csv", "json"), dest="fmt", help="output format")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--config", help="key=value config file; flags override it")
    common.add_argument("--t", type=float, help="evaluation instant for the phase-space grid")
    common.add_argument("--n-sigma", type=float, dest="n_sigma",
                        help="grid half-width in standard deviations (>= 3)")
    common.add_argument("--grid-n", type=int, dest="grid_n",
                        help=f"grid points per axis (16 to {MAX_GRID_N})")

    parser = argparse.ArgumentParser(
        prog="switchosc",
        description="Exact evolution of a harmonic oscillator with a smoothly "
                    "switched frequency: classical amplitude, quantum moments, "
                    "phase-space distribution, and numerical cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("profile", parents=[common], help="switched frequency over time")
    sub.add_parser("epsilon", parents=[common], help="complex amplitude and Wronskian residual")
    sub.add_parser("phase-diagram", parents=[common],
                   help="mean position/momentum orbit and the conserved pair")
    sub.add_parser("moments", parents=[common],
                   help="second moments and the determinant-identity residual")
    sub.add_parser("wigner", parents=[common], help="phase-space distribution on a grid")
    sub.add_parser("coherence", parents=[common],
                   help="scan the post-switch region for cofluctuation zeros")
    sub.add_parser("validate", parents=[common],
                   help="cross-check delicate closed-form constants against "
                        "independent numerical evidence")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    known = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS
    vals: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise DomainError(f"{path}:{ln}: expected '<key> = <value>' with a known key, got {raw.rstrip()!r}")
            vals[key] = value.strip()
    return vals


def _pick(cli_value, file_vals: dict[str, str], key: str, default):
    if cli_value is not None:
        return cli_value
    if key in file_vals:
        raw = file_vals[key]
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        return raw
    return default


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_vals = _read_config_file(args.config) if args.config else {}
    params = OscParams(
        m=_pick(args.mass, file_vals, "mass", 1.0),
        hbar=_pick(args.hbar, file_vals, "hbar", 1.0),
        alpha=_pick(args.alpha, file_vals, "alpha", 0.5),
        omega=_pick(args.omega, file_vals, "omega", 1.0),
    )
    z = complex(_pick(args.z_re, file_vals, "z_re", 1.0),
                _pick(args.z_im, file_vals, "z_im", 0.2))
    if not cmath.isfinite(z):
        raise DomainError(f"z_re and z_im must be finite, got z={z!r}")
    fmt = _pick(args.fmt, file_vals, "format", "csv")
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be 'csv' or 'json', got {fmt!r}")
    out = _pick(args.out, file_vals, "out", None)
    samples = int(_pick(args.samples, file_vals, "samples", 601))
    if samples < 2:
        raise DomainError(f"samples must be at least 2, got {samples}")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    t0 = _pick(args.t0, file_vals, "t0", None)
    t1 = _pick(args.t1, file_vals, "t1", None)
    if args.command == "coherence":
        # default scan window: three post-switch periods starting at the switch end
        t_j = params.switch_end
        if t0 is None:
            t0 = t_j
        if t1 is None:
            t1 = t_j + 3.0 * (2.0 * math.pi / params.final_frequency)
        if t0 < t_j:
            raise DomainError(f"coherence scan must start at or after the switch end {t_j!r}, got t0={t0!r}")
    else:
        if t0 is None:
            t0 = -5.0
        if t1 is None:
            t1 = 10.0
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise DomainError(f"need finite t0 < t1, got t0={t0!r}, t1={t1!r}")
    if not math.isfinite(t1 - t0):
        raise DomainError(f"window length t1 - t0 must be finite, got t0={t0!r}, t1={t1!r}")
    t = _pick(args.t, file_vals, "t", 0.0)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    n_sigma = _pick(args.n_sigma, file_vals, "n_sigma", 6.0)
    grid_n = int(_pick(args.grid_n, file_vals, "grid_n", 128))
    if not (n_sigma >= 3.0 and math.isfinite(n_sigma)):
        raise DomainError(f"n_sigma must be finite and at least 3, got {n_sigma!r}")
    if grid_n < 16:
        raise DomainError(f"grid_n must be at least 16, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise DomainError(f"grid_n must be at most {MAX_GRID_N}, got {grid_n}")
    return RunConfig(command=args.command, params=params, z=z, t0=float(t0), t1=float(t1),
                     samples=samples, fmt=fmt, out=out, t=float(t),
                     n_sigma=float(n_sigma), grid_n=grid_n)


def _config_items(cfg: RunConfig) -> list[tuple[str, object]]:
    return [
        ("command", cfg.command),
        ("alpha", cfg.params.alpha),
        ("omega", cfg.params.omega),
        ("mass", cfg.params.m),
        ("hbar", cfg.params.hbar),
        ("z_re", cfg.z.real),
        ("z_im", cfg.z.imag),
        ("t0", cfg.t0),
        ("t1", cfg.t1),
        ("samples", cfg.samples),
        ("format", cfg.fmt),
        ("t", cfg.t),
        ("n_sigma", cfg.n_sigma),
        ("grid_n", cfg.grid_n),
    ]


def _config_dict(cfg: RunConfig) -> dict:
    return {k: v for k, v in _config_items(cfg)}


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_table(cfg: RunConfig, columns: Sequence[str], rows: np.ndarray,
                extra: Sequence[tuple[str, object]] = ()) -> int:
    """Write the 2-D float array ``rows`` under ``columns`` as CSV or JSON."""
    if cfg.fmt == "csv":
        lines = [f"# {k} = {_fmt_any(v)}" for k, v in (*_config_items(cfg), *extra)]
        lines.append(",".join(columns))
        # repr of a Python float is format_float's shortest round-trip form
        lines.extend(",".join(map(repr, row)) for row in rows.tolist())
        text = "\n".join(lines) + "\n"
    else:
        doc: dict = {"config": _config_dict(cfg)}
        for k, v in extra:
            doc[k] = v
        doc["columns"] = list(columns)
        doc["rows"] = rows.tolist()
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    _write_text(text, cfg.out)
    return 0


def _sample_times(cfg: RunConfig) -> np.ndarray:
    # uniform closed grid plus the junction instants, so kinks are sampled
    # exactly; sorted and deduplicated by hand, as np.unique imports numpy.ma
    inner = [tj for tj in (0.0, cfg.params.switch_end) if cfg.t0 < tj < cfg.t1]
    ts = np.sort(np.concatenate((_linspace(cfg.t0, cfg.t1, cfg.samples), inner)))
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


# run parameters that grid_to_csv and grid_to_json write themselves (mass as m)
_GRID_META_KEYS = frozenset({"t", "mass", "hbar", "alpha", "omega", "z_re", "z_im"})


def _cmd_wigner(cfg: RunConfig) -> int:
    grid = wigner_grid(cfg.t, cfg.z, cfg.params,
                       half_widths=(cfg.n_sigma, cfg.n_sigma),
                       resolution=(cfg.grid_n, cfg.grid_n))
    norm = grid_integral(grid)
    extra = [(k, _fmt_any(v)) for k, v in _config_items(cfg) if k not in _GRID_META_KEYS]
    extra.append(("normalization", format_float(norm)))
    if cfg.fmt == "csv":
        text = grid_to_csv(grid, comments=tuple(extra))
    else:
        text = grid_to_json(grid, extra_meta=dict(extra))
    _write_text(text, cfg.out)
    if cfg.out is not None:
        print(f"normalization = {format_float(norm)}")
    return 0


def _cmd_coherence(cfg: RunConfig) -> int:
    scan = coherence_scan(cfg.params, cfg.t0, cfg.t1)
    rows = np.array([(e.t, e.sq_ratio, e.sp_ratio, e.cqp, e.t_predicted, e.offset)
                     for e in scan.events], dtype=float).reshape(-1, 6)
    extra: list[tuple[str, object]] = [("always_coherent", scan.always_coherent)]
    if scan.always_coherent:
        extra.append(("uniform_sq_ratio", scan.sq_ratio))
        extra.append(("uniform_sp_ratio", scan.sp_ratio))
    cols = ("t", "sq_ratio", "sp_ratio", "c_qp", "t_predicted", "offset")
    return _emit_table(cfg, cols, rows, extra=tuple(extra))


def build_validation_report(cfg: RunConfig) -> dict:
    """Adjudicate the delicate closed-form constants with independent numerics.

    Each check reports a reference value (the alternate closed form this
    library deliberately does not use), the computed value it uses instead,
    the oracle evidence, and a verdict.  Discrepancies are findings, not
    failures.
    """
    p = cfg.params
    aw = p.alpha * p.omega
    t_j = p.switch_end
    checks = []

    # -- post-switch phase constant -----------------------------------------
    computed = p.junction_phase
    reference = math.pi / math.sqrt(1.0 + aw)
    quad = quadrature(
        lambda s: 1.0 / (1.0 / p.omega + p.alpha * math.cos(p.omega * s) ** 2),
        0.0, t_j, tol=1e-13,
    )
    ts = _linspace(cfg.t0, cfg.t1, 301)
    start = epsilon(cfg.t0, p)
    traj = integrate_ode(p, cfg.t0, cfg.t1, (start.eps, start.eps_dot), tol=1e-11, t_eval=ts)
    rot = cmath.exp(1j * (reference - computed))
    closed, _ = amplitude(traj.times, p)
    variant = np.where(traj.times > t_j, closed * rot, closed)
    err_computed = float(np.max(modulus(closed - traj.eps)))
    err_reference = float(np.max(modulus(variant - traj.eps)))
    if cfg.t1 <= t_j:
        verdict = "window ends before the post-switch region; no evidence"
    elif err_computed < 1e-6 <= err_reference:
        verdict = ("adopted constant reproduces the independent integration; "
                   "the reference constant breaks continuity at the switch end")
    elif err_computed < 1e-6 and err_reference < 1e-6:
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
        },
        "verdict": verdict,
    })

    # -- switching-window derivative factor ----------------------------------
    t_probe = 0.5 * t_j
    amp = epsilon(t_probe, p)
    sigma = abs(amp.eps)
    phase = amp.eps / sigma
    ref_dot = phase * complex(-aw * math.sin(2.0 * p.omega * t_probe), 1.0) / sigma
    fd = derivative(lambda x: epsilon(x, p).eps, t_probe, h=1e-5)
    fd_err_computed = abs(amp.eps_dot - fd)
    fd_err_reference = abs(ref_dot - fd)
    wr_computed = abs(wronskian(amp) + 2j)
    wr_reference = abs(amp.eps * ref_dot.conjugate() - ref_dot * amp.eps.conjugate() + 2j)
    if aw == 0.0:
        verdict = "factors coincide for alpha*omega = 0"
    elif fd_err_computed < 1e-6 <= fd_err_reference and wr_computed < 1e-10:
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
    w_after = p.final_frequency
    scan = coherence_scan(p, t_j, t_j + 3.0 * (2.0 * math.pi / w_after))
    if scan.always_coherent:
        checks.append({
            "name": "coherent_instants",
            "reference_value": 1.0,
            "computed_value": 1.0,
            "evidence": {
                "always_coherent": True,
                "uniform_sq_ratio": scan.sq_ratio,
                "uniform_sp_ratio": scan.sp_ratio,
            },
            "verdict": ("degenerate: with a static frequency the cofluctuation "
                        "vanishes identically and both ratios equal one"),
        })
    else:
        events_t = [e.t for e in scan.events]
        spacings = [b - a for a, b in zip(events_t, events_t[1:])]
        checks.append({
            "name": "coherent_instants",
            "reference_value": 1.0,
            "computed_value": scan.events[0].sq_ratio if scan.events else float("nan"),
            "evidence": {
                "events_t": events_t,
                "predicted_t": [e.t_predicted for e in scan.events],
                "offsets": [e.offset for e in scan.events],
                "sq_ratios": [e.sq_ratio for e in scan.events],
                "sp_ratios": [e.sp_ratio for e in scan.events],
                "cqp_at_events": [e.cqp for e in scan.events],
                "found_spacing": spacings,
                "envelope_spacing": math.pi / (2.0 * w_after),
                "reference_spacing": math.pi / (4.0 * p.initial_frequency),
                "expected_sq_ratio": [math.sqrt(1.0 - aw), 1.0 / math.sqrt(1.0 - aw)],
            },
            "verdict": ("cofluctuation zeros follow the post-switch envelope spacing "
                        "pi/(2*omega*sqrt(1-alpha*omega)); the dimensionless variances "
                        "there are sqrt(1-alpha*omega)^(+-1), not one, so the instants "
                        "are squeezing-balanced rather than strictly coherent, and the "
                        "reference instants differ as reported"),
        })

    return {"config": _config_dict(cfg), "checks": checks}


def _render_report_text(report: dict) -> str:
    lines = ["validation report", "================="]
    lines.append("config: " + " ".join(f"{k}={_fmt_any(v)}" for k, v in report["config"].items()))
    for check in report["checks"]:
        lines.append("")
        lines.append(f"[{check['name']}]")
        lines.append(f"  reference value: {_fmt_any(check['reference_value'])}")
        lines.append(f"  computed value : {_fmt_any(check['computed_value'])}")
        for k, v in check["evidence"].items():
            lines.append(f"  {k} = {_fmt_any(v)}")
        lines.append(f"  verdict: {check['verdict']}")
    return "\n".join(lines) + "\n"


def _cmd_validate(cfg: RunConfig) -> int:
    report = build_validation_report(cfg)
    if cfg.fmt == "json":
        text = json.dumps(report, separators=(",", ":")) + "\n"
    else:
        text = _render_report_text(report)
    _write_text(text, cfg.out)
    return 0


_COMMANDS = {
    "profile": _cmd_profile,
    "epsilon": _cmd_epsilon,
    "phase-diagram": _cmd_phase_diagram,
    "moments": _cmd_moments,
    "wigner": _cmd_wigner,
    "coherence": _cmd_coherence,
    "validate": _cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        cfg = _resolve_config(args)
    except (SwitchOscError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command](cfg)
    except (SwitchOscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
