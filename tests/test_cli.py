"""Command-line surface: table contents, formats, config handling, exit codes."""

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import switchosc
from switchosc import (OscParams, conserved_pair, epsilon, first_moments, integrate_ode, omega_of,
                       second_moments)
from switchosc import cli, quantum
from switchosc.cli import MAX_GRID_N, MAX_SAMPLES, _build_parser, _resolve_config, main

FIG_Q0 = 1.7320508075688772  # sqrt(3)
# DOP853 at validate's oracle tolerance accepted 31.35 or more steps per period
# on every flat stretch measured (omega 1e-12 to 1e12, alpha*omega 0 to 0.999999)
_FLAT_STEPS_PER_PERIOD = 30.75


def run(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> tuple[dict, list[str], list[list[float]]]:
    comments: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[float]] = []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            comments[key.strip()] = value.strip()
        elif not columns:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, columns, rows


class TestProfile:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "profile", "--t0", "-1", "--t1", "3", "--samples", "5")
        assert code == 0
        comments, columns, rows = parse_csv(out)
        assert columns == ["t", "omega"]
        assert comments["alpha"] == "0.5"
        ts = [r[0] for r in rows]
        assert ts == sorted(ts)
        assert ts[0] == -1.0 and ts[-1] == 3.0
        assert math.pi / 2.0 in ts  # junction inserted
        by_t = {r[0]: r[1] for r in rows}
        assert by_t[-1.0] == pytest.approx(0.8819171036881969, abs=1e-12)
        assert by_t[3.0] == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_static_profile_is_constant(self, capsys):
        code, out, _ = run(capsys, "profile", "--alpha", "0", "--samples", "7")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert all(r[1] == 1.0 for r in rows)

    def test_reversed_range_is_a_config_error(self, capsys):
        code, _, err = run(capsys, "profile", "--t0", "3", "--t1", "-1")
        assert code == 2
        assert "error:" in err

    def test_single_sample_rejected(self, capsys):
        assert run(capsys, "profile", "--samples", "1")[0] == 2

    def test_invalid_alpha_rejected(self, capsys):
        code, _, err = run(capsys, "profile", "--alpha", "2")
        assert code == 2
        assert "alpha*omega" in err


class TestEpsilon:
    def test_initial_row_and_residuals(self, capsys):
        code, out, _ = run(capsys, "epsilon", "--t0", "-2", "--t1", "2", "--samples", "9")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["t", "eps_re", "eps_im", "eps_dot_re", "eps_dot_im", "eps_abs",
                           "wronskian_residual"]
        by_t = {r[0]: r for r in rows}
        row0 = by_t[0.0]
        assert row0[1] == pytest.approx(1.224744871391589, abs=1e-12)
        assert row0[2] == pytest.approx(0.0, abs=1e-15)
        assert row0[3] == pytest.approx(0.0, abs=1e-15)
        assert row0[4] == pytest.approx(0.816496580927726, abs=1e-12)
        assert row0[5] == pytest.approx(1.224744871391589, abs=1e-12)
        assert all(r[6] < 1e-10 for r in rows)

    def test_static_run_is_a_unit_spiral(self, capsys):
        code, out, _ = run(capsys, "epsilon", "--alpha", "0", "--t0", "0", "--t1", "6",
                           "--samples", "13")
        assert code == 0
        _, _, rows = parse_csv(out)
        for r in rows:
            assert r[1] == pytest.approx(math.cos(r[0]), abs=1e-12)
            assert r[2] == pytest.approx(math.sin(r[0]), abs=1e-12)
            assert r[5] == pytest.approx(1.0, abs=1e-12)


class TestPhaseDiagram:
    def test_conserved_columns_are_flat(self, capsys):
        code, out, _ = run(capsys, "phase-diagram", "--samples", "101")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["t", "q_mean", "p_mean", "q0", "p0"]
        by_t = {r[0]: r for r in rows}
        assert by_t[0.0][1] == pytest.approx(FIG_Q0, abs=1e-12)
        assert by_t[0.0][2] == pytest.approx(0.23094010767585033, abs=1e-12)
        q0s = [r[3] for r in rows]
        p0s = [r[4] for r in rows]
        assert max(q0s) - min(q0s) < 1e-9
        assert max(p0s) - min(p0s) < 1e-9

    def test_vacuum_label_keeps_the_origin(self, capsys):
        code, out, _ = run(capsys, "phase-diagram", "--z-re", "0", "--z-im", "0",
                           "--samples", "11")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert all(r[1] == 0.0 and r[2] == 0.0 for r in rows)


class TestMoments:
    def test_initial_row_and_identity_residuals(self, capsys):
        code, out, _ = run(capsys, "moments", "--samples", "51")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["t", "sigma_q2", "sigma_p2", "c_qp", "det_residual", "omega"]
        by_t = {r[0]: r for r in rows}
        row0 = by_t[0.0]
        assert row0[1] == pytest.approx(0.75, abs=1e-12)
        assert row0[2] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert row0[3] == pytest.approx(0.0, abs=1e-12)
        assert row0[5] == pytest.approx(0.8819171036881969, abs=1e-12)
        assert all(r[4] < 1e-10 for r in rows)

    def test_static_rows_are_constant(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "0", "--samples", "9")
        assert code == 0
        _, _, rows = parse_csv(out)
        for r in rows:
            assert r[1] == pytest.approx(0.5, abs=1e-12)
            assert r[2] == pytest.approx(0.5, abs=1e-12)
            assert abs(r[3]) < 1e-12
            assert r[5] == 1.0


class TestWigner:
    def test_file_output_and_normalization_line(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "wigner", "--grid-n", "64", "--out", str(out_file))
        assert code == 0
        assert out.startswith("normalization = ")
        norm = float(out.split("=")[1])
        assert abs(norm - 1.0) < 1e-4
        text = out_file.read_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[0] == "q,p,w"
        assert len(lines) == 1 + 64 * 64
        assert "# normalization = " in text

    def test_stdout_csv_carries_normalization_comment(self, capsys):
        code, out, _ = run(capsys, "wigner", "--grid-n", "16", "--n-sigma", "4")
        assert code == 0
        assert "# normalization = " in out

    def test_json_grid(self, capsys):
        code, out, _ = run(capsys, "wigner", "--grid-n", "16", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["command"] == "wigner"
        assert len(doc["values"]) == 16 * 16

    def test_run_parameters_written_once(self, capsys):
        code, out, _ = run(capsys, "wigner", "--grid-n", "16")
        assert code == 0
        keys = [ln[1:].partition("=")[0].strip() for ln in out.splitlines() if ln.startswith("#")]
        assert len(keys) == len(set(keys))
        code, out, _ = run(capsys, "wigner", "--grid-n", "16", "--format", "json")
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["m"] == "1.0" and "mass" not in meta

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_is_written_without_its_text_in_memory(self, tmp_path, fmt):
        # a 1024^2 grid is 63 MB of CSV or 23 MB of JSON; joined into one string
        # before writing, it grew the peak RSS by about 150 and 64 MiB.
        # VmHWM, unlike ru_maxrss, starts afresh in the exec'd interpreter
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        code = (
            "import sys\n"
            "from switchosc import cli\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return int(next(ln for ln in f if ln.startswith('VmHWM:')).split()[1])\n"
            "argv = ['wigner', '--format', sys.argv[1], '--out', sys.argv[2]]\n"
            "assert cli.main([*argv, '--grid-n=16']) == 0\n"
            "before = peak()\n"
            "assert cli.main([*argv, '--grid-n=1024']) == 0\n"
            "print(peak() - before)\n"
        )
        out = tmp_path / f"grid.{fmt}"
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", code, fmt, str(out)], check=True,
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        size = out.stat().st_size
        out.unlink()
        assert size > 20 * 2 ** 20
        assert int(proc.stdout.splitlines()[-1]) <= 32 * 1024  # KiB

    def test_too_coarse_grid_rejected(self, capsys):
        assert run(capsys, "wigner", "--grid-n", "4")[0] == 2
        assert run(capsys, "wigner", "--n-sigma", "1")[0] == 2
        assert run(capsys, "wigner", "--n-sigma", "nan")[0] == 2
        assert run(capsys, "wigner", "--n-sigma", "inf")[0] == 2


class TestCoherence:
    def test_default_window_events(self, capsys):
        code, out, _ = run(capsys, "coherence")
        assert code == 0
        comments, columns, rows = parse_csv(out)
        assert comments["always_coherent"] == "false"
        assert columns == ["t", "sq_ratio", "sp_ratio", "c_qp", "t_predicted", "offset"]
        assert len(rows) >= 4
        spacing = math.pi / (2.0 * math.sqrt(0.5))
        for a, b in zip(rows, rows[1:]):
            assert b[0] - a[0] == pytest.approx(spacing, abs=1e-9)

    def test_scan_past_t_1024(self, capsys):
        # there the spacing of doubles is wider than the 1e-13 root tolerance
        code, out, _ = run(capsys, "coherence", "--t0=1030", "--t1=1060")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) >= 10
        spacing = math.pi / (2.0 * math.sqrt(0.5))
        for a, b in zip(rows, rows[1:]):
            assert b[0] - a[0] == pytest.approx(spacing, abs=1e-9)

    def test_scan_near_t_1e6_resolves_the_events(self, capsys):
        code, out, _ = run(capsys, "coherence", "--t0=1e6", "--t1=1000010")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) >= 4
        assert all(abs(row[3]) <= 1e-8 for row in rows)

    def test_scan_beyond_double_resolution_rejected(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, out, err = run(capsys, "coherence", "--t0=1e15", "--t1=1.00000000000003e15",
                             "--out", str(out_file))
        assert code == 1
        assert "cannot be resolved" in err
        assert not out_file.exists()

    def test_static_scan_reports_the_degenerate_flag(self, capsys):
        code, out, _ = run(capsys, "coherence", "--alpha", "0")
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert comments["always_coherent"] == "true"
        assert float(comments["uniform_sq_ratio"]) == pytest.approx(1.0, abs=1e-12)
        assert float(comments["uniform_sp_ratio"]) == pytest.approx(1.0, abs=1e-12)
        assert rows == []

    def test_flat_post_switch_envelope_reports_the_degenerate_flag(self, capsys):
        code, out, _ = run(capsys, "coherence", "--alpha", "1e-17")
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert comments["always_coherent"] == "true"
        assert rows == []

    def test_scan_grid_above_the_sample_cap_rejected(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan evaluated its grid")

        monkeypatch.setattr(quantum, "amplitude", refuse)
        # about 138,840 time units fill the cap at the default parameters
        code, out, err = run(capsys, "coherence", "--t1", "140000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(MAX_SAMPLES) in err

    def test_window_before_switch_end_rejected(self, capsys):
        assert run(capsys, "coherence", "--t0", "0")[0] == 2


class TestOutputFile:
    def test_unwritable_path_is_a_computation_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "profile", "--samples", "3", "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ["epsilon", "--samples", "3"],
        ["phase-diagram", "--samples", "3"],
        ["moments", "--samples", "3"],
        ["wigner", "--grid-n", "16"],
        ["wigner", "--grid-n", "16", "--format", "json"],
        ["coherence"],
        ["validate"],
    ], ids=["epsilon", "phase-diagram", "moments", "wigner-csv", "wigner-json", "coherence",
            "validate"])
    def test_every_command_reports_an_unwritable_path(self, capsys, tmp_path, argv):
        out_file = tmp_path / "missing" / "x.out"
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out_file) in err
        assert not out_file.exists()


class TestOutOfDomainArguments:
    """Arguments outside the parameter domain exit 2 with one error line and no output."""

    @pytest.mark.parametrize("argv, names", [
        # pi/(2*omega) overflows, so no window or phase can be formed
        (["epsilon", "--samples", "3", "--omega", "1e-320", "--alpha", "0"], "switch_end"),
        # 2*omega overflows, so pi/(2*omega) is 0.0 and the window has no length
        (["epsilon", "--samples", "3", "--omega", "1e308", "--alpha", "0"], "switch_end"),
        # hbar^2 underflows to zero or overflows to infinity
        (["wigner", "--hbar", "1e-300", "--grid-n", "16"], "hbar"),
        (["moments", "--hbar", "1e200", "--samples", "3"], "hbar"),
        # hbar/(2m) or hbar*m/2 overflows: the moments would be inf
        (["moments", "--mass", "1e-320", "--samples", "3"], "hbar/(2m)"),
        (["wigner", "--mass", "1e-320", "--grid-n", "16"], "hbar/(2m)"),
        (["moments", "--mass", "1e300", "--hbar", "1e10", "--samples", "3"], "hbar*m/2"),
    ])
    def test_derived_constants_must_be_finite_normal_doubles(self, capsys, argv, names):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err

    @pytest.mark.parametrize("argv, names", [
        # above the caps; the checks run before any array is allocated
        (["profile", "--samples", str(MAX_SAMPLES + 1)], "samples"),
        (["profile", "--samples", "100000000000000"], "samples"),
        (["wigner", "--grid-n", "3000000"], "grid_n"),
        # t1 - t0 overflows to infinity
        (["profile", "--t0=-1e308", "--t1=1e308"], "window length"),
    ])
    def test_sizes_and_window_are_bounded(self, capsys, argv, names):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err

    def test_caps_themselves_are_accepted(self):
        def resolve(*argv):
            return _resolve_config(_build_parser().parse_args(argv))

        assert resolve("profile", "--samples", str(MAX_SAMPLES)).samples == MAX_SAMPLES
        assert resolve("wigner", "--grid-n", str(MAX_GRID_N)).grid_n == MAX_GRID_N

    @pytest.mark.parametrize("argv, name", [
        (["epsilon", "--t0", "1e20", "--t1", "1.0000000000001e20", "--samples", "3"], "t0=1e+20"),
        (["profile", "--t0=0", "--t1=1e9", "--samples", "3"], "t1=1000000000.0"),
        (["wigner", "--t", "1e20", "--grid-n", "16"], "t=1e+20"),
        (["validate", "--t0=-1e12", "--grid-n", "16"], "t0=-1000000000000.0"),
        # a fast switch shortens the quarter period that the times must resolve
        (["moments", "--omega=1e7", "--alpha=0", "--samples", "3"], "t0=-5.0"),
    ])
    def test_times_the_doubles_cannot_resolve_are_refused(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"doubles near {name} " in err and "cannot be resolved" in err

    def test_resolved_times_are_accepted(self):
        # near 1e6 the doubles lie 1.2e-10 apart, within 1e-9 of the quarter period 1.78
        cfg = _resolve_config(_build_parser().parse_args(["epsilon", "--t0=-1e6", "--t1=1e6"]))
        assert (cfg.t0, cfg.t1) == (-1e6, 1e6)

    @pytest.mark.parametrize("command", ["phase-diagram", "wigner", "validate"])
    @pytest.mark.parametrize("label", [["--z-re", "nan"], ["--z-im", "inf"], ["--z-re=-inf"]])
    def test_non_finite_state_label_rejected(self, capsys, command, label):
        code, out, err = run(capsys, command, *label, "--grid-n", "16")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "z_re and z_im" in err


COMMANDS = ("profile", "epsilon", "phase-diagram", "moments", "wigner", "coherence", "validate")
# subnormals, the far ends of the normal range, far-out times and the non-finite values
EXTREME_FLOATS = (5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e-300, -1e-300, 1e20, -1e20,
                  math.nan, math.inf, -math.inf)
FLOAT_FLAGS = ("alpha", "omega", "mass", "hbar", "z-re", "z-im", "t0", "t1", "t", "n-sigma")
NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)
DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def assert_output_contract(argv):
    """Exit 0 with an empty stderr and only finite numbers on stdout, or exit 1
    or 2 with an empty stdout and exactly one ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        assert not NON_FINITE.search(out.getvalue())
    else:
        assert code in (1, 2)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _digest_invocations():
    spec = importlib.util.spec_from_file_location("output_digests", DIGESTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.invocations()


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=6, deadline=None)
@given(flags=st.dictionaries(st.sampled_from(FLOAT_FLAGS), st.sampled_from(EXTREME_FLOATS),
                             min_size=1, max_size=3),
       spaced=st.booleans())
# a flat post-switch envelope whose m*Omega underflows
@example(flags={"mass": 1e-300, "omega": 1e-300}, spaced=False)
# negative values in exponent notation, each a separate argument
@example(flags={"t0": -1e20, "z-re": -5e-324, "alpha": -math.inf}, spaced=True)
def test_extreme_floats_exit_cleanly_or_with_one_error_line(command, flags, spaced):
    written = ([f"--{k}", repr(v)] if spaced else [f"--{k}={v!r}"] for k, v in flags.items())
    assert_output_contract([command, "--samples", "3", "--grid-n", "16", *(a for w in written for a in w)])


# the output-digest tool's invocations sit at the edges of the domain, of
# double precision and of the size caps
@pytest.mark.parametrize("argv", _digest_invocations(), ids=" ".join)
def test_digest_invocations_keep_the_output_contract(argv):
    assert_output_contract(list(argv))


class TestNonFiniteOutput:
    """Parameters inside the domain whose outputs leave the doubles exit 1 with one error line."""

    @pytest.mark.parametrize("argv, column", [
        (["moments", "--omega", "1e-307", "--mass", "1e-5", "--alpha", "0", "--samples", "3"],
         "sigma_q2"),
        (["moments", "--omega", "1e-307", "--mass", "1e-5", "--alpha", "0", "--samples", "3",
          "--format", "json"], "sigma_q2"),
        (["phase-diagram", "--omega", "1e-300", "--z-re", "1e200", "--samples", "3"], "q_mean"),
        (["wigner", "--omega", "1e-300", "--z-re", "1e200", "--grid-n", "16"], "q"),
        # validate refuses an omega whose square is not a normal double, so
        # its overflow comes from a lighter mass
        (["validate", "--omega", "1e-150", "--mass", "1e-160", "--alpha", "0", "--grid-n", "16"],
         "phase_space_normalization_prefactor.evidence.grid_integral_computed"),
        (["validate", "--omega", "1e-150", "--mass", "1e-160", "--alpha", "0", "--grid-n", "16",
          "--format", "json"], "phase_space_normalization_prefactor.evidence.grid_integral_computed"),
        # a flat post-switch envelope whose m*Omega underflows: the uniform
        # ratios are not finite
        (["coherence", "--omega", "1e-150", "--mass", "1e-300", "--alpha", "0"], "uniform_sq_ratio"),
        (["validate", "--omega", "1e-100", "--mass", "1e-250", "--alpha", "0"],
         "phase_space_normalization_prefactor.evidence.grid_integral_computed"),
    ], ids=["moments-csv", "moments-json", "phase-diagram", "wigner", "validate-text",
            "validate-json", "coherence-flat-underflow", "validate-flat-underflow"])
    def test_first_non_finite_column_is_named(self, capsys, argv, column):
        # warnings are errors under pytest, so this also checks that numpy's stay silent
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: output {column} is not finite: the parameters leave the range of doubles\n"

    def test_validate_report_is_not_written(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run(capsys, "validate", "--omega", "1e-150", "--mass", "1e-160",
                             "--alpha", "0", "--grid-n", "16", "--format", "json",
                             "--out", str(path))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: output ")
        assert not path.exists()


class TestValidate:
    def test_json_report_adjudicates_all_checks(self, capsys):
        code, out, _ = run(capsys, "validate", "--format", "json")
        assert code == 0
        report = json.loads(out)
        checks = {c["name"]: c for c in report["checks"]}
        phase = checks["post_switch_phase_constant"]
        assert phase["reference_value"] == pytest.approx(2.565099660323728, abs=1e-12)
        assert phase["computed_value"] == pytest.approx(1.282549830161864, abs=1e-12)
        assert phase["evidence"]["closed_form_vs_quadrature"] < 1e-12
        assert phase["evidence"]["ode_max_error_computed"] < 1e-8
        assert phase["evidence"]["ode_max_error_reference"] > 1e-1
        deriv = checks["switching_derivative_sin_factor"]
        assert deriv["evidence"]["fd_error_computed"] < 1e-8
        assert deriv["evidence"]["fd_error_reference"] > 0.1
        norm = checks["phase_space_normalization_prefactor"]
        assert norm["evidence"]["grid_integral_computed"] == pytest.approx(1.0, abs=1e-5)
        assert norm["evidence"]["grid_integral_reference"] == pytest.approx(2.0, abs=2e-5)
        inst = checks["coherent_instants"]
        assert len(inst["evidence"]["events_t"]) >= 4
        assert inst["evidence"]["sq_ratios"][0] == pytest.approx(1.4142135623730951, abs=1e-9)
        # the searched zeros sit on the closed-form instants
        assert len(inst["evidence"]["found_t"]) == len(inst["evidence"]["events_t"])
        assert max(inst["evidence"]["found_offsets"]) <= 1e-9 * inst["evidence"]["envelope_spacing"]
        assert inst["verdict"].startswith("cofluctuation zeros follow")

    def test_reference_junction_constant_is_refuted_after_the_switch(self):
        # a window wholly after the switch: the oracle starts before the switch
        # from the problem's input, so a closed form glued with the reference
        # constant pi/sqrt(1+aw) misses it, even where it is used as the adopted one
        p = OscParams()
        bent = math.pi / p.root
        for name, value in (("junction_phase", bent), ("junction_cos", math.cos(bent)),
                            ("junction_sin", math.sin(bent))):
            object.__setattr__(p, name, value)
        cfg = _resolve_config(_build_parser().parse_args(["validate", "--t0=3", "--t1=30"]))
        cfg = cli.RunConfig(header=cfg.header, params=p, z=cfg.z, out=None)
        phase = {c["name"]: c for c in cli.build_validation_report(cfg)["checks"]}[
            "post_switch_phase_constant"]
        assert phase["evidence"]["ode_max_error_computed"] >= 1e-6
        assert not phase["verdict"].startswith("adopted constant reproduces")

    def test_text_report_prints_verdicts(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert "validation report" in out
        assert out.count("verdict:") == 4

    def test_static_run_still_exits_cleanly(self, capsys):
        code, out, _ = run(capsys, "validate", "--alpha", "0", "--format", "json")
        assert code == 0
        report = json.loads(out)
        inst = {c["name"]: c for c in report["checks"]}["coherent_instants"]
        assert inst["evidence"]["always_coherent"] is True
        assert inst["evidence"]["uniform_sq_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_flat_post_switch_envelope_is_degenerate(self, capsys):
        code, out, _ = run(capsys, "validate", "--alpha", "1e-17", "--format", "json")
        assert code == 0
        inst = {c["name"]: c for c in json.loads(out)["checks"]}["coherent_instants"]
        assert inst["evidence"]["always_coherent"] is True
        assert inst["verdict"].startswith("degenerate")

    # the envelope spacing at the default parameters is pi/(2*sqrt(0.5)); the
    # slope's zeros in validate's window lie on TJ + k*spacing, k = 1..11
    @pytest.mark.parametrize("times, verdict", [
        ([], "inconclusive"),
        ([3.0], "inconclusive"),
        ([3.0, 3.1, 3.2], "inconclusive"),
        ([3.0, 5.2214415, 7.44], "inconclusive"),
        # spaced by the envelope spacing, but off the zeros the search finds
        ([3.0 + k * math.pi / math.sqrt(2.0) for k in range(11)], "inconclusive"),
        # on the zeros, but one is missing
        ([math.pi / 2.0 + k * math.pi / math.sqrt(2.0) for k in range(1, 11)], "inconclusive"),
        ([math.pi / 2.0 + k * math.pi / math.sqrt(2.0) for k in range(1, 12)],
         "cofluctuation zeros follow"),
    ], ids=["none", "one", "grid-spaced", "one-off", "envelope-spaced", "one-missing",
            "on-the-zeros"])
    def test_coherent_instants_verdict_rests_on_the_searched_zeros(self, capsys, monkeypatch,
                                                                   times, verdict):
        t, ones, zeros = np.array(times, dtype=float), np.ones(len(times)), np.zeros(len(times))
        scan = quantum.coherence_scan
        monkeypatch.setattr(cli, "coherence_scan", lambda p, t_lo, t_hi: dataclasses.replace(
            scan(p, t_lo, t_hi), t=t, sq_ratio=ones, sp_ratio=ones, c_qp=zeros, t_predicted=t,
            offset=zeros))
        code, out, _ = run(capsys, "validate", "--format", "json")
        assert code == 0
        inst = {c["name"]: c for c in json.loads(out)["checks"]}["coherent_instants"]
        assert inst["verdict"].startswith(verdict)
        assert len(inst["evidence"]["found_t"]) == 11

    def test_window_far_past_the_switch_is_judged(self, capsys):
        # the oracle steps only the switch window, so a window 65,000 periods
        # out costs no more than one next to it
        code, out, err = run(capsys, "validate", "--alpha", "0", "--t0", "4.1e5", "--t1", "410060")
        assert code == 0 and err == ""
        assert "inconclusive" not in out
        assert out.count("verdict:") == 4

    @pytest.mark.parametrize("aw", [0.0, 0.5, 0.97, 0.999999])
    @pytest.mark.parametrize("omega", [1e-8, 0.1, 1.0, 3.0, 1e8])
    def test_oracle_steps_stay_above_the_refusal_floor(self, omega, aw):
        # what the flat flow saves: stepped at the oracle's tolerance, each
        # flat stretch costs, up to every accepted step, at least
        # _FLAT_STEPS_PER_PERIOD steps for each period after the first, the
        # floor by which validate once refused windows far from the switch
        p = OscParams(alpha=aw / omega, omega=omega)
        w0, w3 = p.initial_frequency, p.final_frequency
        s0, s1 = -40.0 * math.pi / w0, p.switch_end + 40.0 * math.pi / w3
        c, s = math.cos(w0 * s0), math.sin(w0 * s0)
        start = (complex(p.before_re * c, p.before_im * s),
                 complex(-p.before_re * w0 * s, p.before_im * w0 * c))
        times = integrate_ode(p, s0, s1, start, tol=cli._ORACLE_TOL).times
        for lo, hi, w in ((s0, 0.0, w0), (p.switch_end, s1, w3)):
            stretch = times[(times >= lo) & (times <= hi)]
            periods = (stretch[1:] - lo) * w / (2.0 * math.pi)
            steps = np.arange(1, len(stretch))
            assert periods[-1] > 19.0
            assert np.all(steps >= _FLAT_STEPS_PER_PERIOD * (periods - 1.0))

    @pytest.mark.parametrize("aw", [0.5, 0.97])
    @pytest.mark.parametrize("t0", [1e4, 1e5, 1e6])
    def test_far_windows_reproduce_the_oracle_closely(self, capsys, t0, aw):
        # the flat flow carries the state exactly, so the oracle's error is
        # the window run's alone, not a drift grown over the span
        code, out, _ = run(capsys, "validate", f"--alpha={aw}", f"--t0={t0!r}", f"--t1={t0 + 60.0!r}",
                           "--grid-n=64", "--format=json")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        evidence = checks["post_switch_phase_constant"]["evidence"]
        assert evidence["ode_max_error_computed"] < 1e-11
        assert evidence["ode_max_error_reference"] > 1e-1
        assert (evidence["ode_start"], evidence["ode_end"]) == (0.0, math.pi / 2.0)
        assert 10 <= evidence["ode_accepted_steps"] <= 15
        assert all("inconclusive" not in c["verdict"] for c in checks.values())

    def test_phase_constant_verdict_scales_with_the_amplitude(self, capsys):
        # at omega 1e-100 |eps| reaches about 1e50, so an error of about 1e37
        # is a relative error near 1e-13, and the adopted constant is judged
        code, out, _ = run(capsys, "validate", "--omega=1e-100", "--t0=-5", "--t1=2e100",
                           "--format=json")
        assert code == 0
        phase = {c["name"]: c for c in json.loads(out)["checks"]}["post_switch_phase_constant"]
        assert phase["evidence"]["ode_max_error_computed"] > 1e30
        assert phase["evidence"]["ode_max_error_reference"] > 1e49
        assert phase["verdict"].startswith("adopted constant reproduces")

    def test_derivative_check_scales_with_the_probe(self, capsys):
        # at omega 1e-100 the probe sits near 7.9e99, where a step of 1e-5
        # rounds away, and eps_dot is near 1e-50; alpha*omega = 0.5 there
        code, out, _ = run(capsys, "validate", "--omega=1e-100", "--alpha=5e99", "--t0=-5",
                           "--t1=2e100", "--format=json")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        deriv = checks["switching_derivative_sin_factor"]["evidence"]
        assert deriv["fd_error_computed"] < 1e-60 < 1e-52 < deriv["fd_error_reference"]
        assert all("inconclusive" not in c["verdict"] for c in checks.values())

    def test_derivative_check_cannot_separate_factors_below_rounding(self, capsys):
        # at the default alpha, alpha*omega = 5e-101 and the two factors give
        # one double, so the check stays open, but on a finite difference of
        # relative error near 1e-12 rather than on rounding noise
        code, out, _ = run(capsys, "validate", "--omega=1e-100", "--t0=-5", "--t1=2e100",
                           "--format=json")
        assert code == 0
        deriv = {c["name"]: c for c in json.loads(out)["checks"]}["switching_derivative_sin_factor"]
        assert deriv["evidence"]["fd_error_computed"] == deriv["evidence"]["fd_error_reference"] < 1e-60
        assert deriv["verdict"].startswith("inconclusive")

    def test_omega_whose_oracle_underflows_is_refused(self, capsys):
        # the oracle steps eps'' = -Omega^2*eps; below the bound Omega^2 is
        # subnormal or 0 and the run is a free particle's
        lowest = math.sqrt(sys.float_info.min)
        while lowest * lowest < sys.float_info.min:
            lowest = math.nextafter(lowest, math.inf)
        code, out, err = run(capsys, "validate", f"--omega={lowest!r}", "--alpha=0", "--grid-n=16")
        assert code == 0 and err == "" and out.count("verdict:") == 4
        for omega in (math.nextafter(lowest, 0.0), 1e-200):
            code, out, err = run(capsys, "validate", f"--omega={omega!r}", "--alpha=0")
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"omega={omega!r}" in err

    def test_scan_without_events_has_no_computed_value(self, capsys, monkeypatch):
        none, scan = np.empty(0), quantum.coherence_scan
        monkeypatch.setattr(cli, "coherence_scan", lambda p, t_lo, t_hi: dataclasses.replace(
            scan(p, t_lo, t_hi), t=none, sq_ratio=none, sp_ratio=none, c_qp=none, t_predicted=none,
            offset=none))
        code, out, _ = run(capsys, "validate", "--format", "json")
        assert code == 0
        inst = {c["name"]: c for c in json.loads(out)["checks"]}["coherent_instants"]
        assert inst["computed_value"] is None


class TestConfigFile:
    def test_file_values_apply(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nalpha = 0\nsamples = 5\nt0 = 0\nt1 = 2\n")
        code, out, _ = run(capsys, "profile", "--config", str(cfg))
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert comments["alpha"] == "0.0"
        assert all(r[1] == 1.0 for r in rows)

    def test_flags_override_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0\n")
        code, out, _ = run(capsys, "profile", "--alpha", "0.5", "--samples", "3",
                           "--t0", "-1", "--t1", "-0.5", "--config", str(cfg))
        assert code == 0
        comments, _, _ = parse_csv(out)
        assert comments["alpha"] == "0.5"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frequency = 3\n")
        code, _, err = run(capsys, "profile", "--config", str(cfg))
        assert code == 2
        assert "unknown" in err or "known key" in err

    def test_missing_file_rejected(self, capsys):
        assert run(capsys, "profile", "--config", "/no/such/file")[0] == 2

    def test_malformed_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = fast\n")
        assert run(capsys, "profile", "--config", str(cfg))[0] == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("key", [row[0] for row in cli._SETTINGS])
    def test_every_setting_reads_alike_from_the_file_and_its_flag(self, capsys, tmp_path, key, fmt):
        value = fmt if key == "format" else SETTING_VALUES[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        base = ["moments"] if key == "format" else ["moments", "--format", fmt]
        from_file = run(capsys, *base, "--config", str(cfg))
        from_flag = run(capsys, *base, f"--{key.replace('_', '-')}={value}")
        assert from_file == from_flag
        code, out, err = from_file
        assert code == 0 and err == ""
        if fmt == "csv":
            assert parse_csv(out)[0][key] == value
        else:
            assert str(json.loads(out)["config"][key]) == value

    def test_out_reads_alike_from_the_file_and_its_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'from_file.csv'}\n")
        assert run(capsys, "moments", "--samples", "3", "--config", str(cfg)) == (0, "", "")
        assert run(capsys, "moments", "--samples", "3",
                   "--out", str(tmp_path / "from_flag.csv")) == (0, "", "")
        text = (tmp_path / "from_file.csv").read_text()
        assert (tmp_path / "from_flag.csv").read_text() == text
        assert run(capsys, "moments", "--samples", "3") == (0, text, "")

    @pytest.mark.parametrize("text, line, flags, message", [
        ("grid_n = 16.0\n", 1, [], "grid_n must be an int, got '16.0'"),
        # read and refused although the flag overrides it
        ("samples = 1e3\n", 1, ["--samples", "5"], "samples must be an int, got '1e3'"),
        ("# a comment\nalpha =\n", 2, [], "alpha must not be empty"),
        ("out =\n", 1, ["--out", "{tmp}/table.csv"], "out must not be empty"),
    ], ids=["float-for-int", "overridden", "empty", "empty-overridden"])
    def test_value_that_does_not_convert_names_its_line_and_key(self, capsys, tmp_path, text, line,
                                                                flags, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        flags = [f.format(tmp=tmp_path) for f in flags]
        assert run(capsys, "profile", "--config", str(cfg), *flags) == (
            2, "", f"error: {cfg}:{line}: {message}\n")
        assert not (tmp_path / "table.csv").exists()


# a value other than the default for each row of cli._SETTINGS but format,
# written as the outputs echo it
SETTING_VALUES = {"alpha": "0.25", "omega": "1.5", "mass": "2.0", "hbar": "0.5", "z_re": "-0.75",
                  "z_im": "1.25", "t0": "-1.5", "t1": "2.5", "samples": "4", "t": "0.5",
                  "n_sigma": "4.0", "grid_n": "20"}


class TestMalformedFlagValues:
    """A flag value that does not convert exits 2 with one error line naming the key."""

    @pytest.mark.parametrize("argv, message", [
        (["--samples", "three"], "samples must be an int, got 'three'"),
        (["--grid-n=16.0"], "grid_n must be an int, got '16.0'"),
        (["--alpha", "fast"], "alpha must be a float, got 'fast'"),
        (["--format", "xml"], "format must be 'csv' or 'json', got 'xml'"),
        (["--alpha="], "alpha must not be empty"),
        (["--out="], "out must not be empty"),
        (["--config="], "config must not be empty"),
    ], ids=["int", "float-for-int", "float", "format", "empty-float", "empty-out", "empty-config"])
    def test_one_error_line(self, capsys, argv, message):
        assert run(capsys, "profile", *argv) == (2, "", f"error: {message}\n")

    def test_unknown_flag_keeps_the_usage_message(self, capsys):
        code, out, err = run(capsys, "profile", "--bogus")
        assert code == 2 and out == ""
        assert err.startswith("usage: switchosc ") and "unrecognized arguments: --bogus" in err

    @pytest.mark.parametrize("argv", [
        ("epsilon", "--t0", "-1e3", "--t1", "-1", "--samples", "3"),
        ("profile", "--t0", "-2.5E-1", "--t1", "-1e-2", "--samples", "3", "--format", "json"),
        ("wigner", "--z-re", "-1e-3", "--z-im", "-.5e1", "--t", "-2e0", "--grid-n", "16"),
        ("moments", "--alpha", "-0e0", "--samples", "3"),
        # abbreviated flags, as argparse reads them
        ("epsilon", "--t0", "-1e3", "--t1", "-1", "--sam", "3", "--n-sig", "4e0"),
    ])
    def test_negative_values_in_exponent_notation_read_alike_in_both_spellings(self, capsys, argv):
        # argparse alone reads a separate '-1e3' as a flag
        joined = [argv[0], *(f"{k}={v}" for k, v in zip(argv[1::2], argv[2::2]))]
        spaced = run(capsys, *argv)
        assert spaced == run(capsys, *joined)
        assert spaced[0] == 0 and spaced[2] == ""

    @pytest.mark.parametrize("argv, message", [
        (["--t0", "-inf"], "need finite t0 < t1, got t0=-inf, t1=10.0"),
        (["--samples", "-1e3"], "samples must be an int, got '-1e3'"),
        (["--samples", "-3"], "samples must be at least 2, got -3"),
    ])
    def test_negative_values_that_fail_their_checks_give_one_error_line(self, capsys, argv, message):
        assert run(capsys, "profile", *argv) == (2, "", f"error: {message}\n")

    def test_flag_types_name_every_long_flag_of_each_subcommand(self):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for parser in sub.choices.values():
            flags = {s for action in parser._actions for s in action.option_strings if s.startswith("--")}
            assert flags == set(cli._FLAG_TYPES)

    def test_a_flag_followed_by_a_flag_keeps_the_usage_message(self, capsys):
        code, out, err = run(capsys, "profile", "--t0", "--t1", "-1e3")
        assert code == 2 and out == ""
        assert err.startswith("usage: switchosc ") and "argument --t0: expected one argument" in err


class TestJsonTables:
    def test_structure(self, capsys):
        code, out, _ = run(capsys, "moments", "--format", "json", "--samples", "5",
                           "--t0", "-1", "--t1", "1")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "columns", "rows"}
        assert doc["config"]["command"] == "moments"
        assert doc["columns"][0] == "t"
        assert len(doc["rows"][0]) == len(doc["columns"])


def _scalar_row(command: str, t: float, p: OscParams, z: complex) -> list:
    """The library's one-instant values for a table row; None marks a residual."""
    if command == "profile":
        return [t, omega_of(t, p)]
    if command == "epsilon":
        a = epsilon(t, p)
        return [t, a.eps.real, a.eps.imag, a.eps_dot.real, a.eps_dot.imag, abs(a.eps), None]
    if command == "phase-diagram":
        fm = first_moments(z, t, p)
        return [t, fm.q_mean, fm.p_mean, *conserved_pair(z, t, p)]
    cov = second_moments(t, p)
    return [t, cov.sq2, cov.sp2, cov.cqp, None, omega_of(t, p)]


class TestTablesMatchTheScalarLibrary:
    @pytest.mark.parametrize("alpha", ["0.5", "0.97"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["profile", "epsilon", "phase-diagram", "moments"])
    def test_every_row_matches(self, capsys, command, fmt, alpha):
        code, out, _ = run(capsys, command, "--format", fmt, "--alpha", alpha,
                           "--samples", "301", "--t0", "-4", "--t1", "9")
        assert code == 0
        if fmt == "csv":
            _, _, rows = parse_csv(out)
        else:
            rows = json.loads(out)["rows"]
        got = np.array(rows)
        p = OscParams(alpha=float(alpha))
        want = [_scalar_row(command, t, p, 1.0 + 0.2j) for t in got[:, 0].tolist()]
        assert math.pi / 2.0 in got[:, 0] and 0.0 in got[:, 0]
        for j in range(got.shape[1]):
            if want[0][j] is None:
                assert np.all(got[:, j] < 1e-10)
                continue
            col = np.array([row[j] for row in want])
            tol = 16 * np.spacing(np.max(np.abs(col)))
            assert np.all(np.abs(got[:, j] - col) <= tol), f"column {j}"


class TestEntryPoints:
    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_cleanly(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_one_parser_serves_every_call_as_a_fresh_one_would(self, capsys):
        argvs = [
            ["epsilon", "--samples", "three"],  # malformed value, exit 2
            ["epsilon", "--samples", "3", "--t0", "0", "--t1", "1"],
            ["--help"],
            ["moments", "--samples", "3", "--format", "json"],
            ["profile", "--samples", "2", "--bogus"],  # usage error, exit 2
            ["profile", "--samples", "2", "--t0", "0", "--t1", "1"],
        ]
        fresh = []
        for argv in argvs:
            _build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        parser = _build_parser()
        # twice through the list on the one cached parser
        shared = [run(capsys, *argv) for argv in argvs + argvs]
        assert _build_parser() is parser
        assert shared == fresh + fresh
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 2, 0]

    def test_module_execution(self):
        # the child imports the same switchosc as this process, installed or not
        src = str(Path(switchosc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "switchosc", "profile", "--samples", "2",
             "--t0", "0", "--t1", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "t,omega" in proc.stdout
