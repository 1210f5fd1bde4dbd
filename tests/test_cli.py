"""Command-line surface: table contents, formats, config handling, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import switchosc
from switchosc import OscParams, conserved_pair, epsilon, first_moments, omega_of, second_moments
from switchosc.cli import MAX_GRID_N, MAX_SAMPLES, _build_parser, _resolve_config, main

FIG_Q0 = 1.7320508075688772  # sqrt(3)


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

    @pytest.mark.parametrize("command", ["phase-diagram", "wigner", "validate"])
    @pytest.mark.parametrize("label", [["--z-re", "nan"], ["--z-im", "inf"], ["--z-re=-inf"]])
    def test_non_finite_state_label_rejected(self, capsys, command, label):
        code, out, err = run(capsys, command, *label, "--grid-n", "16")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "z_re and z_im" in err


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
            ["epsilon", "--samples", "three"],  # usage error, exit 2
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
