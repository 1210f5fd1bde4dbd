"""switchosc benchmark: one workload, one run, one JSON result line.

    python3 switchbench/run.py --workload {tables,grid,oracle,all} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Set-up time is measured on fresh interpreter
launches; the operations run in one worker process (worker.py), a closed loop
of in-process ``switchosc.cli.main`` calls; every output is then checked by
checks.py, and the checkers' self-test runs on this run's own outputs.  The
last line of stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".switchbench"

# Cache compiled bytecode inside the checkout, whatever the caller's settings,
# so every warm launch reads the same caches.
sys.pycache_prefix = str(SCRATCH / "pycache")
sys.dont_write_bytecode = False

from workloads import WORKLOADS, make_cycle  # noqa: E402

# the numbers measure the program, not BLAS threads fighting over two cores
THREAD_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_LAUNCHES = 9    # measured launches, after one discarded warm-up launch
MIN_SUCCESSES = 100   # so the 90th percentile has at least ten operations beyond it
TAIL_PERCENTILE = 90
TRACE_MIN_CYCLES = 6  # three untraced and three traced

SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import switchosc.cli
t2 = time.perf_counter()
print(json.dumps({"numpy_s": t1 - t0, "switchosc_s": t2 - t1}), flush=True)
"""

COUNTS = ("frequency.omega_of.calls", "classical.epsilon.calls", "quantum.first_moments.calls",
          "quantum.conserved_pair.calls", "quantum.second_moments.calls",
          "quantum.coherence_scan.calls", "quantum.envelope.calls", "quantum.find_root.calls",
          "numerics.integrate_ode.calls", "numerics.rhs_calls", "numerics.quadrature.evals",
          "numerics.find_root.evals")
TIMES = ("frequency.omega_of.s", "classical.epsilon.s", "quantum.first_moments.s",
         "quantum.conserved_pair.s", "quantum.second_moments.s", "quantum.coherence_scan.s",
         "numerics.integrate_ode.s", "numerics.quadrature.s", "wigner.wigner_grid.s",
         "wigner.grid_integral.s", "wigner.grid_to_csv.s", "wigner.grid_to_json.s", "cli.self_s")


def child_env() -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    return env


def measure_setup() -> tuple[list[float], list[dict]]:
    """Wall time from launching an interpreter until switchosc.cli is imported.

    The discarded first launch also imports worker.py and builds the CLI
    parser, so that in a fresh checkout the worker does not compile modules
    (argparse's messages pull in locale), and grow its peak RSS, while it is
    measured.
    """
    warm_up = (f"import contextlib, io, sys; sys.path.insert(0, {str(BENCH)!r}); import worker\n"
               "import switchosc.cli\n"
               "with contextlib.redirect_stdout(io.StringIO()): switchosc.cli.main(['--help'])\n"
               + SETUP_PROBE)
    walls, imports = [], []
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", warm_up if i == 0 else SETUP_PROBE],
                              stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        if i > 0:
            walls.append(wall)
            imports.append(json.loads(line))
    return walls, imports


def out_path(run_dir: Path, op) -> Path:
    return run_dir / f"{op.slot:02d}.{op.fmt}"


def run_worker(ops, run_dir: Path, seconds: float, trace: bool) -> dict:
    per_cycle = sum(not op.known_fault for op in ops)
    spec = {
        "src": str(SRC),
        "ops": [{"argv": [*op.argv, f"--out={out_path(run_dir, op)}"], "out": str(out_path(run_dir, op))}
                for op in ops],
        "seconds": seconds,
        "min_cycles": TRACE_MIN_CYCLES if trace else math.ceil(MIN_SUCCESSES / per_cycle),
        "trace": int(trace),
    }
    spec_path, result_path = run_dir / "spec.json", run_dir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
                          env=child_env(), cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(res["module_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"worker imported switchosc from {res['module_file']}, not {SRC}")
    return res


def check_outputs(workload: str, ops, res: dict, run_dir: Path) -> tuple[list, list[str]]:
    """Check every slot's output; later cycles must reproduce it byte for byte."""
    import checks

    done, problems, passed = [], [], []
    for op, first in zip(ops, res["first"]):
        path = out_path(run_dir, op)
        text = path.read_text(encoding="utf-8") if path.exists() else None
        try:
            done.append(checks.check_op(op, first["rc"], text, first["stdout"], first["stderr"]))
            if text is not None:
                passed.append((op, text, first["stdout"]))
        except (checks.CheckError, KeyError, ValueError, IndexError) as exc:
            done.append((0.0, 0))
            problems.append(f"slot {op.slot} ({' '.join(op.argv)}): {type(exc).__name__}: {exc}")
    for cycle, slot, _, _, digest in res["records"]:
        if digest != res["first"][slot]["digest"]:
            problems.append(f"slot {slot}: output of cycle {cycle} differs from the checked one")
    problems += [f"self-test: {f}" for f in checks.selftest(workload, passed)]
    return done, problems


def end_to_end(res: dict, done: list, walls: list[float]) -> dict:
    records = res["records"]
    ok = sorted(s for _, _, s, rc, _ in records if rc == 0)
    per_slot: dict[int, list[float]] = {}
    for _, slot, s, rc, _ in records:
        if rc == 0:
            per_slot.setdefault(slot, []).append(s)
    work = sum(done[slot][0] for _, slot, _, rc, _ in records if rc == 0)
    return {
        "setup_s": (statistics.median(walls), "s"),
        # median over the cycle's operations of each one's mean time: the median
        # of single executions flips between the host's fast and slow states
        "op_p50_s": (statistics.median(statistics.mean(v) for v in per_slot.values()), "s"),
        "op_tail_s": (ok[math.ceil(TAIL_PERCENTILE / 100 * len(ok)) - 1], "s"),
        "work_per_s": (work / sum(s for _, _, s, _, _ in records), "work/s"),
        "peak_rss_mb": (res["peak_rss_kib"] / 1024.0, "MiB"),
    }


def per_layer(ops, res: dict, done: list, imports: list[dict]) -> dict:
    """Per-cycle layer metrics; counts come from one traced cycle, times are medians."""
    traces = res["traces"]
    if res["missing_layers"]:
        print(f"warning: not traced, reads 0: {', '.join(res['missing_layers'])}", file=sys.stderr)
    for t in traces[1:]:
        if any(t.get(k, 0) != traces[0].get(k, 0) for k in COUNTS):
            print("warning: call counts differ between traced cycles", file=sys.stderr)
    cycle_s: dict[int, float] = {}
    for cycle, _, s, _, _ in res["records"]:
        cycle_s[cycle] = cycle_s.get(cycle, 0.0) + s
    traced = [s for c, s in cycle_s.items() if c % 2 == 1]
    plain = [s for c, s in cycle_s.items() if c % 2 == 0]
    out = {
        "import.numpy_s": (statistics.median(i["numpy_s"] for i in imports), "s"),
        "import.switchosc_s": (statistics.median(i["switchosc_s"] for i in imports), "s"),
    }
    out.update({k: (traces[0].get(k, 0), "count") for k in COUNTS})
    out.update({k: (statistics.median(t.get(k, 0.0) for t in traces), "s") for k in TIMES})
    out["wigner.cells"] = (int(sum(w for op, (w, _) in zip(ops, done) if op.command == "wigner")), "count")
    out["cli.rows"] = (sum(rows for _, rows in done), "count")
    out["cli.bytes_out"] = (sum(f["bytes"] for f in res["first"]), "bytes")
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = make_cycle(workload, seed)
    run_dir = SCRATCH / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    marks = [time.perf_counter()]
    try:
        walls, imports = measure_setup()
        marks.append(time.perf_counter())
        res = run_worker(ops, run_dir, seconds, trace)
        marks.append(time.perf_counter())
        done, problems = check_outputs(workload, ops, res, run_dir)
        marks.append(time.perf_counter())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    phases = (f"{name} {b - a:.1f} s" for name, a, b in zip(("set-up", "worker", "checks"), marks, marks[1:]))
    print(f"{workload}: {res['cycles']} cycles; " + ", ".join(phases), file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = per_layer(ops, res, done, imports) if trace else end_to_end(res, done, walls)
    return {
        "correct": not problems,
        "attempted": len(res["records"]),
        "failed": sum(rc != 0 for _, _, _, rc, _ in res["records"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "switchosc" / "cli.py").is_file():
        print(f"error: no switchosc sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for wl in workloads:
        r = run_one(wl, args.seed, args.seconds, bool(args.trace))
        results[wl] = r
        print(f"{wl}: correct={str(r['correct']).lower()} attempted={r['attempted']} failed={r['failed']}")
        for name, m in r["metrics"].items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
