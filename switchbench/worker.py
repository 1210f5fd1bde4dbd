"""The measured process: a closed loop of in-process ``switchosc.cli.main`` calls.

One client, one operation at a time.  Reads a JSON spec (argv list per slot,
run length, trace flag), runs one untimed warm-up cycle, then whole timed
cycles until the run length is reached, and writes per-operation records as
JSON.  With tracing on, untraced and traced cycles alternate and the traced
ones record call counts and busy time at each layer's public functions.

Usage: python3 worker.py SPEC.json RESULT.json
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (metric name, defining module, function).  Each function is wrapped under
# every switchosc module attribute that refers to it, i.e. at the names its
# callers look it up through.
TRACED = (
    ("frequency.omega_of", "frequency", "omega_of"),
    ("classical.epsilon", "classical", "epsilon"),
    ("quantum.envelope", "classical", "envelope"),
    ("quantum.first_moments", "quantum", "first_moments"),
    ("quantum.conserved_pair", "quantum", "conserved_pair"),
    ("quantum.second_moments", "quantum", "second_moments"),
    ("quantum.coherence_scan", "quantum", "coherence_scan"),
    ("quantum.find_root", "numerics", "find_root"),
    ("numerics.integrate_ode", "numerics", "integrate_ode"),
    ("numerics.quadrature", "numerics", "quadrature"),
    ("wigner.wigner_grid", "wigner", "wigner_grid"),
    ("wigner.grid_integral", "wigner", "grid_integral"),
    ("wigner.grid_to_csv", "wigner", "grid_to_csv"),
    ("wigner.grid_to_json", "wigner", "grid_to_json"),
)
# functions whose first argument is a callable whose evaluations are counted
COUNTS_EVALS = {"quantum.find_root": "numerics.find_root.evals",
                "numerics.quadrature": "numerics.quadrature.evals"}


class Tracer:
    """Span stack with per-name call counts and inclusive busy time."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.stack: list[str] = []
        self.child_s = 0.0  # time in spans directly under the root
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        calls, busy, stack = self.calls, self.busy, self.stack
        evals_key = COUNTS_EVALS.get(name)
        calls_key = name + ".calls"

        def counted(f):
            def g(*a, **k):
                calls[evals_key] += 1
                return f(*a, **k)
            return g

        def wrapped(*args, **kwargs):
            calls[calls_key] += 1
            if name == "frequency.omega_of" and stack and stack[-1] == "numerics.integrate_ode":
                calls["numerics.rhs_calls"] += 1
            if evals_key is not None:
                args = (counted(args[0]), *args[1:])
            stack.append(name)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                busy[name] += dt
                if len(stack) == 1:
                    self.child_s += dt

        return wrapped

    def install(self) -> None:
        for name, home, attr in TRACED:
            fn = getattr(self.modules[home], attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in self.modules.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self.patches.append((mod, key, val))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, val in reversed(self.patches):
            setattr(mod, key, val)
        self.patches.clear()

    def root(self, main):
        """Run ``main`` as the root span; returns (rc, seconds)."""
        self.stack.append("cli.main")
        t0 = perf()
        try:
            rc = main()
        finally:
            dt = perf() - t0
            self.stack.pop()
        return rc, dt

    def snapshot(self, main_s: float) -> dict:
        out = dict(self.calls)
        out.update({f"{k}.s": v for k, v in self.busy.items()})
        out["cli.self_s"] = main_s - self.child_s
        return out


def _digest(rc: int, out: str, err: str, path: str) -> tuple[str, int]:
    h = hashlib.sha256(f"{rc}\0{out}\0{err}\0".encode())
    size = 0
    if os.path.exists(path):
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                size += len(chunk)
    return h.hexdigest(), size


def run_op(cli, argv: list[str], path: str, tracer: Tracer | None):
    if os.path.exists(path):
        os.remove(path)
    gc.collect()
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        if tracer is None:
            t0 = perf()
            rc = cli.main(argv)
            dt = perf() - t0
        else:
            rc, dt = tracer.root(lambda: cli.main(argv))
    digest, size = _digest(rc, so.getvalue(), se.getvalue(), path)
    return {"s": dt, "rc": rc, "digest": digest, "bytes": size + len(so.getvalue().encode()),
            "stdout": so.getvalue(), "stderr": se.getvalue()}


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import switchosc.cli as cli
    from switchosc import classical, frequency, numerics, quantum, wigner

    modules = {"frequency": frequency, "classical": classical, "numerics": numerics,
               "quantum": quantum, "wigner": wigner, "cli": cli}
    ops = spec["ops"]

    warm = [run_op(cli, op["argv"], op["out"], None) for op in ops]
    first = [{k: r[k] for k in ("rc", "digest", "bytes", "stdout", "stderr")} for r in warm]

    records = []  # (cycle, slot, seconds, rc, digest)
    traces = []   # per traced cycle: metric -> value
    missing: list[str] = []
    cycle = 0
    start = perf()
    while cycle < spec["min_cycles"] or perf() - start < spec["seconds"]:
        tracer = Tracer(modules) if spec["trace"] and cycle % 2 == 1 else None
        main_s = 0.0
        if tracer is not None:
            tracer.install()
            missing = tracer.missing
        try:
            for slot, op in enumerate(ops):
                r = run_op(cli, op["argv"], op["out"], tracer)
                records.append((cycle, slot, r["s"], r["rc"], r["digest"]))
                main_s += r["s"]
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            traces.append(tracer.snapshot(main_s))
        cycle += 1

    result = {
        "first": first,
        "records": records,
        "traces": traces,
        "missing_layers": missing,
        "cycles": cycle,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module_file": cli.__file__,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
