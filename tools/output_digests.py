"""Print one SHA-256 digest per CLI output over a fixed set of invocations.

Each invocation runs in this process through ``switchosc.cli.main``; its exit
code, stdout and stderr are hashed together and printed as ``<sha256>  <argv>``.
Config-file invocations run in a fresh temporary directory that holds only
``run.cfg``, named relative to it, so neither the printed argv nor an error
message holds a temporary path; their line ends with ``# run.cfg: `` and the
file's lines. Run it on two checkouts and diff the listings to see which
outputs a change moves:

    python tools/output_digests.py > change.txt
    python tools/output_digests.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

The set covers every subcommand at alpha*omega = 0, 0.5 and 0.97 (omega = 1),
in both formats, at four windows or instants each, plus a few invocations
that fail or sit at the edge of double precision or time resolution, two
`validate` windows far past the switch, two whose amplitude reaches about
1e50 (``--omega=1e-100 --t0=-5 --t1=2e100``, at alpha*omega = 5e-101 and
0.5), one whose derivative probe lies past t = 1 (``--omega=0.5``), one
whose omega it refuses (``--omega=1e-200``), a `coherence` and a
`validate` whose flat post-switch envelope has an m*Omega that underflows,
the longest `coherence` window the size rule accepts at the default
parameters and the next one it refuses, negative flag values in exponent
notation written as separate arguments, a few small outputs, a few large
ones that span many blocks of the array float formatter (grids of odd and
even size among them, whose first half ends inside a block, in its last
row or on its end), and a few that read settings from a config file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

TABLES = ("profile", "epsilon", "phase-diagram", "moments")
ALPHAS = ("0", "0.5", "0.97")
FORMATS = ("csv", "json")
TABLE_WINDOWS = (("-5", "10"), ("-2", "-0.5"), ("0.25", "1.25"), ("3", "40"))
WIGNER_INSTANTS = ("-2", "0", "0.8", "6")
# the default window (three post-switch periods), two later ones and one far out
SCAN_WINDOWS = ((), ("--t0=2", "--t1=30"), ("--t0=100", "--t1=160"), ("--t0=1e6", "--t1=1000010"))
VALIDATE_WINDOWS = (("-5", "10"), ("-3", "-1"), ("0.5", "20"), ("2", "30"))
EDGE_CASES = (
    ("moments", "--omega=1e-307", "--mass=1e-5", "--alpha=0", "--samples=3"),
    ("phase-diagram", "--omega=1e-300", "--z-re=1e200", "--samples=3"),
    ("coherence", "--alpha=1e-17"),
    ("validate", "--alpha=1e-17", "--format=json"),
    ("profile", "--samples=1"),
    ("coherence", "--t0=0"),
    ("epsilon", "--alpha=2"),
    ("validate", "--omega=1e-307", "--mass=1e-5", "--alpha=0", "--format=csv", "--grid-n=16"),
    ("validate", "--omega=1e-307", "--mass=1e-5", "--alpha=0", "--format=json", "--grid-n=16"),
    # scans past t = 1024, where the doubles lie more than 1e-13 apart; the
    # benchmark's oracle cycle runs these two, and both succeed
    ("coherence", "--t0=1030", "--t1=1060"),
    ("coherence", "--alpha=0.3", "--t0=1000", "--t1=1100"),
    # a validate window just wider than the switch window, so that it holds
    # the oracle's steps and a few instants carried by the flat flow
    ("validate", "--alpha=0.97", "--t0=-0.05", "--t1=1.6", "--format=json"),
    # validate windows far past the switch, which the oracle reaches by the flat flow
    ("validate", "--t0=1e4", "--t1=10060"),
    ("validate", "--alpha=0.5", "--t0=1e6", "--t1=1000060"),
    # a validate window whose amplitude reaches about 1e50, which the phase
    # constant's verdict judges relative to that size, at alpha*omega = 5e-101
    # and 0.5; the derivative check's step and bar scale with its probe
    ("validate", "--omega=1e-100", "--t0=-5", "--t1=2e100"),
    ("validate", "--omega=1e-100", "--alpha=5e99", "--t0=-5", "--t1=2e100"),
    # a validate whose derivative probe pi/(4*omega) lies past 1
    ("validate", "--omega=0.5", "--format=json"),
    # an omega whose Omega^2 underflows, which validate refuses
    ("validate", "--omega=1e-200"),
    # a flat post-switch envelope whose m*Omega underflows, so that the
    # uniform ratios leave the doubles; both exit 1
    ("coherence", "--omega=1e-150", "--mass=1e-300", "--alpha=0"),
    ("validate", "--omega=1e-100", "--mass=1e-250", "--alpha=0"),
    # the longest coherence window from the default start that the size rule
    # accepts (62499 events), and the next double of t1, which it refuses
    ("coherence", "--t1=138841.66261377573"),
    ("coherence", "--t1=138841.66261377576"),
    # a table window the doubles cannot resolve
    ("epsilon", "--t0=1e20", "--t1=1.0000000000001e20", "--samples=3"),
    # negative values in exponent notation, each a separate argument
    ("epsilon", "--t0", "-1e3", "--t1", "-1", "--samples", "3"),
    # flag values that do not convert to their setting's type, or are empty
    ("profile", "--samples=three"),
    ("profile", "--format=xml"),
    ("profile", "--alpha="),
    ("profile", "--out="),
    # small outputs in both formats: a table of 6 values, a scan of a few
    # events, and a grid whose axes hold 16 values each
    *(("profile", "--samples=2", f"--format={fmt}") for fmt in FORMATS),
    *(("coherence", "--t0=2", "--t1=8", f"--format={fmt}") for fmt in FORMATS),
    *(("wigner", "--grid-n=16", f"--format={fmt}") for fmt in FORMATS),
)
# outputs of many formatter blocks: tables of about 70000 and 60000 values, grids of
# 50625 to 65536 cells, three-digit exponents of both signs, and tables whose blocks
# differ in the words their values need
LARGE_CASES = (
    *((cmd, f"--format={fmt}", "--samples=10001") for cmd in ("epsilon", "moments") for fmt in FORMATS),
    # grids that read the same backwards, whose first half ends inside a block
    # (225: 18 rows a block, middle row 113), in the last row of one (255: 16
    # rows a block, middle row 128) and on a block's end (256)
    *(("wigner", f"--format={fmt}", f"--grid-n={n}") for n in (225, 255, 256) for fmt in FORMATS),
    ("phase-diagram", "--z-re=1e200", "--samples=2001"),
    ("phase-diagram", "--omega=1e-200", "--z-re=1e200", "--samples=2001", "--format=json"),
    # integer parts of 10**4 and more, and negatives, in some blocks only
    ("profile", "--t0=-20000", "--t1=20000", "--samples=10001"),
    # exponent notation in the middle blocks only
    ("profile", "--t0=-0.001", "--t1=0.001", "--samples=10001", "--format=json"),
)
# (lines of run.cfg, argv): settings from the file, some overridden by a flag
CONFIG_CASES = (
    (("alpha = 0.25", "samples = 7", "t0 = -1", "t1 = 2"), ("moments", "--config=run.cfg")),
    (("alpha = 0.25", "samples = 7", "t0 = -1", "t1 = 2"),
     ("epsilon", "--config=run.cfg", "--samples=5", "--format=json")),
    (("# a wigner grid", "z_re = -0.5", "t = 0.8", "grid_n = 17", "n_sigma = 4"),
     ("wigner", "--config=run.cfg", "--format=json")),
    (("omega = 2", "hbar = 0.5", "format = json"), ("validate", "--config=run.cfg", "--grid-n=16")),
    # values that do not convert, overridden by a flag or not
    (("grid_n = 16.0",), ("wigner", "--config=run.cfg")),
    (("samples = 1e3",), ("profile", "--config=run.cfg", "--samples=5")),
    (("alpha =",), ("profile", "--config=run.cfg")),
)


def invocations() -> list[tuple[str, ...]]:
    """The fixed argv set, in the order it is run and printed."""
    out: list[tuple[str, ...]] = []
    for alpha in ALPHAS:
        for fmt in FORMATS:
            common = (f"--alpha={alpha}", f"--format={fmt}")
            for cmd in TABLES:
                for t0, t1 in TABLE_WINDOWS:
                    out.append((cmd, *common, f"--t0={t0}", f"--t1={t1}", "--samples=301"))
            for t in WIGNER_INSTANTS:
                out.append(("wigner", *common, f"--t={t}", "--grid-n=33"))
            for window in SCAN_WINDOWS:
                out.append(("coherence", *common, *window))
            for t0, t1 in VALIDATE_WINDOWS:
                out.append(("validate", *common, f"--t0={t0}", f"--t1={t1}", "--grid-n=64"))
    out.extend(EDGE_CASES)
    out.extend(LARGE_CASES)
    return out


def digest(main, argv: tuple[str, ...]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(list(argv))
    h = hashlib.sha256(f"{rc}\n".encode())
    for text in (stdout.getvalue(), stderr.getvalue()):
        h.update(b"\0" + text.encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="directory holding the switchosc package (default: this checkout's src)")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    cli = importlib.import_module("switchosc.cli")
    # every warning is printed each time, so an output does not depend on
    # which invocations ran before it
    warnings.simplefilter("always")
    for argv in invocations():
        print(f"{digest(cli.main, argv)}  {' '.join(argv)}")
    cwd = os.getcwd()
    for lines, argv in CONFIG_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "run.cfg").write_text("".join(f"{ln}\n" for ln in lines), encoding="utf-8")
            os.chdir(tmp)
            try:
                h = digest(cli.main, argv)
            finally:
                os.chdir(cwd)
        print(f"{h}  {' '.join(argv)}  # run.cfg: {'; '.join(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
