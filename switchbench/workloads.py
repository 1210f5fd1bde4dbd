"""Seeded operation cycles for the three workloads.

A workload is a cycle of operations, each one argv for ``switchosc.cli.main``.
A run repeats the same cycle whole, so every run covers the same multiset of
operations whatever its length.  The seed only jitters values inside narrow
classes; the classes themselves (alpha*omega level, window placement, output
format, subcommand) are fixed per slot, so the cost of a cycle barely depends
on the seed.

Every cycle holds 15 operations that should succeed: with 15 ranked slots the
median (rank 7.5/15) and the 90th percentile (rank 13.5/15) both sit in the
middle of one slot's block of repeats, never on the boundary between two
slots of different cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("tables", "grid", "oracle")

# alpha*omega classes: static switch, a mid value, close to 1
AW_CLASSES = ((0.0, 0.0), (0.48, 0.52), (0.968, 0.972))
TABLE_SAMPLES = 10001
TABLE_SPAN = 12.0
GRID_N = 225  # odd, so the grid centre is a grid point
VALIDATE_SPAN = 60.0
SCAN_SPAN = 300.0  # stays below t = 512, where 1e-13 root polishing still resolves

# Windows reaching past t = 1024, where the coherence scan's absolute 1e-13
# root tolerance is finer than the spacing of doubles.  Fixed, not seeded.
KNOWN_FAULT_ARGV = (
    ("coherence", "--t0=1030.0", "--t1=1060.0"),
    ("coherence", "--alpha=0.3", "--t0=1000.0", "--t1=1100.0"),
)
KNOWN_FAULT_STDERR = "error: root not located to 1e-13 within 200 iterations\n"


@dataclass
class Op:
    """One operation of a cycle: the argv and the values the checkers need."""

    slot: int
    command: str
    fmt: str
    argv: list[str]
    alpha: float = 0.5
    omega: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0
    z: complex = 1 + 0.2j
    t0: float = -5.0
    t1: float = 10.0
    t: float = 0.0
    n_sigma: float = 6.0
    samples: int = 601
    grid_n: int = 128
    known_fault: bool = False

    @property
    def aw(self) -> float:
        return self.alpha * self.omega

    @property
    def t_switch(self) -> float:
        return math.pi / (2.0 * self.omega)


def _arg(name: str, value) -> str:
    # '=' keeps argparse from reading a negative value as an option
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _params(rng: random.Random, aw_class: int) -> dict:
    lo, hi = AW_CLASSES[aw_class]
    omega = rng.uniform(0.99, 1.01)
    aw = rng.uniform(lo, hi)
    return {
        "alpha": aw / omega,
        "omega": omega,
        "mass": rng.uniform(0.8, 1.25),
        "hbar": rng.uniform(0.8, 1.25),
        "z": complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
    }


def _make(slot: int, command: str, fmt: str, extra: list[str], **kw) -> Op:
    op = Op(slot=slot, command=command, fmt=fmt, argv=[], **kw)
    op.argv = [command,
               _arg("alpha", op.alpha), _arg("omega", op.omega),
               _arg("mass", op.mass), _arg("hbar", op.hbar),
               _arg("z-re", op.z.real), _arg("z-im", op.z.imag),
               _arg("format", fmt), *extra]
    return op


def _window(rng: random.Random, placement: int, t_switch: float, span: float) -> tuple[float, float]:
    """A window of fixed ``span`` before, across or after the switch.

    Across the switch, about a quarter of the window precedes it: the share
    decides the integrator's cost, so the seed moves it only a little.
    """
    if placement == 0:
        t1 = -rng.uniform(0.5, 1.5)
        return t1 - span, t1
    if placement == 1:
        t0 = -span * rng.uniform(0.25, 0.29)
        return t0, t0 + span
    t0 = t_switch + rng.uniform(0.5, 1.5)
    return t0, t0 + span


def tables_cycle(rng: random.Random) -> list[Op]:
    # epsilon, phase-diagram and moments four times each, profile three times;
    # (i % 4, i % 3, i // 4) walks every subcommand through every alpha*omega
    # class and window placement, and each subcommand through both formats.
    commands = ("epsilon", "phase-diagram", "moments", "profile")
    ops = []
    for i in range(15):
        prm = _params(rng, i % 3)
        placement = (i // 4) % 3
        fmt = ("csv", "json")[(i + i // 4) % 2]
        t0, t1 = _window(rng, placement, math.pi / (2.0 * prm["omega"]), TABLE_SPAN)
        ops.append(_make(i, commands[i % 4], fmt,
                         [_arg("t0", t0), _arg("t1", t1), _arg("samples", TABLE_SAMPLES)],
                         t0=t0, t1=t1, samples=TABLE_SAMPLES, **prm))
    return ops


def grid_cycle(rng: random.Random) -> list[Op]:
    # (i % 3, (i // 3) % 3) covers every alpha*omega class at every instant
    # placement; eight CSV and seven JSON grids.
    ops = []
    for i in range(15):
        prm = _params(rng, i % 3)
        placement = (i // 3) % 3
        t_switch = math.pi / (2.0 * prm["omega"])
        t = (-rng.uniform(0.5, 3.0), t_switch * rng.uniform(0.2, 0.8),
             t_switch + rng.uniform(0.5, 3.0))[placement]
        n_sigma = rng.uniform(5.5, 6.5)
        fmt = ("csv", "json")[i % 2]
        ops.append(_make(i, "wigner", fmt,
                         [_arg("t", t), _arg("n-sigma", n_sigma), _arg("grid-n", GRID_N)],
                         t=t, n_sigma=n_sigma, grid_n=GRID_N, **prm))
    return ops


def oracle_cycle(rng: random.Random) -> list[Op]:
    # nine validate reports (3 alpha*omega classes x 3 window placements),
    # six coherence scans, then the fixed scans that hit the known fault
    ops = []
    for i in range(9):
        prm = _params(rng, i % 3)
        placement = i // 3
        t0, t1 = _window(rng, placement, math.pi / (2.0 * prm["omega"]), VALIDATE_SPAN)
        ops.append(_make(i, "validate", "json", [_arg("t0", t0), _arg("t1", t1)],
                         t0=t0, t1=t1, **prm))
    for i in range(9, 15):
        prm = _params(rng, i % 3)
        t0 = math.pi / (2.0 * prm["omega"]) + rng.uniform(0.5, 2.0)
        fmt = ("csv", "json")[i % 2]
        ops.append(_make(i, "coherence", fmt, [_arg("t0", t0), _arg("t1", t0 + SCAN_SPAN)],
                         t0=t0, t1=t0 + SCAN_SPAN, **prm))
    for k, argv in enumerate(KNOWN_FAULT_ARGV):
        vals = dict(a.lstrip("-").split("=") for a in argv[1:])
        ops.append(Op(slot=15 + k, command="coherence", fmt="csv", argv=list(argv),
                      alpha=float(vals.get("alpha", 0.5)), t0=float(vals["t0"]),
                      t1=float(vals["t1"]), known_fault=True))
    return ops


def make_cycle(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return {"tables": tables_cycle, "grid": grid_cycle, "oracle": oracle_cycle}[workload](rng)
