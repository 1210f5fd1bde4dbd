"""The benchmark's traced layers name functions the package still has.

``switchbench/worker.py`` wraps each ``TRACED`` function by module and name
and reports a missing one only as a missing layer, so a rename or prune in
``switchosc`` would silently blind the traced metrics.
"""

import importlib
import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "switchbench" / "worker.py"


def _traced():
    spec = importlib.util.spec_from_file_location("switchbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for metric, home, attr in traced:
        module = importlib.import_module(f"switchosc.{home}")
        assert callable(getattr(module, attr, None)), metric
