"""The benchmark's traced run wraps synorres functions named by string
(module plus qualname); a rename in the package would only surface when
`perfbench/run.py --trace 1` installs its probes.  Resolve them here."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_probe_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = []
    for probe in layers.probes():
        obj = importlib.import_module(probe.module)
        for part in probe.qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{probe.module}.{probe.qualname}")
    assert not missing, f"benchmark probes name no function: {missing}"
