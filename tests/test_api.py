"""The public surface: `mcl.__all__` and the functions perfbench traces."""

import importlib
import importlib.util
from pathlib import Path

import mcl

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [name for name in mcl.__all__ if not hasattr(mcl, name)] == []


def test_every_tracer_target_resolves():
    # perfbench/tracer.py wraps each target by name, so a renamed or deleted
    # function breaks every traced benchmark run; load it without installing
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
