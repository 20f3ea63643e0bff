"""The benchmark's span tracer wraps wptmod functions by name; none may vanish."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    if not (BENCH / "spans.py").exists():
        pytest.skip("bench/ is not in this checkout")
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("spans", "workloads", "oracles")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("spans")
    for name in names:
        sys.modules.pop(name, None)


def test_every_traced_function_exists(spans):
    missing = [
        f"wptmod.{mod}.{func}"
        for mod, func, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"wptmod.{mod}"), func, None))
    ]
    assert spans.TARGETS and not missing
