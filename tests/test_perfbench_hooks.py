"""The repository benchmark's per-layer hooks still find their targets.

``perfbench/tracing.py`` wraps named functions of the library to time each
layer.  A target that a refactor moves or renames is skipped and its
per-layer metric silently reads 0, so every target must resolve.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(target):
    module_name, class_name, attribute, _, _ = target
    module = importlib.import_module(module_name)
    if class_name:
        return getattr(module, class_name).__dict__.get(attribute)
    return getattr(module, attribute, None)


def test_every_tracing_target_resolves_and_restores():
    tracing = _load_tracing()
    originals = [_current(target) for target in tracing.TARGETS]
    restore, missing = tracing.install(tracing.SpanRecorder())
    try:
        assert missing == []
        wrapped = [_current(target) for target in tracing.TARGETS]
    finally:
        restore()
    assert all(now is not before for now, before in zip(wrapped, originals))
    assert [_current(target) for target in tracing.TARGETS] == originals
