"""Timing wrappers around the program's layer boundaries.

The traced run installs a wrapper around each public function listed in
:data:`TARGETS`.  A wrapper records one span — its layer name, start, end
and parent — in a :class:`SpanRecorder` kept in memory; the benchmark
wraps every operation in an ``op`` span, so the spans of one operation
form a tree under it.  Self time is a span's duration minus the time its
child spans cover; :meth:`SpanRecorder.summary` adds it up per layer.

Nothing in the program is changed on disk: :func:`install` replaces the
attributes in memory and the returned callable puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
from collections import defaultdict
from time import perf_counter

#: (module, class or None for a module function, attribute, layer span name,
#: kind) — "cm" marks a context-manager function
TARGETS = (
    ("repro.api.connection", "Cursor", "execute", "api", "call"),
    ("repro.api.connection", "Cursor", "fetchall", "api", "call"),
    ("repro.api.connection", "Connection", "commit", "api", "call"),
    ("repro.api.router", "StatementRouter", "analyze", "vql.analyze", "call"),
    ("repro.api.router", None, "parse_statement", "vql.parse", "call"),
    ("repro.service.service", None, "translate_query", "algebra.translate",
     "call"),
    ("repro.optimizer.search", "Optimizer", "optimize", "optimizer.optimize",
     "call"),
    ("repro.service.service", None, "prepare_plan", "physical.compile",
     "call"),
    ("repro.service.service", "RowStream", "fetch", "physical.execute",
     "call"),
    ("repro.service.prepared", "PreparedExecutable", "run",
     "physical.execute", "call"),
    ("repro.service.service", "QueryService", "stream_analyzed", "service",
     "call"),
    # the router holds QueryService.execute_analyzed as a bound method,
    # so the class-level wrapper goes one call further in
    ("repro.service.service", "QueryService", "_execute_prepared", "service",
     "call"),
    ("repro.service.service", "QueryService", "begin_transaction", "service",
     "call"),
    ("repro.service.service", "QueryService", "commit_transaction", "service",
     "call"),
    ("repro.service.service", "ServiceMetrics", "record", "telemetry.record",
     "call"),
    ("repro.datamodel.database", "Database", "acquire_snapshot",
     "datamodel.snapshot", "call"),
    ("repro.datamodel.database", "Database", "release_snapshot",
     "datamodel.snapshot", "call"),
    ("repro.datamodel.database", "Database", "commit_scope",
     "datamodel.commit_scope", "cm"),
    ("repro.storage.adapter", "FileStorageAdapter", "log_commit",
     "storage.wal", "call"),
    ("repro.storage.adapter", "FileStorageAdapter", "flush", "storage.wal",
     "call"),
    ("repro.storage.adapter", "FileStorageAdapter", "checkpoint",
     "storage.checkpoint", "call"),
)


class SpanRecorder:
    """Spans of the calling thread, in memory, in open order."""

    def __init__(self) -> None:
        #: [name, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._thread = threading.get_ident()

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for index, (name, start, end, _) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - covered[index]
        return dict(out)

    def write(self, path: str) -> None:
        """Write the spans out as JSON lines ``[name, start, end, parent]``
        with times in nanoseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    [name, round((start - origin) * 1e9),
                     round((end - origin) * 1e9), parent]) + "\n")


def _wrap_call(function, name: str, recorder: SpanRecorder):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if threading.get_ident() != recorder._thread:
            return function(*args, **kwargs)
        index = recorder.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.close(index)
    return wrapper


def _wrap_cm(function, name: str, recorder: SpanRecorder):
    @functools.wraps(function)
    @contextlib.contextmanager
    def wrapper(*args, **kwargs):
        if threading.get_ident() != recorder._thread:
            with function(*args, **kwargs) as value:
                yield value
            return
        index = recorder.open(name)
        try:
            with function(*args, **kwargs) as value:
                yield value
        finally:
            recorder.close(index)
    return wrapper


def install(recorder: SpanRecorder, targets=TARGETS):
    """Wrap every target that exists; returns ``(restore, missing)`` where
    ``restore()`` puts the original functions back."""
    saved = []
    missing = []
    for module_name, class_name, attribute, name, kind in targets:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        original = owner.__dict__.get(attribute) if class_name else \
            getattr(owner, attribute, None)
        if original is None:
            missing.append(f"{module_name}.{class_name or ''}.{attribute}")
            continue
        wrap = _wrap_cm if kind == "cm" else _wrap_call
        setattr(owner, attribute, wrap(original, name, recorder))
        saved.append((owner, attribute, original))

    def restore() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
    return restore, missing


def count_plans_explored():
    """Count the logical plans the optimizer explores while installed;
    returns ``(counter, restore)`` where ``counter`` is a dict with
    ``calls`` and ``plans``."""
    search = importlib.import_module("repro.optimizer.search")
    original = search.Optimizer.__dict__["optimize"]
    counter = {"calls": 0, "plans": 0}

    @functools.wraps(original)
    def optimize(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        counter["calls"] += 1
        counter["plans"] += result.statistics.logical_plans_explored
        return result

    search.Optimizer.optimize = optimize

    def restore() -> None:
        search.Optimizer.optimize = original
    return counter, restore
