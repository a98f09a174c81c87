"""In-memory span tracing around the package's public entry points.

``Instrumentation.install()`` replaces each target function with a
wrapper that records a span (name, start, end, parent) in flat arrays;
``uninstall()`` restores the originals, so untraced passes run the
program untouched. A target is replaced wherever the module graph holds
a reference to it (package re-exports and ``from x import f`` copies
included), found by identity. Self time is a span's duration minus the
durations of its direct children; spans nest because everything runs in
one thread.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.invocation"   # the harness around one CLI invocation


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (s) and self seconds."""
        names = np.frombuffer(self.name, dtype=np.int32)
        dur, own = self_times(self.parent, self.start, self.end)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(busy[i]), "self_s": float(selfs[i])}
                for i, n in enumerate(self.names)}


def self_times(parent, start, end) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span; parent is -1 for a root."""
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur, dur - children


def _wrap(tracer: Tracer, span, fn, after):
    fixed = tracer.name_id(span) if isinstance(span, str) else None

    def traced(*args, **kwargs):
        i = tracer.open(fixed if fixed is not None else tracer.name_id(span(args)))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(tracer.counters, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


class Instrumentation:
    """Targets are (module, attribute or Class.method, span name or a
    function of the call's arguments returning one, counter hook or None).
    The hook gets (counters, args, result) after a call returns."""

    def __init__(self, targets):
        self.targets = targets
        self._restore: list[tuple[object, str, object]] = []

    def install(self, tracer: Tracer) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "apktriage" or name.startswith("apktriage.")]
        for module_name, attr, span, after in self.targets:
            owner = importlib.import_module(module_name)
            if "." in attr:          # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, _wrap(tracer, span, original, after))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, span, original, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def timed_items(gen_fn, sink: list[float]):
    """Wrap a generator function so the time the consumer spends on each
    yielded item (yield to the next request) is appended to ``sink``."""
    def wrapper(*args, **kwargs):
        for item in gen_fn(*args, **kwargs):
            t0 = perf_counter()
            yield item
            sink.append(perf_counter() - t0)
    wrapper.__wrapped__ = gen_fn
    return wrapper
