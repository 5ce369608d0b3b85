"""``repro.obs`` — protocol observability: metrics, tracing, bench artifacts.

The paper argues LPPA's practicality through per-phase cost (Theorem 4's
communication bits, Fig. 5's computation overhead); this package makes
those quantities first-class, machine-readable outputs of every run:

* :mod:`repro.obs.registry` — the counter/timer store with nested phase
  scopes;
* :mod:`repro.obs.clock` — the single monotonic clock all timing reads;
* :mod:`repro.obs.artifact` — schema-versioned ``BENCH_*.json`` files;
* :mod:`repro.obs.diff` — exact counter and gauge comparison against a
  committed baseline (the ``repro metrics diff`` CLI, CI's baseline gate).

This module is the *instrumentation surface*: the crypto, prefix, lppa and
experiment layers call :func:`count`, :func:`timer` and :func:`phase` here.
By default **nothing is collecting** and every call is a cheap early-out on
a module global — the hot paths (one :func:`count` per HMAC invocation) pay
one ``is None`` test.  Collection is opt-in::

    from repro import obs

    with obs.collecting() as registry:
        run_lppa_auction(...)
    print(registry.totals()["crypto.hmac"])

Worker processes spawned by the experiment engine do not share the parent's
registry; per-sweep rollups are recorded parent-side by the engine itself,
so sweep metrics survive parallel runs while per-op counts are only
complete in serial runs (the CLI's ``--metrics`` default).

While :func:`collecting` is active, a ``gc.callbacks`` hook times every
pass of CPython's cyclic garbage collector as the ``runtime.gc`` timer
under the phase scope it lands in, so collector cost is a named layer
rather than time hidden in whatever line happened to allocate.

Tracing (:mod:`repro.obs.trace`, the protocol flight recorder) composes
under the same context: ``collecting(trace=True)`` installs a trace
recorder alongside the registry, and :func:`phase` then opens a metrics
phase scope *and* a trace span together, so aggregate timings and
per-event records share one set of phase names.
"""

from __future__ import annotations

from types import TracebackType
from typing import ContextManager, Dict, Iterator, Optional, Type, Union

import contextlib
import gc

from repro.obs.artifact import (
    ARTIFACT_PREFIX,
    SCHEMA_VERSION,
    build_artifact,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.obs.clock import monotonic
from repro.obs.diff import DiffReport, diff_artifacts
from repro.obs.hist import Gauge, Histogram
from repro.obs.openmetrics import render_openmetrics
from repro.obs.registry import MetricsRegistry, TimerStat
from repro.obs.trace import TRACE_SCHEMA_VERSION, TraceRecorder
from repro.obs import trace  # re-export: instrumented code calls obs.trace.message(...)

# ``collecting``'s keyword argument shadows the module name in its scope.
_trace_module = trace

__all__ = [
    "ARTIFACT_PREFIX",
    "SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "DiffReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimerStat",
    "TraceRecorder",
    "build_artifact",
    "collecting",
    "count",
    "diff_artifacts",
    "disable",
    "enable",
    "get_active",
    "load_artifact",
    "merge_histogram",
    "observe",
    "phase",
    "record_seconds",
    "render_openmetrics",
    "set_gauge",
    "timer",
    "trace",
    "tracing",
    "unmeasured",
    "validate_artifact",
    "write_artifact",
]

_active: Optional[MetricsRegistry] = None


class _NullScope:
    """Shared no-op context manager returned while collection is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        """No-op entry."""
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        """No-op exit."""


_NULL_SCOPE = _NullScope()


def get_active() -> Optional[MetricsRegistry]:
    """The registry currently collecting, or ``None`` when disabled."""
    return _active


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) the active registry; a fresh one by default."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> Optional[MetricsRegistry]:
    """Stop collecting; returns the registry that was active, if any."""
    global _active
    previous = _active
    _active = None
    return previous


_gc_started = 0.0


def _time_collection(stage: str, info: Dict[str, int]) -> None:
    """``gc.callbacks`` hook: record each collector pass as ``runtime.gc``.

    Only the duration is recorded.  How many passes run depends on the
    interpreter's allocation counts, so no counter is emitted: it would
    break the exact counter gate of ``repro metrics diff``.
    """
    global _gc_started
    if stage == "start":
        _gc_started = monotonic()
        return
    registry = _active
    if registry is not None:
        registry.record_seconds("runtime.gc", monotonic() - _gc_started)


@contextlib.contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
    *,
    trace: "Optional[Union[bool, TraceRecorder]]" = None,
) -> Iterator[MetricsRegistry]:
    """Enable collection for a ``with`` block, restoring the prior state.

    Yields the (possibly freshly created) registry so callers can snapshot
    it afterwards.  Nesting is allowed; the inner block's registry simply
    shadows the outer one for its duration.

    ``trace`` optionally installs the flight recorder for the same block:
    pass ``True`` for a fresh :class:`TraceRecorder`, or an existing
    recorder instance.  Retrieve it afterwards via the recorder you passed
    (or :func:`repro.obs.trace.get_active` inside the block).

    The outermost block also installs the ``runtime.gc`` collector hook and
    removes it on exit, so runs that collect nothing pay nothing for it.
    """
    global _active
    previous = _active
    installed = enable(registry)
    hook = _time_collection not in gc.callbacks
    if hook:
        gc.callbacks.append(_time_collection)
    try:
        if trace is None or trace is False:
            yield installed
        else:
            recorder = None if trace is True else trace
            with _trace_module.recording(recorder):
                yield installed
    finally:
        _active = previous
        if hook:
            gc.callbacks.remove(_time_collection)


@contextlib.contextmanager
def unmeasured() -> Iterator[None]:
    """Run verification work (an in-process reference round) unmeasured.

    Counts go to a throwaway registry and nothing is traced, so the
    caller's registry and trace hold the measured work alone.
    """
    with collecting(MetricsRegistry()), _trace_module.suspended():
        yield


def tracing(
    recorder: Optional[TraceRecorder] = None,
) -> "ContextManager[TraceRecorder]":
    """Enable the flight recorder alone (no metrics registry) for a block.

    Convenience re-export of :func:`repro.obs.trace.recording`.
    """
    return _trace_module.recording(recorder)


def count(name: str, n: int = 1) -> None:
    """Increment a counter on the active registry; no-op when disabled."""
    registry = _active
    if registry is not None:
        registry.count(name, n)


def record_seconds(name: str, seconds: float, count_: int = 1) -> None:
    """Record pre-measured seconds on the active registry; no-op when disabled."""
    registry = _active
    if registry is not None:
        registry.record_seconds(name, seconds, count_)


def observe(name: str, value: float, count_: int = 1) -> None:
    """Fold a histogram observation into the active registry; no-op when disabled."""
    registry = _active
    if registry is not None:
        registry.observe(name, value, count_)


def merge_histogram(name: str, hist: Histogram) -> None:
    """Merge a pre-built histogram into the active registry; no-op when disabled."""
    registry = _active
    if registry is not None:
        registry.merge_histogram(name, hist)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry; no-op when disabled."""
    registry = _active
    if registry is not None:
        registry.set_gauge(name, value)


def timer(name: str) -> ContextManager[object]:
    """A timing context manager; a shared no-op object when disabled."""
    registry = _active
    if registry is None:
        return _NULL_SCOPE
    return registry.timer(name)


class _CombinedPhaseScope:
    """Enters a metrics phase scope and a trace span together.

    Keeps the two layers' phase names aligned: aggregate wall time lands
    under ``phase/<path>`` in the registry while the flight recorder gets
    one ``span`` record for the same interval.
    """

    __slots__ = ("_scopes",)

    def __init__(self, *scopes: ContextManager[object]) -> None:
        self._scopes = scopes

    def __enter__(self) -> "_CombinedPhaseScope":
        for scope in self._scopes:
            scope.__enter__()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        for scope in reversed(self._scopes):
            scope.__exit__(exc_type, exc, tb)


def phase(name: str) -> ContextManager[object]:
    """A phase-scope context manager; a shared no-op object when disabled.

    With only the registry active this is a metrics phase scope; with the
    flight recorder also active the same ``with`` block additionally emits
    one trace ``span`` under the same name.
    """
    registry = _active
    recorder = _trace_module.get_active()
    if registry is None and recorder is None:
        return _NULL_SCOPE
    if recorder is None:
        assert registry is not None
        return registry.phase(name)
    if registry is None:
        return recorder.span(name)
    return _CombinedPhaseScope(registry.phase(name), recorder.span(name))
