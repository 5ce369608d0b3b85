"""The metrics registry: counters, timers and phase scopes.

One :class:`MetricsRegistry` holds everything a run records:

* **counters** — monotonically increasing integers (HMAC invocations,
  Paillier operations, masked-set digests, wire bytes, ...);
* **timers** — accumulated wall seconds plus an invocation count (and the
  min/max batch mean), so a timer's *mean* is meaningful ("seconds per
  trial");
* **histograms** — bounded log-bucket distributions
  (:class:`~repro.obs.hist.Histogram`) for tail-latency questions the
  aggregate timers cannot answer;
* **gauges** — last-write-wins floats (:class:`~repro.obs.hist.Gauge`):
  cache occupancy, connected clients, queue backlogs;
* **phase scopes** — a context-manager stack of names.  While a phase is
  open, every counter and timer recorded lands under a scoped key
  ``<phase.path>/<metric.name>``, and closing the phase records its own
  wall time under ``phase/<phase.path>``.  That is how "HMAC calls during
  bid submission" and "HMAC calls during TTP charging" stay separable.

Naming convention: metric names use dots (``crypto.hmac``,
``lppa.bid_bytes``); the single ``/`` separates the phase path from the
name.  :meth:`MetricsRegistry.totals` folds the scoped counters back into
per-metric totals by splitting on that ``/``.

Registries are plain objects — create as many as you like.  The module-level
convenience layer that the instrumented code calls (and that makes the whole
subsystem a no-op when nothing is collecting) lives in :mod:`repro.obs`.

Not thread-safe by design: the protocol and experiment code are
single-threaded per process, and the parallel sweep engine's worker
*processes* do not share the parent's registry (worker-side counts are not
folded back; the engine records its rollups in the parent).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import TracebackType
from typing import Dict, List, Mapping, Optional, Type

from repro.obs.clock import Stopwatch
from repro.obs.hist import Gauge, Histogram

__all__ = ["PHASE_TIMER_PREFIX", "TimerStat", "MetricsRegistry", "fold_counters"]

#: Timer-key prefix under which phase wall times are recorded.
PHASE_TIMER_PREFIX = "phase"


def fold_counters(counters: Mapping[str, int]) -> Dict[str, int]:
    """Scoped counters folded across phases: bare metric name -> total."""
    rolled: Dict[str, int] = {}
    for key, value in counters.items():
        bare = key.rsplit("/", 1)[-1]
        rolled[bare] = rolled.get(bare, 0) + value
    return rolled


@dataclass
class TimerStat:
    """Accumulated wall seconds and invocation count of one timer key.

    ``min_seconds``/``max_seconds`` track the smallest and largest batch
    *mean* folded in (for ``count=1`` adds, the sample itself).  They are
    ``None`` — never a numeric sentinel — until the first :meth:`add`, and
    :meth:`as_dict` only emits ``min``/``max`` once there is data, so a
    never-updated timer serializes exactly as before and artifact diffs
    never confuse "absent" with "zero".
    """

    seconds: float = 0.0
    count: int = 0
    min_seconds: Optional[float] = None
    max_seconds: Optional[float] = None

    def add(self, seconds: float, count: int = 1) -> None:
        """Fold one measurement (or a pre-aggregated batch) into the stat."""
        if seconds < 0:
            raise ValueError("timer seconds must be non-negative")
        if count < 1:
            raise ValueError("timer count must be >= 1")
        self.seconds += seconds
        self.count += count
        sample = seconds / count
        if self.min_seconds is None or sample < self.min_seconds:
            self.min_seconds = sample
        if self.max_seconds is None or sample > self.max_seconds:
            self.max_seconds = sample

    @property
    def mean(self) -> float:
        """Seconds per invocation."""
        return self.seconds / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready form; ``min``/``max`` appear only once data exists."""
        out: Dict[str, float] = {"seconds": self.seconds, "count": self.count}
        if self.count:
            assert self.min_seconds is not None and self.max_seconds is not None
            out["min"] = self.min_seconds
            out["max"] = self.max_seconds
        return out


class _TimerScope:
    """Context manager recording its ``with`` block's wall time."""

    __slots__ = ("_registry", "_name", "_watch")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._watch: Optional[Stopwatch] = None

    def __enter__(self) -> "_TimerScope":
        self._watch = Stopwatch()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        assert self._watch is not None, "timer scope exited before entry"
        self._registry.record_seconds(self._name, self._watch.elapsed())


class _PhaseScope:
    """Context manager pushing a phase name and timing the whole phase.

    The phase's wall time is recorded under ``phase/<path>`` using the
    *parent* scope (the phase key identifies the nesting already).

    A phase opened directly inside a phase of the *same name* is
    reentrant: the inner scope neither pushes the stack nor records time.
    Its interval is wholly contained in the outer one, so recording both
    ``phase/a`` and ``phase/a.a`` would double-count the same wall-clock
    seconds in any per-name rollup.  Sibling same-name phases (close, then
    reopen) are *not* reentrant — their intervals are disjoint, and each
    records into the shared key.
    """

    __slots__ = ("_registry", "_name", "_watch", "_path", "_reentrant")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._watch: Optional[Stopwatch] = None
        self._path = ""
        self._reentrant = False

    def __enter__(self) -> "_PhaseScope":
        phases = self._registry._phases
        if phases and phases[-1] == self._name:
            self._reentrant = True
            return self
        self._registry._push_phase(self._name)
        self._path = self._registry.phase_path()
        self._watch = Stopwatch()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if self._reentrant:
            return
        assert self._watch is not None, "phase scope exited before entry"
        elapsed = self._watch.elapsed()
        self._registry._pop_phase(self._name)
        key = f"{PHASE_TIMER_PREFIX}/{self._path}"
        self._registry.record_raw_seconds(key, elapsed)
        # Per-phase *distribution* (one sample per phase close) alongside
        # the aggregate timer: tail phase cost across rounds is visible.
        self._registry.observe_raw(key, elapsed)


class MetricsRegistry:
    """Counter/timer store with a phase-scope stack.

    All mutation goes through :meth:`count`, :meth:`record_seconds`,
    :meth:`timer` and :meth:`phase`; :meth:`snapshot` returns the
    JSON-ready view that artifacts embed.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, TimerStat] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._phases: List[str] = []

    # -- phase scoping -----------------------------------------------------

    def phase(self, name: str) -> _PhaseScope:
        """Open a phase scope: ``with registry.phase("bid_submission"): ...``."""
        self._check_name(name)
        return _PhaseScope(self, name)

    def phase_path(self) -> str:
        """Dot-joined path of currently open phases (``""`` at top level)."""
        return ".".join(self._phases)

    def _push_phase(self, name: str) -> None:
        self._phases.append(name)

    def _pop_phase(self, name: str) -> None:
        if not self._phases or self._phases[-1] != name:
            raise RuntimeError(
                f"phase stack corrupted: closing {name!r} "
                f"but stack is {self._phases!r}"
            )
        self._phases.pop()

    def _scoped(self, name: str) -> str:
        path = self.phase_path()
        return f"{path}/{name}" if path else name

    # -- counters ----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` under the current phase scope."""
        key = self._scoped(name)
        self._counters[key] = self._counters.get(key, 0) + n

    # -- timers ------------------------------------------------------------

    def timer(self, name: str) -> _TimerScope:
        """A context manager timing its block under the current phase scope."""
        self._check_name(name)
        return _TimerScope(self, name)

    def record_seconds(self, name: str, seconds: float, count: int = 1) -> None:
        """Record externally measured seconds under the current phase scope."""
        self.record_raw_seconds(self._scoped(name), seconds, count)

    def record_raw_seconds(self, key: str, seconds: float, count: int = 1) -> None:
        """Record seconds under an exact key, bypassing phase scoping."""
        stat = self._timers.get(key)
        if stat is None:
            stat = self._timers[key] = TimerStat()
        stat.add(seconds, count)

    # -- histograms --------------------------------------------------------

    def observe(self, name: str, value: float, count: int = 1) -> None:
        """Fold ``value`` into the histogram ``name`` under the current scope."""
        self._check_name(name)
        self.observe_raw(self._scoped(name), value, count)

    def observe_raw(self, key: str, value: float, count: int = 1) -> None:
        """Fold into the histogram at an exact key, bypassing phase scoping."""
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        hist.observe(value, count)

    def merge_histogram(self, name: str, other: Histogram) -> None:
        """Fold a whole pre-built histogram in (worker rollups, loadgen)."""
        self._check_name(name)
        self.merge_histogram_raw(self._scoped(name), other)

    def merge_histogram_raw(self, key: str, other: Histogram) -> None:
        """Fold a pre-built histogram at an exact key, bypassing phase scoping."""
        hist = self._histograms.get(key)
        if hist is None:
            self._histograms[key] = other.copy()
        else:
            hist.merge(other)

    # -- gauges ------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` (last write wins) under the current scope."""
        self._check_name(name)
        self.set_gauge_raw(self._scoped(name), value)

    def set_gauge_raw(self, key: str, value: float) -> None:
        """Set the gauge at an exact key, bypassing phase scoping."""
        gauge = self._gauges.get(key)
        if gauge is None:
            self._gauges[key] = Gauge(value)
        else:
            gauge.set(value)

    # -- views -------------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Scoped counter keys -> accumulated values (copy)."""
        return dict(self._counters)

    @property
    def timers(self) -> Dict[str, TimerStat]:
        """Scoped timer keys -> :class:`TimerStat` (shallow copy)."""
        return dict(self._timers)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """Scoped histogram keys -> :class:`Histogram` (shallow copy)."""
        return dict(self._histograms)

    @property
    def gauges(self) -> Dict[str, float]:
        """Scoped gauge keys -> current values (copy)."""
        return {k: g.value for k, g in self._gauges.items()}

    def totals(self) -> Dict[str, int]:
        """Counters folded across phases: bare metric name -> total."""
        return fold_counters(self._counters)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view: counters, timers, totals, histograms, gauges."""
        return {
            "counters": dict(self._counters),
            # A copy: a collector pass inside as_dict() may add a
            # ``runtime.gc`` key (repro.obs.collecting's hook).
            "timers": {k: t.as_dict() for k, t in self.timers.items()},
            "totals": self.totals(),
            "histograms": {k: h.as_dict() for k, h in self._histograms.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
        }

    def reset(self) -> None:
        """Drop every recorded metric (open phases survive)."""
        self._counters.clear()
        self._timers.clear()
        self._histograms.clear()
        self._gauges.clear()

    @staticmethod
    def _check_name(name: str) -> None:
        if not name:
            raise ValueError("metric/phase names must be non-empty")
        if "/" in name:
            raise ValueError(
                f"metric/phase names must not contain '/' (got {name!r}); "
                "'/' separates the phase path from the metric name"
            )
