"""Fixed-bucket histograms and gauges for the metrics registry.

The registry's counters and :class:`~repro.obs.registry.TimerStat`s answer
"how much, how often"; a :class:`Histogram` answers "how is it
distributed" — tail latency of networked rounds, per-phase wall time
across rounds, loadgen round latencies — in **bounded memory**: a fixed
log-spaced bucket grid is laid down once and every observation lands in
one of ``decades * per_decade + 2`` integer cells, so a multi-hour loadgen
run costs the same bytes as a ten-second one.

Bucket semantics (shared with the OpenMetrics exposition): boundary ``i``
is ``lower * 10**(i / per_decade)``; bucket ``i`` covers
``(bound[i-1], bound[i]]``, bucket ``0`` is everything ``<= lower`` and
the last bucket is the ``+Inf`` overflow.  Quantile estimates return the
upper edge of the bucket holding the requested rank (clamped into the
exactly-tracked ``[min, max]``), which keeps them within **one bucket
width** — a multiplicative factor of ``10**(1/per_decade)`` ≈ 1.26 at the
default resolution — of the exact sorted-sample percentile.

A :class:`Gauge` is the trivial counterpart: a last-write-wins float
(mask-cache occupancy, connected clients, TTP backlog).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LOWER",
    "DEFAULT_DECADES",
    "DEFAULT_PER_DECADE",
    "Histogram",
    "Gauge",
    "quantile_from_cumulative",
]

#: Smallest distinguishable value (seconds): 1 microsecond.
DEFAULT_LOWER = 1e-6

#: Bucket grid spans ``lower`` .. ``lower * 10**decades`` (1 µs .. 10 ks).
DEFAULT_DECADES = 10

#: Buckets per decade of the log-spaced grid (resolution factor ~1.26).
DEFAULT_PER_DECADE = 10

#: Quantiles ``percentiles()`` reports, as (label, q) pairs.
PERCENTILE_LABELS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p999", 0.999),
)

_BOUNDS_CACHE: Dict[Tuple[float, int, int], Tuple[float, ...]] = {}


def _bounds(lower: float, decades: int, per_decade: int) -> Tuple[float, ...]:
    key = (lower, decades, per_decade)
    cached = _BOUNDS_CACHE.get(key)
    if cached is None:
        cached = _BOUNDS_CACHE[key] = tuple(
            lower * 10.0 ** (i / per_decade)
            for i in range(decades * per_decade + 1)
        )
    return cached


def quantile_from_cumulative(
    cumulative: Sequence[Tuple[float, int]], q: float
) -> float:
    """Quantile estimate from ``(upper_bound, cumulative_count)`` pairs.

    ``cumulative`` is ascending in both components with the final entry
    carrying the total count (an ``+Inf`` bound is allowed) — exactly the
    shape of an OpenMetrics histogram family, which lets the SLO gate
    evaluate percentile thresholds against a scraped exposition without
    reconstructing per-bucket deltas.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile q must be in [0, 1]")
    if not cumulative:
        return 0.0
    total = cumulative[-1][1]
    if total <= 0:
        return 0.0
    target = q * (total - 1)
    chosen = cumulative[-1][0]
    for bound, count in cumulative:
        if count > target:
            chosen = bound
            break
    if chosen == float("inf"):
        # Overflow bucket: the best finite statement is the last finite bound.
        finite = [b for b, _ in cumulative if b != float("inf")]
        chosen = finite[-1] if finite else 0.0
    return chosen


class Histogram:
    """Log-spaced fixed-bucket histogram with exact count/sum/min/max.

    Plain object, not thread-safe (same contract as the registry).  All
    buckets are integers; ``observe`` costs one ``bisect`` on the shared
    boundary tuple.  ``merge`` folds another histogram of the *same grid*
    in (loadgen uses this to ship distributions across process
    boundaries as plain dicts).
    """

    __slots__ = (
        "_lower",
        "_decades",
        "_per_decade",
        "_bounds",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(
        self,
        *,
        lower: float = DEFAULT_LOWER,
        decades: int = DEFAULT_DECADES,
        per_decade: int = DEFAULT_PER_DECADE,
    ) -> None:
        if lower <= 0:
            raise ValueError("histogram lower bound must be positive")
        if decades < 1 or per_decade < 1:
            raise ValueError("histogram decades/per_decade must be >= 1")
        self._lower = lower
        self._decades = decades
        self._per_decade = per_decade
        self._bounds = _bounds(lower, decades, per_decade)
        # One cell per boundary (bucket i: value <= bounds[i]) + overflow.
        self._counts: List[int] = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # -- recording ---------------------------------------------------------

    def observe(self, value: float, count: int = 1) -> None:
        """Fold ``count`` observations of ``value`` into the histogram."""
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        if count < 1:
            raise ValueError("histogram count must be >= 1")
        self._counts[bisect_left(self._bounds, value)] += count
        self._count += count
        self._sum += value * count
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` (same bucket grid) into this histogram."""
        if other._bounds is not self._bounds and other._bounds != self._bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other._counts):
            if c:
                self._counts[i] += c
        self._count += other._count
        self._sum += other._sum
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max

    def copy(self) -> "Histogram":
        """An independent histogram with the same grid and contents."""
        dup = Histogram(
            lower=self._lower,
            decades=self._decades,
            per_decade=self._per_decade,
        )
        dup.merge(self)
        return dup

    # -- views -------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> Optional[float]:
        """Exact smallest observation (``None`` when empty — never a sentinel)."""
        return self._min

    @property
    def max(self) -> Optional[float]:
        """Exact largest observation (``None`` when empty)."""
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def growth(self) -> float:
        """Multiplicative bucket width — the quantile-estimate error bound."""
        return 10.0 ** (1.0 / self._per_decade)

    def bounds(self) -> Tuple[float, ...]:
        """The finite bucket boundaries (the overflow bucket is ``+Inf``)."""
        return self._bounds

    def cumulative(self) -> List[Tuple[float, int]]:
        """Ascending ``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last.

        Zero-delta boundaries are elided (except the first) so expositions
        stay compact; the ``+Inf`` entry always carries the total count.
        """
        out: List[Tuple[float, int]] = []
        running = 0
        for i, c in enumerate(self._counts[:-1]):
            running += c
            if c or not out:
                out.append((self._bounds[i], running))
        out.append((float("inf"), self._count))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile: the bucket upper edge at that rank.

        Clamped into the exact ``[min, max]``; within one bucket width
        (factor :attr:`growth`) of the sorted-sample percentile at rank
        ``round(q * (count - 1))``.
        """
        if self._count == 0:
            return 0.0
        estimate = quantile_from_cumulative(self.cumulative(), q)
        assert self._min is not None and self._max is not None
        return min(max(estimate, self._min), self._max)

    def percentiles(self) -> Dict[str, float]:
        """The standard report: ``{"p50": ..., "p95": ..., "p99": ..., "p999": ...}``."""
        return {label: self.quantile(q) for label, q in PERCENTILE_LABELS}

    # -- (de)serialization -------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (sparse buckets; min/max only when non-empty)."""
        out: Dict[str, Any] = {
            "count": self._count,
            "sum": self._sum,
            "lower": self._lower,
            "decades": self._decades,
            "per_decade": self._per_decade,
            "buckets": {
                str(i): c for i, c in enumerate(self._counts) if c
            },
        }
        if self._count:
            out["min"] = self._min
            out["max"] = self._max
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`as_dict` output."""
        hist = cls(
            lower=float(data.get("lower", DEFAULT_LOWER)),
            decades=int(data.get("decades", DEFAULT_DECADES)),
            per_decade=int(data.get("per_decade", DEFAULT_PER_DECADE)),
        )
        buckets = data.get("buckets", {})
        for index, count in buckets.items():
            i = int(index)
            if not 0 <= i < len(hist._counts):
                raise ValueError(f"histogram bucket index {i} out of range")
            if not isinstance(count, int) or count < 1:
                raise ValueError("histogram bucket count must be int >= 1")
            hist._counts[i] += count
        hist._count = int(data.get("count", 0))
        hist._sum = float(data.get("sum", 0.0))
        if sum(hist._counts) != hist._count:
            raise ValueError("histogram bucket counts do not sum to count")
        if hist._count:
            hist._min = float(data["min"])
            hist._max = float(data["max"])
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self._bounds == other._bounds
            and self._counts == other._counts
            and self._count == other._count
            and self._sum == other._sum
            and self._min == other._min
            and self._max == other._max
        )

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self._count}, sum={self._sum:.6f}, "
            f"min={self._min}, max={self._max})"
        )


class Gauge:
    """A last-write-wins float: occupancy, backlog depth, connected clients."""

    __slots__ = ("_value",)

    def __init__(self, value: float = 0.0) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        """Replace the current value."""
        self._value = float(value)

    def inc(self, delta: float = 1.0) -> None:
        """Add ``delta`` (default 1) to the current value."""
        self._value += delta

    def dec(self, delta: float = 1.0) -> None:
        """Subtract ``delta`` (default 1) from the current value."""
        self._value -= delta

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Gauge):
            return self._value == other._value
        return NotImplemented

    def __repr__(self) -> str:
        return f"Gauge({self._value!r})"
