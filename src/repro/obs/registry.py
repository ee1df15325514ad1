"""A zero-dependency labeled metrics registry.

The registry is the accumulation point for everything the observability
layer measures: counters (monotone totals), gauges (last-write-wins
levels), and histograms (bucketed distributions with exact count/sum/
min/max). Metrics are identified by a name plus a set of string labels,
Prometheus-style, so one series family ("scheduler_invocations_total")
fans out per trigger cause without pre-declaring the label values.

Registries snapshot to plain JSON-able dicts and merge pairwise, which
lets sharded or replicated runs combine their measurements into one
report (counters add, gauges take the other's latest, histograms sum
bucket-wise).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds: a log-ish ladder wide enough for
#: both sub-millisecond scheduler wall-clocks and multi-second tardiness.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    if len(labels) == 1:
        # The hot hooks pass one label; a single pair needs no sort.
        ((k, v),) = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone total. ``inc`` with a negative amount is an error."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A last-write-wins level (active flows, queue depth, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A bucketed distribution with exact count/sum/min/max.

    Buckets are cumulative-style upper bounds (``le``); an implicit +inf
    bucket catches the overflow. ``quantile`` interpolates within the
    winning bucket, which is exact enough for reporting (the raw samples
    are deliberately not retained, keeping memory O(buckets)).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +inf overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        # Comparisons, not min()/max(): the same result for a fraction
        # of the cost on the per-flow hooks.
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile from the buckets (exact min/max at 0/1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if seen + n >= target:
                lo = self.bounds[i - 1] if i > 0 else self.min
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi < lo:
                    return self.max
                return lo + (hi - lo) * (target - seen) / n
            seen += n
        return self.max

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Labeled counters/gauges/histograms with snapshot and merge."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- series accessors (create on first touch) ----------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels) if labels else ())
        series = self._counters.get(key)
        if series is None:
            series = self._counters[key] = Counter()
        return series

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels) if labels else ())
        series = self._gauges.get(key)
        if series is None:
            series = self._gauges[key] = Gauge()
        return series

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: str
    ) -> Histogram:
        key = (name, _label_key(labels) if labels else ())
        series = self._histograms.get(key)
        if series is None:
            series = self._histograms[key] = Histogram(buckets)
        return series

    # -- reading --------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> float:
        return self._counters[(name, _label_key(labels))].value

    def counter_total(self, name: str) -> float:
        """Sum of a counter family across every label combination."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def labels_of(self, name: str) -> List[Dict[str, str]]:
        """Every label set under which ``name`` has been recorded."""
        out = []
        for table in (self._counters, self._gauges, self._histograms):
            for (n, labels) in table:
                if n == name:
                    out.append(dict(labels))
        return out

    def snapshot(self) -> Dict:
        """Plain-data view of every series (json.dumps-able)."""

        def rows(table, render):
            by_name: Dict[str, List[Dict]] = {}
            for (name, labels), series in sorted(table.items()):
                by_name.setdefault(name, []).append(
                    {"labels": dict(labels), **render(series)}
                )
            return by_name

        return {
            "counters": rows(self._counters, lambda c: {"value": c.value}),
            "gauges": rows(self._gauges, lambda g: {"value": g.value}),
            "histograms": rows(self._histograms, lambda h: h.summary()),
        }

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place and return self.

        Counters add; gauges adopt the other's value (last write wins);
        histograms require identical bucket bounds and sum bucket-wise.
        """
        for key, counter in other._counters.items():
            self._counters.setdefault(key, Counter()).inc(counter.value)
        for key, gauge in other._gauges.items():
            self._gauges.setdefault(key, Gauge()).set(gauge.value)
        for key, hist in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = Histogram(hist.bounds)
            if mine.bounds != hist.bounds:
                raise ValueError(
                    f"cannot merge histogram {key[0]!r}: bucket bounds differ"
                )
            mine.count += hist.count
            mine.total += hist.total
            mine.min = min(mine.min, hist.min)
            mine.max = max(mine.max, hist.max)
            for i, n in enumerate(hist.bucket_counts):
                mine.bucket_counts[i] += n
        return self
