"""The observer: spans, counters, gauges, and event dispatch.

One :class:`Obs` instance owns a monotonic clock origin, aggregate
counter/gauge/span state, and a list of sinks.  Every emission produces
one event dict and hands it to every sink:

``{"event": "counter", "name": str, "value": num, "total": num,
   "t": seconds, "labels": {...}}``

``{"event": "gauge", "name": str, "value": num, "t": seconds,
   "labels": {...}}``

``{"event": "span", "name": str, "dur": seconds, "t": start-seconds,
   "depth": int, "labels": {...}}``

``t`` is seconds since the instance was created, read from
``time.perf_counter`` -- the monotonic timer protocol/engine code must
use instead of wall-clock ``time.time()`` (lint rule ``RPR005``).
Spans nest: ``depth`` is 1 for a top-level span, 2 for a span opened
inside it, and so on; the span event is emitted when the span *closes*,
so a trace lists children before their parents.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.sinks import Sink

LabelsKey = Tuple[Tuple[str, Any], ...]
MetricKey = Tuple[str, LabelsKey]


class _NullSpan:
    """Shared no-op span used whenever observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """One timed, nestable region; use via ``with obs.span(name):``."""

    __slots__ = ("_obs", "name", "labels", "_start", "_depth")

    def __init__(self, obs: "Obs", name: str, labels: Dict[str, Any]) -> None:
        self._obs = obs
        self.name = name
        self.labels = labels
        self._start = 0.0
        self._depth = 0

    def __enter__(self) -> "Span":
        self._obs._depth += 1
        self._depth = self._obs._depth
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        self._obs._depth -= 1
        self._obs._record_span(
            self.name, self.labels, start=self._start, end=end, depth=self._depth
        )
        return False


class Obs:
    """An observer: typed counters, gauges, spans, and sink dispatch.

    Instances are cheap and independent -- tests construct their own
    with a :class:`~repro.obs.sinks.MemorySink`; the module-level
    default instance (see :mod:`repro.obs`) is what the hot paths use
    when observability is enabled globally.
    """

    def __init__(self, sinks: Optional[Iterable[Sink]] = None) -> None:
        self._sinks: List[Sink] = list(sinks or ())
        self._origin = time.perf_counter()
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._span_stats: Dict[str, List[float]] = {}
        self._depth = 0
        self._events_emitted = 0

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------
    def add_sink(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    @property
    def sinks(self) -> Tuple[Sink, ...]:
        return tuple(self._sinks)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._origin

    def _dispatch(self, event: Dict[str, Any]) -> None:
        self._events_emitted += 1
        for sink in self._sinks:
            sink.emit(event)

    def span(self, name: str, **labels: Any) -> Span:
        """A nestable monotonic-clock timer; use as a context manager."""
        return Span(self, name, labels)

    def _record_span(
        self,
        name: str,
        labels: Dict[str, Any],
        *,
        start: float,
        end: float,
        depth: int,
    ) -> None:
        duration = end - start
        stats = self._span_stats.setdefault(name, [0, 0.0])
        stats[0] += 1
        stats[1] += duration
        self._dispatch(
            {
                "event": "span",
                "name": name,
                "dur": duration,
                "t": start - self._origin,
                "depth": depth,
                "labels": labels,
            }
        )

    def count(self, name: str, value: float = 1, **labels: Any) -> None:
        """Increment a typed counter and emit one counter event."""
        key: MetricKey = (name, tuple(sorted(labels.items())))
        total = self._counters.get(key, 0.0) + value
        self._counters[key] = total
        self._dispatch(
            {
                "event": "counter",
                "name": name,
                "value": value,
                "total": total,
                "t": self._now(),
                "labels": labels,
            }
        )

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge (last-write-wins) and emit one gauge event."""
        key: MetricKey = (name, tuple(sorted(labels.items())))
        self._gauges[key] = value
        self._dispatch(
            {
                "event": "gauge",
                "name": name,
                "value": value,
                "t": self._now(),
                "labels": labels,
            }
        )

    # ------------------------------------------------------------------
    # Aggregate inspection
    # ------------------------------------------------------------------
    def counter_total(self, name: str, **labels: Any) -> float:
        """Current value of one counter.

        With *labels* given, the exact labelled series; without, the sum
        across every labelled series of that name.
        """
        if labels:
            return self._counters.get((name, tuple(sorted(labels.items()))), 0.0)
        return sum(
            value
            for (counter_name, _labels), value in sorted(self._counters.items())
            if counter_name == name
        )

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        """Last value of one gauge series, or ``None`` if never set."""
        return self._gauges.get((name, tuple(sorted(labels.items()))))

    def gauge_series(self, name: str) -> Dict[LabelsKey, float]:
        """All labelled series of one gauge, keyed by sorted label tuple."""
        return {
            labels: value
            for (gauge_name, labels), value in sorted(self._gauges.items())
            if gauge_name == name
        }

    def span_stats(self, name: str) -> Tuple[int, float]:
        """``(count, total seconds)`` accumulated for one span name."""
        stats = self._span_stats.get(name, [0, 0.0])
        return int(stats[0]), float(stats[1])

    def events_emitted(self) -> int:
        """Total events dispatched to sinks since creation (the
        zero-overhead contract: must stay 0 while disabled)."""
        return self._events_emitted

    def reset(self) -> None:
        """Forget all aggregate state (sinks are kept)."""
        self._counters.clear()
        self._gauges.clear()
        self._span_stats.clear()
        self._depth = 0
        self._events_emitted = 0
