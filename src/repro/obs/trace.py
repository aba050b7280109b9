"""Reading, validating, and summarizing recorded JSONL traces.

A trace file (written by :class:`repro.obs.sinks.JSONLSink`) begins with
one ``meta`` line and then carries one event per line.  This module
turns such a file back into the paper's complexity measures:

* ``bgp.stages`` counter -> stages to convergence,
* ``bgp.messages`` counter (by ``type`` label) -> total communication,
* ``bgp.node.*_entries`` gauges -> per-node routing-table state,

so ``repro-cli trace summarize out.jsonl`` reproduces the
:class:`~repro.bgp.metrics.ConvergenceReport` /
:class:`~repro.bgp.metrics.StateReport` numbers of the recorded run
bit-for-bit, from the trace alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import TraceError
from repro.obs import names
from repro.obs.sinks import TRACE_VERSION

LabelsKey = Tuple[Tuple[str, Any], ...]

#: Required fields per event kind (beyond the common ``event``/``name``).
_REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "meta": ("version", "clock"),
    "span": ("name", "dur", "t", "depth"),
    "counter": ("name", "value", "total", "t"),
    "gauge": ("name", "value", "t"),
}


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse and validate a trace file; returns the events (meta first).

    Raises :class:`~repro.exceptions.TraceError` on any malformation:
    empty file, invalid JSON, bad meta line, unknown event kind, or a
    missing required field.
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(event, dict):
                raise TraceError(f"{path}:{lineno}: event is not an object")
            _validate_event(event, where=f"{path}:{lineno}")
            events.append(event)
    if not events:
        raise TraceError(f"{path}: empty trace (no meta line)")
    meta = events[0]
    if meta.get("event") != "meta":
        raise TraceError(f"{path}:1: first line must be the meta record")
    if meta.get("version") != TRACE_VERSION:
        raise TraceError(
            f"{path}: unsupported trace version {meta.get('version')!r} "
            f"(this library reads version {TRACE_VERSION})"
        )
    for index, event in enumerate(events[1:], start=2):
        if event.get("event") == "meta":
            raise TraceError(f"{path}:{index}: duplicate meta record")
    return events


def _validate_event(event: Mapping[str, Any], where: str) -> None:
    kind = event.get("event")
    if kind not in _REQUIRED_FIELDS:
        raise TraceError(f"{where}: unknown event kind {kind!r}")
    for field_name in _REQUIRED_FIELDS[kind]:
        if field_name not in event:
            raise TraceError(
                f"{where}: {kind} event missing required field {field_name!r}"
            )


def validate_trace(path: str) -> int:
    """Validate a trace file; returns the number of events (meta excluded)."""
    return len(read_events(path)) - 1


@dataclass
class TraceSummary:
    """Aggregates of one trace, in the paper's three currencies."""

    #: ``bgp.stages`` counter total: stages to convergence.
    stages: int = 0
    #: ``bgp.messages`` totals keyed by the ``type`` label.
    messages_by_type: Dict[str, int] = field(default_factory=dict)
    #: ``bgp.entries_sent`` counter total (communication volume).
    entries_sent: int = 0
    #: ``bgp.rows_sent`` counter total (rows actually transmitted).
    rows_sent: int = 0
    #: ``bgp.rows_suppressed`` counter total (delta-transport savings).
    rows_suppressed: int = 0
    #: ``bgp.deliveries`` counter total (timed engine, asynchronous
    #: runs included).
    deliveries: int = 0
    #: ``routing.cache.*`` totals (incremental engine): trees served
    #: from cache / computed from scratch / repaired in place.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    #: ``routing.repair.*`` totals (incremental engine): labels settled
    #: by improve waves / dropped from orphaned cones / re-anchored.
    repair_relaxed: int = 0
    repair_detached: int = 0
    repair_reanchored: int = 0
    #: whether the trace recorded any ``routing.cache.*`` counter at
    #: all (an all-miss cold run still reports zeros in the summary).
    cache_seen: bool = False
    #: ``routing.flat.*`` totals (the flat engine's sweep): masked
    #: Dijkstra solves, distance rows computed, stored entries masked.
    flat_solves: int = 0
    flat_rows: int = 0
    flat_masked: int = 0
    #: whether the trace recorded the flat sweep at all.
    flat_seen: bool = False
    #: ``routing.forest.*`` totals (the flat engine's canonical route
    #: build): batched scipy solves, and destinations whose ties forced
    #: the exact reference kernel.
    forest_blocks: int = 0
    forest_fallbacks: int = 0
    #: whether the trace recorded a forest build at all.
    forest_seen: bool = False
    #: ``bgp.timed.*`` aggregates (discrete-event substrate): final
    #: virtual clock / convergence-time gauges, loss and MRAI counters.
    timed_clock: float = 0.0
    timed_convergence_time: float = 0.0
    timed_messages_lost: int = 0
    timed_network_events: int = 0
    timed_mrai_deferrals: int = 0
    timed_mrai_flushes: int = 0
    timed_mrai_coalesced: int = 0
    #: whether the trace recorded the timed substrate at all.
    timed_seen: bool = False
    #: last per-node gauge values, keyed by node label.
    loc_rib_entries: Dict[Any, int] = field(default_factory=dict)
    adj_rib_in_entries: Dict[Any, int] = field(default_factory=dict)
    price_entries: Dict[Any, int] = field(default_factory=dict)
    #: every counter's final total, keyed by (name, labels).
    counters: Dict[Tuple[str, LabelsKey], float] = field(default_factory=dict)
    #: every gauge's last value, keyed by (name, labels).
    gauges: Dict[Tuple[str, LabelsKey], float] = field(default_factory=dict)
    #: span name -> (count, total seconds).
    spans: Dict[str, Tuple[int, float]] = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_type.values())

    @property
    def max_loc_rib(self) -> int:
        return max(self.loc_rib_entries.values(), default=0)

    @property
    def max_adj_rib_in(self) -> int:
        return max(self.adj_rib_in_entries.values(), default=0)

    @property
    def max_price_entries(self) -> int:
        return max(self.price_entries.values(), default=0)

    def counter_total(self, name: str, **labels: Any) -> float:
        """Final total of one counter (summed over labels if omitted)."""
        if labels:
            return self.counters.get((name, tuple(sorted(labels.items()))), 0.0)
        return sum(
            value
            for (counter_name, _labels), value in sorted(self.counters.items())
            if counter_name == name
        )


def summarize_events(events: Iterable[Mapping[str, Any]]) -> TraceSummary:
    """Fold a validated event stream into a :class:`TraceSummary`."""
    summary = TraceSummary()
    span_acc: Dict[str, List[float]] = {}
    for event in events:
        kind = event.get("event")
        labels = event.get("labels") or {}
        labels_key: LabelsKey = tuple(sorted(labels.items()))
        if kind == "counter":
            name = str(event["name"])
            summary.counters[(name, labels_key)] = float(event["total"])
            if name == names.MESSAGES:
                message_type = str(labels.get("type", ""))
                summary.messages_by_type[message_type] = int(
                    summary.messages_by_type.get(message_type, 0)
                    + float(event["value"])
                )
        elif kind == "gauge":
            name = str(event["name"])
            summary.gauges[(name, labels_key)] = float(event["value"])
            per_node = {
                names.LOC_RIB_ENTRIES: summary.loc_rib_entries,
                names.ADJ_RIB_IN_ENTRIES: summary.adj_rib_in_entries,
                names.PRICE_ENTRIES: summary.price_entries,
            }.get(name)
            if per_node is not None and "node" in labels:
                per_node[labels["node"]] = int(float(event["value"]))
        elif kind == "span":
            stats = span_acc.setdefault(str(event["name"]), [0, 0.0])
            stats[0] += 1
            stats[1] += float(event["dur"])
    summary.stages = int(summary.counter_total(names.STAGES))
    summary.entries_sent = int(summary.counter_total(names.ENTRIES_SENT))
    summary.rows_sent = int(summary.counter_total(names.ROWS_SENT))
    summary.rows_suppressed = int(summary.counter_total(names.ROWS_SUPPRESSED))
    summary.deliveries = int(summary.counter_total(names.DELIVERIES))
    summary.cache_hits = int(summary.counter_total(names.CACHE_HITS))
    summary.cache_misses = int(summary.counter_total(names.CACHE_MISSES))
    summary.cache_invalidations = int(
        summary.counter_total(names.CACHE_INVALIDATIONS)
    )
    summary.repair_relaxed = int(summary.counter_total(names.REPAIR_RELAXED))
    summary.repair_detached = int(summary.counter_total(names.REPAIR_DETACHED))
    summary.repair_reanchored = int(
        summary.counter_total(names.REPAIR_REANCHORED)
    )
    summary.cache_seen = any(
        name
        in (names.CACHE_HITS, names.CACHE_MISSES, names.CACHE_INVALIDATIONS)
        for name, _labels in summary.counters
    )
    summary.flat_solves = int(summary.counter_total(names.FLAT_SOLVES))
    summary.flat_rows = int(summary.counter_total(names.FLAT_ROWS))
    summary.flat_masked = int(summary.counter_total(names.FLAT_MASKED))
    summary.flat_seen = any(
        name.startswith("routing.flat.") for name, _labels in summary.counters
    )
    summary.forest_blocks = int(summary.counter_total(names.FOREST_BLOCKS))
    summary.forest_fallbacks = int(summary.counter_total(names.FOREST_FALLBACKS))
    summary.forest_seen = any(
        name.startswith("routing.forest.") for name, _labels in summary.counters
    )
    summary.timed_clock = float(
        summary.gauges.get((names.TIMED_CLOCK, ()), 0.0)
    )
    summary.timed_convergence_time = float(
        summary.gauges.get((names.TIMED_CONVERGENCE_TIME, ()), 0.0)
    )
    summary.timed_messages_lost = int(
        summary.counter_total(names.TIMED_MESSAGES_LOST)
    )
    summary.timed_network_events = int(
        summary.counter_total(names.TIMED_NETWORK_EVENTS)
    )
    summary.timed_mrai_deferrals = int(
        summary.counter_total(names.TIMED_MRAI_DEFERRALS)
    )
    summary.timed_mrai_flushes = int(
        summary.counter_total(names.TIMED_MRAI_FLUSHES)
    )
    summary.timed_mrai_coalesced = int(
        summary.counter_total(names.TIMED_MRAI_COALESCED)
    )
    summary.timed_seen = any(
        name.startswith("bgp.timed.") for name, _labels in summary.counters
    ) or any(name.startswith("bgp.timed.") for name, _labels in summary.gauges)
    summary.spans = {
        name: (int(count), total) for name, (count, total) in span_acc.items()
    }
    return summary


def summarize_trace(path: str) -> TraceSummary:
    """Read, validate, and summarize one trace file."""
    return summarize_events(read_events(path))


def summary_tables(summary: TraceSummary, title: Optional[str] = None) -> List[Any]:
    """Render a summary as :class:`repro.analysis.report.Table` objects.

    Imported lazily so the obs package stays importable without the
    analysis layer.
    """
    from repro.analysis.report import Table

    measures = Table(
        title=title or "trace summary: paper complexity measures",
        headers=["measure", "value"],
    )
    measures.add_row("stages to convergence", summary.stages)
    measures.add_row("total messages", summary.total_messages)
    for message_type, count in sorted(summary.messages_by_type.items()):
        measures.add_row(f"  messages[type={message_type or '-'}]", count)
    measures.add_row("entries sent", summary.entries_sent)
    if summary.rows_sent or summary.rows_suppressed:
        measures.add_row("rows transmitted (transport)", summary.rows_sent)
        measures.add_row("rows suppressed by delta transport", summary.rows_suppressed)
    if summary.deliveries:
        measures.add_row("async deliveries", summary.deliveries)
    if summary.cache_seen:
        measures.add_row("route-tree cache hits", summary.cache_hits)
        measures.add_row("route-tree cache misses", summary.cache_misses)
        measures.add_row("route-tree cache invalidations", summary.cache_invalidations)
        measures.add_row("repair labels relaxed", summary.repair_relaxed)
        measures.add_row("repair labels detached", summary.repair_detached)
        measures.add_row("repair labels re-anchored", summary.repair_reanchored)
    if summary.flat_seen:
        measures.add_row("flat sweep Dijkstra solves", summary.flat_solves)
        measures.add_row("flat sweep distance rows", summary.flat_rows)
        measures.add_row("flat sweep entries masked", summary.flat_masked)
    if summary.forest_seen:
        measures.add_row("canonical forest blocks", summary.forest_blocks)
        measures.add_row("canonical forest fallbacks (ties)", summary.forest_fallbacks)
    if summary.timed_seen:
        measures.add_row("virtual clock at drain (s)", summary.timed_clock)
        measures.add_row("virtual convergence time (s)", summary.timed_convergence_time)
        measures.add_row("messages lost to link/session loss", summary.timed_messages_lost)
        measures.add_row("timed network events", summary.timed_network_events)
        measures.add_row("MRAI deferrals", summary.timed_mrai_deferrals)
        measures.add_row("MRAI flushes", summary.timed_mrai_flushes)
        measures.add_row("MRAI rows coalesced", summary.timed_mrai_coalesced)
    measures.add_row("max Loc-RIB entries (per node)", summary.max_loc_rib)
    measures.add_row("max Adj-RIB-In entries (per node)", summary.max_adj_rib_in)
    measures.add_row("max price entries (per node)", summary.max_price_entries)
    measures.add_note(
        "stages/messages/table-state are the Sect. 5 complexity currencies"
    )
    tables = [measures]

    if summary.spans:
        spans = Table(title="trace summary: spans", headers=["span", "n", "total_s"])
        for name, (count, total) in sorted(summary.spans.items()):
            spans.add_row(name, count, round(total, 6))
        tables.append(spans)
    return tables
