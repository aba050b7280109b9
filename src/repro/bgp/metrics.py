"""Complexity accounting: the measures of Section 5.

The paper adopts three complexity measures for BGP-based computation:
stages to convergence, total communication (number and size of routing
tables exchanged), and routing-table size.  The engine fills a
:class:`ConvergenceReport` with all three so experiments E5/E6 can put
measured values next to the proven bounds (``d``, ``max(d, d')``,
``O(nd)`` entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.types import NodeId


@dataclass
class StageStats:
    """Per-stage accounting.

    ``stage`` through ``entries_sent`` are the paper's Sect. 5 measures
    and are identical under the full-table and delta transports (the
    model accounts whole-table exchanges either way).  ``rows_sent`` /
    ``rows_suppressed`` are *transport-level*: rows actually transmitted
    vs rows the delta encoding avoided retransmitting.  Under the
    full-table transport ``rows_suppressed`` is always 0.
    """

    stage: int
    nodes_changed: int
    messages: int
    entries_sent: int
    rows_sent: int = 0
    rows_suppressed: int = 0


@dataclass
class ConvergenceReport:
    """The outcome of running a protocol engine to quiescence."""

    converged: bool
    stages: int
    total_messages: int = 0
    total_entries_sent: int = 0
    total_rows_sent: int = 0
    total_rows_suppressed: int = 0
    per_stage: List[StageStats] = field(default_factory=list)

    def record_stage(self, stats: StageStats) -> None:
        self.per_stage.append(stats)
        self.total_messages += stats.messages
        self.total_entries_sent += stats.entries_sent
        self.total_rows_sent += stats.rows_sent
        self.total_rows_suppressed += stats.rows_suppressed


@dataclass
class TimedReport:
    """The outcome of draining a :class:`~repro.bgp.timed.TimedEngine`.

    Virtual time replaces stages: ``clock`` is the virtual time at which
    the event queue drained and ``convergence_time`` the time of the
    last actual delivery.  Transport accounting follows the rows through
    the MRAI layer and the lossy links, with two reconciliation
    invariants the test suite asserts::

        rows_offered == rows_sent + mrai_rows_coalesced
                                  + mrai_rows_discarded   (queue drained)
        rows_sent    == rows_delivered + rows_lost

    ``stages`` is always 0 (there are none); it exists so the timed
    engine satisfies the same report surface the experiments consume.
    """

    converged: bool
    deliveries: int = 0
    messages_lost: int = 0
    rows_offered: int = 0
    rows_sent: int = 0
    rows_delivered: int = 0
    rows_suppressed: int = 0
    rows_lost: int = 0
    mrai_deferrals: int = 0
    mrai_flushes: int = 0
    mrai_rows_coalesced: int = 0
    mrai_rows_discarded: int = 0
    network_events: int = 0
    clock: float = 0.0
    convergence_time: float = 0.0
    stages: int = 0

    @property
    def total_messages(self) -> int:
        return self.deliveries

    @property
    def total_rows_sent(self) -> int:
        return self.rows_sent

    @property
    def total_rows_suppressed(self) -> int:
        return self.rows_suppressed


@dataclass(frozen=True)
class StateReport:
    """Per-node state snapshot after convergence (experiment E6)."""

    loc_rib_entries: Dict[NodeId, int]
    adj_rib_in_entries: Dict[NodeId, int]
    price_entries: Dict[NodeId, int]

    @property
    def max_loc_rib(self) -> int:
        return max(self.loc_rib_entries.values(), default=0)

    @property
    def max_price_entries(self) -> int:
        return max(self.price_entries.values(), default=0)

    @property
    def total_state(self) -> int:
        return (
            sum(self.loc_rib_entries.values())
            + sum(self.adj_rib_in_entries.values())
            + sum(self.price_entries.values())
        )
