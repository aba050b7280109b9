"""The staged protocol engine of Sect. 5.

:class:`SynchronousEngine` is the paper's model: in each stage every
node receives the tables its neighbors sent at the end of the previous
stage, recomputes locally, and sends its own table to all neighbors iff
it changed.  The engine is generic over the node class, so plain BGP
and the FPSS price-computing extension run on identical machinery and
identical messages.

There is one step, the delta substrate: a sender transmits a
:class:`~repro.bgp.messages.RouteDelta` carrying only the rows that
changed since its previous transmission, and only nodes whose inbound
state changed recompute (dirty-set scheduling).  A link that has not
yet carried the sender's published table (a restored link) gets the
whole table instead.  ``incremental=False`` puts whole tables on the
wire on every transmission -- the paper's accounting -- through the
same senders, receivers and decisions.  Every model-level quantity --
stage counts, message counts, ``entries_sent`` (accounted as whole
tables, per the model), the converged tables, prices, and reports --
is the same under both transports; only the transport-level
``rows_sent`` / ``rows_suppressed`` counters see the savings.

The paper analyses only the synchronous case.  Asynchronous runs --
messages with independent random delays, processed one at a time --
are the default configuration of the event-driven
:class:`~repro.bgp.timed.TimedEngine`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import repro.obs as obs_mod
from repro.bgp.messages import RouteAdvertisement, RouteDelta
from repro.bgp.metrics import ConvergenceReport, StageStats
from repro.bgp.node import NodeFactory, ProtocolEngine, _default_factory
from repro.bgp.policy import SelectionPolicy
from repro.bgp.timed import TimedEngine
from repro.devtools import sanitize
from repro.exceptions import ConvergenceError, ProtocolError
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.types import NodeId


class SynchronousEngine(ProtocolEngine):
    """The staged computational model of Section 5.

    Stage discipline: a node's outgoing table at the end of stage ``s``
    is a function of the tables its neighbors had sent by the end of
    stage ``s - 1``.  Stage 0 is initialization: every node publishes
    its own self-route.  ``stages`` in the report counts the stages in
    which at least one node's table changed -- the quantity Theorem 2
    bounds by ``max(d, d')``.
    """

    def __init__(
        self,
        graph: ASGraph,
        policy: Optional[SelectionPolicy] = None,
        node_factory: NodeFactory = _default_factory,
        restart_on_events: bool = True,
        incremental: bool = True,
        obs: Optional[obs_mod.Obs] = None,
    ) -> None:
        super().__init__(graph, policy, node_factory, restart_on_events, obs)
        # Delta transport (False: whole tables on every transmission;
        # the same step and decisions either way).
        self.incremental = incremental
        # Nodes whose table changed in the previous stage and therefore
        # transmit at the start of the next one, and the delta each of
        # them transmits.
        self._pending: Set[NodeId] = set()
        self._outbox: Dict[NodeId, RouteDelta] = {}
        self._initialized = False
        self.stage_count = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Stage 0: every node publishes its self-route.  The first
        publication delta *is* the full table (one self-route row), so
        no separate initial sync is needed."""
        for node_id in self.nodes:
            self._publish(node_id)
        self._initialized = True
        self.stage_count = 0

    def step(self) -> StageStats:
        """Run one synchronous stage; returns its accounting.

        When an observer is active the stage runs under a
        ``bgp.stage`` span and its accounting is emitted as the
        Sect. 5 counters (``bgp.messages``, ``bgp.entries_sent``), the
        transport counters (``bgp.rows_sent``, ``bgp.rows_suppressed``)
        and the per-stage ``bgp.stage.nodes_changed`` gauge.
        """
        observer = obs_mod.active(self._obs)
        if observer is None:
            return self._step()
        with observer.span(metric_names.SPAN_STAGE, stage=self.stage_count + 1):
            stats = self._step()
        observer.count(metric_names.MESSAGES, stats.messages, type="table")
        observer.count(metric_names.ENTRIES_SENT, stats.entries_sent)
        observer.count(metric_names.ROWS_SENT, stats.rows_sent)
        observer.count(metric_names.ROWS_SUPPRESSED, stats.rows_suppressed)
        observer.gauge(
            metric_names.STAGE_NODES_CHANGED, stats.nodes_changed, stage=stats.stage
        )
        return stats

    def _step(self) -> StageStats:
        """One stage.

        Every pending sender transmits to each current neighbor in
        ascending order: its pending delta, or its whole published
        table when the transport is full-table or the link is unsynced.
        ``entries_sent`` accounts whole published tables either way
        (the model's measure, maintained incrementally via the nodes'
        publication baselines), and a node is materially changed under
        the noise-tolerant row comparison of
        :meth:`BGPNode.publication_delta`.  Only nodes with a nonempty
        dirty set recompute: route selection and the derived price
        state are pure per-destination functions of the Adj-RIB-In, so
        skipping a node with untouched inputs leaves identical state.
        """
        if not self._initialized:
            raise ProtocolError("engine not initialized; call initialize() first")
        self.stage_count += 1
        full_tables = not self.incremental
        unsynced = self._unsynced
        messages = 0
        entries = 0
        rows_sent = 0
        rows_suppressed = 0
        dirty: Dict[NodeId, Set[NodeId]] = {}
        for sender in sorted(self._pending):
            node = self.nodes[sender]
            delta = self._outbox.pop(sender, None)
            if delta is None:
                delta = RouteDelta(sender)
            table: Optional[Tuple[RouteAdvertisement, ...]] = None
            table_entries = node.published_entries
            for neighbor in sorted(self.adjacency[sender]):
                receiver = self.nodes[neighbor]
                link = (sender, neighbor)
                if full_tables or link in unsynced:
                    # Whole table: the receiver then holds the sender's
                    # publication as its baseline for later deltas.
                    unsynced.discard(link)
                    if table is None:
                        table = node.published_table()
                    changed_dests = receiver.receive_table(sender, table)
                    rows_sent += len(table)
                else:
                    changed_dests = receiver.receive_delta(sender, delta)
                    rows_sent += delta.size_rows()
                    rows_suppressed += node.published_rows - len(delta.updates)
                messages += 1
                entries += table_entries
                if changed_dests:
                    dirty.setdefault(neighbor, set()).update(changed_dests)
        # Local computation + publication, restricted to dirty nodes.
        # Under the sanitizer every node re-decides (idempotent, so the
        # results are unchanged) so that invariant checks keep seeing
        # the full decision process: a node with nothing dirty fully,
        # a dirty one change-driven and then checked against a full
        # decision (``[sanitize:decide]``).
        decide_all = sanitize.enabled()
        changed: Set[NodeId] = set()
        materially_changed: Set[NodeId] = set()
        for node_id in sorted(self.nodes):
            node_dirty = dirty.get(node_id)
            if not node_dirty and not decide_all:
                continue
            node = self.nodes[node_id]
            node.decide(node_dirty)
            delta = node.publication_delta()
            if not delta.is_empty:
                self._outbox[node_id] = RouteDelta(
                    node_id, delta.updates, delta.withdrawals
                )
                changed.add(node_id)
                if delta.material:
                    materially_changed.add(node_id)
        self._pending = changed
        if decide_all:
            self._sanitize_stage()
        return StageStats(
            stage=self.stage_count,
            nodes_changed=len(materially_changed),
            messages=messages,
            entries_sent=entries,
            rows_sent=rows_sent,
            rows_suppressed=rows_suppressed,
        )

    def run(self, max_stages: Optional[int] = None) -> ConvergenceReport:
        """Run stages until quiescence (no table changed).

        The default stage budget is generous (``4n + 16``); exceeding it
        raises :class:`ConvergenceError`, which for this protocol would
        indicate an implementation bug, not a protocol property.

        When an observer is active the run executes under a
        ``bgp.sync.run`` span and finishes by emitting the report's
        stage count (``bgp.stages``) and the per-node table-state
        gauges -- exactly the :class:`ConvergenceReport` /
        :class:`StateReport` numbers, so a recorded trace reproduces
        them bit-for-bit.
        """
        observer = obs_mod.active(self._obs)
        if observer is None:
            return self._run(max_stages)
        with observer.span(metric_names.SPAN_SYNC_RUN):
            report = self._run(max_stages)
        observer.count(metric_names.STAGES, report.stages)
        state = self.state_report()
        for node_id in sorted(state.loc_rib_entries):
            observer.gauge(
                metric_names.LOC_RIB_ENTRIES,
                state.loc_rib_entries[node_id],
                node=node_id,
            )
            observer.gauge(
                metric_names.ADJ_RIB_IN_ENTRIES,
                state.adj_rib_in_entries[node_id],
                node=node_id,
            )
            observer.gauge(
                metric_names.PRICE_ENTRIES,
                state.price_entries[node_id],
                node=node_id,
            )
        return report

    def _run(self, max_stages: Optional[int] = None) -> ConvergenceReport:
        if not self._initialized:
            self.initialize()
        limit = max_stages if max_stages is not None else 4 * self.graph.num_nodes + 16
        report = ConvergenceReport(converged=False, stages=0)
        base_stage = self.stage_count
        stages_run = 0
        while self._pending:
            if stages_run >= limit:
                raise ConvergenceError(stages=stages_run, limit=limit)
            stats = self.step()
            stages_run += 1
            if stats.nodes_changed or stats.messages:
                report.record_stage(stats)
            if stats.nodes_changed:
                # Stage counts are relative to this run(), so that
                # reconvergence epochs after dynamic events are measured
                # from the event, not from engine creation.
                report.stages = stats.stage - base_stage
        report.converged = True
        return report

    @property
    def quiescent(self) -> bool:
        return self._initialized and not self._pending

    # ------------------------------------------------------------------
    # Sanitizer hooks
    # ------------------------------------------------------------------
    def _sanitize_stage(self) -> None:
        """Per-stage invariant checks (only when the sanitizer is on)."""
        for node_id in sorted(self.nodes):
            self._sanitize_node(node_id, self.nodes[node_id])

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _publish(self, node_id: NodeId) -> None:
        """Queue the node's publication delta for the next stage."""
        self._outbox[node_id] = self._merged_outbox_delta(
            node_id, self.nodes[node_id].publication_delta()
        )
        self._pending.add(node_id)

    def _merged_outbox_delta(self, node_id: NodeId, delta) -> RouteDelta:
        """Fold a fresh publication delta into the node's pending
        outbox entry (events can fire between stages, before the
        previous delta was transmitted).  Receivers hold the table as
        of the *oldest* untransmitted publication, so the merged delta
        is "later rows win": an update overrides a pending withdrawal
        of the same destination and vice versa.
        """
        pending = self._outbox.get(node_id)
        if pending is None or pending.is_empty:
            return RouteDelta(node_id, delta.updates, delta.withdrawals)
        updates = {advert.destination: advert for advert in pending.updates}
        withdrawn = set(pending.withdrawals)
        for advert in delta.updates:
            updates[advert.destination] = advert
            withdrawn.discard(advert.destination)
        for destination in delta.withdrawals:
            updates.pop(destination, None)
            withdrawn.add(destination)
        return RouteDelta(
            node_id,
            tuple(updates[d] for d in sorted(updates)),
            tuple(sorted(withdrawn)),
        )

    def restore_link(self, u: NodeId, v: NodeId) -> None:
        """Re-add a previously failed link.

        Both endpoints (re)transmit over the new link; marking them
        pending re-sends to all neighbors, which is the worst-case
        behavior the model accounts anyway.  The new link's first
        exchange is a full-table sync (the far end holds no baseline);
        the other neighbors get the pending delta, empty if nothing
        changed.
        """
        if u not in self.nodes or v not in self.nodes:
            raise ProtocolError(f"unknown endpoint on link ({u}, {v})")
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)
        self._unsynced.update(((u, v), (v, u)))
        self._pending.update((u, v))
        self._restart_derived_state()


#: The asynchronous engine is :class:`TimedEngine` in its default
#: configuration.  This name remains only because the benchmark suite
#: (``benchmarks/suite/workloads.py``) imports it and wraps its ``run``;
#: it goes with the next change to the benchmark.
AsynchronousEngine = TimedEngine
