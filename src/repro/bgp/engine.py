"""Protocol engines: synchronous stages and an asynchronous relaxation.

:class:`SynchronousEngine` is the paper's model (Sect. 5): in each stage
every node receives the tables its neighbors sent at the end of the
previous stage, recomputes locally, and sends its own table to all
neighbors iff it changed.  The engine is generic over the node class, so
plain BGP and the FPSS price-computing extension run on identical
machinery and identical messages.

:class:`AsynchronousEngine` drops the synchrony assumption: messages
carry independent random delays and are processed one at a time.  The
paper analyses only the synchronous case; the asynchronous engine
demonstrates (and the tests assert) that the computation is
self-stabilizing under reordering as well.

Both engines support two transports:

* ``incremental=False`` -- the literal Sect. 5 model: full routing
  tables on every transmission.
* ``incremental=True`` (the default) -- the delta substrate: each
  transmission is a :class:`~repro.bgp.messages.RouteDelta` carrying
  only the rows that changed since the previous transmission, and only
  nodes whose inbound state changed recompute (dirty-set scheduling).
  Every model-level quantity -- stage counts, message counts,
  ``entries_sent`` (accounted as whole tables, per the model), the
  converged tables, prices, and reports -- is bit-identical to the
  full-table transport; only the transport-level ``rows_sent`` /
  ``rows_suppressed`` counters see the savings.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

import repro.obs as obs_mod
from repro.bgp.messages import (
    NOISE_REL_TOL,
    RouteAdvertisement,
    RouteDelta,
    row_materially_different,
)
from repro.bgp.metrics import ConvergenceReport, StageStats, StateReport
from repro.bgp.node import BGPNode
from repro.devtools import sanitize
from repro.obs import names as metric_names
from repro.bgp.policy import LowestCostPolicy, SelectionPolicy
from repro.exceptions import ConvergenceError, ProtocolError
from repro.graphs.asgraph import ASGraph
from repro.types import Cost, NodeId

NodeFactory = Callable[[NodeId, Cost, SelectionPolicy], BGPNode]

#: Back-compat alias; the tolerance now lives with the message-level
#: comparison in :mod:`repro.bgp.messages`.
_NOISE_REL_TOL = NOISE_REL_TOL

#: What a transmission carries on the wire: a full table or a delta.
_Payload = Union[Tuple[RouteAdvertisement, ...], RouteDelta]


def _default_factory(node_id: NodeId, cost: Cost, policy: SelectionPolicy) -> BGPNode:
    return BGPNode(node_id, cost, policy)


def _materially_different(
    old_table: Tuple[RouteAdvertisement, ...],
    new_table: Tuple[RouteAdvertisement, ...],
) -> bool:
    """Whether two published tables differ beyond float reassociation.

    Routes (paths and exact costs) must match; price entries may differ
    within :data:`~repro.bgp.messages.NOISE_REL_TOL`.  Exact equality is
    still what drives retransmission -- this predicate only affects the
    *stage counting* reported to the convergence experiments.  Interned
    rows make the common unchanged-row case a pointer check.
    """
    if len(old_table) != len(new_table):
        return True
    old_by_dest = {advert.destination: advert for advert in old_table}
    for advert in new_table:
        old = old_by_dest.get(advert.destination)
        if old is None:
            return True
        if old is not advert and row_materially_different(old, advert):
            return True
    return False


class SynchronousEngine:
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
        self.graph = graph
        self.policy = policy or LowestCostPolicy()
        # Ablation knob (E15): disable the Sect. 6 restart-on-change
        # semantics to demonstrate why they are necessary.
        self.restart_on_events = restart_on_events
        # Delta transport + dirty-set scheduling (bit-identical results;
        # False reverts to the literal full-table model).
        self.incremental = incremental
        # Explicit observer (None: report to the global default iff
        # observability is enabled -- see repro.obs.active()).
        self._obs = obs
        self.nodes: Dict[NodeId, BGPNode] = {
            node_id: node_factory(node_id, graph.cost(node_id), self.policy)
            for node_id in graph.nodes
        }
        if obs is not None:
            for node in self.nodes.values():
                node.obs = obs
        # The engine owns a mutable adjacency so that link dynamics do
        # not require rebuilding node state.
        self.adjacency: Dict[NodeId, Set[NodeId]] = {
            node: set(graph.neighbors(node)) for node in graph.nodes
        }
        # What each node most recently sent (per the "send only when
        # changed" rule we must remember the last transmission).  The
        # incremental transport does not maintain this map: the per-node
        # publication baseline plays that role at O(changed rows).
        self._published: Dict[NodeId, Tuple[RouteAdvertisement, ...]] = {}
        # Nodes whose table changed in the previous stage and therefore
        # transmit at the start of the next one.
        self._pending: Set[NodeId] = set()
        # Incremental transport: the delta each pending node transmits
        # next stage, and the (sender, receiver) links that still need
        # an initial full-table sync (freshly restored links).
        self._outbox: Dict[NodeId, RouteDelta] = {}
        self._unsynced: Set[Tuple[NodeId, NodeId]] = set()
        self._initialized = False
        self.stage_count = 0
        # Per-node route-key snapshots for the sanitizer's monotone
        # convergence check.  Monotonicity holds only from a cold start:
        # warm reconvergence after an event (e.g. a cost increase under
        # restart_on_events=False) legitimately worsens routes, so the
        # check is disarmed then and re-armed by a full restart.
        self._sanitize_baseline: Dict[NodeId, sanitize.RouteKeySnapshot] = {}
        self._sanitize_monotone_armed = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Stage 0: every node publishes its self-route."""
        for node_id, node in self.nodes.items():
            if self.incremental:
                # The first publication delta *is* the full table (one
                # self-route row), so no separate initial sync is needed.
                delta = node.publication_delta()
                self._outbox[node_id] = RouteDelta(
                    node_id, delta.updates, delta.withdrawals
                )
            else:
                self._published[node_id] = node.advertisements()
            self._pending.add(node_id)
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
        if not self._initialized:
            raise ProtocolError("engine not initialized; call initialize() first")
        if self.incremental:
            return self._step_incremental()
        self.stage_count += 1
        senders = set(self._pending)
        messages = 0
        entries = 0
        rows = 0
        # Deliveries: every pending sender transmits its full table to
        # each current neighbor.
        for sender in sorted(senders):
            table = self._published[sender]
            table_entries = sum(advert.size_entries() for advert in table)
            for neighbor in sorted(self.adjacency[sender]):
                self.nodes[neighbor].receive_table(sender, table)
                messages += 1
                entries += table_entries
                rows += len(table)
        # Local computation + publication of changed tables.
        changed: Set[NodeId] = set()
        materially_changed: Set[NodeId] = set()
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            node.decide()
            adverts = node.advertisements()
            previous = self._published.get(node_id)
            if adverts != previous:
                if previous is None or _materially_different(previous, adverts):
                    materially_changed.add(node_id)
                self._published[node_id] = adverts
                changed.add(node_id)
        self._pending = changed
        if sanitize.enabled():
            self._sanitize_stage()
        return StageStats(
            stage=self.stage_count,
            nodes_changed=len(materially_changed),
            messages=messages,
            entries_sent=entries,
            rows_sent=rows,
        )

    def _step_incremental(self) -> StageStats:
        """One stage under the delta transport.

        Bit-identity with :meth:`_step`: the same senders transmit to
        the same neighbors in the same order (so message counts and obs
        event sequences match); ``entries_sent`` still accounts whole
        published tables (the model's measure -- maintained
        incrementally via the nodes' publication baselines); and a node
        is pending/materially-changed under exactly the condition the
        full-table comparison would produce (see
        :meth:`BGPNode.publication_delta`).  Only nodes with a nonempty
        dirty set recompute: route selection and the derived price
        state are pure per-destination functions of the Adj-RIB-In, so
        skipping a node with untouched inputs leaves identical state.
        """
        self.stage_count += 1
        senders = set(self._pending)
        messages = 0
        entries = 0
        rows_sent = 0
        rows_suppressed = 0
        dirty: Dict[NodeId, Set[NodeId]] = {}
        for sender in sorted(senders):
            node = self.nodes[sender]
            delta = self._outbox.pop(sender, None)
            if delta is None:
                delta = RouteDelta(sender)
            table: Optional[Tuple[RouteAdvertisement, ...]] = None
            table_entries = node.published_entries
            for neighbor in sorted(self.adjacency[sender]):
                receiver = self.nodes[neighbor]
                if (sender, neighbor) in self._unsynced:
                    # First transmission over a (re)established link:
                    # the receiver holds no baseline, so sync the full
                    # published table once; deltas apply from then on.
                    self._unsynced.discard((sender, neighbor))
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
        if sanitize.enabled():
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
    def _has_live_link(self, u: NodeId, v: NodeId) -> bool:
        return v in self.adjacency.get(u, ())

    def _sanitize_stage(self) -> None:
        """Per-stage invariant checks (only when the sanitizer is on):
        every selected path is a simple, endpoint-correct walk, and no
        node's selected route key worsened within the current epoch.
        The live-link part of the path check (like monotonicity) is only
        sound in a cold epoch: during warm reconvergence, path-vector
        routing legitimately holds routes through a failed link until
        the withdrawal propagates."""
        if self._sanitize_monotone_armed:
            has_edge = self._has_live_link
        else:
            has_edge = lambda u, v: True  # noqa: E731 - stale links allowed warm
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            for destination in sorted(node.routes):
                entry = node.routes[destination]
                sanitize.check_path(
                    entry.path,
                    has_edge=has_edge,
                    source=node_id,
                    destination=destination,
                )
            if self._sanitize_monotone_armed:
                current = sanitize.snapshot_routes(node.routes)
                previous = self._sanitize_baseline.get(node_id)
                if previous is not None:
                    sanitize.check_routes_monotone(node_id, previous, current)
                self._sanitize_baseline[node_id] = current

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _publish_event_state(self, node_id: NodeId) -> None:
        """Publish a node's table after an event (mode-appropriate)."""
        node = self.nodes[node_id]
        if self.incremental:
            self._outbox[node_id] = self._merged_outbox_delta(
                node_id, node.publication_delta()
            )
        else:
            self._published[node_id] = node.advertisements()
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

    def fail_link(self, u: NodeId, v: NodeId) -> None:
        """Remove the link ``(u, v)``; both ends drop the adjacency and
        everything learned over it, then reconverge on subsequent runs."""
        if v not in self.adjacency.get(u, ()):  # pragma: no cover - guard
            raise ProtocolError(f"no live link between {u} and {v}")
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        # A dead link needs no initial sync anymore.
        self._unsynced.discard((u, v))
        self._unsynced.discard((v, u))
        for end, other in ((u, v), (v, u)):
            node = self.nodes[end]
            node.drop_neighbor(other)
            node.decide()
            self._publish_event_state(end)
        self._restart_derived_state()

    def restore_link(self, u: NodeId, v: NodeId) -> None:
        """Re-add a previously failed link."""
        if u not in self.nodes or v not in self.nodes:
            raise ProtocolError(f"unknown endpoint on link ({u}, {v})")
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)
        # Both endpoints must (re)transmit their tables over the new link;
        # marking them pending re-sends to all neighbors, which is the
        # worst-case behavior the model accounts anyway.  Under the delta
        # transport the new link's first exchange is a full-table sync
        # (the far end holds no baseline); the other neighbors get the
        # pending delta, empty if nothing changed.
        if self.incremental:
            self._unsynced.update(((u, v), (v, u)))
        self._pending.update((u, v))
        self._restart_derived_state()

    def change_cost(self, node_id: NodeId, cost: Cost) -> None:
        """Node *node_id* re-declares its per-packet cost."""
        node = self.nodes[node_id]
        node.set_declared_cost(cost)
        node.decide()
        self._publish_event_state(node_id)
        self._restart_derived_state()

    def _restart_derived_state(self) -> None:
        """Apply Sect. 6's restart semantics after a network change.

        "The process of converging begins again each time a route is
        changed."  For price-computing networks this must be a *full*
        protocol restart: price state derived from any pre-event
        advertisement is unusable (a stale route cost can make a price
        candidate undercut the new true price, and the monotone minimum
        never recovers), and a node cannot locally tell pre-event
        information from post-event information.  Plain BGP networks
        are left warm -- path-vector routing is self-correcting and its
        incremental reconvergence is itself worth measuring.
        """
        # A warm reconvergence epoch is not monotone (stale low-cost
        # routes persist until the news propagates); disarm the check.
        self._sanitize_baseline.clear()
        self._sanitize_monotone_armed = False
        needs_restart = self.restart_on_events and any(
            node.RESTART_ON_EVENT for node in self.nodes.values()
        )
        if needs_restart:
            self.full_restart()

    def full_restart(self) -> None:
        """Forget everything learned and reconverge from scratch (the
        paper's convergence-begins-again model)."""
        self._sanitize_baseline.clear()
        self._sanitize_monotone_armed = True
        for node_id, node in self.nodes.items():
            node.restart()
            self._publish_event_state(node_id)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> BGPNode:
        return self.nodes[node_id]

    def state_report(self) -> StateReport:
        loc = {}
        adj = {}
        price = {}
        for node_id, node in self.nodes.items():
            loc[node_id] = node.table_size_entries()
            adj[node_id] = node.rib_in.size_entries()
            price[node_id] = sum(
                len(node._prices_for(destination)) for destination in node.routes
            )
        return StateReport(
            loc_rib_entries=loc, adj_rib_in_entries=adj, price_entries=price
        )


class AsynchronousEngine:
    """Event-driven relaxation of the stage model.

    Every table transmission is an event with an independent random
    delay in ``[min_delay, max_delay]``; a node processes one incoming
    table at a time, recomputes, and (if its table changed) schedules
    transmissions to all neighbors.  Termination: the event queue drains
    (guaranteed for the static instances tested -- route keys strictly
    improve and price arrays stabilize with them).
    """

    #: Opt-in delivery schedule recorder: set to a list and every
    #: delivery appends ``(when, sender, receiver, rows)``.  The timed
    #: engine records the same tuples, which is how the differential
    #: suite asserts schedule bit-identity between the substrates.
    delivery_log: Optional[List[Tuple[float, NodeId, NodeId, int]]] = None

    def __init__(
        self,
        graph: ASGraph,
        policy: Optional[SelectionPolicy] = None,
        node_factory: NodeFactory = _default_factory,
        seed: int = 0,
        min_delay: float = 0.1,
        max_delay: float = 1.0,
        fifo_links: bool = True,
        incremental: bool = True,
        obs: Optional[obs_mod.Obs] = None,
    ) -> None:
        if not 0 < min_delay <= max_delay:
            raise ProtocolError(
                f"invalid delay range [{min_delay}, {max_delay}]"
            )
        self._obs = obs
        # Ablation knob (E15): drop the per-link FIFO guarantee to show
        # that reordered tables (impossible over TCP) corrupt state.
        self.fifo_links = fifo_links
        # Delta transport.  Deltas are only correct when consecutive
        # transmissions on a link arrive in order, so the reordering
        # ablation (fifo_links=False) silently falls back to full
        # tables -- which is also what keeps that ablation meaningful.
        self.incremental = incremental and fifo_links
        self.graph = graph
        self.policy = policy or LowestCostPolicy()
        self.nodes: Dict[NodeId, BGPNode] = {
            node_id: node_factory(node_id, graph.cost(node_id), self.policy)
            for node_id in graph.nodes
        }
        if obs is not None:
            for node in self.nodes.values():
                node.obs = obs
        self._rng = random.Random(seed)
        self._min_delay = min_delay
        self._max_delay = max_delay
        self._clock = 0.0
        self._sequence = itertools.count()
        self._queue: List[Tuple[float, int, NodeId, NodeId, _Payload]] = []
        self._published: Dict[NodeId, Tuple[RouteAdvertisement, ...]] = {}
        # BGP sessions run over TCP: per-link delivery is FIFO.  Without
        # this, a newer table can overtake an older one and the receiver
        # would overwrite fresh state with stale state.
        self._link_clock: Dict[Tuple[NodeId, NodeId], float] = {}
        self.deliveries = 0
        # Transport accounting (counted when a transmission is queued).
        self.rows_sent = 0
        self.rows_suppressed = 0
        self._started = False
        # Sanitizer baseline (see SynchronousEngine); only meaningful
        # under FIFO delivery, where route keys improve monotonically.
        self._sanitize_baseline: Dict[NodeId, sanitize.RouteKeySnapshot] = {}

    def initialize(self) -> None:
        for node_id, node in self.nodes.items():
            if self.incremental:
                delta = node.publication_delta()
                self._broadcast_delta(
                    node_id, RouteDelta(node_id, delta.updates, delta.withdrawals)
                )
            else:
                self._broadcast(node_id, node.advertisements())
        self._started = True

    def _schedule(self, sender: NodeId, neighbor: NodeId, payload: _Payload) -> None:
        """Queue one transmission with a fresh random delay.  Both
        transports draw exactly one delay per (transmission, neighbor),
        so the delivery schedule -- and hence every RNG-dependent
        outcome -- is identical between them."""
        delay = self._rng.uniform(self._min_delay, self._max_delay)
        link = (sender, neighbor)
        when = self._clock + delay
        if self.fifo_links:
            when = max(when, self._link_clock.get(link, 0.0))
            self._link_clock[link] = when
        heapq.heappush(
            self._queue,
            (when, next(self._sequence), sender, neighbor, payload),
        )

    def _broadcast(self, sender: NodeId, table: Tuple[RouteAdvertisement, ...]) -> None:
        self._published[sender] = table
        for neighbor in self.graph.neighbors(sender):
            self._schedule(sender, neighbor, table)
            self.rows_sent += len(table)

    def _broadcast_delta(self, sender: NodeId, delta: RouteDelta) -> None:
        suppressed = self.nodes[sender].published_rows - len(delta.updates)
        for neighbor in self.graph.neighbors(sender):
            self._schedule(sender, neighbor, delta)
            self.rows_sent += delta.size_rows()
            self.rows_suppressed += suppressed

    def run(self, max_deliveries: Optional[int] = None) -> ConvergenceReport:
        """Drain the event queue; returns the delivery accounting.

        When an observer is active the drain runs under a
        ``bgp.async.run`` span and the deliveries this call performed
        are emitted as ``bgp.deliveries`` and as ``bgp.messages`` with
        ``type=async``.
        """
        observer = obs_mod.active(self._obs)
        if observer is None:
            return self._run(max_deliveries)
        deliveries_before = self.deliveries
        rows_before = self.rows_sent
        suppressed_before = self.rows_suppressed
        with observer.span(metric_names.SPAN_ASYNC_RUN):
            report = self._run(max_deliveries)
        delivered = self.deliveries - deliveries_before
        observer.count(metric_names.DELIVERIES, delivered)
        observer.count(metric_names.MESSAGES, delivered, type="async")
        observer.count(metric_names.ROWS_SENT, self.rows_sent - rows_before)
        observer.count(
            metric_names.ROWS_SUPPRESSED, self.rows_suppressed - suppressed_before
        )
        return report

    def _run(self, max_deliveries: Optional[int] = None) -> ConvergenceReport:
        if not self._started and not self._queue and not self._published:
            self.initialize()
        limit = max_deliveries if max_deliveries is not None else 200 * self.graph.num_nodes ** 2
        while self._queue:
            if self.deliveries >= limit:
                raise ConvergenceError(stages=self.deliveries, limit=limit)
            when, _seq, sender, receiver, payload = heapq.heappop(self._queue)
            self._clock = when
            self.deliveries += 1
            if self.delivery_log is not None:
                rows = (
                    payload.size_rows()
                    if isinstance(payload, RouteDelta)
                    else len(payload)
                )
                self.delivery_log.append((when, sender, receiver, rows))
            node = self.nodes[receiver]
            if isinstance(payload, RouteDelta):
                dirty = node.receive_delta(sender, payload)
                if sanitize.enabled():
                    # Every delivery re-decides so the invariant checks
                    # see the complete decision process: change-driven
                    # and then checked against a full decision, or fully
                    # when nothing is dirty.
                    node.decide(dirty or None)
                    self._sanitize_delivery(receiver, node)
                elif dirty:
                    node.decide(dirty)
                else:
                    continue  # inputs unchanged: no recompute, no rebroadcast
                delta = node.publication_delta()
                if not delta.is_empty:
                    self._broadcast_delta(
                        receiver,
                        RouteDelta(receiver, delta.updates, delta.withdrawals),
                    )
            else:
                node.receive_table(sender, payload)
                node.decide()
                if sanitize.enabled():
                    self._sanitize_delivery(receiver, node)
                adverts = node.advertisements()
                if adverts != self._published.get(receiver):
                    self._broadcast(receiver, adverts)
        report = ConvergenceReport(converged=True, stages=0)
        report.total_messages = self.deliveries
        report.total_rows_sent = self.rows_sent
        report.total_rows_suppressed = self.rows_suppressed
        return report

    def _sanitize_delivery(self, receiver: NodeId, node: BGPNode) -> None:
        """Invariant checks after one delivery (sanitizer on only)."""
        for destination in sorted(node.routes):
            entry = node.routes[destination]
            sanitize.check_path(
                entry.path,
                has_edge=self.graph.has_edge,
                source=receiver,
                destination=destination,
            )
        if self.fifo_links:
            current = sanitize.snapshot_routes(node.routes)
            previous = self._sanitize_baseline.get(receiver)
            if previous is not None:
                sanitize.check_routes_monotone(receiver, previous, current)
            self._sanitize_baseline[receiver] = current

    def node(self, node_id: NodeId) -> BGPNode:
        return self.nodes[node_id]
