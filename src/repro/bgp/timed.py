"""Discrete-event timed BGP substrate: link delays, jitter, and MRAI.

The paper's Sect. 5 model abstracts time away into stage counts, and the
:class:`~repro.bgp.engine.AsynchronousEngine` relaxes it only as far as
uniformly jittered deliveries.  :class:`TimedEngine` is the full
discrete-event simulator: a priority queue of timestamped events drives

* UPDATE deliveries with a pluggable seeded per-link delay distribution
  (:mod:`repro.bgp.delays`: constant / uniform-jitter / lognormal),
* MRAI (Minimum Route Advertisement Interval) hold-down timers in both
  peer-based and prefix(destination)-based modes, with optional jitter,
* timed network events (:class:`~repro.bgp.events.NetworkEvent`
  scheduled at a virtual timestamp, including LINK_DOWN / LINK_UP while
  UPDATEs are still in flight).

The transport is the delta substrate throughout
(:class:`~repro.bgp.messages.RouteDelta` + dirty-set scheduling);
restored links get one full-table initial sync, exactly as in the staged
engine.

Determinism contract
--------------------
A run is a pure function of ``(graph, seed, configuration)``: all
randomness flows through one seeded :class:`random.Random`, heap ties
break on a monotone sequence number, and every iteration over node or
neighbor sets is sorted.  In the *async-equivalent configuration* --
``delay=UniformDelay(lo, hi)``, ``mrai=None``, no scheduled events --
the engine consumes the RNG in exactly the order the asynchronous engine
does (one ``uniform`` draw per (transmission, neighbor) in ascending
neighbor order) and applies the same per-link FIFO clamp, so the
delivered-message schedule, the final model, and the transport counters
are bit-identical to ``AsynchronousEngine(seed=seed)``.

Losses and epochs
-----------------
BGP sessions die with their link: an UPDATE in flight across a link
that fails is never delivered.  Each direction of a link carries an
epoch counter, bumped on failure; deliveries whose stamped epoch is
stale are dropped (counted in ``messages_lost`` / ``rows_lost``).  A
Sect. 6 full restart bumps a global update epoch instead, dropping
*all* in-flight traffic -- the session-reset semantics of
"convergence begins again".
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

import repro.obs as obs_mod
from repro.bgp.delays import DelayModel, UniformDelay, resolve_delay
from repro.bgp.engine import NodeFactory, _default_factory
from repro.bgp.events import NetworkEvent
from repro.bgp.messages import RouteAdvertisement, RouteDelta
from repro.bgp.metrics import StateReport, TimedReport
from repro.bgp.node import BGPNode
from repro.bgp.policy import LowestCostPolicy, SelectionPolicy
from repro.devtools import sanitize
from repro.exceptions import ConvergenceError, ProtocolError
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.types import Cost, NodeId

#: MRAI timer granularities (RFC 4271 runs one timer per peer; classic
#: rate-limiting literature studies the per-prefix variant).
MRAI_PEER = "peer"
MRAI_PREFIX = "prefix"

#: Event kinds on the queue.  Never compared (the sequence number breaks
#: every heap tie), so plain strings are fine.
EVENT_UPDATE = "update"
EVENT_MRAI = "mrai"
EVENT_NETWORK = "network"

#: What an UPDATE carries: a delta, or a full table (initial link sync).
_Body = Union[RouteDelta, Tuple[RouteAdvertisement, ...]]

#: MRAI timer key: (sender, peer) or (sender, peer, destination).
_MraiKey = Union[Tuple[NodeId, NodeId], Tuple[NodeId, NodeId, NodeId]]


@dataclass(frozen=True)
class MRAIConfig:
    """Minimum Route Advertisement Interval configuration.

    ``interval`` is the hold-down in virtual seconds after a
    transmission on a timer's scope before the next one may go out.
    ``mode`` picks the scope: :data:`MRAI_PEER` (one timer per directed
    link, RFC 4271) or :data:`MRAI_PREFIX` (one timer per directed link
    and destination).  ``jitter`` is the standard fractional jitter:
    each arming draws the effective interval uniformly from
    ``[interval * (1 - jitter), interval]``.
    """

    interval: float
    mode: str = MRAI_PEER
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not self.interval > 0.0:
            raise ProtocolError(f"MRAI interval must be > 0, got {self.interval}")
        if self.mode not in (MRAI_PEER, MRAI_PREFIX):
            raise ProtocolError(f"unknown MRAI mode {self.mode!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ProtocolError(f"MRAI jitter must be in [0, 1], got {self.jitter}")

    def describe(self) -> str:
        jitter = f",jitter={self.jitter:g}" if self.jitter else ""
        return f"mrai:{self.mode}:{self.interval:g}{jitter}"


def resolve_mrai(spec: "dict | MRAIConfig | None") -> "MRAIConfig | None":
    """Coerce any accepted MRAI spelling to an :class:`MRAIConfig`.

    Mirrors :func:`repro.bgp.delays.resolve_delay`: every surface that
    takes an MRAI configuration accepts either a config instance or a
    keyword dict (``{"interval": 1.0, "mode": "peer", "jitter": 0.25}``)
    validated by the :class:`MRAIConfig` constructor itself.  ``None``
    passes through (hold-down off).
    """
    if spec is None or isinstance(spec, MRAIConfig):
        return spec
    if isinstance(spec, dict):
        try:
            return MRAIConfig(**spec)
        except TypeError as exc:
            raise ProtocolError(f"malformed MRAI spec {spec!r}: {exc}") from None
    raise ProtocolError(
        f"mrai must be an MRAIConfig, a keyword dict, or None; "
        f"got {type(spec).__name__}"
    )


class TimedEngine:
    """Discrete-event relaxation of the stage model with real timers.

    The event loop pops ``(when, seq, kind, payload)`` entries off a
    heap; ``when`` is virtual time (monotone: delays and intervals are
    nonnegative, and scheduling into the past is rejected), ``seq`` a
    global monotone counter that makes tie-breaking deterministic.
    """

    #: Opt-in delivery schedule recorder; same tuple format as
    #: :attr:`AsynchronousEngine.delivery_log` (the differential tests
    #: compare the two lists directly).
    delivery_log: Optional[List[Tuple[float, NodeId, NodeId, int]]] = None

    #: Opt-in full event trace: every pop appends
    #: ``(when, kind, detail)``.  Same seed, same configuration => same
    #: trace, which is what the determinism tests assert.
    event_log: Optional[List[Tuple[float, str, object]]] = None

    def __init__(
        self,
        graph: ASGraph,
        policy: Optional[SelectionPolicy] = None,
        node_factory: NodeFactory = _default_factory,
        restart_on_events: bool = True,
        seed: int = 0,
        delay: Union[str, DelayModel, None] = None,
        mrai: Union[dict, MRAIConfig, None] = None,
        fifo_links: bool = True,
        obs: Optional[obs_mod.Obs] = None,
    ) -> None:
        if not fifo_links:
            raise ProtocolError(
                "the timed engine rides the delta transport, which requires "
                "per-link FIFO delivery; use AsynchronousEngine(fifo_links="
                "False) for the reordering ablation"
            )
        self.graph = graph
        self.policy = policy or LowestCostPolicy()
        self.restart_on_events = restart_on_events
        #: Same defaults as the asynchronous engine's [0.1, 1.0] jitter.
        #: Spec strings / keyword dicts coerce here, so every caller --
        #: api.run, the CLI, the benchmarks -- shares one parsing path.
        resolved_delay = resolve_delay(delay)
        self.delay = resolved_delay if resolved_delay is not None else UniformDelay()
        self.mrai = resolve_mrai(mrai)
        self._obs = obs
        self.nodes: Dict[NodeId, BGPNode] = {
            node_id: node_factory(node_id, graph.cost(node_id), self.policy)
            for node_id in graph.nodes
        }
        if obs is not None:
            for node in self.nodes.values():
                node.obs = obs
        self.adjacency: Dict[NodeId, Set[NodeId]] = {
            node: set(graph.neighbors(node)) for node in graph.nodes
        }
        self._rng = random.Random(seed)
        self._clock = 0.0
        self._sequence = itertools.count()
        self._queue: List[Tuple[float, int, str, object]] = []
        # Per-link FIFO (TCP sessions): a transmission never arrives
        # before an earlier one on the same directed link.
        self._link_clock: Dict[Tuple[NodeId, NodeId], float] = {}
        # Loss epochs: per-directed-link (bumped on failure) and global
        # (bumped on full restart); UPDATEs stamped with stale epochs
        # are dropped at delivery time.
        self._link_epoch: Dict[Tuple[NodeId, NodeId], int] = {}
        self._update_epoch = 0
        # Restored links awaiting their initial full-table sync.
        self._unsynced: Set[Tuple[NodeId, NodeId]] = set()
        # MRAI state: earliest next-send time per timer scope, pending
        # (coalesced) rows per directed link, and the armed-expiry
        # tokens that invalidate in-flight timer events on teardown.
        self._mrai_ready: Dict[_MraiKey, float] = {}
        self._mrai_pending: Dict[Tuple[NodeId, NodeId], Dict[NodeId, Optional[RouteAdvertisement]]] = {}
        self._mrai_armed: Dict[_MraiKey, int] = {}
        self._mrai_token = 0
        # Accounting (cumulative across run() calls, like the async
        # engine's): see TimedReport for the reconciliation invariants.
        self.deliveries = 0
        self.messages_lost = 0
        self.rows_offered = 0
        self.rows_sent = 0
        self.rows_delivered = 0
        self.rows_suppressed = 0
        self.rows_lost = 0
        self.mrai_deferrals = 0
        self.mrai_flushes = 0
        self.mrai_rows_coalesced = 0
        self.mrai_rows_discarded = 0
        self.network_events = 0
        self.convergence_time = 0.0
        self._events_processed = 0
        self._started = False
        # Last snapshot emitted to an observer (see run()): counter
        # deltas are taken against this, so initialization traffic is
        # attributed to the first observed run.
        self._emitted = TimedReport(converged=False)
        # Sanitizer state (see SynchronousEngine: monotonicity only
        # holds in a cold epoch, so events disarm the check and a full
        # restart re-arms it).
        self._sanitize_baseline: Dict[NodeId, sanitize.RouteKeySnapshot] = {}
        self._sanitize_monotone_armed = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Every node publishes its self-route at virtual time 0."""
        for node_id, node in self.nodes.items():
            delta = node.publication_delta()
            self._broadcast_delta(
                node_id, RouteDelta(node_id, delta.updates, delta.withdrawals)
            )
        self._started = True

    @property
    def clock(self) -> float:
        """Current virtual time (seconds since the run started)."""
        return self._clock

    @property
    def quiescent(self) -> bool:
        return self._started and not self._queue

    def pending_mrai_rows(self) -> int:
        """Rows currently held back by MRAI timers (drains to 0)."""
        return sum(len(pending) for pending in self._mrai_pending.values())

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule_event(self, when: float, event: NetworkEvent) -> None:
        """Schedule a network event at virtual time ``when``.

        Events interleave with in-flight UPDATEs: a link can fail while
        traffic addressed across it is still queued (those messages are
        lost), which is the coverage the staged engines cannot express.
        """
        if when < self._clock:
            raise ProtocolError(
                f"cannot schedule an event at {when} before the clock ({self._clock})"
            )
        heapq.heappush(
            self._queue, (when, next(self._sequence), EVENT_NETWORK, event)
        )

    def _transmit(self, sender: NodeId, neighbor: NodeId, body: _Body) -> None:
        """Put one transmission on the wire: sample the link delay,
        apply the per-link FIFO clamp, stamp the loss epochs."""
        link = (sender, neighbor)
        delay = self.delay.sample(self._rng)
        when = max(self._clock + delay, self._link_clock.get(link, 0.0))
        self._link_clock[link] = when
        rows = body.size_rows() if isinstance(body, RouteDelta) else len(body)
        self.rows_sent += rows
        payload = (
            sender,
            neighbor,
            self._link_epoch.get(link, 0),
            self._update_epoch,
            body,
        )
        heapq.heappush(
            self._queue, (when, next(self._sequence), EVENT_UPDATE, payload)
        )

    def _broadcast_delta(self, sender: NodeId, delta: RouteDelta) -> None:
        """Offer a publication delta to every live neighbor.

        Restored links get the full published table once (bypassing
        MRAI: the initial sync *is* the session establishment); all
        other links get the delta, through the MRAI layer when one is
        configured.  ``rows_suppressed`` uses the asynchronous engine's
        formula (published rows the delta avoided resending), counted
        per neighbor at offer time so the counters stay bit-identical
        in the async-equivalent configuration.
        """
        node = self.nodes[sender]
        suppressed = node.published_rows - len(delta.updates)
        for neighbor in sorted(self.adjacency[sender]):
            if (sender, neighbor) in self._unsynced:
                self._unsynced.discard((sender, neighbor))
                table = node.published_table()
                self.rows_offered += len(table)
                self._transmit(sender, neighbor, table)
                continue
            self.rows_offered += delta.size_rows()
            self.rows_suppressed += suppressed
            if self.mrai is None:
                self._transmit(sender, neighbor, delta)
            else:
                self._offer_mrai(sender, neighbor, delta)

    # ------------------------------------------------------------------
    # MRAI layer
    # ------------------------------------------------------------------
    def _mrai_key(self, link: Tuple[NodeId, NodeId], destination: NodeId) -> _MraiKey:
        if self.mrai is not None and self.mrai.mode == MRAI_PREFIX:
            return (link[0], link[1], destination)
        return link

    def _mrai_interval(self) -> float:
        assert self.mrai is not None
        interval = self.mrai.interval
        if self.mrai.jitter:
            interval = self._rng.uniform(
                interval * (1.0 - self.mrai.jitter), interval
            )
        return interval

    def _offer_mrai(
        self, sender: NodeId, neighbor: NodeId, delta: RouteDelta
    ) -> None:
        """Partition a delta into rows the MRAI allows now and rows held
        back; held rows coalesce per destination (last row wins, which
        is sound because delta rows are absolute per-destination
        values and per-link delivery is FIFO)."""
        link = (sender, neighbor)
        now = self._clock
        send_updates: List[RouteAdvertisement] = []
        send_withdrawals: List[NodeId] = []
        for advert in delta.updates:
            key = self._mrai_key(link, advert.destination)
            if self._mrai_ready.get(key, 0.0) > now:
                self._defer_row(link, key, advert.destination, advert)
            else:
                send_updates.append(advert)
        for destination in delta.withdrawals:
            key = self._mrai_key(link, destination)
            if self._mrai_ready.get(key, 0.0) > now:
                self._defer_row(link, key, destination, None)
            else:
                send_withdrawals.append(destination)
        if send_updates or send_withdrawals:
            out = RouteDelta(sender, tuple(send_updates), tuple(send_withdrawals))
            self._transmit(sender, neighbor, out)
            self._stamp_mrai(link, out)

    def _defer_row(
        self,
        link: Tuple[NodeId, NodeId],
        key: _MraiKey,
        destination: NodeId,
        advert: Optional[RouteAdvertisement],
    ) -> None:
        pending = self._mrai_pending.setdefault(link, {})
        if destination in pending:
            # The previously pending row for this destination is now
            # obsolete and will never be sent -- the MRAI did its job.
            self.mrai_rows_coalesced += 1
        pending[destination] = advert
        self.mrai_deferrals += 1
        if key not in self._mrai_armed:
            # Lazy arming: the expiry event exists only once a row is
            # actually blocked on the timer.
            self._mrai_token += 1
            self._mrai_armed[key] = self._mrai_token
            heapq.heappush(
                self._queue,
                (
                    self._mrai_ready[key],
                    next(self._sequence),
                    EVENT_MRAI,
                    (link, key, self._mrai_token),
                ),
            )

    def _stamp_mrai(self, link: Tuple[NodeId, NodeId], delta: RouteDelta) -> None:
        """Start the hold-down for everything just transmitted."""
        assert self.mrai is not None
        now = self._clock
        if self.mrai.mode == MRAI_PEER:
            self._mrai_ready[link] = now + self._mrai_interval()
            return
        for advert in delta.updates:
            self._mrai_ready[(link[0], link[1], advert.destination)] = (
                now + self._mrai_interval()
            )
        for destination in delta.withdrawals:
            self._mrai_ready[(link[0], link[1], destination)] = (
                now + self._mrai_interval()
            )

    def _expire_mrai(self, payload: object) -> None:
        link, key, token = payload  # type: ignore[misc]
        if self._mrai_armed.get(key) != token:
            return  # timer torn down (link failed / session reset)
        del self._mrai_armed[key]
        pending = self._mrai_pending.get(link)
        if not pending:
            return
        if self.mrai is not None and self.mrai.mode == MRAI_PREFIX:
            destination = key[2]
            if destination not in pending:
                return
            flush = {destination: pending.pop(destination)}
            if not pending:
                del self._mrai_pending[link]
        else:
            flush = pending
            del self._mrai_pending[link]
        updates = tuple(
            flush[destination]
            for destination in sorted(flush)
            if flush[destination] is not None
        )
        withdrawals = tuple(
            sorted(
                destination for destination in flush if flush[destination] is None
            )
        )
        out = RouteDelta(link[0], updates, withdrawals)
        self.mrai_flushes += 1
        self._transmit(link[0], link[1], out)
        self._stamp_mrai(link, out)

    def _discard_mrai_link(self, link: Tuple[NodeId, NodeId]) -> None:
        """Tear down MRAI state for a dead directed link (pending rows
        die with the session; a restored link starts a fresh one)."""
        pending = self._mrai_pending.pop(link, None)
        if pending:
            self.mrai_rows_discarded += len(pending)
        for key in [key for key in self._mrai_armed if key[:2] == link]:
            del self._mrai_armed[key]
        for key in [key for key in self._mrai_ready if key[:2] == link]:
            del self._mrai_ready[key]

    def _discard_all_mrai(self) -> None:
        for pending in self._mrai_pending.values():
            self.mrai_rows_discarded += len(pending)
        self._mrai_pending.clear()
        self._mrai_armed.clear()
        self._mrai_ready.clear()

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> TimedReport:
        """Drain the event queue; returns the timed accounting.

        When an observer is active the drain runs under a
        ``bgp.timed.run`` span; deliveries, transport rows, losses and
        MRAI counters are emitted as their ``bgp.*`` counter names and
        the final virtual clock / convergence time as ``bgp.timed.*``
        gauges -- exactly the :class:`TimedReport` numbers, so a
        recorded trace reproduces them bit-for-bit.
        """
        observer = obs_mod.active(self._obs)
        if observer is None:
            return self._run(max_events)
        # Delta against the last *emitted* snapshot (zeros before the
        # first run), not the entry state: initialization traffic
        # happens outside run(), and the trace totals must still sum to
        # the final report.
        before = self._emitted
        with observer.span(metric_names.SPAN_TIMED_RUN):
            report = self._run(max_events)
        self._emitted = report
        observer.count(metric_names.DELIVERIES, report.deliveries - before.deliveries)
        observer.count(
            metric_names.MESSAGES, report.deliveries - before.deliveries, type="timed"
        )
        observer.count(metric_names.ROWS_SENT, report.rows_sent - before.rows_sent)
        observer.count(
            metric_names.ROWS_SUPPRESSED,
            report.rows_suppressed - before.rows_suppressed,
        )
        observer.count(
            metric_names.TIMED_MESSAGES_LOST,
            report.messages_lost - before.messages_lost,
        )
        observer.count(
            metric_names.TIMED_NETWORK_EVENTS,
            report.network_events - before.network_events,
        )
        observer.count(
            metric_names.TIMED_MRAI_DEFERRALS,
            report.mrai_deferrals - before.mrai_deferrals,
        )
        observer.count(
            metric_names.TIMED_MRAI_FLUSHES,
            report.mrai_flushes - before.mrai_flushes,
        )
        observer.count(
            metric_names.TIMED_MRAI_COALESCED,
            report.mrai_rows_coalesced - before.mrai_rows_coalesced,
        )
        observer.gauge(metric_names.TIMED_CLOCK, report.clock)
        observer.gauge(
            metric_names.TIMED_CONVERGENCE_TIME, report.convergence_time
        )
        return report

    def _run(self, max_events: Optional[int] = None) -> TimedReport:
        if not self._started:
            self.initialize()
        limit = (
            max_events
            if max_events is not None
            else 200 * self.graph.num_nodes**2
        )
        while self._queue:
            if self._events_processed >= limit:
                raise ConvergenceError(stages=self._events_processed, limit=limit)
            when, _seq, kind, payload = heapq.heappop(self._queue)
            # Heap order + nonnegative delays/intervals keep this
            # monotone; schedule_event rejects past timestamps.
            self._clock = when
            self._events_processed += 1
            if kind == EVENT_NETWORK:
                if self.event_log is not None:
                    self.event_log.append((when, kind, payload.describe()))  # type: ignore[union-attr]
                self.network_events += 1
                payload.apply(self)  # type: ignore[union-attr]
                continue
            if kind == EVENT_MRAI:
                if self.event_log is not None:
                    self.event_log.append((when, kind, payload[1]))  # type: ignore[index]
                self._expire_mrai(payload)
                continue
            sender, receiver, link_epoch, update_epoch, body = payload  # type: ignore[misc]
            rows = body.size_rows() if isinstance(body, RouteDelta) else len(body)
            if self.event_log is not None:
                self.event_log.append((when, kind, (sender, receiver, rows)))
            if (
                link_epoch != self._link_epoch.get((sender, receiver), 0)
                or update_epoch != self._update_epoch
            ):
                # The session this UPDATE was sent on no longer exists.
                self.messages_lost += 1
                self.rows_lost += rows
                continue
            self.deliveries += 1
            self.rows_delivered += rows
            self.convergence_time = when
            if self.delivery_log is not None:
                self.delivery_log.append((when, sender, receiver, rows))
            node = self.nodes[receiver]
            if isinstance(body, RouteDelta):
                dirty = node.receive_delta(sender, body)
            else:
                dirty = node.receive_table(sender, body)
            if sanitize.enabled():
                # Every delivery re-decides so the invariant checks see
                # the complete decision process: change-driven and then
                # checked against a full decision, or fully when nothing
                # is dirty.
                node.decide(dirty or None)
                self._sanitize_delivery(receiver, node)
            elif dirty:
                node.decide(dirty)
            else:
                continue  # inputs unchanged: no recompute, no rebroadcast
            delta = node.publication_delta()
            if not delta.is_empty:
                self._broadcast_delta(
                    receiver, RouteDelta(receiver, delta.updates, delta.withdrawals)
                )
        return self._report()

    def _report(self) -> TimedReport:
        return TimedReport(
            converged=True,
            deliveries=self.deliveries,
            messages_lost=self.messages_lost,
            rows_offered=self.rows_offered,
            rows_sent=self.rows_sent,
            rows_delivered=self.rows_delivered,
            rows_suppressed=self.rows_suppressed,
            rows_lost=self.rows_lost,
            mrai_deferrals=self.mrai_deferrals,
            mrai_flushes=self.mrai_flushes,
            mrai_rows_coalesced=self.mrai_rows_coalesced,
            mrai_rows_discarded=self.mrai_rows_discarded,
            network_events=self.network_events,
            clock=self._clock,
            convergence_time=self.convergence_time,
        )

    # ------------------------------------------------------------------
    # Dynamics (the same surface as SynchronousEngine; also reachable
    # mid-run through schedule_event)
    # ------------------------------------------------------------------
    def fail_link(self, u: NodeId, v: NodeId) -> None:
        """Remove the link ``(u, v)`` at the current virtual time.

        In-flight UPDATEs on the link are lost (epoch bump), pending
        MRAI rows die with the session, and both endpoints drop what
        they learned over it and republish.
        """
        if v not in self.adjacency.get(u, ()):  # pragma: no cover - guard
            raise ProtocolError(f"no live link between {u} and {v}")
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        for link in ((u, v), (v, u)):
            self._link_epoch[link] = self._link_epoch.get(link, 0) + 1
            self._unsynced.discard(link)
            self._discard_mrai_link(link)
        for end, other in ((u, v), (v, u)):
            node = self.nodes[end]
            node.drop_neighbor(other)
            node.decide()
            delta = node.publication_delta()
            if not delta.is_empty:
                self._broadcast_delta(
                    end, RouteDelta(end, delta.updates, delta.withdrawals)
                )
        self._restart_derived_state()

    def restore_link(self, u: NodeId, v: NodeId) -> None:
        """Re-add a previously failed link at the current virtual time.

        The new session starts with a full-table sync in each direction
        (the far end holds no delta baseline).  Under Sect. 6 restart
        semantics the full restart's own republication performs that
        sync; in the warm (plain-BGP) case it is transmitted here,
        bypassing MRAI -- session establishment is not an
        advertisement."""
        if u not in self.nodes or v not in self.nodes:
            raise ProtocolError(f"unknown endpoint on link ({u}, {v})")
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)
        self._unsynced.update(((u, v), (v, u)))
        self._restart_derived_state()
        for sender, receiver in ((u, v), (v, u)):
            if (sender, receiver) in self._unsynced:
                self._unsynced.discard((sender, receiver))
                table = self.nodes[sender].published_table()
                self.rows_offered += len(table)
                self._transmit(sender, receiver, table)

    def change_cost(self, node_id: NodeId, cost: Cost) -> None:
        """Node *node_id* re-declares its per-packet cost."""
        node = self.nodes[node_id]
        node.set_declared_cost(cost)
        node.decide()
        delta = node.publication_delta()
        if not delta.is_empty:
            self._broadcast_delta(
                node_id, RouteDelta(node_id, delta.updates, delta.withdrawals)
            )
        self._restart_derived_state()

    def _restart_derived_state(self) -> None:
        """Sect. 6 restart semantics after a network change (see
        :meth:`SynchronousEngine._restart_derived_state`: price state
        cannot survive an event, plain BGP reconverges warm)."""
        self._sanitize_baseline.clear()
        self._sanitize_monotone_armed = False
        needs_restart = self.restart_on_events and any(
            node.RESTART_ON_EVENT for node in self.nodes.values()
        )
        if needs_restart:
            self.full_restart()

    def full_restart(self) -> None:
        """Session-reset everything: drop all in-flight traffic and all
        MRAI state (global epoch bump), forget learned routes, and
        republish from scratch at the current virtual time."""
        self._sanitize_baseline.clear()
        self._sanitize_monotone_armed = True
        self._update_epoch += 1
        self._discard_all_mrai()
        for node_id, node in self.nodes.items():
            node.restart()
            delta = node.publication_delta()
            if not delta.is_empty:
                self._broadcast_delta(
                    node_id, RouteDelta(node_id, delta.updates, delta.withdrawals)
                )

    # ------------------------------------------------------------------
    # Sanitizer hooks
    # ------------------------------------------------------------------
    def _has_live_link(self, u: NodeId, v: NodeId) -> bool:
        return v in self.adjacency.get(u, ())

    def _sanitize_delivery(self, receiver: NodeId, node: BGPNode) -> None:
        """Invariant checks after one delivery (sanitizer on only).
        Warm reconvergence legitimately holds routes through dead links
        and worsens route keys, so both checks follow the armed flag."""
        if self._sanitize_monotone_armed:
            has_edge = self._has_live_link
        else:
            has_edge = lambda u, v: True  # noqa: E731 - stale links allowed warm
        for destination in sorted(node.routes):
            entry = node.routes[destination]
            sanitize.check_path(
                entry.path,
                has_edge=has_edge,
                source=receiver,
                destination=destination,
            )
        if self._sanitize_monotone_armed:
            current = sanitize.snapshot_routes(node.routes)
            previous = self._sanitize_baseline.get(receiver)
            if previous is not None:
                sanitize.check_routes_monotone(receiver, previous, current)
            self._sanitize_baseline[receiver] = current

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
