"""Discrete-event timed BGP substrate: link delays, jitter, and MRAI.

The paper's Sect. 5 model abstracts time away into stage counts.
:class:`TimedEngine` is the one event-driven engine: a priority queue of
timestamped events drives

* UPDATE deliveries with a pluggable seeded per-link delay distribution
  (:mod:`repro.bgp.delays`: constant / uniform-jitter / lognormal),
* MRAI (Minimum Route Advertisement Interval) hold-down timers in both
  peer-based and prefix(destination)-based modes, with optional jitter,
* timed network events (:class:`~repro.bgp.events.NetworkEvent`
  scheduled at a virtual timestamp, including LINK_DOWN / LINK_UP while
  UPDATEs are still in flight).

Its default configuration -- ``UniformDelay(0.1, 1.0)`` jitter, MRAI
off, no scheduled events -- is the asynchronous relaxation of the stage
model that ``run(asynchronous=True)`` selects: every table transmission
has an independent random delay and nodes process one delivery at a
time.

The transport is the delta substrate
(:class:`~repro.bgp.messages.RouteDelta` + dirty-set scheduling);
restored links get one full-table initial sync, exactly as in the staged
engine.  ``fifo_links=False`` is the reordering ablation (E15): without
the per-link FIFO clamp a delta could apply against the wrong baseline,
so every transmission carries the full published table, and MRAI (whose
coalescing assumes in-order delivery) is rejected.

Determinism contract
--------------------
A run is a pure function of ``(graph, seed, configuration)``: all
randomness flows through one seeded :class:`random.Random` (one delay
draw per (transmission, neighbor), in ascending neighbor order), heap
ties break on a monotone sequence number, and every iteration over node
or neighbor sets is sorted.  ``tests/test_timed_protocol.py`` pins the
delivery schedule, converged model and transport counters of the
default configuration, FIFO and reordered, as sha256 digests.

Losses and sessions
-------------------
BGP sessions die with their link: an UPDATE in flight across a link
that fails is never delivered.  Each direction of a link runs a
:class:`_Session`, and every UPDATE travels on the session that was up
when it was sent.  A link failure tears down its two sessions, a Sect. 6
full restart tears down all of them -- the session-reset semantics of
"convergence begins again" -- and UPDATEs whose session is down when
they arrive are dropped (counted in ``messages_lost`` / ``rows_lost``).
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

import repro.obs as obs_mod
from repro.bgp.delays import DelayModel, UniformDelay, resolve_delay
from repro.bgp.events import NetworkEvent
from repro.bgp.messages import RouteAdvertisement, RouteDelta
from repro.bgp.metrics import TimedReport
from repro.bgp.node import NodeFactory, ProtocolEngine, _default_factory
from repro.bgp.policy import SelectionPolicy
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


class _Session:
    """One direction of a link's BGP session.

    ``clock`` is the FIFO clamp, the arrival time of the latest UPDATE
    sent on the link; a replacement session inherits it.  ``up`` turns
    False when the session is torn down, which loses every UPDATE still
    in flight on it.
    """

    __slots__ = ("clock", "up")

    def __init__(self, clock: float = 0.0) -> None:
        self.clock = clock
        self.up = True


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


class TimedEngine(ProtocolEngine):
    """Discrete-event relaxation of the stage model with real timers.

    The event loop pops ``(when, seq, kind, ...)`` entries off a heap;
    ``when`` is virtual time (monotone: delays and intervals are
    nonnegative, and scheduling into the past is rejected), ``seq`` a
    global monotone counter that makes tie-breaking deterministic (so
    no comparison ever reaches the rest of the entry).  Network and MRAI
    entries carry one payload object; an UPDATE entry is
    ``(when, seq, kind, link, session, body, rows)``, one tuple per
    transmission.
    """

    #: Opt-in delivery schedule recorder: set to a list and every
    #: delivery appends ``(when, sender, receiver, rows)`` (the golden
    #: tests pin its digest).
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
        super().__init__(graph, policy, node_factory, restart_on_events, obs)
        #: Default: the asynchronous [0.1, 1.0] jitter.  Spec strings /
        #: keyword dicts coerce here, so every caller -- api.run, the
        #: CLI, the benchmarks -- shares one parsing path.
        resolved_delay = resolve_delay(delay)
        self.delay = resolved_delay if resolved_delay is not None else UniformDelay()
        self.mrai = resolve_mrai(mrai)
        # Per-link FIFO (TCP sessions): a transmission never arrives
        # before an earlier one on the same directed link.  Ablation
        # knob (E15): without it a newer table can be overtaken by an
        # older one, so every transmission carries the full table, and
        # MRAI, whose coalescing is only sound in order, is rejected.
        self.fifo_links = fifo_links
        if not fifo_links and self.mrai is not None:
            raise ProtocolError(
                "MRAI coalescing requires per-link FIFO delivery; "
                "fifo_links=False takes no mrai="
            )
        self._rng = random.Random(seed)
        self._clock = 0.0
        self._sequence = itertools.count()
        self._queue: List[Tuple[Any, ...]] = []
        # One session per directed link (see _Session).
        self._sessions: Dict[Tuple[NodeId, NodeId], _Session] = {
            (u, v): _Session() for u in self.adjacency for v in self.adjacency[u]
        }
        # Restored links awaiting their initial full-table sync.
        self._unsynced: Set[Tuple[NodeId, NodeId]] = set()
        # MRAI state: earliest next-send time per timer scope, pending
        # (coalesced) rows per directed link, and the armed-expiry
        # tokens that invalidate in-flight timer events on teardown.
        self._mrai_ready: Dict[_MraiKey, float] = {}
        self._mrai_pending: Dict[Tuple[NodeId, NodeId], Dict[NodeId, Optional[RouteAdvertisement]]] = {}
        self._mrai_armed: Dict[_MraiKey, int] = {}
        self._mrai_token = 0
        # Accounting (cumulative across run() calls): see TimedReport
        # for the reconciliation invariants.
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

    def _transmit(self, link: Tuple[NodeId, NodeId], body: _Body, rows: int) -> None:
        """Put one transmission of *rows* rows on the directed *link*:
        sample the link delay, apply the per-link FIFO clamp, and send it
        on the link's current session.  The row count rides in the queue
        entry, so it is computed once per broadcast, not once per hop."""
        session = self._sessions[link]
        when = self._clock + self.delay.sample(self._rng)
        if self.fifo_links:
            if session.clock > when:
                when = session.clock
            session.clock = when
        self.rows_sent += rows
        heapq.heappush(
            self._queue,
            (when, next(self._sequence), EVENT_UPDATE, link, session, body, rows),
        )

    def _broadcast_delta(self, sender: NodeId, delta: RouteDelta) -> None:
        """Offer a publication delta to every live neighbor.

        Without FIFO links every neighbor gets the full published
        table; with them, restored links get it once (bypassing MRAI:
        the initial sync *is* the session establishment) and all other
        links get the delta, through the MRAI layer when one is
        configured.  Each delta offer adds its rows to ``rows_offered``
        and the published rows it avoided resending to
        ``rows_suppressed``; full tables suppress nothing.
        """
        node = self.nodes[sender]
        rows = delta.size_rows()
        full_tables = not self.fifo_links
        unsynced = self._unsynced
        mrai = self.mrai
        table: Optional[Tuple[RouteAdvertisement, ...]] = None
        offers = 0
        for neighbor in sorted(self.adjacency[sender]):
            link = (sender, neighbor)
            if full_tables or link in unsynced:
                unsynced.discard(link)
                if table is None:
                    table = node.published_table()
                self.rows_offered += len(table)
                self._transmit(link, table, len(table))
            elif mrai is None:
                offers += 1
                self._transmit(link, delta, rows)
            else:
                offers += 1
                self._offer_mrai(sender, neighbor, delta)
        self.rows_offered += rows * offers
        self.rows_suppressed += (node.published_rows - len(delta.updates)) * offers

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
            self._transmit(link, out, out.size_rows())
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
        self._transmit(link, out, out.size_rows())
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
        # One iteration per event: loop invariants and the per-delivery
        # counters live in locals (written back on every exit).
        queue = self._queue
        heappop = heapq.heappop
        nodes = self.nodes
        event_log = self.event_log
        delivery_log = self.delivery_log
        sanitizing = sanitize.enabled()
        processed = self._events_processed
        deliveries = self.deliveries
        rows_delivered = self.rows_delivered
        last_delivery = self.convergence_time
        try:
            while queue:
                if processed >= limit:
                    raise ConvergenceError(stages=processed, limit=limit)
                processed += 1
                entry = heappop(queue)
                # Heap order + nonnegative delays/intervals keep this
                # monotone; schedule_event rejects past timestamps.
                self._clock = entry[0]
                if entry[2] != EVENT_UPDATE:
                    self._fire(entry)
                    continue
                when, _seq, kind, link, session, body, rows = entry
                sender, receiver = link
                if event_log is not None:
                    event_log.append((when, kind, (sender, receiver, rows)))
                if not session.up:
                    # Sent on a session torn down since: lost.
                    self.messages_lost += 1
                    self.rows_lost += rows
                    continue
                deliveries += 1
                rows_delivered += rows
                last_delivery = when
                if delivery_log is not None:
                    delivery_log.append((when, sender, receiver, rows))
                node = nodes[receiver]
                if isinstance(body, RouteDelta):
                    dirty = node.receive_delta(sender, body)
                else:
                    dirty = node.receive_table(sender, body)
                if sanitizing:
                    # Every delivery re-decides so the invariant checks
                    # see the complete decision process: change-driven
                    # and then checked against a full decision, or fully
                    # when nothing is dirty.
                    node.decide(dirty or None)
                    self._sanitize_node(receiver, node, monotone=self.fifo_links)
                elif dirty:
                    node.decide(dirty)
                else:
                    continue  # inputs unchanged: no recompute, no rebroadcast
                delta = node.publication_delta()
                if not delta.is_empty:
                    self._broadcast_delta(
                        receiver, RouteDelta(receiver, delta.updates, delta.withdrawals)
                    )
        finally:
            self._events_processed = processed
            self.deliveries = deliveries
            self.rows_delivered = rows_delivered
            self.convergence_time = last_delivery
        return self._report()

    def _fire(self, entry: Tuple[Any, ...]) -> None:
        """Handle a network-event or MRAI-expiry queue entry."""
        when, _seq, kind, payload = entry
        if kind == EVENT_NETWORK:
            if self.event_log is not None:
                self.event_log.append((when, kind, payload.describe()))
            self.network_events += 1
            payload.apply(self)
        else:
            if self.event_log is not None:
                self.event_log.append((when, kind, payload[1]))
            self._expire_mrai(payload)

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

        In-flight UPDATEs on the link are lost (its sessions are torn
        down), pending MRAI rows die with the session, and both
        endpoints drop what they learned over it and republish.
        """
        if v not in self.adjacency.get(u, ()):  # pragma: no cover - guard
            raise ProtocolError(f"no live link between {u} and {v}")
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        self._reset_sessions(((u, v), (v, u)))
        for link in ((u, v), (v, u)):
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
        for link in ((u, v), (v, u)):
            self._sessions.setdefault(link, _Session())
        self._unsynced.update(((u, v), (v, u)))
        self._restart_derived_state()
        for sender, receiver in ((u, v), (v, u)):
            if (sender, receiver) in self._unsynced:
                self._unsynced.discard((sender, receiver))
                table = self.nodes[sender].published_table()
                self.rows_offered += len(table)
                self._transmit((sender, receiver), table, len(table))

    def _reset_sessions(self, links: Iterable[Tuple[NodeId, NodeId]]) -> None:
        """Tear down the sessions of *links*, losing their in-flight
        UPDATEs; each replacement keeps the FIFO clock."""
        for link in links:
            old = self._sessions[link]
            old.up = False
            self._sessions[link] = _Session(old.clock)

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

    def full_restart(self) -> None:
        """Session-reset everything: drop all in-flight traffic and all
        MRAI state, forget learned routes, and republish from scratch at
        the current virtual time."""
        self._sanitize_baseline.clear()
        self._sanitize_monotone_armed = True
        self._reset_sessions(list(self._sessions))
        self._discard_all_mrai()
        for node_id, node in self.nodes.items():
            node.restart()
            delta = node.publication_delta()
            if not delta.is_empty:
                self._broadcast_delta(
                    node_id, RouteDelta(node_id, delta.updates, delta.withdrawals)
                )
