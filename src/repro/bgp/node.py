"""A plain path-vector (BGP) node.

A node's behavior per stage is exactly the paper's: read the tables
received from neighbors, recompute the selected route per destination
from the stored Adj-RIB-In, and (the engine's job) send the own table if
it changed.  Route selection is a pure function of the Adj-RIB-In:

* candidates for destination ``j`` are the neighbor advertisements for
  ``j`` whose path does not already contain this node (path-vector loop
  suppression), each extended by one hop;
* extension accumulates cost destination-first: ``cost' = cost + c_a``
  where ``a`` is the advertising neighbor (zero when ``a`` *is* the
  destination), matching the centralized Dijkstra bit for bit;
* the policy's total order picks the winner.

Subclasses change how a candidate is extended or ranked through the
per-neighbor hook :meth:`_candidate` (policy routing, per-neighbor
costs), and hook :meth:`_after_decide` to derive additional
per-destination state from the same messages (the FPSS price rows).

Incremental machinery (the delta substrate): :meth:`decide` accepts a
*dirty* destination set and then re-selects only those destinations,
each against only the neighbors whose advertisement changed since it
was last decided (the Adj-RIB-In's change record);
outgoing rows are cached and hash-consed, so rebuilding the table after
a decision touches only the rows whose inputs changed; and
:meth:`publication_delta` hands the owning engine exactly the rows that
changed since the last transmission (plus withdrawals), which is what a
:class:`~repro.bgp.messages.RouteDelta` carries on the wire.

:class:`ProtocolEngine` is what the two protocol engines
(:class:`~repro.bgp.engine.SynchronousEngine` and
:class:`~repro.bgp.timed.TimedEngine`) share: the nodes built by a
:data:`NodeFactory`, the live adjacency, the link, cost and restart
events with the Sect. 6 restart rule, the per-node sanitizer checks and
the :class:`StateReport`.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import repro.obs as obs_mod
from repro.bgp.messages import (
    RouteAdvertisement,
    RouteDelta,
    intern_advertisement,
    row_materially_different,
)
from repro.bgp.metrics import StateReport
from repro.bgp.policy import LowestCostPolicy, SelectionPolicy
from repro.bgp.table import AdjRIBIn, RouteEntry
from repro.devtools import sanitize
from repro.exceptions import ProtocolError
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.types import Cost, NodeId, validate_cost


class PublicationDelta(NamedTuple):
    """What changed in a node's published table since the last take.

    ``material`` is True when some change exceeds floating-point noise
    (see :func:`repro.bgp.messages.row_materially_different`) -- the
    predicate that drives the engines' stage counting."""

    updates: Tuple[RouteAdvertisement, ...]
    withdrawals: Tuple[NodeId, ...]
    material: bool

    @property
    def is_empty(self) -> bool:
        return not self.updates and not self.withdrawals


class BGPNode:
    """One AS running the path-vector protocol."""

    #: Whether a network event requires this node type's network to do a
    #: full protocol restart (Sect. 6's "convergence begins again").
    #: Plain BGP reconverges warm; price-computing nodes override this.
    RESTART_ON_EVENT = False

    #: Explicit observer, set by the owning engine when it was itself
    #: constructed with one; None defers to the global toggle.
    obs: Optional[obs_mod.Obs] = None

    def __init__(
        self,
        node_id: NodeId,
        declared_cost: Cost,
        policy: Optional[SelectionPolicy] = None,
    ) -> None:
        self.node_id = node_id
        self.declared_cost = validate_cost(declared_cost, what=f"cost of node {node_id}")
        self.policy = policy or LowestCostPolicy()
        self.rib_in = AdjRIBIn()
        self.routes: Dict[NodeId, RouteEntry] = {}
        # Price-computation epoch; bumped by on_network_event() so that
        # restarted price state never mixes with pre-event information.
        self.generation = 0
        # --- outgoing-table cache (delta substrate) -------------------
        # Interned row per destination; the self-route is keyed by our
        # own id.  ``_stale_rows`` marks rows whose inputs changed since
        # the cache was last refreshed; ``_pub_baseline`` is the table
        # as of the last publication_delta() take (what receivers hold),
        # and ``_pub_touched`` the destinations that may differ from it.
        self._advert_cache: Dict[NodeId, RouteAdvertisement] = {}
        self._stale_rows: Set[NodeId] = {node_id}
        self._pub_baseline: Dict[NodeId, RouteAdvertisement] = {}
        self._pub_touched: Set[NodeId] = set()
        self._pub_entries = 0

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def receive_table(
        self,
        neighbor: NodeId,
        adverts: Iterable[RouteAdvertisement],
    ) -> Set[NodeId]:
        """Store a full-table exchange from *neighbor*.

        Returns the destinations whose stored advertisement actually
        changed -- the receiver's *dirty set*, which is what an
        incremental engine re-decides.
        """
        observer = obs_mod.active(self.obs)
        if observer is not None:
            observer.count(metric_names.MESSAGES_RECEIVED, node=self.node_id)
        table: Dict[NodeId, RouteAdvertisement] = {}
        for advert in adverts:
            if advert.sender != neighbor:
                raise ProtocolError(
                    f"node {self.node_id} got advert from {advert.sender} "
                    f"on the session with {neighbor}"
                )
            table[advert.destination] = advert
        return self.rib_in.replace_neighbor_table(neighbor, table)

    def receive_delta(self, neighbor: NodeId, delta: RouteDelta) -> Set[NodeId]:
        """Apply a differential exchange from *neighbor*.

        Equivalent to :meth:`receive_table` with the full table the
        delta reconstructs; returns the same dirty-destination set.
        """
        observer = obs_mod.active(self.obs)
        if observer is not None:
            observer.count(metric_names.MESSAGES_RECEIVED, node=self.node_id)
        if delta.sender != neighbor:
            raise ProtocolError(
                f"node {self.node_id} got a delta from {delta.sender} "
                f"on the session with {neighbor}"
            )
        dirty: Set[NodeId] = set()
        for advert in delta.updates:
            if self.rib_in.apply_update(neighbor, advert):
                dirty.add(advert.destination)
        for destination in delta.withdrawals:
            if self.rib_in.withdraw(neighbor, destination):
                dirty.add(destination)
        return dirty

    def drop_neighbor(self, neighbor: NodeId) -> Set[NodeId]:
        """Forget a failed adjacency; returns the destinations whose
        stored advertisement vanished (the dirty set)."""
        return self.rib_in.drop_neighbor(neighbor)

    def set_declared_cost(self, cost: Cost) -> Set[NodeId]:
        """Change this node's declared cost (dynamics / strategic play).

        Takes effect at the next decision of each destination: every
        route's cost snapshot names this node's cost, so every routed
        destination is returned as dirty and re-examines every neighbor
        when next decided.
        """
        self.declared_cost = validate_cost(cost, what=f"cost of node {self.node_id}")
        self._stale_rows.add(self.node_id)
        self.rib_in.mark_all_changed(self.routes)
        return set(self.routes)

    # ------------------------------------------------------------------
    # Decision process
    # ------------------------------------------------------------------
    def decide(self, dirty: Optional[Set[NodeId]] = None) -> Set[NodeId]:
        """Recompute selected routes from the Adj-RIB-In.

        With *dirty* = None (the full decision of the Sect. 5 model),
        every destination is re-selected from every neighbor.  With a
        dirty set -- the destinations whose inbound advertisements
        changed, as returned by :meth:`receive_table` /
        :meth:`receive_delta` -- only those are re-selected, and each
        only re-examines the neighbors the Adj-RIB-In's change record
        names (see :meth:`_select_route`).  Selection is a pure
        per-destination function of the Adj-RIB-In, so both calls leave
        identical state; the dirty form just skips the destinations and
        advertisements that are untouched.  Under the runtime sanitizer
        a dirty decision is followed by a full one that must move
        nothing (``[sanitize:decide]``).

        Returns the destinations whose selected route changed (used by
        subclasses and by tests; the engine detects change at the
        advertisement level).
        """
        rib = self.rib_in
        # destination -> the neighbors to re-examine (None: every one)
        examined: Dict[NodeId, Optional[AbstractSet[NodeId]]]
        if dirty is None:
            destinations = set(rib.destinations())
            destinations.discard(self.node_id)
            examined = dict.fromkeys(sorted(destinations))
            rib.clear_changes()
        else:
            examined = {}
            for destination in sorted(dirty):
                neighbors = rib.take_changes(destination)
                if destination != self.node_id:
                    examined[destination] = neighbors
        changed: Set[NodeId] = set()
        for destination, neighbors in examined.items():
            previous = self.routes.get(destination)
            entry = self._select_route(destination, previous, neighbors)
            if entry is previous:
                continue
            if entry is None:
                del self.routes[destination]
                changed.add(destination)
            # Exact cost comparison is deliberate: accumulation is
            # bit-identical, so any difference is a real route change.
            elif previous is None or previous.path != entry.path or previous.cost != entry.cost:  # repro-lint: ok(RPR001)
                self.routes[destination] = entry
                changed.add(destination)
            elif dict(previous.node_costs) != dict(entry.node_costs):
                # Refresh the cost snapshot even when the route is
                # unchanged (a node on the path may have re-declared).
                self.routes[destination] = entry
                changed.add(destination)
        if dirty is None:
            # Routes to destinations that vanished from every neighbor
            # table.  (In the dirty form such destinations are in the
            # dirty set -- a withdrawal dirtied them -- and the main
            # loop's ``entry is None`` branch already dropped them.)
            for destination in list(self.routes):
                if destination not in examined:
                    del self.routes[destination]
                    changed.add(destination)
        derived = self._after_decide(changed, None if dirty is None else examined)
        if derived is None:
            # The subclass does not track which advertised derived rows
            # changed; conservatively treat every recomputed destination
            # as touched (publication_delta suppresses the no-ops).
            derived = set(examined)
        self._stale_rows.update(changed)
        self._stale_rows.update(derived)
        if dirty is not None and sanitize.enabled():
            sanitize.check_decision(self)
        return changed

    def _select_route(
        self,
        destination: NodeId,
        previous: Optional[RouteEntry],
        neighbors: Optional[AbstractSet[NodeId]],
    ) -> Optional[RouteEntry]:
        """The best route to *destination*; *previous* when it stands.

        *neighbors* are the neighbors whose advertisement changed since
        *previous* was selected (None: every neighbor).  An unchanged
        advertisement ranks exactly as it did then -- below *previous*,
        since candidates from different neighbors never tie (each key
        ends in a path starting ``(self, neighbor, ...)``) -- so only the
        changed ones can beat it.  Every neighbor is scanned when there
        is no previous route or its own neighbor is among the changed.
        """
        rib = self.rib_in
        best_key: Optional[Tuple] = None
        winner: Optional[Tuple[RouteAdvertisement, Cost, Cost]] = None
        fallback: Optional[RouteEntry] = None
        scan: Optional[Sequence[Tuple[NodeId, Optional[RouteAdvertisement]]]] = None
        if neighbors is not None and previous is not None:
            parent = previous.path[1]
            incumbent = None if parent in neighbors else rib.advert(parent, destination)
            if incumbent is not None:
                fallback = previous
                best_key = self._candidate(parent, incumbent)[0]
                scan = [(n, rib.advert(n, destination)) for n in sorted(neighbors)]
        if scan is None:
            scan = sorted(rib.adverts_for(destination).items())
        for neighbor, advert in scan:
            if advert is None or self.node_id in advert.path:
                continue  # withdrawn, or loop suppression
            key, cost, own_cost = self._candidate(neighbor, advert)
            if best_key is None or key < best_key:
                best_key = key
                winner = (advert, cost, own_cost)
        if winner is None:
            return fallback
        return self._entry(*winner)

    def _candidate(
        self, neighbor: NodeId, advert: RouteAdvertisement
    ) -> Tuple[Tuple, Cost, Cost]:
        """Rank the route through *neighbor*'s loop-free *advert*.

        Returns its selection key, its transit cost, and this node's own
        cost as the route's cost snapshot records it.  The one hook
        subclasses override to change how a route is extended or ranked.
        """
        extension_cost = 0.0 if advert.sender == advert.destination else advert.sender_cost
        cost = advert.cost + extension_cost
        key = self.policy.key(cost, (self.node_id,) + advert.path)
        return key, cost, self.declared_cost

    def _entry(
        self, advert: RouteAdvertisement, cost: Cost, own_cost: Cost
    ) -> RouteEntry:
        node_costs = dict(advert.node_costs)
        node_costs[self.node_id] = own_cost
        return RouteEntry(path=(self.node_id,) + advert.path, cost=cost, node_costs=node_costs)

    def _route_via(self, destination: NodeId, neighbor: NodeId) -> Optional[RouteEntry]:
        """The route *neighbor*'s stored advertisement offers, if any."""
        advert = self.rib_in.advert(neighbor, destination)
        if advert is None or self.node_id in advert.path:
            return None
        _, cost, own_cost = self._candidate(neighbor, advert)
        return self._entry(advert, cost, own_cost)

    def _missed_neighbor(
        self,
        destination: NodeId,
        route: Optional[RouteEntry],
        row: Mapping[NodeId, Cost],
    ) -> Optional[NodeId]:
        """The neighbor whose stored advertisement for *destination*
        contradicts *route* and *row* (what a decision left there);
        the sanitizer names it when a full decision moves them.

        *route* stands unless its own neighbor no longer offers it;
        otherwise the neighbor of the route a full decision selects
        offers a better one.  Subclasses check *row*, the advertised
        derived row.
        """
        if route is not None:
            offered = self._route_via(destination, route.path[1])
            if offered != route:
                return route.path[1]
        current = self.routes.get(destination)
        if current is not None and current != route:
            return current.path[1]
        return None

    def _after_decide(
        self,
        changed_destinations: Set[NodeId],
        examined: Optional[Mapping[NodeId, Optional[AbstractSet[NodeId]]]] = None,
    ) -> Optional[Set[NodeId]]:
        """Hook for subclasses (price computation).

        *examined* maps each destination :meth:`decide` re-selected to
        the neighbors whose advertisement changed since its previous
        decision (None: every neighbor); *examined* itself is None for a
        full decision.  Since every advertised derived row (the price
        slot) is a function of that destination's inbound advertisements
        and selected route alone, a subclass may restrict its
        recomputation to those destinations, and an accumulating one to
        the changed neighbors.

        Returns the destinations whose *advertised* derived state
        changed, or None when the subclass does not track this (the
        caller then conservatively assumes every recomputed destination
        changed).  The base node advertises no derived state.
        """
        return set()

    def restart(self) -> None:
        """Forget all learned protocol state (full restart).

        The paper's Sect. 6 requires convergence to "start over
        whenever there is a route change"; a restart advances the
        generation tag so any straggling pre-event advertisement is
        recognizably stale, and clears the RIBs.  Subclasses clear
        their derived (price) state on top.
        """
        self.generation += 1
        self.rib_in = AdjRIBIn()
        self.routes = {}
        # Every cached row is now stale: learned routes become
        # withdrawals, and the self-route changes epoch.
        self._stale_rows.update(self._advert_cache)
        self._stale_rows.add(self.node_id)

    # ------------------------------------------------------------------
    # Advertisement production
    # ------------------------------------------------------------------
    def _refresh_rows(self) -> None:
        """Bring the outgoing-row cache up to date (O(stale rows)).

        Rebuilt rows are interned, so a row whose content did not change
        keeps its previous identity and publication_delta's comparisons
        stay pointer checks.
        """
        if not self._stale_rows:
            return
        for destination in self._stale_rows:
            if destination == self.node_id:
                new: Optional[RouteAdvertisement] = intern_advertisement(
                    self.self_advertisement()
                )
            elif destination in self.routes:
                new = intern_advertisement(self._advert_for(destination))
            else:
                new = None
            old = self._advert_cache.get(destination)
            if new is old:
                continue
            if new is None:
                if old is None:
                    continue
                del self._advert_cache[destination]
            elif new == old:
                continue  # identical content; keep the cached identity
            else:
                self._advert_cache[destination] = new
            self._pub_touched.add(destination)
        self._stale_rows.clear()

    def advertisements(self) -> Tuple[RouteAdvertisement, ...]:
        """The node's current full table as messages, self-route first."""
        self._refresh_rows()
        adverts: List[RouteAdvertisement] = [self._advert_cache[self.node_id]]
        for destination in sorted(self.routes):
            adverts.append(self._advert_cache[destination])
        return tuple(adverts)

    def publication_delta(self) -> PublicationDelta:
        """Changes to the published table since the previous take.

        The engine calls this once per publication point; the returned
        rows are exactly what a :class:`RouteDelta` must carry so that
        receivers holding the previous publication end up with the same
        slice a full-table exchange would have left.  Cost is
        O(changed rows), not O(table).
        """
        self._refresh_rows()
        if not self._pub_touched:
            return PublicationDelta((), (), False)
        updates: List[RouteAdvertisement] = []
        withdrawals: List[NodeId] = []
        material = False
        for destination in sorted(self._pub_touched):
            current = self._advert_cache.get(destination)
            previous = self._pub_baseline.get(destination)
            if current is previous or (current is not None and current == previous):
                continue
            if current is None:
                withdrawals.append(destination)
                material = True
                del self._pub_baseline[destination]
                self._pub_entries -= previous.size_entries()
            else:
                updates.append(current)
                if previous is None or row_materially_different(previous, current):
                    material = True
                self._pub_baseline[destination] = current
                self._pub_entries += current.size_entries() - (
                    previous.size_entries() if previous is not None else 0
                )
        self._pub_touched.clear()
        return PublicationDelta(tuple(updates), tuple(withdrawals), material)

    def published_table(self) -> Tuple[RouteAdvertisement, ...]:
        """The full published table (as of the last take), self-route
        first -- what an initial full-table sync to a new neighbor must
        carry so that subsequent deltas apply against known state."""
        rows: List[RouteAdvertisement] = []
        self_row = self._pub_baseline.get(self.node_id)
        if self_row is not None:
            rows.append(self_row)
        for destination in sorted(self._pub_baseline):
            if destination != self.node_id:
                rows.append(self._pub_baseline[destination])
        return tuple(rows)

    @property
    def published_rows(self) -> int:
        """Rows in the published table (as of the last take)."""
        return len(self._pub_baseline)

    @property
    def published_entries(self) -> int:
        """Size of the published table in entries (as of the last take);
        what one full-table transmission would put on the wire."""
        return self._pub_entries

    def self_advertisement(self) -> RouteAdvertisement:
        """The advertisement for this node as a destination."""
        return RouteAdvertisement(
            sender=self.node_id,
            destination=self.node_id,
            path=(self.node_id,),
            cost=0.0,
            node_costs={self.node_id: self.declared_cost},
            prices={},
            generation=self.generation,
        )

    def _advert_for(self, destination: NodeId) -> RouteAdvertisement:
        entry = self.routes[destination]
        return RouteAdvertisement(
            sender=self.node_id,
            destination=destination,
            path=entry.path,
            cost=entry.cost,
            node_costs=dict(entry.node_costs),
            prices=self._prices_for(destination),
            generation=self.generation,
        )

    def _prices_for(self, destination: NodeId) -> Mapping[NodeId, Cost]:
        """Price array attached to outgoing adverts; plain BGP has none."""
        return {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def route(self, destination: NodeId) -> Optional[RouteEntry]:
        return self.routes.get(destination)

    def table_size_entries(self) -> int:
        """Loc-RIB size in entries (the O(nd) of Sect. 5)."""
        return sum(entry.size_entries() for entry in self.routes.values())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.node_id}, "
            f"cost={self.declared_cost}, routes={len(self.routes)})"
        )


NodeFactory = Callable[[NodeId, Cost, SelectionPolicy], BGPNode]


def _default_factory(node_id: NodeId, cost: Cost, policy: SelectionPolicy) -> BGPNode:
    return BGPNode(node_id, cost, policy)


class ProtocolEngine:
    """The node layer both protocol engines drive.

    One node per AS, built by *node_factory*; the mutable adjacency that
    link dynamics edit; the network events (:meth:`fail_link`,
    :meth:`change_cost`, :meth:`full_restart`) with Sect. 6's restart
    rule; and the sanitizer's per-node checks.  Subclasses run the
    message exchange (staged or event-driven) through three transport
    hooks -- :meth:`_publish`, :meth:`_drop_link` and
    :meth:`_reset_transport` -- and implement ``restore_link``.
    """

    def __init__(
        self,
        graph: ASGraph,
        policy: Optional[SelectionPolicy],
        node_factory: NodeFactory,
        restart_on_events: bool,
        obs: Optional[obs_mod.Obs],
    ) -> None:
        self.graph = graph
        self.policy = policy or LowestCostPolicy()
        # Ablation knob (E15): disable the Sect. 6 restart-on-change
        # semantics to demonstrate why they are necessary.
        self.restart_on_events = restart_on_events
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
        # Directed links awaiting their first full-table transmission
        # (restored links: the far end holds no delta baseline).
        self._unsynced: Set[Tuple[NodeId, NodeId]] = set()
        # Per-node route-key snapshots for the sanitizer's monotone
        # convergence check.  Monotonicity holds only from a cold start:
        # warm reconvergence after an event (e.g. a cost increase under
        # restart_on_events=False) legitimately worsens routes, so the
        # check is disarmed then and re-armed by a full restart.
        self._sanitize_baseline: Dict[NodeId, sanitize.RouteKeySnapshot] = {}
        self._sanitize_monotone_armed = True

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------
    def _publish(self, node_id: NodeId) -> None:  # pragma: no cover - abstract
        """Put the node's publication delta on the wire (or queue it)."""
        raise NotImplementedError

    def _drop_link(self, link: Tuple[NodeId, NodeId]) -> None:
        """Forget the transport state of a failed directed link."""
        self._unsynced.discard(link)

    def _reset_transport(self) -> None:
        """Forget all transport state before a full restart."""

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def fail_link(self, u: NodeId, v: NodeId) -> None:
        """Remove the link ``(u, v)``; both ends drop the adjacency and
        everything learned over it, decide and republish."""
        if v not in self.adjacency.get(u, ()):
            raise ProtocolError(f"no live link between {u} and {v}")
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        for link in ((u, v), (v, u)):
            self._drop_link(link)
        for end, other in ((u, v), (v, u)):
            node = self.nodes[end]
            node.drop_neighbor(other)
            node.decide()
            self._publish(end)
        self._restart_derived_state()

    def change_cost(self, node_id: NodeId, cost: Cost) -> None:
        """Node *node_id* re-declares its per-packet cost."""
        node = self.nodes[node_id]
        node.set_declared_cost(cost)
        node.decide()
        self._publish(node_id)
        self._restart_derived_state()

    def full_restart(self) -> None:
        """Forget everything learned and reconverge from scratch (the
        paper's convergence-begins-again model)."""
        self._sanitize_baseline.clear()
        self._sanitize_monotone_armed = True
        self._reset_transport()
        for node_id, node in self.nodes.items():
            node.restart()
            self._publish(node_id)

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

    # ------------------------------------------------------------------
    # Sanitizer hooks
    # ------------------------------------------------------------------
    def _has_live_link(self, u: NodeId, v: NodeId) -> bool:
        return v in self.adjacency.get(u, ())

    def _sanitize_node(
        self, node_id: NodeId, node: BGPNode, monotone: bool = True
    ) -> None:
        """Invariant checks on one node (only when the sanitizer is on):
        every selected path is a simple, endpoint-correct walk, and
        (with *monotone*) no selected route key worsened within the
        current epoch.  The live-link part of the path check, like
        monotonicity, is only sound in a cold epoch: during warm
        reconvergence, path-vector routing legitimately holds routes
        through a failed link until the withdrawal propagates."""
        armed = self._sanitize_monotone_armed
        if armed:
            has_edge = self._has_live_link
        else:
            has_edge = lambda u, v: True  # noqa: E731 - stale links allowed warm
        for destination in sorted(node.routes):
            sanitize.check_path(
                node.routes[destination].path,
                has_edge=has_edge,
                source=node_id,
                destination=destination,
            )
        if armed and monotone:
            current = sanitize.snapshot_routes(node.routes)
            previous = self._sanitize_baseline.get(node_id)
            if previous is not None:
                sanitize.check_routes_monotone(node_id, previous, current)
            self._sanitize_baseline[node_id] = current

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
