"""BGP-based price computation under per-neighbor costs.

The Section 6 machinery adapts as follows.  Working on the edge metric
``w(u -> v) = c_u(v)`` (see :mod:`repro.extensions.edgecost.routing`),
each node maintains per destination:

* its **tree route** -- the ``C``-shortest path, which is what it
  advertises and how it forwards transit traffic.  Selection is the
  ordinary path-vector rule with extension cost ``c_self(neighbor)``
  (the extender pays its own first edge, so ``C`` includes it).
* an **avoiding-cost row** ``A^k = C_{-k}(self)`` for each transit node
  ``k`` on its tree path, riding in the advertisement's price slot.
  ``A`` obeys the one-line Bellman relation
  ``C_{-k}(i) = min over neighbors v != k of c_i(v) + C_{-k}(v)``,
  where the neighbor's term is its advertised ``A^k`` when ``k`` is on
  its path and its advertised ``C`` otherwise (its tree path already
  avoids ``k``).  Every candidate is backed by a real k-avoiding walk
  in the advert snapshot, so the recomputation is stale-safe -- this
  replaces the four-case analysis, which collapses to this relation on
  the ``C`` metric.
* its **source route and prices** -- the minimizing neighbor's tree
  path (``S = C(a*)``), and per transit node ``k``:
  ``p^k_ij = c_k(next_k) + S_{-k} - S`` with
  ``S_{-k} = min over neighbors a != k`` of the same neighbor terms.
  These are local outputs; they ride in no message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Mapping, Optional, Set, Tuple

from repro.bgp.engine import SynchronousEngine
from repro.bgp.messages import RouteAdvertisement
from repro.bgp.node import BGPNode
from repro.bgp.policy import LowestCostPolicy, SelectionPolicy
from repro.bgp.table import RouteEntry
from repro.extensions.edgecost.mechanism import (
    EdgeCostPriceTable,
    compute_edgecost_price_table,
)
from repro.extensions.edgecost.model import EdgeCostGraph
from repro.types import Cost, NodeId, PathTuple

INF = float("inf")


class EdgeCostPriceNode(BGPNode):
    """A node computing routes and VCG prices under per-neighbor costs."""

    RESTART_ON_EVENT = True

    def __init__(
        self,
        node_id: NodeId,
        forwarding_costs: Dict[NodeId, Cost],
        policy: Optional[SelectionPolicy] = None,
    ) -> None:
        super().__init__(node_id, 0.0, policy)
        self.forwarding_costs = dict(forwarding_costs)
        # destination -> {k -> C_{-k}(self)} for k transit on the tree path
        self.avoiding_rows: Dict[NodeId, Dict[NodeId, Cost]] = {}
        # destination -> selected source route (path, S, per-node costs)
        self.source_routes: Dict[NodeId, RouteEntry] = {}
        # destination -> {k -> p^k_{self,destination}}
        self.source_prices: Dict[NodeId, Dict[NodeId, Cost]] = {}

    # ------------------------------------------------------------------
    # Tree-route selection: C includes our own first-edge cost.
    # ------------------------------------------------------------------
    def _candidate(
        self, neighbor: NodeId, advert: RouteAdvertisement
    ) -> Tuple[Tuple, Cost, Cost]:
        edge_cost = self.forwarding_costs[neighbor]
        cost = advert.cost + edge_cost
        return self.policy.key(cost, (self.node_id,) + advert.path), cost, edge_cost

    # ------------------------------------------------------------------
    # Derived state: avoiding rows, source routes, prices.
    # ------------------------------------------------------------------
    def _neighbor_avoiding_term(self, advert, k: NodeId) -> Cost:
        """The neighbor's k-avoiding C value from its advert snapshot."""
        if k in advert.path:
            value = advert.prices.get(k, INF)
            return value if value is not None else INF
        return advert.cost  # its tree path avoids k already

    def _after_decide(
        self,
        changed_destinations: Set[NodeId],
        examined: Optional[Mapping[NodeId, Optional[AbstractSet[NodeId]]]] = None,
    ) -> Set[NodeId]:
        # Every derived quantity below is a per-destination function of
        # that destination's stored advertisements (plus the selected
        # route), so a dirty decision restricts the sweep to the
        # examined destinations.  Returns the destinations whose
        # *advertised* avoiding row changed.
        rows_changed: Set[NodeId] = set()
        if examined is None:
            scope_set = None
            # --- avoiding-cost rows for the advertised tree routes ----
            for destination in list(self.avoiding_rows):
                if destination not in self.routes:
                    del self.avoiding_rows[destination]
                    rows_changed.add(destination)
            scope = sorted(self.routes)
        else:
            scope_set = set(examined)  # every changed destination was examined
            for destination in sorted(scope_set):
                if destination not in self.routes and destination in self.avoiding_rows:
                    del self.avoiding_rows[destination]
                    rows_changed.add(destination)
            scope = sorted(d for d in scope_set if d in self.routes)
        for destination in scope:
            entry = self.routes[destination]
            row: Dict[NodeId, Cost] = {}
            for k in entry.transit:
                best = INF
                for neighbor in self.rib_in.neighbors():
                    if neighbor == k:
                        continue
                    advert = self.rib_in.advert(neighbor, destination)
                    if advert is None:
                        continue
                    term = self._neighbor_avoiding_term(advert, k)
                    candidate = self.forwarding_costs[neighbor] + term
                    if candidate < best:
                        best = candidate
                row[k] = best
            if row != self.avoiding_rows.get(destination):
                rows_changed.add(destination)
            self.avoiding_rows[destination] = row

        # --- source routes and prices (local outputs; no message) ------
        if scope_set is None:
            self.source_routes.clear()
            self.source_prices.clear()
            destinations = set(self.rib_in.destinations())
            destinations.discard(self.node_id)
            source_scope = sorted(destinations)
        else:
            source_scope = sorted(d for d in scope_set if d != self.node_id)
        for destination in source_scope:
            chosen = None
            chosen_key = None
            for neighbor, advert in sorted(
                self.rib_in.adverts_for(destination).items()
            ):
                if self.node_id in advert.path:
                    continue
                key = self.policy.key(advert.cost, (self.node_id,) + advert.path)
                if chosen_key is None or key < chosen_key:
                    chosen_key = key
                    chosen = advert
            if chosen is None:
                # No loop-free candidate (or the destination vanished
                # from every neighbor table): no source route.
                self.source_routes.pop(destination, None)
                self.source_prices.pop(destination, None)
                continue
            path = (self.node_id,) + chosen.path
            transit_cost = chosen.cost
            node_costs = dict(chosen.node_costs)
            self.source_routes[destination] = RouteEntry(
                path=path, cost=transit_cost, node_costs=node_costs
            )
            prices: Dict[NodeId, Cost] = {}
            for k in path[1:-1]:
                best = INF
                for neighbor in self.rib_in.neighbors():
                    if neighbor == k:
                        continue
                    advert = self.rib_in.advert(neighbor, destination)
                    if advert is None:
                        continue
                    candidate = self._neighbor_avoiding_term(advert, k)
                    if candidate < best:
                        best = candidate
                c_k = node_costs.get(k, INF)
                prices[k] = c_k + best - transit_cost if best != INF else INF
            self.source_prices[destination] = prices
        return rows_changed

    # ------------------------------------------------------------------
    # Advertisement contents: the avoiding rows ride the price slot.
    # ------------------------------------------------------------------
    def _prices_for(self, destination: NodeId) -> Mapping[NodeId, Cost]:
        return dict(self.avoiding_rows.get(destination, {}))

    # ------------------------------------------------------------------
    def price(self, k: NodeId, destination: NodeId) -> Cost:
        return self.source_prices.get(destination, {}).get(k, 0.0)

    def restart(self) -> None:
        super().restart()
        self.avoiding_rows = {}
        self.source_routes = {}
        self.source_prices = {}


@dataclass
class EdgeCostResult:
    """Outcome of a distributed run on a per-neighbor-cost instance."""

    graph: EdgeCostGraph
    engine: SynchronousEngine
    stages: int

    def node(self, node_id: NodeId) -> EdgeCostPriceNode:
        return self.engine.nodes[node_id]

    def price(self, k: NodeId, source: NodeId, destination: NodeId) -> Cost:
        return self.node(source).price(k, destination)

    def path(self, source: NodeId, destination: NodeId) -> Optional[PathTuple]:
        entry = self.node(source).source_routes.get(destination)
        return None if entry is None else entry.path

    def cost(self, source: NodeId, destination: NodeId) -> Optional[Cost]:
        entry = self.node(source).source_routes.get(destination)
        return None if entry is None else entry.cost


def run_edgecost_mechanism(
    graph: EdgeCostGraph,
    max_stages: Optional[int] = None,
) -> EdgeCostResult:
    """Run the BGP-based mechanism on a per-neighbor-cost instance."""

    def factory(node_id: NodeId, _cost: Cost, policy: SelectionPolicy):
        return EdgeCostPriceNode(node_id, graph.forwarding_costs(node_id), policy)

    engine = SynchronousEngine(
        graph.topology, policy=LowestCostPolicy(), node_factory=factory
    )
    engine.initialize()
    report = engine.run(max_stages=max_stages)
    return EdgeCostResult(graph=graph, engine=engine, stages=report.stages)


@dataclass
class EdgeCostVerification:
    pairs_checked: int = 0
    prices_checked: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_edgecost_result(
    result: EdgeCostResult,
    table: Optional[EdgeCostPriceTable] = None,
) -> EdgeCostVerification:
    """Compare a distributed run against the centralized extension."""
    table = table or compute_edgecost_price_table(result.graph)
    verification = EdgeCostVerification()
    for destination in result.graph.nodes:
        for source in result.graph.nodes:
            if source == destination:
                continue
            verification.pairs_checked += 1
            expected_path = table.path(source, destination)
            actual_path = result.path(source, destination)
            if actual_path != expected_path:
                verification.mismatches.append(
                    f"path ({source}->{destination}): {actual_path} != {expected_path}"
                )
                continue
            expected_row = table.row(source, destination)
            actual_row = result.node(source).source_prices.get(destination, {})
            for k in set(expected_row) | set(actual_row):
                verification.prices_checked += 1
                expected = expected_row.get(k)
                actual = actual_row.get(k)
                if (
                    expected is None
                    or actual is None
                    or math.isinf(actual)
                    or not math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9)
                ):
                    verification.mismatches.append(
                        f"price k={k} ({source}->{destination}): {actual} != {expected}"
                    )
    return verification
