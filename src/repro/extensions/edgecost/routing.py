"""Lowest-cost routing under per-neighbor costs.

Per-neighbor costs break optimal substructure over *nodes*: the best
continuation from ``u`` depends on which neighbor ``u`` forwards to, so
a naive node-state Dijkstra selects non-optimal "LCPs".  The correct
formulation works on the edge metric

    ``w(u -> v) = c_u(v)``

and two per-destination quantities:

* ``C(a)`` -- the ``w``-distance from ``a`` to ``j`` *including* ``a``'s
  own first-edge cost.  ``C`` satisfies textbook suffix consistency, so
  the ``C``-shortest paths form a loop-free tree ``T_w(j)`` (this is
  what a node advertises and how it forwards transit traffic).
* ``S(i) = min over neighbors a of C(a)`` -- the paper-style *transit*
  cost of ``i``'s own traffic, since ``i`` itself forwards for free.
  ``i``'s selected route is the minimizing neighbor's tree path with
  ``i`` prepended (restricted to ``i``-free tree paths; the minimum is
  unaffected, because a tree path through ``i`` is dominated by ``i``'s
  own tree parent).

The returned structure carries both quantities plus per-path forwarding
cost snapshots, mirroring what the distributed protocol computes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import UnreachableError
from repro.extensions.edgecost.model import EdgeCostGraph
from repro.routing.tiebreak import RouteKey, route_key
from repro.types import Cost, NodeId, PathTuple


@dataclass(frozen=True)
class EdgeCostRoutes:
    """Routing state toward one destination under per-neighbor costs."""

    destination: NodeId
    #: ``C(a)``: w-distance from a to j including a's first-edge cost.
    tree_costs: Dict[NodeId, Cost] = field(repr=False)
    #: the ``C``-shortest (tree) path of each node, node first.
    tree_paths: Dict[NodeId, PathTuple] = field(repr=False)
    #: ``S(i)``: the transit cost of i's own traffic.
    source_costs: Dict[NodeId, Cost] = field(repr=False)
    #: i's selected route for its own traffic (i first).
    source_paths: Dict[NodeId, PathTuple] = field(repr=False)

    def cost(self, source: NodeId) -> Cost:
        """``S(source)``: transit cost of the selected source route."""
        if source == self.destination:
            return 0.0
        try:
            return self.source_costs[source]
        except KeyError:
            raise UnreachableError(source, self.destination) from None

    def path(self, source: NodeId) -> PathTuple:
        if source == self.destination:
            return (source,)
        try:
            return self.source_paths[source]
        except KeyError:
            raise UnreachableError(source, self.destination) from None

    def has_route(self, source: NodeId) -> bool:
        return source == self.destination or source in self.source_paths


def edgecost_routes(graph: EdgeCostGraph, destination: NodeId) -> EdgeCostRoutes:
    """Compute ``C``, ``T_w(j)`` and the source routes for one destination."""
    if destination not in graph.nodes:
        raise UnreachableError(destination, destination)

    # --- the C tree: standard edge-weighted Dijkstra from j -----------
    # Extending (u, ..., j) to (v, u, ..., j) adds w(v -> u) = c_v(u):
    # the new head pays its own first edge.
    best: Dict[NodeId, RouteKey] = {destination: route_key(0.0, (destination,))}
    finalized: Dict[NodeId, RouteKey] = {}
    heap = [(best[destination], destination)]
    while heap:
        key, node = heapq.heappop(heap)
        if node in finalized:
            continue
        if key != best.get(node):
            continue
        finalized[node] = key
        cost, _hops, path = key
        for neighbor in graph.neighbors(node):
            if neighbor in finalized or neighbor in path:
                continue
            candidate = route_key(
                cost + graph.forwarding_cost(neighbor, node),
                (neighbor,) + path,
            )
            incumbent = best.get(neighbor)
            if incumbent is None or candidate < incumbent:
                best[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))

    tree_costs: Dict[NodeId, Cost] = {}
    tree_paths: Dict[NodeId, PathTuple] = {}
    for node, (cost, _hops, path) in finalized.items():
        if node == destination:
            continue
        tree_costs[node] = cost
        tree_paths[node] = path

    # --- source routes: best neighbor by (C, hops, extended path) -----
    source_costs: Dict[NodeId, Cost] = {}
    source_paths: Dict[NodeId, PathTuple] = {}
    for node in graph.nodes:
        if node == destination:
            continue
        best_key: Optional[RouteKey] = None
        for neighbor in graph.neighbors(node):
            if neighbor == destination:
                candidate = route_key(0.0, (node, destination))
            else:
                if neighbor not in tree_paths:
                    continue
                tree = tree_paths[neighbor]
                if node in tree:
                    continue  # dominated (see module docstring)
                candidate = route_key(tree_costs[neighbor], (node,) + tree)
            if best_key is None or candidate < best_key:
                best_key = candidate
        if best_key is not None:
            source_costs[node] = best_key[0]
            source_paths[node] = best_key[2]

    return EdgeCostRoutes(
        destination=destination,
        tree_costs=tree_costs,
        tree_paths=tree_paths,
        source_costs=source_costs,
        source_paths=source_paths,
    )


def edgecost_avoiding_routes(
    graph: EdgeCostGraph, destination: NodeId, k: NodeId
) -> EdgeCostRoutes:
    """Routing state toward *destination* in ``G - k``."""
    if k == destination:
        raise UnreachableError(destination, destination, avoiding=k)
    return edgecost_routes(graph.without_node(k), destination)
