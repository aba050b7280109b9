"""Destination-rooted generalized Dijkstra over canonical route keys.

For a destination ``j``, :func:`route_tree` computes, for every other
node ``i``, the minimum-key path from ``i`` to ``j`` (key = canonical
``(cost, hops, path)`` order).  Because the key order is suffix
consistent, the selected paths form the loop-free tree ``T(j)`` the
paper's Section 6 relies on; the tree is returned explicitly, as one
parent and one cost label per source (:class:`RouteTree`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.exceptions import UnreachableError
from repro.graphs.asgraph import ASGraph, GraphLike
from repro.types import Cost, NodeId, PathTuple


@dataclass(frozen=True)
class RouteTree:
    """The selected lowest-cost paths toward one destination.

    The tree ``T(j)`` is held as it is defined: one parent and one cost
    label per source, nothing else.  A path, a hop count or a transit
    test is a walk up the parents.

    Attributes
    ----------
    destination:
        The root ``j`` of the tree.
    parents:
        ``i -> next hop of i toward j`` for every reachable ``i != j``.
        (In the paper's tree vocabulary the next hop is ``i``'s *parent*
        in ``T(j)``.)
    costs:
        ``i -> transit cost of i's selected path``, same keys as
        *parents*.
    """

    destination: NodeId
    parents: Dict[NodeId, NodeId]
    costs: Dict[NodeId, Cost] = field(repr=False)

    def sources(self) -> Tuple[NodeId, ...]:
        """Nodes with a selected route to the destination (excl. root)."""
        return tuple(sorted(self.parents))

    def has_route(self, source: NodeId) -> bool:
        return source in self.parents or source == self.destination

    def path(self, source: NodeId) -> PathTuple:
        """Selected path from *source* to the destination (inclusive)."""
        if source == self.destination:
            return (source,)
        parents = self.parents
        if source not in parents:
            raise UnreachableError(source, self.destination)
        path = [source]
        node = parents[source]
        while node != self.destination:
            path.append(node)
            node = parents[node]
        path.append(node)
        return tuple(path)

    def cost(self, source: NodeId) -> Cost:
        """Transit cost of the selected path from *source*."""
        if source == self.destination:
            return 0.0
        try:
            return self.costs[source]
        except KeyError:
            raise UnreachableError(source, self.destination) from None

    def hops(self, source: NodeId) -> int:
        """Number of AS hops (edges) on the selected path."""
        if source == self.destination:
            return 0
        parents = self.parents
        if source not in parents:
            raise UnreachableError(source, self.destination)
        hops = 1
        node = parents[source]
        while node != self.destination:
            hops += 1
            node = parents[node]
        return hops

    def parent(self, source: NodeId) -> NodeId:
        """``source``'s parent (next hop) in ``T(j)``."""
        if source == self.destination:
            raise UnreachableError(source, self.destination)
        try:
            return self.parents[source]
        except KeyError:
            raise UnreachableError(source, self.destination) from None

    def children(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Nodes whose selected next hop is *node*."""
        return tuple(sorted(i for i, p in self.parents.items() if p == node))

    def on_path(self, k: NodeId, source: NodeId) -> bool:
        """The indicator ``I_k(c; source, destination)``: whether ``k``
        is a *transit* node on the selected path from *source*."""
        if source not in self.parents:
            return False
        node = self.parents[source]
        while node != self.destination:
            if node == k:
                return True
            node = self.parents[node]
        return False

    def transit_nodes(self) -> Tuple[NodeId, ...]:
        """Nodes transit on some selected path, ascending.

        A node is transit on some source's path iff it is some source's
        next hop and not the root, so no path is spelled.
        """
        transit = set(self.parents.values())
        transit.discard(self.destination)
        return tuple(sorted(transit))

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.sources())


def route_tree(graph: GraphLike, destination: NodeId) -> RouteTree:
    """Compute the selected-LCP tree ``T(destination)``.

    Runs generalized Dijkstra rooted at the destination; relaxation
    accumulates cost destination-first (``dist(v) = dist(u) + c_u`` for
    the hop ``v -> u`` with ``u`` nearer the root), which keeps costs
    bit-identical to BGP's hop-by-hop accumulation.  Unreachable nodes
    simply have no entry (queries raise :class:`UnreachableError`).

    The canonical ``(cost, hops, path)`` key is carried as integer
    labels, never as path tuples.  Every candidate for ``v`` starts with
    ``v`` itself, so two candidates for ``v`` differ first at the next
    hop, and by suffix consistency (:mod:`repro.routing.tiebreak`) the
    rest of either path is the finalized route of that next hop:
    ``(cost, hops, parent)`` ranks candidates exactly as the full key
    does.  Across nodes the same argument gives ``(cost, hops, node)``
    as the heap order, so nodes finalize in exactly the order the
    path-keyed search finalized them.  A node is never relaxed back
    into its own path, because every node on that path finalized first
    with a smaller label.  The tree keeps the parents and cost labels in
    finalization order; no path is spelled.

    *graph* may be a real :class:`ASGraph` or a copy-free
    :class:`~repro.graphs.asgraph.MaskedGraphView` (the k-avoiding
    sweep's representation of ``G - k``); only read access is used.
    Either way the kernel reads the base graph's adjacency lists and
    cost dict directly (``routing_inputs``), never a per-node method.
    A view's hidden node ``k`` still sits in its neighbors' lists, so
    it starts with a label no candidate beats: settled from the start,
    never pushed, never a parent, exactly as if it were absent.
    """
    if destination not in graph:
        raise UnreachableError(destination, destination)
    adjacency, node_costs, masked = graph.routing_inputs()
    # node -> (cost, hops, parent) of its best candidate so far.  Costs
    # are non-negative, so a finalized node's label already beats every
    # later candidate; no separate finalized check is needed per edge.
    best: Dict[NodeId, Tuple[Cost, int, NodeId]] = {destination: (0.0, 0, destination)}
    if masked is not None:
        best[masked] = (-1.0, 0, masked)  # below every candidate: never pushed
    finalized: Set[NodeId] = set()
    order: List[NodeId] = []
    heap: List[Tuple[Cost, int, NodeId]] = [(0.0, 0, destination)]
    push, pop = heapq.heappush, heapq.heappop
    label_of = best.get
    while heap:
        # A node can sit in the heap more than once; its first pop
        # carries its best (cost, hops), and ``best`` its best parent.
        cost, hops, node = pop(heap)
        if node in finalized:
            continue
        finalized.add(node)
        order.append(node)
        hop_cost = 0.0 if node == destination else node_costs[node]
        candidate = (cost + hop_cost, hops + 1, node)
        for neighbor in adjacency[node]:
            incumbent = label_of(neighbor)
            if incumbent is None or candidate < incumbent:
                best[neighbor] = candidate
                push(heap, (candidate[0], candidate[1], neighbor))

    parents: Dict[NodeId, NodeId] = {}
    costs: Dict[NodeId, Cost] = {}
    for node in order[1:]:
        cost, _hops, parent = best[node]
        parents[node] = parent
        costs[node] = cost
    return RouteTree(destination=destination, parents=parents, costs=costs)


def lowest_cost(graph: ASGraph, source: NodeId, destination: NodeId) -> Tuple[Cost, PathTuple]:
    """Convenience: the selected LCP and its cost for a single pair."""
    tree = route_tree(graph, destination)
    return tree.cost(source), tree.path(source)
