"""Topology metrics, including the ``d`` and ``d'`` of Theorem 2.

* ``d`` (:func:`lcp_hop_diameter`) -- the maximum number of AS *hops* on
  any selected lowest-cost path; plain BGP converges within ``d`` stages.
* ``d'`` (:func:`avoiding_hop_diameter`) -- the maximum hops over all
  lowest-cost k-avoiding paths ``P_{-k}(c; i, j)``; the price computation
  converges within ``max(d, d')`` stages (Lemma 2 / Theorem 2).

Hop counts follow the paper's stage accounting: a path with ``h`` edges
has ``h`` hops, and information crosses one hop per synchronous stage.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.graphs.asgraph import ASGraph
from repro.types import NodeId


def hop_diameter(graph: ASGraph) -> int:
    """The plain (unweighted) hop diameter of *graph*."""
    best = 0
    for source in graph.nodes:
        depths = _bfs_depths(graph, source)
        if len(depths) != graph.num_nodes:
            from repro.exceptions import DisconnectedGraphError

            raise DisconnectedGraphError(f"node {source} cannot reach all nodes")
        best = max(best, max(depths.values()))
    return best


def _bfs_depths(graph: ASGraph, source: NodeId) -> Dict[NodeId, int]:
    depths = {source: 0}
    frontier = [source]
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in depths:
                    depths[neighbor] = depths[node] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return depths


def lcp_hop_diameter(graph: ASGraph) -> int:
    """``d``: the maximum hop count over all

    selected lowest-cost paths (with the library's canonical
    tie-breaking).  Imported lazily from the routing package to keep the
    graph substrate dependency-free.
    """
    from repro.routing.allpairs import all_pairs_lcp

    return all_pairs_lcp(graph).max_hops()


def avoiding_hop_diameter(graph: ASGraph) -> int:
    """``d'``: the maximum hop count over all lowest-cost k-avoiding paths
    ``P_{-k}(c; i, j)`` for transit nodes ``k`` on selected LCPs.

    This is the other argument to the ``max(d, d')`` convergence bound of
    Theorem 2.  Uses the batched per-(destination, k) computation from
    :mod:`repro.routing.avoiding`.
    """
    from repro.routing.avoiding import max_avoiding_hops

    return max_avoiding_hops(graph)


def topology_summary(graph: ASGraph, name: Optional[str] = None) -> Dict[str, object]:
    """A metrics bundle used by the experiment tables."""
    summary: Dict[str, object] = {
        "name": name or "graph",
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "hop_diameter": hop_diameter(graph),
        "d": lcp_hop_diameter(graph),
        "d_prime": avoiding_hop_diameter(graph),
        "mean_degree": 2.0 * graph.num_edges / max(graph.num_nodes, 1),
    }
    summary["stage_bound"] = max(summary["d"], summary["d_prime"])
    return summary
