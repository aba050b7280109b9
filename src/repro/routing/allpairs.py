"""All-pairs lowest-cost routes: one route tree per destination.

This realizes the paper's "n^2 LCP instances" view (Sect. 1) as ``n``
destination trees, which is also exactly the state BGP distributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Tuple

import repro.obs as obs_mod
from repro.devtools import sanitize as sanitize_checks
from repro.exceptions import DisconnectedGraphError
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.routing.dijkstra import RouteTree, route_tree
from repro.types import Cost, NodeId, PathTuple

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.routing.engines import EngineSpec


@dataclass(frozen=True)
class AllPairsRoutes:
    """Selected LCPs for every ordered source-destination pair.

    ``trees`` maps each destination to its route tree in ``graph.nodes``
    order, in one of two forms: a dict of built trees (the reference
    and incremental engines), or the ``flat`` engine's read-only
    :class:`~repro.routing.forest.ForestTrees`, which holds the
    canonical forest's dense rows and builds a tree only when asked.
    """

    graph: ASGraph
    trees: Mapping[NodeId, RouteTree]

    @property
    def paths(self) -> Dict[Tuple[NodeId, NodeId], PathTuple]:
        """``(source, destination) -> selected path`` for all pairs."""
        result: Dict[Tuple[NodeId, NodeId], PathTuple] = {}
        for destination, tree in self.trees.items():
            for source in tree.sources():
                result[(source, destination)] = tree.path(source)
        return result

    def tree(self, destination: NodeId) -> RouteTree:
        return self.trees[destination]

    def path(self, source: NodeId, destination: NodeId) -> PathTuple:
        return self.trees[destination].path(source)

    def cost(self, source: NodeId, destination: NodeId) -> Cost:
        return self.trees[destination].cost(source)

    def hops(self, source: NodeId, destination: NodeId) -> int:
        return self.trees[destination].hops(source)

    def indicator(self, k: NodeId, source: NodeId, destination: NodeId) -> bool:
        """``I_k(c; source, destination)`` from Section 3."""
        return self.trees[destination].on_path(k, source)

    def transit_nodes(self, destination: NodeId) -> Tuple[NodeId, ...]:
        """All nodes appearing as transit on some selected path toward
        *destination* -- the ``k`` values whose prices matter there."""
        return self.trees[destination].transit_nodes()

    def max_hops(self) -> int:
        """The quantity ``d`` of Theorem 2 for this instance."""
        return max(
            (tree.hops(source) for tree in self.trees.values() for source in tree.sources()),
            default=0,
        )

    def __iter__(self) -> Iterator[Tuple[NodeId, NodeId]]:
        return iter(
            sorted(
                (source, destination)
                for destination, tree in self.trees.items()
                for source in tree.parents
            )
        )


def all_pairs_lcp(
    graph: ASGraph,
    *,
    engine: Optional["EngineSpec"] = None,
    sanitize: Optional[bool] = None,
    obs: Optional[obs_mod.Obs] = None,
) -> AllPairsRoutes:
    """Compute selected LCPs for all ordered pairs.

    Raises :class:`DisconnectedGraphError` if any pair is unreachable;
    the paper's model assumes (at least) connectivity.

    Keyword-only knobs (same names, order, and defaults as
    :func:`repro.mechanism.vcg.compute_price_table`):

    *engine* selects a registered backend by name or instance from
    :mod:`repro.routing.engines`; the default (``None`` or
    ``"reference"``) is the serial pure-Python reference path below.
    Cost-only engines raise :class:`~repro.exceptions.EngineError`.

    *sanitize* overrides the global sanitizer toggle for this call:
    ``True`` re-verifies every selected route against a fresh Dijkstra
    (:func:`repro.devtools.sanitize.check_lcp`), ``False`` skips the
    check, ``None`` (default) follows the global toggle.

    *obs* names an explicit :class:`repro.obs.Obs` observer; ``None``
    reports to the global default observer iff observability is
    enabled.  Observed runs execute under a ``routing.all_pairs`` span
    and count ``routing.route_trees``.
    """
    check = sanitize_checks.enabled() if sanitize is None else bool(sanitize)
    observer = obs_mod.active(obs)
    if engine is not None and engine != "reference":
        from repro.routing.engines import resolve_engine

        resolved = resolve_engine(engine)
        if observer is None:
            routes = resolved.all_pairs(graph, obs=obs)
        else:
            with observer.span(metric_names.SPAN_ALL_PAIRS, engine=resolved.name):
                routes = resolved.all_pairs(graph, obs=obs)
    elif observer is None:
        routes = _all_pairs_reference(graph)
    else:
        with observer.span(metric_names.SPAN_ALL_PAIRS, engine="reference"):
            routes = _all_pairs_reference(graph)
        observer.count(
            metric_names.ROUTE_TREES, len(routes.trees), engine="reference"
        )
    if check:
        _sanitize_routes(graph, routes)
    return routes


def _all_pairs_reference(graph: ASGraph) -> AllPairsRoutes:
    """The serial semantics-defining path: one Dijkstra per destination."""
    trees: Dict[NodeId, RouteTree] = {}
    expected = graph.num_nodes - 1
    for destination in graph.nodes:
        tree = route_tree(graph, destination)
        if len(tree.sources()) != expected:
            missing = set(graph.nodes) - set(tree.sources()) - {destination}
            raise DisconnectedGraphError(
                f"nodes {sorted(missing)} cannot reach {destination}"
            )
        trees[destination] = tree
    return AllPairsRoutes(graph=graph, trees=trees)


def _sanitize_routes(graph: ASGraph, routes: AllPairsRoutes) -> None:
    """Re-verify every selected route (sanitizer on, or forced) against
    one independently recomputed tree per destination."""
    for destination in sorted(routes.trees):
        tree = routes.trees[destination]
        reference = route_tree(graph, destination)
        for source in tree.sources():
            sanitize_checks.check_lcp(
                graph,
                source,
                destination,
                tree.path(source),
                tree.cost(source),
                reference=reference,
            )
