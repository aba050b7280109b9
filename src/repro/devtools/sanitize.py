"""Runtime invariant sanitizer for the BGP/VCG core.

The paper's guarantees hold only under invariants the code otherwise
assumes silently.  This module makes them machine-checked:

* **Theorem 1 price identity** -- every stored price satisfies
  ``p^k_ij = c_k + Cost(P_{-k}(c; i, j)) - Cost(P(c; i, j))`` with the
  two path costs recomputed from scratch on derived graphs;
* **non-negativity** -- prices are ``>= 0`` up to :data:`~repro.types.EPSILON`;
* **zero payment off-path** -- a price row for ``(i, j)`` mentions only
  transit nodes of the selected path ``P(c; i, j)``;
* **LCP optimality** -- selected paths are re-verified against a fresh
  destination-rooted Dijkstra (cost and canonical tie-break);
* **path well-formedness** -- selected paths are simple, endpoint-
  correct walks over live links (catches mutated path tuples);
* **biconnectivity precondition** -- the mechanism refuses to run where
  Theorem 1 is undefined;
* **monotone convergence** -- across synchronous stages (and
  asynchronous deliveries) of a static epoch, a node's selected route
  key per destination never worsens;
* **complete change-driven decisions** -- a full decision right after
  a dirty one moves no route and no price row.

Checks are **off by default** and cost one predicate call on the hot
paths when off.  Enable them with the ``REPRO_SANITIZE=1`` environment
variable (read at import), :func:`enable` / :func:`disable`, or the
:func:`sanitized` context manager::

    from repro.devtools import sanitize

    with sanitize.sanitized():
        result = distributed_mechanism(graph)

Violations raise :class:`repro.exceptions.SanitizerError`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import SanitizerError, UnreachableError
from repro.types import EPSILON, Cost, NodeId, PathTuple, is_finite_cost

if TYPE_CHECKING:  # pragma: no cover - import-light on hot paths
    from repro.bgp.node import BGPNode
    from repro.bgp.table import RouteEntry
    from repro.graphs.asgraph import ASGraph
    from repro.mechanism.vcg import PriceTable
    from repro.routing.dijkstra import RouteTree

__all__ = [
    "enabled",
    "enable",
    "disable",
    "sanitized",
    "check_biconnected",
    "check_path",
    "check_lcp",
    "check_price_row",
    "check_price_table",
    "check_routes_monotone",
    "check_decision",
    "checks_run",
]

_TRUTHY = {"1", "true", "yes", "on"}

_enabled: bool = os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY

#: Number of individual invariant checks executed since import; lets the
#: tests assert the zero-cost-when-off contract observably.
_checks_run: int = 0


def enabled() -> bool:
    """Whether sanitizer checks are currently active (the single
    predicate the hot paths consult)."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


@contextmanager
def sanitized(on: bool = True) -> Iterator[None]:
    """Temporarily force the sanitizer on (or off, with ``on=False``)."""
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous


def checks_run() -> int:
    """Total individual checks executed so far (observability hook)."""
    return _checks_run


def _count() -> None:
    global _checks_run
    _checks_run += 1


def _fail(check: str, detail: str) -> NoReturn:
    raise SanitizerError(check=check, detail=detail)


# ----------------------------------------------------------------------
# Structural checks
# ----------------------------------------------------------------------
def check_biconnected(graph: "ASGraph") -> None:
    """Theorem 1 precondition: the k-avoiding paths must all exist."""
    _count()
    from repro.graphs.biconnectivity import articulation_points

    if graph.num_nodes < 3:
        _fail("biconnected", f"graph has {graph.num_nodes} nodes (< 3)")
    if not graph.is_connected():
        _fail("biconnected", "graph is disconnected")
    points = articulation_points(graph)
    if points:
        _fail(
            "biconnected",
            f"graph has articulation points {sorted(points)}; VCG prices "
            "are undefined at a monopoly cut",
        )


def check_path(
    path: PathTuple,
    *,
    has_edge: Callable[[NodeId, NodeId], bool],
    source: Optional[NodeId] = None,
    destination: Optional[NodeId] = None,
) -> None:
    """A selected path must be a simple, endpoint-correct walk over live
    links.  *has_edge* supplies the current topology (the engines pass
    their own mutable adjacency, the mechanism the immutable graph)."""
    _count()
    if len(path) < 1:
        _fail("path", "empty path")
    if source is not None and path[0] != source:
        _fail("path", f"path {path} does not start at source {source}")
    if destination is not None and path[-1] != destination:
        _fail("path", f"path {path} does not end at destination {destination}")
    if len(set(path)) != len(path):
        _fail("path", f"path {path} revisits a node (loop)")
    for u, v in zip(path, path[1:]):
        if not has_edge(u, v):
            _fail("path", f"path {path} uses a non-existent link ({u}, {v})")


# ----------------------------------------------------------------------
# Routing checks
# ----------------------------------------------------------------------
def check_lcp(
    graph: "ASGraph",
    source: NodeId,
    destination: NodeId,
    path: PathTuple,
    cost: Cost,
    reference: Optional["RouteTree"] = None,
) -> None:
    """Spot-check one selected route against a fresh Dijkstra.

    Verifies (a) the claimed cost is the path's transit cost, and
    (b) cost and canonical tie-break agree with an independently
    recomputed route tree.  *reference* passes that tree in (it must
    be a fresh :func:`~repro.routing.dijkstra.route_tree` toward
    *destination*), so checking every source of one destination costs
    one Dijkstra instead of one per source.
    """
    _count()
    from repro.routing.dijkstra import route_tree

    check_path(path, has_edge=graph.has_edge, source=source, destination=destination)
    actual = graph.path_cost(path) if len(path) >= 2 else 0.0
    # Relative as well as absolute: path_cost sums source-first, the
    # claimed cost destination-first, and at large magnitudes the two
    # orders round apart by far more than EPSILON.
    if abs(actual - cost) > max(EPSILON, EPSILON * abs(actual)):
        _fail(
            "lcp",
            f"claimed cost {cost} of path {path} differs from its "
            f"recomputed transit cost {actual}",
        )
    tree = reference if reference is not None else route_tree(graph, destination)
    try:
        optimal_cost = tree.cost(source)
        optimal_path = tree.path(source)
    except UnreachableError:
        _fail("lcp", f"no route from {source} to {destination} exists at all")
    if cost > optimal_cost + max(EPSILON, EPSILON * abs(optimal_cost)):
        _fail(
            "lcp",
            f"selected path {path} (cost {cost}) is not lowest-cost: "
            f"Dijkstra finds {optimal_path} (cost {optimal_cost})",
        )
    if path != optimal_path:
        _fail(
            "lcp",
            f"selected path {path} deviates from the canonical "
            f"tie-broken LCP {optimal_path}",
        )


# ----------------------------------------------------------------------
# Price checks
# ----------------------------------------------------------------------
def check_price_row(
    graph: "ASGraph",
    source: NodeId,
    destination: NodeId,
    path: PathTuple,
    row: Mapping[NodeId, Cost],
    *,
    lcp_cost: Optional[Cost] = None,
) -> None:
    """Validate one price row against Theorem 1.

    *row* maps transit nodes to ``p^k_{source,destination}``; *path* is
    the selected LCP the row belongs to.  Checks zero-payment-off-path,
    finiteness, non-negativity, and the VCG identity with the k-avoiding
    cost recomputed from scratch on ``G - k``.
    """
    from repro.routing.avoiding import avoiding_tree

    transit = set(path[1:-1])
    off_path = sorted(set(row) - transit)
    _count()
    if off_path:
        _fail(
            "zero-off-path",
            f"pair ({source}, {destination}): price entries for "
            f"non-transit nodes {off_path} (Theorem 1 pays them zero)",
        )
    if lcp_cost is None:
        lcp_cost = graph.path_cost(path) if len(path) >= 2 else 0.0
    for k in sorted(row):
        price = row[k]
        _count()
        if not is_finite_cost(price):
            _fail(
                "price-finite",
                f"price p^{k}_({source},{destination}) = {price!r} is not finite",
            )
        if price < -EPSILON:
            _fail(
                "price-nonnegative",
                f"price p^{k}_({source},{destination}) = {price} is negative",
            )
        detour = avoiding_tree(graph, destination, k)
        if not detour.has_route(source):
            _fail(
                "price-identity",
                f"no {k}-avoiding path from {source} to {destination}: "
                "the price is undefined (graph not biconnected?)",
            )
        expected = graph.cost(k) + detour.cost(source) - lcp_cost
        if abs(price - expected) > max(EPSILON, EPSILON * abs(expected)):
            _fail(
                "price-identity",
                f"price p^{k}_({source},{destination}) = {price} violates "
                f"Theorem 1: c_k + Cost(P_-k) - Cost(P) = {expected}",
            )


def check_price_table(
    graph: "ASGraph",
    table: "PriceTable",
    *,
    spot_check_lcp: bool = True,
) -> None:
    """Validate a full centralized price table against Theorem 1,
    pair by pair in ``(source, destination)`` order."""
    routes = table.routes
    for source, destination in table.pairs():
        path = routes.path(source, destination)
        if spot_check_lcp:
            check_lcp(graph, source, destination, path, routes.cost(source, destination))
        check_price_row(
            graph,
            source,
            destination,
            path,
            table.row(source, destination),
            lcp_cost=routes.cost(source, destination),
        )


# ----------------------------------------------------------------------
# Convergence checks
# ----------------------------------------------------------------------
RouteKeySnapshot = Dict[NodeId, Tuple[Cost, int, PathTuple]]


def check_routes_monotone(
    node_id: NodeId,
    previous: RouteKeySnapshot,
    current: RouteKeySnapshot,
) -> None:
    """Within one static epoch, a node's selected route keys only
    improve: path-vector relaxation from a cold start never replaces a
    selected route with a strictly worse one, and a stage that did so
    would break the Lemma 2 convergence argument.  The engines reset the
    baseline on every dynamic event / restart."""
    for destination, old_key in previous.items():
        _count()
        new_key = current.get(destination)
        if new_key is None:
            _fail(
                "monotone",
                f"node {node_id} lost its route to {destination} with no "
                "network event",
            )
        elif new_key > old_key:
            _fail(
                "monotone",
                f"node {node_id} worsened its route to {destination}: "
                f"{old_key} -> {new_key} with no network event",
            )


def check_decision(node: "BGPNode") -> None:
    """A dirty decision must leave what a full decision leaves.

    Called right after ``node.decide(dirty)``: runs the full
    ``node.decide()`` and requires it to move no selected route and no
    advertised derived (price) row.  A move means the change-driven
    decision skipped an advertisement that changed -- the Adj-RIB-In's
    change record (or the dirty set) missed it; the error names the
    node, the destination and that neighbor.
    """
    _count()
    routes = dict(node.routes)
    rows = {destination: node._prices_for(destination) for destination in routes}
    node.decide()
    for destination in sorted(set(routes) | set(node.routes)):
        before = routes.get(destination)
        after = node.routes.get(destination)
        row = rows.get(destination, {})
        # Exact: on honest state the full decision folds nothing new in,
        # so every row comes back bit for bit.
        if before is after and row == node._prices_for(destination):  # repro-lint: ok(RPR001)
            continue
        if before is after:
            moved = f"price row {row} -> {node._prices_for(destination)}"
        else:
            moved = f"route {_route_text(before)} -> {_route_text(after)}"
        neighbor = node._missed_neighbor(destination, before, row)
        _fail(
            "decide",
            f"node {node.node_id}: a full decision moved destination "
            f"{destination}'s {moved}; the dirty decision missed the change "
            f"to neighbor {neighbor}'s advertisement",
        )


def _route_text(entry: Optional["RouteEntry"]) -> str:
    return "none" if entry is None else f"{entry.path} at cost {entry.cost}"


def snapshot_routes(
    routes: Mapping[NodeId, object],
) -> RouteKeySnapshot:
    """Capture ``destination -> (cost, hops, path)`` from a node's
    Loc-RIB (duck-typed over :class:`repro.bgp.table.RouteEntry`)."""
    snapshot: RouteKeySnapshot = {}
    for destination, entry in routes.items():
        path: PathTuple = entry.path  # type: ignore[attr-defined]
        cost: Cost = entry.cost  # type: ignore[attr-defined]
        snapshot[destination] = (cost, len(path) - 1, path)
    return snapshot


# ----------------------------------------------------------------------
# Distributed-result check (used by core.protocol)
# ----------------------------------------------------------------------
def check_distributed_prices(
    graph: "ASGraph",
    node_routes: Mapping[NodeId, Mapping[NodeId, object]],
    node_price_rows: Mapping[NodeId, Mapping[NodeId, Mapping[NodeId, Cost]]],
    *,
    sample_pairs: Optional[Sequence[Tuple[NodeId, NodeId]]] = None,
) -> None:
    """Validate a converged distributed computation node by node.

    *node_routes* maps node -> destination -> RouteEntry-like objects;
    *node_price_rows* maps node -> destination -> price row.  When
    *sample_pairs* is given only those (source, destination) pairs are
    checked (spot-check mode); default is exhaustive.
    """
    pairs: Optional[Set[Tuple[NodeId, NodeId]]] = (
        set(sample_pairs) if sample_pairs is not None else None
    )
    for source in sorted(node_routes):
        routes = node_routes[source]
        rows = node_price_rows.get(source, {})
        for destination in sorted(routes):
            if pairs is not None and (source, destination) not in pairs:
                continue
            entry = routes[destination]
            path: PathTuple = entry.path  # type: ignore[attr-defined]
            cost: Cost = entry.cost  # type: ignore[attr-defined]
            check_lcp(graph, source, destination, path, cost)
            check_price_row(
                graph,
                source,
                destination,
                path,
                rows.get(destination, {}),
                lcp_cost=cost,
            )
