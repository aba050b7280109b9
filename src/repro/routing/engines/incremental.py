"""The incremental engine: dynamic SSSP repair across graph epochs.

The paper's Sect. 6 model restarts convergence on every network event,
and the E10 dynamics driver mirrors that by recomputing the entire
centralized reference -- O(n^2) destination-rooted Dijkstras plus the
per-(destination, k) avoiding sweep -- from scratch after each event.
A single event, however, typically perturbs a small fraction of the
route trees, and within a perturbed tree only a small cone of labels.
This engine keeps every tree computed so far cached across *graph
epochs* and, when handed a mutated graph, repairs the affected trees
*in place* (Ramalingam-Reps / Narvaez style) instead of discarding and
re-running Dijkstra:

* **Improving events** (cost decrease at ``x``, link addition
  ``(u, v)``) seed a priority queue with the boundary vertices whose
  tentative label improves -- the neighbors of ``x`` with their
  through-``x`` candidates, or both orientations of the new link -- and
  run a Dijkstra wave that settles *only* nodes whose label strictly
  improves.  Labels are the ``(cost, hops, parent)`` triples
  :func:`~repro.routing.dijkstra.route_tree` ranks by, so the wave's
  output is bit-identical to a cold re-run; no tolerance is involved.
  Each incumbent label, hops included, is read from the tree as it was
  before the wave.  The wave also reconnects sources that previously
  had no label at all, which is how incomplete avoiding trees heal on
  link recovery.
* **Worsening events** (cost increase at ``x``, link removal) detach
  exactly the orphaned cone -- the parent-forest subtree under ``x``
  (resp. under the downstream endpoint of a removed tree edge) -- drop
  its labels, seed each detached node from its intact neighbors and
  run the same wave.  Labels outside the cone were optimal before and
  only competing candidates worsened, so no candidate through the cone
  beats one of them and the wave stays inside the cone.

Every epoch diff decomposes into elementary events applied
*sequentially* (sorted removals, then sorted cost changes, then sorted
additions) against evolving intermediate costs/adjacency; each repair
is exact for its intermediate graph, so arbitrarily many improving
changes compose per diff -- the full-rebuild fallback PR 5 needed for
multi-improving diffs is gone.  Repairs build replacement trees on
scratch state and the caches commit only once the whole diff (including
the reference engine's disconnection check, reproduced in the same
destination order for error parity) has succeeded, so a raised error
leaves every cache at the previous epoch.

Full algorithm write-up, invariants, and fallback conditions:
DESIGN.md section 14.

The correctness bar is the repo's standard one: bit-identical
:class:`~repro.routing.allpairs.AllPairsRoutes` and
:class:`~repro.mechanism.vcg.PriceTable` versus the reference engine
after every epoch (``tests/test_incremental_engine.py`` drives
randomized event sequences through both).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

import repro.obs as obs_mod
from repro.devtools import sanitize as sanitize_checks
from repro.exceptions import DisconnectedGraphError
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.routing.dijkstra import RouteTree, route_tree
from repro.routing.engines.base import Engine
from repro.types import Cost, Edge, NodeId

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.mechanism.vcg import DestinationPrices, PriceTable
    from repro.routing.allpairs import AllPairsRoutes

PairKey = Tuple[NodeId, NodeId]

#: ``(cost, hops, parent)``: a route's canonical rank, as route_tree keeps it
Label = Tuple[Cost, int, NodeId]

#: adjacency snapshot the repair waves walk; values iterated sorted
Adjacency = Dict[NodeId, Set[NodeId]]


@dataclass
class CacheStats:
    """Lifetime cache accounting for one :class:`IncrementalEngine`.

    ``hits``/``misses`` count *tree reuses* vs *tree (re)computations
    from scratch* (route and avoiding trees alike; a destination whose
    price rows are served from cache counts one hit per avoiding tree
    those rows used).  ``invalidations`` counts cached trees whose
    labels an event touched -- under PR 5's warm start those trees were
    dropped and rebuilt cold, now they are repaired in place.
    ``dijkstra_runs`` counts actual
    :func:`~repro.routing.dijkstra.route_tree` invocations -- the
    currency the dynamics benchmark compares against the reference
    engine's ``n + sum_j |transit(j)|`` per epoch.

    The repair counters meter the in-place work: ``relaxed`` labels
    settled by improving events' waves, ``detached`` labels dropped
    from orphaned cones, ``reanchored`` labels the wave re-established
    inside those cones.
    ``relaxed + reanchored`` over the average tree size is the
    "Dijkstra-equivalent" cost of the repair path.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    dijkstra_runs: int = 0
    relaxed: int = 0
    detached: int = 0
    reanchored: int = 0

    def snapshot(self) -> Tuple[int, int, int, int, int, int, int]:
        return (
            self.hits,
            self.misses,
            self.invalidations,
            self.dijkstra_runs,
            self.relaxed,
            self.detached,
            self.reanchored,
        )


def _wave(
    tree: RouteTree,
    seeds: Iterable[Tuple[NodeId, NodeId]],
    adjacency: Adjacency,
    costs: Dict[NodeId, Cost],
    masked: Optional[NodeId],
    dropped: AbstractSet[NodeId] = frozenset(),
) -> Tuple[Optional[RouteTree], int]:
    """Settle every label that strictly improves, and nothing else.

    Labels are the ``(cost, hops, parent)`` triples
    :func:`~repro.routing.dijkstra.route_tree` ranks by.  *seeds* are
    ``(node, via)`` pairs: *node*'s candidate through its neighbor
    *via*, whose label is intact.  Every incumbent label, hops included,
    is read from *tree* as it was before the wave, with the *dropped*
    cone unlabeled: a node whose hops fell at equal cost beats its old
    label, settles, and passes the shorter route on.  The wave relaxes
    outward from each seed that beats its incumbent, so exactly the
    improved cone is re-settled and every final label equals the cold
    recomputation bit for bit.  No candidate closes a loop: every node
    on a settled node's path holds a smaller label already.  Returns
    ``(repaired tree, labels settled)``, or ``(None, 0)`` when nothing
    changes.
    """
    destination = tree.destination
    old_parents, old_costs = tree.parents, tree.costs
    depth: Dict[NodeId, int] = {destination: 0}

    def hops_of(node: NodeId) -> int:
        """*node*'s hop count before the wave, memoized along the walk."""
        walk = []
        while node not in depth:
            walk.append(node)
            node = old_parents[node]
        hops = depth[node]
        for step in reversed(walk):
            hops += 1
            depth[step] = hops
        return hops

    best: Dict[NodeId, Label] = {}
    heap: List[Tuple[Cost, int, NodeId]] = []
    # Never relabeled: the root, and the node G - k lacks.
    finalized: Set[NodeId] = {destination} if masked is None else {destination, masked}

    def offer(node: NodeId, cost: Cost, via: NodeId, hops: Optional[int] = None) -> None:
        """Keep *node*'s candidate through *via* if it beats the node's
        label.  Most candidates lose on cost alone, so hop counts --
        *hops*, or else *via*'s walked ones plus one -- are read only
        when the cost does not decide."""
        if node in finalized:
            return
        current = best.get(node)
        if current is None and node not in dropped:
            incumbent_cost = old_costs.get(node)
            if incumbent_cost is not None:
                if cost > incumbent_cost:
                    return
                # exact, as every label comparison (routing/tiebreak.py)
                if cost == incumbent_cost:  # repro-lint: ok(RPR001)
                    current = (incumbent_cost, hops_of(node), old_parents[node])
        elif current is not None and cost > current[0]:
            return
        label = (cost, hops_of(via) + 1 if hops is None else hops, via)
        if current is None or label < current:
            best[node] = label
            heapq.heappush(heap, (cost, label[1], node))

    for node, via in seeds:
        if via == destination:
            offer(node, 0.0, via)
        elif via in old_costs and via not in dropped:
            offer(node, old_costs[via] + costs[via], via)
    if not heap and not dropped:
        return None, 0
    parents = dict(old_parents)
    label_costs = dict(old_costs)
    for node in sorted(dropped):
        del parents[node]
        del label_costs[node]
    settled = 0
    while heap:
        # A node's first pop carries its best (cost, hops), and
        # ``best`` its best parent, as in route_tree.
        cost, hops, node = heapq.heappop(heap)
        if node in finalized:
            continue
        finalized.add(node)
        settled += 1
        parents[node] = best[node][2]
        label_costs[node] = cost
        through = cost + costs[node]
        for neighbor in sorted(adjacency[node]):
            offer(neighbor, through, node, hops + 1)
    repaired = RouteTree(destination=destination, parents=parents, costs=label_costs)
    return repaired, settled


def _detach_and_reanchor(
    tree: RouteTree,
    detach: Set[NodeId],
    adjacency: Adjacency,
    costs: Dict[NodeId, Cost],
    masked: Optional[NodeId],
) -> Tuple[Optional[RouteTree], int, int]:
    """Drop the *detach* cone's labels and grow them back exactly.

    Labels outside the cone survive a worsening event unchanged (their
    paths stay feasible and every competing candidate only worsened),
    so no candidate through the cone beats one of them: seeding each
    detached node from its intact neighbors and running the improve
    wave re-settles the cone and nothing else.  Nodes the boundary
    cannot reach stay unlabeled -- exactly the cold engine's treatment
    of unreachable sources.  Returns ``(repaired tree, labels detached,
    labels re-established)``.
    """
    seeds = [(node, via) for node in sorted(detach) for via in sorted(adjacency[node])]
    repaired, settled = _wave(tree, seeds, adjacency, costs, masked, detach)
    return repaired, len(detach), settled


def _subtree(tree: RouteTree, root: NodeId) -> Set[NodeId]:
    """*root* plus every node routing through it in the parent forest."""
    children: Dict[NodeId, List[NodeId]] = {}
    for child, parent in tree.parents.items():
        children.setdefault(parent, []).append(child)
    cone = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in children.get(node, ()):
            if child not in cone:
                cone.add(child)
                stack.append(child)
    return cone


def _repair_removal(
    tree: RouteTree,
    u: NodeId,
    v: NodeId,
    adjacency: Adjacency,
    costs: Dict[NodeId, Cost],
    masked: Optional[NodeId],
) -> Tuple[Optional[RouteTree], int, int]:
    """Repair one tree after edge ``(u, v)`` left the graph.

    Only trees actually *using* the edge change: a selected path uses
    ``(u, v)`` iff it is a tree edge of the parent forest, and then
    exactly the subtree under its downstream endpoint is orphaned.
    Returns ``(repaired tree or None, labels detached, labels
    re-anchored)``.
    """
    if tree.parents.get(u) == v:
        root = u
    elif tree.parents.get(v) == u:
        root = v
    else:
        return None, 0, 0
    return _detach_and_reanchor(tree, _subtree(tree, root), adjacency, costs, masked)


def _repair_cost_change(
    tree: RouteTree,
    x: NodeId,
    old_cost: Cost,
    new_cost: Cost,
    adjacency: Adjacency,
    costs: Dict[NodeId, Cost],
    masked: Optional[NodeId],
) -> Tuple[Optional[RouteTree], int, int]:
    """Repair one tree after ``c_x`` changed (caller already skipped
    ``x == destination`` and ``x == masked``; *costs* holds the new
    value).

    ``x``'s own label never moves (endpoint costs are free and simple
    paths from ``x`` cannot transit ``x``).  An increase orphans
    exactly ``x``'s descendants; a decrease seeds every neighbor of
    ``x`` with its through-``x`` candidate and lets the improve wave
    cascade -- descendants re-label along their unchanged paths at the
    lower fold, and newly-through-``x`` nodes are captured by the same
    wave.  Returns ``(repaired tree or None, detached, settled)``.
    """
    if new_cost > old_cost:
        detach = _subtree(tree, x)
        detach.discard(x)
        if not detach:
            return None, 0, 0
        return _detach_and_reanchor(tree, detach, adjacency, costs, masked)
    # An unreachable x seeds nothing: no path transits it either.
    seeds = [(neighbor, x) for neighbor in sorted(adjacency[x])]
    repaired, settled = _wave(tree, seeds, adjacency, costs, masked)
    return repaired, 0, settled


def _repair_addition(
    tree: RouteTree,
    u: NodeId,
    v: NodeId,
    adjacency: Adjacency,
    costs: Dict[NodeId, Cost],
    masked: Optional[NodeId],
) -> Tuple[Optional[RouteTree], int, int]:
    """Repair one tree after edge ``(u, v)`` joined the graph.

    Both orientations seed the improve wave: the candidate for ``a``
    via ``b`` extends ``b``'s (unchanged) label across the new link.
    Sources with no label -- disconnected in ``G`` or in ``G - k`` --
    reconnect through the same wave.  Returns ``(repaired tree or
    None, 0, settled)``.
    """
    repaired, settled = _wave(tree, [(u, v), (v, u)], adjacency, costs, masked)
    return repaired, 0, settled


class IncrementalEngine(Engine):
    """Path engine with epoch-keyed caching and in-place tree repair.

    Unlike the other registered engines this one is *stateful*: the
    speedup comes from holding one instance across a sequence of
    related graphs (the dynamics driver resolves its ``engine=`` spec
    once per scenario for exactly this reason).  Used one-shot it
    degrades gracefully to the reference behavior (every tree a miss).
    """

    name: ClassVar[str] = "incremental"

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._graph: Optional[ASGraph] = None
        self._costs: Dict[NodeId, Cost] = {}
        self._edges: Set[Edge] = set()
        self._trees: Dict[NodeId, RouteTree] = {}
        self._avoiding: Dict[NodeId, Dict[NodeId, RouteTree]] = {}
        # one destination's price rows, as its slice of the table columns
        self._rows: Dict[NodeId, "DestinationPrices"] = {}
        self._row_transit: Dict[NodeId, Tuple[NodeId, ...]] = {}

    # ------------------------------------------------------------------
    # Public cache control
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every cached tree and price row (cold restart)."""
        self._graph = None
        self._costs = {}
        self._edges = set()
        self._trees = {}
        self._avoiding = {}
        self._rows = {}
        self._row_transit = {}

    @property
    def cached_destinations(self) -> int:
        return len(self._trees)

    # ------------------------------------------------------------------
    # Engine interface (observer-aware wrappers add cache counters)
    # ------------------------------------------------------------------
    def all_pairs(
        self,
        graph: ASGraph,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "AllPairsRoutes":
        observer = obs_mod.active(obs)
        if observer is None:
            return self._all_pairs(graph)
        before = self.stats.snapshot()
        with observer.span(metric_names.SPAN_ENGINE_ALL_PAIRS, engine=self.name):
            routes = self._all_pairs(graph)
        observer.count(metric_names.ROUTE_TREES, len(routes.trees), engine=self.name)
        self._emit_cache_counters(observer, before)
        return routes

    def price_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"] = None,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "PriceTable":
        observer = obs_mod.active(obs)
        if observer is None:
            return self._price_table(graph, routes=routes)
        before = self.stats.snapshot()
        with observer.span(metric_names.SPAN_ENGINE_PRICE_TABLE, engine=self.name):
            table = self._price_table(graph, routes=routes)
        observer.count(metric_names.PRICE_ROWS, table.num_pairs, engine=self.name)
        self._emit_cache_counters(observer, before)
        return table

    def _emit_cache_counters(
        self,
        observer: obs_mod.Obs,
        before: Tuple[int, int, int, int, int, int, int],
    ) -> None:
        now = self.stats.snapshot()
        observer.count(metric_names.CACHE_HITS, now[0] - before[0], engine=self.name)
        observer.count(metric_names.CACHE_MISSES, now[1] - before[1], engine=self.name)
        observer.count(
            metric_names.CACHE_INVALIDATIONS, now[2] - before[2], engine=self.name
        )
        observer.count(
            metric_names.REPAIR_RELAXED, now[4] - before[4], engine=self.name
        )
        observer.count(
            metric_names.REPAIR_DETACHED, now[5] - before[5], engine=self.name
        )
        observer.count(
            metric_names.REPAIR_REANCHORED, now[6] - before[6], engine=self.name
        )

    def _all_pairs(self, graph: ASGraph) -> "AllPairsRoutes":
        from repro.routing.allpairs import AllPairsRoutes

        self._sync(graph)
        return AllPairsRoutes(graph=graph, trees=dict(self._trees))

    def _price_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"] = None,
    ) -> "PriceTable":
        from repro.mechanism.vcg import PriceTable
        from repro.routing.allpairs import AllPairsRoutes

        self._sync(graph)
        if routes is None:
            routes = AllPairsRoutes(graph=graph, trees=dict(self._trees))
        index = graph.index_of()
        parts: List["DestinationPrices"] = []
        for destination in graph.nodes:
            cached = self._rows.get(destination)
            if cached is not None:
                self.stats.hits += len(self._row_transit.get(destination, ()))
                parts.append(cached)
                continue
            part, transit = self._build_rows(graph, destination, index)
            self._rows[destination] = part
            self._row_transit[destination] = transit
            parts.append(part)
        node_ids = np.array(graph.nodes, dtype=np.int64)
        table = PriceTable.from_destinations(routes, node_ids, parts)
        if sanitize_checks.enabled():
            sanitize_checks.check_price_table(graph, table)
        return table

    # ------------------------------------------------------------------
    # Epoch synchronization
    # ------------------------------------------------------------------
    def _sync(self, graph: ASGraph) -> None:
        """Bring the tree caches up to date for *graph*'s epoch.

        The epoch diff (exact cost comparison -- declared costs are raw
        inputs, not derived arithmetic, the same rationale as
        ``ASGraph.__eq__``) decomposes into elementary events applied
        sequentially: sorted removals, then sorted cost changes, then
        sorted additions.  Each event repairs every affected tree
        against the *intermediate* costs/adjacency, so each repair is
        exact for its intermediate graph and the composition is exact
        for the final one -- improving changes ride the repair path no
        matter how many share the diff.  All repairs build replacement
        trees on scratch dicts; the caches commit only after the whole
        diff and the reference-parity disconnection check succeed.
        """
        if self._graph is graph:
            return
        if self._graph is None:
            self._rebuild_all(graph)
            return
        new_costs = graph.costs()
        if set(new_costs) != set(self._costs):
            self._rebuild_all(graph)
            return
        old_costs = self._costs
        changed = sorted(
            x for x in new_costs if new_costs[x] != old_costs[x]
        )
        new_edges = set(graph.edges)
        removed = sorted(self._edges - new_edges)
        added = sorted(new_edges - self._edges)
        if not changed and not removed and not added:
            self._graph = graph
            return

        costs = dict(old_costs)
        adjacency: Adjacency = {node: set() for node in old_costs}
        for u, v in sorted(self._edges):
            adjacency[u].add(v)
            adjacency[v].add(u)
        trees = dict(self._trees)
        avoiding = {j: dict(cache_j) for j, cache_j in self._avoiding.items()}
        touched_trees: Set[NodeId] = set()
        touched_avoiding: Set[PairKey] = set()
        repairs = 0

        for u, v in removed:
            adjacency[u].discard(v)
            adjacency[v].discard(u)
            for j in sorted(trees):
                repairs += self._repair_one(
                    trees, j, None, touched_trees, touched_avoiding,
                    _repair_removal, u, v, adjacency, costs,
                )
            for j in sorted(avoiding):
                for k in sorted(avoiding[j]):
                    if k in (u, v):
                        continue  # G - k never contained this link
                    repairs += self._repair_one(
                        avoiding[j], k, (j, k), touched_trees, touched_avoiding,
                        _repair_removal, u, v, adjacency, costs,
                    )
        for x in changed:
            old_cost = costs[x]
            new_cost = new_costs[x]
            costs[x] = new_cost
            for j in sorted(trees):
                if x == j:
                    continue  # root cost is never counted
                repairs += self._repair_one(
                    trees, j, None, touched_trees, touched_avoiding,
                    _repair_cost_change, x, old_cost, new_cost, adjacency, costs,
                )
            for j in sorted(avoiding):
                if x == j:
                    continue
                for k in sorted(avoiding[j]):
                    if x == k:
                        continue  # node absent from G - k
                    repairs += self._repair_one(
                        avoiding[j], k, (j, k), touched_trees, touched_avoiding,
                        _repair_cost_change, x, old_cost, new_cost, adjacency, costs,
                    )
        for u, v in added:
            adjacency[u].add(v)
            adjacency[v].add(u)
            for j in sorted(trees):
                repairs += self._repair_one(
                    trees, j, None, touched_trees, touched_avoiding,
                    _repair_addition, u, v, adjacency, costs,
                )
            for j in sorted(avoiding):
                for k in sorted(avoiding[j]):
                    if k in (u, v):
                        continue
                    repairs += self._repair_one(
                        avoiding[j], k, (j, k), touched_trees, touched_avoiding,
                        _repair_addition, u, v, adjacency, costs,
                    )

        # Reference error parity: the cold engine raises at the first
        # destination (in node order) any source cannot reach.
        expected = graph.num_nodes - 1
        for j in graph.nodes:
            tree = trees[j]
            if len(tree.parents) != expected:
                missing = set(graph.nodes) - set(tree.parents) - {j}
                raise DisconnectedGraphError(
                    f"nodes {sorted(missing)} cannot reach {j}"
                )

        self.stats.invalidations += repairs
        self.stats.hits += len(trees) - len(touched_trees)
        dirty_rows = set(touched_trees)
        for j, k in sorted(touched_avoiding):
            if k in self._row_transit.get(j, ()):
                dirty_rows.add(j)
        for j in sorted(dirty_rows):
            self._rows.pop(j, None)
            self._row_transit.pop(j, None)
        self._trees = trees
        self._avoiding = avoiding
        self._graph = graph
        self._costs = new_costs
        self._edges = new_edges

    def _repair_one(
        self,
        store: Dict[NodeId, RouteTree],
        key: NodeId,
        avoid_key: Optional[PairKey],
        touched_trees: Set[NodeId],
        touched_avoiding: Set[PairKey],
        repair,
        *args,
    ) -> int:
        """Apply one elementary-event repair to one stored tree.

        For a route tree *store* is the tree dict keyed by destination
        and *avoid_key* is ``None``; for an avoiding tree *store* is
        the per-destination cache keyed by the masked node ``k`` and
        *avoid_key* is ``(j, k)``.  Returns 1 if the tree changed.
        """
        masked = avoid_key[1] if avoid_key is not None else None
        repaired, detached, settled = repair(store[key], *args, masked)
        if repaired is None:
            return 0
        store[key] = repaired
        if detached:
            self.stats.detached += detached
            self.stats.reanchored += settled
        else:
            self.stats.relaxed += settled
        if avoid_key is None:
            touched_trees.add(key)
        else:
            touched_avoiding.add(avoid_key)
        return 1

    def _rebuild_all(self, graph: ASGraph) -> None:
        """Cold start: recompute every route tree, drop derived caches.

        Reached only from an empty cache or a changed *node set* (the
        diff model mutates costs and links, never membership); every
        cost/link diff, whatever its size, rides the repair path.
        """
        self.stats.invalidations += len(self._trees) + sum(
            len(cache) for cache in self._avoiding.values()
        )
        self.reset()
        trees: Dict[NodeId, RouteTree] = {}
        expected = graph.num_nodes - 1
        for destination in graph.nodes:
            tree = route_tree(graph, destination)
            self.stats.misses += 1
            self.stats.dijkstra_runs += 1
            if len(tree.sources()) != expected:
                missing = set(graph.nodes) - set(tree.sources()) - {destination}
                raise DisconnectedGraphError(
                    f"nodes {sorted(missing)} cannot reach {destination}"
                )
            trees[destination] = tree
        self._trees = trees
        self._graph = graph
        self._costs = graph.costs()
        self._edges = set(graph.edges)

    # ------------------------------------------------------------------
    # Price rows
    # ------------------------------------------------------------------
    def _build_rows(
        self, graph: ASGraph, destination: NodeId, index: Dict[NodeId, int]
    ) -> Tuple["DestinationPrices", Tuple[NodeId, ...]]:
        """The reference Theorem 1 sweep for one destination, with the
        avoiding trees served from (and committed to) the cache."""
        from repro.mechanism.vcg import price_destination

        tree = self._trees[destination]
        transit = tree.transit_nodes()
        cache = self._avoiding.setdefault(destination, {})
        detours: Dict[NodeId, RouteTree] = {}
        for k in transit:
            cached = cache.get(k)
            if cached is None:
                cached = route_tree(graph.masked_without_node(k), destination)
                cache[k] = cached
                self.stats.misses += 1
                self.stats.dijkstra_runs += 1
            else:
                self.stats.hits += 1
            detours[k] = cached
        part = price_destination(graph, tree, detours, index)
        return part, transit
