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
  (resp. under the downstream endpoint of a removed tree edge), found
  by walking the adjacency from its root -- drop its labels, seed each
  detached node from its intact neighbors and run the same wave.
  Labels outside the cone were optimal before and only competing
  candidates worsened, so no candidate through the cone beats one of
  them and the wave stays inside the cone.

Every epoch diff decomposes into elementary events applied
*sequentially* (sorted removals, then sorted cost changes, then sorted
additions) against evolving intermediate costs/adjacency; each repair
is exact for its intermediate graph, so arbitrarily many improving
changes compose per diff -- the full-rebuild fallback PR 5 needed for
multi-improving diffs is gone.  A cached tree an event cannot change
costs one ``O(degree)`` test and no repair.  Repairs build replacement
trees on scratch state and the caches commit only once the whole diff
(including the reference engine's disconnection check, reproduced in
the same destination order for error parity) has succeeded, so a
raised error leaves every cache at the previous epoch.

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
    Sequence,
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
from repro.types import Cost, NodeId

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.mechanism.vcg import DestinationPrices, PriceTable
    from repro.routing.allpairs import AllPairsRoutes

PairKey = Tuple[NodeId, NodeId]

#: ``(cost, hops, parent)``: a route's canonical rank, as route_tree keeps it
Label = Tuple[Cost, int, NodeId]

#: the neighbor lists the repair waves walk, ascending; a list is
#: replaced, never mutated, since unchanged ones are the graph's own
Adjacency = Dict[NodeId, Sequence[NodeId]]


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
) -> Tuple[Optional[RouteTree], int, int]:
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
    ``(repaired tree, labels dropped, labels settled)``, or
    ``(None, 0, 0)`` when nothing changes.
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
        return None, 0, 0
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
        for neighbor in adjacency[node]:
            offer(neighbor, through, node, hops + 1)
    repaired = RouteTree(destination=destination, parents=parents, costs=label_costs)
    return repaired, len(dropped), settled


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
    seeds = [(node, via) for node in sorted(detach) for via in adjacency[node]]
    return _wave(tree, seeds, adjacency, costs, masked, detach)


def _improvable(
    tree: RouteTree,
    seeds: List[Tuple[NodeId, NodeId]],
    costs: Dict[NodeId, Cost],
    masked: Optional[NodeId],
) -> bool:
    """Whether some seed candidate costs no more than its node's label.

    The wave's seed offers, reduced to their cost test: when this is
    false every offer loses on cost, nothing is pushed, and the wave
    would return the tree unchanged.  ``O(len(seeds))``.
    """
    destination, labels = tree.destination, tree.costs
    for node, via in seeds:
        if node == destination or node == masked:
            continue  # never relabeled
        if via == destination:
            candidate = 0.0
        elif via in labels:
            candidate = labels[via] + costs[via]
        else:
            continue  # an unlabeled via offers nothing
        incumbent = labels.get(node)
        if incumbent is None or candidate <= incumbent:
            return True
    return False


def _subtree(tree: RouteTree, root: NodeId, adjacency: Adjacency) -> Set[NodeId]:
    """*root* plus every node routing through it in the parent forest.

    Every child is a neighbor, so the walk keeps the neighbors whose
    parent is the node being walked: it costs the degrees inside the
    cone, and no children index exists to be carried through waves or
    copied at commit.  It is exact after a link removal too: the removed
    link joined the cone's root to its parent outside the cone, so every
    tree edge inside the cone is still in *adjacency*.  No node is
    reached twice, because each has one parent.
    """
    parents = tree.parents
    cone = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for neighbor in adjacency[node]:
            if parents.get(neighbor) == node:
                cone.add(neighbor)
                stack.append(neighbor)
    return cone


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
        # the cached epoch's graph: its costs and links are the diff base
        self._graph: Optional[ASGraph] = None
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
        matter how many share the diff.  A tree the event cannot change
        costs one ``O(degree)`` test and no repair call (DESIGN.md
        section 11).  All repairs build replacement trees on scratch
        dicts; the caches commit only after the whole diff and the
        reference-parity disconnection check succeed.
        """
        old_graph = self._graph
        if old_graph is graph:
            return
        if old_graph is None or graph.nodes != old_graph.nodes:
            self._rebuild_all(graph)
            return
        old_adjacency, old_costs, _ = old_graph.routing_inputs()
        new_costs = graph.costs()
        changed = sorted(
            x for x in new_costs if new_costs[x] != old_costs[x]
        )
        old_edges, new_edges = set(old_graph.edges), set(graph.edges)
        removed = sorted(old_edges - new_edges)
        added = sorted(new_edges - old_edges)
        if not changed and not removed and not added:
            self._graph = graph
            return

        costs = dict(old_costs)
        adjacency: Adjacency = dict(old_adjacency)
        trees = dict(self._trees)
        avoiding = {j: dict(cache_j) for j, cache_j in self._avoiding.items()}
        # Every cached tree as (store, key, masked node).  Repairs
        # replace trees, never add or drop one, so the list holds for
        # the whole diff.
        cached = [(trees, j, None) for j in trees] + [
            (cache_j, k, k) for cache_j in avoiding.values() for k in cache_j
        ]
        touched_trees: Set[NodeId] = set()
        touched_avoiding: Set[PairKey] = set()
        repairs = 0

        for u, v in removed:
            adjacency[u] = [w for w in adjacency[u] if w != v]
            adjacency[v] = [w for w in adjacency[v] if w != u]
            for store, key, masked in cached:
                # Only a tree edge's removal changes a tree, and it
                # orphans the cone under its downstream endpoint.  (In
                # G - k, k is nobody's parent and has no parent.)
                tree = store[key]
                if tree.parents.get(u) == v:
                    root = u
                elif tree.parents.get(v) == u:
                    root = v
                else:
                    continue
                repairs += self._repair_one(
                    store, key, masked, touched_trees, touched_avoiding,
                    _detach_and_reanchor, _subtree(tree, root, adjacency),
                    adjacency, costs,
                )
        for x in changed:
            increase = new_costs[x] > costs[x]
            costs[x] = new_costs[x]
            # A decrease offers every neighbor its route through x:
            # descendants re-label at the lower fold, and nodes newly
            # through x join the same wave.
            seeds = [(neighbor, x) for neighbor in adjacency[x]]
            for store, key, masked in cached:
                tree = store[key]
                if x == tree.destination:
                    continue  # root cost is never counted
                if not increase:
                    if _improvable(tree, seeds, costs, masked):
                        repairs += self._repair_one(
                            store, key, masked, touched_trees, touched_avoiding,
                            _wave, seeds, adjacency, costs,
                        )
                    continue
                # Only x's descendants route through x; every child is
                # a neighbor.  (x = k is nobody's parent in G - k.)
                parents = tree.parents
                for neighbor in adjacency[x]:
                    if parents.get(neighbor) == x:
                        break
                else:
                    continue
                detach = _subtree(tree, x, adjacency)
                detach.discard(x)
                repairs += self._repair_one(
                    store, key, masked, touched_trees, touched_avoiding,
                    _detach_and_reanchor, detach, adjacency, costs,
                )
        for u, v in added:
            adjacency[u] = sorted([*adjacency[u], v])
            adjacency[v] = sorted([*adjacency[v], u])
            # Both orientations; the wave also reconnects unlabeled
            # sources (cut off in G, or in G - k).
            seeds = [(u, v), (v, u)]
            for store, key, masked in cached:
                if _improvable(store[key], seeds, costs, masked):
                    repairs += self._repair_one(
                        store, key, masked, touched_trees, touched_avoiding,
                        _wave, seeds, adjacency, costs,
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

    def _repair_one(
        self,
        store: Dict[NodeId, RouteTree],
        key: NodeId,
        masked: Optional[NodeId],
        touched_trees: Set[NodeId],
        touched_avoiding: Set[PairKey],
        repair,
        *args,
    ) -> int:
        """Apply one elementary-event repair to one stored tree.

        For a route tree *store* is the tree dict keyed by destination
        and *masked* is ``None``; for an avoiding tree *store* is the
        per-destination cache keyed by the masked node ``k``, and
        *masked* is ``k``.  Returns 1 if the tree changed.
        """
        repaired, detached, settled = repair(store[key], *args, masked)
        if repaired is None:
            return 0
        store[key] = repaired
        if detached:
            self.stats.detached += detached
            self.stats.reanchored += settled
        else:
            self.stats.relaxed += settled
        if masked is None:
            touched_trees.add(key)
        else:
            touched_avoiding.add((repaired.destination, key))
        return 1

    def _rebuild_all(self, graph: ASGraph) -> None:
        """Cold start: recompute every route tree, drop derived caches.

        Reached only from an empty cache or a changed *node set* (the
        diff model mutates costs and links, never membership); every
        cost/link diff, whatever its size, rides the repair path.  The
        trees are built in locals: the caches reset, commit and count
        their invalidations only once every tree succeeded, so a
        disconnected graph leaves the previous epoch intact.
        """
        trees: Dict[NodeId, RouteTree] = {}
        expected = graph.num_nodes - 1
        for destination in graph.nodes:
            tree = route_tree(graph, destination)
            self.stats.misses += 1
            self.stats.dijkstra_runs += 1
            if len(tree.parents) != expected:
                missing = set(graph.nodes) - set(tree.parents) - {destination}
                raise DisconnectedGraphError(
                    f"nodes {sorted(missing)} cannot reach {destination}"
                )
            trees[destination] = tree
        self.stats.invalidations += len(self._trees) + sum(
            len(cache) for cache in self._avoiding.values()
        )
        self.reset()
        self._trees = trees
        self._graph = graph

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
