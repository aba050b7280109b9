"""Canonical route forests, batched over destinations, exact to the bit.

:func:`repro.routing.dijkstra.route_tree` builds one tie-broken tree
``T(j)`` per destination in pure Python.  This module builds the same
trees -- same parents, same cost floats, same dict order --
from ``scipy.sparse.csgraph`` distances, one block of destinations per
batched solve:

1. **Guide.**  A batched Dijkstra on the transposed flat reduction
   (:mod:`repro.routing.flatgraph`) gives, per destination ``j``,
   ``D[i] = c_j + (transit cost of a lowest-cost path from i)``, summed
   in scipy's own order.
2. **Candidate filter.**  ``i``'s canonical parent is the argmin over
   its neighbours ``q`` of ``(cost(q) + c_q, hops(q) + 1, q)``, with
   ``c_j`` read as 0 for ``q = j``; in the guide's terms every
   neighbour offers ``D[q] + c_q``.  Neighbour ``q`` stays a candidate
   iff ``D[q] + c_q <= D[i] + tol`` with
   ``tol = 8 * n * eps * max(D)``, which covers the rounding of both
   summation orders, so the true parent always survives.
3. **Exact resolution.**  A destination whose every node kept exactly
   one candidate has its canonical tree in hand: that candidate *is*
   the parent.  Costs are then re-accumulated destination-first, level
   by level, as ``cost(parent) + c_parent`` -- the reference's own
   float operations in the reference's own order -- and nodes are
   emitted in ``(cost, hops, id)`` order, which is the order the
   reference search finalizes them in.  A destination with any
   ambiguous node (a tie, or a near-tie inside ``tol``) falls back to
   :func:`~repro.routing.dijkstra.route_tree`.

Blocks hold ``_BLOCK_ELEMENTS`` over ``2m`` destinations each, so the
per-edge candidate arrays stay a fixed size whatever the graph.
:func:`canonical_routes` keeps every block's rows -- int32 parents and
hop counts next to float64 costs, ``16 n^2`` bytes in all -- and
returns them as the :class:`~repro.routing.allpairs.AllPairsRoutes`
the ``flat`` engine returns from ``all_pairs``.  Its ``trees`` is a
read-only :class:`ForestTrees` view that builds a destination's
:class:`RouteTree` from its row only when someone asks for it; the one
demand builder, :func:`repro.routing.flatsweep.demand_from_routes`,
reads the rows themselves, so pricing builds no tree beyond the tie
fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.exceptions import DisconnectedGraphError
from repro.graphs.asgraph import ASGraph
from repro.routing.allpairs import AllPairsRoutes
from repro.routing.dijkstra import RouteTree, route_tree
from repro.routing.flatgraph import FlatGraph, build_flat_graph
from repro.types import NodeId

__all__ = [
    "ForestBlock",
    "ForestStats",
    "ForestTrees",
    "canonical_routes",
    "densify_tree",
]

#: Elements of one block's per-edge arrays: a block holds
#: ``_BLOCK_ELEMENTS // 2m`` destinations (at least one).
_BLOCK_ELEMENTS = 1 << 18

#: Candidate-filter slack in units of ``n * eps * max(D)``.
_TOL_FACTOR = 8.0


@dataclass
class ForestStats:
    """Work accounting of one forest build: scipy blocks solved, and
    destinations whose ties sent them to the exact kernel."""

    blocks: int = 0
    fallbacks: int = 0


@dataclass
class ForestBlock:
    """The canonical trees of consecutive destinations, as dense arrays.

    Row ``b`` describes ``T(destinations[b])`` over dense node indices:
    ``parent[b, i]`` (int32) is ``i``'s next hop (``-1`` at the root)
    and ``cost[b, i]`` its transit cost (bit-identical to the reference
    label, ``0.0`` at the root).  ``trees`` holds the kernel-built
    :class:`RouteTree` of every row that fell back; those rows'
    parents and costs are filled from it, and ``hops[b, i]`` (int32)
    -- the hop count, which orders a resolved row -- is kept for
    resolved rows only.
    """

    destinations: np.ndarray
    parent: np.ndarray = field(repr=False)
    cost: np.ndarray = field(repr=False)
    hops: np.ndarray = field(repr=False)
    trees: Dict[int, RouteTree] = field(default_factory=dict, repr=False)


def _raise_if_disconnected(
    flat: FlatGraph, block: np.ndarray, dist: np.ndarray
) -> None:
    unreachable = ~np.isfinite(dist)
    if not unreachable.any():
        return
    row = int(np.flatnonzero(unreachable.any(axis=1))[0])
    missing = flat.node_ids[np.flatnonzero(unreachable[row])].tolist()
    destination = int(flat.node_ids[block[row]])
    raise DisconnectedGraphError(f"nodes {sorted(missing)} cannot reach {destination}")


def _resolve_block(
    graph: ASGraph,
    flat: FlatGraph,
    block: np.ndarray,
    dist: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    through: np.ndarray,
    stats: ForestStats,
) -> ForestBlock:
    """Candidate filter, exact re-accumulation and kernel fallback."""
    rows, n = dist.shape
    row_index = np.arange(rows)
    parent = np.full((rows, n), -1, dtype=np.int32)
    ambiguous = np.zeros(rows, dtype=bool)
    if tails.size:
        tol = _TOL_FACTOR * n * np.finfo(np.float64).eps * dist.max(axis=1)
        offered = dist[:, heads]
        offered += through
        limit = dist[:, tails]
        limit += tol[:, np.newaxis]
        candidate = offered <= limit
        del offered, limit
        for b, root in enumerate(block.tolist()):
            candidate[b, flat.indptr[root] : flat.indptr[root + 1]] = False
        counts = np.add.reduceat(candidate, flat.indptr[:-1], axis=1, dtype=np.int64)
        counts[row_index, block] = 1  # the root needs no parent
        ambiguous = (counts != 1).any(axis=1)
        hit_rows, hit_edges = np.nonzero(candidate)
        parent[hit_rows, tails[hit_edges]] = heads[hit_edges]
        # Ambiguous rows may hold cycles; they are rebuilt below.
        parent[ambiguous] = -1
    parent[row_index, block] = -1

    hops, cost = _accumulate(parent, flat.costs)
    result = ForestBlock(destinations=block, parent=parent, cost=cost, hops=hops)
    # An ambiguous row is all roots here (parent -1, cost 0.0), ready
    # for densify_tree.
    for b in np.flatnonzero(ambiguous).tolist():
        tree = route_tree(graph, int(flat.node_ids[block[b]]))
        densify_tree(tree, flat.node_ids, parent[b], cost[b])
        result.trees[b] = tree
    stats.fallbacks += len(result.trees)
    return result


def _accumulate(
    parent: np.ndarray, costs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Hop counts, then destination-first costs, level by level.

    Level ``L`` reads only level ``L - 1``, so each numpy addition
    ``cost[parent] + c_parent`` is the very float operation the
    reference performs for that node (with the root's hop cost 0.0).
    """
    rows, n = parent.shape
    base = (np.arange(rows, dtype=np.int64) * n)[:, np.newaxis]
    up = np.where(parent >= 0, parent + base, -1).ravel()
    hops = np.zeros(rows * n, dtype=np.int32)
    alive = np.flatnonzero(up >= 0)
    cursor = up[alive]
    while alive.size:
        hops[alive] += 1
        cursor = up[cursor]
        keep = cursor >= 0
        alive = alive[keep]
        cursor = cursor[keep]
    hop_cost = np.tile(costs, rows)
    hop_cost[hops == 0] = 0.0
    cost = np.zeros(rows * n, dtype=np.float64)
    by_level = np.argsort(hops, kind="stable")
    bounds = np.searchsorted(hops[by_level], np.arange(int(hops.max(initial=0)) + 2))
    for level in range(1, bounds.shape[0] - 1):
        nodes = by_level[bounds[level] : bounds[level + 1]]
        above = up[nodes]
        cost[nodes] = cost[above] + hop_cost[above]
    return hops.reshape(rows, n), cost.reshape(rows, n)


def densify_tree(
    tree: RouteTree, node_ids: np.ndarray, parent: np.ndarray, cost: np.ndarray
) -> None:
    """Write *tree*'s next hops and cost labels into dense rows.

    *parent* / *cost* are one destination's rows over the sorted
    *node_ids*, pre-filled with ``-1`` / ``0.0``; the tree's two dicts
    are read directly, one ``fromiter`` per column.
    """
    count = len(tree.parents)
    children = np.searchsorted(node_ids, np.fromiter(tree.parents.keys(), np.int64, count))
    parent[children] = np.searchsorted(
        node_ids, np.fromiter(tree.parents.values(), np.int64, count)
    )
    labelled = np.searchsorted(node_ids, np.fromiter(tree.costs.keys(), np.int64, count))
    cost[labelled] = np.fromiter(tree.costs.values(), np.float64, count)


class ForestTrees(Mapping[NodeId, RouteTree]):
    """Read-only ``destination -> RouteTree`` view of the forest's rows,
    iterated in ``graph.nodes`` order.

    ``trees[j]`` builds ``T(j)`` from its row on first access and keeps
    it, so asking again costs one dict lookup.  A resolved row emits
    its nodes in ``(cost, hops, id)`` order, the order the reference
    search finalizes them in, as the parents and cost labels the
    reference kernel stores, with the graph's own id objects; a
    tie-fallback row returns its kernel-built tree.  ``in``, ``len``
    and ``repr`` build nothing, and there is no item assignment.
    """

    __slots__ = ("blocks", "_ids", "_index", "_size", "_built")

    def __init__(
        self,
        graph: ASGraph,
        flat: FlatGraph,
        blocks: Sequence[ForestBlock],
        size: int,
    ) -> None:
        #: The forest's blocks in ascending destination order, each
        #: holding *size* destinations (the last one possibly fewer).
        self.blocks = tuple(blocks)
        self._ids = graph.nodes
        self._index = flat.index
        self._size = size
        self._built: Dict[NodeId, RouteTree] = {}

    def __getitem__(self, destination: NodeId) -> RouteTree:
        tree = self._built.get(destination)
        if tree is not None:
            return tree
        dense = self._index[destination]
        block = self.blocks[dense // self._size]
        b = dense % self._size
        tree = block.trees.get(b)
        if tree is None:
            ids = self._ids
            # lexsort is stable, so (cost, hops) ties keep ascending ids;
            # position 0 is the root (cost 0.0, hops 0).
            emitted = np.lexsort((block.hops[b], block.cost[b]))[1:]
            nodes = [ids[i] for i in emitted.tolist()]
            tree = RouteTree(
                destination=ids[dense],
                parents=dict(zip(nodes, [ids[i] for i in block.parent[b, emitted].tolist()])),
                costs=dict(zip(nodes, block.cost[b, emitted].tolist())),
            )
        self._built[destination] = tree
        return tree

    def __contains__(self, destination: object) -> bool:
        return destination in self._index

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def __repr__(self) -> str:
        return f"<ForestTrees: {len(self)} destinations, {len(self._built)} built>"


def canonical_routes(
    graph: ASGraph,
    flat: Optional[FlatGraph] = None,
    *,
    stats: Optional[ForestStats] = None,
) -> AllPairsRoutes:
    """All canonical route trees, identical to
    :func:`~repro.routing.allpairs.all_pairs_lcp` down to dict order,
    held as the forest's rows (:class:`ForestTrees`).

    Destinations are solved in ascending dense order, as many per
    block as the element budget allows.  Raises
    :class:`DisconnectedGraphError` with the reference message -- the
    first destination, in ``graph.nodes`` order, that some node cannot
    reach.
    """
    flat = flat if flat is not None else build_flat_graph(graph)
    stats = stats if stats is not None else ForestStats()
    size = max(1, _BLOCK_ELEMENTS // max(1, flat.num_stored))
    n = flat.num_nodes
    degree = np.diff(flat.indptr)
    tails = np.repeat(np.arange(n, dtype=np.int64), degree)
    heads = flat.indices.astype(np.int64)
    # The graph is undirected, so the transpose of w(u -> v) = c_v keeps
    # the CSR structure and weighs row u's entries c_u; stored zeros
    # stay stored, so zero-cost nodes remain reachable.
    transposed = csr_matrix(
        (flat.costs[tails], flat.indices, flat.indptr), shape=(n, n), copy=False
    )
    through = flat.costs[heads]
    blocks: List[ForestBlock] = []
    for start in range(0, n, size):
        block = np.arange(start, min(start + size, n), dtype=np.int64)
        dist = _csgraph_dijkstra(transposed, directed=True, indices=block)
        _raise_if_disconnected(flat, block, dist)
        stats.blocks += 1
        blocks.append(
            _resolve_block(graph, flat, block, dist, tails, heads, through, stats)
        )
    return AllPairsRoutes(graph=graph, trees=ForestTrees(graph, flat, blocks, size))
