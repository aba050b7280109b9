"""Vectorized demand inversion + the flat price sweep.

This module is the core of the ``flat`` engine.  It owns the two
moves that take the Theorem 1 price sweep past n = 10,000:

1. **Vectorized inversion.**  One demand builder,
   :func:`demand_from_routes`, flattens the canonical routes into
   per-transit-node demand by numpy path-unrolling over dense parent
   rows -- no per-(source, destination) Python iteration.  Routes from
   the canonical forest builder (:mod:`repro.routing.forest`, the
   ``flat`` engine's ``all_pairs``) already hold those rows and are
   read as they are; routes held as dicts of trees (the reference and
   incremental engines) are densified a block of destinations at a
   time first.  The resulting
   :class:`FlatDemand` keeps every demanded ``(i, j, k)`` entry in the
   reference engine's scan order (destination ascending, source
   ascending, transit in path order), so an entry's position *is* its
   reference sequence number and violation witnesses stay exact.

2. **Group-contiguous evaluation.**  Entries are stably sorted by
   transit node once, and the per-pair source/destination/LCP columns
   are gathered into that order once -- each transit node's work is
   then a pair of contiguous array slices, with no per-group fancy
   indexing on the hot path.  :func:`sweep_demand` prices the groups
   one after another, one masked Dijkstra each, and raises the
   minimal-sequence violation across all groups with the reference
   error class and message.  Prices land in a flat array
   (:class:`FlatPriceArrays`) whose columns are, as they are, the
   :class:`~repro.mechanism.vcg.PriceTable` every engine returns;
   nothing per-entry touches a Python dict.  The dict-of-dicts
   :meth:`FlatPriceArrays.to_rows` is no engine's path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.exceptions import MechanismError, NotBiconnectedError
from repro.graphs.asgraph import ASGraph
from repro.routing.flatgraph import FlatGraph, build_flat_graph
from repro.routing.forest import ForestTrees, canonical_routes, densify_tree
from repro.types import Cost, NodeId

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.mechanism.vcg import PriceRow
    from repro.routing.allpairs import AllPairsRoutes

__all__ = [
    "FlatDemand",
    "FlatPriceArrays",
    "FlatSweepStats",
    "demand_from_routes",
    "flat_price_arrays",
    "sweep_demand",
]

#: Tolerance of the defensive negative-price guard; identical to the
#: reference sweep's literal so both paths trip on the same values.
_NEGATIVE_PRICE_EPS = -1e-9

#: Dense parent/cost slots per block when :func:`demand_from_routes`
#: densifies route trees: ``_ROUTE_BLOCK_SLOTS // n`` destinations each.
_ROUTE_BLOCK_SLOTS = 1 << 16


@dataclass
class FlatSweepStats:
    """Work accounting of one flat price sweep (obs + benchmark gates).

    ``solves`` counts masked Dijkstra calls (one per distinct transit
    node), ``rows`` the distance rows computed across them (the
    demand-restriction + orientation win: without either it would be
    ``solves * n``), ``masked`` the stored entries masked in place,
    ``entries`` the demanded ``(i, j, k)`` price evaluations, and
    ``max_block_rows`` the largest single distance block held alive --
    the peak-memory driver, bounded by ``max_k |sources_k|``.
    """

    solves: int = 0
    rows: int = 0
    masked: int = 0
    entries: int = 0
    max_block_rows: int = 0


@dataclass
class FlatDemand:
    """The demanded ``(i, j, k)`` price entries as flat arrays.

    Two coexisting orders describe the same entries:

    * **sequence order** -- the reference engine's scan order.  Entry
      ``e``'s position in :attr:`entry_k` is its global sequence
      number; :attr:`pair_offset` slices the entries of priced pair
      ``p`` out of it.
    * **group order** -- entries stably sorted by transit node.
      :attr:`order` maps a group-order position back to its sequence
      number, and :attr:`src_by_k` / :attr:`dst_by_k` /
      :attr:`lcp_by_k` are the per-entry solve columns pre-gathered
      into group order, so transit node ``group_k[g]``'s whole demand
      is the contiguous slice ``group_ptr[g] : group_ptr[g + 1]``.
    """

    flat: FlatGraph
    #: per priced pair: dense endpoints, selected-LCP transit cost, and
    #: the offsets of its entries in sequence order.
    pair_src: np.ndarray = field(repr=False)
    pair_dst: np.ndarray = field(repr=False)
    pair_lcp: np.ndarray = field(repr=False)
    pair_offset: np.ndarray = field(repr=False)
    #: per entry, sequence order: dense transit node.
    entry_k: np.ndarray = field(repr=False)
    #: group order -> sequence number (stable argsort of entry_k).
    order: np.ndarray = field(repr=False)
    #: per entry, group order: solve columns.
    src_by_k: np.ndarray = field(repr=False)
    dst_by_k: np.ndarray = field(repr=False)
    lcp_by_k: np.ndarray = field(repr=False)
    #: per group: dense transit node and slice bounds into group order.
    group_k: np.ndarray = field(repr=False)
    group_ptr: np.ndarray = field(repr=False)

    @property
    def num_pairs(self) -> int:
        return int(self.pair_src.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.entry_k.shape[0])

    @property
    def num_groups(self) -> int:
        return int(self.group_k.shape[0])


@dataclass
class FlatPriceArrays:
    """A priced table as flat arrays -- the sweep's native output.

    Pair ``p`` is ``(node_ids[pair_src[p]], node_ids[pair_dst[p]])``,
    pairs ascending by ``(destination, source)``; its transit nodes and
    prices are the slice ``pair_offset[p] : pair_offset[p + 1]`` of
    :attr:`entry_k` / :attr:`prices` (path order).  This is the layout
    of :class:`~repro.mechanism.vcg.PriceTable`, which the ``flat``
    engine builds from these columns without copying them.
    """

    node_ids: np.ndarray = field(repr=False)
    pair_src: np.ndarray = field(repr=False)
    pair_dst: np.ndarray = field(repr=False)
    pair_offset: np.ndarray = field(repr=False)
    entry_k: np.ndarray = field(repr=False)
    #: per entry, sequence order: the Theorem 1 price ``p^k_ij``.
    prices: np.ndarray = field(repr=False)
    stats: FlatSweepStats = field(default_factory=FlatSweepStats)

    @property
    def num_pairs(self) -> int:
        return int(self.pair_src.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.entry_k.shape[0])

    def to_rows(self) -> Dict[Tuple[NodeId, NodeId], "PriceRow"]:
        """Materialize the ``(source, destination) -> {k: price}`` dicts.

        One bulk ``tolist`` per column and one ``dict(zip(...))`` per
        pair.  No engine calls this: the ``PriceTable`` reads these
        arrays directly.
        """
        src_ids = self.node_ids[self.pair_src].tolist()
        dst_ids = self.node_ids[self.pair_dst].tolist()
        transit_ids = self.node_ids[self.entry_k].tolist()
        price_values = self.prices.tolist()
        offsets = self.pair_offset.tolist()
        rows: Dict[Tuple[NodeId, NodeId], Dict[NodeId, Cost]] = {}
        for position in range(self.num_pairs):
            start, stop = offsets[position], offsets[position + 1]
            rows[(src_ids[position], dst_ids[position])] = dict(
                zip(transit_ids[start:stop], price_values[start:stop])
            )
        return rows


# ----------------------------------------------------------------------
# Demand construction: numpy path-unrolling over parent arrays.
# ----------------------------------------------------------------------


def _unroll_parents(
    parent: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized transit extraction from a flattened parent forest.

    ``parent[g]`` is the flattened position of ``g``'s next hop toward
    its root, or ``-1`` for roots and unreachable slots.  A position is
    a transit hop of ``g``'s path iff it lies strictly between ``g``
    and the root, i.e. while its own parent pointer is still set.

    Returns ``(sources, widths, entries)``: the flattened positions
    whose paths have at least one transit hop, their transit counts,
    and the concatenated transit chains in path order.  The unroll is
    level-synchronous -- iteration count is the maximum hop count, with
    all paths advanced per level in numpy -- and reproduces the
    per-path Python walk's order exactly.
    """
    routed = np.flatnonzero(parent >= 0)
    first_hop = parent[routed]
    width = np.zeros(routed.shape[0], dtype=np.int64)
    alive = np.flatnonzero(parent[first_hop] >= 0)
    cursor = first_hop[alive]
    while alive.size:
        width[alive] += 1
        ahead = parent[cursor]
        keep = parent[ahead] >= 0
        alive = alive[keep]
        cursor = ahead[keep]
    priced = np.flatnonzero(width)
    sources = routed[priced]
    widths = width[priced]
    offsets = np.zeros(widths.shape[0] + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    entries = np.empty(int(offsets[-1]), dtype=np.int64)
    alive = np.arange(sources.shape[0], dtype=np.int64)
    cursor = parent[sources]
    level = 0
    while alive.size:
        entries[offsets[alive] + level] = cursor
        level += 1
        keep = widths[alive] > level
        alive = alive[keep]
        cursor = parent[cursor[keep]]
    return sources, widths, entries


def _finalize_demand(
    flat: FlatGraph,
    pair_src: np.ndarray,
    pair_dst: np.ndarray,
    pair_lcp: np.ndarray,
    pair_width: np.ndarray,
    entry_k: np.ndarray,
) -> FlatDemand:
    """Group the sequence-ordered demand by transit node, once."""
    pairs = int(pair_src.shape[0])
    entries = int(entry_k.shape[0])
    pair_offset = np.zeros(pairs + 1, dtype=np.int64)
    np.cumsum(pair_width, out=pair_offset[1:])
    # A stable sort keeps each transit node's entries in sequence
    # order, so within a group the minimal-sequence witness is simply
    # the first violating entry.
    order = np.argsort(entry_k, kind="stable")
    entry_pair = np.repeat(np.arange(pairs, dtype=np.int64), pair_width)
    pair_by_k = entry_pair[order]
    src_by_k = pair_src[pair_by_k]
    dst_by_k = pair_dst[pair_by_k]
    lcp_by_k = pair_lcp[pair_by_k]
    k_sorted = entry_k[order]
    if entries:
        bounds = np.flatnonzero(k_sorted[1:] != k_sorted[:-1]) + 1
        group_ptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), bounds, np.asarray([entries])]
        ).astype(np.int64)
        group_k = k_sorted[group_ptr[:-1]].astype(np.int64)
    else:
        group_ptr = np.zeros(1, dtype=np.int64)
        group_k = np.empty(0, dtype=np.int64)
    return FlatDemand(
        flat=flat,
        pair_src=pair_src,
        pair_dst=pair_dst,
        pair_lcp=pair_lcp,
        pair_offset=pair_offset,
        entry_k=entry_k,
        order=order,
        src_by_k=src_by_k,
        dst_by_k=dst_by_k,
        lcp_by_k=lcp_by_k,
        group_k=group_k,
        group_ptr=group_ptr,
    )


#: One block of canonical trees: dense destination ids ``(B,)``, next
#: hops ``(B, n)`` (``-1`` at each root) and transit costs ``(B, n)``.
_ForestRows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _demand_from_blocks(flat: FlatGraph, blocks: Iterable[_ForestRows]) -> FlatDemand:
    """Invert blocks of canonical trees into per-transit-node demand.

    Each block is flattened into one forest -- row ``b``'s slots live
    at ``[b * n, (b + 1) * n)`` with its parent pointers offset to
    match -- and unrolled with :func:`_unroll_parents`.  Blocks arrive
    in ascending destination order and flattened positions ascend
    (destination, source), which is exactly the reference sweep's scan
    order: entry positions are reference sequence numbers.
    """
    n = flat.num_nodes
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    lcp_parts: List[np.ndarray] = []
    width_parts: List[np.ndarray] = []
    entry_parts: List[np.ndarray] = []
    for destinations, parent, cost in blocks:
        base = (np.arange(destinations.shape[0], dtype=np.int64) * n)[:, np.newaxis]
        forest = np.where(parent >= 0, parent + base, -1).ravel()
        sources, widths, entries = _unroll_parents(forest)
        src_parts.append((sources % n).astype(np.int32))
        dst_parts.append(destinations[sources // n].astype(np.int32))
        lcp_parts.append(cost.ravel()[sources])
        width_parts.append(widths)
        entry_parts.append((entries % n).astype(np.int32))
    return _finalize_demand(
        flat,
        _concat(src_parts, np.int32),
        _concat(dst_parts, np.int32),
        _concat(lcp_parts, np.float64),
        _concat(width_parts, np.int64),
        _concat(entry_parts, np.int32),
    )


def demand_from_routes(
    graph: ASGraph,
    routes: "AllPairsRoutes",
    flat: Optional[FlatGraph] = None,
) -> FlatDemand:
    """Invert the canonical routes into per-transit-node demand.

    Routes built by :func:`repro.routing.forest.canonical_routes` are
    read from the forest rows they hold, building no tree.  Any other
    routes are densified a block of destinations at a time
    (:func:`repro.routing.forest.densify_tree`, the only Python-level
    work).  Both feed the same inversion.
    """
    flat = flat if flat is not None else build_flat_graph(graph)
    trees = routes.trees
    if isinstance(trees, ForestTrees):
        blocks: Iterable[_ForestRows] = (
            (block.destinations, block.parent, block.cost) for block in trees.blocks
        )
    else:
        blocks = _route_blocks(routes, flat)
    return _demand_from_blocks(flat, blocks)


def _route_blocks(routes: "AllPairsRoutes", flat: FlatGraph) -> Iterator[_ForestRows]:
    n = flat.num_nodes
    node_ids = flat.node_ids
    size = max(1, _ROUTE_BLOCK_SLOTS // max(1, n))
    for start in range(0, n, size):
        destinations = np.arange(start, min(start + size, n), dtype=np.int64)
        parent = np.full((destinations.shape[0], n), -1, dtype=np.int64)
        cost = np.zeros((destinations.shape[0], n), dtype=np.float64)
        for row, destination in enumerate(node_ids[destinations].tolist()):
            densify_tree(routes.tree(destination), node_ids, parent[row], cost[row])
        yield destinations, parent, cost


def _concat(parts: List[np.ndarray], dtype: type) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts)


# ----------------------------------------------------------------------
# Group evaluation: one masked Dijkstra per transit node.
# ----------------------------------------------------------------------

#: A violation candidate: (global sequence, kind [0 = infinite detour,
#: 1 = negative price], dense k, dense source, dense destination,
#: price).  The minimum sequence across all groups is the witness the
#: reference sweep would raise first.
_Violation = Tuple[int, int, int, int, int, float]


def _evaluate_group(
    flat: FlatGraph,
    dense_k: int,
    src: np.ndarray,
    dst: np.ndarray,
    lcp: np.ndarray,
    stats: FlatSweepStats,
) -> Tuple[np.ndarray, Optional[Tuple[int, int, float]]]:
    """Price one transit node's demanded entries in bulk.

    Returns the entry prices (same order as *src*) and, if any entry
    has an infinite detour or a negative price, the first violating
    local index with its kind and price -- *first*, because the inputs
    arrive in sequence order, making it the group's minimal-sequence
    witness.
    """
    n = flat.num_nodes
    # Transit cost is symmetric under the w(u -> v) = c_v reduction
    # (both directions sum the same interior node costs), so each
    # *unordered* pair needs one distance row.  Orient every pair onto
    # the endpoint covering the most of this k's demand (ties to the
    # smaller dense index): for the near-bipartite demand a popular
    # transit node induces, this collapses the Dijkstra sources onto
    # the small side.
    lo = np.minimum(src, dst).astype(np.int64)
    hi = np.maximum(src, dst).astype(np.int64)
    unordered, member = np.unique(lo * n + hi, return_inverse=True)
    u_lo = unordered // n
    u_hi = unordered - u_lo * n
    cover = np.bincount(u_lo, minlength=n) + np.bincount(u_hi, minlength=n)
    lo_wins = (cover[u_lo] > cover[u_hi]) | (
        (cover[u_lo] == cover[u_hi]) & (u_lo < u_hi)
    )
    solver = np.where(lo_wins, u_lo, u_hi)
    other = np.where(lo_wins, u_hi, u_lo)
    sources = np.unique(solver)

    with flat.masked(dense_k) as matrix:
        block = _csgraph_dijkstra(
            matrix,
            directed=True,
            indices=sources,
            return_predecessors=False,
        )
    stats.solves += 1
    stats.rows += int(sources.shape[0])
    stats.masked += flat.degree(dense_k)
    stats.max_block_rows = max(stats.max_block_rows, int(sources.shape[0]))

    u_detour = block[np.searchsorted(sources, solver), other] - flat.costs[other]
    detour = u_detour[member]
    prices = flat.costs[dense_k] + detour - lcp

    infinite = ~np.isfinite(detour)
    negative = ~infinite & (prices < _NEGATIVE_PRICE_EPS)
    if infinite.any() or negative.any():
        at = int(np.flatnonzero(infinite | negative)[0])
        return prices, (at, 0 if infinite[at] else 1, float(prices[at]))
    return prices, None


def _raise_reference_error(flat: FlatGraph, violation: _Violation) -> None:
    """Raise the violation exactly as the reference sweep would."""
    _sequence, kind, ki, si, dj, price = violation
    k = int(flat.node_ids[ki])
    source = int(flat.node_ids[si])
    destination = int(flat.node_ids[dj])
    if kind == 0:
        raise NotBiconnectedError(
            message=(
                f"price p^{k}_{{{source},{destination}}} undefined: "
                f"no {k}-avoiding path (graph not biconnected)"
            )
        )
    raise MechanismError(
        f"negative VCG price {price} for k={k}, pair "
        f"({source}, {destination}); avoiding cost below LCP cost"
    )


def sweep_demand(
    demand: FlatDemand,
    *,
    stats: Optional[FlatSweepStats] = None,
) -> FlatPriceArrays:
    """Run the avoiding sweep over *demand*; returns the priced arrays.

    One masked Dijkstra per transit group, every group in turn.  A
    group reports its first violating entry; after the loop the
    candidate with the smallest sequence number -- the one the
    reference sweep meets first -- is raised with the reference's
    error class and message.
    """
    stats = stats if stats is not None else FlatSweepStats()
    stats.entries = demand.num_entries
    group_ptr = demand.group_ptr.tolist()
    prices_by_k = np.empty(demand.num_entries, dtype=np.float64)
    best: Optional[_Violation] = None
    for group, dense_k in enumerate(demand.group_k.tolist()):
        start, stop = group_ptr[group], group_ptr[group + 1]
        prices, bad = _evaluate_group(
            demand.flat,
            dense_k,
            demand.src_by_k[start:stop],
            demand.dst_by_k[start:stop],
            demand.lcp_by_k[start:stop],
            stats,
        )
        prices_by_k[start:stop] = prices
        if bad is not None:
            at, kind, price = bad
            candidate: _Violation = (
                int(demand.order[start + at]),
                kind,
                dense_k,
                int(demand.src_by_k[start + at]),
                int(demand.dst_by_k[start + at]),
                price,
            )
            if best is None or candidate[0] < best[0]:
                best = candidate
    if best is not None:
        _raise_reference_error(demand.flat, best)
    prices = np.empty(demand.num_entries, dtype=np.float64)
    prices[demand.order] = prices_by_k
    return FlatPriceArrays(
        node_ids=demand.flat.node_ids,
        pair_src=demand.pair_src,
        pair_dst=demand.pair_dst,
        pair_offset=demand.pair_offset,
        entry_k=demand.entry_k,
        prices=prices,
        stats=stats,
    )


def flat_price_arrays(
    graph: ASGraph,
    routes: Optional["AllPairsRoutes"] = None,
    *,
    stats: Optional[FlatSweepStats] = None,
) -> FlatPriceArrays:
    """Theorem 1 prices as flat arrays: demand inversion + sweep.

    The end-to-end array-native path: the canonical routes -- *routes*,
    or :func:`repro.routing.forest.canonical_routes` when none are
    given -- are inverted into demand by :func:`demand_from_routes` and
    priced by :func:`sweep_demand`, without materializing any per-entry
    Python structure, in the layout of
    :class:`~repro.mechanism.vcg.PriceTable`.
    """
    if routes is None:
        routes = canonical_routes(graph)
    return sweep_demand(demand_from_routes(graph, routes), stats=stats)
