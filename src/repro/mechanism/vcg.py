"""Theorem 1: the unique strategyproof pricing scheme.

For a biconnected graph with selected LCPs, the per-packet price paid to
transit node ``k`` for a packet from ``i`` to ``j`` is

    ``p^k_ij = c_k + Cost(P_{-k}(c; i, j)) - Cost(P(c; i, j))``

when ``k`` is a transit node on the selected LCP, and ``0`` otherwise
(Eq. 1 of the paper).  :func:`compute_price_table` evaluates this for
every ordered pair, batching the k-avoiding Dijkstras per destination.

Every engine returns the same array-native :class:`PriceTable`: the
sparse, pair-major columns the flat sweep produces
(:class:`repro.routing.flatsweep.FlatPriceArrays`), with accessors that
read one pair's slice and a read-only :class:`PriceRows` mapping view.
No engine builds a dict-of-dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Dict,
    ItemsView,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

import repro.obs as obs_mod
from repro.devtools import sanitize as sanitize_checks
from repro.exceptions import MechanismError, NotBiconnectedError
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.routing.allpairs import AllPairsRoutes, all_pairs_lcp
from repro.routing.avoiding import avoiding_costs_for_destination, avoiding_tree
from repro.routing.dijkstra import RouteTree
from repro.types import Cost, NodeId, is_zero_cost

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.routing.engines import EngineSpec
    from repro.routing.flatsweep import FlatPriceArrays

PriceRow = Dict[NodeId, Cost]
PairKey = Tuple[NodeId, NodeId]


@dataclass(frozen=True, eq=False)
class PriceTable:
    """All per-packet VCG prices for one routing instance.

    Theorem 1 pays only the transit nodes of each selected LCP, so the
    table is sparse and stored pair-major, in read-only columns:

    * :attr:`node_ids` -- node ids, ascending; a node's position is the
      *dense index* the other columns hold;
    * :attr:`pair_src` / :attr:`pair_dst` -- the dense endpoints of
      every pair whose selected path has a transit node (direct links
      are not stored), in ascending ``(destination, source)`` order;
    * :attr:`pair_offset` -- pair ``p`` owns the entries
      ``pair_offset[p] : pair_offset[p + 1]`` of
    * :attr:`entry_k` / :attr:`prices` -- each transit node ``k``
      (dense) and its price ``p^k_ij``, in path order from the source.

    A lookup maps the two endpoints to dense indices, binary-searches
    the pair's ``destination * n + source`` code and reads one slice.
    :attr:`rows` is the read-only ``(source, destination) -> {k:
    price}`` view; it and :meth:`row` build a fresh dict per pair asked
    for and never the whole table.  Prices for nodes off the LCP are
    zero and not stored.
    """

    routes: AllPairsRoutes
    node_ids: np.ndarray = field(repr=False)
    pair_src: np.ndarray = field(repr=False)
    pair_dst: np.ndarray = field(repr=False)
    pair_offset: np.ndarray = field(repr=False)
    entry_k: np.ndarray = field(repr=False)
    prices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for column in (
            self.node_ids,
            self.pair_src,
            self.pair_dst,
            self.pair_offset,
            self.entry_k,
            self.prices,
        ):
            column.setflags(write=False)

    @classmethod
    def from_arrays(
        cls, routes: AllPairsRoutes, arrays: "FlatPriceArrays"
    ) -> "PriceTable":
        """The flat sweep's output, its columns passed through as-is."""
        return cls(
            routes=routes,
            node_ids=arrays.node_ids,
            pair_src=arrays.pair_src,
            pair_dst=arrays.pair_dst,
            pair_offset=arrays.pair_offset,
            entry_k=arrays.entry_k,
            prices=arrays.prices,
        )

    @classmethod
    def from_destinations(
        cls,
        routes: AllPairsRoutes,
        node_ids: np.ndarray,
        parts: Sequence["DestinationPrices"],
    ) -> "PriceTable":
        """Concatenate per-destination slices, given in ascending
        destination order, into one table."""
        widths = _concat([part.pair_width for part in parts], np.int64)
        pair_offset = np.zeros(widths.shape[0] + 1, dtype=np.int64)
        np.cumsum(widths, out=pair_offset[1:])
        pair_dst = np.repeat(
            np.array([part.destination for part in parts], dtype=np.int64),
            [part.pair_src.shape[0] for part in parts],
        )
        return cls(
            routes=routes,
            node_ids=node_ids,
            pair_src=_concat([part.pair_src for part in parts], np.int64),
            pair_dst=pair_dst,
            pair_offset=pair_offset,
            entry_k=_concat([part.entry_k for part in parts], np.int64),
            prices=_concat([part.prices for part in parts], np.float64),
        )

    @property
    def num_pairs(self) -> int:
        return int(self.pair_src.shape[0])

    @property
    def rows(self) -> "PriceRows":
        """Read-only ``(source, destination) -> {k: price}`` view."""
        return PriceRows(self)

    def price(self, k: NodeId, source: NodeId, destination: NodeId) -> Cost:
        """``p^k_{source,destination}`` (zero when off the LCP)."""
        bounds = self._slice(source, destination)
        dense_k = self._index.get(k)
        if bounds is None or dense_k is None:
            return 0.0
        start, stop = bounds
        transit = self.entry_k[start:stop].tolist()
        if dense_k not in transit:
            return 0.0
        return float(self.prices[start + transit.index(dense_k)])

    def row(self, source: NodeId, destination: NodeId) -> PriceRow:
        """All stored prices for one pair, keyed by transit node in path
        order (a fresh dict; empty for a direct link)."""
        bounds = self._slice(source, destination)
        if bounds is None:
            return {}
        return self._row_at(*bounds)

    def pairs(self) -> Tuple[PairKey, ...]:
        """Every priced pair, sorted by ``(source, destination)``."""
        order = np.lexsort((self.pair_dst, self.pair_src))
        return tuple(
            zip(
                self.node_ids[self.pair_src[order]].tolist(),
                self.node_ids[self.pair_dst[order]].tolist(),
            )
        )

    def items(self) -> ItemsView[PairKey, PriceRow]:
        """``(pair, row)`` in ``(destination, source)`` order."""
        return self.rows.items()

    def __iter__(self) -> Iterator[PairKey]:
        return iter(self.pairs())

    def total_price(self, source: NodeId, destination: NodeId) -> Cost:
        """Sum of per-packet prices paid for one packet on this pair --
        what the *endpoints' side* of the economy pays per packet."""
        bounds = self._slice(source, destination)
        if bounds is None:
            return 0.0
        start, stop = bounds
        # Python's left-to-right sum, as over the row's values.
        return float(sum(self.prices[start:stop].tolist()))

    def node_prices(self, k: NodeId) -> Dict[PairKey, Cost]:
        """Every pair on whose selected path node *k* is transit, with
        its price, in the table's pair order."""
        dense_k = self._index.get(k)
        if dense_k is None:
            return {}
        entries = np.flatnonzero(self.entry_k == dense_k)
        owners = np.searchsorted(self.pair_offset, entries, side="right") - 1
        pairs = zip(
            self.node_ids[self.pair_src[owners]].tolist(),
            self.node_ids[self.pair_dst[owners]].tolist(),
        )
        return dict(zip(pairs, self.prices[entries].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PriceTable):
            return NotImplemented
        return self.routes == other.routes and self.rows == other.rows

    # ------------------------------------------------------------------
    # Lookup internals
    # ------------------------------------------------------------------
    @cached_property
    def _index(self) -> Dict[NodeId, int]:
        return {node: position for position, node in enumerate(self.node_ids.tolist())}

    @cached_property
    def _pair_codes(self) -> np.ndarray:
        n = int(self.node_ids.shape[0])
        return self.pair_dst.astype(np.int64) * n + self.pair_src

    def _slice(
        self, source: NodeId, destination: NodeId
    ) -> Optional[Tuple[int, int]]:
        """Entry bounds of one pair, or ``None`` when it is not stored."""
        index = self._index
        dense_source = index.get(source)
        dense_destination = index.get(destination)
        if dense_source is None or dense_destination is None:
            return None
        code = dense_destination * int(self.node_ids.shape[0]) + dense_source
        codes = self._pair_codes
        position = int(codes.searchsorted(code))
        if position == codes.shape[0] or codes[position] != code:
            return None
        return int(self.pair_offset[position]), int(self.pair_offset[position + 1])

    def _row_at(self, start: int, stop: int) -> PriceRow:
        transit = self.node_ids[self.entry_k[start:stop]].tolist()
        return dict(zip(transit, self.prices[start:stop].tolist()))

    def _pair_keys(self) -> Iterator[PairKey]:
        return zip(
            self.node_ids[self.pair_src].tolist(),
            self.node_ids[self.pair_dst].tolist(),
        )

    def _iter_rows(self) -> Iterator[Tuple[PairKey, PriceRow]]:
        """Every ``(pair, row)`` from one bulk conversion per column."""
        transit = self.node_ids[self.entry_k].tolist()
        prices = self.prices.tolist()
        offsets = self.pair_offset.tolist()
        for position, pair in enumerate(self._pair_keys()):
            start, stop = offsets[position], offsets[position + 1]
            yield pair, dict(zip(transit[start:stop], prices[start:stop]))


class PriceRows(Mapping[PairKey, PriceRow]):
    """Read-only ``(source, destination) -> {k: price}`` view of a
    :class:`PriceTable`, iterated in the table's ``(destination,
    source)`` order.

    ``rows[pair]`` binary-searches one pair and builds only its row, as
    a fresh dict; ``in`` builds nothing; iterating the items converts
    each column once.  There is no item assignment, so the
    table cannot be changed through it.
    """

    __slots__ = ("_table",)

    def __init__(self, table: PriceTable) -> None:
        self._table = table

    def _locate(self, pair: object) -> Optional[Tuple[int, int]]:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return None
        return self._table._slice(pair[0], pair[1])

    def __getitem__(self, pair: PairKey) -> PriceRow:
        bounds = self._locate(pair)
        if bounds is None:
            raise KeyError(pair)
        return self._table._row_at(*bounds)

    def __contains__(self, pair: object) -> bool:
        return self._locate(pair) is not None

    def __len__(self) -> int:
        return self._table.num_pairs

    def __iter__(self) -> Iterator[PairKey]:
        return self._table._pair_keys()

    def items(self) -> ItemsView[PairKey, PriceRow]:
        return _RowItems(self)

    def __repr__(self) -> str:
        return f"<PriceRows: {len(self)} pairs>"


class _RowItems(ItemsView):  # type: ignore[type-arg]
    """Items iterated from one bulk conversion per column."""

    def __iter__(self) -> Iterator[Tuple[PairKey, PriceRow]]:
        return self._mapping._table._iter_rows()


@dataclass(frozen=True)
class DestinationPrices:
    """One destination's slice of the table columns, in dense indices:
    its priced sources ascending, each source's transit count, and the
    transit nodes and prices in path order."""

    destination: int
    pair_src: np.ndarray
    pair_width: np.ndarray
    entry_k: np.ndarray
    prices: np.ndarray


def _concat(parts: List[np.ndarray], dtype: type) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def price_destination(
    graph: ASGraph,
    tree: RouteTree,
    detours: Mapping[NodeId, RouteTree],
    index: Mapping[NodeId, int],
) -> DestinationPrices:
    """The Theorem 1 sweep for the destination of *tree*.

    *detours* maps each transit node ``k`` (``tree.transit_nodes()``)
    to its ``G - k`` tree toward the same destination, and *index* maps
    node ids to dense indices.  Each source's transit nodes are read by
    walking its parents, so no path is spelled, and the detour costs and
    declared costs are read from their dicts, not through a method per
    entry.  The first undefined or negative price, in source order then
    path order, raises.
    """
    destination = tree.destination
    parents, lcp_costs = tree.parents, tree.costs
    _, declared, _ = graph.routing_inputs()
    detour_costs = {k: detour.costs for k, detour in detours.items()}
    pair_src: List[int] = []
    pair_width: List[int] = []
    entry_k: List[int] = []
    prices: List[Cost] = []
    for source in tree.sources():
        k = parents[source]
        if k == destination:
            continue  # direct link: no transit nodes, no prices
        width = 0
        while k != destination:
            detour_cost = detour_costs[k].get(source)
            if detour_cost is None:
                raise NotBiconnectedError(
                    message=(
                        f"price p^{k}_{{{source},{destination}}} undefined: "
                        f"no {k}-avoiding path (graph not biconnected)"
                    )
                )
            price = declared[k] + detour_cost - lcp_costs[source]
            if price < -1e-9:
                raise MechanismError(
                    f"negative VCG price {price} for k={k}, pair "
                    f"({source}, {destination}); avoiding cost below LCP cost"
                )
            entry_k.append(index[k])
            prices.append(price)
            width += 1
            k = parents[k]
        pair_src.append(index[source])
        pair_width.append(width)
    return DestinationPrices(
        destination=index[destination],
        pair_src=np.array(pair_src, dtype=np.int64),
        pair_width=np.array(pair_width, dtype=np.int64),
        entry_k=np.array(entry_k, dtype=np.int64),
        prices=np.array(prices, dtype=np.float64),
    )


def vcg_price(
    graph: ASGraph,
    source: NodeId,
    destination: NodeId,
    k: NodeId,
    routes: Optional[AllPairsRoutes] = None,
) -> Cost:
    """Single price ``p^k_ij`` straight from the Theorem 1 formula.

    Reference implementation used by the tests to cross-check the
    batched table; computes one k-avoiding Dijkstra.
    """
    routes = routes or all_pairs_lcp(graph)
    tree = routes.tree(destination)
    if not tree.on_path(k, source):
        return 0.0
    detour = avoiding_tree(graph, destination, k)
    if not detour.has_route(source):
        raise NotBiconnectedError(
            message=(
                f"price p^{k}_{{{source},{destination}}} undefined: no "
                f"{k}-avoiding path (graph not biconnected)"
            )
        )
    return graph.cost(k) + detour.cost(source) - tree.cost(source)


def compute_price_table(
    graph: ASGraph,
    routes: Optional[AllPairsRoutes] = None,
    *,
    engine: Optional["EngineSpec"] = None,
    sanitize: Optional[bool] = None,
    obs: Optional[obs_mod.Obs] = None,
) -> PriceTable:
    """All-pairs VCG prices, batched per (destination, k).

    For each destination ``j`` and each node ``k`` that is transit on
    *some* selected path toward ``j``, a single Dijkstra on ``G - k``
    rooted at ``j`` provides ``Cost(P_{-k}(c; i, j))`` for every source
    ``i`` simultaneously.

    Keyword-only knobs (same names, order, and defaults as
    :func:`repro.routing.allpairs.all_pairs_lcp`):

    *engine* selects a registered backend by name or instance from
    :mod:`repro.routing.engines` -- ``"flat"`` runs the batched,
    demand-restricted sweep, ``"incremental"`` warm-starts from a
    previous graph.  The default (``None`` or ``"reference"``) is the
    serial reference loop below; every engine returns the same table
    per the differential test harness.

    *sanitize* overrides the global sanitizer toggle for the whole
    call: ``True`` runs it with the sanitizer on (the routes and
    :func:`repro.devtools.sanitize.check_price_table` on the result),
    ``False`` with it off, ``None`` (default) follows the global toggle.

    *obs* names an explicit :class:`repro.obs.Obs` observer; ``None``
    reports to the global default observer iff observability is
    enabled.  Observed runs execute under a ``mechanism.price_table``
    span and count ``mechanism.price_rows`` throughput.
    """
    if sanitize is None:
        return _compute_price_table(graph, routes, engine, obs)
    with sanitize_checks.sanitized(bool(sanitize)):
        return _compute_price_table(graph, routes, engine, obs)


def _compute_price_table(
    graph: ASGraph,
    routes: Optional[AllPairsRoutes],
    engine: Optional["EngineSpec"],
    obs: Optional[obs_mod.Obs],
) -> PriceTable:
    observer = obs_mod.active(obs)
    if engine is not None and engine != "reference":
        from repro.routing.engines import resolve_engine

        # Engines check their own tables under the sanitizer toggle.
        resolved = resolve_engine(engine)
        if observer is None:
            return resolved.price_table(graph, routes=routes, obs=obs)
        with observer.span(metric_names.SPAN_PRICE_TABLE, engine=resolved.name):
            return resolved.price_table(graph, routes=routes, obs=obs)
    if observer is None:
        table = _price_table_reference(graph, routes, obs=obs)
    else:
        with observer.span(metric_names.SPAN_PRICE_TABLE, engine="reference"):
            table = _price_table_reference(graph, routes, obs=obs)
        observer.count(metric_names.PRICE_ROWS, table.num_pairs, engine="reference")
    if sanitize_checks.enabled():
        sanitize_checks.check_price_table(graph, table)
    return table


def _price_table_reference(
    graph: ASGraph,
    routes: Optional[AllPairsRoutes],
    obs: Optional[obs_mod.Obs] = None,
) -> PriceTable:
    """The serial semantics-defining Theorem 1 sweep."""
    if routes is None:
        routes = all_pairs_lcp(graph, obs=obs)
    index = graph.index_of()
    parts: List[DestinationPrices] = []
    for destination in graph.nodes:
        tree = routes.tree(destination)
        detours = avoiding_costs_for_destination(graph, destination, tree.transit_nodes())
        parts.append(price_destination(graph, tree, detours, index))
    node_ids = np.array(graph.nodes, dtype=np.int64)
    return PriceTable.from_destinations(routes, node_ids, parts)


def payments(
    table: PriceTable,
    traffic: Mapping[PairKey, float],
) -> Dict[NodeId, Cost]:
    """Total payment ``p_k = sum_ij T_ij p^k_ij`` per node.

    *traffic* maps ordered pairs to packet intensities ``T_ij``; missing
    pairs carry zero traffic.  Nodes earning nothing are present with
    payment ``0.0`` so that the no-transit-no-payment property is
    directly observable.
    """
    totals: Dict[NodeId, Cost] = {node: 0.0 for node in table.routes.graph.nodes}
    for (source, destination), intensity in traffic.items():
        if is_zero_cost(intensity):
            continue
        if intensity < 0:
            raise MechanismError(
                f"negative traffic intensity {intensity} for pair "
                f"({source}, {destination})"
            )
        for k, price in table.row(source, destination).items():
            totals[k] += intensity * price
    return totals
