"""The ``flat`` engine: batched, demand-restricted, memory-bounded prices.

This is the scaling backend for the Theorem 1 price sweep.  It is a
path engine: ``all_pairs`` returns the canonical tie-broken routes --
prices are defined relative to them -- bit-identical to the reference
(same paths, same cost floats, same dict order), but built in batches
from scipy distances by :mod:`repro.routing.forest`, with destinations
whose ties the distances cannot resolve handed to the reference
kernel.  The routes hold the forest's dense rows and build a
destination's tree only when asked for it, so ``price_table`` builds
no tree beyond those tie fallbacks.  The avoiding sweep differs from
the reference in three ways that move the feasible instance size from
hundreds of nodes past ten thousand:

1. **One-shot CSR, O(deg(k)) masking.**  The directed
   ``w(u -> v) = c_v`` reduction is built once per graph epoch as flat
   numpy arrays (:mod:`repro.routing.flatgraph`); ``G - k`` masks the
   stored in-edges of ``k`` in place instead of rebuilding the matrix
   from Python edge loops per transit node.

2. **Vectorized inversion + demand restriction with symmetric
   orientation.**  The canonical routes are inverted into the transit
   relation ``k -> {(i, j) : k transit on P(c; i, j)}`` by numpy
   path-unrolling over the forest's dense parent rows -- no
   per-(source, destination) Python iteration
   (:func:`repro.routing.flatsweep.demand_from_routes`, the one demand
   builder).  Under the
   reduction the *transit* cost of a detour is direction-independent,
   so each *unordered* demanded pair needs only one distance row; every
   pair is oriented onto the endpoint that covers the most pairs of
   ``k``'s demand and the per-``k`` Dijkstra runs only from those
   solver endpoints.  Only one ``k``'s distance block is ever alive, so
   peak extra memory is O(max_k |sources_k| * n).

3. **Array-native evaluation and output.**  Per ``k``, the demanded
   entries are contiguous slices of pre-gathered arrays and
   ``p^k_ij = c_k + Cost(P_{-k}) - Cost(P)`` is evaluated in bulk; the
   priced result lives in flat arrays
   (:class:`repro.routing.flatsweep.FlatPriceArrays`) whose columns
   become the returned :class:`~repro.mechanism.vcg.PriceTable` as
   they are -- the table's own layout -- so no per-pair or per-entry
   Python object is built for the table at all.  Violations are raised
   as the same :class:`~repro.exceptions.MechanismError` /
   :class:`~repro.exceptions.NotBiconnectedError` the reference engine
   raises, with the *same deterministic witness*: candidates are
   ordered by the reference sweep's iteration order (destination
   ascending, source ascending, transit position along the path) and
   the first one wins, so differential tests see identical error
   classes and messages.

The sweep itself lives in :mod:`repro.routing.flatsweep`; it prices
the per-transit-node groups one after another in this process.

Observability: an observed run counts ``routing.flat.solves`` (masked
Dijkstra calls, one per distinct transit node), ``routing.flat.rows``
(distance rows actually computed -- the demand-restriction win) and
``routing.flat.masked`` (stored entries masked across all solves), and
its route build counts ``routing.forest.blocks`` (batched scipy
solves) and ``routing.forest.fallbacks`` (destinations whose ties
forced the reference kernel), alongside the standard engine
span/counter surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Optional

import repro.obs as obs_mod
from repro.devtools import sanitize
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.routing.engines.base import Engine
from repro.routing.flatsweep import FlatSweepStats, flat_price_arrays
from repro.routing.forest import ForestStats, canonical_routes

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.mechanism.vcg import PriceTable
    from repro.routing.allpairs import AllPairsRoutes

__all__ = ["FlatEngine", "FlatSweepStats"]


class FlatEngine(Engine):
    """Flat-CSR path engine for large price tables."""

    name: ClassVar[str] = "flat"

    # The forest build and the flat sweep produce their own counters, so
    # this engine manages the observer explicitly (same signatures as
    # the reference engine, per the RPR009 contract).
    def all_pairs(
        self,
        graph: ASGraph,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "AllPairsRoutes":
        observer = obs_mod.active(obs)
        if observer is None:
            return canonical_routes(graph)
        stats = ForestStats()
        with observer.span(metric_names.SPAN_ENGINE_ALL_PAIRS, engine=self.name):
            routes = canonical_routes(graph, stats=stats)
        observer.count(metric_names.ROUTE_TREES, len(routes.trees), engine=self.name)
        observer.count(metric_names.FOREST_BLOCKS, stats.blocks, engine=self.name)
        observer.count(
            metric_names.FOREST_FALLBACKS, stats.fallbacks, engine=self.name
        )
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
            return self._build_table(graph, routes, FlatSweepStats())
        stats = FlatSweepStats()
        with observer.span(metric_names.SPAN_ENGINE_PRICE_TABLE, engine=self.name):
            table = self._build_table(graph, routes, stats, obs=observer)
        observer.count(metric_names.PRICE_ROWS, table.num_pairs, engine=self.name)
        observer.count(metric_names.FLAT_SOLVES, stats.solves, engine=self.name)
        observer.count(metric_names.FLAT_ROWS, stats.rows, engine=self.name)
        observer.count(metric_names.FLAT_MASKED, stats.masked, engine=self.name)
        return table

    def _build_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"],
        stats: FlatSweepStats,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "PriceTable":
        from repro.mechanism.vcg import PriceTable
        from repro.routing.allpairs import all_pairs_lcp

        # Routes enter through all_pairs_lcp, so the sanitizer re-checks
        # them exactly as it checks any other engine's.
        if routes is None:
            routes = all_pairs_lcp(graph, engine=self, obs=obs)
        arrays = flat_price_arrays(graph, routes, stats=stats)
        table = PriceTable.from_arrays(routes, arrays)
        if sanitize.enabled():
            sanitize.check_price_table(graph, table)
        return table
