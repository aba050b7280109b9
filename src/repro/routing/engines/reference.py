"""The serial pure-Python reference engine.

This is the semantics-defining backend: one destination-rooted
generalized Dijkstra per destination (:func:`repro.routing.allpairs
.all_pairs_lcp`) and the per-(destination, k) avoiding sweep of
:func:`repro.mechanism.vcg.compute_price_table`, all on one core.
Every other engine is tested against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Optional

import repro.obs as obs_mod
from repro.graphs.asgraph import ASGraph
from repro.routing.engines.base import Engine

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.mechanism.vcg import PriceTable
    from repro.routing.allpairs import AllPairsRoutes


class ReferenceEngine(Engine):
    """Serial pure-Python engine; defines the canonical answers."""

    name: ClassVar[str] = "reference"

    # The reference code paths live in (and are instrumented by) the
    # routing/mechanism layers themselves, so this engine delegates
    # *with* the observer instead of opening its own engine spans --
    # otherwise every route tree and price row would be counted twice.
    def all_pairs(
        self,
        graph: ASGraph,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "AllPairsRoutes":
        from repro.routing.allpairs import all_pairs_lcp

        return all_pairs_lcp(graph, obs=obs)

    def price_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"] = None,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "PriceTable":
        from repro.mechanism.vcg import compute_price_table

        return compute_price_table(graph, routes=routes, obs=obs)
