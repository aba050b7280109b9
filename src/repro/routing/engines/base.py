"""The engine abstraction every registered backend implements.

An *engine* answers the two bulk questions of the mechanism layer --
"what are all selected lowest-cost routes?" and "what are all Theorem 1
prices?" -- for one :class:`~repro.graphs.asgraph.ASGraph` instance.
Engines differ in *how* (serial pure Python, batched scipy distances
with a flat-CSR sweep, warm-started repair), never in *what*: every
engine returns the canonical tie-broken
:class:`~repro.routing.allpairs.AllPairsRoutes` and the differential
test harness holds it to the reference answers -- same paths,
bit-identical costs, the same error class and message.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Dict, Optional

import numpy as np

import repro.obs as obs_mod
from repro.graphs.asgraph import ASGraph
from repro.types import Cost, NodeId

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.mechanism.vcg import PriceTable
    from repro.routing.allpairs import AllPairsRoutes


@dataclass(frozen=True)
class CostMatrix:
    """A dense all-pairs transit-cost matrix plus its node indexing.

    ``matrix[index[i], index[j]] = Cost(P(c; i, j))`` with zeros on the
    diagonal.
    """

    matrix: np.ndarray = field(repr=False)
    index: Dict[NodeId, int]

    def cost(self, source: NodeId, destination: NodeId) -> Cost:
        return float(self.matrix[self.index[source], self.index[destination]])


class Engine(ABC):
    """One backend for bulk route/price computation.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`all_pairs` and :meth:`price_table`.
    """

    #: Registry key; stable across releases (CLI surface).
    name: ClassVar[str] = "abstract"

    @abstractmethod
    def all_pairs(
        self,
        graph: ASGraph,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "AllPairsRoutes":
        """All selected LCPs (canonical tie-break), one tree per
        destination.

        When an observer is active (explicit *obs* or the global
        toggle) the computation runs under an ``engine.all_pairs``
        span and emits a ``routing.route_trees`` counter, both labelled
        with this engine's name.
        """

    @abstractmethod
    def price_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"] = None,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "PriceTable":
        """The full Theorem 1 price table for *graph*.

        *routes* optionally reuses precomputed selected LCPs; engines
        must produce identical prices with or without it.

        When an observer is active the computation runs under an
        ``engine.price_table`` span and emits the
        ``mechanism.price_rows`` throughput counter, labelled with this
        engine's name.
        """

    def cost_matrix(self, graph: ASGraph) -> CostMatrix:
        """All-pairs transit costs as a dense matrix, read from
        :meth:`all_pairs` (so its costs and errors are the routes')."""
        routes = self.all_pairs(graph)
        index = graph.index_of()
        matrix = np.zeros((graph.num_nodes, graph.num_nodes))
        for destination in graph.nodes:
            tree = routes.tree(destination)
            dj = index[destination]
            for source in tree.sources():
                matrix[index[source], dj] = tree.cost(source)
        return CostMatrix(matrix=matrix, index=index)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
