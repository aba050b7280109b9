"""The price-computing BGP node: Figure 3's algorithm.

A :class:`PriceComputingNode` is a plain path-vector node plus, per
destination ``j``, a price row ``k -> p^k_ij`` over the transit nodes of
its selected path.  Rows ride on the ordinary advertisement exchange --
there are no other messages.

Two update modes are provided:

* :attr:`UpdateMode.MONOTONE` -- the paper's algorithm: rows start at
  infinity, entries only decrease (min-updates with the case-(i)-(iv)
  candidates), and a row is reset to infinity whenever the selected
  route to its destination changes ("convergence must start over
  whenever there is a route change", Sect. 6).  Between restarts a
  decision folds in only the neighbors whose advertisement changed: the
  row already sits at or below every other neighbor's candidates.
* :attr:`UpdateMode.RECOMPUTE` -- a stateless fixpoint variant: each
  stage the row is recomputed from scratch as the minimum over the
  stored neighbor advertisements.  Same fixpoint by Lemma 1; useful as
  an independent cross-check of the monotone algorithm.

Both modes converge to the centralized Theorem 1 prices within
``max(d, d')`` stages on static instances; the test suite asserts
agreement between the modes, the centralized table, and the bound.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Dict, Mapping, Optional, Sequence, Set, Tuple

from repro.bgp.messages import RouteAdvertisement
from repro.bgp.node import BGPNode
from repro.bgp.policy import SelectionPolicy
from repro.bgp.table import RouteEntry
from repro.core.cases import price_candidates
from repro.types import Cost, NodeId

INF = float("inf")


class UpdateMode(enum.Enum):
    """How the price rows are maintained across stages."""

    MONOTONE = "monotone"
    RECOMPUTE = "recompute"


class PriceComputingNode(BGPNode):
    """A BGP node that additionally computes the VCG price rows."""

    #: Sect. 6: price convergence must start over on network changes --
    #: price state derived from pre-event advertisements can undercut
    #: the new true prices, and the monotone minimum never recovers.
    RESTART_ON_EVENT = True

    def __init__(
        self,
        node_id: NodeId,
        declared_cost: Cost,
        policy: Optional[SelectionPolicy] = None,
        mode: UpdateMode = UpdateMode.MONOTONE,
        literal_child_formula: bool = False,
    ) -> None:
        super().__init__(node_id, declared_cost, policy)
        self.mode = mode
        # Ablation knob (E15): evaluate Eq. 3 exactly as printed.
        self.literal_child_formula = literal_child_formula
        # destination -> {transit node -> current price estimate}
        self.price_rows: Dict[NodeId, Dict[NodeId, Cost]] = {}

    # ------------------------------------------------------------------
    # Hook from the base decision process
    # ------------------------------------------------------------------
    def _after_decide(
        self,
        changed_destinations: Set[NodeId],
        examined: Mapping[NodeId, Optional[AbstractSet[NodeId]]],
    ) -> Set[NodeId]:
        # A destination's price row is a function of that destination's
        # stored advertisements and selected route alone, so only the
        # examined rows can move.  Returns the destinations whose row
        # changed (the advertised price slot), so publication_delta
        # rebuilds exactly those.
        rows_changed: Set[NodeId] = set()
        for destination in sorted(changed_destinations):
            if destination not in self.routes and destination in self.price_rows:
                del self.price_rows[destination]
                rows_changed.add(destination)
        candidates = [d for d in examined if d in self.routes]
        rib = self.rib_in
        for destination in candidates:
            entry = self.routes[destination]
            transit = entry.transit
            previous_row = self.price_rows.get(destination)
            if not transit:
                if previous_row != {}:
                    rows_changed.add(destination)
                self.price_rows[destination] = {}
                continue
            neighbors = examined[destination]
            if (
                self.mode is UpdateMode.RECOMPUTE
                or destination in changed_destinations
                or previous_row is None
            ):
                # Rebuilt from every neighbor.  Monotone mode restarts
                # the row whenever the route changes (its entries are
                # tied to the current c(i, j)).
                row = {k: INF for k in transit}
                neighbors = None
            else:
                row = previous_row
            sources: Sequence[Tuple[NodeId, Optional[RouteAdvertisement]]]
            if neighbors is None:
                sources = sorted(rib.adverts_for(destination).items())
            else:
                # The row already sits at or below every candidate of
                # an unchanged advertisement (each was folded in since
                # the row was last reset, and entries only fall), so
                # only changed advertisements can lower it.
                sources = [(n, rib.advert(n, destination)) for n in sorted(neighbors)]
            row_moved = False
            for neighbor, advert in sources:
                if advert is not None and self._fold(row, entry, neighbor, advert):
                    row_moved = True
            if row is not previous_row:
                # Rebuilt from scratch: compare content, not identity
                # (an identical recomputation must not dirty the row).
                row_moved = row != previous_row
            if row_moved:
                rows_changed.add(destination)
            self.price_rows[destination] = row
        return rows_changed

    def _fold(
        self,
        row: Dict[NodeId, Cost],
        entry: RouteEntry,
        neighbor: NodeId,
        advert: RouteAdvertisement,
    ) -> bool:
        """Min-update *row* with *neighbor*'s case (i)-(iv) candidates;
        True iff an entry fell."""
        if advert.generation < self.generation:
            # Pre-restart price information priced the old network;
            # using it could undercut the new true prices.  (Route
            # selection still uses such adverts -- path-vector routing
            # self-corrects.)
            return False
        candidates_k = price_candidates(
            self_id=self.node_id,
            self_cost=self.declared_cost,
            my_path=entry.path,
            my_cost=entry.cost,
            my_node_costs=entry.node_costs,
            neighbor=neighbor,
            advert=advert,
            literal_child_formula=self.literal_child_formula,
        )
        moved = False
        for k, value in candidates_k.items():
            if value < row.get(k, INF):
                row[k] = value
                moved = True
        return moved

    def _missed_neighbor(
        self,
        destination: NodeId,
        route: Optional[RouteEntry],
        row: Mapping[NodeId, Cost],
    ) -> Optional[NodeId]:
        neighbor = super()._missed_neighbor(destination, route, row)
        if neighbor is not None or route is None:
            return neighbor
        # The route stands: the row missed some neighbor's candidate.
        probe = dict(row)
        for neighbor, advert in sorted(self.rib_in.adverts_for(destination).items()):
            if self._fold(probe, route, neighbor, advert):
                return neighbor
        return None

    # ------------------------------------------------------------------
    # Advertisement contents
    # ------------------------------------------------------------------
    def _prices_for(self, destination: NodeId) -> Mapping[NodeId, Cost]:
        return dict(self.price_rows.get(destination, {}))

    # ------------------------------------------------------------------
    # Introspection / dynamics
    # ------------------------------------------------------------------
    def price(self, k: NodeId, destination: NodeId) -> Cost:
        """Current estimate of ``p^k_{self,destination}`` (0 when ``k``
        is not transit on the selected path)."""
        return self.price_rows.get(destination, {}).get(k, 0.0)

    def prices_converged(self) -> bool:
        """Whether every price entry is finite (necessary, not
        sufficient, for convergence; the engine detects quiescence)."""
        return all(
            value != INF
            for row in self.price_rows.values()
            for value in row.values()
        )

    def reset_prices(self) -> Set[NodeId]:
        """Restart the price computation (the paper's response to a
        route change anywhere in the network).

        Returns the destinations whose row restarted (the dirty set);
        the next decision of each folds every neighbor in again.
        """
        for destination, entry in self.routes.items():
            self.price_rows[destination] = {k: INF for k in entry.transit}
        self.rib_in.mark_all_changed(self.routes)
        return set(self.routes)

    def restart(self) -> None:
        super().restart()
        self.price_rows = {}
