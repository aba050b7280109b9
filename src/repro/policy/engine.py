"""Path-vector routing under Gao-Rexford policies.

The same stage discipline as :class:`repro.bgp.engine.SynchronousEngine`
with the two policy ingredients real BGP has and the paper's model
omits:

* **Selective export.**  A route learned from a customer is exported to
  everyone; routes learned from peers or providers are exported only to
  customers.  Export is therefore *per neighbor*, so the engine keeps a
  per-session published table.
* **Relationship-ranked selection.**  Customer routes are preferred
  over peer routes over provider routes; ties fall back to the paper's
  (cost, hops, path) order, so the comparison with pure LCP routing is
  apples to apples.

Under the Gao-Rexford conditions (acyclic provider hierarchy, the
preference ranking above) the protocol provably converges; the engine
asserts convergence rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.bgp.messages import RouteAdvertisement
from repro.bgp.node import BGPNode
from repro.bgp.policy import LowestCostPolicy
from repro.exceptions import ConvergenceError
from repro.graphs.asgraph import ASGraph
from repro.policy.relationships import (
    PREFERENCE_RANK,
    Relationship,
    RelationshipMap,
)
from repro.types import Cost, NodeId, PathTuple


class PolicyNode(BGPNode):
    """A BGP node applying Gao-Rexford selection and export rules."""

    def __init__(
        self,
        node_id: NodeId,
        declared_cost: Cost,
        relationships: RelationshipMap,
    ) -> None:
        super().__init__(node_id, declared_cost, LowestCostPolicy())
        self.relationships = relationships

    # --- selection: customer > peer > provider, then LCP order --------
    def _candidate(
        self, neighbor: NodeId, advert: RouteAdvertisement
    ) -> Tuple[Tuple, Cost, Cost]:
        key, cost, own_cost = super()._candidate(neighbor, advert)
        rank = PREFERENCE_RANK[self.relationships.relationship(self.node_id, neighbor)]
        return (rank,) + key, cost, own_cost

    # --- export: customer routes to all; others to customers only -----
    def exportable_to(self, neighbor: NodeId, destination: NodeId) -> bool:
        """Whether the selected route for *destination* may be announced
        to *neighbor* under valley-free export."""
        if destination == self.node_id:
            return True  # everyone may reach me
        entry = self.routes.get(destination)
        if entry is None:
            return False
        learned_from = entry.next_hop
        learned_rel = self.relationships.relationship(self.node_id, learned_from)
        if learned_rel is Relationship.CUSTOMER:
            return True
        # peer/provider routes go to paying customers only
        return (
            self.relationships.relationship(self.node_id, neighbor)
            is Relationship.CUSTOMER
        )

    def export_table(self, neighbor: NodeId) -> Tuple[RouteAdvertisement, ...]:
        adverts: List[RouteAdvertisement] = [self.self_advertisement()]
        for destination in sorted(self.routes):
            if self.exportable_to(neighbor, destination):
                adverts.append(self._advert_for(destination))
        return tuple(adverts)


@dataclass
class PolicyRoutingResult:
    """Converged routes under valley-free policy routing."""

    graph: ASGraph
    relationships: RelationshipMap
    engine: "PolicyEngine"
    stages: int

    def path(self, source: NodeId, destination: NodeId) -> Optional[PathTuple]:
        entry = self.engine.nodes[source].route(destination)
        return None if entry is None else entry.path

    def routes_by_pair(self) -> Dict[Tuple[NodeId, NodeId], PathTuple]:
        result: Dict[Tuple[NodeId, NodeId], PathTuple] = {}
        for source, node in self.engine.nodes.items():
            for destination, entry in node.routes.items():
                result[(source, destination)] = entry.path
        return result


class PolicyEngine:
    """Synchronous stages with per-session (per-neighbor) export."""

    def __init__(self, graph: ASGraph, relationships: RelationshipMap) -> None:
        self.graph = graph
        self.relationships = relationships
        self.nodes: Dict[NodeId, PolicyNode] = {
            node_id: PolicyNode(node_id, graph.cost(node_id), relationships)
            for node_id in graph.nodes
        }
        self._published: Dict[Tuple[NodeId, NodeId], Tuple[RouteAdvertisement, ...]] = {}
        self._pending: Set[NodeId] = set()
        self.stage_count = 0

    def initialize(self) -> None:
        self._pending = set(self.nodes)
        for sender_id, sender in self.nodes.items():
            for neighbor in self.graph.neighbors(sender_id):
                self._published[(sender_id, neighbor)] = sender.export_table(neighbor)

    def step(self) -> int:
        """One stage; returns how many sessions re-announced."""
        self.stage_count += 1
        sessions_changed = 0
        for sender_id in sorted(self._pending):
            for neighbor in sorted(self.graph.neighbors(sender_id)):
                table = self._published[(sender_id, neighbor)]
                self.nodes[neighbor].receive_table(sender_id, table)
        changed: Set[NodeId] = set()
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            node.decide()
            for neighbor in sorted(self.graph.neighbors(node_id)):
                table = node.export_table(neighbor)
                if table != self._published.get((node_id, neighbor)):
                    self._published[(node_id, neighbor)] = table
                    changed.add(node_id)
                    sessions_changed += 1
        self._pending = changed
        return sessions_changed

    def run(self, max_stages: Optional[int] = None) -> int:
        """Run to quiescence; returns the stage count."""
        if not self._published:
            self.initialize()
        limit = max_stages if max_stages is not None else 6 * self.graph.num_nodes + 32
        stages = 0
        while self._pending:
            if stages >= limit:
                raise ConvergenceError(stages=stages, limit=limit)
            if self.step():
                stages = self.stage_count
            else:
                break
        return self.stage_count


def run_policy_routing(
    graph: ASGraph,
    relationships: RelationshipMap,
    max_stages: Optional[int] = None,
) -> PolicyRoutingResult:
    """Run valley-free policy routing to convergence."""
    engine = PolicyEngine(graph, relationships)
    engine.initialize()
    stages = engine.run(max_stages=max_stages)
    return PolicyRoutingResult(
        graph=graph, relationships=relationships, engine=engine, stages=stages
    )
