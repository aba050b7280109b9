"""Change-driven decisions: twin-node differential tests.

A node's ``decide(dirty)`` re-examines only the neighbors whose
advertisement changed since each dirty destination was last decided
(the Adj-RIB-In's change record), and a monotone price node folds only
those neighbors into a row whose route stands.  The contract is
bit-identity with a full ``decide()``: two nodes driven through the
same random sequence of deltas, withdrawals, table syncs, dropped
adjacencies, cost changes, price resets and restarts -- one deciding
with the dirty sets the node API returns, its twin fully re-deciding --
must agree on routes, price rows, advertisements and publication deltas
after every decision.

The scenario tests pin which neighbors each case re-examines, so a
change-driven path that silently falls back to full scans (or a trigger
that stops forcing one) fails here, and the seeded protocol run pins the
number of price-candidate evaluations.  The sanitizer is forced off:
under it every dirty decision is followed by a full one, which would
hide the path under test.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.price_node as price_node_module
from repro import api
from repro.bgp.messages import RouteAdvertisement, RouteDelta
from repro.bgp.node import BGPNode
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.devtools import sanitize
from repro.extensions.edgecost.distributed import EdgeCostPriceNode
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import isp_like_graph, uniform_costs
from repro.policy.engine import PolicyNode
from repro.policy.relationships import Relationship, RelationshipMap

INF = float("inf")
NODE = 0
NEIGHBORS = (1, 2, 3, 4)
REMOTE = (5, 6, 7)
NODES = (NODE,) + NEIGHBORS + REMOTE


def _relationships() -> RelationshipMap:
    graph = ASGraph(
        nodes=[(node, 1.0) for node in NODES],
        edges=[(NODE, neighbor) for neighbor in NEIGHBORS],
    )
    return RelationshipMap(
        graph,
        {
            (NODE, 1): Relationship.CUSTOMER,
            (NODE, 2): Relationship.PEER,
            (NODE, 3): Relationship.PROVIDER,
            (NODE, 4): Relationship.CUSTOMER,
        },
    )


KINDS: Dict[str, Callable[[], BGPNode]] = {
    "plain": lambda: BGPNode(NODE, 2.0),
    "monotone": lambda: PriceComputingNode(NODE, 2.0, mode=UpdateMode.MONOTONE),
    "recompute": lambda: PriceComputingNode(NODE, 2.0, mode=UpdateMode.RECOMPUTE),
    "literal": lambda: PriceComputingNode(NODE, 2.0, literal_child_formula=True),
    "policy": lambda: PolicyNode(NODE, 2.0, _relationships()),
    "edgecost": lambda: EdgeCostPriceNode(NODE, {1: 1.5, 2: 0.5, 3: 2.0, 4: 1.0}),
}


def _state(node: BGPNode) -> str:
    """Everything a decision derives, with exact float reprs and the
    price rows' entry order."""
    parts = [
        sorted(
            (d, e.path, e.cost, sorted(e.node_costs.items()))
            for d, e in node.routes.items()
        )
    ]
    for name in ("price_rows", "avoiding_rows", "source_prices"):
        rows = getattr(node, name, {})
        parts.append(sorted((d, list(row.items())) for d, row in rows.items()))
    source_routes = getattr(node, "source_routes", {})
    parts.append(sorted((d, e.path, e.cost) for d, e in source_routes.items()))
    return repr(parts)


class Twins:
    """One node deciding change-driven, its twin deciding fully."""

    def __init__(self, kind: str) -> None:
        self.dirty_node = KINDS[kind]()
        self.full_node = KINDS[kind]()
        self.pending: Set[int] = set()

    def apply(self, op: Callable[[BGPNode], object]) -> None:
        """Apply a mutation to both; accumulate the dirty set it returns."""
        returned = op(self.dirty_node)
        op(self.full_node)
        if returned:
            self.pending |= returned

    def decide(self) -> None:
        if self.pending:
            self.dirty_node.decide(self.pending)
        self.pending = set()
        self.full_node.decide()
        self.assert_equal()

    def assert_equal(self) -> None:
        assert _state(self.dirty_node) == _state(self.full_node)
        assert self.dirty_node.advertisements() == self.full_node.advertisements()
        assert self.dirty_node.publication_delta() == self.full_node.publication_delta()


def advert(sender, destination, path, cost, node_costs, prices=None, generation=0):
    return RouteAdvertisement(
        sender=sender,
        destination=destination,
        path=path,
        cost=cost,
        node_costs=node_costs,
        prices=prices or {},
        generation=generation,
    )


# ----------------------------------------------------------------------
# Hypothesis: random mutation sequences
# ----------------------------------------------------------------------
COSTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def adverts(draw, sender: int, destination: int) -> RouteAdvertisement:
    if destination == sender:
        path = (sender,)
    else:
        pool = [v for v in NODES if v not in (sender, destination)]
        middle = draw(st.lists(st.sampled_from(pool), unique=True, max_size=2))
        path = (sender, *middle, destination)
    node_costs = {v: draw(COSTS) for v in path}
    prices = {
        k: draw(st.sampled_from([0.5, 1.0, 2.5, INF]))
        for k in path[1:-1]
        if draw(st.booleans())
    }
    return advert(
        sender,
        destination,
        path,
        draw(COSTS),
        node_costs,
        prices,
        generation=draw(st.integers(0, 1)),
    )


@st.composite
def rows(draw, sender: int) -> List[RouteAdvertisement]:
    destinations = draw(st.lists(st.sampled_from(NODES), unique=True, max_size=4))
    return [draw(adverts(sender, d)) for d in sorted(destinations)]


@st.composite
def operations(draw, kind: str):
    choices = ["delta", "delta", "delta", "table", "drop", "cost", "restart", "decide"]
    if kind in ("monotone", "recompute", "literal"):
        choices.append("reset")
    op = draw(st.sampled_from(choices))
    neighbor = draw(st.sampled_from(NEIGHBORS))
    if op == "delta":
        updates = draw(rows(neighbor))
        updated = {a.destination for a in updates}
        withdrawals = draw(
            st.lists(
                st.sampled_from([d for d in NODES if d not in updated]),
                unique=True,
                max_size=2,
            )
        )
        delta = RouteDelta(neighbor, tuple(updates), tuple(withdrawals))
        return op, lambda node: node.receive_delta(neighbor, delta)
    if op == "table":
        table = draw(rows(neighbor))
        return op, lambda node: node.receive_table(neighbor, table)
    if op == "drop":
        return op, lambda node: node.drop_neighbor(neighbor)
    if op == "cost":
        cost = draw(COSTS)
        return op, lambda node: node.set_declared_cost(cost)
    if op == "reset":
        return op, lambda node: node.reset_prices()
    if op == "restart":
        return op, lambda node: node.restart()
    return op, None


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_twins_agree_on_random_mutations(kind, data):
    twins = Twins(kind)
    with sanitize.sanitized(False):
        for _ in range(data.draw(st.integers(1, 25), label="steps")):
            op, mutate = data.draw(operations(kind), label="op")
            if mutate is not None:
                twins.apply(mutate)
            if op == "decide" or data.draw(st.booleans(), label="decide now"):
                twins.decide()
        twins.decide()


# ----------------------------------------------------------------------
# Scenarios: which neighbors each case re-examines
# ----------------------------------------------------------------------
DEST = 9


def _world_adverts() -> Dict[int, RouteAdvertisement]:
    """Routes to DEST: via 1 (cost 1.0) beats via 2 (2.0) and via 3
    (4.0); the selected path (0, 1, 9) has transit node 1."""
    return {
        1: advert(1, DEST, (1, DEST), 0.0, {1: 1.0, DEST: 1.0}),
        2: advert(2, DEST, (2, DEST), 0.0, {2: 2.0, DEST: 1.0}),
        3: advert(3, DEST, (3, 5, DEST), 1.0, {3: 3.0, 5: 1.0, DEST: 1.0}, {5: 2.0}),
    }


def _spy(node: BGPNode, name: str) -> List[int]:
    """Count calls of one of *node*'s per-neighbor hooks."""
    calls: List[int] = []
    original = getattr(node, name)

    def wrapped(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    setattr(node, name, wrapped)
    return calls


def _converged_twins(kind: str = "monotone") -> Twins:
    twins = Twins(kind)
    for neighbor, row in _world_adverts().items():
        twins.apply(lambda node, n=neighbor, r=row: node.receive_table(n, [r]))
    twins.decide()
    assert twins.dirty_node.routes[DEST].path == (NODE, 1, DEST)
    assert twins.dirty_node.price_rows[DEST] == {1: 2.0}
    return twins


def _update(neighbor: int, row: RouteAdvertisement):
    return lambda node: node.receive_delta(neighbor, RouteDelta(neighbor, (row,)))


CHEAPER_VIA_3 = advert(3, DEST, (3, DEST), 0.0, {3: 1.5, DEST: 1.0})  # 1.5: route stands
BEST_VIA_3 = advert(3, DEST, (3, DEST), 0.0, {3: 0.5, DEST: 1.0})  # 0.5: route moves
WORSE_VIA_1 = advert(1, DEST, (1, DEST), 0.0, {1: 5.0, DEST: 1.0})  # parent worsens


def _decide_counting(twins: Twins):
    candidates = _spy(twins.dirty_node, "_candidate")
    folds = _spy(twins.dirty_node, "_fold")
    twins.decide()
    return len(candidates), len(folds)


class TestScenarios:
    """Each full-rescan trigger, and the change-driven case they guard."""

    @pytest.fixture(autouse=True)
    def _unsanitized(self):
        with sanitize.sanitized(False):
            yield

    def test_unchanged_neighbors_are_skipped(self):
        twins = _converged_twins()
        twins.apply(_update(3, CHEAPER_VIA_3))
        # the incumbent's key plus the one changed advert; one fold
        assert _decide_counting(twins) == (2, 1)
        assert twins.dirty_node.price_rows[DEST] == {1: 1.5}

    def test_full_decision_clears_the_record(self):
        node = PriceComputingNode(NODE, 2.0)
        for neighbor, row in _world_adverts().items():
            node.receive_table(neighbor, [row])
        node.decide()
        dirty = _update(3, CHEAPER_VIA_3)(node)
        candidates = _spy(node, "_candidate")
        node.decide(dirty)
        assert len(candidates) == 2

    def test_route_change_refolds_every_neighbor(self):
        twins = _converged_twins()
        twins.apply(_update(3, BEST_VIA_3))
        assert _decide_counting(twins) == (2, 3)
        assert twins.dirty_node.routes[DEST].path == (NODE, 3, DEST)

    @pytest.mark.parametrize(
        "mutate",
        [
            _update(1, WORSE_VIA_1),
            lambda node: node.receive_delta(1, RouteDelta(1, withdrawals=(DEST,))),
            lambda node: node.drop_neighbor(1),
        ],
        ids=["parent-changed", "parent-withdrew", "parent-dropped"],
    )
    def test_parent_change_rescans_every_neighbor(self, mutate):
        twins = _converged_twins()
        twins.apply(mutate)
        candidates, _ = _decide_counting(twins)
        assert candidates == len(twins.dirty_node.rib_in.adverts_for(DEST))
        assert twins.dirty_node.routes[DEST].path == (NODE, 2, DEST)

    def test_new_destination_scans_every_neighbor(self):
        twins = _converged_twins()
        for neighbor in (1, 2):
            row = advert(neighbor, 8, (neighbor, 8), 0.0, {neighbor: 1.0, 8: 1.0})
            twins.apply(_update(neighbor, row))
        assert _decide_counting(twins)[0] == 2

    def test_missing_row_refolds_every_neighbor(self):
        twins = _converged_twins()
        for node in (twins.dirty_node, twins.full_node):
            del node.price_rows[DEST]
        twins.apply(_update(3, CHEAPER_VIA_3))
        assert _decide_counting(twins) == (2, 3)

    def test_declared_cost_change_rescans_every_neighbor(self):
        twins = _converged_twins()
        twins.apply(lambda node: node.set_declared_cost(4.0))
        twins.apply(_update(3, CHEAPER_VIA_3))
        assert _decide_counting(twins) == (3, 3)
        assert twins.dirty_node.routes[DEST].node_costs[NODE] == 4.0

    def test_cost_change_waits_for_the_destinations_next_decision(self):
        # the cost change is recorded per destination: deciding another
        # destination first must not consume it
        twins = _converged_twins()
        twins.apply(lambda node: node.set_declared_cost(4.0))
        other = advert(2, 8, (2, 8), 0.0, {2: 1.0, 8: 1.0})
        twins.dirty_node.receive_delta(2, RouteDelta(2, (other,)))
        twins.full_node.receive_delta(2, RouteDelta(2, (other,)))
        twins.dirty_node.decide({8})
        twins.apply(_update(3, CHEAPER_VIA_3))
        assert _decide_counting(twins) == (3, 3)

    def test_reset_prices_refolds_every_neighbor(self):
        twins = _converged_twins()
        twins.apply(lambda node: node.reset_prices())
        twins.apply(_update(3, CHEAPER_VIA_3))
        assert _decide_counting(twins) == (3, 3)
        assert twins.dirty_node.price_rows[DEST] == {1: 1.5}

    def test_restart_rescans_every_neighbor(self):
        twins = _converged_twins()
        twins.apply(lambda node: node.restart())
        twins.decide()
        for neighbor, row in _world_adverts().items():
            twins.apply(lambda node, n=neighbor, r=row: node.receive_table(n, [r]))
        assert _decide_counting(twins) == (3, 3)

    def test_recompute_mode_refolds_every_neighbor(self):
        twins = _converged_twins("recompute")
        twins.apply(_update(3, CHEAPER_VIA_3))
        assert _decide_counting(twins) == (2, 3)


# ----------------------------------------------------------------------
# A silent fallback to full folds shows in the count
# ----------------------------------------------------------------------
#: price_candidates calls on the pinned run below: 106,365 when every
#: decision folded every neighbor, 16,242 change-driven
PRICE_CANDIDATE_BOUND = 25_000


def test_async_run_folds_only_changed_neighbors(monkeypatch):
    calls: List[int] = []
    original = price_node_module.price_candidates

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(price_node_module, "price_candidates", counting)
    graph = isp_like_graph(40, seed=0, cost_sampler=uniform_costs(1.0, 6.0))
    api.run(graph, asynchronous=True, seed=0, sanitize=False)
    assert 0 < len(calls) < PRICE_CANDIDATE_BOUND
