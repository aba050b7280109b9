"""Tests for repro.bgp.node (route selection logic)."""

import pytest

from repro.bgp.messages import RouteAdvertisement
from repro.bgp.node import BGPNode
from repro.bgp.policy import HopCountPolicy, LowestCostPolicy
from repro.core.price_node import PriceComputingNode
from repro.exceptions import ProtocolError


def advert(sender, destination, path, cost, node_costs=None, prices=None):
    return RouteAdvertisement(
        sender=sender,
        destination=destination,
        path=path,
        cost=cost,
        node_costs=node_costs or {node: 1.0 for node in path},
        prices=prices or {},
    )


class TestReceive:
    def test_stores_table(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 2, (1, 2), 0.0)])
        assert node.rib_in.advert(1, 2) is not None

    def test_rejects_spoofed_sender(self):
        node = BGPNode(0, 1.0)
        with pytest.raises(ProtocolError, match="session"):
            node.receive_table(1, [advert(2, 3, (2, 3), 0.0)])


class TestDecide:
    def test_adopts_single_route(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 2, (1, 2), 0.0, {1: 3.0, 2: 1.0})])
        changed = node.decide()
        assert changed == {2}
        entry = node.route(2)
        assert entry.path == (0, 1, 2)
        assert entry.cost == 3.0  # neighbor 1 becomes transit

    def test_direct_neighbor_destination_costs_zero(self):
        node = BGPNode(0, 1.0)
        node.receive_table(
            2, [advert(2, 2, (2,), 0.0, {2: 5.0})]
        )
        node.decide()
        assert node.route(2).cost == 0.0
        assert node.route(2).path == (0, 2)

    def test_prefers_cheaper_route(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 9, (1, 9), 0.0, {1: 10.0, 9: 1.0})])
        node.receive_table(2, [advert(2, 9, (2, 9), 0.0, {2: 3.0, 9: 1.0})])
        node.decide()
        assert node.route(9).path == (0, 2, 9)

    def test_loop_suppression(self):
        node = BGPNode(0, 1.0)
        # neighbor's path already contains us -> unusable
        node.receive_table(1, [advert(1, 9, (1, 0, 9), 1.0, {1: 1.0, 0: 1.0, 9: 1.0})])
        node.decide()
        assert node.route(9) is None

    def test_tie_break_matches_policy(self):
        node = BGPNode(0, 1.0, policy=LowestCostPolicy())
        node.receive_table(1, [advert(1, 9, (1, 9), 0.0, {1: 2.0, 9: 1.0})])
        node.receive_table(2, [advert(2, 9, (2, 9), 0.0, {2: 2.0, 9: 1.0})])
        node.decide()
        # equal cost, equal hops: lexicographic path -> via 1
        assert node.route(9).path == (0, 1, 9)

    def test_hopcount_policy_ignores_cost(self):
        node = BGPNode(0, 1.0, policy=HopCountPolicy())
        node.receive_table(1, [advert(1, 9, (1, 9), 0.0, {1: 100.0, 9: 1.0})])
        node.receive_table(
            2, [advert(2, 9, (2, 3, 9), 1.0, {2: 0.0, 3: 1.0, 9: 1.0})]
        )
        node.decide()
        assert node.route(9).path == (0, 1, 9)  # fewer hops despite cost 100

    def test_route_withdrawn_when_neighbor_table_loses_it(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 9, (1, 9), 0.0)])
        node.decide()
        assert node.route(9) is not None
        node.receive_table(1, [])
        changed = node.decide()
        assert node.route(9) is None
        assert 9 in changed

    def test_cost_snapshot_includes_self(self):
        node = BGPNode(0, 7.0)
        node.receive_table(1, [advert(1, 2, (1, 2), 0.0, {1: 3.0, 2: 1.0})])
        node.decide()
        assert node.route(2).node_costs[0] == 7.0

    def test_redeclaration_updates_snapshot(self):
        node = BGPNode(0, 7.0)
        node.receive_table(1, [advert(1, 2, (1, 2), 0.0, {1: 3.0, 2: 1.0})])
        node.decide()
        node.set_declared_cost(9.0)
        changed = node.decide()
        assert 2 in changed
        assert node.route(2).node_costs[0] == 9.0

    def test_full_decision_leaves_no_change_record(self):
        node = PriceComputingNode(0, 1.0)
        node.receive_table(
            1,
            [
                advert(1, 1, (1,), 0.0),
                advert(1, 9, (1, 9), 0.0),
                advert(1, 0, (1, 0), 0.0),
                advert(1, 7, (1, 0, 7), 1.0),
            ],
        )
        node.receive_table(2, [advert(2, 2, (2,), 0.0), advert(2, 9, (2, 9), 0.0)])
        node.decide()
        # rows for a routed destination, for our own id and for a
        # destination never routed (loop-suppressed) all disappear
        node.receive_table(1, [advert(1, 1, (1,), 0.0)])
        node.set_declared_cost(2.0)
        node.drop_neighbor(2)
        node.decide()
        assert node.routes.keys() == {1}
        for destination in (0, 1, 2, 7, 9):
            assert node.rib_in.take_changes(destination) == set()


class TestAdvertisements:
    def test_self_route_first(self):
        node = BGPNode(0, 2.5)
        adverts = node.advertisements()
        assert adverts[0].is_self_route
        assert adverts[0].node_costs[0] == 2.5

    def test_table_rows_follow(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 2, (1, 2), 0.0)])
        node.decide()
        adverts = node.advertisements()
        assert len(adverts) == 2
        assert adverts[1].destination == 2
        assert adverts[1].path == (0, 1, 2)

    def test_plain_node_has_no_prices(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 2, (1, 2), 0.0)])
        node.decide()
        assert all(not a.prices for a in node.advertisements())

    def test_restart_clears_state_and_bumps_generation(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 2, (1, 2), 0.0)])
        node.decide()
        generation = node.generation
        node.restart()
        assert node.generation == generation + 1
        assert node.route(2) is None
        assert node.rib_in.neighbors() == ()

    def test_table_size_entries(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 2, (1, 2), 0.0)])
        node.decide()
        assert node.table_size_entries() == 6  # 3 path + 3 costs

    def test_reading_the_table_leaves_the_publication_alone(self):
        """advertisements() between a decision and the take changes no
        publication delta, whatever the rows did in between."""
        reader, twin = BGPNode(0, 1.0), BGPNode(0, 1.0)
        messages = [
            (1, [advert(1, 1, (1,), 0.0), advert(1, 9, (1, 9), 0.0)]),
            (2, [advert(2, 2, (2,), 0.0), advert(2, 9, (2, 9), 0.0, {2: 0.5, 9: 1.0})]),
            (2, [advert(2, 2, (2,), 0.0)]),
            (1, []),
        ]
        for neighbor, table in messages:
            for node in (reader, twin):
                dirty = node.receive_table(neighbor, table)
                node.decide(dirty)
            before = reader.advertisements()
            assert reader.publication_delta() == twin.publication_delta()
            assert reader.advertisements() == before
        reader.set_declared_cost(3.0)
        twin.set_declared_cost(3.0)
        for node in (reader, twin):
            node.decide()
        reader.advertisements()
        assert reader.publication_delta() == twin.publication_delta()
        assert reader.published_table() == twin.published_table()
