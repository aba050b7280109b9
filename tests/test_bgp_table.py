"""Tests for repro.bgp.table (RouteEntry / AdjRIBIn)."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.messages import RouteAdvertisement, RouteDelta
from repro.bgp.node import BGPNode
from repro.bgp.table import AdjRIBIn, RouteEntry


def advert(sender, destination, path, cost=1.0):
    return RouteAdvertisement(
        sender=sender,
        destination=destination,
        path=path,
        cost=cost,
        node_costs={node: 1.0 for node in path},
    )


class TestRouteEntry:
    def test_properties(self):
        entry = RouteEntry(path=(0, 1, 2), cost=3.0, node_costs={0: 1, 1: 3, 2: 1})
        assert entry.destination == 2
        assert entry.next_hop == 1
        assert entry.hops == 2
        assert entry.transit == (1,)

    def test_self_route_has_no_next_hop(self):
        entry = RouteEntry(path=(5,), cost=0.0, node_costs={5: 1.0})
        with pytest.raises(ValueError):
            entry.next_hop

    def test_size_entries(self):
        entry = RouteEntry(path=(0, 1, 2), cost=3.0, node_costs={0: 1, 1: 3, 2: 1})
        assert entry.size_entries() == 6


class TestAdjRIBIn:
    def test_replace_and_query(self):
        rib = AdjRIBIn()
        rib.apply_update(1, advert(1, 3, (1, 2, 3)))
        assert rib.advert(1, 3) is not None
        assert rib.advert(1, 4) is None
        assert rib.advert(2, 3) is None
        assert rib.neighbor_destinations(1) == (3,)
        assert rib.neighbor_destinations(2) == ()

    def test_replacement_is_wholesale(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 3, (1, 2, 3)), advert(1, 4, (1, 4))])
        node.receive_table(1, [advert(1, 3, (1, 3))])
        assert node.rib_in.advert(1, 3).path == (1, 3)
        assert node.rib_in.advert(1, 4) is None  # dropped by the new table
        assert node.rib_in.neighbor_destinations(1) == (3,)

    def test_drop_neighbor(self):
        rib = AdjRIBIn()
        rib.apply_update(1, advert(1, 3, (1, 3)))
        rib.drop_neighbor(1)
        assert rib.advert(1, 3) is None
        assert rib.neighbors() == ()

    def test_destinations_union(self):
        rib = AdjRIBIn()
        rib.apply_update(1, advert(1, 3, (1, 3)))
        rib.apply_update(2, advert(2, 4, (2, 4)))
        assert rib.destinations() == (3, 4)

    def test_adverts_for(self):
        rib = AdjRIBIn()
        rib.apply_update(1, advert(1, 3, (1, 3)))
        rib.apply_update(2, advert(2, 3, (2, 3)))
        by_neighbor = rib.adverts_for(3)
        assert set(by_neighbor) == {1, 2}

    def test_size_entries(self):
        rib = AdjRIBIn()
        rib.apply_update(1, advert(1, 3, (1, 2, 3)))
        assert rib.size_entries() == 6  # 3 path + 3 costs

    def test_iteration(self):
        rib = AdjRIBIn()
        rib.apply_update(2, advert(2, 3, (2, 3)))
        rib.apply_update(1, advert(1, 3, (1, 3)))
        assert list(rib) == [1, 2]


class TestChangeRecord:
    """Every write records which (destination, neighbor) rows changed
    since the destination was last decided."""

    def test_every_write_method_records(self):
        rib = AdjRIBIn()
        assert rib.apply_update(1, advert(1, 3, (1, 3)))
        assert rib.apply_update(1, advert(1, 4, (1, 4)))
        assert rib.apply_update(2, advert(2, 3, (2, 3)))
        assert rib.recorded() == {3, 4}
        assert rib.take_changes(3) == {1, 2}
        assert rib.take_changes(4) == {1}
        assert rib.withdraw(2, 3)
        assert rib.take_changes(3) == {2}
        assert rib.drop_neighbor(1) == {3, 4}
        assert rib.take_changes(3) == {1}
        assert rib.take_changes(4) == {1}
        assert rib.recorded() == set()

    def test_take_clears_only_its_destination(self):
        rib = AdjRIBIn()
        rib.apply_update(1, advert(1, 3, (1, 3)))
        rib.apply_update(1, advert(1, 4, (1, 4)))
        assert rib.take_changes(3) == {1}
        assert rib.take_changes(3) == set()
        assert rib.take_changes(4) == {1}

    def test_unchanged_rows_are_not_recorded(self):
        node = BGPNode(0, 1.0)
        row = advert(1, 3, (1, 3))
        node.receive_table(1, [row])
        rib = node.rib_in
        rib.take_changes(3)
        # an equal row in a new table, or in a row write, changes nothing
        assert node.receive_table(1, [advert(1, 3, (1, 3))]) == set()
        assert not rib.apply_update(1, row)
        assert not rib.withdraw(1, 4)
        assert rib.take_changes(3) == set()

    def test_replacement_records_dropped_rows(self):
        node = BGPNode(0, 1.0)
        node.receive_table(1, [advert(1, 3, (1, 3)), advert(1, 4, (1, 4))])
        node.decide()  # a full decision takes every record
        assert node.receive_table(1, [advert(1, 3, (1, 3))]) == {4}
        assert node.rib_in.take_changes(3) == set()
        assert node.rib_in.take_changes(4) == {1}

    def test_mark_all_changed_survives_later_writes(self):
        rib = AdjRIBIn()
        rib.apply_update(1, advert(1, 3, (1, 3)))
        rib.mark_all_changed([3])
        rib.apply_update(2, advert(2, 3, (2, 3)))
        assert rib.take_changes(3) is None  # every neighbor
        assert rib.take_changes(3) == set()


# ----------------------------------------------------------------------
# A whole table is the delta that turns the stored slice into it
# ----------------------------------------------------------------------
NODE = 0
DESTINATIONS = (0, 1, 2, 3, 4, 5)


@st.composite
def tables(draw, sender):
    """A whole table from *sender*: rows drawn from a small pool, so
    equal-but-distinct rows and repeated destinations both occur."""
    rows = []
    for destination in draw(st.lists(st.sampled_from(DESTINATIONS), max_size=5)):
        if destination == sender:
            path = (sender,)
        else:
            middle = draw(st.sampled_from([(), (4,), (5,)]))
            path = (sender,) + tuple(v for v in middle if v != destination) + (destination,)
        rows.append(advert(sender, destination, path, draw(st.sampled_from([0.0, 1.0, 2.0]))))
    return rows


def _slices(node):
    rib = node.rib_in
    return {
        neighbor: {d: rib.advert(neighbor, d) for d in rib.neighbor_destinations(neighbor)}
        for neighbor in rib.neighbors()
    }


def _record(node):
    """The change record, read from a copy so the node keeps its own."""
    rib = copy.deepcopy(node.rib_in)
    return {destination: rib.take_changes(destination) for destination in rib.recorded()}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tables_and_equivalent_deltas_leave_the_same_rib(data):
    neighbors = range(1, data.draw(st.integers(2, 3), label="neighbors") + 1)
    via_table = BGPNode(NODE, 1.0)
    via_delta = BGPNode(NODE, 1.0)
    sent = {neighbor: {} for neighbor in neighbors}  # last table per sender
    for _ in range(data.draw(st.integers(1, 12), label="messages")):
        neighbor = data.draw(st.sampled_from(neighbors), label="sender")
        table = data.draw(tables(neighbor), label="table")
        rows = {row.destination: row for row in table}  # last row wins
        previous = sent[neighbor]
        delta = RouteDelta(
            neighbor,
            tuple(row for d, row in rows.items() if previous.get(d) != row),
            tuple(d for d in previous if d not in rows),
        )
        sent[neighbor] = rows
        assert via_table.receive_table(neighbor, table) == via_delta.receive_delta(
            neighbor, delta
        )
        assert _slices(via_table) == _slices(via_delta)
        assert _record(via_table) == _record(via_delta)
        if data.draw(st.booleans(), label="decide"):
            via_table.decide()
            via_delta.decide()
            assert _record(via_table) == _record(via_delta) == {}
