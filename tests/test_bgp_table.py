"""Tests for repro.bgp.table (RouteEntry / AdjRIBIn)."""

import pytest

from repro.bgp.messages import RouteAdvertisement
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
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 2, 3))})
        assert rib.advert(1, 3) is not None
        assert rib.advert(1, 4) is None
        assert rib.advert(2, 3) is None

    def test_replacement_is_wholesale(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 2, 3)), 4: advert(1, 4, (1, 4))})
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 3))})
        assert rib.advert(1, 4) is None  # dropped by the new table

    def test_drop_neighbor(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 3))})
        rib.drop_neighbor(1)
        assert rib.advert(1, 3) is None
        assert rib.neighbors() == ()

    def test_destinations_union(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 3))})
        rib.replace_neighbor_table(2, {4: advert(2, 4, (2, 4))})
        assert rib.destinations() == (3, 4)

    def test_adverts_for(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 3))})
        rib.replace_neighbor_table(2, {3: advert(2, 3, (2, 3))})
        by_neighbor = rib.adverts_for(3)
        assert set(by_neighbor) == {1, 2}

    def test_size_entries(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 2, 3))})
        assert rib.size_entries() == 6  # 3 path + 3 costs

    def test_iteration(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(2, {})
        rib.replace_neighbor_table(1, {})
        assert list(rib) == [1, 2]


class TestChangeRecord:
    """Every write records which (destination, neighbor) rows changed
    since the destination was last decided."""

    def test_every_write_method_records(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 3)), 4: advert(1, 4, (1, 4))})
        assert rib.apply_update(2, advert(2, 3, (2, 3)))
        assert rib.take_changes(3) == {1, 2}
        assert rib.take_changes(4) == {1}
        assert rib.withdraw(2, 3)
        assert rib.take_changes(3) == {2}
        assert rib.drop_neighbor(1) == {3, 4}
        assert rib.take_changes(3) == {1}
        assert rib.take_changes(4) == {1}

    def test_take_clears_only_its_destination(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 3)), 4: advert(1, 4, (1, 4))})
        assert rib.take_changes(3) == {1}
        assert rib.take_changes(3) == set()
        assert rib.take_changes(4) == {1}

    def test_unchanged_rows_are_not_recorded(self):
        rib = AdjRIBIn()
        row = advert(1, 3, (1, 3))
        rib.replace_neighbor_table(1, {3: row})
        rib.take_changes(3)
        rib.replace_neighbor_table(1, {3: row})
        assert not rib.apply_update(1, row)
        assert not rib.withdraw(1, 4)
        assert rib.take_changes(3) == set()

    def test_replacement_records_dropped_rows(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 3)), 4: advert(1, 4, (1, 4))})
        rib.clear_changes()
        assert rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 3))}) == {4}
        assert rib.take_changes(3) == set()
        assert rib.take_changes(4) == {1}

    def test_mark_all_changed_survives_later_writes(self):
        rib = AdjRIBIn()
        rib.replace_neighbor_table(1, {3: advert(1, 3, (1, 3))})
        rib.mark_all_changed([3])
        rib.apply_update(2, advert(2, 3, (2, 3)))
        assert rib.take_changes(3) is None  # every neighbor
        assert rib.take_changes(3) == set()
