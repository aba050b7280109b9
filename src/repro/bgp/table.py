"""Routing-table data structures: the Loc-RIB and Adj-RIB-In of a node.

Terminology follows real BGP:

* **Adj-RIB-In** -- the last advertisement received from each neighbor,
  per destination.  The paper's footnote 6 notes that nodes keep the
  routing tables received from each neighbor; this is that state.
* **Loc-RIB** (:class:`RouteEntry` per destination) -- the selected
  route: path, cost, and the declared costs of the nodes on the path
  (a consistent snapshot assembled from the chosen advertisement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.bgp.messages import RouteAdvertisement
from repro.types import Cost, NodeId, PathTuple


@dataclass(frozen=True)
class RouteEntry:
    """A selected route toward one destination."""

    path: PathTuple
    cost: Cost
    node_costs: Mapping[NodeId, Cost]

    @property
    def destination(self) -> NodeId:
        return self.path[-1]

    @property
    def next_hop(self) -> NodeId:
        """The selected parent in ``T(destination)``."""
        if len(self.path) < 2:
            raise ValueError("self-route has no next hop")
        return self.path[1]

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def transit(self) -> PathTuple:
        """The transit nodes of the selected path."""
        return self.path[1:-1]

    def size_entries(self) -> int:
        """State size in table entries (AS numbers + cost scalars)."""
        return len(self.path) + len(self.node_costs)


#: What :meth:`AdjRIBIn.take_changes` returns for a destination with no
#: changed row.
_NO_CHANGES: FrozenSet[NodeId] = frozenset()


class AdjRIBIn:
    """Per-neighbor advertisement store.

    ``store[neighbor][destination]`` is the last advertisement received
    from that neighbor for that destination.  The slice is written row
    by row, by :meth:`apply_update`, :meth:`withdraw` and
    :meth:`drop_neighbor`, whatever the message was: a whole table (the
    model of Sect. 5 sends whole tables for worst-case accounting) is
    applied as the delta that turns the stored slice into it.  The
    write methods report which destinations actually changed, so the
    owning node can recompute only those.

    The store also keeps a *change record*: per destination, the
    neighbors whose row changed since the owning node last decided that
    destination (:meth:`take_changes`), or ``None`` when every neighbor
    must be re-examined (:meth:`mark_all_changed`).  Every write method
    keeps it, so a decision re-examines only the advertisements that
    moved.
    """

    def __init__(self) -> None:
        self._store: Dict[NodeId, Dict[NodeId, RouteAdvertisement]] = {}
        self._changes: Dict[NodeId, Optional[Set[NodeId]]] = {}

    def _record(self, destination: NodeId, neighbor: NodeId) -> None:
        changes = self._changes
        if destination not in changes:
            changes[destination] = {neighbor}
            return
        neighbors = changes[destination]
        if neighbors is not None:
            neighbors.add(neighbor)

    def apply_update(self, neighbor: NodeId, advert: RouteAdvertisement) -> bool:
        """Store one replacement row from *neighbor*; True iff the slice
        actually changed."""
        table = self._store.setdefault(neighbor, {})
        destination = advert.destination
        previous = table.get(destination)
        if previous is advert or (previous is not None and previous == advert):
            return False
        table[destination] = advert
        self._record(destination, neighbor)
        return True

    def withdraw(self, neighbor: NodeId, destination: NodeId) -> bool:
        """Drop *neighbor*'s row for *destination*; True iff present."""
        table = self._store.get(neighbor)
        if not table or destination not in table:
            return False
        del table[destination]
        self._record(destination, neighbor)
        return True

    def drop_neighbor(self, neighbor: NodeId) -> Set[NodeId]:
        """Forget everything learned from *neighbor* (link failure);
        returns the destinations it had advertised."""
        table = self._store.pop(neighbor, None) or {}
        for destination in table:
            self._record(destination, neighbor)
        return set(table)

    # ------------------------------------------------------------------
    # Change record
    # ------------------------------------------------------------------
    def take_changes(self, destination: NodeId) -> Optional[AbstractSet[NodeId]]:
        """The neighbors whose row for *destination* changed since the
        last take, or None when every neighbor must be re-examined; the
        record for *destination* is cleared."""
        return self._changes.pop(destination, _NO_CHANGES)

    def mark_all_changed(self, destinations: Iterable[NodeId]) -> None:
        """Make the next take for each of *destinations* re-examine every
        neighbor (state the rows were folded into was reset)."""
        for destination in destinations:
            self._changes[destination] = None

    def recorded(self) -> Set[NodeId]:
        """The destinations the change record names."""
        return set(self._changes)

    def neighbors(self) -> Tuple[NodeId, ...]:
        return tuple(sorted(self._store))

    def advert(self, neighbor: NodeId, destination: NodeId) -> Optional[RouteAdvertisement]:
        return self._store.get(neighbor, {}).get(destination)

    def neighbor_destinations(self, neighbor: NodeId) -> Tuple[NodeId, ...]:
        """The destinations *neighbor*'s stored slice holds."""
        return tuple(self._store.get(neighbor, ()))

    def destinations(self) -> Tuple[NodeId, ...]:
        """All destinations any stored advertisement mentions."""
        seen = set()
        for table in self._store.values():
            seen.update(table)
        return tuple(sorted(seen))

    def adverts_for(self, destination: NodeId) -> Dict[NodeId, RouteAdvertisement]:
        """``neighbor -> advert`` for one destination."""
        result: Dict[NodeId, RouteAdvertisement] = {}
        for neighbor, table in self._store.items():
            advert = table.get(destination)
            if advert is not None:
                result[neighbor] = advert
        return result

    def size_entries(self) -> int:
        """Total stored entries across neighbors (Adj-RIB-In state)."""
        return sum(
            advert.size_entries()
            for table in self._store.values()
            for advert in table.values()
        )

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.neighbors())
