"""Routing messages.

The only message in the model is the route advertisement: "each router
sends its routing table and its declared cost to its neighbors"
(Sect. 5).  One :class:`RouteAdvertisement` is one routing-table row in
flight; a full table exchange is a list of them.

The FPSS extension (Sect. 6) adds the price array to the *same*
message -- no new message types are introduced, which keeps the
communication pattern of BGP intact and is what Theorem 2's
constant-factor claim is about.  Plain BGP simply leaves ``prices``
empty.

Advertisements are immutable snapshots: the ``(path, cost, node_costs,
prices)`` fields were computed together by the sender and must be
interpreted together by the receiver (the correctness of the price
update rules relies on this internal consistency).

Two transport-level refinements ride on top of the model:

* **Hash-consing.**  :func:`intern_advertisement` canonicalizes rows so
  that a row whose content did not change between stages is the *same
  object*.  Unchanged-row comparisons then hit CPython's pointer
  fast path instead of rebuilding and comparing dictionaries, which is
  what makes "did my table change?" O(changed rows).
* **Delta exchanges.**  A :class:`RouteDelta` carries only the rows
  that changed since the sender's previous transmission, plus explicit
  withdrawals.  Applying a delta to the receiver's stored slice yields
  exactly the state a full-table exchange would have left, so the
  model-level accounting (and every converged result) is unchanged;
  only the transported row count shrinks.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Mapping, Tuple

from repro.exceptions import ProtocolError
from repro.types import Cost, NodeId, PathTuple

#: Relative tolerance below which a price revision is considered
#: floating-point noise rather than new information.  Price candidates
#: for the same k-avoiding path can arrive via different neighbors with
#: differently associated sums; the monotone minimum then "improves" by
#: one ulp, which must not count as a convergence stage.
NOISE_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RouteAdvertisement:
    """One routing-table row sent from ``sender`` to a neighbor.

    Attributes
    ----------
    sender:
        The advertising AS; always ``path[0]``.
    destination:
        The destination AS; always ``path[-1]``.
    path:
        The advertised AS path, sender first.  A destination advertises
        itself with the one-node path ``(destination,)``.
    cost:
        The transit cost of ``path`` (destination-first accumulation).
    node_costs:
        Declared per-packet costs of every node on ``path`` -- this is
        how cost declarations propagate through the network.
    prices:
        The sender's VCG price array for this destination:
        ``k -> p^k_{sender,destination}`` for each transit node ``k`` on
        ``path``.  Entries may be ``inf`` while the computation is still
        converging.  Empty for plain BGP.
    generation:
        The price-computation epoch this advertisement belongs to.
        Section 6 requires price convergence to "start over" whenever
        the network changes; tagging advertisements with an epoch is the
        distributed realization: a restarted node ignores price arrays
        from earlier epochs (their values priced the *old* network and
        could undercut the new true prices, which a monotone minimum
        would never recover from).  Routes ignore the tag -- path-vector
        routing is self-correcting without it.
    """

    sender: NodeId
    destination: NodeId
    path: PathTuple
    cost: Cost
    node_costs: Mapping[NodeId, Cost] = field(default_factory=dict)
    prices: Mapping[NodeId, Cost] = field(default_factory=dict)
    generation: int = 0

    def __post_init__(self) -> None:
        if not self.path:
            raise ProtocolError("advertisement with empty path")
        if self.path[0] != self.sender:
            raise ProtocolError(
                f"path {self.path} does not start at sender {self.sender}"
            )
        if self.path[-1] != self.destination:
            raise ProtocolError(
                f"path {self.path} does not end at destination {self.destination}"
            )
        if len(set(self.path)) != len(self.path):
            raise ProtocolError(f"advertised path revisits a node: {self.path}")

    # -- identity ------------------------------------------------------
    # ``eq=False`` above: equality and hashing are hand-written so that
    # (a) the pointer fast path short-circuits interned rows and (b) the
    # hash -- over a canonical tuple, since mapping fields are unhashable
    # -- is computed once and cached.
    def _intern_key(self) -> Tuple:
        return (
            self.sender,
            self.destination,
            self.path,
            self.cost,
            tuple(sorted(self.node_costs.items())),
            tuple(sorted(self.prices.items())),
            self.generation,
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, RouteAdvertisement):
            return NotImplemented
        return (
            self.sender == other.sender
            and self.destination == other.destination
            and self.path == other.path
            and self.cost == other.cost  # repro-lint: ok(RPR001)
            and self.generation == other.generation
            and dict(self.node_costs) == dict(other.node_costs)
            and dict(self.prices) == dict(other.prices)
        )

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(self._intern_key())
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def is_self_route(self) -> bool:
        """Whether this is a destination advertising itself."""
        return len(self.path) == 1

    @property
    def sender_cost(self) -> Cost:
        """The sender's own declared cost, as carried by the message."""
        try:
            return self.node_costs[self.sender]
        except KeyError:
            raise ProtocolError(
                f"advertisement from {self.sender} does not carry its own cost"
            ) from None

    def size_entries(self) -> int:
        """Message size in table entries: AS numbers on the path, cost
        scalars, and price scalars.  Used by the communication
        accounting of experiment E6."""
        return len(self.path) + len(self.node_costs) + len(self.prices)


#: The hash-cons table.  Weak values: a row is kept only while some
#: node's table (or an in-flight message) still references it, so the
#: table never outgrows the live protocol state.
_INTERN_TABLE: "weakref.WeakValueDictionary[Tuple, RouteAdvertisement]" = (
    weakref.WeakValueDictionary()
)


def intern_advertisement(advert: RouteAdvertisement) -> RouteAdvertisement:
    """Return the canonical instance for *advert*'s content.

    Rebuilding a row whose content did not change hands back the
    previously interned object, so cross-stage "did it change?" checks
    are pointer comparisons.  Rows must be treated as immutable after
    interning (they already are documented as immutable snapshots).
    """
    key = advert._intern_key()
    existing = _INTERN_TABLE.get(key)
    if existing is not None:
        return existing
    _INTERN_TABLE[key] = advert
    return advert


def row_materially_different(
    old: RouteAdvertisement,
    new: RouteAdvertisement,
    rel_tol: float = NOISE_REL_TOL,
) -> bool:
    """Whether two rows for the same destination differ beyond float
    reassociation.  Routes (paths and exact costs) must match; price
    entries may differ within *rel_tol*.  Exact equality is still what
    drives retransmission -- this predicate only affects the *stage
    counting* reported to the convergence experiments.
    """
    # Exact comparison is deliberate: both engines accumulate costs
    # bit-identically, so any difference is a real route change.
    if old.path != new.path or old.cost != new.cost:  # repro-lint: ok(RPR001)
        return True
    if dict(old.node_costs) != dict(new.node_costs):
        return True
    if set(old.prices) != set(new.prices):
        return True
    for k, value in new.prices.items():
        previous = old.prices[k]
        if previous == value:
            continue
        if math.isinf(previous) or math.isinf(value):
            return True
        if not math.isclose(previous, value, rel_tol=rel_tol, abs_tol=1e-12):
            return True
    return False


@dataclass(frozen=True)
class RouteDelta:
    """A differential table exchange: only what changed since the
    sender's previous transmission to this neighbor.

    Semantically equivalent to re-sending the full table: applying
    ``updates`` then ``withdrawals`` to the receiver's stored slice for
    ``sender`` leaves exactly the slice a full-table replacement would
    have left.  The model of Sect. 5 sends whole tables for worst-case
    accounting; the delta is the real-BGP incremental optimization the
    paper sets aside, reintroduced *under* the model so the accounted
    measures (stages, messages, table entries) are untouched while the
    transported rows shrink to O(changed rows).

    ``updates`` carries full replacement rows (never partial edits), so
    a delta that overtakes the receiver's expectations is still applied
    consistently row-by-row; ordering guarantees (synchronous stages or
    per-link FIFO) are required only across *deltas*, exactly as they
    are across full tables.
    """

    sender: NodeId
    updates: Tuple[RouteAdvertisement, ...] = ()
    withdrawals: Tuple[NodeId, ...] = ()

    def __post_init__(self) -> None:
        seen = set(self.withdrawals)
        if len(seen) != len(self.withdrawals):
            raise ProtocolError(f"delta withdraws a destination twice: {self}")
        for advert in self.updates:
            if advert.sender != self.sender:
                raise ProtocolError(
                    f"delta from {self.sender} carries a row from {advert.sender}"
                )
            if advert.destination in seen:
                raise ProtocolError(
                    f"delta both updates and withdraws {advert.destination}"
                )
            seen.add(advert.destination)
        if len(seen) != len(self.updates) + len(self.withdrawals):
            raise ProtocolError(f"delta updates a destination twice: {self}")

    @property
    def is_empty(self) -> bool:
        return not self.updates and not self.withdrawals

    def size_rows(self) -> int:
        """Transported rows: replacement rows plus withdrawal markers."""
        return len(self.updates) + len(self.withdrawals)

    def size_entries(self) -> int:
        """Transported table entries (withdrawal markers count one)."""
        return sum(advert.size_entries() for advert in self.updates) + len(
            self.withdrawals
        )

