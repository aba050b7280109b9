"""Route-selection policies.

The paper assumes every AS uses *lowest cost* as its routing policy
(with the standing caveat of Sect. 1 that real BGP computes shortest AS
paths instead -- "it would be trivial to modify BGP so that it computes
LCPs; in what follows, we assume that this modification has been made").
Both policies are provided:

* :class:`LowestCostPolicy` -- the paper's assumption; identical total
  order to the centralized reference (:mod:`repro.routing.tiebreak`).
* :class:`HopCountPolicy` -- what unmodified BGP does; used as the E9
  baseline to quantify how much cost the hop-count heuristic leaves on
  the table.
"""

from __future__ import annotations

import abc
from typing import Sequence, Tuple

from repro.routing.tiebreak import route_key
from repro.types import Cost, NodeId


class SelectionPolicy(abc.ABC):
    """A total order on candidate routes toward a fixed destination.

    Smaller keys win.  Keys for candidates of the same source node must
    be mutually comparable tuples, and distinct paths must never tie
    (change-driven decisions compare only changed candidates against
    the current route); the concrete policies below satisfy this with
    ``(scalar..., path)`` shapes.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def key(self, cost: Cost, path: Sequence[NodeId]) -> Tuple:
        """The comparison key of a candidate with this transit *cost*
        and AS *path* (candidate's own node first)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LowestCostPolicy(SelectionPolicy):
    """Prefer lower transit cost, then fewer hops, then lexicographic
    path -- the canonical order shared with the centralized engines."""

    name = "lowest-cost"

    def key(self, cost: Cost, path: Sequence[NodeId]) -> Tuple:
        return route_key(cost, path)


class HopCountPolicy(SelectionPolicy):
    """Prefer fewer AS hops (vanilla BGP), then lexicographic path.

    Cost is ignored for selection but still carried, so the route
    quality gap versus :class:`LowestCostPolicy` can be measured.
    """

    name = "hop-count"

    def key(self, cost: Cost, path: Sequence[NodeId]) -> Tuple:
        path = tuple(path)
        return (len(path) - 1, path)
