"""The canonical total order on candidate routes.

The paper assumes "the routing protocol has an appropriate way to break
ties" such that, per destination, the selected LCPs form a loop-free tree
``T(j)`` (Sect. 6).  The library's canonical order on a candidate path
``P`` toward a fixed destination is the tuple

    ``(cost(P), hops(P), P)``

compared lexicographically.  Two properties make it appropriate:

* **Strict extension.**  Prepending a hop strictly increases the key
  (hops grows even when the added transit cost is zero), so generalized
  Dijkstra over these keys is correct.
* **Suffix consistency.**  If ``P`` is the minimum-key path from ``i``,
  then for every node ``v`` on ``P`` the suffix of ``P`` from ``v`` is
  the minimum-key path from ``v`` -- otherwise splicing the better
  suffix into ``P`` would produce a walk with a smaller key, and the
  minimum key over walks is attained by a simple path.  Suffix
  consistency is exactly loop-freedom: the selected routes toward ``j``
  form a tree.

The distributed BGP engine ranks candidates with :func:`route_key`; the
centralized Dijkstra and the incremental engine's repair waves rank
them by the ``(cost, hops, next hop)`` labels that suffix consistency
reduces this key to (see :func:`repro.routing.dijkstra.route_tree`),
which order candidates identically.  So all of them select identical
routes (costs are accumulated identically too; see
:mod:`repro.routing.paths`), and a :class:`~repro.routing.dijkstra.RouteTree`
keeps only those labels' parents and costs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.types import Cost, NodeId, PathTuple

RouteKey = Tuple[Cost, int, PathTuple]


def route_key(cost: Cost, path: Sequence[NodeId]) -> RouteKey:
    """The canonical comparison key for a candidate route.

    *cost* must be the transit cost of *path* computed with the canonical
    accumulation (see :func:`repro.routing.paths.transit_cost`); it is
    passed in rather than recomputed so that engines that accumulate
    incrementally keep bit-identical values.
    """
    path = tuple(path)
    return (cost, len(path) - 1, path)


def better(candidate: RouteKey, incumbent: RouteKey) -> bool:
    """Whether *candidate* beats *incumbent* under the canonical order."""
    return candidate < incumbent
