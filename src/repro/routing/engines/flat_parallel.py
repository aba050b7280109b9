"""The ``flat-parallel`` engine: the flat sweep sharded across workers.

The per-transit-node groups of the flat price sweep are independent --
each masks its own ``G - k`` and prices its own demand slice -- so the
sweep parallelizes the same way the ``parallel`` engine's
per-destination problems do.  This engine shards the demanded transit
nodes round-robin across worker processes
(:func:`repro.routing.flatsweep.shard_transit_nodes`), with the CSR
reduction, the pre-gathered demand columns, and the output price array
living in ``multiprocessing.shared_memory`` segments: workers attach
zero-copy, keep a *private* scratch copy of the one array masking
mutates (the edge-weight column), and write their groups' prices into
disjoint slices of the shared output.

Determinism follows the ``parallel`` engine's merge discipline: each
entry's slice position encodes the reference engine's scan order, the
per-shard stats fold with order-insensitive addition/``max``, and the
globally minimal-sequence violation is raised with the reference's
exact error class and message -- so output (tables *and* errors) is
invariant to worker count and shard order, and bit-identical to the
single-process ``flat`` engine.  The property tests in
``tests/test_flat_parallel.py`` pin this.

``workers=1`` degenerates to the inline sweep (no pool, no shared
memory), making this engine a strict superset of ``flat``.
"""

from __future__ import annotations

import os
from typing import ClassVar, Optional

from repro.exceptions import EngineError
from repro.graphs.asgraph import ASGraph
from repro.routing.engines.flat import FlatEngine
from repro.routing.flatsweep import (
    FlatPriceArrays,
    FlatSweepStats,
    flat_price_arrays,
)
from repro.routing.allpairs import AllPairsRoutes

__all__ = ["FlatParallelEngine"]


class FlatParallelEngine(FlatEngine):
    """Sharded flat-CSR path engine over shared-memory workers.

    Parameters
    ----------
    workers:
        Worker process count; default ``os.cpu_count()``.  ``1`` runs
        the sweep inline (no pool, no shared memory) -- the output is
        identical by construction and by property test.
    shards_per_worker:
        Transit-node shards created per worker (finer shards balance
        the skewed per-``k`` demand of ISP-like cores at slightly
        higher dispatch overhead).
    """

    name: ClassVar[str] = "flat-parallel"

    def __init__(
        self, workers: Optional[int] = None, shards_per_worker: int = 4
    ) -> None:
        if workers is not None and workers < 1:
            raise EngineError(f"worker count must be >= 1, got {workers}")
        if shards_per_worker < 1:
            raise EngineError(
                f"shards per worker must be >= 1, got {shards_per_worker}"
            )
        self._workers = workers
        self._shards_per_worker = shards_per_worker

    @property
    def workers(self) -> int:
        """The effective worker count."""
        return self._workers if self._workers is not None else (os.cpu_count() or 1)

    def _price_arrays(
        self,
        graph: ASGraph,
        routes: AllPairsRoutes,
        stats: FlatSweepStats,
    ) -> FlatPriceArrays:
        return flat_price_arrays(
            graph,
            routes,
            workers=self.workers,
            shards=self.workers * self._shards_per_worker,
            stats=stats,
        )
