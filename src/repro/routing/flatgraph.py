"""Flat CSR routing core: one-shot arrays, O(deg(k) + n) node masking.

The flat engine reduces node-cost routing to directed edge weights
``w(u -> v) = c_v`` and hands the result to
``scipy.sparse.csgraph``.  Before this module, that reduction was
rebuilt from Python edge loops once *per transit node k* of the price
sweep -- O(m) interpreter work times the number of distinct transit
nodes, the dominant constant factor at n >= 500.

:class:`FlatGraph` builds the reduction **once per graph epoch** with
numpy primitives (no per-edge Python loops) and implements ``G - k`` by
*masking* the flat arrays instead of reconstructing them:

* the directed edge list is materialized as canonical CSR arrays
  (``indptr`` / ``indices`` / ``weights``) plus the node-cost vector;
* a CSC-style position index (``in_ptr`` / ``in_positions``) records,
  for every node ``k``, where the stored entries of ``k``'s *incoming*
  edges live in the flat ``weights`` array;
* :meth:`FlatGraph.masked` overwrites exactly those ``deg(k)`` stored
  weights with ``+inf`` (an infinite-weight edge is never relaxed onto
  a finite path, so ``k`` becomes unreachable -- equivalent to deleting
  the node for every source/destination other than ``k`` itself) and
  restores the saved values on exit.  Masking is O(deg(k)); nothing of
  size O(m) or O(n^2) is allocated per ``k``.

Zero-cost nodes round-trip exactly: a zero transit cost becomes a
*stored* zero in the CSR arrays (``csgraph`` honors stored zeros of
sparse input as real zero-weight edges), construction verifies that no
stored entry was dropped, and :meth:`FlatGraph.masked` restores the
saved weights verbatim -- a masked-and-unmasked zero is still a stored
zero.  The regression tests pin both round-trips.

Only the endpoints matter for the price sweep's masking direction:
``p^k_ij`` is demanded only for ``k`` strictly interior to a selected
path, so ``i != k != j`` always holds and blocking *entry* into ``k``
suffices; ``k``'s outgoing entries stay untouched.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import EngineError, GraphError
from repro.graphs.asgraph import ASGraph
from repro.types import NodeId

__all__ = ["FlatGraph", "build_flat_graph"]


@dataclass
class FlatGraph:
    """The ``w(u -> v) = c_v`` reduction as flat CSR arrays.

    Attributes
    ----------
    node_ids:
        Sorted node ids; position in this array is the dense index used
        by every other array.
    index:
        ``node id -> dense index`` (the same mapping as
        :meth:`repro.graphs.asgraph.ASGraph.index_of`).
    costs:
        Per-node transit costs ``c_k`` in dense-index order.
    indptr / indices / weights:
        Canonical CSR of the directed reduction: row ``u`` stores the
        out-edges ``u -> v`` with weight ``c_v``; columns are sorted
        within each row.  ``weights`` is the only mutable array (the
        masking scratch space).
    in_ptr / in_positions:
        Incoming-edge position index: ``in_positions[in_ptr[k] :
        in_ptr[k + 1]]`` are the offsets into ``weights`` holding the
        stored entries of edges ``* -> k``.
    """

    node_ids: np.ndarray
    index: Dict[NodeId, int]
    costs: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    in_ptr: np.ndarray = field(repr=False)
    in_positions: np.ndarray = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def num_stored(self) -> int:
        """Stored directed entries (twice the undirected link count)."""
        return int(self.indices.shape[0])

    def matrix(self) -> csr_matrix:
        """The reduction as a ``csr_matrix`` sharing this object's
        arrays -- masking mutates the matrix in place, by design."""
        n = self.num_nodes
        matrix = csr_matrix(
            (self.weights, self.indices, self.indptr),
            shape=(n, n),
            copy=False,
        )
        if matrix.nnz != self.num_stored:
            raise EngineError(
                "CSR view dropped stored entries "
                f"({matrix.nnz} kept of {self.num_stored}); zero-cost "
                "nodes would no longer round-trip exactly"
            )
        return matrix

    def in_edge_positions(self, dense_k: int) -> np.ndarray:
        """Offsets into :attr:`weights` of the edges entering *dense_k*."""
        return self.in_positions[self.in_ptr[dense_k] : self.in_ptr[dense_k + 1]]

    def degree(self, dense_k: int) -> int:
        return int(self.in_ptr[dense_k + 1] - self.in_ptr[dense_k])

    @contextmanager
    def masked(self, dense_k: int) -> Iterator[csr_matrix]:
        """``G - k`` by in-place masking, O(deg(k)) to enter and exit.

        Within the context the shared :meth:`matrix` has every edge
        *into* ``k`` stored as ``+inf`` (never relaxed onto a finite
        path, hence equivalent to node deletion for all sources and
        destinations other than ``k``); on exit the saved weights --
        including stored zeros -- are restored verbatim.
        """
        positions = self.in_edge_positions(dense_k)
        saved = self.weights[positions].copy()
        self.weights[positions] = np.inf
        try:
            yield self.matrix()
        finally:
            self.weights[positions] = saved

    def dense_pair(self, source: NodeId, destination: NodeId) -> Tuple[int, int]:
        """Dense indices of a node pair (convenience for callers)."""
        try:
            return self.index[source], self.index[destination]
        except KeyError as exc:
            raise GraphError(f"unknown node {exc.args[0]}") from None


def build_flat_graph(graph: ASGraph) -> FlatGraph:
    """One-shot numpy construction of the flat reduction.

    Everything O(m) runs inside numpy: the undirected edge list is
    converted to arrays wholesale, symmetrized, and lexsorted into
    canonical CSR order; the incoming-edge position index is a stable
    argsort of the head column.  The only Python-level iteration is the
    O(n) node scan for ids and costs.
    """
    node_ids = np.asarray(graph.nodes, dtype=np.int64)
    n = int(node_ids.shape[0])
    index = graph.index_of()
    cost_map = graph.costs()
    costs = np.fromiter(
        (cost_map[node] for node in graph.nodes), dtype=np.float64, count=n
    )

    if graph.num_edges:
        links = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
        # Node ids need not be dense; translate through the sorted id
        # array (exact because every edge endpoint is a declared node).
        links = np.searchsorted(node_ids, links)
        tails = np.concatenate([links[:, 0], links[:, 1]])
        heads = np.concatenate([links[:, 1], links[:, 0]])
    else:
        tails = np.empty(0, dtype=np.int64)
        heads = np.empty(0, dtype=np.int64)

    order = np.lexsort((heads, tails))  # row-major, sorted columns per row
    # int32 index arrays match csgraph's internal index type, so every
    # masked solve reuses them without a per-call conversion copy.
    indices = heads[order].astype(np.int32)
    weights = costs[indices]  # fancy indexing: a fresh, mutable array
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])

    # CSC-style index of incoming entries: stable argsort groups the
    # stored positions by head node without disturbing row order.
    in_positions = np.argsort(indices, kind="stable")
    in_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=in_ptr[1:])

    flat = FlatGraph(
        node_ids=node_ids,
        index=index,
        costs=costs,
        indptr=indptr,
        indices=indices,
        weights=weights,
        in_ptr=in_ptr,
        in_positions=in_positions,
    )
    if flat.num_stored != 2 * graph.num_edges:
        raise EngineError(
            "flat CSR construction dropped stored entries "
            f"({flat.num_stored} kept of {2 * graph.num_edges}); "
            "zero-cost nodes would no longer round-trip exactly"
        )
    flat.matrix()  # verify the CSR view keeps explicit zeros
    return flat
