"""The AS graph: an undirected graph of ASes with per-node transit costs.

This is the network model of Section 3: a set of nodes ``N`` (each an AS),
a set ``L`` of bidirectional links, and for each node ``k`` a per-packet
transit cost ``c_k``.  Following the Griffin-Wilfong abstraction adopted in
Section 5, there is at most one link between any two ASes, links are
bidirectional, and each AS is atomic.

The class is deliberately small and explicit: adjacency is a dict of
sorted neighbor tuples, costs are a dict, and all mutation goes through
methods that re-validate the model invariants.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import GraphError
from repro.types import Cost, CostVector, Edge, NodeId, validate_cost

#: What a routing kernel reads: every node's ascending neighbor list, the
#: declared costs and the hidden node (``None`` for a whole graph).  The
#: containers are the graph's own, shared and read only.
RoutingInputs = Tuple[
    Mapping[NodeId, Sequence[NodeId]], Mapping[NodeId, Cost], Optional[NodeId]
]


class MaskedGraphView:
    """A copy-free read view of an :class:`ASGraph` with one node hidden.

    Behaves like the graph ``G - k`` for every read of ``neighbors`` /
    ``cost`` / ``nodes`` / containment without materializing new
    adjacency or cost dicts -- the k-avoiding price sweep builds n of
    these per destination, so the copies that
    :meth:`ASGraph.without_node` allocates dominate its running time.
    The routing kernel reads neither method per node: it takes the base
    graph's adjacency lists and cost dict once through
    :meth:`routing_inputs` and treats ``k`` as settled from the start,
    so a hot loop never filters a neighbor tuple.  The view is a
    snapshot-of-reference: it stays valid exactly as long as the
    underlying graph is unmutated, which the graph guarantees (all
    ASGraph "mutation" derives new instances).
    """

    __slots__ = ("_graph", "_masked")

    def __init__(self, graph: "ASGraph", masked: NodeId) -> None:
        if masked not in graph:
            raise GraphError(f"unknown node {masked}")
        self._graph = graph
        self._masked = masked

    @property
    def masked(self) -> NodeId:
        """The hidden node ``k``."""
        return self._masked

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All visible node ids in ascending order."""
        return tuple(n for n in self._graph.nodes if n != self._masked)

    @property
    def num_nodes(self) -> int:
        return self._graph.num_nodes - 1

    def __len__(self) -> int:
        return self.num_nodes

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __contains__(self, node: object) -> bool:
        return node != self._masked and node in self._graph

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        if self._masked in (u, v):
            return False
        return self._graph.has_edge(u, v)

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Visible neighbors of *node* in ascending order."""
        if node == self._masked:
            raise GraphError(f"unknown node {node}")
        masked = self._masked
        return tuple(n for n in self._graph.neighbors(node) if n != masked)

    def degree(self, node: NodeId) -> int:
        return len(self.neighbors(node))

    def cost(self, node: NodeId) -> Cost:
        if node == self._masked:
            raise GraphError(f"unknown node {node}")
        return self._graph.cost(node)

    def routing_inputs(self) -> RoutingInputs:
        """The base graph's neighbor lists and costs, and the hidden ``k``.

        ``k`` still appears in its neighbors' lists; a kernel reading
        them must never settle or relabel ``k``.
        """
        adjacency, costs, _ = self._graph.routing_inputs()
        return adjacency, costs, self._masked

    def __repr__(self) -> str:
        return f"MaskedGraphView({self._graph!r} - node {self._masked})"


class ASGraph:
    """An undirected AS graph with per-node transit costs.

    Parameters
    ----------
    nodes:
        Iterable of ``(node_id, cost)`` pairs.  Node ids must be unique
        non-negative integers; costs must be finite and non-negative.
    edges:
        Iterable of ``(u, v)`` pairs over declared nodes.  Self-loops and
        duplicate links are rejected (one link per AS pair, Sect. 5).

    Examples
    --------
    >>> graph = ASGraph(nodes=[(0, 1.0), (1, 2.0), (2, 0.5)],
    ...                 edges=[(0, 1), (1, 2), (0, 2)])
    >>> graph.cost(1)
    2.0
    >>> sorted(graph.neighbors(0))
    [1, 2]
    """

    __slots__ = ("_adjacency", "_costs", "_edges")

    def __init__(
        self,
        nodes: Iterable[Tuple[NodeId, Cost]],
        edges: Iterable[Edge] = (),
    ) -> None:
        self._costs: Dict[NodeId, Cost] = {}
        self._adjacency: Dict[NodeId, List[NodeId]] = {}
        self._edges: List[Edge] = []
        for node, cost in nodes:
            self._add_node(node, cost)
        for u, v in edges:
            self._add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _add_node(self, node: NodeId, cost: Cost) -> None:
        node = int(node)
        if node < 0:
            raise GraphError(f"node ids must be non-negative, got {node}")
        if node in self._costs:
            raise GraphError(f"duplicate node {node}")
        self._costs[node] = validate_cost(cost, what=f"cost of node {node}")
        self._adjacency[node] = []

    def _add_edge(self, u: NodeId, v: NodeId) -> None:
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"self-loop on node {u}")
        for endpoint in (u, v):
            if endpoint not in self._costs:
                raise GraphError(f"edge ({u}, {v}) references unknown node {endpoint}")
        if v in self._adjacency[u]:
            raise GraphError(f"duplicate link between {u} and {v}")
        self._adjacency[u].append(v)
        self._adjacency[v].append(u)
        self._adjacency[u].sort()
        self._adjacency[v].sort()
        self._edges.append((min(u, v), max(u, v)))

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        costs: Optional[CostVector] = None,
        default_cost: Cost = 1.0,
    ) -> "ASGraph":
        """Build a graph from an edge list, inferring the node set.

        Nodes not mentioned in *costs* receive *default_cost*.
        """
        edge_list = [(int(u), int(v)) for u, v in edges]
        node_ids = sorted({endpoint for edge in edge_list for endpoint in edge})
        cost_map = dict(costs or {})
        nodes = [(node, cost_map.get(node, default_cost)) for node in node_ids]
        return cls(nodes=nodes, edges=edge_list)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node ids in ascending order."""
        return tuple(sorted(self._costs))

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All links as ``(min, max)`` pairs, in insertion order."""
        return tuple(self._edges)

    @property
    def num_nodes(self) -> int:
        return len(self._costs)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._costs)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._costs

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        neighbors = self._adjacency.get(u)
        return neighbors is not None and v in neighbors

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Neighbors of *node* in ascending order."""
        try:
            return tuple(self._adjacency[node])
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def degree(self, node: NodeId) -> int:
        return len(self.neighbors(node))

    def cost(self, node: NodeId) -> Cost:
        """The declared transit cost ``c_k`` of *node*."""
        try:
            return self._costs[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def costs(self) -> Dict[NodeId, Cost]:
        """A copy of the full declared-cost vector ``c``."""
        return dict(self._costs)

    def routing_inputs(self) -> RoutingInputs:
        """The neighbor lists and costs themselves, no hidden node.

        The routing kernels' read path: one call, no copy, and no method
        call per node.  Callers must not mutate what it returns.
        """
        return self._adjacency, self._costs, None

    def path_cost(self, path: Sequence[NodeId]) -> Cost:
        """Transit cost of *path*: the sum of intermediate node costs.

        Endpoints contribute nothing (``I_i = I_j = 0`` in the paper).
        Raises :class:`GraphError` if the path is not a real walk in the
        graph or revisits a node.
        """
        if len(path) < 2:
            raise GraphError(f"path must have at least two nodes, got {list(path)}")
        if len(set(path)) != len(path):
            raise GraphError(f"path revisits a node: {list(path)}")
        for u, v in zip(path, path[1:]):
            if not self.has_edge(u, v):
                raise GraphError(f"path uses missing link ({u}, {v})")
        return float(sum(self._costs[node] for node in path[1:-1]))

    # ------------------------------------------------------------------
    # Derivation of modified instances
    # ------------------------------------------------------------------
    def with_cost(self, node: NodeId, cost: Cost) -> "ASGraph":
        """A copy with node *node* declaring *cost* (the ``c^{-k}x``
        construction used throughout the strategyproofness analysis)."""
        if node not in self._costs:
            raise GraphError(f"unknown node {node}")
        new_costs = dict(self._costs)
        new_costs[node] = validate_cost(cost, what=f"cost of node {node}")
        return ASGraph(nodes=new_costs.items(), edges=self._edges)

    def with_costs(self, costs: CostVector) -> "ASGraph":
        """A copy with the cost vector replaced wholesale."""
        unknown = set(costs) - set(self._costs)
        if unknown:
            raise GraphError(f"unknown nodes in cost vector: {sorted(unknown)}")
        new_costs = dict(self._costs)
        for node, cost in costs.items():
            new_costs[node] = validate_cost(cost, what=f"cost of node {node}")
        return ASGraph(nodes=new_costs.items(), edges=self._edges)

    def without_node(self, node: NodeId) -> "ASGraph":
        """A copy with *node* and its links removed (for k-avoiding paths).

        This is the mutation-shaped API: it materializes a real
        :class:`ASGraph` that can itself be mutated further.  Read-only
        sweeps (the per-(destination, k) avoiding Dijkstras) should use
        :meth:`masked_without_node`, which answers the same reads
        without copying the adjacency and cost dicts.
        """
        if node not in self._costs:
            raise GraphError(f"unknown node {node}")
        nodes = [(n, c) for n, c in self._costs.items() if n != node]
        edges = [(u, v) for u, v in self._edges if node not in (u, v)]
        return ASGraph(nodes=nodes, edges=edges)

    def masked_without_node(self, node: NodeId) -> MaskedGraphView:
        """A copy-free read view of ``G - node`` (for k-avoiding sweeps).

        Equivalent to :meth:`without_node` for every read the routing
        kernels perform, but O(1) to construct; the hot avoiding sweep
        builds one per (destination, k) pair.
        """
        return MaskedGraphView(self, node)

    def without_edge(self, u: NodeId, v: NodeId) -> "ASGraph":
        """A copy with the link ``(u, v)`` removed (for failure dynamics)."""
        if not self.has_edge(u, v):
            raise GraphError(f"no link between {u} and {v}")
        key = (min(u, v), max(u, v))
        edges = [edge for edge in self._edges if edge != key]
        return ASGraph(nodes=self._costs.items(), edges=edges)

    def with_edge(self, u: NodeId, v: NodeId) -> "ASGraph":
        """A copy with a new link ``(u, v)`` added."""
        return ASGraph(nodes=self._costs.items(), edges=list(self._edges) + [(u, v)])

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether every node can reach every other node."""
        nodes = self.nodes
        if not nodes:
            return True
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            current = stack.pop()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(nodes)

    def index_of(self) -> Dict[NodeId, int]:
        """A dense ``node -> index`` mapping (for array-based engines)."""
        return {node: index for index, node in enumerate(self.nodes)}

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASGraph):
            return NotImplemented
        return (
            # Graph identity is exact by definition: declared costs are
            # raw inputs, not derived arithmetic.
            self._costs == other._costs  # repro-lint: ok(RPR001)
            and sorted(self._edges) == sorted(other._edges)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"ASGraph(n={self.num_nodes}, m={self.num_edges})"


#: Anything the routing kernels can run a destination-rooted Dijkstra
#: over: a real graph or a copy-free masked view of one.
GraphLike = Union[ASGraph, MaskedGraphView]
