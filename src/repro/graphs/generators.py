"""Topology generators for experiments and tests.

Every generator returns a **biconnected** :class:`~repro.graphs.asgraph.ASGraph`
(the precondition of Theorem 1), with node transit costs drawn from a
configurable distribution.  Randomized families are repaired with
:func:`~repro.graphs.biconnectivity.make_biconnected` when a draw happens
to contain cut vertices.

The :func:`fig1_graph` generator reproduces the worked example of
Section 4 (Figure 1) exactly, including its node labels and costs.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import GraphError
from repro.graphs.asgraph import ASGraph
from repro.graphs.biconnectivity import is_biconnected, make_biconnected
from repro.types import Cost, Edge, NodeId

CostSampler = Callable[[random.Random], Cost]

#: Human labels for the Figure 1 example graph.
FIG1_LABELS: Dict[str, NodeId] = {"X": 0, "A": 1, "B": 2, "D": 3, "Y": 4, "Z": 5}

#: Transit costs from Figure 1 of the paper.
FIG1_COSTS: Dict[str, Cost] = {"X": 2, "A": 5, "B": 2, "D": 1, "Y": 3, "Z": 4}


def uniform_costs(low: Cost = 1.0, high: Cost = 10.0) -> CostSampler:
    """A cost sampler drawing uniformly from ``[low, high]``."""
    if low < 0 or high < low:
        raise GraphError(f"invalid cost range [{low}, {high}]")

    def sample(rng: random.Random) -> Cost:
        return rng.uniform(low, high)

    return sample


def integer_costs(low: int = 1, high: int = 10) -> CostSampler:
    """A cost sampler drawing integers from ``[low, high]``.

    Integer costs make ties common, which stresses the tie-breaking and
    loop-freedom machinery; experiments use them deliberately.
    """
    if low < 0 or high < low:
        raise GraphError(f"invalid cost range [{low}, {high}]")

    def sample(rng: random.Random) -> Cost:
        return float(rng.randint(low, high))

    return sample


def _draw_costs(
    node_ids: Sequence[NodeId],
    rng: random.Random,
    cost_sampler: Optional[CostSampler],
) -> List[Tuple[NodeId, Cost]]:
    sampler = cost_sampler or uniform_costs()
    return [(node, sampler(rng)) for node in node_ids]


def fig1_graph() -> ASGraph:
    """The six-AS example graph of Figure 1.

    Nodes are numbered via :data:`FIG1_LABELS` (X=0, A=1, B=2, D=3, Y=4,
    Z=5) and carry the costs of :data:`FIG1_COSTS`.  The worked example of
    Section 4 holds on it: the LCP from X to Z is X-B-D-Z with transit
    cost 3, node D is paid 3 and node B is paid 4 per packet; the LCP
    from Y to Z is Y-D-Z with transit cost 1 and D is paid 9 per packet.
    """
    label = FIG1_LABELS
    nodes = [(label[name], float(FIG1_COSTS[name])) for name in sorted(label, key=label.get)]
    edges = [
        (label["X"], label["A"]),
        (label["A"], label["Z"]),
        (label["X"], label["B"]),
        (label["B"], label["D"]),
        (label["D"], label["Z"]),
        (label["Y"], label["D"]),
        (label["Y"], label["B"]),
    ]
    return ASGraph(nodes=nodes, edges=edges)


def ring_graph(
    n: int,
    seed: int = 0,
    cost_sampler: Optional[CostSampler] = None,
) -> ASGraph:
    """A cycle on *n* >= 3 nodes: the minimal biconnected family.

    Rings maximize the gap between hop diameter and node count and give
    every transit node exactly one avoiding path (the other way around),
    making them the worst case for overpayment.
    """
    if n < 3:
        raise GraphError("ring requires n >= 3")
    rng = random.Random(seed)
    nodes = _draw_costs(range(n), rng, cost_sampler)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return ASGraph(nodes=nodes, edges=edges)


def wheel_graph(
    n: int,
    seed: int = 0,
    cost_sampler: Optional[CostSampler] = None,
) -> ASGraph:
    """A wheel: a ring of ``n - 1`` nodes plus a hub adjacent to all.

    The hub sits on many LCPs, so wheels exercise the pricing of a
    near-monopoly (but not monopoly) transit node.
    """
    if n < 4:
        raise GraphError("wheel requires n >= 4")
    rng = random.Random(seed)
    nodes = _draw_costs(range(n), rng, cost_sampler)
    hub = n - 1
    rim = list(range(n - 1))
    edges = [(i, (i + 1) % (n - 1)) for i in rim]
    edges += [(i, hub) for i in rim]
    return ASGraph(nodes=nodes, edges=edges)


def clique_graph(
    n: int,
    seed: int = 0,
    cost_sampler: Optional[CostSampler] = None,
) -> ASGraph:
    """The complete graph on *n* >= 3 nodes; diameter-1 best case."""
    if n < 3:
        raise GraphError("clique requires n >= 3")
    rng = random.Random(seed)
    nodes = _draw_costs(range(n), rng, cost_sampler)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return ASGraph(nodes=nodes, edges=edges)


def grid_graph(
    rows: int,
    cols: int,
    seed: int = 0,
    cost_sampler: Optional[CostSampler] = None,
) -> ASGraph:
    """A ``rows x cols`` torus-free grid, wrapped at the border rows and
    columns only as needed for biconnectivity.

    A plain grid with ``rows, cols >= 2`` is already biconnected; it
    models sparse, high-diameter topologies with many near-tied routes.
    """
    if rows < 2 or cols < 2:
        raise GraphError("grid requires rows >= 2 and cols >= 2")
    rng = random.Random(seed)
    n = rows * cols
    nodes = _draw_costs(range(n), rng, cost_sampler)

    def node_at(r: int, c: int) -> NodeId:
        return r * cols + c

    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node_at(r, c), node_at(r, c + 1)))
            if r + 1 < rows:
                edges.append((node_at(r, c), node_at(r + 1, c)))
    return ASGraph(nodes=nodes, edges=edges)


def random_biconnected_graph(
    n: int,
    edge_probability: float = 0.2,
    seed: int = 0,
    cost_sampler: Optional[CostSampler] = None,
) -> ASGraph:
    """An Erdős–Rényi ``G(n, p)`` draw repaired to biconnectivity.

    Starts from a Hamiltonian cycle (guaranteeing biconnectivity without
    repair in the common case) and adds each chord independently with
    probability *edge_probability*.
    """
    if n < 3:
        raise GraphError("random graph requires n >= 3")
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {edge_probability}")
    rng = random.Random(seed)
    nodes = _draw_costs(range(n), rng, cost_sampler)
    edges = [(i, (i + 1) % n) for i in range(n)]
    present = set(edges) | {(v, u) for u, v in edges}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in present:
                continue
            if rng.random() < edge_probability:
                edges.append((i, j))
                present.add((i, j))
    return ASGraph(nodes=nodes, edges=edges)


def waxman_graph(
    n: int,
    alpha: float = 0.6,
    beta: float = 0.3,
    seed: int = 0,
    cost_sampler: Optional[CostSampler] = None,
) -> ASGraph:
    """A Waxman random geometric graph, the classic Internet-topology
    strawman, repaired to biconnectivity.

    Nodes are placed uniformly in the unit square and linked with
    probability ``alpha * exp(-dist / (beta * sqrt(2)))``.
    """
    if n < 3:
        raise GraphError("waxman requires n >= 3")
    rng = random.Random(seed)
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    scale = beta * math.sqrt(2.0)
    edges: List[Edge] = []
    for i in range(n):
        for j in range(i + 1, n):
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            dist = math.hypot(dx, dy)
            if rng.random() < alpha * math.exp(-dist / scale):
                edges.append((i, j))
    nodes = _draw_costs(range(n), rng, cost_sampler)
    graph = ASGraph(nodes=nodes, edges=edges)
    if not is_biconnected(graph):
        graph = make_biconnected(graph, rng=rng)
    return graph


def barabasi_albert_graph(
    n: int,
    attachment: int = 2,
    seed: int = 0,
    cost_sampler: Optional[CostSampler] = None,
) -> ASGraph:
    """A Barabási–Albert preferential-attachment graph (power-law degrees,
    like the AS graph), repaired to biconnectivity.

    Each new node attaches to *attachment* >= 2 distinct existing nodes
    chosen proportionally to degree.
    """
    if n < 3:
        raise GraphError("barabasi-albert requires n >= 3")
    if attachment < 2:
        raise GraphError("attachment must be >= 2 for biconnectivity")
    if attachment >= n:
        raise GraphError("attachment must be < n")
    rng = random.Random(seed)
    edges: List[Edge] = []
    # Seed clique of (attachment + 1) nodes.
    seed_size = attachment + 1
    for i in range(seed_size):
        for j in range(i + 1, seed_size):
            edges.append((i, j))
    # Repeated-endpoint list implements preferential attachment.
    endpoint_pool: List[NodeId] = [endpoint for edge in edges for endpoint in edge]
    for new_node in range(seed_size, n):
        targets: set = set()
        while len(targets) < attachment:
            targets.add(rng.choice(endpoint_pool))
        for target in sorted(targets):
            edges.append((target, new_node))
            endpoint_pool.extend((target, new_node))
    nodes = _draw_costs(range(n), rng, cost_sampler)
    graph = ASGraph(nodes=nodes, edges=edges)
    if not is_biconnected(graph):
        graph = make_biconnected(graph, rng=rng)
    return graph


def isp_like_graph(
    n: int,
    core_fraction: float = 0.2,
    seed: int = 0,
    cost_sampler: Optional[CostSampler] = None,
) -> ASGraph:
    """A two-tier ISP-like AS topology.

    A densely meshed *core* (tier-1 providers) plus *stub* ASes, each
    multihomed to at least two providers chosen preferentially toward the
    core.  This mimics the real AS graph's low effective diameter, the
    regime the paper appeals to in Section 6.2 when arguing that ``d'``
    stays close to ``d`` in practice.
    """
    if n < 5:
        raise GraphError("isp-like graph requires n >= 5")
    if not 0.0 < core_fraction < 1.0:
        raise GraphError(f"core fraction must be in (0, 1), got {core_fraction}")
    rng = random.Random(seed)
    core_size = max(3, int(round(n * core_fraction)))
    core = list(range(core_size))
    edges: List[Edge] = []
    # Dense core: ring plus random chords with probability 0.5.
    for index, node in enumerate(core):
        edges.append((node, core[(index + 1) % core_size]))
    present = {tuple(sorted(edge)) for edge in edges}
    for i in core:
        for j in core:
            if i < j and (i, j) not in present and rng.random() < 0.5:
                edges.append((i, j))
                present.add((i, j))
    # Stubs: multihome each to two distinct providers (core-biased).
    providers_pool = list(core)
    for stub in range(core_size, n):
        first, second = rng.sample(providers_pool, 2)
        edges.append((first, stub))
        edges.append((second, stub))
        # Grown stubs can themselves become providers, with low weight.
        if rng.random() < 0.3:
            providers_pool.append(stub)
    nodes = _draw_costs(range(n), rng, cost_sampler)
    graph = ASGraph(nodes=nodes, edges=edges)
    if not is_biconnected(graph):
        graph = make_biconnected(graph, rng=rng)
    return graph


#: Registry of generator families used by the experiment harness.
FAMILIES: Dict[str, Callable[..., ASGraph]] = {
    "ring": ring_graph,
    "wheel": wheel_graph,
    "clique": clique_graph,
    "random": random_biconnected_graph,
    "waxman": waxman_graph,
    "barabasi-albert": barabasi_albert_graph,
    "isp-like": isp_like_graph,
}

#: Node counts of the shared large-instance presets.  The n = 10000
#: entries are the internet-scale floor of the ROADMAP's policy-topology
#: item; the flat engine's sweep is the only one expected to price
#: them end-to-end.
SCALING_SIZES: Tuple[int, ...] = (1000, 2000, 5000, 10000)

#: Seeded large-instance presets shared by the flat-sweep scaling
#: benchmark and the upcoming internet-scale policy-topology work, so
#: both measure the same graphs instead of growing private generator
#: paths.  ISP-like presets model the low-diameter multihomed regime of
#: Sect. 6.2; preferential-attachment presets model the AS graph's
#: power-law degrees.  Costs are continuous (uniform) on purpose:
#: integer costs make canonical tie-breaking the dominant work at these
#: sizes, which would measure tie handling rather than the price sweep.
SCALING_PRESETS: Dict[str, Tuple[str, int, int]] = {
    f"{family}-{n}": (family, n, n)
    for family in ("isp-like", "barabasi-albert")
    for n in SCALING_SIZES
}


def scaling_graph(preset: str) -> ASGraph:
    """Build one of the named large-instance presets (seeded).

    *preset* is a :data:`SCALING_PRESETS` key such as ``"isp-like-1000"``
    or ``"barabasi-albert-5000"``; the node count doubles as the seed so
    every preset is a distinct, reproducible draw.
    """
    try:
        family, n, seed = SCALING_PRESETS[preset]
    except KeyError:
        known = ", ".join(sorted(SCALING_PRESETS))
        raise GraphError(f"unknown scaling preset {preset!r}; known: {known}") from None
    generator = FAMILIES[family]
    return generator(n, seed=seed, cost_sampler=uniform_costs(1.0, 6.0))
