"""The benchmark's workloads: seeded inputs, timed regions, output checks.

A run of a workload starts a fixed number of child processes, each of
which measures a fixed batch of *instances*; instance ``i`` of a run
with seed ``S`` is drawn from seed ``S * 1000 + i``, so the inputs
depend on the seed alone and the program sees only the generated
graphs and event scripts.  Graphs
come from ``isp_like_graph`` / ``barabasi_albert_graph`` with
``uniform_costs(1.0, 6.0)``: continuous costs keep canonical
tie-breaking from dominating the work.

Each workload does most of its work in different layers, so a gain or
a cost in one layer shows somewhere:

* ``price-isp``: ``api.compute_price_table(g, engine="flat")`` on a dense
  two-tier graph.  Canonical routes dominate, and it is the only
  workload that pays the ``FlatPriceArrays.to_rows`` dict assembly.
* ``price-ba``: ``api.all_pairs_lcp`` then ``flatsweep.flat_price_arrays``
  on a sparse preferential-attachment graph with long paths.  The
  k-avoiding sweep takes a larger share and no ``to_rows`` runs, so an
  assembly-only change must not move it.
* ``converge-isp``: ``api.run(g)``, the staged Sect. 5/6 protocol on the
  delta substrate.  Node decisions dominate; no routing engine runs in
  the timed region.
* ``async-isp``: ``api.run(g, asynchronous=True)``, the same node layer
  driven one delivery at a time, so the event loop itself shows.
* ``reprice-isp``: one client repricing after each scripted network
  event through a persistent ``incremental`` engine.  Its cold build is
  part of set-up, so work moved into set-up shows in ``setup_s``.

This module imports the library; only child processes import it.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from repro import api
from repro.bgp.engine import AsynchronousEngine, SynchronousEngine
from repro.bgp.node import BGPNode
from repro.graphs.asgraph import ASGraph
from repro.graphs.biconnectivity import is_biconnected
from repro.graphs.generators import barabasi_albert_graph, isp_like_graph, uniform_costs
from repro.mechanism.vcg import vcg_price
from repro.routing import allpairs, flatsweep
from repro.types import costs_close

from spans import Tracer

SpanFactory = Callable[[str], ContextManager[None]]
EventSpec = Tuple[str, Tuple[Any, ...]]

#: priced pairs spot-checked per price table against ``vcg_price``
SPOT_CHECK_PAIRS = 20
#: scripted events per reprice instance; every CHECK_EVERY-th (and the
#: last) is compared with a cold table
REPRICE_EVENTS = 24
CHECK_EVERY = 10


@dataclass
class Instance:
    """One generated input plus any warm state set-up prepared."""

    graph: ASGraph
    seed: int
    events: List[EventSpec] = field(default_factory=list)
    epochs: List[ASGraph] = field(default_factory=list)
    engine: Any = None

    def fingerprint(self) -> str:
        """sha256 over the sorted edges, the cost reprs and the events."""
        digest = hashlib.sha256()
        digest.update(repr(sorted(self.graph.edges)).encode())
        digest.update(repr([(v, self.graph.cost(v)) for v in self.graph.nodes]).encode())
        digest.update(repr(self.events).encode())
        return digest.hexdigest()


@dataclass
class Output:
    """What a timed region produced.

    One latency per operation (a whole timed call, or one event for
    reprice); ``failed`` maps an operation index to why it failed.
    """

    latencies: List[float]
    value: Any
    failed: Dict[int, str] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    toy_n: int
    #: child processes per run, and instances each child measures; sized
    #: so a run measures about ten seconds
    children: int
    batch: int
    prepare: Callable[[int, int, bool], Instance]
    timed: Callable[[Instance, SpanFactory], Output]
    check: Callable[[Instance, Output], Dict[int, str]]


def _uniform(n: int, seed: int, family: Callable[..., ASGraph]) -> ASGraph:
    return family(n, seed=seed, cost_sampler=uniform_costs(1.0, 6.0))


def _prepare_isp(seed: int, n: int, toy: bool) -> Instance:
    return Instance(_uniform(n, seed, isp_like_graph), seed)


def _prepare_ba(seed: int, n: int, toy: bool) -> Instance:
    return Instance(_uniform(n, seed, barabasi_albert_graph), seed)


def _timed_call(call: Callable[[], Any]) -> Output:
    started = time.perf_counter()
    try:
        value = call()
    except Exception as exc:  # a raising call is a failed operation
        return Output([time.perf_counter() - started], None, {0: repr(exc)})
    return Output([time.perf_counter() - started], value)


# ----------------------------------------------------------------------
# Price checks
# ----------------------------------------------------------------------


def _sample_pairs(graph: ASGraph, seed: int) -> List[Tuple[int, int]]:
    """SPOT_CHECK_PAIRS seeded ordered pairs that are not adjacent."""
    rng = random.Random(seed)
    nodes = list(graph.nodes)
    pairs: List[Tuple[int, int]] = []
    while len(pairs) < SPOT_CHECK_PAIRS:
        source, destination = rng.sample(nodes, 2)
        if not graph.has_edge(source, destination) and (source, destination) not in pairs:
            pairs.append((source, destination))
    return pairs


def _check_prices(
    graph: ASGraph,
    seed: int,
    routes: Any,
    priced_pairs: int,
    row: Callable[[int, int], Dict[int, float]],
) -> Optional[str]:
    """Coverage count plus a spot check of every transit price on
    seeded pairs against the single-price Theorem 1 formula."""
    expected_pairs = graph.num_nodes * (graph.num_nodes - 1) - 2 * graph.num_edges
    if priced_pairs != expected_pairs:
        return f"{priced_pairs} priced pairs, expected {expected_pairs}"
    for source, destination in _sample_pairs(graph, seed):
        transit = routes.path(source, destination)[1:-1]
        prices = row(source, destination)
        if sorted(prices) != sorted(transit):
            return f"pair {(source, destination)}: priced {sorted(prices)}, transit {transit}"
        for k in transit:
            expected = vcg_price(graph, source, destination, k, routes)
            if not costs_close(prices[k], expected):
                return f"p^{k}_{source},{destination} = {prices[k]!r}, expected {expected!r}"
    return None


def _rows_match(table: Any, reference: Any) -> Optional[str]:
    """Same priced pairs, same transit keys, prices within costs_close."""
    if table.rows.keys() != reference.rows.keys():
        return "priced pairs differ from the cold table"
    for pair, expected in reference.rows.items():
        row = table.rows[pair]
        if row.keys() != expected.keys():
            return f"pair {pair}: transit {sorted(row)} != {sorted(expected)}"
        for k, price in expected.items():
            if not costs_close(row[k], price):
                return f"p^{k}_{pair} = {row[k]!r}, cold table {price!r}"
    return None


# ----------------------------------------------------------------------
# price-isp: the Theorem 1 table through the public facade
# ----------------------------------------------------------------------


def _timed_price_isp(instance: Instance, span: SpanFactory) -> Output:
    def call() -> Any:
        with span("mechanism.vcg"):
            return api.compute_price_table(instance.graph, engine="flat")

    return _timed_call(call)


def _check_price_isp(instance: Instance, output: Output) -> Dict[int, str]:
    table = output.value
    problem = _check_prices(
        instance.graph,
        instance.seed,
        table.routes,
        len(table.rows),
        lambda source, destination: table.rows[(source, destination)],
    )
    return {0: problem} if problem else {}


# ----------------------------------------------------------------------
# price-ba: routes plus the array deliverable, no dict assembly
# ----------------------------------------------------------------------


def _timed_price_ba(instance: Instance, span: SpanFactory) -> Output:
    def call() -> Any:
        with span("routing.allpairs"):
            routes = api.all_pairs_lcp(instance.graph)
        return routes, flatsweep.flat_price_arrays(instance.graph, routes)

    return _timed_call(call)


def _check_price_ba(instance: Instance, output: Output) -> Dict[int, str]:
    routes, arrays = output.value
    dense = {node: i for i, node in enumerate(arrays.node_ids.tolist())}

    def row(source: int, destination: int) -> Dict[int, float]:
        hits = (arrays.pair_src == dense[source]) & (arrays.pair_dst == dense[destination])
        (position,) = hits.nonzero()[0].tolist()
        start, stop = arrays.pair_offset[position], arrays.pair_offset[position + 1]
        transit = arrays.node_ids[arrays.entry_k[start:stop]].tolist()
        return dict(zip(transit, arrays.prices[start:stop].tolist()))

    problem = _check_prices(instance.graph, instance.seed, routes, arrays.num_pairs, row)
    return {0: problem} if problem else {}


# ----------------------------------------------------------------------
# converge-isp / async-isp: the Sect. 6 protocol
# ----------------------------------------------------------------------


def _protocol_counts(report: Any) -> Dict[str, float]:
    return {
        "bgp.stages": report.stages,
        "bgp.messages": report.total_messages,
        "bgp.rows_sent": report.total_rows_sent,
        "bgp.rows_suppressed": report.total_rows_suppressed,
    }


def _timed_protocol(asynchronous: bool) -> Callable[[Instance, SpanFactory], Output]:
    def timed(instance: Instance, span: SpanFactory) -> Output:
        if asynchronous:
            output = _timed_call(
                lambda: api.run(instance.graph, asynchronous=True, seed=instance.seed)
            )
        else:
            output = _timed_call(lambda: api.run(instance.graph))
        if output.value is not None:
            output.counts = _protocol_counts(output.value.report)
        return output

    return timed


def _check_protocol(instance: Instance, output: Output) -> Dict[int, str]:
    cold = api.compute_price_table(instance.graph, engine="flat")
    report = api.verify_against_centralized(output.value, cold)
    if not report.ok:
        return {0: f"{len(report.mismatches)} mismatches, first {report.mismatches[0]}"}
    return {}


# ----------------------------------------------------------------------
# reprice-isp: event-driven repricing from warm caches
# ----------------------------------------------------------------------


def _low_degree_nodes(graph: ASGraph, max_degree: int = 4) -> List[int]:
    low = [node for node in graph.nodes if graph.degree(node) <= max_degree]
    return low or list(graph.nodes)


def event_script(graph: ASGraph, count: int, seed: int) -> List[EventSpec]:
    """A deterministic mixed event script that keeps the graph biconnected.

    Cycles through cost increase, link failure, cost decrease, cost
    increase, link recovery and cost decrease, so every repair family of
    the incremental engine runs.  Link events cost several times more
    than cost events; at two link events in six, the median lies inside
    the cost events and the 90th percentile inside the link events, so
    neither sits on the boundary between the two, where it would swing
    with the draw.

    Cost events target stub and regional nodes (degree <= 4): repricing
    a backbone hub changes nearly every tree, where incremental and
    from-scratch work coincide.  The suite owns this generator so that
    no file outside it can change a workload.
    """
    rng = random.Random(seed)
    events: List[EventSpec] = []
    current = graph
    down: List[Tuple[int, int]] = []
    kinds = ("cost_up", "fail", "cost_down", "cost_up", "recover", "cost_down")
    for index in range(count):
        kind = kinds[index % len(kinds)]
        if kind == "fail":
            edges = list(current.edges)
            rng.shuffle(edges)
            for u, v in edges:
                candidate = current.without_edge(u, v)
                if is_biconnected(candidate):
                    events.append(("fail", (u, v)))
                    current = candidate
                    down.append((u, v))
                    break
            else:
                kind = "cost_up"
        if kind == "recover":
            if down:
                u, v = down.pop(0)
                events.append(("recover", (u, v)))
                current = current.with_edge(u, v)
            else:
                kind = "cost_down"
        if kind in ("cost_up", "cost_down"):
            node = rng.choice(_low_degree_nodes(current))
            old = current.cost(node)
            new_cost = old * 2.0 + 1.0 if kind == "cost_up" else old / 2.0
            events.append(("cost", (node, new_cost)))
            current = current.with_cost(node, new_cost)
    return events


def _apply(graph: ASGraph, event: EventSpec) -> ASGraph:
    kind, payload = event
    if kind == "fail":
        return graph.without_edge(*payload)
    if kind == "recover":
        return graph.with_edge(*payload)
    return graph.with_cost(*payload)


#: the incremental engine's CacheStats fields, in snapshot() order
_CACHE_FIELDS = (
    "hits", "misses", "invalidations", "dijkstras", "relaxed", "detached", "reanchored"
)


def _prepare_reprice(seed: int, n: int, toy: bool) -> Instance:
    graph = _uniform(n, seed, isp_like_graph)
    events = event_script(graph, 10 if toy else REPRICE_EVENTS, seed)
    epochs = []
    current = graph
    for event in events:
        current = _apply(current, event)
        epochs.append(current)
    engine = api.get_engine("incremental")
    engine.price_table(graph, engine.all_pairs(graph))  # the cold build
    return Instance(graph, seed, events, epochs, engine)


def _checked_event(index: int, count: int) -> bool:
    return (index + 1) % CHECK_EVERY == 0 or index == count - 1


def _timed_reprice(instance: Instance, span: SpanFactory) -> Output:
    engine = instance.engine
    before = engine.stats.snapshot()
    latencies: List[float] = []
    failed: Dict[int, str] = {}
    kept: Dict[int, Any] = {}
    count = len(instance.epochs)
    for index, graph in enumerate(instance.epochs):
        started = time.perf_counter()
        try:
            with span("routing.engines.incremental.sync"):
                routes = engine.all_pairs(graph)
            with span("routing.engines.incremental.rows"):
                table = engine.price_table(graph, routes)
        except Exception as exc:  # a raising event is a failed operation
            failed[index] = repr(exc)
        else:
            if _checked_event(index, count):
                kept[index] = table
        latencies.append(time.perf_counter() - started)
    after = engine.stats.snapshot()
    counts = {
        f"routing.engines.incremental.{name}": after[i] - before[i]
        for i, name in enumerate(_CACHE_FIELDS)
    }
    return Output(latencies, kept, failed, counts)


def _check_reprice(instance: Instance, output: Output) -> Dict[int, str]:
    problems: Dict[int, str] = {}
    for index, table in output.value.items():
        cold = api.compute_price_table(instance.epochs[index], engine="flat")
        problem = _rows_match(table, cold)
        if problem:
            problems[index] = problem
    return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Run time swings with the drawn graph and with the host, so every
        # run pools at least eight graphs: the median and 90th percentile
        # of a handful of calls would follow single draws.
        Workload("price-isp-400", 400, 40, 3, 3, _prepare_isp, _timed_price_isp, _check_price_isp),
        Workload("price-ba-400", 400, 40, 3, 3, _prepare_ba, _timed_price_ba, _check_price_ba),
        Workload(
            "converge-isp-80", 80, 30, 3, 4, _prepare_isp,
            _timed_protocol(asynchronous=False), _check_protocol,
        ),
        Workload(
            "async-isp-40", 40, 20, 3, 5, _prepare_isp,
            _timed_protocol(asynchronous=True), _check_protocol,
        ),
        Workload("reprice-isp-50", 50, 30, 3, 8, _prepare_reprice, _timed_reprice, _check_reprice),
    )
}


# ----------------------------------------------------------------------
# Traced pass: layer entry points, wrapped where their callers look
# them up.  PriceComputingNode does its price work inside decide()
# (through _after_decide), so decide covers route and price selection.
# ----------------------------------------------------------------------


def _demand_counts(demand: Any) -> Dict[str, float]:
    return {"entries": demand.num_entries, "pairs": demand.num_pairs, "groups": demand.num_groups}


def _sweep_counts(arrays: Any) -> Dict[str, float]:
    stats = arrays.stats
    return {
        "solves": stats.solves,
        "rows": stats.rows,
        "masked": stats.masked,
        "max_block_rows": stats.max_block_rows,
    }


def install_layer_spans(tracer: Tracer) -> None:
    # flat.py imports all_pairs_lcp at call time, from the module
    tracer.wrap(allpairs, "all_pairs_lcp", "routing.allpairs")
    tracer.wrap(flatsweep, "build_flat_graph", "routing.flatgraph")
    tracer.wrap(flatsweep, "demand_from_routes", "routing.flatsweep.demand", _demand_counts)
    tracer.wrap(flatsweep, "sweep_demand", "routing.flatsweep.sweep", _sweep_counts)
    tracer.wrap(flatsweep.FlatPriceArrays, "to_rows", "routing.flatsweep.to_rows")
    tracer.wrap(BGPNode, "decide", "bgp.node.decide")
    tracer.wrap(BGPNode, "publication_delta", "bgp.node.advertise")
    tracer.wrap(BGPNode, "receive_delta", "bgp.node.deliver")
    tracer.wrap(BGPNode, "receive_table", "bgp.node.deliver")
    tracer.wrap(SynchronousEngine, "step", "bgp.engine")
    tracer.wrap(AsynchronousEngine, "run", "bgp.engine")


def layer_metrics(
    n: int, wall: float, tracer: Tracer, counts: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of one traced child.

    Every ``<layer>.time_s`` is self time; ``<layer>.calls`` counts its
    spans.  Layers a workload does not touch are simply absent.
    """
    times = tracer.layer_times(wall)
    metrics: Dict[str, float] = {}
    for layer, seconds in times["self_s"].items():
        metrics[f"{layer}.time_s"] = seconds
        metrics[f"{layer}.calls"] = times["calls"][layer]
    metrics.update(tracer.counts)
    metrics.update(counts)
    metrics["trace.coverage"] = times["coverage"]
    metrics["trace.unattributed_s"] = times["unattributed_s"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    get = metrics.get
    metrics["routing.flatsweep.sweep.row_fraction"] = ratio(
        get("routing.flatsweep.sweep.rows", 0), get("routing.flatsweep.sweep.solves", 0) * n
    )
    sent, suppressed = get("bgp.rows_sent", 0), get("bgp.rows_suppressed", 0)
    metrics["bgp.suppression_ratio"] = ratio(suppressed, sent + suppressed)
    inc = "routing.engines.incremental."
    hits, misses = get(inc + "hits", 0), get(inc + "misses", 0)
    metrics[inc + "hit_ratio"] = ratio(hits, hits + misses)
    metrics[inc + "dijkstra_equivalents"] = get(inc + "dijkstras", 0) + ratio(
        get(inc + "relaxed", 0) + get(inc + "reanchored", 0), n
    )
    return metrics
