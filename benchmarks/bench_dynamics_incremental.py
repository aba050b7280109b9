"""Dynamics benchmark: incremental vs reference recomputation (BENCH_dynamics.json).

The Sect. 6 model recomputes the centralized reference from scratch
after every network event: ``n + sum_j |transit(j)|`` destination-rooted
Dijkstras per epoch.  The ``incremental`` engine keeps route and
avoiding trees cached across epochs and *repairs* the affected trees in
place (improve waves for decreases/recoveries, detach + re-anchor for
increases/failures).  This benchmark drives both through the same
scripted event sequence on an ISP-like instance and records, per epoch:

* the Dijkstra count (the complexity currency: actual ``route_tree``
  invocations for the incremental engine, the analytic
  ``n + sum_j |transit(j)|`` for the reference sweep) and its ratio to
  the incremental engine's Dijkstra-equivalents (finite even for an
  epoch with no repair work; see :func:`_dijkstra_ratio`),
* the repair counters (labels relaxed / detached / re-anchored) and the
  derived ``dijkstra_equivalents`` -- full runs plus repaired labels
  amortized over the tree size ``n`` -- which the repair-path ceiling
  gates: on the default instance, recover and cost-decrease epochs must
  stay at least 5x below the Dijkstra counts PR 5's warm start needed
  for the same events (1631 and 78; see BENCH_dynamics.json history),
* wall-clock for the full routes+prices recomputation,
* a bit-identity check -- the incremental answer must equal the cold
  reference *exactly* (same paths, ``==`` on every cost and price) on
  every epoch, or the record is marked non-identical and the run fails.

The document's ``host`` block (CPU count, Python and numpy versions)
says which machine the wall times belong to; the counts do not depend
on it.

Output goes to ``BENCH_dynamics.json`` (``make bench-dynamics`` writes
it at the repo root).  Run directly::

    python benchmarks/bench_dynamics_incremental.py --quick --out BENCH_dynamics.json

or via pytest (``make bench``), where a small configuration doubles as
a regression assertion on the cache's savings and soundness.

This module must stay importable with the baseline toolchain only (in
particular: no scipy) -- `repro.devtools.check` enforces that for the
whole benchmarks/ directory.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.graphs.asgraph import ASGraph
from repro.graphs.biconnectivity import is_biconnected
from repro.graphs.generators import isp_like_graph, uniform_costs
from repro.mechanism.vcg import compute_price_table
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.engines import IncrementalEngine

from host_facts import host_facts

QUICK_EVENTS = 4
FULL_EVENTS = 12
DEFAULT_N = 200

#: Dijkstra-equivalent ceilings for the improving-event repair path,
#: calibrated on the default instance (n = 200, seed = 0): PR 5's
#: warm start spent 1631 Dijkstras per recover and 78 per cost
#: decrease; the acceptance bar is >= 5x below that.  Applied only at
#: the default size (the constants are instance-specific).
REPAIR_CEILINGS = {"recover": 1631 / 5.0, "cost_down": 78 / 5.0}

EventSpec = Tuple[str, Any]


def _make_graph(n: int, seed: int) -> ASGraph:
    # Continuous costs: quantized (integer) costs make through-node
    # candidates *tie* incumbents all over the graph, and a tie must
    # invalidate (the canonical tie-break may pick the new path), which
    # would measure tie-handling rather than incremental recomputation.
    return isp_like_graph(n, seed=seed, cost_sampler=uniform_costs(1.0, 6.0))


def _low_degree_nodes(graph: ASGraph, max_degree: int = 4) -> List[int]:
    degree: Dict[int, int] = {node: 0 for node in graph.nodes}
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    low = [node for node in graph.nodes if degree[node] <= max_degree]
    return low or list(graph.nodes)


def _script(graph: ASGraph, count: int, seed: int) -> List[EventSpec]:
    """A deterministic mixed event script preserving biconnectivity.

    Cycles through cost increase, link failure, cost decrease, link
    recovery so that every invalidation family (worsening, tree-edge
    removal, improving bound test, edge-addition bound test) is hit.

    Cost events target stub/regional nodes (degree <= 4; ~70% of an
    ISP-like instance): re-pricing a backbone hub that is transit in
    nearly every route tree changes nearly every tree *genuinely*, a
    global event where incremental and from-scratch recomputation
    coincide by construction.  The steady-state dynamics this benchmark
    measures is the typical event, not the catastrophic one.
    """
    rng = random.Random(seed)
    events: List[EventSpec] = []
    current = graph
    down: List[Tuple[int, int]] = []
    kinds = ("cost_up", "fail", "cost_down", "recover")
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
                kind = "cost_up"  # no removable link: substitute an increase
        if kind == "recover":
            if down:
                u, v = down.pop(0)
                events.append(("recover", (u, v)))
                current = current.with_edge(u, v)
            else:
                kind = "cost_down"
        if kind == "cost_up":
            node = rng.choice(_low_degree_nodes(current))
            new_cost = current.cost(node) * 2.0 + 1.0
            events.append(("cost", (node, new_cost)))
            current = current.with_cost(node, new_cost)
        elif kind == "cost_down":
            node = rng.choice(_low_degree_nodes(current))
            new_cost = current.cost(node) / 2.0
            events.append(("cost", (node, new_cost)))
            current = current.with_cost(node, new_cost)
    return events


def _apply(graph: ASGraph, event: EventSpec) -> ASGraph:
    kind, payload = event
    if kind == "fail":
        return graph.without_edge(*payload)
    if kind == "recover":
        return graph.with_edge(*payload)
    node, new_cost = payload
    return graph.with_cost(node, new_cost)


def _describe(event: EventSpec) -> str:
    kind, payload = event
    if kind == "cost":
        return f"cost({payload[0]}) -> {payload[1]}"
    return f"{kind}{payload}"


def _reference_epoch(graph: ASGraph) -> Tuple[Any, Any, int, float]:
    """Cold reference recomputation; returns (routes, table, dijkstras, wall)."""
    started = time.perf_counter()
    routes = all_pairs_lcp(graph)
    table = compute_price_table(graph, routes=routes)
    elapsed = time.perf_counter() - started
    dijkstras = graph.num_nodes + sum(
        len(routes.transit_nodes(destination)) for destination in graph.nodes
    )
    return routes, table, dijkstras, elapsed


def _incremental_epoch(
    engine: IncrementalEngine, graph: ASGraph
) -> Tuple[Any, Any, Dict[str, int], float]:
    before = engine.stats.snapshot()
    started = time.perf_counter()
    routes = engine.all_pairs(graph)
    table = engine.price_table(graph)
    elapsed = time.perf_counter() - started
    after = engine.stats.snapshot()
    delta = {
        key: after[i] - before[i]
        for i, key in enumerate(
            (
                "hits",
                "misses",
                "invalidations",
                "dijkstras",
                "relaxed",
                "detached",
                "reanchored",
            )
        )
    }
    return routes, table, delta, elapsed


def _equivalents(cache: Dict[str, int], n: int) -> float:
    """Dijkstra-equivalent work: full runs plus repaired labels over n."""
    return cache["dijkstras"] + (cache["relaxed"] + cache["reanchored"]) / n


def _dijkstra_ratio(reference_dijkstras: int, equivalents: float, n: int) -> float:
    """Reference Dijkstras per incremental Dijkstra-equivalent.

    An epoch whose repair settles no label at all is charged one label
    (``1 / n``, the finest unit the equivalents resolve), so the ratio
    stays finite -- a pure cache-hit epoch reads as ``n`` times the
    reference count instead of infinity.
    """
    return round(reference_dijkstras / max(equivalents, 1.0 / n), 3)


def _identical(ref_routes, ref_table, inc_routes, inc_table) -> bool:
    if inc_routes.paths != ref_routes.paths:
        return False
    for destination in ref_routes.graph.nodes:
        ref_tree = ref_routes.tree(destination)
        inc_tree = inc_routes.tree(destination)
        if inc_tree.parents != ref_tree.parents:
            return False
        if inc_tree.costs != ref_tree.costs:
            return False
    return inc_table.rows == ref_table.rows


def run_suite(quick: bool = True, seed: int = 0, n: int = DEFAULT_N) -> Dict[str, Any]:
    """Run the scripted comparison; returns the JSON document."""
    graph = _make_graph(n, seed)
    events = _script(graph, QUICK_EVENTS if quick else FULL_EVENTS, seed)
    engine = IncrementalEngine()

    # Warm both sides on the initial instance, untimed: the benchmark
    # measures steady-state event handling, not the first cold build
    # (which is identical work for both engines by construction).
    ref_routes, ref_table, _, _ = _reference_epoch(graph)
    inc_routes, inc_table, _, _ = _incremental_epoch(engine, graph)
    warm_identical = _identical(ref_routes, ref_table, inc_routes, inc_table)

    epochs: List[Dict[str, Any]] = []
    for event in events:
        kind, payload = event
        if kind == "cost":
            kind = "cost_down" if payload[1] < graph.cost(payload[0]) else "cost_up"
        graph = _apply(graph, event)
        ref_routes, ref_table, ref_dijkstras, ref_wall = _reference_epoch(graph)
        inc_routes, inc_table, cache, inc_wall = _incremental_epoch(engine, graph)
        equivalents = _equivalents(cache, n)
        ceiling = REPAIR_CEILINGS.get(kind) if n == DEFAULT_N else None
        epochs.append(
            {
                "event": _describe(event),
                "kind": kind,
                "reference": {
                    "dijkstras": ref_dijkstras,
                    "wall_s": round(ref_wall, 6),
                },
                "incremental": {
                    "dijkstras": cache["dijkstras"],
                    "dijkstra_equivalents": round(equivalents, 3),
                    "wall_s": round(inc_wall, 6),
                    "cache_hits": cache["hits"],
                    "cache_misses": cache["misses"],
                    "cache_invalidations": cache["invalidations"],
                    "repair_relaxed": cache["relaxed"],
                    "repair_detached": cache["detached"],
                    "repair_reanchored": cache["reanchored"],
                },
                "dijkstra_ratio": _dijkstra_ratio(ref_dijkstras, equivalents, n),
                "speedup": round(ref_wall / inc_wall, 3)
                if inc_wall
                else float("inf"),
                "repair_ceiling": ceiling,
                "repair_ok": ceiling is None or equivalents <= ceiling,
                "model_identical": _identical(
                    ref_routes, ref_table, inc_routes, inc_table
                ),
            }
        )
    ref_total_dijkstras = sum(e["reference"]["dijkstras"] for e in epochs)
    inc_total_equivalents = sum(
        e["incremental"]["dijkstra_equivalents"] for e in epochs
    )
    ref_total_wall = sum(e["reference"]["wall_s"] for e in epochs)
    inc_total_wall = sum(e["incremental"]["wall_s"] for e in epochs)
    return {
        "benchmark": "dynamics_incremental",
        "mode": "quick" if quick else "full",
        "n": n,
        "seed": seed,
        "events": len(epochs),
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host_facts(),
        "epochs": epochs,
        "all_model_identical": warm_identical
        and all(e["model_identical"] for e in epochs),
        "repair_within_ceiling": all(e["repair_ok"] for e in epochs),
        "total_dijkstra_ratio": _dijkstra_ratio(
            ref_total_dijkstras, inc_total_equivalents, n
        ),
        "total_speedup": round(ref_total_wall / inc_total_wall, 3)
        if inc_total_wall
        else float("inf"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"{QUICK_EVENTS} events (CI mode; full: {FULL_EVENTS})",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=DEFAULT_N, help="graph size")
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_dynamics.json",
        help="output path (default: BENCH_dynamics.json)",
    )
    args = parser.parse_args(argv)
    document = run_suite(quick=args.quick, seed=args.seed, n=args.n)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, allow_nan=False)
        fh.write("\n")
    for epoch in document["epochs"]:
        print(
            "%(event)s: dijkstras %(rd)d -> %(eq).1f equiv (%(relaxed)d relaxed, "
            "%(rean)d re-anchored), wall %(rw).2fs -> %(iw).2fs (%(speedup).1fx), "
            "identical: %(ident)s%(ceiling)s"
            % {
                "event": epoch["event"],
                "rd": epoch["reference"]["dijkstras"],
                "eq": epoch["incremental"]["dijkstra_equivalents"],
                "relaxed": epoch["incremental"]["repair_relaxed"],
                "rean": epoch["incremental"]["repair_reanchored"],
                "rw": epoch["reference"]["wall_s"],
                "iw": epoch["incremental"]["wall_s"],
                "speedup": epoch["speedup"],
                "ident": epoch["model_identical"],
                "ceiling": ""
                if epoch["repair_ok"]
                else f" OVER CEILING {epoch['repair_ceiling']:.1f}",
            }
        )
    print(
        "total: %(ratio).1fx fewer Dijkstra-equivalents, wall %(speedup).1fx faster, "
        "all identical: %(ident)s, repair within ceiling: %(repair)s"
        % {
            "ratio": document["total_dijkstra_ratio"],
            "speedup": document["total_speedup"],
            "ident": document["all_model_identical"],
            "repair": document["repair_within_ceiling"],
        }
    )
    print(f"wrote {args.out}")
    ok = document["all_model_identical"] and document["repair_within_ceiling"]
    return 0 if ok else 1


# ----------------------------------------------------------------------
# pytest integration: a small configuration as a tracked benchmark.
# ----------------------------------------------------------------------
def test_bench_dynamics_incremental(benchmark):
    graph = _make_graph(60, seed=0)
    events = _script(graph, 4, seed=0)
    engine = IncrementalEngine()
    _incremental_epoch(engine, graph)  # warm

    mutated = graph
    for event in events:
        mutated = _apply(mutated, event)

    def run_warm_epochs():
        # Replay from the warmed state: the cache makes this the
        # steady-state cost of tracking the script.
        current = graph
        total = 0
        for event in events:
            current = _apply(current, event)
            _routes, _table, cache, _wall = _incremental_epoch(engine, current)
            total += cache["dijkstras"]
        return total

    inc_dijkstras = benchmark(run_warm_epochs)
    # Soundness: final epoch bit-identical to the cold reference.
    ref_routes, ref_table, ref_dijkstras, _ = _reference_epoch(mutated)
    inc_routes, inc_table, _, _ = _incremental_epoch(engine, mutated)
    assert _identical(ref_routes, ref_table, inc_routes, inc_table)
    # Savings: one epoch of reference work exceeds the whole warm replay.
    assert inc_dijkstras < ref_dijkstras * len(events)
    # The script's mixed events must exercise both repair families.
    assert engine.stats.relaxed > 0
    assert engine.stats.detached > 0 and engine.stats.reanchored > 0


if __name__ == "__main__":
    raise SystemExit(main())
